//! Symbol frequency histograms.
//!
//! Gompresso builds its two Huffman trees per data block from the token
//! frequencies of that block (paper, Section III-A). The histogram is the
//! bridge between the LZ77 token stream and the code construction.

/// Frequency counts over a dense `u16` symbol alphabet `0..alphabet_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an all-zero histogram over `alphabet_size` symbols.
    pub fn new(alphabet_size: usize) -> Self {
        Self { counts: vec![0; alphabet_size] }
    }

    /// Builds a histogram directly from a slice of symbols.
    pub fn from_symbols(alphabet_size: usize, symbols: &[u16]) -> Self {
        let mut h = Self::new(alphabet_size);
        for &s in symbols {
            h.add(s);
        }
        h
    }

    /// Number of symbols in the alphabet (including zero-frequency ones).
    pub fn alphabet_size(&self) -> usize {
        self.counts.len()
    }

    /// Resets every count to zero, keeping the alphabet and its allocation.
    ///
    /// The block encoder reuses one histogram pair per worker thread across
    /// all blocks of a file; this is the per-block reset.
    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    /// Increments the count of `symbol` by one.
    ///
    /// Panics if `symbol` is outside the alphabet; the token model guarantees
    /// this cannot happen for well-formed token streams.
    pub fn add(&mut self, symbol: u16) {
        self.counts[symbol as usize] += 1;
    }

    /// Increments the count of `symbol` by `n`.
    pub fn add_n(&mut self, symbol: u16, n: u64) {
        self.counts[symbol as usize] += n;
    }

    /// Counts every byte of `bytes` as a symbol occurrence.
    ///
    /// Equivalent to calling [`Self::add`] per byte; the bulk path indexes a
    /// fixed 256-entry prefix of the count table so the inner loop carries
    /// no bounds check. Panics if the alphabet is smaller than 256 symbols.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let counts = &mut self.counts[..256];
        for &b in bytes {
            counts[usize::from(b)] += 1;
        }
    }

    /// Frequency of `symbol`.
    pub fn count(&self, symbol: u16) -> u64 {
        self.counts[symbol as usize]
    }

    /// The raw frequency slice.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded symbol occurrences.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of symbols with nonzero frequency.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Merges another histogram over the same alphabet into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "histogram alphabet mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Shannon entropy of the empirical distribution in bits per symbol.
    ///
    /// Used in tests and benches as the lower bound that a valid Huffman
    /// code's average length must stay within one bit of.
    pub fn entropy_bits(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = c as f64 / total;
                h -= p * p.log2();
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut h = Histogram::new(8);
        h.add(0);
        h.add(0);
        h.add(3);
        h.add_n(7, 5);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(7), 5);
        assert_eq!(h.count(1), 0);
        assert_eq!(h.total(), 8);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.alphabet_size(), 8);
    }

    #[test]
    fn from_symbols_matches_manual_counting() {
        let syms = [1u16, 1, 2, 5, 5, 5];
        let h = Histogram::from_symbols(6, &syms);
        assert_eq!(h.counts(), &[0, 2, 1, 0, 0, 3]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::from_symbols(4, &[0, 1, 1]);
        let b = Histogram::from_symbols(4, &[1, 2, 3, 3]);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "alphabet mismatch")]
    fn merge_rejects_mismatched_alphabets() {
        let mut a = Histogram::new(4);
        let b = Histogram::new(5);
        a.merge(&b);
    }

    #[test]
    fn entropy_of_uniform_and_degenerate() {
        // Uniform over 4 symbols → 2 bits.
        let h = Histogram::from_symbols(4, &[0, 1, 2, 3]);
        assert!((h.entropy_bits() - 2.0).abs() < 1e-12);
        // Single symbol → 0 bits.
        let h = Histogram::from_symbols(4, &[2, 2, 2]);
        assert_eq!(h.entropy_bits(), 0.0);
        // Empty → 0 bits.
        assert_eq!(Histogram::new(4).entropy_bits(), 0.0);
    }
}
