//! Bitstream encoder for canonical codes.

use crate::{CanonicalCode, CodeEntry, HuffmanError, Result};
use gompresso_bitstream::BitWriter;

/// Encoding table: per-symbol bit-reversed codes ready for the LSB-first
/// bitstream writer.
#[derive(Debug, Clone)]
pub struct EncodeTable {
    /// `(reversed code, length)` per symbol; length 0 means "no code".
    codes: Vec<(u32, u8)>,
}

impl EncodeTable {
    /// Builds the encoding table for a canonical code.
    pub fn new(code: &CanonicalCode) -> Self {
        let codes = code.entries().iter().map(|e: &CodeEntry| (e.reversed(), e.len)).collect();
        Self { codes }
    }

    /// Appends the code word for `symbol` to the bitstream.
    ///
    /// Returns an error if the symbol has no code (zero frequency during
    /// construction) or lies outside the alphabet — both indicate a mismatch
    /// between the histogram used to build the code and the stream being
    /// encoded, which the compressor treats as an internal invariant
    /// violation surfaced as an error rather than a panic.
    pub fn encode(&self, w: &mut BitWriter, symbol: u16) -> Result<()> {
        match self.codes.get(symbol as usize) {
            Some(&(code, len)) if len > 0 => {
                w.write_bits(code, u32::from(len));
                Ok(())
            }
            _ => Err(HuffmanError::UnknownSymbol(symbol)),
        }
    }

    /// The raw `(bit-reversed code, length)` table prefix for byte-valued
    /// symbols, or `None` for sub-byte alphabets.
    ///
    /// For bulk emitters that pack several code words into a local
    /// accumulator before touching the bitstream writer (the block
    /// encoder's per-sequence group packing). Length 0 marks an uncoded
    /// byte — callers must treat it as [`HuffmanError::UnknownSymbol`],
    /// exactly like [`Self::encode`] does.
    pub fn literal_codes(&self) -> Option<&[(u32, u8)]> {
        self.codes.get(..256)
    }

    /// The `(bit-reversed code, length)` pair for `symbol`, for callers
    /// that fuse several fields into one bulk bitstream append.
    pub fn code(&self, symbol: u16) -> Result<(u32, u8)> {
        match self.codes.get(symbol as usize) {
            Some(&(code, len)) if len > 0 => Ok((code, len)),
            _ => Err(HuffmanError::UnknownSymbol(symbol)),
        }
    }

    /// Length in bits of the code word for `symbol`, or `None` if uncoded.
    pub fn code_len(&self, symbol: u16) -> Option<u8> {
        match self.codes.get(symbol as usize) {
            Some(&(_, len)) if len > 0 => Some(len),
            _ => None,
        }
    }

    /// Total encoded size in bits of every symbol occurrence counted by
    /// `hist` (without encoding anything).
    ///
    /// This is the exact size hint the block encoder uses to preallocate
    /// its output bitstream: the histogram that built the code already
    /// knows how often each symbol will be written. Symbols with zero
    /// frequency are ignored; a nonzero count for an uncoded symbol is the
    /// usual histogram/stream mismatch error.
    pub fn encoded_bits_for_histogram(&self, hist: &crate::Histogram) -> Result<u64> {
        let mut bits = 0u64;
        for (sym, &count) in hist.counts().iter().enumerate() {
            if count == 0 {
                continue;
            }
            let len = self.code_len(sym as u16).ok_or(HuffmanError::UnknownSymbol(sym as u16))?;
            bits += count * u64::from(len);
        }
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecodeTable, Histogram};
    use gompresso_bitstream::BitReader;

    fn code_for(counts: &[u64], max_len: u8) -> CanonicalCode {
        let mut h = Histogram::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            h.add_n(i as u16, c);
        }
        CanonicalCode::from_histogram(&h, max_len).unwrap()
    }

    #[test]
    fn encode_then_decode_matches() {
        let code = code_for(&[50, 20, 20, 5, 5], 10);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let symbols = [0u16, 1, 0, 2, 3, 4, 0, 0, 1, 2];
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let code = code_for(&[1000, 10, 10, 10], 10);
        let enc = EncodeTable::new(&code);
        assert!(enc.code_len(0).unwrap() <= enc.code_len(1).unwrap());
        assert!(enc.code_len(0).unwrap() <= enc.code_len(3).unwrap());
    }

    #[test]
    fn unknown_and_uncoded_symbols_error() {
        let code = code_for(&[10, 0, 10], 10);
        let enc = EncodeTable::new(&code);
        let mut w = BitWriter::new();
        assert!(matches!(enc.encode(&mut w, 1), Err(HuffmanError::UnknownSymbol(1))));
        assert!(matches!(enc.encode(&mut w, 9), Err(HuffmanError::UnknownSymbol(9))));
        assert_eq!(enc.code_len(1), None);
        assert_eq!(enc.code_len(9), None);
    }

    #[test]
    fn encoded_bits_matches_actual_encoding() {
        // Symbol 4 gets no code.
        let code = code_for(&[60, 25, 10, 5, 0], 10);
        let enc = EncodeTable::new(&code);
        let symbols = [0u16, 0, 1, 2, 3, 1, 0];
        let predicted = enc.encoded_bits_for_histogram(&Histogram::from_symbols(5, &symbols)).unwrap();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s).unwrap();
        }
        assert_eq!(w.bit_len(), predicted);
        assert!(matches!(
            enc.encoded_bits_for_histogram(&Histogram::from_symbols(5, &[0, 4])),
            Err(HuffmanError::UnknownSymbol(4))
        ));
    }

    #[test]
    fn average_length_is_within_one_bit_of_entropy() {
        // Huffman optimality sanity check on a skewed distribution.
        let counts = [500u64, 250, 125, 60, 30, 20, 10, 5];
        let mut h = Histogram::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            h.add_n(i as u16, c);
        }
        let code = CanonicalCode::from_histogram(&h, 15).unwrap();
        let enc = EncodeTable::new(&code);
        let total: u64 = counts.iter().sum();
        let weighted: u64 =
            counts.iter().enumerate().map(|(i, &c)| c * u64::from(enc.code_len(i as u16).unwrap())).sum();
        let avg = weighted as f64 / total as f64;
        let entropy = h.entropy_bits();
        assert!(avg >= entropy - 1e-9, "avg {avg} below entropy {entropy}");
        assert!(avg < entropy + 1.0, "avg {avg} more than 1 bit above entropy {entropy}");
    }
}
