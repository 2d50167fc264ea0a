//! Code-length assignment: optimal Huffman and length-limited
//! (package-merge) variants.
//!
//! Gompresso/Bit limits codeword lengths to `CWL` bits (10 in the paper) so
//! that the flat decode tables fit in GPU shared memory. The package-merge
//! algorithm produces the *optimal* prefix code subject to that limit, which
//! keeps the compression-ratio penalty of limiting at the few-percent level
//! the paper reports (~9 % end-to-end versus zlib).

use crate::{HuffmanError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes unrestricted Huffman code lengths for the given frequencies.
///
/// Symbols with zero frequency receive length 0 (no code). If only one
/// symbol has nonzero frequency it receives length 1 (a prefix code needs at
/// least one bit per symbol to be decodable).
pub fn code_lengths(freqs: &[u64]) -> Result<Vec<u8>> {
    let nonzero: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    if nonzero.is_empty() {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lengths = vec![0u8; freqs.len()];
    if nonzero.len() == 1 {
        lengths[nonzero[0]] = 1;
        return Ok(lengths);
    }

    // Standard heap-based Huffman tree construction over internal nodes.
    // `nodes[i]` stores (parent index or usize::MAX). Leaves occupy
    // 0..nonzero.len(), internal nodes follow.
    let n = nonzero.len();
    let mut parent = vec![usize::MAX; 2 * n - 1];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(n);
    for (leaf_idx, &sym) in nonzero.iter().enumerate() {
        heap.push(Reverse((freqs[sym], leaf_idx)));
    }
    let mut next_node = n;
    while heap.len() > 1 {
        let Reverse((w1, n1)) = heap.pop().expect("heap has >1 element");
        let Reverse((w2, n2)) = heap.pop().expect("heap has >1 element");
        parent[n1] = next_node;
        parent[n2] = next_node;
        heap.push(Reverse((w1 + w2, next_node)));
        next_node += 1;
    }

    // Depth of each leaf = number of parent hops to the root.
    for (leaf_idx, &sym) in nonzero.iter().enumerate() {
        let mut depth = 0u32;
        let mut node = leaf_idx;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lengths[sym] = depth.min(255) as u8;
    }
    Ok(lengths)
}

/// Computes optimal code lengths subject to `max_len` using package-merge.
///
/// Zero-frequency symbols receive length 0. Errors if the alphabet is empty,
/// if `max_len` is 0 or greater than 32, or if more than `2^max_len` symbols
/// need codes (no prefix code of that length can exist).
pub fn limited_code_lengths(freqs: &[u64], max_len: u8) -> Result<Vec<u8>> {
    if max_len == 0 || max_len > 32 {
        return Err(HuffmanError::InvalidMaxLength(max_len));
    }
    let nonzero: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    if nonzero.is_empty() {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let n = nonzero.len();
    if (n as u64) > 1u64 << max_len.min(63) {
        return Err(HuffmanError::AlphabetTooLarge { symbols: n, max_len });
    }
    let mut lengths = vec![0u8; freqs.len()];
    if n == 1 {
        lengths[nonzero[0]] = 1;
        return Ok(lengths);
    }

    // Fast path: if the unrestricted Huffman code already satisfies the
    // limit it is optimal, so use it as-is.
    let unrestricted = code_lengths(freqs)?;
    if unrestricted.iter().all(|&l| l <= max_len) {
        return Ok(unrestricted);
    }

    // Package-merge over flat per-level lists. Level 0 lists the leaves
    // sorted stably by weight; every higher level merges the leaves with
    // the pairwise sums ("packages") of the level below, a leaf going first
    // on a tie. Only the weights and a leaf flag per item are kept: the
    // leaves in any prefix of a level are its lightest ones, and the
    // packages in it are the first ones, so the selected items can be
    // walked top-down from prefix lengths alone.
    let mut order = nonzero;
    order.sort_by_key(|&sym| freqs[sym]);
    let leaf_weights: Vec<u64> = order.iter().map(|&sym| freqs[sym]).collect();
    let levels = usize::from(max_len);
    let mut is_leaf: Vec<bool> = Vec::with_capacity(levels * (2 * n - 1));
    let mut level_start: Vec<usize> = Vec::with_capacity(levels + 1);
    level_start.push(0);
    is_leaf.resize(n, true);
    let mut below = leaf_weights.clone();
    let mut merged: Vec<u64> = Vec::with_capacity(2 * n - 1);
    for _level in 1..levels {
        level_start.push(is_leaf.len());
        merged.clear();
        let packages = below.len() / 2;
        let (mut li, mut pi) = (0usize, 0usize);
        while li < n || pi < packages {
            let package = if pi < packages { below[2 * pi] + below[2 * pi + 1] } else { u64::MAX };
            let take_leaf = li < n && (pi == packages || leaf_weights[li] <= package);
            if take_leaf {
                merged.push(leaf_weights[li]);
                li += 1;
            } else {
                merged.push(package);
                pi += 1;
            }
            is_leaf.push(take_leaf);
        }
        std::mem::swap(&mut below, &mut merged);
    }
    level_start.push(is_leaf.len());

    // Select the first 2n - 2 items of the top level. Each leaf in a
    // level's selected prefix gains one bit; the packages in it select the
    // first two items below per package.
    let mut depth = vec![0u8; n];
    let mut take = 2 * n - 2;
    for level in (0..levels).rev() {
        let items = &is_leaf[level_start[level]..level_start[level + 1]];
        let prefix = &items[..take.min(items.len())];
        let leaves = prefix.iter().filter(|&&leaf| leaf).count();
        for d in &mut depth[..leaves] {
            *d += 1;
        }
        take = 2 * (prefix.len() - leaves);
    }
    for (&sym, &d) in order.iter().zip(&depth) {
        debug_assert!(d >= 1 && d <= max_len);
        lengths[sym] = d;
    }
    Ok(lengths)
}

/// Checks that a code-length table is a valid prefix code: every nonzero
/// length is at most `max_len` and the Kraft sum does not exceed 1.
pub fn validate_code_lengths(lengths: &[u8], max_len: u8) -> Result<()> {
    let mut kraft = 0u64; // in units of 2^-max_len
    let unit = 1u64 << max_len;
    let mut any = false;
    for &l in lengths {
        if l == 0 {
            continue;
        }
        any = true;
        if l > max_len {
            return Err(HuffmanError::InvalidCodeLengths { reason: "code length exceeds declared maximum" });
        }
        kraft += unit >> l;
        if kraft > unit {
            return Err(HuffmanError::InvalidCodeLengths {
                reason: "Kraft sum exceeds 1 (over-subscribed code)",
            });
        }
    }
    if !any {
        return Err(HuffmanError::EmptyAlphabet);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_length(freqs: &[u64], lengths: &[u8]) -> u64 {
        freqs.iter().zip(lengths).map(|(&f, &l)| f * u64::from(l)).sum()
    }

    #[test]
    fn empty_alphabet_is_rejected() {
        assert!(matches!(code_lengths(&[0, 0, 0]), Err(HuffmanError::EmptyAlphabet)));
        assert!(matches!(limited_code_lengths(&[0, 0], 8), Err(HuffmanError::EmptyAlphabet)));
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lengths = code_lengths(&[0, 42, 0]).unwrap();
        assert_eq!(lengths, vec![0, 1, 0]);
        let lengths = limited_code_lengths(&[0, 42, 0], 10).unwrap();
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let lengths = code_lengths(&[10, 90]).unwrap();
        assert_eq!(lengths, vec![1, 1]);
    }

    #[test]
    fn classic_example_matches_known_optimum() {
        // Frequencies 5, 9, 12, 13, 16, 45 — the textbook example; expected
        // lengths 4, 4, 3, 3, 3, 1 (total weighted length 224).
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let lengths = code_lengths(&freqs).unwrap();
        assert_eq!(weighted_length(&freqs, &lengths), 224);
        assert_eq!(lengths[5], 1);
    }

    #[test]
    fn skewed_distribution_exceeds_limit_and_gets_clamped() {
        // Fibonacci-like frequencies force a deep Huffman tree.
        let freqs = [1u64, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377];
        let unrestricted = code_lengths(&freqs).unwrap();
        assert!(unrestricted.iter().copied().max().unwrap() > 6);
        let limited = limited_code_lengths(&freqs, 6).unwrap();
        assert!(limited.iter().copied().max().unwrap() <= 6);
        validate_code_lengths(&limited, 6).unwrap();
        // The limited code cannot be shorter than the optimum...
        assert!(weighted_length(&freqs, &limited) >= weighted_length(&freqs, &unrestricted));
        // ...but must still beat a fixed-length (4-bit) code for this skew.
        assert!(weighted_length(&freqs, &limited) < 4 * freqs.iter().sum::<u64>());
    }

    #[test]
    fn limited_equals_unrestricted_when_limit_is_loose() {
        let freqs = [7u64, 7, 7, 7, 9, 11, 13];
        let a = code_lengths(&freqs).unwrap();
        let b = limited_code_lengths(&freqs, 15).unwrap();
        assert_eq!(weighted_length(&freqs, &a), weighted_length(&freqs, &b));
    }

    #[test]
    fn package_merge_is_optimal_for_small_case() {
        // For max_len = 3 and 5 equal-ish symbols the optimal solution is
        // known: lengths {2,2,2,3,3} or a permutation with the same weighted
        // total.
        let freqs = [10u64, 10, 10, 9, 9];
        let limited = limited_code_lengths(&freqs, 3).unwrap();
        validate_code_lengths(&limited, 3).unwrap();
        let total = weighted_length(&freqs, &limited);
        // {2,2,2,3,3} → 3 symbols × freq 10 × 2 bits + 2 symbols × freq 9 × 3 bits = 114.
        assert_eq!(total, 114);
    }

    #[test]
    fn alphabet_too_large_for_limit() {
        let freqs = vec![1u64; 40];
        assert!(matches!(
            limited_code_lengths(&freqs, 5),
            Err(HuffmanError::AlphabetTooLarge { symbols: 40, max_len: 5 })
        ));
        // 32 symbols fit exactly into 5 bits.
        let freqs = vec![1u64; 32];
        let lengths = limited_code_lengths(&freqs, 5).unwrap();
        assert!(lengths.iter().all(|&l| l == 5));
    }

    #[test]
    fn invalid_max_len_is_rejected() {
        assert!(matches!(limited_code_lengths(&[1, 1], 0), Err(HuffmanError::InvalidMaxLength(0))));
        assert!(matches!(limited_code_lengths(&[1, 1], 33), Err(HuffmanError::InvalidMaxLength(33))));
    }

    #[test]
    fn validation_catches_oversubscription() {
        // Three codes of length 1 cannot coexist.
        assert!(validate_code_lengths(&[1, 1, 1], 10).is_err());
        // Lengths above the maximum are rejected.
        assert!(validate_code_lengths(&[11, 1], 10).is_err());
        // A valid table passes.
        validate_code_lengths(&[1, 2, 2], 10).unwrap();
        // All-zero tables are rejected.
        assert!(validate_code_lengths(&[0, 0], 10).is_err());
    }

    #[test]
    fn zero_frequency_symbols_get_no_code() {
        let freqs = [0u64, 5, 0, 7, 0];
        let lengths = limited_code_lengths(&freqs, 10).unwrap();
        assert_eq!(lengths[0], 0);
        assert_eq!(lengths[2], 0);
        assert_eq!(lengths[4], 0);
        assert!(lengths[1] > 0 && lengths[3] > 0);
    }
}
