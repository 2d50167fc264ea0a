//! Flat package-merge ≡ the list-of-leaves formulation it replaced.
//!
//! `limited_code_lengths` runs package-merge over flat per-level weight
//! lists and derives each leaf's depth from the selected prefixes. This
//! suite keeps the original formulation — every list item owns the `Vec`
//! of leaves it contains, and a leaf's code length is the number of
//! selected items containing it — as an executable oracle, and checks that
//! both return identical lengths at every codeword limit from 2 to 24 bits
//! on random, tie-heavy, Fibonacci-skewed and sparse histograms. Archives
//! store these lengths, so any divergence (a changed tie-break, an
//! off-by-one in the prefix walk) would change compressed bytes.

use gompresso_huffman::{code_lengths, limited_code_lengths, HuffmanError};
use proptest::prelude::*;

/// The original package-merge: each item carries its leaves, each level
/// re-clones the leaves and concatenates leaf lists into packages. Returns
/// the unrestricted Huffman lengths when they already fit, as the library
/// does (archives carry those lengths).
fn oracle_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let nonzero: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let n = nonzero.len();
    let mut lengths = vec![0u8; freqs.len()];
    if n == 1 {
        lengths[nonzero[0]] = 1;
        return lengths;
    }
    let unrestricted = code_lengths(freqs).expect("oracle input has a nonzero symbol");
    if unrestricted.iter().all(|&l| l <= max_len) {
        return unrestricted;
    }

    #[derive(Clone)]
    struct Item {
        weight: u64,
        leaves: Vec<u32>,
    }

    let mut leaves: Vec<Item> =
        nonzero.iter().map(|&sym| Item { weight: freqs[sym], leaves: vec![sym as u32] }).collect();
    leaves.sort_by_key(|it| it.weight);
    let mut current: Vec<Item> = leaves.clone();
    for _level in 1..max_len {
        let mut packages: Vec<Item> = Vec::new();
        for pair in current.chunks_exact(2) {
            let mut merged = pair[0].leaves.clone();
            merged.extend_from_slice(&pair[1].leaves);
            packages.push(Item { weight: pair[0].weight + pair[1].weight, leaves: merged });
        }
        // Stable merge: a leaf goes first when it weighs the same as a
        // package.
        let mut next: Vec<Item> = Vec::new();
        let (mut li, mut pi) = (0usize, 0usize);
        while li < leaves.len() || pi < packages.len() {
            let take_leaf = match (leaves.get(li), packages.get(pi)) {
                (Some(l), Some(p)) => l.weight <= p.weight,
                (Some(_), None) => true,
                _ => false,
            };
            if take_leaf {
                next.push(leaves[li].clone());
                li += 1;
            } else {
                next.push(packages[pi].clone());
                pi += 1;
            }
        }
        current = next;
    }
    let mut depth = vec![0u8; freqs.len()];
    for item in current.iter().take(2 * n - 2) {
        for &sym in &item.leaves {
            depth[sym as usize] += 1;
        }
    }
    for &sym in &nonzero {
        lengths[sym] = depth[sym];
    }
    lengths
}

/// Compares the library against the oracle at every limit from 2 to 24
/// bits; returns how many limits forced package-merge (the unrestricted
/// code overflowed).
fn check_every_limit(freqs: &[u64]) -> usize {
    let symbols = freqs.iter().filter(|&&f| f > 0).count();
    assert!(symbols > 0, "generators must produce a nonzero symbol");
    let deepest = code_lengths(freqs).unwrap().into_iter().max().unwrap();
    let mut overflowed = 0;
    for max_len in 2u8..=24 {
        let got = limited_code_lengths(freqs, max_len);
        if symbols as u64 > 1u64 << max_len {
            assert!(matches!(got, Err(HuffmanError::AlphabetTooLarge { .. })), "limit {max_len}");
            continue;
        }
        assert_eq!(got.unwrap(), oracle_lengths(freqs, max_len), "limit {max_len}, freqs {freqs:?}");
        if deepest > max_len {
            overflowed += 1;
        }
    }
    overflowed
}

/// `count` Fibonacci weights scattered over an alphabet of `alphabet`
/// symbols (the rest stay zero): the steepest skew that keeps Huffman
/// trees deep, so most limits overflow.
fn fibonacci_histogram(count: usize, alphabet: usize, seed: u64) -> Vec<u64> {
    let mut freqs = vec![0u64; alphabet];
    let mut slots: Vec<usize> = (0..alphabet).collect();
    let mut state = seed | 1;
    for i in (1..slots.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        slots.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let (mut a, mut b) = (1u64, 1u64);
    for &slot in slots.iter().take(count) {
        freqs[slot] = a;
        (a, b) = (b, a + b);
    }
    freqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_histograms_match_the_oracle(freqs in proptest::collection::vec(1u64..100_000, 2..=300)) {
        check_every_limit(&freqs);
    }

    #[test]
    fn tie_heavy_histograms_match_the_oracle(freqs in proptest::collection::vec(1u64..=4, 2..=300)) {
        // Weights 1–4 make leaves and packages tie at almost every merge
        // step, so the leaf-first tie-break decides most positions.
        check_every_limit(&freqs);
    }

    #[test]
    fn fibonacci_skewed_histograms_match_the_oracle(
        count in 2usize..=60,
        extra in 0usize..=240,
        seed in any::<u64>(),
    ) {
        let overflowed = check_every_limit(&fibonacci_histogram(count, count + extra, seed));
        // A Fibonacci tree over `count` leaves is `count - 1` deep, so from
        // four leaves on at least the 2-bit limit takes package-merge.
        prop_assert!(count < 4 || overflowed > 0, "count {count}: no limit overflowed");
    }

    #[test]
    fn sparse_alphabets_match_the_oracle(
        entries in proptest::collection::vec((0u8..3, 1u64..5_000), 2..=300),
    ) {
        // About a third of the alphabet has zero frequency, in gaps of any
        // length; force two coded symbols so the alphabet is never trivial.
        let mut freqs: Vec<u64> = entries.iter().map(|&(keep, f)| if keep == 0 { 0 } else { f }).collect();
        let len = freqs.len();
        freqs[0] = freqs[0].max(1);
        freqs[len - 1] = freqs[len - 1].max(1);
        check_every_limit(&freqs);
    }
}

#[test]
fn fitting_histograms_keep_the_unrestricted_lengths() {
    // When the unrestricted Huffman code already fits the limit, the
    // library returns exactly those lengths (not merely a code of the same
    // cost); the oracle does the same, and so must both agree with
    // `code_lengths` itself.
    let histograms: [&[u64]; 4] =
        [&[5, 9, 12, 13, 16, 45], &[7, 7, 7, 7, 9, 11, 13], &[1, 1], &[3, 0, 0, 3, 1, 0, 2, 2, 2, 9]];
    for freqs in histograms {
        let unrestricted = code_lengths(freqs).unwrap();
        let deepest = unrestricted.iter().copied().max().unwrap();
        for max_len in deepest.max(2)..=24 {
            assert_eq!(limited_code_lengths(freqs, max_len).unwrap(), unrestricted, "limit {max_len}");
            assert_eq!(oracle_lengths(freqs, max_len), unrestricted, "limit {max_len}");
        }
    }
}
