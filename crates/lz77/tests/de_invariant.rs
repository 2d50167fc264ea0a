//! Property test for the Dependency Elimination invariant.
//!
//! The decoder relies on one structural guarantee from the compressor:
//! with DE enabled, no emitted back-reference reads bytes written by another
//! back-reference of the same warp group of `GROUP_SIZE` (32) sequences —
//! that is what lets a warp resolve every back-reference in a single round,
//! and what `verify_de_invariant(block, GROUP_SIZE)` checks on decode. The
//! unit tests exercise it on hand-picked inputs; this suite fuzzes the one
//! DE rule of `Matcher::compress` across window sizes, chain depths, hash
//! widths and match-length caps, asserting the invariant directly with
//! `verify_de_invariant` — plus the basic soundness properties every
//! configuration must uphold (round trip, window-bounded offsets, length
//! caps).

use gompresso_lz77::{decompress_block, verify_de_invariant, Matcher, MatcherConfig, GROUP_SIZE};
use proptest::prelude::*;

/// Inputs mixing strong short-range repetition (which produces nested
/// references without DE), plain text-like runs and incompressible noise.
fn adversarial_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            // Tight periodic repetition: the worst case for same-group
            // nesting and for the staleness policy.
            proptest::collection::vec(0u8..4, 8..160),
            // Text-ish low-entropy chunks.
            proptest::collection::vec(0u8..24, 8..160),
            // Noise: exercises miss runs and skip-stride.
            proptest::collection::vec(0u8..255, 8..160),
        ],
        1..120,
    )
    .prop_map(|chunks| chunks.concat())
}

fn de_configs() -> impl Strategy<Value = MatcherConfig> {
    (
        prop_oneof![Just(1usize << 10), Just(1usize << 13), Just(1usize << 15)],
        prop_oneof![Just(1usize), Just(2), Just(8)],
        prop_oneof![Just(3u32), Just(4)],
        prop_oneof![Just(16usize), Just(64), Just(258)],
    )
        .prop_map(|(window, chain_depth, hash_bytes, max_match_len)| MatcherConfig {
            window_size: window,
            chain_depth,
            hash_bytes,
            max_match_len,
            dependency_elimination: true,
            ..MatcherConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn de_invariant_holds_for_every_configuration(
        input in adversarial_input(),
        config in de_configs(),
    ) {
        let window_size = config.window_size;
        let max_match_len = config.max_match_len;
        let block = Matcher::new(config).compress(&input);

        // The invariant the warp decompressor depends on.
        let invariant = verify_de_invariant(&block, GROUP_SIZE);
        prop_assert!(invariant.is_ok(), "DE invariant violated: {:?}", invariant);

        // Soundness: exact round trip, offsets inside the window, lengths
        // within the configured cap.
        prop_assert_eq!(decompress_block(&block).expect("decompression failed"), input);
        for seq in &block.sequences {
            if seq.has_match() {
                prop_assert!((seq.match_offset as usize) < window_size);
                prop_assert!((seq.match_len as usize) <= max_match_len);
            }
        }
    }
}
