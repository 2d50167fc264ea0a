//! LZ77 compression model for Gompresso.
//!
//! Gompresso (paper, Sections III–IV) compresses each data block with LZ77
//! and represents the result as a stream of *sequences*: a (possibly empty)
//! literal string followed by a back-reference, mirroring the LZ4 framing.
//! During decompression each sequence is handled by one GPU thread, so the
//! sequence is the unit of intra-block parallelism.
//!
//! This crate provides:
//!
//! * the [`Sequence`]/[`SequenceBlock`] data model,
//! * a greedy hash-table matcher ([`Matcher`]) with a sliding window,
//!   configurable minimum/maximum match lengths and lookahead — the same
//!   design as the LZ4 matcher the paper modifies,
//! * the **Dependency Elimination** mode (Section IV-B): a match is only
//!   accepted if its source overlaps the output of no other back-reference
//!   in its own group of [`GROUP_SIZE`] sequences, plus the "minimal
//!   staleness" hash-replacement policy, so decompression never stalls on
//!   same-warp nested back-references ([`verify_de_invariant`] checks the
//!   same rule),
//! * the wide-copy sequence executor ([`decompress_block_into`], one
//!   [`execute_sequence`] step per sequence over the [`copy`] kernels —
//!   8/16-byte chunks with bounded wild overshoot and pattern widening for
//!   overlapping matches), the byte-at-a-time
//!   reference decoder retained for equivalence testing
//!   ([`decompress_block_reference`]), and dependency-analysis helpers
//!   used by tests, the MRR statistics and the Figure 9 experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod copy;
pub mod decompress;
pub mod error;
pub mod matcher;
pub mod sequence;

pub use analysis::{verify_de_invariant, DependencyStats};
pub use copy::{copy_literals, copy_match, WILD_COPY_MARGIN};
pub use decompress::{decompress_block, decompress_block_into, decompress_block_reference, execute_sequence};
pub use error::Lz77Error;
pub use matcher::{common_prefix_len, Matcher, MatcherConfig, MatcherScratch, SKIP_TRIGGER};
pub use sequence::{Sequence, SequenceBlock};

/// Result alias for LZ77 operations.
pub type Result<T> = std::result::Result<T, Lz77Error>;

/// Number of sequences handled by one warp (one sequence per lane).
pub const GROUP_SIZE: usize = 32;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_config() -> impl Strategy<Value = MatcherConfig> {
        (
            prop_oneof![Just(1usize << 10), Just(1usize << 12), Just(1usize << 13), Just(1usize << 15)],
            3usize..=4,
            prop_oneof![Just(16usize), Just(64), Just(255)],
            any::<bool>(),
        )
            .prop_map(|(window, min_match, max_match, de)| MatcherConfig {
                window_size: window,
                min_match_len: min_match,
                max_match_len: max_match,
                dependency_elimination: de,
                ..MatcherConfig::default()
            })
    }

    /// Generates inputs with enough repetition to exercise back-references.
    fn compressible_input() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(proptest::collection::vec(0u8..8, 1..40), 0..200)
            .prop_map(|chunks| chunks.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// compress → decompress is the identity for every configuration.
        #[test]
        fn roundtrip(input in compressible_input(), config in arbitrary_config()) {
            let matcher = Matcher::new(config.clone());
            let block = matcher.compress(&input);
            let out = decompress_block(&block).unwrap();
            prop_assert_eq!(out, input);
        }

        /// With dependency elimination enabled, no back-reference may read
        /// data produced by another back-reference in the same warp group.
        #[test]
        fn de_invariant_holds(input in compressible_input()) {
            let config = MatcherConfig { dependency_elimination: true, ..MatcherConfig::default() };
            let block = Matcher::new(config).compress(&input);
            prop_assert!(verify_de_invariant(&block, GROUP_SIZE).is_ok());
        }

        /// Compression never produces sequences that expand beyond the
        /// trivial all-literal encoding by more than the per-sequence
        /// framing overhead, and total literal + match lengths reconstruct
        /// the input length exactly.
        #[test]
        fn lengths_account_for_input(input in compressible_input(), config in arbitrary_config()) {
            let block = Matcher::new(config).compress(&input);
            let total: usize = block
                .sequences
                .iter()
                .map(|s| s.literal_len as usize + s.match_len as usize)
                .sum();
            prop_assert_eq!(total, input.len());
            let lit_total: usize = block.sequences.iter().map(|s| s.literal_len as usize).sum();
            prop_assert_eq!(lit_total, block.literals.len());
        }

        /// Random (incompressible) data still round-trips.
        #[test]
        fn random_data_roundtrip(input in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let block = Matcher::new(MatcherConfig::default()).compress(&input);
            prop_assert_eq!(decompress_block(&block).unwrap(), input);
        }
    }
}
