//! Structural dependency analysis of sequence blocks.
//!
//! The number of MRR rounds a warp needs (paper, Figure 9b/9c) is determined
//! by how deeply back-references nest *within a group of 32 sequences*. This
//! module analyses that structure without running a decompressor: it is used
//! to verify the Dependency Elimination invariant, to characterise the
//! synthetic nesting datasets, and by tests of the MRR strategy.

use crate::sequence::SequenceBlock;
use crate::{Lz77Error, Result};

/// Summary of same-group back-reference dependencies in a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DependencyStats {
    /// Maximum dependency-chain depth within any group (0 = no
    /// back-reference depends on another back-reference of its group).
    pub max_depth: u32,
    /// Mean dependency depth over all back-references.
    pub mean_depth: f64,
    /// Number of back-references that depend on at least one other
    /// back-reference of their group.
    pub dependent_refs: usize,
    /// Total number of back-references.
    pub total_refs: usize,
    /// Number of warp groups analysed.
    pub groups: usize,
}

/// Per-sequence positions needed for dependency analysis.
struct Placement {
    /// Output range `[write_start, write_end)` the back-reference writes.
    write_start: usize,
    write_end: usize,
    /// Output range `[src_start, src_end)` the back-reference reads, if any.
    src: Option<(usize, usize)>,
}

impl Placement {
    /// The overlap rule: whether this sequence's back-reference writes any
    /// byte of the range `src` another back-reference reads.
    fn writes_into(&self, (src_start, src_end): (usize, usize)) -> bool {
        self.src.is_some() && src_start < self.write_end && src_end > self.write_start
    }
}

/// Places every sequence of `block`, or reports the first back-reference
/// that reaches before the block start.
fn placements(block: &SequenceBlock) -> Result<Vec<Placement>> {
    let mut out = Vec::with_capacity(block.sequences.len());
    let mut pos = 0usize;
    for (sequence, seq) in block.sequences.iter().enumerate() {
        pos += seq.literal_len as usize;
        let write_start = pos;
        let (offset, len) = (seq.match_offset as usize, seq.match_len as usize);
        let src = if len > 0 {
            let start = write_start.checked_sub(offset).ok_or(Lz77Error::OffsetBeforeStart {
                sequence,
                position: write_start,
                offset,
            })?;
            Some((start, start + len))
        } else {
            None
        };
        pos += len;
        out.push(Placement { write_start, write_end: pos, src });
    }
    Ok(out)
}

/// Computes dependency statistics for `block` when decompressed in groups of
/// `group_size` sequences per warp.
///
/// A block with a back-reference reaching before its start has no
/// dependency structure to measure (`verify_de_invariant` reports it as
/// [`Lz77Error::OffsetBeforeStart`]); its statistics are all zero.
pub fn dependency_stats(block: &SequenceBlock, group_size: usize) -> DependencyStats {
    assert!(group_size >= 1);
    let placed = placements(block).unwrap_or_default();
    let mut max_depth = 0u32;
    let mut depth_sum = 0u64;
    let mut dependent = 0usize;
    let mut total = 0usize;
    let mut groups = 0usize;

    for group in placed.chunks(group_size) {
        groups += 1;
        // depth[i] = length of the longest chain of same-group
        // back-reference dependencies ending at sequence i.
        let mut depth = vec![0u32; group.len()];
        for i in 0..group.len() {
            let Some(src) = group[i].src else { continue };
            total += 1;
            let mut d = 0u32;
            for (j, other) in group.iter().enumerate().take(i) {
                if other.writes_into(src) {
                    d = d.max(depth[j] + 1);
                }
            }
            depth[i] = d;
            if d > 0 {
                dependent += 1;
            }
            depth_sum += u64::from(d);
            max_depth = max_depth.max(d);
        }
    }

    DependencyStats {
        max_depth,
        mean_depth: if total == 0 { 0.0 } else { depth_sum as f64 / total as f64 },
        dependent_refs: dependent,
        total_refs: total,
        groups,
    }
}

/// Maximum same-group nesting depth of `block` (see [`dependency_stats`]).
pub fn max_nesting_depth(block: &SequenceBlock, group_size: usize) -> u32 {
    dependency_stats(block, group_size).max_depth
}

/// Verifies the Dependency Elimination invariant: no back-reference may read
/// bytes written by another back-reference of the same warp group.
///
/// Returns the first violation found, if any, or
/// [`Lz77Error::OffsetBeforeStart`] for a back-reference that reaches
/// before the block start.
pub fn verify_de_invariant(block: &SequenceBlock, group_size: usize) -> Result<()> {
    assert!(group_size >= 1);
    let placed = placements(block)?;
    for (g, group) in placed.chunks(group_size).enumerate() {
        for i in 0..group.len() {
            let Some(src) = group[i].src else { continue };
            for (j, other) in group.iter().enumerate() {
                if i != j && other.writes_into(src) {
                    return Err(Lz77Error::DependencyViolation {
                        sequence: g * group_size + i,
                        group_start: group[0].write_start,
                        read_end: src.1,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    /// Builds a block of `n` sequences where each sequence writes one
    /// literal byte plus a 4-byte match referencing `lag` sequences back
    /// (or the initial literal area if out of range).
    fn chained_block(n: usize, lag: usize) -> SequenceBlock {
        // Start with an 8-byte literal preamble so early references have a
        // valid target.
        let mut sequences = vec![Sequence::literals_only(8)];
        let mut literals = vec![b'#'; 8];
        let mut pos = 8usize;
        for i in 0..n {
            literals.push(b'a' + (i % 26) as u8);
            let write_start = pos + 1;
            // Reference 4 bytes written `lag` sequences earlier (their match
            // area), or the preamble if not available yet.
            let target = if i >= lag {
                // Each sequence produces 5 bytes (1 literal + 4 match).
                write_start - lag * 5
            } else {
                2
            };
            sequences.push(Sequence {
                literal_len: 1,
                match_offset: (write_start - target) as u32,
                match_len: 4,
            });
            pos = write_start + 4;
        }
        SequenceBlock { sequences, literals, uncompressed_len: pos }
    }

    #[test]
    fn independent_references_have_depth_zero() {
        // Every reference points into the literal preamble.
        let mut sequences = vec![Sequence::literals_only(16)];
        let mut pos = 16usize;
        for _ in 0..40 {
            sequences.push(Sequence { literal_len: 0, match_offset: pos as u32, match_len: 4 });
            pos += 4;
        }
        let block = SequenceBlock { sequences, literals: vec![b'x'; 16], uncompressed_len: pos };
        let stats = dependency_stats(&block, 32);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(stats.dependent_refs, 0);
        assert_eq!(stats.total_refs, 40);
        verify_de_invariant(&block, 32).unwrap();
    }

    #[test]
    fn chain_of_dependencies_has_expected_depth() {
        // lag 1: every reference reads the previous sequence's match bytes,
        // giving a chain of depth group_size-ish within each group.
        let block = chained_block(64, 1);
        let stats = dependency_stats(&block, 32);
        assert!(stats.max_depth >= 20, "depth {} too small", stats.max_depth);
        assert!(verify_de_invariant(&block, 32).is_err());
        // With a group size of 1 there are no same-group peers, so no
        // dependencies.
        assert_eq!(max_nesting_depth(&block, 1), 0);
        verify_de_invariant(&block, 1).unwrap();
    }

    #[test]
    fn larger_lag_reduces_depth() {
        let shallow = dependency_stats(&chained_block(64, 8), 32);
        let deep = dependency_stats(&chained_block(64, 1), 32);
        assert!(shallow.max_depth < deep.max_depth);
        assert!(shallow.max_depth >= 1);
    }

    #[test]
    fn literal_only_block_has_no_dependencies() {
        let block = SequenceBlock {
            sequences: vec![Sequence::literals_only(5)],
            literals: b"hello".to_vec(),
            uncompressed_len: 5,
        };
        let stats = dependency_stats(&block, 32);
        assert_eq!(stats.total_refs, 0);
        assert_eq!(stats.mean_depth, 0.0);
        verify_de_invariant(&block, 32).unwrap();
    }

    #[test]
    fn violation_reports_sequence_index() {
        let block = chained_block(40, 1);
        match verify_de_invariant(&block, 32) {
            Err(Lz77Error::DependencyViolation { sequence, .. }) => assert!(sequence >= 1),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn reference_before_the_block_start_is_reported_not_a_panic() {
        let block = SequenceBlock {
            sequences: vec![Sequence { literal_len: 1, match_offset: 10, match_len: 4 }],
            literals: b"a".to_vec(),
            uncompressed_len: 5,
        };
        assert_eq!(
            verify_de_invariant(&block, 32),
            Err(Lz77Error::OffsetBeforeStart { sequence: 0, position: 1, offset: 10 })
        );
        assert_eq!(dependency_stats(&block, 32).total_refs, 0);
        assert_eq!(max_nesting_depth(&block, 32), 0);
    }

    #[test]
    fn stats_count_groups() {
        let block = chained_block(100, 1);
        let stats = dependency_stats(&block, 32);
        // 101 sequences → 4 groups of 32 (last partial).
        assert_eq!(stats.groups, 4);
    }
}
