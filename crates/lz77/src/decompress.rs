//! Sequential sequence execution.
//!
//! [`decompress_block_into`] is the host hot path: it walks the sequences in
//! order and runs each through [`execute_sequence`], which checks it and
//! moves its literals and back-reference with the wide-copy kernels of
//! [`crate::copy`] (8/16-byte chunks, wild overshoot inside the block's
//! disjoint output slice, pattern widening for offsets 1–7, exact scalar
//! paths near the slice end). The fused byte-block decoder of
//! `gompresso-format` runs the same step on each token it parses, with the
//! block's payload as the literal source. [`decompress_block_reference`]
//! retains the original byte-at-a-time walk as the executable ground truth
//! the property suites and microbenchmarks pit the wide kernels against.

use crate::copy::{copy_literals, copy_match};
use crate::sequence::{Sequence, SequenceBlock};
use crate::{Lz77Error, Result};

/// Decompresses a sequence block into its original bytes.
pub fn decompress_block(block: &SequenceBlock) -> Result<Vec<u8>> {
    // Capacity is bounded by the declared length; a corrupt block cannot
    // push past it because the final length check would fail anyway, and the
    // cursor walk below writes in bounds by construction.
    let mut out = vec![0u8; block.uncompressed_len];
    let written = decompress_block_into(block, &mut out)?;
    debug_assert_eq!(written, out.len());
    Ok(out)
}

/// Decompresses a sequence block into a caller-provided buffer, returning
/// the number of bytes written.
///
/// `out` must be exactly `block.uncompressed_len` bytes. This is the
/// zero-copy variant used by the block-parallel drivers: each worker writes
/// its block's bytes straight into the block's slice of the file-level
/// output buffer instead of staging them in a per-block vector. Copies run
/// through the wild kernels; because `out` is this block's disjoint slice,
/// their overshoot (bounded by [`crate::copy::WILD_COPY_MARGIN`] and only
/// ever into bytes of later sequences) never leaves the block.
pub fn decompress_block_into(block: &SequenceBlock, out: &mut [u8]) -> Result<usize> {
    if out.len() != block.uncompressed_len {
        return Err(Lz77Error::LengthMismatch { declared: block.uncompressed_len, produced: out.len() });
    }
    let mut cursor = 0usize;
    let mut literal_pos = 0usize;
    for (index, seq) in block.sequences.iter().enumerate() {
        cursor = execute_sequence(out, cursor, &block.literals, literal_pos, seq, index)?;
        literal_pos += seq.literal_len as usize;
    }
    if cursor != block.uncompressed_len {
        return Err(Lz77Error::LengthMismatch { declared: block.uncompressed_len, produced: cursor });
    }
    Ok(cursor)
}

/// Executes sequence `index` of a block at output position `cursor`: copies
/// its literal run from `literals[literal_pos..]`, then its back-reference,
/// and returns the output position after it.
///
/// The one per-sequence step of [`decompress_block_into`] and of the fused
/// byte-block decoder, which passes the block's encoded payload as
/// `literals`. Before it writes, it rejects, in this order: a literal run
/// past the end of `literals` ([`Lz77Error::LiteralOverrun`]), a sequence
/// that would write past the end of `out`
/// ([`Lz77Error::LengthMismatch`], declaring `out.len()`), a zero offset and
/// an offset reaching before the block start. Wild copies may scribble up
/// to [`crate::copy::WILD_COPY_MARGIN`] bytes past the sequence's end, into
/// bytes a later sequence rewrites.
#[inline]
pub fn execute_sequence(
    out: &mut [u8],
    cursor: usize,
    literals: &[u8],
    literal_pos: usize,
    seq: &Sequence,
    index: usize,
) -> Result<usize> {
    let lit_len = seq.literal_len as usize;
    let match_len = seq.match_len as usize;
    let lit_end = literal_pos + lit_len;
    if lit_end > literals.len() {
        return Err(Lz77Error::LiteralOverrun {
            sequence: index,
            requested: lit_end,
            available: literals.len(),
        });
    }
    if cursor + lit_len + match_len > out.len() {
        return Err(Lz77Error::LengthMismatch {
            declared: out.len(),
            produced: cursor + lit_len + match_len,
        });
    }
    copy_literals(out, cursor, literals, literal_pos, lit_len);
    let cursor = cursor + lit_len;
    if match_len > 0 {
        let offset = seq.match_offset as usize;
        if offset == 0 {
            return Err(Lz77Error::ZeroOffset { sequence: index });
        }
        if offset > cursor {
            return Err(Lz77Error::OffsetBeforeStart { sequence: index, position: cursor, offset });
        }
        copy_match(out, cursor, offset, match_len);
    }
    Ok(cursor + match_len)
}

/// Byte-at-a-time reference decompressor.
///
/// The pre-wild-copy implementation, retained verbatim: a straightforward
/// cursor walk copying literals with `copy_from_slice` and resolving every
/// back-reference one byte at a time (so overlapping matches behave exactly
/// as in LZ77/LZ4). It performs the same validation in the same order as
/// [`decompress_block_into`] and must produce identical bytes and errors —
/// the equivalence property suites and the copy microbenchmarks depend on
/// it; production code should never call it.
pub fn decompress_block_reference(block: &SequenceBlock, out: &mut [u8]) -> Result<usize> {
    if out.len() != block.uncompressed_len {
        return Err(Lz77Error::LengthMismatch { declared: block.uncompressed_len, produced: out.len() });
    }
    let mut cursor = 0usize;
    let mut literal_cursor = 0usize;

    for (idx, seq) in block.sequences.iter().enumerate() {
        let lit_len = seq.literal_len as usize;
        let lit_end = literal_cursor + lit_len;
        if lit_end > block.literals.len() {
            return Err(Lz77Error::LiteralOverrun {
                sequence: idx,
                requested: lit_end,
                available: block.literals.len(),
            });
        }
        if cursor + lit_len + seq.match_len as usize > out.len() {
            return Err(Lz77Error::LengthMismatch {
                declared: block.uncompressed_len,
                produced: cursor + lit_len + seq.match_len as usize,
            });
        }
        out[cursor..cursor + lit_len].copy_from_slice(&block.literals[literal_cursor..lit_end]);
        cursor += lit_len;
        literal_cursor = lit_end;

        let match_len = seq.match_len as usize;
        if match_len > 0 {
            let offset = seq.match_offset as usize;
            if offset == 0 {
                return Err(Lz77Error::ZeroOffset { sequence: idx });
            }
            if offset > cursor {
                return Err(Lz77Error::OffsetBeforeStart { sequence: idx, position: cursor, offset });
            }
            // Byte-by-byte copy handles overlapping matches (offset < len).
            let start = cursor - offset;
            for i in 0..match_len {
                out[cursor + i] = out[start + i];
            }
            cursor += match_len;
        }
    }

    if cursor != block.uncompressed_len {
        return Err(Lz77Error::LengthMismatch { declared: block.uncompressed_len, produced: cursor });
    }
    Ok(cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    fn block(sequences: Vec<Sequence>, literals: &[u8], len: usize) -> SequenceBlock {
        SequenceBlock { sequences, literals: literals.to_vec(), uncompressed_len: len }
    }

    #[test]
    fn figure4_example_decompresses() {
        // Paper Figure 4: 'aac',(0? offset 3),'b',(3,3),'d',(3,4) producing
        // "aacaacbaacdaacd"-like output; we encode it in our offset
        // convention (distance back from the match start).
        let b = block(
            vec![
                Sequence { literal_len: 3, match_offset: 3, match_len: 3 }, // 'aac' + copy "aac"
                Sequence { literal_len: 1, match_offset: 3, match_len: 3 }, // 'b' + copy "acb"
                Sequence { literal_len: 1, match_offset: 3, match_len: 4 }, // 'd' + copy "cbd" + overlap
            ],
            b"aacbd",
            15,
        );
        let out = decompress_block(&b).unwrap();
        assert_eq!(out.len(), 15);
        assert_eq!(&out[..6], b"aacaac");
        assert_eq!(out[6], b'b');
    }

    #[test]
    fn overlapping_copy_replicates_pattern() {
        // 'ab' then a match of length 6 at offset 2 → "abababab".
        let b = block(vec![Sequence { literal_len: 2, match_offset: 2, match_len: 6 }], b"ab", 8);
        assert_eq!(decompress_block(&b).unwrap(), b"abababab");
    }

    #[test]
    fn zero_offset_is_rejected() {
        let b = block(vec![Sequence { literal_len: 1, match_offset: 0, match_len: 3 }], b"a", 4);
        assert!(matches!(decompress_block(&b), Err(Lz77Error::ZeroOffset { sequence: 0 })));
    }

    #[test]
    fn offset_before_start_is_rejected() {
        let b = block(vec![Sequence { literal_len: 2, match_offset: 5, match_len: 3 }], b"ab", 5);
        assert!(matches!(decompress_block(&b), Err(Lz77Error::OffsetBeforeStart { .. })));
    }

    #[test]
    fn literal_overrun_is_rejected() {
        let b = block(vec![Sequence { literal_len: 10, match_offset: 0, match_len: 0 }], b"abc", 10);
        assert!(matches!(decompress_block(&b), Err(Lz77Error::LiteralOverrun { .. })));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let b = block(vec![Sequence::literals_only(3)], b"abc", 7);
        assert!(matches!(decompress_block(&b), Err(Lz77Error::LengthMismatch { declared: 7, produced: 3 })));
    }

    #[test]
    fn empty_block_decodes_to_empty_output() {
        let b = SequenceBlock::new();
        assert_eq!(decompress_block(&b).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn reference_decoder_rejects_the_same_corrupt_blocks() {
        let cases = [
            block(vec![Sequence { literal_len: 1, match_offset: 0, match_len: 3 }], b"a", 4),
            block(vec![Sequence { literal_len: 2, match_offset: 5, match_len: 3 }], b"ab", 5),
            block(vec![Sequence { literal_len: 10, match_offset: 0, match_len: 0 }], b"abc", 10),
            block(vec![Sequence::literals_only(3)], b"abc", 7),
        ];
        for b in cases {
            let mut fast_out = vec![0u8; b.uncompressed_len];
            let mut ref_out = vec![0u8; b.uncompressed_len];
            let fast = decompress_block_into(&b, &mut fast_out);
            let reference = decompress_block_reference(&b, &mut ref_out);
            assert_eq!(fast, reference);
        }
    }
}
