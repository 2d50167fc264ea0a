//! One-pass block decode ≡ checked sub-block walk.
//!
//! `BitBlock::decode_sub_blocks` must append exactly the sequences and
//! literals that the checked one-sub-block-at-a-time walk
//! (`decode_sub_block_into`) produces, in the same order, whether it
//! decodes a block in one call or in groups of 32 sub-blocks. On damaged
//! blocks — bitstreams cut short, shorter than one 8-byte refill, or
//! corrupted in the middle — both must return the same `Result`, errors
//! included, and so must a hand-built block with 24-bit codes and the
//! widest length and offset extras a header allows.

use gompresso_bitstream::BitWriter;
use gompresso_format::token_code::{TokenCoder, END_OF_SEQUENCES};
use gompresso_format::{BitBlock, FormatError, InterleaveScratch};
use gompresso_huffman::{CanonicalCode, DecodeTable, EncodeTable};
use gompresso_lz77::{Matcher, MatcherConfig, Sequence};
use proptest::prelude::*;

fn coder() -> TokenCoder {
    TokenCoder::new(3, 64, 8 * 1024).unwrap()
}

/// Decodes the whole block with one `decode_sub_blocks` call per range of
/// `group` sub-blocks, all appending to the same buffers.
fn decode_in_groups(bit: &BitBlock, group: usize) -> (Vec<Sequence>, Vec<u8>) {
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let mut sequences = Vec::new();
    let mut literals = Vec::new();
    let n = bit.sub_block_count();
    for start in (0..n).step_by(group) {
        let range = start..(start + group).min(n);
        bit.decode_sub_blocks(
            range,
            &coder(),
            &lit_dec,
            &off_dec,
            &mut scratch,
            &mut sequences,
            &mut literals,
        )
        .unwrap();
    }
    (sequences, literals)
}

fn sequential_decode(bit: &BitBlock) -> (Vec<Sequence>, Vec<u8>) {
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut sequences = Vec::new();
    let mut literals = Vec::new();
    for i in 0..bit.sub_block_count() {
        bit.decode_sub_block_into(i, &coder(), &lit_dec, &off_dec, &mut sequences, &mut literals).unwrap();
    }
    (sequences, literals)
}

/// The whole block in one call and in ranges of 32 sub-blocks both give
/// the checked walk's sequences and literals.
fn check_ranges(bit: &BitBlock) {
    let expected = sequential_decode(bit);
    assert_eq!(decode_in_groups(bit, bit.sub_block_count().max(1)), expected, "whole block");
    assert_eq!(decode_in_groups(bit, 32), expected, "groups of 32 sub-blocks");
}

fn encode(input: &[u8], per_sub_block: u32) -> BitBlock {
    let block = Matcher::new(MatcherConfig::default()).compress(input);
    BitBlock::encode(&block, &coder(), per_sub_block, 10).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random compressible inputs across sub-block granularities, including
    /// granularities that leave more than 32 sub-blocks in a partial group.
    #[test]
    fn interleaved_matches_sequential(
        input in proptest::collection::vec(proptest::collection::vec(0u8..12, 1..50), 1..80)
            .prop_map(|chunks| chunks.concat()),
        per_sub_block in prop_oneof![Just(1u32), Just(2), Just(3), Just(5), Just(8), Just(16)],
    ) {
        check_ranges(&encode(&input, per_sub_block));
    }

    /// Incompressible inputs: literal-heavy single-sequence sub-blocks.
    #[test]
    fn interleaved_matches_sequential_on_random_data(
        input in proptest::collection::vec(any::<u8>(), 0..2000),
        per_sub_block in prop_oneof![Just(1u32), Just(4), Just(16)],
    ) {
        check_ranges(&encode(&input, per_sub_block));
    }
}

#[test]
fn sub_block_counts_not_divisible_by_stream_count() {
    // Force specific small sub-block counts, odd ones included.
    let input = b"the quick brown fox jumps over the lazy dog, again and again and again. ".repeat(60);
    let block = Matcher::new(MatcherConfig::default()).compress(&input);
    for target_sub_blocks in [1usize, 2, 3, 4, 5, 7, 9, 11] {
        let per = (block.sequences.len().div_ceil(target_sub_blocks)).max(1) as u32;
        let bit = BitBlock::encode(&block, &coder(), per, 10).unwrap();
        check_ranges(&bit);
    }
}

#[test]
fn empty_block_and_empty_range_are_noops() {
    let bit = encode(&[], 4);
    assert_eq!(bit.sub_block_count(), 0);
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits) = (Vec::new(), Vec::new());
    bit.decode_sub_blocks(0..0, &coder(), &lit_dec, &off_dec, &mut scratch, &mut seqs, &mut lits).unwrap();
    assert!(seqs.is_empty() && lits.is_empty());
}

#[test]
fn out_of_range_interleaved_decode_is_rejected() {
    let bit = encode(b"range check range check range check", 4);
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits) = (Vec::new(), Vec::new());
    let n = bit.sub_block_count();
    let err =
        bit.decode_sub_blocks(0..n + 1, &coder(), &lit_dec, &off_dec, &mut scratch, &mut seqs, &mut lits);
    assert!(err.is_err());
}

#[test]
fn corrupted_bitstream_interleaved_errors_not_panics() {
    let mut bit = encode(&b"corrupt me corrupt me corrupt me ".repeat(40), 8);
    let mid = bit.bitstream.len() / 2;
    let end = (mid + 24).min(bit.bitstream.len());
    for b in &mut bit.bitstream[mid..end] {
        *b ^= 0xA5;
    }
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let mut scratch = InterleaveScratch::default();
    let (mut seqs, mut lits) = (Vec::new(), Vec::new());
    // Either an error or a structurally different decode is fine; a panic
    // is not.
    let n = bit.sub_block_count();
    let _ = bit.decode_sub_blocks(0..n, &coder(), &lit_dec, &off_dec, &mut scratch, &mut seqs, &mut lits);
}

type Decoded = Result<(Vec<Sequence>, Vec<u8>), FormatError>;

/// The block's two decode tables, built once per code pair: a 24-bit code
/// makes a 64 MiB table.
struct Tables {
    lit_len: DecodeTable,
    offset: DecodeTable,
}

impl Tables {
    fn new(bit: &BitBlock) -> Self {
        Tables {
            lit_len: DecodeTable::new(&bit.lit_len_code).unwrap(),
            offset: DecodeTable::new(&bit.offset_code).unwrap(),
        }
    }
}

/// The whole block through the one-pass decoder, in one call.
fn one_pass(bit: &BitBlock, coder: &TokenCoder, t: &Tables) -> Decoded {
    let (mut sequences, mut literals) = (Vec::new(), Vec::new());
    bit.decode_sub_blocks(
        0..bit.sub_block_count(),
        coder,
        &t.lit_len,
        &t.offset,
        &mut InterleaveScratch::default(),
        &mut sequences,
        &mut literals,
    )?;
    Ok((sequences, literals))
}

/// The checked walk, one `decode_sub_block_into` per sub-block, stopping at
/// the first error.
fn checked_walk(bit: &BitBlock, coder: &TokenCoder, t: &Tables) -> Decoded {
    let (mut sequences, mut literals) = (Vec::new(), Vec::new());
    for i in 0..bit.sub_block_count() {
        bit.decode_sub_block_into(i, coder, &t.lit_len, &t.offset, &mut sequences, &mut literals)?;
    }
    Ok((sequences, literals))
}

/// Asserts that both decoders return the same `Result` and returns it.
fn same_result(bit: &BitBlock, coder: &TokenCoder, t: &Tables, ctx: &str) -> Decoded {
    let walked = checked_walk(bit, coder, t);
    assert_eq!(one_pass(bit, coder, t), walked, "{ctx}");
    walked
}

/// The block as encoded, then every cut of its last 24 bytes, then every
/// length of 0 to 7 bytes.
fn check_cuts(bit: &BitBlock, coder: &TokenCoder, t: &Tables) {
    let _ = same_result(bit, coder, t, "intact");
    let len = bit.bitstream.len();
    for keep in (len.saturating_sub(24)..len).chain(0..8.min(len)) {
        let mut cut = bit.clone();
        cut.bitstream.truncate(keep);
        let _ = same_result(&cut, coder, t, &format!("bitstream cut to {keep} of {len} bytes"));
    }
}

/// Sub-blocks whose first bit lies within 8 bytes of the bitstream end: the
/// one-pass decoder cannot load a single 8-byte word for them.
fn tail_sub_blocks(bit: &BitBlock) -> usize {
    let mut start_bit = 0u64;
    let mut count = 0;
    for &bits in &bit.sub_block_bits {
        if start_bit / 8 + 8 > bit.bitstream.len() as u64 {
            count += 1;
        }
        start_bit += u64::from(bits);
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncations near the end and down to a few bytes give the checked
    /// walk's result, errors included.
    #[test]
    fn one_pass_matches_checked_walk_on_cut_bitstreams(
        input in proptest::collection::vec(proptest::collection::vec(0u8..40, 1..30), 1..60)
            .prop_map(|chunks| chunks.concat()),
        per_sub_block in prop_oneof![Just(1u32), Just(2), Just(3), Just(16)],
    ) {
        let bit = encode(&input, per_sub_block);
        check_cuts(&bit, &coder(), &Tables::new(&bit));
    }

    /// Blocks whose whole bitstream is shorter than one 8-byte load.
    #[test]
    fn one_pass_matches_checked_walk_on_tiny_blocks(
        input in proptest::collection::vec(any::<u8>(), 0..12),
        per_sub_block in prop_oneof![Just(1u32), Just(2), Just(16)],
    ) {
        let bit = encode(&input, per_sub_block);
        let tables = Tables::new(&bit);
        prop_assert!(same_result(&bit, &coder(), &tables, "tiny block").is_ok());
        check_cuts(&bit, &coder(), &tables);
    }

    /// An XOR-corrupted span in the middle of the bitstream.
    #[test]
    fn one_pass_matches_checked_walk_on_corrupted_bitstreams(
        input in proptest::collection::vec(proptest::collection::vec(0u8..60, 1..40), 2..60)
            .prop_map(|chunks| chunks.concat()),
        per_sub_block in prop_oneof![Just(1u32), Just(4), Just(16)],
        start_permille in 0u32..1000,
        span in 1usize..16,
        mask in 1u8..=255,
    ) {
        let mut bit = encode(&input, per_sub_block);
        let len = bit.bitstream.len();
        let start = len * start_permille as usize / 1000;
        for b in &mut bit.bitstream[start..(start + span).min(len)] {
            *b ^= mask;
        }
        let _ = same_result(&bit, &coder(), &Tables::new(&bit), "corrupted middle");
    }
}

#[test]
fn sub_blocks_starting_near_the_end_decode_on_the_checked_walker() {
    let input = b"tail sub-blocks: the last few start within one word of the end. ".repeat(40);
    for per_sub_block in [1u32, 2, 3] {
        let bit = encode(&input, per_sub_block);
        assert!(tail_sub_blocks(&bit) >= 2, "{per_sub_block} per sub-block: no sub-block near the end");
        let tables = Tables::new(&bit);
        assert!(same_result(&bit, &coder(), &tables, "intact").is_ok());
        check_cuts(&bit, &coder(), &tables);
    }
}

/// The widest geometry a header can declare: 24-bit codewords (the
/// `DecodeTable` limit) in both trees, 30-bit length extras (`max_match_len`
/// up to `u32::MAX`) and 28-bit offset extras (a 2^30 window).
#[test]
fn widest_codes_and_extras_match_checked_walk() {
    let coder = TokenCoder::new(1, u32::MAX, 1 << 30).unwrap();
    let top_len_sym = (coder.lit_len_alphabet() - 1) as u16;
    let top_off_sym = (coder.offset_alphabet() - 1) as u16;
    assert_eq!(coder.length_extra_bits(top_len_sym).unwrap(), 30);
    assert_eq!(coder.offset_extra_bits(top_off_sym).unwrap(), 28);

    // Literals 0..=21 take 1..=22 bits; literals 22 and 23, EOS and the top
    // length symbol take 24 bits each, which completes the Kraft sum.
    let mut lit_len_lengths = vec![0u8; coder.lit_len_alphabet()];
    for (sym, len) in lit_len_lengths.iter_mut().zip(1..=22) {
        *sym = len;
    }
    for sym in [22, 23, END_OF_SEQUENCES, top_len_sym] {
        lit_len_lengths[usize::from(sym)] = 24;
    }
    // Offset symbols 0..=22 take 1..=23 bits, the top two 24 bits.
    let mut offset_lengths = vec![0u8; coder.offset_alphabet()];
    for (sym, len) in offset_lengths.iter_mut().zip(1..=23) {
        *sym = len;
    }
    offset_lengths[usize::from(top_off_sym) - 1] = 24;
    offset_lengths[usize::from(top_off_sym)] = 24;
    let lit_len_code = CanonicalCode::from_lengths(&lit_len_lengths, 24).unwrap();
    let offset_code = CanonicalCode::from_lengths(&offset_lengths, 24).unwrap();
    let (lit_enc, off_enc) = (EncodeTable::new(&lit_len_code), EncodeTable::new(&offset_code));

    // Longest match: the top length bucket with its largest legal extras;
    // farthest match: the top offset bucket with all 28 extras set.
    let max_len_extra = (1u32 << 30) - 2;
    let max_off_extra = (1u32 << 28) - 1;
    let write_block = |per_sub_block: u32, len_extra: u32| {
        let mut w = BitWriter::new();
        let (mut sub_block_bits, mut start) = (Vec::new(), 0u64);
        let n_sequences = 40u32;
        for seq in 0..n_sequences {
            for &lit in &[22u16, 0, 23, 21][..(seq % 5) as usize] {
                lit_enc.encode(&mut w, lit).unwrap();
            }
            if seq + 1 == n_sequences {
                lit_enc.encode(&mut w, END_OF_SEQUENCES).unwrap();
            } else {
                lit_enc.encode(&mut w, top_len_sym).unwrap();
                w.write_bits(len_extra, 30);
                off_enc.encode(&mut w, top_off_sym).unwrap();
                w.write_bits(max_off_extra, 28);
            }
            if (seq + 1) % per_sub_block == 0 || seq + 1 == n_sequences {
                sub_block_bits.push((w.bit_len() - start) as u32);
                start = w.bit_len();
            }
        }
        BitBlock {
            lit_len_code: lit_len_code.clone(),
            offset_code: offset_code.clone(),
            n_sequences,
            uncompressed_len: 0,
            sequences_per_sub_block: per_sub_block,
            sub_block_bits,
            bitstream: w.finish(),
        }
    };

    let tables = Tables::new(&write_block(1, max_len_extra));
    assert_eq!((tables.lit_len.index_bits(), tables.offset.index_bits()), (24, 24));
    for per_sub_block in [1u32, 3, 40] {
        let bit = write_block(per_sub_block, max_len_extra);
        let (sequences, _) = same_result(&bit, &coder, &tables, "widest geometry").unwrap();
        assert_eq!(sequences.len(), 40);
        assert!(sequences[..39].iter().all(|s| s.match_len == u32::MAX && s.match_offset == 1 << 30));
        check_cuts(&bit, &coder, &tables);

        // All 30 length extras set: the sum passes u32::MAX and must be
        // rejected, not wrapped.
        let overflow = write_block(per_sub_block, max_len_extra + 1);
        assert_eq!(
            same_result(&overflow, &coder, &tables, "length overflow"),
            Err(FormatError::InvalidToken { reason: "decoded match length exceeds maximum" })
        );
    }
}
