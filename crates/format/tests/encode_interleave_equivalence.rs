//! Block encoder edge cases ≡ what the interleaved decoder reads back.
//!
//! `BitBlock::encode_with_scratch` emits the sub-blocks in order and records
//! each one's bit size; the interleaved sub-block decoder finds every
//! sub-block by those sizes alone. For empty and tiny blocks, and for one
//! `EncodeScratch` carried across blocks with very different histograms and
//! sub-block shapes, the encoded block must equal an encode with a fresh
//! scratch field for field, its sub-block bit sizes must account for the
//! whole bitstream, and decoding it with `S` interleaved streams, for every
//! `S` under test, must give back the exact sequences and literals that went
//! in.

use gompresso_format::token_code::TokenCoder;
use gompresso_format::{BitBlock, EncodeScratch, InterleaveScratch};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{Matcher, MatcherConfig, Sequence, SequenceBlock};

fn coder() -> TokenCoder {
    TokenCoder::new(3, 64, 8 * 1024).unwrap()
}

fn match_block(input: &[u8]) -> SequenceBlock {
    Matcher::new(MatcherConfig::default()).compress(input)
}

/// Decodes every sub-block of `bit` in one interleaved call with `S` streams.
fn interleaved_decode<const S: usize>(bit: &BitBlock) -> (Vec<Sequence>, Vec<u8>) {
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let (mut sequences, mut literals, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    bit.decode_sub_blocks_interleaved::<S>(
        0,
        bit.sub_block_count(),
        0,
        &coder(),
        &lit_dec,
        &off_dec,
        &mut InterleaveScratch::default(),
        &mut sequences,
        &mut literals,
        &mut stats,
    )
    .unwrap();
    (sequences, literals)
}

/// Encodes `block` with the caller's (possibly reused) `scratch` and checks
/// the result against a fresh-scratch encode, the sub-block layout, and an
/// interleaved decode at every stream count under test.
fn check_encode(block: &SequenceBlock, per_sub_block: u32, scratch: &mut EncodeScratch, ctx: &str) {
    let coder = coder();
    let bit = BitBlock::encode_with_scratch(block, &coder, per_sub_block, 10, scratch).unwrap();
    let fresh = BitBlock::encode(block, &coder, per_sub_block, 10).unwrap();
    assert_eq!(bit, fresh, "{ctx}: reused vs fresh scratch");

    assert_eq!(bit.n_sequences as usize, block.sequences.len(), "{ctx}: sequence count");
    assert_eq!(bit.uncompressed_len as usize, block.uncompressed_len, "{ctx}: uncompressed length");
    assert_eq!(
        bit.sub_block_count(),
        block.sequences.len().div_ceil(per_sub_block as usize),
        "{ctx}: sub-block count"
    );
    let total_bits: u64 = bit.sub_block_bits.iter().map(|&b| u64::from(b)).sum();
    assert_eq!(bit.bitstream.len() as u64, total_bits.div_ceil(8), "{ctx}: sub-block bits cover the stream");

    macro_rules! check_streams {
        ($($s:literal),+) => {$(
            let (sequences, literals) = interleaved_decode::<$s>(&bit);
            assert_eq!(sequences, block.sequences, "{ctx}: S = {}: sequences", $s);
            assert_eq!(literals, block.literals, "{ctx}: S = {}: literals", $s);
        )+};
    }
    check_streams!(1, 2, 3, 4, 8);
}

#[test]
fn empty_and_tiny_blocks() {
    let mut scratch = EncodeScratch::new();
    check_encode(&match_block(&[]), 4, &mut scratch, "empty");
    check_encode(&match_block(b"a"), 1, &mut scratch, "one byte");
    check_encode(&match_block(b"ab"), 16, &mut scratch, "two bytes");
    check_encode(&match_block(&b"x".repeat(300)), 2, &mut scratch, "one-byte run");
}

#[test]
fn scratch_reuse_across_disparate_blocks_is_clean() {
    // One scratch carried across blocks with very different histograms and
    // sub-block shapes must not leak state from one encode into the next.
    let noise: Vec<u8> = (0..700u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    let blocks = [
        match_block(&[0xFF; 700]),
        SequenceBlock {
            sequences: vec![Sequence::literals_only(700)],
            literals: noise,
            uncompressed_len: 700,
        },
        match_block(b"one scratch reused across disparate blocks and sub-block shapes"),
        match_block(&[]),
        match_block(b"a"),
    ];
    let mut scratch = EncodeScratch::new();
    for per_sub_block in [1u32, 3, 4, 16] {
        for (i, block) in blocks.iter().enumerate() {
            let ctx = format!("block {i}, {per_sub_block} per sub-block");
            check_encode(block, per_sub_block, &mut scratch, &ctx);
        }
    }
}
