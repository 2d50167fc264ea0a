//! Fast compression path ≡ retained reference.
//!
//! The compression hot-path overhaul (word-wise matching, reusable scratch,
//! batched entropy coding) must change *only* how fast bytes are produced,
//! never which bytes. This suite retains the naive formulation of every
//! optimized component as an executable reference — byte-at-a-time match
//! lengths, a linear overlap scan for the DE policy, freshly allocated
//! tables per block, per-symbol Huffman emission through a byte-at-a-time
//! bit writer, interleaved histogram building — and checks that for random
//! inputs across {bit, byte} × {plain, deep-chain, DE}, and at
//! the edges of the matcher's check-free fast region (short and long
//! lookaheads, tiny blocks, three-byte keys):
//!
//! * the LZ77 sequence stream is identical, and
//! * the fully serialized compressed file is byte-identical.
//!
//! The reference mirrors the *algorithm* (quad-byte hashing, hash chains
//! whose DE-vetoed candidates do not consume attempts, skip-stride over
//! miss runs, covered-position insertion inside long matches — sampled
//! except for deep chains without DE — the minimal-staleness policy and the
//! one DE rule, no overlap with another back-reference's output within a
//! group of 32 sequences) in its simplest possible code, with its own
//! constants (1 KiB staleness, 32-sequence groups) rather than the matcher's,
//! so any divergence introduced by the word-wise/batched implementations
//! fails the property.

use gompresso_bitstream::ByteWriter;
use gompresso_core::{compress, CompressedFile, CompressorConfig, EncodingMode};
use gompresso_format::token_code::{TokenCoder, END_OF_SEQUENCES};
use gompresso_format::{BitBlock, BlockPayload, ByteBlock, FileHeader};
use gompresso_huffman::{CanonicalCode, EncodeTable, Histogram};
use gompresso_lz77::{Matcher, MatcherConfig, Sequence, SequenceBlock, SKIP_TRIGGER};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference matcher: the same greedy algorithm, written naively.
// ---------------------------------------------------------------------------

fn ref_hash(cfg: &MatcherConfig, input: &[u8], pos: usize) -> usize {
    let quad = match cfg.hash_bytes {
        0 => cfg.min_match_len >= 4,
        b => b >= 4,
    };
    let bytes = if pos + 4 <= input.len() {
        let word = u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], input[pos + 3]]);
        if quad {
            word
        } else {
            word & 0x00FF_FFFF
        }
    } else {
        u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], 0])
    };
    (bytes.wrapping_mul(2654435761) >> (32 - cfg.hash_bits)) as usize
}

/// Byte-at-a-time match length (the reference for `common_prefix_len`).
fn ref_match_len(input: &[u8], cand: usize, pos: usize, limit: usize) -> usize {
    let mut len = 0;
    while len < limit && input[cand + len] == input[pos + len] {
        len += 1;
    }
    len
}

/// Sequences per warp group, as the decoder's DE check counts them.
const REF_GROUP_SIZE: usize = 32;

/// The DE hash-replacement policy's minimal staleness (paper, Section IV-B).
const REF_MIN_STALENESS: u64 = 1024;

/// Linear-scan DE policy (the reference for the binary-search bound).
fn ref_de_allows(cfg: &MatcherConfig, cand: usize, len: usize, emitted: &[(usize, usize)]) -> bool {
    if !cfg.dependency_elimination {
        return true;
    }
    let src_end = cand + len;
    !emitted.iter().any(|&(start, end)| cand < end && src_end > start)
}

fn ref_compress(cfg: &MatcherConfig, input: &[u8]) -> SequenceBlock {
    let n = input.len();
    let mut block = SequenceBlock { sequences: Vec::new(), literals: Vec::new(), uncompressed_len: n };
    if n == 0 {
        return block;
    }
    let mut head = vec![u32::MAX; 1usize << cfg.hash_bits];
    let mut prev = vec![u32::MAX; cfg.window_size];
    let window_mask = cfg.window_size - 1;

    let insert = |head: &mut Vec<u32>, prev: &mut Vec<u32>, input: &[u8], pos: usize| {
        if pos + cfg.min_match_len > n {
            return;
        }
        let h = ref_hash(cfg, input, pos);
        let existing = head[h];
        if cfg.dependency_elimination
            && existing != u32::MAX
            && (pos as u64 - u64::from(existing)) <= REF_MIN_STALENESS
        {
            return;
        }
        prev[pos & window_mask] = existing;
        head[h] = pos as u32;
    };

    let mut pos = 0usize;
    let mut literal_start = 0usize;
    let mut seq_in_group = 0usize;
    let mut miss_run = 0u32;
    let mut emitted: Vec<(usize, usize)> = Vec::new();

    while pos < n {
        let mut best_len = 0usize;
        let mut best_cand = 0usize;
        if pos + cfg.min_match_len <= n {
            let h = ref_hash(cfg, input, pos);
            let mut cand = head[h];
            let mut attempts = 0usize;
            let limit = cfg.max_match_len.min(n - pos);
            while cand != u32::MAX && attempts < cfg.chain_depth {
                let cand_pos = cand as usize;
                if cand_pos >= pos || pos - cand_pos >= cfg.window_size {
                    break;
                }
                let probe = best_len.max(cfg.min_match_len - 1);
                if probe >= limit {
                    break;
                }
                let len = ref_match_len(input, cand_pos, pos, limit);
                let mut de_blocked = false;
                if len > probe {
                    if ref_de_allows(cfg, cand_pos, len, &emitted) {
                        best_len = len;
                        best_cand = cand_pos;
                        if len >= cfg.max_match_len {
                            break;
                        }
                    } else {
                        // A policy veto does not consume a chain attempt.
                        de_blocked = true;
                    }
                }
                let next = prev[cand_pos & window_mask];
                if next != u32::MAX && next as usize >= cand_pos {
                    break;
                }
                cand = next;
                if !de_blocked {
                    attempts += 1;
                }
            }
        }

        if best_len >= cfg.min_match_len {
            let literal_len = pos - literal_start;
            block.literals.extend_from_slice(&input[literal_start..pos]);
            block.sequences.push(Sequence {
                literal_len: literal_len as u32,
                match_offset: (pos - best_cand) as u32,
                match_len: best_len as u32,
            });
            emitted.push((pos, pos + best_len));
            miss_run = 0;
            // Covered-position insertion: DE and single-probe matchers
            // sample long matches every other position; deep chains without
            // DE insert every position.
            let sampled = cfg.dependency_elimination || cfg.chain_depth <= 1;
            let step = if sampled && best_len >= 8 { 2 } else { 1 };
            insert(&mut head, &mut prev, input, pos);
            let mut p = pos + 1;
            while p < pos + best_len {
                insert(&mut head, &mut prev, input, p);
                p += step;
            }
            if !cfg.dependency_elimination && sampled && best_len >= 8 && best_len.is_multiple_of(2) {
                insert(&mut head, &mut prev, input, pos + best_len - 2);
            }
            pos += best_len;
            literal_start = pos;
            seq_in_group += 1;
            if seq_in_group == REF_GROUP_SIZE {
                seq_in_group = 0;
                emitted.clear();
            }
        } else {
            insert(&mut head, &mut prev, input, pos);
            let step = 1 + (miss_run >> SKIP_TRIGGER) as usize;
            miss_run += 1;
            pos += step;
        }
    }
    if literal_start < n {
        block.literals.extend_from_slice(&input[literal_start..]);
        block.sequences.push(Sequence::literals_only((n - literal_start) as u32));
    }
    block
}

// ---------------------------------------------------------------------------
// Reference bit-level encoder: per-symbol emission through a byte-at-a-time
// bit writer, interleaved histogram building.
// ---------------------------------------------------------------------------

/// The pre-rework bit writer: flushes the accumulator one byte at a time
/// after every append.
#[derive(Default)]
struct RefBitWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl RefBitWriter {
    fn write_bits(&mut self, value: u32, width: u32) {
        if width == 0 {
            return;
        }
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        self.acc |= u64::from(value & mask) << self.nbits;
        self.nbits += width;
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.nbits)
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - (self.nbits % 8);
            if pad != 8 {
                self.write_bits(0, pad);
            }
        }
        self.bytes
    }
}

fn ref_encode_symbol(enc: &EncodeTable, w: &mut RefBitWriter, symbol: u16) {
    let (code, len) = enc.code(symbol).expect("reference encode: symbol must be coded");
    w.write_bits(code, u32::from(len));
}

fn ref_bit_encode(block: &SequenceBlock, coder: &TokenCoder, spsb: u32, max_cwl: u8) -> BitBlock {
    let mut lit_len_hist = Histogram::new(coder.lit_len_alphabet());
    let mut offset_hist = Histogram::new(coder.offset_alphabet());
    lit_len_hist.add(END_OF_SEQUENCES);
    offset_hist.add(0);
    let mut literal_cursor = 0usize;
    for seq in &block.sequences {
        let lit_end = literal_cursor + seq.literal_len as usize;
        for &b in &block.literals[literal_cursor..lit_end] {
            lit_len_hist.add(u16::from(b));
        }
        literal_cursor = lit_end;
        if seq.has_match() {
            let (len_sym, _, _) = coder.encode_length(seq.match_len).unwrap();
            let (off_sym, _, _) = coder.encode_offset(seq.match_offset).unwrap();
            lit_len_hist.add(len_sym);
            offset_hist.add(off_sym);
        } else {
            lit_len_hist.add(END_OF_SEQUENCES);
        }
    }
    let lit_len_code = CanonicalCode::from_histogram(&lit_len_hist, max_cwl).unwrap();
    let offset_code = CanonicalCode::from_histogram(&offset_hist, max_cwl).unwrap();
    let lit_len_enc = EncodeTable::new(&lit_len_code);
    let offset_enc = EncodeTable::new(&offset_code);

    let mut w = RefBitWriter::default();
    let mut sub_block_bits = Vec::new();
    let mut sub_block_start_bit = 0u64;
    let mut literal_cursor = 0usize;
    for (i, seq) in block.sequences.iter().enumerate() {
        let lit_end = literal_cursor + seq.literal_len as usize;
        for &b in &block.literals[literal_cursor..lit_end] {
            ref_encode_symbol(&lit_len_enc, &mut w, u16::from(b));
        }
        literal_cursor = lit_end;
        if seq.has_match() {
            let (len_sym, len_bits, len_extra) = coder.encode_length(seq.match_len).unwrap();
            ref_encode_symbol(&lit_len_enc, &mut w, len_sym);
            w.write_bits(len_extra, u32::from(len_bits));
            let (off_sym, off_bits, off_extra) = coder.encode_offset(seq.match_offset).unwrap();
            ref_encode_symbol(&offset_enc, &mut w, off_sym);
            w.write_bits(off_extra, u32::from(off_bits));
        } else {
            ref_encode_symbol(&lit_len_enc, &mut w, END_OF_SEQUENCES);
        }
        if (i + 1) % spsb as usize == 0 || i + 1 == block.sequences.len() {
            let bits = w.bit_len() - sub_block_start_bit;
            sub_block_bits.push(u32::try_from(bits).unwrap());
            sub_block_start_bit = w.bit_len();
        }
    }

    BitBlock {
        lit_len_code,
        offset_code,
        n_sequences: block.sequences.len() as u32,
        uncompressed_len: block.uncompressed_len as u32,
        sequences_per_sub_block: spsb,
        sub_block_bits,
        bitstream: w.finish(),
    }
}

// ---------------------------------------------------------------------------
// Reference byte-level encoder.
// ---------------------------------------------------------------------------

fn ref_byte_encode(block: &SequenceBlock) -> ByteBlock {
    let mut data = Vec::new();
    let mut literal_cursor = 0usize;
    for seq in &block.sequences {
        let lit_nibble = seq.literal_len.min(15);
        let match_nibble = seq.match_len.min(15);
        data.push(((lit_nibble << 4) | match_nibble) as u8);
        if lit_nibble == 15 {
            let mut rem = seq.literal_len - 15;
            while rem >= 255 {
                data.push(255);
                rem -= 255;
            }
            data.push(rem as u8);
        }
        let lit_end = literal_cursor + seq.literal_len as usize;
        data.extend_from_slice(&block.literals[literal_cursor..lit_end]);
        literal_cursor = lit_end;
        if seq.match_len > 0 {
            data.extend_from_slice(&(seq.match_offset as u16).to_le_bytes());
            if match_nibble == 15 {
                let mut rem = seq.match_len - 15;
                while rem >= 255 {
                    data.push(255);
                    rem -= 255;
                }
                data.push(rem as u8);
            }
        }
    }
    ByteBlock {
        n_sequences: block.sequences.len() as u32,
        uncompressed_len: block.uncompressed_len as u32,
        data,
    }
}

// ---------------------------------------------------------------------------
// Reference whole-file pipeline.
// ---------------------------------------------------------------------------

fn ref_compress_file(data: &[u8], cfg: &CompressorConfig) -> CompressedFile {
    let matcher_cfg = cfg.base_plan().matcher_config(&cfg.file_settings());
    let coder =
        TokenCoder::new(cfg.min_match_len as u32, cfg.max_match_len as u32, cfg.window_size as u32).unwrap();
    let payloads: Vec<BlockPayload> = if data.is_empty() {
        Vec::new()
    } else {
        data.chunks(cfg.block_size)
            .map(|chunk| {
                let seq_block = ref_compress(&matcher_cfg, chunk);
                let mut w = ByteWriter::new();
                match cfg.mode {
                    EncodingMode::Bit => {
                        ref_bit_encode(&seq_block, &coder, cfg.sequences_per_sub_block, cfg.max_codeword_len)
                            .serialize(&mut w)
                    }
                    EncodingMode::Byte => ref_byte_encode(&seq_block).serialize(&mut w),
                }
                BlockPayload { bytes: w.finish() }
            })
            .collect()
    };
    let header = FileHeader {
        window_size: cfg.window_size as u32,
        min_match_len: cfg.min_match_len as u32,
        max_match_len: cfg.max_match_len as u32,
        uncompressed_size: data.len() as u64,
        block_size: cfg.block_size as u32,
        block_configs: vec![cfg.base_plan().block_config(); payloads.len()],
        block_compressed_sizes: Vec::new(),
        block_checksums: data.chunks(cfg.block_size.max(1)).map(gompresso_format::content_checksum).collect(),
    };
    CompressedFile::new(header, payloads).expect("reference file assembles")
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

/// Words whose text overlaps ("compress" in "decompress", "compression"),
/// so word salad repeats at every distance and at many match lengths.
const WORDS: [&[u8]; 16] = [
    b"the ",
    b"quick ",
    b"compress",
    b"compression ",
    b"decompress ",
    b"gompresso ",
    b"warp ",
    b"block ",
    b"<page>",
    b"</page>\n",
    b"of ",
    b"and ",
    b"data ",
    b"parallel ",
    b"massively ",
    b"lossless ",
];

/// Mixed input: small-alphabet runs, word salad and incompressible noise,
/// interleaved so matches of every length (short ones whose covered keys
/// all come from the matcher's second word load included), literals,
/// skip-stride and block boundaries are all exercised.
fn mixed_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..3, proptest::collection::vec(any::<u8>(), 1..80)), 0..300).prop_map(
        |chunks| {
            let mut input = Vec::new();
            for (kind, bytes) in chunks {
                match kind {
                    0 => input.extend(bytes.iter().map(|b| b % 24)),
                    1 => input.extend_from_slice(&bytes),
                    _ => {
                        for &b in bytes.iter().take(12) {
                            input.extend_from_slice(WORDS[usize::from(b) % WORDS.len()]);
                        }
                    }
                }
            }
            input
        },
    )
}

fn small_blocks(mut config: CompressorConfig) -> CompressorConfig {
    config.block_size = 4 * 1024;
    config.sequences_per_sub_block = 8;
    config
}

fn configs() -> Vec<CompressorConfig> {
    let mut configs = vec![
        small_blocks(CompressorConfig::bit()),
        small_blocks(CompressorConfig::bit_de()),
        small_blocks(CompressorConfig::byte()),
        small_blocks(CompressorConfig::byte_de()),
        small_blocks(CompressorConfig { chain_depth: 4, hash_bytes: 3, ..CompressorConfig::bit_de() }),
        small_blocks(CompressorConfig { chain_depth: 8, ..CompressorConfig::bit() }),
        small_blocks(CompressorConfig { chain_depth: 8, ..CompressorConfig::byte() }),
        CompressorConfig { sequences_per_sub_block: 1, ..small_blocks(CompressorConfig::bit()) },
    ];
    configs.extend(fast_region_edges());
    configs
}

/// Configs at the edges of the matcher's fast region, which covers all but
/// the last `max_match_len + 8` bytes of a block: lookaheads shorter than,
/// equal to and just past one eight-byte word (where the word compare's
/// length must be clamped), DEFLATE-length matches in a 64 KiB window, the
/// single-probe matcher with three-byte keys, and blocks whose fast region is
/// empty (71 and 72 bytes) or a few positions long (73 and 80 bytes).
fn fast_region_edges() -> Vec<CompressorConfig> {
    let mut configs = Vec::new();
    for (max_match_len, plain, de) in [
        (3, CompressorConfig::bit(), CompressorConfig::byte_de()),
        (7, CompressorConfig::byte(), CompressorConfig::bit_de()),
        (8, CompressorConfig::bit(), CompressorConfig::byte_de()),
        (9, CompressorConfig::byte(), CompressorConfig::bit_de()),
    ] {
        configs.push(small_blocks(CompressorConfig { max_match_len, ..plain }));
        configs.push(small_blocks(CompressorConfig { max_match_len, ..de }));
    }
    configs.push(CompressorConfig {
        window_size: 64 * 1024,
        max_match_len: 258,
        block_size: 16 * 1024,
        ..small_blocks(CompressorConfig::bit())
    });
    configs.push(small_blocks(CompressorConfig { hash_bytes: 3, ..CompressorConfig::bit() }));
    for (block_size, config) in [
        (71, CompressorConfig::bit()),
        (72, CompressorConfig::byte_de()),
        (73, CompressorConfig::bit_de()),
        (80, CompressorConfig::byte()),
    ] {
        configs.push(CompressorConfig { block_size, ..small_blocks(config) });
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fast_compressor_matches_reference(input in mixed_input()) {
        for cconf in configs() {
            // Layer 1: the matcher produces identical sequence streams.
            let matcher_cfg = cconf.base_plan().matcher_config(&cconf.file_settings());
            let fast_matcher = Matcher::new(matcher_cfg.clone());
            for chunk in input.chunks(cconf.block_size.max(1)) {
                let fast = fast_matcher.compress(chunk);
                let reference = ref_compress(&matcher_cfg, chunk);
                prop_assert_eq!(&fast, &reference, "matcher diverged (mode {:?})", cconf.mode);
            }

            // Layer 2: the full pipeline produces byte-identical files.
            let fast_file = compress(&input, &cconf).expect("fast compression failed").file;
            let ref_file = ref_compress_file(&input, &cconf);
            prop_assert_eq!(
                fast_file.serialize(),
                ref_file.serialize(),
                "serialized file diverged (mode {:?}, de {})",
                cconf.mode,
                cconf.dependency_elimination
            );
        }
    }
}

/// Codes longer than 16 bits through the block emitter's 62-bit group
/// flush: byte frequencies growing ~1.8× per symbol give a deep,
/// tie-free Huffman tree (Fibonacci-like growth ties during the merges
/// and stays shallow), so at CWL 24 the rarest literals get codes well
/// past 16 bits. Literals are shuffled so long and short codes interleave
/// inside each packing group.
#[test]
fn codes_longer_than_16_bits_match_reference() {
    let mut literals = Vec::new();
    let mut freq = 1.0f64;
    for sym in 0u8..20 {
        literals.extend(std::iter::repeat_n(sym, freq.round() as usize));
        freq *= 1.8;
    }
    let mut state = 0x2545_F491u32;
    for i in (1..literals.len()).rev() {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        literals.swap(i, (state as usize) % (i + 1));
    }
    let sequences: Vec<Sequence> =
        literals.chunks(1000).map(|run| Sequence::literals_only(run.len() as u32)).collect();
    let block = SequenceBlock { sequences, uncompressed_len: literals.len(), literals };
    let coder = TokenCoder::new(3, 64, 8 * 1024).unwrap();

    let fast = BitBlock::encode(&block, &coder, 16, 24).unwrap();
    assert!(fast.lit_len_code.longest_used() > 16, "longest code {} bits", fast.lit_len_code.longest_used());
    let reference = ref_bit_encode(&block, &coder, 16, 24);
    assert_eq!(fast.sub_block_bits, reference.sub_block_bits);
    let (mut fast_bytes, mut ref_bytes) = (ByteWriter::new(), ByteWriter::new());
    fast.serialize(&mut fast_bytes);
    reference.serialize(&mut ref_bytes);
    assert!(fast_bytes.finish() == ref_bytes.finish(), "serialized block diverged from the reference");
}
