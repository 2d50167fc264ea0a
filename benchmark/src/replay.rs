//! Stage-by-stage replay of the encode and decode paths, built only from
//! the workspace's public functions, with a span around each stage.
//!
//! The encode replay mirrors `Compressor::compress` (plan in waves, match,
//! entropy-code, checksum, assemble the container) and must produce the
//! same bytes as the real call; the decode replay mirrors the per-block
//! body of the decompressor (parse, entropy decode, warp-model walk with
//! execution, checksum). The per-layer metrics are these spans' sums.

use crate::Result;
use gompresso_bitstream::{ByteReader, ByteWriter};
use gompresso_core::warp_lz77::decompress_block_warp;
use gompresso_core::{compress, planner_for, BlockFeedback, BlockPlan, Compressor, CompressorConfig};
use gompresso_core::{CompressedFile, EncodingMode, StrategySelection};
use gompresso_format::token_code::TokenCoder;
use gompresso_format::{content_checksum, BitBlock, BlockPayload, ByteBlock, EncodeScratch, FileHeader};
use gompresso_format::{InterleaveScratch, SubBlockStats};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{Matcher, MatcherScratch, SequenceBlock, GROUP_SIZE};
use std::time::Instant;

use crate::trace::Trace;

/// Blocks the in-memory compressor plans per adaptive wave (its private
/// `PLAN_WAVE`); the replay must plan in the same waves to emit the same
/// archive.
const PLAN_WAVE: usize = 8;

/// Sub-block bitstreams the decompressor decodes interleaved (its private
/// `INTERLEAVE_STREAMS`).
const INTERLEAVE_STREAMS: usize = 4;

/// Stage span names. The encode and decode replays are the roots; every
/// stage span is a child of a per-file or per-block span under them.
pub const ENCODE_STAGES: [&str; 5] =
    ["core.plan", "lz77.match", "format.entropy_encode", "format.checksum", "format.frame"];
pub const DECODE_STAGES: [&str; 5] =
    ["format.parse", "format.token_decode", "core.warp", "lz77.execute", "format.checksum_verify"];
pub const ROOTS: [&str; 2] = ["replay.encode", "replay.decode"];

/// What to replay: each file is compressed on its own with `config`; then
/// either every block of every file is decoded, or the listed
/// (file, block) pairs are, repeats included.
pub struct ReplayPlan<'a> {
    pub files: Vec<&'a [u8]>,
    pub config: CompressorConfig,
    pub decode_blocks: Option<Vec<(usize, usize)>>,
}

#[derive(Default)]
pub struct ReplayTotals {
    pub encoded_bytes: u64,
    pub decoded_bytes: u64,
    pub sequences: u64,
    pub matched_bytes: u64,
    /// Every replayed archive equals the real compressor's, and every
    /// replayed block decodes to the original bytes and its checksum.
    pub verified: bool,
}

pub fn run(plan: &ReplayPlan<'_>, trace: &mut Trace) -> Result<ReplayTotals> {
    let mut totals = ReplayTotals { verified: true, ..ReplayTotals::default() };
    // The real compressor's output, made before any span opens, is what
    // the replayed archives must equal.
    let mut reference = Vec::with_capacity(plan.files.len());
    for data in &plan.files {
        reference.push(compress(data, &plan.config)?.file.serialize());
    }

    let mut enc = EncodeState::default();
    let mut files = Vec::with_capacity(plan.files.len());
    let root = trace.open("replay.encode");
    for (i, data) in plan.files.iter().enumerate() {
        trace.set_op(i as u64);
        let (file, serialized) = encode_file(data, &plan.config, &mut enc, trace, &mut totals)?;
        totals.verified &= serialized == reference[i];
        totals.encoded_bytes += data.len() as u64;
        files.push((file, serialized));
    }
    trace.close(root);

    let mut dec = DecodeState::default();
    let root = trace.open("replay.decode");
    match &plan.decode_blocks {
        None => {
            for (i, (_, serialized)) in files.iter().enumerate() {
                trace.set_op(i as u64);
                let file = trace.time("format.parse", || CompressedFile::deserialize(serialized))?;
                for block in 0..file.blocks.len() {
                    decode_block(&file, block, plan.files[i], &mut dec, trace, &mut totals)?;
                }
            }
        }
        Some(blocks) => {
            for (op, &(i, block)) in blocks.iter().enumerate() {
                trace.set_op(op as u64);
                decode_block(&files[i].0, block, plan.files[i], &mut dec, trace, &mut totals)?;
            }
        }
    }
    trace.close(root);
    Ok(totals)
}

#[derive(Default)]
struct EncodeState {
    seq: SequenceBlock,
    matcher: MatcherScratch,
    encode: EncodeScratch,
}

fn encode_file(
    data: &[u8],
    config: &CompressorConfig,
    st: &mut EncodeState,
    trace: &mut Trace,
    totals: &mut ReplayTotals,
) -> Result<(CompressedFile, Vec<u8>)> {
    let file_span = trace.open("replay.encode_file");
    let settings = config.file_settings();
    let coder = Compressor::new(config.clone())?.token_coder()?;
    let planner = planner_for(config);
    let static_plan = (!planner.is_adaptive()).then(|| trace.time("core.plan", || planner.plan(0, &[])));

    let chunks: Vec<&[u8]> = data.chunks(config.block_size).collect();
    let mut payloads = Vec::with_capacity(chunks.len());
    let mut configs = Vec::with_capacity(chunks.len());
    let mut checksums = Vec::with_capacity(chunks.len());
    for (wave_index, wave) in chunks.chunks(PLAN_WAVE).enumerate() {
        let base = wave_index * PLAN_WAVE;
        let plans: Vec<BlockPlan> = match static_plan {
            Some(plan) => vec![plan; wave.len()],
            None => trace.time("core.plan", || {
                wave.iter().enumerate().map(|(i, chunk)| planner.plan((base + i) as u64, chunk)).collect()
            }),
        };
        let mut feedback = Vec::with_capacity(wave.len());
        for (i, (chunk, plan)) in wave.iter().zip(&plans).enumerate() {
            let start = Instant::now();
            trace.time("lz77.match", || {
                Matcher::new(plan.matcher_config(&settings)).compress_into(
                    chunk,
                    &mut st.seq,
                    &mut st.matcher,
                )
            });
            totals.sequences += st.seq.sequences.len() as u64;
            totals.matched_bytes += st.seq.match_len() as u64;
            let bytes = trace
                .time("format.entropy_encode", || encode_payload(&st.seq, plan, &coder, &mut st.encode))?;
            let seconds = start.elapsed().as_secs_f64();
            checksums.push(trace.time("format.checksum", || content_checksum(chunk)));
            configs.push(plan.block_config());
            feedback.push(BlockFeedback {
                block_index: (base + i) as u64,
                mode: plan.mode,
                uncompressed_len: chunk.len(),
                compressed_len: bytes.len(),
                seconds,
            });
            payloads.push(BlockPayload { bytes });
        }
        if static_plan.is_none() {
            trace.time("core.plan", || feedback.iter().for_each(|f| planner.record(f)));
        }
    }

    let framed = trace.time("format.frame", || -> Result<(CompressedFile, Vec<u8>)> {
        let header = FileHeader {
            window_size: config.window_size as u32,
            min_match_len: config.min_match_len as u32,
            max_match_len: config.max_match_len as u32,
            uncompressed_size: data.len() as u64,
            block_size: config.block_size as u32,
            block_configs: configs,
            block_compressed_sizes: Vec::new(),
            block_checksums: checksums,
        };
        let file = CompressedFile::new(header, payloads)?;
        let serialized = file.serialize();
        Ok((file, serialized))
    })?;
    trace.close(file_span);
    Ok(framed)
}

/// The block payload `compress` emits for `plan`.
fn encode_payload(
    seq: &SequenceBlock,
    plan: &BlockPlan,
    coder: &TokenCoder,
    scratch: &mut EncodeScratch,
) -> Result<Vec<u8>> {
    Ok(match plan.mode {
        EncodingMode::Bit => {
            let bit = BitBlock::encode_with_scratch(
                seq,
                coder,
                plan.sequences_per_sub_block,
                plan.max_codeword_len,
                scratch,
            )?;
            let mut w = ByteWriter::with_capacity(bit.bitstream.len() + 5 * bit.sub_block_bits.len() + 1024);
            bit.serialize(&mut w);
            w.finish()
        }
        EncodingMode::Byte => {
            let byte = ByteBlock::encode(seq)?;
            let mut w = ByteWriter::with_capacity(byte.data.len() + 16);
            byte.serialize(&mut w);
            w.finish()
        }
    })
}

#[derive(Default)]
struct DecodeState {
    seq: SequenceBlock,
    interleave: InterleaveScratch,
    stats: Vec<SubBlockStats>,
    out: Vec<u8>,
    executed: Vec<u8>,
    blocks: u64,
}

fn decode_block(
    file: &CompressedFile,
    block: usize,
    original: &[u8],
    st: &mut DecodeState,
    trace: &mut Trace,
    totals: &mut ReplayTotals,
) -> Result<()> {
    let header = &file.header;
    let coder = TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size)?;
    let config = header.block_config(block);
    let payload = &file.blocks[block].bytes;
    let start = block * header.block_size as usize;
    let expected = &original[start..start + header.block_uncompressed_size(block) as usize];

    let span = trace.open("replay.decode_block");
    match config.mode {
        EncodingMode::Bit => {
            let bit = trace.time("format.parse", || BitBlock::deserialize(&mut ByteReader::new(payload)))?;
            trace.time("format.token_decode", || decode_bit_tokens(&bit, &coder, st))?;
        }
        EncodingMode::Byte => {
            let byte =
                trace.time("format.parse", || ByteBlock::deserialize(&mut ByteReader::new(payload)))?;
            trace.time("format.token_decode", || byte.decode_into(&mut st.seq))?;
        }
    }
    st.out.resize(expected.len(), 0);
    st.executed.resize(expected.len(), 0);
    let strategy = StrategySelection::Planned.resolve(config);
    // The warp walk executes the block as well; timing a standalone
    // execution of the same block separates the model from the copies.
    // Alternating which runs first keeps cache warmth from favouring one.
    let warp = |trace: &mut Trace, st: &mut DecodeState| {
        trace
            .time("core.warp", || decompress_block_warp(&st.seq, strategy, false, block, &mut st.out))
            .map(|_| ())
    };
    let execute = |trace: &mut Trace, st: &mut DecodeState| {
        trace
            .time("lz77.execute", || gompresso_lz77::decompress_block_into(&st.seq, &mut st.executed))
            .map(|_| ())
    };
    if st.blocks.is_multiple_of(2) {
        warp(trace, st)?;
        execute(trace, st)?;
    } else {
        execute(trace, st)?;
        warp(trace, st)?;
    }
    st.blocks += 1;
    let stored = header.block_checksums[block];
    let checksum_ok = trace.time("format.checksum_verify", || content_checksum(&st.out) == stored);
    trace.close(span);

    totals.verified &= checksum_ok && st.out == expected && st.executed == expected;
    totals.decoded_bytes += expected.len() as u64;
    Ok(())
}

/// The decompressor's Huffman decode of one block: build both decode
/// tables, then decode the sub-blocks one warp-sized group at a time.
fn decode_bit_tokens(bit: &BitBlock, coder: &TokenCoder, st: &mut DecodeState) -> Result<()> {
    let lit_len = DecodeTable::new(&bit.lit_len_code)?;
    let offset = DecodeTable::new(&bit.offset_code)?;
    let seq = &mut st.seq;
    seq.sequences.clear();
    seq.literals.clear();
    seq.sequences.reserve((bit.n_sequences as usize).min(bit.bitstream.len().saturating_mul(8)));
    seq.literals.reserve((bit.uncompressed_len as usize).min(bit.bitstream.len().saturating_mul(8)));
    seq.uncompressed_len = bit.uncompressed_len as usize;
    let n_sub_blocks = bit.sub_block_count();
    let mut bit_cursor = 0u64;
    for group_start in (0..n_sub_blocks).step_by(GROUP_SIZE) {
        let group_end = (group_start + GROUP_SIZE).min(n_sub_blocks);
        st.stats.clear();
        bit.decode_sub_blocks_interleaved::<INTERLEAVE_STREAMS>(
            group_start,
            group_end - group_start,
            bit_cursor,
            coder,
            &lit_len,
            &offset,
            &mut st.interleave,
            &mut seq.sequences,
            &mut seq.literals,
            &mut st.stats,
        )?;
        bit_cursor += bit.sub_block_bits[group_start..group_end].iter().map(|&b| u64::from(b)).sum::<u64>();
    }
    Ok(())
}
