//! The Tesla K40 model of decompression (paper, Sections III-B and IV).
//!
//! [`Decompressor::simulate`] runs a file through two simulated kernels per
//! block and turns their counters into GPU time estimates:
//!
//! * the **Huffman decode kernel** (bit-mode blocks) — one sub-block per
//!   lane, in lock-step groups of 32; each lane's tallies come from its
//!   sub-block's decoded sequences ([`SubBlockStats::of`]);
//! * the **warp-level LZ77 kernel** ([`decompress_block_warp`]) — one
//!   sequence per lane, in groups of 32, with the three steps of the paper:
//!
//! 1. **Reading sequences** — each lane reads its sequence, and an exclusive
//!    warp prefix sum over the literal lengths locates each lane's literal
//!    string in the token stream.
//! 2. **Copying literal strings** — a second exclusive prefix sum over the
//!    per-lane output sizes (literal length + match length) locates each
//!    lane's write position; literals are copied.
//! 3. **Copying back-references** — resolved according to the selected
//!    [`ResolutionStrategy`]: sequentially (SC), iteratively with the
//!    ballot/shuffle Multi-Round Resolution algorithm of Figure 5 (MRR), or
//!    in a single round under the Dependency Elimination guarantee (DE).
//!
//! All warp instructions, memory traffic, divergence and rounds are charged
//! to the [`Warp`] counters so the GPU cost model can translate the run into
//! an estimated Tesla K40 kernel time.
//!
//! The model decodes and validates exactly as the host does: it reads each
//! block through the host's parse and entropy decode, and the walk first
//! executes the block with the host's executor and DE check
//! ([`mod@crate::decompress`]), so a block fails here with the host
//! decoder's error. Only then does it walk the groups, and the walk only
//! charges counters, which are pure functions of the sequence metadata.
//! Host decodes never enter this module; [`warp_walks`] counts walks
//! process-wide, so tests can prove it.

use crate::decompress::{
    execute_block, verify_block_checksum, with_decoded_block, BitLayout, Decompressor, DecompressorConfig,
};
use crate::stats::{GpuEstimate, MrrStats, SimulationReport};
use crate::strategy::ResolutionStrategy;
use crate::Result;
use gompresso_format::{token_code::TokenCoder, BlockConfig, CompressedFile, SubBlockStats};
use gompresso_lz77::{Sequence, SequenceBlock};
use gompresso_simt::{CostModel, KernelCounters, Warp, WarpCounters, WarpMask, WARP_SIZE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Decode kernel: warp instructions charged per decoded Huffman symbol
/// (table lookup, shift/consume, extra-bit handling, token store).
const INSTR_PER_SYMBOL: u64 = 10;
/// Decode kernel: fixed per-sub-block decoding overhead (offset
/// computation, loop set-up).
const SUB_BLOCK_OVERHEAD_INSTR: u64 = 24;
/// Decode kernel: bytes written to device memory per decoded token (the
/// decoder's output token stream that the LZ77 kernel later consumes).
const TOKEN_STREAM_BYTES_PER_SEQ: u64 = 12;
/// Bytes copied per simulated copy-loop iteration. GPU decompressors copy a
/// word at a time; 4 bytes is the conservative figure for unaligned output.
const COPY_GRANULE: u64 = 4;
/// Warp instructions charged per copy-loop iteration (load, store, index
/// update, branch).
const INSTR_PER_COPY_ITER: u64 = 4;
/// Warp instructions charged for reading and parsing one group's sequences.
const SEQ_PARSE_INSTR: u64 = 8;
/// Fixed per-group bookkeeping instructions (cursor updates, loop control).
const GROUP_OVERHEAD_INSTR: u64 = 8;
/// Extra instructions per MRR round beyond ballot/shuffle: every lane
/// re-evaluates its resolvability condition, recomputes source/destination
/// addresses and updates its pending flag in lock step each round.
const MRR_ROUND_OVERHEAD_INSTR: u64 = 24;
/// Bytes of token-stream data read per sequence (token structs are 12 bytes
/// in a typical GPU layout: literal length, match length, offset).
const SEQ_TOKEN_BYTES: u64 = 12;

/// Warp-model walks started in this process (see [`warp_walks`]).
static WARP_WALKS: AtomicU64 = AtomicU64::new(0);

/// Number of [`decompress_block_warp`] calls made so far in this process.
/// Host decoding never calls it, so the count moves only under
/// [`crate::Decompressor::simulate`] (and direct callers of the walk).
pub fn warp_walks() -> u64 {
    WARP_WALKS.load(Ordering::Relaxed)
}

impl Decompressor {
    /// Runs `file` through the simulated GPU: every block is decoded,
    /// charged to the Huffman decode kernel (bit mode) and walked through
    /// the warp-level LZ77 kernel ([`decompress_block_warp`]) under the
    /// configured strategy selection, and `cost` turns the collected
    /// counters into kernel and PCIe time estimates.
    ///
    /// The same validation as [`Decompressor::decompress`] applies (header
    /// sizes, `validate_de`, checksums when enabled), with the same errors,
    /// so a file that fails to decompress fails to simulate. The executed
    /// bytes are discarded.
    pub fn simulate(&self, file: &CompressedFile, cost: &CostModel) -> Result<SimulationReport> {
        let header = &file.header;
        let coder = self.validated_coder(file)?;

        let results: Vec<Result<BlockSimulation>> = file
            .blocks
            .par_iter()
            .enumerate()
            .map(|(idx, payload)| {
                simulate_block(
                    self.config(),
                    header.block_config(idx),
                    &coder,
                    idx,
                    &payload.bytes,
                    header.block_checksums.get(idx).copied(),
                    header.block_uncompressed_size(idx) as usize,
                )
                .map_err(|e| e.in_block(idx as u64, None))
            })
            .collect();

        let mut decode_counters = KernelCounters::new();
        let mut lz77_counters = KernelCounters::new();
        let mut mrr = MrrStats::default();
        for result in results {
            let block = result?;
            if let Some(decode) = &block.decode_counters {
                decode_counters.add_warp(decode);
            }
            lz77_counters.add_warp(&block.lz77_counters);
            mrr.merge(&block.mrr);
        }

        let compressed_size = file.compressed_size() as u64;
        let gpu = GpuEstimate::from_counters(
            cost,
            &decode_counters,
            &lz77_counters,
            header.max_codeword_len(),
            compressed_size,
            header.uncompressed_size,
        );
        Ok(SimulationReport {
            uncompressed_size: header.uncompressed_size,
            compressed_size,
            decode_counters,
            lz77_counters,
            mrr,
            gpu,
        })
    }
}

/// Model by-products of one simulated block.
struct BlockSimulation {
    /// Huffman decode kernel counters (bit-mode blocks only).
    decode_counters: Option<WarpCounters>,
    lz77_counters: WarpCounters,
    mrr: MrrStats,
}

/// The model counterpart of the host's per-block decode: the same parse,
/// entropy decode and size check, then the warp LZ77 kernel (which executes
/// the block with the host's checks first) into a throwaway buffer, the
/// checksum, and the decode kernel's charges.
fn simulate_block(
    config: &DecompressorConfig,
    block: &BlockConfig,
    coder: &TokenCoder,
    block_index: usize,
    payload: &[u8],
    checksum: Option<u64>,
    declared: usize,
) -> Result<BlockSimulation> {
    let strategy = config.strategy.resolve(block);
    with_decoded_block(block, coder, payload, declared, |seqs, layout| {
        let mut out = vec![0u8; declared];
        let outcome =
            decompress_block_warp(seqs, strategy, config.checks_de(strategy), block_index, &mut out)?;
        if config.verify_checksums {
            verify_block_checksum(block_index as u64, checksum, &out)?;
        }
        Ok(BlockSimulation {
            decode_counters: layout.map(|layout| charge_decode_kernel(seqs, layout, payload.len())),
            lz77_counters: outcome.counters,
            mrr: outcome.mrr,
        })
    })
}

/// The Huffman decode kernel on one bit block: a coalesced read of the
/// `payload_bytes`-byte payload, the two decode LUTs built in shared memory
/// (charged once per block; on the GPU the group's threads cooperate on
/// this), then one lock-step group per 32 sub-blocks, one sub-block per
/// lane. A group runs as long as its busiest lane and writes its decoded
/// token stream back to device memory for the LZ77 kernel (paper, Section
/// III-B-1), charged with the block's literal bytes decoded up to its end.
fn charge_decode_kernel(seqs: &SequenceBlock, layout: BitLayout, payload_bytes: usize) -> WarpCounters {
    let mut warp = Warp::new();
    warp.global_read(payload_bytes as u64, true);
    let lut_bytes = u64::from(layout.table_bytes);
    warp.shared_write(lut_bytes);
    warp.charge_instructions(lut_bytes / 4);

    let per_lane = layout.sequences_per_sub_block;
    let mut literals = 0u64;
    for group in seqs.sequences.chunks(per_lane * WARP_SIZE) {
        let mut max_lane_symbols = 0u64;
        let mut group_sequences = 0u64;
        let mut group_shared_reads = 0u64;
        for lane in group.chunks(per_lane).map(SubBlockStats::of) {
            let symbols = lane.symbols();
            max_lane_symbols = max_lane_symbols.max(symbols);
            group_sequences += u64::from(lane.sequences);
            group_shared_reads += symbols * 4;
            literals += u64::from(lane.literals);
        }
        warp.charge_instructions(max_lane_symbols * INSTR_PER_SYMBOL + SUB_BLOCK_OVERHEAD_INSTR);
        warp.shared_read(group_shared_reads);
        warp.global_write(group_sequences * TOKEN_STREAM_BYTES_PER_SEQ, true);
        // Literal bytes also travel through the token stream.
        warp.global_write(literals, true);
    }
    warp.into_counters()
}

/// Result of decompressing one block on one simulated warp.
///
/// The decompressed bytes themselves land in the caller-provided output
/// slice; only the simulation by-products travel back.
#[derive(Debug, Clone)]
pub struct WarpDecompressOutcome {
    /// Counters accumulated by the warp.
    pub counters: WarpCounters,
    /// MRR round statistics (empty unless the MRR strategy was used).
    pub mrr: MrrStats,
}

/// Per-lane state for the current group of sequences.
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    literal_len: u64,
    match_len: u64,
    match_offset: u64,
    /// Absolute output position where this lane starts writing.
    out_start: u64,
}

impl LaneState {
    fn write_pos(&self) -> u64 {
        self.out_start + self.literal_len
    }

    fn out_end(&self) -> u64 {
        self.out_start + self.literal_len + self.match_len
    }
}

/// Decompresses `block` with the given strategy, simulating one warp,
/// writing the decompressed bytes directly into `output`.
///
/// The block is first executed into `output` by the host's executor, the
/// one structural validator; with `validate_de` and the DE strategy it must
/// then pass the host's DE check, whose error carries `block_index`. Every
/// error is thus the host decoder's. Only a valid block is walked, group by
/// group, charging the counters.
pub fn decompress_block_warp(
    block: &SequenceBlock,
    strategy: ResolutionStrategy,
    validate_de: bool,
    block_index: usize,
    output: &mut [u8],
) -> Result<WarpDecompressOutcome> {
    WARP_WALKS.fetch_add(1, Ordering::Relaxed);
    let check_de = validate_de && strategy == ResolutionStrategy::DependencyEliminated;
    execute_block(block, check_de, block_index, output)?;

    let mut warp = Warp::new();
    let mut mrr = MrrStats::default();
    let mut out_cursor = 0u64;
    for group in block.sequences.chunks(WARP_SIZE) {
        let lanes = prepare_group(&mut warp, group, &mut out_cursor);
        let active = group.len();

        charge_literal_copies(&mut warp, &lanes, active);

        match strategy {
            ResolutionStrategy::SequentialCopy => {
                resolve_sequential(&mut warp, &lanes, active);
            }
            ResolutionStrategy::MultiRound => {
                resolve_multi_round(&mut warp, &lanes, active, &mut mrr);
            }
            ResolutionStrategy::DependencyEliminated => {
                resolve_single_round(&mut warp, &lanes, active);
            }
        }
        warp.charge_instructions(GROUP_OVERHEAD_INSTR);
    }

    Ok(WarpDecompressOutcome { counters: warp.into_counters(), mrr })
}

/// Step (a): read sequences and compute per-lane cursors with two warp
/// prefix sums; `out_cursor` moves past the group's output.
fn prepare_group(warp: &mut Warp, group: &[Sequence], out_cursor: &mut u64) -> [LaneState; WARP_SIZE] {
    // Token reads from device memory: one sequence struct per lane.
    warp.global_read(SEQ_TOKEN_BYTES * group.len() as u64, true);
    warp.charge_instructions(SEQ_PARSE_INSTR);

    // Prefix sum 1 locates each lane's literals in the token stream, prefix
    // sum 2 its output write offset. The warp charges both; the lanes below
    // take the same offsets linearly.
    let mut literal_lens = [0u64; WARP_SIZE];
    let mut output_lens = [0u64; WARP_SIZE];
    let mut lanes = [LaneState::default(); WARP_SIZE];
    for (lane, seq) in group.iter().enumerate() {
        literal_lens[lane] = u64::from(seq.literal_len);
        output_lens[lane] = u64::from(seq.literal_len) + u64::from(seq.match_len);
        lanes[lane] = LaneState {
            literal_len: u64::from(seq.literal_len),
            match_len: u64::from(seq.match_len),
            match_offset: u64::from(seq.match_offset),
            out_start: *out_cursor,
        };
        *out_cursor += output_lens[lane];
    }
    warp.exclusive_prefix_sum(&literal_lens);
    warp.exclusive_prefix_sum(&output_lens);
    lanes
}

/// Step (b): charge each lane's literal copy (the executor moved the bytes).
fn charge_literal_copies(warp: &mut Warp, lanes: &[LaneState; WARP_SIZE], active: usize) {
    let total_bytes: u64 = lanes[..active].iter().map(|l| l.literal_len).sum();
    if total_bytes == 0 {
        return;
    }
    let max_iters = lanes[..active].iter().map(|l| l.literal_len.div_ceil(COPY_GRANULE)).max().unwrap_or(0);
    warp.charge_instructions(max_iters * INSTR_PER_COPY_ITER);
    // Literal reads stream from the token area (reasonably coalesced);
    // writes scatter to per-lane output cursors.
    warp.global_read(total_bytes, true);
    warp.global_write(total_bytes, false);
}

fn charge_backref_copy(warp: &mut Warp, bytes: u64, max_lane_bytes: u64) {
    if bytes == 0 {
        return;
    }
    let iters = max_lane_bytes.div_ceil(COPY_GRANULE);
    warp.charge_instructions(iters * INSTR_PER_COPY_ITER);
    // Back-reference reads land at essentially random window offsets and the
    // writes scatter per lane: both are charged as non-coalesced.
    warp.global_read(bytes, false);
    warp.global_write(bytes, false);
}

/// Step (c), SC strategy: one lane at a time resolves its back-reference.
fn resolve_sequential(warp: &mut Warp, lanes: &[LaneState; WARP_SIZE], active: usize) {
    for lane in &lanes[..active] {
        if lane.match_len == 0 {
            continue;
        }
        // Only one lane does useful work per step: a round with 1 active
        // lane, and the copy cost is charged for that single lane.
        warp.begin_round(1);
        charge_backref_copy(warp, lane.match_len, lane.match_len);
    }
}

/// Step (c), DE strategy: every lane resolves in a single round.
fn resolve_single_round(warp: &mut Warp, lanes: &[LaneState; WARP_SIZE], active: usize) {
    let mut with_match = 0u32;
    let mut total = 0u64;
    let mut max_lane = 0u64;
    for lane in &lanes[..active] {
        if lane.match_len > 0 {
            with_match += 1;
            total += lane.match_len;
            max_lane = max_lane.max(lane.match_len);
        }
    }
    if with_match == 0 {
        return;
    }
    warp.begin_round(with_match);
    charge_backref_copy(warp, total, max_lane);
}

/// Step (c), MRR strategy: the Multi-Round Resolution algorithm of Figure 5.
///
/// Lane state lives in `u32` bitmasks (bit `i` = lane `i`), the host-side
/// shape of what the GPU's ballot produces anyway; every charge to `warp` is
/// identical to the former `[bool; 32]` walk.
fn resolve_multi_round(warp: &mut Warp, lanes: &[LaneState; WARP_SIZE], active: usize, mrr: &mut MrrStats) {
    // Bit `i` of `pending` — lane `i` still has a back-reference to write.
    let mut pending = 0u32;
    for (i, lane) in lanes[..active].iter().enumerate() {
        if lane.match_len > 0 {
            pending |= 1 << i;
        }
    }
    if pending == 0 {
        mrr.record_group(&[]);
        return;
    }

    // The high-water mark: output written so far without gaps. Literals are
    // already in place, so the gap-free region extends to the back-reference
    // slot of the first pending lane.
    let mut hwm = high_water_mark(lanes, active, pending);
    // At least one lane resolves per round, so a group runs at most 32
    // rounds — the per-round byte tallies fit a fixed lane-sized buffer.
    let mut bytes_by_round = [0u64; WARP_SIZE];
    let mut rounds = 0usize;
    // The broadcast source values never change across rounds.
    let lane_values: [u64; WARP_SIZE] =
        std::array::from_fn(|i| if i < active { lanes[i].out_end() } else { 0 });

    loop {
        // Which lanes can resolve this round? A lane may copy once every
        // byte it reads from *other* lanes' output lies below the HWM; bytes
        // it reads from its own output (overlapping matches) are produced by
        // its own sequential copy loop.
        let mut resolvable = 0u32;
        let mut resolved_bytes = 0u64;
        let mut max_lane_bytes = 0u64;
        let mut m = pending;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let lane = &lanes[i];
            let read_start = lane.write_pos() - lane.match_offset;
            let foreign_read_end = (read_start + lane.match_len).min(lane.write_pos());
            if foreign_read_end <= hwm || lane.write_pos() <= hwm {
                resolvable |= 1 << i;
                resolved_bytes += lane.match_len;
                max_lane_bytes = max_lane_bytes.max(lane.match_len);
            }
        }

        // The ballot over `pending` is what the GPU uses both to detect
        // termination and to find the last finished sequence (Figure 5,
        // lines 8–10).
        let pending_mask = warp.ballot_mask(WarpMask(pending));
        warp.charge_instructions(MRR_ROUND_OVERHEAD_INSTR);
        if pending_mask.is_empty() {
            break;
        }

        debug_assert!(resolvable != 0, "MRR made no progress; HWM = {hwm}, pending = {pending:#034b}");

        warp.begin_round(resolvable.count_ones());
        charge_backref_copy(warp, resolved_bytes, max_lane_bytes);
        bytes_by_round[rounds] = resolved_bytes;
        rounds += 1;

        pending &= !resolvable;

        // Broadcast the new high-water mark from the last writer (one
        // shuffle on the GPU).
        let done_prefix = first_pending(pending, active);
        if done_prefix > 0 {
            let _ = warp.shfl(&lane_values, done_prefix - 1);
        }
        hwm = high_water_mark(lanes, active, pending);
    }

    mrr.record_group(&bytes_by_round[..rounds]);
}

/// Index of the first lane that is still pending, or `active` if none.
fn first_pending(pending: u32, active: usize) -> usize {
    (pending.trailing_zeros() as usize).min(active)
}

/// The gap-free written position: everything before the first pending
/// lane's back-reference slot.
fn high_water_mark(lanes: &[LaneState; WARP_SIZE], active: usize, pending: u32) -> u64 {
    let p = first_pending(pending, active);
    if p == active {
        if active == 0 {
            0
        } else {
            lanes[active - 1].out_end()
        }
    } else {
        lanes[p].write_pos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GompressoError;
    use gompresso_lz77::{decompress_block, verify_de_invariant, Lz77Error, Matcher, MatcherConfig};

    fn reference(block: &SequenceBlock) -> Vec<u8> {
        decompress_block(block).expect("reference decompression failed")
    }

    /// Test harness: allocates the destination buffer the zero-copy driver
    /// would normally carve out of the file-level output.
    fn run_warp(
        block: &SequenceBlock,
        strategy: ResolutionStrategy,
        validate_de: bool,
        block_index: usize,
    ) -> crate::Result<(Vec<u8>, WarpDecompressOutcome)> {
        let mut output = vec![0u8; block.uncompressed_len];
        let outcome = decompress_block_warp(block, strategy, validate_de, block_index, &mut output)?;
        Ok((output, outcome))
    }

    fn sample_text(len: usize) -> Vec<u8> {
        let phrase = b"it was the best of times, it was the worst of times, ";
        phrase.iter().copied().cycle().take(len).collect()
    }

    #[test]
    fn all_strategies_match_the_reference_decoder() {
        let input = sample_text(50_000);
        for de in [false, true] {
            let cfg = MatcherConfig { dependency_elimination: de, ..MatcherConfig::gompresso() };
            let block = Matcher::new(cfg).compress(&input);
            let expected = reference(&block);
            for strategy in ResolutionStrategy::ALL {
                let (output, _) = run_warp(&block, strategy, false, 0).unwrap();
                assert_eq!(output, expected, "strategy {strategy} de={de}");
                assert_eq!(output, input);
            }
        }
    }

    #[test]
    fn mrr_handles_overlapping_matches() {
        // A long byte run produces self-overlapping back-references, which
        // must not deadlock the HWM loop.
        let input = vec![b'q'; 20_000];
        let block = Matcher::new(MatcherConfig::gompresso()).compress(&input);
        let (output, out) = run_warp(&block, ResolutionStrategy::MultiRound, false, 0).unwrap();
        assert_eq!(output, input);
        assert!(out.mrr.total_groups > 0);
    }

    #[test]
    fn de_strategy_uses_exactly_one_round_per_group_on_de_data() {
        let input = sample_text(100_000);
        let block = Matcher::new(MatcherConfig::gompresso_de()).compress(&input);
        let (output, out) = run_warp(&block, ResolutionStrategy::DependencyEliminated, true, 7).unwrap();
        assert_eq!(output, input);
        verify_de_invariant(&block, WARP_SIZE).unwrap();
        // DE charges at most one resolution round per group.
        assert!(out.counters.rounds <= block.sequences.len().div_ceil(WARP_SIZE) as u64);
    }

    #[test]
    fn de_validation_rejects_non_de_data_with_nesting() {
        // Heavily self-referential data compressed *without* DE.
        let mut input = Vec::new();
        for i in 0..3000u32 {
            input.extend_from_slice(b"abcabcabd");
            input.push((i % 7) as u8 + b'0');
        }
        let block = Matcher::new(MatcherConfig::gompresso()).compress(&input);
        let err = run_warp(&block, ResolutionStrategy::DependencyEliminated, true, 3);
        match err {
            Err(GompressoError::DependencyEliminationViolated { block: 3 }) => {}
            other => panic!("expected DE violation for block 3, got {other:?}"),
        }
        // The host's check, run without the walk, agrees.
        let mut output = vec![0u8; block.uncompressed_len];
        assert!(matches!(
            execute_block(&block, true, 3, &mut output),
            Err(GompressoError::DependencyEliminationViolated { block: 3 })
        ));
        // Without validation the host-side copy is still correct.
        let (output, _) = run_warp(&block, ResolutionStrategy::DependencyEliminated, false, 3).unwrap();
        assert_eq!(output, input);
    }

    #[test]
    fn mrr_needs_more_rounds_on_nested_data_than_de_data() {
        let mut nested_input = Vec::new();
        for i in 0..5000u32 {
            nested_input.extend_from_slice(b"xyzxyzxyw");
            nested_input.push((i % 5) as u8 + b'0');
        }
        let nested = Matcher::new(MatcherConfig::gompresso()).compress(&nested_input);
        let de_block = Matcher::new(MatcherConfig::gompresso_de()).compress(&nested_input);

        let (nested_bytes, nested_out) = run_warp(&nested, ResolutionStrategy::MultiRound, false, 0).unwrap();
        let (de_bytes, de_out) = run_warp(&de_block, ResolutionStrategy::MultiRound, false, 0).unwrap();
        assert_eq!(nested_bytes, nested_input);
        assert_eq!(de_bytes, nested_input);
        assert!(
            nested_out.mrr.mean_rounds() > de_out.mrr.mean_rounds(),
            "nested {} vs de {}",
            nested_out.mrr.mean_rounds(),
            de_out.mrr.mean_rounds()
        );
        // DE-compressed data never needs more rounds than the nested data.
        assert!(de_out.mrr.max_rounds() <= nested_out.mrr.max_rounds());
    }

    #[test]
    fn sc_charges_more_rounds_and_instructions_than_de() {
        let input = sample_text(80_000);
        let block = Matcher::new(MatcherConfig::gompresso_de()).compress(&input);
        let (sc_bytes, sc) = run_warp(&block, ResolutionStrategy::SequentialCopy, false, 0).unwrap();
        let (de_bytes, de) = run_warp(&block, ResolutionStrategy::DependencyEliminated, false, 0).unwrap();
        assert_eq!(sc_bytes, de_bytes);
        assert!(sc.counters.rounds > de.counters.rounds);
        assert!(sc.counters.instructions > de.counters.instructions);
        // SC's per-round utilization is one lane; DE's is near-full.
        assert!(sc.counters.warp_utilization() < de.counters.warp_utilization());
    }

    #[test]
    fn empty_and_tiny_blocks() {
        let empty = SequenceBlock::new();
        for strategy in ResolutionStrategy::ALL {
            let (output, _) = run_warp(&empty, strategy, true, 0).unwrap();
            assert!(output.is_empty());
        }
        let tiny = Matcher::new(MatcherConfig::gompresso()).compress(b"ab");
        for strategy in ResolutionStrategy::ALL {
            let (output, _) = run_warp(&tiny, strategy, true, 0).unwrap();
            assert_eq!(output, b"ab");
        }
    }

    #[test]
    fn corrupt_sequences_error_instead_of_panicking() {
        // Zero offset.
        let bad = SequenceBlock {
            sequences: vec![Sequence { literal_len: 1, match_offset: 0, match_len: 4 }],
            literals: vec![b'a'],
            uncompressed_len: 5,
        };
        assert!(matches!(
            run_warp(&bad, ResolutionStrategy::MultiRound, false, 0),
            Err(GompressoError::Lz77(Lz77Error::ZeroOffset { .. }))
        ));

        // Offset reaching before the block.
        let bad = SequenceBlock {
            sequences: vec![Sequence { literal_len: 1, match_offset: 10, match_len: 4 }],
            literals: vec![b'a'],
            uncompressed_len: 5,
        };
        assert!(matches!(
            run_warp(&bad, ResolutionStrategy::DependencyEliminated, false, 0),
            Err(GompressoError::Lz77(Lz77Error::OffsetBeforeStart { .. }))
        ));

        // Literal overrun.
        let bad = SequenceBlock {
            sequences: vec![Sequence { literal_len: 9, match_offset: 0, match_len: 0 }],
            literals: vec![b'a'; 2],
            uncompressed_len: 9,
        };
        assert!(matches!(
            run_warp(&bad, ResolutionStrategy::SequentialCopy, false, 0),
            Err(GompressoError::Lz77(Lz77Error::LiteralOverrun { .. }))
        ));

        // Declared length disagrees with sequences: the executor's error.
        let bad = SequenceBlock {
            sequences: vec![Sequence::literals_only(2)],
            literals: vec![b'a'; 2],
            uncompressed_len: 10,
        };
        assert!(matches!(
            run_warp(&bad, ResolutionStrategy::SequentialCopy, false, 0),
            Err(GompressoError::Lz77(Lz77Error::LengthMismatch { declared: 10, produced: 2 }))
        ));
    }

    #[test]
    fn structural_errors_come_before_de_violations() {
        // Sequence 1 reads the bytes sequence 0's match writes in the same
        // group, and the block declares one byte more than it holds.
        let bad = SequenceBlock {
            sequences: vec![
                Sequence { literal_len: 4, match_offset: 4, match_len: 4 },
                Sequence { literal_len: 0, match_offset: 4, match_len: 4 },
            ],
            literals: b"abcd".to_vec(),
            uncompressed_len: 13,
        };
        let length = GompressoError::Lz77(Lz77Error::LengthMismatch { declared: 13, produced: 12 });
        let mut output = vec![0u8; 13];
        assert_eq!(execute_block(&bad, true, 0, &mut output), Err(length.clone()));
        assert_eq!(run_warp(&bad, ResolutionStrategy::DependencyEliminated, true, 0).unwrap_err(), length);
        // With the length right, the violation is what remains.
        let nested = SequenceBlock { uncompressed_len: 12, ..bad };
        let violation = GompressoError::DependencyEliminationViolated { block: 0 };
        let mut output = vec![0u8; 12];
        assert_eq!(execute_block(&nested, true, 0, &mut output), Err(violation.clone()));
        assert_eq!(
            run_warp(&nested, ResolutionStrategy::DependencyEliminated, true, 0).unwrap_err(),
            violation
        );
    }

    #[test]
    fn simulate_fails_with_the_host_decoders_error() {
        // A bit block whose sequences decode to three bytes fewer than the
        // block (and the header) declares.
        use crate::{compress, decompress_with, CompressorConfig, CostModel, Decompressor};
        use gompresso_bitstream::{ByteReader, ByteWriter};
        use gompresso_format::{BitBlock, BlockPayload};

        let data = sample_text(20_000);
        let mut file = compress(&data, &CompressorConfig::bit()).unwrap().file;
        assert_eq!(file.blocks.len(), 1);
        let mut bit = BitBlock::deserialize(&mut ByteReader::new(&file.blocks[0].bytes)).unwrap();
        bit.uncompressed_len += 3;
        let mut w = ByteWriter::new();
        bit.serialize(&mut w);
        file.header.uncompressed_size += 3;
        let file = CompressedFile::new(file.header, vec![BlockPayload { bytes: w.finish() }]).unwrap();

        for strategy in ResolutionStrategy::ALL {
            let config = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
            let host = decompress_with(&file, &config).unwrap_err();
            let model = Decompressor::new(config).simulate(&file, &CostModel::tesla_k40()).unwrap_err();
            assert!(matches!(
                host.root_cause(),
                GompressoError::Lz77(Lz77Error::LengthMismatch { declared: 20_003, produced: 20_000 })
            ));
            assert_eq!(model.root_cause(), host.root_cause(), "{strategy}");
        }
    }

    #[test]
    fn counters_reflect_memory_traffic() {
        let input = sample_text(30_000);
        let block = Matcher::new(MatcherConfig::gompresso()).compress(&input);
        let (_, out) = run_warp(&block, ResolutionStrategy::MultiRound, false, 0).unwrap();
        let c = &out.counters;
        // Every output byte is written exactly once.
        assert_eq!(c.global_write_bytes, input.len() as u64);
        // Token reads: 12 bytes per sequence.
        assert!(c.global_read_bytes >= block.sequences.len() as u64 * SEQ_TOKEN_BYTES);
        assert!(c.ballots > 0);
        assert!(c.shuffles > 0);
        assert!(c.instructions > 0);
    }
}
