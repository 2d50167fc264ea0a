//! Warp-level LZ77 decompression (paper, Sections III-B-2 and IV).
//!
//! One data block is decompressed by one simulated GPU warp. The warp
//! processes the block's sequences in groups of 32 — one sequence per lane —
//! and for each group performs the three steps of the paper:
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
//! Simulation and byte movement are decoupled: the warp walk charges
//! counters and validates every sequence (group by group, exactly as
//! before), but writes nothing; once the whole block has validated, a
//! single sequential pass executes the sequences with the wide-copy kernels
//! of `gompresso-lz77` (8/16-byte chunks, wild overshoot confined to the
//! block's disjoint output slice). The decompressed bytes are identical —
//! LZ77 execution is deterministic regardless of resolution order — and the
//! counters, being pure functions of the sequence metadata, are
//! byte-for-byte what the copying simulation charged.
//!
//! The walk is the *model*, not the host decoder: only
//! [`crate::Decompressor::simulate`] runs it. Host decodes execute the
//! sequences directly and, when asked to validate Dependency Elimination,
//! run `check_de_block` — the walk's own DE check without the charging.
//! [`warp_walks`] counts walks process-wide, so tests can prove the host
//! paths never enter the model.

use crate::stats::MrrStats;
use crate::strategy::ResolutionStrategy;
use crate::{GompressoError, Result};
use gompresso_lz77::{decompress_block_into, Lz77Error, Sequence, SequenceBlock};
use gompresso_simt::{Warp, WarpCounters, WarpMask, WARP_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// `output` must be exactly `block.uncompressed_len` bytes — in the zero-copy
/// driver it is this block's disjoint slice of the file-level output buffer,
/// so every decompressed byte is written exactly once, with no per-block
/// staging vector and no merge copy.
///
/// `validate_de` additionally checks (when the DE strategy is selected) that
/// no back-reference depends on another back-reference of its group and
/// reports a [`GompressoError::DependencyEliminationViolated`] otherwise;
/// the caller supplies the block index used in that error.
pub fn decompress_block_warp(
    block: &SequenceBlock,
    strategy: ResolutionStrategy,
    validate_de: bool,
    block_index: usize,
    output: &mut [u8],
) -> Result<WarpDecompressOutcome> {
    if output.len() != block.uncompressed_len {
        return Err(GompressoError::OutputSizeMismatch {
            declared: block.uncompressed_len as u64,
            produced: output.len() as u64,
        });
    }
    WARP_WALKS.fetch_add(1, Ordering::Relaxed);
    let mut warp = Warp::new();
    let mut mrr = MrrStats::default();
    let mut out_cursor = 0u64;
    let mut literal_cursor = 0u64;

    // Pass 1 — simulate and validate. The group walk charges exactly the
    // counters the copying implementation charged and performs the same
    // structural checks in the same order, but moves no bytes.
    for (group_idx, group) in block.sequences.chunks(WARP_SIZE).enumerate() {
        let lanes = prepare_group(&mut warp, block, group, group_idx, out_cursor, literal_cursor)?;
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
                if validate_de {
                    check_de_invariant(&lanes, active, block_index)?;
                }
                resolve_single_round(&mut warp, &lanes, active);
            }
        }

        advance_cursors(&lanes[..active], &mut out_cursor, &mut literal_cursor);
        warp.charge_instructions(GROUP_OVERHEAD_INSTR);
    }

    if out_cursor != block.uncompressed_len as u64 {
        return Err(GompressoError::OutputSizeMismatch {
            declared: block.uncompressed_len as u64,
            produced: out_cursor,
        });
    }

    // Pass 2 — execute. The sequential wide-copy walk revalidates the same
    // conditions pass 1 just proved (its per-sequence checks are O(1), the
    // copies dominate), so an error here is unreachable; `?` keeps it an
    // error rather than a panic should the two walks ever disagree.
    decompress_block_into(block, output)?;

    Ok(WarpDecompressOutcome { counters: warp.into_counters(), mrr })
}

/// Step (a): read sequences and compute per-lane cursors with two warp
/// prefix sums.
fn prepare_group(
    warp: &mut Warp,
    block: &SequenceBlock,
    group: &[Sequence],
    group_idx: usize,
    out_cursor: u64,
    literal_cursor: u64,
) -> Result<[LaneState; WARP_SIZE]> {
    let active = group.len();

    // Token reads from device memory: one sequence struct per lane.
    warp.global_read(SEQ_TOKEN_BYTES * active as u64, true);
    warp.charge_instructions(SEQ_PARSE_INSTR);

    // Prefix sum 1 locates each lane's literals in the token stream, prefix
    // sum 2 its output write offset. The warp charges both; `group_lanes`
    // computes the same offsets linearly.
    let mut literal_lens = [0u64; WARP_SIZE];
    let mut output_lens = [0u64; WARP_SIZE];
    for (lane, seq) in group.iter().enumerate() {
        literal_lens[lane] = u64::from(seq.literal_len);
        output_lens[lane] = u64::from(seq.literal_len) + u64::from(seq.match_len);
    }
    warp.exclusive_prefix_sum(&literal_lens);
    warp.exclusive_prefix_sum(&output_lens);

    group_lanes(block, group, group_idx, out_cursor, literal_cursor)
}

/// Lane states of one group of sequences starting at the given block
/// cursors, with the structural checks every lane must pass: the group's
/// literals exist, back-references have a non-zero offset inside the block,
/// and no lane writes past the declared block length.
fn group_lanes(
    block: &SequenceBlock,
    group: &[Sequence],
    group_idx: usize,
    out_cursor: u64,
    literal_cursor: u64,
) -> Result<[LaneState; WARP_SIZE]> {
    let literal_total: u64 = group.iter().map(|seq| u64::from(seq.literal_len)).sum();
    if literal_cursor + literal_total > block.literals.len() as u64 {
        return Err(GompressoError::Lz77(Lz77Error::LiteralOverrun {
            sequence: group_idx * WARP_SIZE,
            requested: (literal_cursor + literal_total) as usize,
            available: block.literals.len(),
        }));
    }

    let mut lanes = [LaneState::default(); WARP_SIZE];
    let mut out_start = out_cursor;
    for (lane, seq) in group.iter().enumerate() {
        let state = LaneState {
            literal_len: u64::from(seq.literal_len),
            match_len: u64::from(seq.match_len),
            match_offset: u64::from(seq.match_offset),
            out_start,
        };
        // Structural validation: back-references must stay inside the block.
        if state.match_len > 0 {
            if state.match_offset == 0 {
                return Err(GompressoError::Lz77(Lz77Error::ZeroOffset {
                    sequence: group_idx * WARP_SIZE + lane,
                }));
            }
            if state.match_offset > state.write_pos() {
                return Err(GompressoError::Lz77(Lz77Error::OffsetBeforeStart {
                    sequence: group_idx * WARP_SIZE + lane,
                    position: state.write_pos() as usize,
                    offset: state.match_offset as usize,
                }));
            }
        }
        if state.out_end() > block.uncompressed_len as u64 {
            return Err(GompressoError::OutputSizeMismatch {
                declared: block.uncompressed_len as u64,
                produced: state.out_end(),
            });
        }
        lanes[lane] = state;
        out_start = state.out_end();
    }
    Ok(lanes)
}

/// Moves the block cursors past one group's lanes.
fn advance_cursors(lanes: &[LaneState], out_cursor: &mut u64, literal_cursor: &mut u64) {
    *literal_cursor += lanes.iter().map(|l| l.literal_len).sum::<u64>();
    *out_cursor += lanes.iter().map(|l| l.literal_len + l.match_len).sum::<u64>();
}

/// Step (b): charge each lane's literal copy (the bytes move in pass 2).
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

/// The Dependency Elimination check of a warp walk under `validate_de`,
/// without the walk: groups the block's sequences 32 at a time exactly as
/// the warp does, applies the same structural lane checks, and fails with
/// [`GompressoError::DependencyEliminationViolated`] when a back-reference
/// reads bytes another lane's back-reference in its group writes. Host
/// decodes run this in front of sequence execution, so `validate_de` means
/// the same thing with and without the model.
pub(crate) fn check_de_block(block: &SequenceBlock, block_index: usize) -> Result<()> {
    let mut out_cursor = 0u64;
    let mut literal_cursor = 0u64;
    for (group_idx, group) in block.sequences.chunks(WARP_SIZE).enumerate() {
        let lanes = group_lanes(block, group, group_idx, out_cursor, literal_cursor)?;
        check_de_invariant(&lanes, group.len(), block_index)?;
        advance_cursors(&lanes[..group.len()], &mut out_cursor, &mut literal_cursor);
    }
    Ok(())
}

/// DE validation: no lane's back-reference may read bytes written by another
/// lane's back-reference in the same group.
fn check_de_invariant(lanes: &[LaneState; WARP_SIZE], active: usize, block_index: usize) -> Result<()> {
    for i in 0..active {
        let lane = &lanes[i];
        if lane.match_len == 0 {
            continue;
        }
        let read_start = lane.write_pos() - lane.match_offset;
        let read_end = read_start + lane.match_len;
        for (j, other) in lanes[..active].iter().enumerate() {
            if i == j || other.match_len == 0 {
                continue;
            }
            let other_start = other.write_pos();
            let other_end = other.out_end();
            if read_start < other_end && read_end > other_start {
                return Err(GompressoError::DependencyEliminationViolated { block: block_index });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gompresso_lz77::{decompress_block, Matcher, MatcherConfig};

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
        check_de_block(&block, 7).unwrap();
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
        // The host-side check, run without the walk, agrees.
        assert!(matches!(
            check_de_block(&block, 3),
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
        assert!(matches!(check_de_block(&bad, 0), Err(GompressoError::Lz77(Lz77Error::ZeroOffset { .. }))));

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
        assert!(matches!(
            check_de_block(&bad, 0),
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
        assert!(matches!(
            check_de_block(&bad, 0),
            Err(GompressoError::Lz77(Lz77Error::LiteralOverrun { .. }))
        ));

        // Declared length disagrees with sequences.
        let bad = SequenceBlock {
            sequences: vec![Sequence::literals_only(2)],
            literals: vec![b'a'; 2],
            uncompressed_len: 10,
        };
        assert!(matches!(
            run_warp(&bad, ResolutionStrategy::SequentialCopy, false, 0),
            Err(GompressoError::OutputSizeMismatch { .. })
        ));
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
