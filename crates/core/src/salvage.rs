//! Best-effort decoding of damaged archives.
//!
//! The regular decompressors are strict: the first integrity failure —
//! checksum mismatch, framing inconsistency, undecodable payload — aborts
//! the run, because a caller that asked for *the* original bytes must never
//! silently receive something else. This module is the other half of the
//! integrity story: when an archive is known to be damaged, recover
//! everything that still proves itself.
//!
//! Both entry points share the same contract:
//!
//! * every block whose payload decodes **and** whose content checksum
//!   verifies is emitted byte-identically at its correct offset;
//! * every block that fails any check is zero-filled (never partially
//!   emitted) and reported as lost, with the byte ranges involved and the
//!   error that killed it;
//! * the returned [`RecoveryReport`] is the authoritative record — salvage
//!   itself only errors when nothing recoverable remains (the head of the
//!   archive is unparseable).
//!
//! For streams, frame offsets are recovered on two paths. When the
//! checksummed trailer survives and passes the same geometry check as the
//! range reader (the block count fits the total, and the frames, the
//! terminator and the trailer tile the input), and no frame's slot exceeds
//! what its payload could plausibly expand to, the exact offset of every
//! frame is computed from its block-size table, so each frame decodes
//! independently of any damage to its neighbours (even a destroyed
//! frame-length varint). That path and the container path are one loop
//! over slots. Otherwise the decoder falls back to a forward scan:
//! frames are parsed in sequence, and at the first damaged frame it slides
//! a resynchronization window byte-by-byte until some offset parses as a
//! frame whose payload decodes and whose content checksum verifies — a
//! candidate that survives all three checks is accepted as the next real
//! frame (an 8-byte XXH64 match on misaligned garbage is a ~2⁻⁶⁴ event).
//! Pre-v4 frames carry no checksum, so resynchronization accepts a
//! candidate on structure + decode alone and the report marks the weaker
//! evidence via [`RecoveryReport::checksummed`].
//!
//! No output is sized from a number the strict readers would reject: a
//! container block's slot must be plausible for its payload before the
//! output is allocated, and a scanned hole never exceeds what its gap in
//! the input could plausibly expand to — except that a gap running to the
//! end of the input may take the prelude's declared total, the only record
//! of a truncated stream's size. No salvage output exceeds
//! [`DecompressorConfig::max_output_size`].

use crate::archive::locate_stream_frames;
use crate::decompress::{
    admit_block, decompress_block_checked, plausible_output_ceiling, DecompressorConfig, Slot,
};
use crate::error::invalid_field;
use crate::stream::read_prelude;
use crate::{GompressoError, Result};
use gompresso_bitstream::{read_varint, ByteReader};
use gompresso_format::stream_frame::{StreamPrelude, StreamTrailer};
use gompresso_format::{
    parse_stream_frame_head, token_code::TokenCoder, BlockConfig, EncodingMode, FileHeader, FormatError,
    FrameLayout,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Cursor, Read, Write};
use std::path::Path;

/// What happened to one block (or unrecoverable region) during salvage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockStatus {
    /// The block decoded and (when the archive carries checksums) its
    /// content checksum verified; its output bytes are exact.
    Recovered,
    /// The block could not be recovered; its output range is zero-filled.
    /// Carries the first error that disqualified it.
    Lost(GompressoError),
}

impl BlockStatus {
    /// Whether this record represents recovered (exact) bytes.
    pub fn is_recovered(&self) -> bool {
        matches!(self, BlockStatus::Recovered)
    }
}

/// One entry of a [`RecoveryReport`]: a block (exact-offset path) or a
/// contiguous damaged region (scan path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Block index. On the exact-offset paths this is the real container
    /// index; on the stream scan path it is the ordinal of the record
    /// (lost regions may span more than one original block).
    pub block: u64,
    /// Byte range `[start, end)` of the block's frame (or of the damaged
    /// region) in the compressed input.
    pub input_range: (u64, u64),
    /// Byte range `[start, end)` the record occupies in the salvaged
    /// output. Zero-filled when the block was lost.
    pub output_range: (u64, u64),
    /// Outcome for this record.
    pub status: BlockStatus,
}

/// The authoritative account of a salvage run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Per-block (or per-region) outcomes, in output order.
    pub blocks: Vec<BlockRecord>,
    /// Number of records with [`BlockStatus::Recovered`].
    pub blocks_recovered: u64,
    /// Number of records with [`BlockStatus::Lost`].
    pub blocks_lost: u64,
    /// Output bytes recovered exactly.
    pub bytes_recovered: u64,
    /// Output bytes zero-filled in place of unrecoverable data.
    pub bytes_lost: u64,
    /// Whether the archive head's own checksum verified (v4 header /
    /// stream prelude; `true` for legacy archives, which carry none).
    pub head_intact: bool,
    /// Whether the stream trailer is intact: a v4 trailer verified and its
    /// geometry held, enabling exact frame offsets; a legacy v2/v3 trailer
    /// (which carries no checksum) agrees with a clean forward scan — every
    /// frame's offset and size, and the total. `true` for the in-memory
    /// container, whose header plays that role.
    pub trailer_intact: bool,
    /// Whether recovered blocks were arbitrated by per-block content
    /// checksums (v4) or only by structure + decode success (legacy).
    pub checksummed: bool,
    /// Number of forward-scan resynchronizations performed (stream scan
    /// path only).
    pub resyncs: u64,
    /// Whether every lost region's output size is exact. `false` only on
    /// the stream scan path when no usable declared total sizes a single
    /// lost region: the prelude declares none, it exceeds
    /// [`DecompressorConfig::max_output_size`], there is more than one lost
    /// region, or it would give a mid-stream region more output than its
    /// gap could plausibly expand to. Lost regions are then sized at one
    /// block each at most, which may undercount multi-block damage.
    pub lost_sizes_exact: bool,
}

impl RecoveryReport {
    /// Whether the archive was fully recovered (no lost blocks or bytes).
    pub fn is_complete(&self) -> bool {
        self.blocks_lost == 0 && self.bytes_lost == 0
    }

    fn push(&mut self, record: BlockRecord) {
        match &record.status {
            BlockStatus::Recovered => {
                self.blocks_recovered += 1;
                self.bytes_recovered += record.output_range.1 - record.output_range.0;
            }
            BlockStatus::Lost(_) => {
                self.blocks_lost += 1;
                self.bytes_lost += record.output_range.1 - record.output_range.0;
            }
        }
        self.blocks.push(record);
    }
}

/// Salvage always verifies content checksums, whatever the caller's policy:
/// the checksum is the evidence that recovered bytes are the original bytes.
fn verifying(config: &DecompressorConfig) -> DecompressorConfig {
    DecompressorConfig { verify_checksums: true, ..config.clone() }
}

/// One block of an exact-offset salvage: where its bytes sit and the output
/// size the archive's own tables assign it.
struct ExactSlot<'a> {
    /// The block's slot in the output (from the header or the trailer).
    out_len: u64,
    /// Byte range of the container payload or stream frame in the input.
    input_range: (u64, u64),
    /// Frame offset for the error context of stream blocks; `None` for
    /// container blocks.
    offset: Option<u64>,
    /// The payload, its config and its stored checksum, or why they could
    /// not be read.
    block: Result<(&'a [u8], BlockConfig, Option<u64>)>,
}

/// The exact-offset loop shared by container salvage and trusted-trailer
/// stream salvage: every slot is admitted, decoded and checksum-verified on
/// its own, and zero-filled and reported lost when anything fails. `total`
/// is the sum of the slots; `config` comes from [`verifying`].
fn salvage_slots<'a>(
    config: &DecompressorConfig,
    coder: &TokenCoder,
    max_match_len: u32,
    total: u64,
    slots: impl IntoIterator<Item = ExactSlot<'a>>,
    report: &mut RecoveryReport,
) -> Vec<u8> {
    let mut output = vec![0u8; total as usize];
    let mut out_at = 0u64;
    for (idx, slot) in slots.into_iter().enumerate() {
        let output_range = (out_at, out_at + slot.out_len);
        let dst = &mut output[out_at as usize..output_range.1 as usize];
        let decoded = slot.block.and_then(|(payload, block, checksum)| {
            admit_block(block.mode, payload, Slot::Exact(slot.out_len), max_match_len)?;
            decompress_block_checked(config, &block, coder, idx, payload, checksum, dst)
        });
        let status = match decoded {
            Ok(()) => BlockStatus::Recovered,
            Err(e) => {
                dst.fill(0); // never emit a partial decode
                BlockStatus::Lost(e.in_block(idx as u64, slot.offset))
            }
        };
        report.push(BlockRecord { block: idx as u64, input_range: slot.input_range, output_range, status });
        out_at = output_range.1;
    }
    output
}

/// Salvages an in-memory container: recovers every block that decodes and
/// checksum-verifies, zero-fills the rest, and reports what happened.
///
/// Errors when the header itself is unrecoverable (bad magic, fields that
/// no longer validate), and — before anything is allocated — when a block
/// whose payload is present is assigned more output than that payload
/// could plausibly expand to, with the error strict decoding returns. A
/// damaged header checksum alone degrades to `head_intact = false` and
/// per-block checksums arbitrate from there; a block whose payload is cut
/// off by truncation is zero-filled.
pub fn decompress_salvage(bytes: &[u8], config: &DecompressorConfig) -> Result<(Vec<u8>, RecoveryReport)> {
    let mut r = ByteReader::new(bytes);
    let (header, head_checksum) = FileHeader::deserialize_lenient(&mut r)?;
    let coder = TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size)?;
    if header.uncompressed_size > config.max_output_size {
        return Err(invalid_field("uncompressed_size", header.uncompressed_size));
    }

    let mut slots = Vec::with_capacity(header.block_count());
    let mut in_at = r.position() as u64;
    for idx in 0..header.block_count() {
        let payload_len = u64::from(header.block_compressed_sizes[idx]);
        let out_len = header.block_uncompressed_size(idx);
        let mode = header.block_config(idx).mode;
        let block = match bytes.get(in_at as usize..(in_at + payload_len) as usize) {
            Some(payload) => {
                // A slot beyond the payload's plausible expansion is a
                // header lie, not payload damage: admission then always
                // fails, with the error strict decoding returns.
                if out_len > plausible_output_ceiling(mode, payload_len, header.max_match_len) {
                    admit_block(mode, payload, Slot::Exact(out_len), header.max_match_len)?;
                }
                Ok((payload, *header.block_config(idx), header.block_checksums.get(idx).copied()))
            }
            None => Err(GompressoError::Format(FormatError::TruncatedBlock { block: idx })),
        };
        let input_range = (in_at, (in_at + payload_len).min(bytes.len() as u64));
        slots.push(ExactSlot { out_len, input_range, offset: None, block });
        in_at += payload_len;
    }

    let mut report = RecoveryReport {
        head_intact: head_checksum.map(|(stored, computed)| stored == computed).unwrap_or(true),
        trailer_intact: true, // the container header carries the size table
        checksummed: !header.block_checksums.is_empty(),
        lost_sizes_exact: true,
        ..RecoveryReport::default()
    };
    let output = salvage_slots(
        &verifying(config),
        &coder,
        header.max_match_len,
        header.uncompressed_size,
        slots,
        &mut report,
    );
    Ok((output, report))
}

/// One frame successfully parsed and decoded during stream salvage.
struct SalvagedFrame {
    /// Bytes of the whole frame (varint + config + checksum + payload).
    consumed: u64,
    /// The decoded output bytes.
    output: Vec<u8>,
}

/// Internal stream-salvage context: the whole input plus the parsed head.
struct StreamSalvage<'a> {
    bytes: &'a [u8],
    prelude: &'a StreamPrelude,
    /// The caller's configuration with checksum verification forced on.
    config: DecompressorConfig,
    coder: TokenCoder,
    /// Offset of the first frame (the prelude length).
    frames_at: u64,
}

impl<'a> StreamSalvage<'a> {
    /// The larger of the two modes' plausibility ceilings for `len` input
    /// bytes: the bound to apply when a frame's own config cannot be
    /// trusted, or no frame can be parsed at all.
    fn ceiling(&self, len: u64) -> u64 {
        let ceiling = |mode| plausible_output_ceiling(mode, len, self.prelude.max_match_len);
        ceiling(EncodingMode::Bit).max(ceiling(EncodingMode::Byte))
    }

    /// The trusted stream geometry, read from the input's tail.
    fn geometry(&self) -> Result<(StreamTrailer, Vec<FrameLayout>)> {
        locate_stream_frames(
            &mut Cursor::new(self.bytes),
            self.bytes.len() as u64,
            self.prelude,
            self.frames_at,
        )
    }

    /// The trailer and frame layout, when salvage may place frames by them:
    /// a checksummed (v4) trailer that passes the range reader's geometry
    /// check, a total within the output budget, and no frame whose slot
    /// exceeds what its payload could plausibly expand to under either
    /// mode (the frame's own config may be the damaged part). The prelude
    /// totals are not consulted: they sit outside the prelude checksum.
    fn trusted_geometry(&self) -> Option<(StreamTrailer, Vec<FrameLayout>)> {
        if !self.prelude.checksummed() {
            return None;
        }
        let (trailer, layouts) = self.geometry().ok()?;
        let plausible = trailer.uncompressed_size <= self.config.max_output_size
            && layouts.iter().all(|l| l.uncompressed_size <= self.ceiling(u64::from(l.payload_len)));
        plausible.then_some((trailer, layouts))
    }

    /// The exact-offset slot of one frame placed by the trusted geometry
    /// (which tiles the input, so the frame is in bounds).
    fn exact_slot(&self, layout: &FrameLayout) -> ExactSlot<'a> {
        let frame = &self.bytes[layout.frame_offset as usize..layout.end() as usize];
        let block = parse_stream_frame_head(frame, self.prelude, layout)
            .map(|(config, checksum)| (&frame[layout.head_len..], config, checksum))
            .map_err(GompressoError::Format);
        ExactSlot {
            out_len: layout.uncompressed_size,
            input_range: (layout.frame_offset, layout.end()),
            offset: Some(layout.frame_offset),
            block,
        }
    }

    /// Attempts to parse **and fully vet** the frame at `at`: structural
    /// parse, admission, payload decode, and (v4) content-checksum
    /// verification. This is deliberately the strictest possible acceptance
    /// test, because the scan path uses it to arbitrate resynchronization
    /// candidates.
    fn try_frame(&self, at: u64) -> Result<SalvagedFrame> {
        let mut r = ByteReader::new(self.bytes.get(at as usize..).unwrap_or_default());
        let len = read_varint(&mut r).map_err(FormatError::Stream)?;
        if len == 0 || len > self.prelude.max_payload_len() {
            return Err(invalid_field("block_compressed_size", len));
        }
        let (config, checksum) = self.prelude.parse_frame_head(&mut r)?;
        let payload = r
            .read_bytes(len as usize)
            .map_err(|_| GompressoError::Format(FormatError::TruncatedBlock { block: 0 }))?;
        let slot = Slot::UpTo(u64::from(self.prelude.block_size));
        let declared = admit_block(config.mode, payload, slot, self.prelude.max_match_len)?;
        let mut output = vec![0u8; declared as usize];
        decompress_block_checked(&self.config, &config, &self.coder, 0, payload, checksum, &mut output)?;
        Ok(SalvagedFrame { consumed: r.position() as u64, output })
    }

    /// Appends lost record `block`, failed with `e`, covering the input
    /// `gap`: provisionally one block of output, but never more than the
    /// gap could plausibly expand to, nor past the output budget.
    fn push_hole(
        &self,
        out: &mut Vec<u8>,
        report: &mut RecoveryReport,
        block: u64,
        gap: (u64, u64),
        e: GompressoError,
    ) {
        let budget = self.config.max_output_size.saturating_sub(out.len() as u64);
        let hole = u64::from(self.prelude.block_size).min(self.ceiling(gap.1 - gap.0)).min(budget);
        let out_at = out.len() as u64;
        out.resize(out.len() + hole as usize, 0);
        report.push(BlockRecord {
            block,
            input_range: gap,
            output_range: (out_at, out.len() as u64),
            status: BlockStatus::Lost(e.in_block(block, Some(gap.0))),
        });
    }

    /// Forward-scan salvage: parse frames in sequence; at the first
    /// failure, slide byte-by-byte until a fully-vetted frame parses, and
    /// record the skipped span as a lost region. Frames that end cleanly
    /// at the end of the input, short of the declared total, leave a
    /// missing tail, reported as one lost region at the end of the input.
    fn salvage_by_scan(&self, report: &mut RecoveryReport) -> Vec<u8> {
        let end = self.bytes.len() as u64;
        let budget = self.config.max_output_size;
        let mut out = Vec::new();
        let mut cursor = self.frames_at;
        let mut record_idx = 0u64;
        while cursor < end {
            if self.at_terminator(cursor) {
                break;
            }
            match self.try_frame(cursor) {
                Ok(frame) if (out.len() + frame.output.len()) as u64 > budget => {
                    // The output budget is spent: the rest of the input is
                    // one lost region.
                    let e = invalid_field("uncompressed_size", (out.len() + frame.output.len()) as u64);
                    self.push_hole(&mut out, report, record_idx, (cursor, end), e);
                    break;
                }
                Ok(frame) => {
                    let out_at = out.len() as u64;
                    out.extend_from_slice(&frame.output);
                    report.push(BlockRecord {
                        block: record_idx,
                        input_range: (cursor, cursor + frame.consumed),
                        output_range: (out_at, out.len() as u64),
                        status: BlockStatus::Recovered,
                    });
                    cursor += frame.consumed;
                }
                Err(first_error) => {
                    // Resynchronize: accept the next offset whose frame
                    // survives parse + decode + checksum.
                    report.resyncs += 1;
                    let mut next = cursor + 1;
                    let resume = loop {
                        if next >= end || self.at_terminator(next) {
                            break None;
                        }
                        if self.try_frame(next).is_ok() {
                            break Some(next);
                        }
                        next += 1;
                    };
                    // A zero byte can never start a frame; if the scan
                    // stopped on one and found nothing decodable after it,
                    // this is the terminator with a damaged trailer behind
                    // it — end of data, not a lost block.
                    if resume.is_none() && self.bytes.get(cursor as usize) == Some(&0) {
                        break;
                    }
                    let gap = (cursor, resume.unwrap_or(end));
                    self.push_hole(&mut out, report, record_idx, gap, first_error);
                    match resume {
                        Some(at) => cursor = at,
                        None => break,
                    }
                }
            }
            record_idx += 1;
        }

        // The prelude total sits outside the prelude checksum: use it only
        // within the output budget.
        let declared_total = self.prelude.uncompressed_size.filter(|&total| total <= budget);
        if cursor >= end && declared_total.is_some_and(|total| report.bytes_recovered < total) {
            let missing = GompressoError::Format(FormatError::TruncatedBlock { block: record_idx as usize });
            self.push_hole(&mut out, report, record_idx, (end, end), missing);
        }

        // A declared total sizes a hole exactly when there is a single lost
        // region (the only case with a unique answer), as long as the hole
        // stays within what its gap could plausibly expand to — unless the
        // gap runs to the end of the input, where the total is the only
        // record of a truncated stream's size.
        let mut lost =
            report.blocks.iter().enumerate().filter(|(_, b)| !b.status.is_recovered()).map(|(i, _)| i);
        match (lost.next(), lost.next(), declared_total) {
            (None, ..) => {}
            (Some(span), None, Some(total)) => {
                let gap = report.blocks[span].input_range;
                let fits = |hole: &u64| gap.1 == end || *hole <= self.ceiling(gap.1 - gap.0);
                match total.checked_sub(report.bytes_recovered).filter(fits) {
                    Some(hole) => {
                        resize_hole(&mut out, report, span, hole);
                        // A region at the end of the input that resolves
                        // to no output is just the damaged terminator or
                        // trailer: every data byte was recovered, so it is
                        // no lost block.
                        if hole == 0 && gap.1 == end {
                            report.blocks.pop();
                            report.blocks_lost -= 1;
                        }
                    }
                    None => report.lost_sizes_exact = false,
                }
            }
            _ => report.lost_sizes_exact = false,
        }
        out
    }

    /// Whether a clean scan's frames agree with the trailer: it locates
    /// through the trusted stream geometry, and every frame's offset, size
    /// and slot, and the total, match what the scan recovered. For a legacy
    /// trailer, which carries no checksum, this is the evidence that it is
    /// intact.
    fn trailer_agrees_with_scan(&self, out: &[u8], report: &RecoveryReport) -> bool {
        if report.blocks_lost > 0 || report.resyncs > 0 {
            return false;
        }
        let Ok((trailer, layouts)) = self.geometry() else { return false };
        trailer.uncompressed_size == out.len() as u64
            && layouts.len() == report.blocks.len()
            && layouts.iter().zip(&report.blocks).all(|(l, b)| {
                b.input_range == (l.frame_offset, l.end())
                    && b.output_range.1 - b.output_range.0 == l.uncompressed_size
            })
    }

    /// Whether `at` points at a *confirmed* end of stream: the zero-length
    /// terminator frame followed by a parseable trailer (or by nothing, for
    /// a stream truncated right after the terminator). A lone zero byte in
    /// a damaged region is NOT a terminator — frames never start with 0
    /// (their length varint is nonzero), but corrupt gaps are full of
    /// zeros, and stopping on one would abandon every good frame after it.
    fn at_terminator(&self, at: u64) -> bool {
        if self.bytes.get(at as usize) != Some(&0) {
            return false;
        }
        let rest = &self.bytes[at as usize + 1..];
        rest.is_empty() || StreamTrailer::deserialize(rest, self.prelude.checksummed()).is_ok()
    }
}

/// Resizes the lost region `span` of a scan to `hole` output bytes,
/// shifting every later record.
fn resize_hole(out: &mut Vec<u8>, report: &mut RecoveryReport, span: usize, hole: u64) {
    let (hole_start, old_end) = report.blocks[span].output_range;
    let tail = out.split_off(old_end as usize);
    out.truncate(hole_start as usize);
    out.resize((hole_start + hole) as usize, 0);
    out.extend_from_slice(&tail);
    let new_end = hole_start + hole;
    report.blocks[span].output_range = (hole_start, new_end);
    for b in report.blocks[span + 1..].iter_mut() {
        b.output_range = (b.output_range.0 - old_end + new_end, b.output_range.1 - old_end + new_end);
    }
    report.bytes_lost = hole;
}

impl crate::stream::StreamDecompressor {
    /// Best-effort decode of a damaged streaming archive: reads the whole
    /// input (salvage needs random access for trailer location and
    /// resynchronization), writes every recoverable block — zero-filling
    /// unrecoverable regions — and returns the [`RecoveryReport`].
    ///
    /// Errors only when the prelude is unrecoverable (wrong magic, fields
    /// that no longer validate) or on sink I/O failure; all per-block
    /// damage is reported, not raised.
    pub fn salvage<R: Read, W: Write>(&self, mut reader: R, mut writer: W) -> Result<RecoveryReport> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let (out, report) = self.salvage_bytes(&bytes)?;
        writer.write_all(&out)?;
        writer.flush()?;
        Ok(report)
    }

    /// In-memory core of [`StreamDecompressor::salvage`](Self::salvage).
    pub fn salvage_bytes(&self, bytes: &[u8]) -> Result<(Vec<u8>, RecoveryReport)> {
        let ((prelude, head_intact), frames_at) =
            read_prelude(&mut &bytes[..], StreamPrelude::deserialize_lenient)?;
        let ctx = StreamSalvage {
            bytes,
            prelude: &prelude,
            config: verifying(self.config()),
            coder: TokenCoder::new(prelude.min_match_len, prelude.max_match_len, prelude.window_size)?,
            frames_at,
        };
        let mut report = RecoveryReport {
            head_intact,
            checksummed: prelude.checksummed(),
            lost_sizes_exact: true,
            ..RecoveryReport::default()
        };
        let out = match ctx.trusted_geometry() {
            Some((trailer, layouts)) => {
                report.trailer_intact = true;
                let slots = layouts.iter().map(|layout| ctx.exact_slot(layout));
                let total = trailer.uncompressed_size;
                salvage_slots(&ctx.config, &ctx.coder, prelude.max_match_len, total, slots, &mut report)
            }
            None => {
                let out = ctx.salvage_by_scan(&mut report);
                report.trailer_intact = ctx.trailer_agrees_with_scan(&out, &report);
                out
            }
        };
        Ok((out, report))
    }
}

/// Salvages the streaming archive at `input` into `output`, returning the
/// recovery report. The streaming counterpart of
/// [`crate::stream::decompress_file`] for damaged archives.
pub fn salvage_file(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    config: &DecompressorConfig,
) -> Result<RecoveryReport> {
    let mut reader = BufReader::new(File::open(input)?);
    let writer = BufWriter::new(File::create(output)?);
    crate::stream::StreamDecompressor::new(config.clone()).salvage(&mut reader, writer)
}
