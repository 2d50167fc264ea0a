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
//! checksummed trailer survives, the exact offset of every frame is
//! computed from its block-size table, so each frame decodes independently
//! of any damage to its neighbours (even a destroyed frame-length varint).
//! When the trailer is gone too, the decoder falls back to a forward scan:
//! frames are parsed in sequence, and at the first damaged frame it slides
//! a resynchronization window byte-by-byte until some offset parses as a
//! frame whose payload decodes and whose content checksum verifies — a
//! candidate that survives all three checks is accepted as the next real
//! frame (an 8-byte XXH64 match on misaligned garbage is a ~2⁻⁶⁴ event).
//! Pre-v4 frames carry no checksum, so resynchronization accepts a
//! candidate on structure + decode alone and the report marks the weaker
//! evidence via [`RecoveryReport::checksummed`].

use crate::decompress::{
    decompress_block_into, plausible_output_ceiling, verify_block_checksum, DecompressorConfig,
};
use crate::{GompressoError, Result};
use gompresso_bitstream::{read_varint, varint_len, ByteReader};
use gompresso_format::stream_frame::{
    prelude_len, StreamPrelude, StreamTrailer, PRELUDE_HEAD_LEN, STREAM_FORMAT_VERSION, TRAILER_MAGIC,
};
use gompresso_format::{
    token_code::TokenCoder, BlockConfig, FileHeader, FormatError, BLOCK_CONFIG_LEN, MAGIC,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
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
    /// Whether the stream trailer verified, enabling exact frame offsets
    /// (`true` for the in-memory container, whose header plays that role).
    pub trailer_intact: bool,
    /// Whether recovered blocks were arbitrated by per-block content
    /// checksums (v4) or only by structure + decode success (legacy).
    pub checksummed: bool,
    /// Number of forward-scan resynchronizations performed (stream scan
    /// path only).
    pub resyncs: u64,
    /// Whether every lost region's output size is exact. `false` only on
    /// the stream scan path when the archive does not declare its totals —
    /// lost regions are then sized at one block each, which may undercount
    /// multi-block damage.
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

/// Salvages an in-memory container: recovers every block that decodes and
/// checksum-verifies, zero-fills the rest, and reports what happened.
///
/// Errors only when the header itself is unrecoverable (bad magic, fields
/// that no longer validate) — a damaged header checksum alone degrades to
/// `head_intact = false` and per-block checksums arbitrate from there.
pub fn decompress_salvage(bytes: &[u8], config: &DecompressorConfig) -> Result<(Vec<u8>, RecoveryReport)> {
    let mut r = ByteReader::new(bytes);
    let (header, head_checksum) = FileHeader::deserialize_lenient(&mut r).map_err(GompressoError::Format)?;
    let coder = TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size)?;
    if header.uncompressed_size > config.max_output_size {
        return Err(GompressoError::Format(FormatError::InvalidHeaderField {
            field: "uncompressed_size",
            value: header.uncompressed_size,
        }));
    }

    let mut report = RecoveryReport {
        head_intact: head_checksum.map(|(stored, computed)| stored == computed).unwrap_or(true),
        trailer_intact: true, // the container header carries the size table
        checksummed: !header.block_checksums.is_empty(),
        lost_sizes_exact: true,
        ..RecoveryReport::default()
    };

    let mut output = vec![0u8; header.uncompressed_size as usize];
    let mut in_at = r.position() as u64;
    let mut out_at = 0u64;
    for idx in 0..header.block_count() {
        let payload_len = u64::from(header.block_compressed_sizes[idx]);
        let out_len = header.block_uncompressed_size(idx);
        let input_range = (in_at, (in_at + payload_len).min(bytes.len() as u64));
        let output_range = (out_at, out_at + out_len);
        let dst = &mut output[out_at as usize..(out_at + out_len) as usize];
        let status = match bytes.get(in_at as usize..(in_at + payload_len) as usize) {
            None => BlockStatus::Lost(
                GompressoError::Format(FormatError::TruncatedBlock { block: idx }).in_block(idx as u64, None),
            ),
            Some(payload) => {
                match salvage_decode_container_block(config, &header, &coder, idx, payload, dst) {
                    Ok(()) => BlockStatus::Recovered,
                    Err(e) => {
                        dst.fill(0); // never emit a partial decode
                        BlockStatus::Lost(e.in_block(idx as u64, None))
                    }
                }
            }
        };
        report.push(BlockRecord { block: idx as u64, input_range, output_range, status });
        in_at += payload_len;
        out_at += out_len;
    }
    Ok((output, report))
}

/// Decodes one container block for salvage, applying the same plausibility
/// bound and checksum check the strict path uses.
fn salvage_decode_container_block(
    config: &DecompressorConfig,
    header: &FileHeader,
    coder: &TokenCoder,
    idx: usize,
    payload: &[u8],
    dst: &mut [u8],
) -> Result<()> {
    let block = header.block_config(idx);
    let declared = dst.len() as u64;
    if declared > plausible_output_ceiling(block.mode, payload.len() as u64, header.max_match_len) {
        return Err(GompressoError::Format(FormatError::InvalidHeaderField {
            field: "uncompressed_size",
            value: declared,
        }));
    }
    decompress_block_into(config, block, coder, idx, payload, dst)?;
    // Salvage always verifies, regardless of the caller's checksum policy:
    // the checksum is the evidence that the recovered bytes are original.
    verify_block_checksum(idx as u64, header.block_checksums.get(idx).copied(), dst)
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
    config: &'a DecompressorConfig,
    coder: TokenCoder,
    version: u8,
    block_size: usize,
    max_match_len: u32,
    legacy_uniform: Option<BlockConfig>,
    max_frame: u64,
}

impl<'a> StreamSalvage<'a> {
    /// Attempts to parse **and fully vet** the frame at `at`: structural
    /// parse, payload decode, and (v4) content-checksum verification. This
    /// is deliberately the strictest possible acceptance test, because the
    /// scan path uses it to arbitrate resynchronization candidates.
    fn try_frame(&self, at: u64) -> Result<SalvagedFrame> {
        let bytes = self
            .bytes
            .get(at as usize..)
            .ok_or(GompressoError::Format(FormatError::TruncatedBlock { block: 0 }))?;
        let mut r = ByteReader::new(bytes);
        let len = read_varint(&mut r).map_err(FormatError::Stream)?;
        if len == 0 || len > self.max_frame {
            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                field: "block_compressed_size",
                value: len,
            }));
        }
        let config = match self.legacy_uniform {
            Some(uniform) => uniform,
            None => BlockConfig::deserialize(&mut r).map_err(GompressoError::Format)?,
        };
        let checksum = if self.version == STREAM_FORMAT_VERSION {
            Some(r.read_u64_le().map_err(FormatError::Stream)?)
        } else {
            None
        };
        let payload = r
            .read_bytes(len as usize)
            .map_err(|_| GompressoError::Format(FormatError::TruncatedBlock { block: 0 }))?;
        let declared = match config.mode {
            gompresso_format::EncodingMode::Bit => {
                gompresso_format::BitBlock::peek_uncompressed_len(payload)?
            }
            gompresso_format::EncodingMode::Byte => {
                gompresso_format::ByteBlock::peek_uncompressed_len(payload)?
            }
        };
        if declared == 0 || declared > self.block_size as u64 {
            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                field: "block_uncompressed_size",
                value: declared,
            }));
        }
        if declared > plausible_output_ceiling(config.mode, payload.len() as u64, self.max_match_len) {
            return Err(GompressoError::Format(FormatError::InvalidHeaderField {
                field: "uncompressed_size",
                value: declared,
            }));
        }
        let mut out = vec![0u8; declared as usize];
        decompress_block_into(self.config, &config, &self.coder, 0, payload, &mut out)?;
        // Salvage always verifies: the checksum is the evidence that the
        // recovered bytes are the original bytes.
        verify_block_checksum(0, checksum, &out)?;
        Ok(SalvagedFrame { consumed: r.position() as u64, output: out })
    }

    /// Exact-offset salvage: the trailer's size table pins every frame's
    /// byte position, so each frame is vetted independently of its
    /// neighbours.
    fn salvage_with_trailer(
        &self,
        trailer: &StreamTrailer,
        frames_at: u64,
        out: &mut Vec<u8>,
        report: &mut RecoveryReport,
    ) {
        report.trailer_intact = true;
        let total = trailer.uncompressed_size;
        let n = trailer.block_compressed_sizes.len() as u64;
        let mut in_at = frames_at;
        let mut out_at = 0u64;
        for (idx, &payload_len) in trailer.block_compressed_sizes.iter().enumerate() {
            let frame_len =
                varint_len(u64::from(payload_len)) as u64 + self.frame_overhead() + u64::from(payload_len);
            // Every block but the last is exactly block_size; the last is
            // the remainder of the checksummed total.
            let out_len =
                if (idx as u64) + 1 == n { total.saturating_sub(out_at) } else { self.block_size as u64 };
            let input_range = (in_at, (in_at + frame_len).min(self.bytes.len() as u64));
            let output_range = (out_at, out_at + out_len);
            let status = match self.try_frame(in_at) {
                Ok(frame) if frame.output.len() as u64 == out_len && frame.consumed == frame_len => {
                    out.extend_from_slice(&frame.output);
                    BlockStatus::Recovered
                }
                Ok(frame) => {
                    // Decoded, but disagrees with the (checksummed) trailer
                    // geometry — treat as lost rather than emit bytes that
                    // contradict the stronger evidence.
                    out.resize(out.len() + out_len as usize, 0);
                    BlockStatus::Lost(
                        GompressoError::OutputSizeMismatch {
                            declared: out_len,
                            produced: frame.output.len() as u64,
                        }
                        .in_block(idx as u64, Some(in_at)),
                    )
                }
                Err(e) => {
                    out.resize(out.len() + out_len as usize, 0);
                    BlockStatus::Lost(e.in_block(idx as u64, Some(in_at)))
                }
            };
            report.push(BlockRecord { block: idx as u64, input_range, output_range, status });
            in_at += frame_len;
            out_at += out_len;
        }
    }

    /// Fixed per-frame overhead besides the varint length and the payload:
    /// the config record (v3+) and the content checksum (v4).
    fn frame_overhead(&self) -> u64 {
        let config = if self.legacy_uniform.is_some() { 0 } else { BLOCK_CONFIG_LEN as u64 };
        let checksum = if self.version == STREAM_FORMAT_VERSION { 8 } else { 0 };
        config + checksum
    }

    /// Forward-scan salvage: parse frames in sequence; at the first
    /// failure, slide byte-by-byte until a fully-vetted frame parses, and
    /// record the skipped span as a lost region.
    fn salvage_by_scan(
        &self,
        declared_total: Option<u64>,
        frames_at: u64,
        out: &mut Vec<u8>,
        report: &mut RecoveryReport,
    ) {
        let end = self.bytes.len() as u64;
        let mut cursor = frames_at;
        let mut record_idx = 0u64;
        let mut lost_spans: Vec<usize> = Vec::new(); // indices into report.blocks
        while cursor < end {
            if self.at_terminator(cursor) {
                break;
            }
            match self.try_frame(cursor) {
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
                    let gap_end = resume.unwrap_or(end);
                    // Size the hole: exact once the declared total is known
                    // (fixed up below); provisionally one block.
                    let out_at = out.len() as u64;
                    let hole = self.block_size as u64;
                    out.resize(out.len() + hole as usize, 0);
                    lost_spans.push(report.blocks.len());
                    report.push(BlockRecord {
                        block: record_idx,
                        input_range: (cursor, gap_end),
                        output_range: (out_at, out.len() as u64),
                        status: BlockStatus::Lost(first_error.in_block(record_idx, Some(cursor))),
                    });
                    match resume {
                        Some(at) => cursor = at,
                        None => break,
                    }
                }
            }
            record_idx += 1;
        }

        // With a declared total we can size the holes exactly when there is
        // a single lost region (the only case with a unique answer).
        match declared_total {
            Some(total) if lost_spans.len() == 1 => {
                let span = lost_spans[0];
                let recovered: u64 = report
                    .blocks
                    .iter()
                    .filter(|b| b.status.is_recovered())
                    .map(|b| b.output_range.1 - b.output_range.0)
                    .sum();
                let exact_hole = total.saturating_sub(recovered);
                let (hole_start, old_end) = report.blocks[span].output_range;
                let delta_new = exact_hole as i64 - (old_end - hole_start) as i64;
                // Rebuild the output with the corrected hole size.
                let tail = out.split_off(old_end as usize);
                out.truncate(hole_start as usize);
                out.resize(hole_start as usize + exact_hole as usize, 0);
                out.extend_from_slice(&tail);
                report.blocks[span].output_range = (hole_start, hole_start + exact_hole);
                for b in report.blocks[span + 1..].iter_mut() {
                    b.output_range.0 = (b.output_range.0 as i64 + delta_new) as u64;
                    b.output_range.1 = (b.output_range.1 as i64 + delta_new) as u64;
                }
                report.bytes_lost = exact_hole;
            }
            _ if lost_spans.is_empty() => {}
            Some(_) | None => {
                report.lost_sizes_exact = false;
            }
        }

        // A lost region that resolved to zero output bytes and runs to the
        // end of the input is just the damaged terminator/trailer — every
        // data byte was recovered, so don't report a phantom lost block.
        if let Some(last) = report.blocks.last() {
            if !last.status.is_recovered()
                && last.output_range.0 == last.output_range.1
                && last.input_range.1 == end
            {
                report.blocks.pop();
                report.blocks_lost -= 1;
            }
        }
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
        rest.is_empty() || StreamTrailer::deserialize(rest, self.version == STREAM_FORMAT_VERSION).is_ok()
    }
}

/// Locates and verifies the stream trailer from the tail of `bytes`.
fn locate_trailer(bytes: &[u8], checksummed: bool) -> Option<StreamTrailer> {
    if bytes.len() < 8 || bytes[bytes.len() - 4..] != TRAILER_MAGIC {
        return None;
    }
    let table_len = u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().ok()?) as usize;
    let start = bytes.len().checked_sub(8 + table_len)?;
    StreamTrailer::deserialize(&bytes[start..], checksummed).ok()
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

    /// In-memory core of [`StreamDecompressor::salvage`].
    pub fn salvage_bytes(&self, bytes: &[u8]) -> Result<(Vec<u8>, RecoveryReport)> {
        if bytes.len() < PRELUDE_HEAD_LEN || bytes[..4] != MAGIC {
            return Err(GompressoError::Format(FormatError::BadMagic));
        }
        let head_len = prelude_len(bytes[4]).map_err(GompressoError::Format)?;
        let prelude_bytes =
            bytes.get(..head_len).ok_or(GompressoError::Format(FormatError::TruncatedBlock { block: 0 }))?;
        let (prelude, head_intact) =
            StreamPrelude::deserialize_lenient(prelude_bytes).map_err(GompressoError::Format)?;
        let coder = TokenCoder::new(prelude.min_match_len, prelude.max_match_len, prelude.window_size)?;
        let checksummed = prelude.version == STREAM_FORMAT_VERSION;
        let ctx = StreamSalvage {
            bytes,
            config: self.config(),
            coder,
            version: prelude.version,
            block_size: prelude.block_size as usize,
            max_match_len: prelude.max_match_len,
            legacy_uniform: prelude.legacy_uniform,
            max_frame: 2 * prelude.block_size as u64 + 4096,
        };

        let mut report = RecoveryReport {
            head_intact,
            trailer_intact: false,
            checksummed,
            lost_sizes_exact: true,
            ..RecoveryReport::default()
        };
        let mut out = Vec::new();
        // Exact-offset salvage needs a trailer it can *trust*; only the v4
        // trailer is checksummed. A structurally-parseable legacy trailer
        // could be silently wrong and poison every frame offset, so legacy
        // streams always take the scan path.
        let trailer = if checksummed { locate_trailer(bytes, true) } else { None };
        match trailer {
            Some(trailer) => {
                ctx.salvage_with_trailer(&trailer, head_len as u64, &mut out, &mut report);
            }
            None => {
                ctx.salvage_by_scan(prelude.uncompressed_size, head_len as u64, &mut out, &mut report);
            }
        }
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
