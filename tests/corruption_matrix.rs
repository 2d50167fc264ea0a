//! The corruption test matrix: every damage class the integrity layer
//! claims to handle, driven against both archive formats.
//!
//! The decoder contract under test is absolute: for ANY single-bit flip in
//! a v4 archive, strict decompression either returns an error or returns
//! bytes identical to the original input — never silently-wrong output.
//! On top of that, salvage must recover every block the damage did not
//! touch, byte-exactly.
//!
//! The matrix is exhaustive where it can afford to be (every bit of a
//! small multi-block archive) and seeded-random where it cannot
//! ([`FaultPlan::random_flips`]); both are fully deterministic.

use gompresso::substrate::bitstream::{write_varint, ByteWriter};
use gompresso::substrate::format::stream_frame::{
    StreamPrelude, StreamTrailer, PRELUDE_LEN, UNCOMPRESSED_SIZE_OFFSET,
};
use gompresso::substrate::format::{BlockPayload, FileHeader};
use gompresso::{
    compress, decompress, decompress_salvage, ArchiveReader, BlockConfig, CompressedFile, CompressorConfig,
    DecompressorConfig, EncodingMode, FaultPlan, FaultReader, GompressoError, RecoveryReport,
    StreamCompressor, StreamDecompressor,
};
use std::io::Cursor;
use std::path::Path;

/// Four-and-a-bit blocks of mildly compressible data: big enough that
/// per-block effects are distinguishable, small enough that the exhaustive
/// bit-flip sweep stays fast.
fn test_input() -> Vec<u8> {
    text_input(2200)
}

/// `len` bytes of the same mildly compressible text.
fn text_input(len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len);
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    while data.len() < len {
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog -- ");
        // A sprinkle of deterministic noise so blocks aren't identical.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data.push((x & 0xFF) as u8);
    }
    data.truncate(len);
    data
}

fn small_block_config() -> CompressorConfig {
    let mut c = CompressorConfig::bit_de();
    c.block_size = 512;
    c.sequences_per_sub_block = 4;
    c
}

fn container_archive(data: &[u8]) -> Vec<u8> {
    compress(data, &small_block_config()).unwrap().file.serialize()
}

/// Stream archive via the seekable path, so the prelude carries the
/// back-patched totals (the richest framing to attack).
fn stream_archive(data: &[u8]) -> Vec<u8> {
    let compressor = StreamCompressor::new(small_block_config()).unwrap();
    let mut cursor = Cursor::new(Vec::new());
    compressor.compress_seekable(data, &mut cursor).unwrap();
    cursor.into_inner()
}

fn container_decode(bytes: &[u8]) -> Result<Vec<u8>, GompressoError> {
    let file = CompressedFile::deserialize(bytes).map_err(GompressoError::Format)?;
    decompress(&file).map(|(out, _)| out)
}

fn stream_decode(bytes: &[u8]) -> Result<Vec<u8>, GompressoError> {
    let mut out = Vec::new();
    StreamDecompressor::new(DecompressorConfig::default()).decompress(bytes, &mut out).map(|_| out)
}

/// Byte offset where the container's block payloads start (everything
/// before it is header).
fn container_header_len(archive: &[u8]) -> usize {
    let file = CompressedFile::deserialize(archive).unwrap();
    archive.len() - file.header.block_compressed_sizes.iter().map(|&s| s as usize).sum::<usize>()
}

// ---------------------------------------------------------------------------
// Exhaustive single-bit-flip sweeps: detected, or byte-identical. Never
// silently wrong.
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_bit_flips_on_container_are_never_silently_wrong() {
    let data = test_input();
    let archive = container_archive(&data);
    let header_len = container_header_len(&archive);
    let mut detected = 0u64;
    let mut benign = 0u64;
    for offset in 0..archive.len() {
        for bit in 0..8 {
            let damaged = FaultPlan::clean().flip(offset as u64, bit).apply_to(&archive);
            match container_decode(&damaged) {
                Err(_) => detected += 1,
                Ok(out) => {
                    assert_eq!(
                        out, data,
                        "SILENT CORRUPTION: flip of bit {bit} at byte {offset} decoded without \
                         error to different bytes"
                    );
                    benign += 1;
                }
            }
            // Salvage over a payload-region flip must hand back every
            // untouched block byte-exactly.
            if offset >= header_len {
                assert_salvaged_blocks_match_container(&damaged, &data, offset as u64);
            }
        }
    }
    assert!(detected > 0, "the sweep never tripped a check — matrix is not exercising detection");
    // Benign flips do exist: the unused padding bits at the tail of each
    // sub-block's Huffman bitstream don't participate in decoding, so
    // flipping them changes nothing. The contract only demands that such
    // flips yield byte-identical output — which the match above asserted.
    assert!(benign < detected / 10, "suspiciously many benign flips ({benign} vs {detected} detected)");
}

#[test]
fn exhaustive_bit_flips_on_stream_are_never_silently_wrong() {
    let data = test_input();
    let archive = stream_archive(&data);
    let prelude_len = gompresso::substrate::format::stream_frame::PRELUDE_LEN;
    let mut detected = 0u64;
    for offset in 0..archive.len() {
        for bit in 0..8 {
            let damaged = FaultPlan::clean().flip(offset as u64, bit).apply_to(&archive);
            match stream_decode(&damaged) {
                Err(_) => detected += 1,
                Ok(out) => {
                    assert_eq!(
                        out, data,
                        "SILENT CORRUPTION: flip of bit {bit} at byte {offset} decoded without \
                         error to different bytes"
                    );
                }
            }
            if offset >= prelude_len {
                assert_salvaged_blocks_match_stream(&damaged, &data, offset as u64);
            }
        }
    }
    assert!(detected > 0, "the sweep never tripped a check — matrix is not exercising detection");
}

/// After a single payload-region flip, container salvage must report every
/// block whose input range excludes the flip as recovered, byte-exactly.
fn assert_salvaged_blocks_match_container(damaged: &[u8], data: &[u8], flip_at: u64) {
    let (out, report) = decompress_salvage(damaged, &DecompressorConfig::default())
        .unwrap_or_else(|e| panic!("container salvage refused a payload flip at {flip_at}: {e}"));
    for record in &report.blocks {
        let touched = flip_at >= record.input_range.0 && flip_at < record.input_range.1;
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        if record.status.is_recovered() {
            assert_eq!(
                &out[s..e],
                &data[s..e],
                "recovered block {} differs (flip at {flip_at})",
                record.block
            );
        } else {
            assert!(touched, "block {} lost but the flip at {flip_at} is outside it", record.block);
            assert!(out[s..e].iter().all(|&b| b == 0), "lost block {} not zero-filled", record.block);
        }
    }
}

/// After a single post-prelude flip, stream salvage must recover every
/// frame the flip did not touch (trailer flips drop to the scan path and
/// still recover everything).
fn assert_salvaged_blocks_match_stream(damaged: &[u8], data: &[u8], flip_at: u64) {
    let (out, report) = StreamDecompressor::new(DecompressorConfig::default())
        .salvage_bytes(damaged)
        .unwrap_or_else(|e| panic!("stream salvage refused a post-prelude flip at {flip_at}: {e}"));
    for record in &report.blocks {
        let touched = flip_at >= record.input_range.0 && flip_at < record.input_range.1;
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        if record.status.is_recovered() {
            assert_eq!(
                &out[s..e],
                &data[s..e],
                "recovered block {} differs (flip at {flip_at})",
                record.block
            );
        } else {
            assert!(touched, "block {} lost but the flip at {flip_at} is outside it", record.block);
        }
    }
    assert!(
        report.blocks.iter().filter(|b| !b.status.is_recovered()).count() <= 1,
        "one flip at {flip_at} must cost at most one block"
    );
}

// ---------------------------------------------------------------------------
// Salvage semantics on specific damage shapes.
// ---------------------------------------------------------------------------

#[test]
fn salvage_of_intact_archives_is_complete_and_identical() {
    let data = test_input();

    let archive = container_archive(&data);
    let (out, report) = decompress_salvage(&archive, &DecompressorConfig::default()).unwrap();
    assert_eq!(out, data);
    assert!(report.is_complete());
    assert!(report.head_intact && report.trailer_intact && report.checksummed);
    assert_eq!(report.bytes_recovered, data.len() as u64);

    let stream = stream_archive(&data);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&stream).unwrap();
    assert_eq!(out, data);
    assert!(report.is_complete());
    assert!(report.head_intact && report.trailer_intact && report.checksummed);
    assert_eq!(report.resyncs, 0, "intact stream must take the exact-offset path");
}

#[test]
fn stream_salvage_without_trailer_resynchronizes_by_scanning() {
    let data = test_input();
    let stream = stream_archive(&data);
    // Kill the trailer magic AND a mid-stream frame: salvage loses both
    // the exact-offset path and one block, and must scan its way back.
    let mid = (stream.len() / 2) as u64;
    let damaged = FaultPlan::clean().flip(mid, 2).flip(stream.len() as u64 - 2, 0).apply_to(&stream);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(!report.trailer_intact, "trailer magic flip must disable the exact-offset path");
    assert!(report.resyncs >= 1, "a damaged frame without a trailer must force a resync");
    assert_eq!(report.blocks_lost, 1, "one flip must cost exactly one region");
    assert!(report.lost_sizes_exact, "with prelude totals the single gap is exactly sized");
    assert_eq!(out.len(), data.len(), "output length must be reconstructed exactly");
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &data[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn stream_salvage_recovers_prefix_of_truncated_archive() {
    let data = test_input();
    let stream = stream_archive(&data);
    // Cut the stream at 60%: the trailer is gone; every complete frame
    // before the cut must still come back.
    let cut = stream.len() * 6 / 10;
    let damaged = FaultPlan::clean().truncate(cut as u64).apply_to(&stream);
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(!report.trailer_intact);
    assert!(report.blocks_recovered >= 1, "a 60% prefix of a 5-block stream holds complete frames");
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &data[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn container_salvage_survives_header_checksum_damage() {
    let data = test_input();
    let archive = container_archive(&data);
    // The v4 header checksum is the u64 right before the payloads; flipping
    // it invalidates no field, so lenient parsing proceeds and the
    // per-block checksums arbitrate every byte.
    let header_len = container_header_len(&archive);
    let damaged = FaultPlan::clean().flip(header_len as u64 - 5, 7).apply_to(&archive);
    assert!(container_decode(&damaged).is_err(), "strict decode must reject the bad header checksum");
    let (out, report) = decompress_salvage(&damaged, &DecompressorConfig::default()).unwrap();
    assert!(!report.head_intact);
    assert!(report.is_complete(), "payloads are pristine; salvage must recover everything");
    assert_eq!(out, data);
}

// ---------------------------------------------------------------------------
// Hostile archives: salvage never sizes output from a number the strict
// readers reject. Each forged size is 256 MiB, so a salvage that trusted it
// fails the output-size assertion instead of exhausting the machine.
// ---------------------------------------------------------------------------

const FORGED: u64 = 256 << 20;

/// The 200,000-byte, seven-frame archive the hostile streams start from
/// (32 KiB blocks, prelude totals back-patched).
fn probe_data() -> Vec<u8> {
    text_input(200_000)
}

fn probe_stream(data: &[u8]) -> Vec<u8> {
    let mut config = CompressorConfig::bit_de();
    config.block_size = 32 * 1024;
    let mut cursor = Cursor::new(Vec::new());
    StreamCompressor::new(config).unwrap().compress_seekable(data, &mut cursor).unwrap();
    cursor.into_inner()
}

/// Offset of the stream trailer, located from the tail fields.
fn trailer_start(stream: &[u8]) -> usize {
    let table_len = u32::from_le_bytes(stream[stream.len() - 8..stream.len() - 4].try_into().unwrap());
    stream.len() - 8 - table_len as usize
}

fn salvage_stream(stream: &[u8], config: DecompressorConfig) -> (Vec<u8>, RecoveryReport) {
    StreamDecompressor::new(config).salvage_bytes(stream).unwrap()
}

/// Every recovered record of a salvage of `data`'s stream holds the
/// original bytes, and the output stays far below any forged size.
fn assert_small_and_exact(out: &[u8], report: &RecoveryReport, data: &[u8]) {
    assert!(out.len() < 1 << 20, "salvage output of {} bytes was sized from a forged number", out.len());
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &data[s..e], "recovered block {} differs", record.block);
    }
}

/// A byte-mode payload with no sequences that declares `declared` output
/// bytes (7 bytes for a 256 MiB claim).
fn empty_payload_declaring(declared: u64) -> BlockPayload {
    let mut w = ByteWriter::new();
    write_varint(&mut w, 0); // n_sequences
    write_varint(&mut w, declared);
    write_varint(&mut w, 0); // data length
    BlockPayload { bytes: w.finish() }
}

#[test]
fn container_salvage_rejects_a_block_grid_strict_decode_rejects() {
    // One 256 MiB block, then three 64 MiB blocks, each from a 7-byte
    // payload: strict decode rejects the grid before allocating, and
    // salvage must return the same error instead of zero-filling it.
    for (n_blocks, block_size) in [(1usize, FORGED), (3, FORGED / 4)] {
        let header = FileHeader {
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            uncompressed_size: block_size * n_blocks as u64,
            block_size: block_size as u32,
            block_configs: vec![BlockConfig::legacy_uniform(EncodingMode::Byte, 16, 0); n_blocks],
            block_compressed_sizes: vec![],
            block_checksums: vec![],
        };
        let payloads = (0..n_blocks).map(|_| empty_payload_declaring(block_size)).collect();
        let archive = CompressedFile::new(header, payloads).unwrap().serialize();
        let strict = container_decode(&archive).expect_err("strict decode must reject the grid");
        let salvaged = decompress_salvage(&archive, &DecompressorConfig::default());
        assert_eq!(salvaged.err(), Some(strict), "{n_blocks} block(s)");
    }
}

#[test]
fn stream_salvage_distrusts_a_forged_trailer_total() {
    // The trailer's total is rewritten to 256 MiB for seven frames and the
    // trailer re-checksummed: the strict readers reject the block count,
    // so salvage must scan instead of placing frames by that table.
    let data = probe_data();
    let stream = probe_stream(&data);
    let at = trailer_start(&stream);
    let mut trailer = StreamTrailer::deserialize(&stream[at..], true).unwrap();
    trailer.uncompressed_size = FORGED;
    let mut forged = stream[..at].to_vec();
    forged.extend_from_slice(&trailer.serialize());
    assert!(stream_decode(&forged).is_err());
    assert!(ArchiveReader::open(Cursor::new(&forged)).is_err());
    let (out, report) = salvage_stream(&forged, DecompressorConfig::default());
    assert!(!report.trailer_intact);
    assert_small_and_exact(&out, &report, &data);
    assert_eq!(out, data, "every frame is intact");
}

#[test]
fn stream_salvage_distrusts_implausible_frame_slots() {
    // One frame twice, under a re-checksummed prelude declaring 256 MiB
    // blocks and a consistent, checksummed trailer: the table tiles the
    // file, but a few hundred payload bytes cannot fill a 256 MiB slot.
    let data = test_input();
    let mut config = small_block_config();
    config.block_size = data.len();
    let mut stream = Vec::new();
    StreamCompressor::new(config).unwrap().compress(data.as_slice(), &mut stream).unwrap();
    let prelude = StreamPrelude::deserialize(&stream[..PRELUDE_LEN]).unwrap();
    let at = trailer_start(&stream);
    let frame = &stream[PRELUDE_LEN..at - 1]; // up to the zero-length terminator
    let payload_len = StreamTrailer::deserialize(&stream[at..], true).unwrap().block_compressed_sizes[0];

    let mut forged = StreamPrelude { block_size: FORGED as u32, ..prelude }.serialize().to_vec();
    forged.extend_from_slice(frame);
    forged.extend_from_slice(frame);
    forged.push(0);
    let trailer = StreamTrailer {
        block_compressed_sizes: vec![payload_len; 2],
        uncompressed_size: FORGED + data.len() as u64,
    };
    forged.extend_from_slice(&trailer.serialize());
    assert!(ArchiveReader::open(Cursor::new(&forged)).unwrap().decompress_range(0..1).is_err());

    let (out, report) = salvage_stream(&forged, DecompressorConfig::default());
    assert!(!report.trailer_intact);
    assert!(out.len() < 1 << 20, "salvage output of {} bytes was sized from a forged slot", out.len());
    assert_eq!(report.blocks_recovered, 2, "both copies of the frame are intact");
    assert_eq!(out, [data.as_slice(), data.as_slice()].concat());
}

#[test]
fn stream_scan_does_not_size_a_mid_stream_gap_from_a_forged_total() {
    // The prelude total sits outside the prelude checksum; forged to
    // 256 MiB, it must not size a gap of a few hundred input bytes.
    let data = probe_data();
    let stream = probe_stream(&data);
    let mid = ArchiveReader::open(Cursor::new(&stream)).unwrap().index().entry(3).clone();
    let mut damaged = FaultPlan::clean()
        .flip(mid.compressed_offset + u64::from(mid.compressed_size) / 2, 2)
        .flip(stream.len() as u64 - 1, 0)
        .apply_to(&stream);
    damaged[UNCOMPRESSED_SIZE_OFFSET..UNCOMPRESSED_SIZE_OFFSET + 8].copy_from_slice(&FORGED.to_le_bytes());
    let (out, report) = salvage_stream(&damaged, DecompressorConfig::default());
    assert_eq!(report.blocks_lost, 1);
    assert!(!report.lost_sizes_exact, "the forged total cannot size the gap");
    assert_small_and_exact(&out, &report, &data);
}

#[test]
fn stream_scan_never_uses_a_total_above_max_output_size() {
    // A truncated stream's gap runs to the end of the input, so it may take
    // the declared total, but never one above the output cap.
    let data = probe_data();
    let stream = probe_stream(&data);
    let mut damaged = stream[..stream.len() * 6 / 10].to_vec();
    damaged[UNCOMPRESSED_SIZE_OFFSET..UNCOMPRESSED_SIZE_OFFSET + 8].copy_from_slice(&FORGED.to_le_bytes());
    let capped = DecompressorConfig { max_output_size: 64 << 20, ..DecompressorConfig::default() };
    let (out, report) = salvage_stream(&damaged, capped);
    assert!(!report.lost_sizes_exact);
    assert_small_and_exact(&out, &report, &data);

    // Nor do recovered frames: an intact stream larger than the cap comes
    // back only up to the cap, its remainder reported lost.
    let capped = DecompressorConfig { max_output_size: 100_000, ..DecompressorConfig::default() };
    let (out, report) = salvage_stream(&stream, capped);
    assert!(out.len() <= 100_000, "salvage output of {} bytes exceeds the cap", out.len());
    assert!(!report.is_complete());
    assert_small_and_exact(&out, &report, &data);
}

#[test]
fn stream_scan_caps_a_provisional_hole_by_its_gap() {
    // A valid prelude declaring 256 MiB blocks, then 19 bytes of garbage:
    // the provisional one-block hole may not exceed what 19 bytes expand to.
    let prelude = StreamPrelude {
        version: 4,
        window_size: 8 * 1024,
        min_match_len: 3,
        max_match_len: 64,
        block_size: FORGED as u32,
        uncompressed_size: None,
        block_count: None,
        legacy_uniform: None,
    };
    let mut forged = prelude.serialize().to_vec();
    forged.extend_from_slice(&[0x5A; 19]);
    let (out, report) = salvage_stream(&forged, DecompressorConfig::default());
    assert_eq!(report.blocks_lost, 1);
    assert!(!report.lost_sizes_exact);
    assert!(out.len() < 1 << 20, "a 19-byte gap became a {}-byte hole", out.len());
}

#[test]
fn stream_cut_at_a_frame_boundary_reports_the_missing_tail() {
    let data = probe_data();
    let stream = probe_stream(&data);
    let third = ArchiveReader::open(Cursor::new(&stream)).unwrap().index().entry(2).clone();
    let cut = third.compressed_offset + u64::from(third.compressed_size);
    let (out, report) = salvage_stream(&stream[..cut as usize], DecompressorConfig::default());
    assert!(!report.is_complete(), "the prelude declares {} bytes; the frames end short", data.len());
    assert_eq!(report.blocks_lost, 1);
    let tail = report.blocks.last().unwrap();
    assert!(!tail.status.is_recovered());
    assert_eq!(tail.input_range, (cut, cut));
    assert_eq!(tail.output_range, (third.uncompressed_offset + third.uncompressed_size, data.len() as u64));
    assert!(report.lost_sizes_exact);
    assert_eq!(out.len(), data.len());
    assert_small_and_exact(&out, &report, &data);

    // A cut inside a frame leaves the same single tail region.
    let (out, report) = salvage_stream(&stream[..stream.len() * 6 / 10], DecompressorConfig::default());
    assert_eq!(out.len(), data.len());
    assert!(report.lost_sizes_exact);
    assert_small_and_exact(&out, &report, &data);
}

/// A damaged block followed by a cut: the strict stream decoder reports
/// the damaged block at every worker count, however the workers happen to
/// interleave, because queued blocks always finish and the lowest failing
/// block wins.
#[test]
fn reported_stream_error_does_not_depend_on_the_worker_count() {
    let mut config = CompressorConfig::bit_de();
    config.block_size = 16 * 1024;
    let data = text_input(12 * config.block_size);
    let mut stream = Vec::new();
    StreamCompressor::new(config).unwrap().compress(data.as_slice(), &mut stream).unwrap();
    let entries = ArchiveReader::open(Cursor::new(&stream)).unwrap().index().entries().to_vec();
    assert_eq!(entries.len(), 12);
    let middle =
        |k: usize| (entries[k].compressed_offset + u64::from(entries[k].compressed_size) / 2) as usize;
    let mut damaged = stream[..middle(9)].to_vec();
    damaged[middle(2)] ^= 0xFF;
    for workers in [1, 2, 4] {
        for run in 0..40 {
            let mut out = Vec::new();
            let err = StreamDecompressor::new(DecompressorConfig::default())
                .with_workers(workers)
                .decompress(damaged.as_slice(), &mut out)
                .unwrap_err();
            assert!(
                matches!(err, GompressoError::InBlock { block: 2, .. }),
                "{workers} workers, run {run}: got {err:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random-access damage locality: a flip in block k fails exactly the
// ranges that touch block k.
// ---------------------------------------------------------------------------

/// For each block k of a v4 archive (either layout), flip one payload bit
/// of that block and drive every block's range through `ArchiveReader`:
/// ranges not touching k must decode byte-exactly, and the flip must be
/// detected on block k itself (or be benign padding, in which case k too
/// decodes byte-exactly). Damage never leaks across block boundaries.
#[test]
fn range_decode_fails_only_ranges_touching_the_damaged_block() {
    let data = test_input();
    for archive in [container_archive(&data), stream_archive(&data)] {
        let entries: Vec<_> = {
            let reader = gompresso::ArchiveReader::open(Cursor::new(archive.clone())).unwrap();
            assert!(reader.index().checksummed(), "v4 archives carry per-block checksums");
            reader.index().entries().to_vec()
        };
        assert!(entries.len() >= 4, "need a multi-block archive");
        let mut detected = 0u64;
        for (k, damaged_entry) in entries.iter().enumerate() {
            let flip_at = damaged_entry.compressed_offset + u64::from(damaged_entry.compressed_size) / 2;
            let damaged = FaultPlan::clean().flip(flip_at, 3).apply_to(&archive);
            let mut reader = gompresso::ArchiveReader::open(Cursor::new(damaged))
                .unwrap_or_else(|e| panic!("payload flip in block {k} must not break the index: {e}"));
            for (j, entry) in entries.iter().enumerate() {
                let range = entry.uncompressed_range();
                match reader.decompress_range(range.clone()) {
                    Ok(out) => assert_eq!(
                        out,
                        &data[range.start as usize..range.end as usize],
                        "block {j} decoded wrong after a flip in block {k}"
                    ),
                    Err(e) => {
                        assert_eq!(j, k, "flip in block {k} failed unrelated block {j}: {e}");
                        detected += 1;
                    }
                }
            }
            // A range spanning all blocks touches the damaged one, so it
            // must agree with the per-block outcome: full-file decode
            // errors exactly when block k's own range did.
            let full = reader.decompress_range(0..data.len() as u64);
            let block_ok = reader.decompress_range(damaged_entry.uncompressed_range()).is_ok();
            assert_eq!(full.is_ok(), block_ok, "full-range outcome diverges for flip in block {k}");
            if let Ok(out) = full {
                assert_eq!(out, data);
            }
        }
        assert!(detected > 0, "no payload flip was ever detected — the matrix is toothless");
    }
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: seeded random damage through the Read adapter.
// ---------------------------------------------------------------------------

#[test]
fn fault_reader_matrix_never_yields_silent_corruption() {
    let data = test_input();
    let stream = stream_archive(&data);
    let len = stream.len() as u64;

    let mut plans = Vec::new();
    for seed in 0..32u64 {
        plans.push(FaultPlan::random_flips(seed, len, 1 + (seed % 4) as usize));
    }
    for cut in [1u64, len / 4, len / 2, len - 1] {
        plans.push(FaultPlan::clean().truncate(cut));
    }
    for at in [0u64, 5, len / 3, len - 8] {
        plans.push(FaultPlan::clean().error(at));
    }

    for (i, plan) in plans.iter().enumerate() {
        let reader = FaultReader::new(stream.as_slice(), plan.clone());
        let mut out = Vec::new();
        match StreamDecompressor::new(DecompressorConfig::default()).decompress(reader, &mut out) {
            Err(_) => {}
            Ok(_) => assert_eq!(out, data, "plan #{i} ({plan:?}) decoded silently wrong"),
        }
    }
}

#[test]
fn short_reads_alone_are_harmless() {
    let data = test_input();
    let stream = stream_archive(&data);
    for cap in [1usize, 2, 3, 7, 64] {
        let reader = FaultReader::new(stream.as_slice(), FaultPlan::clean().short_reads(cap));
        let mut out = Vec::new();
        StreamDecompressor::new(DecompressorConfig::default())
            .decompress(reader, &mut out)
            .unwrap_or_else(|e| panic!("short reads of {cap} bytes broke the decoder: {e}"));
        assert_eq!(out, data, "short reads of {cap} bytes changed the output");
    }
}

// ---------------------------------------------------------------------------
// Committed damaged fixtures: the on-disk corpus for `verify`/`salvage`.
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

#[test]
fn damaged_stream_fixture_fails_strict_and_salvages() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_damaged_frame.gpsos");
    let err = stream_decode(&damaged).expect_err("damaged fixture must not decode strictly");
    assert!(err.is_corruption(), "strict decode must classify the damage as corruption: {err}");
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert_eq!(report.blocks_lost, 1, "the fixture damages exactly one frame");
    assert_eq!(out.len(), input.len());
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn truncated_stream_fixture_salvages_prefix() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_truncated.gpsos");
    assert!(stream_decode(&damaged).is_err(), "truncated fixture must not decode strictly");
    let (out, report) =
        StreamDecompressor::new(DecompressorConfig::default()).salvage_bytes(&damaged).unwrap();
    assert!(report.blocks_recovered >= 1);
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn damaged_container_fixture_fails_strict_and_salvages() {
    let input = fixture("fixture_input.bin");
    let damaged = fixture("v4_damaged_block.gpso");
    assert!(container_decode(&damaged).is_err(), "damaged fixture must not decode strictly");
    let (out, report) = decompress_salvage(&damaged, &DecompressorConfig::default()).unwrap();
    assert_eq!(report.blocks_lost, 1, "the fixture damages exactly one block");
    assert_eq!(out.len(), input.len());
    for record in report.blocks.iter().filter(|b| b.status.is_recovered()) {
        let (s, e) = (record.output_range.0 as usize, record.output_range.1 as usize);
        assert_eq!(&out[s..e], &input[s..e], "recovered block {} differs", record.block);
    }
}

#[test]
fn intact_fixtures_salvage_completely() {
    let input = fixture("fixture_input.bin");
    for name in [
        "v1_bit_de.gpso",
        "v1_byte.gpso",
        "v3_bit_de.gpso",
        "v3_byte.gpso",
        "v4_bit_de.gpso",
        "v2_bit.gpsos",
        "v2_byte_de.gpsos",
        "v3_bit.gpsos",
        "v3_byte_de.gpsos",
        "v4_bit_de.gpsos",
    ] {
        let archive = fixture(name);
        let (out, report) = if name.ends_with(".gpsos") {
            salvage_stream(&archive, DecompressorConfig::default())
        } else {
            decompress_salvage(&archive, &DecompressorConfig::default()).unwrap()
        };
        assert!(report.is_complete(), "{name}: {report:?}");
        assert_eq!(out, input, "{name}");
        assert_eq!(report.checksummed, name.starts_with("v4"), "{name}");
        assert!(report.head_intact && report.trailer_intact, "{name}: {report:?}");
        assert_eq!(report.resyncs, 0, "{name}");
    }
}

#[test]
fn intact_v4_fixtures_decode_and_verify() {
    let input = fixture("fixture_input.bin");
    assert_eq!(container_decode(&fixture("v4_bit_de.gpso")).unwrap(), input);
    assert_eq!(stream_decode(&fixture("v4_bit_de.gpsos")).unwrap(), input);
}

/// Regenerates the v4 fixtures (intact and damaged). Run explicitly:
/// `cargo test -p gompresso --test corruption_matrix -- --ignored regenerate`
/// and commit the results. Damage positions derive from the intact bytes,
/// so regeneration is deterministic.
#[test]
#[ignore = "fixture generator, run manually"]
fn regenerate_v4_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let input = fixture("fixture_input.bin");
    let mut config = CompressorConfig::bit_de();
    config.block_size = 32 * 1024; // match the v1-v3 fixture geometry

    let container = compress(&input, &config).unwrap().file.serialize();
    std::fs::write(dir.join("v4_bit_de.gpso"), &container).unwrap();

    let compressor = StreamCompressor::new(config).unwrap();
    let mut cursor = Cursor::new(Vec::new());
    compressor.compress_seekable(input.as_slice(), &mut cursor).unwrap();
    let stream = cursor.into_inner();
    std::fs::write(dir.join("v4_bit_de.gpsos"), &stream).unwrap();

    // One flip in the middle of the stream (inside some frame's payload).
    let damaged = FaultPlan::clean().flip(stream.len() as u64 / 2, 3).apply_to(&stream);
    std::fs::write(dir.join("v4_damaged_frame.gpsos"), damaged).unwrap();

    // Truncation at 70%: loses the tail frames and the whole trailer.
    let truncated = FaultPlan::clean().truncate(stream.len() as u64 * 7 / 10).apply_to(&stream);
    std::fs::write(dir.join("v4_truncated.gpsos"), truncated).unwrap();

    // One flip in the middle of the container's payload region.
    let header_len = container_header_len(&container);
    let mid_payload = (header_len + (container.len() - header_len) / 2) as u64;
    let damaged = FaultPlan::clean().flip(mid_payload, 5).apply_to(&container);
    std::fs::write(dir.join("v4_damaged_block.gpso"), damaged).unwrap();
}
