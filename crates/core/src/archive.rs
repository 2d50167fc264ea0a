//! Random-access decoding of archives on disk.
//!
//! The whole-file decompressors ([`crate::decompress`], [`crate::stream`])
//! answer "give me the original bytes"; this module answers the paper's
//! actual query-engine question — "give me bytes 17 MiB through 19 MiB,
//! now" — without touching the rest of the archive. [`ArchiveReader`] wraps
//! any `Read + Seek` source, builds a [`BlockIndex`] from whichever layout
//! the file uses, and decodes exactly the blocks a request overlaps:
//!
//! * **in-memory containers** (`.gpso`, v1–v4) index from the header's
//!   block-size table, prefix-summed from the end of the header;
//! * **streaming containers** (`.gpsos`, v2–v4) index trailer-first
//!   through the trusted stream geometry the salvage decoder shares
//!   ([`locate_stream_frames`]): the self-locating trailer pins every
//!   frame's exact offset, and one small read per frame head recovers the
//!   per-block config (v3+) and content checksum (v4).
//!
//! [`ArchiveReader::decompress_range`] clamps the request to the file, reads
//! only the overlapping blocks' payloads, decodes them in parallel through
//! the same per-worker scratch thread-locals as the whole-file path, and
//! verifies each block's stored content checksum. Damage stays local: a
//! corrupt block fails the ranges that touch it (with block context on the
//! error), while every other range still decodes byte-exactly — the strict
//! complement of [`crate::salvage`], which recovers what it can from a file
//! already known to be damaged.

use crate::decompress::{
    admit_block, decode_into_slices, decompress_block_checked, DecompressorConfig, Slot,
};
use crate::error::invalid_field;
use crate::stream::read_prelude;
use crate::{GompressoError, Result};
use gompresso_bitstream::ByteReader;
use gompresso_format::stream_frame::{StreamPrelude, StreamTrailer, TRAILER_MAGIC};
use gompresso_format::{
    parse_stream_frame_head, stream_frame_layout, token_code::TokenCoder, BlockIndex, FileHeader,
    FormatError, FrameLayout,
};
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;

/// Which on-disk layout an [`ArchiveReader`] opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveFormat {
    /// The in-memory container (header-first block table, `.gpso`).
    Container,
    /// The streaming container (trailer-located block table, `.gpsos`).
    Stream,
}

/// Random-access reader over a compressed archive: O(1) lookup of any
/// block or uncompressed byte range, decoding only what the request
/// overlaps.
#[derive(Debug)]
pub struct ArchiveReader<R> {
    reader: R,
    file_len: u64,
    index: BlockIndex,
    format: ArchiveFormat,
    config: DecompressorConfig,
    coder: TokenCoder,
    blocks_decoded: u64,
}

/// Initial header-probe size for container archives; doubled until the
/// header parses or the whole file has been read.
const HEADER_PROBE: u64 = 4096;

impl<R: Read + Seek> ArchiveReader<R> {
    /// Opens an archive with the default decompressor configuration
    /// (per-block planned strategies, checksum verification on).
    pub fn open(reader: R) -> Result<Self> {
        Self::with_config(reader, DecompressorConfig::default())
    }

    /// Opens an archive with an explicit configuration. The format is
    /// sniffed from the file itself: a file closing with the stream trailer
    /// magic is indexed trailer-first, anything else header-first — with a
    /// fallback to the other layout so a renamed archive still opens.
    pub fn with_config(mut reader: R, config: DecompressorConfig) -> Result<Self> {
        let file_len = reader.seek(SeekFrom::End(0))?;
        let stream_first = file_len >= 4 && {
            let mut magic = [0u8; 4];
            reader.seek(SeekFrom::Start(file_len - 4))?;
            reader.read_exact(&mut magic)?;
            magic == TRAILER_MAGIC
        };
        let first_attempt = if stream_first {
            Self::open_stream(&mut reader, file_len)
        } else {
            Self::open_container(&mut reader, file_len)
        };
        let (index, format) = match first_attempt {
            Ok(opened) => opened,
            Err(first_err) => {
                let second = if stream_first {
                    Self::open_container(&mut reader, file_len)
                } else {
                    Self::open_stream(&mut reader, file_len)
                };
                second.map_err(|_| first_err)?
            }
        };
        let coder = TokenCoder::new(index.min_match_len(), index.max_match_len(), index.window_size())?;
        Ok(ArchiveReader { reader, file_len, index, format, config, coder, blocks_decoded: 0 })
    }

    /// Header-first open: parse the container header from a growing prefix
    /// of the file (the header is self-delimiting, so the first prefix that
    /// parses also yields the payload base).
    fn open_container(reader: &mut R, file_len: u64) -> Result<(BlockIndex, ArchiveFormat)> {
        let mut probe = HEADER_PROBE.min(file_len);
        loop {
            reader.seek(SeekFrom::Start(0))?;
            let mut buf = vec![0u8; probe as usize];
            reader.read_exact(&mut buf)?;
            let mut r = ByteReader::new(&buf);
            match FileHeader::deserialize(&mut r) {
                Ok(header) => {
                    let payload_base = r.position() as u64;
                    let index = BlockIndex::from_container(&header, payload_base)?;
                    return Ok((index, ArchiveFormat::Container));
                }
                Err(_) if probe < file_len => probe = (probe * 2).min(file_len),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Trailer-first open: locate the trailer and every frame through the
    /// trusted stream geometry, then read each frame head for its config
    /// and checksum.
    fn open_stream(reader: &mut R, file_len: u64) -> Result<(BlockIndex, ArchiveFormat)> {
        reader.seek(SeekFrom::Start(0))?;
        let (prelude, frames_at) = read_prelude(reader, StreamPrelude::deserialize)?;
        let (trailer, layouts) = locate_stream_frames(reader, file_len, &prelude, frames_at)?;
        let mut heads = Vec::with_capacity(layouts.len());
        for layout in &layouts {
            let bytes = read_at(reader, layout.frame_offset, layout.head_len)?;
            heads.push(parse_stream_frame_head(&bytes, &prelude, layout)?);
        }
        let index = BlockIndex::from_stream(&prelude, &trailer, frames_at, heads)?;
        Ok((index, ArchiveFormat::Stream))
    }

    /// The seek structure backing this reader.
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// Which on-disk layout was opened.
    pub fn format(&self) -> ArchiveFormat {
        self.format
    }

    /// Total uncompressed size of the archive.
    pub fn uncompressed_size(&self) -> u64 {
        self.index.uncompressed_size()
    }

    /// Number of blocks decoded by this reader so far — the observable
    /// proof that range requests touch only the blocks they overlap.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.reader
    }

    /// Decodes exactly one block, returning its uncompressed bytes.
    pub fn decompress_block(&mut self, index: usize) -> Result<Vec<u8>> {
        if index >= self.index.block_count() {
            return Err(GompressoError::InvalidConfig {
                reason: format!("block {index} out of range ({} blocks)", self.index.block_count()),
            });
        }
        self.decompress_range(self.index.entry(index).uncompressed_range())
    }

    /// Decodes the uncompressed byte range `start..end`, reading and
    /// decoding only the blocks that overlap it. The range is clamped to
    /// the file, so a degenerate or out-of-bounds request yields an empty
    /// vector rather than an error. Blocks decode in parallel; each one's
    /// stored content checksum is verified (unless disabled in the
    /// configuration), and a failing block errors with its block index and
    /// payload offset attached.
    pub fn decompress_range(&mut self, range: Range<u64>) -> Result<Vec<u8>> {
        let end = range.end.min(self.index.uncompressed_size());
        let start = range.start.min(end);
        if start == end {
            return Ok(Vec::new());
        }
        let blocks = self.index.blocks_for_range(start..end);
        let aligned_start = self.index.entry(blocks.start).uncompressed_offset;
        let last = self.index.entry(blocks.end - 1);
        let aligned_len = last.uncompressed_offset + last.uncompressed_size - aligned_start;
        if aligned_len > self.config.max_output_size {
            return Err(invalid_field("uncompressed_size", aligned_len));
        }

        // Read the payloads (sequentially — one seek per block) and admit
        // each block *before* allocating anything for its output.
        let mut payloads = Vec::with_capacity(blocks.len());
        for idx in blocks.clone() {
            let entry = self.index.entry(idx);
            let block_err =
                |e: GompressoError| e.into_block_err(idx as u64, self.format, entry.compressed_offset);
            if entry.compressed_offset + u64::from(entry.compressed_size) > self.file_len {
                return Err(block_err(GompressoError::Format(FormatError::TruncatedBlock { block: idx })));
            }
            let payload = read_at(&mut self.reader, entry.compressed_offset, entry.compressed_size as usize)?;
            let slot = Slot::Exact(entry.uncompressed_size);
            admit_block(entry.config.mode, &payload, slot, self.index.max_match_len()).map_err(block_err)?;
            payloads.push(payload);
        }

        self.blocks_decoded += payloads.len() as u64;

        // Decode in parallel into one block-aligned buffer, then trim to the
        // requested range.
        let mut out = vec![0u8; aligned_len as usize];
        let (index, config, coder, format) = (&self.index, &self.config, &self.coder, self.format);
        let sizes = blocks.clone().map(|idx| index.entry(idx).uncompressed_size);
        decode_into_slices(&mut out, sizes, |position, dst| {
            let (idx, payload) = (blocks.start + position, &payloads[position]);
            let entry = index.entry(idx);
            decompress_block_checked(config, &entry.config, coder, idx, payload, entry.checksum, dst)
                .map_err(|e| e.into_block_err(idx as u64, format, entry.compressed_offset))
        })?;
        out.truncate((end - aligned_start) as usize);
        out.drain(..(start - aligned_start) as usize);
        Ok(out)
    }
}

/// Trusted stream geometry: locates the trailer from the tail of a
/// `file_len`-byte stream (closing magic, then the trailer's own length,
/// then its table) and checks it against the prelude and the file — the
/// block count must agree with the total and the block size, and the
/// frames, the zero-length terminator and the trailer must tile the file
/// exactly. A mismatch means the trailer and the frame bytes disagree:
/// damage, not a valid archive. Returns the trailer and every frame's
/// layout. The range reader and salvage's exact-offset path both start
/// here.
pub(crate) fn locate_stream_frames<R: Read + Seek>(
    reader: &mut R,
    file_len: u64,
    prelude: &StreamPrelude,
    frames_at: u64,
) -> Result<(StreamTrailer, Vec<FrameLayout>)> {
    let truncated = || GompressoError::Format(FormatError::TruncatedBlock { block: 0 });
    let tail_at = file_len.checked_sub(8).ok_or_else(truncated)?;
    let tail = read_at(reader, tail_at, 8)?;
    if tail[4..] != TRAILER_MAGIC {
        return Err(GompressoError::Format(FormatError::BadMagic));
    }
    let table_len = u64::from(u32::from_le_bytes(tail[..4].try_into().expect("the tail holds 8 bytes")));
    let trailer_start = tail_at.checked_sub(table_len).ok_or_else(truncated)?;
    let trailer_bytes = read_at(reader, trailer_start, (table_len + 8) as usize)?;
    let trailer = StreamTrailer::deserialize(&trailer_bytes, prelude.checksummed())?;
    let layouts = stream_frame_layout(prelude, &trailer, frames_at)?;
    let frames_end = layouts.last().map_or(frames_at, FrameLayout::end);
    if frames_end + 1 != trailer_start {
        return Err(invalid_field("block_compressed_sizes", frames_end));
    }
    Ok((trailer, layouts))
}

/// Seeks to `offset` and reads exactly `len` bytes.
fn read_at<R: Read + Seek>(reader: &mut R, offset: u64, len: usize) -> Result<Vec<u8>> {
    reader.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

/// Block-context wrapping that matches the whole-file decoders: container
/// errors carry the block index only, stream errors also the frame's
/// payload offset.
trait IntoBlockErr {
    fn into_block_err(self, block: u64, format: ArchiveFormat, payload_offset: u64) -> GompressoError;
}

impl<E: Into<GompressoError>> IntoBlockErr for E {
    fn into_block_err(self, block: u64, format: ArchiveFormat, payload_offset: u64) -> GompressoError {
        let offset = match format {
            ArchiveFormat::Container => None,
            ArchiveFormat::Stream => Some(payload_offset),
        };
        self.into().in_block(block, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::config::CompressorConfig;
    use crate::stream::StreamCompressor;
    use std::io::Cursor;

    fn test_input(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        let mut i = 0u64;
        while data.len() < len {
            data.extend_from_slice(format!("row {:06} value {}\n", i, i.wrapping_mul(2654435761)).as_bytes());
            i += 1;
        }
        data.truncate(len);
        data
    }

    fn small(mut c: CompressorConfig) -> CompressorConfig {
        c.block_size = 2048;
        c
    }

    fn container_archive(data: &[u8], config: &CompressorConfig) -> Vec<u8> {
        compress(data, config).unwrap().file.serialize()
    }

    fn stream_archive(data: &[u8], config: &CompressorConfig) -> Vec<u8> {
        let mut out = Vec::new();
        StreamCompressor::new(config.clone())
            .unwrap()
            .compress_seekable(Cursor::new(data), Cursor::new(&mut out))
            .unwrap();
        out
    }

    #[test]
    fn ranges_match_full_decompression_on_both_formats() {
        let data = test_input(10_000);
        for config in [small(CompressorConfig::bit_de()), small(CompressorConfig::byte())] {
            for archive in [container_archive(&data, &config), stream_archive(&data, &config)] {
                let mut reader = ArchiveReader::open(Cursor::new(&archive)).unwrap();
                assert_eq!(reader.uncompressed_size(), data.len() as u64);
                for range in [0..100u64, 2000..2100, 2047..2049, 0..data.len() as u64, 9990..20_000, 5..5] {
                    let got = reader.decompress_range(range.clone()).unwrap();
                    let end = (range.end as usize).min(data.len());
                    let start = (range.start as usize).min(end);
                    assert_eq!(got, &data[start..end], "range {range:?}");
                }
            }
        }
    }

    #[test]
    fn only_overlapping_blocks_are_decoded() {
        let data = test_input(10_000); // five 2048-byte blocks
        let archive = stream_archive(&data, &small(CompressorConfig::bit_de()));
        let mut reader = ArchiveReader::open(Cursor::new(&archive)).unwrap();
        assert_eq!(reader.format(), ArchiveFormat::Stream);
        assert_eq!(reader.index().block_count(), 5);
        reader.decompress_range(2048..4096).unwrap();
        assert_eq!(reader.blocks_decoded(), 1);
        reader.decompress_range(2047..2049).unwrap();
        assert_eq!(reader.blocks_decoded(), 3);
        let block = reader.decompress_block(4).unwrap();
        assert_eq!(block, &data[4 * 2048..]);
        assert_eq!(reader.blocks_decoded(), 4);
        assert!(reader.decompress_block(5).is_err());
    }

    #[test]
    fn empty_archives_open_and_yield_empty_ranges() {
        for archive in
            [container_archive(&[], &CompressorConfig::bit()), stream_archive(&[], &CompressorConfig::byte())]
        {
            let mut reader = ArchiveReader::open(Cursor::new(&archive)).unwrap();
            assert_eq!(reader.uncompressed_size(), 0);
            assert!(reader.decompress_range(0..1000).unwrap().is_empty());
            assert_eq!(reader.blocks_decoded(), 0);
        }
    }

    #[test]
    fn renamed_archives_still_open_via_fallback() {
        // Sniffing keys on the trailer magic, not the extension; feeding a
        // container where a stream is expected (and vice versa) must still
        // open via the fallback path.
        let data = test_input(6_000);
        let config = small(CompressorConfig::byte_de());
        let container = container_archive(&data, &config);
        let stream = stream_archive(&data, &config);
        assert_eq!(ArchiveReader::open(Cursor::new(&container)).unwrap().format(), ArchiveFormat::Container);
        assert_eq!(ArchiveReader::open(Cursor::new(&stream)).unwrap().format(), ArchiveFormat::Stream);
        let garbage = b"not an archive at all".to_vec();
        assert!(ArchiveReader::open(Cursor::new(&garbage)).is_err());
    }
}
