//! Random-access block index over both container layouts.
//!
//! The paper's motivating workload is database scans over compressed data:
//! data is compressed once and then repeatedly read by analytics jobs that
//! rarely need the whole file. Both on-disk layouts already store everything
//! a seeking reader needs — the in-memory container's header carries the
//! per-block size table up front, and the streaming container's
//! self-locating trailer repeats it at the end — but until now only the
//! whole-file decoders consumed those tables.
//!
//! [`BlockIndex`] turns either table into one uniform seek structure: for
//! every block, the absolute file offset and size of its compressed payload,
//! its uncompressed offset and size, its [`BlockConfig`], and (v4) its
//! content checksum. Because blocks are a fixed `block_size` apart in output
//! space, mapping an uncompressed byte offset to its block is a division,
//! and mapping a byte range to the blocks that cover it is O(1)
//! ([`BlockIndex::blocks_for_range`]).
//!
//! Index construction is pure: this module computes offsets and parses frame
//! heads from byte slices the caller supplies, while the `std::io` plumbing
//! (seeking, reading, decoding) lives in `gompresso-core::archive`.
//!
//! * **Container** ([`BlockIndex::from_container`]) — prefix-sums the
//!   header's `block_compressed_sizes` from the caller-supplied payload base
//!   (the byte position right after the serialized header).
//! * **Stream** ([`BlockIndex::from_stream`]) — combines the prelude and the
//!   trailer's size table into exact frame offsets
//!   ([`stream_frame_layout`], which also rejects a table whose block count
//!   disagrees with the total); the caller reads each frame's fixed-size
//!   head and parses it with [`parse_stream_frame_head`] to recover the
//!   per-block config (v3+) and content checksum (v4). Legacy v2 frames are
//!   configless — the uniform config synthesized from the v2 prelude applies
//!   to every block.

use crate::block_config::BlockConfig;
use crate::header::FileHeader;
use crate::stream_frame::{StreamPrelude, StreamTrailer};
use crate::{FormatError, Result};
use gompresso_bitstream::{read_varint, varint_len, ByteReader};
use std::ops::Range;

/// Everything a random-access reader needs to know about one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// Absolute file offset of the block's compressed payload bytes (past
    /// any per-frame framing).
    pub compressed_offset: u64,
    /// Compressed payload size in bytes.
    pub compressed_size: u32,
    /// Offset of the block's first byte in the uncompressed output.
    pub uncompressed_offset: u64,
    /// Uncompressed size of the block (the last block may be shorter than
    /// the file-wide block size).
    pub uncompressed_size: u64,
    /// The block's codec configuration.
    pub config: BlockConfig,
    /// XXH64 content checksum of the block's decompressed bytes (v4
    /// archives; `None` for pre-v4 archives, which store none).
    pub checksum: Option<u64>,
}

impl BlockEntry {
    /// The block's byte range in the uncompressed output.
    pub fn uncompressed_range(&self) -> Range<u64> {
        self.uncompressed_offset..self.uncompressed_offset + self.uncompressed_size
    }
}

/// A prefix-summed seek structure over an archive's blocks, built from a
/// container header or a stream prelude + trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    window_size: u32,
    min_match_len: u32,
    max_match_len: u32,
    block_size: u32,
    uncompressed_size: u64,
    entries: Vec<BlockEntry>,
}

impl BlockIndex {
    /// Builds the index from a (validated) container header. `payload_base`
    /// is the absolute file offset of the first block payload — the byte
    /// position immediately after the serialized header.
    pub fn from_container(header: &FileHeader, payload_base: u64) -> Result<Self> {
        header.validate()?;
        let mut entries = Vec::with_capacity(header.block_count());
        let mut compressed_at = payload_base;
        let mut uncompressed_at = 0u64;
        for idx in 0..header.block_count() {
            let compressed_size = header.block_compressed_sizes[idx];
            let uncompressed_size = header.block_uncompressed_size(idx);
            entries.push(BlockEntry {
                compressed_offset: compressed_at,
                compressed_size,
                uncompressed_offset: uncompressed_at,
                uncompressed_size,
                config: *header.block_config(idx),
                checksum: header.block_checksums.get(idx).copied(),
            });
            compressed_at += u64::from(compressed_size);
            uncompressed_at += uncompressed_size;
        }
        Ok(BlockIndex {
            window_size: header.window_size,
            min_match_len: header.min_match_len,
            max_match_len: header.max_match_len,
            block_size: header.block_size,
            uncompressed_size: header.uncompressed_size,
            entries,
        })
    }

    /// Builds the index from a stream prelude, its trailer, and the parsed
    /// frame heads (one `(config, checksum)` pair per block, in order — see
    /// [`parse_stream_frame_head`]). `frames_at` is the absolute offset of
    /// the first frame (the prelude length). Rejects patched prelude totals
    /// that disagree with the trailer and, through [`stream_frame_layout`],
    /// a block count that disagrees with the total.
    pub fn from_stream(
        prelude: &StreamPrelude,
        trailer: &StreamTrailer,
        frames_at: u64,
        heads: Vec<(BlockConfig, Option<u64>)>,
    ) -> Result<Self> {
        let n = trailer.block_compressed_sizes.len();
        if heads.len() != n {
            return Err(FormatError::InvalidHeaderField { field: "frame_heads", value: heads.len() as u64 });
        }
        // Cross-check the prelude totals (when the writer could back-patch
        // them) against the checksummed trailer.
        if let Some(total) = prelude.uncompressed_size {
            if total != trailer.uncompressed_size {
                return Err(FormatError::InvalidHeaderField { field: "uncompressed_size", value: total });
            }
        }
        if let Some(count) = prelude.block_count {
            if count != n as u64 {
                return Err(FormatError::InvalidHeaderField { field: "block_count", value: count });
            }
        }
        let block_size = u64::from(prelude.block_size);
        let mut entries = Vec::with_capacity(n);
        for (layout, (config, checksum)) in
            stream_frame_layout(prelude, trailer, frames_at)?.into_iter().zip(heads)
        {
            config.validate()?;
            entries.push(BlockEntry {
                compressed_offset: layout.frame_offset + layout.head_len as u64,
                compressed_size: layout.payload_len,
                uncompressed_offset: entries.len() as u64 * block_size,
                uncompressed_size: layout.uncompressed_size,
                config,
                checksum,
            });
        }
        Ok(BlockIndex {
            window_size: prelude.window_size,
            min_match_len: prelude.min_match_len,
            max_match_len: prelude.max_match_len,
            block_size: prelude.block_size,
            uncompressed_size: trailer.uncompressed_size,
            entries,
        })
    }

    /// Number of blocks in the archive.
    pub fn block_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no blocks (an empty file).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-block entries, in block order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }

    /// Entry of block `index`.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn entry(&self, index: usize) -> &BlockEntry {
        &self.entries[index]
    }

    /// Total uncompressed size of the archive.
    pub fn uncompressed_size(&self) -> u64 {
        self.uncompressed_size
    }

    /// Uncompressed size of each block (the last may be shorter).
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Sliding-window size used during compression.
    pub fn window_size(&self) -> u32 {
        self.window_size
    }

    /// Minimum match length used during compression.
    pub fn min_match_len(&self) -> u32 {
        self.min_match_len
    }

    /// Maximum match length used during compression.
    pub fn max_match_len(&self) -> u32 {
        self.max_match_len
    }

    /// Whether the archive stores per-block content checksums (v4).
    pub fn checksummed(&self) -> bool {
        self.entries.first().map(|e| e.checksum.is_some()).unwrap_or(false)
    }

    /// The contiguous run of blocks overlapping the uncompressed byte range,
    /// after clamping it to the file (`start > end` or a start past the end
    /// yields an empty run). O(1).
    pub fn blocks_for_range(&self, range: Range<u64>) -> Range<usize> {
        let end = range.end.min(self.uncompressed_size);
        let start = range.start.min(end);
        if start == end {
            return 0..0;
        }
        let first = (start / u64::from(self.block_size)) as usize;
        let last = ((end - 1) / u64::from(self.block_size)) as usize;
        first..last + 1
    }
}

/// Byte geometry of one stream frame, derived from the trailer's size table
/// without touching the frame itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLayout {
    /// Absolute file offset of the frame (its length varint).
    pub frame_offset: u64,
    /// Framing bytes before the payload: the length varint, the
    /// [`BlockConfig`] record (v3+) and the content checksum (v4).
    pub head_len: usize,
    /// Compressed payload size in bytes.
    pub payload_len: u32,
    /// The block's slot in the output: the block size, or the remainder of
    /// the total for the last block.
    pub uncompressed_size: u64,
}

impl FrameLayout {
    /// Absolute file offset just past the frame's payload.
    pub fn end(&self) -> u64 {
        self.frame_offset + self.head_len as u64 + u64::from(self.payload_len)
    }
}

/// Computes every frame's exact byte position and output slot from the
/// trailer's size table. `frames_at` is the offset of the first frame (the
/// prelude length). The frame layout is deterministic given the version:
/// `varint(payload_len) | config (v3+) | checksum (v4) | payload`. Fails
/// when the table's block count disagrees with the trailer total and the
/// prelude's block size.
pub fn stream_frame_layout(
    prelude: &StreamPrelude,
    trailer: &StreamTrailer,
    frames_at: u64,
) -> Result<Vec<FrameLayout>> {
    prelude.validate()?;
    let total = trailer.uncompressed_size;
    let block_size = u64::from(prelude.block_size);
    let n = trailer.block_compressed_sizes.len() as u64;
    if total.div_ceil(block_size) != n {
        return Err(FormatError::InvalidHeaderField { field: "uncompressed_size", value: total });
    }
    let overhead = prelude.frame_overhead();
    let mut layouts = Vec::with_capacity(trailer.block_compressed_sizes.len());
    let mut at = frames_at;
    for (idx, &payload_len) in trailer.block_compressed_sizes.iter().enumerate() {
        let head_len = varint_len(u64::from(payload_len)) + overhead;
        let uncompressed_size = (total - idx as u64 * block_size).min(block_size);
        let layout = FrameLayout { frame_offset: at, head_len, payload_len, uncompressed_size };
        at = layout.end();
        layouts.push(layout);
    }
    Ok(layouts)
}

/// Parses one frame head (the `head_len` bytes at `frame_offset`) into the
/// block's config and content checksum, cross-checking the frame's declared
/// payload length against the trailer's. `bytes` must hold at least
/// `layout.head_len` bytes.
pub fn parse_stream_frame_head(
    bytes: &[u8],
    prelude: &StreamPrelude,
    layout: &FrameLayout,
) -> Result<(BlockConfig, Option<u64>)> {
    let mut r = ByteReader::new(bytes);
    let declared = read_varint(&mut r)?;
    if declared != u64::from(layout.payload_len) {
        return Err(FormatError::InvalidHeaderField { field: "block_compressed_size", value: declared });
    }
    prelude.parse_frame_head(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_config::ResolutionStrategy;
    use crate::header::EncodingMode;
    use crate::stream_frame::STREAM_FORMAT_VERSION;
    use gompresso_bitstream::{write_varint, ByteWriter};

    fn sample_config() -> BlockConfig {
        BlockConfig {
            mode: EncodingMode::Bit,
            strategy: ResolutionStrategy::MultiRound,
            dependency_elimination: false,
            sequences_per_sub_block: 16,
            max_codeword_len: 10,
        }
    }

    fn sample_header() -> FileHeader {
        FileHeader {
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            uncompressed_size: 1_000_000,
            block_size: 256 * 1024,
            block_configs: vec![sample_config(); 4],
            block_compressed_sizes: vec![100_000, 90_000, 85_000, 60_000],
            block_checksums: vec![11, 22, 33, 44],
        }
    }

    fn sample_prelude() -> StreamPrelude {
        StreamPrelude {
            version: STREAM_FORMAT_VERSION,
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            block_size: 256 * 1024,
            uncompressed_size: Some(1_000_000),
            block_count: Some(4),
            legacy_uniform: None,
        }
    }

    #[test]
    fn container_index_prefix_sums_offsets() {
        let header = sample_header();
        let index = BlockIndex::from_container(&header, 1000).unwrap();
        assert_eq!(index.block_count(), 4);
        assert_eq!(index.uncompressed_size(), 1_000_000);
        assert!(index.checksummed());
        assert_eq!(index.entry(0).compressed_offset, 1000);
        assert_eq!(index.entry(1).compressed_offset, 101_000);
        assert_eq!(index.entry(3).compressed_offset, 1000 + 100_000 + 90_000 + 85_000);
        assert_eq!(index.entry(3).checksum, Some(44));
        assert_eq!(index.entry(2).uncompressed_offset, 2 * 256 * 1024);
        assert_eq!(index.entry(3).uncompressed_size, 1_000_000 - 3 * 256 * 1024);
        // A pre-v4 header (no checksums) indexes with checksum = None.
        let legacy = FileHeader { block_checksums: vec![], ..sample_header() };
        let index = BlockIndex::from_container(&legacy, 0).unwrap();
        assert!(!index.checksummed());
        assert_eq!(index.entry(0).checksum, None);
    }

    #[test]
    fn offset_and_range_lookup() {
        let index = BlockIndex::from_container(&sample_header(), 0).unwrap();
        let bs = 256 * 1024u64;
        // One-byte ranges: the block holding each offset, none past the end.
        assert_eq!(index.blocks_for_range(0..1), 0..1);
        assert_eq!(index.blocks_for_range(bs - 1..bs), 0..1);
        assert_eq!(index.blocks_for_range(bs..bs + 1), 1..2);
        assert_eq!(index.blocks_for_range(999_999..1_000_000), 3..4);
        assert_eq!(index.blocks_for_range(1_000_000..1_000_001), 0..0);
        // Multi-byte ranges.
        assert_eq!(index.blocks_for_range(0..bs), 0..1);
        assert_eq!(index.blocks_for_range(bs - 1..bs + 1), 0..2);
        assert_eq!(index.blocks_for_range(0..1_000_000), 0..4);
        // Clamped and degenerate ranges.
        assert_eq!(index.blocks_for_range(0..u64::MAX), 0..4);
        assert_eq!(index.blocks_for_range(5..5), 0..0);
        assert_eq!(index.blocks_for_range(2_000_000..3_000_000), 0..0);
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = index.blocks_for_range(10..2);
        assert_eq!(reversed, 0..0);
    }

    #[test]
    fn stream_layout_matches_frame_serialization() {
        let prelude = sample_prelude();
        let trailer =
            StreamTrailer { block_compressed_sizes: vec![200, 300, 128, 90], uncompressed_size: 1_000_000 };
        let layouts = stream_frame_layout(&prelude, &trailer, 45).unwrap();
        // v4 frames: varint + 8-byte config + 8-byte checksum before the
        // payload. All sizes here need 2-byte varints except 90.
        assert_eq!(
            layouts[0],
            FrameLayout {
                frame_offset: 45,
                head_len: 2 + 8 + 8,
                payload_len: 200,
                uncompressed_size: 256 * 1024
            }
        );
        assert_eq!(layouts[1].frame_offset, 45 + 18 + 200);
        assert_eq!(layouts[3].head_len, 1 + 8 + 8);

        // A matching serialized head parses; a mismatched length is caught.
        let mut w = ByteWriter::new();
        write_varint(&mut w, 200);
        sample_config().serialize(&mut w);
        w.write_u64_le(0xDEAD_BEEF);
        let head = w.finish();
        assert_eq!(head.len(), layouts[0].head_len);
        let (config, checksum) = parse_stream_frame_head(&head, &prelude, &layouts[0]).unwrap();
        assert_eq!(config, sample_config());
        assert_eq!(checksum, Some(0xDEAD_BEEF));
        assert!(parse_stream_frame_head(&head, &prelude, &layouts[1]).is_err());

        let heads = vec![(sample_config(), Some(1u64)); 4];
        let index = BlockIndex::from_stream(&prelude, &trailer, 45, heads).unwrap();
        assert_eq!(index.entry(0).compressed_offset, 45 + 18);
        assert_eq!(index.entry(1).compressed_offset, 45 + 18 + 200 + 18);
        assert_eq!(index.entry(3).uncompressed_size, 1_000_000 - 3 * 256 * 1024);
        assert!(index.checksummed());
    }

    #[test]
    fn legacy_v2_frames_use_the_prelude_uniform_config() {
        let uniform = BlockConfig::legacy_uniform(EncodingMode::Byte, 16, 0);
        let prelude = StreamPrelude {
            version: crate::stream_frame::LEGACY_STREAM_FORMAT_VERSION,
            legacy_uniform: Some(uniform),
            uncompressed_size: None,
            block_count: None,
            ..sample_prelude()
        };
        let trailer = StreamTrailer { block_compressed_sizes: vec![100, 50], uncompressed_size: 300_000 };
        let layouts = stream_frame_layout(&prelude, &trailer, 43).unwrap();
        // v2 frames carry neither config nor checksum.
        assert_eq!(layouts[0].head_len, 1);
        let mut w = ByteWriter::new();
        write_varint(&mut w, 100);
        let head = w.finish();
        let (config, checksum) = parse_stream_frame_head(&head, &prelude, &layouts[0]).unwrap();
        assert_eq!(config, uniform);
        assert_eq!(checksum, None);
        let index = BlockIndex::from_stream(&prelude, &trailer, 43, vec![(uniform, None); 2]).unwrap();
        assert!(!index.checksummed());
        assert_eq!(index.entry(1).compressed_offset, 43 + 1 + 100 + 1);
        assert_eq!(index.entry(1).uncompressed_size, 300_000 - 256 * 1024);
    }

    #[test]
    fn stream_index_rejects_inconsistent_totals() {
        let prelude = sample_prelude();
        let heads = |n: usize| vec![(sample_config(), Some(0u64)); n];
        // Trailer total disagrees with the (back-patched) prelude total.
        let trailer = StreamTrailer { block_compressed_sizes: vec![10; 4], uncompressed_size: 999_999 };
        assert!(BlockIndex::from_stream(&prelude, &trailer, 45, heads(4)).is_err());
        // Block count disagrees with the total.
        let trailer = StreamTrailer { block_compressed_sizes: vec![10; 3], uncompressed_size: 1_000_000 };
        let open = StreamPrelude { block_count: None, ..prelude.clone() };
        assert!(BlockIndex::from_stream(&open, &trailer, 45, heads(3)).is_err());
        // Wrong number of frame heads.
        let trailer = StreamTrailer { block_compressed_sizes: vec![10; 4], uncompressed_size: 1_000_000 };
        assert!(BlockIndex::from_stream(&prelude, &trailer, 45, heads(3)).is_err());
    }

    #[test]
    fn empty_archive_indexes_to_zero_blocks() {
        let header = FileHeader {
            uncompressed_size: 0,
            block_configs: vec![],
            block_compressed_sizes: vec![],
            block_checksums: vec![],
            ..sample_header()
        };
        let index = BlockIndex::from_container(&header, 16).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.blocks_for_range(0..100), 0..0);
        assert_eq!(index.blocks_for_range(0..1), 0..0);
    }
}
