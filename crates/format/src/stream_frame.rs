//! Streaming (v4) file framing.
//!
//! The in-memory container (see [`crate::file`]) needs every block's
//! compressed size *before* the first payload byte can be written, which
//! forces the compressor to buffer the whole file. The streaming framing
//! keeps the paper's back-to-back block layout but makes the container
//! incremental:
//!
//! ```text
//! prelude | varint(len₀) config₀ sum₀ block₀ | varint(len₁) config₁ sum₁ block₁ | … | varint(0) | trailer
//! ```
//!
//! * The **prelude** is a fixed [`PRELUDE_LEN`]-byte header carrying the
//!   file-wide match geometry, protected by an XXH64 checksum over the
//!   geometry fields. Its two totals (uncompressed size, block count) are
//!   written as the [`UNKNOWN_TOTAL`] sentinel when the sink cannot seek
//!   and back-patched in place (offsets [`UNCOMPRESSED_SIZE_OFFSET`] /
//!   [`BLOCK_COUNT_OFFSET`]) when it can. The totals sit *after* the
//!   checksum so back-patching never invalidates it; they are instead
//!   cross-checked against the trailer by the stream reader.
//! * Each **block frame** is the block's serialized payload prefixed with
//!   its length, its [`BlockConfig`], and (v4) the XXH64 checksum of the
//!   block's *decompressed* bytes, so a sequential reader verifies every
//!   block as it lands without the block table. Legacy v3 frames carry no
//!   checksum; legacy v2 frames carry neither checksum nor config — the
//!   uniform config parsed from the v2 prelude applies.
//! * A zero-length frame terminates the block list; the **trailer** then
//!   repeats the full block-size table (restoring the paper's "offsets
//!   without scanning" property for readers that have the whole file), the
//!   total uncompressed size, its own XXH64 checksum, its own length, and
//!   a closing magic — so a random-access reader can locate the table from
//!   the end of the file and trust what it finds.
//!
//! Because the prelude's length depends on its version byte, readers fetch
//! [`PRELUDE_HEAD_LEN`] bytes first, size the rest with [`prelude_len`],
//! and hand the whole thing to [`StreamPrelude::deserialize`].
//!
//! This module is the one definition of the frame head: the parsed
//! prelude says what follows each length varint
//! ([`StreamPrelude::frame_overhead`], [`StreamPrelude::parse_frame_head`],
//! [`StreamPrelude::checksummed`]), and [`write_frame_head`] is the
//! compressor's only way to emit one.
//!
//! Everything here is pure in-memory (de)serialization; the actual
//! `std::io` plumbing lives in `gompresso-core::stream`, which is also where
//! the framing is cross-checked against what was actually read.

use crate::block_config::{BlockConfig, BLOCK_CONFIG_LEN};
use crate::hash::{xxh64, CHECKSUM_SEED};
use crate::header::{EncodingMode, MAX_BLOCK_COUNT};
use crate::{FormatError, Result, MAGIC};
use gompresso_bitstream::{read_varint, write_varint, ByteReader, ByteWriter};

/// Format version byte identifying the current streaming container
/// (per-frame content checksums, prelude and trailer checksums).
pub const STREAM_FORMAT_VERSION: u8 = 4;

/// The previous streaming version: per-frame codec configs, no checksums.
/// Still readable.
pub const LEGACY_STREAM_FORMAT_VERSION_V3: u8 = 3;

/// The original streaming version (uniform codec config in the prelude,
/// configless frames). Still readable.
pub const LEGACY_STREAM_FORMAT_VERSION: u8 = 2;

/// Magic bytes closing a stream trailer ("GPST").
pub const TRAILER_MAGIC: [u8; 4] = *b"GPST";

/// Sentinel for a prelude total that is only known from the trailer.
pub const UNKNOWN_TOTAL: u64 = u64::MAX;

/// Bytes a reader must fetch before it knows the prelude's full length
/// (magic plus version byte).
pub const PRELUDE_HEAD_LEN: usize = 5;

/// Serialized v4 prelude size in bytes (fixed so totals can be
/// back-patched).
pub const PRELUDE_LEN: usize = 45;

/// Serialized size of the legacy v3 prelude (no checksum field).
pub const LEGACY_PRELUDE_LEN_V3: usize = 37;

/// Serialized size of the legacy v2 prelude.
pub const LEGACY_PRELUDE_LEN: usize = 43;

/// Byte offset of the prelude checksum inside the v4 prelude; the checksum
/// covers the bytes before it (magic, version, geometry).
pub const PRELUDE_CHECKSUM_OFFSET: usize = 21;

/// Byte offset of the `uncompressed_size` field inside the v4 prelude.
pub const UNCOMPRESSED_SIZE_OFFSET: usize = 29;

/// Byte offset of the `block_count` field inside the v4 prelude.
pub const BLOCK_COUNT_OFFSET: usize = 37;

/// Full serialized prelude length for a given version byte.
pub fn prelude_len(version: u8) -> Result<usize> {
    match version {
        STREAM_FORMAT_VERSION => Ok(PRELUDE_LEN),
        LEGACY_STREAM_FORMAT_VERSION_V3 => Ok(LEGACY_PRELUDE_LEN_V3),
        LEGACY_STREAM_FORMAT_VERSION => Ok(LEGACY_PRELUDE_LEN),
        other => Err(FormatError::UnsupportedVersion(other)),
    }
}

/// The fixed-size head of a streaming file: the file-wide match geometry,
/// plus the two totals that a non-seekable writer only learns at the end.
///
/// Since v3 the codec configuration travels per block frame; a legacy v2
/// prelude instead carried one file-wide config, surfaced here as
/// [`StreamPrelude::legacy_uniform`] so the reader can apply it to every
/// (configless) v2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPrelude {
    /// The stream format version this prelude was parsed from (writers
    /// always serialize the current [`STREAM_FORMAT_VERSION`]). Tells the
    /// reader whether frames carry configs (v3+) and checksums (v4+).
    pub version: u8,
    /// Sliding-window size in bytes used during compression.
    pub window_size: u32,
    /// Minimum match length used during compression.
    pub min_match_len: u32,
    /// Maximum match length used during compression.
    pub max_match_len: u32,
    /// Uncompressed size of each data block (the last may be shorter).
    pub block_size: u32,
    /// Total uncompressed size; `None` when deferred to the trailer.
    pub uncompressed_size: Option<u64>,
    /// Number of block frames; `None` when deferred to the trailer.
    pub block_count: Option<u64>,
    /// The uniform per-block config synthesized from a legacy v2 prelude;
    /// `None` for v3 streams, whose frames carry their own configs.
    pub legacy_uniform: Option<BlockConfig>,
}

impl StreamPrelude {
    /// Validates the parameter fields (totals are validated against the
    /// trailer by the stream reader once both are known).
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 || u64::from(self.block_size) > (1 << 30) {
            return Err(FormatError::InvalidHeaderField {
                field: "block_size",
                value: u64::from(self.block_size),
            });
        }
        if self.window_size == 0 || !self.window_size.is_power_of_two() {
            return Err(FormatError::InvalidHeaderField {
                field: "window_size",
                value: u64::from(self.window_size),
            });
        }
        if self.min_match_len < 1 || self.max_match_len < self.min_match_len {
            return Err(FormatError::InvalidHeaderField {
                field: "max_match_len",
                value: u64::from(self.max_match_len),
            });
        }
        if let Some(config) = &self.legacy_uniform {
            config.validate()?;
        }
        if let Some(count) = self.block_count {
            if count > MAX_BLOCK_COUNT {
                return Err(FormatError::InvalidHeaderField { field: "block_count", value: count });
            }
        }
        Ok(())
    }

    /// Serializes the prelude to its fixed [`PRELUDE_LEN`]-byte v4 form,
    /// writing [`UNKNOWN_TOTAL`] for totals that are not yet known.
    /// (Writers always emit v4; `legacy_uniform` is a read-side artifact.)
    ///
    /// The checksum covers the geometry bytes before it; the two totals
    /// after it stay patchable without re-hashing and are cross-checked
    /// against the trailer by the stream reader instead.
    pub fn serialize(&self) -> [u8; PRELUDE_LEN] {
        let mut w = ByteWriter::with_capacity(PRELUDE_LEN);
        w.write_bytes(&MAGIC);
        w.write_u8(STREAM_FORMAT_VERSION);
        w.write_u32_le(self.window_size);
        w.write_u32_le(self.min_match_len);
        w.write_u32_le(self.max_match_len);
        w.write_u32_le(self.block_size);
        debug_assert_eq!(w.len(), PRELUDE_CHECKSUM_OFFSET);
        let checksum = xxh64(w.as_slice(), CHECKSUM_SEED);
        w.write_u64_le(checksum);
        let size_at = w.reserve_u64_le();
        let count_at = w.reserve_u64_le();
        debug_assert_eq!(size_at, UNCOMPRESSED_SIZE_OFFSET);
        debug_assert_eq!(count_at, BLOCK_COUNT_OFFSET);
        w.patch_u64_le(size_at, self.uncompressed_size.unwrap_or(UNKNOWN_TOTAL));
        w.patch_u64_le(count_at, self.block_count.unwrap_or(UNKNOWN_TOTAL));
        let bytes = w.finish();
        let mut out = [0u8; PRELUDE_LEN];
        out.copy_from_slice(&bytes);
        out
    }

    /// Parses and validates a prelude (v4, or the legacy v3/v2 layouts).
    /// `bytes` must hold exactly `prelude_len(bytes[4])` bytes.
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let (prelude, checksum_ok) = Self::deserialize_lenient(bytes)?;
        if !checksum_ok {
            let stored = u64::from_le_bytes(
                bytes[PRELUDE_CHECKSUM_OFFSET..PRELUDE_CHECKSUM_OFFSET + 8].try_into().unwrap(),
            );
            let computed = xxh64(&bytes[..PRELUDE_CHECKSUM_OFFSET], CHECKSUM_SEED);
            return Err(FormatError::ChecksumMismatch { what: "stream prelude", stored, computed });
        }
        Ok(prelude)
    }

    /// Parses a prelude but reports a v4 checksum mismatch as a flag
    /// (`false`) instead of an error, as long as the fields themselves
    /// still validate. The salvage decoder uses this to keep going when
    /// only the prelude checksum byte was hit. Legacy preludes (no
    /// checksum) report `true`.
    pub fn deserialize_lenient(bytes: &[u8]) -> Result<(Self, bool)> {
        let mut r = ByteReader::new(bytes);
        let magic = r.read_bytes(4)?;
        if magic != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = r.read_u8()?;
        if bytes.len() != prelude_len(version)? {
            return Err(FormatError::InvalidHeaderField { field: "prelude_len", value: bytes.len() as u64 });
        }
        let legacy_uniform = if version == LEGACY_STREAM_FORMAT_VERSION {
            Some(EncodingMode::from_u8(r.read_u8()?)?)
        } else {
            None
        };
        let window_size = r.read_u32_le()?;
        let min_match_len = r.read_u32_le()?;
        let max_match_len = r.read_u32_le()?;
        let block_size = r.read_u32_le()?;
        let legacy_uniform = match legacy_uniform {
            Some(mode) => {
                let sequences_per_sub_block = r.read_u32_le()?;
                let max_codeword_len = r.read_u8()?;
                Some(BlockConfig::legacy_uniform(mode, sequences_per_sub_block, max_codeword_len))
            }
            None => None,
        };
        let checksum_ok = if version == STREAM_FORMAT_VERSION {
            let computed = xxh64(&bytes[..r.position()], CHECKSUM_SEED);
            let stored = r.read_u64_le()?;
            stored == computed
        } else {
            true
        };
        let uncompressed_size = match r.read_u64_le()? {
            UNKNOWN_TOTAL => None,
            v => Some(v),
        };
        let block_count = match r.read_u64_le()? {
            UNKNOWN_TOTAL => None,
            v => Some(v),
        };
        let prelude = StreamPrelude {
            version,
            window_size,
            min_match_len,
            max_match_len,
            block_size,
            uncompressed_size,
            block_count,
            legacy_uniform,
        };
        prelude.validate()?;
        Ok((prelude, checksum_ok))
    }

    /// Whether this stream's frames and trailer carry XXH64 checksums (v4).
    pub fn checksummed(&self) -> bool {
        self.version == STREAM_FORMAT_VERSION
    }

    /// Fixed per-frame bytes between the length varint and the payload:
    /// the config record (v3+) and the content checksum (v4).
    pub fn frame_overhead(&self) -> usize {
        let config = if self.legacy_uniform.is_some() { 0 } else { BLOCK_CONFIG_LEN };
        let checksum = if self.checksummed() { 8 } else { 0 };
        config + checksum
    }

    /// Largest payload length a frame may declare. No valid payload
    /// compresses a block to more than ~1.5× its size (incompressible data
    /// costs the byte-mode run framing or the bit-mode code tables plus
    /// sub-block list, both a few percent), so a longer frame can only
    /// come from a crafted stream and is rejected before any buffer is
    /// sized from it.
    pub fn max_payload_len(&self) -> u64 {
        2 * u64::from(self.block_size) + 4096
    }

    /// Parses the [`frame_overhead`](Self::frame_overhead) bytes that
    /// follow a frame's length varint into the block's config (the
    /// prelude's uniform config for configless v2 frames) and its content
    /// checksum (`None` before v4).
    pub fn parse_frame_head(&self, r: &mut ByteReader<'_>) -> Result<(BlockConfig, Option<u64>)> {
        let config = match self.legacy_uniform {
            Some(uniform) => uniform,
            None => BlockConfig::deserialize(r)?,
        };
        let checksum = if self.checksummed() { Some(r.read_u64_le()?) } else { None };
        Ok((config, checksum))
    }
}

/// Writes the head of a current-version block frame:
/// `varint(payload_len) | config | checksum`, where `checksum` is the
/// content checksum of the block's uncompressed bytes.
pub fn write_frame_head(w: &mut ByteWriter, payload_len: u32, config: &BlockConfig, checksum: u64) {
    write_varint(w, u64::from(payload_len));
    config.serialize(w);
    w.write_u64_le(checksum);
}

/// The stream trailer: the complete block-size table plus the uncompressed
/// total, self-locating from the end of the file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamTrailer {
    /// Compressed payload size of every block, in order.
    pub block_compressed_sizes: Vec<u32>,
    /// Total uncompressed size of the file.
    pub uncompressed_size: u64,
}

impl StreamTrailer {
    /// Serializes the trailer (always the current v4 layout): varint block
    /// count, varint sizes, `u64` uncompressed size, `u64` XXH64 checksum
    /// of the bytes so far, `u32` trailer length (bytes before this field),
    /// closing magic.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(24 + 5 * self.block_compressed_sizes.len());
        write_varint(&mut w, self.block_compressed_sizes.len() as u64);
        for &size in &self.block_compressed_sizes {
            write_varint(&mut w, u64::from(size));
        }
        w.write_u64_le(self.uncompressed_size);
        let checksum = xxh64(w.as_slice(), CHECKSUM_SEED);
        w.write_u64_le(checksum);
        let table_len = w.len() as u32;
        w.write_u32_le(table_len);
        w.write_bytes(&TRAILER_MAGIC);
        w.finish()
    }

    /// Parses a trailer from `bytes`, which must hold exactly the trailer
    /// (what the stream reader has left after the zero-length terminator
    /// frame, or what a random-access reader located via the tail fields).
    /// `checksummed` says whether the stream version carries a trailer
    /// checksum (v4) or not (legacy v2/v3).
    pub fn deserialize(bytes: &[u8], checksummed: bool) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let count_raw = read_varint(&mut r)?;
        if count_raw > MAX_BLOCK_COUNT {
            return Err(FormatError::InvalidHeaderField { field: "block_count", value: count_raw });
        }
        let count = usize::try_from(count_raw)
            .map_err(|_| FormatError::InvalidHeaderField { field: "block_count", value: count_raw })?;
        let mut block_compressed_sizes = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let size = read_varint(&mut r)?;
            if size == 0 || size > u64::from(u32::MAX) {
                return Err(FormatError::InvalidHeaderField { field: "block_compressed_size", value: size });
            }
            block_compressed_sizes.push(size as u32);
        }
        let uncompressed_size = r.read_u64_le()?;
        if checksummed {
            let computed = xxh64(&bytes[..r.position()], CHECKSUM_SEED);
            let stored = r.read_u64_le()?;
            if stored != computed {
                return Err(FormatError::ChecksumMismatch { what: "stream trailer", stored, computed });
            }
        }
        let declared_table_len = r.read_u32_le()?;
        if u64::from(declared_table_len) != (r.position() - 4) as u64 {
            return Err(FormatError::InvalidHeaderField {
                field: "trailer_len",
                value: u64::from(declared_table_len),
            });
        }
        if r.read_bytes(4)? != TRAILER_MAGIC {
            return Err(FormatError::BadMagic);
        }
        if !r.is_empty() {
            return Err(FormatError::InvalidHeaderField {
                field: "trailer_trailing_bytes",
                value: r.remaining() as u64,
            });
        }
        Ok(StreamTrailer { block_compressed_sizes, uncompressed_size })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_config::ResolutionStrategy;

    fn sample_prelude() -> StreamPrelude {
        StreamPrelude {
            version: STREAM_FORMAT_VERSION,
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            block_size: 256 * 1024,
            uncompressed_size: None,
            block_count: None,
            legacy_uniform: None,
        }
    }

    /// Byte-for-byte the 43-byte layout v2 streams on disk carry.
    fn legacy_v2_bytes(mode: u8, seqs: u32, cwl: u8) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_bytes(&MAGIC);
        w.write_u8(LEGACY_STREAM_FORMAT_VERSION);
        w.write_u8(mode);
        w.write_u32_le(8 * 1024);
        w.write_u32_le(3);
        w.write_u32_le(64);
        w.write_u32_le(256 * 1024);
        w.write_u32_le(seqs);
        w.write_u8(cwl);
        w.write_u64_le(UNKNOWN_TOTAL);
        w.write_u64_le(7);
        w.finish()
    }

    #[test]
    fn prelude_roundtrip_with_and_without_totals() {
        let mut p = sample_prelude();
        let bytes = p.serialize();
        assert_eq!(bytes.len(), PRELUDE_LEN);
        assert_eq!(prelude_len(bytes[4]).unwrap(), PRELUDE_LEN);
        assert_eq!(StreamPrelude::deserialize(&bytes).unwrap(), p);

        p.uncompressed_size = Some(1_000_000);
        p.block_count = Some(4);
        let bytes = p.serialize();
        assert_eq!(StreamPrelude::deserialize(&bytes).unwrap(), p);
    }

    #[test]
    fn legacy_v2_prelude_parses_with_uniform_config() {
        let bytes = legacy_v2_bytes(0, 16, 10);
        assert_eq!(bytes.len(), LEGACY_PRELUDE_LEN);
        assert_eq!(prelude_len(bytes[4]).unwrap(), LEGACY_PRELUDE_LEN);
        let p = StreamPrelude::deserialize(&bytes).unwrap();
        assert_eq!(p.legacy_uniform, Some(BlockConfig::legacy_uniform(EncodingMode::Bit, 16, 10)));
        assert_eq!(p.legacy_uniform.unwrap().strategy, ResolutionStrategy::MultiRound);
        assert_eq!(p.uncompressed_size, None);
        assert_eq!(p.block_count, Some(7));
        // v2 parameter validation still applies through the synthesized
        // config: invalid mode, zero sub-block count, CWL out of range.
        assert!(StreamPrelude::deserialize(&legacy_v2_bytes(9, 16, 10)).is_err());
        assert!(StreamPrelude::deserialize(&legacy_v2_bytes(0, 0, 10)).is_err());
        assert!(StreamPrelude::deserialize(&legacy_v2_bytes(0, 16, 1)).is_err());
        assert!(StreamPrelude::deserialize(&legacy_v2_bytes(1, 16, 0)).is_ok());
        // Truncations of the legacy form never parse (wrong length for the
        // declared version).
        for cut in 0..bytes.len() {
            assert!(StreamPrelude::deserialize(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn frame_head_roundtrips_at_every_version() {
        let config = BlockConfig::legacy_uniform(EncodingMode::Bit, 16, 10);
        let mut w = ByteWriter::new();
        write_frame_head(&mut w, 300, &config, 0xFEED);
        let head = w.finish();
        let p = sample_prelude();
        assert_eq!(head.len(), 2 + p.frame_overhead());
        let mut r = ByteReader::new(&head);
        assert_eq!(read_varint(&mut r).unwrap(), 300);
        assert_eq!(p.parse_frame_head(&mut r).unwrap(), (config, Some(0xFEED)));
        assert!(r.is_empty());
        // v3 frames carry a config but no checksum; v2 frames neither.
        let v3 = StreamPrelude { version: LEGACY_STREAM_FORMAT_VERSION_V3, ..sample_prelude() };
        assert_eq!(v3.frame_overhead(), BLOCK_CONFIG_LEN);
        assert_eq!(v3.parse_frame_head(&mut ByteReader::new(&head[2..])).unwrap(), (config, None));
        let v2 = StreamPrelude::deserialize(&legacy_v2_bytes(0, 16, 10)).unwrap();
        assert_eq!(v2.frame_overhead(), 0);
        assert!(!v2.checksummed() && !v3.checksummed() && p.checksummed());
        assert_eq!(
            v2.parse_frame_head(&mut ByteReader::new(&[])).unwrap(),
            (v2.legacy_uniform.unwrap(), None)
        );
        // A v4 head cut inside its checksum does not parse.
        assert!(p.parse_frame_head(&mut ByteReader::new(&head[2..head.len() - 1])).is_err());
    }

    #[test]
    fn prelude_rejects_v1_and_garbage() {
        let p = sample_prelude();
        let mut bytes = p.serialize();
        bytes[4] = 1; // in-memory v1 version byte in a stream frame
        assert!(matches!(StreamPrelude::deserialize(&bytes), Err(FormatError::UnsupportedVersion(1))));
        let mut bytes = p.serialize();
        bytes[0] = b'X';
        assert!(matches!(StreamPrelude::deserialize(&bytes), Err(FormatError::BadMagic)));
        // A v2 version byte on a v3-length buffer is a length mismatch.
        let mut bytes = p.serialize();
        bytes[4] = LEGACY_STREAM_FORMAT_VERSION;
        assert!(StreamPrelude::deserialize(&bytes).is_err());
    }

    #[test]
    fn prelude_validates_parameters() {
        let bad_block = StreamPrelude { block_size: 0, ..sample_prelude() };
        assert!(bad_block.validate().is_err());
        let bad_window = StreamPrelude { window_size: 1000, ..sample_prelude() };
        assert!(bad_window.validate().is_err());
        let bad_match = StreamPrelude { min_match_len: 10, max_match_len: 3, ..sample_prelude() };
        assert!(bad_match.validate().is_err());
        let bad_count = StreamPrelude { block_count: Some(MAX_BLOCK_COUNT + 1), ..sample_prelude() };
        assert!(bad_count.validate().is_err());
    }

    #[test]
    fn trailer_roundtrip() {
        let t = StreamTrailer { block_compressed_sizes: vec![100, 2000, 3], uncompressed_size: 777 };
        let bytes = t.serialize();
        assert_eq!(StreamTrailer::deserialize(&bytes, true).unwrap(), t);
        let empty = StreamTrailer::default();
        assert_eq!(StreamTrailer::deserialize(&empty.serialize(), true).unwrap(), empty);
    }

    #[test]
    fn legacy_trailer_layout_still_parses() {
        // Byte-for-byte the checksum-less layout v2/v3 streams carry.
        let mut w = ByteWriter::new();
        write_varint(&mut w, 2);
        write_varint(&mut w, 5);
        write_varint(&mut w, 6);
        w.write_u64_le(11);
        let table_len = w.len() as u32;
        w.write_u32_le(table_len);
        w.write_bytes(&TRAILER_MAGIC);
        let bytes = w.finish();
        let t = StreamTrailer::deserialize(&bytes, false).unwrap();
        assert_eq!(t, StreamTrailer { block_compressed_sizes: vec![5, 6], uncompressed_size: 11 });
    }

    #[test]
    fn trailer_rejects_corruption() {
        let t = StreamTrailer { block_compressed_sizes: vec![5, 6], uncompressed_size: 11 };
        let good = t.serialize();
        // Truncation at every cut point is an error, never a panic.
        for cut in 0..good.len() {
            assert!(StreamTrailer::deserialize(&good[..cut], true).is_err(), "cut {cut}");
        }
        // Every single-bit flip anywhere in the trailer is detected.
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(StreamTrailer::deserialize(&bad, true).is_err(), "flip {byte}:{bit} parsed");
            }
        }
        // Trailing garbage after the magic.
        let mut long = good.clone();
        long.push(0);
        assert!(StreamTrailer::deserialize(&long, true).is_err());
        // Hostile block count cannot over-allocate.
        let mut w = ByteWriter::new();
        write_varint(&mut w, u64::MAX);
        assert!(StreamTrailer::deserialize(&w.finish(), true).is_err());
        // Zero-sized blocks are impossible (frames are self-delimiting).
        let zero = StreamTrailer { block_compressed_sizes: vec![0], uncompressed_size: 0 }.serialize();
        assert!(StreamTrailer::deserialize(&zero, true).is_err());
    }

    #[test]
    fn prelude_geometry_corruption_is_detected() {
        // Flips in the covered region (magic..block_size) and in the
        // checksum itself must be rejected; the trailing totals are
        // deliberately outside the checksum (they get back-patched) and
        // are cross-checked against the trailer by the stream reader.
        let bytes = sample_prelude().serialize();
        for byte in 0..UNCOMPRESSED_SIZE_OFFSET {
            for bit in 0..8 {
                let mut bad = bytes;
                bad[byte] ^= 1 << bit;
                assert!(StreamPrelude::deserialize(&bad).is_err(), "flip {byte}:{bit} parsed");
            }
        }
        // Lenient parse keeps the fields when only the checksum is wrong.
        let mut bad = bytes;
        bad[PRELUDE_CHECKSUM_OFFSET] ^= 1;
        let (p, ok) = StreamPrelude::deserialize_lenient(&bad).unwrap();
        assert!(!ok);
        assert_eq!(p.block_size, sample_prelude().block_size);
    }
}
