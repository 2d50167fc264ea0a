//! The Gompresso compressed file format.
//!
//! The paper's Figure 3 defines a self-describing container: a file header
//! (dictionary size, maximum match length, uncompressed size, block size,
//! tokens per sub-block, per-block sizes) followed by the compressed data
//! blocks. Each Gompresso/Bit block carries its two canonical Huffman trees
//! (one for literals and match lengths, one for match offsets), the list of
//! encoded sub-block sizes — which is what lets every GPU thread seek
//! directly to its own sub-block — and the Huffman bitstream itself.
//! Gompresso/Byte blocks store the LZ4-style byte-level encoding instead.
//!
//! This crate owns:
//!
//! * [`header::FileHeader`] — the container header and its serialization,
//! * [`block_config`] — the per-block codec record (mode, resolution
//!   strategy, entropy parameters) that makes heterogeneous v3 archives
//!   possible,
//! * [`token_code`] — the symbol mapping used by the bit-level encoding
//!   (literal/length alphabet, offset alphabet, extra bits),
//! * [`bit_block`] — Huffman-coded block payloads with sub-block seeking,
//! * [`byte_block`] — the byte-level (Gompresso/Byte) block payload,
//! * [`file`](mod@file) — the top-level container tying header and payloads together,
//! * [`stream_frame`] — the incremental container framing used by the
//!   bounded-memory streaming pipeline in `gompresso-core::stream`,
//! * [`block_index`] — the random-access seek structure built from either
//!   layout's block table, consumed by `gompresso-core::archive`.
//!
//! The compressor and the parallel decompressor live in `gompresso-core`;
//! everything here is deterministic, sequential, and independent of the
//! execution strategy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit_block;
pub mod block_config;
pub mod block_index;
pub mod byte_block;
pub mod error;
pub mod file;
pub mod hash;
pub mod header;
pub mod stream_frame;
pub mod token_code;

pub use bit_block::{BitBlock, EncodeScratch, InterleaveScratch, SubBlockStats};
pub use block_config::{BlockConfig, ResolutionStrategy, BLOCK_CONFIG_LEN};
pub use block_index::{parse_stream_frame_head, stream_frame_layout, BlockEntry, BlockIndex, FrameLayout};
pub use byte_block::{ByteBlock, ByteBlockView};
pub use error::FormatError;
pub use file::{BlockPayload, CompressedFile};
pub use hash::{content_checksum, xxh64, CHECKSUM_SEED};
pub use header::{EncodingMode, FileHeader, MAX_BLOCK_COUNT};
pub use stream_frame::{
    prelude_len, StreamPrelude, StreamTrailer, LEGACY_STREAM_FORMAT_VERSION, LEGACY_STREAM_FORMAT_VERSION_V3,
    STREAM_FORMAT_VERSION,
};

/// Result alias for format operations.
pub type Result<T> = std::result::Result<T, FormatError>;

/// Magic bytes identifying a Gompresso file ("GPSO").
pub const MAGIC: [u8; 4] = *b"GPSO";

/// Current in-memory container version: per-block codec configs plus the
/// v4 integrity layer (per-block content checksums and a header checksum).
pub const FORMAT_VERSION: u8 = 4;

/// The v3 container: per-block codec configs, no checksums. Still fully
/// readable; checksum verification is skipped because nothing is stored.
pub const LEGACY_FORMAT_VERSION_V3: u8 = 3;

/// The original uniform-codec container version. Still readable; the
/// parser synthesizes one uniform [`BlockConfig`] from its file-wide
/// fields.
pub const LEGACY_FORMAT_VERSION: u8 = 1;
