//! Top-level error type.

use gompresso_format::FormatError;
use gompresso_huffman::HuffmanError;
use gompresso_lz77::Lz77Error;
use std::fmt;

/// Errors surfaced by the Gompresso compressor and decompressor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GompressoError {
    /// A configuration value is invalid or internally inconsistent.
    InvalidConfig {
        /// Description of the inconsistency.
        reason: String,
    },
    /// The compressed file is malformed.
    Format(FormatError),
    /// An entropy-coding error occurred.
    Huffman(HuffmanError),
    /// An LZ77 structural error occurred.
    Lz77(Lz77Error),
    /// Decompression produced output whose size disagrees with the header.
    OutputSizeMismatch {
        /// Size declared by the header.
        declared: u64,
        /// Size actually produced.
        produced: u64,
    },
    /// The Dependency Elimination strategy was requested for a file whose
    /// blocks contain same-warp nested back-references.
    DependencyEliminationViolated {
        /// Index of the offending block.
        block: usize,
    },
    /// An I/O error occurred in the streaming pipeline. The original
    /// `std::io::Error` is flattened to its kind and message so this type
    /// stays `Clone`/`PartialEq`.
    Io {
        /// The `std::io::ErrorKind` of the underlying error.
        kind: std::io::ErrorKind,
        /// The error's display message.
        message: String,
    },
    /// A block's decompressed bytes do not hash to the content checksum
    /// recorded when it was compressed: the archive (or the decode) is
    /// corrupt even though the payload was structurally parseable.
    BlockChecksumMismatch {
        /// Index of the offending block.
        block: u64,
        /// Checksum recorded in the archive.
        stored: u64,
        /// Checksum of the bytes actually produced.
        computed: u64,
    },
    /// A stream pipeline worker panicked on a block. The panic was caught
    /// on the worker; the run stopped cleanly instead of aborting the
    /// process.
    StagePanicked {
        /// Which stage panicked: "compress worker" or "decompress worker".
        stage: &'static str,
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// An error, annotated with the block it occurred in and (for streams)
    /// the byte offset of that block's frame in the compressed input.
    InBlock {
        /// Index of the block being processed when the error occurred.
        block: u64,
        /// Byte offset of the block's frame in the compressed stream;
        /// `None` for in-memory containers.
        offset: Option<u64>,
        /// The underlying error.
        source: Box<GompressoError>,
    },
}

/// A [`FormatError::InvalidHeaderField`] as a [`GompressoError`].
pub(crate) fn invalid_field(field: &'static str, value: u64) -> GompressoError {
    GompressoError::Format(FormatError::InvalidHeaderField { field, value })
}

impl GompressoError {
    /// Wraps `self` with block context (see [`GompressoError::InBlock`]);
    /// no-op re-wrapping is avoided so the innermost context wins.
    pub fn in_block(self, block: u64, offset: Option<u64>) -> Self {
        match self {
            GompressoError::InBlock { .. } => self,
            other => GompressoError::InBlock { block, offset, source: Box::new(other) },
        }
    }

    /// The error stripped of any block-context wrapper.
    pub fn root_cause(&self) -> &GompressoError {
        match self {
            GompressoError::InBlock { source, .. } => source.root_cause(),
            other => other,
        }
    }

    /// Whether this error indicates archive corruption (as opposed to a
    /// configuration or I/O problem) — the distinction the `verify` tool
    /// uses for its exit code.
    pub fn is_corruption(&self) -> bool {
        match self.root_cause() {
            GompressoError::Format(_)
            | GompressoError::Huffman(_)
            | GompressoError::Lz77(_)
            | GompressoError::OutputSizeMismatch { .. }
            | GompressoError::DependencyEliminationViolated { .. }
            | GompressoError::BlockChecksumMismatch { .. } => true,
            GompressoError::Io { kind, .. } => *kind == std::io::ErrorKind::UnexpectedEof,
            _ => false,
        }
    }
}

impl fmt::Display for GompressoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GompressoError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            GompressoError::Format(e) => write!(f, "format error: {e}"),
            GompressoError::Huffman(e) => write!(f, "huffman error: {e}"),
            GompressoError::Lz77(e) => write!(f, "lz77 error: {e}"),
            GompressoError::OutputSizeMismatch { declared, produced } => {
                write!(f, "output size mismatch: header declares {declared} bytes, produced {produced}")
            }
            GompressoError::DependencyEliminationViolated { block } => write!(
                f,
                "block {block} contains same-warp nested back-references; it was not compressed with DE"
            ),
            GompressoError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            GompressoError::BlockChecksumMismatch { block, stored, computed } => write!(
                f,
                "block {block} content checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            GompressoError::StagePanicked { stage, message } => {
                write!(f, "{stage} stage panicked: {message}")
            }
            GompressoError::InBlock { block, offset, source } => match offset {
                Some(off) => write!(f, "block {block} (frame at byte {off}): {source}"),
                None => write!(f, "block {block}: {source}"),
            },
        }
    }
}

impl std::error::Error for GompressoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GompressoError::Format(e) => Some(e),
            GompressoError::Huffman(e) => Some(e),
            GompressoError::Lz77(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for GompressoError {
    fn from(e: FormatError) -> Self {
        GompressoError::Format(e)
    }
}

impl From<HuffmanError> for GompressoError {
    fn from(e: HuffmanError) -> Self {
        GompressoError::Huffman(e)
    }
}

impl From<Lz77Error> for GompressoError {
    fn from(e: Lz77Error) -> Self {
        GompressoError::Lz77(e)
    }
}

impl From<std::io::Error> for GompressoError {
    fn from(e: std::io::Error) -> Self {
        GompressoError::Io { kind: e.kind(), message: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: GompressoError = FormatError::BadMagic.into();
        assert!(e.to_string().contains("magic"));
        let e: GompressoError = HuffmanError::EmptyAlphabet.into();
        assert!(matches!(e, GompressoError::Huffman(_)));
        let e: GompressoError = Lz77Error::ZeroOffset { sequence: 1 }.into();
        assert!(matches!(e, GompressoError::Lz77(_)));
        let e = GompressoError::OutputSizeMismatch { declared: 10, produced: 5 };
        assert!(e.to_string().contains("10"));
        let e = GompressoError::InvalidConfig { reason: "block size is zero".into() };
        assert!(e.to_string().contains("block size"));
    }
}
