//! Gompresso: massively-parallel lossless data compression and — above all —
//! decompression.
//!
//! This crate is the Rust reproduction of the system described in
//! *Massively-Parallel Lossless Data Decompression* (Sitaridi et al.,
//! ICPP 2016). It provides:
//!
//! * [`Compressor`] — splits the input into equally-sized data blocks,
//!   LZ77-compresses them independently and in parallel, and entropy-codes
//!   them either with two canonical length-limited Huffman trees per block
//!   (**Gompresso/Bit**) or with an LZ4-style byte-level encoding
//!   (**Gompresso/Byte**). Optionally applies **Dependency Elimination**
//!   during matching so that decompression never stalls on nested
//!   back-references.
//! * [`Decompressor`] — decompresses files with inter-block parallelism
//!   (one thread group per block) and intra-block parallelism (one simulated
//!   GPU warp per block, one sequence per lane), using one of the three
//!   back-reference resolution strategies of the paper:
//!   [`ResolutionStrategy::SequentialCopy`],
//!   [`ResolutionStrategy::MultiRound`] (the ballot/shuffle MRR algorithm of
//!   Figure 5) or [`ResolutionStrategy::DependencyEliminated`].
//! * A transparent GPU cost estimate on demand
//!   ([`Decompressor::simulate`] → [`SimulationReport`] / [`GpuEstimate`]),
//!   produced by the `gompresso-simt` device model from the warp
//!   instruction/memory/round counters collected while the simulated
//!   kernels execute. This stands in for the Tesla K40 measurements of the
//!   paper (see `DESIGN.md` for the substitution rationale). Host
//!   decompression never runs the model.
//!
//! # Quick start
//!
//! ```
//! use gompresso_core::{compress, decompress, CompressorConfig};
//!
//! let data = b"to be or not to be, that is the question ".repeat(100);
//! let config = CompressorConfig::bit_de();           // Gompresso/Bit + DE
//! let compressed = compress(&data, &config).unwrap();
//! let (restored, report) = decompress(&compressed.file).unwrap();
//! assert_eq!(restored, data);
//! assert_eq!(report.uncompressed_size, data.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod compress;
pub mod config;
pub mod decompress;
pub mod error;
pub mod fault;
pub mod planner;
pub mod salvage;
pub mod scan;
pub mod stats;
pub mod strategy;
pub mod stream;
pub mod warp_lz77;

pub use archive::{ArchiveFormat, ArchiveReader};
pub use compress::{compress, CompressedOutput, Compressor};
pub use config::{BlockPlan, CompressorConfig, FileSettings, PlanningMode};
pub use decompress::{decompress, decompress_with, Decompressor, DecompressorConfig};
pub use error::GompressoError;
pub use fault::{FaultPlan, FaultReader, FaultWriter};
pub use planner::plan_block;
#[doc(hidden)]
pub use planner::{planner_for, BlockFeedback};
pub use salvage::{decompress_salvage, salvage_file, BlockRecord, BlockStatus, RecoveryReport};
pub use scan::{scan_count_lines, scan_filter_count, scan_filter_map, scan_lines, ScanOptions, ScanStats};
pub use stats::{CompressionStats, DecompressionReport, GpuEstimate, MrrStats, SimulationReport};
pub use strategy::{ResolutionStrategy, StrategySelection};
pub use stream::{compress_file, decompress_file, StreamCompressor, StreamDecompressor, StreamStats};

// Re-export the pieces of the public API that callers routinely need.
pub use gompresso_format::{BlockConfig, BlockEntry, BlockIndex, CompressedFile, EncodingMode};
pub use gompresso_simt::{CostModel, GpuDeviceModel, PcieLink};

/// Gauges of the process-wide worker pool (the `rayon` shim's) that
/// parallel decodes, range reads, scans and stream jobs run on.
pub mod pool {
    pub use rayon::{jobs_running, threads_started};
}

/// Result alias for Gompresso operations.
pub type Result<T> = std::result::Result<T, GompressoError>;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn configs() -> Vec<CompressorConfig> {
        vec![
            CompressorConfig::bit(),
            CompressorConfig::byte(),
            CompressorConfig::bit_de(),
            CompressorConfig::byte_de(),
        ]
    }

    fn small_block_config(mut c: CompressorConfig) -> CompressorConfig {
        // Small blocks so multi-block paths are exercised even on short
        // proptest inputs.
        c.block_size = 1024;
        c.sequences_per_sub_block = 4;
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// compress → decompress is the identity for every mode, every
        /// strategy, across block boundaries.
        #[test]
        fn end_to_end_roundtrip(
            chunks in proptest::collection::vec(proptest::collection::vec(0u8..16, 1..64), 0..120),
        ) {
            let data: Vec<u8> = chunks.concat();
            for config in configs() {
                let config = small_block_config(config);
                let out = compress(&data, &config).unwrap();
                for strategy in [
                    ResolutionStrategy::SequentialCopy,
                    ResolutionStrategy::MultiRound,
                    ResolutionStrategy::DependencyEliminated,
                ] {
                    let dconf =
                        DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
                    let (restored, _report) = decompress_with(&out.file, &dconf).unwrap();
                    prop_assert_eq!(&restored, &data, "mode {:?} strategy {:?}", config.mode, strategy);
                }
            }
        }

        /// The serialized file round-trips through bytes.
        #[test]
        fn serialized_file_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
            let config = small_block_config(CompressorConfig::bit());
            let out = compress(&data, &config).unwrap();
            let bytes = out.file.serialize();
            let parsed = CompressedFile::deserialize(&bytes).unwrap();
            let (restored, _) = decompress(&parsed).unwrap();
            prop_assert_eq!(restored, data);
        }

        /// Static and adaptive planning both produce decoder-accepted files
        /// whose decompressed output is byte-identical to the input (and to
        /// each other), even though their archives may differ per block.
        #[test]
        fn static_and_adaptive_plans_decode_identically(
            chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..96), 0..80),
        ) {
            let data: Vec<u8> = chunks.concat();
            let static_cfg = small_block_config(CompressorConfig::bit_de());
            let adaptive_cfg = small_block_config(CompressorConfig::auto());
            let static_out = compress(&data, &static_cfg).unwrap();
            let adaptive_out = compress(&data, &adaptive_cfg).unwrap();
            for out in [&static_out, &adaptive_out] {
                let parsed = CompressedFile::deserialize(&out.file.serialize()).unwrap();
                let (restored, _) = decompress(&parsed).unwrap();
                prop_assert_eq!(&restored, &data);
            }
        }
    }
}
