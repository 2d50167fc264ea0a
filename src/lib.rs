//! Gompresso — massively-parallel lossless data decompression.
//!
//! This is the facade crate of the workspace: it re-exports the public API
//! of the individual crates so applications can depend on a single package.
//! See `README.md` for the architecture overview and `DESIGN.md` for how the
//! reproduction maps onto the ICPP 2016 paper.
//!
//! ```
//! use gompresso::{compress, decompress, CompressorConfig, CostModel, Decompressor};
//!
//! let data = b"compress me, decompress me, massively in parallel ".repeat(64);
//! let out = compress(&data, &CompressorConfig::bit_de()).unwrap();
//! // Host decode: bytes, sizes and wall time.
//! let (restored, report) = decompress(&out.file).unwrap();
//! assert_eq!(restored, data);
//! // Simulated Tesla K40: the warp model runs only when asked for.
//! let k40 = Decompressor::default().simulate(&out.file, &CostModel::tesla_k40()).unwrap();
//! println!("ratio {:.2}, host {:.2} GB/s, est. K40 {:.1} GB/s",
//!          out.stats.ratio(), report.host_bandwidth() / 1e9, k40.gpu_bandwidth_no_pcie() / 1e9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gompresso_core::{
    compress, compress_file, decompress, decompress_file, decompress_salvage, decompress_with, planner_for,
    salvage_file, scan_count_lines, scan_filter_count, scan_filter_map, scan_lines, AdaptivePlanner,
    ArchiveFormat, ArchiveReader, BlockConfig, BlockEntry, BlockFeedback, BlockIndex, BlockPlan, BlockRecord,
    BlockStatus, CompressedFile, CompressedOutput, CompressionStats, Compressor, CompressorConfig, CostModel,
    DecompressionReport, Decompressor, DecompressorConfig, EncodingMode, FaultPlan, FaultReader, FaultWriter,
    FileSettings, GompressoError, GpuDeviceModel, GpuEstimate, MrrStats, PcieLink, Planner, PlanningMode,
    RecoveryReport, ResolutionStrategy, ScanOptions, ScanStats, SimulationReport, StaticPlanner,
    StrategySelection, StreamCompressor, StreamDecompressor, StreamStats,
};

/// Low-level building blocks re-exported for advanced users (custom codecs,
/// experiment harnesses, simulators).
pub mod substrate {
    pub use gompresso_bitstream as bitstream;
    pub use gompresso_format as format;
    pub use gompresso_huffman as huffman;
    pub use gompresso_lz77 as lz77;
    pub use gompresso_simt as simt;
}

/// CPU baseline codecs (zlib-like, LZ4-like, Snappy-like, Zstd-like) and the
/// block-parallel driver used in the paper's comparison figures.
pub mod baselines {
    pub use gompresso_baselines::*;
}

/// Synthetic dataset generators standing in for the paper's corpora.
pub mod datasets {
    pub use gompresso_datasets::*;
}

/// The `gompressod` service daemon and its wire-protocol client (see
/// `DESIGN.md` §4e).
pub mod service {
    pub use gompresso_service::*;
}

/// Wall-power / energy model used for the Figure 14 comparison.
pub mod energy {
    pub use gompresso_energy::*;
}
