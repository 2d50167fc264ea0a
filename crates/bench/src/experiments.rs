//! One function per table/figure of the paper's evaluation section.
//!
//! Each function returns plain-data rows so that the `experiments` binary,
//! the integration tests and `EXPERIMENTS.md` all consume the same code
//! path. GPU figures come from the simulated-K40 cost model; CPU figures are
//! wall-clock measurements on the host this run executes on (the paper used
//! 24 hardware threads of a dual E5-2620 v2 — absolute CPU numbers therefore
//! differ, relative positions are what is reproduced).

use crate::datasets::{matrix_data, nesting_data, wikipedia_data};
use crate::gbps;
use gompresso_baselines::{BlockParallel, Codec, Lz4Like, Miniflate, SnappyLike, ZstdLike};
use gompresso_core::{
    compress, decompress_with, CompressedFile, CompressorConfig, CostModel, Decompressor, DecompressorConfig,
    ResolutionStrategy, SimulationReport,
};
use gompresso_energy::EnergyModel;
use std::time::Instant;

/// The simulated Tesla K40 run of `file` under `config` — the source of
/// every GPU figure below.
fn simulate_k40(file: &CompressedFile, config: &DecompressorConfig) -> SimulationReport {
    Decompressor::new(config.clone()).simulate(file, &CostModel::tesla_k40()).expect("simulation failed")
}

/// Section V setup: gzip-class compression ratios of the two datasets.
#[derive(Debug, Clone)]
pub struct SetupRow {
    /// Dataset name.
    pub dataset: String,
    /// Compression ratio achieved by the zlib-like codec (gzip default
    /// level stand-in). Paper: 3.09 (Wikipedia), 4.99 (Matrix).
    pub zlib_like_ratio: f64,
}

/// Reproduces the dataset characterisation of Section V.
pub fn setup_dataset_ratios(size: usize) -> Vec<SetupRow> {
    let codec = Miniflate::new();
    [("wikipedia", wikipedia_data(size)), ("matrix", matrix_data(size))]
        .into_iter()
        .map(|(name, data)| {
            let compressed = codec.compress(&data).expect("compression cannot fail on generated data");
            SetupRow {
                dataset: name.to_string(),
                zlib_like_ratio: data.len() as f64 / compressed.len() as f64,
            }
        })
        .collect()
}

/// One bar of Figure 9a.
#[derive(Debug, Clone)]
pub struct Fig9aRow {
    /// Dataset name ("wikipedia" or "matrix").
    pub dataset: String,
    /// Resolution strategy ("SC", "MRR", "DE").
    pub strategy: String,
    /// Estimated GPU LZ77 decompression speed, device only (GB/s).
    pub gpu_speed_gbps: f64,
    /// Host (CPU) decompression speed actually measured for this run (GB/s).
    pub host_speed_gbps: f64,
    /// Mean MRR rounds per warp group (1.0 for DE, number of matches for SC).
    pub mean_rounds: f64,
}

/// Figure 9a: Gompresso/Byte LZ77 decompression speed under SC, MRR and DE
/// (no PCIe transfers).
pub fn fig9a_strategy_comparison(size: usize) -> Vec<Fig9aRow> {
    let mut rows = Vec::new();
    for (name, data) in [("wikipedia", wikipedia_data(size)), ("matrix", matrix_data(size))] {
        // SC and MRR decompress the unconstrained file; DE decompresses the
        // file compressed with Dependency Elimination (Section IV-B).
        let plain = compress(&data, &CompressorConfig::byte()).expect("compression failed");
        let de = compress(&data, &CompressorConfig::byte_de()).expect("compression failed");
        for strategy in ResolutionStrategy::ALL {
            let file =
                if strategy == ResolutionStrategy::DependencyEliminated { &de.file } else { &plain.file };
            let dconf = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
            let start = Instant::now();
            let (restored, _) = decompress_with(file, &dconf).expect("decompression failed");
            let host = restored.len() as f64 / start.elapsed().as_secs_f64();
            assert_eq!(restored, data, "round-trip failure in fig9a");
            let report = simulate_k40(file, &dconf);
            // Mean resolution rounds per warp group: meaningful for MRR (the
            // quantity in the paper's discussion), 1 by construction for DE,
            // and not applicable for SC (every back-reference is its own
            // serial step), reported as 0.
            let mean_rounds = match strategy {
                ResolutionStrategy::MultiRound => report.mrr.mean_rounds(),
                ResolutionStrategy::DependencyEliminated => 1.0,
                ResolutionStrategy::SequentialCopy => 0.0,
            };
            rows.push(Fig9aRow {
                dataset: name.to_string(),
                strategy: strategy.short_name().to_string(),
                gpu_speed_gbps: gbps(report.gpu_bandwidth_no_pcie()),
                host_speed_gbps: gbps(host),
                mean_rounds,
            });
        }
    }
    rows
}

/// One point of Figure 9b.
#[derive(Debug, Clone)]
pub struct Fig9bRow {
    /// Dataset name.
    pub dataset: String,
    /// Resolution round (1-based).
    pub round: usize,
    /// Mean number of back-reference bytes resolved in this round per warp
    /// group.
    pub mean_bytes: f64,
}

/// Figure 9b: bytes resolved per MRR round.
pub fn fig9b_bytes_per_round(size: usize) -> Vec<Fig9bRow> {
    let mut rows = Vec::new();
    for (name, data) in [("wikipedia", wikipedia_data(size)), ("matrix", matrix_data(size))] {
        let file = compress(&data, &CompressorConfig::byte()).expect("compression failed");
        let dconf = DecompressorConfig {
            strategy: ResolutionStrategy::MultiRound.into(),
            ..DecompressorConfig::default()
        };
        let report = simulate_k40(&file.file, &dconf);
        for round in 1..=report.mrr.max_rounds() {
            rows.push(Fig9bRow {
                dataset: name.to_string(),
                round,
                mean_bytes: report.mrr.mean_bytes_in_round(round),
            });
        }
    }
    rows
}

/// One point of Figure 9c.
#[derive(Debug, Clone)]
pub struct Fig9cRow {
    /// Target nesting depth of the artificial dataset.
    pub depth: u32,
    /// Mean MRR rounds actually observed.
    pub mean_rounds: f64,
    /// Estimated GPU decompression time (device only), in milliseconds.
    pub gpu_time_ms: f64,
    /// Host (CPU) decompression time, in milliseconds.
    pub host_time_ms: f64,
}

/// Figure 9c: MRR decompression time versus nesting depth on the artificial
/// datasets of Figure 10.
pub fn fig9c_nesting_depth(size: usize, depths: &[u32]) -> Vec<Fig9cRow> {
    depths
        .iter()
        .map(|&depth| {
            let data = nesting_data(depth, size);
            let file = compress(&data, &CompressorConfig::byte()).expect("compression failed");
            let dconf = DecompressorConfig {
                strategy: ResolutionStrategy::MultiRound.into(),
                ..DecompressorConfig::default()
            };
            let start = Instant::now();
            let (restored, _) = decompress_with(&file.file, &dconf).expect("decompression failed");
            let host_time_ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(restored, data, "round-trip failure in fig9c");
            let report = simulate_k40(&file.file, &dconf);
            Fig9cRow {
                depth,
                mean_rounds: report.mrr.mean_rounds(),
                gpu_time_ms: report.gpu.device_only_s() * 1e3,
                host_time_ms,
            }
        })
        .collect()
}

/// One bar pair of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Dataset name.
    pub dataset: String,
    /// "w/o DE" or "w/ DE".
    pub variant: String,
    /// Compression ratio.
    pub ratio: f64,
    /// Compression speed in MB/s (host wall clock).
    pub compression_speed_mbps: f64,
}

/// Figure 11: compression ratio and speed with and without Dependency
/// Elimination (byte-level compressor, as in the paper's modified LZ4).
pub fn fig11_de_impact(size: usize) -> Vec<Fig11Row> {
    let mut rows = Vec::new();
    for (name, data) in [("wikipedia", wikipedia_data(size)), ("matrix", matrix_data(size))] {
        for (variant, config) in
            [("w/o DE", CompressorConfig::byte()), ("w/ DE", CompressorConfig::byte_de())]
        {
            let out = compress(&data, &config).expect("compression failed");
            rows.push(Fig11Row {
                dataset: name.to_string(),
                variant: variant.to_string(),
                ratio: out.stats.ratio(),
                compression_speed_mbps: out.stats.speed_bytes_per_sec() / 1e6,
            });
        }
    }
    rows
}

/// One point of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Data block size in bytes.
    pub block_size: usize,
    /// Estimated GPU decompression speed including PCIe transfers (GB/s).
    pub speed_gbps: f64,
    /// Compression ratio at this block size.
    pub ratio: f64,
}

/// Figure 12: Gompresso/Bit decompression speed (transfers included) and
/// compression ratio versus data block size.
pub fn fig12_block_size(size: usize, block_sizes: &[usize]) -> Vec<Fig12Row> {
    let data = wikipedia_data(size);
    block_sizes
        .iter()
        .map(|&block_size| {
            let config = CompressorConfig { block_size, ..CompressorConfig::bit_de() };
            let out = compress(&data, &config).expect("compression failed");
            let dconf = DecompressorConfig::default();
            let (restored, _) = decompress_with(&out.file, &dconf).expect("decompression failed");
            assert_eq!(restored, data, "round-trip failure in fig12");
            let report = simulate_k40(&out.file, &dconf);
            Fig12Row { block_size, speed_gbps: gbps(report.gpu_bandwidth_in_out()), ratio: out.stats.ratio() }
        })
        .collect()
}

/// One point of Figure 13 (and input to Figure 14).
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// System label, e.g. "zlib (CPU)" or "Gomp/Byte (In/Out)".
    pub system: String,
    /// Compression ratio.
    pub ratio: f64,
    /// Decompression speed in GB/s (estimated for GPU rows, measured wall
    /// clock for CPU rows).
    pub speed_gbps: f64,
    /// Whether the row describes a GPU configuration.
    pub is_gpu: bool,
    /// Busy-kernel seconds (GPU rows) or busy-CPU seconds (CPU rows).
    pub busy_seconds: f64,
    /// PCIe transfer seconds (GPU rows only).
    pub transfer_seconds: f64,
}

/// Figure 13: decompression speed versus compression ratio for the CPU
/// baselines and the Gompresso GPU configurations, on one dataset.
pub fn fig13_speed_vs_ratio(size: usize, dataset: &str) -> Vec<Fig13Row> {
    let data = match dataset {
        "matrix" => matrix_data(size),
        _ => wikipedia_data(size),
    };
    let mut rows = Vec::new();

    // CPU baselines, block-parallel over 2 MB blocks (or smaller inputs use
    // one block). Wall-clock measured on this host.
    let codecs: Vec<Box<dyn Codec>> = vec![
        Box::new(SnappyLike::new()),
        Box::new(Lz4Like::new()),
        Box::new(ZstdLike::new()),
        Box::new(Miniflate::new()),
    ];
    for codec in codecs {
        let name = codec.name();
        let driver = BlockParallel::new(BoxedCodec(codec)).with_block_size(2 * 1024 * 1024);
        let compressed = driver.compress(&data).expect("baseline compression failed");
        let start = Instant::now();
        let restored = driver.decompress(&compressed).expect("baseline decompression failed");
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(restored, data, "round-trip failure for {name}");
        rows.push(Fig13Row {
            system: format!("{name} (CPU)"),
            ratio: data.len() as f64 / compressed.len() as f64,
            speed_gbps: gbps(data.len() as f64 / elapsed),
            is_gpu: false,
            busy_seconds: elapsed,
            transfer_seconds: 0.0,
        });
    }

    // Gompresso GPU configurations (estimated on the K40 model).
    let bit = compress(&data, &CompressorConfig::bit_de()).expect("compression failed");
    let byte = compress(&data, &CompressorConfig::byte_de()).expect("compression failed");
    let bit_report = simulate_k40(&bit.file, &DecompressorConfig::default());
    let byte_report = simulate_k40(&byte.file, &DecompressorConfig::default());

    rows.push(Fig13Row {
        system: "Gomp/Bit (In/Out)".to_string(),
        ratio: bit.stats.ratio(),
        speed_gbps: gbps(bit_report.gpu_bandwidth_in_out()),
        is_gpu: true,
        busy_seconds: bit_report.gpu.device_only_s(),
        transfer_seconds: bit_report.gpu.input_transfer_s + bit_report.gpu.output_transfer_s,
    });
    rows.push(Fig13Row {
        system: "Gomp/Byte (In/Out)".to_string(),
        ratio: byte.stats.ratio(),
        speed_gbps: gbps(byte_report.gpu_bandwidth_in_out()),
        is_gpu: true,
        busy_seconds: byte_report.gpu.device_only_s(),
        transfer_seconds: byte_report.gpu.input_transfer_s + byte_report.gpu.output_transfer_s,
    });
    rows.push(Fig13Row {
        system: "Gomp/Byte (In)".to_string(),
        ratio: byte.stats.ratio(),
        speed_gbps: gbps(byte_report.gpu_bandwidth_in()),
        is_gpu: true,
        busy_seconds: byte_report.gpu.device_only_s(),
        transfer_seconds: byte_report.gpu.input_transfer_s,
    });
    rows.push(Fig13Row {
        system: "Gomp/Byte (No PCIe)".to_string(),
        ratio: byte.stats.ratio(),
        speed_gbps: gbps(byte_report.gpu_bandwidth_no_pcie()),
        is_gpu: true,
        busy_seconds: byte_report.gpu.device_only_s(),
        transfer_seconds: 0.0,
    });
    rows
}

/// One point of Figure 14.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// System label.
    pub system: String,
    /// Compression ratio.
    pub ratio: f64,
    /// Estimated wall-socket energy in joules for decompressing the dataset.
    pub joules: f64,
}

/// Figure 14: energy versus compression ratio, derived from the Figure 13
/// rows via the wall-power model.
pub fn fig14_energy(fig13: &[Fig13Row], _size: usize) -> Vec<Fig14Row> {
    let model = EnergyModel::paper_testbed();
    fig13
        .iter()
        .map(|row| {
            let joules = if row.is_gpu {
                model.gpu_run_energy(row.busy_seconds, row.transfer_seconds, 0.9)
            } else {
                model.cpu_run_energy(row.busy_seconds, 1.0)
            };
            Fig14Row { system: row.system.clone(), ratio: row.ratio, joules }
        })
        .collect()
}

/// Small adapter so the boxed codecs can be used with `BlockParallel`, which
/// is generic over a concrete codec type.
struct BoxedCodec(Box<dyn Codec>);

impl Codec for BoxedCodec {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn compress(&self, input: &[u8]) -> gompresso_baselines::Result<Vec<u8>> {
        self.0.compress(input)
    }
    fn decompress(&self, input: &[u8]) -> gompresso_baselines::Result<Vec<u8>> {
        self.0.decompress(input)
    }
}
