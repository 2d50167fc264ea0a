//! Quickstart: compress a document with Gompresso/Bit + Dependency
//! Elimination, decompress it with the massively-parallel decompressor, and
//! print the compression ratio, the measured host decompression bandwidth
//! and — from a separate run of the simulated GPU — the estimated Tesla K40
//! decompression bandwidth.
//!
//! Run with: `cargo run --release --example quickstart`

use gompresso::datasets::{DatasetGenerator, WikipediaGenerator};
use gompresso::{compress, decompress, CompressorConfig, CostModel, Decompressor};

fn main() {
    // 8 MiB of synthetic Wikipedia-style XML (the paper's first dataset).
    let data = WikipediaGenerator::new(7).generate(8 * 1024 * 1024);

    // Gompresso/Bit with Dependency Elimination: the configuration the paper
    // uses for its headline GPU-vs-CPU comparison.
    let config = CompressorConfig::bit_de();
    let compressed = compress(&data, &config).expect("compression failed");
    println!(
        "compressed {} bytes -> {} bytes (ratio {:.2}:1) across {} blocks in {:.1} ms",
        compressed.stats.uncompressed_size,
        compressed.stats.compressed_size,
        compressed.stats.ratio(),
        compressed.stats.blocks,
        compressed.stats.wall_seconds * 1e3,
    );

    let (restored, report) = decompress(&compressed.file).expect("decompression failed");
    assert_eq!(restored, data, "round trip must be lossless");

    println!(
        "decompressed on the host in {:.1} ms ({:.2} GB/s across {} rayon threads)",
        report.wall_seconds * 1e3,
        report.host_bandwidth() / 1e9,
        rayon::current_num_threads(),
    );

    // The K40 figures are model output: the warp simulation runs only here,
    // never inside `decompress`.
    let k40 = Decompressor::default()
        .simulate(&compressed.file, &CostModel::tesla_k40())
        .expect("simulation failed");
    println!(
        "simulated Tesla K40: decode kernel {:.2} ms + LZ77 kernel {:.2} ms + PCIe {:.2} ms",
        k40.gpu.decode_kernel_s * 1e3,
        k40.gpu.lz77_kernel_s * 1e3,
        (k40.gpu.input_transfer_s + k40.gpu.output_transfer_s) * 1e3,
    );
    println!(
        "estimated GPU decompression speed: {:.1} GB/s (device only), {:.1} GB/s (with PCIe in/out)",
        k40.gpu_bandwidth_no_pcie() / 1e9,
        k40.gpu_bandwidth_in_out() / 1e9,
    );
}
