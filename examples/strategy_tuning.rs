//! Strategy and parameter tuning walk-through: shows how nesting depth,
//! Dependency Elimination, block size and per-block adaptive planning
//! interact — the knobs Sections IV and V of the paper explore.
//!
//! Run with: `cargo run --release --example strategy_tuning`

use gompresso::datasets::{DatasetGenerator, NestingGenerator, WikipediaGenerator};
use gompresso::{
    compress, decompress_with, CompressedFile, CompressedOutput, CompressorConfig, CostModel, Decompressor,
    DecompressorConfig, EncodingMode, ResolutionStrategy, SimulationReport, StrategySelection,
};

const SIZE: usize = 4 * 1024 * 1024;

/// Decompresses `file` on the host (checking the round trip against
/// `original`), then runs it through the simulated Tesla K40 for the GPU
/// figures.
fn decode_and_simulate(
    file: &CompressedFile,
    config: DecompressorConfig,
    original: &[u8],
) -> SimulationReport {
    let (out, _) = decompress_with(file, &config).expect("decompress");
    assert_eq!(out, original);
    Decompressor::new(config).simulate(file, &CostModel::tesla_k40()).expect("simulate")
}

/// Per-block plan histogram of a compressed file: how many blocks landed on
/// each (mode, strategy, DE) combination.
fn plan_histogram(out: &CompressedOutput) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for config in &out.file.header.block_configs {
        let mode = match config.mode {
            EncodingMode::Bit => "bit",
            EncodingMode::Byte => "byte",
        };
        let de = if config.dependency_elimination { "+de" } else { "" };
        let label = format!("{mode}/{}{de}", config.strategy.short_name());
        match counts.iter_mut().find(|(k, _)| *k == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    counts
}

fn main() {
    println!("1) MRR rounds versus artificial nesting depth (paper Fig. 9c)\n");
    println!("   depth   mean MRR rounds   est. GPU time");
    for depth in [1u32, 2, 4, 8, 16, 32] {
        let data = NestingGenerator::new(depth).generate(SIZE);
        let file = compress(&data, &CompressorConfig::byte()).expect("compress");
        let config = DecompressorConfig {
            strategy: StrategySelection::Force(ResolutionStrategy::MultiRound),
            ..Default::default()
        };
        let report = decode_and_simulate(&file.file, config, &data);
        println!(
            "   {depth:>5}   {:>15.2}   {:>10.2} ms",
            report.mrr.mean_rounds(),
            report.gpu.device_only_s() * 1e3
        );
    }

    println!("\n2) What Dependency Elimination buys at decompression time (paper Fig. 9a/11)\n");
    let data = WikipediaGenerator::new(3).generate(SIZE);
    let plain = compress(&data, &CompressorConfig::byte()).expect("compress");
    let de = compress(&data, &CompressorConfig::byte_de()).expect("compress");
    println!(
        "   ratio without DE: {:.3}   with DE: {:.3}   (degradation {:.1} %)",
        plain.stats.ratio(),
        de.stats.ratio(),
        (1.0 - de.stats.ratio() / plain.stats.ratio()) * 100.0
    );
    for (label, file, strategy) in [
        ("SC  on plain file", &plain.file, ResolutionStrategy::SequentialCopy),
        ("MRR on plain file", &plain.file, ResolutionStrategy::MultiRound),
        ("DE  on DE file   ", &de.file, ResolutionStrategy::DependencyEliminated),
    ] {
        let config = DecompressorConfig { strategy: strategy.into(), ..Default::default() };
        let report = decode_and_simulate(file, config, &data);
        println!(
            "   {label}: est. GPU {:.2} GB/s (device only), warp utilization {:.0} %",
            report.gpu_bandwidth_no_pcie() / 1e9,
            report.lz77_counters.totals.warp_utilization() * 100.0
        );
    }

    println!("\n3) Block-size trade-off for Gompresso/Bit (paper Fig. 12)\n");
    println!("   block    ratio    compress GB/s    est. GPU GB/s (In/Out)");
    for block_kb in [32usize, 64, 128, 256] {
        let config = CompressorConfig { block_size: block_kb * 1024, ..CompressorConfig::bit_de() };
        let out = compress(&data, &config).expect("compress");
        let report = decode_and_simulate(&out.file, DecompressorConfig::default(), &data);
        println!(
            "   {block_kb:>4} KB  {:>6.3}   {:>13.3}   {:>8.2}",
            out.stats.ratio(),
            out.stats.speed_bytes_per_sec() / 1e9,
            report.gpu_bandwidth_in_out() / 1e9
        );
    }

    println!("\n4) Adaptive per-block planning versus the static grid (v3 container)\n");
    // Half compressible text, half incompressible noise: no single static
    // point of the {bit,byte} x {DE,MRR} grid wins on both halves, but the
    // auto planner picks per block.
    let mut mixed = WikipediaGenerator::new(7).generate(SIZE / 2);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    mixed.extend((0..SIZE / 2).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 24) as u8
    }));

    println!("   config    ratio    compress GB/s    est. GPU GB/s (In/Out)");
    let mut results: Vec<(&str, CompressedOutput)> = Vec::new();
    for (label, config) in [
        ("bit   ", CompressorConfig::bit()),
        ("bit+de", CompressorConfig::bit_de()),
        ("byte  ", CompressorConfig::byte()),
        ("byt+de", CompressorConfig::byte_de()),
        ("auto  ", CompressorConfig::auto()),
    ] {
        let out = compress(&mixed, &config).expect("compress");
        let report = decode_and_simulate(&out.file, DecompressorConfig::default(), &mixed);
        println!(
            "   {label}   {:>6.3}   {:>13.3}   {:>8.2}",
            out.stats.ratio(),
            out.stats.speed_bytes_per_sec() / 1e9,
            report.gpu_bandwidth_in_out() / 1e9
        );
        results.push((label, out));
    }

    let auto = &results.last().expect("auto row present").1;
    println!("\n   auto per-block plan histogram ({} blocks):", auto.file.header.block_count());
    for (label, n) in plan_histogram(auto) {
        println!("     {label:<10} {n:>4} blocks");
    }
}
