//! Golden model output: what `Decompressor::simulate` reports today for
//! `tests/fixtures/fixture_input.bin` at 8 KiB blocks.
//!
//! `crates/core/tests/equivalence.rs` checks the Huffman decode kernel
//! against an independent reference, but its LZ77 reference runs the same
//! `decompress_block_warp`, so a change to what the LZ77 kernel charges
//! passes it. This suite pins the whole report instead: for every preset ×
//! forced strategy it renders the sizes, both kernels' counters, the MRR
//! statistics and the bit patterns of the four `GpuEstimate` times as text,
//! and asserts the text's `xxh64`. A refactor of the model that is meant to
//! keep every figure identical must leave every value here unchanged; a
//! change that is meant to move them updates this table and says why.

use gompresso::substrate::format::xxh64;
use gompresso::substrate::simt::KernelCounters;
use gompresso::{
    compress, CompressorConfig, CostModel, Decompressor, DecompressorConfig, ResolutionStrategy,
    SimulationReport, StrategySelection,
};
use std::fmt::Write;
use std::path::Path;

const BLOCK_SIZE: usize = 8 * 1024;

const STRATEGIES: [(&str, ResolutionStrategy); 3] = [
    ("sc", ResolutionStrategy::SequentialCopy),
    ("mrr", ResolutionStrategy::MultiRound),
    ("de", ResolutionStrategy::DependencyEliminated),
];

/// One preset's expected reports: the `xxh64` of the rendering under SC,
/// MRR and DE, in [`STRATEGIES`] order.
struct Golden {
    name: &'static str,
    config: fn() -> CompressorConfig,
    reports: [u64; 3],
}

const GOLDEN: [Golden; 5] = [
    Golden {
        name: "bit",
        config: CompressorConfig::bit,
        reports: [0xa616_6193_c1cd_02fd, 0xea3d_beeb_9ccc_09f1, 0x7592_0379_113b_3a5c],
    },
    Golden {
        name: "byte",
        config: CompressorConfig::byte,
        reports: [0xba01_c2e9_2e7f_ecbb, 0x5bd5_193d_d94b_511b, 0x6a25_5238_6f5f_44bf],
    },
    Golden {
        name: "bit_de",
        config: CompressorConfig::bit_de,
        reports: [0x79b5_d4f7_be59_2b58, 0xf8f6_31f5_65c0_a41c, 0xe1c8_8511_4ed7_8739],
    },
    Golden {
        name: "byte_de",
        config: CompressorConfig::byte_de,
        reports: [0xf45d_0ca7_8122_f01e, 0x7854_f7cf_08d9_5ec0, 0x7ab4_68b0_a3e3_bc7e],
    },
    Golden {
        name: "auto",
        config: CompressorConfig::auto,
        reports: [0xa616_6193_c1cd_02fd, 0xea3d_beeb_9ccc_09f1, 0x7592_0379_113b_3a5c],
    },
];

fn fixture_input() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixture_input.bin");
    let data = std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(data.len(), 131_072, "fixture input changed size");
    data
}

fn render_kernel(text: &mut String, name: &str, kernel: &KernelCounters) {
    let t = &kernel.totals;
    writeln!(
        text,
        "{name}: warps {} max_warp_instructions {} instructions {} ballots {} shuffles {} rounds {} \
         global_read_bytes {} global_write_bytes {} global_transactions {} shared_read_bytes {} \
         shared_write_bytes {} active_lane_sum {}",
        kernel.warps,
        kernel.max_warp_instructions,
        t.instructions,
        t.ballots,
        t.shuffles,
        t.rounds,
        t.global_read_bytes,
        t.global_write_bytes,
        t.global_transactions,
        t.shared_read_bytes,
        t.shared_write_bytes,
        t.active_lane_sum,
    )
    .unwrap();
}

/// Every field of the report that the model's figures are computed from,
/// one line per part; the times as `f64` bit patterns.
fn render(report: &SimulationReport) -> String {
    let mut text = format!(
        "uncompressed_size {} compressed_size {}\n",
        report.uncompressed_size, report.compressed_size
    );
    render_kernel(&mut text, "decode", &report.decode_counters);
    render_kernel(&mut text, "lz77", &report.lz77_counters);
    let mrr = &report.mrr;
    writeln!(
        text,
        "mrr: bytes_per_round {:?} groups_with_rounds {:?} total_groups {}",
        mrr.bytes_per_round, mrr.groups_with_rounds, mrr.total_groups
    )
    .unwrap();
    let gpu = &report.gpu;
    writeln!(
        text,
        "gpu: decode_kernel_s {:#x} lz77_kernel_s {:#x} input_transfer_s {:#x} output_transfer_s {:#x}",
        gpu.decode_kernel_s.to_bits(),
        gpu.lz77_kernel_s.to_bits(),
        gpu.input_transfer_s.to_bits(),
        gpu.output_transfer_s.to_bits(),
    )
    .unwrap();
    text
}

#[test]
fn simulate_reports_match_the_recorded_model() {
    let input = fixture_input();
    let cost = CostModel::tesla_k40();
    let mut mismatches = Vec::new();
    for golden in &GOLDEN {
        let config = CompressorConfig { block_size: BLOCK_SIZE, ..(golden.config)() };
        let file = compress(&input, &config).unwrap_or_else(|e| panic!("{}: {e}", golden.name)).file;
        for (&(strategy_name, strategy), &expected) in STRATEGIES.iter().zip(&golden.reports) {
            let decompressor = Decompressor::new(DecompressorConfig {
                strategy: StrategySelection::Force(strategy),
                ..DecompressorConfig::default()
            });
            let report = decompressor
                .simulate(&file, &cost)
                .unwrap_or_else(|e| panic!("{}/{strategy_name}: {e}", golden.name));
            let text = render(&report);
            let got = xxh64(text.as_bytes(), 0);
            if got != expected {
                mismatches.push(format!(
                    "{}/{strategy_name}: xxh64 {got:#018x}, expected {expected:#018x}\n{text}",
                    golden.name
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{} of 15 reports differ:\n{}", mismatches.len(), mismatches.join("\n"));
}
