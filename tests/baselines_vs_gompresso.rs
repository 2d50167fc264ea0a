//! Integration tests comparing the CPU baseline codecs with Gompresso on the
//! synthetic corpora — the relationships behind Figures 13 and 14.

use gompresso::baselines::{BlockParallel, Codec, Lz4Like, Miniflate, SnappyLike, ZstdLike};
use gompresso::datasets::{DatasetGenerator, WikipediaGenerator};
use gompresso::energy::EnergyModel;
use gompresso::{compress, CompressorConfig, CostModel, Decompressor};

const SIZE: usize = 2 * 1024 * 1024;

#[test]
fn baseline_ratio_ordering_matches_figure_13() {
    let data = WikipediaGenerator::new(2).generate(SIZE);
    let ratio = |codec: &dyn Codec| {
        let compressed = codec.compress(&data).unwrap();
        assert_eq!(codec.decompress(&compressed).unwrap(), data);
        data.len() as f64 / compressed.len() as f64
    };
    let snappy = ratio(&SnappyLike::new());
    let lz4 = ratio(&Lz4Like::new());
    let zstd = ratio(&ZstdLike::new());
    let zlib = ratio(&Miniflate::new());
    // Figure 13 ordering on the Wikipedia dataset: byte-level codecs give
    // the lowest ratios, zlib the highest, zstd in between.
    assert!(zlib > lz4, "zlib-like ({zlib:.2}) must beat lz4-like ({lz4:.2})");
    assert!(zlib > snappy, "zlib-like ({zlib:.2}) must beat snappy-like ({snappy:.2})");
    assert!(zstd > lz4, "zstd-like ({zstd:.2}) must beat lz4-like ({lz4:.2})");
    assert!(zlib > 1.8, "zlib-like ratio {zlib:.2} too low for text");
}

#[test]
fn gompresso_bit_ratio_is_within_ten_percent_of_zlib_like() {
    // Paper, Section V-D: "There is around 9 % degradation in compression
    // ratio because we use limited-length Huffman coding" (plus the smaller
    // window). Allow a slightly wider band for the synthetic corpus.
    let data = WikipediaGenerator::new(4).generate(SIZE);
    let zlib = Miniflate::new();
    let zlib_ratio = data.len() as f64 / zlib.compress(&data).unwrap().len() as f64;
    let gomp = compress(&data, &CompressorConfig::bit_de()).unwrap();
    let degradation = 1.0 - gomp.stats.ratio() / zlib_ratio;
    assert!(
        degradation < 0.25,
        "Gompresso/Bit ratio {:.3} degrades {:.1} % vs zlib-like {:.3}",
        gomp.stats.ratio(),
        degradation * 100.0,
        zlib_ratio
    );
}

#[test]
fn block_parallel_driver_scales_and_preserves_output() {
    let data = WikipediaGenerator::new(8).generate(SIZE);
    let serial = BlockParallel::new(Miniflate::new()).with_block_size(256 * 1024).with_threads(1);
    let parallel = BlockParallel::new(Miniflate::new()).with_block_size(256 * 1024).with_threads(4);
    let compressed = serial.compress(&data).unwrap();
    assert_eq!(serial.decompress(&compressed).unwrap(), data);
    assert_eq!(parallel.decompress(&compressed).unwrap(), data);
}

#[test]
fn byte_level_codecs_trade_ratio_for_speed() {
    // Gompresso/Byte must compress less well than Gompresso/Bit but its
    // simulated decompression is faster — the paper's /Bit vs /Byte trade.
    let data = WikipediaGenerator::new(16).generate(SIZE);
    let bit = compress(&data, &CompressorConfig::bit_de()).unwrap();
    let byte = compress(&data, &CompressorConfig::byte_de()).unwrap();
    assert!(
        bit.stats.ratio() > byte.stats.ratio(),
        "bit {} vs byte {}",
        bit.stats.ratio(),
        byte.stats.ratio()
    );

    let k40 = |file| Decompressor::default().simulate(file, &CostModel::tesla_k40()).unwrap();
    let bit_report = k40(&bit.file);
    let byte_report = k40(&byte.file);
    assert!(
        byte_report.gpu.device_only_s() < bit_report.gpu.device_only_s(),
        "byte mode should be faster on the device: {} vs {}",
        byte_report.gpu.device_only_s(),
        bit_report.gpu.device_only_s()
    );
}

#[test]
fn energy_model_favours_faster_configurations() {
    // Figure 14's core message: on the same platform, faster decompression
    // means less energy; and the GPU estimate for Gompresso/Bit undercuts a
    // CPU run that takes several times longer.
    let model = EnergyModel::paper_testbed();
    let slow_cpu = model.cpu_run_energy(1.2, 1.0);
    let fast_cpu = model.cpu_run_energy(0.4, 1.0);
    assert!(fast_cpu < slow_cpu);
    let gpu = model.gpu_run_energy(0.25, 0.15, 0.9);
    assert!(gpu < slow_cpu, "gpu {gpu} should undercut the slow CPU run {slow_cpu}");
}
