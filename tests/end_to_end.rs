//! Cross-crate integration tests: datasets → compressor → file format →
//! parallel decompressor, for every mode and strategy.

use gompresso::datasets::{DatasetGenerator, MatrixMarketGenerator, NestingGenerator, WikipediaGenerator};
use gompresso::{
    compress, decompress, decompress_with, CompressedFile, CompressorConfig, CostModel, Decompressor,
    DecompressorConfig, EncodingMode, ResolutionStrategy, SimulationReport, StreamCompressor,
    StreamDecompressor,
};

const SIZE: usize = 2 * 1024 * 1024;

/// The simulated Tesla K40 run of `file` under `config`.
fn simulate_k40(file: &CompressedFile, config: DecompressorConfig) -> SimulationReport {
    Decompressor::new(config).simulate(file, &CostModel::tesla_k40()).unwrap()
}

fn all_datasets() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("wikipedia", WikipediaGenerator::new(1).generate(SIZE)),
        ("matrix", MatrixMarketGenerator::new(1).generate(SIZE)),
        ("nesting-8", NestingGenerator::new(8).generate(SIZE / 4)),
    ]
}

#[test]
fn every_mode_and_strategy_roundtrips_on_every_dataset() {
    for (name, data) in all_datasets() {
        for config in [
            CompressorConfig::bit(),
            CompressorConfig::byte(),
            CompressorConfig::bit_de(),
            CompressorConfig::byte_de(),
        ] {
            let out = compress(&data, &config).expect("compression failed");
            assert!(out.stats.ratio() > 1.0, "{name}: ratio {} should exceed 1", out.stats.ratio());
            for strategy in ResolutionStrategy::ALL {
                let dconf = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
                let (restored, report) = decompress_with(&out.file, &dconf).expect("decompression failed");
                assert_eq!(restored, data, "{name} {:?} {strategy}", config.mode);
                assert_eq!(report.uncompressed_size, data.len() as u64);
            }
        }
    }
}

#[test]
fn serialized_files_roundtrip_through_disk_representation() {
    let data = WikipediaGenerator::new(9).generate(SIZE);
    let out = compress(&data, &CompressorConfig::bit_de()).unwrap();
    let bytes = out.file.serialize();
    let parsed = CompressedFile::deserialize(&bytes).expect("file should parse");
    assert_eq!(parsed.header.uniform_config().expect("uniform archive").mode, EncodingMode::Bit);
    assert_eq!(parsed.header.uncompressed_size, data.len() as u64);
    let (restored, _) = decompress(&parsed).unwrap();
    assert_eq!(restored, data);
}

#[test]
fn compression_ratios_match_paper_expectations_in_shape() {
    // The paper: gzip ratio ~3.1 on Wikipedia, ~5.0 on the matrix, and the
    // matrix compresses better than the text. Our synthetic corpora are
    // tuned to the same ordering.
    let wiki = WikipediaGenerator::new(5).generate(SIZE);
    let matrix = MatrixMarketGenerator::new(5).generate(SIZE);
    let wiki_out = compress(&wiki, &CompressorConfig::bit()).unwrap();
    let matrix_out = compress(&matrix, &CompressorConfig::bit()).unwrap();
    assert!(wiki_out.stats.ratio() > 1.8, "wikipedia ratio {}", wiki_out.stats.ratio());
    assert!(matrix_out.stats.ratio() > wiki_out.stats.ratio(), "matrix should compress better than text");
}

#[test]
fn de_strategy_on_de_file_is_validated_and_single_round() {
    let data = MatrixMarketGenerator::new(3).generate(SIZE);
    let out = compress(&data, &CompressorConfig::byte_de()).unwrap();
    let config = DecompressorConfig {
        strategy: ResolutionStrategy::DependencyEliminated.into(),
        validate_de: true,
        ..DecompressorConfig::default()
    };
    let (restored, _) = decompress_with(&out.file, &config).unwrap();
    assert_eq!(restored, data);
    let report = simulate_k40(&out.file, config);
    // One resolution round per warp group at most (each block rounds its
    // final partial group up, hence the per-block slack).
    let rounds: u64 = report.lz77_counters.totals.rounds;
    let max_groups = out.stats.sequences.div_ceil(32) + out.file.blocks.len() as u64;
    assert!(rounds <= max_groups, "rounds {rounds} exceed group count {max_groups}");
}

#[test]
fn gpu_estimates_rank_strategies_like_the_paper() {
    let data = WikipediaGenerator::new(21).generate(SIZE);
    let plain = compress(&data, &CompressorConfig::byte()).unwrap();
    let de = compress(&data, &CompressorConfig::byte_de()).unwrap();
    let time = |file, strategy: ResolutionStrategy| {
        let config = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
        simulate_k40(file, config).gpu.device_only_s()
    };
    let sc = time(&plain.file, ResolutionStrategy::SequentialCopy);
    let mrr = time(&plain.file, ResolutionStrategy::MultiRound);
    let de_t = time(&de.file, ResolutionStrategy::DependencyEliminated);
    assert!(de_t < mrr, "DE ({de_t}) must beat MRR ({mrr})");
    assert!(mrr < sc, "MRR ({mrr}) must beat SC ({sc})");
    assert!(sc / de_t >= 3.0, "DE should be several times faster than SC (sc={sc}, de={de_t})");
}

#[test]
fn deeper_nesting_costs_more_mrr_rounds() {
    let shallow = NestingGenerator::new(1).generate(SIZE / 4);
    let deep = NestingGenerator::new(32).generate(SIZE / 4);
    let rounds = |data: &[u8]| {
        let out = compress(data, &CompressorConfig::byte()).unwrap();
        let config = DecompressorConfig {
            strategy: ResolutionStrategy::MultiRound.into(),
            ..DecompressorConfig::default()
        };
        let (restored, _) = decompress_with(&out.file, &config).unwrap();
        assert_eq!(restored, data);
        simulate_k40(&out.file, config).mrr.mean_rounds()
    };
    let shallow_rounds = rounds(&shallow);
    let deep_rounds = rounds(&deep);
    assert!(
        deep_rounds > shallow_rounds + 4.0,
        "expected a clear gap: shallow {shallow_rounds:.2} vs deep {deep_rounds:.2}"
    );
}

#[test]
fn streaming_pipeline_matches_in_memory_path_under_tight_budget() {
    // 4 MiB through a 1 MiB budget (4× larger than the window the pipeline
    // may hold), at 1 and 2 workers: the streamed roundtrip must be
    // byte-identical to both the input and the in-memory path.
    let data = WikipediaGenerator::new(7).generate(4 * 1024 * 1024);
    for config in [CompressorConfig::bit_de(), CompressorConfig::byte_de()] {
        let reference = compress(&data, &config).unwrap();
        let (in_memory, _) = decompress(&reference.file).unwrap();
        for workers in [1usize, 2] {
            let mut packed = Vec::new();
            let cstats = StreamCompressor::new(config.clone())
                .unwrap()
                .with_workers(workers)
                .with_mem_budget(1 << 20)
                .compress(data.as_slice(), &mut packed)
                .unwrap();
            assert_eq!(cstats.uncompressed_size, data.len() as u64);
            assert!(cstats.blocks_in_flight * config.block_size * 3 <= (1 << 20) + 3 * config.block_size);

            let mut restored = Vec::new();
            let dstats = StreamDecompressor::new(DecompressorConfig::default())
                .with_workers(workers)
                .with_mem_budget(1 << 20)
                .decompress(packed.as_slice(), &mut restored)
                .unwrap();
            assert_eq!(dstats.blocks, cstats.blocks);
            assert_eq!(restored, data, "{:?} at {workers} workers", config.mode);
            assert_eq!(restored, in_memory);
        }
    }
}

#[test]
fn adaptive_heterogeneous_archive_roundtrips_through_disk() {
    // Half text, half incompressible noise: the adaptive planner must mix
    // modes within one archive, the archive must survive serialization, and
    // the per-block Planned decode must restore the input bit-exactly.
    let mut data = WikipediaGenerator::new(17).generate(SIZE / 2);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    data.extend((0..SIZE / 2).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 24) as u8
    }));

    let out = compress(&data, &gompresso::CompressorConfig::auto()).unwrap();
    let modes: Vec<EncodingMode> = out.file.header.block_configs.iter().map(|c| c.mode).collect();
    assert!(
        modes.contains(&EncodingMode::Bit) && modes.contains(&EncodingMode::Byte),
        "expected mixed bit/byte blocks, got {modes:?}"
    );
    assert!(out.file.header.uniform_config().is_none());

    let parsed = CompressedFile::deserialize(&out.file.serialize()).expect("v3 archive parses");
    let (restored, _) = decompress(&parsed).unwrap();
    assert_eq!(restored, data);
}

#[test]
fn hand_spliced_mixed_mode_archive_decodes_per_block() {
    // Build a heterogeneous archive without the planner: compress one input
    // with bit+DE and another with plain byte (same geometry), then splice
    // the blocks and their configs into a single file. Exercises mixed
    // bit/byte AND mixed DE/MRR inside one container, with DE validation on.
    use gompresso::substrate::format::FileHeader;

    let text = WikipediaGenerator::new(23).generate(256 * 1024); // 32 KiB multiple
    let noisy = MatrixMarketGenerator::new(23).generate(128 * 1024);
    let block_size = 32 * 1024;
    let bit_cfg = gompresso::CompressorConfig { block_size, ..gompresso::CompressorConfig::bit_de() };
    let byte_cfg = gompresso::CompressorConfig { block_size, ..gompresso::CompressorConfig::byte() };
    let bit_out = compress(&text, &bit_cfg).unwrap();
    let byte_out = compress(&noisy, &byte_cfg).unwrap();

    let mut block_configs = bit_out.file.header.block_configs.clone();
    block_configs.extend_from_slice(&byte_out.file.header.block_configs);
    let header = FileHeader {
        window_size: bit_out.file.header.window_size,
        min_match_len: bit_out.file.header.min_match_len,
        max_match_len: bit_out.file.header.max_match_len,
        uncompressed_size: (text.len() + noisy.len()) as u64,
        block_size: block_size as u32,
        block_configs,
        block_compressed_sizes: Vec::new(),
        block_checksums: Vec::new(),
    };
    let mut blocks = bit_out.file.blocks.clone();
    blocks.extend_from_slice(&byte_out.file.blocks);
    let spliced =
        gompresso::substrate::format::CompressedFile::new(header, blocks).expect("spliced archive validates");

    let reparsed = CompressedFile::deserialize(&spliced.serialize()).expect("spliced archive parses");
    assert!(reparsed.header.uniform_config().is_none());
    let dconf = DecompressorConfig { validate_de: true, ..DecompressorConfig::default() };
    let (restored, _) = decompress_with(&reparsed, &dconf).expect("per-block planned decode");
    let mut expected = text.clone();
    expected.extend_from_slice(&noisy);
    assert_eq!(restored, expected);
}

#[test]
fn corrupt_and_truncated_files_never_panic() {
    let data = WikipediaGenerator::new(13).generate(256 * 1024);
    let out = compress(&data, &CompressorConfig::bit()).unwrap();
    let bytes = out.file.serialize();

    // Truncations at various points.
    for cut in [0usize, 4, 16, bytes.len() / 2, bytes.len() - 1] {
        if let Ok(file) = CompressedFile::deserialize(&bytes[..cut]) {
            let _ = decompress(&file);
        }
    }
    // Byte corruptions sprinkled through the file.
    for step in [7usize, 97, 997] {
        let mut corrupted = bytes.clone();
        for i in (0..corrupted.len()).step_by(step) {
            corrupted[i] ^= 0x5A;
        }
        if let Ok(file) = CompressedFile::deserialize(&corrupted) {
            let _ = decompress(&file);
        }
    }
}
