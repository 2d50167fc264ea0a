//! Host decoding executes; only `Decompressor::simulate` models.
//!
//! * Every host entry point — in-memory, streaming, random access, scans
//!   and salvage — decodes without a single warp-model walk
//!   (`warp_lz77::warp_walks` stays put), while `simulate` walks each block
//!   once.
//! * `validate_de` means the same thing with and without the model: a
//!   non-DE archive decoded with DE forced and validation on fails with
//!   `DependencyEliminationViolated` at every entry point, and decodes
//!   byte-identically with validation off.

use gompresso_core::warp_lz77::warp_walks;
use gompresso_core::{
    compress, decompress_salvage, decompress_with, scan_filter_count, ArchiveReader, CompressedFile,
    CompressorConfig, CostModel, Decompressor, DecompressorConfig, GompressoError, ResolutionStrategy,
    ScanOptions, StreamCompressor, StreamDecompressor,
};
use std::io::Cursor;
use std::sync::Mutex;

/// Serialises the tests of this file: the walk counter is process-wide and
/// `simulate` moves it.
static WALK_COUNTER: Mutex<()> = Mutex::new(());

/// Self-referential text with short repeats: compressed without DE, its
/// back-references nest inside warp groups.
fn nested_text(len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len);
    let mut i = 0u64;
    while data.len() < len {
        data.extend_from_slice(
            format!(
                "<page><title>Article {}</title><text>abcabcabd entry {} of the corpus.</text></page>\n",
                i % 1000,
                i
            )
            .as_bytes(),
        );
        i += 1;
    }
    data.truncate(len);
    data
}

struct Archives {
    data: Vec<u8>,
    file: CompressedFile,
    container: Vec<u8>,
    stream: Vec<u8>,
}

fn archives(config: CompressorConfig) -> Archives {
    let data = nested_text(300_000);
    let config = CompressorConfig { block_size: 64 * 1024, ..config };
    let file = compress(&data, &config).unwrap().file;
    let container = file.serialize();
    let mut stream = Vec::new();
    StreamCompressor::new(config).unwrap().compress(&data[..], &mut stream).unwrap();
    Archives { data, file, container, stream }
}

fn stream_decode(config: &DecompressorConfig, archive: &[u8]) -> gompresso_core::Result<Vec<u8>> {
    let mut out = Vec::new();
    StreamDecompressor::new(config.clone()).decompress(archive, &mut out)?;
    Ok(out)
}

fn range_decode(config: &DecompressorConfig, archive: &[u8]) -> gompresso_core::Result<Vec<u8>> {
    let mut reader = ArchiveReader::with_config(Cursor::new(archive), config.clone())?;
    let len = reader.uncompressed_size();
    reader.decompress_range(0..len)
}

#[test]
fn host_entry_points_never_walk_the_warp_model() {
    let _guard = WALK_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for compressor in [CompressorConfig::bit_de(), CompressorConfig::byte(), CompressorConfig::auto()] {
        let a = archives(compressor);
        let config = DecompressorConfig::default();
        let before = warp_walks();

        assert_eq!(decompress_with(&a.file, &config).unwrap().0, a.data);
        assert_eq!(stream_decode(&config, &a.stream).unwrap(), a.data);
        for archive in [&a.container, &a.stream] {
            assert_eq!(range_decode(&config, archive).unwrap(), a.data);
            let mut reader = ArchiveReader::open(Cursor::new(archive.as_slice())).unwrap();
            let pages = scan_filter_count(&mut reader, &ScanOptions::default(), |l| l.starts_with(b"<page>"));
            assert!(pages.unwrap() > 0);
        }
        let (salvaged, report) = decompress_salvage(&a.container, &config).unwrap();
        assert!(report.is_complete());
        assert_eq!(salvaged, a.data);
        let (salvaged, report) = StreamDecompressor::new(config.clone()).salvage_bytes(&a.stream).unwrap();
        assert!(report.is_complete());
        assert_eq!(salvaged, a.data);

        assert_eq!(warp_walks(), before, "a host decode entered the warp model");

        // The sentinel is live: the model path walks every block once.
        let report = Decompressor::new(config).simulate(&a.file, &CostModel::tesla_k40()).unwrap();
        assert_eq!(warp_walks(), before + a.file.blocks.len() as u64);
        assert_eq!(report.lz77_counters.warps, a.file.blocks.len() as u64);
    }
}

#[test]
fn validate_de_is_enforced_at_every_entry_point() {
    let _guard = WALK_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let a = archives(CompressorConfig::byte());
    let forced = |validate_de| DecompressorConfig {
        strategy: ResolutionStrategy::DependencyEliminated.into(),
        validate_de,
        ..DecompressorConfig::default()
    };

    let strict = forced(true);
    let is_violation = |what: &str, err: GompressoError| {
        assert!(
            matches!(err.root_cause(), GompressoError::DependencyEliminationViolated { .. }),
            "{what}: expected a DE violation, got {err:?}"
        );
    };
    is_violation("in-memory", decompress_with(&a.file, &strict).unwrap_err());
    is_violation("stream", stream_decode(&strict, &a.stream).unwrap_err());
    is_violation("range (container)", range_decode(&strict, &a.container).unwrap_err());
    is_violation("range (stream)", range_decode(&strict, &a.stream).unwrap_err());
    is_violation(
        "simulate",
        Decompressor::new(strict).simulate(&a.file, &CostModel::tesla_k40()).unwrap_err(),
    );

    // Forcing DE is byte-safe; only the validation rejects the archive.
    let lax = forced(false);
    assert_eq!(decompress_with(&a.file, &lax).unwrap().0, a.data);
    assert_eq!(stream_decode(&lax, &a.stream).unwrap(), a.data);
    assert_eq!(range_decode(&lax, &a.container).unwrap(), a.data);
    assert_eq!(range_decode(&lax, &a.stream).unwrap(), a.data);
    Decompressor::new(lax).simulate(&a.file, &CostModel::tesla_k40()).unwrap();

    // A DE archive passes the same strict configuration everywhere.
    let de = archives(CompressorConfig::byte_de());
    let strict = forced(true);
    assert_eq!(decompress_with(&de.file, &strict).unwrap().0, de.data);
    assert_eq!(stream_decode(&strict, &de.stream).unwrap(), de.data);
    assert_eq!(range_decode(&strict, &de.container).unwrap(), de.data);
    Decompressor::new(strict).simulate(&de.file, &CostModel::tesla_k40()).unwrap();
}
