//! Streaming-pipeline throughput experiment (multi-thread BENCH rows).
//!
//! Measures the bounded-memory streaming pipeline end to end — file →
//! `StreamCompressor` → file → `StreamDecompressor` → file — at several
//! worker counts, records per-row peak RSS, and verifies on every
//! configuration that the streamed output is byte-identical to both the
//! original input and the in-memory `compress`/`decompress` path.
//!
//! Unlike the in-memory perf experiment, the input lives on disk and only
//! a budgeted window of blocks is resident at a time, so this experiment
//! is also the regression guard for the memory-bound contract.
//!
//! Regenerate the committed `BENCH_host.json` (including these rows) with:
//!
//! ```text
//! cargo run --release -p gompresso-bench --bin experiments -- \
//!     --exp perf --stream --size-mb 16 --mem-budget-mb 4
//! ```

use crate::datasets::{matrix_data, wikipedia_data};
use crate::gbps;
use gompresso_core::{
    compress, decompress, CompressorConfig, DecompressorConfig, StreamCompressor, StreamDecompressor,
};
pub use gompresso_service::peak_rss_bytes;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

/// Worker counts measured for the multi-thread rows.
pub const STREAM_THREADS: [usize; 3] = [1, 2, 4];

/// One measured (dataset × mode × worker-count) streaming configuration.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// Dataset name ("wikipedia" or "matrix").
    pub dataset: String,
    /// Encoding mode ("bit" or "byte"); both use Dependency Elimination,
    /// matching the paper's as-deployed configuration.
    pub mode: String,
    /// Worker threads in the transform stage.
    pub threads: usize,
    /// Memory budget in MiB handed to the pipeline.
    pub mem_budget_mb: usize,
    /// Block buffers the pipeline kept in flight (the memory bound).
    pub blocks_in_flight: usize,
    /// Compression ratio of the streamed container.
    pub ratio: f64,
    /// Streaming compression throughput in GB/s (best of the samples).
    pub compress_gbps: f64,
    /// Streaming decompression throughput in GB/s (best of the samples).
    pub decompress_gbps: f64,
    /// Peak RSS in MiB observed across this row's samples (Linux VmHWM,
    /// reset per row via `/proc/self/clear_refs`; 0.0 where unsupported).
    pub peak_rss_mb: f64,
}

/// Resets the kernel's peak-RSS watermark for this process so the next
/// [`peak_rss_bytes`] reading reflects only the work since this call.
/// Best-effort: silently a no-op on kernels/platforms without the knob.
pub fn reset_peak_rss() {
    #[cfg(target_os = "linux")]
    {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gompresso-stream-bench-{}-{name}", std::process::id()))
}

/// The streamed configurations: both encodings with DE, mirroring the
/// deployed configurations of the perf experiment.
fn configs() -> Vec<(&'static str, CompressorConfig)> {
    vec![("bit", CompressorConfig::bit_de()), ("byte", CompressorConfig::byte_de())]
}

/// Measures streaming compress/decompress throughput for every
/// configuration and worker count in [`STREAM_THREADS`]. Each measurement
/// reports the best of `samples` runs; the roundtrip is verified
/// byte-for-byte against the original data *and* the in-memory path.
pub fn stream_throughput(size: usize, samples: usize, mem_budget_mb: usize) -> Vec<StreamRow> {
    let samples = samples.max(1);
    let budget = mem_budget_mb.max(1) * (1 << 20);
    let mut rows = Vec::new();
    for dataset in ["wikipedia", "matrix"] {
        let input = temp_path(&format!("{dataset}.bin"));
        let packed = temp_path(&format!("{dataset}.gpso"));
        let restored = temp_path(&format!("{dataset}.out"));

        // Stage the dataset and the in-memory reference outputs on disk,
        // then drop every full-size buffer before the timed rows: the
        // per-row peak-RSS watermark should reflect the pipeline's bounded
        // window, not resident copies of the whole corpus. (The allocator
        // may retain freed arenas, which sets the floor of the reading.)
        let data_len;
        let mut reference_paths = Vec::new();
        {
            let data = match dataset {
                "matrix" => matrix_data(size),
                _ => wikipedia_data(size),
            };
            data_len = data.len();
            std::fs::write(&input, &data).expect("cannot write bench input file");
            for (mode, cconf) in configs() {
                let reference = compress(&data, &cconf).expect("in-memory compression failed");
                let (reference_out, _) = decompress(&reference.file).expect("in-memory decompression failed");
                let path = temp_path(&format!("{dataset}-{mode}.ref"));
                std::fs::write(&path, &reference_out).expect("cannot write reference output");
                reference_paths.push(path);
            }
        }

        for ((mode, cconf), reference_path) in configs().into_iter().zip(&reference_paths) {
            for threads in STREAM_THREADS {
                reset_peak_rss();
                let compressor = StreamCompressor::new(cconf.clone())
                    .expect("valid config")
                    .with_workers(threads)
                    .with_mem_budget(budget);
                let mut best_compress = f64::INFINITY;
                let mut stats = None;
                for _ in 0..samples {
                    let reader = BufReader::new(File::open(&input).expect("open bench input"));
                    let writer = BufWriter::new(File::create(&packed).expect("create bench output"));
                    let start = Instant::now();
                    let s = compressor.compress_seekable(reader, writer).expect("stream compression failed");
                    best_compress = best_compress.min(start.elapsed().as_secs_f64());
                    stats.get_or_insert(s);
                }
                let stats = stats.expect("at least one compression sample runs");

                let decompressor = StreamDecompressor::new(DecompressorConfig::default())
                    .with_workers(threads)
                    .with_mem_budget(budget);
                let mut best_decompress = f64::INFINITY;
                for sample in 0..samples {
                    let reader = BufReader::new(File::open(&packed).expect("open packed file"));
                    let writer = BufWriter::new(File::create(&restored).expect("create restored file"));
                    let start = Instant::now();
                    decompressor.decompress(reader, writer).expect("stream decompression failed");
                    best_decompress = best_decompress.min(start.elapsed().as_secs_f64());
                    if sample == 0 {
                        assert!(
                            files_identical(&restored, &input),
                            "stream roundtrip diverged from input ({dataset}/{mode}/{threads}t)"
                        );
                        assert!(
                            files_identical(&restored, reference_path),
                            "stream output diverged from the in-memory path ({dataset}/{mode}/{threads}t)"
                        );
                    }
                }

                rows.push(StreamRow {
                    dataset: dataset.to_string(),
                    mode: mode.to_string(),
                    threads,
                    mem_budget_mb,
                    blocks_in_flight: stats.blocks_in_flight,
                    ratio: stats.ratio(),
                    compress_gbps: gbps(data_len as f64 / best_compress),
                    decompress_gbps: gbps(data_len as f64 / best_decompress),
                    peak_rss_mb: peak_rss_bytes() as f64 / (1 << 20) as f64,
                });
            }
        }
        for path in [&input, &packed, &restored] {
            let _ = std::fs::remove_file(path);
        }
        for path in &reference_paths {
            let _ = std::fs::remove_file(path);
        }
    }
    rows
}

/// Chunked file comparison so the byte-identity check itself never holds a
/// full corpus in memory (which would pollute the peak-RSS watermark).
fn files_identical(a: &std::path::Path, b: &std::path::Path) -> bool {
    let mut fa = BufReader::new(File::open(a).expect("open file for comparison"));
    let mut fb = BufReader::new(File::open(b).expect("open file for comparison"));
    let mut ba = vec![0u8; 256 * 1024];
    let mut bb = vec![0u8; 256 * 1024];
    loop {
        let na = read_chunk(&mut fa, &mut ba);
        let nb = read_chunk(&mut fb, &mut bb);
        if na != nb || ba[..na] != bb[..nb] {
            return false;
        }
        if na == 0 {
            return true;
        }
    }
}

fn read_chunk<R: std::io::Read>(r: &mut R, buf: &mut [u8]) -> usize {
    gompresso_core::stream::read_full(r, buf).expect("comparison read failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rows_cover_all_configurations() {
        let rows = stream_throughput(192 * 1024, 1, 1);
        assert_eq!(rows.len(), 2 * configs().len() * STREAM_THREADS.len());
        for row in &rows {
            assert!(row.ratio > 1.0, "{row:?}");
            assert!(row.compress_gbps > 0.0, "{row:?}");
            assert!(row.decompress_gbps > 0.0, "{row:?}");
            assert!(row.blocks_in_flight >= 2, "{row:?}");
        }
        for threads in STREAM_THREADS {
            assert!(rows.iter().any(|r| r.threads == threads));
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_observable_on_linux() {
        reset_peak_rss();
        // Touch a few MiB so the watermark is visibly non-zero.
        let buf = vec![1u8; 4 << 20];
        assert!(buf.iter().map(|&b| b as u64).sum::<u64>() > 0);
        assert!(peak_rss_bytes() > 0);
    }
}
