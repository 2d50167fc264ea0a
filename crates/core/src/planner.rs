//! Per-block codec planning.
//!
//! The paper's evaluation (Figures 9–13) shows that the winning point of
//! the {Bit,Byte} × {SC,MRR,DE} grid depends on the data: Huffman coding
//! wins on text, byte-level coding on barely-compressible data, and
//! Dependency Elimination costs ratio exactly where back-references nest.
//! With the v3 container recording a [`BlockConfig`](crate::BlockConfig)
//! per block, that choice no longer has to be file-wide: [`plan_block`]
//! picks a [`BlockPlan`] for every block the compressor is about to
//! process.
//!
//! * [`PlanningMode::Static`] stamps the configured plan onto every block —
//!   exactly the pre-v3 behaviour, and zero overhead.
//! * [`PlanningMode::Adaptive`] probes a small prefix of the block
//!   (byte-entropy histogram, plus an LZ77 probe over the sample that yields
//!   the match density and the same-warp dependency rate from
//!   [`gompresso_lz77::analysis`]): nearly incompressible blocks drop to
//!   cheap byte coding, naturally dependency-free blocks get the DE
//!   single-round guarantee for free, and everything else keeps
//!   Huffman + MRR for ratio.
//!
//! A plan depends only on the configuration and the block's own bytes, so
//! every path that compresses a block (in memory or streamed, at any worker
//! count) plans it identically and the same input always produces the same
//! archive.

use crate::config::{BlockPlan, CompressorConfig, PlanningMode};
use gompresso_format::EncodingMode;
use gompresso_lz77::{analysis, Matcher, MatcherScratch, SequenceBlock, GROUP_SIZE};
use std::cell::RefCell;

/// Bytes of each block the adaptive planner samples. Large enough that the
/// entropy estimate and the match probe are stable, small enough that
/// planning stays a few percent of the block's compression cost.
const PROBE_LEN: usize = 8 * 1024;

/// Entropy (bits/byte) above which a block is treated as incompressible by
/// the Huffman stage. Text sits near 4–5, compressed/encrypted data near 8.
const HIGH_ENTROPY_BITS: f64 = 7.6;

/// Probe match density (matched bytes / probed bytes) below which the LZ77
/// stage found essentially nothing to reference.
const LOW_MATCH_DENSITY: f64 = 0.05;

/// Probe dependency rate (same-warp dependent back-references / total
/// back-references) below which enforcing DE costs essentially no ratio.
const LOW_DEPENDENCY_RATE: f64 = 0.05;

/// What the content probe measured in a block's sampled prefix.
#[derive(Debug, Clone, Copy)]
struct ProbeResult {
    /// Shannon entropy of the sampled bytes, in bits per byte.
    entropy_bits: f64,
    /// Matched bytes / sampled bytes.
    match_density: f64,
    /// Same-warp dependent back-references / total back-references
    /// (0 when the probe found no back-references at all).
    dependency_rate: f64,
}

thread_local! {
    /// Per-thread probe scratch so planning allocates nothing in steady
    /// state on the compression workers.
    static PROBE_SCRATCH: RefCell<(SequenceBlock, MatcherScratch)> =
        RefCell::new((SequenceBlock::new(), MatcherScratch::new()));
}

/// Plans the block holding `data` under `config`, which must validate: the
/// configured plan under static planning, or under adaptive planning the
/// same plan with the mode and DE flag a probe of the block's first 8 KiB
/// picks.
pub fn plan_block(config: &CompressorConfig, data: &[u8]) -> BlockPlan {
    let base = config.base_plan();
    if config.planning == PlanningMode::Static {
        return base;
    }
    let probe = probe(config, data);
    // Near-uniform bytes with nothing to reference: Huffman cannot shorten
    // the literals, so byte coding stores the same size and decodes cheaper.
    let incompressible = probe.entropy_bits >= HIGH_ENTROPY_BITS && probe.match_density < LOW_MATCH_DENSITY;
    let mode = if incompressible && config.window_size <= 64 * 1024 {
        EncodingMode::Byte
    } else {
        EncodingMode::Bit
    };
    // DE is free exactly when the data's back-references barely nest within
    // warp groups; otherwise keep MRR and the full match search.
    let dependency_elimination = probe.dependency_rate <= LOW_DEPENDENCY_RATE;
    BlockPlan { mode, dependency_elimination, ..base }
}

/// Measures the first [`PROBE_LEN`] bytes of `data`: byte entropy, plus an
/// LZ77 pass under the base plan's tuning with DE off, so the probe sees the
/// unconstrained dependency structure.
fn probe(config: &CompressorConfig, data: &[u8]) -> ProbeResult {
    let sample = &data[..data.len().min(PROBE_LEN)];
    if sample.is_empty() {
        return ProbeResult { entropy_bits: 0.0, match_density: 0.0, dependency_rate: 0.0 };
    }

    let mut histogram = [0u64; 256];
    for &byte in sample {
        histogram[byte as usize] += 1;
    }
    let n = sample.len() as f64;
    let entropy_bits = histogram
        .iter()
        .filter(|&&count| count > 0)
        .map(|&count| {
            let p = count as f64 / n;
            -p * p.log2()
        })
        .sum();

    let probe_plan = BlockPlan { dependency_elimination: false, ..config.base_plan() };
    let matcher = Matcher::new(probe_plan.matcher_config(&config.file_settings()));
    PROBE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (seq_block, matcher_scratch) = &mut *scratch;
        matcher.compress_into(sample, seq_block, matcher_scratch);
        let match_density = seq_block.match_len() as f64 / n;
        let deps = analysis::dependency_stats(seq_block, GROUP_SIZE);
        let dependency_rate =
            if deps.total_refs == 0 { 0.0 } else { deps.dependent_refs as f64 / deps.total_refs as f64 };
        ProbeResult { entropy_bits, match_density, dependency_rate }
    })
}

// The planner interface the benchmark's stage replay (`benchmark/`) still
// calls. Nothing in the workspace uses it; it goes when the replay does.

/// Outcome of a finished block, as the benchmark replay reports it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct BlockFeedback {
    /// Index of the finished block.
    pub block_index: u64,
    /// Encoding mode the block was compressed with.
    pub mode: EncodingMode,
    /// Uncompressed bytes in the block.
    pub uncompressed_len: usize,
    /// Compressed payload bytes the block produced.
    pub compressed_len: usize,
    /// Wall-clock seconds the block's compression took.
    pub seconds: f64,
}

/// [`plan_block`] bound to one configuration.
#[doc(hidden)]
#[derive(Debug)]
pub struct ReplayPlanner(CompressorConfig);

/// The [`ReplayPlanner`] for `config`, which must validate.
#[doc(hidden)]
pub fn planner_for(config: &CompressorConfig) -> ReplayPlanner {
    ReplayPlanner(config.clone())
}

impl ReplayPlanner {
    /// [`plan_block`] on `data`; the block index is ignored.
    pub fn plan(&self, _block_index: u64, data: &[u8]) -> BlockPlan {
        plan_block(&self.0, data)
    }

    /// Does nothing: plans never depend on other blocks.
    pub fn record(&self, _feedback: &BlockFeedback) {}

    /// Whether the configuration plans each block from its bytes.
    pub fn is_adaptive(&self) -> bool {
        self.0.planning == PlanningMode::Adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(len: usize) -> Vec<u8> {
        b"the quick brown fox jumps over the lazy dog. ".iter().copied().cycle().take(len).collect()
    }

    /// xorshift64 bytes reduced mod `modulus`. At 256 they are
    /// high-entropy and free of repeated n-grams, so the LZ77 probe finds
    /// essentially nothing to reference.
    fn xorshift(len: usize, modulus: u64) -> Vec<u8> {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 24) % modulus) as u8
            })
            .collect()
    }

    fn noise(len: usize) -> Vec<u8> {
        xorshift(len, 256)
    }

    #[test]
    fn static_planner_is_constant_and_not_adaptive() {
        for cfg in [
            CompressorConfig::bit(),
            CompressorConfig::byte(),
            CompressorConfig::bit_de(),
            CompressorConfig::byte_de(),
        ] {
            assert_eq!(plan_block(&cfg, &text(32 * 1024)), cfg.base_plan());
            assert_eq!(plan_block(&cfg, &noise(32 * 1024)), cfg.base_plan());
        }
    }

    #[test]
    fn adaptive_picks_bit_for_text_and_byte_for_noise() {
        let auto = CompressorConfig::auto();
        let text_plan = plan_block(&auto, &text(32 * 1024));
        assert_eq!(text_plan.mode, EncodingMode::Bit);
        let noise_plan = plan_block(&auto, &noise(32 * 1024));
        assert_eq!(noise_plan.mode, EncodingMode::Byte);
        // Every emitted plan's container record validates.
        text_plan.block_config().validate().unwrap();
        noise_plan.block_config().validate().unwrap();
        // Byte blocks store 16-bit offsets, so a wider window keeps Huffman.
        let wide = CompressorConfig { window_size: 128 * 1024, ..CompressorConfig::auto() };
        assert_eq!(plan_block(&wide, &noise(32 * 1024)).mode, EncodingMode::Bit);
    }

    #[test]
    fn adaptive_enables_de_only_when_dependencies_are_rare() {
        let auto = CompressorConfig::auto();
        // Noise has no back-references at all -> DE is free.
        assert!(plan_block(&auto, &noise(16 * 1024)).dependency_elimination);
        // Tight short-period repetition nests heavily within warp groups.
        let nested: Vec<u8> = b"abcd".iter().copied().cycle().take(16 * 1024).collect();
        let nested_plan = plan_block(&auto, &nested);
        assert!(
            !nested_plan.dependency_elimination,
            "heavily nested data should keep MRR, got {nested_plan:?}"
        );
        assert_eq!(nested_plan.block_config().strategy, crate::ResolutionStrategy::MultiRound);
    }

    #[test]
    fn borderline_blocks_keep_huffman() {
        // 160 equally likely byte values: about 7.3 bits/byte, below the
        // byte-coding threshold, and random enough that the probe finds
        // almost nothing to reference. Such a block is planned from its own
        // probe, whatever other blocks of the file did.
        let auto = CompressorConfig::auto();
        let block = xorshift(32 * 1024, 160);
        let probe = probe(&auto, &block);
        assert!((7.0..7.6).contains(&probe.entropy_bits), "entropy {}", probe.entropy_bits);
        assert!(probe.match_density < LOW_MATCH_DENSITY, "density {}", probe.match_density);
        assert_eq!(plan_block(&auto, &block).mode, EncodingMode::Bit);
    }

    #[test]
    fn empty_block_gets_a_valid_plan() {
        plan_block(&CompressorConfig::auto(), &[]).block_config().validate().unwrap();
    }
}
