//! Compressor configuration: file-wide settings plus per-block codec plans.
//!
//! Since the v3 container, the codec choice is a *per-block* decision. The
//! user-facing [`CompressorConfig`] is still one flat struct (its fields
//! describe the default plan), but internally it splits into
//!
//! * [`FileSettings`] — the immutable file-wide fields (block grid, match
//!   geometry) that every block shares and that the container header
//!   records once, and
//! * [`BlockPlan`] — everything a worker needs to compress *one* block
//!   (mode, resolution strategy, DE flag, entropy parameters, matcher
//!   tuning), which the worker gets from [`crate::plan_block`] for each
//!   block it compresses.
//!
//! [`PlanningMode::Static`] stamps the configured plan onto every block
//! (pre-v3 behaviour); [`PlanningMode::Adaptive`] — enabled by
//! [`CompressorConfig::auto`] — probes each block and picks its plan from
//! that block's bytes alone.

use crate::strategy::ResolutionStrategy;
use crate::{GompressoError, Result};
use gompresso_format::{BlockConfig, EncodingMode};
use gompresso_lz77::MatcherConfig;

/// How the compressor chooses each block's codec plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanningMode {
    /// Every block uses the plan implied by the [`CompressorConfig`] fields.
    #[default]
    Static,
    /// Each block's mode and DE flag are chosen from a content probe of
    /// that block alone (byte entropy, match density, dependency
    /// structure); see [`crate::plan_block`].
    Adaptive,
}

/// Immutable file-wide compression settings: the fields that apply to every
/// block regardless of its plan, and that the container header records once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSettings {
    /// Uncompressed size of each data block (the last may be shorter).
    pub block_size: usize,
    /// Sliding-window (dictionary) size; a power of two.
    pub window_size: usize,
    /// Minimum match length.
    pub min_match_len: usize,
    /// Maximum match length.
    pub max_match_len: usize,
    /// Minimal staleness (bytes) for the DE hash-replacement policy.
    pub min_staleness: usize,
}

/// The codec plan for one block: everything a compression worker needs
/// beyond the [`FileSettings`], and everything the v3 container records per
/// block (via [`BlockPlan::block_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPlan {
    /// Bit-level (Huffman) or byte-level encoding for this block.
    pub mode: EncodingMode,
    /// Enforce the Dependency Elimination invariant while matching.
    pub dependency_elimination: bool,
    /// Use the paper's conservative below-high-water-mark DE rule instead of
    /// the precise no-same-group-dependency rule.
    pub strict_hwm: bool,
    /// Sequences per sub-block for parallel Huffman decoding (Bit mode).
    pub sequences_per_sub_block: u32,
    /// Maximum Huffman codeword length (CWL); unused in Byte mode.
    pub max_codeword_len: u8,
    /// Hash-chain candidates examined per position.
    pub chain_depth: usize,
    /// Bytes hashed per chain-table key (0 = automatic, 3 or 4).
    pub hash_bytes: u32,
}

impl BlockPlan {
    /// The resolution strategy this plan lets the compressor recommend to
    /// decoders: single-round DE when the invariant was enforced, MRR
    /// otherwise (always correct).
    pub fn recommended_strategy(&self) -> ResolutionStrategy {
        if self.dependency_elimination {
            ResolutionStrategy::DependencyEliminated
        } else {
            ResolutionStrategy::MultiRound
        }
    }

    /// The per-block record the v3 container stores for a block compressed
    /// under this plan.
    pub fn block_config(&self) -> BlockConfig {
        BlockConfig {
            mode: self.mode,
            strategy: self.recommended_strategy(),
            dependency_elimination: self.dependency_elimination,
            sequences_per_sub_block: self.sequences_per_sub_block,
            max_codeword_len: if self.mode == EncodingMode::Bit { self.max_codeword_len } else { 0 },
        }
    }

    /// The LZ77 matcher configuration for a block compressed under this
    /// plan within `settings`.
    pub fn matcher_config(&self, settings: &FileSettings) -> MatcherConfig {
        MatcherConfig {
            window_size: settings.window_size,
            min_match_len: settings.min_match_len,
            max_match_len: settings.max_match_len,
            chain_depth: self.chain_depth,
            hash_bytes: self.hash_bytes,
            dependency_elimination: self.dependency_elimination,
            strict_hwm: self.strict_hwm,
            min_staleness: settings.min_staleness,
            ..MatcherConfig::default()
        }
    }
}

/// Configuration of the Gompresso compressor.
///
/// The defaults mirror the paper's evaluation setup (Section V): 256 KB data
/// blocks, an 8 KB sliding window, 64-byte match lookahead, 16 sequences per
/// sub-block and a 10-bit maximum codeword length.
///
/// The `mode`, `dependency_elimination` and entropy fields describe the
/// *default block plan*. With [`PlanningMode::Static`] (the default) that
/// plan applies to every block, as in pre-v3 versions. With
/// [`PlanningMode::Adaptive`] ([`CompressorConfig::auto`]) each block's probe
/// picks its mode and DE flag, so `mode` and `dependency_elimination` are
/// unused; the other plan fields apply to every block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressorConfig {
    /// Bit-level (Huffman) or byte-level encoding of every block under
    /// static planning; unused under adaptive planning.
    pub mode: EncodingMode,
    /// Uncompressed size of each data block. Chosen "depending on the total
    /// data size and the number of available processing elements".
    pub block_size: usize,
    /// Sliding-window (dictionary) size; must be a power of two.
    pub window_size: usize,
    /// Minimum match length.
    pub min_match_len: usize,
    /// Maximum match length (the paper's 64-byte lookahead).
    pub max_match_len: usize,
    /// Number of hash-chain candidates examined per position.
    pub chain_depth: usize,
    /// Bytes hashed per chain-table key: 0 (automatic: 4 when the minimum
    /// match length is at least 4, else 3), 3 or 4. See
    /// [`MatcherConfig::hash_bytes`].
    pub hash_bytes: u32,
    /// Sequences per sub-block for parallel Huffman decoding (Bit mode).
    pub sequences_per_sub_block: u32,
    /// Maximum Huffman codeword length (CWL) — bounds the decode LUT size.
    pub max_codeword_len: u8,
    /// Enable Dependency Elimination during matching under static
    /// planning; unused under adaptive planning.
    pub dependency_elimination: bool,
    /// Use the paper's conservative below-high-water-mark DE rule instead of
    /// the precise no-same-group-dependency rule.
    pub strict_hwm: bool,
    /// Minimal staleness (bytes) for the DE hash-replacement policy.
    pub min_staleness: usize,
    /// Static (uniform) or adaptive (per-block) codec planning.
    pub planning: PlanningMode,
}

impl Default for CompressorConfig {
    fn default() -> Self {
        CompressorConfig {
            mode: EncodingMode::Bit,
            block_size: 256 * 1024,
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            chain_depth: 1,
            hash_bytes: 4,
            sequences_per_sub_block: 16,
            max_codeword_len: 10,
            dependency_elimination: false,
            strict_hwm: false,
            min_staleness: 1024,
            planning: PlanningMode::Static,
        }
    }
}

impl CompressorConfig {
    /// Gompresso/Bit without Dependency Elimination.
    pub fn bit() -> Self {
        Self { mode: EncodingMode::Bit, ..Self::default() }
    }

    /// Gompresso/Byte without Dependency Elimination.
    pub fn byte() -> Self {
        Self { mode: EncodingMode::Byte, ..Self::default() }
    }

    /// Gompresso/Bit with Dependency Elimination (the configuration used for
    /// the paper's headline comparisons).
    pub fn bit_de() -> Self {
        Self { mode: EncodingMode::Bit, dependency_elimination: true, ..Self::default() }
    }

    /// Gompresso/Byte with Dependency Elimination.
    pub fn byte_de() -> Self {
        Self { mode: EncodingMode::Byte, dependency_elimination: true, ..Self::default() }
    }

    /// Adaptive per-block planning: each block's mode and strategy are
    /// chosen from a content probe of that block, so heterogeneous files get
    /// Huffman coding where it pays and cheap byte coding where it does not.
    pub fn auto() -> Self {
        Self { planning: PlanningMode::Adaptive, ..Self::default() }
    }

    /// The immutable file-wide settings this configuration implies.
    pub fn file_settings(&self) -> FileSettings {
        FileSettings {
            block_size: self.block_size,
            window_size: self.window_size,
            min_match_len: self.min_match_len,
            max_match_len: self.max_match_len,
            min_staleness: self.min_staleness,
        }
    }

    /// The default block plan implied by the flat fields — the plan every
    /// block gets under static planning, with its mode and DE flag replaced
    /// per block under adaptive planning.
    pub fn base_plan(&self) -> BlockPlan {
        BlockPlan {
            mode: self.mode,
            dependency_elimination: self.dependency_elimination,
            strict_hwm: self.strict_hwm,
            sequences_per_sub_block: self.sequences_per_sub_block,
            max_codeword_len: self.max_codeword_len,
            chain_depth: self.chain_depth,
            hash_bytes: self.hash_bytes,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        let err = |reason: &str| Err(GompressoError::InvalidConfig { reason: reason.to_string() });
        if self.block_size == 0 || self.block_size > (1 << 30) {
            return err("block size must be between 1 byte and 1 GiB");
        }
        if !self.window_size.is_power_of_two() || self.window_size < 256 {
            return err("window size must be a power of two of at least 256 bytes");
        }
        if self.min_match_len < 3 {
            return err("minimum match length must be at least 3");
        }
        if self.max_match_len < self.min_match_len || self.max_match_len > 64 * 1024 {
            return err("maximum match length must lie between the minimum and 64 KiB");
        }
        if self.mode == EncodingMode::Byte && self.window_size > 64 * 1024 {
            return err("byte mode stores offsets in 16 bits, so the window cannot exceed 64 KiB");
        }
        if self.sequences_per_sub_block == 0 {
            return err("sub-blocks must contain at least one sequence");
        }
        if self.mode == EncodingMode::Bit && !(2..=16).contains(&self.max_codeword_len) {
            return err("maximum codeword length must be between 2 and 16 bits");
        }
        if self.planning == PlanningMode::Adaptive && !(2..=16).contains(&self.max_codeword_len) {
            return err("adaptive planning may emit Huffman blocks, so the codeword length must be 2..=16");
        }
        if self.chain_depth == 0 {
            return err("chain depth must be at least 1");
        }
        if !matches!(self.hash_bytes, 0 | 3 | 4) {
            return err("hash width must be 0 (auto), 3 or 4 bytes");
        }
        Ok(())
    }

    /// The LZ77 matcher configuration of the default block plan. Kept for
    /// callers that tune the matcher directly; per-block plans derive their
    /// own via [`BlockPlan::matcher_config`].
    pub fn matcher_config(&self) -> MatcherConfig {
        self.base_plan().matcher_config(&self.file_settings())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = CompressorConfig::default();
        assert_eq!(c.block_size, 256 * 1024);
        assert_eq!(c.window_size, 8 * 1024);
        assert_eq!(c.max_match_len, 64);
        assert_eq!(c.sequences_per_sub_block, 16);
        assert_eq!(c.max_codeword_len, 10);
        assert_eq!(c.planning, PlanningMode::Static);
        c.validate().unwrap();
    }

    #[test]
    fn presets_are_valid_and_distinct() {
        for (config, mode, de) in [
            (CompressorConfig::bit(), EncodingMode::Bit, false),
            (CompressorConfig::byte(), EncodingMode::Byte, false),
            (CompressorConfig::bit_de(), EncodingMode::Bit, true),
            (CompressorConfig::byte_de(), EncodingMode::Byte, true),
        ] {
            config.validate().unwrap();
            assert_eq!(config.mode, mode);
            assert_eq!(config.dependency_elimination, de);
            assert_eq!(config.planning, PlanningMode::Static);
        }
        let auto = CompressorConfig::auto();
        auto.validate().unwrap();
        assert_eq!(auto.planning, PlanningMode::Adaptive);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = |f: fn(&mut CompressorConfig)| {
            let mut c = CompressorConfig::default();
            f(&mut c);
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        };
        bad(|c| c.block_size = 0);
        bad(|c| c.window_size = 1000);
        bad(|c| c.window_size = 128);
        bad(|c| c.min_match_len = 2);
        bad(|c| c.max_match_len = 2);
        bad(|c| c.sequences_per_sub_block = 0);
        bad(|c| c.max_codeword_len = 1);
        bad(|c| c.max_codeword_len = 20);
        bad(|c| c.chain_depth = 0);
        bad(|c| {
            c.mode = EncodingMode::Byte;
            c.window_size = 128 * 1024;
        });
        // Adaptive planning may emit Huffman blocks, so a Byte-mode base
        // with a CWL outside the Huffman range is invalid once adaptive.
        bad(|c| {
            c.mode = EncodingMode::Byte;
            c.max_codeword_len = 0;
            c.planning = PlanningMode::Adaptive;
        });
    }

    #[test]
    fn matcher_config_reflects_settings() {
        let c =
            CompressorConfig { dependency_elimination: true, window_size: 4096, ..CompressorConfig::bit() };
        let m = c.matcher_config();
        assert!(m.dependency_elimination);
        assert_eq!(m.window_size, 4096);
        assert_eq!(m.max_match_len, 64);
    }

    #[test]
    fn byte_mode_allows_codeword_len_zero_field_to_be_ignored() {
        let mut c = CompressorConfig::byte();
        c.max_codeword_len = 0;
        // Byte mode ignores the codeword length; validation still passes.
        assert!(c.validate().is_ok());
    }

    #[test]
    fn base_plan_round_trips_into_block_config() {
        let de = CompressorConfig::bit_de();
        let plan = de.base_plan();
        assert_eq!(plan.recommended_strategy(), ResolutionStrategy::DependencyEliminated);
        let config = plan.block_config();
        config.validate().unwrap();
        assert_eq!(config.mode, EncodingMode::Bit);
        assert!(config.dependency_elimination);
        assert_eq!(config.max_codeword_len, 10);

        let byte = CompressorConfig::byte().base_plan();
        assert_eq!(byte.recommended_strategy(), ResolutionStrategy::MultiRound);
        let config = byte.block_config();
        config.validate().unwrap();
        assert_eq!(config.max_codeword_len, 0, "byte blocks record no CWL");
    }

    #[test]
    fn plan_matcher_config_follows_plan_not_base() {
        let cfg = CompressorConfig::bit();
        let settings = cfg.file_settings();
        let de_plan = BlockPlan { dependency_elimination: true, ..cfg.base_plan() };
        assert!(de_plan.matcher_config(&settings).dependency_elimination);
        assert!(!cfg.base_plan().matcher_config(&settings).dependency_elimination);
    }
}
