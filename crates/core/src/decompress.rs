//! Massively-parallel decompression (paper, Section III-B).
//!
//! Decompression exploits two levels of parallelism:
//!
//! * **inter-block** — every data block is independent; blocks are handed to
//!   a rayon thread pool, standing in for the GPU grid of thread groups;
//! * **intra-block** — within each block, the paper's 32-lane warp performs
//!   parallel Huffman decoding (one sub-block per lane, Gompresso/Bit only)
//!   followed by warp-level LZ77 decompression with the block's
//!   back-reference resolution strategy. The host decodes a block's
//!   sub-blocks one after another in one pass and executes the decoded
//!   sequences in order; the warp exists only in the model of
//!   [`crate::warp_lz77`], behind [`Decompressor::simulate`].
//!
//! Since the v3 container every block carries its own [`BlockConfig`], so a
//! single file may mix Huffman and byte-coded blocks and mix resolution
//! strategies. The decompressor follows those records by default
//! ([`StrategySelection::Planned`]) and can force one strategy file-wide for
//! experiments ([`StrategySelection::Force`], the paper's Figure 9a sweep).
//!
//! This module is the host decoder. [`Decompressor::decompress`] (and the
//! stream, range and salvage decoders built on the same block body) decodes
//! each byte block in one pass from its borrowed payload straight into the
//! block's output slice ([`ByteBlockView::decompress_into`]). Bit blocks,
//! byte blocks under the DE check and any byte block whose fused pass
//! fails take the sequence path: parse in place ([`BitBlockView`],
//! [`ByteBlockView`]), entropy-decode the sequences, run them through the
//! wide-copy executor of `gompresso-lz77` — the one
//! structural validator of decoded sequences, whose per-sequence step the
//! fused pass shares — and, under `validate_de`, apply
//! [`gompresso_lz77::verify_de_invariant`]. Every reported error comes from
//! the sequence path. `simulate` shares it too (parse, entropy decode,
//! execution and the DE check), so both accept and reject the same blocks
//! with the same errors.

use crate::error::invalid_field;
use crate::stats::DecompressionReport;
use crate::strategy::{ResolutionStrategy, StrategySelection};
use crate::{GompressoError, Result};
use gompresso_bitstream::ByteReader;
use gompresso_format::{
    token_code::TokenCoder, BitBlock, BitBlockView, BlockConfig, ByteBlock, ByteBlockView, CompressedFile,
    EncodingMode, InterleaveScratch,
};
use gompresso_lz77::{SequenceBlock, GROUP_SIZE};
use rayon::prelude::*;
use std::cell::RefCell;
use std::time::Instant;

/// Decompressor configuration.
#[derive(Debug, Clone)]
pub struct DecompressorConfig {
    /// How to pick each block's back-reference resolution strategy: follow
    /// the per-block records (default) or force one strategy file-wide.
    pub strategy: StrategySelection,
    /// When a block resolves with the DE strategy, verify the DE invariant
    /// and fail with [`GompressoError::DependencyEliminationViolated`] if
    /// the block was not compressed with Dependency Elimination.
    pub validate_de: bool,
    /// Hard ceiling on the decompressed output size the decompressor will
    /// allocate (default 4 GiB). Together with the per-block payload
    /// plausibility bound this keeps a crafted header from requesting an
    /// arbitrarily large allocation; raise it explicitly for larger files.
    pub max_output_size: u64,
    /// Verify each block's stored content checksum against the bytes
    /// actually produced (v4 archives; pre-v4 archives carry no checksums
    /// and skip the check). On by default — the explicit opt-out exists for
    /// benchmarking the raw decode path and for callers that layer their
    /// own end-to-end integrity checks.
    pub verify_checksums: bool,
}

impl Default for DecompressorConfig {
    fn default() -> Self {
        DecompressorConfig {
            strategy: StrategySelection::Planned,
            validate_de: false,
            max_output_size: 4 << 30,
            verify_checksums: true,
        }
    }
}

impl DecompressorConfig {
    /// Whether a block resolved with `strategy` must pass the DE check.
    pub(crate) fn checks_de(&self, strategy: ResolutionStrategy) -> bool {
        self.validate_de && strategy == ResolutionStrategy::DependencyEliminated
    }
}

/// Gompresso decompressor.
#[derive(Debug, Clone, Default)]
pub struct Decompressor {
    config: DecompressorConfig,
}

/// Decompresses `file` with the default configuration (per-block planned
/// strategies, checksums verified).
pub fn decompress(file: &CompressedFile) -> Result<(Vec<u8>, DecompressionReport)> {
    Decompressor::default().decompress(file)
}

/// Decompresses `file` with an explicit configuration.
pub fn decompress_with(
    file: &CompressedFile,
    config: &DecompressorConfig,
) -> Result<(Vec<u8>, DecompressionReport)> {
    Decompressor::new(config.clone()).decompress(file)
}

/// Per-worker decode scratch: the block-level sequence/literal buffers and
/// the bit-block decode tables and run buffer.
#[derive(Default)]
struct DecodeScratch {
    seq_block: SequenceBlock,
    tokens: InterleaveScratch,
}

thread_local! {
    /// Per-worker decode scratch. Each rayon worker decodes every block it
    /// owns into the same buffers, so steady-state decompression performs
    /// no per-block heap allocation once the scratch has grown to the
    /// largest block handled by that worker.
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

impl Decompressor {
    /// Creates a decompressor.
    pub fn new(config: DecompressorConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecompressorConfig {
        &self.config
    }

    /// Decompresses an in-memory Gompresso file on the host, returning the
    /// original data and a report of sizes and wall time. GPU estimates come
    /// from [`Decompressor::simulate`], the model in [`crate::warp_lz77`].
    ///
    /// The output buffer is allocated exactly once; every worker writes its
    /// blocks' bytes directly into the block's disjoint slice of that
    /// buffer (located via the header's prefix-summed block sizes), so each
    /// decompressed byte is written exactly once and never re-copied.
    pub fn decompress(&self, file: &CompressedFile) -> Result<(Vec<u8>, DecompressionReport)> {
        let start = Instant::now();
        let header = &file.header;
        let coder = self.validated_coder(file)?;

        let mut output = vec![0u8; header.uncompressed_size as usize];
        let sizes = (0..file.blocks.len()).map(|idx| header.block_uncompressed_size(idx));
        decode_into_slices(&mut output, sizes, |idx, dst| {
            decompress_block_checked(
                &self.config,
                header.block_config(idx),
                &coder,
                idx,
                &file.blocks[idx].bytes,
                header.block_checksums.get(idx).copied(),
                dst,
            )
            .map_err(|e| e.in_block(idx as u64, None))
        })?;

        let report = DecompressionReport {
            uncompressed_size: header.uncompressed_size,
            compressed_size: file.compressed_size() as u64,
            wall_seconds: start.elapsed().as_secs_f64(),
        };
        Ok((output, report))
    }

    /// Validates the header and — before anything of `uncompressed_size` is
    /// allocated — bounds its claim: the total must not exceed the
    /// configured output ceiling, every block's payload-declared size must
    /// agree with the header, and no block may claim more output than its
    /// payload bytes could plausibly expand to, so neither a corrupt nor a
    /// crafted header can trigger an enormous allocation backed by a tiny
    /// payload. Returns the file's token coder.
    pub(crate) fn validated_coder(&self, file: &CompressedFile) -> Result<TokenCoder> {
        let header = &file.header;
        header.validate()?;
        let coder = TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size)?;
        if header.uncompressed_size > self.config.max_output_size {
            return Err(invalid_field("uncompressed_size", header.uncompressed_size));
        }
        validate_declared_sizes(file)?;
        Ok(coder)
    }
}

/// Splits `out` into consecutive slices of the given `sizes`, runs
/// `decode(position, slice)` on them in parallel, and returns the error of
/// the first failing position. The one parallel decode loop of the
/// in-memory and range decoders: each block's bytes are written straight
/// into its disjoint slice of one output buffer.
pub(crate) fn decode_into_slices(
    out: &mut [u8],
    sizes: impl IntoIterator<Item = u64>,
    decode: impl Fn(usize, &mut [u8]) -> Result<()> + Sync,
) -> Result<()> {
    let mut work = Vec::new();
    let mut rest = out;
    for (position, size) in sizes.into_iter().enumerate() {
        let (slice, tail) = rest.split_at_mut(size as usize);
        rest = tail;
        work.push((position, slice));
    }
    let results: Vec<Result<()>> =
        work.into_par_iter().map(|(position, slice)| decode(position, slice)).collect();
    results.into_iter().collect()
}

/// What a parsed bit block holds besides its sequences, for the decode
/// kernel [`Decompressor::simulate`] charges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitLayout {
    /// Bytes of the block's two decode tables (4 per entry).
    pub(crate) table_bytes: u32,
    /// Sequences per sub-block; the last sub-block may hold fewer.
    pub(crate) sequences_per_sub_block: usize,
}

/// Parses one block payload and entropy-decodes its sequences into the
/// worker's scratch, checks the decoded length against the `declared` size
/// the caller sized its output from (header-derived for the in-memory path,
/// payload-declared and bounds-checked for the streaming path), so a
/// mismatch means the payload decoded to something else entirely, and then
/// hands the sequences — and a bit block's [`BitLayout`] — to `then`. The
/// one parse and entropy decode of host decoding and of `simulate`.
pub(crate) fn with_decoded_block<T>(
    block: &BlockConfig,
    coder: &TokenCoder,
    payload: &[u8],
    declared: usize,
    then: impl FnOnce(&SequenceBlock, Option<BitLayout>) -> Result<T>,
) -> Result<T> {
    DECODE_SCRATCH.with(|scratch| {
        let DecodeScratch { seq_block, tokens } = &mut *scratch.borrow_mut();
        let mut r = ByteReader::new(payload);
        let layout = match block.mode {
            EncodingMode::Bit => {
                let view = BitBlockView::parse(&mut r)?;
                view.decode_into(coder, tokens, seq_block)?;
                // The K40 model charges the paper's CWL-bit tables, 4 bytes
                // per entry, whatever tables the host decoded with.
                Some(BitLayout {
                    table_bytes: (4u32 << view.lit_len_code.max_len()) + (4u32 << view.offset_code.max_len()),
                    sequences_per_sub_block: view.sequences_per_sub_block as usize,
                })
            }
            EncodingMode::Byte => {
                ByteBlockView::parse(&mut r)?.decode_into(seq_block)?;
                None
            }
        };
        if seq_block.uncompressed_len != declared {
            return Err(GompressoError::OutputSizeMismatch {
                declared: declared as u64,
                produced: seq_block.uncompressed_len as u64,
            });
        }
        then(seq_block, layout)
    })
}

/// Executes decoded sequences into `dst` with the wide-copy kernels, which
/// reject literal overruns, zero offsets, offsets before the block start
/// and length mismatches — the one structural validation of a decoded
/// block — and then, when `check_de`, requires the Dependency Elimination
/// invariant of its 32-sequence groups
/// ([`gompresso_lz77::verify_de_invariant`]). Checking after the write is
/// safe: every caller discards a block that fails.
pub(crate) fn execute_block(
    seqs: &SequenceBlock,
    check_de: bool,
    block_index: usize,
    dst: &mut [u8],
) -> Result<()> {
    gompresso_lz77::decompress_block_into(seqs, dst)?;
    if check_de {
        // Execution has validated every offset, so a violation is the only
        // error left.
        gompresso_lz77::verify_de_invariant(seqs, GROUP_SIZE)
            .map_err(|_| GompressoError::DependencyEliminationViolated { block: block_index })?;
    }
    Ok(())
}

/// Verifies a block's stored content checksum (when the archive carries
/// one) against the decompressed bytes.
pub(crate) fn verify_block_checksum(block: u64, stored: Option<u64>, dst: &[u8]) -> Result<()> {
    if let Some(stored) = stored {
        let computed = gompresso_format::content_checksum(dst);
        if computed != stored {
            return Err(GompressoError::BlockChecksumMismatch { block, stored, computed });
        }
    }
    Ok(())
}

/// Decodes one admitted block payload into `dst` under the block's recorded
/// config, then — unless checksum verification is disabled — verifies the
/// stored content checksum. The one per-block decode body of the in-memory
/// [`Decompressor`], the streaming workers in [`crate::stream`], the
/// random-access reader and salvage, so every path applies identical
/// resolution strategies and validation.
///
/// A byte block decodes in one pass from its borrowed payload straight
/// into `dst` ([`ByteBlockView::decompress_into`]), unless the DE check
/// applies, which needs its sequences. Everything else, and a byte block
/// whose fused pass fails, takes the sequence path: parse and entropy
/// decode into the per-worker scratch, size check, execution and the DE
/// check. The fused pass accepts exactly what the sequence path accepts,
/// so a failing block pays one more decode and reports the sequence path's
/// error.
pub(crate) fn decompress_block_checked(
    config: &DecompressorConfig,
    block: &BlockConfig,
    coder: &TokenCoder,
    block_index: usize,
    payload: &[u8],
    checksum: Option<u64>,
    dst: &mut [u8],
) -> Result<()> {
    let check_de = config.checks_de(config.strategy.resolve(block));
    let fused = block.mode == EncodingMode::Byte
        && !check_de
        && ByteBlockView::parse(&mut ByteReader::new(payload))
            .and_then(|view| view.decompress_into(dst))
            .is_ok();
    if !fused {
        with_decoded_block(block, coder, payload, dst.len(), |seqs, _| {
            execute_block(seqs, check_de, block_index, dst)
        })?;
    }
    if config.verify_checksums {
        verify_block_checksum(block_index as u64, checksum, dst)?;
    }
    Ok(())
}

/// The output size a block's container assigns it — its *slot* — against
/// which [`admit_block`] checks the size the payload itself declares.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// The header, index or trailer fixes the block's output size.
    Exact(u64),
    /// A sequentially read stream frame: any size from 1 up to the block
    /// size (only the final block may be short, which the stream writer
    /// stage enforces).
    UpTo(u64),
}

/// Block admission: the check every decoder makes before it allocates a
/// block's output. The payload's declared size (read with the cheap peek
/// that skips code tables) must fill `slot` and must not exceed what
/// `payload` could plausibly expand to. Returns the declared size.
pub(crate) fn admit_block(mode: EncodingMode, payload: &[u8], slot: Slot, max_match_len: u32) -> Result<u64> {
    let declared = match mode {
        EncodingMode::Bit => BitBlock::peek_uncompressed_len(payload)?,
        EncodingMode::Byte => ByteBlock::peek_uncompressed_len(payload)?,
    };
    match slot {
        Slot::Exact(size) if declared != size => {
            return Err(GompressoError::OutputSizeMismatch { declared: size, produced: declared })
        }
        Slot::UpTo(block_size) if declared == 0 || declared > block_size => {
            return Err(invalid_field("block_uncompressed_size", declared))
        }
        _ => {}
    }
    if declared > plausible_output_ceiling(mode, payload.len() as u64, max_match_len) {
        return Err(invalid_field("uncompressed_size", declared));
    }
    Ok(declared)
}

/// Format-derived expansion ceiling: byte mode is LZ4-style (a 255-chained
/// extension byte adds at most 255 output bytes, so < 255 output bytes per
/// payload byte); bit mode yields at most one maximal match per coded bit.
/// A declared size above the ceiling can only come from a crafted header,
/// so both the in-memory and streaming decompressors reject it *before*
/// allocating the output buffer.
pub(crate) fn plausible_output_ceiling(mode: EncodingMode, payload_len: u64, max_match_len: u32) -> u64 {
    match mode {
        EncodingMode::Byte => payload_len.saturating_mul(255).saturating_add(64),
        EncodingMode::Bit => {
            payload_len.saturating_mul(8).saturating_mul(u64::from(max_match_len.max(1))).saturating_add(64)
        }
    }
}

/// Checks, before any output allocation, that the header's claimed
/// `uncompressed_size` is corroborated by the blocks themselves: the
/// header-derived per-block sizes must sum to it exactly, and every block
/// must pass [`admit_block`] against its header-derived size.
fn validate_declared_sizes(file: &CompressedFile) -> Result<()> {
    let header = &file.header;
    let mut total = 0u64;
    for (idx, payload) in file.blocks.iter().enumerate() {
        let slot = header.block_uncompressed_size(idx);
        admit_block(header.block_config(idx).mode, &payload.bytes, Slot::Exact(slot), header.max_match_len)?;
        total += slot;
    }
    if total != header.uncompressed_size {
        return Err(GompressoError::OutputSizeMismatch {
            declared: header.uncompressed_size,
            produced: total,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::config::CompressorConfig;
    use crate::{CostModel, SimulationReport};

    fn wiki_like(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        let mut i = 0u64;
        while data.len() < len {
            data.extend_from_slice(
                format!(
                    "<page><title>Article {}</title><text>The quick brown fox jumps over entry {} of the corpus.</text></page>\n",
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

    fn cfg_small(mut c: CompressorConfig) -> CompressorConfig {
        c.block_size = 64 * 1024;
        c
    }

    fn simulate_with(file: &CompressedFile, config: &DecompressorConfig) -> SimulationReport {
        Decompressor::new(config.clone()).simulate(file, &CostModel::tesla_k40()).unwrap()
    }

    fn simulate(file: &CompressedFile) -> SimulationReport {
        simulate_with(file, &DecompressorConfig::default())
    }

    #[test]
    fn bit_mode_roundtrip_with_all_strategies() {
        let data = wiki_like(300_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit_de())).unwrap();
        for strategy in ResolutionStrategy::ALL {
            let config = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
            let (restored, report) = decompress_with(&out.file, &config).unwrap();
            assert_eq!(restored, data, "strategy {strategy}");
            assert_eq!(report.uncompressed_size, data.len() as u64);
            assert!(report.compressed_size > 0);
            assert!(report.wall_seconds > 0.0);
            let report = simulate_with(&out.file, &config);
            assert_eq!(report.uncompressed_size, data.len() as u64);
            // Bit mode runs a decode kernel on every block.
            assert_eq!(report.decode_counters.warps as usize, out.file.blocks.len());
            assert_eq!(report.lz77_counters.warps as usize, out.file.blocks.len());
            assert!(report.gpu.decode_kernel_s > 0.0);
            assert!(report.gpu.lz77_kernel_s > 0.0);
            assert!(report.gpu.with_io_s() > report.gpu.device_only_s());
        }
    }

    #[test]
    fn byte_mode_roundtrip_and_fused_kernel() {
        let data = wiki_like(200_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let (restored, _) = decompress(&out.file).unwrap();
        assert_eq!(restored, data);
        let report = simulate(&out.file);
        // Byte mode has no separate Huffman decode kernel.
        assert_eq!(report.decode_counters.warps, 0);
        assert_eq!(report.gpu.decode_kernel_s, 0.0);
        assert!(report.gpu.lz77_kernel_s > 0.0);
    }

    #[test]
    fn planned_selection_follows_per_block_records() {
        // A DE file's blocks record the DE strategy; a plain file's record
        // MRR. The default (planned) selection must resolve both correctly
        // with DE validation enabled — proving it reads the records rather
        // than assuming one strategy file-wide.
        let data = wiki_like(200_000);
        let config = DecompressorConfig { validate_de: true, ..DecompressorConfig::default() };
        for compressor in [cfg_small(CompressorConfig::byte_de()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &compressor).unwrap();
            let (restored, _) = decompress_with(&out.file, &config).unwrap();
            assert_eq!(restored, data);
        }
    }

    #[test]
    fn validate_de_accepts_de_files_and_rejects_others() {
        let data = wiki_like(200_000);
        let de_file = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let plain_file = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();

        let config = DecompressorConfig {
            strategy: ResolutionStrategy::DependencyEliminated.into(),
            validate_de: true,
            ..DecompressorConfig::default()
        };
        let (restored, _) = decompress_with(&de_file.file, &config).unwrap();
        assert_eq!(restored, data);

        // The non-DE file contains same-warp nesting on this input and must
        // be rejected when DE is forced with validation...
        let err = decompress_with(&plain_file.file, &config);
        // Per-block failures carry block context; the root cause is the DE
        // violation.
        assert!(matches!(
            err.as_ref().map_err(|e| e.root_cause()),
            Err(GompressoError::DependencyEliminationViolated { .. })
        ));
        // ...but decompresses fine with MRR.
        let mrr = DecompressorConfig {
            strategy: ResolutionStrategy::MultiRound.into(),
            ..DecompressorConfig::default()
        };
        let (restored, _) = decompress_with(&plain_file.file, &mrr).unwrap();
        assert_eq!(restored, data);
        let report = simulate_with(&plain_file.file, &mrr);
        assert!(report.mrr.total_groups > 0);
        assert!(report.mrr.mean_rounds() >= 1.0);
    }

    #[test]
    fn mrr_round_statistics_decrease_per_round() {
        let data = wiki_like(400_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit())).unwrap();
        let config = DecompressorConfig {
            strategy: ResolutionStrategy::MultiRound.into(),
            ..DecompressorConfig::default()
        };
        let report = simulate_with(&out.file, &config);
        let stats = &report.mrr;
        assert!(stats.total_groups > 0);
        assert!(!stats.bytes_per_round.is_empty());
        // Figure 9b: the bulk of the bytes resolve in round 1.
        assert!(stats.bytes_per_round[0] > *stats.bytes_per_round.last().unwrap());
    }

    #[test]
    fn strategy_costs_are_ordered_de_fastest_sc_slowest() {
        let data = wiki_like(400_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte_de())).unwrap();
        let mut estimates = Vec::new();
        for strategy in ResolutionStrategy::ALL {
            let config = DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
            estimates.push((strategy, simulate_with(&out.file, &config).gpu.device_only_s()));
        }
        let sc = estimates[0].1;
        let mrr = estimates[1].1;
        let de = estimates[2].1;
        assert!(de <= mrr, "DE ({de}) should not be slower than MRR ({mrr})");
        assert!(mrr <= sc, "MRR ({mrr}) should not be slower than SC ({sc})");
        assert!(sc / de >= 2.0, "SC should be much slower than DE (sc={sc}, de={de})");
    }

    #[test]
    fn corrupted_payload_is_an_error_not_a_panic() {
        let data = wiki_like(150_000);
        let out = compress(&data, &cfg_small(CompressorConfig::bit())).unwrap();
        let mut bytes = out.file.serialize();
        // Corrupt a span in the middle of the first block payload.
        let start = bytes.len() / 2;
        let end = (start + 64).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b = b.wrapping_add(97);
        }
        if let Ok(file) = CompressedFile::deserialize(&bytes) {
            // Whatever happens, it must be an error or a clean (possibly
            // wrong-length-detected) result, never a panic.
            let _ = decompress(&file);
        }
    }

    #[test]
    fn hostile_header_size_is_rejected_before_allocating() {
        // A tiny file whose header claims a 2 GiB output: the declared
        // per-block sizes in the payloads cannot corroborate the claim, so
        // decompression must fail in the pre-allocation validation instead
        // of allocating gigabytes backed by a few hundred bytes of payload.
        let data = wiki_like(100_000);
        for config in [cfg_small(CompressorConfig::bit()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &config).unwrap();
            let mut file = out.file.clone();
            file.header.block_size = 1 << 30;
            file.header.uncompressed_size = (file.blocks.len() as u64) << 30;
            file.header.validate().expect("tampered header is self-consistent");
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected pre-allocation size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn crafted_consistent_header_is_rejected_by_plausibility_bound() {
        // A fully self-consistent *crafted* file: tiny byte-mode payloads
        // whose declared sizes exactly match a header claiming 1 GiB blocks.
        // The payload-expansion ceiling must reject it before allocation.
        use gompresso_bitstream::ByteWriter;
        use gompresso_format::{BlockPayload, FileHeader};
        let block_size = 1u32 << 30;
        let n_blocks = 2usize;
        let payloads: Vec<BlockPayload> = (0..n_blocks)
            .map(|_| {
                let mut w = ByteWriter::new();
                gompresso_bitstream::write_varint(&mut w, 0); // n_sequences
                gompresso_bitstream::write_varint(&mut w, u64::from(block_size)); // declared size
                gompresso_bitstream::write_varint(&mut w, 0); // data length
                BlockPayload { bytes: w.finish() }
            })
            .collect();
        let header = FileHeader {
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            uncompressed_size: u64::from(block_size) * n_blocks as u64,
            block_size,
            block_configs: vec![BlockConfig::legacy_uniform(EncodingMode::Byte, 16, 0); n_blocks],
            block_compressed_sizes: vec![],
            block_checksums: vec![],
        };
        let file = CompressedFile::new(header, payloads).expect("crafted file assembles");
        file.header.validate().expect("crafted header is self-consistent");
        let err = decompress(&file);
        assert!(
            matches!(err, Err(GompressoError::Format(_))),
            "expected plausibility rejection, got {err:?}"
        );
    }

    #[test]
    fn output_cap_is_enforced_and_configurable() {
        let data = wiki_like(50_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        // A cap below the file size rejects up front...
        let tight = DecompressorConfig { max_output_size: 1024, ..DecompressorConfig::default() };
        assert!(matches!(decompress_with(&out.file, &tight), Err(GompressoError::Format(_))));
        // ...and raising it restores normal operation.
        let roomy = DecompressorConfig { max_output_size: 1 << 40, ..DecompressorConfig::default() };
        let (restored, _) = decompress_with(&out.file, &roomy).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn tampered_block_declared_size_is_rejected() {
        // Growing one block's declared uncompressed size (consistently with
        // the file header) must be caught by the cross-check against the
        // payload-declared sizes.
        let data = wiki_like(100_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        let mut file = out.file.clone();
        file.header.uncompressed_size += 1;
        if file.header.validate().is_ok() {
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected declared-size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn shrunken_header_total_is_rejected_not_truncated() {
        // Shrinking the header's uncompressed_size (keeping the same block
        // count, so FileHeader::validate still passes) makes the header's
        // per-block sizes disagree with the blocks' declared sizes for the
        // trailing block. The decompressor must reject the file instead of
        // trusting the header and truncating the output.
        let data = wiki_like(100_000);
        for config in [cfg_small(CompressorConfig::bit()), cfg_small(CompressorConfig::byte())] {
            let out = compress(&data, &config).unwrap();
            let mut file = out.file.clone();
            file.header.uncompressed_size -= 1;
            file.header.validate().expect("tampered header is still self-consistent");
            let err = decompress(&file);
            assert!(
                matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
                "expected declared-size mismatch, got {err:?}"
            );
        }
    }

    #[test]
    fn per_block_declared_sum_must_match_header_total() {
        // Swap the final (short) block's payload for a copy of a full-size
        // block: every size is still plausible in isolation, but the sum of
        // the blocks' declared uncompressed sizes now disagrees with
        // header.uncompressed_size — the cross-check must catch it before
        // any output is produced.
        let data = wiki_like(100_000); // 64 KiB blocks -> short trailing block
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        assert!(out.file.blocks.len() >= 2);
        let mut file = out.file.clone();
        let last = file.blocks.len() - 1;
        file.blocks[last] = file.blocks[0].clone();
        file.header.block_compressed_sizes[last] = file.header.block_compressed_sizes[0];
        file.header.validate().expect("tampered header is still self-consistent");
        let err = decompress(&file);
        assert!(
            matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
            "expected sum mismatch, got {err:?}"
        );
    }

    #[test]
    fn truncated_file_is_an_error() {
        let data = wiki_like(100_000);
        let out = compress(&data, &cfg_small(CompressorConfig::byte())).unwrap();
        let bytes = out.file.serialize();
        let truncated = &bytes[..bytes.len() / 2];
        assert!(CompressedFile::deserialize(truncated).is_err());
    }

    #[test]
    fn empty_file_decompresses_to_empty_output() {
        let out = compress(&[], &CompressorConfig::bit()).unwrap();
        let (restored, report) = decompress(&out.file).unwrap();
        assert!(restored.is_empty());
        assert_eq!(report.uncompressed_size, 0);
        assert_eq!(simulate(&out.file).gpu.device_only_s(), 0.0);
    }

    #[test]
    fn larger_blocks_improve_estimated_bit_decode_speed() {
        // Figure 12: larger blocks expose more sub-block parallelism and
        // amortise per-block overhead.
        let data = wiki_like(1 << 20);
        let small =
            compress(&data, &CompressorConfig { block_size: 32 * 1024, ..CompressorConfig::bit_de() })
                .unwrap();
        let large =
            compress(&data, &CompressorConfig { block_size: 256 * 1024, ..CompressorConfig::bit_de() })
                .unwrap();
        let small_report = simulate(&small.file);
        let large_report = simulate(&large.file);
        // Allow a modest tolerance: this corpus is far more compressible
        // than the paper's, so per-block effects (LUT amortisation vs
        // sub-block parallelism) sit within measurement slack of each
        // other; the realistic Figure 12 reproduction lives in the bench
        // crate.
        assert!(
            large_report.gpu.with_io_s() <= small_report.gpu.with_io_s() * 1.15,
            "large blocks should not be slower end-to-end: {} vs {}",
            large_report.gpu.with_io_s(),
            small_report.gpu.with_io_s()
        );
        // Ratio changes only moderately with block size (this synthetic
        // corpus is far more compressible than the paper's datasets, which
        // amplifies the relative per-block header overhead; the realistic
        // Figure 12 reproduction lives in the bench crate).
        let small_ratio = small.stats.ratio();
        let large_ratio = large.stats.ratio();
        assert!((small_ratio - large_ratio).abs() / large_ratio < 0.3);
        assert!(small_ratio > 1.0 && large_ratio > 1.0);
    }

    #[test]
    fn gpu_estimate_reflects_pcie_ceiling_for_byte_mode() {
        let data = wiki_like(1 << 20);
        let out = compress(&data, &CompressorConfig::byte_de()).unwrap();
        let report = simulate(&out.file);
        let no_pcie = report.gpu_bandwidth_no_pcie();
        let in_out = report.gpu_bandwidth_in_out();
        // Adding transfers can only slow things down, and the end-to-end
        // bandwidth cannot exceed the PCIe link's sustained bandwidth.
        assert!(in_out < no_pcie);
        let pcie = CostModel::tesla_k40().pcie().sustained_bandwidth();
        assert!(in_out <= pcie * 1.01, "in_out {in_out} exceeds PCIe {pcie}");
    }
}
