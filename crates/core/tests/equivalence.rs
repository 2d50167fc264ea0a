//! Fast path ≡ old semantics.
//!
//! The zero-copy decompression rework (single-allocation output, fused LUT
//! decode, per-worker scratch) and the split of host execution from the
//! warp model must change *only* host data movement. This suite retains
//! the previous implementation's behaviour as an executable reference —
//! per-block output vectors merged with a final copy, fresh per-sub-block
//! vectors, unfused peek/lookup/consume symbol decoding, a warp walk on
//! every block — and checks that for random inputs across
//! {bit, byte} × {SC, MRR, DE}:
//!
//! * the host decoder's bytes (`decompress_with`, which runs no model) are
//!   identical to the reference's, and
//! * the `Decompressor::simulate` GPU estimates (and the counters they are
//!   computed from) are unchanged to the last ULP.

use gompresso_bitstream::{BitReader, ByteReader};
use gompresso_core::warp_lz77::decompress_block_warp;
use gompresso_core::{
    compress, decompress_with, CompressedFile, CompressorConfig, CostModel, Decompressor, DecompressorConfig,
    EncodingMode, GpuEstimate, ResolutionStrategy,
};
use gompresso_format::token_code::{TokenCoder, END_OF_SEQUENCES, FIRST_LENGTH_SYMBOL};
use gompresso_format::{BitBlock, ByteBlock};
use gompresso_huffman::DecodeTable;
use gompresso_lz77::{Sequence, SequenceBlock};
use gompresso_simt::{KernelCounters, Warp, WARP_SIZE};
use proptest::prelude::*;

// The decode-kernel cost constants of `gompresso-core`'s parallel Huffman
// decoder, replicated so the reference charges identical counters.
const INSTR_PER_SYMBOL: u64 = 10;
const SUB_BLOCK_OVERHEAD_INSTR: u64 = 24;
const TOKEN_STREAM_BYTES_PER_SEQ: u64 = 12;

/// Unfused symbol decode: the exact peek/lookup/consume sequence
/// `DecodeTable::decode` performed before the fused path existed.
fn decode_symbol_unfused(dec: &DecodeTable, r: &mut BitReader<'_>) -> u16 {
    let window = r.peek_bits(u32::from(dec.index_bits())).expect("reference peek failed");
    let (symbol, len) = dec.lookup(window);
    assert!(len > 0, "reference decode hit an invalid codeword");
    r.consume_bits(u32::from(len)).expect("reference consume failed");
    symbol
}

/// Old-style sub-block decode: fresh vectors per sub-block, unfused symbol
/// decoding.
fn decode_sub_block_reference(
    bit: &BitBlock,
    index: usize,
    coder: &TokenCoder,
    lit_len_dec: &DecodeTable,
    offset_dec: &DecodeTable,
) -> (Vec<Sequence>, Vec<u8>) {
    let start_bit = bit.sub_block_bit_offset(index).expect("sub-block offset");
    let n_seq = bit.sub_block_sequences(index).expect("sub-block count") as usize;
    let mut r = BitReader::at_bit_offset(&bit.bitstream, start_bit).expect("sub-block seek");
    let mut sequences = Vec::with_capacity(n_seq);
    let mut literals = Vec::new();
    for _ in 0..n_seq {
        let mut literal_len = 0u32;
        let (match_offset, match_len) = loop {
            let sym = decode_symbol_unfused(lit_len_dec, &mut r);
            if sym < END_OF_SEQUENCES {
                literals.push(sym as u8);
                literal_len += 1;
            } else if sym == END_OF_SEQUENCES {
                break (0u32, 0u32);
            } else {
                assert!(sym >= FIRST_LENGTH_SYMBOL);
                let len_bits = coder.length_extra_bits(sym).expect("length extra bits");
                let len_extra = r.read_bits(u32::from(len_bits)).expect("length extra read");
                let match_len = coder.decode_length(sym, len_extra).expect("length decode");
                let off_sym = decode_symbol_unfused(offset_dec, &mut r);
                let off_bits = coder.offset_extra_bits(off_sym).expect("offset extra bits");
                let off_extra = r.read_bits(u32::from(off_bits)).expect("offset extra read");
                let match_offset = coder.decode_offset(off_sym, off_extra).expect("offset decode");
                break (match_offset, match_len);
            }
        };
        sequences.push(Sequence { literal_len, match_offset, match_len });
    }
    (sequences, literals)
}

/// The pre-rework parallel Huffman decode of one block, charging the same
/// warp counters as `gompresso-core`'s `decode_bit_block`.
fn decode_bit_block_reference(
    bit: &BitBlock,
    coder: &TokenCoder,
    payload_bytes: usize,
) -> (SequenceBlock, Warp) {
    let mut warp = Warp::new();
    warp.global_read(payload_bytes as u64, true);

    let lit_len_dec = DecodeTable::new(&bit.lit_len_code).expect("lit/len LUT");
    let offset_dec = DecodeTable::new(&bit.offset_code).expect("offset LUT");
    let lut_bytes = u64::from(lit_len_dec.simulated_shared_bytes() + offset_dec.simulated_shared_bytes());
    warp.shared_write(lut_bytes);
    warp.charge_instructions(lut_bytes / 4);

    let n_sub_blocks = bit.sub_block_count();
    let mut sequences = Vec::new();
    let mut literals = Vec::new();
    for group_start in (0..n_sub_blocks).step_by(WARP_SIZE) {
        let group_end = (group_start + WARP_SIZE).min(n_sub_blocks);
        let mut max_lane_symbols = 0u64;
        let mut group_sequences = 0u64;
        let mut group_shared_reads = 0u64;
        for sub in group_start..group_end {
            let (seqs, lits) = decode_sub_block_reference(bit, sub, coder, &lit_len_dec, &offset_dec);
            let symbols =
                lits.len() as u64 + seqs.iter().map(|s| if s.has_match() { 2u64 } else { 1u64 }).sum::<u64>();
            max_lane_symbols = max_lane_symbols.max(symbols);
            group_sequences += seqs.len() as u64;
            group_shared_reads += symbols * 4;
            sequences.extend(seqs);
            literals.extend(lits);
        }
        warp.charge_instructions(max_lane_symbols * INSTR_PER_SYMBOL + SUB_BLOCK_OVERHEAD_INSTR);
        warp.shared_read(group_shared_reads);
        warp.global_write(group_sequences * TOKEN_STREAM_BYTES_PER_SEQ, true);
        warp.global_write(literals.len() as u64, true);
    }

    let seq_block = SequenceBlock { sequences, literals, uncompressed_len: bit.uncompressed_len as usize };
    (seq_block, warp)
}

/// The pre-rework decompression driver: per-block staging vectors merged
/// into the final output with a second copy of every byte.
fn reference_decompress(
    file: &CompressedFile,
    config: &DecompressorConfig,
) -> (Vec<u8>, KernelCounters, KernelCounters, GpuEstimate) {
    let header = &file.header;
    header.validate().expect("reference header validation");
    let coder =
        TokenCoder::new(header.min_match_len, header.max_match_len, header.window_size).expect("coder");

    let mut output = Vec::with_capacity(header.uncompressed_size as usize);
    let mut decode_counters = KernelCounters::new();
    let mut lz77_counters = KernelCounters::new();
    for (idx, payload) in file.blocks.iter().enumerate() {
        let block_config = header.block_config(idx);
        let (seq_block, decode_warp) = match block_config.mode {
            EncodingMode::Bit => {
                let mut r = ByteReader::new(&payload.bytes);
                let bit = BitBlock::deserialize(&mut r).expect("bit block");
                let (seq_block, warp) = decode_bit_block_reference(&bit, &coder, payload.bytes.len());
                (seq_block, Some(warp))
            }
            EncodingMode::Byte => {
                let mut r = ByteReader::new(&payload.bytes);
                let byte = ByteBlock::deserialize(&mut r).expect("byte block");
                (byte.decode().expect("byte decode"), None)
            }
        };
        let mut block_output = vec![0u8; seq_block.uncompressed_len];
        let strategy = config.strategy.resolve(block_config);
        let outcome = decompress_block_warp(&seq_block, strategy, false, idx, &mut block_output)
            .expect("reference warp decompress");
        output.extend_from_slice(&block_output);
        if let Some(warp) = decode_warp {
            decode_counters.add_warp(&warp.into_counters());
        }
        lz77_counters.add_warp(&outcome.counters);
    }

    let gpu = GpuEstimate::from_counters(
        &CostModel::tesla_k40(),
        &decode_counters,
        &lz77_counters,
        header.max_codeword_len(),
        file.compressed_size() as u64,
        header.uncompressed_size,
    );
    (output, decode_counters, lz77_counters, gpu)
}

fn compressible_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::collection::vec(0u8..24, 1..60), 0..400)
        .prop_map(|chunks| chunks.concat())
}

fn small_blocks(mut config: CompressorConfig) -> CompressorConfig {
    // Small blocks and sub-blocks so even modest inputs exercise multiple
    // blocks, multiple warp groups and short tail sub-blocks.
    config.block_size = 4 * 1024;
    config.sequences_per_sub_block = 8;
    config
}

fn assert_ulp_equal(label: &str, fast: f64, reference: f64) {
    assert_eq!(fast.to_bits(), reference.to_bits(), "{label} differs: fast {fast} vs reference {reference}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_path_matches_reference_decode(input in compressible_input()) {
        let configs = [
            CompressorConfig::bit(),
            CompressorConfig::bit_de(),
            CompressorConfig::byte(),
            CompressorConfig::byte_de(),
        ];
        for cconf in configs {
            let out = compress(&input, &small_blocks(cconf)).expect("compression failed");
            for strategy in ResolutionStrategy::ALL {
                let dconf =
                    DecompressorConfig { strategy: strategy.into(), ..DecompressorConfig::default() };
                let (fast_bytes, _) = decompress_with(&out.file, &dconf).expect("fast decompress");
                let report = Decompressor::new(dconf.clone())
                    .simulate(&out.file, &CostModel::tesla_k40())
                    .expect("simulate");
                let (ref_bytes, ref_decode, ref_lz77, ref_gpu) = reference_decompress(&out.file, &dconf);

                prop_assert_eq!(&fast_bytes, &input, "fast path lost bytes ({})", strategy);
                prop_assert_eq!(&fast_bytes, &ref_bytes, "fast path diverged from reference ({})", strategy);
                prop_assert_eq!(report.uncompressed_size, input.len() as u64);

                // Counters feed the cost model; they must match exactly.
                prop_assert_eq!(&report.decode_counters, &ref_decode, "decode counters ({})", strategy);
                prop_assert_eq!(&report.lz77_counters, &ref_lz77, "lz77 counters ({})", strategy);

                // And the derived GPU time estimates must agree to the last ULP.
                assert_ulp_equal("decode_kernel_s", report.gpu.decode_kernel_s, ref_gpu.decode_kernel_s);
                assert_ulp_equal("lz77_kernel_s", report.gpu.lz77_kernel_s, ref_gpu.lz77_kernel_s);
                assert_ulp_equal("input_transfer_s", report.gpu.input_transfer_s, ref_gpu.input_transfer_s);
                assert_ulp_equal("output_transfer_s", report.gpu.output_transfer_s, ref_gpu.output_transfer_s);
            }
        }
    }
}
