//! Micro-benchmarks of the substrates: bit I/O, Huffman coding, the
//! byte-block decoder and the LZ77 matcher. Not a paper figure, but useful
//! for tracking regressions in the pieces every experiment depends on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gompresso_bench::{matrix_data, wikipedia_data};
use gompresso_bitstream::{BitReader, BitWriter, ByteReader, ByteWriter};
use gompresso_format::token_code::{TokenCoder, END_OF_SEQUENCES};
use gompresso_format::{BitBlock, ByteBlock, ByteBlockView, EncodeScratch, InterleaveScratch};
use gompresso_huffman::{
    code_lengths, limited_code_lengths, CanonicalCode, DecodeTable, EncodeTable, Histogram,
};
use gompresso_lz77::{
    common_prefix_len, decompress_block_into, decompress_block_reference, Matcher, MatcherConfig, Sequence,
    SequenceBlock,
};
fn bench_bitreader(c: &mut Criterion) {
    // Word-level refill in isolation: stream 1 MiB through the reader in
    // mixed widths. This is the microbenchmark that shows the unaligned
    // u64-load refill win independent of the Huffman LUT.
    let data = wikipedia_data(1 << 20);
    let mut w = BitWriter::with_capacity(data.len());
    for &b in &data {
        w.write_bits(u32::from(b), 8);
    }
    let encoded = w.finish();
    let total_bits = data.len() as u64 * 8;

    let mut group = c.benchmark_group("micro_bitreader");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("refill_read_bits_1mib", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&encoded);
            let mut acc = 0u32;
            let mut remaining = total_bits;
            // 13-bit reads keep every refill misaligned.
            while remaining >= 13 {
                acc = acc.wrapping_add(r.read_bits(13).unwrap());
                remaining -= 13;
            }
            acc
        });
    });
    group.bench_function("refill_peek_consume_1mib", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&encoded);
            let mut acc = 0u32;
            let mut remaining = total_bits;
            while remaining >= 13 {
                acc = acc.wrapping_add(r.peek_bits(13).unwrap());
                r.consume_bits(13).unwrap();
                remaining -= 13;
            }
            acc
        });
    });
    group.bench_function("refill_peek_window_1mib", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&encoded);
            let mut acc = 0u32;
            let mut remaining = total_bits;
            while remaining >= 13 {
                let (window, _) = r.peek_window(13);
                acc = acc.wrapping_add(window);
                r.consume_peeked(13);
                remaining -= 13;
            }
            acc
        });
    });
    group.finish();
}

fn bench_bitwriter(c: &mut Criterion) {
    // The write-side counterpart of the refill benchmarks: stream 1 MiB
    // through the writer in 13-bit chunks (every append misaligned). The
    // byte-at-a-time case replicates the pre-rework writer, which drained
    // the accumulator one byte per append, as the comparison that makes the
    // u64 bulk flush win visible.
    let data = wikipedia_data(1 << 20);
    let values: Vec<u32> = data
        .chunks(2)
        .map(|c| u32::from(c[0]) | (u32::from(*c.get(1).unwrap_or(&0)) << 8) & 0x1F00)
        .collect();

    let mut group = c.benchmark_group("micro_bitwriter");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("write_bits_13_word_flush_1mib", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity(data.len());
            for &v in &values {
                w.write_bits(v, 13);
            }
            w.finish().len()
        });
    });
    group.bench_function("write_bits_13_byte_loop_1mib", |b| {
        b.iter(|| {
            let mut bytes = Vec::with_capacity(data.len());
            let (mut acc, mut nbits) = (0u64, 0u32);
            for &v in &values {
                acc |= u64::from(v & 0x1FFF) << nbits;
                nbits += 13;
                while nbits >= 8 {
                    bytes.push((acc & 0xFF) as u8);
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                bytes.push((acc & 0xFF) as u8);
            }
            bytes.len()
        });
    });
    group.finish();
}

fn bench_match_len(c: &mut Criterion) {
    // Word-wise vs byte-wise common-prefix computation over realistic
    // match candidates: positions paired at a fixed period so prefixes of
    // many lengths occur, capped at the matcher's 64-byte lookahead.
    let data = wikipedia_data(1 << 20);
    let pairs: Vec<(usize, usize)> = (0..(1usize << 16))
        .map(|i| {
            let b = 1024 + (i * 97) % (data.len() - 2048);
            let a = b - 1 - (i * 31) % 997;
            (a, b)
        })
        .collect();
    let total: u64 = pairs.len() as u64 * 64;

    let mut group = c.benchmark_group("micro_match_len");
    group.throughput(Throughput::Bytes(total));
    group.sample_size(10);
    group.bench_function("wordwise_64k_pairs", |b| {
        b.iter(|| {
            let mut sum = 0usize;
            for &(a, pos) in &pairs {
                sum += common_prefix_len(&data, a, pos, 64);
            }
            sum
        });
    });
    group.bench_function("bytewise_64k_pairs", |b| {
        b.iter(|| {
            let mut sum = 0usize;
            for &(a, pos) in &pairs {
                let mut len = 0usize;
                while len < 64 && data[a + len] == data[pos + len] {
                    len += 1;
                }
                sum += len;
            }
            sum
        });
    });
    group.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let data = wikipedia_data(1 << 20);
    let symbols: Vec<u16> = data.iter().map(|&b| u16::from(b)).collect();
    let hist = Histogram::from_symbols(256, &symbols);
    let code = CanonicalCode::from_histogram(&hist, 12).unwrap();
    let enc = EncodeTable::new(&code);
    let dec = DecodeTable::new(&code).unwrap();
    let mut w = BitWriter::new();
    for &s in &symbols {
        enc.encode(&mut w, s).unwrap();
    }
    let encoded = w.finish();

    let mut group = c.benchmark_group("micro_huffman");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("encode_1mib", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity(encoded.len());
            for &s in &symbols {
                enc.encode(&mut w, s).unwrap();
            }
            w.finish().len()
        });
    });
    group.bench_function("histogram_flat_1mib", |b| {
        // The block encoder's literal count: one 256-counter array, one
        // increment per byte.
        b.iter(|| {
            let mut h = Histogram::new(256);
            h.add_bytes(&data);
            h.count(0)
        });
    });
    group.bench_function("decode_fused_1mib", |b| {
        // The production path: one refill + one lookup per symbol.
        b.iter(|| {
            let mut r = BitReader::new(&encoded);
            let mut n = 0usize;
            for _ in 0..symbols.len() {
                n += usize::from(dec.decode(&mut r).unwrap() & 1);
            }
            n
        });
    });
    group.bench_function("decode_unfused_1mib", |b| {
        // The pre-rework sequence: checked peek, lookup, checked consume —
        // kept as the comparison that makes the fusion win visible.
        b.iter(|| {
            let mut r = BitReader::new(&encoded);
            let mut n = 0usize;
            for _ in 0..symbols.len() {
                let window = r.peek_bits(u32::from(dec.index_bits())).unwrap();
                let (sym, len) = dec.lookup(window);
                r.consume_bits(u32::from(len)).unwrap();
                n += usize::from(sym & 1);
            }
            n
        });
    });

    // Length-limited code construction for both trees of the 1 MiB
    // wikipedia block, as the block encoder builds them. Both histograms
    // overflow 10 bits, so each call runs package-merge.
    let (lit_len_hist, offset_hist) = token_histograms();
    for hist in [&lit_len_hist, &offset_hist] {
        let deepest = code_lengths(hist).unwrap().into_iter().max().unwrap();
        assert!(deepest > 10, "histogram must overflow 10 bits, deepest code {deepest}");
    }
    group.throughput(Throughput::Elements(2));
    group.bench_function("code_lengths_cwl10", |b| {
        b.iter(|| {
            let lit_len = limited_code_lengths(&lit_len_hist, 10).unwrap();
            let offset = limited_code_lengths(&offset_hist, 10).unwrap();
            lit_len.len() + offset.len()
        });
    });
    group.finish();
}

/// The literal/length and offset histograms the block encoder counts for
/// the matcher's output on the 1 MiB wikipedia block.
fn token_histograms() -> (Vec<u64>, Vec<u64>) {
    let data = wikipedia_data(1 << 20);
    let cfg = MatcherConfig::gompresso();
    let coder =
        TokenCoder::new(cfg.min_match_len as u32, cfg.max_match_len as u32, cfg.window_size as u32).unwrap();
    let block = Matcher::new(cfg).compress(&data);
    let mut lit_len = vec![0u64; coder.lit_len_alphabet()];
    let mut offset = vec![0u64; coder.offset_alphabet()];
    lit_len[usize::from(END_OF_SEQUENCES)] += 1;
    offset[0] += 1;
    for &b in &block.literals {
        lit_len[usize::from(b)] += 1;
    }
    for seq in &block.sequences {
        if seq.has_match() {
            lit_len[usize::from(coder.encode_length(seq.match_len).unwrap().0)] += 1;
            offset[usize::from(coder.encode_offset(seq.match_offset).unwrap().0)] += 1;
        } else {
            lit_len[usize::from(END_OF_SEQUENCES)] += 1;
        }
    }
    (lit_len, offset)
}

fn bench_wild_copy(c: &mut Criterion) {
    // Wild-copy vs byte-copy sequence execution at the offsets that select
    // each kernel path: 1 and 4 (pattern widening), 8 (chunk threshold) and
    // 64 (plain chunks). One block per offset: a literal seed then a long
    // run of fixed-offset, 48-byte matches.
    let mut group = c.benchmark_group("micro_wild_copy");
    group.sample_size(10);
    for offset in [1u32, 4, 8, 64] {
        let seed = offset.max(16);
        let matches = 20_000u32;
        let match_len = 48u32;
        let block = SequenceBlock {
            sequences: std::iter::once(Sequence::literals_only(seed))
                .chain((0..matches).map(|_| Sequence { literal_len: 0, match_offset: offset, match_len }))
                .collect(),
            literals: (0..seed).map(|i| (i * 37 + 11) as u8).collect(),
            uncompressed_len: (seed + matches * match_len) as usize,
        };
        let mut out = vec![0u8; block.uncompressed_len];
        group.throughput(Throughput::Bytes(block.uncompressed_len as u64));
        group.bench_function(format!("wild_offset_{offset}"), |b| {
            b.iter(|| decompress_block_into(&block, &mut out).unwrap());
        });
        group.bench_function(format!("byte_offset_{offset}"), |b| {
            b.iter(|| decompress_block_reference(&block, &mut out).unwrap());
        });
    }
    group.finish();
}

fn bench_sub_block_decode(c: &mut Criterion) {
    // The one-pass block decoder against the checked per-sub-block walk
    // (one `DecodeTable::decode` per literal), over a realistic 1 MiB block,
    // and the per-block cost of the one-pass decoder's host tables.
    let data = wikipedia_data(1 << 20);
    let cfg = MatcherConfig::gompresso();
    let coder =
        TokenCoder::new(cfg.min_match_len as u32, cfg.max_match_len as u32, cfg.window_size as u32).unwrap();
    let block = Matcher::new(cfg).compress(&data);
    let bit = BitBlock::encode(&block, &coder, 16, 10).unwrap();
    let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
    let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
    let n = bit.sub_block_count();

    let mut group = c.benchmark_group("micro_interleave");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("sequential_sub_blocks", |b| {
        b.iter(|| {
            let mut sequences = Vec::new();
            let mut literals = Vec::new();
            for i in 0..n {
                bit.decode_sub_block_into(i, &coder, &lit_dec, &off_dec, &mut sequences, &mut literals)
                    .unwrap();
            }
            sequences.len() + literals.len()
        });
    });
    group.bench_function("decode_block_1mib", |b| {
        let mut scratch = InterleaveScratch::default();
        b.iter(|| {
            let (mut sequences, mut literals) = (Vec::new(), Vec::new());
            bit.decode_sub_blocks(
                0..n,
                &coder,
                &lit_dec,
                &off_dec,
                &mut scratch,
                &mut sequences,
                &mut literals,
            )
            .unwrap();
            sequences.len() + literals.len()
        });
    });
    // The host tables both paths above decode with, built once per block.
    group.throughput(Throughput::Elements(1));
    group.bench_function("host_tables_build", |b| {
        let mut scratch = InterleaveScratch::default();
        b.iter(|| scratch.build_host_tables(&coder, &lit_dec, &off_dec));
    });
    group.finish();
}

fn bench_byte_block(c: &mut Criterion) {
    // The byte-block body before and after fusion, over a serialized 1 MiB
    // `byte_de` matrix block: copy the stream out of the payload, decode it
    // into sequences, then execute them; against one pass from the borrowed
    // payload straight into the output.
    let data = matrix_data(1 << 20);
    let block = Matcher::new(MatcherConfig::gompresso_de()).compress(&data);
    let mut w = ByteWriter::new();
    ByteBlock::encode(&block).unwrap().serialize(&mut w);
    let payload = w.finish();
    let mut out = vec![0u8; data.len()];

    let mut group = c.benchmark_group("micro_byte_block");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("decode_then_execute_1mib", |b| {
        let mut sequences = SequenceBlock::new();
        b.iter(|| {
            let byte = ByteBlock::deserialize(&mut ByteReader::new(&payload)).unwrap();
            byte.decode_into(&mut sequences).unwrap();
            decompress_block_into(&sequences, &mut out).unwrap()
        });
    });
    group.bench_function("fused_1mib", |b| {
        b.iter(|| {
            let view = ByteBlockView::parse(&mut ByteReader::new(&payload)).unwrap();
            view.decompress_into(&mut out).unwrap();
            out.len()
        });
    });
    assert_eq!(out, data);
    group.finish();
}

fn bench_block_encode(c: &mut Criterion) {
    // The production block encoder (both passes) over a realistic 1 MiB
    // block, with the scratch warm as it is on a worker.
    let data = wikipedia_data(1 << 20);
    let cfg = MatcherConfig::gompresso();
    let coder =
        TokenCoder::new(cfg.min_match_len as u32, cfg.max_match_len as u32, cfg.window_size as u32).unwrap();
    let block = Matcher::new(cfg).compress(&data);

    let mut group = c.benchmark_group("micro_block_encode");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("encode_with_scratch_1mib", |b| {
        let mut scratch = EncodeScratch::new();
        b.iter(|| {
            BitBlock::encode_with_scratch(&block, &coder, 16, 10, &mut scratch).unwrap().bitstream.len()
        });
    });
    group.finish();
}

fn bench_lut_layout(c: &mut Criterion) {
    // Packed-u32 LUT lookup vs the former (u16, u8) tuple layout, isolated
    // from the bitstream: chase 4M windows through each table.
    let data = wikipedia_data(1 << 20);
    let symbols: Vec<u16> = data.iter().map(|&b| u16::from(b)).collect();
    let hist = Histogram::from_symbols(256, &symbols);
    let code = CanonicalCode::from_histogram(&hist, 12).unwrap();
    let dec = DecodeTable::new(&code).unwrap();
    let size = dec.len() as u32;
    let tuple_table: Vec<(u16, u8)> = (0..size).map(|w| dec.lookup(w)).collect();
    let windows: Vec<u32> = (0..(1u32 << 22)).map(|i| i.wrapping_mul(2654435761) % size).collect();

    let mut group = c.benchmark_group("micro_lut_layout");
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.sample_size(10);
    group.bench_function("packed_u32", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &w in &windows {
                acc = acc.wrapping_add(dec.lookup_packed(w));
            }
            acc
        });
    });
    group.bench_function("tuple_u16_u8", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &w in &windows {
                let (sym, len) = tuple_table[w as usize];
                acc = acc.wrapping_add(u32::from(sym) << 8 | u32::from(len));
            }
            acc
        });
    });
    group.finish();
}

fn bench_matcher(c: &mut Criterion) {
    let data = wikipedia_data(1 << 20);
    let mut group = c.benchmark_group("micro_lz77");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    for (label, config) in [
        ("gompresso", MatcherConfig::gompresso()),
        ("gompresso_de", MatcherConfig::gompresso_de()),
        ("deflate_like", MatcherConfig::deflate_like()),
    ] {
        let matcher = Matcher::new(config);
        group.bench_function(format!("compress_{label}"), |b| {
            b.iter(|| matcher.compress(&data).sequences.len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bitreader,
    bench_bitwriter,
    bench_match_len,
    bench_huffman,
    bench_wild_copy,
    bench_sub_block_decode,
    bench_byte_block,
    bench_block_encode,
    bench_lut_layout,
    bench_matcher
);
criterion_main!(benches);
