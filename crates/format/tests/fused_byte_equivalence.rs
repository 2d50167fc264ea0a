//! Fused byte-block decode ≡ decode, then execute.
//!
//! `ByteBlockView::decompress_into` parses each token from the borrowed
//! payload and copies its literals and match straight into the output. It
//! must accept exactly the payloads the sequence path accepts —
//! `ByteBlock::deserialize`, `decode_into`, the check of the declared size
//! against the output slot, then `gompresso_lz77::decompress_block_into` —
//! and then write the same bytes. Its error may differ: the decompressor
//! reports the sequence path's. The inputs are the matcher's output (plain
//! and DE) over random and structured data, every single-bit flip and every
//! truncation of small payloads, hand-built token streams with random
//! edits, and the two length extensions that overflow a `u32`.

use gompresso_bitstream::{ByteReader, ByteWriter};
use gompresso_format::{ByteBlock, ByteBlockView};
use gompresso_lz77::{decompress_block_into, Matcher, MatcherConfig, SequenceBlock};
use proptest::prelude::*;

/// The sequence path of the decompressor, into an output slot of `slot`
/// bytes: `None` where it rejects the payload.
fn sequence_path(payload: &[u8], slot: usize) -> Option<Vec<u8>> {
    let block = ByteBlock::deserialize(&mut ByteReader::new(payload)).ok()?;
    let mut sequences = SequenceBlock::new();
    block.decode_into(&mut sequences).ok()?;
    if sequences.uncompressed_len != slot {
        return None;
    }
    let mut out = vec![0u8; slot];
    decompress_block_into(&sequences, &mut out).ok()?;
    Some(out)
}

/// The fused pass over the borrowed payload into a slot of `slot` bytes.
fn fused_path(payload: &[u8], slot: usize) -> Option<Vec<u8>> {
    let view = ByteBlockView::parse(&mut ByteReader::new(payload)).ok()?;
    let mut out = vec![0u8; slot];
    view.decompress_into(&mut out).ok()?;
    Some(out)
}

/// Both paths accept `payload` and write the same bytes, or both reject
/// it. Returns the fused path's output.
fn assert_same(payload: &[u8], slot: usize, what: &str) -> Option<Vec<u8>> {
    let fused = fused_path(payload, slot);
    let reference = sequence_path(payload, slot);
    match (&fused, &reference) {
        (Some(a), Some(b)) => assert!(a == b, "{what}: both accept but write different bytes"),
        (None, None) => {}
        _ => panic!(
            "{what}: fused accepts: {}, sequence path accepts: {}",
            fused.is_some(),
            reference.is_some()
        ),
    }
    fused
}

fn serialize(n_sequences: u32, uncompressed_len: u32, data: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    ByteBlock { n_sequences, uncompressed_len, data: data.to_vec() }.serialize(&mut w);
    w.finish()
}

fn encode(input: &[u8], config: &MatcherConfig) -> ByteBlock {
    ByteBlock::encode(&Matcher::new(config.clone()).compress(input)).unwrap()
}

fn configs() -> [MatcherConfig; 3] {
    [
        MatcherConfig::default(),
        MatcherConfig { dependency_elimination: true, ..MatcherConfig::default() },
        // Matches past 270 bytes need chained 255s in their extension.
        MatcherConfig { max_match_len: 600, ..MatcherConfig::default() },
    ]
}

/// The matcher's output round-trips through the fused pass.
fn assert_roundtrips(input: &[u8]) {
    for config in configs() {
        let block = encode(input, &config);
        let payload = serialize(block.n_sequences, block.uncompressed_len, &block.data);
        let out = assert_same(&payload, input.len(), "matcher output");
        assert!(out.as_deref() == Some(input), "matcher output must decode to its input");
    }
}

/// Every single-bit flip of the serialized payload, and every flip and
/// every truncation of its encoded stream (re-serialized with the shorter
/// length), each into a slot of the original size.
fn assert_damage_agrees(block: &ByteBlock) {
    let slot = block.uncompressed_len as usize;
    let payload = serialize(block.n_sequences, block.uncompressed_len, &block.data);
    for bit in 0..payload.len() * 8 {
        let mut damaged = payload.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        assert_same(&damaged, slot, &format!("payload bit {bit} flipped"));
    }
    for len in 0..block.data.len() {
        let cut = serialize(block.n_sequences, block.uncompressed_len, &block.data[..len]);
        assert_same(&cut, slot, &format!("stream cut to {len} bytes"));
    }
    // A payload that ends before its stream does is rejected by both.
    for len in 0..payload.len() {
        assert_same(&payload[..len], slot, &format!("payload cut to {len} bytes"));
    }
}

/// LZ4-style length extension: 255-chained bytes that sum to `remainder`.
fn push_extension(data: &mut Vec<u8>, mut remainder: u32) {
    while remainder >= 255 {
        data.push(255);
        remainder -= 255;
    }
    data.push(remainder as u8);
}

/// Builds a token stream by hand from `(literal_len, match_len, offset
/// seed)` triples, without `ByteBlock::encode`: match lengths below any
/// matcher's minimum and literal-only sequences mid-block are allowed, as
/// the decoder allows them. Offsets fold into `1..=cursor`, so the stream is
/// valid. Returns (sequences, uncompressed length, stream).
fn token_stream(ops: &[(u16, u16, u16)]) -> (u32, u32, Vec<u8>) {
    let mut data = Vec::new();
    let mut cursor = 0u32;
    let mut byte = 0u8;
    for &(literal_len, match_len, offset_seed) in ops {
        let literal_len = u32::from(literal_len);
        let match_len = if cursor + literal_len == 0 { 0 } else { u32::from(match_len) };
        data.push(((literal_len.min(15) << 4) | match_len.min(15)) as u8);
        if literal_len >= 15 {
            push_extension(&mut data, literal_len - 15);
        }
        for _ in 0..literal_len {
            byte = byte.wrapping_mul(151).wrapping_add(57);
            data.push(byte);
        }
        cursor += literal_len;
        if match_len > 0 {
            let offset = (u32::from(offset_seed) % cursor.min(u32::from(u16::MAX))) + 1;
            data.extend_from_slice(&(offset as u16).to_le_bytes());
            if match_len >= 15 {
                push_extension(&mut data, match_len - 15);
            }
            cursor += match_len;
        }
    }
    (ops.len() as u32, cursor, data)
}

/// Structured inputs: chunks drawn from a small alphabet, long runs and
/// random bytes, so every length field and offset range shows up.
fn structured_input() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..4, 1usize..400, any::<u8>()), 0..40).prop_map(|chunks| {
        let mut data = Vec::new();
        let mut state = 0x9E37_79B9u32;
        for (kind, len, seed) in chunks {
            for i in 0..len {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                data.push(match kind {
                    0 => b"abcd"[(state >> 30) as usize],
                    1 => seed,
                    2 => (state >> 24) as u8,
                    _ => b"the quick brown fox "[(i + usize::from(seed)) % 20],
                });
            }
        }
        data
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matcher_output_on_structured_input(input in structured_input()) {
        assert_roundtrips(&input);
    }

    #[test]
    fn matcher_output_on_random_input(input in proptest::collection::vec(any::<u8>(), 0..3000)) {
        assert_roundtrips(&input);
    }

    /// Flips and cuts of small matcher payloads (up to a few hundred bytes).
    #[test]
    fn every_flip_and_cut_of_small_payloads(input in structured_input(), take in 0usize..300) {
        let input = &input[..take.min(input.len())];
        for config in configs() {
            assert_damage_agrees(&encode(input, &config));
        }
    }

    /// Hand-built streams, each once intact (both accept) and once with a
    /// random edit: a byte changed, a byte inserted, the stream cut, or a
    /// counter moved by one.
    #[test]
    fn edited_token_streams(
        ops in proptest::collection::vec(
            (prop_oneof![0u16..4, 0u16..20, 250u16..600], prop_oneof![0u16..20, 250u16..600], any::<u16>()),
            1..24,
        ),
        edit in 0u8..6,
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let (n, len, data) = token_stream(&ops);
        let intact = serialize(n, len, &data);
        prop_assert!(assert_same(&intact, len as usize, "intact stream").is_some());
        // A slot the payload's declared size does not fill, or overfills.
        assert_same(&intact, len as usize + 1, "intact stream, slot one byte longer");
        assert_same(&intact, (len as usize).saturating_sub(1), "intact stream, slot one byte shorter");

        let (mut n_edit, mut len_edit, mut stream) = (n, len, data.clone());
        let pos = at % (stream.len() + 1);
        match edit {
            0 if pos < stream.len() => stream[pos] = value,
            1 => stream.insert(pos, value),
            2 => stream.truncate(pos),
            3 => n_edit = if value & 1 == 0 { n + 1 } else { n - 1 },
            4 => len_edit = if value & 1 == 0 { len + 1 } else { len.saturating_sub(1) },
            _ => stream.push(value),
        }
        let edited = serialize(n_edit, len_edit, &stream);
        // The slot stays the intact block's size, as a container fixes it.
        assert_same(&edited, len as usize, &format!("edit {edit} at {pos}"));
        // And the slot the payload itself declares.
        assert_same(&edited, len_edit as usize, &format!("edit {edit} at {pos}, declared slot"));
    }

    /// Random bytes as a stream: nearly always rejected, by both.
    #[test]
    fn random_streams(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        n in 0u32..12,
        len in 0u32..200,
    ) {
        assert_same(&serialize(n, len, &data), len as usize, "random stream");
    }
}

/// 15 + 16,843,008 × 255 + 250 = 2^32 + 9: a literal or match length one
/// extension byte past `u32`, which both paths reject.
#[test]
fn length_extensions_past_u32_are_rejected_by_both() {
    for prefix in [&[0x0F, 1, 0][..], &[0xF0][..]] {
        let mut data = prefix.to_vec();
        data.resize(prefix.len() + 16_843_008, 0xFF);
        data.push(250);
        let payload = serialize(1, 10, &data);
        assert!(assert_same(&payload, 10, "overflowing extension").is_none());
    }
}
