//! Edge-case tests for the stream primitives: varint byte-count boundaries,
//! empty inputs, and bit reads that straddle byte and accumulator
//! boundaries in every phase.

use gompresso_bitstream::{
    read_varint, varint_len, write_varint, BitReader, BitWriter, ByteReader, ByteWriter, StreamError,
};

fn varint_roundtrip(v: u64) -> (u64, usize) {
    let mut w = ByteWriter::new();
    write_varint(&mut w, v);
    let bytes = w.finish();
    let len = bytes.len();
    let mut r = ByteReader::new(&bytes);
    let back = read_varint(&mut r).unwrap();
    assert!(r.is_empty(), "trailing bytes after varint for {v}");
    (back, len)
}

#[test]
fn varint_every_seven_bit_boundary() {
    // A LEB128 varint grows by one byte exactly when the value crosses
    // 2^(7k); probe one below, at, and one above every boundary.
    for k in 1..=9usize {
        let boundary = 1u64 << (7 * k);
        assert_eq!(varint_roundtrip(boundary - 1), (boundary - 1, k), "below 2^{}", 7 * k);
        assert_eq!(varint_roundtrip(boundary), (boundary, k + 1), "at 2^{}", 7 * k);
        assert_eq!(varint_roundtrip(boundary + 1), (boundary + 1, k + 1), "above 2^{}", 7 * k);
        assert_eq!(varint_len(boundary - 1), k);
        assert_eq!(varint_len(boundary), k + 1);
    }
    // The extremes.
    assert_eq!(varint_roundtrip(0), (0, 1));
    assert_eq!(varint_roundtrip(u64::MAX), (u64::MAX, 10));
}

#[test]
fn varint_from_empty_input_is_eof() {
    let mut r = ByteReader::new(&[]);
    assert!(matches!(read_varint(&mut r), Err(StreamError::UnexpectedEof { .. })));
}

#[test]
fn empty_bitstream_behaviour() {
    let mut r = BitReader::new(&[]);
    assert_eq!(r.total_bits(), 0);
    assert_eq!(r.remaining_bits(), 0);
    assert_eq!(r.bit_position(), 0);
    // Zero-width reads succeed, anything else is EOF, peeks zero-fill.
    assert_eq!(r.read_bits(0).unwrap(), 0);
    assert_eq!(r.peek_bits(17).unwrap(), 0);
    assert!(matches!(r.read_bits(1), Err(StreamError::UnexpectedEof { .. })));
    assert!(r.consume_bits(1).is_err());
    // Aligning an empty stream is a no-op.
    r.align_to_byte();
    assert_eq!(r.bit_position(), 0);
}

#[test]
fn empty_bitwriter_produces_empty_output() {
    let w = BitWriter::new();
    assert_eq!(w.bit_len(), 0);
    assert!(w.finish().is_empty());
}

#[test]
fn empty_bytereader_behaviour() {
    let mut r = ByteReader::new(&[]);
    assert!(r.is_empty());
    assert_eq!(r.remaining(), 0);
    assert_eq!(r.rest(), &[] as &[u8]);
    assert!(r.read_u8().is_err());
    assert!(r.read_bytes(1).is_err());
    // Zero-byte requests on an empty reader are fine.
    assert_eq!(r.read_bytes(0).unwrap(), &[] as &[u8]);
    r.skip(0).unwrap();
}

#[test]
fn unaligned_reads_across_every_phase() {
    // Writing 3-bit values makes the stream drift through all 8 phases of
    // byte alignment; each value must survive the round trip regardless of
    // where it lands.
    let values: Vec<u32> = (0..64u32).map(|i| i % 8).collect();
    let mut w = BitWriter::new();
    for &v in &values {
        w.write_bits(v, 3);
    }
    assert_eq!(w.bit_len(), 64 * 3);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(r.read_bits(3).unwrap(), v, "value {i} at bit {}", i * 3);
    }
}

#[test]
fn unaligned_wide_reads_straddle_accumulator_refills() {
    // 31-bit reads keep the read position misaligned by a shifting amount
    // and force the 64-bit accumulator to refill mid-value.
    let values: Vec<u32> = (0..40u32).map(|i| i.wrapping_mul(0x9E37_79B9) & 0x7FFF_FFFF).collect();
    let mut w = BitWriter::new();
    for &v in &values {
        w.write_bits(v, 31);
    }
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for &v in &values {
        assert_eq!(r.read_bits(31).unwrap(), v);
    }
}

#[test]
fn seeking_to_every_unaligned_offset() {
    // Fill a stream with a known bit pattern, then start a fresh reader at
    // every single bit offset and check the next bits match the pattern.
    let mut w = BitWriter::new();
    for i in 0..32u32 {
        w.write_bits(i & 1, 1); // alternating 0,1,0,1,...
    }
    let bytes = w.finish();
    for offset in 0..32u64 {
        let mut r = BitReader::at_bit_offset(&bytes, offset).unwrap();
        assert_eq!(r.bit_position(), offset, "reader reports seeked position");
        let expected = (offset & 1) as u32;
        assert_eq!(r.read_bits(1).unwrap(), expected, "bit at offset {offset}");
    }
}

#[test]
fn peek_consume_pairs_at_unaligned_positions() {
    // Interleave unaligned peeks and partial consumes the way the Huffman
    // LUT decoder does: peek a fixed window, consume a data-dependent
    // number of bits.
    let mut w = BitWriter::new();
    w.write_bits(0b1_0110, 5);
    w.write_bits(0b110, 3);
    w.write_bits(0x0F0F, 16);
    let bytes = w.finish();

    let mut r = BitReader::new(&bytes);
    // Peek 8 bits spanning the first two fields: low 5 are 0b10110, next 3
    // are 0b110.
    assert_eq!(r.peek_bits(8).unwrap(), (0b110 << 5) | 0b1_0110);
    r.consume_bits(5).unwrap();
    assert_eq!(r.bit_position(), 5);
    // Now unaligned by 5; the peek window spans a byte boundary.
    assert_eq!(r.peek_bits(8).unwrap(), ((0x0F0F & 0x1F) << 3) | 0b110);
    r.consume_bits(3).unwrap();
    assert_eq!(r.read_bits(16).unwrap(), 0x0F0F);
    assert_eq!(r.remaining_bits(), 0);
}

#[test]
fn reads_that_overrun_report_exact_shortfall() {
    let mut w = BitWriter::new();
    w.write_bits(0x7, 3);
    let bytes = w.finish(); // one byte: 3 data bits + 5 padding bits
    let mut r = BitReader::new(&bytes);
    r.read_bits(3).unwrap();
    // 5 padding bits remain; a 6-bit read must fail without consuming.
    let before = r.bit_position();
    assert!(r.read_bits(6).is_err());
    assert_eq!(r.bit_position(), before, "failed read must not consume bits");
    // The padding itself is still readable.
    assert_eq!(r.read_bits(5).unwrap(), 0);
}
