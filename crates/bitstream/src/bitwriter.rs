//! LSB-first bit writer.

/// Accumulates bits LSB-first into a byte vector.
///
/// The bit order matches DEFLATE: the first bit written becomes the least
/// significant bit of the first output byte. Code words produced by the
/// canonical Huffman encoder are written with [`BitWriter::write_bits`] using
/// the code's bit-reversed representation so that the decoder can peek
/// `CWL`-bit windows directly (see the `gompresso-huffman` crate).
///
/// Bits are buffered in a 64-bit accumulator and flushed eight bytes at a
/// time with a single unaligned little-endian word store, mirroring
/// `BitReader`'s word-wise refill on the read side; only `finish` /
/// `align_to_byte` fall back to byte-granular draining.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bit accumulator; the low `nbits` bits are pending output. Bits at and
    /// above `nbits` are always zero.
    acc: u64,
    /// Number of valid bits in `acc` (0..=63).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { bytes: Vec::new(), acc: 0, nbits: 0 }
    }

    /// Creates an empty writer with space reserved for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { bytes: Vec::with_capacity(capacity), acc: 0, nbits: 0 }
    }

    /// Appends the low `width` bits of `value` to the stream, LSB first.
    ///
    /// `width` may be 0 (no-op) up to 32. Bits of `value` above `width` are
    /// ignored.
    pub fn write_bits(&mut self, value: u32, width: u32) {
        debug_assert!(width <= 32, "bit width {width} out of range");
        if width == 0 {
            return;
        }
        let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
        let v = u64::from(value & mask);
        self.acc |= v << self.nbits;
        let total = self.nbits + width;
        if total >= 64 {
            // The accumulator is full: store all eight bytes with one
            // unaligned word write and carry the bits of `v` that did not
            // fit (`width <= 32` guarantees `64 - nbits <= 32` here, so the
            // carry shift is always in range).
            self.bytes.extend_from_slice(&self.acc.to_le_bytes());
            self.acc = v >> (64 - self.nbits);
            self.nbits = total - 64;
        } else {
            self.nbits = total;
        }
    }

    /// Appends the low `width` bits of a 64-bit `value`, LSB first.
    ///
    /// `width` may be 0 (no-op) up to 62. This is the bulk entry point used
    /// by the Huffman encoder to emit several pre-packed code words (or a
    /// code word plus its extra bits) with a single accumulator visit. Bits
    /// of `value` at and above `width` must be zero.
    pub fn write_bits_u64(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 62, "bit width {width} out of range");
        if width == 0 {
            return;
        }
        debug_assert!(value >> width == 0, "value has bits above width");
        self.acc |= value << self.nbits;
        let total = self.nbits + width;
        if total >= 64 {
            self.bytes.extend_from_slice(&self.acc.to_le_bytes());
            // `nbits >= 2` here because `width <= 62`, so the carry shift
            // stays in range.
            self.acc = value >> (64 - self.nbits);
            self.nbits = total - 64;
        } else {
            self.nbits = total;
        }
    }

    /// Number of complete bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.nbits)
    }

    /// Pads the stream with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - (self.nbits % 8);
            if pad != 8 {
                self.write_bits(0, pad);
            }
        }
        // Drain the accumulator byte by byte; after padding, `nbits` is a
        // multiple of 8, so this empties it completely.
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Finishes the stream, padding the final partial byte with zero bits,
    /// and returns the underlying bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitReader;

    #[test]
    fn empty_writer_produces_no_bytes() {
        let w = BitWriter::new();
        assert_eq!(w.finish(), Vec::<u8>::new());
    }

    #[test]
    fn single_bits_pack_lsb_first() {
        let mut w = BitWriter::new();
        // Write bits 1,0,1,1 -> value 0b1101 in LSB-first order = 0x0D.
        for bit in [1, 0, 1, 1] {
            w.write_bits(bit, 1);
        }
        assert_eq!(w.finish(), vec![0b0000_1101]);
    }

    #[test]
    fn multi_byte_value_is_split() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        assert_eq!(w.finish(), vec![0xCD, 0xAB]);
    }

    #[test]
    fn width_zero_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF_FFFF, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn width_32_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(0x1234_5678, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(32).unwrap(), 0x1234_5678);
    }

    #[test]
    fn excess_value_bits_are_masked() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 3); // only low 3 bits (0b111) kept
        assert_eq!(w.finish(), vec![0b0000_0111]);
    }

    #[test]
    fn align_to_byte_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_to_byte();
        w.write_bits(0xFF, 8);
        assert_eq!(w.finish(), vec![0x01, 0xFF]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 10);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1101, 0b11], "padding follows the 10 payload bits");
    }

    #[test]
    fn word_flush_matches_byte_at_a_time_reference() {
        // The u64 bulk flush must be bit-identical to the old writer, which
        // drained the accumulator byte by byte after every write. Mixed
        // widths keep the flush misaligned in every possible phase.
        let mut w = BitWriter::new();
        let mut ref_bytes = Vec::new();
        let (mut ref_acc, mut ref_nbits) = (0u64, 0u32);
        let mut state = 0x1234_5678u32;
        for i in 0..10_000u32 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let width = 1 + (i % 32);
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            w.write_bits(state, width);
            ref_acc |= u64::from(state & mask) << ref_nbits;
            ref_nbits += width;
            while ref_nbits >= 8 {
                ref_bytes.push((ref_acc & 0xFF) as u8);
                ref_acc >>= 8;
                ref_nbits -= 8;
            }
        }
        if ref_nbits > 0 {
            ref_bytes.push((ref_acc & 0xFF) as u8);
        }
        assert_eq!(w.finish(), ref_bytes);
    }

    #[test]
    fn straddling_accumulator_boundary() {
        // 5 writes of 31 bits cross the 64-bit accumulator boundary.
        let vals = [0x7FFF_FFFFu32, 0x2AAA_AAAA, 0x1555_5555, 0x0F0F_0F0F, 0x7BCD_EF01];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_bits(v, 31);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_bits(31).unwrap(), v);
        }
    }
}
