//! LSB-first bit reader.

use crate::{Result, StreamError};

/// Reads bits LSB-first from a byte slice.
///
/// Mirrors [`crate::BitWriter`]. The reader additionally supports
/// `peek`/`consume` pairs, which is how the table-driven Huffman decoder
/// examines the next `CWL` bits without committing to a code length, and
/// bit-exact positioning, which is how the parallel decoder seeks each
/// sub-block decoder to its start offset (computed from the sub-block size
/// list in the file header).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte to load into the accumulator.
    next_byte: usize,
    /// Bit accumulator holding already-loaded, not-yet-consumed bits.
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`, positioned at bit 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, next_byte: 0, acc: 0, nbits: 0 }
    }

    /// Creates a reader positioned at an absolute bit offset into `data`.
    ///
    /// Returns an error if the offset lies beyond the end of the data.
    pub fn at_bit_offset(data: &'a [u8], bit_offset: u64) -> Result<Self> {
        let total_bits = data.len() as u64 * 8;
        if bit_offset > total_bits {
            return Err(StreamError::UnexpectedEof {
                needed: ((bit_offset - total_bits) / 8) as usize + 1,
                remaining: 0,
            });
        }
        let byte = (bit_offset / 8) as usize;
        let bit_in_byte = (bit_offset % 8) as u32;
        let mut reader = Self { data, next_byte: byte, acc: 0, nbits: 0 };
        if bit_in_byte > 0 {
            // Skip the already-consumed low bits of the current byte.
            reader.fill();
            reader.acc >>= bit_in_byte;
            reader.nbits -= bit_in_byte;
        }
        Ok(reader)
    }

    /// Absolute bit position of the next bit that will be read.
    pub fn bit_position(&self) -> u64 {
        self.next_byte as u64 * 8 - u64::from(self.nbits)
    }

    /// Total number of bits in the underlying slice.
    pub fn total_bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }

    /// Number of bits remaining in the stream.
    pub fn remaining_bits(&self) -> u64 {
        self.total_bits() - self.bit_position()
    }

    /// Reads `width` (0..=32) bits, LSB first.
    pub fn read_bits(&mut self, width: u32) -> Result<u32> {
        if width > 32 {
            return Err(StreamError::InvalidBitWidth(width));
        }
        if width == 0 {
            return Ok(0);
        }
        self.fill();
        if self.nbits < width {
            return Err(StreamError::UnexpectedEof {
                needed: ((width - self.nbits) as usize).div_ceil(8),
                remaining: self.data.len() - self.next_byte,
            });
        }
        let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
        let value = (self.acc & mask) as u32;
        self.acc >>= width;
        self.nbits -= width;
        Ok(value)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Peeks at the next `width` (0..=32) bits without consuming them.
    ///
    /// If fewer than `width` bits remain, the missing high bits are zero.
    /// This matches the behaviour table-driven Huffman decoders rely on when
    /// the final code word of a stream is shorter than the LUT index width.
    pub fn peek_bits(&mut self, width: u32) -> Result<u32> {
        if width > 32 {
            return Err(StreamError::InvalidBitWidth(width));
        }
        if width == 0 {
            return Ok(0);
        }
        self.fill();
        let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
        Ok((self.acc & mask) as u32)
    }

    /// Consumes `width` bits previously examined with [`Self::peek_bits`].
    ///
    /// Errors if fewer than `width` bits remain.
    pub fn consume_bits(&mut self, width: u32) -> Result<()> {
        if width > 32 {
            return Err(StreamError::InvalidBitWidth(width));
        }
        self.fill();
        if self.nbits < width {
            return Err(StreamError::UnexpectedEof {
                needed: ((width - self.nbits) as usize).div_ceil(8),
                remaining: self.data.len() - self.next_byte,
            });
        }
        self.acc >>= width;
        self.nbits -= width;
        Ok(())
    }

    /// Discards bits until the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let misaligned = (self.bit_position() % 8) as u32;
        if misaligned != 0 {
            // Safe: there are always at least `8 - misaligned` bits loaded or
            // loadable, because bit_position() is derived from loaded bytes.
            let _ = self.consume_bits(8 - misaligned);
        }
    }

    /// Refills the accumulator and returns the next `width` bits without
    /// consuming them, together with the number of bits actually available.
    ///
    /// This is the fast half of the fused `peek`/`consume` pair used by the
    /// table-driven Huffman decoder: one refill, one mask, no per-call width
    /// validation (`width` must be 1..=32, enforced by a debug assertion).
    /// Missing bits past the end of the stream read as zero, exactly like
    /// [`Self::peek_bits`]. Consume the decoded length afterwards with
    /// [`Self::consume_peeked`].
    #[inline]
    pub fn peek_window(&mut self, width: u32) -> (u32, u32) {
        debug_assert!((1..=32).contains(&width));
        if self.nbits < width {
            self.fill();
        }
        let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
        ((self.acc & mask) as u32, self.nbits)
    }

    /// Consumes `width` bits whose availability the caller has already
    /// verified against the count returned by [`Self::peek_window`].
    ///
    /// Unlike [`Self::consume_bits`] this neither refills nor re-checks the
    /// width; consuming more bits than `peek_window` reported available is a
    /// caller bug (caught by a debug assertion, saturated in release).
    #[inline]
    pub fn consume_peeked(&mut self, width: u32) {
        debug_assert!(width <= 32 && width <= self.nbits);
        let width = width.min(self.nbits);
        self.acc >>= width;
        self.nbits -= width;
    }

    /// Loads input into the accumulator until it holds at least 56 bits or
    /// the stream is exhausted.
    ///
    /// The hot path loads eight bytes with one unaligned little-endian word
    /// read and advances by however many whole bytes fit, instead of looping
    /// byte by byte. The bytes that were loaded but not yet counted into
    /// `nbits` occupy the accumulator's high bits with their true stream
    /// values; re-ORing them on the next refill is idempotent, and every
    /// consumer masks reads to the requested width, so the extra bits are
    /// never observable. Near the end of the stream the byte loop preserves
    /// the zero-fill-past-EOF semantics that `peek_bits` documents.
    #[inline]
    fn fill(&mut self) {
        if self.nbits >= 56 {
            return;
        }
        if let Some(chunk) = self.data.get(self.next_byte..self.next_byte + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("slice of length 8"));
            self.acc |= word << self.nbits;
            let loaded_bytes = (63 - self.nbits) >> 3;
            self.next_byte += loaded_bytes as usize;
            self.nbits += loaded_bytes * 8;
        } else {
            while self.nbits <= 56 && self.next_byte < self.data.len() {
                self.acc |= u64::from(self.data[self.next_byte]) << self.nbits;
                self.next_byte += 1;
                self.nbits += 8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    fn written(pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &(v, width) in pairs {
            w.write_bits(v, width);
        }
        w.finish()
    }

    #[test]
    fn reads_back_mixed_widths() {
        let bytes = written(&[(0b101, 3), (0xFFFF, 16), (0, 1), (0x3FF, 10)]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
    }

    #[test]
    fn zero_width_read_is_ok() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn over_wide_read_is_rejected() {
        let mut r = BitReader::new(&[0u8; 8]);
        assert_eq!(r.read_bits(33), Err(StreamError::InvalidBitWidth(33)));
        assert_eq!(r.peek_bits(40), Err(StreamError::InvalidBitWidth(40)));
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(matches!(r.read_bits(1), Err(StreamError::UnexpectedEof { .. })));
    }

    #[test]
    fn peek_does_not_consume() {
        let bytes = written(&[(0xAB, 8), (0xCD, 8)]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(8).unwrap(), 0xAB);
        assert_eq!(r.peek_bits(16).unwrap(), 0xCDAB);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(r.read_bits(8).unwrap(), 0xCD);
    }

    #[test]
    fn peek_past_end_zero_fills() {
        let mut r = BitReader::new(&[0b0000_0001]);
        // Only 8 bits available; peeking 12 returns the byte with zero fill.
        assert_eq!(r.peek_bits(12).unwrap(), 1);
        // But consuming 12 must fail.
        assert!(r.consume_bits(12).is_err());
    }

    #[test]
    fn bit_position_tracking() {
        let bytes = written(&[(0x12345678, 32), (0x1F, 5)]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit_position(), 0);
        r.read_bits(7).unwrap();
        assert_eq!(r.bit_position(), 7);
        r.read_bits(25).unwrap();
        assert_eq!(r.bit_position(), 32);
        assert_eq!(r.remaining_bits(), r.total_bits() - 32);
    }

    #[test]
    fn at_bit_offset_seeks_correctly() {
        // Write 3 sub-blocks of known bit lengths and seek to each.
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3); // sub-block 0: 3 bits
        w.write_bits(0x5A, 7); // sub-block 1: 7 bits
        w.write_bits(0x3FF, 10); // sub-block 2: 10 bits
        let bytes = w.finish();

        let mut r = BitReader::at_bit_offset(&bytes, 0).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        let mut r = BitReader::at_bit_offset(&bytes, 3).unwrap();
        assert_eq!(r.read_bits(7).unwrap(), 0x5A);
        let mut r = BitReader::at_bit_offset(&bytes, 10).unwrap();
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
    }

    #[test]
    fn at_bit_offset_rejects_out_of_range() {
        assert!(BitReader::at_bit_offset(&[0u8; 2], 17).is_err());
        assert!(BitReader::at_bit_offset(&[0u8; 2], 16).is_ok());
    }

    #[test]
    fn peek_window_matches_peek_bits_and_reports_availability() {
        let bytes = written(&[(0xABCD, 16), (0x3F, 6)]);
        let mut r = BitReader::new(&bytes);
        let (window, avail) = r.peek_window(16);
        assert_eq!(window, 0xABCD);
        assert!(avail >= 16);
        r.consume_peeked(16);
        assert_eq!(r.bit_position(), 16);
        let (window, avail) = r.peek_window(6);
        assert_eq!(window, 0x3F);
        assert!(avail >= 6);
        r.consume_peeked(6);
        // Past the end: zero-filled window, availability below the width.
        let (window, avail) = r.peek_window(8);
        assert!(avail < 8);
        assert_eq!(window & !((1 << avail) - 1), 0, "missing bits must read as zero");
    }

    #[test]
    fn peek_window_interleaves_with_classic_reads() {
        // The fused path and the checked path share the accumulator; mixing
        // them must not skew the position.
        let bytes = written(&[(0x5A, 8), (0x1234, 16), (0b101, 3), (0x7F, 7)]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0x5A);
        let (window, _) = r.peek_window(16);
        assert_eq!(window, 0x1234);
        r.consume_peeked(16);
        assert_eq!(r.peek_bits(3).unwrap(), 0b101);
        r.consume_bits(3).unwrap();
        assert_eq!(r.read_bits(7).unwrap(), 0x7F);
        assert_eq!(r.remaining_bits(), r.total_bits() - 34);
    }

    #[test]
    fn word_refill_agrees_with_byte_tail_across_lengths() {
        // Exercise every data length around the 8-byte word-load boundary
        // with every starting offset; values must match a plain bit walk.
        for len in 0usize..=24 {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect();
            for start in 0..=(len * 8) {
                let mut r = BitReader::at_bit_offset(&bytes, start as u64).unwrap();
                for bit in start..len * 8 {
                    let expected = (bytes[bit / 8] >> (bit % 8)) & 1;
                    assert_eq!(
                        r.read_bits(1).unwrap(),
                        u32::from(expected),
                        "len {len} start {start} bit {bit}"
                    );
                }
                assert!(r.read_bits(1).is_err());
            }
        }
    }

    #[test]
    fn multiple_cursors_over_one_slice_are_independent() {
        // Each sub-block decode opens its own reader over the block's one
        // backing slice; advancing one must not disturb another.
        let bytes = written(&[(0xABC, 12), (0x5A5, 12), (0x30F, 12)]);
        let mut a = BitReader::at_bit_offset(&bytes, 0).unwrap();
        let mut b = BitReader::at_bit_offset(&bytes, 12).unwrap();
        let mut c = BitReader::at_bit_offset(&bytes, 24).unwrap();
        assert_eq!(a.read_bits(12).unwrap(), 0xABC);
        assert_eq!(c.read_bits(12).unwrap(), 0x30F);
        assert_eq!(b.read_bits(12).unwrap(), 0x5A5);
        assert_eq!(a.read_bits(12).unwrap(), 0x5A5);
    }

    #[test]
    fn align_to_byte_discards_partial() {
        let bytes = written(&[(0b1, 1), (0, 7), (0xEE, 8)]);
        let mut r = BitReader::new(&bytes);
        r.read_bits(1).unwrap();
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xEE);
    }
}
