//! Symbol alphabets for the bit-level (Gompresso/Bit) encoding.
//!
//! Like DEFLATE, Gompresso/Bit entropy-codes three kinds of values with two
//! Huffman trees (paper, Section III-A):
//!
//! * the **literal/length tree** covers literal bytes (symbols `0..=255`),
//!   an end-of-sequences marker (symbol 256, used for the final literal-only
//!   sequence of a block), and match-length codes (symbols `257..`);
//! * the **offset tree** covers match-offset codes.
//!
//! Large lengths and offsets are bucketed geometrically: each code denotes a
//! range of values and is followed by a fixed number of *extra bits* that
//! select the exact value inside the range — the same construction DEFLATE
//! uses, generalised so it works for any window size and match-length cap.

use crate::{FormatError, Result};

/// Number of literal symbols (one per byte value).
pub const LITERAL_SYMBOLS: u16 = 256;

/// Symbol marking "no back-reference follows" (final sequence of a block).
pub const END_OF_SEQUENCES: u16 = 256;

/// First match-length symbol.
pub const FIRST_LENGTH_SYMBOL: u16 = 257;

/// Number of value codes in the geometric bucketing scheme for a maximum
/// encodable value of `max_value`.
fn bucket_count(max_value: u32) -> u16 {
    bucket_of(max_value).0 + 1
}

/// Maps a non-negative value to `(bucket, extra_bits, extra_value)`.
///
/// Values 0..=3 get their own bucket with no extra bits; larger values are
/// split by bit length, two buckets per bit length, so bucket `b >= 4` covers
/// `2^(k-1) + j*2^(k-2) ..` for `k = (b - 4) / 2 + 3`.
fn bucket_of(value: u32) -> (u16, u8, u32) {
    if value < 4 {
        return (value as u16, 0, 0);
    }
    let nbits = 32 - value.leading_zeros(); // >= 3
    let extra_bits = (nbits - 2) as u8;
    let half = (value >> (nbits - 2)) & 1; // second-highest bit
    let bucket = 4 + 2 * (nbits as u16 - 3) + half as u16;
    let extra = value & ((1u32 << extra_bits) - 1);
    (bucket, extra_bits, extra)
}

/// Reconstructs the value range base and extra-bit count of a bucket.
fn bucket_base(bucket: u16) -> (u32, u8) {
    if bucket < 4 {
        return (u32::from(bucket), 0);
    }
    let k = (bucket - 4) / 2 + 3; // bit length of values in this bucket
    let half = (bucket - 4) % 2;
    let extra_bits = (k - 2) as u8;
    let base = (1u32 << (k - 1)) + (u32::from(half) << (k - 2));
    (base, extra_bits)
}

/// The token-coding parameters for one file: alphabet sizes derived from the
/// configured window size, minimum and maximum match lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenCoder {
    /// Minimum match length (lengths are coded relative to it).
    pub min_match_len: u32,
    /// Maximum match length.
    pub max_match_len: u32,
    /// Maximum match offset (the window size).
    pub max_offset: u32,
}

impl TokenCoder {
    /// Creates a coder; errors if the parameters are out of range.
    pub fn new(min_match_len: u32, max_match_len: u32, max_offset: u32) -> Result<Self> {
        if min_match_len < 1 || max_match_len < min_match_len {
            return Err(FormatError::InvalidHeaderField {
                field: "max_match_len",
                value: u64::from(max_match_len),
            });
        }
        if !(1..=(1 << 30)).contains(&max_offset) {
            return Err(FormatError::InvalidHeaderField {
                field: "window_size",
                value: u64::from(max_offset),
            });
        }
        Ok(Self { min_match_len, max_match_len, max_offset })
    }

    /// Size of the literal/length alphabet.
    pub fn lit_len_alphabet(&self) -> usize {
        usize::from(FIRST_LENGTH_SYMBOL) + usize::from(bucket_count(self.max_match_len - self.min_match_len))
    }

    /// Size of the offset alphabet.
    pub fn offset_alphabet(&self) -> usize {
        usize::from(bucket_count(self.max_offset - 1))
    }

    /// Encodes a match length as `(symbol, extra_bits, extra_value)`.
    pub fn encode_length(&self, len: u32) -> Result<(u16, u8, u32)> {
        if len < self.min_match_len || len > self.max_match_len {
            return Err(FormatError::InvalidToken { reason: "match length out of configured range" });
        }
        let (bucket, bits, extra) = bucket_of(len - self.min_match_len);
        Ok((FIRST_LENGTH_SYMBOL + bucket, bits, extra))
    }

    /// Number of extra bits that follow a length symbol.
    pub fn length_extra_bits(&self, symbol: u16) -> Result<u8> {
        if symbol < FIRST_LENGTH_SYMBOL || usize::from(symbol) >= self.lit_len_alphabet() {
            return Err(FormatError::InvalidToken { reason: "not a length symbol" });
        }
        Ok(bucket_base(symbol - FIRST_LENGTH_SYMBOL).1)
    }

    /// Decodes a length symbol plus its extra bits back into a match length.
    pub fn decode_length(&self, symbol: u16, extra: u32) -> Result<u32> {
        if symbol < FIRST_LENGTH_SYMBOL || usize::from(symbol) >= self.lit_len_alphabet() {
            return Err(FormatError::InvalidToken { reason: "not a length symbol" });
        }
        let (base, bits) = bucket_base(symbol - FIRST_LENGTH_SYMBOL);
        if bits < 32 && extra >= (1u32 << bits) {
            return Err(FormatError::InvalidToken { reason: "length extra bits out of range" });
        }
        // Summed in u64: corrupt extra bits in the top bucket of a wide
        // length range can carry the sum past u32::MAX.
        let len = u64::from(base) + u64::from(extra) + u64::from(self.min_match_len);
        if len > u64::from(self.max_match_len) {
            return Err(FormatError::InvalidToken { reason: "decoded match length exceeds maximum" });
        }
        Ok(len as u32)
    }

    /// Encodes a match offset (distance ≥ 1) as `(symbol, extra_bits, extra)`.
    pub fn encode_offset(&self, offset: u32) -> Result<(u16, u8, u32)> {
        if offset < 1 || offset > self.max_offset {
            return Err(FormatError::InvalidToken { reason: "match offset out of configured range" });
        }
        let (bucket, bits, extra) = bucket_of(offset - 1);
        Ok((bucket, bits, extra))
    }

    /// Number of extra bits that follow an offset symbol.
    pub fn offset_extra_bits(&self, symbol: u16) -> Result<u8> {
        if usize::from(symbol) >= self.offset_alphabet() {
            return Err(FormatError::InvalidToken { reason: "not an offset symbol" });
        }
        Ok(bucket_base(symbol).1)
    }

    /// Decodes an offset symbol plus extra bits back into a distance.
    pub fn decode_offset(&self, symbol: u16, extra: u32) -> Result<u32> {
        if usize::from(symbol) >= self.offset_alphabet() {
            return Err(FormatError::InvalidToken { reason: "not an offset symbol" });
        }
        let (base, bits) = bucket_base(symbol);
        if bits < 32 && extra >= (1u32 << bits) {
            return Err(FormatError::InvalidToken { reason: "offset extra bits out of range" });
        }
        let offset = base + extra + 1;
        if offset > self.max_offset {
            return Err(FormatError::InvalidToken { reason: "decoded offset exceeds window" });
        }
        Ok(offset)
    }
}

/// Flat encode-side token tables.
///
/// [`TokenCoder::encode_length`]/[`TokenCoder::encode_offset`] re-derive the
/// geometric bucket (a `leading_zeros` split with data-dependent branches)
/// on every call, twice per match. The hot encode path instead builds these
/// tables once per coder and turns each match token into two loads: a flat
/// `(symbol, extra bits, extra value)` entry per exact length, and the same
/// per exact offset when the window is small enough to tabulate (the
/// default 8 KiB window is; a table for the 1 GiB maximum would not fit in
/// cache, so larger windows fall back to the arithmetic path).
#[derive(Debug, Clone)]
pub struct TokenEncodeTables {
    /// Indexed by `len - min_match_len`: `(symbol, extra bits, extra)`.
    lengths: Box<[(u16, u8, u32)]>,
    /// Indexed by `offset - 1`: `(symbol, extra bits, extra)`. Empty when
    /// the window exceeds [`Self::MAX_OFFSET_TABLE`].
    offsets: Box<[(u16, u8, u32)]>,
    min_match_len: u32,
    max_match_len: u32,
    max_offset: u32,
}

impl TokenEncodeTables {
    /// Largest window tabulated per exact offset (a 16 K-entry table is
    /// 128 KiB — still cache-resident next to the matcher's hash table).
    const MAX_OFFSET_TABLE: u32 = 16 * 1024;

    /// Largest length span tabulated per exact length.
    const MAX_LENGTH_TABLE: u32 = 64 * 1024;

    /// Builds the tables for a coder.
    pub fn new(coder: &TokenCoder) -> Self {
        let span = coder.max_match_len - coder.min_match_len;
        let lengths = if span < Self::MAX_LENGTH_TABLE {
            (0..=span)
                .map(|v| {
                    let (bucket, bits, extra) = bucket_of(v);
                    (FIRST_LENGTH_SYMBOL + bucket, bits, extra)
                })
                .collect()
        } else {
            Box::from([])
        };
        let offsets = if coder.max_offset <= Self::MAX_OFFSET_TABLE {
            (0..coder.max_offset)
                .map(|v| {
                    let (bucket, bits, extra) = bucket_of(v);
                    (bucket, bits, extra)
                })
                .collect()
        } else {
            Box::from([])
        };
        Self {
            lengths,
            offsets,
            min_match_len: coder.min_match_len,
            max_match_len: coder.max_match_len,
            max_offset: coder.max_offset,
        }
    }

    /// The tabulated length entries, indexed by `len - min_match_len`;
    /// empty when the length span is too large to tabulate. Used by the
    /// block encoder to pre-fuse Huffman code words with the extra bits.
    pub(crate) fn length_entries(&self) -> &[(u16, u8, u32)] {
        &self.lengths
    }

    /// The tabulated offset entries, indexed by `offset - 1`; empty when
    /// the window is too large to tabulate.
    pub(crate) fn offset_entries(&self) -> &[(u16, u8, u32)] {
        &self.offsets
    }

    /// The coder's minimum match length (the rebase of the length table).
    pub(crate) fn min_match_len(&self) -> u32 {
        self.min_match_len
    }

    /// `(symbol, extra bits, extra value)` for a match length; identical to
    /// [`TokenCoder::encode_length`].
    #[inline]
    pub fn length_token(&self, len: u32) -> Result<(u16, u8, u32)> {
        match self.lengths.get(len.wrapping_sub(self.min_match_len) as usize) {
            Some(&entry) => Ok(entry),
            None => {
                if len < self.min_match_len || len > self.max_match_len {
                    return Err(FormatError::InvalidToken { reason: "match length out of configured range" });
                }
                let (bucket, bits, extra) = bucket_of(len - self.min_match_len);
                Ok((FIRST_LENGTH_SYMBOL + bucket, bits, extra))
            }
        }
    }

    /// `(symbol, extra bits, extra value)` for a match offset; identical to
    /// [`TokenCoder::encode_offset`].
    #[inline]
    pub fn offset_token(&self, offset: u32) -> Result<(u16, u8, u32)> {
        match self.offsets.get(offset.wrapping_sub(1) as usize) {
            Some(&entry) => Ok(entry),
            None => {
                if offset < 1 || offset > self.max_offset {
                    return Err(FormatError::InvalidToken { reason: "match offset out of configured range" });
                }
                let (bucket, bits, extra) = bucket_of(offset - 1);
                Ok((bucket, bits, extra))
            }
        }
    }
}

/// Flat per-symbol decode tables for the token coder.
///
/// [`TokenCoder::decode_length`]/[`TokenCoder::decode_offset`] re-derive the
/// bucket base and re-validate the symbol on every call; the hot decode path
/// instead builds these tables once per block and turns each match token
/// into two array loads plus an add. The tables bake the `+ min_match_len` /
/// `+ 1` rebase in, so `base + extra` *is* the decoded value; range checks
/// against the configured maxima stay at the call site (corrupt extra bits
/// can still push past them).
#[derive(Debug, Clone)]
pub struct TokenTables {
    /// Indexed by `symbol - FIRST_LENGTH_SYMBOL`: `(bucket base +
    /// min_match_len, extra bits)`.
    lengths: Box<[(u32, u8)]>,
    /// Indexed by offset symbol: `(bucket base + 1, extra bits)`.
    offsets: Box<[(u32, u8)]>,
    /// Largest decodable match length.
    pub max_match_len: u32,
    /// Largest decodable offset (the window size).
    pub max_offset: u32,
}

impl TokenTables {
    /// Builds the tables for a coder.
    pub fn new(coder: &TokenCoder) -> Self {
        let lengths = (FIRST_LENGTH_SYMBOL..coder.lit_len_alphabet() as u16)
            .map(|sym| {
                let (base, bits) = bucket_base(sym - FIRST_LENGTH_SYMBOL);
                (base + coder.min_match_len, bits)
            })
            .collect();
        let offsets = (0..coder.offset_alphabet() as u16)
            .map(|sym| {
                let (base, bits) = bucket_base(sym);
                (base + 1, bits)
            })
            .collect();
        Self { lengths, offsets, max_match_len: coder.max_match_len, max_offset: coder.max_offset }
    }

    /// `(rebased bucket base, extra bits)` for a length symbol, or an error
    /// for symbols outside the alphabet (decodable only from corrupt code
    /// tables).
    #[inline]
    pub fn length_entry(&self, symbol: u16) -> Result<(u32, u8)> {
        debug_assert!(symbol >= FIRST_LENGTH_SYMBOL);
        self.lengths
            .get(usize::from(symbol - FIRST_LENGTH_SYMBOL))
            .copied()
            .ok_or(FormatError::InvalidToken { reason: "not a length symbol" })
    }

    /// `(rebased bucket base, extra bits)` for an offset symbol.
    #[inline]
    pub fn offset_entry(&self, symbol: u16) -> Result<(u32, u8)> {
        self.offsets
            .get(usize::from(symbol))
            .copied()
            .ok_or(FormatError::InvalidToken { reason: "not an offset symbol" })
    }

    /// Validates a reassembled match length against the configured maximum.
    /// The length is `base + extra` summed in `u64`: corrupt extra bits in
    /// the top bucket of a wide length range can carry it past `u32::MAX`.
    #[inline]
    pub fn check_length(&self, len: u64) -> Result<u32> {
        if len > u64::from(self.max_match_len) {
            return Err(FormatError::InvalidToken { reason: "decoded match length exceeds maximum" });
        }
        Ok(len as u32)
    }

    /// Validates a reassembled offset against the window size.
    #[inline]
    pub fn check_offset(&self, offset: u32) -> Result<u32> {
        if offset > self.max_offset {
            return Err(FormatError::InvalidToken { reason: "decoded offset exceeds window" });
        }
        Ok(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coder() -> TokenCoder {
        TokenCoder::new(3, 258, 32 * 1024).unwrap()
    }

    #[test]
    fn token_tables_agree_with_coder_decode() {
        let c = coder();
        let t = TokenTables::new(&c);
        for sym in FIRST_LENGTH_SYMBOL..c.lit_len_alphabet() as u16 {
            let (base, bits) = t.length_entry(sym).unwrap();
            assert_eq!(bits, c.length_extra_bits(sym).unwrap());
            for extra in [0u32, (1u32 << bits) - 1] {
                let direct = c.decode_length(sym, extra);
                let via_table = t.check_length(u64::from(base) + u64::from(extra));
                assert_eq!(direct.is_ok(), via_table.is_ok(), "len sym {sym} extra {extra}");
                if let (Ok(a), Ok(b)) = (direct, via_table) {
                    assert_eq!(a, b);
                }
            }
        }
        for sym in 0..c.offset_alphabet() as u16 {
            let (base, bits) = t.offset_entry(sym).unwrap();
            assert_eq!(bits, c.offset_extra_bits(sym).unwrap());
            for extra in [0u32, (1u32 << bits) - 1] {
                let direct = c.decode_offset(sym, extra);
                let via_table = t.check_offset(base + extra);
                assert_eq!(direct.is_ok(), via_table.is_ok(), "off sym {sym} extra {extra}");
                if let (Ok(a), Ok(b)) = (direct, via_table) {
                    assert_eq!(a, b);
                }
            }
        }
        // Out-of-alphabet symbols error like the coder's range checks.
        assert!(t.length_entry(c.lit_len_alphabet() as u16).is_err());
        assert!(t.offset_entry(c.offset_alphabet() as u16).is_err());
    }

    #[test]
    fn encode_tables_agree_with_coder_encode() {
        let c = coder();
        let t = TokenEncodeTables::new(&c);
        for len in 3u32..=258 {
            assert_eq!(t.length_token(len).unwrap(), c.encode_length(len).unwrap());
        }
        for offset in (1u32..=32 * 1024).step_by(11).chain([1, 2, 32 * 1024]) {
            assert_eq!(t.offset_token(offset).unwrap(), c.encode_offset(offset).unwrap());
        }
        assert!(t.length_token(2).is_err());
        assert!(t.length_token(259).is_err());
        assert!(t.offset_token(0).is_err());
        assert!(t.offset_token(32 * 1024 + 1).is_err());

        // The default 8 KiB window fits the offset table: every offset is
        // a direct load.
        let small = TokenCoder::new(3, 64, 8 * 1024).unwrap();
        let ts = TokenEncodeTables::new(&small);
        for offset in 1u32..=8 * 1024 {
            assert_eq!(ts.offset_token(offset).unwrap(), small.encode_offset(offset).unwrap());
        }

        // A window too large to tabulate takes the arithmetic fallback and
        // must agree with the coder as well.
        let big = TokenCoder::new(3, 64, 1 << 20).unwrap();
        let tb = TokenEncodeTables::new(&big);
        for offset in [1u32, 5, 1024, 65537, 1 << 20] {
            assert_eq!(tb.offset_token(offset).unwrap(), big.encode_offset(offset).unwrap());
        }
        assert!(tb.offset_token(0).is_err());
        assert!(tb.offset_token((1 << 20) + 1).is_err());
    }

    #[test]
    fn bucket_mapping_is_invertible_for_all_small_values() {
        for v in 0u32..100_000 {
            let (bucket, bits, extra) = bucket_of(v);
            let (base, bits2) = bucket_base(bucket);
            assert_eq!(bits, bits2, "extra-bit mismatch for {v}");
            assert_eq!(base + extra, v, "value mismatch for {v}");
            if bits < 32 {
                assert!(extra < (1u32 << bits));
            }
        }
    }

    #[test]
    fn buckets_are_monotonic_in_value() {
        let mut last = 0u16;
        for v in 0u32..10_000 {
            let (bucket, _, _) = bucket_of(v);
            assert!(bucket >= last);
            last = bucket;
        }
    }

    #[test]
    fn length_roundtrip_over_full_range() {
        let c = coder();
        for len in 3u32..=258 {
            let (sym, bits, extra) = c.encode_length(len).unwrap();
            assert_eq!(c.length_extra_bits(sym).unwrap(), bits);
            assert_eq!(c.decode_length(sym, extra).unwrap(), len);
            assert!(usize::from(sym) < c.lit_len_alphabet());
            assert!(sym >= FIRST_LENGTH_SYMBOL);
        }
    }

    #[test]
    fn offset_roundtrip_over_full_range() {
        let c = coder();
        for offset in (1u32..=32 * 1024).step_by(7) {
            let (sym, bits, extra) = c.encode_offset(offset).unwrap();
            assert_eq!(c.offset_extra_bits(sym).unwrap(), bits);
            assert_eq!(c.decode_offset(sym, extra).unwrap(), offset);
            assert!(usize::from(sym) < c.offset_alphabet());
        }
        // Boundary values explicitly.
        for offset in [1u32, 2, 3, 4, 5, 8, 9, 16, 1024, 32 * 1024] {
            let (sym, _, extra) = c.encode_offset(offset).unwrap();
            assert_eq!(c.decode_offset(sym, extra).unwrap(), offset);
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let c = coder();
        assert!(c.encode_length(2).is_err());
        assert!(c.encode_length(259).is_err());
        assert!(c.encode_offset(0).is_err());
        assert!(c.encode_offset(32 * 1024 + 1).is_err());
        assert!(c.decode_length(100, 0).is_err()); // literal symbol, not length
        assert!(c.decode_offset(1000, 0).is_err());
        // Excessive extra bits are rejected.
        let (sym, bits, _) = c.encode_length(100).unwrap();
        assert!(bits > 0);
        assert!(c.decode_length(sym, 1 << bits).is_err());
    }

    #[test]
    fn alphabets_are_compact() {
        let c = coder();
        // 256 literals + end marker + length codes; lengths 3..=258 span
        // values 0..=255 (8 bits) → at most 4 + 2*6 = 16 buckets.
        assert!(c.lit_len_alphabet() <= 257 + 16);
        assert!(c.lit_len_alphabet() > 257);
        // Offsets up to 32 K → values up to 15 bits → at most 4 + 2*13 = 30.
        assert!(c.offset_alphabet() <= 30);
        assert!(c.offset_alphabet() >= 20);
    }

    #[test]
    fn small_window_coder_works() {
        let c = TokenCoder::new(4, 16, 4096).unwrap();
        for len in 4u32..=16 {
            let (sym, _, extra) = c.encode_length(len).unwrap();
            assert_eq!(c.decode_length(sym, extra).unwrap(), len);
        }
        for offset in 1u32..=4096 {
            let (sym, _, extra) = c.encode_offset(offset).unwrap();
            assert_eq!(c.decode_offset(sym, extra).unwrap(), offset);
        }
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(TokenCoder::new(0, 10, 100).is_err());
        assert!(TokenCoder::new(4, 3, 100).is_err());
        assert!(TokenCoder::new(3, 10, 0).is_err());
        assert!(TokenCoder::new(3, 10, 1 << 31).is_err());
    }
}
