//! The host's one-pass bit-block decoder.
//!
//! The paper's decode table (Section III-B-1) has `2^CWL` entries and
//! resolves one symbol per lookup; it is sized for K40 shared memory, where
//! each of 32 lanes decodes its own sub-block. The host decodes one
//! sub-block after another and waits on every lookup, so for each block it
//! builds two more tables from the block's codes ([`HostTables`]):
//!
//! * a literal/length table indexed by the next [`LIT_LEN_BITS`] bits whose
//!   `u32` entry holds either up to three literals whose codewords together
//!   fit the window, or one end-of-sequences or length symbol with its
//!   length base and extra-bit count fused in (after zstd's double-symbol
//!   Huff0 tables and libdeflate's fused length entries);
//! * an offset table indexed by `min(CWL, 11)` bits whose entries fuse the
//!   offset base, extra-bit count and codeword length.
//!
//! A window these tables cannot resolve — an invalid prefix, a codeword
//! longer than the index, a base too wide for its field or a symbol outside
//! the coder's alphabet — holds a slow entry, which decodes one symbol
//! through the CWL-bit [`DecodeTable`] and [`TokenTables`]. So every CWL
//! from 1 to 24 decodes, and every error is the checked walk's.

use crate::bit_block::decode_sequences_checked;
use crate::token_code::{TokenCoder, TokenTables, END_OF_SEQUENCES};
use crate::Result;
use gompresso_bitstream::BitReader;
use gompresso_huffman::{CanonicalCode, DecodeTable, HuffmanError};
use gompresso_lz77::Sequence;

/// Index width of the literal/length table. Eleven bits hold three
/// literals of the 3–4-bit codewords common in text, and a CWL-10 code
/// (the default) never needs a slow entry. Against the one-symbol decoder,
/// literal pairs at 10, 11 and 12 bits measured 1.17×, 1.18–1.22× and
/// 1.21×, and triples at 11 bits 1.27–1.29× (DESIGN §2).
const LIT_LEN_BITS: u32 = 11;

const LIT_LEN_MASK: u64 = (1 << LIT_LEN_BITS) - 1;

/// Literal entries are those at or above this value: bits 30–31 hold the
/// literal count (1–3), bits 24–27 the bits their codewords take and bits
/// 0–23 the literals, first in the low byte.
const LITERAL: u32 = 1 << 30;

/// A window the host tables cannot resolve.
const SLOW: u32 = 0;

/// Token entries (end-of-sequences, length and offset symbols) hold the
/// codeword length in bits 0–3, the codeword plus extra bits in bits 4–9
/// and the base in bits 10–29, so bases from this value up take a slow
/// entry. End-of-sequences has base 0; every length base is at least
/// `min_match_len` and every offset base at least 1.
const BASE_LIMIT: u32 = 1 << 20;

/// Bytes past the literal room a literal entry's 4-byte store may write.
pub(crate) const RUN_SLACK: usize = 3;

/// The two host tables of one block and the coder and codes they were
/// built for.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostTables {
    lit_len: Vec<u32>,
    offset: Vec<u32>,
    offset_mask: u64,
    built_for: Option<(TokenCoder, CanonicalCode, CanonicalCode)>,
}

/// A token entry, or [`SLOW`] when the base does not fit its field.
fn token_entry(base: u32, extra_bits: u8, codeword_len: u32) -> u32 {
    if base >= BASE_LIMIT {
        return SLOW;
    }
    base << 10 | (codeword_len + u32::from(extra_bits)) << 4 | codeword_len
}

/// A token entry's `(base, codeword length, codeword plus extra bits)`.
#[inline(always)]
fn token_fields(e: u32) -> (u32, u32, u32) {
    (e >> 10, e & 0xF, (e >> 4) & 0x3F)
}

impl HostTables {
    /// Makes the tables those of `coder` and the two codes, whose CWL-bit
    /// tables are `lit_len_dec` and `offset_dec`, rebuilding them in place
    /// unless they already are.
    pub(crate) fn load(
        &mut self,
        coder: &TokenCoder,
        tables: &TokenTables,
        codes: (&CanonicalCode, &CanonicalCode),
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
    ) {
        if matches!(&self.built_for, Some((c, l, o)) if c == coder && l == codes.0 && o == codes.1) {
            return;
        }
        self.build(tables, lit_len_dec, offset_dec);
        self.built_for = Some((*coder, codes.0.clone(), codes.1.clone()));
    }

    /// Fills both tables from the CWL-bit tables of a block's codes, in
    /// place; they then belong to no known codes until [`Self::load`]
    /// records them.
    pub(crate) fn build(
        &mut self,
        tables: &TokenTables,
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
    ) {
        self.built_for = None;
        // The symbol whose codeword starts `window`, if it lies within the
        // window's low `valid` bits. A window narrower than the CWL-bit
        // index is zero-extended, so the codeword found is the right one
        // exactly when it fits the valid bits.
        let index_mask = lit_len_dec.len() as u32 - 1;
        let first = |window: u32, valid: u32| {
            let entry = lit_len_dec.lookup_packed(window & index_mask);
            let len = entry & 0xFF;
            (len != 0 && len <= valid).then_some(((entry >> 8) as u16, len))
        };
        self.lit_len.clear();
        self.lit_len.extend((0..1u32 << LIT_LEN_BITS).map(|window| {
            let Some((sym, len)) = first(window, LIT_LEN_BITS) else {
                return SLOW;
            };
            if sym == END_OF_SEQUENCES {
                return token_entry(0, 0, len);
            } else if sym > END_OF_SEQUENCES {
                return match tables.length_entry(sym) {
                    Ok((base, extra_bits)) => token_entry(base, extra_bits, len),
                    Err(_) => SLOW,
                };
            }
            let (mut literals, mut used, mut count) = (u32::from(sym), len, 1);
            while count < 3 {
                match first(window >> used, LIT_LEN_BITS - used) {
                    Some((sym, len)) if sym < END_OF_SEQUENCES => {
                        literals |= u32::from(sym) << (8 * count);
                        used += len;
                        count += 1;
                    }
                    _ => break,
                }
            }
            count << 30 | used << 24 | literals
        }));

        let index_bits = u32::from(offset_dec.index_bits()).min(LIT_LEN_BITS);
        self.offset.clear();
        self.offset.extend((0..1u32 << index_bits).map(|window| {
            let entry = offset_dec.lookup_packed(window);
            let len = entry & 0xFF;
            if len == 0 || len > index_bits {
                return SLOW;
            }
            match tables.offset_entry((entry >> 8) as u16) {
                Ok((base, extra_bits)) => token_entry(base, extra_bits, len),
                Err(_) => SLOW,
            }
        }));
        self.offset_mask = (1 << index_bits) - 1;
    }
}

/// Tops the accumulator up with one unaligned little-endian 8-byte load at
/// byte `pos`, or returns `false` when fewer than 8 bytes remain there.
///
/// Afterwards `nbits` is 56..=63 and `pos` is the first byte not yet
/// counted in it. The loaded bits above `nbits` are the true stream bits
/// that follow, so the next load ORs the same values over them.
#[inline(always)]
fn refill(data: &[u8], pos: &mut usize, acc: &mut u64, nbits: &mut u32) -> bool {
    let Some(word) = data.get(*pos..*pos + 8) else {
        return false;
    };
    *acc |= u64::from_le_bytes(word.try_into().expect("8-byte window")) << *nbits;
    *pos += ((63 - *nbits) >> 3) as usize;
    *nbits |= 56;
    true
}

/// Stores a literal entry's literals at `run[*count..]` with one 4-byte
/// write and consumes their bits, or returns `false` when the run buffer
/// has no room for the write.
#[inline(always)]
fn take_literals(e: u32, run: &mut [u8], count: &mut usize, acc: &mut u64, nbits: &mut u32) -> bool {
    let Some(dst) = run.get_mut(*count..*count + 4) else {
        return false;
    };
    dst.copy_from_slice(&e.to_le_bytes());
    *count += (e >> 30) as usize;
    let used = (e >> 24) & 0xF;
    *acc >>= used;
    *nbits -= used;
    true
}

/// What a block's sub-blocks decode with: the host tables, and for slow
/// entries and the checked tail the CWL-bit tables and the token tables.
pub(crate) struct HostDecoder<'a> {
    pub(crate) coder: &'a TokenCoder,
    pub(crate) tables: &'a TokenTables,
    pub(crate) host: &'a HostTables,
    pub(crate) lit_len_dec: &'a DecodeTable,
    pub(crate) offset_dec: &'a DecodeTable,
}

impl HostDecoder<'_> {
    /// Decodes consecutive sub-blocks of `data`, the first starting at bit
    /// `start_bit`, each given as `(bit size, sequence count)`, appending
    /// their sequences and literals to `sequences` and `literals`.
    ///
    /// Literals go into `run` first and are appended to `literals` before
    /// each checked tail and at the end. The checked walker finishes a
    /// sub-block from the first bit of the sequence the fast loop could not
    /// complete: fewer than 8 bytes were left, or `run` was full.
    pub(crate) fn decode(
        &self,
        data: &[u8],
        mut start_bit: u64,
        sub_blocks: impl Iterator<Item = (u32, u32)>,
        run: &mut [u8],
        sequences: &mut Vec<Sequence>,
        literals: &mut Vec<u8>,
    ) -> Result<()> {
        let mut count = 0;
        for (bits, n_seq) in sub_blocks {
            if let Some((resume_bit, left)) =
                self.decode_sub_block(data, start_bit, n_seq, sequences, run, &mut count)?
            {
                literals.extend_from_slice(&run[..count]);
                count = 0;
                let mut r = BitReader::at_bit_offset(data, resume_bit)?;
                decode_sequences_checked(
                    &mut r,
                    left,
                    self.coder,
                    self.lit_len_dec,
                    self.offset_dec,
                    sequences,
                    literals,
                )?;
            }
            start_bit += u64::from(bits);
        }
        literals.extend_from_slice(&run[..count]);
        Ok(())
    }

    /// One-pass decode of the `n_seq` sequences of the sub-block starting
    /// at bit `start_bit`, storing literals at `run[*count..]`.
    ///
    /// The accumulator, byte cursor and bit count stay in locals. One
    /// [`refill`] is followed by up to two literal/length lookups while
    /// they stay literal, and one precedes each offset. Returns the bit
    /// and number of sequences left for the checked walker, with `*count`
    /// back at the literals before that bit, when fewer than 8 bytes remain
    /// or `run` is full.
    fn decode_sub_block(
        &self,
        data: &[u8],
        start_bit: u64,
        n_seq: u32,
        sequences: &mut Vec<Sequence>,
        run: &mut [u8],
        count: &mut usize,
    ) -> Result<Option<(u64, u32)>> {
        let lit = &self.host.lit_len[..1 << LIT_LEN_BITS];
        let off = &self.host.offset[..];
        let off_mask = self.host.offset_mask;
        let (tables, lit_len_dec, offset_dec) = (self.tables, self.lit_len_dec, self.offset_dec);
        let lit_dec_mask = (1u64 << lit_len_dec.index_bits()) - 1;
        let off_dec_mask = (1u64 << offset_dec.index_bits()) - 1;
        let mut pos = (start_bit / 8) as usize;
        let (mut acc, mut nbits) = (0u64, 0u32);
        let mut n = *count;
        let mut decoded = 0u32;
        // Where the checked walker resumes: the current sequence's first
        // bit and the literal count before it.
        let mut resume = (start_bit, n);

        'fast: {
            if !refill(data, &mut pos, &mut acc, &mut nbits) {
                break 'fast;
            }
            let skip = (start_bit % 8) as u32;
            acc >>= skip;
            nbits -= skip;
            while decoded < n_seq {
                resume = (pos as u64 * 8 - u64::from(nbits), n);
                // The literal run, ended by a token: `(base, codeword bits
                // still in the accumulator, those plus the extra bits)`.
                // Bit budget: a refill leaves at least 56 bits and a
                // literal entry takes at most 11, so the token lookup
                // finds at least 45: enough for a fused entry (at most 11
                // + 30 bits) or a slow entry's codeword (at most 24).
                let (base, codeword_len, total) = loop {
                    if !refill(data, &mut pos, &mut acc, &mut nbits) {
                        break 'fast;
                    }
                    let mut e = lit[(acc & LIT_LEN_MASK) as usize];
                    if e >= LITERAL {
                        if !take_literals(e, run, &mut n, &mut acc, &mut nbits) {
                            break 'fast;
                        }
                        e = lit[(acc & LIT_LEN_MASK) as usize];
                        if e >= LITERAL {
                            if !take_literals(e, run, &mut n, &mut acc, &mut nbits) {
                                break 'fast;
                            }
                            continue;
                        }
                    }
                    if e != SLOW {
                        break token_fields(e);
                    }
                    let window = (acc & lit_dec_mask) as u32;
                    let entry = lit_len_dec.lookup_packed(window);
                    let len = entry & 0xFF;
                    if len == 0 {
                        return Err(HuffmanError::InvalidCodeword { bits: window }.into());
                    }
                    acc >>= len;
                    nbits -= len;
                    let sym = (entry >> 8) as u16;
                    if sym > END_OF_SEQUENCES {
                        let (base, extra_bits) = tables.length_entry(sym)?;
                        break (base, 0, u32::from(extra_bits));
                    } else if sym == END_OF_SEQUENCES {
                        break (0, 0, 0);
                    }
                    let Some(dst) = run.get_mut(n) else {
                        break 'fast;
                    };
                    *dst = sym as u8;
                    n += 1;
                };
                // Only a slow length symbol's extras (at most 30 bits) may
                // not be in the accumulator yet.
                if total > nbits && !refill(data, &mut pos, &mut acc, &mut nbits) {
                    break 'fast;
                }
                let value = u64::from(base) + ((acc & ((1u64 << total) - 1)) >> codeword_len);
                acc >>= total;
                nbits -= total;
                let literal_len = (n - resume.1) as u32;
                let (match_offset, match_len) = if base == 0 {
                    (0, 0)
                } else {
                    let match_len = tables.check_length(value)?;
                    // After the refill, a fused offset entry takes at most
                    // 11 + 28 bits, a slow one at most 24 + 28.
                    if !refill(data, &mut pos, &mut acc, &mut nbits) {
                        break 'fast;
                    }
                    let e = off[(acc & off_mask) as usize];
                    let (base, codeword_len, total) = if e != SLOW {
                        token_fields(e)
                    } else {
                        let window = (acc & off_dec_mask) as u32;
                        let entry = offset_dec.lookup_packed(window);
                        let len = entry & 0xFF;
                        if len == 0 {
                            return Err(HuffmanError::InvalidCodeword { bits: window }.into());
                        }
                        acc >>= len;
                        nbits -= len;
                        let (base, extra_bits) = tables.offset_entry((entry >> 8) as u16)?;
                        (base, 0, u32::from(extra_bits))
                    };
                    let value = base + ((acc & ((1u64 << total) - 1)) >> codeword_len) as u32;
                    acc >>= total;
                    nbits -= total;
                    (tables.check_offset(value)?, match_len)
                };
                sequences.push(Sequence { literal_len, match_offset, match_len });
                decoded += 1;
            }
            *count = n;
            return Ok(None);
        }

        *count = resume.1;
        Ok(Some((resume.0, n_seq - decoded)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_code::FIRST_LENGTH_SYMBOL;
    use gompresso_huffman::Histogram;
    use proptest::prelude::*;

    /// What successive CWL-bit lookups make of an 11-bit window: the
    /// literals before the first token or the first codeword that does not
    /// fit the window (at most three) and the bits they take, or the token
    /// if it comes first.
    fn reference(dec: &DecodeTable, window: u32) -> (Vec<u8>, u32, Option<(u16, u32)>) {
        let mask = dec.len() as u32 - 1;
        let (mut literals, mut used) = (Vec::new(), 0);
        while literals.len() < 3 {
            let (sym, len) = dec.lookup((window >> used) & mask);
            let len = u32::from(len);
            if len == 0 || used + len > LIT_LEN_BITS {
                break;
            } else if sym >= END_OF_SEQUENCES {
                let token = literals.is_empty().then_some((sym, len));
                return (literals, used, token);
            }
            literals.push(sym as u8);
            used += len;
        }
        (literals, used, None)
    }

    /// A canonical code with maximum length `cwl` over `alphabet` symbols,
    /// weighted by `picks` (symbol, log2 weight); symbols past the `2^cwl`
    /// a code of that length can hold stay uncoded.
    fn code_over(alphabet: usize, picks: &[(usize, u32)], cwl: u8) -> CanonicalCode {
        let mut hist = Histogram::new(alphabet);
        let mut distinct = 0;
        for &(sym, log_weight) in picks {
            let sym = (sym % alphabet) as u16;
            if hist.count(sym) == 0 {
                if distinct == 1usize << cwl {
                    continue;
                }
                distinct += 1;
            }
            hist.add_n(sym, 1 << log_weight);
        }
        CanonicalCode::from_histogram(&hist, cwl).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every window of both host tables equals successive
        /// `DecodeTable` lookups: the same literals and bits, or the same
        /// token with its base and extra bits, or a slow entry exactly
        /// where the window resolves nothing within the index or the base
        /// does not fit.
        #[test]
        fn host_tables_match_successive_lookups(
            cwl in 1u8..=16,
            offset_cwl in 1u8..=16,
            wide in any::<bool>(),
            picks in proptest::collection::vec((0usize..400, 0u32..24), 1..400),
            offset_picks in proptest::collection::vec((0usize..64, 0u32..24), 1..80),
        ) {
            // The wide coder has length and offset bases past the fused
            // entries' 20-bit field.
            let coder = if wide {
                TokenCoder::new(1, u32::MAX, 1 << 30).unwrap()
            } else {
                TokenCoder::new(3, 258, 32 * 1024).unwrap()
            };
            let lit_len_code = code_over(coder.lit_len_alphabet(), &picks, cwl);
            let offset_code = code_over(coder.offset_alphabet(), &offset_picks, offset_cwl);
            let lit_dec = DecodeTable::new(&lit_len_code).unwrap();
            let off_dec = DecodeTable::new(&offset_code).unwrap();
            let tables = TokenTables::new(&coder);
            let mut host = HostTables::default();
            host.load(&coder, &tables, (&lit_len_code, &offset_code), &lit_dec, &off_dec);

            prop_assert_eq!(host.lit_len.len(), 1 << LIT_LEN_BITS);
            for window in 0..1u32 << LIT_LEN_BITS {
                let e = host.lit_len[window as usize];
                let (literals, used, token) = reference(&lit_dec, window);
                if e >= LITERAL {
                    let count = (e >> 30) as usize;
                    prop_assert_eq!(&e.to_le_bytes()[..count], &literals[..], "window {:#x}", window);
                    prop_assert_eq!((e >> 24) & 0xF, used, "window {:#x}", window);
                    continue;
                }
                prop_assert!(literals.is_empty(), "window {:#x}", window);
                let expected = token.map(|(sym, len)| {
                    let (base, extra_bits) = if sym == END_OF_SEQUENCES {
                        (0, 0)
                    } else {
                        assert!(sym >= FIRST_LENGTH_SYMBOL);
                        tables.length_entry(sym).unwrap()
                    };
                    (base, len, len + u32::from(extra_bits))
                });
                match expected {
                    Some(fields) if fields.0 < BASE_LIMIT => prop_assert_eq!(token_fields(e), fields),
                    _ => prop_assert_eq!(e, SLOW, "window {:#x}", window),
                }
            }

            let index_bits = u32::from(off_dec.index_bits()).min(LIT_LEN_BITS);
            prop_assert_eq!(host.offset.len(), 1 << index_bits);
            for window in 0..1u32 << index_bits {
                let (sym, len) = off_dec.lookup(window);
                let len = u32::from(len);
                let e = host.offset[window as usize];
                let (base, extra_bits) = tables.offset_entry(sym).unwrap();
                if len == 0 || len > index_bits || base >= BASE_LIMIT {
                    prop_assert_eq!(e, SLOW, "window {:#x}", window);
                } else {
                    prop_assert_eq!(token_fields(e), (base, len, len + u32::from(extra_bits)));
                }
            }
        }
    }
}
