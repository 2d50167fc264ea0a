//! Table-driven (single-lookup) decoder.
//!
//! This is the decoder design the paper uses on the GPU: a flat table with
//! `2^CWL` entries indexed by the next `CWL` bits of the stream. One lookup
//! yields the symbol and the true code length to consume — no tree walk, no
//! data-dependent branching, which keeps the 32 lanes of a warp from
//! diverging while they decode different sub-blocks (Section III-B-1).

use crate::{CanonicalCode, HuffmanError, Result};
use gompresso_bitstream::{BitReader, StreamError};

/// A flat decode look-up table for one canonical code.
///
/// Entries are packed as `symbol << 8 | code_len` in a boxed `u32` slice, so
/// each LUT slot occupies exactly the 4 bytes the GPU occupancy model charges
/// for it ([`Self::simulated_shared_bytes`]) — half the cache footprint of
/// the former `(u16, u8)` tuple layout, which padded to 8 bytes per entry.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    /// `entries[bits]` = `symbol << 8 | len`; length 0 marks an invalid
    /// codeword prefix (possible when the code does not exhaust the Kraft
    /// budget).
    entries: Box<[u32]>,
    /// Index width in bits (the code's maximum codeword length).
    index_bits: u8,
}

impl DecodeTable {
    /// Builds the LUT for a canonical code.
    pub fn new(code: &CanonicalCode) -> Result<Self> {
        let index_bits = code.max_len();
        if index_bits == 0 || index_bits > 24 {
            return Err(HuffmanError::InvalidMaxLength(index_bits));
        }
        let size = 1usize << index_bits;
        let mut entries = vec![0u32; size].into_boxed_slice();
        for (sym, entry) in code.entries().iter().enumerate() {
            if entry.len == 0 {
                continue;
            }
            // The bitstream is LSB-first, so the decoder peeks `index_bits`
            // bits whose low `entry.len` bits are the reversed codeword; all
            // possible values of the remaining high bits map to this symbol.
            let rev = entry.reversed();
            let step = 1usize << entry.len;
            let packed = (sym as u32) << 8 | u32::from(entry.len);
            let mut idx = rev as usize;
            while idx < size {
                entries[idx] = packed;
                idx += step;
            }
        }
        Ok(Self { entries, index_bits })
    }

    /// Number of bits used to index the table (CWL).
    pub fn index_bits(&self) -> u8 {
        self.index_bits
    }

    /// Size of the table in entries (`2^CWL`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Shared-memory footprint of this table in bytes if it were resident on
    /// the GPU (4 bytes per entry — since the packed-`u32` layout, also the
    /// host table's actual footprint).
    pub fn simulated_shared_bytes(&self) -> u32 {
        (self.entries.len() * 4) as u32
    }

    /// Raw table lookup: `(symbol, code length)` for a `CWL`-bit window.
    ///
    /// Length 0 marks a window that is not a valid codeword prefix. Exposed
    /// so reference decoders (tests, microbenchmarks) can reproduce the
    /// unfused peek/lookup/consume sequence against the fused
    /// [`Self::decode`] path.
    ///
    /// # Panics
    ///
    /// Panics if `window >= 2^index_bits` — callers must mask their peek to
    /// [`Self::index_bits`] bits, as `BitReader::peek_bits` does.
    #[inline]
    pub fn lookup(&self, window: u32) -> (u16, u8) {
        let e = self.entries[window as usize];
        ((e >> 8) as u16, (e & 0xFF) as u8)
    }

    /// Raw table lookup in the packed representation: `symbol << 8 | len`.
    ///
    /// This is the hot-path form — one 4-byte load, no tuple re-packing; the
    /// microbenchmarks compare it against a tuple-layout table.
    ///
    /// # Panics
    ///
    /// Panics if `window >= 2^index_bits`, like [`Self::lookup`].
    #[inline]
    pub fn lookup_packed(&self, window: u32) -> u32 {
        self.entries[window as usize]
    }

    /// Decodes one symbol from the bitstream.
    ///
    /// Fused hot path: one accumulator refill, one table lookup, one
    /// unchecked consume — instead of the peek/consume pair with its two
    /// width validations. An exhausted stream reports
    /// [`StreamError::UnexpectedEof`] directly (also when the zero-filled
    /// window happens to hit an unassigned table slot), and a stream that
    /// ends in the middle of a codeword reports the precise shortfall.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        Ok(self.decode_with_len(r)?.0)
    }

    /// Decodes one symbol and reports the number of bits consumed.
    #[inline]
    pub fn decode_with_len(&self, r: &mut BitReader<'_>) -> Result<(u16, u8)> {
        let (window, available) = r.peek_window(u32::from(self.index_bits));
        let entry = self.entries[window as usize];
        let (symbol, len) = ((entry >> 8) as u16, (entry & 0xFF) as u8);
        if len == 0 {
            // Canonical codes always assign the all-zeros codeword to their
            // first symbol, so the zero-filled window of an exhausted stream
            // hits an assigned slot and EOF surfaces through the width check
            // below; this arm is defense in depth for tables whose zero slot
            // could ever be unassigned.
            return Err(if available == 0 {
                StreamError::UnexpectedEof { needed: 1, remaining: 0 }.into()
            } else {
                HuffmanError::InvalidCodeword { bits: window }
            });
        }
        let width = u32::from(len);
        if width > available {
            // Truncated mid-codeword: `peek_window` already refilled, so a
            // shortfall means the stream is exhausted. Report the byte
            // shortfall like the checked consume would.
            return Err(StreamError::UnexpectedEof {
                needed: ((width - available) as usize).div_ceil(8),
                remaining: (r.remaining_bits() / 8) as usize,
            }
            .into());
        }
        r.consume_peeked(width);
        Ok((symbol, len))
    }

    /// Decodes a run of symbols below `boundary`, appending each (as a byte)
    /// to `sink`, and returns the first symbol `>= boundary` together with
    /// the number of bytes appended.
    ///
    /// This is [`Self::decode`] in a loop, for byte-valued runs (literal
    /// strings in the token grammar, where `boundary` is the
    /// end-of-sequences symbol); errors are [`Self::decode`]'s own.
    #[inline]
    pub fn decode_run(&self, r: &mut BitReader<'_>, boundary: u16, sink: &mut Vec<u8>) -> Result<(u16, u32)> {
        let mut count = 0u32;
        loop {
            let (symbol, _) = self.decode_with_len(r)?;
            if symbol >= boundary {
                return Ok((symbol, count));
            }
            sink.push(symbol as u8);
            count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodeTable, Histogram};
    use gompresso_bitstream::BitWriter;

    fn code_for(counts: &[u64], max_len: u8) -> CanonicalCode {
        let mut h = Histogram::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            h.add_n(i as u16, c);
        }
        CanonicalCode::from_histogram(&h, max_len).unwrap()
    }

    #[test]
    fn lut_size_matches_cwl() {
        let code = code_for(&[3, 3, 2, 1], 10);
        let dec = DecodeTable::new(&code).unwrap();
        assert_eq!(dec.len(), 1024);
        assert_eq!(dec.index_bits(), 10);
        assert_eq!(dec.simulated_shared_bytes(), 4096);
        assert!(!dec.is_empty());
    }

    #[test]
    fn decode_handles_final_short_codeword() {
        // A stream whose last codeword does not fill the peek window: the
        // reader zero-fills, and the LUT must still resolve it.
        let code = code_for(&[10, 1], 10);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let mut w = BitWriter::new();
        enc.encode(&mut w, 1).unwrap();
        enc.encode(&mut w, 0).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 1);
        assert_eq!(dec.decode(&mut r).unwrap(), 0);
    }

    #[test]
    fn decode_with_len_reports_consumed_bits() {
        let code = code_for(&[100, 10, 5, 1], 10);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let mut w = BitWriter::new();
        enc.encode(&mut w, 3).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (sym, len) = dec.decode_with_len(&mut r).unwrap();
        assert_eq!(sym, 3);
        assert_eq!(len, enc.code_len(3).unwrap());
    }

    #[test]
    fn invalid_prefix_is_detected_when_code_is_incomplete() {
        // Single-symbol code: only codeword "0"; a stream starting with "1"
        // hits an unassigned LUT slot.
        let code = code_for(&[5], 4);
        let dec = DecodeTable::new(&code).unwrap();
        let bytes = [0b0000_0001u8];
        let mut r = BitReader::new(&bytes);
        assert!(matches!(dec.decode(&mut r), Err(HuffmanError::InvalidCodeword { .. })));
    }

    #[test]
    fn empty_stream_yields_unexpected_eof_directly() {
        let code = code_for(&[5, 5], 10);
        let dec = DecodeTable::new(&code).unwrap();
        let mut r = BitReader::new(&[]);
        assert!(matches!(dec.decode(&mut r), Err(HuffmanError::Decode(StreamError::UnexpectedEof { .. }))));
    }

    #[test]
    fn zero_window_is_always_assigned_so_eof_takes_the_width_path() {
        // Canonical construction gives the first symbol the all-zeros
        // codeword, so LUT slot 0 is assigned for every buildable table and
        // an exhausted stream reports EOF via the width-vs-available check
        // (not the unassigned-slot defense branch). Pin both facts.
        for lengths in [&[2u8, 2, 2][..], &[1, 7, 7, 6, 5, 4, 3][..], &[4, 4, 4][..]] {
            let code = CanonicalCode::from_lengths(lengths, 10).unwrap();
            let dec = DecodeTable::new(&code).unwrap();
            let (zero_sym, zero_len) = dec.lookup(0);
            assert_eq!(zero_sym, 0, "first symbol owns the zero codeword");
            assert!(zero_len > 0, "slot 0 must be assigned");
            let mut r = BitReader::new(&[]);
            assert!(matches!(
                dec.decode(&mut r),
                Err(HuffmanError::Decode(StreamError::UnexpectedEof { .. }))
            ));
        }
    }

    #[test]
    fn truncated_mid_codeword_is_unexpected_eof() {
        // Symbol 1 has an explicit 7-bit codeword. Write it twice (14 bits)
        // and keep only the first byte: the second codeword is cut after one
        // bit, and the decoder must report EOF (with the byte shortfall),
        // not InvalidCodeword.
        let code = CanonicalCode::from_lengths(&[1u8, 7, 7, 6, 5, 4, 3], 10).unwrap();
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        assert_eq!(enc.code_len(1).unwrap(), 7);
        let mut w = BitWriter::new();
        enc.encode(&mut w, 1).unwrap();
        enc.encode(&mut w, 1).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let truncated = &bytes[..1];
        let mut r = BitReader::new(truncated);
        assert_eq!(dec.decode(&mut r).unwrap(), 1);
        match dec.decode(&mut r) {
            Err(HuffmanError::Decode(StreamError::UnexpectedEof { needed, .. })) => {
                assert!(needed >= 1);
            }
            other => panic!("expected UnexpectedEof on truncated codeword, got {other:?}"),
        }
    }

    #[test]
    fn fused_decode_matches_unfused_lookup_walk() {
        // The fused decode must consume exactly the same bits as a manual
        // peek/lookup/consume walk over the same stream.
        let mut counts = vec![0u64; 64];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = (i as u64 % 11) + 1;
        }
        let code = code_for(&counts, 11);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let symbols: Vec<u16> = (0..2000u32).map(|i| ((i * 131) % 64) as u16).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut fused = BitReader::new(&bytes);
        let mut manual = BitReader::new(&bytes);
        for &expected in &symbols {
            let got = dec.decode(&mut fused).unwrap();
            let window = manual.peek_bits(u32::from(dec.index_bits())).unwrap();
            let (sym, len) = dec.lookup(window);
            manual.consume_bits(u32::from(len)).unwrap();
            assert_eq!(got, expected);
            assert_eq!(sym, expected);
            assert_eq!(fused.bit_position(), manual.bit_position());
        }
    }

    #[test]
    fn long_stream_roundtrip_with_many_symbols() {
        let mut counts = vec![0u64; 300];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = (i as u64 % 17) + 1;
        }
        let code = code_for(&counts, 12);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let symbols: Vec<u16> = (0..5000u32).map(|i| ((i * 7919) % 300) as u16).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn packed_lookup_agrees_with_tuple_lookup() {
        let code = code_for(&[40, 20, 10, 5, 2, 1], 11);
        let dec = DecodeTable::new(&code).unwrap();
        for window in 0..dec.len() as u32 {
            let (sym, len) = dec.lookup(window);
            let packed = dec.lookup_packed(window);
            assert_eq!(packed, u32::from(sym) << 8 | u32::from(len));
        }
    }

    #[test]
    fn decode_run_matches_per_symbol_decode() {
        // Byte-valued symbols 0..200 with a couple of "boundary" symbols
        // above, mimicking the literal/EOS split of the token grammar.
        let mut counts = vec![0u64; 204];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = (i as u64 % 13) + 1;
        }
        let code = code_for(&counts, 12);
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let boundary = 200u16;
        // Interleave literal runs of varying lengths with boundary symbols,
        // including empty runs (two boundary symbols back to back).
        let mut symbols: Vec<u16> = Vec::new();
        for i in 0..600u32 {
            for j in 0..(i % 7) {
                symbols.push(((i * 31 + j * 7) % 200) as u16);
            }
            symbols.push(boundary + (i % 4) as u16);
        }
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();

        let mut batched = BitReader::new(&bytes);
        let mut serial = BitReader::new(&bytes);
        let mut run = Vec::new();
        let mut expect = Vec::new();
        loop {
            run.clear();
            expect.clear();
            let batch = dec.decode_run(&mut batched, boundary, &mut run);
            let serial_stop = loop {
                match dec.decode(&mut serial) {
                    Ok(sym) if sym < boundary => expect.push(sym as u8),
                    other => break other,
                }
            };
            match (batch, serial_stop) {
                (Ok((sym, count)), Ok(stop)) => {
                    assert_eq!(sym, stop);
                    assert_eq!(count as usize, run.len());
                    assert_eq!(run, expect);
                    assert_eq!(batched.bit_position(), serial.bit_position());
                }
                (Err(_), Err(_)) => break,
                (b, s) => panic!("batched {b:?} disagrees with serial {s:?}"),
            }
        }
    }

    #[test]
    fn decode_run_reports_tail_truncation_like_decode() {
        // Cut the stream mid-codeword: the batched path must surface the
        // same UnexpectedEof the per-symbol path reports.
        let code = CanonicalCode::from_lengths(&[1u8, 7, 7, 6, 5, 4, 3], 10).unwrap();
        let enc = EncodeTable::new(&code);
        let dec = DecodeTable::new(&code).unwrap();
        let mut w = BitWriter::new();
        for _ in 0..40 {
            enc.encode(&mut w, 1).unwrap();
        }
        let bytes = w.finish();
        let truncated = &bytes[..bytes.len() - 1];
        let mut r = BitReader::new(truncated);
        let mut sink = Vec::new();
        // Boundary above every symbol: the run can only end in an error.
        let err = dec.decode_run(&mut r, 100, &mut sink).unwrap_err();
        assert!(matches!(err, HuffmanError::Decode(StreamError::UnexpectedEof { .. })), "got {err:?}");
        // Whatever prefix decoded cleanly must match the serial walk.
        let mut serial = BitReader::new(truncated);
        let mut expect = Vec::new();
        while let Ok(sym) = dec.decode(&mut serial) {
            expect.push(sym as u8);
        }
        assert_eq!(sink, expect);
    }

    #[test]
    fn oversized_index_is_rejected() {
        // max_len of 25 would require a 32M-entry LUT; the constructor
        // refuses, mirroring the shared-memory constraint on the GPU.
        let lengths = vec![1u8, 1];
        let code = CanonicalCode::from_lengths(&lengths, 25).unwrap();
        assert!(matches!(DecodeTable::new(&code), Err(HuffmanError::InvalidMaxLength(25))));
    }
}
