//! Bit-level block payload (Gompresso/Bit).
//!
//! Each data block is entropy-coded with two canonical, length-limited
//! Huffman trees (literal/length and offset) and the resulting bitstream is
//! partitioned into *sub-blocks* of a fixed number of sequences. The bit
//! size of every sub-block is recorded so that, at decompression time, each
//! GPU thread can compute its sub-block's absolute bit offset with a prefix
//! sum and start decoding immediately — the single-pass parallel Huffman
//! decoding scheme of Section III-B-1.

use crate::token_code::{TokenCoder, TokenEncodeTables, TokenTables, END_OF_SEQUENCES, FIRST_LENGTH_SYMBOL};
use crate::{FormatError, Result};
use gompresso_bitstream::{read_varint, write_varint, BitReader, BitWriter, ByteReader, ByteWriter};
use gompresso_huffman::{CanonicalCode, DecodeTable, EncodeTable, Histogram, HuffmanError, StripeCounters};
use gompresso_lz77::{Sequence, SequenceBlock};
use std::ops::Range;

/// A Huffman-coded data block with sub-block index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBlock {
    /// Canonical code for literals, the end-of-sequences marker and match
    /// lengths.
    pub lit_len_code: CanonicalCode,
    /// Canonical code for match offsets.
    pub offset_code: CanonicalCode,
    /// Number of sequences in the block.
    pub n_sequences: u32,
    /// Uncompressed size of the block in bytes.
    pub uncompressed_len: u32,
    /// Number of sequences per sub-block.
    pub sequences_per_sub_block: u32,
    /// Size in bits of each encoded sub-block, in order.
    pub sub_block_bits: Vec<u32>,
    /// The concatenated Huffman bitstream of all sub-blocks.
    pub bitstream: Vec<u8>,
}

/// Reusable per-worker state for [`BitBlock::encode_with_scratch`]: the two
/// pass-1 histograms (with their striped lane counters), the flat
/// encode-side token tables (cached per coder) and the per-block fused
/// match-field tables.
///
/// One scratch per worker lets every block of a file reuse the same
/// allocations; [`BitBlock::encode`] creates a throwaway one.
#[derive(Debug, Clone)]
pub struct EncodeScratch {
    lit_len_hist: Histogram,
    offset_hist: Histogram,
    /// Striped `u16` lane counters for the two-level literal histogram.
    stripes: StripeCounters,
    /// Flat encode-side token tables, rebuilt only when the file's coding
    /// parameters change.
    tokens: Option<(TokenCoder, TokenEncodeTables)>,
    /// Per-block fused length entries, indexed by `len - min_match_len`:
    /// the Huffman code word with the extra bits pre-shifted behind it,
    /// plus the combined width (0 = uncoded in this block / not tabulated).
    len_fused: Vec<(u64, u32)>,
    /// Per-block fused offset entries, indexed by `offset - 1`.
    off_fused: Vec<(u64, u32)>,
}

impl EncodeScratch {
    /// Creates an empty scratch; everything is sized on first use.
    pub fn new() -> Self {
        Self {
            lit_len_hist: Histogram::new(0),
            offset_hist: Histogram::new(0),
            stripes: StripeCounters::new(),
            tokens: None,
            len_fused: Vec::new(),
            off_fused: Vec::new(),
        }
    }

    /// Clears the histograms, reallocating only if the coder's alphabets
    /// changed since the previous block.
    fn prepare(&mut self, lit_len_alphabet: usize, offset_alphabet: usize) {
        if self.lit_len_hist.alphabet_size() == lit_len_alphabet {
            self.lit_len_hist.clear();
        } else {
            self.lit_len_hist = Histogram::new(lit_len_alphabet);
        }
        if self.offset_hist.alphabet_size() == offset_alphabet {
            self.offset_hist.clear();
        } else {
            self.offset_hist = Histogram::new(offset_alphabet);
        }
    }

    /// Rebuilds the cached encode-side token tables if `coder` differs from
    /// the cached parameters (or nothing is cached yet).
    fn ensure_tokens(&mut self, coder: &TokenCoder) {
        if self.tokens.as_ref().is_none_or(|(cached, _)| cached != coder) {
            self.tokens = Some((*coder, TokenEncodeTables::new(coder)));
        }
    }
}

impl Default for EncodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything pass 1 decides: the block's two canonical codes, their encode
/// tables and the exact output bit count.
struct EntropyPlan {
    lit_len_code: CanonicalCode,
    offset_code: CanonicalCode,
    lit_len_enc: EncodeTable,
    offset_enc: EncodeTable,
    total_bits: u64,
}

/// Pass 1: histograms over both alphabets (striped two-level build for the
/// literal bulk, flat token tables for the match symbols), code
/// construction, and the exact size hint for the emit pass. Also rebuilds
/// the per-block fused token tables.
fn plan_entropy(
    block: &SequenceBlock,
    coder: &TokenCoder,
    max_codeword_len: u8,
    scratch: &mut EncodeScratch,
) -> Result<EntropyPlan> {
    scratch.prepare(coder.lit_len_alphabet(), coder.offset_alphabet());
    scratch.ensure_tokens(coder);
    let EncodeScratch { lit_len_hist, offset_hist, stripes, tokens, len_fused, off_fused } = scratch;
    let tables = &tokens.as_ref().expect("ensure_tokens populated the cache").1;

    // Guarantee both alphabets are non-empty so code construction cannot
    // fail on blocks without matches (or without literals).
    lit_len_hist.add(END_OF_SEQUENCES);
    offset_hist.add(0);
    let mut extra_bits = 0u64;

    // Literal frequencies do not depend on how literals interleave with
    // matches, so the whole literal buffer is counted with one bulk striped
    // sweep; the per-sequence loop then only handles match symbols.
    lit_len_hist.add_bytes_striped(&block.literals, stripes);
    for seq in &block.sequences {
        if seq.has_match() {
            let (len_sym, len_bits, _) = tables.length_token(seq.match_len)?;
            let (off_sym, off_bits, _) = tables.offset_token(seq.match_offset)?;
            lit_len_hist.add(len_sym);
            offset_hist.add(off_sym);
            extra_bits += u64::from(len_bits) + u64::from(off_bits);
        } else {
            lit_len_hist.add(END_OF_SEQUENCES);
        }
    }

    let lit_len_code = CanonicalCode::from_histogram(lit_len_hist, max_codeword_len)?;
    let offset_code = CanonicalCode::from_histogram(offset_hist, max_codeword_len)?;
    let lit_len_enc = EncodeTable::new(&lit_len_code);
    let offset_enc = EncodeTable::new(&offset_code);

    // The histograms seeded one EOS and one offset-0 occurrence that the
    // stream will not contain; subtracting their code lengths makes the
    // size hint exact.
    let seeded_bits = u64::from(lit_len_enc.code_len(END_OF_SEQUENCES).unwrap_or(0))
        + u64::from(offset_enc.code_len(0).unwrap_or(0));
    let total_bits = lit_len_enc.encoded_bits_for_histogram(lit_len_hist)?
        + offset_enc.encoded_bits_for_histogram(offset_hist)?
        + extra_bits
        - seeded_bits;

    // Fuse this block's Huffman code words with the verbatim extra bits
    // into per-value tables: the emit pass then loads one `(bits, width)`
    // entry per match field instead of a token lookup, a code lookup and
    // two shifts. Values whose symbol got no code this block keep the
    // width-0 sentinel — unreachable for well-formed streams (pass 1
    // counted every present value) but kept as an error path. Tabulated
    // widths are bounded well under the 62-bit packer cap: code words are
    // at most 32 bits and tabulated extras at most 16 (lengths) / 13
    // (offsets).
    len_fused.clear();
    len_fused.extend(tables.length_entries().iter().map(|&(sym, bits, extra)| match lit_len_enc.code(sym) {
        Ok((code, code_bits)) => {
            (u64::from(code) | u64::from(extra) << code_bits, u32::from(code_bits) + u32::from(bits))
        }
        Err(_) => (0, 0),
    }));
    off_fused.clear();
    off_fused.extend(tables.offset_entries().iter().map(|&(sym, bits, extra)| match offset_enc.code(sym) {
        Ok((code, code_bits)) => {
            (u64::from(code) | u64::from(extra) << code_bits, u32::from(code_bits) + u32::from(bits))
        }
        Err(_) => (0, 0),
    }));

    Ok(EntropyPlan { lit_len_code, offset_code, lit_len_enc, offset_enc, total_bits })
}

/// Shared read-only state of the emit pass: the block's code tables in the
/// forms the hot loop wants (raw byte codes, fused match tokens), plus the
/// fallbacks for values outside the tabulated ranges.
struct Emitter<'a> {
    plan: &'a EntropyPlan,
    /// `(code, len)` per literal byte, straight out of the encode table.
    lit_codes: &'a [(u32, u8)],
    len_fused: &'a [(u64, u32)],
    off_fused: &'a [(u64, u32)],
    tables: &'a TokenEncodeTables,
    min_match_len: u32,
}

/// Appends `width` bits to a local 64-bit group, flushing the group to `w`
/// first when the bits would not fit its 62-bit budget.
#[inline(always)]
fn pack(w: &mut BitWriter, group: &mut u64, group_bits: &mut u32, bits: u64, width: u32) {
    if *group_bits + width > 62 {
        w.write_bits_u64(*group, *group_bits);
        *group = 0;
        *group_bits = 0;
    }
    *group |= bits << *group_bits;
    *group_bits += width;
}

impl Emitter<'_> {
    fn new<'a>(
        plan: &'a EntropyPlan,
        len_fused: &'a [(u64, u32)],
        off_fused: &'a [(u64, u32)],
        tables: &'a TokenEncodeTables,
    ) -> Result<Emitter<'a>> {
        let lit_codes = plan
            .lit_len_enc
            .literal_codes()
            .ok_or(FormatError::InvalidToken { reason: "literal/length alphabet below 256 symbols" })?;
        Ok(Emitter { plan, lit_codes, len_fused, off_fused, tables, min_match_len: tables.min_match_len() })
    }

    /// Emits one sequence — its literal run, then a match token or the
    /// end-of-sequences marker — into `w`, advancing `lit_cursor`.
    ///
    /// The whole sequence is packed through one local group accumulator,
    /// so the writer's accumulator chain is touched once per sequence in
    /// the common case (a typical sequence is a handful of literal codes
    /// plus two fused match fields, well under the 62-bit group budget per
    /// visit).
    #[inline]
    fn emit(&self, w: &mut BitWriter, seq: &Sequence, literals: &[u8], lit_cursor: &mut usize) -> Result<()> {
        let mut group = 0u64;
        let mut group_bits = 0u32;
        let lit_end = *lit_cursor + seq.literal_len as usize;
        let run = &literals[*lit_cursor..lit_end];
        *lit_cursor = lit_end;

        for &b in run {
            self.pack_literal(w, &mut group, &mut group_bits, b)?;
        }

        if seq.has_match() {
            let len_idx = seq.match_len.wrapping_sub(self.min_match_len) as usize;
            match self.len_fused.get(len_idx) {
                Some(&(bits, width)) if width > 0 => pack(w, &mut group, &mut group_bits, bits, width),
                _ => {
                    // Outside the tabulated span (or an uncoded symbol,
                    // which a well-formed stream cannot produce): flush the
                    // group to keep bit order, then fall back to the
                    // arithmetic token path.
                    w.write_bits_u64(group, group_bits);
                    group = 0;
                    group_bits = 0;
                    let (sym, bits, extra) = self.tables.length_token(seq.match_len)?;
                    let (code, code_bits) = self.plan.lit_len_enc.code(sym)?;
                    w.write_bits_u64(
                        u64::from(code) | u64::from(extra) << code_bits,
                        u32::from(code_bits) + u32::from(bits),
                    );
                }
            }
            let off_idx = seq.match_offset.wrapping_sub(1) as usize;
            match self.off_fused.get(off_idx) {
                Some(&(bits, width)) if width > 0 => pack(w, &mut group, &mut group_bits, bits, width),
                _ => {
                    w.write_bits_u64(group, group_bits);
                    group = 0;
                    group_bits = 0;
                    let (sym, bits, extra) = self.tables.offset_token(seq.match_offset)?;
                    let (code, code_bits) = self.plan.offset_enc.code(sym)?;
                    w.write_bits_u64(
                        u64::from(code) | u64::from(extra) << code_bits,
                        u32::from(code_bits) + u32::from(bits),
                    );
                }
            }
        } else {
            let (code, code_bits) = self.plan.lit_len_enc.code(END_OF_SEQUENCES)?;
            pack(w, &mut group, &mut group_bits, u64::from(code), u32::from(code_bits));
        }

        w.write_bits_u64(group, group_bits);
        Ok(())
    }

    #[inline(always)]
    fn pack_literal(&self, w: &mut BitWriter, group: &mut u64, group_bits: &mut u32, b: u8) -> Result<()> {
        let (code, len) = self.lit_codes[usize::from(b)];
        if len == 0 {
            return Err(gompresso_huffman::HuffmanError::UnknownSymbol(u16::from(b)).into());
        }
        pack(w, group, group_bits, u64::from(code), u32::from(len));
        Ok(())
    }
}

impl BitBlock {
    /// Entropy-codes an LZ77 sequence block.
    pub fn encode(
        block: &SequenceBlock,
        coder: &TokenCoder,
        sequences_per_sub_block: u32,
        max_codeword_len: u8,
    ) -> Result<Self> {
        Self::encode_with_scratch(
            block,
            coder,
            sequences_per_sub_block,
            max_codeword_len,
            &mut EncodeScratch::new(),
        )
    }

    /// Entropy-codes an LZ77 sequence block, reusing caller-provided
    /// scratch.
    ///
    /// Pass 1 (`plan_entropy`) builds the codes and the exact output size;
    /// pass 2 walks the sub-blocks in order with a single writer and records
    /// each one's bit size. The parallelism of the format lives on the
    /// decode side: a sub-block's bits are just its sequences' code words
    /// in order, so the recorded sizes are all a decoder needs to seek to
    /// any sub-block.
    pub fn encode_with_scratch(
        block: &SequenceBlock,
        coder: &TokenCoder,
        sequences_per_sub_block: u32,
        max_codeword_len: u8,
        scratch: &mut EncodeScratch,
    ) -> Result<Self> {
        assert!(sequences_per_sub_block >= 1, "sub-blocks must hold at least one sequence");
        let plan = plan_entropy(block, coder, max_codeword_len, scratch)?;
        let EncodeScratch { tokens, len_fused, off_fused, .. } = scratch;
        let tables = &tokens.as_ref().expect("ensure_tokens populated the cache").1;
        let emitter = Emitter::new(&plan, len_fused, off_fused, tables)?;

        let mut w = BitWriter::with_capacity((plan.total_bits as usize).div_ceil(8));
        let sub_blocks = block.sequences.chunks(sequences_per_sub_block as usize);
        let mut sub_block_bits = Vec::with_capacity(sub_blocks.len());
        let mut lit_cursor = 0usize;
        for sub_block in sub_blocks {
            let start_bit = w.bit_len();
            for seq in sub_block {
                emitter.emit(&mut w, seq, &block.literals, &mut lit_cursor)?;
            }
            sub_block_bits.push(
                u32::try_from(w.bit_len() - start_bit)
                    .map_err(|_| FormatError::InvalidToken { reason: "sub-block exceeds 2^32 bits" })?,
            );
        }

        debug_assert_eq!(w.bit_len(), plan.total_bits, "size hint must predict the bitstream exactly");
        Ok(BitBlock {
            lit_len_code: plan.lit_len_code,
            offset_code: plan.offset_code,
            n_sequences: block.sequences.len() as u32,
            uncompressed_len: block.uncompressed_len as u32,
            sequences_per_sub_block,
            sub_block_bits,
            bitstream: w.finish(),
        })
    }

    /// Number of sub-blocks in the block.
    pub fn sub_block_count(&self) -> usize {
        self.sub_block_bits.len()
    }

    /// Absolute starting bit offset of sub-block `index`.
    pub fn sub_block_bit_offset(&self, index: usize) -> Result<u64> {
        if index >= self.sub_block_bits.len() {
            return Err(FormatError::SubBlockOutOfRange { index, available: self.sub_block_bits.len() });
        }
        Ok(self.sub_block_bits[..index].iter().map(|&b| u64::from(b)).sum())
    }

    /// Number of sequences stored in sub-block `index` (the final sub-block
    /// may be short).
    pub fn sub_block_sequences(&self, index: usize) -> Result<u32> {
        if index >= self.sub_block_bits.len() {
            return Err(FormatError::SubBlockOutOfRange { index, available: self.sub_block_bits.len() });
        }
        // Saturating: a corrupt block can declare fewer sequences than its
        // sub-block table implies, and that must surface as an empty
        // sub-block (then a decode error), not an arithmetic panic.
        let full = u64::from(self.sequences_per_sub_block);
        let start = index as u64 * full;
        Ok(u64::from(self.n_sequences).saturating_sub(start).min(full) as u32)
    }

    /// Decodes one sub-block, *appending* its sequences and literal bytes to
    /// caller-provided buffers.
    ///
    /// This is the checked reference walk: every symbol goes through the
    /// bounds-checked [`BitReader`], and the sub-block is located by a
    /// prefix sum over the sizes before it. [`Self::decode_sub_blocks`]
    /// returns exactly what this walk returns, sub-block by sub-block,
    /// errors included.
    pub fn decode_sub_block_into(
        &self,
        index: usize,
        coder: &TokenCoder,
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
        sequences: &mut Vec<Sequence>,
        literals: &mut Vec<u8>,
    ) -> Result<()> {
        let start_bit = self.sub_block_bit_offset(index)?;
        let n_seq = self.sub_block_sequences(index)?;
        let mut r = BitReader::at_bit_offset(&self.bitstream, start_bit)?;
        // Every sequence is at least one coded symbol (≥ 1 bit), so the
        // bitstream length caps how much a corrupt count can reserve.
        sequences.reserve((n_seq as usize).min(self.bitstream.len().saturating_mul(8)));
        decode_sequences_checked(&mut r, n_seq, coder, lit_len_dec, offset_dec, sequences, literals)
    }

    /// Decodes the sub-blocks in `sub_blocks` in one pass, appending their
    /// sequences and literal bytes to the caller's buffers in sub-block
    /// order.
    ///
    /// Every sub-block owns an independent bitstream, which on the GPU one
    /// thread decodes (paper, Section III-B-1); the host walks them one
    /// after another and finds each after the first by adding the previous
    /// one's recorded size to its start. The result equals
    /// [`Self::decode_sub_block_into`] called on each sub-block in turn,
    /// errors included.
    #[allow(clippy::too_many_arguments)] // decode tables, token-table cache and two output sinks
    pub fn decode_sub_blocks(
        &self,
        sub_blocks: Range<usize>,
        coder: &TokenCoder,
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
        scratch: &mut InterleaveScratch,
        sequences: &mut Vec<Sequence>,
        literals: &mut Vec<u8>,
    ) -> Result<()> {
        let available = self.sub_block_bits.len();
        if sub_blocks.is_empty() {
            return Ok(());
        } else if sub_blocks.end > available {
            return Err(FormatError::SubBlockOutOfRange { index: sub_blocks.end - 1, available });
        }
        let tables = scratch.tokens(coder);
        let mut start_bit = self.sub_block_bit_offset(sub_blocks.start)?;
        for sub in sub_blocks {
            let n_seq = self.sub_block_sequences(sub)?;
            decode_sub_block(
                &self.bitstream,
                start_bit,
                n_seq,
                coder,
                tables,
                lit_len_dec,
                offset_dec,
                sequences,
                literals,
            )?;
            start_bit += u64::from(self.sub_block_bits[sub]);
        }
        Ok(())
    }

    /// Forwards to [`Self::decode_sub_blocks`]; `S`, `_first_bit_offset`
    /// and `_stats` are ignored. Kept only because the benchmark's stage
    /// replay calls it by this name; it goes when the replay gives way to
    /// the stage ledger (ROADMAP item 1).
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn decode_sub_blocks_interleaved<const S: usize>(
        &self,
        first: usize,
        count: usize,
        _first_bit_offset: u64,
        coder: &TokenCoder,
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
        scratch: &mut InterleaveScratch,
        sequences: &mut Vec<Sequence>,
        literals: &mut Vec<u8>,
        _stats: &mut Vec<SubBlockStats>,
    ) -> Result<()> {
        self.decode_sub_blocks(
            first..first + count,
            coder,
            lit_len_dec,
            offset_dec,
            scratch,
            sequences,
            literals,
        )
    }

    /// Decodes the whole block back into an LZ77 sequence block
    /// (sequentially; the parallel path lives in `gompresso-core`).
    pub fn decode_all(&self, coder: &TokenCoder) -> Result<SequenceBlock> {
        let lit_len_dec = DecodeTable::new(&self.lit_len_code)?;
        let offset_dec = DecodeTable::new(&self.offset_code)?;
        let cap_bits = self.bitstream.len().saturating_mul(8);
        let mut sequences = Vec::with_capacity((self.n_sequences as usize).min(cap_bits));
        let mut literals = Vec::with_capacity((self.uncompressed_len as usize).min(cap_bits));
        self.decode_sub_blocks(
            0..self.sub_block_count(),
            coder,
            &lit_len_dec,
            &offset_dec,
            &mut InterleaveScratch::default(),
            &mut sequences,
            &mut literals,
        )?;
        Ok(SequenceBlock { sequences, literals, uncompressed_len: self.uncompressed_len as usize })
    }

    /// Reads the block's declared uncompressed size from a serialized
    /// payload without building codes or copying the bitstream.
    ///
    /// The decompressor validates every block's declared size against the
    /// file header *before* allocating the file-sized output buffer, so a
    /// corrupt or hostile header cannot trigger a multi-gigabyte allocation
    /// backed by a few bytes of payload.
    pub fn peek_uncompressed_len(payload: &[u8]) -> Result<u64> {
        let mut r = ByteReader::new(payload);
        CanonicalCode::skip_serialized(&mut r)?;
        CanonicalCode::skip_serialized(&mut r)?;
        let _n_sequences = read_varint(&mut r)?;
        read_varint(&mut r).map_err(Into::into)
    }

    /// Serializes the block payload.
    pub fn serialize(&self, w: &mut ByteWriter) {
        self.lit_len_code.serialize(w);
        self.offset_code.serialize(w);
        write_varint(w, u64::from(self.n_sequences));
        write_varint(w, u64::from(self.uncompressed_len));
        write_varint(w, u64::from(self.sequences_per_sub_block));
        write_varint(w, self.sub_block_bits.len() as u64);
        for &bits in &self.sub_block_bits {
            write_varint(w, u64::from(bits));
        }
        write_varint(w, self.bitstream.len() as u64);
        w.write_bytes(&self.bitstream);
    }

    /// Deserializes a block payload written by [`Self::serialize`].
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self> {
        let lit_len_code = CanonicalCode::deserialize(r)?;
        let offset_code = CanonicalCode::deserialize(r)?;
        let n_sequences = read_varint(r)?;
        let uncompressed_len = read_varint(r)?;
        let sequences_per_sub_block = read_varint(r)?;
        if n_sequences > u64::from(u32::MAX)
            || uncompressed_len > u64::from(u32::MAX)
            || sequences_per_sub_block == 0
            || sequences_per_sub_block > u64::from(u32::MAX)
        {
            return Err(FormatError::InvalidToken { reason: "bit block counters out of range" });
        }
        let n_sub_blocks = read_varint(r)? as usize;
        if n_sub_blocks > (1 << 28) {
            return Err(FormatError::InvalidToken { reason: "sub-block count out of range" });
        }
        let mut sub_block_bits = Vec::with_capacity(n_sub_blocks);
        for _ in 0..n_sub_blocks {
            let bits = read_varint(r)?;
            if bits > u64::from(u32::MAX) {
                return Err(FormatError::InvalidToken { reason: "sub-block bit size out of range" });
            }
            sub_block_bits.push(bits as u32);
        }
        let stream_len = read_varint(r)? as usize;
        let bitstream = r.read_bytes(stream_len)?.to_vec();
        // The declared sub-block bit sizes must fit inside the bitstream.
        let total_bits: u64 = sub_block_bits.iter().map(|&b| u64::from(b)).sum();
        if total_bits > bitstream.len() as u64 * 8 {
            return Err(FormatError::InvalidToken { reason: "sub-block sizes exceed bitstream length" });
        }
        Ok(BitBlock {
            lit_len_code,
            offset_code,
            n_sequences: n_sequences as u32,
            uncompressed_len: uncompressed_len as u32,
            sequences_per_sub_block: sequences_per_sub_block as u32,
            sub_block_bits,
            bitstream,
        })
    }

    /// Compressed size in bytes of the serialized payload (trees + sizes +
    /// bitstream).
    pub fn compressed_len(&self) -> usize {
        let mut w = ByteWriter::new();
        self.serialize(&mut w);
        w.len()
    }
}

/// Per-sub-block tallies of a decoded block: the quantities the simulated
/// Huffman decode kernel charges per lane (one sub-block per lane).
///
/// [`SubBlockStats::of`] derives them from a sub-block's decoded sequences;
/// the decoder itself reports none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubBlockStats {
    /// Sequences the sub-block decoded to.
    pub sequences: u32,
    /// How many of those sequences carry a back-reference.
    pub matches: u32,
    /// Literal bytes the sub-block decoded to.
    pub literals: u32,
}

impl SubBlockStats {
    /// The tallies of one sub-block's decoded `sequences` (a chunk of
    /// `sequences_per_sub_block` of them; the last may be short).
    pub fn of(sequences: &[Sequence]) -> Self {
        SubBlockStats {
            sequences: sequences.len() as u32,
            matches: sequences.iter().filter(|s| s.has_match()).count() as u32,
            literals: sequences.iter().fold(0u32, |sum, s| sum.saturating_add(s.literal_len)),
        }
    }

    /// Coded symbols the sub-block contained: one per literal byte, one
    /// length-or-EOS symbol per sequence and one offset symbol per match.
    pub fn symbols(&self) -> u64 {
        u64::from(self.literals) + u64::from(self.sequences) + u64::from(self.matches)
    }
}

/// Reusable per-worker state for [`BitBlock::decode_sub_blocks`]: the flat
/// token tables, cached per coder so steady-state decoding rebuilds them
/// only when the file's coding parameters change.
#[derive(Debug, Clone, Default)]
pub struct InterleaveScratch {
    tokens: Option<(TokenCoder, TokenTables)>,
}

impl InterleaveScratch {
    /// The token tables for `coder`, rebuilt if the cached ones belong to
    /// other parameters (or nothing is cached yet).
    fn tokens(&mut self, coder: &TokenCoder) -> &TokenTables {
        if self.tokens.as_ref().is_none_or(|(cached, _)| cached != coder) {
            self.tokens = Some((*coder, TokenTables::new(coder)));
        }
        &self.tokens.as_ref().expect("populated above").1
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

/// One-pass decode of the `n_seq` sequences of the sub-block starting at
/// bit `start_bit` of `data`.
///
/// The accumulator, byte cursor and bit count stay in locals, and one
/// [`refill`] precedes every codeword. When fewer than 8 bytes remain,
/// the current sequence's literals are dropped and the checked walker
/// finishes the sub-block from that sequence's first bit, so EOF,
/// truncation and invalid-codeword errors are the checked walker's own.
#[allow(clippy::too_many_arguments)] // the hot loop keeps every input a plain argument
fn decode_sub_block(
    data: &[u8],
    start_bit: u64,
    n_seq: u32,
    coder: &TokenCoder,
    tables: &TokenTables,
    lit_len_dec: &DecodeTable,
    offset_dec: &DecodeTable,
    sequences: &mut Vec<Sequence>,
    literals: &mut Vec<u8>,
) -> Result<()> {
    let lit_mask = (1u64 << lit_len_dec.index_bits()) - 1;
    let off_mask = (1u64 << offset_dec.index_bits()) - 1;
    let mut pos = (start_bit / 8) as usize;
    let (mut acc, mut nbits) = (0u64, 0u32);
    let mut decoded = 0u32;
    // Where the checked walker resumes: the current sequence's first bit
    // and the literal count before it.
    let mut resume = (start_bit, literals.len());

    'fast: {
        if !refill(data, &mut pos, &mut acc, &mut nbits) {
            break 'fast;
        }
        let skip = (start_bit % 8) as u32;
        acc >>= skip;
        nbits -= skip;
        while decoded < n_seq {
            resume = (pos as u64 * 8 - u64::from(nbits), literals.len());
            let sym = loop {
                if !refill(data, &mut pos, &mut acc, &mut nbits) {
                    break 'fast;
                }
                let window = (acc & lit_mask) as u32;
                let entry = lit_len_dec.lookup_packed(window);
                let len = entry & 0xFF;
                if len == 0 {
                    return Err(HuffmanError::InvalidCodeword { bits: window }.into());
                }
                acc >>= len;
                nbits -= len;
                let sym = (entry >> 8) as u16;
                if sym >= END_OF_SEQUENCES {
                    break sym;
                }
                literals.push(sym as u8);
            };
            let literal_len = (literals.len() - resume.1) as u32;
            let (match_offset, match_len) = if sym == END_OF_SEQUENCES {
                (0, 0)
            } else {
                let (len_base, len_bits) = tables.length_entry(sym)?;
                if !refill(data, &mut pos, &mut acc, &mut nbits) {
                    break 'fast;
                }
                // Bit budget: a refill leaves at least 56 bits, and the
                // length extras (≤ 30 bits: `max_match_len` is any u32)
                // plus the offset codeword (≤ 24 bits, the `DecodeTable`
                // limit) need at most 54. Only the offset extras (≤ 28
                // bits: window ≤ 2^30) may need a second refill.
                debug_assert!(u32::from(len_bits) + u32::from(offset_dec.index_bits()) <= nbits);
                let len_extra = acc & ((1u64 << len_bits) - 1);
                acc >>= len_bits;
                nbits -= u32::from(len_bits);
                let match_len = tables.check_length(u64::from(len_base) + len_extra)?;
                let window = (acc & off_mask) as u32;
                let entry = offset_dec.lookup_packed(window);
                let len = entry & 0xFF;
                if len == 0 {
                    return Err(HuffmanError::InvalidCodeword { bits: window }.into());
                }
                acc >>= len;
                nbits -= len;
                let (off_base, off_bits) = tables.offset_entry((entry >> 8) as u16)?;
                if u32::from(off_bits) > nbits && !refill(data, &mut pos, &mut acc, &mut nbits) {
                    break 'fast;
                }
                let off_extra = (acc & ((1u64 << off_bits) - 1)) as u32;
                acc >>= off_bits;
                nbits -= u32::from(off_bits);
                (tables.check_offset(off_base + off_extra)?, match_len)
            };
            sequences.push(Sequence { literal_len, match_offset, match_len });
            decoded += 1;
        }
        return Ok(());
    }

    literals.truncate(resume.1);
    let mut r = BitReader::at_bit_offset(data, resume.0)?;
    decode_sequences_checked(&mut r, n_seq - decoded, coder, lit_len_dec, offset_dec, sequences, literals)
}

/// The checked per-sequence walk: decodes `n_seq` sequences from `r`,
/// reporting EOF and truncation exactly. [`BitBlock::decode_sub_block_into`]
/// is this walk over one sub-block; [`decode_sub_block`] finishes each
/// sub-block's tail with it.
fn decode_sequences_checked(
    r: &mut BitReader<'_>,
    n_seq: u32,
    coder: &TokenCoder,
    lit_len_dec: &DecodeTable,
    offset_dec: &DecodeTable,
    sequences: &mut Vec<Sequence>,
    literals: &mut Vec<u8>,
) -> Result<()> {
    for _ in 0..n_seq {
        // The symbol that ends a literal run is either EOS or a
        // match-length symbol.
        let (sym, literal_len) = lit_len_dec.decode_run(r, END_OF_SEQUENCES, literals)?;
        let (match_offset, match_len) = if sym == END_OF_SEQUENCES {
            (0, 0)
        } else {
            debug_assert!(sym >= FIRST_LENGTH_SYMBOL);
            let len_bits = coder.length_extra_bits(sym)?;
            let len_extra = r.read_bits(u32::from(len_bits))?;
            let match_len = coder.decode_length(sym, len_extra)?;
            let off_sym = offset_dec.decode(r)?;
            let off_bits = coder.offset_extra_bits(off_sym)?;
            let off_extra = r.read_bits(u32::from(off_bits))?;
            (coder.decode_offset(off_sym, off_extra)?, match_len)
        };
        sequences.push(Sequence { literal_len, match_offset, match_len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gompresso_lz77::{decompress_block, Matcher, MatcherConfig};

    fn coder() -> TokenCoder {
        TokenCoder::new(3, 64, 8 * 1024).unwrap()
    }

    fn encode_input(input: &[u8], per_sub_block: u32) -> (SequenceBlock, BitBlock) {
        let block = Matcher::new(MatcherConfig::default()).compress(input);
        let bit = BitBlock::encode(&block, &coder(), per_sub_block, 10).unwrap();
        (block, bit)
    }

    #[test]
    fn full_roundtrip_through_bit_encoding() {
        let input = b"she sells sea shells by the sea shore ".repeat(100);
        let (block, bit) = encode_input(&input, 16);
        let decoded = bit.decode_all(&coder()).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decompress_block(&decoded).unwrap(), input);
    }

    #[test]
    fn sub_block_partitioning_matches_sequence_counts() {
        let input = b"abcabcabcabcdefdefdef".repeat(200);
        let (block, bit) = encode_input(&input, 16);
        let expected_sub_blocks = block.sequences.len().div_ceil(16);
        assert_eq!(bit.sub_block_count(), expected_sub_blocks);
        let mut total = 0u32;
        for i in 0..bit.sub_block_count() {
            total += bit.sub_block_sequences(i).unwrap();
        }
        assert_eq!(total, bit.n_sequences);
        // Sub-block bit sizes must sum to the total bitstream length (before
        // byte padding).
        let total_bits: u64 = bit.sub_block_bits.iter().map(|&b| u64::from(b)).sum();
        assert!(total_bits <= bit.bitstream.len() as u64 * 8);
        assert!(total_bits + 8 > bit.bitstream.len() as u64 * 8 - 7);
    }

    #[test]
    fn each_sub_block_decodes_independently() {
        let input = b"independent sub-block decoding is the point of gompresso ".repeat(150);
        let (block, bit) = encode_input(&input, 8);
        let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
        let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
        let mut sequences = Vec::new();
        let mut literals = Vec::new();
        // Decode sub-blocks out of order to prove independence.
        let mut order: Vec<usize> = (0..bit.sub_block_count()).collect();
        order.reverse();
        let mut parts: Vec<(usize, Vec<Sequence>, Vec<u8>)> = Vec::new();
        for i in order {
            let (mut s, mut l) = (Vec::new(), Vec::new());
            bit.decode_sub_block_into(i, &coder(), &lit_dec, &off_dec, &mut s, &mut l).unwrap();
            parts.push((i, s, l));
        }
        parts.sort_by_key(|p| p.0);
        for (_, s, l) in parts {
            sequences.extend(s);
            literals.extend(l);
        }
        assert_eq!(sequences, block.sequences);
        assert_eq!(literals, block.literals);
    }

    #[test]
    fn serialize_roundtrip() {
        let input = b"serialize me serialize me serialize me".repeat(60);
        let (_, bit) = encode_input(&input, 16);
        let mut w = ByteWriter::new();
        bit.serialize(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = BitBlock::deserialize(&mut r).unwrap();
        assert_eq!(back, bit);
        assert!(r.is_empty());
        assert_eq!(bit.compressed_len(), bytes.len());
    }

    #[test]
    fn peek_uncompressed_len_reads_the_declared_size_cheaply() {
        let input = b"peek at my size without decoding me ".repeat(80);
        let (_, bit) = encode_input(&input, 16);
        let mut w = ByteWriter::new();
        bit.serialize(&mut w);
        let bytes = w.finish();
        assert_eq!(BitBlock::peek_uncompressed_len(&bytes).unwrap(), u64::from(bit.uncompressed_len));
        // Truncations inside the code tables are rejected, not misread.
        assert!(BitBlock::peek_uncompressed_len(&bytes[..2]).is_err());
        assert!(BitBlock::peek_uncompressed_len(&[]).is_err());
    }

    #[test]
    fn decode_sub_block_into_appends_across_sub_blocks() {
        let input = b"append don't collect append don't collect ".repeat(120);
        let (block, bit) = encode_input(&input, 8);
        let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
        let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
        let mut sequences = Vec::new();
        let mut literals = Vec::new();
        for i in 0..bit.sub_block_count() {
            bit.decode_sub_block_into(i, &coder(), &lit_dec, &off_dec, &mut sequences, &mut literals)
                .unwrap();
        }
        assert_eq!(sequences, block.sequences);
        assert_eq!(literals, block.literals);
    }

    #[test]
    fn sub_block_stats_of_counts_each_chunk() {
        let sequences = [
            Sequence { literal_len: 3, match_offset: 2, match_len: 4 },
            Sequence::literals_only(5),
            Sequence { literal_len: 0, match_offset: 1, match_len: 9 },
            Sequence { literal_len: 7, match_offset: 6, match_len: 3 },
        ];
        let stats: Vec<SubBlockStats> = sequences.chunks(3).map(SubBlockStats::of).collect();
        assert_eq!(
            stats,
            [
                SubBlockStats { sequences: 3, matches: 2, literals: 8 },
                SubBlockStats { sequences: 1, matches: 1, literals: 7 },
            ]
        );
        // One symbol per literal, one length-or-EOS symbol per sequence and
        // one offset symbol per match.
        assert_eq!(stats[0].symbols(), 8 + 3 + 2);
        assert_eq!(SubBlockStats::of(&[]), SubBlockStats::default());

        // Over a decoded block, one per sub-block, they account for every
        // sequence, match and literal the block holds.
        let input = b"tallies per sub-block, tallies per lane ".repeat(90);
        let (block, bit) = encode_input(&input, 8);
        let decoded = bit.decode_all(&coder()).unwrap();
        let stats: Vec<SubBlockStats> = decoded.sequences.chunks(8).map(SubBlockStats::of).collect();
        assert_eq!(stats.len(), bit.sub_block_count());
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.sequences, bit.sub_block_sequences(i).unwrap());
        }
        assert_eq!(stats.iter().map(|s| s.literals as usize).sum::<usize>(), block.literals.len());
        let matches = block.sequences.iter().filter(|s| s.has_match()).count();
        assert_eq!(stats.iter().map(|s| s.matches as usize).sum::<usize>(), matches);
    }

    #[test]
    fn bit_encoding_beats_byte_estimate_on_text() {
        let input = b"entropy coding pays off on skewed byte distributions like english text ".repeat(300);
        let (block, bit) = encode_input(&input, 16);
        assert!(bit.compressed_len() < block.byte_encoded_estimate());
        assert!(bit.compressed_len() < input.len() / 2);
    }

    #[test]
    fn literal_only_block_roundtrips() {
        // Incompressible input: single literal-only sequence, EOS-coded.
        let input: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let (block, bit) = encode_input(&input, 16);
        assert_eq!(bit.decode_all(&coder()).unwrap(), block);
    }

    #[test]
    fn empty_block_roundtrips() {
        let block = SequenceBlock::new();
        let bit = BitBlock::encode(&block, &coder(), 16, 10).unwrap();
        assert_eq!(bit.sub_block_count(), 0);
        let decoded = bit.decode_all(&coder()).unwrap();
        assert_eq!(decoded.sequences.len(), 0);
    }

    #[test]
    fn out_of_range_sub_block_is_rejected() {
        let input = b"some data some data".repeat(10);
        let (_, bit) = encode_input(&input, 16);
        let lit_dec = DecodeTable::new(&bit.lit_len_code).unwrap();
        let off_dec = DecodeTable::new(&bit.offset_code).unwrap();
        let (mut sequences, mut literals) = (Vec::new(), Vec::new());
        let n = bit.sub_block_count();
        assert!(matches!(
            bit.decode_sub_block_into(n, &coder(), &lit_dec, &off_dec, &mut sequences, &mut literals),
            Err(FormatError::SubBlockOutOfRange { .. })
        ));
    }

    #[test]
    fn corrupted_bitstream_errors_not_panics() {
        let input = b"corrupt me please corrupt me please".repeat(50);
        let (_, mut bit) = encode_input(&input, 16);
        // Flip a swath of bytes in the middle of the stream.
        let mid = bit.bitstream.len() / 2;
        let end = (mid + 32).min(bit.bitstream.len());
        for b in &mut bit.bitstream[mid..end] {
            *b ^= 0xFF;
        }
        // Either an error or a structurally different decode is fine; a
        // panic is not.
        let _ = bit.decode_all(&coder());
    }

    #[test]
    fn truncated_serialization_errors() {
        let input = b"truncate truncate truncate".repeat(40);
        let (_, bit) = encode_input(&input, 16);
        let mut w = ByteWriter::new();
        bit.serialize(&mut w);
        let bytes = w.finish();
        for cut in [1usize, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(BitBlock::deserialize(&mut r).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn max_codeword_length_is_respected() {
        let input = b"aaaaabbbbbcccccdddddeeeee".repeat(400);
        let (_, bit) = encode_input(&input, 16);
        assert!(bit.lit_len_code.longest_used() <= 10);
        assert!(bit.offset_code.longest_used() <= 10);
    }
}
