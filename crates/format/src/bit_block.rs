//! Bit-level block payload (Gompresso/Bit).
//!
//! Each data block is entropy-coded with two canonical, length-limited
//! Huffman trees (literal/length and offset) and the resulting bitstream is
//! partitioned into *sub-blocks* of a fixed number of sequences. The bit
//! size of every sub-block is recorded so that, at decompression time, each
//! GPU thread can compute its sub-block's absolute bit offset with a prefix
//! sum and start decoding immediately — the single-pass parallel Huffman
//! decoding scheme of Section III-B-1.
//!
//! The host parses a payload in place ([`BitBlockView`]) and decodes its
//! sub-blocks one after another through multi-symbol tables built per
//! block (`host_decode`); [`BitBlock`] is the owned form the encoder
//! writes and tests build by hand.

use crate::host_decode::{HostDecoder, HostTables, RUN_SLACK};
use crate::token_code::{TokenCoder, TokenEncodeTables, TokenTables, END_OF_SEQUENCES, FIRST_LENGTH_SYMBOL};
use crate::{FormatError, Result};
use gompresso_bitstream::{read_varint, write_varint, BitReader, BitWriter, ByteReader, ByteWriter};
use gompresso_huffman::{CanonicalCode, DecodeTable, EncodeTable, Histogram};
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

/// A bit block parsed in place: its two codes are built, its sub-block
/// sizes and bitstream are borrowed from the payload rather than copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBlockView<'a> {
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
    /// Number of sub-blocks.
    sub_block_count: usize,
    /// The sub-block bit sizes as serialized: `sub_block_count` varints,
    /// each checked by [`Self::parse`].
    sub_block_sizes: &'a [u8],
    /// The concatenated Huffman bitstream of all sub-blocks.
    pub bitstream: &'a [u8],
}

/// Reusable per-worker state for [`BitBlock::encode_with_scratch`]: the two
/// pass-1 histograms, the flat encode-side token tables (cached per coder)
/// and the per-block fused match-field tables.
///
/// One scratch per worker lets every block of a file reuse the same
/// allocations; [`BitBlock::encode`] creates a throwaway one.
#[derive(Debug, Clone)]
pub struct EncodeScratch {
    lit_len_hist: Histogram,
    offset_hist: Histogram,
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

/// Pass 1: histograms over both alphabets (one bulk count of the literal
/// bytes, flat token tables for the match symbols), code
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
    let EncodeScratch { lit_len_hist, offset_hist, tokens, len_fused, off_fused } = scratch;
    let tables = &tokens.as_ref().expect("ensure_tokens populated the cache").1;

    // Guarantee both alphabets are non-empty so code construction cannot
    // fail on blocks without matches (or without literals).
    lit_len_hist.add(END_OF_SEQUENCES);
    offset_hist.add(0);
    let mut extra_bits = 0u64;

    // Literal frequencies do not depend on how literals interleave with
    // matches, so the whole literal buffer is counted with one bulk sweep;
    // the per-sequence loop then only handles match symbols.
    lit_len_hist.add_bytes(&block.literals);
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
        Ok(sequences_in(index, self.n_sequences, self.sequences_per_sub_block))
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
    /// one's recorded size to its start, through the host tables of the
    /// block's codes (kept in `scratch` and rebuilt only when the codes
    /// change, so a block decoded in several ranges builds them once). The
    /// result equals [`Self::decode_sub_block_into`] called on each
    /// sub-block in turn, errors included.
    #[allow(clippy::too_many_arguments)] // decode tables, scratch and two output sinks
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
        let start_bit = self.sub_block_bit_offset(sub_blocks.start)?;
        let sizes = &self.sub_block_bits[sub_blocks.clone()];
        let bits: u64 = sizes.iter().map(|&b| u64::from(b)).sum();
        let InterleaveScratch { tokens, host, run, .. } = scratch;
        let tables = token_tables(tokens, coder);
        host.load(coder, tables, (&self.lit_len_code, &self.offset_code), lit_len_dec, offset_dec);
        let decoder = HostDecoder { coder, tables, host, lit_len_dec, offset_dec };
        let sub_blocks = sizes
            .iter()
            .zip(sub_blocks)
            .map(|(&bits, i)| (bits, sequences_in(i, self.n_sequences, self.sequences_per_sub_block)));
        let run = run_buffer(run, self.uncompressed_len, bits);
        decoder.decode(&self.bitstream, start_bit, sub_blocks, run, sequences, literals)
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

    /// Deserializes a block payload written by [`Self::serialize`]: a
    /// [`BitBlockView::parse`] that copies the sub-block sizes and the
    /// bitstream out of the payload.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self> {
        let view = BitBlockView::parse(r)?;
        let sub_block_bits = view.sub_block_bits().collect();
        Ok(BitBlock {
            lit_len_code: view.lit_len_code,
            offset_code: view.offset_code,
            n_sequences: view.n_sequences,
            uncompressed_len: view.uncompressed_len,
            sequences_per_sub_block: view.sequences_per_sub_block,
            sub_block_bits,
            bitstream: view.bitstream.to_vec(),
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

impl<'a> BitBlockView<'a> {
    /// Parses a block payload written by [`BitBlock::serialize`] without
    /// copying its sub-block sizes or bitstream: the codes are built and
    /// every counter and size is range-checked, and the sizes must fit
    /// inside the bitstream.
    pub fn parse(r: &mut ByteReader<'a>) -> Result<Self> {
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
        let sub_block_count = read_varint(r)? as usize;
        if sub_block_count > (1 << 28) {
            return Err(FormatError::InvalidToken { reason: "sub-block count out of range" });
        }
        let sizes = r.rest();
        let mut total_bits = 0u64;
        for _ in 0..sub_block_count {
            let bits = read_varint(r)?;
            if bits > u64::from(u32::MAX) {
                return Err(FormatError::InvalidToken { reason: "sub-block bit size out of range" });
            }
            total_bits += bits;
        }
        let sub_block_sizes = &sizes[..sizes.len() - r.rest().len()];
        let stream_len = read_varint(r)? as usize;
        let bitstream = r.read_bytes(stream_len)?;
        // The declared sub-block bit sizes must fit inside the bitstream.
        if total_bits > bitstream.len() as u64 * 8 {
            return Err(FormatError::InvalidToken { reason: "sub-block sizes exceed bitstream length" });
        }
        Ok(BitBlockView {
            lit_len_code,
            offset_code,
            n_sequences: n_sequences as u32,
            uncompressed_len: uncompressed_len as u32,
            sequences_per_sub_block: sequences_per_sub_block as u32,
            sub_block_count,
            sub_block_sizes,
            bitstream,
        })
    }

    /// Number of sub-blocks in the block.
    pub fn sub_block_count(&self) -> usize {
        self.sub_block_count
    }

    /// The size in bits of each sub-block, in order.
    pub fn sub_block_bits(&self) -> impl Iterator<Item = u32> + 'a {
        // `parse` read every varint, so none fails here.
        let mut r = ByteReader::new(self.sub_block_sizes);
        (0..self.sub_block_count).map_while(move |_| read_varint(&mut r).ok().map(|bits| bits as u32))
    }

    /// Entropy-decodes the whole block into `out`, clearing and reusing its
    /// buffers, with the block's decode tables rebuilt in `scratch`'s
    /// storage. `out` then holds what [`BitBlock::decode_all`] returns for
    /// the same payload, and an error is that call's error.
    pub fn decode_into(
        &self,
        coder: &TokenCoder,
        scratch: &mut InterleaveScratch,
        out: &mut SequenceBlock,
    ) -> Result<()> {
        let result = self.decode_with(coder, scratch, out);
        // A hand-built code may ask for 2^24-entry tables; a worker keeps
        // no table wider than the 16 bits the compressor writes, whether
        // the block decoded or not.
        for dec in [&mut scratch.lit_len_dec, &mut scratch.offset_dec] {
            if dec.index_bits() > 16 {
                *dec = DecodeTable::default();
            }
        }
        result
    }

    fn decode_with(
        &self,
        coder: &TokenCoder,
        scratch: &mut InterleaveScratch,
        out: &mut SequenceBlock,
    ) -> Result<()> {
        let InterleaveScratch { tokens, host, lit_len_dec, offset_dec, run } = scratch;
        lit_len_dec.rebuild(&self.lit_len_code)?;
        offset_dec.rebuild(&self.offset_code)?;
        let tables = token_tables(tokens, coder);
        host.load(coder, tables, (&self.lit_len_code, &self.offset_code), lit_len_dec, offset_dec);
        // Every sequence and every literal takes at least one coded bit,
        // so the bitstream caps what corrupt counters can reserve.
        let cap_bits = self.bitstream.len().saturating_mul(8);
        out.sequences.clear();
        out.literals.clear();
        out.sequences.reserve((self.n_sequences as usize).min(cap_bits));
        out.literals.reserve((self.uncompressed_len as usize).min(cap_bits));
        out.uncompressed_len = self.uncompressed_len as usize;
        let decoder = HostDecoder { coder, tables, host, lit_len_dec, offset_dec };
        let sub_blocks = self
            .sub_block_bits()
            .enumerate()
            .map(|(i, bits)| (bits, sequences_in(i, self.n_sequences, self.sequences_per_sub_block)));
        let run = run_buffer(run, self.uncompressed_len, cap_bits as u64);
        decoder.decode(self.bitstream, 0, sub_blocks, run, &mut out.sequences, &mut out.literals)
    }
}

/// Sequences in sub-block `index` of a block of `n_sequences` with `per`
/// per sub-block (the final sub-block may be short). Saturating: a corrupt
/// block can declare fewer sequences than its sub-block table implies, and
/// that must surface as an empty sub-block (then a decode error), not an
/// arithmetic panic.
fn sequences_in(index: usize, n_sequences: u32, per: u32) -> u32 {
    let full = u64::from(per);
    u64::from(n_sequences).saturating_sub(index as u64 * full).min(full) as u32
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

/// Reusable per-worker state for bit-block decoding: the flat token tables
/// (cached per coder), the host tables of the last codes decoded, the
/// CWL-bit decode tables of the last [`BitBlockView`] decoded and the
/// literal run buffer. Each block rebuilds its tables in this storage, so
/// steady-state decoding allocates no table.
#[derive(Debug, Clone, Default)]
pub struct InterleaveScratch {
    tokens: Option<(TokenCoder, TokenTables)>,
    host: HostTables,
    lit_len_dec: DecodeTable,
    offset_dec: DecodeTable,
    run: Vec<u8>,
}

impl InterleaveScratch {
    /// Builds the host tables of the block whose CWL-bit tables are
    /// `lit_len_dec` and `offset_dec`, whether or not they are loaded
    /// already: the per-block set-up cost `micro_interleave/
    /// host_tables_build` times.
    #[doc(hidden)]
    pub fn build_host_tables(
        &mut self,
        coder: &TokenCoder,
        lit_len_dec: &DecodeTable,
        offset_dec: &DecodeTable,
    ) {
        let tables = token_tables(&mut self.tokens, coder);
        self.host.build(tables, lit_len_dec, offset_dec);
    }
}

/// The token tables for `coder`, rebuilt if the cached ones belong to other
/// parameters (or nothing is cached yet).
fn token_tables<'t>(cache: &'t mut Option<(TokenCoder, TokenTables)>, coder: &TokenCoder) -> &'t TokenTables {
    if cache.as_ref().is_none_or(|(cached, _)| cached != coder) {
        *cache = Some((*coder, TokenTables::new(coder)));
    }
    &cache.as_ref().expect("populated above").1
}

/// The run buffer, with room for as many literals as a block of
/// `uncompressed_len` bytes holds in `bits` coded bits, plus the slack of
/// the last 4-byte store. It grows by exact reservations and never
/// shrinks: a doubling reservation would leave it twice the block size.
fn run_buffer(run: &mut Vec<u8>, uncompressed_len: u32, bits: u64) -> &mut [u8] {
    let len = u64::from(uncompressed_len).min(bits) as usize + RUN_SLACK;
    if run.len() < len {
        run.reserve_exact(len - run.len());
        run.resize(len, 0);
    }
    &mut run[..len]
}

/// The checked per-sequence walk: decodes `n_seq` sequences from `r`,
/// reporting EOF and truncation exactly. [`BitBlock::decode_sub_block_into`]
/// is this walk over one sub-block; the host decoder finishes each
/// sub-block's tail with it.
pub(crate) fn decode_sequences_checked(
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
    fn view_decodes_what_the_owned_block_decodes() {
        let input = b"a view borrows the payload, a block copies it ".repeat(90);
        let (block, bit) = encode_input(&input, 8);
        let mut w = ByteWriter::new();
        bit.serialize(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let view = BitBlockView::parse(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(view.sub_block_count(), bit.sub_block_count());
        assert_eq!(view.sub_block_bits().collect::<Vec<_>>(), bit.sub_block_bits);
        assert_eq!(view.bitstream, &bit.bitstream[..]);
        let mut out = SequenceBlock::new();
        view.decode_into(&coder(), &mut InterleaveScratch::default(), &mut out).unwrap();
        assert_eq!(out, block);
        assert_eq!(out, bit.decode_all(&coder()).unwrap());
    }

    /// Text-like bytes: words from a small vocabulary, chosen by an LCG.
    fn words(len: usize, seed: u64) -> Vec<u8> {
        const VOCABULARY: [&[u8]; 8] =
            [b"the ", b"sub-block ", b"of ", b"huffman ", b"decode ", b"table ", b"lookup ", b"literal "];
        let (mut state, mut out) = (seed, Vec::with_capacity(len + 16));
        while out.len() < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.extend_from_slice(VOCABULARY[(state >> 61) as usize]);
            out.push((state >> 40) as u8 % 26 + b'a');
        }
        out.truncate(len);
        out
    }

    #[test]
    fn run_buffer_stays_within_block_size_plus_slack() {
        // One worker's scratch across blocks of growing and shrinking size:
        // the run buffer grows by exact reservations, so it never holds
        // more than the largest block's literals plus the store slack (a
        // doubling reservation would take it from 40,003 to 80,006 bytes at
        // the second block).
        let mut scratch = InterleaveScratch::default();
        let mut out = SequenceBlock::new();
        let mut largest = 0;
        for (seed, len) in [40_000usize, 65_536, 1_000, 65_536, 30_000].into_iter().enumerate() {
            let (block, bit) = encode_input(&words(len, seed as u64), 16);
            let mut w = ByteWriter::new();
            bit.serialize(&mut w);
            let bytes = w.finish();
            BitBlockView::parse(&mut ByteReader::new(&bytes))
                .unwrap()
                .decode_into(&coder(), &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, block);
            largest = largest.max(len);
            assert!(
                scratch.run.len() <= largest + RUN_SLACK,
                "block {seed}: run length {}",
                scratch.run.len()
            );
            assert!(
                scratch.run.capacity() <= largest + RUN_SLACK,
                "block {seed}: run capacity {} for blocks of at most {largest} bytes",
                scratch.run.capacity()
            );
        }
    }

    #[test]
    fn oversized_decode_tables_are_not_kept() {
        let input = b"wide tables are built for one block, then let go ".repeat(40);
        let block = Matcher::new(MatcherConfig::default()).compress(&input);
        let serialize = |bit: &BitBlock| {
            let mut w = ByteWriter::new();
            bit.serialize(&mut w);
            w.finish()
        };
        let decode = |bytes: &[u8], scratch: &mut InterleaveScratch| {
            let mut out = SequenceBlock::new();
            BitBlockView::parse(&mut ByteReader::new(bytes))?
                .decode_into(&coder(), scratch, &mut out)
                .map(|()| out)
        };
        let mut scratch = InterleaveScratch::default();
        let (_, narrow) = encode_input(&input, 16);
        assert_eq!(decode(&serialize(&narrow), &mut scratch).unwrap(), block);
        assert_eq!((scratch.lit_len_dec.index_bits(), scratch.offset_dec.index_bits()), (10, 10));

        // 24-bit tables (64 MiB each) are let go after the block, and so
        // is the literal/length table when the offset table then fails.
        let released = DecodeTable::default().len();
        let wide = BitBlock::encode(&block, &coder(), 16, 24).unwrap();
        assert_eq!(decode(&serialize(&wide), &mut scratch).unwrap(), block);
        assert_eq!((scratch.lit_len_dec.len(), scratch.offset_dec.len()), (released, released));
        let mut failing = wide.clone();
        failing.offset_code = CanonicalCode::from_lengths(&failing.offset_code.lengths(), 25).unwrap();
        assert!(decode(&serialize(&failing), &mut scratch).is_err());
        assert_eq!((scratch.lit_len_dec.len(), scratch.offset_dec.len()), (released, released));
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
