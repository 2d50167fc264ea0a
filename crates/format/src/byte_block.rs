//! Byte-level block payload (Gompresso/Byte).
//!
//! Gompresso/Byte trades compression ratio for decoding speed by using a
//! fixed, byte-aligned encoding in the style of LZ4 (paper, Sections II-A
//! and III-B): each sequence is a token byte holding the literal length and
//! match length nibbles (15 = "extension bytes follow"), the literal bytes,
//! a 2-byte little-endian offset and optional match-length extension bytes.
//!
//! Because every field is byte aligned, decoding and LZ77 decompression
//! fuse into one pass: [`ByteBlockView::decompress_into`] parses each token
//! from the borrowed payload and copies its literals and match straight
//! into the block's output slice with `gompresso_lz77::execute_sequence`,
//! the executor's own per-sequence step. [`ByteBlockView::decode_into`]
//! instead collects the sequences into a [`SequenceBlock`] for the callers
//! that need them (the Dependency Elimination check, the K40 model, error
//! reporting). One token walk serves both, so they parse the same bytes the
//! same way; the fused pass accepts exactly the payloads that decoding and
//! then executing accepts, though it may reject a bad one with a different
//! error.

use crate::{FormatError, Result};
use gompresso_bitstream::{read_varint, write_varint, ByteReader, ByteWriter};
use gompresso_lz77::{execute_sequence, Lz77Error, Sequence, SequenceBlock};

/// A byte-encoded data block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteBlock {
    /// Number of sequences encoded.
    pub n_sequences: u32,
    /// Uncompressed size of the block in bytes.
    pub uncompressed_len: u32,
    /// The encoded sequence stream.
    pub data: Vec<u8>,
}

/// A byte block parsed in place: the counters of a serialized payload and
/// its encoded sequence stream, borrowed rather than copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteBlockView<'a> {
    /// Number of sequences encoded.
    pub n_sequences: u32,
    /// Uncompressed size of the block in bytes.
    pub uncompressed_len: u32,
    /// The encoded sequence stream.
    pub data: &'a [u8],
}

/// Nibble value that signals "length continues in extension bytes".
const NIBBLE_EXTENDED: u32 = 15;

fn write_extended(w: &mut ByteWriter, mut remainder: u32) {
    // LZ4-style 255-chained extension bytes.
    while remainder >= 255 {
        w.write_u8(255);
        remainder -= 255;
    }
    w.write_u8(remainder as u8);
}

/// Number of bytes [`write_extended`] emits for `remainder`.
fn extended_len(remainder: u32) -> usize {
    (remainder / 255) as usize + 1
}

/// Exact encoded size in bytes of a sequence block (token bytes, extension
/// chains, literals and offsets), used to preallocate the output buffer.
fn encoded_len(block: &SequenceBlock) -> usize {
    let mut total = block.literals.len();
    for seq in &block.sequences {
        total += 1;
        if seq.literal_len >= NIBBLE_EXTENDED {
            total += extended_len(seq.literal_len - NIBBLE_EXTENDED);
        }
        if seq.match_len > 0 {
            total += 2;
            if seq.match_len >= NIBBLE_EXTENDED {
                total += extended_len(seq.match_len - NIBBLE_EXTENDED);
            }
        }
    }
    total
}

/// Reads the length a token nibble encodes: the nibble itself, or, for
/// [`NIBBLE_EXTENDED`], 15 plus its 255-chained extension bytes, summed with
/// an overflow check.
#[inline]
fn read_length(r: &mut ByteReader<'_>, nibble: u8) -> Result<u32> {
    let mut total = u32::from(nibble);
    if total != NIBBLE_EXTENDED {
        return Ok(total);
    }
    loop {
        let b = r.read_u8()?;
        total = total
            .checked_add(u32::from(b))
            .ok_or(FormatError::InvalidToken { reason: "length extension overflows" })?;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Where [`walk_tokens`] sends what it parses. The walk reads the token
/// bytes, length extensions and offsets; the sink bounds and takes each
/// literal run and receives each sequence.
trait TokenSink {
    /// Moves `r` past the `len` literal bytes at its position.
    fn literals(&mut self, r: &mut ByteReader<'_>, len: usize) -> Result<()>;
    /// Takes sequence `index`, whose literal run starts at byte
    /// `literal_pos` of the encoded stream.
    fn sequence(&mut self, index: usize, literal_pos: usize, seq: Sequence) -> Result<()>;
}

/// The one walk over an encoded sequence stream: `n_sequences` tokens,
/// each a nibble pair with optional length extensions, a literal run and,
/// when the match nibble is nonzero, a 16-bit offset.
#[inline]
fn walk_tokens(data: &[u8], n_sequences: u32, sink: &mut impl TokenSink) -> Result<()> {
    let mut r = ByteReader::new(data);
    for index in 0..n_sequences as usize {
        let token = r.read_u8()?;
        let literal_len = read_length(&mut r, token >> 4)?;
        let literal_pos = r.position();
        sink.literals(&mut r, literal_len as usize)?;
        let (match_offset, match_len) = if token & 0x0F == 0 {
            (0, 0)
        } else {
            let offset = u32::from(r.read_u16_le()?);
            (offset, read_length(&mut r, token & 0x0F)?)
        };
        sink.sequence(index, literal_pos, Sequence { literal_len, match_offset, match_len })?;
    }
    Ok(())
}

/// Collects the walk's sequences and literal bytes into a
/// [`SequenceBlock`], rejecting a literal run past the end of the stream
/// and a match with a zero offset as it goes.
struct CollectSequences<'b>(&'b mut SequenceBlock);

impl TokenSink for CollectSequences<'_> {
    #[inline]
    fn literals(&mut self, r: &mut ByteReader<'_>, len: usize) -> Result<()> {
        self.0.literals.extend_from_slice(r.read_bytes(len)?);
        Ok(())
    }

    #[inline]
    fn sequence(&mut self, _index: usize, _literal_pos: usize, seq: Sequence) -> Result<()> {
        if seq.has_match() && seq.match_offset == 0 {
            return Err(FormatError::InvalidToken { reason: "zero match offset" });
        }
        self.0.sequences.push(seq);
        Ok(())
    }
}

/// Executes each sequence the walk parses straight into `out`, taking its
/// literals from the encoded stream. Every check on a sequence is
/// [`execute_sequence`]'s.
struct ExecuteIntoOutput<'o, 'd> {
    out: &'o mut [u8],
    data: &'d [u8],
    cursor: usize,
}

impl TokenSink for ExecuteIntoOutput<'_, '_> {
    #[inline]
    fn literals(&mut self, r: &mut ByteReader<'_>, len: usize) -> Result<()> {
        // The step bounds the run against the stream. A run past its end
        // leaves the reader at the end, where the walk's next read fails,
        // or, for a last sequence without a match, the step rejects it.
        r.skip(len.min(r.remaining()))?;
        Ok(())
    }

    #[inline]
    fn sequence(&mut self, index: usize, literal_pos: usize, seq: Sequence) -> Result<()> {
        self.cursor = execute_sequence(self.out, self.cursor, self.data, literal_pos, &seq, index)?;
        Ok(())
    }
}

impl ByteBlock {
    /// Encodes an LZ77 sequence block into the byte-level format.
    ///
    /// Match offsets must fit in 16 bits (the compressor's window is at most
    /// 64 KB in byte mode); larger offsets are a configuration error.
    pub fn encode(block: &SequenceBlock) -> Result<Self> {
        let capacity = encoded_len(block);
        // +16 slack: the literal fast path copies a fixed 16-byte window
        // and truncates, which may transiently overshoot the exact size.
        let mut w = ByteWriter::with_capacity(capacity + 16);
        let mut literal_cursor = 0usize;
        for seq in &block.sequences {
            let lit_len = seq.literal_len;
            let match_len = seq.match_len;
            if seq.has_match() && seq.match_offset > u32::from(u16::MAX) {
                return Err(FormatError::InvalidToken { reason: "match offset exceeds 64 KiB in byte mode" });
            }
            let lit_nibble = lit_len.min(NIBBLE_EXTENDED);
            let match_nibble = match_len.min(NIBBLE_EXTENDED);
            w.write_u8(((lit_nibble << 4) | match_nibble) as u8);
            if lit_nibble == NIBBLE_EXTENDED {
                write_extended(&mut w, lit_len - NIBBLE_EXTENDED);
            }
            let lit_end = literal_cursor + lit_len as usize;
            w.write_prefix(&block.literals[literal_cursor..], lit_len as usize);
            literal_cursor = lit_end;
            if match_len > 0 {
                w.write_u16_le(seq.match_offset as u16);
                if match_nibble == NIBBLE_EXTENDED {
                    write_extended(&mut w, match_len - NIBBLE_EXTENDED);
                }
            }
        }
        debug_assert_eq!(w.len(), capacity, "size computation must predict the payload exactly");
        Ok(ByteBlock {
            n_sequences: block.sequences.len() as u32,
            uncompressed_len: block.uncompressed_len as u32,
            data: w.finish(),
        })
    }

    /// Decodes the byte stream back into an LZ77 sequence block.
    pub fn decode(&self) -> Result<SequenceBlock> {
        let mut block = SequenceBlock::new();
        self.decode_into(&mut block)?;
        Ok(block)
    }

    /// Decodes the byte stream into a caller-provided sequence block,
    /// clearing and reusing its buffers (see [`ByteBlockView::decode_into`]).
    pub fn decode_into(&self, out: &mut SequenceBlock) -> Result<()> {
        self.view().decode_into(out)
    }

    /// The block as a [`ByteBlockView`] over its own stream.
    pub fn view(&self) -> ByteBlockView<'_> {
        ByteBlockView {
            n_sequences: self.n_sequences,
            uncompressed_len: self.uncompressed_len,
            data: &self.data,
        }
    }

    /// Reads the block's declared uncompressed size from a serialized
    /// payload without decoding it.
    ///
    /// See [`crate::BitBlock::peek_uncompressed_len`]: this is the
    /// pre-allocation header check for byte-mode blocks.
    pub fn peek_uncompressed_len(payload: &[u8]) -> Result<u64> {
        let mut r = ByteReader::new(payload);
        let _n_sequences = read_varint(&mut r)?;
        read_varint(&mut r).map_err(Into::into)
    }

    /// Serializes the block payload (sequence count, uncompressed length and
    /// the encoded stream).
    pub fn serialize(&self, w: &mut ByteWriter) {
        write_varint(w, u64::from(self.n_sequences));
        write_varint(w, u64::from(self.uncompressed_len));
        write_varint(w, self.data.len() as u64);
        w.write_bytes(&self.data);
    }

    /// Deserializes a block payload written by [`Self::serialize`]: a
    /// [`ByteBlockView::parse`] that copies the stream out of the payload.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<Self> {
        let view = ByteBlockView::parse(r)?;
        Ok(ByteBlock {
            n_sequences: view.n_sequences,
            uncompressed_len: view.uncompressed_len,
            data: view.data.to_vec(),
        })
    }

    /// Compressed size of this block in bytes (payload only).
    pub fn compressed_len(&self) -> usize {
        self.data.len()
    }
}

impl<'a> ByteBlockView<'a> {
    /// Parses a block payload written by [`ByteBlock::serialize`] without
    /// copying its stream: the three varints, the counters' range checks and
    /// the stream's bytes, borrowed from `r`.
    pub fn parse(r: &mut ByteReader<'a>) -> Result<Self> {
        let n_sequences = read_varint(r)?;
        let uncompressed_len = read_varint(r)?;
        let data_len = read_varint(r)?;
        if n_sequences > u64::from(u32::MAX) || uncompressed_len > u64::from(u32::MAX) {
            return Err(FormatError::InvalidToken { reason: "byte block counters out of range" });
        }
        let data = r.read_bytes(data_len as usize)?;
        Ok(ByteBlockView { n_sequences: n_sequences as u32, uncompressed_len: uncompressed_len as u32, data })
    }

    /// Decodes the byte stream into a caller-provided sequence block,
    /// clearing and reusing its buffers.
    ///
    /// Steady-state decompression hands every block of a file to the same
    /// per-worker scratch `SequenceBlock`, so after the first few blocks the
    /// decode loop performs no heap allocation at all.
    pub fn decode_into(&self, out: &mut SequenceBlock) -> Result<()> {
        out.sequences.clear();
        out.literals.clear();
        // Reservations are capped by what the payload can physically encode
        // (every sequence consumes at least a token byte, every literal byte
        // is stored verbatim), so corrupt counters cannot balloon them.
        out.sequences.reserve((self.n_sequences as usize).min(self.data.len()));
        out.literals.reserve((self.uncompressed_len as usize).min(self.data.len()));
        out.uncompressed_len = self.uncompressed_len as usize;
        walk_tokens(self.data, self.n_sequences, &mut CollectSequences(out))
    }

    /// Decodes the block in one pass straight into `out`, which must be
    /// exactly `uncompressed_len` bytes: each token's literals and match
    /// are copied into place as soon as it is parsed, with no sequence
    /// buffer and no allocation.
    ///
    /// It accepts exactly the streams that [`Self::decode_into`] followed
    /// by `gompresso_lz77::decompress_block_into` accepts, and then writes
    /// the same bytes; on a bad stream it may fail with a different error
    /// (a literal run past the stream's end is a
    /// [`Lz77Error::LiteralOverrun`] here, an EOF there). Callers that
    /// report errors decode a failing block again through
    /// [`Self::decode_into`]. On failure `out` holds partial output.
    pub fn decompress_into(&self, out: &mut [u8]) -> Result<()> {
        let declared = self.uncompressed_len as usize;
        if out.len() != declared {
            return Err(Lz77Error::LengthMismatch { declared, produced: out.len() }.into());
        }
        let mut sink = ExecuteIntoOutput { out, data: self.data, cursor: 0 };
        walk_tokens(self.data, self.n_sequences, &mut sink)?;
        if sink.cursor != declared {
            return Err(Lz77Error::LengthMismatch { declared, produced: sink.cursor }.into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gompresso_lz77::{decompress_block, Matcher, MatcherConfig};

    fn roundtrip(input: &[u8]) -> ByteBlock {
        let block = Matcher::new(MatcherConfig::default()).compress(input);
        let encoded = ByteBlock::encode(&block).unwrap();
        let decoded = encoded.decode().unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decompress_block(&decoded).unwrap(), input);
        encoded
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(b"aacaacbacadd");
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(&[0u8; 1000]);
    }

    #[test]
    fn long_literals_and_matches_use_extension_bytes() {
        // 1000 distinct-ish literal bytes force the literal-extension path;
        // a long run forces the match-extension path.
        let mut input: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
        input.extend(std::iter::repeat_n(b'r', 700));
        let encoded = roundtrip(&input);
        assert!(encoded.compressed_len() < input.len() + 64);
    }

    #[test]
    fn compressible_data_shrinks() {
        let input = b"hello world hello world hello world ".repeat(200);
        let encoded = roundtrip(&input);
        assert!(encoded.compressed_len() < input.len() / 2);
    }

    #[test]
    fn serialize_roundtrip() {
        let input = b"the rain in spain falls mainly on the plain ".repeat(50);
        let block = Matcher::new(MatcherConfig::default()).compress(&input);
        let encoded = ByteBlock::encode(&block).unwrap();
        let mut w = ByteWriter::new();
        encoded.serialize(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = ByteBlock::deserialize(&mut r).unwrap();
        assert_eq!(back, encoded);
        assert!(r.is_empty());
    }

    #[test]
    fn decode_into_reuses_scratch_buffers() {
        let inputs = [
            b"first block first block first block ".repeat(40),
            b"second, longer block ".repeat(90),
            b"3rd".to_vec(),
        ];
        let mut scratch = SequenceBlock::new();
        for input in &inputs {
            let block = Matcher::new(MatcherConfig::default()).compress(input);
            let encoded = ByteBlock::encode(&block).unwrap();
            encoded.decode_into(&mut scratch).unwrap();
            assert_eq!(scratch, block);
            assert_eq!(decompress_block(&scratch).unwrap(), *input);
        }
    }

    #[test]
    fn peek_uncompressed_len_reads_the_declared_size() {
        let input = b"size peek ".repeat(70);
        let block = Matcher::new(MatcherConfig::default()).compress(&input);
        let encoded = ByteBlock::encode(&block).unwrap();
        let mut w = ByteWriter::new();
        encoded.serialize(&mut w);
        let bytes = w.finish();
        assert_eq!(ByteBlock::peek_uncompressed_len(&bytes).unwrap(), input.len() as u64);
        assert!(ByteBlock::peek_uncompressed_len(&[]).is_err());
    }

    #[test]
    fn truncated_payload_errors() {
        let input = b"abcabcabcabc".repeat(20);
        let block = Matcher::new(MatcherConfig::default()).compress(&input);
        let encoded = ByteBlock::encode(&block).unwrap();
        let mut truncated = encoded.clone();
        truncated.data.truncate(truncated.data.len() / 2);
        assert!(truncated.decode().is_err());
    }

    #[test]
    fn oversized_offset_is_rejected_at_encode_time() {
        let block = SequenceBlock {
            sequences: vec![Sequence { literal_len: 0, match_offset: 70_000, match_len: 4 }],
            literals: vec![],
            uncompressed_len: 4,
        };
        assert!(ByteBlock::encode(&block).is_err());
    }

    #[test]
    fn zero_offset_in_stream_is_rejected_at_decode_time() {
        // Token byte: 0 literals, match nibble 4; then offset 0.
        let bad = ByteBlock { n_sequences: 1, uncompressed_len: 4, data: vec![0x04, 0x00, 0x00] };
        assert!(bad.decode().is_err());
    }

    /// One sequence whose nibble in `token` is 15, followed by `prefix`
    /// (the offset, for a match) and an extension of 16,843,008 × 255 and a
    /// final 250: 15 + 4,294,967,290 = 2^32 + 9 overflows a `u32` length,
    /// though the extension bytes alone do not.
    fn overflowing_extension(token: u8, prefix: &[u8]) -> ByteBlock {
        let mut data = vec![token];
        data.extend_from_slice(prefix);
        data.resize(data.len() + 16_843_008, 0xFF);
        data.push(250);
        ByteBlock { n_sequences: 1, uncompressed_len: 10, data }
    }

    fn assert_rejects_overflow(block: &ByteBlock) {
        let overflow = FormatError::InvalidToken { reason: "length extension overflows" };
        assert_eq!(block.decode(), Err(overflow.clone()));
        assert_eq!(block.view().decompress_into(&mut [0u8; 10]), Err(overflow));
    }

    #[test]
    fn match_length_extension_past_u32_is_rejected() {
        assert_rejects_overflow(&overflowing_extension(0x0F, &[1, 0]));
    }

    #[test]
    fn literal_length_extension_past_u32_is_rejected() {
        assert_rejects_overflow(&overflowing_extension(0xF0, &[]));
    }

    #[test]
    fn fused_decode_writes_what_decode_then_execute_writes() {
        let mut input = b"fused decode, fused decode; ".repeat(30);
        input.extend((0..300u32).map(|i| (i.wrapping_mul(89) % 253) as u8));
        input.extend(std::iter::repeat_n(b'z', 500));
        let config = MatcherConfig { max_match_len: 600, ..MatcherConfig::default() };
        let encoded = ByteBlock::encode(&Matcher::new(config).compress(&input)).unwrap();
        let mut w = ByteWriter::new();
        encoded.serialize(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let view = ByteBlockView::parse(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(view, encoded.view());
        let mut out = vec![0u8; input.len()];
        view.decompress_into(&mut out).unwrap();
        assert_eq!(out, input);
        // A slot of any other size is rejected, as the size check does.
        for len in [input.len() - 1, input.len() + 1] {
            assert!(view.decompress_into(&mut vec![0u8; len]).is_err());
        }
    }
}
