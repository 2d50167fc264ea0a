//! Bounded-memory streaming compression and decompression.
//!
//! The in-memory [`crate::compress()`]/[`crate::decompress()`] APIs require the
//! whole input *and* output resident at once. The paper's file layout
//! (Figure 3: self-describing header, back-to-back independent blocks)
//! exists precisely so blocks can be processed without buffering the whole
//! file. Independent blocks need only two things from a streaming
//! pipeline, block order and a memory bound, so both directions run
//! through one pipeline over `std::io::Read`/`std::io::Write` with two
//! roles:
//!
//! * the **calling thread** reads and writes. While fewer than the
//!   in-flight bound of blocks are read but not yet written, it reads the
//!   next block into a recycled buffer and queues it for the workers; it
//!   writes finished blocks as soon as they are next in block order; when
//!   it can do neither, it waits for a worker. A block's buffers recycle
//!   only once the block has been written, which is what makes the bound
//!   hold even when one slow block stalls the in-order frontier;
//! * **workers** compress or decompress blocks independently, as jobs on
//!   the process-wide rayon pool ([`rayon::scope`]). On the way in they run
//!   the in-memory compressor's per-block function, which plans the block
//!   from its own bytes, so a streamed archive's blocks are byte-identical
//!   to the in-memory ones at any worker count. Both directions reuse the
//!   same per-worker scratch thread-locals (`SequenceBlock` +
//!   `MatcherScratch` + `EncodeScratch` on the way in, the decode
//!   `SequenceBlock` on the way out) as the in-memory hot paths. Pool
//!   threads outlive the run: the next run (the next daemon job, say) finds
//!   their scratch already grown.
//!
//! **Failure rule.** The first failure stops reading and writing. Blocks
//! already queued (at most the in-flight bound) still finish, and the error
//! of the lowest-indexed failing block is returned; a read error counts as
//! the block being read, a write error as the block being written. Blocks
//! are read in order, so the reported error depends only on the input, not
//! on the worker count or on timing.
//!
//! **Panic rule.** A panic in a worker becomes that block's
//! [`GompressoError::StagePanicked`]. A panic on the calling thread (in the
//! caller's own `Read` or `Write`, or in frame parsing) propagates to the
//! caller once the workers have stopped, as it would from `std::io::copy`.
//!
//! Files are framed with the incremental v4 container
//! ([`gompresso_format::stream_frame`]): a checksummed fixed prelude with
//! the file-wide match geometry (totals back-patched when the sink can
//! seek), block frames of `varint(payload_len) | BlockConfig |
//! content_checksum | payload` — the checksum is XXH64 of the block's
//! *uncompressed* bytes, verified by the decode workers unless
//! [`DecompressorConfig::verify_checksums`] is off — and a checksummed
//! trailer that repeats the block-size table for random-access readers.
//! Legacy v3 streams (per-frame configs, no checksums) and v2 streams
//! (uniform codec config in the prelude, configless frames) still decode;
//! the reader synthesizes the v2 per-block config from the prelude.
//!
//! Memory budget math (see `DESIGN.md` §4): a block in flight costs at most
//! one input buffer (`block_size`) plus one output buffer (≤ `block_size`
//! for decompression, ≤ `block_size` + framing slack for compression) plus
//! re-order slack — budgeted as `3 × block_size` per block. The pipeline
//! keeps `max(2, mem_budget / (3 × block_size))` blocks in flight (capped
//! at `2 × workers + 2`, beyond which extra buffers add nothing).

use crate::compress::{compress_block_with_scratch, COMPRESS_SCRATCH};
use crate::config::CompressorConfig;
use crate::decompress::{admit_block, decompress_block_checked, DecompressorConfig, Slot};
use crate::error::invalid_field;
use crate::{GompressoError, Result};
use gompresso_bitstream::{ByteReader, ByteWriter};
use gompresso_format::stream_frame::{
    prelude_len, write_frame_head, StreamPrelude, StreamTrailer, PRELUDE_HEAD_LEN, PRELUDE_LEN,
    STREAM_FORMAT_VERSION, UNCOMPRESSED_SIZE_OFFSET,
};
use gompresso_format::{token_code::TokenCoder, BlockConfig, FormatError, MAGIC, MAX_BLOCK_COUNT};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::Instant;

/// Default streaming memory budget when none is configured: 64 MiB.
pub const DEFAULT_MEM_BUDGET: usize = 64 << 20;

/// Statistics of one streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Total uncompressed bytes that crossed the pipeline.
    pub uncompressed_size: u64,
    /// Total container bytes (prelude + frames + terminator + trailer).
    pub compressed_size: u64,
    /// Number of data blocks processed.
    pub blocks: u64,
    /// Worker threads used by the transform stage.
    pub workers: usize,
    /// Block buffers circulating through the pipeline (the memory bound).
    pub blocks_in_flight: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

impl StreamStats {
    /// Compression ratio (uncompressed / compressed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            return 0.0;
        }
        self.uncompressed_size as f64 / self.compressed_size as f64
    }
}

/// Streaming Gompresso compressor with bounded memory.
#[derive(Debug, Clone)]
pub struct StreamCompressor {
    config: CompressorConfig,
    workers: usize,
    mem_budget: usize,
}

/// Streaming Gompresso decompressor with bounded memory.
#[derive(Debug, Clone)]
pub struct StreamDecompressor {
    config: DecompressorConfig,
    workers: usize,
    mem_budget: usize,
}

/// Number of worker threads to use: an explicit override, or the rayon
/// pool size (which `experiments --threads N` pins).
fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        rayon::current_num_threads().max(1)
    }
}

/// See the module docs for the budget math.
fn blocks_in_flight(mem_budget: usize, block_size: usize, workers: usize) -> usize {
    let per_block = 3usize.saturating_mul(block_size.max(1));
    let by_budget = (mem_budget / per_block).max(2);
    by_budget.min(2 * workers + 2)
}

/// Reads until `buf` is full or the source reports EOF; returns the number
/// of bytes read (a short count means EOF was reached). Public because it
/// is the canonical read-until-full loop other harness code (the bench
/// crate's file comparison) reuses.
pub fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Writes `value` as a LEB128 varint via the canonical
/// [`gompresso_bitstream::write_varint`] encoder; returns the encoded
/// length.
fn write_varint_io<W: Write>(w: &mut W, value: u64) -> std::io::Result<u64> {
    let mut buf = gompresso_bitstream::ByteWriter::with_capacity(gompresso_bitstream::MAX_VARINT_LEN);
    gompresso_bitstream::write_varint(&mut buf, value);
    w.write_all(buf.as_slice())?;
    Ok(buf.len() as u64)
}

/// Reads a LEB128 varint from an `io::Read`; mirrors
/// [`gompresso_bitstream::read_varint`] including the overflow rules.
fn read_varint_io<R: Read>(r: &mut R) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for _ in 0..gompresso_bitstream::MAX_VARINT_LEN {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let payload = u64::from(byte[0] & 0x7F);
        if shift == 63 && payload > 1 {
            return Err(varint_overflow());
        }
        value |= payload << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(varint_overflow())
}

fn varint_overflow() -> GompressoError {
    GompressoError::Format(FormatError::Stream(gompresso_bitstream::StreamError::VarintOverflow))
}

/// Reads a stream prelude from the front of `r`: the magic + version head,
/// then the version-sized rest, handed to `parse` (strict or lenient).
/// Returns what `parse` made of it and the prelude's length, which is where
/// the first frame starts. The one prelude fetch of every stream reader.
pub(crate) fn read_prelude<R: Read, T>(
    r: &mut R,
    parse: impl FnOnce(&[u8]) -> gompresso_format::Result<T>,
) -> Result<(T, u64)> {
    let mut bytes = vec![0u8; PRELUDE_HEAD_LEN];
    r.read_exact(&mut bytes)?;
    if bytes[..4] != MAGIC {
        return Err(GompressoError::Format(FormatError::BadMagic));
    }
    bytes.resize(prelude_len(bytes[4])?, 0);
    r.read_exact(&mut bytes[PRELUDE_HEAD_LEN..])?;
    Ok((parse(&bytes)?, bytes.len() as u64))
}

/// Granularity of the streaming decompressor's frame reads: the buffer for
/// a declared frame length grows one step at a time as bytes actually
/// arrive, so a crafted length can cost at most one step of allocation
/// beyond the bytes the stream really contains.
const FRAME_READ_STEP: usize = 1 << 20;

/// Fills `buf` with exactly `len` bytes from `r`, growing the buffer in
/// [`FRAME_READ_STEP`] increments. EOF surfaces as a truncated `block`.
fn read_frame_growing<R: Read>(r: &mut R, buf: &mut Vec<u8>, len: usize, block: u64) -> Result<()> {
    buf.clear();
    while buf.len() < len {
        let start = buf.len();
        let step = (len - start).min(FRAME_READ_STEP);
        buf.resize(start + step, 0);
        r.read_exact(&mut buf[start..]).map_err(|e| truncated_block(e, block))?;
    }
    Ok(())
}

/// Maps an EOF during a block's bytes to `TruncatedBlock`; passes other
/// I/O errors through.
fn truncated_block(e: std::io::Error, block: u64) -> GompressoError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        GompressoError::Format(FormatError::TruncatedBlock { block: block as usize })
    } else {
        e.into()
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What the decompression reader learns from a frame head, travelling with
/// the frame's payload to a worker.
struct FrameHead {
    config: BlockConfig,
    /// The content checksum a v4 frame carries; `None` for legacy frames.
    checksum: Option<u64>,
    /// Byte offset of the frame in the compressed stream, for error
    /// context.
    offset: u64,
}

/// One block between the calling thread and a worker: its index, its input
/// and output buffers, and `T` — what `read` learned about the block on the
/// way to the worker, the worker's outcome on the way back.
struct Block<T> {
    idx: u64,
    input: Vec<u8>,
    output: Vec<u8>,
    with: T,
}

/// Keeps the error of the lowest-indexed failing block.
fn record_failure(failure: &mut Option<(u64, GompressoError)>, idx: u64, e: GompressoError) {
    if failure.as_ref().is_none_or(|&(first, _)| idx < first) {
        *failure = Some((idx, e));
    }
}

/// The pipeline both stream directions run through (see the module docs
/// for the two roles and the failure and panic rules).
///
/// The calling thread calls `read(idx, input)` to fill block `idx`'s input
/// buffer (`Ok(None)` at the end of the input) and `emit(meta, output)` on
/// each finished block in block order; `workers` pool jobs call
/// `work(idx, input, meta, output)` to turn one block's input into its
/// output. At most `in_flight` blocks are read but not yet emitted, and
/// each holds one input and one output buffer, recycled once it has been
/// emitted. A panic in `work` becomes `StagePanicked { stage }`.
fn run_pipeline<M: Send, F: Send>(
    workers: usize,
    in_flight: usize,
    stage: &'static str,
    mut read: impl FnMut(u64, &mut Vec<u8>) -> Result<Option<M>>,
    work: impl Fn(u64, &[u8], M, &mut Vec<u8>) -> Result<F> + Sync,
    mut emit: impl FnMut(F, &[u8]) -> Result<()>,
) -> Result<()> {
    let (job_tx, job_rx) = mpsc::channel::<Block<M>>();
    let (done_tx, done_rx) = mpsc::channel::<Block<Result<F>>>();
    let job_rx = &Mutex::new(job_rx);
    let work = &work;
    // `move`: the scope closure owns the job sender, so a panic in `read` or
    // `emit` drops it while unwinding, the workers' `recv` fails, and the
    // scope's wait for them returns.
    rayon::scope(move |s| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            s.spawn(move || loop {
                // A separate statement, so the lock is released before the
                // block is worked on. Nothing panics while holding it.
                let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok(Block { idx, input, mut output, with }) = job else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| work(idx, &input, with, &mut output)))
                    .unwrap_or_else(|p| {
                        Err(GompressoError::StagePanicked { stage, message: panic_message(p.as_ref()) })
                    });
                if done_tx.send(Block { idx, input, output, with: outcome }).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);

        let mut spare: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut finished: BTreeMap<u64, Block<F>> = BTreeMap::new();
        let mut failure: Option<(u64, GompressoError)> = None;
        let (mut next_read, mut next_emit, mut working, mut ended) = (0u64, 0u64, 0usize, false);
        loop {
            while failure.is_none() {
                let Some(block) = finished.remove(&next_emit) else { break };
                let emitted = emit(block.with, &block.output);
                spare.push((block.input, block.output));
                match emitted {
                    Ok(()) => next_emit += 1,
                    Err(e) => record_failure(&mut failure, next_emit, e),
                }
            }
            if failure.is_none() && !ended && next_read - next_emit < in_flight as u64 {
                let (mut input, output) = spare.pop().unwrap_or_default();
                match read(next_read, &mut input) {
                    Ok(Some(with)) => {
                        let block = Block { idx: next_read, input, output, with };
                        job_tx.send(block).expect("the job receiver outlives the scope");
                        next_read += 1;
                        working += 1;
                    }
                    Ok(None) => ended = true,
                    Err(e) => record_failure(&mut failure, next_read, e),
                }
            } else if working > 0 {
                let Block { idx, input, output, with } =
                    done_rx.recv().expect("a worker answers every block it takes");
                working -= 1;
                match with {
                    Ok(with) => {
                        finished.insert(idx, Block { idx, input, output, with });
                    }
                    Err(e) => record_failure(&mut failure, idx, e),
                }
            } else {
                return failure.map_or(Ok(()), |(_, e)| Err(e));
            }
        }
    })
}

/// `io::Read` adapter counting every byte that passes through it.
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

impl StreamCompressor {
    /// Creates a streaming compressor after validating the configuration.
    pub fn new(config: CompressorConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config, workers: 0, mem_budget: DEFAULT_MEM_BUDGET })
    }

    /// Sets the number of worker threads (0 = size of the rayon pool).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the memory budget in bytes (0 = [`DEFAULT_MEM_BUDGET`]). The
    /// pipeline never holds more than `max(2, budget / (3 × block_size))`
    /// blocks in flight; two blocks is the floor below which the pipeline
    /// cannot overlap stages.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = if bytes == 0 { DEFAULT_MEM_BUDGET } else { bytes };
        self
    }

    /// The compressor configuration in use.
    pub fn config(&self) -> &CompressorConfig {
        &self.config
    }

    /// Compresses `reader` into `writer` using the v4 streaming framing.
    /// The sink need not seek: the prelude totals stay at their sentinel
    /// and readers learn them from the trailer.
    pub fn compress<R: Read, W: Write>(&self, reader: R, mut writer: W) -> Result<StreamStats> {
        self.run(reader, &mut writer)
    }

    /// Like [`StreamCompressor::compress`], but additionally back-patches
    /// the prelude's uncompressed-size and block-count fields once the run
    /// completes, so the resulting file is self-describing from the front.
    pub fn compress_seekable<R: Read, W: Write + Seek>(
        &self,
        reader: R,
        mut writer: W,
    ) -> Result<StreamStats> {
        let prelude_start = writer.stream_position()?;
        let stats = self.run(reader, &mut writer)?;
        let end = writer.stream_position()?;
        writer.seek(SeekFrom::Start(prelude_start + UNCOMPRESSED_SIZE_OFFSET as u64))?;
        // uncompressed_size and block_count are contiguous in the prelude.
        let mut totals = [0u8; 16];
        totals[..8].copy_from_slice(&stats.uncompressed_size.to_le_bytes());
        totals[8..].copy_from_slice(&stats.blocks.to_le_bytes());
        writer.write_all(&totals)?;
        writer.seek(SeekFrom::Start(end))?;
        writer.flush()?;
        Ok(stats)
    }

    fn prelude(&self) -> StreamPrelude {
        let cfg = &self.config;
        StreamPrelude {
            version: STREAM_FORMAT_VERSION,
            window_size: cfg.window_size as u32,
            min_match_len: cfg.min_match_len as u32,
            max_match_len: cfg.max_match_len as u32,
            block_size: cfg.block_size as u32,
            uncompressed_size: None,
            block_count: None,
            legacy_uniform: None,
        }
    }

    fn run<R: Read, W: Write>(&self, mut reader: R, writer: &mut W) -> Result<StreamStats> {
        let start = Instant::now();
        let cfg = &self.config;
        let block_size = cfg.block_size;
        let settings = cfg.file_settings();
        let coder =
            TokenCoder::new(cfg.min_match_len as u32, cfg.max_match_len as u32, cfg.window_size as u32)?;
        let workers = effective_workers(self.workers);
        let in_flight = blocks_in_flight(self.mem_budget, block_size, workers);

        let prelude = self.prelude();
        prelude.validate().map_err(GompressoError::Format)?;
        writer.write_all(&prelude.serialize())?;
        let mut container_bytes = PRELUDE_LEN as u64;

        let mut block_sizes: Vec<u32> = Vec::new();
        let mut total_in = 0u64;
        run_pipeline(
            workers,
            in_flight,
            "compress worker",
            // Read block-sized chunks.
            |idx, buf| {
                buf.resize(block_size, 0);
                let n = read_full(&mut reader, buf)?;
                if n == 0 {
                    return Ok(None);
                }
                buf.truncate(n);
                total_in += n as u64;
                if idx >= MAX_BLOCK_COUNT {
                    return Err(invalid_field("block_count", idx + 1));
                }
                Ok(Some(()))
            },
            // Plan, match, entropy-code and checksum each block exactly as
            // the in-memory compressor does.
            |idx, buf, (), out| {
                let block = COMPRESS_SCRATCH
                    .with(|scratch| {
                        compress_block_with_scratch(buf, cfg, &settings, &coder, &mut scratch.borrow_mut())
                    })
                    .map_err(|e| e.in_block(idx, None))?;
                *out = block.payload.bytes;
                Ok((block.config, block.checksum))
            },
            // Emit the frame head (payload length, the block's config
            // record, the content checksum of its uncompressed bytes), then
            // the payload.
            |(config, checksum), payload| {
                let len = u32::try_from(payload.len())
                    .map_err(|_| invalid_field("block_compressed_size", payload.len() as u64))?;
                let mut head = ByteWriter::new();
                write_frame_head(&mut head, len, &config, checksum);
                writer.write_all(head.as_slice())?;
                writer.write_all(payload)?;
                container_bytes += (head.len() + payload.len()) as u64;
                block_sizes.push(len);
                Ok(())
            },
        )?;

        container_bytes += write_varint_io(writer, 0)?;
        let blocks = block_sizes.len() as u64;
        let trailer = StreamTrailer { block_compressed_sizes: block_sizes, uncompressed_size: total_in };
        let trailer_bytes = trailer.serialize();
        writer.write_all(&trailer_bytes)?;
        container_bytes += trailer_bytes.len() as u64;
        writer.flush()?;

        Ok(StreamStats {
            uncompressed_size: total_in,
            compressed_size: container_bytes,
            blocks,
            workers,
            blocks_in_flight: in_flight,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

impl StreamDecompressor {
    /// Creates a streaming decompressor.
    pub fn new(config: DecompressorConfig) -> Self {
        Self { config, workers: 0, mem_budget: DEFAULT_MEM_BUDGET }
    }

    /// Sets the number of worker threads (0 = size of the rayon pool).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the memory budget in bytes (0 = [`DEFAULT_MEM_BUDGET`]); see
    /// [`StreamCompressor::with_mem_budget`].
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = if bytes == 0 { DEFAULT_MEM_BUDGET } else { bytes };
        self
    }

    /// The decompressor configuration in use.
    pub fn config(&self) -> &DecompressorConfig {
        &self.config
    }

    /// Decompresses a v4 (or legacy v3/v2) streaming file from `reader`
    /// into `writer`, validating the framing as it goes: every block's
    /// declared size is bounds- and plausibility-checked before its output
    /// buffer is allocated, only the final block may be shorter than the
    /// block size, v4 per-frame content checksums are verified (unless
    /// [`DecompressorConfig::verify_checksums`] is off), and the trailer's
    /// block table and totals must agree with what was actually read and
    /// produced.
    pub fn decompress<R: Read, W: Write>(&self, reader: R, mut writer: W) -> Result<StreamStats> {
        let start = Instant::now();
        let mut r = CountingReader { inner: reader, count: 0 };
        let (prelude, _) = read_prelude(&mut r, StreamPrelude::deserialize)?;
        let coder = TokenCoder::new(prelude.min_match_len, prelude.max_match_len, prelude.window_size)?;
        let block_size = prelude.block_size as usize;

        let workers = effective_workers(self.workers);
        let in_flight = blocks_in_flight(self.mem_budget, block_size, workers);
        let (slot, max_match) = (Slot::UpTo(block_size as u64), prelude.max_match_len);

        let mut observed: Vec<u32> = Vec::new();
        let mut head = vec![0u8; prelude.frame_overhead()];
        let mut total_out = 0u64;
        let mut blocks_written = 0u64;
        let mut saw_short = false;
        run_pipeline(
            workers,
            in_flight,
            "decompress worker",
            // Split the stream into length-prefixed frames, parsing each
            // frame head.
            |idx, buf| {
                let offset = r.count;
                let len = read_varint_io(&mut r)?;
                if len == 0 {
                    return Ok(None);
                }
                if len > prelude.max_payload_len() || len > u64::from(u32::MAX) {
                    return Err(invalid_field("block_compressed_size", len));
                }
                if idx >= MAX_BLOCK_COUNT {
                    return Err(invalid_field("block_count", idx + 1));
                }
                r.read_exact(&mut head).map_err(|e| truncated_block(e, idx))?;
                let (config, checksum) = prelude.parse_frame_head(&mut ByteReader::new(&head))?;
                // Grow the buffer as bytes actually arrive: a frame length
                // lying about the remaining stream costs at most one read
                // step of allocation, even when the prelude declares a huge
                // (but validator-legal) block size.
                read_frame_growing(&mut r, buf, len as usize, idx)?;
                observed.push(len as u32);
                Ok(Some(FrameHead { config, checksum, offset }))
            },
            // Admit each block's declared size, then decode into the
            // recycled output buffer. Resizing only zero-fills its grown
            // tail; a decode succeeds only once every byte of it was written.
            |idx, payload, frame, out| {
                admit_block(frame.config.mode, payload, slot, max_match)
                    .and_then(|n| {
                        out.resize(n as usize, 0);
                        let i = idx as usize;
                        decompress_block_checked(
                            &self.config,
                            &frame.config,
                            &coder,
                            i,
                            payload,
                            frame.checksum,
                            out,
                        )
                    })
                    .map_err(|e| e.in_block(idx, Some(frame.offset)))
            },
            // Emit decoded blocks, enforcing that only the final block is
            // short.
            |(), out| {
                if saw_short {
                    // A block shorter than block_size that is not the
                    // file's last block breaks the layout.
                    return Err(invalid_field("block_uncompressed_size", out.len() as u64));
                }
                saw_short = out.len() < block_size;
                writer.write_all(out)?;
                total_out += out.len() as u64;
                blocks_written += 1;
                Ok(())
            },
        )?;

        // The trailer is everything that remains; cap the read so a hostile
        // stream cannot make us buffer unbounded garbage.
        let cap = 64 + 5 * (observed.len() as u64 + 1);
        let mut trailer_bytes = Vec::new();
        (&mut r).take(cap + 1).read_to_end(&mut trailer_bytes)?;
        let trailer = StreamTrailer::deserialize(&trailer_bytes, prelude.checksummed())?;

        // Framing cross-checks: what the trailer (and, if patched, the
        // prelude) declares must agree with what was actually read and
        // produced — a file lying about any total is rejected, not padded
        // or truncated.
        if trailer.block_compressed_sizes != observed {
            return Err(invalid_field("block_compressed_sizes", trailer.block_compressed_sizes.len() as u64));
        }
        if trailer.uncompressed_size != total_out {
            return Err(GompressoError::OutputSizeMismatch {
                declared: trailer.uncompressed_size,
                produced: total_out,
            });
        }
        if let Some(declared) = prelude.uncompressed_size {
            if declared != total_out {
                return Err(GompressoError::OutputSizeMismatch { declared, produced: total_out });
            }
        }
        if let Some(declared) = prelude.block_count {
            if declared != blocks_written {
                return Err(invalid_field("block_count", declared));
            }
        }
        writer.flush()?;

        Ok(StreamStats {
            uncompressed_size: total_out,
            compressed_size: r.count,
            blocks: blocks_written,
            workers,
            blocks_in_flight: in_flight,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

/// Compresses the file at `input` into a v4 streaming container at
/// `output` with bounded memory, back-patching the prelude totals (the
/// output file is seekable by construction). Uses the rayon pool size for
/// workers and the default memory budget; build a [`StreamCompressor`]
/// directly for finer control.
pub fn compress_file(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    config: &CompressorConfig,
) -> Result<StreamStats> {
    let reader = BufReader::new(File::open(input)?);
    let writer = BufWriter::new(File::create(output)?);
    StreamCompressor::new(config.clone())?.compress_seekable(reader, writer)
}

/// Decompresses the streaming container at `input` into `output` with
/// bounded memory and the default decompressor configuration; build a
/// [`StreamDecompressor`] directly for finer control.
pub fn decompress_file(input: impl AsRef<Path>, output: impl AsRef<Path>) -> Result<StreamStats> {
    let reader = BufReader::new(File::open(input)?);
    let writer = BufWriter::new(File::create(output)?);
    StreamDecompressor::new(DecompressorConfig::default()).decompress(reader, writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::decompress::decompress;
    use gompresso_bitstream::ByteWriter;
    use gompresso_format::stream_frame::{LEGACY_STREAM_FORMAT_VERSION, TRAILER_MAGIC, UNKNOWN_TOTAL};
    use gompresso_format::{content_checksum, CompressedFile, EncodingMode, BLOCK_CONFIG_LEN};
    use std::io::Cursor;

    /// Byte-for-byte the checksum-less trailer layout v2/v3 streams carry.
    fn legacy_trailer_bytes(sizes: &[u32], total: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        gompresso_bitstream::write_varint(&mut w, sizes.len() as u64);
        for &s in sizes {
            gompresso_bitstream::write_varint(&mut w, u64::from(s));
        }
        w.write_u64_le(total);
        let table_len = w.len() as u32;
        w.write_u32_le(table_len);
        w.write_bytes(&TRAILER_MAGIC);
        w.finish()
    }

    fn wiki_like(len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len + 128);
        let mut i = 0u64;
        while data.len() < len {
            data.extend_from_slice(
                format!("<doc id=\"{i}\">the quick brown fox, entry {} of the stream corpus</doc>\n", i % 97)
                    .as_bytes(),
            );
            i += 1;
        }
        data.truncate(len);
        data
    }

    fn noise(len: usize) -> Vec<u8> {
        // xorshift64: incompressible to both the entropy and LZ77 stages.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn small(mut c: CompressorConfig) -> CompressorConfig {
        c.block_size = 32 * 1024;
        c
    }

    fn stream_roundtrip(data: &[u8], cfg: &CompressorConfig, workers: usize, budget: usize) -> Vec<u8> {
        let compressor =
            StreamCompressor::new(cfg.clone()).unwrap().with_workers(workers).with_mem_budget(budget);
        let mut compressed = Vec::new();
        let cstats = compressor.compress(data, &mut compressed).unwrap();
        assert_eq!(cstats.uncompressed_size, data.len() as u64);
        assert_eq!(cstats.compressed_size, compressed.len() as u64);
        assert_eq!(cstats.blocks, (data.len() as u64).div_ceil(cfg.block_size as u64));

        let decompressor = StreamDecompressor::new(DecompressorConfig::default())
            .with_workers(workers)
            .with_mem_budget(budget);
        let mut restored = Vec::new();
        let dstats = decompressor.decompress(compressed.as_slice(), &mut restored).unwrap();
        assert_eq!(dstats.uncompressed_size, data.len() as u64);
        assert_eq!(dstats.compressed_size, compressed.len() as u64);
        assert_eq!(dstats.blocks, cstats.blocks);
        restored
    }

    #[test]
    fn roundtrip_all_modes_and_worker_counts() {
        let data = wiki_like(200_000); // 7 blocks, short tail
        for cfg in [
            small(CompressorConfig::bit()),
            small(CompressorConfig::byte()),
            small(CompressorConfig::bit_de()),
            small(CompressorConfig::byte_de()),
        ] {
            for workers in [1, 3] {
                let restored = stream_roundtrip(&data, &cfg, workers, 1 << 20);
                assert_eq!(restored, data, "mode {:?} workers {workers}", cfg.mode);
            }
        }
    }

    #[test]
    fn adaptive_stream_roundtrips_heterogeneous_data() {
        // Text + noise through the adaptive planner: the archive mixes
        // per-block modes and must still round-trip exactly.
        let mut data = wiki_like(150_000);
        data.extend_from_slice(&noise(150_000));
        let cfg = small(CompressorConfig::auto());
        for workers in [1, 3] {
            let restored = stream_roundtrip(&data, &cfg, workers, 1 << 20);
            assert_eq!(restored, data, "workers {workers}");
        }
    }

    #[test]
    fn bounded_budget_handles_input_many_times_its_size() {
        // 4 MiB of data through a 1 MiB budget: with 32 KiB blocks the
        // pipeline holds at most max(2, 1Mi/96Ki) = 10 blocks in flight.
        let data = wiki_like(4 << 20);
        let cfg = small(CompressorConfig::byte_de());
        let compressor = StreamCompressor::new(cfg.clone()).unwrap().with_workers(2).with_mem_budget(1 << 20);
        let mut compressed = Vec::new();
        let cstats = compressor.compress(data.as_slice(), &mut compressed).unwrap();
        assert!(cstats.blocks_in_flight <= 10, "in-flight {} exceeds budget", cstats.blocks_in_flight);
        let mut restored = Vec::new();
        StreamDecompressor::new(DecompressorConfig::default())
            .with_workers(2)
            .with_mem_budget(1 << 20)
            .decompress(compressed.as_slice(), &mut restored)
            .unwrap();
        assert_eq!(restored, data);
    }

    /// 16 blocks of 32 KiB on which planning from other blocks' outcomes
    /// would change plans: blocks 0 and 2 open with 8 KiB of noise (probed
    /// as incompressible, so coded Byte) and continue with 24 KiB of one
    /// repeated sentence, so they compress far better than their probe
    /// predicts; the other 14 are xorshift64 bytes mod 160, which probe at
    /// about 7.3 bits/byte with sparse matches.
    fn borderline(block_size: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 24
        };
        let sentence = b"a block planned from its own bytes compresses the same everywhere. ";
        let mut data = Vec::with_capacity(16 * block_size);
        for block in 0..16 {
            if block == 0 || block == 2 {
                data.extend((0..8 * 1024).map(|_| next() as u8));
                data.extend(sentence.iter().copied().cycle().take(block_size - 8 * 1024));
            } else {
                data.extend((0..block_size).map(|_| (next() % 160) as u8));
            }
        }
        data
    }

    #[test]
    fn streamed_blocks_are_byte_identical_to_in_memory_compression() {
        for cfg in [small(CompressorConfig::bit_de()), small(CompressorConfig::auto())] {
            for data in [wiki_like(150_000), borderline(cfg.block_size)] {
                let reference = compress(&data, &cfg).unwrap();
                let chunks: Vec<&[u8]> = data.chunks(cfg.block_size).collect();
                for workers in [1, 2, 4] {
                    for run in 0..3 {
                        let ctx = format!("{:?} workers {workers} run {run}", cfg.planning);
                        let mut compressed = Vec::new();
                        StreamCompressor::new(cfg.clone())
                            .unwrap()
                            .with_workers(workers)
                            .compress(data.as_slice(), &mut compressed)
                            .unwrap();

                        // Walk the frames and compare each payload (and
                        // config record) to the in-memory block.
                        let mut r = compressed.as_slice();
                        let mut prelude = [0u8; PRELUDE_LEN];
                        r.read_exact(&mut prelude).unwrap();
                        for (i, expected) in reference.file.blocks.iter().enumerate() {
                            let len = read_varint_io(&mut r).unwrap() as usize;
                            let mut config_bytes = [0u8; BLOCK_CONFIG_LEN];
                            r.read_exact(&mut config_bytes).unwrap();
                            let config =
                                BlockConfig::deserialize(&mut ByteReader::new(&config_bytes)).unwrap();
                            assert_eq!(&config, reference.file.header.block_config(i), "block {i}, {ctx}");
                            let mut sum = [0u8; 8];
                            r.read_exact(&mut sum).unwrap();
                            assert_eq!(
                                u64::from_le_bytes(sum),
                                content_checksum(chunks[i]),
                                "frame checksum of block {i} must hash the uncompressed chunk, {ctx}"
                            );
                            let mut payload = vec![0u8; len];
                            r.read_exact(&mut payload).unwrap();
                            assert_eq!(payload, expected.bytes, "block {i} differs from in memory, {ctx}");
                        }
                        assert_eq!(read_varint_io(&mut r).unwrap(), 0, "terminator after the last block");
                    }
                }
            }
        }
    }

    #[test]
    fn seekable_sink_gets_patched_prelude_totals() {
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::byte());
        let mut sink = Cursor::new(Vec::new());
        let stats =
            StreamCompressor::new(cfg).unwrap().compress_seekable(data.as_slice(), &mut sink).unwrap();
        let bytes = sink.into_inner();
        let mut prelude_bytes = [0u8; PRELUDE_LEN];
        prelude_bytes.copy_from_slice(&bytes[..PRELUDE_LEN]);
        let prelude = StreamPrelude::deserialize(&prelude_bytes).unwrap();
        assert_eq!(prelude.uncompressed_size, Some(data.len() as u64));
        assert_eq!(prelude.block_count, Some(stats.blocks));
        // The patched file still decompresses (totals are cross-checked).
        let mut restored = Vec::new();
        StreamDecompressor::new(DecompressorConfig::default())
            .decompress(bytes.as_slice(), &mut restored)
            .unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_input_roundtrips() {
        let restored = stream_roundtrip(&[], &small(CompressorConfig::bit()), 2, 0);
        assert!(restored.is_empty());
    }

    #[test]
    fn file_convenience_apis_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gompresso-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("input.bin");
        let packed = dir.join("packed.gpso");
        let output = dir.join("output.bin");
        let data = wiki_like(120_000);
        std::fs::write(&input, &data).unwrap();

        let cstats = compress_file(&input, &packed, &small(CompressorConfig::bit_de())).unwrap();
        assert_eq!(cstats.uncompressed_size, data.len() as u64);
        assert!(cstats.ratio() > 1.0);
        let dstats = decompress_file(&packed, &output).unwrap();
        assert_eq!(dstats.uncompressed_size, data.len() as u64);
        assert_eq!(std::fs::read(&output).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v2_stream_decodes_with_uniform_config() {
        // Hand-assemble a v2 stream (uniform config in the prelude,
        // configless frames) around payloads from the in-memory compressor:
        // block payloads are container-independent, so this is exactly the
        // byte layout a pre-v3 writer produced.
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::byte());
        let reference = compress(&data, &cfg).unwrap();

        let mut v2 = Vec::new();
        let mut w = ByteWriter::new();
        w.write_bytes(&MAGIC);
        w.write_u8(LEGACY_STREAM_FORMAT_VERSION);
        w.write_u8(1); // mode tag: Byte
        w.write_u32_le(cfg.window_size as u32);
        w.write_u32_le(cfg.min_match_len as u32);
        w.write_u32_le(cfg.max_match_len as u32);
        w.write_u32_le(cfg.block_size as u32);
        w.write_u32_le(cfg.sequences_per_sub_block);
        w.write_u8(cfg.max_codeword_len);
        w.write_u64_le(UNKNOWN_TOTAL);
        w.write_u64_le(UNKNOWN_TOTAL);
        v2.extend_from_slice(w.as_slice());
        let mut sizes = Vec::new();
        for block in &reference.file.blocks {
            write_varint_io(&mut v2, block.bytes.len() as u64).unwrap();
            v2.extend_from_slice(&block.bytes);
            sizes.push(block.bytes.len() as u32);
        }
        write_varint_io(&mut v2, 0).unwrap();
        v2.extend_from_slice(&legacy_trailer_bytes(&sizes, data.len() as u64));

        let mut restored = Vec::new();
        let stats = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(v2.as_slice(), &mut restored)
            .unwrap();
        assert_eq!(restored, data);
        assert_eq!(stats.blocks, reference.file.blocks.len() as u64);
    }

    #[test]
    fn v1_container_is_rejected_with_version_error() {
        // A legacy v1 *in-memory* container is not a stream: the prelude
        // reader must reject its version byte before parsing anything else.
        let mut v1_bytes = MAGIC.to_vec();
        v1_bytes.push(1);
        v1_bytes.extend_from_slice(&[0u8; 64]);
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(v1_bytes.as_slice(), &mut restored);
        assert!(
            matches!(err, Err(GompressoError::Format(FormatError::UnsupportedVersion(1)))),
            "got {err:?}"
        );
    }

    #[test]
    fn in_memory_container_is_rejected_by_stream_decoder() {
        // The v3 in-memory container shares the magic and version byte with
        // the v3 stream prelude but not the layout; feeding one to the
        // stream decoder must surface as an error, never as garbage output.
        let data = wiki_like(50_000);
        let out = compress(&data, &small(CompressorConfig::byte())).unwrap();
        let container = out.file.serialize();
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(container.as_slice(), &mut restored);
        assert!(err.is_err(), "in-memory container must not stream-decode: {err:?}");
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::byte());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        for cut in
            [PRELUDE_LEN - 1, PRELUDE_LEN + 1, PRELUDE_LEN + 9, compressed.len() / 2, compressed.len() - 1]
        {
            let mut restored = Vec::new();
            let err = StreamDecompressor::new(DecompressorConfig::default())
                .decompress(&compressed[..cut], &mut restored);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn huge_declared_frame_length_is_rejected_before_allocating() {
        // A ~50-byte crafted stream whose first frame claims u32::MAX bytes
        // must be rejected by the frame-length plausibility bound, not by
        // first allocating (and zero-filling) a 4 GiB buffer and hitting
        // EOF. Anything above 2 × block_size + slack is impossible output
        // of the compressor, so the cut-off loses no valid files.
        let cfg = small(CompressorConfig::byte());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg.clone()).unwrap().compress(&b"some bytes"[..], &mut compressed).unwrap();
        for hostile_len in [u64::from(u32::MAX), 2 * cfg.block_size as u64 + 4097] {
            let mut crafted = compressed[..PRELUDE_LEN].to_vec();
            let mut w = ByteWriter::new();
            gompresso_bitstream::write_varint(&mut w, hostile_len);
            crafted.extend_from_slice(w.as_slice());
            let mut restored = Vec::new();
            let err = StreamDecompressor::new(DecompressorConfig::default())
                .decompress(crafted.as_slice(), &mut restored);
            assert!(
                matches!(
                    err,
                    Err(GompressoError::Format(FormatError::InvalidHeaderField {
                        field: "block_compressed_size",
                        value,
                    })) if value == hostile_len
                ),
                "len {hostile_len}: got {err:?}"
            );
        }
    }

    #[test]
    fn hostile_frame_config_bytes_are_rejected() {
        // A valid stream up to the first frame's config record, then a
        // config with a reserved flag bit / bad mode tag: the reader must
        // reject the record before buffering the frame payload.
        let data = wiki_like(50_000);
        let cfg = small(CompressorConfig::byte());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        // The first frame: varint length (frames here are < 2^14, so up to
        // two bytes), then the 8-byte config.
        let mut r = &compressed[PRELUDE_LEN..];
        let _ = read_varint_io(&mut r).unwrap();
        let config_at = compressed.len() - r.len();
        for (offset, bad) in [(0usize, 7u8), (1, 9), (2, 0x80)] {
            let mut tampered = compressed.clone();
            tampered[config_at + offset] = bad;
            let mut restored = Vec::new();
            let err = StreamDecompressor::new(DecompressorConfig::default())
                .decompress(tampered.as_slice(), &mut restored);
            assert!(
                matches!(err, Err(GompressoError::Format(FormatError::InvalidHeaderField { .. }))),
                "offset {offset} value {bad:#x}: got {err:?}"
            );
        }
    }

    #[test]
    fn giant_block_size_prelude_cannot_force_giant_allocations() {
        // A hostile prelude may declare block_size up to the validator's
        // 1 GiB cap, which legalises frame lengths up to ~2 GiB. The frame
        // buffer must grow only as bytes actually arrive, so this ~60-byte
        // stream costs at most one read step (1 MiB) before the truncation
        // is detected — not a multi-GiB zero-filled allocation.
        let prelude = StreamPrelude {
            version: STREAM_FORMAT_VERSION,
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            block_size: 1 << 30,
            uncompressed_size: None,
            block_count: None,
            legacy_uniform: None,
        };
        prelude.validate().expect("hostile prelude is validator-legal");
        let mut crafted = prelude.serialize().to_vec();
        let mut w = ByteWriter::new();
        gompresso_bitstream::write_varint(&mut w, 2 * (1u64 << 30));
        crafted.extend_from_slice(w.as_slice());
        // Follow with a full, valid config record so the truncation is hit
        // inside the frame payload read, as in the pre-v3 scenario.
        let mut cw = ByteWriter::new();
        BlockConfig::legacy_uniform(EncodingMode::Byte, 16, 10).serialize(&mut cw);
        crafted.extend_from_slice(cw.as_slice());
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(crafted.as_slice(), &mut restored);
        assert!(
            matches!(err, Err(GompressoError::Format(FormatError::TruncatedBlock { block: 0 }))),
            "got {err:?}"
        );
    }

    #[test]
    fn tampered_trailer_total_is_rejected() {
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::byte());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        // Locate the trailer from its tail fields (u32 table length, magic).
        let table_len =
            u32::from_le_bytes(compressed[compressed.len() - 8..compressed.len() - 4].try_into().unwrap())
                as usize;
        let trailer_start = compressed.len() - 8 - table_len;

        // A raw flip in the trailer's total is caught by its checksum.
        let at = trailer_start + table_len - 16; // uncompressed_size u64
        let mut flipped = compressed.clone();
        flipped[at] ^= 1;
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(flipped.as_slice(), &mut restored);
        assert!(
            matches!(
                err,
                Err(GompressoError::Format(FormatError::ChecksumMismatch { what: "stream trailer", .. }))
            ),
            "expected trailer checksum mismatch, got {err:?}"
        );

        // A consistently re-serialized trailer (checksum valid, total
        // wrong) is still rejected by the totals cross-check.
        let mut trailer = StreamTrailer::deserialize(&compressed[trailer_start..], true).unwrap();
        trailer.uncompressed_size += 1;
        let mut tampered = compressed[..trailer_start].to_vec();
        tampered.extend_from_slice(&trailer.serialize());
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(tampered.as_slice(), &mut restored);
        assert!(
            matches!(err, Err(GompressoError::OutputSizeMismatch { .. })),
            "expected total mismatch, got {err:?}"
        );
    }

    #[test]
    fn panicking_stage_is_reported_not_aborted() {
        let result = run_pipeline(
            2,
            4,
            "compress worker",
            |idx, _| Ok((idx < 8).then_some(())),
            |idx, _, (), _| {
                if idx == 3 {
                    panic!("boom in block {idx}");
                }
                Ok(())
            },
            |(), _| Ok(()),
        );
        let err = result.unwrap_err();
        assert!(
            matches!(
                &err,
                GompressoError::StagePanicked { stage: "compress worker", message }
                    if message.contains("boom in block 3")
            ),
            "got {err:?}"
        );
    }

    /// A sink that panics on the write after its first `writes_left`.
    struct PanickingSink {
        writes_left: usize,
    }

    impl Write for PanickingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes_left == 0 {
                panic!("the sink fails");
            }
            self.writes_left -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Runs `call` on its own thread and reports whether it panicked. A
    /// call still running after 60 s fails the test instead of hanging it
    /// (and leaves its thread behind).
    fn panics_within_deadline(call: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(call)).is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the call neither returned nor panicked");
        runner.join().expect("the runner catches the call's panic");
        panicked
    }

    #[test]
    fn panicking_sink_ends_the_run_instead_of_hanging_it() {
        let cfg = small(CompressorConfig::bit());
        let data = wiki_like(20 * cfg.block_size);
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg.clone()).unwrap().compress(data.as_slice(), &mut compressed).unwrap();

        // The prelude is the compressor's first write, the first frame head
        // its second.
        let compressor = StreamCompressor::new(cfg).unwrap().with_workers(1).with_mem_budget(1);
        let compress = move || {
            let _ = compressor.compress(data.as_slice(), PanickingSink { writes_left: 1 });
        };
        assert!(panics_within_deadline(compress), "the compressor's sink panic was swallowed");

        let decompressor =
            StreamDecompressor::new(DecompressorConfig::default()).with_workers(1).with_mem_budget(1);
        let decompress = move || {
            let _ = decompressor.decompress(compressed.as_slice(), PanickingSink { writes_left: 0 });
        };
        assert!(panics_within_deadline(decompress), "the decompressor's sink panic was swallowed");
    }

    #[test]
    fn corrupted_frame_checksum_is_detected_with_block_context() {
        // Flip one bit inside the first frame's checksum field: the payload
        // still decodes, but the checksum verification must fail and carry
        // the block index and frame offset.
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::byte());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        let mut r = &compressed[PRELUDE_LEN..];
        let _ = read_varint_io(&mut r).unwrap();
        let sum_at = compressed.len() - r.len() + BLOCK_CONFIG_LEN;
        let mut tampered = compressed.clone();
        tampered[sum_at] ^= 1;
        let mut restored = Vec::new();
        let err = StreamDecompressor::new(DecompressorConfig::default())
            .decompress(tampered.as_slice(), &mut restored)
            .unwrap_err();
        assert!(
            matches!(err.root_cause(), GompressoError::BlockChecksumMismatch { block: 0, .. }),
            "got {err:?}"
        );
        assert!(
            matches!(err, GompressoError::InBlock { block: 0, offset: Some(off), .. } if off == PRELUDE_LEN as u64),
            "error must carry the frame offset"
        );
        assert!(err.is_corruption());

        // With verification off the flip is invisible: the checksum field
        // is not part of the decode.
        let mut restored = Vec::new();
        StreamDecompressor::new(DecompressorConfig { verify_checksums: false, ..Default::default() })
            .decompress(tampered.as_slice(), &mut restored)
            .unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn corrupted_block_payload_is_an_error_not_a_panic() {
        let data = wiki_like(100_000);
        let cfg = small(CompressorConfig::bit());
        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        let mid = compressed.len() / 2;
        for delta in [1u8, 97, 255] {
            let mut tampered = compressed.clone();
            tampered[mid] = tampered[mid].wrapping_add(delta);
            let mut restored = Vec::new();
            // Any outcome but a panic is acceptable; corruption in a length
            // field or payload must surface as Err.
            let _ = StreamDecompressor::new(DecompressorConfig::default())
                .decompress(tampered.as_slice(), &mut restored);
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        for bad in [
            CompressorConfig { block_size: 0, ..CompressorConfig::bit() },
            CompressorConfig { window_size: 0, ..CompressorConfig::bit() },
            CompressorConfig { min_match_len: 50, max_match_len: 10, ..CompressorConfig::bit() },
        ] {
            assert!(
                matches!(StreamCompressor::new(bad.clone()), Err(GompressoError::InvalidConfig { .. })),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn stream_output_matches_in_memory_decompression() {
        let data = wiki_like(180_000);
        let cfg = small(CompressorConfig::bit_de());
        let reference = compress(&data, &cfg).unwrap();
        let (in_memory, _) = decompress(&reference.file).unwrap();

        let mut compressed = Vec::new();
        StreamCompressor::new(cfg).unwrap().compress(data.as_slice(), &mut compressed).unwrap();
        let mut streamed = Vec::new();
        StreamDecompressor::new(DecompressorConfig::default())
            .decompress(compressed.as_slice(), &mut streamed)
            .unwrap();
        assert_eq!(streamed, in_memory, "streaming and in-memory paths must agree byte-for-byte");
        // And both equal the original, for good measure.
        assert_eq!(streamed, data);
        let _ = CompressedFile::deserialize(&reference.file.serialize()).unwrap();
    }
}
