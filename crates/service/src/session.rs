//! One connection = one session: the per-session request loop.
//!
//! A session thread owns its connection's buffered reader and writer and
//! loops over requests. Every failure mode has one clean exit: protocol
//! violations and hostile frames answer [`ErrCode::Protocol`], expired
//! deadlines answer [`ErrCode::Timeout`], corrupt job input answers
//! [`ErrCode::Corrupt`], transport deaths close silently — and in every
//! case only *this* session ends. The server wraps the whole loop in
//! `catch_unwind`, mirroring the stream pipeline's `StagePanicked`
//! isolation, so even a bug here costs one session, never the process.
//!
//! Jobs stream through the ordinary [`StreamCompressor`] /
//! [`StreamDecompressor`] pipelines via two adapters: [`FrameSource`]
//! presents incoming `Data` frames as an `io::Read` (so the pipeline reads
//! straight off the socket), and [`FrameSink`] slices produced bytes into
//! outgoing `Data` frames. The pipeline's reading and writing both run on
//! the session thread, which interleaves them block by block: output frames
//! flow back while input frames are still arriving. What keeps bounded
//! socket buffers from deadlocking a large transfer is the client's
//! separate sender thread, which keeps sending input while the client's
//! main thread drains the output.

use crate::admission::SessionSlot;
use crate::protocol::{
    read_frame, write_err, write_frame, CompressParams, ErrCode, FrameKind, JobSummary, DATA_CHUNK,
};
use crate::server::Shared;
use crate::stats::Bump;
use gompresso_core::{
    CompressorConfig, DecompressorConfig, GompressoError, StreamCompressor, StreamDecompressor, StreamStats,
};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on the block size a compression request may ask for; a hostile
/// request cannot force a per-block allocation beyond this.
pub const MAX_WIRE_BLOCK_SIZE: u32 = 8 << 20;

/// Runs the request loop for one accepted connection. The session slot is
/// held for the lifetime of this call (dropping on unwind included).
pub(crate) fn run(shared: &Shared, stream: TcpStream, _slot: SessionSlot<'_>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let (reader, writer) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(w)) => (BufReader::new(r), BufWriter::new(w)),
        _ => {
            shared.stats.io_errors.bump();
            return;
        }
    };
    let mut session = Session { shared, stream, reader, writer };
    session.run_loop();
}

struct Session<'a> {
    shared: &'a Shared,
    /// Control handle for the shared fd: deadlines set here apply to the
    /// buffered clones too.
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// How one request left the loop.
enum Flow {
    /// Serve another request on this connection.
    Continue,
    /// Close the connection (response already sent, if any).
    Close,
}

impl Session<'_> {
    fn run_loop(&mut self) {
        loop {
            // Between requests the peer may idle longer than a mid-job
            // read may stall.
            let _ = self.stream.set_read_timeout(Some(self.shared.config.idle_timeout));
            let (kind, payload) = match read_frame(&mut self.reader) {
                Ok(f) => f,
                Err(e) => {
                    self.fail_transport(e, true);
                    return;
                }
            };
            let _ = self.stream.set_read_timeout(Some(self.shared.config.io_timeout));
            match self.dispatch(kind, &payload) {
                Flow::Continue => continue,
                Flow::Close => return,
            }
        }
    }

    fn dispatch(&mut self, kind: FrameKind, payload: &[u8]) -> Flow {
        match kind {
            FrameKind::ReqStats => {
                let active = self.shared.admission.active_sessions() as u64;
                let sent = self
                    .shared
                    .stats
                    .write_frame(&mut self.writer, active)
                    .and_then(|()| self.writer.flush());
                match sent {
                    Ok(()) => Flow::Continue,
                    Err(e) => {
                        self.fail_transport(e, false);
                        Flow::Close
                    }
                }
            }
            FrameKind::ReqShutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut self.writer, FrameKind::Ok, &JobSummary::default().encode());
                let _ = self.writer.flush();
                Flow::Close
            }
            FrameKind::ReqCompress | FrameKind::ReqDecompress | FrameKind::ReqVerify => {
                self.dispatch_job(kind, payload)
            }
            other => {
                self.shared.stats.protocol_errors.bump();
                self.send_err(ErrCode::Protocol, &format!("frame {other:?} is not a request"));
                Flow::Close
            }
        }
    }

    fn dispatch_job(&mut self, kind: FrameKind, payload: &[u8]) -> Flow {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.stats.refused_draining.bump();
            self.send_err(ErrCode::ShuttingDown, "server is draining");
            return Flow::Close;
        }
        // Parse the request before admission, so malformed requests cost a
        // protocol error, not a permit.
        let config = match kind {
            FrameKind::ReqCompress => match parse_compress_config(payload) {
                Ok(c) => Some(c),
                Err(msg) => {
                    self.shared.stats.protocol_errors.bump();
                    self.send_err(ErrCode::Protocol, &msg);
                    return Flow::Close;
                }
            },
            _ if !payload.is_empty() => {
                self.shared.stats.protocol_errors.bump();
                self.send_err(ErrCode::Protocol, "request carries an unexpected payload");
                return Flow::Close;
            }
            _ => None,
        };
        let Some(permit) = self.shared.admission.try_mem() else {
            self.shared.stats.sheds.bump();
            let hint = self.shared.config.busy_backoff_ms.to_le_bytes();
            return match write_frame(&mut self.writer, FrameKind::Busy, &hint)
                .and_then(|()| self.writer.flush())
            {
                // Shedding keeps the connection: the retry costs no
                // reconnect.
                Ok(()) => Flow::Continue,
                Err(e) => {
                    self.fail_transport(e, false);
                    Flow::Close
                }
            };
        };
        if let Err(e) = write_frame(&mut self.writer, FrameKind::Go, &[]).and_then(|()| self.writer.flush()) {
            self.fail_transport(e, false);
            return Flow::Close;
        }
        let budget = self.shared.admission.per_job_budget();
        let workers = self.shared.config.workers;
        let stats = &self.shared.stats;
        let mut source = FrameSource {
            inner: &mut self.reader,
            buf: Vec::new(),
            pos: 0,
            done: false,
            bytes: &stats.bytes_in,
        };
        let result = match kind {
            FrameKind::ReqCompress => {
                let compressor = StreamCompressor::new(config.expect("parsed above"))
                    .map(|c| c.with_workers(workers).with_mem_budget(budget));
                compressor.and_then(|c| {
                    let mut sink = FrameSink { inner: &mut self.writer, bytes: &stats.bytes_out };
                    c.compress(&mut source, &mut sink)
                })
            }
            FrameKind::ReqDecompress => {
                let d = StreamDecompressor::new(DecompressorConfig::default())
                    .with_workers(workers)
                    .with_mem_budget(budget);
                let mut sink = FrameSink { inner: &mut self.writer, bytes: &stats.bytes_out };
                d.decompress(&mut source, &mut sink)
            }
            _ => {
                let d = StreamDecompressor::new(DecompressorConfig::default())
                    .with_workers(workers)
                    .with_mem_budget(budget);
                d.decompress(&mut source, io::sink())
            }
        };
        drop(permit);
        match result {
            Ok(run_stats) => {
                match kind {
                    FrameKind::ReqCompress => stats.jobs_compress.bump(),
                    FrameKind::ReqDecompress => stats.jobs_decompress.bump(),
                    _ => stats.jobs_verify.bump(),
                }
                let summary = summarize(&run_stats);
                match write_frame(&mut self.writer, FrameKind::Ok, &summary.encode())
                    .and_then(|()| self.writer.flush())
                {
                    Ok(()) => Flow::Continue,
                    Err(e) => {
                        self.fail_transport(e, false);
                        Flow::Close
                    }
                }
            }
            Err(e) => {
                // A failed job leaves the connection's framing state
                // unknowable (the pipeline may have consumed a partial
                // frame), so the error response is terminal.
                let code = classify(&e);
                self.bump_for(code);
                self.send_err(code, &e.to_string());
                Flow::Close
            }
        }
    }

    /// Records and (where the transport still works) reports a failure
    /// reading a request frame. `at_boundary` distinguishes a peer closing
    /// between requests — a clean, uncounted exit — from a mid-stream
    /// death.
    fn fail_transport(&mut self, e: io::Error, at_boundary: bool) {
        match e.kind() {
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
                if at_boundary => {}
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                self.shared.stats.timeouts.bump();
                self.send_err(ErrCode::Timeout, "session deadline expired");
            }
            io::ErrorKind::InvalidData => {
                self.shared.stats.protocol_errors.bump();
                self.send_err(ErrCode::Protocol, &e.to_string());
            }
            _ => {
                self.shared.stats.io_errors.bump();
            }
        }
    }

    fn bump_for(&self, code: ErrCode) {
        let stats = &self.shared.stats;
        match code {
            ErrCode::Protocol => stats.protocol_errors.bump(),
            ErrCode::Corrupt => stats.corruptions.bump(),
            ErrCode::Timeout => stats.timeouts.bump(),
            ErrCode::Internal => stats.panics_caught.bump(),
            ErrCode::ShuttingDown => stats.refused_draining.bump(),
            ErrCode::Io => stats.io_errors.bump(),
        }
    }

    /// Best-effort error frame: if the transport is dead too, the counter
    /// above already told the story.
    fn send_err(&mut self, code: ErrCode, message: &str) {
        let _ = write_err(&mut self.writer, code, message);
        let _ = self.writer.flush();
    }
}

/// Maps a compression request's wire parameters onto a validated
/// [`CompressorConfig`]; errors are peer mistakes (protocol), not server
/// faults.
fn parse_compress_config(payload: &[u8]) -> Result<CompressorConfig, String> {
    let params =
        CompressParams::decode(payload).ok_or_else(|| "malformed compress parameters".to_string())?;
    if params.block_size > MAX_WIRE_BLOCK_SIZE {
        return Err(format!(
            "block size {} exceeds the service cap {MAX_WIRE_BLOCK_SIZE}",
            params.block_size
        ));
    }
    let mut config = match (params.mode, params.de) {
        (0, false) => CompressorConfig::bit(),
        (0, true) => CompressorConfig::bit_de(),
        (1, false) => CompressorConfig::byte(),
        (1, true) => CompressorConfig::byte_de(),
        _ => CompressorConfig::auto(),
    };
    if params.block_size > 0 {
        config.block_size = params.block_size as usize;
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// The wire summary of a finished job. Compression reports the container
/// bytes it produced; decompression/verify report the container bytes it
/// consumed — either way `compressed` is the v4 container side.
fn summarize(s: &StreamStats) -> JobSummary {
    JobSummary { uncompressed: s.uncompressed_size, compressed: s.compressed_size, blocks: s.blocks }
}

/// Classifies a job error into its wire code. The session's own framing
/// errors arrive as `InvalidData` (peer broke protocol mid-stream) or
/// `ConnectionAborted` (peer died mid-stream); everything the codec
/// flags as corruption — including a truncated container, which is what a
/// client `End`-ing early produces — answers `Corrupt`.
fn classify(e: &GompressoError) -> ErrCode {
    match e.root_cause() {
        GompressoError::StagePanicked { .. } => ErrCode::Internal,
        GompressoError::InvalidConfig { .. } => ErrCode::Protocol,
        GompressoError::Io { kind, .. } => match kind {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ErrCode::Timeout,
            io::ErrorKind::InvalidData => ErrCode::Protocol,
            io::ErrorKind::UnexpectedEof => ErrCode::Corrupt,
            _ => ErrCode::Io,
        },
        other if other.is_corruption() => ErrCode::Corrupt,
        _ => ErrCode::Internal,
    }
}

/// Presents a job's incoming `Data` frames as a contiguous `io::Read`
/// for the stream pipelines. `End` is EOF; any other frame kind inside
/// the stream is a protocol violation; a transport EOF mid-stream is
/// remapped from `UnexpectedEof` to `ConnectionAborted` so it cannot be
/// mistaken for (and miscounted as) container truncation.
struct FrameSource<'a, R: Read> {
    inner: &'a mut R,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
    bytes: &'a AtomicU64,
}

impl<R: Read> Read for FrameSource<'_, R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            if self.done {
                return Ok(0);
            }
            let (kind, payload) = read_frame(self.inner).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(io::ErrorKind::ConnectionAborted, "connection closed mid-request")
                } else {
                    e
                }
            })?;
            match kind {
                FrameKind::Data => {
                    self.bytes.add(payload.len() as u64);
                    self.buf = payload;
                    self.pos = 0;
                }
                FrameKind::End => self.done = true,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame {other:?} inside a job data stream"),
                    ))
                }
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Slices a job's produced bytes into outgoing `Data` frames.
struct FrameSink<'a, W: Write> {
    inner: &'a mut W,
    bytes: &'a AtomicU64,
}

impl<W: Write> Write for FrameSink<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = buf.len().min(DATA_CHUNK);
        write_frame(self.inner, FrameKind::Data, &buf[..n])?;
        self.bytes.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_source_concatenates_data_until_end() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Data, b"hello ").unwrap();
        write_frame(&mut wire, FrameKind::Data, b"").unwrap();
        write_frame(&mut wire, FrameKind::Data, b"world").unwrap();
        write_frame(&mut wire, FrameKind::End, &[]).unwrap();
        let bytes = AtomicU64::new(0);
        let mut cursor = wire.as_slice();
        let mut src = FrameSource { inner: &mut cursor, buf: Vec::new(), pos: 0, done: false, bytes: &bytes };
        let mut out = String::new();
        src.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello world");
        assert_eq!(bytes.load(Ordering::Relaxed), 11);
        // EOF is sticky.
        assert_eq!(src.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn frame_source_rejects_foreign_frames_and_remaps_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Go, &[]).unwrap();
        let bytes = AtomicU64::new(0);
        let mut cursor = wire.as_slice();
        let mut src = FrameSource { inner: &mut cursor, buf: Vec::new(), pos: 0, done: false, bytes: &bytes };
        assert_eq!(src.read(&mut [0u8; 8]).unwrap_err().kind(), io::ErrorKind::InvalidData);

        let mut empty: &[u8] = &[];
        let mut src = FrameSource { inner: &mut empty, buf: Vec::new(), pos: 0, done: false, bytes: &bytes };
        assert_eq!(src.read(&mut [0u8; 8]).unwrap_err().kind(), io::ErrorKind::ConnectionAborted);
    }

    #[test]
    fn frame_sink_chunks_writes() {
        let bytes = AtomicU64::new(0);
        let mut wire = Vec::new();
        let big = vec![9u8; DATA_CHUNK + 17];
        {
            let mut sink = FrameSink { inner: &mut wire, bytes: &bytes };
            sink.write_all(&big).unwrap();
        }
        assert_eq!(bytes.load(Ordering::Relaxed), big.len() as u64);
        let mut r = wire.as_slice();
        let (k1, p1) = read_frame(&mut r).unwrap();
        let (k2, p2) = read_frame(&mut r).unwrap();
        assert_eq!((k1, k2), (FrameKind::Data, FrameKind::Data));
        assert_eq!(p1.len(), DATA_CHUNK);
        assert_eq!(p2.len(), 17);
    }

    #[test]
    fn compress_config_parsing_validates_and_caps() {
        let good = CompressParams { mode: 0, de: true, block_size: 32 * 1024 }.encode();
        let config = parse_compress_config(&good).unwrap();
        assert_eq!(config.block_size, 32 * 1024);
        assert!(config.dependency_elimination);
        let hostile = CompressParams { mode: 0, de: false, block_size: u32::MAX }.encode();
        assert!(parse_compress_config(&hostile).is_err());
        assert!(parse_compress_config(&[9, 9]).is_err());
    }

    #[test]
    fn classification_matches_the_error_taxonomy() {
        let io = |kind| GompressoError::Io { kind, message: String::new() };
        assert_eq!(classify(&io(io::ErrorKind::WouldBlock)), ErrCode::Timeout);
        assert_eq!(classify(&io(io::ErrorKind::TimedOut)), ErrCode::Timeout);
        assert_eq!(classify(&io(io::ErrorKind::InvalidData)), ErrCode::Protocol);
        assert_eq!(classify(&io(io::ErrorKind::UnexpectedEof)), ErrCode::Corrupt);
        assert_eq!(classify(&io(io::ErrorKind::ConnectionAborted)), ErrCode::Io);
        assert_eq!(
            classify(&GompressoError::StagePanicked { stage: "worker", message: String::new() }),
            ErrCode::Internal
        );
        assert_eq!(
            classify(&GompressoError::BlockChecksumMismatch { block: 0, stored: 1, computed: 2 }),
            ErrCode::Corrupt
        );
        // Block context never changes the classification.
        let wrapped =
            GompressoError::BlockChecksumMismatch { block: 3, stored: 1, computed: 2 }.in_block(3, None);
        assert_eq!(classify(&wrapped), ErrCode::Corrupt);
    }
}
