//! The four workloads. Each builds its inputs from the seed, drives one
//! entry point of the workspace in a closed loop with a single caller,
//! checks every output byte for byte, and names the data the traced
//! replay re-runs stage by stage. README.md says why each one exists.

use crate::replay::ReplayPlan;
use crate::trace::Trace;
use crate::{Result, SplitMix64};
use gompresso_core::{compress, decompress_with, scan_filter_count, ArchiveReader, CompressedFile};
use gompresso_core::{CompressorConfig, DecompressorConfig, ScanOptions, StreamCompressor};
use gompresso_datasets::{DatasetGenerator, MatrixMarketGenerator, WikipediaGenerator};
use gompresso_service::{
    Client, ClientError, CompressParams, DrainReport, Server, ServerConfig, ServerHandle,
};
use std::fs::File;
use std::io::{BufReader, Cursor};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

pub const NAMES: [&str; 4] = ["inmem-auto-wiki", "inmem-byte-matrix", "range-read-wiki", "daemon-roundtrip"];

/// Where the range workload writes its archive, relative to the directory
/// the benchmark runs in.
const TMP_DIR: &str = ".bench_tmp";

/// Salt that separates the operation offsets' random stream from the data.
const OFFSET_SALT: u64 = 0x0FF5_E7B1_7E5E_ED00;

/// Timings and counts of one phase (set-up plus loop, or a traced loop).
#[derive(Default)]
pub struct Samples {
    /// Seconds per compress call, each over `compress_bytes` input bytes.
    pub compress_s: Vec<f64>,
    pub compress_bytes: u64,
    /// Seconds per bulk decompress call, each producing `decompress_bytes`.
    pub decompress_s: Vec<f64>,
    pub decompress_bytes: u64,
    /// Seconds per operation, and the loop's wall time.
    pub op_s: Vec<f64>,
    pub op_wall_s: f64,
    pub ratio: Vec<f64>,
    /// Blocks and bytes the operations decoded, and bytes they returned.
    pub blocks: u64,
    pub decoded_bytes: u64,
    pub returned_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differed from what was expected.
    pub mismatches: u64,
}

pub trait Workload {
    /// Builds the inputs from the seed and brings the system under test to
    /// a steady state (one untimed operation). Set-up runs several times.
    fn setup(&mut self, samples: &mut Samples) -> Result<()>;

    /// Runs operations, at least one, until `until`.
    fn run(&mut self, until: Instant, samples: &mut Samples, trace: Option<&mut Trace>) -> Result<()>;

    /// Stops whatever `setup` started.
    fn teardown(&mut self) -> Result<()>;

    /// The data the traced replay re-runs stage by stage.
    fn replay_plan(&self) -> ReplayPlan<'_>;

    /// The end-to-end decode the replayed decode stages add up to: seconds
    /// per call, bytes decoded per call and the worker threads it ran on.
    fn decode_basis(&self, s: &Samples) -> (Vec<f64>, f64, usize) {
        (s.decompress_s.clone(), s.decompress_bytes as f64, 1)
    }
}

/// Builds a workload by name; `small` shrinks the inputs for smoke tests.
pub fn by_name(name: &str, seed: u64, small: bool) -> Option<Box<dyn Workload>> {
    let scale = if small { 16 } else { 1 };
    Some(match name {
        "inmem-auto-wiki" => Box::new(InMemory {
            seed,
            bytes: 8 * MIB / scale,
            dataset: Dataset::Wikipedia,
            config: CompressorConfig::auto(),
            data: Vec::new(),
        }),
        "inmem-byte-matrix" => Box::new(InMemory {
            seed,
            bytes: 8 * MIB / scale,
            dataset: Dataset::Matrix,
            config: CompressorConfig::byte_de(),
            data: Vec::new(),
        }),
        "range-read-wiki" => Box::new(RangeRead {
            seed,
            bytes: 32 * MIB / scale,
            data: Vec::new(),
            archive: Vec::new(),
            path: PathBuf::new(),
            reader: None,
            rng: SplitMix64::new(seed ^ OFFSET_SALT),
            titles: 0,
            next_scan: Instant::now(),
        }),
        "daemon-roundtrip" => Box::new(Daemon {
            seed,
            corpus_bytes: 4 * MIB / scale,
            corpus: Vec::new(),
            server: None,
            client: None,
            rng: SplitMix64::new(seed ^ OFFSET_SALT),
            compressed: Vec::new(),
            restored: Vec::new(),
        }),
        _ => return None,
    })
}

fn set_workers(n: usize) -> Result<()> {
    rayon::ThreadPoolBuilder::new().num_threads(n).build_global()?;
    Ok(())
}

enum Dataset {
    Wikipedia,
    Matrix,
}

/// In-memory roundtrip on one worker: `compress` + `serialize`, then
/// `deserialize` + `decompress_with` (checksums verified).
struct InMemory {
    seed: u64,
    bytes: usize,
    dataset: Dataset,
    config: CompressorConfig,
    data: Vec<u8>,
}

impl InMemory {
    fn roundtrip(&self, s: &mut Samples, trace: Option<&mut Trace>) -> Result<()> {
        s.attempted += 1;
        let t0 = Instant::now();
        let out = compress(&self.data, &self.config)?;
        let t1 = Instant::now();
        let bytes = out.file.serialize();
        let t2 = Instant::now();
        let file = CompressedFile::deserialize(&bytes)?;
        let t3 = Instant::now();
        let (restored, _report) = decompress_with(&file, &DecompressorConfig::default())?;
        let t4 = Instant::now();
        if let Some(trace) = trace {
            trace.record("core.compress", t0, t1);
            trace.record("format.serialize", t1, t2);
            trace.record("format.deserialize", t2, t3);
            trace.record("core.decompress", t3, t4);
        }
        if restored != self.data {
            s.mismatches += 1;
        }
        s.compress_s.push((t2 - t0).as_secs_f64());
        s.decompress_s.push((t4 - t2).as_secs_f64());
        s.op_s.push((t4 - t0).as_secs_f64());
        s.compress_bytes = self.data.len() as u64;
        s.decompress_bytes = self.data.len() as u64;
        s.ratio.push(self.data.len() as f64 / bytes.len() as f64);
        s.blocks += file.blocks.len() as u64;
        s.decoded_bytes += self.data.len() as u64;
        s.returned_bytes += restored.len() as u64;
        Ok(())
    }
}

impl Workload for InMemory {
    fn setup(&mut self, _samples: &mut Samples) -> Result<()> {
        set_workers(1)?;
        self.data = match self.dataset {
            Dataset::Wikipedia => WikipediaGenerator::new(self.seed).generate(self.bytes),
            Dataset::Matrix => MatrixMarketGenerator::new(self.seed).generate(self.bytes),
        };
        let mut warm = Samples::default();
        self.roundtrip(&mut warm, None)?;
        check_warm(&warm)
    }

    fn run(&mut self, until: Instant, s: &mut Samples, trace: Option<&mut Trace>) -> Result<()> {
        closed_loop(until, s, trace, |s, t| self.roundtrip(s, t));
        Ok(())
    }

    fn teardown(&mut self) -> Result<()> {
        Ok(())
    }

    fn replay_plan(&self) -> ReplayPlan<'_> {
        ReplayPlan { files: vec![&self.data[..]], config: self.config.clone(), decode_blocks: None }
    }
}

/// Runs `op` once, then again until `until`; a failed operation is
/// counted and the loop goes on.
fn closed_loop(
    until: Instant,
    s: &mut Samples,
    mut trace: Option<&mut Trace>,
    mut op: impl FnMut(&mut Samples, Option<&mut Trace>) -> Result<()>,
) {
    let start = Instant::now();
    loop {
        if let Some(t) = trace.as_deref_mut() {
            t.next_op();
        }
        if let Err(e) = op(s, trace.as_deref_mut()) {
            eprintln!("operation failed: {e}");
            s.failed += 1;
        }
        if Instant::now() >= until {
            break;
        }
    }
    s.op_wall_s += start.elapsed().as_secs_f64();
}

fn check_warm(warm: &Samples) -> Result<()> {
    if warm.mismatches > 0 || warm.failed > 0 {
        return Err("the warm-up operation did not reproduce its input".into());
    }
    Ok(())
}

const ARCHIVE_BLOCK: usize = 64 * KIB;
const RANGE_LEN: usize = 128 * KIB;
/// How often an untraced run interleaves a full-archive scan between its
/// range reads, so both see the same stretches of machine time.
const SCAN_INTERVAL: Duration = Duration::from_millis(500);
/// Range queries whose touched blocks the traced replay decodes.
const REPLAY_QUERIES: usize = 256;

fn archive_config() -> CompressorConfig {
    CompressorConfig { block_size: ARCHIVE_BLOCK, ..CompressorConfig::bit_de() }
}

/// The scan predicate: one line per page carries its title.
fn is_title(line: &[u8]) -> bool {
    line.starts_with(b"    <title>")
}

/// Random access on a seekable stream archive on disk, read through
/// `ArchiveReader<BufReader<File>>` by two workers with one caller.
struct RangeRead {
    seed: u64,
    bytes: usize,
    data: Vec<u8>,
    /// The archive as built in memory. It is kept from one set-up to the
    /// next, so its allocation, and with it the peak RSS, repeats exactly.
    archive: Vec<u8>,
    path: PathBuf,
    reader: Option<ArchiveReader<BufReader<File>>>,
    rng: SplitMix64,
    /// Lines the scan predicate matches in `data`.
    titles: u64,
    next_scan: Instant,
}

impl RangeRead {
    fn next_offset(rng: &mut SplitMix64, len: usize) -> usize {
        rng.below((len - RANGE_LEN + 1) as u64) as usize
    }

    fn range_read(&mut self, s: &mut Samples, trace: Option<&mut Trace>) -> Result<()> {
        let reader = self.reader.as_mut().ok_or("archive not open")?;
        let offset = Self::next_offset(&mut self.rng, self.data.len());
        let range = offset as u64..(offset + RANGE_LEN) as u64;
        let blocks = reader.index().blocks_for_range(range.clone());
        s.attempted += 1;
        let t0 = Instant::now();
        let out = reader.decompress_range(range)?;
        let t1 = Instant::now();
        if let Some(trace) = trace {
            trace.record("core.decompress_range", t0, t1);
        }
        if out[..] != self.data[offset..offset + RANGE_LEN] {
            s.mismatches += 1;
        }
        s.op_s.push((t1 - t0).as_secs_f64());
        s.blocks += blocks.len() as u64;
        s.decoded_bytes += blocks.map(|b| reader.index().entry(b).uncompressed_size).sum::<u64>();
        s.returned_bytes += out.len() as u64;
        Ok(())
    }

    fn scan(&mut self, s: &mut Samples) -> Result<()> {
        let reader = self.reader.as_mut().ok_or("archive not open")?;
        s.attempted += 1;
        let t0 = Instant::now();
        let titles = scan_filter_count(reader, &ScanOptions::default(), is_title)?;
        s.decompress_s.push(t0.elapsed().as_secs_f64());
        s.decompress_bytes = self.data.len() as u64;
        if titles != self.titles {
            s.mismatches += 1;
        }
        Ok(())
    }
}

impl Workload for RangeRead {
    fn setup(&mut self, s: &mut Samples) -> Result<()> {
        set_workers(2)?;
        self.data = WikipediaGenerator::new(self.seed).generate(self.bytes);
        self.titles = self.data.split(|&b| b == b'\n').filter(|line| is_title(line)).count() as u64;
        std::fs::create_dir_all(TMP_DIR)?;
        self.path = PathBuf::from(TMP_DIR).join(format!("range-{}.gpsos", std::process::id()));

        // Building the archive is timed as this workload's compress call.
        // It is built in memory and written to the file afterwards, so that
        // writeback of earlier runs' archives stays out of the timing.
        self.archive.clear();
        self.archive.reserve(self.data.len());
        let mut archive = Cursor::new(std::mem::take(&mut self.archive));
        let t0 = Instant::now();
        let stats = StreamCompressor::new(archive_config())?
            .with_workers(1)
            .compress_seekable(self.data.as_slice(), &mut archive)?;
        s.compress_s.push(t0.elapsed().as_secs_f64());
        self.archive = archive.into_inner();
        std::fs::write(&self.path, &self.archive)?;
        s.compress_bytes = self.data.len() as u64;
        s.ratio.push(stats.ratio());

        self.reader = Some(ArchiveReader::open(BufReader::new(File::open(&self.path)?))?);
        self.rng = SplitMix64::new(self.seed ^ OFFSET_SALT);
        let mut warm = Samples::default();
        self.range_read(&mut warm, None)?;
        check_warm(&warm)
    }

    /// Range reads, with a scan every [`SCAN_INTERVAL`] unless traced:
    /// traced operations attribute time and allocations to range reads
    /// alone.
    fn run(&mut self, until: Instant, s: &mut Samples, mut trace: Option<&mut Trace>) -> Result<()> {
        loop {
            let start = Instant::now();
            if trace.is_none() && start >= self.next_scan {
                if let Err(e) = self.scan(s) {
                    eprintln!("scan failed: {e}");
                    s.failed += 1;
                }
                self.next_scan = Instant::now() + SCAN_INTERVAL;
                continue;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.next_op();
            }
            if let Err(e) = self.range_read(s, trace.as_deref_mut()) {
                eprintln!("range read failed: {e}");
                s.failed += 1;
            }
            s.op_wall_s += start.elapsed().as_secs_f64();
            if Instant::now() >= until {
                break;
            }
        }
        Ok(())
    }

    fn teardown(&mut self) -> Result<()> {
        self.reader = None;
        if !self.path.as_os_str().is_empty() {
            std::fs::remove_file(&self.path)?;
            self.path = PathBuf::new();
            // Other runs may share the directory; leave it if it is not empty.
            let _ = std::fs::remove_dir(TMP_DIR);
        }
        Ok(())
    }

    fn replay_plan(&self) -> ReplayPlan<'_> {
        let mut rng = SplitMix64::new(self.seed ^ OFFSET_SALT);
        let mut blocks = Vec::new();
        for _ in 0..REPLAY_QUERIES {
            let offset = Self::next_offset(&mut rng, self.data.len());
            for block in offset / ARCHIVE_BLOCK..=(offset + RANGE_LEN - 1) / ARCHIVE_BLOCK {
                blocks.push((0, block));
            }
        }
        ReplayPlan { files: vec![&self.data[..]], config: archive_config(), decode_blocks: Some(blocks) }
    }

    /// A range call's decode is the aligned blocks it touches, on two
    /// workers.
    fn decode_basis(&self, s: &Samples) -> (Vec<f64>, f64, usize) {
        (s.op_s.clone(), s.decoded_bytes as f64 / s.op_s.len() as f64, 2)
    }
}

const DAEMON_PAYLOAD: usize = 256 * KIB;
const DAEMON_BLOCK: usize = 64 * KIB;
/// Requests whose payloads the traced replay compresses and decodes.
const REPLAY_REQUESTS: usize = 16;

fn daemon_params() -> (CompressParams, CompressorConfig) {
    let params = CompressParams { mode: 0, de: true, block_size: DAEMON_BLOCK as u32 };
    (params, CompressorConfig { block_size: DAEMON_BLOCK, ..CompressorConfig::bit_de() })
}

/// An in-process `gompressod` on loopback with one worker and one client:
/// each operation compresses a payload, then decompresses the reply.
struct Daemon {
    seed: u64,
    corpus_bytes: usize,
    corpus: Vec<u8>,
    server: Option<(ServerHandle, JoinHandle<std::io::Result<DrainReport>>)>,
    client: Option<Client>,
    rng: SplitMix64,
    compressed: Vec<u8>,
    restored: Vec<u8>,
}

impl Daemon {
    fn next_offset(rng: &mut SplitMix64, len: usize) -> usize {
        rng.below((len - DAEMON_PAYLOAD + 1) as u64) as usize
    }

    fn connect(&mut self) -> Result<()> {
        let (handle, _) = self.server.as_ref().ok_or("server not running")?;
        self.client = Some(Client::connect(&handle.addr().to_string(), Some(Duration::from_secs(60)))?);
        Ok(())
    }

    /// One request; a `Busy` refusal or any error counts as a failed
    /// attempt and is not retried.
    fn request(
        client: &mut Option<Client>,
        s: &mut Samples,
        job: impl FnOnce(&mut Client) -> std::result::Result<(), ClientError>,
    ) -> bool {
        let Some(c) = client.as_mut() else { return false };
        match job(c) {
            Ok(()) => true,
            Err(ClientError::Busy { backoff_ms }) => {
                s.failed += 1;
                std::thread::sleep(Duration::from_millis(u64::from(backoff_ms)));
                false
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                s.failed += 1;
                // The connection may be unusable after an error.
                *client = None;
                false
            }
        }
    }

    fn roundtrip(&mut self, s: &mut Samples, trace: Option<&mut Trace>) -> Result<()> {
        s.attempted += 1;
        if self.client.is_none() {
            self.connect()?;
        }
        let (params, _) = daemon_params();
        let offset = Self::next_offset(&mut self.rng, self.corpus.len());
        let payload = &self.corpus[offset..offset + DAEMON_PAYLOAD];
        let (compressed, restored) = (&mut self.compressed, &mut self.restored);
        compressed.clear();
        restored.clear();
        let t0 = Instant::now();
        if !Self::request(&mut self.client, s, |c| c.compress(params, payload, &mut *compressed).map(|_| ()))
        {
            return Ok(());
        }
        let t1 = Instant::now();
        if !Self::request(&mut self.client, s, |c| {
            c.decompress(compressed.as_slice(), &mut *restored).map(|_| ())
        }) {
            return Ok(());
        }
        let t2 = Instant::now();
        if let Some(trace) = trace {
            trace.record("service.compress_request", t0, t1);
            trace.record("service.decompress_request", t1, t2);
        }
        if restored[..] != *payload {
            s.mismatches += 1;
        }
        s.compress_s.push((t1 - t0).as_secs_f64());
        s.decompress_s.push((t2 - t1).as_secs_f64());
        s.op_s.push((t2 - t0).as_secs_f64());
        s.compress_bytes = DAEMON_PAYLOAD as u64;
        s.decompress_bytes = DAEMON_PAYLOAD as u64;
        s.ratio.push(DAEMON_PAYLOAD as f64 / compressed.len() as f64);
        s.blocks += DAEMON_PAYLOAD.div_ceil(DAEMON_BLOCK) as u64;
        s.decoded_bytes += DAEMON_PAYLOAD as u64;
        s.returned_bytes += restored.len() as u64;
        Ok(())
    }
}

impl Workload for Daemon {
    fn setup(&mut self, _samples: &mut Samples) -> Result<()> {
        set_workers(1)?;
        self.corpus = WikipediaGenerator::new(self.seed).generate(self.corpus_bytes);
        let config = ServerConfig {
            // The one client, plus headroom so a reconnect is never shed.
            max_sessions: 2,
            mem_budget: 16 * MIB,
            workers: 1,
            io_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)?;
        let handle = server.handle()?;
        self.server = Some((handle, std::thread::spawn(move || server.run())));
        self.connect()?;
        self.rng = SplitMix64::new(self.seed ^ OFFSET_SALT);

        // The daemon must return exactly what the library's stream
        // compressor writes for the same payload.
        let mut probe = self.rng.clone();
        let offset = Self::next_offset(&mut probe, self.corpus.len());
        let mut expected = Vec::new();
        StreamCompressor::new(daemon_params().1)?
            .with_workers(1)
            .compress(&self.corpus[offset..offset + DAEMON_PAYLOAD], &mut expected)?;
        let mut warm = Samples::default();
        self.roundtrip(&mut warm, None)?;
        check_warm(&warm)?;
        if self.compressed != expected {
            return Err("the daemon's archive differs from the library's".into());
        }
        Ok(())
    }

    fn run(&mut self, until: Instant, s: &mut Samples, trace: Option<&mut Trace>) -> Result<()> {
        closed_loop(until, s, trace, |s, t| self.roundtrip(s, t));
        Ok(())
    }

    fn teardown(&mut self) -> Result<()> {
        self.client = None;
        if let Some((handle, thread)) = self.server.take() {
            handle.shutdown();
            let report = thread.join().map_err(|_| "server thread panicked")??;
            if !report.clean {
                return Err(format!("server drain forced {} sessions", report.forced_sessions).into());
            }
        }
        Ok(())
    }

    fn replay_plan(&self) -> ReplayPlan<'_> {
        let mut rng = SplitMix64::new(self.seed ^ OFFSET_SALT);
        let files = (0..REPLAY_REQUESTS)
            .map(|_| {
                let offset = Self::next_offset(&mut rng, self.corpus.len());
                &self.corpus[offset..offset + DAEMON_PAYLOAD]
            })
            .collect();
        ReplayPlan { files, config: daemon_params().1, decode_blocks: None }
    }
}
