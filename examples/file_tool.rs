//! A gzip-style command-line tool built on the Gompresso public API:
//! compresses or decompresses real files on disk using the paper's file
//! format.
//!
//! ```text
//! cargo run --release --example file_tool -- compress   <input> <output.gpso> [bit|byte|auto] [--de]
//! cargo run --release --example file_tool -- decompress <input.gpso> <output> [planned|sc|mrr|de]
//! cargo run --release --example file_tool -- info       <input.gpso>
//! ```
//!
//! With no arguments it runs a self-contained demo on a temporary file.

use gompresso::{
    compress, decompress_salvage, decompress_with, ArchiveFormat, ArchiveReader, CompressedFile,
    CompressorConfig, CostModel, Decompressor, DecompressorConfig, EncodingMode, RecoveryReport,
    ResolutionStrategy, StrategySelection, StreamDecompressor,
};
use std::fs;
use std::io::{Cursor, Write};
use std::ops::Range;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  file_tool compress   <input> <output.gpso> [bit|byte|auto] [--de]");
    eprintln!("  file_tool decompress <input.gpso> <output> [planned|sc|mrr|de]");
    eprintln!("  file_tool cat        <input.gpso|input.gpsos> <output|-> [--range a..b]");
    eprintln!("  file_tool info       <input.gpso|input.gpsos>");
    eprintln!("  file_tool index      <input.gpso|input.gpsos>");
    eprintln!("  file_tool verify     <input.gpso|input.gpsos>");
    eprintln!("  file_tool salvage    <input.gpso|input.gpsos> <output>");
    eprintln!("  file_tool client <addr> compress   <input> <output.gpsos> [bit|byte|auto] [--de]");
    eprintln!("  file_tool client <addr> decompress <input.gpsos> <output>");
    eprintln!("  file_tool client <addr> verify     <input.gpsos>");
    eprintln!("  file_tool client <addr> stats");
    eprintln!("  file_tool client <addr> shutdown");
    eprintln!();
    eprintln!("exit codes: 0 = ok, 1 = corruption found, 2 = usage or I/O error");
    exit(2)
}

fn cmd_compress(input: &str, output: &str, mode: &str, de: bool) {
    let data = fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1)
    });
    let mut config = match mode {
        "bit" => CompressorConfig::bit(),
        "byte" => CompressorConfig::byte(),
        "auto" => CompressorConfig::auto(),
        other => {
            eprintln!("unknown mode {other:?}: expected bit, byte or auto");
            exit(2)
        }
    };
    if mode != "auto" {
        config.dependency_elimination = de;
    }
    let out = compress(&data, &config).unwrap_or_else(|e| {
        eprintln!("compression failed: {e}");
        exit(1)
    });
    fs::write(output, out.file.serialize()).expect("cannot write output");
    println!(
        "{input}: {} -> {} bytes (ratio {:.2}:1, {} blocks) in {:.1} ms ({:.3} GB/s)",
        out.stats.uncompressed_size,
        out.stats.compressed_size,
        out.stats.ratio(),
        out.stats.blocks,
        out.stats.wall_seconds * 1e3,
        out.stats.speed_bytes_per_sec() / 1e9
    );
}

fn cmd_decompress(input: &str, output: &str, strategy: &str) {
    let bytes = fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1)
    });
    let file = CompressedFile::deserialize(&bytes).unwrap_or_else(|e| {
        eprintln!("{input} is not a valid Gompresso file: {e}");
        exit(1)
    });
    // Default: follow each block's recorded strategy; the explicit names
    // force one strategy onto every block (the paper's uniform runs).
    let strategy = match strategy {
        "planned" => StrategySelection::Planned,
        "sc" => StrategySelection::Force(ResolutionStrategy::SequentialCopy),
        "mrr" => StrategySelection::Force(ResolutionStrategy::MultiRound),
        "de" => StrategySelection::Force(ResolutionStrategy::DependencyEliminated),
        other => {
            eprintln!("unknown strategy {other:?}: expected planned, sc, mrr or de");
            exit(2)
        }
    };
    let config = DecompressorConfig { strategy, ..DecompressorConfig::default() };
    let (data, report) = decompress_with(&file, &config).unwrap_or_else(|e| {
        eprintln!("decompression failed: {e}");
        exit(1)
    });
    fs::write(output, &data).expect("cannot write output");
    // The file already decoded, so the model run sees the same blocks.
    let k40 = Decompressor::new(config).simulate(&file, &CostModel::tesla_k40()).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        exit(1)
    });
    println!(
        "{input}: {} bytes restored with {} in {:.1} ms (host {:.2} GB/s, simulated K40 {:.2} GB/s incl. PCIe)",
        data.len(),
        strategy.describe(),
        report.wall_seconds * 1e3,
        report.host_bandwidth() / 1e9,
        k40.gpu_bandwidth_in_out() / 1e9
    );
}

fn mode_name(mode: EncodingMode) -> &'static str {
    match mode {
        EncodingMode::Bit => "bit (Huffman)",
        EncodingMode::Byte => "byte (LZ4-style)",
    }
}

/// Opens `input` through the random-access reader (either layout) or
/// exits: 2 if unreadable, 1 if not a valid archive.
fn open_archive(input: &str) -> ArchiveReader<Cursor<Vec<u8>>> {
    let bytes = read_or_exit(input);
    ArchiveReader::open(Cursor::new(bytes)).unwrap_or_else(|e| {
        eprintln!("{input} is not a valid Gompresso archive: {e}");
        exit(1)
    })
}

/// Parses `a..b` (either side optional: `100..`, `..4096`, `..`).
fn parse_range(spec: &str) -> Range<u64> {
    let bad = || -> ! {
        eprintln!("invalid range {spec:?}: expected <start>..<end> with either side optional");
        exit(2)
    };
    let Some((start, end)) = spec.split_once("..") else { bad() };
    let parse = |s: &str, default| if s.is_empty() { default } else { s.parse().unwrap_or_else(|_| bad()) };
    parse(start, 0)..parse(end, u64::MAX)
}

/// Decodes an uncompressed byte range straight out of the archive — only
/// the overlapping blocks are read and decoded — and writes it to a file
/// or stdout (`-`).
fn cmd_cat(input: &str, output: &str, range: Option<&str>) {
    let mut reader = open_archive(input);
    let range = range.map(parse_range).unwrap_or(0..u64::MAX);
    let data = reader.decompress_range(range.clone()).unwrap_or_else(|e| {
        eprintln!("cannot decode {input} range {}..{}: {e}", range.start, range.end);
        exit(1)
    });
    if output == "-" {
        std::io::stdout().write_all(&data).unwrap_or_else(|e| {
            eprintln!("cannot write to stdout: {e}");
            exit(2)
        });
    } else {
        fs::write(output, &data).unwrap_or_else(|e| {
            eprintln!("cannot write {output}: {e}");
            exit(2)
        });
    }
    eprintln!(
        "{input}: {} bytes from {} of {} blocks",
        data.len(),
        reader.blocks_decoded(),
        reader.index().block_count()
    );
}

fn short_mode(mode: EncodingMode) -> &'static str {
    match mode {
        EncodingMode::Bit => "bit",
        EncodingMode::Byte => "byte",
    }
}

fn print_block_table(reader: &ArchiveReader<Cursor<Vec<u8>>>) {
    let index = reader.index();
    println!(
        "  {:>5}  {:>12}  {:>10}  {:>12}  {:>10}  codec",
        "block", "comp.off", "comp.size", "uncomp.off", "uncomp.size"
    );
    for (i, entry) in index.entries().iter().enumerate() {
        println!(
            "  {:>5}  {:>12}  {:>10}  {:>12}  {:>10}  {}/{}{}",
            i,
            entry.compressed_offset,
            entry.compressed_size,
            entry.uncompressed_offset,
            entry.uncompressed_size,
            short_mode(entry.config.mode),
            entry.config.strategy.short_name(),
            if entry.checksum.is_some() { " +crc" } else { "" },
        );
    }
}

/// `info` for stream archives (and anything else the container parser
/// rejects): header summary plus the per-block seek table.
fn info_via_index(input: &str) {
    let reader = open_archive(input);
    let index = reader.index();
    let kind = match reader.format() {
        ArchiveFormat::Container => "in-memory container",
        ArchiveFormat::Stream => "stream container",
    };
    println!("Gompresso archive: {input} ({kind})");
    println!("  uncompressed size    : {} bytes", index.uncompressed_size());
    println!("  block size           : {} KB ({} blocks)", index.block_size() / 1024, index.block_count());
    println!("  window / max match   : {} / {} bytes", index.window_size(), index.max_match_len());
    println!("  block checksums      : {}", if index.checksummed() { "yes" } else { "no" });
    println!("  block index:");
    print_block_table(&reader);
}

fn cmd_index(input: &str) {
    let reader = open_archive(input);
    let kind = match reader.format() {
        ArchiveFormat::Container => "container",
        ArchiveFormat::Stream => "stream",
    };
    println!(
        "{input}: {kind}, {} blocks, {} uncompressed bytes{}",
        reader.index().block_count(),
        reader.uncompressed_size(),
        if reader.index().checksummed() { ", per-block checksums" } else { "" },
    );
    print_block_table(&reader);
}

fn cmd_info(input: &str) {
    let bytes = fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1)
    });
    if looks_like_stream(input) {
        return info_via_index(input);
    }
    let file = match CompressedFile::deserialize(&bytes) {
        Ok(file) => file,
        // Not an in-memory container — maybe a renamed stream archive; the
        // index-based path sniffs the layout itself.
        Err(_) => return info_via_index(input),
    };
    let h = &file.header;
    println!("Gompresso file: {input}");
    match h.uniform_config() {
        Some(config) => {
            println!("  mode                 : {} (uniform)", mode_name(config.mode));
            println!("  strategy             : {}", config.strategy.short_name());
            println!("  sequences per subblk : {}", config.sequences_per_sub_block);
            println!("  max codeword length  : {} bits", config.max_codeword_len);
        }
        None => {
            println!("  mode                 : mixed per block");
            // Histogram of the per-block plans actually recorded.
            let mut counts: Vec<((EncodingMode, ResolutionStrategy), usize)> = Vec::new();
            for config in &h.block_configs {
                let key = (config.mode, config.strategy);
                match counts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((key, 1)),
                }
            }
            for ((mode, strategy), n) in counts {
                println!("    {:<19}: {} blocks ({})", mode_name(mode), n, strategy.short_name());
            }
        }
    }
    println!("  uncompressed size    : {} bytes", h.uncompressed_size);
    println!("  block size           : {} KB ({} blocks)", h.block_size / 1024, h.block_count());
    println!("  window / max match   : {} / {} bytes", h.window_size, h.max_match_len);
    println!("  compression ratio    : {:.3}:1", file.compression_ratio());
}

/// Reads `input` or exits 2 (I/O problems are not corruption).
fn read_or_exit(input: &str) -> Vec<u8> {
    fs::read(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(2)
    })
}

/// Whether to try the streaming format first (`.gpsos` extension).
fn looks_like_stream(input: &str) -> bool {
    input.ends_with(".gpsos")
}

/// Checks every integrity layer of `input` without writing any output.
/// Exit 0 when the archive decodes fully with checksums verified, 1 when
/// any corruption is found, 2 on I/O or usage errors.
fn cmd_verify(input: &str) {
    let bytes = read_or_exit(input);
    let config = DecompressorConfig::default(); // checksums on

    let container = || -> Result<usize, gompresso::GompressoError> {
        let file = CompressedFile::deserialize(&bytes).map_err(gompresso::GompressoError::Format)?;
        decompress_with(&file, &config).map(|(data, _)| data.len())
    };
    let stream = || -> Result<usize, gompresso::GompressoError> {
        let mut sink = std::io::sink();
        StreamDecompressor::new(config.clone())
            .decompress(bytes.as_slice(), &mut sink)
            .map(|stats| stats.uncompressed_size as usize)
    };

    // Try the format the extension suggests first; fall back to the other
    // so a renamed archive still verifies.
    let (first, second): (&dyn Fn() -> _, &dyn Fn() -> _) =
        if looks_like_stream(input) { (&stream, &container) } else { (&container, &stream) };
    match first().or_else(|first_err| second().map_err(|_| first_err)) {
        Ok(size) => {
            println!("{input}: OK ({size} bytes, all checksums verified)");
        }
        Err(e) => {
            eprintln!("{input}: CORRUPT: {e}");
            exit(1)
        }
    }
}

fn print_recovery(input: &str, report: &RecoveryReport) {
    println!(
        "{input}: recovered {}/{} blocks ({} bytes), lost {} blocks ({} bytes{})",
        report.blocks_recovered,
        report.blocks_recovered + report.blocks_lost,
        report.bytes_recovered,
        report.blocks_lost,
        report.bytes_lost,
        if report.lost_sizes_exact { "" } else { ", sizes approximate" },
    );
    if !report.head_intact {
        println!("  note: archive head checksum did not verify");
    }
    if !report.trailer_intact {
        println!(
            "  note: trailer missing or damaged{}",
            if report.resyncs > 0 { "; resynchronized by scanning" } else { "" }
        );
    }
    for block in report.blocks.iter().filter(|b| !b.status.is_recovered()) {
        if let gompresso::BlockStatus::Lost(e) = &block.status {
            println!(
                "  lost block {} (input bytes {}..{}, output bytes {}..{} zero-filled): {e}",
                block.block,
                block.input_range.0,
                block.input_range.1,
                block.output_range.0,
                block.output_range.1
            );
        }
    }
}

/// Best-effort recovery of a damaged archive into `output`. Exit 0 when
/// everything was recovered, 1 when corruption was found (recovered output
/// is still written), 2 on I/O or usage errors.
fn cmd_salvage(input: &str, output: &str) {
    let bytes = read_or_exit(input);
    let config = DecompressorConfig::default();

    let container = || decompress_salvage(&bytes, &config);
    let stream = || StreamDecompressor::new(config.clone()).salvage_bytes(&bytes);
    let result = if looks_like_stream(input) {
        stream().or_else(|e| container().map_err(|_| e))
    } else {
        container().or_else(|e| stream().map_err(|_| e))
    };

    match result {
        Ok((data, report)) => {
            fs::write(output, &data).unwrap_or_else(|e| {
                eprintln!("cannot write {output}: {e}");
                exit(2)
            });
            print_recovery(input, &report);
            if !(report.is_complete() && report.head_intact && report.trailer_intact) {
                exit(1)
            }
        }
        Err(e) => {
            eprintln!("{input}: unsalvageable (cannot even parse the archive head): {e}");
            exit(1)
        }
    }
}

/// Converts a client failure into the tool's exit-code convention:
/// corrupt input is 1, everything else (transport, protocol, usage) is 2.
fn client_exit(context: &str, e: gompresso::service::ClientError) -> ! {
    eprintln!("{context}: {e}");
    exit(if e.is_corruption() { 1 } else { 2 })
}

/// Runs one daemon request with Busy-retries (reconnecting each attempt,
/// sleeping the server's backoff hint between them).
fn client_call<T>(
    addr: &str,
    context: &str,
    job: impl FnMut(&mut gompresso::service::Client) -> Result<T, gompresso::service::ClientError>,
) -> T {
    use std::time::Duration;
    gompresso::service::run_with_retry(addr, Some(Duration::from_secs(60)), 10, job)
        .unwrap_or_else(|e| client_exit(context, e))
}

/// The `client` subcommand: the same compress/decompress/verify verbs,
/// executed by a `gompressod` daemon over its wire protocol. Exit codes
/// match the local verbs: 0 ok, 1 corrupt input, 2 usage/transport.
fn cmd_client(addr: &str, args: &[String]) {
    match args.first().map(String::as_str) {
        Some("compress") if args.len() >= 3 => {
            let (input, output) = (&args[1], &args[2]);
            let mode = match args.get(3).map(String::as_str).filter(|m| *m != "--de").unwrap_or("bit") {
                "bit" => 0,
                "byte" => 1,
                "auto" => 2,
                other => {
                    eprintln!("unknown mode {other:?}: expected bit, byte or auto");
                    exit(2)
                }
            };
            let de = args.iter().any(|a| a == "--de");
            let params = gompresso::service::CompressParams { mode, de, block_size: 0 };
            let summary = client_call(addr, input, |client| {
                let reader = fs::File::open(input).unwrap_or_else(|e| {
                    eprintln!("cannot read {input}: {e}");
                    exit(2)
                });
                let writer = fs::File::create(output).unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    exit(2)
                });
                client.compress(params, std::io::BufReader::new(reader), std::io::BufWriter::new(writer))
            });
            println!(
                "{input}: {} -> {} bytes via {addr} (ratio {:.2}:1, {} blocks)",
                summary.uncompressed,
                summary.compressed,
                summary.uncompressed as f64 / summary.compressed.max(1) as f64,
                summary.blocks
            );
        }
        Some("decompress") if args.len() >= 3 => {
            let (input, output) = (&args[1], &args[2]);
            let summary = client_call(addr, input, |client| {
                let reader = fs::File::open(input).unwrap_or_else(|e| {
                    eprintln!("cannot read {input}: {e}");
                    exit(2)
                });
                let writer = fs::File::create(output).unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    exit(2)
                });
                client.decompress(std::io::BufReader::new(reader), std::io::BufWriter::new(writer))
            });
            println!(
                "{input}: {} bytes restored via {addr} ({} blocks)",
                summary.uncompressed, summary.blocks
            );
        }
        Some("verify") if args.len() >= 2 => {
            let input = &args[1];
            let summary = client_call(addr, input, |client| {
                let reader = fs::File::open(input).unwrap_or_else(|e| {
                    eprintln!("cannot read {input}: {e}");
                    exit(2)
                });
                client.verify(std::io::BufReader::new(reader))
            });
            println!("{input}: OK ({} bytes, all checksums verified via {addr})", summary.uncompressed);
        }
        Some("stats") => {
            let stats = client_call(addr, addr, |client| client.stats());
            print!("{}", stats.render());
        }
        Some("shutdown") => {
            client_call(addr, addr, |client| client.shutdown());
            println!("{addr}: draining");
        }
        _ => usage(),
    }
}

fn demo() {
    println!("no arguments given — running the self-contained demo\n");
    let dir = std::env::temp_dir().join("gompresso_file_tool_demo");
    fs::create_dir_all(&dir).expect("cannot create temp dir");
    let input = dir.join("demo.xml");
    let archive = dir.join("demo.gpso");
    let restored = dir.join("demo.out");
    let data: Vec<u8> = b"<entry><k>alpha</k><v>1</v></entry>\n".repeat(20_000);
    fs::write(&input, &data).expect("cannot write demo input");

    cmd_compress(input.to_str().unwrap(), archive.to_str().unwrap(), "bit", true);
    cmd_info(archive.to_str().unwrap());
    cmd_decompress(archive.to_str().unwrap(), restored.to_str().unwrap(), "planned");
    assert_eq!(fs::read(&restored).unwrap(), data);
    let slice = dir.join("demo.slice");
    cmd_cat(archive.to_str().unwrap(), slice.to_str().unwrap(), Some("36..108"));
    assert_eq!(fs::read(&slice).unwrap(), &data[36..108]);
    println!("\ndemo round trip (and a random-access slice) verified under {}", dir.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => demo(),
        Some("compress") if args.len() >= 4 => {
            let mode = args.get(4).map(String::as_str).filter(|m| *m != "--de").unwrap_or("bit");
            let de = args.iter().any(|a| a == "--de");
            cmd_compress(&args[2], &args[3], mode, de);
        }
        Some("decompress") if args.len() >= 4 => {
            let strategy = args.get(4).map(String::as_str).unwrap_or("planned");
            cmd_decompress(&args[2], &args[3], strategy);
        }
        Some("cat") if args.len() >= 4 => {
            let range = args
                .iter()
                .position(|a| a == "--range")
                .map(|i| args.get(i + 1).map(String::as_str).unwrap_or_else(|| usage()));
            cmd_cat(&args[2], &args[3], range);
        }
        Some("info") if args.len() >= 3 => cmd_info(&args[2]),
        Some("index") if args.len() >= 3 => cmd_index(&args[2]),
        Some("verify") if args.len() >= 3 => cmd_verify(&args[2]),
        Some("salvage") if args.len() >= 4 => cmd_salvage(&args[2], &args[3]),
        Some("client") if args.len() >= 4 => cmd_client(&args[2], &args[3..]),
        _ => usage(),
    }
}
