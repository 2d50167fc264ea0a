//! End-to-end and per-layer benchmark of the Gompresso workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH] [--small]
//! ```
//!
//! With `--trace 0` the workload runs untraced for `--seconds` and the
//! end-to-end metrics are printed. With `--trace 1` untraced operations
//! alternate with traced ones (allocations counted, spans recorded), and a
//! stage-by-stage replay in the middle of the run gives the per-layer
//! metrics. Every output is checked; the last line of standard output is
//! one JSON object. README.md describes the workloads and metrics.

mod alloc;
mod replay;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workloads::{Samples, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const MIB: f64 = (1 << 20) as f64;

const USAGE: &str = "usage: gompresso-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
                     [--spans PATH] [--small]";

/// splitmix64: the seeded stream of operation offsets.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    small: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut spans, mut small) = (None, false);
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
        small,
    })
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One reported metric, with the spread of the samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    /// A metric that is the median of its samples.
    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name, value: median(&samples), unit, samples }
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, value, unit, samples: vec![value] }
    }
}

fn gbps_samples(bytes: u64, seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| bytes as f64 / s / 1e9).collect()
}

fn end_to_end(s: &Samples, setup_s: Vec<f64>) -> Vec<Metric> {
    let op_ms: Vec<f64> = s.op_s.iter().map(|t| t * 1e3).collect();
    vec![
        Metric::median_of("compress_gbps", "GB/s", gbps_samples(s.compress_bytes, &s.compress_s)),
        Metric::median_of("decompress_gbps", "GB/s", gbps_samples(s.decompress_bytes, &s.decompress_s)),
        Metric::median_of("ratio", "x", s.ratio.clone()),
        Metric::median_of("op_p50_ms", "ms", op_ms.clone()),
        Metric { name: "op_p90_ms", value: percentile(&op_ms, 90.0), unit: "ms", samples: op_ms },
        Metric::single("ops_per_s", "1/s", s.op_s.len() as f64 / s.op_wall_s),
        Metric::single("peak_rss_mb", "MB", gompresso_service::peak_rss_bytes() as f64 / 1e6),
        Metric::median_of("setup_s", "s", setup_s),
    ]
}

/// Allocations made during the traced operations.
struct AllocDelta {
    calls: u64,
    bytes: u64,
}

fn per_layer(
    w: &dyn Workload,
    untraced: &Samples,
    traced: &Samples,
    alloc: AllocDelta,
    totals: &replay::ReplayTotals,
    trace: &Trace,
) -> Vec<Metric> {
    let ms = |name: &str| trace.total_s(name) * 1e3;
    let enc_mib = totals.encoded_bytes as f64 / MIB;
    let dec_mib = totals.decoded_bytes as f64 / MIB;

    // The real path executes each block once, inside the warp walk.
    let decode_busy =
        (ms("format.parse") + ms("format.token_decode") + ms("core.warp") + ms("format.checksum_verify"))
            / dec_mib;
    let (decode_s, decode_bytes, workers) = w.decode_basis(untraced);
    let decode_wall = median(&decode_s) * 1e3 / (decode_bytes / MIB);
    let encode_busy = replay::ENCODE_STAGES.iter().map(|n| ms(n)).sum::<f64>() / enc_mib;
    let encode_wall = median(&untraced.compress_s) * 1e3 / (untraced.compress_bytes as f64 / MIB);

    let stages: f64 = replay::ENCODE_STAGES.iter().chain(&replay::DECODE_STAGES).map(|n| ms(n)).sum();
    let roots: f64 = replay::ROOTS.iter().map(|n| ms(n)).sum();
    let traced_ops = traced.op_s.len() as f64;
    let ops = untraced.op_s.len() as f64;
    vec![
        Metric::single("format.parse_ms", "ms/MiB", ms("format.parse") / dec_mib),
        Metric::single("format.token_decode_ms", "ms/MiB", ms("format.token_decode") / dec_mib),
        Metric::single("core.warp_model_ms", "ms/MiB", (ms("core.warp") - ms("lz77.execute")) / dec_mib),
        Metric::single("lz77.execute_ms", "ms/MiB", ms("lz77.execute") / dec_mib),
        Metric::single("format.checksum_verify_ms", "ms/MiB", ms("format.checksum_verify") / dec_mib),
        Metric::single("core.decode_other_ms", "ms/MiB", workers as f64 * decode_wall - decode_busy),
        Metric::single("core.plan_ms", "ms/MiB", ms("core.plan") / enc_mib),
        Metric::single("lz77.match_ms", "ms/MiB", ms("lz77.match") / enc_mib),
        Metric::single("format.entropy_encode_ms", "ms/MiB", ms("format.entropy_encode") / enc_mib),
        Metric::single("format.checksum_ms", "ms/MiB", ms("format.checksum") / enc_mib),
        Metric::single("format.frame_ms", "ms/MiB", ms("format.frame") / enc_mib),
        Metric::single("core.encode_other_ms", "ms/MiB", encode_wall - encode_busy),
        Metric::single("core.blocks_per_op", "count", untraced.blocks as f64 / ops),
        Metric::single(
            "core.read_amplification",
            "x",
            untraced.decoded_bytes as f64 / untraced.returned_bytes as f64,
        ),
        Metric::single("core.parallel_efficiency", "share", decode_busy / (workers as f64 * decode_wall)),
        Metric::single("lz77.sequences_per_mib", "count/MiB", totals.sequences as f64 / enc_mib),
        Metric::single(
            "lz77.match_share",
            "share",
            totals.matched_bytes as f64 / totals.encoded_bytes as f64,
        ),
        Metric::single("alloc.calls_per_op", "count", alloc.calls as f64 / traced_ops),
        Metric::single("alloc.bytes_per_op", "B", alloc.bytes as f64 / traced_ops),
        Metric::single("trace.attributed_share", "share", stages / roots),
        Metric::single("trace.overhead_share", "share", median(&traced.op_s) / median(&untraced.op_s) - 1.0),
    ]
}

struct Outcome {
    metrics: Vec<Metric>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args, w: &mut dyn Workload) -> Result<Outcome> {
    let mut untraced = Samples::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        if i > 0 {
            w.teardown()?;
        }
        let start = Instant::now();
        w.setup(&mut untraced)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    if !args.trace {
        w.run(Instant::now() + Duration::from_secs_f64(args.seconds), &mut untraced, None)?;
        w.teardown()?;
        return Ok(Outcome {
            correct: untraced.mismatches == 0,
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics: end_to_end(&untraced, setup_s),
        });
    }

    // Untraced and traced operations alternate one by one, and the replay
    // sits in the middle of the loop, so a host whose speed drifts over
    // the run biases neither the tracing overhead nor the `*_other` terms.
    let mut trace = Trace::new();
    let mut traced = Samples::default();
    let mut alloc = AllocDelta { calls: 0, bytes: 0 };
    let mut alternate = |w: &mut dyn Workload, trace: &mut Trace, seconds: f64| -> Result<()> {
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < until {
            w.run(Instant::now(), &mut untraced, None)?;
            let before = alloc::counts();
            alloc::set_counting(true);
            let run = w.run(Instant::now(), &mut traced, Some(&mut *trace));
            alloc::set_counting(false);
            run?;
            let after = alloc::counts();
            alloc.calls += after.0 - before.0;
            alloc.bytes += after.1 - before.1;
        }
        Ok(())
    };
    alternate(w, &mut trace, args.seconds / 2.0)?;
    let totals = replay::run(&w.replay_plan(), &mut trace)?;
    alternate(w, &mut trace, args.seconds / 2.0)?;
    w.teardown()?;
    if let Some(path) = &args.spans {
        trace.write_jsonl(path)?;
        eprintln!("wrote {} spans to {}", trace.len(), path.display());
    }
    Ok(Outcome {
        correct: untraced.mismatches == 0 && traced.mismatches == 0 && totals.verified,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: per_layer(&*w, &untraced, &traced, alloc, &totals, &trace),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = workloads::by_name(&args.workload, args.seed, args.small) else {
        eprintln!("unknown workload {}; one of {}\n{USAGE}", args.workload, workloads::NAMES.join(", "));
        return ExitCode::from(2);
    };
    let outcome = match run(&args, workload.as_mut()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            let _ = workload.teardown();
            return ExitCode::from(1);
        }
    };

    let mut json = Vec::new();
    for m in &outcome.metrics {
        let mut line = format!("{} {} {} {}", args.workload, m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            line += &format!(
                " (samples: p25={} median={} p75={} n={})",
                percentile(&m.samples, 25.0),
                median(&m.samples),
                percentile(&m.samples, 75.0),
                m.samples.len()
            );
        }
        println!("{line}");
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: some outputs did not verify", args.workload);
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed is null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
