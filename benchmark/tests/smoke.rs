//! Runs every workload for about a second on small inputs, untraced and
//! traced, and checks the result line against `BENCHMARK.json`: every
//! metric it names is printed with its unit, every output verified, no
//! operation failed, and the in-memory replays account for their own wall
//! time.

use std::path::Path;
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

/// The numeric value of metric `name` in the result line.
fn value(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result.find(&key).unwrap_or_else(|| panic!("{name} missing from {result}")) + key.len();
    let end = at + result[at..].find(',').expect("value ends");
    result[at..end].parse().unwrap_or_else(|_| panic!("{name} is not a number in {result}"))
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gompresso-benchmark"))
        .current_dir(Path::new(MANIFEST).parent().expect("repository root"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--small"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {}\n{stdout}", String::from_utf8_lossy(&out.stderr));
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert!(result.contains("\"correct\": true"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
        for (name, unit) in metrics(section) {
            let printed = format!("\"{name}\": {{\"value\": ");
            assert!(result.contains(&printed), "{workload}: {name} missing from {result}");
            assert!(value(&result, &name).is_finite(), "{workload}: {name} in {result}");
            let unit = format!("\"unit\": \"{unit}\"");
            let after = &result[result.find(&printed).expect("present")..];
            assert!(after[..after.find('}').expect("closes")].contains(&unit), "{workload}: {name} unit");
        }
        if trace && workload.starts_with("inmem") {
            let share = value(&result, "trace.attributed_share");
            assert!((0.9..=1.1).contains(&share), "{workload}: attributed share {share}");
        }
    }
}

#[test]
fn inmem_auto_wiki() {
    check("inmem-auto-wiki");
}

#[test]
fn inmem_byte_matrix() {
    check("inmem-byte-matrix");
}

#[test]
fn range_read_wiki() {
    check("range-read-wiki");
}

#[test]
fn daemon_roundtrip() {
    check("daemon-roundtrip");
}
