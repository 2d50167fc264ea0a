//! In-memory spans recorded from the benchmark's own code around calls
//! into the workspace's public functions. Spans are kept in memory while
//! the run lasts and written out (one JSON object per line) when it ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, start and end relative to the trace origin,
/// the span that caused it and the operation it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// The span new spans are children of.
    open: Option<usize>,
    op: u64,
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new(), open: None, op: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Sets the operation id that the spans recorded from now on carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Moves on to the next operation id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Records a span that has already finished.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span =
            Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent: self.open, op: self.op };
        self.spans.push(span);
    }

    /// Opens a span that later spans nest under, until [`Trace::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent: self.open, op: self.op });
        self.open = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.open = self.spans[id].parent;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).sum::<f64>()
            * 1e-9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
