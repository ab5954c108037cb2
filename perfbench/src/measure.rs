//! Measurement plumbing: order statistics, process memory, the in-memory
//! span recorder behind the traced run, and the run report.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Completed operations per second of a closed loop, from `(client,
/// completion)` pairs: for each client, the inverse of the median gap
/// between its consecutive completions, summed over clients. A host
/// stall lengthens a few gaps, not the figure.
pub fn closed_loop_rate(completions: &[(usize, Instant)]) -> f64 {
    let mut clients: BTreeMap<usize, Vec<Instant>> = BTreeMap::new();
    for &(client, end) in completions {
        clients.entry(client).or_default().push(end);
    }
    clients
        .values_mut()
        .map(|ends| {
            ends.sort();
            let gaps: Vec<f64> = ends.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            1.0 / median(&gaps)
        })
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One recorded span: a named interval, the span that caused it, and the
/// operation (request, event or engine run) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// In-memory span recorder. Disabled recorders keep nothing, so the
/// untraced run pays one branch per span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span explicitly (for spans whose body needs the tracer).
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Records an interval measured elsewhere (a client thread's round
    /// trip), as a root span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent: None, req });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns: its duration minus the part of its
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut kids: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        (self.spans[c].start_ns.max(s.start_ns), self.spans[c].end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Median duration, in ms, of the spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        median(&xs)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{self_ns}}}\n",
                s.name, s.start_ns, s.end_ns, s.req
            ));
        }
        std::fs::write(path, out)
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics in print order: name → (value, unit).
    pub metrics: Vec<(String, f64, String)>,
    /// Deterministic work counters, printed next to the timings.
    pub counters: BTreeMap<String, u64>,
    /// Free-form notes (sample counts, percentile bases).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation and its outcome.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}
