//! Measurement plumbing: percentiles, the in-memory span recorder, the
//! answer digest, run context and the JSON result line.

use blinkdb_exec::QueryAnswer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Percentile rungs a tail may stand for, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0];

/// Nearest-rank percentile `q` (0–100) of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A timing summary: the median of every sample, and a tail.
///
/// The tail is the highest ladder percentile that still has at least
/// ten samples beyond it in every one of up to `slots` equal stretches
/// of the run, taken per stretch and reported as the median over
/// stretches: a burst of host noise then moves one stretch, not the
/// figure.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub slices: usize,
    pub samples: usize,
}

/// Samples a time slice of a tail should average, so that its rung
/// does not flip between runs whose sample counts differ a little.
const SLICE_SAMPLES: usize = 400;

fn rung(n: usize) -> f64 {
    let beyond = |q: f64| n - ((q / 100.0) * n as f64).ceil() as usize;
    // With fewer than 20 samples no rung at or above p50 has ten beyond
    // it; the median then stands in and says so through the rung.
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(q) >= 10)
        .unwrap_or(50.0)
}

/// `values[i]` was measured in time slot `slot[i]` of `slots` (slots in
/// time order). Adjacent slots are merged, halving the count, until a
/// slice holds about [`SLICE_SAMPLES`] samples.
pub fn timing(values: &[f64], slot: &[usize], slots: usize) -> Timing {
    assert_eq!(values.len(), slot.len(), "one slot per sample");
    let n = values.len();
    let mut slices = slots.max(1);
    while slices > 1 && n / slices < SLICE_SAMPLES {
        slices /= 2;
    }
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (&v, &s) in values.iter().zip(slot) {
        by_slice[s.min(slots - 1) * slices / slots].push(v);
    }
    by_slice.retain(|v| !v.is_empty());
    let q = rung(by_slice.iter().map(Vec::len).min().unwrap_or(0));
    let tails: Vec<f64> = by_slice.iter().map(|v| percentile(&sorted(v), q)).collect();
    Timing {
        p50: percentile(&sorted(values), 50.0),
        tail: median(&tails),
        tail_pct: q,
        slices: tails.len(),
        samples: n,
    }
}

/// [`timing`] of samples that all share one slot.
pub fn timing_flat(values: &[f64]) -> Timing {
    timing(values, &vec![0; values.len()], 1)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// One recorded span: a call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// The span of the request this call belongs to (`None` for a root).
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per call; enabled, two clock reads and one short lock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result with its duration
    /// (measured whether or not spans are recorded).
    pub fn span<R>(
        &self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        if self.on {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
            });
        }
        (r, end - start)
    }

    /// Opens a root span for a request whose children are recorded
    /// later; returns its id (`None` when recording is off).
    pub fn root(&self, request: u64, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = (Instant::now() - self.t0).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent: None,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        Some(id)
    }

    /// Closes a root span opened by [`Tracer::root`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let now = (Instant::now() - self.t0).as_nanos() as u64;
            self.spans.lock().expect("span recorder poisoned")[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }
}

/// FNV-1a over the bits of an answer: groups, estimates, variances,
/// row counts and error methods. Equal digests mean bit-identical
/// answers.
pub fn answer_digest(answer: &QueryAnswer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&answer.rows_scanned.to_le_bytes());
    eat(&answer.rows_matched.to_le_bytes());
    for row in &answer.rows {
        for v in &row.group {
            eat(v.to_string().as_bytes());
            eat(&[0xff]);
        }
        for a in &row.aggs {
            eat(&a.estimate.to_bits().to_le_bytes());
            eat(&a.variance.to_bits().to_le_bytes());
            eat(&a.rows_used.to_le_bytes());
            eat(&[a.exact as u8]);
            eat(a.method.to_string().as_bytes());
        }
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Host fingerprint and source revision, recorded with every result.
pub fn host_context() -> BTreeMap<&'static str, String> {
    let mut c = BTreeMap::new();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    c.insert("cores", cores.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    c.insert("cpu_model", cpu);
    c.insert("git_sha", git_sha().unwrap_or_else(|| "unknown".into()));
    c
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree without history reports `None`.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
}

/// Metrics of one run, by name: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.request,
            json_str(s.name),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = timing_flat(&v);
        assert_eq!((t.tail_pct, t.tail, t.p50), (99.0, 990.0, 500.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(timing_flat(&v).tail_pct, 50.0);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(timing_flat(&v).tail_pct, 75.0);
    }

    #[test]
    fn a_burst_in_one_slice_does_not_move_the_tail() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from(i % 500)).collect();
        let slot: Vec<usize> = (0..2000).map(|i| i / 125).collect();
        for x in &mut v[..40] {
            *x = 1e6;
        }
        let t = timing(&v, &slot, 16);
        assert_eq!((t.slices, t.tail_pct), (4, 95.0));
        assert_eq!(t.tail, 474.0);
    }
}
