//! Measurement primitives: exact percentiles, the metric table, spans with
//! per-layer self time, peak memory, and the environment stamp.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A sample of values with exact nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, p: f64) -> usize {
        ((p / 100.0) * self.sorted.len() as f64).ceil().max(1.0) as usize
    }

    /// The nearest-rank `p`-th percentile (0 for an empty sample).
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p).min(self.sorted.len()) - 1]
    }

    /// How many samples lie beyond the `p`-th percentile.
    pub fn beyond(&self, p: f64) -> usize {
        self.sorted.len().saturating_sub(self.rank(p))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// `"p50=…,p99=…,n=…,beyond_p99=…"`: the percentiles with the sample
    /// count and the number of samples beyond the p99, for the details line.
    pub fn describe(&self) -> String {
        format!(
            "p50={:.4},p99={:.4},n={},beyond_p99={}",
            self.pct(50.0),
            self.pct(99.0),
            self.len(),
            self.beyond(99.0)
        )
    }
}

/// Splits `len` consecutive items into windows of `window`; a trailing part
/// shorter than a window joins the window before it, and fewer than
/// `window` items make one window.
pub fn windows(len: usize, window: usize) -> Vec<std::ops::Range<usize>> {
    let count = (len / window.max(1)).max(1);
    (0..count).map(|w| w * window..if w + 1 == count { len } else { (w + 1) * window }).collect()
}

/// The median over [`windows`] of `values` of `stat` of each window, and
/// the number of windows. A stall of the host spoils the windows it falls
/// in, not the run.
pub fn windowed_median(
    values: &[f64],
    window: usize,
    stat: impl Fn(&Sample) -> f64,
) -> (f64, usize) {
    let ranges = windows(values.len(), window);
    let per: Vec<f64> =
        ranges.iter().map(|r| stat(&Sample::new(values[r.clone()].to_vec()))).collect();
    (Sample::new(per).pct(50.0), ranges.len())
}

/// Which run prints a metric: the untraced run prints the end-to-end
/// metrics, the traced run the per-layer ones.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    PerLayer,
}

/// Every metric the benchmark prints: name, unit, tier. `BENCHMARK.json`
/// lists the same names with the same units (checked by a self-test).
pub const METRICS: &[(&str, &str, Tier)] = &[
    ("setup_s", "s", Tier::EndToEnd),
    ("latency_p50_ms", "ms", Tier::EndToEnd),
    ("latency_p99_ms", "ms", Tier::EndToEnd),
    ("throughput_qps", "q/s", Tier::EndToEnd),
    ("capacity_qps", "q/s", Tier::EndToEnd),
    ("cost_per_query_ms", "ms", Tier::EndToEnd),
    ("memory_mib", "MiB", Tier::EndToEnd),
    ("server.queue_wait_p99_ms", "ms", Tier::PerLayer),
    ("server.service_p50_ms", "ms", Tier::PerLayer),
    ("server.service_p99_ms", "ms", Tier::PerLayer),
    ("server.admit_us", "us", Tier::PerLayer),
    ("server.batch_fill", "req/batch", Tier::PerLayer),
    ("server.swap_ms", "ms", Tier::PerLayer),
    ("update.p50_ms", "ms", Tier::PerLayer),
    ("update.p99_ms", "ms", Tier::PerLayer),
    ("core.run_ms.E", "ms", Tier::PerLayer),
    ("core.run_ms.L", "ms", Tier::PerLayer),
    ("core.nodes_settled", "count", Tier::PerLayer),
    ("core.verifications", "count", Tier::PerLayer),
    ("core.range_nn", "count", Tier::PerLayer),
    ("core.cache_hit_ratio", "ratio", Tier::PerLayer),
    ("storage.accesses_per_query", "count", Tier::PerLayer),
    ("storage.faults_per_query", "count", Tier::PerLayer),
    ("storage.hit_ratio", "ratio", Tier::PerLayer),
    ("storage.paged_overhead_ms", "ms", Tier::PerLayer),
    ("storage.build_s", "s", Tier::PerLayer),
    ("index.rknn_us", "us", Tier::PerLayer),
    ("index.label_scans", "count", Tier::PerLayer),
    ("index.bucket_scans", "count", Tier::PerLayer),
    ("index.candidates", "count", Tier::PerLayer),
    ("index.delta_update_us", "us", Tier::PerLayer),
    ("index.build_s", "s", Tier::PerLayer),
    ("index.label_mib", "MiB", Tier::PerLayer),
    ("obs.scrape_ms", "ms", Tier::PerLayer),
    ("bench.late_p99_ms", "ms", Tier::PerLayer),
    ("bench.probe_ms", "ms", Tier::PerLayer),
    ("bench.residual_ms", "ms", Tier::PerLayer),
    ("bench.trace_overhead_p50_ms", "ms", Tier::PerLayer),
    ("bench.trace_overhead_p99_ms", "ms", Tier::PerLayer),
    ("self.bench_ms", "ms", Tier::PerLayer),
    ("self.server_ms", "ms", Tier::PerLayer),
    ("self.core_ms", "ms", Tier::PerLayer),
    ("self.storage_ms", "ms", Tier::PerLayer),
    ("self.index_ms", "ms", Tier::PerLayer),
    ("self.obs_ms", "ms", Tier::PerLayer),
];

/// The result of one benchmark run: the metric values, the answer checks,
/// and the free-form details printed on the line before the result.
#[derive(Debug, Default)]
pub struct RunResult {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct (wrong answers,
    /// unaccounted requests); empty means correct.
    pub errors: Vec<String>,
    pub wrong_answers: u64,
    pub details: Vec<(String, String)>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(METRICS.iter().any(|m| m.0 == name), "metric {name} is not in the metric table");
        self.values.insert(name, value);
    }

    /// Records a wrong answer; the first few are kept verbatim.
    pub fn wrong_answer(&mut self, what: String) {
        self.wrong_answers += 1;
        if self.wrong_answers <= 5 {
            self.errors.push(format!("wrong answer: {what}"));
        }
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// The final output line: `correct`, `attempted`, `failed` and every
    /// metric of `tier`. A metric the run did not set is reported as an
    /// error, never silently as zero.
    pub fn result_line(&mut self, tier: Tier) -> String {
        let mut metrics = String::new();
        for &(name, unit, t) in METRICS {
            if t != tier {
                continue;
            }
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors.push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !metrics.is_empty() {
                metrics.push(',');
            }
            write!(metrics, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
                .expect("string");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The details line: the stamp, the sample counts and everything else
    /// recorded with [`RunResult::detail`].
    pub fn details_line(&self) -> String {
        let mut out = format!("{{\"wrong_answers\":{},\"details\":{{", self.wrong_answers);
        for (i, (k, v)) in self.details.iter().chain(&stamp()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":\"{}\"", escape(k), escape(v)).expect("string");
        }
        out.push_str("},\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\"", escape(e)).expect("string");
        }
        out.push_str("]}");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string"),
            c => out.push(c),
        }
    }
    out
}

/// The environment every result is stamped with.
fn stamp() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    vec![
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("profile".into(), env!("PERFBENCH_PROFILE").into()),
        ("git_rev".into(), env!("PERFBENCH_GIT_REV").into()),
        ("source_digest".into(), env!("PERFBENCH_SOURCE_DIGEST").into()),
    ]
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// One span: a named interval of the run, optionally caused by a parent
/// span and tied to a request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// The spans of a traced run, kept in memory and written out at the end.
/// A span's layer is its name up to the first dot (`server.queue` belongs
/// to `server`).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span { name, start, end: end.max(start), parent, request });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per layer: each span's duration minus the part of its
    /// interval that its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start.max(s.start), self.spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut cursor = s.start;
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    union += b - a;
                    cursor = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_default() += (s.end - s.start).saturating_sub(union);
        }
        out
    }

    /// Writes the spans as JSON lines (`name`, `start_us`, `end_us` relative
    /// to the run start, `parent` index, `request` id).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{request}}}",
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.pct(50.0), 500.0);
        assert_eq!(s.pct(99.0), 990.0);
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(Sample::new(vec![]).pct(50.0), 0.0);
    }

    #[test]
    fn windowed_median_ignores_a_spoiled_window() {
        let mut values: Vec<f64> = (0..3500).map(|i| f64::from(i % 100)).collect();
        values[1200..1300].iter_mut().for_each(|v| *v = 1e6);
        let (p99, windows) = windowed_median(&values, 1000, |s| s.pct(99.0));
        assert_eq!((p99, windows), (98.0, 3));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0);
        let root = log.push("bench.request", at(0), at(100), None, Some(1));
        log.push("server.queue", at(10), at(50), Some(root), Some(1));
        log.push("server.service", at(40), at(90), Some(root), Some(1));
        let by_layer = log.self_time_by_layer();
        assert_eq!(by_layer["bench"], Duration::from_micros(20));
        assert_eq!(by_layer["server"], Duration::from_micros(90));
    }
}
