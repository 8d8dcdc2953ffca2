//! Measurement plumbing shared by every workload: the one percentile rule,
//! the metric list printed as the result line, the host record, peak
//! memory, and the in-memory span trace.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q·n)` (clamped to `1..=n`), the rule `HistogramSnapshot` uses.
/// Returns 0 for an empty slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank_index(sorted.len(), q)]
}

/// The 0-based index of rank `ceil(q·n)` among `n` samples.
fn nearest_rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// A latency sample summarised by the nearest-rank rule, with the sample
/// count and the number of samples beyond the reported p99.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    /// Samples ranked above the p99 rank (`n − ceil(0.99·n)`).
    pub beyond_p99: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Self {
            n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: nearest_rank(&sorted, 0.5),
            p99: nearest_rank(&sorted, 0.99),
            beyond_p99: n - 1 - nearest_rank_index(n, 0.99),
        }
    }
}

/// Measured values by metric name; units live in the metric catalog.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _)| n)
    }
}

/// The `{"name": {"value": v, "unit": u}, …}` object of the result line,
/// in catalog order. A layer the workload does not exercise reads 0.
pub fn metrics_json(catalog: &[(&str, &str)], metrics: &Metrics) -> String {
    let body: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One `name value unit` line per catalog metric, for people.
pub fn metrics_text(catalog: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut out = String::new();
    for &(name, unit) in catalog {
        let value = metrics.get(name).unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<36} {value:>18.6} {unit}");
    }
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `VmHWM` (peak resident set) of this process in MiB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host record: cores, CPU model, SIMD codegen of this build, source
/// revision, workload and seed.
pub fn host_json(workload: &str, seed: u64) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {}, \"cpu\": \"{}\", \"fma\": {}, \"avx2\": {}, \"git_rev\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        cpu.replace('"', "'"),
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx2"),
        git_rev(),
    )
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    /// Epoch (training) or request (serving) id the span belongs to.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Nanoseconds from `origin` to `t`.
pub fn ns_between(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// The cost of one `Instant::now()` pair with nothing between, in ns: the
/// median of many back-to-back reads, measured once per process.
fn clock_pair_ns() -> f64 {
    static CLOCK: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *CLOCK.get_or_init(|| {
        let pairs: Vec<f64> = (0..2_001)
            .map(|_| {
                let t0 = Instant::now();
                let t1 = Instant::now();
                ns_between(t0, t1) as f64
            })
            .collect();
        median(&pairs)
    })
}

/// Times calls into one layer, one in every `every` of them, and counts
/// all of them. At batch size 1 a clock read costs about as much as an
/// RNS draw, so timing a fixed subset keeps the trace from distorting
/// what it measures; the estimate subtracts the clock's own cost from each
/// timed call and scales the timed total by `calls / timed`.
#[derive(Debug)]
pub struct CallTimer {
    origin: Instant,
    every: u64,
    /// Calls left until the next timed one.
    countdown: u64,
    pub calls: u64,
    timed: u64,
    timed_ns: u64,
    pub spans: Vec<Span>,
}

impl CallTimer {
    pub fn new(origin: Instant, every: u64) -> Self {
        Self {
            origin,
            every: every.max(1),
            countdown: 0,
            calls: 0,
            timed: 0,
            timed_ns: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, timing it when this call falls in the sampled subset.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.countdown > 0 {
            self.countdown -= 1;
            return f();
        }
        self.countdown = self.every - 1;
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.timed += 1;
        self.timed_ns += ns_between(t0, t1);
        self.spans.push(Span {
            name,
            parent: "epoch",
            id,
            start_ns: ns_between(self.origin, t0),
            end_ns: ns_between(self.origin, t1),
        });
        r
    }

    /// Estimated seconds spent in all calls.
    pub fn estimated_s(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let net_ns = (self.timed_ns as f64 - self.timed as f64 * clock_pair_ns()).max(0.0);
        net_ns * 1e-9 * self.calls as f64 / self.timed as f64
    }
}

/// Writes the run's spans as JSON lines under the benchmark's `out/`
/// directory (ignored by git), headed by the host record. Returns the path.
pub fn write_trace(
    workload: &str,
    seed: u64,
    header: &str,
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str(header);
    out.push('\n');
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"parent\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.parent, s.id, s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_ceil_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.beyond_p99), (100, 1));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).p50, 2.0);
    }

    #[test]
    fn call_timer_counts_every_call_and_times_a_subset() {
        let mut t = CallTimer::new(Instant::now(), 4);
        for _ in 0..10 {
            t.time("x", 0, || std::hint::black_box(1 + 1));
        }
        assert_eq!(t.calls, 10);
        assert_eq!(t.spans.len(), 3); // calls 1, 5, 9
    }
}
