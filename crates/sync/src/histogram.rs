//! Fixed log-bucket latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in a [`LatencyHistogram`].
///
/// Values 0–15 get one bucket each; above that, every power-of-two octave
/// is split into 4 sub-buckets (top two mantissa bits), so the relative
/// quantization error of any recorded value is at most 25%. The top
/// bucket absorbs everything up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 16 + 60 * 4;

/// The nearest-rank percentile rule: the 1-based rank `⌈q·n⌉`, clamped
/// to `1..=n`, of the sorted sample that reports quantile `q` of `n`
/// samples. p50 of 4 samples is the 2nd, p99 of 100 is the 99th, and
/// every quantile names a sample that was actually observed. `None` when
/// there are no samples. Every latency percentile in the workspace uses
/// this rule.
///
/// ```
/// use bns_sync::nearest_rank;
///
/// assert_eq!(nearest_rank(0.5, 4), Some(2));
/// assert_eq!(nearest_rank(0.99, 0), None);
/// ```
///
/// # Panics
/// If `q` is outside `[0, 1]`.
pub fn nearest_rank(q: f64, n: u64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "percentile must be in [0, 1]");
    (n > 0).then(|| ((q * n as f64).ceil() as u64).clamp(1, n))
}

/// A concurrent histogram of `u64` samples (latencies in nanoseconds by
/// convention) over fixed logarithmic buckets.
///
/// The struct holds **no clock**: callers measure durations at the edge
/// and feed the finished number into [`record`](Self::record). Recording
/// is one relaxed `fetch_add` per sample on a fixed-size table — no
/// allocation, no locks, safe to call from every worker thread
/// concurrently. Reading ([`snapshot`](Self::snapshot)) is a relaxed
/// sweep: totals are exact once writers quiesce, and only approximately
/// consistent while they race — the usual statistics-counter contract
/// ([`crate::Counter`]).
///
/// ```
/// use bns_sync::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for ns in [100, 200, 300, 400, 1_000_000] {
///     h.record(ns);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert!(snap.percentile(0.5) >= 200 && snap.percentile(0.5) <= 400);
/// assert!(snap.percentile(1.0) >= 1_000_000);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a sample: identity below 16, then 4 sub-buckets per
/// octave keyed by the two bits after the leading one.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (msb - 2)) & 0x3) as usize;
    16 + (msb - 4) * 4 + sub
}

/// Inclusive upper bound of a bucket (the value reported for samples that
/// landed in it — an overestimate by at most 25%).
fn bucket_upper(b: usize) -> u64 {
    if b < 16 {
        return b as u64;
    }
    let group = (b - 16) / 4;
    let sub = ((b - 16) % 4) as u64;
    let msb = group + 4;
    // Lower bound of the next sub-bucket, minus one; the last sub-bucket
    // of the top octave saturates at u64::MAX (in u128 to dodge overflow).
    let base = 1u128 << msb;
    let step = base / 4;
    u64::try_from(base + step * (sub as u128 + 1) - 1).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS]),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        #[cfg(bns_model_check)]
        crate::model::point("LatencyHistogram::record");
        // ordering: Relaxed — pure statistics: each RMW lands exactly once
        // by atomicity alone; nothing synchronizes on histogram contents
        // and readers tolerate torn cross-bucket snapshots.
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same statistics contract as the buckets.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same statistics contract as the buckets.
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current totals out into an owned [`HistogramSnapshot`].
    /// Exact once writers quiesce; while writers race, each bucket is
    /// individually correct but the set may straddle in-flight records.
    pub fn snapshot(&self) -> HistogramSnapshot {
        #[cfg(bns_model_check)]
        crate::model::point("LatencyHistogram::snapshot");
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            // ordering: Relaxed — statistics snapshot; staleness and
            // cross-bucket skew are acceptable by contract.
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            // ordering: Relaxed — statistics snapshot (see above).
            count: self.count.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot (see above).
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LatencyHistogram`]'s totals at one point in time.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`] for layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// [`nearest_rank`] percentile (`q` in `[0, 1]`), reported as the upper
    /// bound of the bucket holding that rank — an overestimate of the true
    /// sample by at most 25%. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let Some(rank) = nearest_rank(q, self.count) else {
            return 0;
        };
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Iterates the non-empty buckets as `(inclusive_upper_bound, count)`
    /// pairs, in ascending bound order — the exposition shape a `/metrics`
    /// endpoint renders.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_upper(b), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.sum, (0..16).sum::<u64>());
        for v in 0..16u64 {
            assert_eq!(s.buckets[v as usize], 1);
        }
        assert_eq!(s.percentile(0.0), 0);
    }

    #[test]
    fn nearest_rank_known_answers() {
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(nearest_rank(q, 0), None);
            assert_eq!(nearest_rank(q, 1), Some(1));
        }
        let n4 = [0.0, 0.25, 0.26, 0.5, 0.51, 0.75, 1.0].map(|q| nearest_rank(q, 4));
        assert_eq!(n4, [1, 1, 2, 2, 3, 3, 4].map(Some));
        assert_eq!(nearest_rank(0.99, 100), Some(99));
        assert_eq!(nearest_rank(0.999, 1000), Some(999));
        assert_eq!(nearest_rank(0.99, 20_000), Some(19_800));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 1]")]
    fn nearest_rank_rejects_quantiles_outside_the_unit_interval() {
        nearest_rank(1.5, 10);
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for b in 1..HISTOGRAM_BUCKETS {
            let upper = bucket_upper(b);
            assert!(upper > prev, "bucket {b} bound {upper} <= {prev}");
            prev = upper;
        }
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value maps into the bucket whose bounds contain it.
        for v in [
            0,
            1,
            15,
            16,
            17,
            100,
            1023,
            1024,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "value {v} above its bucket bound");
            if b > 0 {
                assert!(v > bucket_upper(b - 1), "value {v} below bucket {b}");
            }
        }
    }

    #[test]
    fn percentile_error_is_bounded() {
        let h = LatencyHistogram::new();
        // A known distribution: 1..=1000 microseconds in nanoseconds.
        for us in 1..=1000u64 {
            h.record(us * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.percentile(0.5) as f64;
        let p99 = s.percentile(0.99) as f64;
        // True p50 = 500_000 ns, p99 = 990_000 ns; bound: +25% / -0%.
        assert!((500_000.0..=625_000.0).contains(&p50), "p50 {p50}");
        assert!((990_000.0..=1_237_500.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..500u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 2000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn nonzero_buckets_match_totals() {
        let h = LatencyHistogram::new();
        h.record(3);
        h.record(3);
        h.record(1_000_000);
        let s = h.snapshot();
        let pairs: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (3, 2));
        assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u64>(), s.count);
    }
}
