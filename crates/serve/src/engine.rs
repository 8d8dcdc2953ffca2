//! The multi-threaded request loop: scoped workers claiming requests
//! from one shared cursor.
//!
//! Every worker loops on [`ClaimCursor::claim`] until the claimed index
//! passes the batch length, so whichever worker is free takes the next
//! request. Skewed request costs (cache hits vs full-catalog queries, hot
//! vs cold users) therefore cannot strand work behind a slow worker.
//!
//! Scheduling never changes answers: each request is claimed by exactly
//! one worker, computed with that worker's private [`QueryScratch`], and
//! written back to its input position. The report is identical whatever
//! the thread count — only the latency distribution moves.
//!
//! The worker count is capped at `available_parallelism()`: every worker
//! is CPU-bound for its whole life, so threads beyond the core count add
//! no throughput but push the latency tail out by the scheduler timeslice
//! — a preempted worker holds its claimed request for a full quantum
//! (~10ms under default CFS), which is three orders of magnitude above a
//! normal query.

use crate::query::{QueryEngine, QueryScratch};
use bns_model::Scorer;
use bns_sync::ClaimCursor;
use std::time::Instant;

/// One top-k query: `user`, cutoff `k`, and whether the user's frozen
/// training positives are excluded from the list (§II protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// User id within the artifact's id space.
    pub user: u32,
    /// Recommendation-list cutoff.
    pub k: usize,
    /// Mask the user's seen items out of the list.
    pub exclude_seen: bool,
}

/// One answered request: the ranked list and its service latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedList {
    /// The requesting user.
    pub user: u32,
    /// Item ids, best first; shorter than `k` when the candidate pool is.
    pub items: Vec<u32>,
    /// Wall-clock service time of this single request, in nanoseconds.
    pub latency_ns: u64,
}

/// The outcome of one [`QueryEngine::serve`] batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Answers aligned with the request batch (index i answers request i).
    pub results: Vec<RankedList>,
    /// Wall-clock duration of the whole batch.
    pub wall_seconds: f64,
    /// Worker threads actually used, after clamping to the request count
    /// and `available_parallelism()`. When this is below
    /// [`requested_threads`](Self::requested_threads), the host could not
    /// honor the request — a "multi-thread" benchmark section with
    /// `threads: 1` ran serial and should be read as such.
    pub threads: usize,
    /// Worker threads the caller asked for, before clamping.
    pub requested_threads: usize,
}

impl ServeReport {
    /// Aggregate queries per second over the batch.
    pub fn queries_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.wall_seconds.max(1e-12)
    }

    /// [`nearest_rank`](bns_sync::nearest_rank) latency percentile in
    /// milliseconds (`q` in `[0, 1]`, e.g. `0.5` for p50, `0.99` for p99).
    /// Returns 0 for empty batches.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let Some(rank) = bns_sync::nearest_rank(q, self.results.len() as u64) else {
            return 0.0;
        };
        let mut lat: Vec<u64> = self.results.iter().map(|r| r.latency_ns).collect();
        lat.sort_unstable();
        lat[rank as usize - 1] as f64 / 1e6
    }
}

/// Runs the shared-cursor loop. Requests must be pre-validated (the
/// engine's public `serve` wrapper does); a worker panics on an invalid
/// user rather than dropping the request silently.
pub(crate) fn serve_parallel(
    engine: &QueryEngine,
    requests: &[Request],
    n_threads: usize,
) -> ServeReport {
    let requested_threads = n_threads;
    let n = requests.len();
    // Cap at the core count: an extra CPU-bound worker on a saturated box
    // cannot raise throughput, but its preemptions stretch p99 by a whole
    // scheduler quantum per involuntary context switch. An empty batch
    // gets zero workers.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let n_threads = n_threads.max(1).min(n).min(cores);
    let n_items = engine.artifact().n_items() as usize;
    // ClaimCursor claims are exclusive, so every request is answered
    // exactly once (pinned across interleavings by the bns-check `steal`
    // scenarios); each worker overshoots `n` by one failed claim.
    let cursor = ClaimCursor::new();

    let started = Instant::now();
    let parts: Vec<Vec<(usize, RankedList)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut scratch = QueryScratch::new();
                    let mut local: Vec<(usize, RankedList)> = Vec::new();
                    loop {
                        let idx = cursor.claim();
                        if idx >= n {
                            break local;
                        }
                        let r = requests[idx];
                        // Allocate the answer buffer before starting the
                        // clock: latency_ns measures the query, not the
                        // allocator. A list never outgrows the catalog,
                        // whatever `k` asks for.
                        let mut items = Vec::with_capacity(r.k.min(n_items));
                        let t0 = Instant::now();
                        engine
                            .top_k_into(r.user, r.k, r.exclude_seen, &mut scratch, &mut items)
                            .expect("requests validated before serve_parallel");
                        local.push((
                            idx,
                            RankedList {
                                user: r.user,
                                items,
                                latency_ns: t0.elapsed().as_nanos() as u64,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut slots: Vec<Option<RankedList>> = (0..n).map(|_| None).collect();
    for (idx, ranked) in parts.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "request {idx} answered twice");
        slots[idx] = Some(ranked);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every request claimed exactly once"))
        .collect();
    ServeReport {
        results,
        wall_seconds,
        threads: n_threads,
        requested_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelArtifact;
    use bns_data::Interactions;
    use bns_model::MatrixFactorization;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine(cache: bool) -> QueryEngine {
        let mut rng = StdRng::seed_from_u64(17);
        let model = MatrixFactorization::new(12, 40, 8, 0.1, &mut rng).unwrap();
        let pairs: Vec<(u32, u32)> = (0..12u32).flat_map(|u| [(u, u), (u, u + 12)]).collect();
        let seen = Interactions::from_pairs(12, 40, &pairs).unwrap();
        let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
        if cache {
            QueryEngine::with_cache(artifact, 16)
        } else {
            QueryEngine::new(artifact)
        }
    }

    fn zipfish_requests(n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(23);
        (0..n)
            .map(|_| Request {
                user: (rng.random_range(0..12u32) * rng.random_range(0..12u32)) / 12,
                k: 5,
                exclude_seen: true,
            })
            .collect()
    }

    #[test]
    fn parallel_serve_matches_sequential_answers() {
        let e = engine(false);
        let requests = zipfish_requests(300);
        let seq = e.serve(&requests, 1).unwrap();
        let par = e.serve(&requests, 4).unwrap();
        assert_eq!(seq.results.len(), 300);
        // The requested 4 workers are clamped to the machine's core count,
        // so the exact value is host-dependent; the contract under test is
        // that answers are schedule-invariant.
        assert!((1..=4).contains(&par.threads), "threads {}", par.threads);
        for (i, (a, b)) in seq.results.iter().zip(&par.results).enumerate() {
            assert_eq!(a.user, requests[i].user);
            assert_eq!(a.items, b.items, "request {i} diverged across schedules");
        }
    }

    #[test]
    fn cached_serve_matches_uncached() {
        let plain = engine(false);
        let cached = engine(true);
        let requests = zipfish_requests(200);
        let a = plain.serve(&requests, 3).unwrap();
        let b = cached.serve(&requests, 3).unwrap();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.items, y.items);
        }
        assert!(cached.cache_hits() > 0, "repeated users must hit the cache");
    }

    #[test]
    fn report_statistics() {
        let e = engine(false);
        let requests = zipfish_requests(64);
        let report = e.serve(&requests, 2).unwrap();
        assert!(report.queries_per_sec() > 0.0);
        let p50 = report.latency_percentile_ms(0.5);
        let p99 = report.latency_percentile_ms(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn empty_batch_and_oversized_thread_count() {
        let e = engine(false);
        let report = e.serve(&[], 8).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.queries_per_sec(), 0.0);
        // More threads than requests clamps cleanly.
        let one = [Request {
            user: 0,
            k: 3,
            exclude_seen: false,
        }];
        let report = e.serve(&one, 16).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.threads, 1);
        assert_eq!(
            report.requested_threads, 16,
            "the pre-clamp request must be preserved for reporting"
        );
    }

    #[test]
    fn report_distinguishes_requested_from_effective_threads() {
        let e = engine(false);
        let requests = zipfish_requests(40);
        let report = e.serve(&requests, 6).unwrap();
        assert_eq!(report.requested_threads, 6);
        assert!(report.threads <= 6);
        assert!(report.threads >= 1);
        let empty = e.serve(&[], 6).unwrap();
        assert_eq!(empty.requested_threads, 6);
        assert_eq!(empty.threads, 0);
    }

    #[test]
    fn invalid_request_rejected_before_any_work() {
        let e = engine(false);
        let requests = [
            Request {
                user: 0,
                k: 3,
                exclude_seen: true,
            },
            Request {
                user: 99,
                k: 3,
                exclude_seen: true,
            },
        ];
        assert!(matches!(
            e.serve(&requests, 2),
            Err(crate::ServeError::UnknownUser { user: 99, .. })
        ));
    }
}
