//! Shared-cursor scenarios: every index is claimed exactly once — the
//! contract `serve_parallel` (crates/serve/src/engine.rs) builds on — and
//! the checker catches the non-atomic variant that breaks it.
#![cfg(bns_model_check)]

use bns_sync::model::{check, run, spawn, yield_now, Mode};
use bns_sync::{ClaimCursor, Counter};
use std::sync::Arc;

/// The claim loop of `serve_parallel`, reduced to its protocol: workers
/// claim from one shared `ClaimCursor` until the index reaches `n_items`.
/// Returns each worker's claimed indices.
fn claim_protocol(n_items: usize, n_workers: usize) -> Vec<Vec<usize>> {
    let cursor = Arc::new(ClaimCursor::new());
    let handles: Vec<_> = (0..n_workers)
        .map(|_| {
            let cursor = Arc::clone(&cursor);
            spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let idx = cursor.claim();
                    if idx >= n_items {
                        break mine;
                    }
                    mine.push(idx);
                }
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join()).collect()
}

fn assert_exactly_once(parts: Vec<Vec<usize>>, n_items: usize) {
    let mut all: Vec<usize> = parts.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..n_items).collect::<Vec<_>>(),
        "an index was dropped or claimed twice"
    );
}

#[test]
fn every_index_claimed_exactly_once_exhaustive() {
    let report = check(
        "claim: 4 items / 2 workers, all schedules",
        Mode::Exhaustive {
            max_executions: 200_000,
        },
        || assert_exactly_once(claim_protocol(4, 2), 4),
    );
    assert!(report.complete, "state space must be fully enumerated");
    assert!(
        report.executions > 10,
        "claim races must branch the schedule"
    );
}

#[test]
fn every_index_claimed_exactly_once_randomized() {
    let report = check(
        "claim: 12 items / 3 workers, seeded random",
        Mode::Random {
            seed: 0xB2D5,
            iterations: 300,
        },
        || assert_exactly_once(claim_protocol(12, 3), 12),
    );
    assert_eq!(report.executions, 300);
}

/// The broken variant: claim with a non-atomic get-then-add over a
/// `Counter` instead of `ClaimCursor`'s atomic RMW. The checker must find
/// a double claim, and the recorded schedule must replay to it.
fn broken_claim_scenario() {
    let cursor = Arc::new(Counter::new());
    let n_items = 2usize;
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let cursor = Arc::clone(&cursor);
            spawn(move || {
                let mut mine = Vec::new();
                loop {
                    // BUG under test: read-then-increment is not atomic.
                    let idx = cursor.get() as usize;
                    yield_now();
                    cursor.incr();
                    if idx >= n_items {
                        break;
                    }
                    mine.push(idx);
                }
                mine
            })
        })
        .collect();
    let parts: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join()).collect();
    assert_exactly_once(parts, n_items);
}

#[test]
fn non_atomic_claim_is_caught_and_replays() {
    let cex = run(
        Mode::Exhaustive {
            max_executions: 200_000,
        },
        broken_claim_scenario,
    )
    .expect_err("get-then-incr claims must double-claim under some schedule");
    assert!(
        cex.message.contains("dropped or claimed twice"),
        "unexpected failure: {}",
        cex.message
    );
    let replay = run(
        Mode::Replay {
            schedule: cex.schedule.clone(),
        },
        broken_claim_scenario,
    )
    .expect_err("the counterexample schedule must reproduce the failure");
    assert_eq!(replay.message, cex.message);
    assert_eq!(replay.schedule, cex.schedule);
}
