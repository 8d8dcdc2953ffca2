//! Cache-swap scenarios over the REAL [`bns_serve::TopKCache`]: after a
//! generation bump, no stale-generation entry can be served — and the
//! read-generation-once discipline of `QueryEngine::top_k_into` is exactly
//! what makes that true (the broken re-read variant is caught below).
//!
//! This suite is the regression net for the `swap_artifact` ordering audit
//! (ISSUE 6 satellite): `Generation::bump` publishes with Release and
//! `Generation::current` reads Acquire, and the invariant holds across
//! every explored interleaving of queries and swaps.
#![cfg(bns_model_check)]

use bns_serve::TopKCache;
use bns_sync::model::{check, run, spawn, Mode};
use bns_sync::{Generation, Mutex};
use std::sync::Arc;

const KEY: u128 = 7;

/// One query with the production protocol: observe the generation ONCE,
/// then use that observation for both the lookup and the insert. The
/// "artifact" at generation `g` is modeled as the list `[g]`, so a list
/// from the wrong artifact is immediately visible.
fn query_correct(generation: &Generation, cache: &Mutex<TopKCache>) {
    let g = generation.current();
    let mut cache = cache.lock();
    if let Some(items) = cache.get(KEY, g) {
        assert_eq!(items, [g as u32], "hit at generation {g} served stale data");
        return;
    }
    let computed = vec![g as u32];
    cache.insert(KEY, g, &computed);
}

/// The broken variant: compute under the first observation, but stamp the
/// insert with a RE-READ of the generation. A swap between the two reads
/// stamps old-artifact data as fresh.
fn query_buggy(generation: &Generation, cache: &Mutex<TopKCache>) {
    let g = generation.current();
    let computed = vec![g as u32];
    let stamp = generation.current(); // BUG under test: second read
    let mut cache = cache.lock();
    if let Some(items) = cache.get(KEY, stamp) {
        assert_eq!(
            items,
            [stamp as u32],
            "hit at generation {stamp} served stale data"
        );
        return;
    }
    cache.insert(KEY, stamp, &computed);
}

fn swap_scenario(query: fn(&Generation, &Mutex<TopKCache>)) {
    let generation = Arc::new(Generation::new());
    let cache = Arc::new(Mutex::new(TopKCache::new(4)));

    let swapper = {
        let generation = Arc::clone(&generation);
        spawn(move || {
            generation.bump();
        })
    };
    let querier = {
        let generation = Arc::clone(&generation);
        let cache = Arc::clone(&cache);
        spawn(move || query(&generation, &cache))
    };
    querier.join();
    swapper.join();

    // Post-swap serve: whatever the interleaving did, a query at the final
    // generation must never see a stale-generation list.
    let g = generation.current();
    let mut cache = cache.lock();
    if let Some(items) = cache.get(KEY, g) {
        assert_eq!(items, [g as u32], "stale entry survived the swap");
    }
}

#[test]
fn no_stale_entry_survives_a_swap_exhaustive() {
    let report = check(
        "cache-swap: correct protocol over all schedules",
        Mode::Exhaustive {
            max_executions: 200_000,
        },
        || swap_scenario(query_correct),
    );
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.executions > 1);
}

#[test]
fn concurrent_queries_and_swap_randomized() {
    // Two queriers and a swapper over the same key: bigger interleaving
    // space, seeded random exploration.
    let report = check(
        "cache-swap: 2 queriers + swapper, seeded random",
        Mode::Random {
            seed: 0xCAC4E,
            iterations: 400,
        },
        || {
            let generation = Arc::new(Generation::new());
            let cache = Arc::new(Mutex::new(TopKCache::new(4)));
            let swapper = {
                let generation = Arc::clone(&generation);
                spawn(move || {
                    generation.bump();
                })
            };
            let queriers: Vec<_> = (0..2)
                .map(|_| {
                    let generation = Arc::clone(&generation);
                    let cache = Arc::clone(&cache);
                    spawn(move || query_correct(&generation, &cache))
                })
                .collect();
            for q in queriers {
                q.join();
            }
            swapper.join();
            let g = generation.current();
            let mut cache = cache.lock();
            if let Some(items) = cache.get(KEY, g) {
                assert_eq!(items, [g as u32], "stale entry survived the swap");
            }
        },
    );
    assert_eq!(report.executions, 400);
}

#[test]
fn generation_restamping_bug_is_caught_and_replays() {
    let cex = run(
        Mode::Exhaustive {
            max_executions: 200_000,
        },
        || swap_scenario(query_buggy),
    )
    .expect_err("re-reading the generation at insert time must leak stale data");
    assert!(
        cex.message.contains("stale"),
        "unexpected failure: {}",
        cex.message
    );
    let replay = run(
        Mode::Replay {
            schedule: cex.schedule.clone(),
        },
        || swap_scenario(query_buggy),
    )
    .expect_err("the counterexample schedule must reproduce the failure");
    assert_eq!(replay.message, cex.message);
}
