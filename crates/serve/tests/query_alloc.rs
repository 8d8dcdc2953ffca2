//! Steady-state allocation audit of the query hot path — the serving
//! counterpart of the repo-root `tests/sampler_alloc.rs` discipline.
//!
//! After one warm-up query per user (which grows the score vector, the
//! top-k selection buffer and the output list to capacity), repeated
//! [`QueryEngine::top_k_into`] calls must not touch the heap: a counting
//! global allocator (this test binary only) asserts the allocation
//! counter stays flat across thousands of subsequent queries, mixed over
//! users, cutoffs and mask settings.

use bns_data::Interactions;
use bns_model::MatrixFactorization;
use bns_serve::{IndexMode, IvfConfig, ModelArtifact, QueryEngine, QueryScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

include!("../../../tests/support/counting_alloc.rs");

fn engine() -> QueryEngine {
    let n_users = 24u32;
    let n_items = 120u32;
    let mut pairs = Vec::new();
    for u in 0..n_users {
        for k in 0..5u32 {
            pairs.push((u, (u * 11 + k * 7) % n_items));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let seen = Interactions::from_pairs(n_users, n_items, &pairs).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let model = MatrixFactorization::new(n_users, n_items, 16, 0.1, &mut rng).unwrap();
    QueryEngine::new(ModelArtifact::freeze(&model, &seen).unwrap())
}

/// The same engine, but served out of an mmap-backed artifact file — the
/// zero-copy path must be exactly as allocation-free as the owned one.
fn mapped_engine() -> QueryEngine {
    let n_users = 24u32;
    let n_items = 120u32;
    let mut pairs = Vec::new();
    for u in 0..n_users {
        for k in 0..5u32 {
            pairs.push((u, (u * 11 + k * 7) % n_items));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let seen = Interactions::from_pairs(n_users, n_items, &pairs).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let model = MatrixFactorization::new(n_users, n_items, 16, 0.1, &mut rng).unwrap();
    let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
    let path = std::env::temp_dir().join(format!("bns_query_alloc_{}.bnsa", std::process::id()));
    artifact.save(&path).unwrap();
    let mapped = ModelArtifact::load_mapped(&path).unwrap();
    // The mapping outlives the unlink on unix; clean up eagerly.
    std::fs::remove_file(&path).ok();
    #[cfg(all(unix, target_endian = "little"))]
    assert!(mapped.is_mapped(), "mapped load fell back to owned decode");
    QueryEngine::new(mapped)
}

#[test]
fn top_k_into_is_allocation_free_in_steady_state() {
    let engine = engine();
    let n_users = 24u32;
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    // Warm-up: touch every user at the largest cutoff used below so every
    // buffer reaches its steady-state capacity.
    for u in 0..n_users {
        engine
            .top_k_into(u, 20, true, &mut scratch, &mut out)
            .unwrap();
        engine
            .top_k_into(u, 20, false, &mut scratch, &mut out)
            .unwrap();
    }

    let before = allocation_count();
    for round in 0..200usize {
        for u in 0..n_users {
            let k = [5, 10, 20][round % 3];
            let exclude = round % 2 == 0;
            engine
                .top_k_into(u, k, exclude, &mut scratch, &mut out)
                .unwrap();
            assert!(out.len() <= k);
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "query hot path allocated {} times across 4800 steady-state queries",
        after - before
    );
}

#[test]
fn top_k_into_over_mapped_storage_is_allocation_free_in_steady_state() {
    let engine = mapped_engine();
    let n_users = 24u32;
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    for u in 0..n_users {
        engine
            .top_k_into(u, 20, true, &mut scratch, &mut out)
            .unwrap();
        engine
            .top_k_into(u, 20, false, &mut scratch, &mut out)
            .unwrap();
    }

    let before = allocation_count();
    for round in 0..200usize {
        for u in 0..n_users {
            let k = [5, 10, 20][round % 3];
            let exclude = round % 2 == 0;
            engine
                .top_k_into(u, k, exclude, &mut scratch, &mut out)
                .unwrap();
            assert!(out.len() <= k);
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "mapped query hot path allocated {} times across 4800 steady-state queries",
        after - before
    );
}

/// The engine fixture frozen with a forced IVF index and switched to
/// probe mode.
fn ivf_engine() -> QueryEngine {
    let n_users = 24u32;
    let n_items = 120u32;
    let mut pairs = Vec::new();
    for u in 0..n_users {
        for k in 0..5u32 {
            pairs.push((u, (u * 11 + k * 7) % n_items));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let seen = Interactions::from_pairs(n_users, n_items, &pairs).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let model = MatrixFactorization::new(n_users, n_items, 16, 0.1, &mut rng).unwrap();
    let artifact = ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default())).unwrap();
    let nprobe = artifact.index().unwrap().default_nprobe();
    QueryEngine::with_index_mode(artifact, IndexMode::Ivf { nprobe }).unwrap()
}

#[test]
fn ivf_top_k_into_is_allocation_free_in_steady_state() {
    let engine = ivf_engine();
    let n_users = 24u32;
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    // Warm-up grows the cluster-score vector, probe list, candidate
    // buffer and selection scratch to the index's steady-state sizes.
    for u in 0..n_users {
        engine
            .top_k_into(u, 20, true, &mut scratch, &mut out)
            .unwrap();
        engine
            .top_k_into(u, 20, false, &mut scratch, &mut out)
            .unwrap();
    }

    let before = allocation_count();
    for round in 0..200usize {
        for u in 0..n_users {
            let k = [5, 10, 20][round % 3];
            let exclude = round % 2 == 0;
            engine
                .top_k_into(u, k, exclude, &mut scratch, &mut out)
                .unwrap();
            assert!(out.len() <= k);
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "IVF query hot path allocated {} times across 4800 steady-state queries",
        after - before
    );
}
