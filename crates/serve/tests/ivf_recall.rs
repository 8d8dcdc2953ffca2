//! The quantitative gate of the ANN serving path: the IVF index has no
//! bitwise contract against the exact ranking (that is the point of
//! approximate retrieval), so it carries a measured **recall@10 ≥ 0.95**
//! gate at the default probe width instead — across seeds, shapes and
//! both retrieval entry points — plus determinism pins: the same seed
//! must freeze byte-identical indexes, and IVF answers must be a pure
//! function of `(artifact, nprobe)`.

use bns_data::Interactions;
use bns_model::MatrixFactorization;
use bns_serve::{IndexMode, IvfConfig, ModelArtifact, QueryEngine, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Freezes a random MF of the given shape with a forced IVF index.
fn frozen(n_users: u32, n_items: u32, dim: usize, seed: u64) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = MatrixFactorization::new(n_users, n_items, dim, 0.1, &mut rng).unwrap();
    let pairs: Vec<(u32, u32)> = (0..n_users)
        .flat_map(|u| [(u, (u * 13) % n_items), (u, (u * 29 + 5) % n_items)])
        .collect();
    let mut pairs = pairs;
    pairs.sort_unstable();
    pairs.dedup();
    let seen = Interactions::from_pairs(n_users, n_items, &pairs).unwrap();
    ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default())).unwrap()
}

/// Mean recall@k of the IVF engine against the exact engine over every
/// user, at the index's default probe width.
fn mean_recall_at_default_nprobe(artifact: &ModelArtifact, k: usize) -> (f64, usize) {
    let nprobe = artifact.index().unwrap().default_nprobe();
    let exact = QueryEngine::new(artifact.clone());
    let ivf = QueryEngine::with_index_mode(artifact.clone(), IndexMode::Ivf { nprobe }).unwrap();
    let n_users = artifact.seen().n_users();
    let mut total = 0.0f64;
    for u in 0..n_users {
        let truth = exact.top_k(u, k, true).unwrap();
        let approx = ivf.top_k(u, k, true).unwrap();
        let hit = truth.iter().filter(|i| approx.contains(i)).count();
        total += hit as f64 / truth.len().max(1) as f64;
    }
    (total / n_users as f64, nprobe)
}

#[test]
fn recall_at_10_is_at_least_095_across_seeds_and_shapes() {
    // Random (untrained) embeddings are the *hard* case for IVF-MIPS —
    // trained tables are more clusterable — so a 0.95 gate here is
    // conservative for real serving.
    let shapes: &[(u32, u32, usize, u64)] = &[
        (40, 2000, 8, 7),
        (40, 3000, 16, 11),
        (40, 1200, 4, 13),
        (40, 2000, 8, 101),
        (40, 3000, 16, 103),
    ];
    for &(n_users, n_items, dim, seed) in shapes {
        let artifact = frozen(n_users, n_items, dim, seed);
        let (recall, nprobe) = mean_recall_at_default_nprobe(&artifact, 10);
        assert!(
            recall >= 0.95,
            "recall@10 = {recall:.4} < 0.95 at {n_items} items × dim {dim}, seed {seed} \
             (nprobe {nprobe}, {} clusters)",
            artifact.index().unwrap().n_clusters()
        );
    }
}

#[test]
fn same_seed_freezes_byte_identical_indexes() {
    let a = frozen(20, 1500, 8, 42).encode();
    let b = frozen(20, 1500, 8, 42).encode();
    assert_eq!(a, b, "same seed must freeze byte-identical artifacts");

    let mut rng = StdRng::seed_from_u64(42);
    let model = MatrixFactorization::new(20, 1500, 8, 0.1, &mut rng).unwrap();
    let seen = Interactions::from_pairs(20, 1500, &[(0, 3)]).unwrap();
    let base = ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default()))
        .unwrap()
        .encode();
    let reseeded = ModelArtifact::freeze_with(
        &model,
        &seen,
        Some(IvfConfig {
            seed: 777,
            ..IvfConfig::default()
        }),
    )
    .unwrap()
    .encode();
    assert_ne!(base, reseeded, "the k-means seed must reach the bytes");
}

#[test]
fn ivf_answers_are_identical_across_runs_threads_and_entry_points() {
    let artifact = frozen(30, 2500, 8, 17);
    let nprobe = artifact.index().unwrap().default_nprobe();
    let engine = QueryEngine::with_index_mode(artifact.clone(), IndexMode::Ivf { nprobe }).unwrap();
    let requests: Vec<Request> = (0..90u32)
        .map(|i| Request {
            user: i % 30,
            k: 10,
            exclude_seen: i % 2 == 0,
        })
        .collect();
    let single = engine.serve(&requests, 1).unwrap();
    let multi = engine.serve(&requests, 4).unwrap();
    for (a, b) in single.results.iter().zip(&multi.results) {
        assert_eq!(a.items, b.items, "IVF answers moved across schedules");
    }
}

#[test]
fn raising_nprobe_converges_to_the_exact_ranking() {
    let artifact = frozen(25, 1600, 8, 23);
    let n_clusters = artifact.index().unwrap().n_clusters();
    let exact = QueryEngine::new(artifact.clone());
    let mut last = -1.0f64;
    for nprobe in [1usize, n_clusters / 4, n_clusters] {
        let nprobe = nprobe.max(1);
        let ivf =
            QueryEngine::with_index_mode(artifact.clone(), IndexMode::Ivf { nprobe }).unwrap();
        let mut total = 0.0;
        for u in 0..25u32 {
            let truth = exact.top_k(u, 10, true).unwrap();
            let approx = ivf.top_k(u, 10, true).unwrap();
            total += truth.iter().filter(|i| approx.contains(i)).count() as f64 / 10.0;
        }
        let recall = total / 25.0;
        assert!(
            recall >= last - 1e-9,
            "recall must not fall as nprobe grows: {last:.4} -> {recall:.4} at nprobe {nprobe}"
        );
        last = recall;
    }
    assert!(
        (last - 1.0).abs() < 1e-12,
        "probing every cluster must reach recall 1.0, got {last}"
    );
}
