//! Serving-path equivalence: for every trainable scorer, the frozen
//! artifact served by `bns-serve` is indistinguishable from the live
//! in-memory model — identical `evaluate_ranking` reports (the metrics are
//! a pure function of scores, so equality implies bitwise score identity
//! up to ranking) and identical top-k lists under both mask settings,
//! whatever the engine's thread count or cache configuration.

use bns::core::{build_sampler, train, NoopObserver, SamplerConfig, TrainConfig};
use bns::data::synthetic::generate;
use bns::data::{split_random, Dataset, DatasetPreset, Scale, SplitConfig};
use bns::eval::{evaluate_ranking, top_k_masked};
use bns::model::{LightGcn, MatrixFactorization, Scorer, SnapshotScorer};
use bns::serve::{ModelArtifact, QueryEngine, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    let gen_cfg = DatasetPreset::Ml100k.config(Scale::Fraction(0.05), 9);
    let synthetic = generate(&gen_cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng).unwrap();
    Dataset::new("serve-equivalence", train_set, test_set).unwrap()
}

fn trained_mf(dataset: &Dataset) -> MatrixFactorization {
    let mut rng = StdRng::seed_from_u64(3);
    let mut model =
        MatrixFactorization::new(dataset.n_users(), dataset.n_items(), 16, 0.1, &mut rng).unwrap();
    let mut sampler = build_sampler(&SamplerConfig::Dns { m: 3 }, dataset, None).unwrap();
    let tc = TrainConfig::paper_mf(4, 11);
    train(
        &mut model,
        dataset,
        sampler.as_mut(),
        &tc,
        &mut NoopObserver,
    )
    .unwrap();
    model
}

fn assert_engine_matches_live<S: SnapshotScorer + Sync>(live: &S, dataset: &Dataset) {
    let artifact = ModelArtifact::freeze(live, dataset.train()).unwrap();
    let reloaded = ModelArtifact::decode(&artifact.encode()).unwrap();

    // Metrics carry over exactly.
    let live_report = evaluate_ranking(live, dataset, &[5, 10, 20], 2);
    let frozen_report = evaluate_ranking(&reloaded, dataset, &[5, 10, 20], 2);
    assert_eq!(live_report, frozen_report);

    // Per-user rankings carry over exactly, cached and uncached, at any
    // thread count.
    let plain = QueryEngine::new(reloaded.clone());
    let cached = QueryEngine::with_cache(reloaded, 64);
    let mut scores = vec![0.0f32; dataset.n_items() as usize];
    let users = dataset.evaluable_users();
    let requests: Vec<Request> = users
        .iter()
        .chain(users.iter()) // repeats exercise cache hits
        .map(|&u| Request {
            user: u,
            k: 10,
            exclude_seen: true,
        })
        .collect();
    let a = plain.serve(&requests, 1).unwrap();
    let b = plain.serve(&requests, 3).unwrap();
    // Two workers can serve the two halves of `requests` in lockstep, each
    // missing on the user the other is computing, so a cold threaded pass
    // need not hit. Warm the cache serially first: every user then fits in
    // it, and every request of the threaded pass must be a hit.
    assert!(users.len() <= 64, "every user must fit in the cache");
    let warm = cached.serve(&requests, 1).unwrap();
    let h0 = cached.cache_hits();
    let c = cached.serve(&requests, 3).unwrap();
    assert_eq!(
        cached.cache_hits(),
        h0 + requests.len() as u64,
        "every threaded request must hit the warm cache"
    );
    for (i, &u) in users.iter().enumerate() {
        live.score_all(u, &mut scores);
        let expected = top_k_masked(&scores, dataset.train().items_of(u), 10);
        assert_eq!(a.results[i].items, expected, "1-thread, user {u}");
        assert_eq!(b.results[i].items, expected, "3-thread, user {u}");
        assert_eq!(warm.results[i].items, expected, "cold cache, user {u}");
        assert_eq!(c.results[i].items, expected, "cached, user {u}");
        // Second occurrence of the same user (cache-hit path).
        assert_eq!(warm.results[users.len() + i].items, expected);
        assert_eq!(c.results[users.len() + i].items, expected);
    }
}

#[test]
fn frozen_mf_serves_identically_to_live_model() {
    let d = dataset();
    let model = trained_mf(&d);
    assert_engine_matches_live(&model, &d);
}

#[test]
fn frozen_lightgcn_serves_identically_to_live_model() {
    let d = dataset();
    let mut rng = StdRng::seed_from_u64(13);
    let mut model = LightGcn::new(d.train(), 16, 1, 0.1, &mut rng).unwrap();
    let mut sampler = build_sampler(&SamplerConfig::Rns, &d, None).unwrap();
    let tc = TrainConfig::paper_lightgcn(3, 32, 17);
    train(&mut model, &d, sampler.as_mut(), &tc, &mut NoopObserver).unwrap();
    assert!(!model.is_stale(), "training must leave the model refreshed");
    assert_engine_matches_live(&model, &d);
}

#[test]
fn artifact_survives_swap_with_no_stale_answers() {
    // Swap a retrained artifact into a cached engine mid-traffic: every
    // post-swap answer must come from the new model.
    let d = dataset();
    let first = trained_mf(&d);
    let mut rng = StdRng::seed_from_u64(77);
    let second = MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng).unwrap();

    let mut engine = QueryEngine::with_cache(ModelArtifact::freeze(&first, d.train()).unwrap(), 64);
    let u = d.evaluable_users()[0];
    let before = engine.top_k(u, 10, true).unwrap();
    let _cached = engine.top_k(u, 10, true).unwrap(); // now cached

    engine.swap_artifact(ModelArtifact::freeze(&second, d.train()).unwrap());
    let mut scores = vec![0.0f32; d.n_items() as usize];
    second.score_all(u, &mut scores);
    let expected = top_k_masked(&scores, d.train().items_of(u), 10);
    let after = engine.top_k(u, 10, true).unwrap();
    assert_eq!(after, expected, "post-swap answer must use the new model");
    assert_ne!(before, after, "trained vs untrained rankings should differ");
}
