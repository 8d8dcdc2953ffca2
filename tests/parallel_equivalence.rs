//! Statistical equivalence of the sharded hogwild engine
//! (`bns_core::train_hogwild`): multi-thread hogwild training must reach
//! final ranking quality within tolerance of the serial engine on the
//! synthetic dataset — hogwild write races perturb individual updates but
//! must not degrade convergence. Both engines score through
//! `bns_model::kernel`, so they share one summation order. The serial
//! engine's bit-exact trace is pinned separately, by
//! `tests/trainer_repro_guard.rs` and `tests/reproducibility.rs`.

use bns::core::{build_sampler, train, train_hogwild, NoopObserver, SamplerConfig, TrainConfig};
use bns::data::synthetic::{generate, SyntheticConfig};
use bns::data::{split_random, Dataset, SplitConfig};
use bns::eval::evaluate_ranking;
use bns::model::MatrixFactorization;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(n_users: u32, n_items: u32, interactions: usize, seed: u64) -> Dataset {
    let cfg = SyntheticConfig {
        n_users,
        n_items,
        target_interactions: interactions,
        seed,
        ..SyntheticConfig::default()
    };
    let synthetic = generate(&cfg).expect("generation succeeds");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xEA5E);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng)
            .expect("split succeeds");
    Dataset::new("parallel-equivalence", train_set, test_set).expect("valid dataset")
}

fn model(seed: u64, d: &Dataset) -> MatrixFactorization {
    let mut rng = StdRng::seed_from_u64(seed);
    MatrixFactorization::new(d.n_users(), d.n_items(), 8, 0.1, &mut rng).expect("valid model")
}

#[test]
fn hogwild_matches_serial_final_quality_within_tolerance() {
    // Statistical equivalence on the synthetic dataset: hogwild at 4
    // shards must land within tolerance of the serial engine's final
    // NDCG@10. Seeds differ per engine only through shard derivation, so
    // the comparison is run-to-run noise + hogwild races, which the
    // epoch budget comfortably dominates.
    let d = dataset(60, 100, 2_400, 11);
    let cfg = TrainConfig::paper_mf(25, 5);

    let mut serial = model(1, &d);
    let mut s = build_sampler(&SamplerConfig::Rns, &d, None).expect("valid sampler");
    train(&mut serial, &d, s.as_mut(), &cfg, &mut NoopObserver).expect("serial run");
    let serial_report = evaluate_ranking(&serial, &d, &[10], 2);
    let serial_ndcg = serial_report.rows[0].ndcg;

    let mut hog = model(1, &d);
    let stats = train_hogwild(
        &mut hog,
        &d,
        &SamplerConfig::Rns,
        None,
        &cfg,
        4,
        &mut NoopObserver,
    )
    .expect("hogwild run");
    assert_eq!(stats.triples, cfg.epochs * d.train().len());
    let hog_report = evaluate_ranking(&hog, &d, &[10], 2);
    let hog_ndcg = hog_report.rows[0].ndcg;

    // The serial baseline must have learned something non-trivial for the
    // comparison to have teeth.
    assert!(
        serial_ndcg > 0.05,
        "serial baseline failed to learn: NDCG@10 = {serial_ndcg}"
    );
    assert!(
        hog_ndcg > 0.7 * serial_ndcg,
        "hogwild NDCG@10 {hog_ndcg} fell below tolerance of serial {serial_ndcg}"
    );
}
