//! Serving walkthrough: train → freeze → reload → query.
//!
//! Trains a BPR-MF model with Bayesian Negative Sampling, freezes it into
//! an immutable `bns-serve` artifact together with the seen-item CSR,
//! reloads the artifact from disk (checksum-verified), and serves top-10
//! queries — asserting along the way that the served rankings are
//! **bitwise identical** to what the in-memory model produces under
//! `evaluate_ranking`'s scoring path.
//!
//! ```sh
//! cargo run --release --example serve              # ≈20% ML-100K scale
//! cargo run --release --example serve -- --scale 0.05   # CI smoke
//! ```

use bns::core::bns::prior::PopularityPrior;
use bns::core::{train, BnsConfig, BnsSampler, NoopObserver, TrainConfig};
use bns::data::synthetic::generate;
use bns::data::{split_random, Dataset, DatasetPreset, Scale, SplitConfig};
use bns::eval::evaluate_ranking;
use bns::eval::top_k_masked;
use bns::model::{MatrixFactorization, Scorer};
use bns::serve::{ModelArtifact, QueryEngine, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut scale = 0.2f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes an f64 in (0, 1]");
                assert!(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
            }
            other => panic!("unknown flag {other} (expected --scale)"),
        }
    }

    // 1. Dataset + model + BNS training, exactly as examples/quickstart.rs.
    let gen_cfg = DatasetPreset::Ml100k.config(Scale::Fraction(scale), 42);
    let synthetic = generate(&gen_cfg).expect("generation succeeds");
    let mut rng = StdRng::seed_from_u64(7);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng)
            .expect("non-empty dataset splits");
    let dataset =
        Dataset::new("MovieLens-100K (synthetic)", train_set, test_set).expect("valid split");
    let mut model_rng = StdRng::seed_from_u64(1);
    let mut model = MatrixFactorization::new(
        dataset.n_users(),
        dataset.n_items(),
        32,
        0.1,
        &mut model_rng,
    )
    .expect("valid model config");
    let mut sampler = BnsSampler::new(
        BnsConfig::default(),
        Box::new(PopularityPrior::new(dataset.popularity())),
    )
    .expect("valid sampler config");
    let config = TrainConfig::paper_mf(25, 42);
    let stats = train(
        &mut model,
        &dataset,
        &mut sampler,
        &config,
        &mut NoopObserver,
    )
    .expect("training succeeds");
    println!(
        "trained {} triples over {} epochs in {:.2}s",
        stats.triples, config.epochs, stats.wall_seconds
    );

    // 2. Freeze the trained scorer + the training-positive CSR into a
    //    checksummed artifact, write it to disk, and reload it.
    let artifact = ModelArtifact::freeze(&model, dataset.train()).expect("freezable model");
    let path = std::env::temp_dir().join(format!("bns_serve_example_{}.bnsa", std::process::id()));
    artifact.save(&path).expect("artifact saved");
    let loaded = ModelArtifact::load(&path).expect("artifact reloaded, checksum verified");
    std::fs::remove_file(&path).ok();
    println!(
        "froze {} artifact: {} users × {} items, d = {}, {} bytes on disk",
        loaded.kind().name(),
        loaded.n_users(),
        loaded.n_items(),
        loaded.dim(),
        artifact.encode().len()
    );

    // 3. The reloaded artifact reproduces the live model bitwise: same
    //    top-10 ranking for every evaluable user (the §II protocol that
    //    evaluate_ranking scores), and identical ranking metrics.
    let engine = QueryEngine::new(loaded);
    let mut scores = vec![0.0f32; dataset.n_items() as usize];
    for &u in dataset.evaluable_users() {
        model.score_all(u, &mut scores);
        let live = top_k_masked(&scores, dataset.train().items_of(u), 10);
        let served = engine.top_k(u, 10, true).expect("valid user");
        assert_eq!(
            live, served,
            "served ranking diverged from the live model for user {u}"
        );
    }
    let live_report = evaluate_ranking(&model, &dataset, &[5, 10, 20], 2);
    let frozen_report = evaluate_ranking(engine.artifact(), &dataset, &[5, 10, 20], 2);
    assert_eq!(live_report, frozen_report, "metrics diverged after freeze");
    println!(
        "verified: served top-10 bitwise identical to the live model for all {} evaluable users",
        dataset.evaluable_users().len()
    );

    // 4. Serve a Zipf-ish request burst through the multi-threaded
    //    shared-cursor loop and print what production would see.
    let requests: Vec<Request> = (0..2_000)
        .map(|i| Request {
            user: dataset.evaluable_users()[(i * i) % dataset.evaluable_users().len()],
            k: 10,
            exclude_seen: true,
        })
        .collect();
    let report = engine.serve(&requests, 4).expect("valid requests");
    println!(
        "served {} queries on {} threads: {:.0} q/s, p50 {:.3} ms, p99 {:.3} ms",
        report.results.len(),
        report.threads,
        report.queries_per_sec(),
        report.latency_percentile_ms(0.5),
        report.latency_percentile_ms(0.99),
    );

    let sample = &report.results[0];
    println!(
        "user {} → top-10 recommendations: {:?}",
        sample.user, sample.items
    );
    for row in &frozen_report.rows {
        println!(
            "  @{:<2}  precision {:.4}  recall {:.4}  ndcg {:.4}",
            row.k, row.precision, row.recall, row.ndcg
        );
    }
}
