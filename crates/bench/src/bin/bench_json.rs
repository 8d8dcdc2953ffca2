//! Machine-readable sampler and trainer benchmarks → `BENCH_samplers.json`.
//!
//! Times the hot paths with plain loops and writes one JSON file, so the
//! repo's perf trajectory can be diffed PR-over-PR:
//!
//! * draws/sec for every lineup sampler (RNS / PNS / AOBPR / DNS / SRNS /
//!   BNS), measured through `sample_pair` so each sampler pays exactly its
//!   declared `ScoreAccess` cost;
//! * the batched pipeline: per-pair vs `sample_batch` draws/sec on the
//!   same shuffled mixed-user pair stream (batch 256, k = 1);
//! * GEMV items/sec (the `score_all` kernel);
//! * BNS draws/sec against the candidate-set size |Mᵤ| ∈ {1, 5, 20, 100},
//!   and with the exact Eq. 16 ECDF against a per-epoch uniform sample of
//!   256 item ids (`EcdfStrategy::Subsample(256)`). The default sample,
//!   `DKW_SAMPLE` ids, is the exact pass on catalogs up to 18,445 items;
//!   `scale_bench` measures it above that;
//! * training triples/sec for RNS and BNS under the serial `train` and
//!   under `train_hogwild`, one epoch over a fixture with a
//!   quarter of the users.
//!   Hogwild asks for [`HOGWILD_THREADS`] workers, capped at the core
//!   count; the report records both numbers.
//!
//! ```sh
//! cargo run --release -p bns-bench --bin bench_json            # paper scale
//! cargo run --release -p bns-bench --bin bench_json -- \
//!     --users 50 --items 200 --draws 500 --out target/smoke.json   # CI smoke
//! ```

use bns_bench::{draws_per_sec, fixture, rate, write_report, Flags, Json};
use bns_core::bns::EcdfStrategy;
use bns_core::sampler::SampleContext;
use bns_core::trainer::sample_pair;
use bns_core::{
    build_sampler, train, train_hogwild, BnsConfig, NoopObserver, PriorKind, SamplerConfig,
    TrainConfig,
};
use bns_model::{Scorer, TripleBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

/// Pairs per `sample_batch` call in the batched section.
const BATCH: usize = 256;

/// Hogwild workers requested in the training section, before the cap at
/// `available_parallelism()`.
const HOGWILD_THREADS: usize = 4;

fn bns(config: BnsConfig) -> SamplerConfig {
    SamplerConfig::Bns {
        config,
        prior: PriorKind::Popularity,
    }
}

/// One `(label, draws/sec)` object.
fn rates(pairs: impl IntoIterator<Item = (String, f64)>) -> Json {
    Json::obj(pairs.into_iter().map(|(k, r)| (k, Json::Fixed(r, 1))))
}

fn main() {
    let flags = Flags::from_env(&["--users", "--items", "--draws", "--out"]);
    let users: u32 = flags.get("--users", 200);
    let items: u32 = flags.get("--items", 10_000);
    let draws: usize = flags.get("--draws", 20_000);
    let out: String = flags.get("--out", "BENCH_samplers.json".to_string());

    let fx = fixture(users, items, 41);
    let train_set = fx.dataset.train();
    let popularity = fx.dataset.popularity();
    let pair = (0, train_set.items_of(0)[0]);
    let n_items = fx.dataset.n_items() as usize;
    let dim = fx.model.dim();
    let lineup = SamplerConfig::paper_lineup();

    // Sampler lineup, each through sample_pair for one fixed pair.
    let sampler_rates = rates(lineup.iter().map(|cfg| {
        let r = draws_per_sec(
            cfg,
            &fx.dataset,
            Some(&fx.occupations),
            &fx.model,
            pair,
            draws,
        );
        (cfg.display_name().to_string(), r)
    }));

    // Batched pipeline vs per-pair on one shuffled mixed-user stream: the
    // by-user grouping only has runs to amortize when users actually
    // repeat, so both sides are measured on the same realistic epoch
    // schedule (unlike the single-user lineup rates above).
    let mut mixed_pairs: Vec<(u32, u32)> = train_set.iter_pairs().collect();
    mixed_pairs.shuffle(&mut StdRng::seed_from_u64(3));
    let passes = (draws / mixed_pairs.len().max(1)).max(2);
    let mut per_pair_mixed = Vec::new();
    let mut batched = Vec::new();
    for cfg in &lineup {
        let name = cfg.display_name().to_string();
        let mut sampler =
            build_sampler(cfg, &fx.dataset, Some(&fx.occupations)).expect("valid sampler");
        sampler.on_epoch_start(0);
        let mut user_scores = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut per_pair_pass = |pairs: &[(u32, u32)]| {
            for &(u, pos) in pairs {
                black_box(sample_pair(
                    sampler.as_mut(),
                    &fx.model,
                    train_set,
                    popularity,
                    &mut user_scores,
                    u,
                    pos,
                    0,
                    &mut rng,
                ));
            }
        };
        per_pair_pass(&mixed_pairs[..mixed_pairs.len().min(200)]);
        let r = rate(passes, || per_pair_pass(&mixed_pairs)) * mixed_pairs.len() as f64;
        per_pair_mixed.push((name.clone(), r));

        let mut sampler =
            build_sampler(cfg, &fx.dataset, Some(&fx.occupations)).expect("valid sampler");
        sampler.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut batch = TripleBatch::new();
        let ctx = SampleContext {
            scorer: &fx.model,
            train: train_set,
            popularity,
            user_scores: &[],
            epoch: 0,
        };
        let mut batched_pass = |n_chunks: usize| {
            for chunk in mixed_pairs.chunks(BATCH).take(n_chunks) {
                sampler.sample_batch(chunk, 1, &ctx, &mut rng, &mut batch);
                black_box(batch.len());
            }
        };
        batched_pass(2);
        let r = rate(passes, || batched_pass(usize::MAX)) * mixed_pairs.len() as f64;
        batched.push((name, r));
    }
    let speedups = Json::obj(
        batched
            .iter()
            .zip(&per_pair_mixed)
            .map(|((name, b), (_, p))| (name.clone(), Json::Fixed(b / p, 3))),
    );

    // GEMV throughput: items scored per second by score_all.
    let gemv_items_per_sec = {
        let mut scores = vec![0.0f32; n_items];
        rate((draws / 10).max(10), || {
            fx.model.score_all(0, &mut scores);
            black_box(scores[0]);
        }) * n_items as f64
    };

    // BNS draw cost against |Mᵤ| and against the ECDF strategy. At the
    // default scale every draw is a pass over the catalog, so these sweeps
    // take a tenth of the draw budget.
    let sweep_draws = (draws / 10).max(10);
    let by_m = rates([1usize, 5, 20, 100].map(|m| {
        let cfg = bns(BnsConfig {
            m,
            ..BnsConfig::default()
        });
        let r = draws_per_sec(&cfg, &fx.dataset, None, &fx.model, pair, sweep_draws);
        (m.to_string(), r)
    }));
    let by_ecdf = rates(
        [
            ("exact", EcdfStrategy::Exact),
            ("subsample_256", EcdfStrategy::Subsample(256)),
        ]
        .map(|(label, ecdf)| {
            let cfg = bns(BnsConfig {
                ecdf,
                ..BnsConfig::default()
            });
            let r = draws_per_sec(&cfg, &fx.dataset, None, &fx.model, pair, sweep_draws);
            (label.to_string(), r)
        }),
    );

    // Training throughput: one epoch from the same initial model, serial
    // engine vs hogwild shards. A quarter of the users keeps the serial
    // BNS epoch to seconds at paper scale.
    let train_fx = fixture((users / 4).max(8), items, 43);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = HOGWILD_THREADS.min(cores);
    let config = TrainConfig::paper_mf(1, 0xB15);
    let mut serial_rates = Vec::new();
    let mut hogwild_rates = Vec::new();
    for cfg in [SamplerConfig::Rns, bns(BnsConfig::default())] {
        let name = cfg.display_name().to_string();
        let mut triples = 0;
        let runs_per_sec = rate(1, || {
            let mut model = train_fx.model.clone();
            let mut sampler = build_sampler(&cfg, &train_fx.dataset, None).expect("valid sampler");
            let stats = train(
                &mut model,
                &train_fx.dataset,
                sampler.as_mut(),
                &config,
                &mut NoopObserver,
            )
            .expect("serial training");
            triples = stats.triples;
        });
        serial_rates.push((name.clone(), runs_per_sec * triples as f64));
        let runs_per_sec = rate(1, || {
            let mut model = train_fx.model.clone();
            let stats = train_hogwild(
                &mut model,
                &train_fx.dataset,
                &cfg,
                None,
                &config,
                threads,
                &mut NoopObserver,
            )
            .expect("hogwild training");
            triples = stats.triples;
        });
        hogwild_rates.push((name, runs_per_sec * triples as f64));
    }

    let report = Json::obj([
        ("schema", 1u32.into()),
        (
            "config",
            Json::obj([
                ("n_users", users.into()),
                ("n_items", items.into()),
                ("dim", dim.into()),
                ("draws", draws.into()),
            ]),
        ),
        ("samplers_draws_per_sec", sampler_rates),
        (
            "batched",
            Json::obj([
                ("batch_size", BATCH.into()),
                ("k_negatives", 1u32.into()),
                ("per_pair_mixed_draws_per_sec", rates(per_pair_mixed)),
                ("batched_draws_per_sec", rates(batched)),
                ("batched_speedup", speedups),
            ]),
        ),
        ("gemv_items_per_sec", Json::Fixed(gemv_items_per_sec, 1)),
        (
            "bns_candidate_size",
            Json::obj([("draws", sweep_draws.into()), ("draws_per_sec_by_m", by_m)]),
        ),
        (
            "bns_ecdf_strategy",
            Json::obj([("draws", sweep_draws.into()), ("draws_per_sec", by_ecdf)]),
        ),
        (
            "training",
            Json::obj([
                ("n_users", train_fx.dataset.n_users().into()),
                ("n_items", train_fx.dataset.n_items().into()),
                ("epochs", config.epochs.into()),
                ("requested_threads", HOGWILD_THREADS.into()),
                ("threads", threads.into()),
                ("serial_triples_per_sec", rates(serial_rates)),
                ("hogwild_triples_per_sec", rates(hogwild_rates)),
            ]),
        ),
    ]);
    write_report(&out, &report);
}
