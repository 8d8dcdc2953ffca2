//! BNS draw-cost sweeps that no JSON runner measures: draw time against
//! the candidate-set size |Mᵤ| at a fixed catalog, and the exact ECDF
//! against the subsampled variant. Per-sampler draw cost and the
//! catalog-size scaling are recorded by `bench_json` (BENCH_samplers.json)
//! and `scale_bench` (BENCH_scale.json). (`user_scores` is precomputed
//! once outside the loops; under the `ScoreAccess` contract BNS never
//! reads it.)

use bns_bench::fixture;
use bns_core::bns::EcdfStrategy;
use bns_core::sampler::SampleContext;
use bns_core::{build_sampler, BnsConfig, NegativeSampler, PriorKind, SamplerConfig};
use bns_model::Scorer;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn draw_loop(
    sampler: &mut dyn NegativeSampler,
    fx: &bns_bench::BenchFixture,
    user_scores: &[f32],
    rng: &mut StdRng,
) -> u32 {
    let ctx = SampleContext {
        scorer: &fx.model,
        train: fx.dataset.train(),
        popularity: fx.dataset.popularity(),
        user_scores,
        epoch: 0,
    };
    let pos = fx.dataset.train().items_of(0)[0];
    sampler.sample(0, pos, &ctx, rng).unwrap_or(0)
}

fn bns_cost_vs_candidate_size(c: &mut Criterion) {
    let fx = fixture(100, 2_000, 13);
    let mut user_scores = vec![0.0f32; 2_000];
    fx.model.score_all(0, &mut user_scores);
    let mut group = c.benchmark_group("bns_draw_vs_m");
    group.sample_size(25);
    for &m in &[1usize, 5, 20, 100] {
        let cfg = SamplerConfig::Bns {
            config: BnsConfig {
                m,
                ..BnsConfig::default()
            },
            prior: PriorKind::Popularity,
        };
        let mut sampler = build_sampler(&cfg, &fx.dataset, None).expect("valid sampler");
        sampler.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(3);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(draw_loop(sampler.as_mut(), &fx, &user_scores, &mut rng)))
        });
    }
    group.finish();
}

fn ecdf_exact_vs_subsample(c: &mut Criterion) {
    let fx = fixture(100, 4_000, 17);
    let mut user_scores = vec![0.0f32; 4_000];
    fx.model.score_all(0, &mut user_scores);
    let mut group = c.benchmark_group("bns_ecdf_strategy_4k_items");
    group.sample_size(25);
    for (label, strategy) in [
        ("exact", EcdfStrategy::Exact),
        ("subsample_256", EcdfStrategy::Subsample(256)),
    ] {
        let cfg = SamplerConfig::Bns {
            config: BnsConfig {
                ecdf: strategy,
                ..BnsConfig::default()
            },
            prior: PriorKind::Popularity,
        };
        let mut sampler = build_sampler(&cfg, &fx.dataset, None).expect("valid sampler");
        sampler.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(4);
        group.bench_function(label, |b| {
            b.iter(|| black_box(draw_loop(sampler.as_mut(), &fx, &user_scores, &mut rng)))
        });
    }
    group.finish();
}

criterion_group!(benches, bns_cost_vs_candidate_size, ecdf_exact_vs_subsample);
criterion_main!(benches);
