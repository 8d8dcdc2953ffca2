//! Batched-vs-serial sampler equivalence — the contract of
//! `NegativeSampler::sample_batch`.
//!
//! Every built-in sampler specializes `sample_batch` (grouped gathers,
//! shared ECDF passes, per-user score caches). The contract that makes the
//! batched trainer bit-exact at `batch_size = 1, k = 1` — and trustworthy
//! at any batch size — is that a specialized batch fill returns **exactly**
//! the draws of `k` looped `sample` calls per pair, consuming the RNG in
//! the identical sequence. These tests run the looped reference and the
//! batched path side by side from equal seeds, across batch sizes, k
//! values and sampler states (multiple epochs, stateful SRNS memory,
//! saturated users), and additionally confirm RNG-stream alignment by
//! comparing the next raw RNG output after the fact.

use bns::core::{build_sampler, BnsConfig, NegativeSampler, SampleContext, SamplerConfig};
use bns::data::{Dataset, Interactions};
use bns::model::{MatrixFactorization, Scorer, TripleBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// 8 users × 24 items; user 7 is saturated (owns every item) so the
/// skip/pop-row path is exercised; the rest have ~6 positives each so
/// shuffled batches repeat users.
fn dataset() -> Dataset {
    let mut pairs = Vec::new();
    for u in 0..7u32 {
        for t in 0..6u32 {
            pairs.push((u, (u * 5 + t * 4) % 24));
        }
    }
    for i in 0..24u32 {
        pairs.push((7, i));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let train = Interactions::from_pairs(8, 24, &pairs).unwrap();
    let test = Interactions::from_pairs(
        8,
        24,
        &(0..7u32).map(|u| (u, (u * 5 + 2) % 24)).collect::<Vec<_>>(),
    )
    .unwrap();
    Dataset::new("batch-eq", train, test).unwrap()
}

/// The looped reference: exactly the default `sample_batch` — per pair,
/// refresh the rating vector when the sampler wants Full access, then `k`
/// `sample` calls.
#[allow(clippy::too_many_arguments)]
fn reference_fill(
    sampler: &mut dyn NegativeSampler,
    model: &MatrixFactorization,
    d: &Dataset,
    pairs: &[(u32, u32)],
    k: usize,
    epoch: usize,
    rng: &mut StdRng,
    out: &mut TripleBatch,
) {
    out.begin_fill(k);
    let mut user_scores: Vec<f32> = Vec::new();
    for &(u, pos) in pairs {
        let full = sampler.score_access() == bns::core::ScoreAccess::Full;
        if full {
            user_scores.resize(d.n_items() as usize, 0.0);
            model.score_all(u, &mut user_scores);
        }
        let ctx = SampleContext {
            scorer: model,
            train: d.train(),
            popularity: d.popularity(),
            user_scores: if full { &user_scores } else { &[] },
            epoch,
            upcoming: &[],
        };
        let row = out.push_row(u, pos);
        let mut filled = 0usize;
        while filled < k {
            match sampler.sample(u, pos, &ctx, rng) {
                Some(j) => {
                    row[filled] = j;
                    filled += 1;
                }
                None => break,
            }
        }
        if filled < k {
            out.pop_row();
        }
    }
}

/// Runs the looped reference and the batched path from equal seeds over
/// two epochs of the full pair list and asserts identical draws and RNG
/// consumption.
fn check_equivalence(cfg: &SamplerConfig, batch_size: usize, k: usize, seed: u64) {
    let d = dataset();
    let mut rng_model = StdRng::seed_from_u64(3);
    let model =
        MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng_model).unwrap();
    let mut s_ref = build_sampler(cfg, &d, None).unwrap();
    let mut s_bat = build_sampler(cfg, &d, None).unwrap();
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let mut rng_bat = StdRng::seed_from_u64(seed);
    let pairs: Vec<(u32, u32)> = d.train().iter_pairs().collect();
    let mut out_ref = TripleBatch::new();
    let mut out_bat = TripleBatch::new();

    for epoch in 0..2 {
        s_ref.on_epoch_start(epoch);
        s_bat.on_epoch_start(epoch);
        for chunk in pairs.chunks(batch_size) {
            reference_fill(
                s_ref.as_mut(),
                &model,
                &d,
                chunk,
                k,
                epoch,
                &mut rng_ref,
                &mut out_ref,
            );
            {
                let ctx = SampleContext {
                    scorer: &model,
                    train: d.train(),
                    popularity: d.popularity(),
                    user_scores: &[],
                    epoch,
                    upcoming: &[],
                };
                s_bat.sample_batch(chunk, k, &ctx, &mut rng_bat, &mut out_bat);
            }
            assert_eq!(
                out_ref.len(),
                out_bat.len(),
                "{}: row count diverged (batch_size={batch_size}, k={k}, epoch={epoch})",
                s_ref.name()
            );
            assert_eq!(out_ref.users(), out_bat.users(), "{}: users", s_ref.name());
            assert_eq!(out_ref.pos(), out_bat.pos(), "{}: positives", s_ref.name());
            assert_eq!(
                out_ref.negs(),
                out_bat.negs(),
                "{}: draws diverged (batch_size={batch_size}, k={k}, epoch={epoch})",
                s_ref.name()
            );
        }
    }
    // Both paths must have consumed the RNG identically.
    assert_eq!(
        rng_ref.next_u64(),
        rng_bat.next_u64(),
        "{}: RNG streams desynchronized (batch_size={batch_size}, k={k})",
        s_ref.name()
    );
}

/// Every sampler configuration whose batch path has its own code shape.
fn lineup() -> Vec<SamplerConfig> {
    vec![
        SamplerConfig::Rns,
        SamplerConfig::Pns,
        SamplerConfig::Aobpr { lambda_frac: 0.05 },
        SamplerConfig::Dns { m: 4 },
        SamplerConfig::Srns {
            s1: 8,
            s2: 3,
            alpha: 1.0,
        },
        SamplerConfig::Bns {
            config: BnsConfig::default(),
            prior: bns::core::PriorKind::Popularity,
        },
        SamplerConfig::Bns {
            config: BnsConfig {
                criterion: bns::core::Criterion::PosteriorMax,
                ..BnsConfig::default()
            },
            prior: bns::core::PriorKind::Popularity,
        },
        // The ExploreExploit coin is drawn per slot after the candidate
        // set — the interleaving the batched phase 1 must reproduce.
        SamplerConfig::Bns {
            config: BnsConfig {
                criterion: bns::core::Criterion::ExploreExploit { epsilon: 0.35 },
                ..BnsConfig::default()
            },
            prior: bns::core::PriorKind::Popularity,
        },
        // Exhaustive h* candidates (no candidate RNG at all).
        SamplerConfig::Bns {
            config: BnsConfig {
                m: usize::MAX,
                ..BnsConfig::default()
            },
            prior: bns::core::PriorKind::Popularity,
        },
        // Subsampled Eq. 16 scan.
        SamplerConfig::Bns {
            config: BnsConfig {
                ecdf: bns::core::bns::EcdfStrategy::Subsample(10),
                ..BnsConfig::default()
            },
            prior: bns::core::PriorKind::Popularity,
        },
        // BNS-2 warm start: epoch 0 is uniform bulk draws, epoch 1 fused.
        SamplerConfig::Bns {
            config: BnsConfig {
                warmup_epochs: 1,
                ..BnsConfig::default()
            },
            prior: bns::core::PriorKind::Popularity,
        },
    ]
}

#[test]
fn every_sampler_batched_equals_looped_across_batch_sizes() {
    for cfg in lineup() {
        for batch_size in [1usize, 3, 7, 32] {
            check_equivalence(&cfg, batch_size, 1, 11);
        }
    }
}

#[test]
fn every_sampler_batched_equals_looped_multi_negative() {
    for cfg in lineup() {
        for k in [2usize, 4] {
            check_equivalence(&cfg, 8, k, 23);
        }
    }
}

proptest! {
    // Arbitrary (batch_size, k, seed) grouping never changes the draws for
    // the model-aware samplers with the most intricate batch paths.
    #[test]
    fn dns_batched_equals_looped(batch_size in 1usize..16, k in 1usize..4, seed in 0u64..500) {
        check_equivalence(&SamplerConfig::Dns { m: 4 }, batch_size, k, seed);
    }

    #[test]
    fn srns_batched_equals_looped(batch_size in 1usize..16, k in 1usize..4, seed in 0u64..500) {
        let cfg = SamplerConfig::Srns { s1: 8, s2: 3, alpha: 1.0 };
        check_equivalence(&cfg, batch_size, k, seed);
    }

    #[test]
    fn bns_batched_equals_looped(batch_size in 1usize..16, k in 1usize..4, seed in 0u64..500) {
        let cfg = SamplerConfig::Bns {
            config: BnsConfig::default(),
            prior: bns::core::PriorKind::Popularity,
        };
        check_equivalence(&cfg, batch_size, k, seed);
    }

    #[test]
    fn aobpr_batched_equals_looped(batch_size in 1usize..16, k in 1usize..4, seed in 0u64..500) {
        check_equivalence(&SamplerConfig::Aobpr { lambda_frac: 0.05 }, batch_size, k, seed);
    }
}
