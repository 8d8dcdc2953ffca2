//! Algorithm 1 — the BPR training loop with pluggable negative sampling.
//!
//! For each epoch: shuffle the training pairs, then process them in
//! mini-batches through the SoA [`TripleBatch`] pipeline — a **fill
//! phase** where the sampler draws [`TrainConfig::k_negatives`] negatives
//! per pair ([`crate::NegativeSampler::sample_batch`], Algorithm 1 lines
//! 5–13 batched) against the batch-start model state, and an **update
//! phase** where the model consumes the whole batch
//! ([`bns_model::PairwiseModel::update_batch`], line 14). Observers
//! receive every applied triple (the TNR/INF quality probes of Fig. 4
//! hook in here) and an end-of-epoch callback (ranking evaluation,
//! score-distribution probes).
//!
//! [`train`] is the **serial, bit-exact** engine: one RNG stream, one
//! deterministic schedule, reproducible to the bit (guarded by
//! `tests/trainer_repro_guard.rs`). At `batch_size = 1, k_negatives = 1`
//! — the paper's MF setup — the batched pipeline consumes the RNG and
//! applies updates exactly like the historical one-triple-at-a-time loop,
//! so the pre-batching training trace is preserved bit for bit
//! (`tests/batch_equivalence.rs` pins the sampler side of that contract;
//! the blocked MF group update pins the model side). The multi-core
//! engine in [`crate::parallel`] shares the same fill/update cycle and
//! differs only in how updates are applied.

use crate::bns::PosteriorStats;
use crate::sampler::{NegativeSampler, SampleContext, ScoreAccess};
use crate::{CoreError, Result};
use bns_data::{Dataset, Interactions, Popularity};
use bns_model::{PairwiseModel, Scorer, TripleBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training-loop configuration.
///
/// # Paper defaults
///
/// [`TrainConfig::paper_mf`] pins the paper's §IV-B1 MF setup
/// (`batch_size = 1`, constant learning rate 0.01, L2 = 0.01);
/// [`TrainConfig::paper_lightgcn`] pins the LightGCN setup (caller-chosen
/// batch size — 128, or 1024 on MovieLens-1M — with the step-decayed
/// learning rate of `SgdConfig::paper_lightgcn`). Both take `epochs`
/// explicitly because the paper trains 100 epochs at full scale while the
/// scaled-down experiment harness defaults to 40.
///
/// # Forward compatibility
///
/// New knobs may be added to this struct in future releases. It holds
/// only what both engines share: the serial [`train`] and the hogwild
/// [`crate::train_hogwild`] take the same `TrainConfig`, and the hogwild
/// engine's one extra setting, its thread count, is a plain argument.
/// Downstream code should construct it through the
/// `paper_*` constructors and functional-update syntax
/// (`TrainConfig { epochs: 10, ..TrainConfig::paper_mf(10, 0) }`) rather
/// than exhaustive struct literals, so added fields do not break it.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs `T`. Paper: 100 (§IV-B1); harness default: 40.
    pub epochs: usize,
    /// Mini-batch size. Paper: 1 for MF; 128 for LightGCN (1024 on
    /// MovieLens-1M).
    pub batch_size: usize,
    /// Negatives sampled per positive pair, the `k` of the
    /// [`bns_model::TripleBatch`] pipeline. Algorithm 1 of the paper is
    /// `k = 1` (the default and the setting of every paper table); `k > 1`
    /// is the multi-negative extension that feeds adaptive-hardness and
    /// contrastive-style workloads (each of the `k` negatives is applied as
    /// one BPR triple — MF folds them into one blocked group update).
    pub k_negatives: usize,
    /// SGD hyperparameters. Paper: learning rate 0.01 and L2 regularization
    /// 0.01 for both models; LightGCN additionally step-decays the rate.
    pub sgd: bns_model::SgdConfig,
    /// Seed for shuffling and sampling. The paper does not fix seeds; this
    /// reproduction treats the seed as part of the experiment identity
    /// (see `tests/trainer_repro_guard.rs`).
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's MF setup at `epochs` epochs.
    pub fn paper_mf(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            batch_size: 1,
            k_negatives: 1,
            sgd: bns_model::SgdConfig::paper_mf(),
            seed,
        }
    }

    /// The paper's LightGCN setup at `epochs` epochs.
    pub fn paper_lightgcn(epochs: usize, batch_size: usize, seed: u64) -> Self {
        Self {
            epochs,
            batch_size,
            k_negatives: 1,
            sgd: bns_model::SgdConfig::paper_lightgcn(),
            seed,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(CoreError::InvalidConfig("epochs must be > 0".into()));
        }
        if self.batch_size == 0 {
            return Err(CoreError::InvalidConfig("batch_size must be > 0".into()));
        }
        if self.k_negatives == 0 {
            return Err(CoreError::InvalidConfig("k_negatives must be > 0".into()));
        }
        self.sgd.validate().map_err(CoreError::from)
    }
}

/// Callbacks fired by the training loop.
pub trait TrainObserver {
    /// One triple was sampled and applied. `info` is Eq. (4)'s gradient
    /// magnitude for the sampled negative.
    fn on_triple(&mut self, epoch: usize, u: u32, pos: u32, neg: u32, info: f32);

    /// An epoch finished; the model is in a consistent (scoreable) state.
    fn on_epoch_end(&mut self, epoch: usize, model: &dyn Scorer);
}

/// An observer that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl TrainObserver for NoopObserver {
    fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {}
    fn on_epoch_end(&mut self, _: usize, _: &dyn Scorer) {}
}

/// Summary statistics of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Total triples applied.
    pub triples: usize,
    /// Pairs skipped because the user had no negatives.
    pub skipped: usize,
    /// Mean `info` per epoch (the INF numerator without labels).
    pub mean_info_per_epoch: Vec<f64>,
    /// Per-epoch sufficient statistics of the sampler's Bayesian signals
    /// (Eq. 15/16/17/32 sums for the selected negatives), drained via
    /// [`NegativeSampler::take_epoch_stats`]. All-zero entries for samplers
    /// that expose none (RNS, PNS, …); merged across shards by the
    /// parallel trainer.
    pub posterior_per_epoch: Vec<PosteriorStats>,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

/// Algorithm 1 lines 4–13 for one `(u, pos)` pair: refresh the user's
/// rating vector `x̂ᵤ` when the sampler asks for [`ScoreAccess::Full`],
/// then draw one negative.
///
/// This is the **per-pair** sampling step — the reference the batched
/// pipeline is equivalence-tested against (`tests/batch_equivalence.rs`)
/// and the baseline the benches compare batched throughput to. The
/// training engines themselves go through
/// [`crate::NegativeSampler::sample_batch`].
/// `user_scores` is the caller's reusable rating-vector buffer: it is
/// grown to `train.n_items()` and overwritten **only** under `Full`
/// access, so callers pass `Vec::new()` and never pay a catalog-sized
/// allocation unless the sampler actually demands the full vector.
/// `ScoreAccess::None` samplers trigger zero scoring work, and
/// `Candidates` samplers gather the few scores they need through the
/// context's [`Scorer::score_items`].
#[allow(clippy::too_many_arguments)] // the flat locals of Algorithm 1's inner loop
pub fn sample_pair(
    sampler: &mut dyn NegativeSampler,
    scorer: &dyn Scorer,
    train: &Interactions,
    popularity: &Popularity,
    user_scores: &mut Vec<f32>,
    u: u32,
    pos: u32,
    epoch: usize,
    rng: &mut dyn rand::RngCore,
) -> Option<u32> {
    let full = sampler.score_access() == ScoreAccess::Full;
    if full {
        user_scores.resize(train.n_items() as usize, 0.0);
        scorer.score_all(u, user_scores);
    }
    let ctx = SampleContext {
        scorer,
        train,
        popularity,
        user_scores: if full { user_scores } else { &[] },
        epoch,
    };
    sampler.sample(u, pos, &ctx, rng)
}

/// Trains `model` on `dataset.train()` with the given sampler.
///
/// This is Algorithm 1 of the paper with the sampler abstracted: lines 5–13
/// are [`NegativeSampler::sample`], line 14 is the model's BPR update.
///
/// The condensed `examples/quickstart.rs` flow — dataset, MF model, BNS
/// sampler, paper hyperparameters:
///
/// ```
/// use bns_core::bns::prior::PopularityPrior;
/// use bns_core::{train, BnsConfig, BnsSampler, NoopObserver, TrainConfig};
/// use bns_data::{Dataset, Interactions};
/// use bns_model::MatrixFactorization;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let train_set = Interactions::from_pairs(2, 6, &[(0, 0), (0, 1), (1, 3), (1, 4)])?;
/// let test_set = Interactions::from_pairs(2, 6, &[(0, 2), (1, 5)])?;
/// let dataset = Dataset::new("doc", train_set, test_set)?;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut model = MatrixFactorization::new(dataset.n_users(), dataset.n_items(), 8, 0.1, &mut rng)?;
/// let mut sampler = BnsSampler::new(
///     BnsConfig::default(), // |Mᵤ| = 5, λ = 5, min-risk rule (Eq. 32)
///     Box::new(PopularityPrior::new(dataset.popularity())),
/// )?;
///
/// // Paper MF setup: batch 1, lr 0.01, reg 0.01.
/// let config = TrainConfig::paper_mf(3, 42);
/// let stats = train(&mut model, &dataset, &mut sampler, &config, &mut NoopObserver)?;
/// assert_eq!(stats.triples, 3 * dataset.train().len());
/// assert_eq!(stats.mean_info_per_epoch.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn train<M: PairwiseModel>(
    model: &mut M,
    dataset: &Dataset,
    sampler: &mut dyn NegativeSampler,
    config: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> Result<TrainStats> {
    config.validate()?;
    if model.n_users() != dataset.n_users() || model.n_items() != dataset.n_items() {
        return Err(CoreError::InvalidConfig(format!(
            "model shape ({} users × {} items) does not match dataset ({} × {})",
            model.n_users(),
            model.n_items(),
            dataset.n_users(),
            dataset.n_items()
        )));
    }

    // lint:allow(wall-clock) — wall_seconds is reporting-only output; the
    // training trace never branches on it.
    let started = std::time::Instant::now();
    let train_set = dataset.train();
    let popularity = dataset.popularity();
    let mut pairs: Vec<(u32, u32)> = train_set.iter_pairs().collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Reusable SoA batch buffer and per-triple info output — the whole
    // fill/update cycle below is allocation-free in steady state.
    let mut batch_buf = TripleBatch::new();
    let mut infos: Vec<f32> = Vec::new();

    let mut stats = TrainStats {
        triples: 0,
        skipped: 0,
        mean_info_per_epoch: Vec::with_capacity(config.epochs),
        posterior_per_epoch: Vec::with_capacity(config.epochs),
        wall_seconds: 0.0,
    };

    for epoch in 0..config.epochs {
        let lr = config.sgd.lr.at(epoch);
        model.begin_epoch(epoch);
        sampler.on_epoch_start(epoch);
        pairs.shuffle(&mut rng);

        let mut info_sum = 0.0f64;
        let mut info_count = 0usize;

        for batch in pairs.chunks(config.batch_size) {
            model.begin_batch();
            // Fill phase: the sampler draws k negatives per pair against
            // the batch-start model state (Algorithm 1 lines 5–13, batched;
            // at batch_size = 1 this is exactly the per-pair schedule).
            {
                let ctx = SampleContext {
                    scorer: &*model,
                    train: train_set,
                    popularity,
                    user_scores: &[],
                    epoch,
                };
                sampler.sample_batch(batch, config.k_negatives, &ctx, &mut rng, &mut batch_buf);
            }
            stats.skipped += batch.len() - batch_buf.len();
            // Update phase: the model consumes the whole batch (line 14).
            model.update_batch(&batch_buf, lr, config.sgd.reg, &mut infos);
            debug_assert_eq!(infos.len(), batch_buf.n_triples());
            let mut slot = 0usize;
            for (u, pos, negs) in batch_buf.iter() {
                for &neg in negs {
                    debug_assert!(
                        !train_set.contains(u, neg),
                        "sampler returned a training positive"
                    );
                    observer.on_triple(epoch, u, pos, neg, infos[slot]);
                    info_sum += infos[slot] as f64;
                    slot += 1;
                }
            }
            info_count += infos.len();
            stats.triples += infos.len();
            model.end_batch(lr, config.sgd.reg);
        }

        stats.mean_info_per_epoch.push(if info_count == 0 {
            0.0
        } else {
            info_sum / info_count as f64
        });
        stats
            .posterior_per_epoch
            .push(sampler.take_epoch_stats().unwrap_or_default());
        observer.on_epoch_end(epoch, model as &dyn Scorer);
    }

    stats.wall_seconds = started.elapsed().as_secs_f64();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rns::Rns;
    use bns_data::{Dataset, Interactions};
    use bns_model::MatrixFactorization;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> Dataset {
        // 4 users × 8 items with a clear block structure: users 0,1 like
        // items 0..4; users 2,3 like items 4..8.
        let train = Interactions::from_pairs(
            4,
            8,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 4),
                (2, 5),
                (2, 6),
                (3, 5),
                (3, 6),
                (3, 7),
            ],
        )
        .unwrap();
        let test = Interactions::from_pairs(4, 8, &[(0, 3), (1, 0), (2, 7), (3, 4)]).unwrap();
        Dataset::new("tiny", train, test).unwrap()
    }

    fn mf(seed: u64, d: &Dataset) -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(seed);
        MatrixFactorization::new(d.n_users(), d.n_items(), 8, 0.1, &mut rng).unwrap()
    }

    #[test]
    fn config_validation() {
        let d = tiny_dataset();
        let mut m = mf(0, &d);
        let mut s = Rns;
        let bad = TrainConfig {
            epochs: 0,
            ..TrainConfig::paper_mf(1, 0)
        };
        assert!(train(&mut m, &d, &mut s, &bad, &mut NoopObserver).is_err());
        let bad = TrainConfig {
            batch_size: 0,
            ..TrainConfig::paper_mf(1, 0)
        };
        assert!(train(&mut m, &d, &mut s, &bad, &mut NoopObserver).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let mut wrong = MatrixFactorization::new(2, 8, 4, 0.1, &mut rng).unwrap();
        let mut s = Rns;
        assert!(train(
            &mut wrong,
            &d,
            &mut s,
            &TrainConfig::paper_mf(1, 0),
            &mut NoopObserver
        )
        .is_err());
    }

    #[test]
    fn trains_and_counts_triples() {
        let d = tiny_dataset();
        let mut m = mf(1, &d);
        let mut s = Rns;
        let cfg = TrainConfig::paper_mf(5, 7);
        let stats = train(&mut m, &d, &mut s, &cfg, &mut NoopObserver).unwrap();
        assert_eq!(stats.triples, 5 * d.train().len());
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.mean_info_per_epoch.len(), 5);
        assert!(stats.wall_seconds >= 0.0);
    }

    #[test]
    fn learning_separates_blocks() {
        let d = tiny_dataset();
        let mut m = mf(2, &d);
        let mut s = Rns;
        let cfg = TrainConfig::paper_mf(60, 3);
        train(&mut m, &d, &mut s, &cfg, &mut NoopObserver).unwrap();
        // User 0 must now rank its block's items above the other block's.
        let own: f32 = (0..4).map(|i| m.score(0, i)).sum();
        let other: f32 = (4..8).map(|i| m.score(0, i)).sum();
        assert!(own > other, "block structure not learned: {own} vs {other}");
    }

    #[test]
    fn observer_sees_every_triple() {
        struct Counter {
            triples: usize,
            epochs: usize,
        }
        impl TrainObserver for Counter {
            fn on_triple(&mut self, _: usize, u: u32, pos: u32, neg: u32, info: f32) {
                assert!(u < 4 && pos < 8 && neg < 8);
                assert!((0.0..=1.0).contains(&info));
                self.triples += 1;
            }
            fn on_epoch_end(&mut self, _: usize, model: &dyn Scorer) {
                assert_eq!(model.n_users(), 4);
                self.epochs += 1;
            }
        }
        let d = tiny_dataset();
        let mut m = mf(3, &d);
        let mut s = Rns;
        let mut obs = Counter {
            triples: 0,
            epochs: 0,
        };
        let cfg = TrainConfig::paper_mf(3, 11);
        let stats = train(&mut m, &d, &mut s, &cfg, &mut obs).unwrap();
        assert_eq!(obs.triples, stats.triples);
        assert_eq!(obs.epochs, 3);
    }

    #[test]
    fn reproducible_under_seed() {
        let d = tiny_dataset();
        let mut m1 = mf(4, &d);
        let mut m2 = mf(4, &d);
        let mut s1 = Rns;
        let mut s2 = Rns;
        let cfg = TrainConfig::paper_mf(4, 13);
        train(&mut m1, &d, &mut s1, &cfg, &mut NoopObserver).unwrap();
        train(&mut m2, &d, &mut s2, &cfg, &mut NoopObserver).unwrap();
        for u in 0..4 {
            for i in 0..8 {
                assert_eq!(m1.score(u, i), m2.score(u, i));
            }
        }
    }

    #[test]
    fn batch_training_works_with_lightgcn() {
        use bns_model::LightGcn;
        let d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = LightGcn::new(d.train(), 8, 1, 0.1, &mut rng).unwrap();
        let mut s = Rns;
        let cfg = TrainConfig::paper_lightgcn(10, 4, 17);
        let stats = train(&mut m, &d, &mut s, &cfg, &mut NoopObserver).unwrap();
        assert_eq!(stats.triples, 10 * d.train().len());
        // Block structure should begin to emerge.
        let own: f32 = (0..4).map(|i| m.score(0, i)).sum();
        let other: f32 = (4..8).map(|i| m.score(0, i)).sum();
        assert!(own > other);
    }
}
