//! Contrastive (InfoNCE) training with pluggable negative sampling —
//! the extension the paper's §VI proposes: "Future work can go further to
//! generalize BNS to contrastive-based learning methods."
//!
//! InfoNCE contrasts one positive against `K` negatives per anchor. The
//! negative-selection problem is identical to the pairwise case — unlabeled
//! items may be false negatives — so the same [`NegativeSampler`] policies
//! plug in. The loop runs on the same SoA [`TripleBatch`] pipeline as the
//! BPR trainers: anchors are processed in mini-batches and the sampler
//! fills all `K` slots of every anchor in one `sample_batch` call, which is
//! exactly the multi-negative workload the batched samplers amortize (one
//! candidate gather and one Eq. 16 catalog pass per user per batch instead
//! of per slot). The experiment binary `contrastive` compares RNS/DNS/BNS
//! negatives under this objective.

use crate::sampler::{NegativeSampler, SampleContext};
use crate::{CoreError, Result};
use bns_data::Dataset;
use bns_model::{MatrixFactorization, Scorer, TripleBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of the contrastive trainer.
#[derive(Debug, Clone, Copy)]
pub struct ContrastiveConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Negatives per anchor (the `K` of InfoNCE).
    pub k_negatives: usize,
    /// Anchors per sampling batch: the sampler draws the negatives for
    /// this many anchors in one `sample_batch` call (against the
    /// batch-start encoder state), amortizing per-user score work. `1`
    /// recovers the historical anchor-at-a-time schedule.
    pub batch_size: usize,
    /// Softmax temperature τ.
    pub temperature: f32,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization.
    pub reg: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ContrastiveConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            k_negatives: 8,
            batch_size: 128,
            temperature: 0.5,
            lr: 0.05,
            reg: 1e-4,
            seed: 42,
        }
    }
}

impl ContrastiveConfig {
    fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.k_negatives == 0 {
            return Err(CoreError::InvalidConfig(
                "contrastive training requires epochs > 0 and k_negatives > 0".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(CoreError::InvalidConfig(
                "contrastive batch_size must be > 0".into(),
            ));
        }
        if self.temperature <= 0.0 || !self.temperature.is_finite() {
            return Err(CoreError::InvalidConfig(
                "temperature must be finite and > 0".into(),
            ));
        }
        if self.lr <= 0.0 || !self.lr.is_finite() || self.reg < 0.0 || !self.reg.is_finite() {
            return Err(CoreError::InvalidConfig(
                "lr must be > 0 and reg >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// Per-run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ContrastiveStats {
    /// Mean InfoNCE loss per epoch.
    pub loss_per_epoch: Vec<f64>,
    /// Anchors trained.
    pub anchors: usize,
    /// Anchors skipped (user had no negatives).
    pub skipped: usize,
}

/// Trains an MF encoder with the InfoNCE objective, drawing each of the
/// `K` negatives per anchor from `sampler`.
///
/// Duplicate negatives within a slot set are kept (their gradient mass
/// accumulates, as in standard in-batch contrastive training); slots that
/// would collide with the positive are re-drawn by the sampler contract.
pub fn train_contrastive(
    model: &mut MatrixFactorization,
    dataset: &Dataset,
    sampler: &mut dyn NegativeSampler,
    config: &ContrastiveConfig,
) -> Result<ContrastiveStats> {
    config.validate()?;
    if model.n_users() != dataset.n_users() || model.n_items() != dataset.n_items() {
        return Err(CoreError::InvalidConfig(
            "model shape does not match dataset".into(),
        ));
    }
    let train_set = dataset.train();
    let popularity = dataset.popularity();
    let mut pairs: Vec<(u32, u32)> = train_set.iter_pairs().collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Reusable SoA batch: one sample_batch call fills all K slots of every
    // anchor in the chunk.
    let mut batch_buf = TripleBatch::new();

    let mut stats = ContrastiveStats {
        loss_per_epoch: Vec::with_capacity(config.epochs),
        anchors: 0,
        skipped: 0,
    };

    for epoch in 0..config.epochs {
        sampler.on_epoch_start(epoch);
        pairs.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut loss_count = 0usize;
        for chunk in pairs.chunks(config.batch_size) {
            {
                let ctx = SampleContext {
                    scorer: model as &dyn Scorer,
                    train: train_set,
                    popularity,
                    user_scores: &[],
                    epoch,
                    upcoming: &[],
                };
                sampler.sample_batch(chunk, config.k_negatives, &ctx, &mut rng, &mut batch_buf);
            }
            stats.skipped += chunk.len() - batch_buf.len();
            for (u, pos, negs) in batch_buf.iter() {
                let loss =
                    model.infonce_update(u, pos, negs, config.lr, config.reg, config.temperature);
                loss_sum += loss as f64;
                loss_count += 1;
                stats.anchors += 1;
            }
        }
        stats.loss_per_epoch.push(if loss_count == 0 {
            0.0
        } else {
            loss_sum / loss_count as f64
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rns::Rns;
    use bns_data::Interactions;

    fn tiny_dataset() -> Dataset {
        let train = Interactions::from_pairs(
            4,
            8,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 4),
                (2, 5),
                (3, 5),
                (3, 6),
            ],
        )
        .unwrap();
        let test = Interactions::from_pairs(4, 8, &[(0, 2), (1, 0), (2, 6), (3, 4)]).unwrap();
        Dataset::new("cl", train, test).unwrap()
    }

    fn mf(d: &Dataset, seed: u64) -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(seed);
        MatrixFactorization::new(d.n_users(), d.n_items(), 8, 0.1, &mut rng).unwrap()
    }

    #[test]
    fn config_validation() {
        let d = tiny_dataset();
        let mut m = mf(&d, 0);
        let mut s = Rns;
        for bad in [
            ContrastiveConfig {
                epochs: 0,
                ..Default::default()
            },
            ContrastiveConfig {
                k_negatives: 0,
                ..Default::default()
            },
            ContrastiveConfig {
                temperature: 0.0,
                ..Default::default()
            },
            ContrastiveConfig {
                lr: 0.0,
                ..Default::default()
            },
            ContrastiveConfig {
                reg: -1.0,
                ..Default::default()
            },
        ] {
            assert!(train_contrastive(&mut m, &d, &mut s, &bad).is_err());
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let d = tiny_dataset();
        let mut m = mf(&d, 1);
        let mut s = Rns;
        let cfg = ContrastiveConfig {
            epochs: 30,
            k_negatives: 4,
            ..Default::default()
        };
        let stats = train_contrastive(&mut m, &d, &mut s, &cfg).unwrap();
        assert_eq!(stats.loss_per_epoch.len(), 30);
        assert!(stats.anchors > 0);
        let first = stats.loss_per_epoch[0];
        let last = *stats.loss_per_epoch.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn learns_block_structure() {
        let d = tiny_dataset();
        let mut m = mf(&d, 2);
        let mut s = Rns;
        let cfg = ContrastiveConfig {
            epochs: 60,
            k_negatives: 4,
            ..Default::default()
        };
        train_contrastive(&mut m, &d, &mut s, &cfg).unwrap();
        // Users 0, 1 prefer items 0..4; users 2, 3 prefer 4..8.
        let own: f32 = (0..4).map(|i| m.score(0, i)).sum();
        let other: f32 = (4..8).map(|i| m.score(0, i)).sum();
        assert!(
            own > other,
            "contrastive training failed to separate blocks"
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut wrong = MatrixFactorization::new(2, 8, 4, 0.1, &mut rng).unwrap();
        let mut s = Rns;
        assert!(train_contrastive(&mut wrong, &d, &mut s, &ContrastiveConfig::default()).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let d = tiny_dataset();
        let mut m1 = mf(&d, 4);
        let mut m2 = mf(&d, 4);
        let mut s1 = Rns;
        let mut s2 = Rns;
        let cfg = ContrastiveConfig {
            epochs: 5,
            ..Default::default()
        };
        let a = train_contrastive(&mut m1, &d, &mut s1, &cfg).unwrap();
        let b = train_contrastive(&mut m2, &d, &mut s2, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(m1.score(0, 0), m2.score(0, 0));
    }
}
