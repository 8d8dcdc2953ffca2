//! AOBPR — Adaptive Oversampling for BPR (Rendle & Freudenthaler, WSDM 2014).
//!
//! Samples a *rank* `r` with probability `∝ exp(−r/λ)` and returns the item
//! currently at global rank `r` in the user's predicted score vector
//! ("over-sampling global higher ranked negatives", §IV-A2 of the paper).
//!
//! The original paper amortizes rank lookups with factor-wise sampling
//! tricks; at this reproduction's scale an exact selection
//! (`select_nth_unstable` on a scratch copy of the score vector, O(n)) per
//! draw is faster than maintaining stale rank caches and keeps the sampler
//! exact. The λ parameter is expressed as a fraction of the catalog so the
//! same config transfers across dataset scales.

use crate::sampler::{group_runs_by_user, NegativeSampler, SampleContext, ScoreAccess};
use crate::{CoreError, Result};
use bns_model::TripleBatch;
use bns_stats::dist::{Continuous, Exponential};

/// Rank-exponential oversampler.
#[derive(Debug, Clone)]
pub struct Aobpr {
    /// λ as a fraction of the item count.
    lambda_frac: f64,
    /// Scratch buffer of `(score, item)` pairs.
    scratch: Vec<(f32, u32)>,
    /// Batched-draw buffers (per-draw users/ranks, the by-user grouping
    /// index, and the per-user rating vector of the grouped pass).
    draw_users: Vec<u32>,
    draw_ranks: Vec<u32>,
    order: Vec<u32>,
    score_buf: Vec<f32>,
}

impl Aobpr {
    /// Creates AOBPR with `λ = lambda_frac · n_items` (default 0.05 — the
    /// mass concentrates on the top ~5% of ranks).
    pub fn new(lambda_frac: f64) -> Result<Self> {
        if lambda_frac <= 0.0 || !lambda_frac.is_finite() {
            return Err(CoreError::InvalidConfig(
                "AOBPR lambda fraction must be finite and > 0".into(),
            ));
        }
        Ok(Self {
            lambda_frac,
            scratch: Vec::new(),
            draw_users: Vec::new(),
            draw_ranks: Vec::new(),
            order: Vec::new(),
            score_buf: Vec::new(),
        })
    }

    /// The configured λ fraction.
    pub fn lambda_frac(&self) -> f64 {
        self.lambda_frac
    }

    /// Samples a rank `∼ Exp(λ)` truncated to the negative count — the only
    /// randomness of a draw, independent of every score.
    fn sample_rank(&self, n_items: usize, n_negs: usize, rng: &mut dyn rand::RngCore) -> usize {
        let lambda = (self.lambda_frac * n_items as f64).max(1.0);
        let exp = Exponential::new(1.0 / lambda).expect("positive rate");
        (exp.sample(rng).floor() as usize).min(n_negs - 1)
    }

    /// Rebuilds `scratch` with `(score, item)` for every negative of `u`
    /// (ascending item order) and selects the item at descending-score rank
    /// `rank`. Rebuilt per draw so the `select_nth_unstable` permutation of
    /// a previous draw can never leak into tie resolution.
    fn select_at_rank(
        scratch: &mut Vec<(f32, u32)>,
        user_scores: &[f32],
        positives: &[u32],
        rank: usize,
    ) -> u32 {
        scratch.clear();
        let mut pos_idx = 0usize;
        for (i, &s) in user_scores.iter().enumerate() {
            let i = i as u32;
            if pos_idx < positives.len() && positives[pos_idx] == i {
                pos_idx += 1;
                continue;
            }
            scratch.push((s, i));
        }
        scratch
            .select_nth_unstable_by(rank, |a, b| {
                b.0.partial_cmp(&a.0).expect("scores are finite")
            })
            .1
             .1
    }
}

impl NegativeSampler for Aobpr {
    fn name(&self) -> &str {
        "AOBPR"
    }

    fn sample(
        &mut self,
        u: u32,
        _pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        let n_items = ctx.n_items() as usize;
        let n_negs = ctx.train.n_negatives(u);
        if n_negs == 0 {
            return None;
        }
        debug_assert_eq!(ctx.user_scores.len(), n_items);
        let rank = self.sample_rank(n_items, n_negs, rng);
        Some(Self::select_at_rank(
            &mut self.scratch,
            ctx.user_scores,
            ctx.train.items_of(u),
            rank,
        ))
    }

    /// The batched draw: ranks (the only RNG) are sampled per `(pair,
    /// slot)` in pair order, then the batch is grouped by user and the full
    /// rating vector of Algorithm 1 line 4 is computed **once per distinct
    /// user** instead of once per pair. Rank selection itself is rebuilt
    /// per draw, so the draws equal the looped per-pair path exactly.
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        out.begin_fill(k);
        let n_items = ctx.n_items() as usize;
        self.draw_users.clear();
        self.draw_ranks.clear();

        // Phase A (all the RNG): one truncated-exponential rank per slot.
        for &(u, pos) in pairs {
            let n_negs = ctx.train.n_negatives(u);
            if n_negs == 0 {
                continue;
            }
            out.push_row(u, pos);
            for _ in 0..k {
                let rank = self.sample_rank(n_items, n_negs, rng);
                self.draw_users.push(u);
                self.draw_ranks.push(rank as u32);
            }
        }

        // Phase B: one score_all per distinct user; per-draw rank select.
        group_runs_by_user(&self.draw_users, &mut self.order);
        let negs = out.negs_mut();
        let mut run = 0usize;
        while run < self.order.len() {
            let user = self.draw_users[self.order[run] as usize];
            self.score_buf.resize(n_items, 0.0);
            ctx.scorer.score_all(user, &mut self.score_buf);
            let positives = ctx.train.items_of(user);
            while run < self.order.len() && self.draw_users[self.order[run] as usize] == user {
                let d = self.order[run] as usize;
                negs[d] = Self::select_at_rank(
                    &mut self.scratch,
                    &self.score_buf,
                    positives,
                    self.draw_ranks[d] as usize,
                );
                run += 1;
            }
        }
    }

    fn score_access(&self) -> ScoreAccess {
        // Rank-`r` selection is global: it genuinely needs every score of
        // the user (Algorithm 1 line 4), unlike the candidate samplers.
        ScoreAccess::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::{Interactions, Popularity};
    use bns_model::scorer::FixedScorer;
    use bns_model::Scorer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_lambda() {
        assert!(Aobpr::new(0.0).is_err());
        assert!(Aobpr::new(f64::NAN).is_err());
        assert!((Aobpr::new(0.05).unwrap().lambda_frac() - 0.05).abs() < 1e-12);
    }

    fn context_fixture(
        n_items: u32,
        positives: &[(u32, u32)],
    ) -> (Interactions, Popularity, FixedScorer, Vec<f32>) {
        let train = Interactions::from_pairs(1, n_items, positives).unwrap();
        let pop = Popularity::from_interactions(&train);
        // Score increases with item id → top rank = highest id.
        let scores: Vec<f32> = (0..n_items).map(|i| i as f32).collect();
        let scorer = FixedScorer::new(1, n_items, scores);
        let mut user_scores = vec![0.0f32; n_items as usize];
        scorer.score_all(0, &mut user_scores);
        (train, pop, scorer, user_scores)
    }

    #[test]
    fn oversamples_top_ranked_negatives() {
        let (train, pop, scorer, user_scores) = context_fixture(100, &[(0, 99)]);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Aobpr::new(0.05).unwrap(); // λ = 5 ranks
        let mut rng = StdRng::seed_from_u64(0);
        let mut top10 = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let j = s.sample(0, 99, &ctx, &mut rng).unwrap();
            assert_ne!(j, 99, "sampled the positive");
            // Top-10 negatives by score are items 89..=98.
            if j >= 89 {
                top10 += 1;
            }
        }
        let frac = top10 as f64 / n as f64;
        // With λ = 5, P(rank < 10) = 1 − e^{−2} ≈ 0.86.
        assert!(frac > 0.7, "top-10 fraction {frac}");
    }

    #[test]
    fn never_samples_positives_even_at_top_rank() {
        // The positive IS the highest-scored item; rank 0 among negatives
        // must skip it.
        let (train, pop, scorer, user_scores) = context_fixture(50, &[(0, 49), (0, 48)]);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Aobpr::new(0.01).unwrap(); // extremely peaked: rank ≈ 0
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let j = s.sample(0, 49, &ctx, &mut rng).unwrap();
            assert!(j != 49 && j != 48, "sampled positive {j}");
        }
    }

    #[test]
    fn saturated_user_returns_none() {
        let (train, pop, scorer, user_scores) = context_fixture(2, &[(0, 0), (0, 1)]);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Aobpr::new(0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(s.sample(0, 0, &ctx, &mut rng), None);
    }
}
