//! SRNS — Simplified and Robustified Negative Sampling (Ding et al.,
//! NeurIPS 2020), in the simplified form the paper benchmarks.
//!
//! SRNS keeps a per-user **memory** of candidate negatives and tracks the
//! *variance* of each candidate's predicted score across epochs. Its
//! selection favors candidates that are simultaneously high-scored
//! (informative) and high-variance (empirically correlated with being a
//! true negative — false negatives converge to stably high scores):
//!
//! ```text
//! j = argmax_{l ∈ memory sample}  score(l) + α · std(l)
//! ```
//!
//! After each draw the memory is partially refreshed with fresh uniform
//! candidates so estimates do not collapse onto a frozen set. The paper's
//! §IV-B2 notes the "linear average operation of SRNS … may weaken its
//! effectiveness" — reproduced here by the same linear combination.

use crate::sampler::{draw_uniform_negative, NegativeSampler, SampleContext, ScoreAccess};
use crate::{CoreError, Result};
use bns_model::TripleBatch;
use bns_stats::Welford;
use rand::Rng;

/// Per-user candidate memory with score-variance statistics.
#[derive(Debug, Clone)]
struct UserMemory {
    items: Vec<u32>,
    stats: Vec<Welford>,
    /// Scores of `items`, valid only while `cache_stamp` matches the
    /// sampler's current batch stamp (the model is frozen within one
    /// `sample_batch` call, so same-user draws can reuse the gather).
    cached_scores: Vec<f32>,
    cache_stamp: u64,
    /// Slots refreshed since the cache was filled (their cached score is
    /// stale and re-gathered before the next same-user draw).
    dirty: Vec<u32>,
}

/// Variance-aware sampler.
#[derive(Debug, Clone)]
pub struct Srns {
    /// Memory size S₁ per user.
    memory_size: usize,
    /// Number of memory slots examined per draw (S₂).
    sample_size: usize,
    /// Weight α on the standard deviation term.
    alpha: f64,
    /// Probability of refreshing one memory slot after a draw.
    refresh_prob: f64,
    memories: Vec<Option<UserMemory>>,
    /// Reusable buffer for the S₁ memory-item scores of the current draw.
    score_scratch: Vec<f32>,
    /// Monotone id of the current `sample_batch` call (cache validity).
    batch_stamp: u64,
    /// Reusable buffers for re-gathering refreshed (dirty) slots.
    dirty_ids: Vec<u32>,
    dirty_scores: Vec<f32>,
}

impl Srns {
    /// Creates SRNS with memory size `s1`, per-draw sample size `s2 ≤ s1`,
    /// variance weight `alpha` and per-draw refresh probability.
    pub fn new(s1: usize, s2: usize, alpha: f64, refresh_prob: f64) -> Result<Self> {
        if s1 == 0 || s2 == 0 || s2 > s1 {
            return Err(CoreError::InvalidConfig(
                "SRNS requires 0 < sample_size <= memory_size".into(),
            ));
        }
        if alpha < 0.0 || !alpha.is_finite() {
            return Err(CoreError::InvalidConfig(
                "SRNS alpha must be finite and >= 0".into(),
            ));
        }
        if !(0.0..=1.0).contains(&refresh_prob) {
            return Err(CoreError::InvalidConfig(
                "SRNS refresh_prob must be in [0, 1]".into(),
            ));
        }
        Ok(Self {
            memory_size: s1,
            sample_size: s2,
            alpha,
            refresh_prob,
            memories: Vec::new(),
            score_scratch: Vec::with_capacity(s1),
            batch_stamp: 0,
            dirty_ids: Vec::new(),
            dirty_scores: Vec::new(),
        })
    }

    /// The paper-aligned default: S₁ = 20, S₂ = 5, α = 1, 20% refresh.
    pub fn paper_default() -> Self {
        Self::new(20, 5, 1.0, 0.2).expect("valid defaults")
    }

    fn memory_for<R: Rng + ?Sized>(
        &mut self,
        u: u32,
        ctx: &SampleContext<'_>,
        rng: &mut R,
    ) -> Option<&mut UserMemory> {
        if self.memories.len() <= u as usize {
            self.memories.resize_with(u as usize + 1, || None);
        }
        if self.memories[u as usize].is_none() {
            let mut items = Vec::with_capacity(self.memory_size);
            for _ in 0..self.memory_size {
                items.push(draw_uniform_negative(ctx.train, u, rng)?);
            }
            let stats = vec![Welford::new(); self.memory_size];
            self.memories[u as usize] = Some(UserMemory {
                items,
                stats,
                cached_scores: Vec::new(),
                cache_stamp: 0,
                dirty: Vec::new(),
            });
        }
        self.memories[u as usize].as_mut()
    }

    /// The S₂-sample selection and stochastic refresh shared by the
    /// per-pair and batched paths: `scores[slot]` must hold the current
    /// score of `mem.items[slot]` and have already been pushed into the
    /// Welford stats. Returns the selected item and the refreshed slot (if
    /// any), consuming RNG in exactly the per-pair order.
    #[allow(clippy::too_many_arguments)] // the flat per-draw state of one SRNS step
    fn select_and_refresh(
        sample_size: usize,
        memory_size: usize,
        alpha: f64,
        refresh_prob: f64,
        mem: &mut UserMemory,
        scores: &[f32],
        ctx: &SampleContext<'_>,
        u: u32,
        rng: &mut dyn rand::RngCore,
    ) -> (Option<u32>, Option<usize>) {
        // Examine S₂ random slots; pick argmax score + α·std.
        let mut best: Option<(f64, u32)> = None;
        for _ in 0..sample_size {
            let slot = rng.random_range(0..memory_size);
            let item = mem.items[slot];
            let value = scores[slot] as f64 + alpha * mem.stats[slot].std_dev();
            if best.map(|(v, _)| value > v).unwrap_or(true) {
                best = Some((value, item));
            }
        }

        // Stochastic memory refresh keeps exploration alive.
        let mut refreshed = None;
        if rng.random_range(0.0..1.0) < refresh_prob {
            if let Some(fresh) = draw_uniform_negative(ctx.train, u, rng) {
                let slot = rng.random_range(0..memory_size);
                mem.items[slot] = fresh;
                mem.stats[slot] = Welford::new();
                refreshed = Some(slot);
            }
        }
        (best.map(|(_, item)| item), refreshed)
    }
}

impl NegativeSampler for Srns {
    fn name(&self) -> &str {
        "SRNS"
    }

    fn sample(
        &mut self,
        u: u32,
        _pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        let sample_size = self.sample_size;
        let alpha = self.alpha;
        let refresh_prob = self.refresh_prob;
        let memory_size = self.memory_size;
        self.memory_for(u, ctx, rng)?;
        let mem = self.memories[u as usize].as_mut().expect("just ensured");

        // Score only the S₁ memory items (one gather-dot; the score_all
        // path paid O(n·d) for the same S₁ reads) and update the running
        // variance statistics.
        self.score_scratch.clear();
        self.score_scratch.resize(mem.items.len(), 0.0);
        ctx.scorer
            .score_items(u, &mem.items, &mut self.score_scratch);
        for (stat, &s) in mem.stats.iter_mut().zip(&self.score_scratch) {
            stat.push(s as f64);
        }

        let (best, _) = Self::select_and_refresh(
            sample_size,
            memory_size,
            alpha,
            refresh_prob,
            mem,
            &self.score_scratch,
            ctx,
            u,
            rng,
        );
        best
    }

    /// The batched draw: draws are processed in pair order (the RNG
    /// sequence is exactly the looped per-pair path), but the S₁-item
    /// score gather is cached per user for the duration of the batch — the
    /// model is frozen, so only slots touched by a stochastic refresh are
    /// re-gathered. Same-user draws (every `k > 1` workload, and repeated
    /// users within a shuffled batch) therefore pay one full gather plus
    /// at most one-slot incremental gathers instead of a full S₁ gather
    /// per draw.
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        self.batch_stamp += 1;
        let stamp = self.batch_stamp;
        let sample_size = self.sample_size;
        let alpha = self.alpha;
        let refresh_prob = self.refresh_prob;
        let memory_size = self.memory_size;

        crate::sampler::fill_rows(pairs, k, out, rng, |u, rng| {
            self.memory_for(u, ctx, rng)?;
            let mem = self.memories[u as usize].as_mut().expect("just ensured");
            if mem.cache_stamp != stamp {
                // First draw for this user in the batch: full gather.
                mem.cached_scores.clear();
                mem.cached_scores.resize(mem.items.len(), 0.0);
                ctx.scorer
                    .score_items(u, &mem.items, &mut mem.cached_scores);
                mem.cache_stamp = stamp;
                mem.dirty.clear();
            } else if !mem.dirty.is_empty() {
                // Re-gather only the slots a refresh replaced.
                self.dirty_ids.clear();
                for &slot in &mem.dirty {
                    self.dirty_ids.push(mem.items[slot as usize]);
                }
                self.dirty_scores.clear();
                self.dirty_scores.resize(self.dirty_ids.len(), 0.0);
                ctx.scorer
                    .score_items(u, &self.dirty_ids, &mut self.dirty_scores);
                for (&slot, &s) in mem.dirty.iter().zip(&self.dirty_scores) {
                    mem.cached_scores[slot as usize] = s;
                }
                mem.dirty.clear();
            }
            // Identical Welford pushes to the per-pair path (same values:
            // the model is frozen for the whole batch).
            for (stat, &s) in mem.stats.iter_mut().zip(&mem.cached_scores) {
                stat.push(s as f64);
            }
            // Lend the cached scores out of `mem` (no copy) so the helper
            // can mutate the memory while reading them.
            let cached = std::mem::take(&mut mem.cached_scores);
            let (best, refreshed) = Self::select_and_refresh(
                sample_size,
                memory_size,
                alpha,
                refresh_prob,
                mem,
                &cached,
                ctx,
                u,
                rng,
            );
            mem.cached_scores = cached;
            if let Some(slot) = refreshed {
                mem.dirty.push(slot as u32);
            }
            best
        });
    }

    fn score_access(&self) -> ScoreAccess {
        ScoreAccess::Candidates
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
    fn config_validation() {
        assert!(Srns::new(0, 1, 1.0, 0.1).is_err());
        assert!(Srns::new(5, 0, 1.0, 0.1).is_err());
        assert!(Srns::new(5, 6, 1.0, 0.1).is_err());
        assert!(Srns::new(5, 5, -1.0, 0.1).is_err());
        assert!(Srns::new(5, 5, 1.0, 1.5).is_err());
        assert!(Srns::new(20, 5, 1.0, 0.2).is_ok());
    }

    fn fixture(n_items: u32) -> (Interactions, Popularity, FixedScorer, Vec<f32>) {
        let train = Interactions::from_pairs(1, n_items, &[(0, 0)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scores: Vec<f32> = (0..n_items).map(|i| i as f32 * 0.1).collect();
        let scorer = FixedScorer::new(1, n_items, scores);
        let mut user_scores = vec![0.0f32; n_items as usize];
        scorer.score_all(0, &mut user_scores);
        (train, pop, scorer, user_scores)
    }

    #[test]
    fn never_samples_positive() {
        let (train, pop, scorer, user_scores) = fixture(30);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Srns::paper_default();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1_000 {
            let j = s.sample(0, 0, &ctx, &mut rng).unwrap();
            assert_ne!(j, 0);
            assert!(j < 30);
        }
    }

    #[test]
    fn favors_high_scores_with_zero_alpha() {
        let (train, pop, scorer, user_scores) = fixture(100);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        // α = 0 → pure max-score over the memory sample.
        let mut s = Srns::new(20, 5, 0.0, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut mean = 0.0f64;
        let n = 4_000;
        for _ in 0..n {
            mean += s.sample(0, 0, &ctx, &mut rng).unwrap() as f64;
        }
        mean /= n as f64;
        assert!(mean > 60.0, "mean selected id {mean} not biased high");
    }

    #[test]
    fn saturated_user_returns_none() {
        let train = Interactions::from_pairs(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(1, 2, vec![0.0; 2]);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[0.0, 0.0],
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Srns::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(s.sample(0, 0, &ctx, &mut rng), None);
    }

    #[test]
    fn memory_is_lazily_allocated_per_user() {
        let (train, pop, scorer, user_scores) = fixture(30);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut s = Srns::paper_default();
        assert!(s.memories.is_empty());
        let mut rng = StdRng::seed_from_u64(3);
        s.sample(0, 0, &ctx, &mut rng);
        assert_eq!(s.memories.len(), 1);
        assert!(s.memories[0].is_some());
    }
}
