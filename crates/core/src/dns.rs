//! DNS — Dynamic Negative Sampling (Zhang et al., SIGIR 2013).
//!
//! Draws a small uniform candidate set and returns the candidate the model
//! currently scores **highest** ("local relatively higher ranked", §IV-B1 of
//! the paper). DNS is the strongest baseline in Table II and — as the paper
//! discusses in §IV-D — the exact degenerate case of BNS under a
//! non-informative prior, because `F(x̂)` and ranking position are in
//! one-to-one correspondence.

use crate::sampler::{
    draw_candidate_append, draw_candidate_set, NegativeSampler, SampleContext, ScoreAccess,
};
use crate::{CoreError, Result};
use bns_model::TripleBatch;

/// Max-score-of-candidates sampler.
#[derive(Debug, Clone)]
pub struct Dns {
    m: usize,
    candidates: Vec<u32>,
    scores: Vec<f32>,
    batch: BatchScratch,
}

/// Reusable buffers of the batched draw (candidate sets of every draw in
/// the batch, their users, and the per-run score output).
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// Concatenated candidate sets, `m` per draw, in draw order.
    cands: Vec<u32>,
    /// User of each draw, in draw order.
    draw_users: Vec<u32>,
    /// Scores of the current run's candidates.
    run_scores: Vec<f32>,
}

impl Dns {
    /// Creates DNS with candidate-set size `m` (the paper fixes 5).
    pub fn new(m: usize) -> Result<Self> {
        if m == 0 {
            return Err(CoreError::InvalidConfig(
                "DNS candidate size must be > 0".into(),
            ));
        }
        Ok(Self {
            m,
            candidates: Vec::with_capacity(m),
            scores: Vec::with_capacity(m),
            batch: BatchScratch::default(),
        })
    }

    /// Candidate-set size.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The tie rule of the per-pair path (`max_by` semantics: keep the
    /// *last* maximal candidate), applied to one draw's score slice.
    fn argmax_last(scores: &[f32]) -> usize {
        let mut best = 0usize;
        for (slot, &s) in scores.iter().enumerate().skip(1) {
            if s.partial_cmp(&scores[best])
                .expect("scores are finite")
                .is_ge()
            {
                best = slot;
            }
        }
        best
    }
}

impl NegativeSampler for Dns {
    fn name(&self) -> &str {
        "DNS"
    }

    fn sample(
        &mut self,
        u: u32,
        _pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        if !draw_candidate_set(ctx.train, u, self.m, &mut self.candidates, rng) {
            return None;
        }
        // Score only the m candidates (one gather-dot) instead of the whole
        // catalog: O(m·d) per draw where the score_all path was O(n·d).
        self.scores.clear();
        self.scores.resize(self.candidates.len(), 0.0);
        ctx.scorer
            .score_items(u, &self.candidates, &mut self.scores);
        let best = Self::argmax_last(&self.scores);
        Some(self.candidates[best])
    }

    /// The batched draw. Candidate sets are drawn first for every `(pair,
    /// slot)` in pair order — the exact RNG sequence of the looped per-pair
    /// path, since scoring consumes no randomness — then **consecutive
    /// same-user runs** of draws (every `k > 1` row, and adjacent same-user
    /// pairs) are scored with one `score_items` gather each, straight off
    /// the contiguous candidate buffer (zero-copy: a run's candidate sets
    /// are adjacent by construction). DNS gathers are only `m` dots, so
    /// unlike BNS — whose catalog-sized ECDF pass justifies a full sort-
    /// based by-user grouping — the consecutive grouping captures the
    /// whole win without paying a per-batch sort.
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        out.begin_fill(k);
        let m = self.m;
        self.batch.cands.clear();
        self.batch.draw_users.clear();

        // Phase A (all the RNG): candidate sets in pair-major, slot-minor
        // order, exactly as the looped path would consume them — drawn
        // straight into the concatenated buffer, no per-draw copy.
        for &(u, pos) in pairs {
            out.push_row(u, pos);
            let mut ok = true;
            for _ in 0..k {
                if !draw_candidate_append(ctx.train, u, m, &mut self.batch.cands, rng) {
                    ok = false;
                    break;
                }
                self.batch.draw_users.push(u);
            }
            if !ok {
                // Saturated user: drop the row (the first slot already
                // failed before consuming RNG, so nothing was recorded).
                out.pop_row();
            }
        }

        // Phase B: one zero-copy gather per consecutive same-user run,
        // each draw's argmax (per-pair tie rule) resolved while its scores
        // are hot.
        let negs = out.negs_mut();
        let n_draws = self.batch.draw_users.len();
        let mut run = 0usize;
        while run < n_draws {
            let user = self.batch.draw_users[run];
            let mut end = run + 1;
            while end < n_draws && self.batch.draw_users[end] == user {
                end += 1;
            }
            let span = &self.batch.cands[run * m..end * m];
            self.batch.run_scores.clear();
            self.batch.run_scores.resize(span.len(), 0.0);
            ctx.scorer
                .score_items(user, span, &mut self.batch.run_scores);
            for (slot, neg) in negs[run..end].iter_mut().enumerate() {
                let scores = &self.batch.run_scores[slot * m..(slot + 1) * m];
                let best = Self::argmax_last(scores);
                *neg = span[slot * m + best];
            }
            run = end;
        }
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
    fn rejects_zero_candidates() {
        assert!(Dns::new(0).is_err());
        assert_eq!(Dns::new(5).unwrap().m(), 5);
    }

    #[test]
    fn picks_highest_scored_candidate() {
        // Scores strictly increasing with item id; DNS must pick the max id
        // of whatever candidates it draws, so over many draws the selection
        // distribution must first-order dominate uniform.
        let train = Interactions::from_pairs(1, 50, &[(0, 0)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scores: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let scorer = FixedScorer::new(1, 50, scores);
        let mut user_scores = vec![0.0f32; 50];
        scorer.score_all(0, &mut user_scores);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut dns = Dns::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut mean = 0.0f64;
        let n = 5_000;
        for _ in 0..n {
            let j = dns.sample(0, 0, &ctx, &mut rng).unwrap();
            assert_ne!(j, 0, "sampled the positive");
            mean += j as f64;
        }
        mean /= n as f64;
        // Max of 5 uniform draws from ~U(1..50): E ≈ 50·5/6 ≈ 41.7 ≫ 25.
        assert!(mean > 38.0, "mean sampled id {mean} not biased high");
    }

    #[test]
    fn single_candidate_reduces_to_uniform() {
        // |M| = 1 is RNS (the paper's Fig. 5 observation).
        let train = Interactions::from_pairs(1, 10, &[(0, 9)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scores: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let scorer = FixedScorer::new(1, 10, scores);
        let mut user_scores = vec![0.0f32; 10];
        scorer.score_all(0, &mut user_scores);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &user_scores,
            epoch: 0,
            upcoming: &[],
        };
        let mut dns = Dns::new(1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        let n = 30_000;
        for _ in 0..n {
            counts[dns.sample(0, 9, &ctx, &mut rng).unwrap() as usize] += 1;
        }
        for (i, &count) in counts.iter().enumerate().take(9) {
            let f = count as f64 / n as f64;
            assert!((f - 1.0 / 9.0).abs() < 0.02, "item {i} freq {f}");
        }
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
        let mut dns = Dns::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(dns.sample(0, 0, &ctx, &mut rng), None);
    }
}
