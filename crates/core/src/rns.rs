//! RNS — Random Negative Sampling (the BPR default).
//!
//! Uniformly samples one un-interacted item. The paper (§II) points out that
//! RNS implicitly sets `sgn(j) = −1` for every draw, i.e. it assumes every
//! un-interacted item is a true negative, which biases training whenever a
//! false negative is drawn.

use crate::sampler::{draw_uniform_negative, NegativeSampler, SampleContext, ScoreAccess};
use bns_model::TripleBatch;

/// Uniform negative sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rns;

impl NegativeSampler for Rns {
    fn name(&self) -> &str {
        "RNS"
    }

    fn sample(
        &mut self,
        u: u32,
        _pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        draw_uniform_negative(ctx.train, u, rng)
    }

    /// Bulk draw: the whole batch is one tight rejection-sampling loop with
    /// no per-pair trait dispatch or context plumbing. Draw-for-draw
    /// identical to looping [`NegativeSampler::sample`].
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        crate::sampler::fill_rows(pairs, k, out, rng, |u, rng| {
            draw_uniform_negative(ctx.train, u, rng)
        });
    }

    fn score_access(&self) -> ScoreAccess {
        ScoreAccess::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::{Interactions, Popularity};
    use bns_model::scorer::FixedScorer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_only_negatives() {
        let train = Interactions::from_pairs(1, 5, &[(0, 0), (0, 2)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(1, 5, vec![0.0; 5]);
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[],
            epoch: 0,
            upcoming: &[],
        };
        let mut rns = Rns;
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            let j = rns.sample(0, 0, &ctx, &mut rng).unwrap();
            assert!(matches!(j, 1 | 3 | 4));
        }
        assert_eq!(rns.name(), "RNS");
        assert_eq!(rns.score_access(), ScoreAccess::None);
    }
}
