//! The paper's footnote 3: "Ranking position and F(x̂ₗ) are with a
//! one-to-one mapping."
//!
//! Verified quantitatively: over a user's negatives, the empirical-cdf
//! value used by BNS and the rank-from-top position must be perfectly
//! rank-correlated (Spearman = −1: higher F ⇔ fewer items above ⇔ smaller
//! rank-from-top), which is also why BNS degenerates to DNS under a
//! non-informative prior (§IV-D).

use bns_core::bns::prior::NonInformativePrior;
use bns_core::bns::{BnsConfig, BnsSampler};
use bns_core::sampler::SampleContext;
use bns_data::{Interactions, Popularity};
use bns_model::scorer::FixedScorer;
use bns_model::Scorer;
use bns_stats::correlation::spearman;
use bns_stats::quantile::rank_from_top_f32;

fn fixture(n_items: u32, seed_scores: u64) -> (Interactions, Popularity, FixedScorer, Vec<f32>) {
    let train = Interactions::from_pairs(1, n_items, &[(0, 0)]).unwrap();
    let pop = Popularity::from_interactions(&train);
    // Deterministic pseudo-random distinct scores.
    let scores: Vec<f32> = (0..n_items)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed_scores);
            ((h >> 33) as f32) / (u32::MAX as f32) + i as f32 * 1e-7
        })
        .collect();
    let scorer = FixedScorer::new(1, n_items, scores.clone());
    let mut user_scores = vec![0.0f32; n_items as usize];
    scorer.score_all(0, &mut user_scores);
    (train, pop, scorer, user_scores)
}

#[test]
fn f_hat_and_rank_are_one_to_one() {
    let (train, pop, scorer, user_scores) = fixture(120, 99);
    let sampler = BnsSampler::new(
        BnsConfig::default(),
        Box::new(NonInformativePrior::new(120)),
    )
    .unwrap();
    let ctx = SampleContext {
        scorer: &scorer,
        train: &train,
        popularity: &pop,
        user_scores: &user_scores,
        epoch: 0,
        upcoming: &[],
    };
    let mut f_values = Vec::new();
    let mut ranks = Vec::new();
    for item in 1..120u32 {
        let sig = sampler.evaluate_candidate(0, 0, item, &ctx);
        f_values.push(sig.f_hat);
        ranks.push(rank_from_top_f32(&user_scores, user_scores[item as usize]) as f64);
    }
    let rho = spearman(&f_values, &ranks).unwrap();
    assert!(
        (rho + 1.0).abs() < 1e-9,
        "F(x̂) vs rank Spearman = {rho}, expected −1 (one-to-one mapping)"
    );
}

#[test]
fn under_noninformative_prior_bns_ranks_by_f_only() {
    // With P_fn constant, unbias is a strictly decreasing function of F
    // alone, so candidate ordering by unbias equals ordering by −F — the
    // §IV-D degeneration to DNS-style rank information.
    let (train, pop, scorer, user_scores) = fixture(60, 7);
    let sampler =
        BnsSampler::new(BnsConfig::default(), Box::new(NonInformativePrior::new(60))).unwrap();
    let ctx = SampleContext {
        scorer: &scorer,
        train: &train,
        popularity: &pop,
        user_scores: &user_scores,
        epoch: 0,
        upcoming: &[],
    };
    let mut signals: Vec<(f64, f64)> = (1..60u32)
        .map(|item| {
            let s = sampler.evaluate_candidate(0, 0, item, &ctx);
            (s.f_hat, s.unbias)
        })
        .collect();
    signals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for w in signals.windows(2) {
        assert!(
            w[0].1 >= w[1].1 - 1e-12,
            "unbias not monotone in F under constant prior: {w:?}"
        );
    }
}
