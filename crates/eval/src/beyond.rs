//! Beyond-accuracy metrics: catalog coverage, recommendation popularity
//! and distributional skew of the recommended lists.
//!
//! These diagnose *how* a negative sampler shapes the learned model —
//! PNS's popularity-weighted negative gradient, for example, suppresses
//! popular items and shifts recommendations toward the long tail, which is
//! invisible to Precision/Recall but obvious in these metrics. Used by the
//! extended analyses and the `sampler_comparison` example.

use crate::topk::top_k_masked;
use bns_data::Dataset;
use bns_model::Scorer;

/// Aggregate beyond-accuracy metrics of top-K recommendations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeyondAccuracy {
    /// Cutoff used.
    pub k: usize,
    /// Fraction of the catalog appearing in at least one user's top-K.
    pub catalog_coverage: f64,
    /// Mean training popularity (interaction count) of recommended items.
    pub mean_popularity: f64,
    /// Gini coefficient of recommendation exposure across items
    /// (0 = every item recommended equally, →1 = few items dominate).
    pub exposure_gini: f64,
}

/// Computes coverage/popularity/exposure metrics at cutoff `k`.
pub fn beyond_accuracy(model: &dyn Scorer, dataset: &Dataset, k: usize) -> BeyondAccuracy {
    let n_items = dataset.n_items() as usize;
    let mut exposure = vec![0u64; n_items];
    let mut scores = vec![0.0f32; n_items];
    let mut pop_sum = 0.0f64;
    let mut rec_count = 0usize;
    for &u in dataset.evaluable_users() {
        model.score_all(u, &mut scores);
        let ranked = top_k_masked(&scores, dataset.train().items_of(u), k);
        for &i in &ranked {
            exposure[i as usize] += 1;
            pop_sum += dataset.popularity().count(i) as f64;
            rec_count += 1;
        }
    }
    let covered = exposure.iter().filter(|&&e| e > 0).count();
    BeyondAccuracy {
        k,
        catalog_coverage: covered as f64 / n_items.max(1) as f64,
        mean_popularity: if rec_count == 0 {
            0.0
        } else {
            pop_sum / rec_count as f64
        },
        exposure_gini: gini_u64(&exposure),
    }
}

fn gini_u64(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 0.0;
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(idx, &x)| (idx as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use bns_model::scorer::FixedScorer;

    fn dataset() -> Dataset {
        let train = Interactions::from_pairs(2, 6, &[(0, 0), (1, 1)]).unwrap();
        let test = Interactions::from_pairs(2, 6, &[(0, 2), (1, 3)]).unwrap();
        Dataset::new("b", train, test).unwrap()
    }

    #[test]
    fn uniform_scorer_covers_items() {
        let d = dataset();
        // Score ascending with item id: both users recommend the same top
        // items (minus their own masks).
        let scores: Vec<f32> = (0..12).map(|i| (i % 6) as f32).collect();
        let model = FixedScorer::new(2, 6, scores);
        let m = beyond_accuracy(&model, &d, 2);
        assert_eq!(m.k, 2);
        // Top-2 for both users: items 5, 4 → coverage 2/6.
        assert!((m.catalog_coverage - 2.0 / 6.0).abs() < 1e-12);
        // Items 4, 5 have zero training popularity.
        assert_eq!(m.mean_popularity, 0.0);
        assert!(m.exposure_gini > 0.5);
    }

    #[test]
    fn personalized_scorer_spreads_exposure() {
        let d = dataset();
        let model = FixedScorer::new(
            2,
            6,
            vec![
                0.0, 0.1, 0.9, 0.8, 0.0, 0.0, // user 0 → items 2, 3
                0.0, 0.0, 0.0, 0.0, 0.9, 0.8, // user 1 → items 4, 5
            ],
        );
        let m = beyond_accuracy(&model, &d, 2);
        assert!((m.catalog_coverage - 4.0 / 6.0).abs() < 1e-12);
        // Exposure is 1 for four items, 0 for two → moderate gini.
        assert!(m.exposure_gini < 0.5);
    }

    #[test]
    fn popularity_reflects_training_counts() {
        // Item popularity from train: item 0 → 1, item 1 → 3.
        let train = Interactions::from_pairs(3, 4, &[(0, 0), (0, 1), (1, 1), (2, 1)]).unwrap();
        let test = Interactions::from_pairs(3, 4, &[(0, 2), (1, 2), (2, 2)]).unwrap();
        let d = Dataset::new("pop", train, test).unwrap();
        let model = FixedScorer::new(
            3,
            4,
            vec![
                0.9, 0.0, 0.1, 0.0, // user 0: mask {0,1} → top-1 = item 2 (pop 0)
                0.9, 0.0, 0.1, 0.0, // user 1: mask {1}   → top-1 = item 0 (pop 1)
                0.9, 0.0, 0.1, 0.0, // user 2: mask {1}   → top-1 = item 0 (pop 1)
            ],
        );
        let m = beyond_accuracy(&model, &d, 1);
        // Recommended popularities: {0, 1, 1} → mean 2/3.
        assert!((m.mean_popularity - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gini_helper_extremes() {
        assert_eq!(gini_u64(&[]), 0.0);
        assert_eq!(gini_u64(&[0, 0]), 0.0);
        assert!(gini_u64(&[1, 1, 1, 1]).abs() < 1e-12);
        assert!((gini_u64(&[0, 0, 0, 8]) - 0.75).abs() < 1e-12);
    }
}
