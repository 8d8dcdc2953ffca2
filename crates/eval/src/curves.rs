//! Learning curves: periodic ranking evaluation during training.
//!
//! The paper evaluates only after the final epoch; convergence *speed* is
//! nonetheless part of a sampler's value (hard negatives accelerate early
//! learning — §IV-C2's warm-start discussion). [`LearningCurve`] is a
//! [`TrainObserver`] that records NDCG@K every `every` epochs so sampler
//! convergence can be compared directly.

use bns_core::TrainObserver;
use bns_data::Dataset;
use bns_model::Scorer;

/// One learning-curve point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Epoch at which the evaluation ran.
    pub epoch: usize,
    /// NDCG@K at that epoch.
    pub ndcg: f64,
    /// Recall@K at that epoch.
    pub recall: f64,
}

/// Observer recording `NDCG@k` / `Recall@k` every `every` epochs.
pub struct LearningCurve<'a> {
    dataset: &'a Dataset,
    k: usize,
    every: usize,
    threads: usize,
    points: Vec<CurvePoint>,
}

impl<'a> LearningCurve<'a> {
    /// Evaluates at cutoff `k` every `every` epochs (and always at epoch 0).
    pub fn new(dataset: &'a Dataset, k: usize, every: usize) -> Self {
        Self {
            dataset,
            k: k.max(1),
            every: every.max(1),
            threads: 2,
            points: Vec::new(),
        }
    }

    /// Sets the evaluation thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Recorded curve points in epoch order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// First epoch at which NDCG reached `fraction` of its final value —
    /// a convergence-speed summary. `None` if the curve is empty or never
    /// reaches the target.
    pub fn epochs_to_fraction(&self, fraction: f64) -> Option<usize> {
        let last = self.points.last()?.ndcg;
        let target = last * fraction;
        self.points
            .iter()
            .find(|p| p.ndcg >= target)
            .map(|p| p.epoch)
    }
}

impl TrainObserver for LearningCurve<'_> {
    fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {}

    fn on_epoch_end(&mut self, epoch: usize, model: &dyn Scorer) {
        if !epoch.is_multiple_of(self.every) {
            return;
        }
        // The trainer hands us a &dyn Scorer, which is not Sync; evaluate
        // sequentially through a shim (the parallel path needs Sync).
        let report = evaluate_sequential(model, self.dataset, self.k);
        self.points.push(CurvePoint {
            epoch,
            ndcg: report.0,
            recall: report.1,
        });
        let _ = self.threads;
    }
}

/// Sequential (single-thread) evaluation returning `(ndcg@k, recall@k)`.
fn evaluate_sequential(model: &dyn Scorer, dataset: &Dataset, k: usize) -> (f64, f64) {
    use crate::metrics::{ndcg_at_k, recall_at_k};
    use crate::topk::top_k_masked;
    let users = dataset.evaluable_users();
    if users.is_empty() {
        return (0.0, 0.0);
    }
    let mut scores = vec![0.0f32; dataset.n_items() as usize];
    let mut ndcg = 0.0;
    let mut recall = 0.0;
    for &u in users {
        model.score_all(u, &mut scores);
        let ranked = top_k_masked(&scores, dataset.train().items_of(u), k);
        let relevant = dataset.test().items_of(u);
        ndcg += ndcg_at_k(&ranked, relevant, k);
        recall += recall_at_k(&ranked, relevant, k);
    }
    (ndcg / users.len() as f64, recall / users.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::evaluate_ranking;
    use bns_data::Interactions;
    use bns_model::scorer::FixedScorer;

    fn dataset() -> Dataset {
        let train = Interactions::from_pairs(2, 5, &[(0, 0), (1, 4)]).unwrap();
        let test = Interactions::from_pairs(2, 5, &[(0, 1), (1, 3)]).unwrap();
        Dataset::new("curve", train, test).unwrap()
    }

    #[test]
    fn records_every_nth_epoch() {
        let d = dataset();
        let mut curve = LearningCurve::new(&d, 2, 3);
        let model = FixedScorer::new(2, 5, vec![0.1; 10]);
        for epoch in 0..10 {
            curve.on_epoch_end(epoch, &model);
        }
        let epochs: Vec<usize> = curve.points().iter().map(|p| p.epoch).collect();
        assert_eq!(epochs, vec![0, 3, 6, 9]);
    }

    #[test]
    fn sequential_matches_parallel_protocol() {
        let d = dataset();
        let model = FixedScorer::new(2, 5, vec![0.0, 0.9, 0.1, 0.2, 0.0, 0.0, 0.1, 0.2, 0.9, 0.0]);
        let (ndcg, recall) = evaluate_sequential(&model, &d, 2);
        let report = evaluate_ranking(&model, &d, &[2], 2);
        let row = report.at(2).unwrap();
        assert!((ndcg - row.ndcg).abs() < 1e-12);
        assert!((recall - row.recall).abs() < 1e-12);
    }

    #[test]
    fn convergence_summary() {
        let d = dataset();
        let mut curve = LearningCurve::new(&d, 2, 1);
        // Simulate an improving model: at epoch 0 the relevant items are
        // buried; by epoch 2 they rank on top.
        let bad = FixedScorer::new(2, 5, vec![0.9, 0.0, 0.1, 0.0, 0.8, 0.9, 0.1, 0.0, 0.0, 0.8]);
        let good = FixedScorer::new(2, 5, vec![0.0, 0.9, 0.1, 0.0, 0.0, 0.0, 0.1, 0.0, 0.9, 0.0]);
        curve.on_epoch_end(0, &bad);
        curve.on_epoch_end(1, &good);
        curve.on_epoch_end(2, &good);
        assert_eq!(curve.epochs_to_fraction(0.9), Some(1));
        assert!(curve.points()[0].ndcg < curve.points()[1].ndcg);
    }

    #[test]
    fn empty_curve_has_no_summary() {
        let d = dataset();
        let curve = LearningCurve::new(&d, 2, 1);
        assert_eq!(curve.epochs_to_fraction(0.5), None);
    }
}
