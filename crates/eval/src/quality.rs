//! Sampling-quality instruments — the paper's Eq. (33)/(34) and Fig. 1/4.
//!
//! During training, every sampled negative `j` of user `u` is labeled
//! against the ground truth: it is a **false negative** if `(u, j)` appears
//! in the held-out test set, a **true negative** otherwise ("by flipping
//! labels of ground-truth records in the test set", §IV-A4). Per epoch:
//!
//! * `TNR = #TN / (#TN + #FN)` — Eq. (33), the unbiasedness of the sampler;
//! * `INF = Σ info(j)·sgn(j) / (#TN + #FN)` — Eq. (34) with `sgn = +1` for
//!   a true negative and `−1` as the penalty for sampling a false negative.
//!
//! [`ScoreDistributionProbe`] reproduces Fig. 1: at chosen epochs it records
//! the predicted scores of true-negative and false-negative populations so
//! the harness can print their densities.

use bns_core::TrainObserver;
use bns_data::Dataset;
use bns_model::Scorer;
use bns_stats::GaussianKde;

/// Per-epoch sampling-quality measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochQuality {
    /// Epoch index.
    pub epoch: usize,
    /// Sampled true negatives.
    pub tn: usize,
    /// Sampled false negatives.
    pub fn_: usize,
    /// True-negative rate (Eq. 33).
    pub tnr: f64,
    /// Signed mean informativeness (Eq. 34).
    pub inf: f64,
}

/// Tracks TNR and INF per epoch (the Fig. 4 curves).
pub struct QualityTracker<'a> {
    dataset: &'a Dataset,
    tn: usize,
    fn_: usize,
    signed_info: f64,
    history: Vec<EpochQuality>,
}

impl<'a> QualityTracker<'a> {
    /// Creates a tracker labeling against `dataset`'s test split.
    pub fn new(dataset: &'a Dataset) -> Self {
        Self {
            dataset,
            tn: 0,
            fn_: 0,
            signed_info: 0.0,
            history: Vec::new(),
        }
    }

    /// Completed per-epoch measurements.
    pub fn history(&self) -> &[EpochQuality] {
        &self.history
    }

    /// Mean TNR over all completed epochs.
    pub fn mean_tnr(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(|q| q.tnr).sum::<f64>() / self.history.len() as f64
    }

    /// TNR over the last `n` epochs (the "after enough training" regime the
    /// paper discusses for INF/TNR comparisons).
    pub fn tail_tnr(&self, n: usize) -> f64 {
        let tail = &self.history[self.history.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|q| q.tnr).sum::<f64>() / tail.len() as f64
    }
}

impl TrainObserver for QualityTracker<'_> {
    fn on_triple(&mut self, _epoch: usize, u: u32, _pos: u32, neg: u32, info: f32) {
        if self.dataset.is_false_negative(u, neg) {
            self.fn_ += 1;
            self.signed_info -= info as f64; // sgn(j) = −1 penalty
        } else {
            self.tn += 1;
            self.signed_info += info as f64; // sgn(j) = +1
        }
    }

    fn on_epoch_end(&mut self, epoch: usize, _model: &dyn Scorer) {
        let total = self.tn + self.fn_;
        let (tnr, inf) = if total == 0 {
            (0.0, 0.0)
        } else {
            (
                self.tn as f64 / total as f64,
                self.signed_info / total as f64,
            )
        };
        self.history.push(EpochQuality {
            epoch,
            tn: self.tn,
            fn_: self.fn_,
            tnr,
            inf,
        });
        self.tn = 0;
        self.fn_ = 0;
        self.signed_info = 0.0;
    }
}

/// Recorded score populations at one probed epoch (Fig. 1 raw material).
#[derive(Debug, Clone)]
pub struct ScoreSnapshot {
    /// Epoch index.
    pub epoch: usize,
    /// Scores of sampled-population true negatives.
    pub tn_scores: Vec<f64>,
    /// Scores of false negatives (test positives).
    pub fn_scores: Vec<f64>,
}

/// A density curve as `(x, density)` points.
pub type DensityCurve = Vec<(f64, f64)>;

impl ScoreSnapshot {
    /// KDE density curves `(x, g(x))` / `(x, h(x))` on a shared grid —
    /// exactly what Fig. 1 plots. Returns `None` when a population is empty.
    pub fn density_curves(&self, points: usize) -> Option<(DensityCurve, DensityCurve)> {
        if self.tn_scores.is_empty() || self.fn_scores.is_empty() {
            return None;
        }
        let lo = self
            .tn_scores
            .iter()
            .chain(&self.fn_scores)
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .tn_scores
            .iter()
            .chain(&self.fn_scores)
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let tn = GaussianKde::new(&self.tn_scores).ok()?;
        let fnd = GaussianKde::new(&self.fn_scores).ok()?;
        Some((tn.grid(lo, hi, points), fnd.grid(lo, hi, points)))
    }

    /// Mean score of each population; the separation (fn − tn) grows with
    /// training if the paper's order relation holds.
    pub fn mean_separation(&self) -> f64 {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        mean(&self.fn_scores) - mean(&self.tn_scores)
    }
}

/// Records TN/FN score populations at chosen epochs (Fig. 1).
///
/// To bound memory on large catalogs the probe examines at most 500 users
/// and caps the recorded true negatives per user at 50 (false negatives are
/// always all recorded — they are rare).
pub struct ScoreDistributionProbe<'a> {
    dataset: &'a Dataset,
    watch_epochs: Vec<usize>,
    snapshots: Vec<ScoreSnapshot>,
}

/// Users a [`ScoreDistributionProbe`] examines per snapshot.
const PROBE_MAX_USERS: usize = 500;
/// True negatives a [`ScoreDistributionProbe`] records per user.
const PROBE_TN_PER_USER: usize = 50;

impl<'a> ScoreDistributionProbe<'a> {
    /// Probes `dataset` at the given epochs.
    pub fn new(dataset: &'a Dataset, watch_epochs: Vec<usize>) -> Self {
        Self {
            dataset,
            watch_epochs,
            snapshots: Vec::new(),
        }
    }

    /// Snapshots recorded so far.
    pub fn snapshots(&self) -> &[ScoreSnapshot] {
        &self.snapshots
    }
}

impl TrainObserver for ScoreDistributionProbe<'_> {
    fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {}

    fn on_epoch_end(&mut self, epoch: usize, model: &dyn Scorer) {
        if !self.watch_epochs.contains(&epoch) {
            return;
        }
        let n_items = self.dataset.n_items() as usize;
        let mut scores = vec![0.0f32; n_items];
        let mut tn_scores = Vec::new();
        let mut fn_scores = Vec::new();
        let users = self.dataset.evaluable_users();
        for &u in users.iter().take(PROBE_MAX_USERS) {
            model.score_all(u, &mut scores);
            // All test positives (false negatives) + a stride of TNs.
            for &i in self.dataset.test().items_of(u) {
                fn_scores.push(scores[i as usize] as f64);
            }
            let stride = (n_items / PROBE_TN_PER_USER).max(1);
            let mut taken = 0usize;
            let mut idx = (u as usize) % stride; // desynchronize across users
            while idx < n_items && taken < PROBE_TN_PER_USER {
                let i = idx as u32;
                if self.dataset.is_true_negative(u, i) {
                    tn_scores.push(scores[idx] as f64);
                    taken += 1;
                }
                idx += stride;
            }
        }
        self.snapshots.push(ScoreSnapshot {
            epoch,
            tn_scores,
            fn_scores,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use bns_model::scorer::FixedScorer;

    fn dataset() -> Dataset {
        let train = Interactions::from_pairs(2, 6, &[(0, 0), (1, 1)]).unwrap();
        let test = Interactions::from_pairs(2, 6, &[(0, 2), (1, 3)]).unwrap();
        Dataset::new("q", train, test).unwrap()
    }

    #[test]
    fn tracker_counts_and_rates() {
        let d = dataset();
        let mut t = QualityTracker::new(&d);
        let model = FixedScorer::new(2, 6, vec![0.0; 12]);
        // Epoch 0: two TNs (items 4, 5 for user 0) and one FN (item 2).
        t.on_triple(0, 0, 0, 4, 0.5);
        t.on_triple(0, 0, 0, 5, 0.5);
        t.on_triple(0, 0, 0, 2, 0.8);
        t.on_epoch_end(0, &model);
        let q = t.history()[0];
        assert_eq!(q.tn, 2);
        assert_eq!(q.fn_, 1);
        assert!((q.tnr - 2.0 / 3.0).abs() < 1e-12);
        // INF = (0.5 + 0.5 − 0.8)/3.
        assert!((q.inf - 0.2 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn tracker_resets_between_epochs() {
        let d = dataset();
        let mut t = QualityTracker::new(&d);
        let model = FixedScorer::new(2, 6, vec![0.0; 12]);
        t.on_triple(0, 0, 0, 4, 0.5);
        t.on_epoch_end(0, &model);
        t.on_triple(1, 1, 1, 3, 0.9); // FN for user 1
        t.on_epoch_end(1, &model);
        assert_eq!(t.history().len(), 2);
        assert_eq!(t.history()[1].tn, 0);
        assert_eq!(t.history()[1].fn_, 1);
        assert_eq!(t.history()[1].tnr, 0.0);
        assert!((t.history()[1].inf + 0.9).abs() < 1e-6);
    }

    #[test]
    fn tracker_empty_epoch_is_zero() {
        let d = dataset();
        let mut t = QualityTracker::new(&d);
        let model = FixedScorer::new(2, 6, vec![0.0; 12]);
        t.on_epoch_end(0, &model);
        assert_eq!(t.history()[0].tnr, 0.0);
        assert_eq!(t.history()[0].inf, 0.0);
    }

    #[test]
    fn mean_and_tail_tnr() {
        let d = dataset();
        let mut t = QualityTracker::new(&d);
        let model = FixedScorer::new(2, 6, vec![0.0; 12]);
        // Epoch 0: TNR 1; epoch 1: TNR 0.
        t.on_triple(0, 0, 0, 4, 0.1);
        t.on_epoch_end(0, &model);
        t.on_triple(1, 0, 0, 2, 0.1);
        t.on_epoch_end(1, &model);
        assert!((t.mean_tnr() - 0.5).abs() < 1e-12);
        assert_eq!(t.tail_tnr(1), 0.0);
        assert!((t.tail_tnr(10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_records_only_watched_epochs() {
        let d = dataset();
        let mut p = ScoreDistributionProbe::new(&d, vec![1]);
        let model = FixedScorer::new(2, 6, (0..12).map(|i| i as f32).collect());
        p.on_epoch_end(0, &model);
        assert!(p.snapshots().is_empty());
        p.on_epoch_end(1, &model);
        assert_eq!(p.snapshots().len(), 1);
        let snap = &p.snapshots()[0];
        assert_eq!(snap.epoch, 1);
        // Both users contribute their single test positive.
        assert_eq!(snap.fn_scores.len(), 2);
        assert!(!snap.tn_scores.is_empty());
    }

    #[test]
    fn probe_separation_reflects_scores() {
        let d = dataset();
        let mut p = ScoreDistributionProbe::new(&d, vec![0]);
        // Give test positives (items 2 for u0, 3 for u1) clearly higher
        // scores than everything else.
        let mut table = vec![0.0f32; 12];
        table[2] = 5.0; // u0, item 2
        table[6 + 3] = 5.0; // u1, item 3
        let model = FixedScorer::new(2, 6, table);
        p.on_epoch_end(0, &model);
        let snap = &p.snapshots()[0];
        assert!(snap.mean_separation() > 4.0);
        let (tn_curve, fn_curve) = snap.density_curves(50).unwrap();
        assert_eq!(tn_curve.len(), 50);
        assert_eq!(fn_curve.len(), 50);
    }
}
