//! Mergeable sufficient statistics of the Bayesian sampling signals.
//!
//! Each BNS draw evaluates the per-candidate signals of Eq. (4)/(15)–(17)/
//! (32) and selects one negative. [`PosteriorStats`] accumulates the sums
//! needed to recover the epoch means of those signals for the *selected*
//! negatives — the quantities behind the paper's Fig. 4 risk analysis —
//! as plain sums, so per-shard accumulators from a parallel training run
//! can be combined at epoch barriers with [`PosteriorStats::merge`]
//! without any loss of information (they are sufficient statistics of the
//! means).

/// Sums of the selected-negative sampling signals over one epoch (or one
/// shard of one epoch). All fields are additive, so sharded accumulators
/// merge exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PosteriorStats {
    /// Number of Bayesian draws recorded (warm-up uniform draws excluded).
    pub draws: u64,
    /// Σ `info(j)` of selected negatives — Eq. (4).
    pub info_sum: f64,
    /// Σ `F(x̂ⱼ)` of selected negatives — Eq. (16).
    pub likelihood_sum: f64,
    /// Σ prior `P_fn(j)` of selected negatives — Eq. (17).
    pub prior_sum: f64,
    /// Σ posterior `unbias(j)` of selected negatives — Eq. (15).
    pub unbias_sum: f64,
    /// Σ selection value `info·[1 − (1+λ)·unbias]` — Eq. (32).
    pub risk_sum: f64,
}

impl PosteriorStats {
    /// Records one selected candidate's signal vector.
    pub fn record(&mut self, signal: &super::CandidateSignal) {
        self.draws += 1;
        self.info_sum += signal.info;
        self.likelihood_sum += signal.f_hat;
        self.prior_sum += signal.p_fn;
        self.unbias_sum += signal.unbias;
        self.risk_sum += signal.risk;
    }

    /// Folds another accumulator into this one (the epoch-barrier merge of
    /// the parallel trainer).
    pub fn merge(&mut self, other: &PosteriorStats) {
        self.draws += other.draws;
        self.info_sum += other.info_sum;
        self.likelihood_sum += other.likelihood_sum;
        self.prior_sum += other.prior_sum;
        self.unbias_sum += other.unbias_sum;
        self.risk_sum += other.risk_sum;
    }

    /// Mean posterior `unbias` of the epoch's selected negatives, or 0.0
    /// when nothing was recorded.
    pub fn mean_unbias(&self) -> f64 {
        self.mean(self.unbias_sum)
    }

    /// Mean `info` of the epoch's selected negatives (the INF numerator of
    /// Eq. 34 without labels), or 0.0 when nothing was recorded.
    pub fn mean_info(&self) -> f64 {
        self.mean(self.info_sum)
    }

    /// Mean conditional-risk selection value (Eq. 32), or 0.0 when nothing
    /// was recorded. This is the empirical sampling risk of Definition 0.2
    /// restricted to the selected candidates.
    pub fn mean_risk(&self) -> f64 {
        self.mean(self.risk_sum)
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.draws == 0 {
            0.0
        } else {
            sum / self.draws as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::CandidateSignal;
    use super::*;

    fn signal(info: f64, unbias: f64) -> CandidateSignal {
        CandidateSignal {
            item: 0,
            info,
            f_hat: 0.5,
            p_fn: 0.1,
            unbias,
            risk: info * (1.0 - 6.0 * unbias),
        }
    }

    #[test]
    fn empty_stats_have_zero_means() {
        let s = PosteriorStats::default();
        assert_eq!(s.draws, 0);
        assert_eq!(s.mean_unbias(), 0.0);
        assert_eq!(s.mean_info(), 0.0);
        assert_eq!(s.mean_risk(), 0.0);
    }

    #[test]
    fn record_accumulates_means() {
        let mut s = PosteriorStats::default();
        s.record(&signal(0.2, 0.8));
        s.record(&signal(0.6, 0.4));
        assert_eq!(s.draws, 2);
        assert!((s.mean_info() - 0.4).abs() < 1e-12);
        assert!((s.mean_unbias() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        // Sufficiency: recording in two shards then merging must equal
        // recording everything in one accumulator.
        let sig: Vec<CandidateSignal> = (0..10)
            .map(|i| signal(0.05 * i as f64, 1.0 - 0.07 * i as f64))
            .collect();
        let mut whole = PosteriorStats::default();
        for s in &sig {
            whole.record(s);
        }
        let mut shard_a = PosteriorStats::default();
        let mut shard_b = PosteriorStats::default();
        for (i, s) in sig.iter().enumerate() {
            if i % 2 == 0 {
                shard_a.record(s);
            } else {
                shard_b.record(s);
            }
        }
        shard_a.merge(&shard_b);
        assert_eq!(shard_a.draws, whole.draws);
        // Sums agree up to floating-point reassociation.
        for (a, b) in [
            (shard_a.info_sum, whole.info_sum),
            (shard_a.likelihood_sum, whole.likelihood_sum),
            (shard_a.prior_sum, whole.prior_sum),
            (shard_a.unbias_sum, whole.unbias_sum),
            (shard_a.risk_sum, whole.risk_sum),
        ] {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = PosteriorStats::default();
        a.record(&signal(0.3, 0.7));
        let mut b = PosteriorStats::default();
        b.record(&signal(0.9, 0.2));
        b.record(&signal(0.1, 0.5));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}
