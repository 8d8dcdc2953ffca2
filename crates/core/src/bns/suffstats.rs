//! Sufficient statistics of the Bayesian sampling signals.
//!
//! Each BNS draw evaluates the per-candidate signals of Eq. (4)/(15)–(17)/
//! (32) and selects one negative. [`PosteriorStats`] accumulates the sums
//! needed to recover the epoch means of those signals for the *selected*
//! negatives — the quantities behind the paper's Fig. 4 risk analysis.

/// Sums of the selected-negative sampling signals over one epoch.
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
    /// Rows the Eq. (16) passes scanned: the cdf denominators, summed over
    /// passes (one pass per draw on the per-pair path, one per user run on
    /// the batched path).
    pub ecdf_rows: u64,
    /// Of `ecdf_rows`, the rows scored exactly through
    /// `Scorer::score_items`: all of them on the gather pass, only the
    /// ambiguous ones on the coded pass.
    pub ecdf_rescored: u64,
    /// Draws whose Eq. (16) counts came from a look-ahead window's shared
    /// pass (batch size 1, see "The look-ahead window" in the `bns`
    /// module).
    pub ecdf_tiled: u64,
    /// Draws of a look-ahead window that took a pass of their own instead:
    /// their user's row or a candidate's score had changed since the
    /// window's pass, or a write since it was not on record.
    pub ecdf_fallbacks: u64,
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
}
