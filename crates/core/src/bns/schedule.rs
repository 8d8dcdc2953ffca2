//! λ schedules for the Bayesian sampling rule.
//!
//! λ trades the ranking **gain** from sampling a hard true negative against
//! the **risk** of sampling a false negative (Eq. 30–32). The paper uses
//! λ = 5 by default (Fig. 5) and shows in Table III (BNS-1) that the
//! warm-start schedule `λ(epoch) = max(10 − 0.1·epoch, 2)` — aggressive
//! early, conservative late — does slightly better.

/// λ as a function of the training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LambdaSchedule {
    /// Fixed λ (paper default: 5).
    Constant(f64),
    /// BNS-1: `λ(e) = max(init − slope·e, floor)`
    /// (paper: init 10, slope 0.1, floor 2).
    WarmStart {
        /// λ at epoch 0.
        init: f64,
        /// Linear decrease per epoch.
        slope: f64,
        /// Lower bound.
        floor: f64,
    },
}

impl LambdaSchedule {
    /// The paper's default constant λ = 5.
    pub fn paper_default() -> Self {
        LambdaSchedule::Constant(5.0)
    }

    /// The paper's BNS-1 warm start: `max(10 − 0.1·epoch, 2)`.
    pub fn paper_warm_start() -> Self {
        LambdaSchedule::WarmStart {
            init: 10.0,
            slope: 0.1,
            floor: 2.0,
        }
    }

    /// λ at a 0-based epoch.
    pub fn at(&self, epoch: usize) -> f64 {
        match *self {
            LambdaSchedule::Constant(l) => l,
            LambdaSchedule::WarmStart { init, slope, floor } => {
                (init - slope * epoch as f64).max(floor)
            }
        }
    }

    /// Whether the schedule's values are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        match *self {
            LambdaSchedule::Constant(l) => l.is_finite() && l >= 0.0,
            LambdaSchedule::WarmStart { init, slope, floor } => {
                init.is_finite()
                    && slope.is_finite()
                    && floor.is_finite()
                    && init >= 0.0
                    && slope >= 0.0
                    && floor >= 0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LambdaSchedule::Constant(5.0);
        assert_eq!(s.at(0), 5.0);
        assert_eq!(s.at(1_000), 5.0);
        assert!(s.is_valid());
    }

    #[test]
    fn warm_start_matches_paper_formula() {
        let s = LambdaSchedule::paper_warm_start();
        assert!((s.at(0) - 10.0).abs() < 1e-12);
        assert!((s.at(10) - 9.0).abs() < 1e-12);
        assert!((s.at(50) - 5.0).abs() < 1e-12);
        // Floors at 2 from epoch 80 on.
        assert!((s.at(80) - 2.0).abs() < 1e-12);
        assert!((s.at(500) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(!LambdaSchedule::Constant(f64::NAN).is_valid());
        assert!(!LambdaSchedule::Constant(-1.0).is_valid());
        assert!(!LambdaSchedule::WarmStart {
            init: 10.0,
            slope: -0.1,
            floor: 2.0
        }
        .is_valid());
        assert!(LambdaSchedule::paper_default().is_valid());
        assert!(LambdaSchedule::paper_warm_start().is_valid());
    }
}
