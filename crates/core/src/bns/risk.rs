//! Conditional and empirical sampling risk — Definitions 0.1/0.2 and
//! Eq. (30)–(32) of the paper.
//!
//! Sampling item `l` as the negative of a pair `(u, i)` perturbs the
//! ranking objective by `≈ +info(l)` if `l` is actually a false negative
//! and `≈ −λ·info(l)` if it is a true negative (Eq. 30). Taking the
//! expectation over the posterior label distribution gives the conditional
//! sampling risk (Eq. 31), whose per-candidate minimizer is the paper's
//! optimal sampler (Theorem 0.1).

/// Order of the Taylor expansion used to estimate the per-draw sampling
/// loss `ΔL(l|i)` (Eq. 29/30).
///
/// The paper acknowledges in §VI that its first-order estimate "has much
/// room for improvement"; the second-order variant keeps the next Taylor
/// term of `ln σ` around the current score, which replaces the loss
/// magnitude `info` by `½·info·(1 + info)` — damping near-saturated
/// candidates (`info → 1`) less than mid-range ones. This is one of the
/// repo's documented extensions (ablated in the `ablation` binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RiskOrder {
    /// Eq. (30): `ΔL ≈ info`.
    #[default]
    First,
    /// Second-order Taylor: `ΔL ≈ ½·info·(1 + info)` (the `ln σ` curvature
    /// term `−info·(1 − info)` evaluated at unit score decrease).
    Second,
}

/// The estimated magnitude of the sampling loss `|ΔL(l|i)|` for a unit
/// score decrease, at the chosen expansion order.
#[inline]
pub fn sampling_loss(info: f64, order: RiskOrder) -> f64 {
    match order {
        RiskOrder::First => info,
        RiskOrder::Second => 0.5 * info * (1.0 + info),
    }
}

/// Conditional sampling risk (Eq. 31):
/// `R(l|i) = (1 − unbias)·info − λ·unbias·info`.
#[inline]
pub fn conditional_risk(info: f64, unbias: f64, lambda: f64) -> f64 {
    (1.0 - unbias) * info - lambda * unbias * info
}

/// The factored selection form used by the sampler (Eq. 32):
/// `info · [1 − (1 + λ)·unbias]`. Algebraically identical to
/// [`conditional_risk`]; kept separate so tests can pin the equivalence.
#[inline]
pub fn selection_value(info: f64, unbias: f64, lambda: f64) -> f64 {
    info * (1.0 - (1.0 + lambda) * unbias)
}

/// Empirical sampling risk (Definition 0.2): the mean of conditional risks
/// over observed draws, `R(h) = E_i R(l|i)`.
pub fn empirical_risk(risks: &[f64]) -> f64 {
    if risks.is_empty() {
        return 0.0;
    }
    risks.iter().sum::<f64>() / risks.len() as f64
}

/// Eq. (32)'s selection value at a configurable expansion order:
/// `sampling_loss(info) · [1 − (1 + λ)·unbias]`.
#[inline]
pub fn selection_value_ordered(info: f64, unbias: f64, lambda: f64, order: RiskOrder) -> f64 {
    sampling_loss(info, order) * (1.0 - (1.0 + lambda) * unbias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn eq31_equals_eq32() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..2_000 {
            let info: f64 = rng.random_range(0.0..1.0);
            let unbias: f64 = rng.random_range(0.0..1.0);
            let lambda: f64 = rng.random_range(0.0..20.0);
            let a = conditional_risk(info, unbias, lambda);
            let b = selection_value(info, unbias, lambda);
            assert!(
                (a - b).abs() < 1e-12,
                "mismatch at ({info}, {unbias}, {lambda})"
            );
        }
    }

    #[test]
    fn risk_signs() {
        // Certain false negative (unbias 0): risk = +info (harmful).
        assert!((conditional_risk(0.8, 0.0, 5.0) - 0.8).abs() < 1e-12);
        // Certain true negative (unbias 1): risk = −λ·info (gain).
        assert!((conditional_risk(0.8, 1.0, 5.0) + 4.0).abs() < 1e-12);
        // Zero-gradient candidate: no risk either way.
        assert_eq!(conditional_risk(0.0, 0.3, 5.0), 0.0);
    }

    #[test]
    fn lambda_shifts_the_breakeven() {
        // The risk is ≤ 0 iff unbias ≥ 1/(1+λ): larger λ accepts riskier
        // (less certainly-negative) candidates.
        for &lambda in &[0.1, 1.0, 5.0, 15.0] {
            let breakeven = 1.0 / (1.0 + lambda);
            assert!(conditional_risk(0.5, breakeven + 1e-9, lambda) < 0.0);
            assert!(conditional_risk(0.5, breakeven - 1e-9, lambda) > 0.0);
        }
    }

    #[test]
    fn minimizer_prefers_informative_true_negatives() {
        // Among candidates, an informative likely-TN must have lower risk
        // than (a) an uninformative likely-TN and (b) an informative
        // likely-FN.
        let lambda = 5.0;
        let good = conditional_risk(0.9, 0.9, lambda);
        let dull = conditional_risk(0.1, 0.9, lambda);
        let biased = conditional_risk(0.9, 0.1, lambda);
        assert!(good < dull);
        assert!(good < biased);
    }

    #[test]
    fn empirical_risk_averages() {
        assert_eq!(empirical_risk(&[]), 0.0);
        assert!((empirical_risk(&[1.0, -1.0, 0.5, -0.5]) - 0.0).abs() < 1e-12);
        assert!((empirical_risk(&[0.2, 0.4]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn second_order_loss_properties() {
        // Agrees with first order at the extremes and is below in between
        // (the curvature term subtracts ½·info·(1−info) ≥ 0).
        assert_eq!(sampling_loss(0.0, RiskOrder::Second), 0.0);
        assert!((sampling_loss(1.0, RiskOrder::Second) - 1.0).abs() < 1e-12);
        for &i in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let first = sampling_loss(i, RiskOrder::First);
            let second = sampling_loss(i, RiskOrder::Second);
            assert!(second <= first + 1e-12, "second > first at info = {i}");
            assert!(second > 0.0);
            // Explicit formula: first − ½·info·(1−info).
            assert!((second - (first - 0.5 * i * (1.0 - i))).abs() < 1e-12);
        }
        // Monotone in info: ordering of candidates by pure loss magnitude
        // is preserved across orders.
        assert!(sampling_loss(0.8, RiskOrder::Second) > sampling_loss(0.4, RiskOrder::Second));
    }

    #[test]
    fn ordered_selection_value_reduces_to_eq32_at_first_order() {
        for &(i, u, l) in &[(0.5, 0.3, 5.0), (0.9, 0.8, 0.1), (0.2, 0.5, 15.0)] {
            let a = selection_value_ordered(i, u, l, RiskOrder::First);
            let b = selection_value(i, u, l);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn theorem_0_1_greedy_minimizer_is_optimal() {
        // Monte-Carlo version of Theorem 0.1: per-pair argmin of R(l|i)
        // yields empirical risk no larger than any fixed alternative policy.
        let mut rng = StdRng::seed_from_u64(1);
        let lambda = 5.0;
        let mut greedy_total = 0.0f64;
        let mut random_total = 0.0f64;
        let mut hardest_total = 0.0f64;
        let trials = 3_000;
        for _ in 0..trials {
            let candidates: Vec<(f64, f64)> = (0..5)
                .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect();
            let risks: Vec<f64> = candidates
                .iter()
                .map(|&(i, u)| conditional_risk(i, u, lambda))
                .collect();
            greedy_total += risks.iter().cloned().fold(f64::INFINITY, f64::min);
            random_total += risks[0]; // a fixed arbitrary policy
                                      // "hardest": max info policy.
            let hardest = candidates
                .iter()
                .zip(&risks)
                .max_by(|a, b| a.0 .0.partial_cmp(&b.0 .0).unwrap())
                .map(|(_, &r)| r)
                .unwrap();
            hardest_total += hardest;
        }
        assert!(greedy_total <= random_total);
        assert!(greedy_total <= hardest_total);
    }
}
