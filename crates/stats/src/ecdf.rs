//! Empirical cumulative distribution functions.
//!
//! Eq. (16) of the paper estimates the score cdf `F(x̂ₗ)` by the fraction of a
//! user's un-interacted item scores that are `≤ x̂ₗ`. The Glivenko–Cantelli
//! theorem (cited by the paper) guarantees uniform a.s. convergence of this
//! estimate. The sampler computes Eq. (16) in its own fused pass
//! (`bns_core::bns::fused_ecdf_counts`); [`Ecdf`] is the exact reference
//! that pass's error-bound test compares against.

use crate::{Result, StatsError};

/// An empirical CDF built from a sample of `f64` observations.
///
/// Construction sorts the data once; evaluation is a binary search, so
/// `eval` costs `O(log n)`.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from raw observations. Non-finite values are rejected.
    pub fn new(data: &[f64]) -> Result<Self> {
        if data.is_empty() {
            return Err(StatsError::EmptySample);
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::InvalidParameter {
                what: "Ecdf: observations must be finite",
            });
        }
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self { sorted })
    }

    /// `F̂(x)` — the fraction of observations `≤ x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.count_le(x) as f64 / self.sorted.len() as f64
    }

    /// Number of observations `≤ x` (the numerator of Eq. 16).
    pub fn count_le(&self, x: f64) -> usize {
        // partition_point returns the first index whose value is > x.
        self.sorted.partition_point(|&v| v <= x)
    }

    /// Number of observations used by the estimate.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no observations (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The empirical quantile (inverse cdf) at level `p ∈ [0, 1]`, using the
    /// left-continuous generalized inverse.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidParameter {
                what: "Ecdf::quantile: p must be in [0, 1]",
            });
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        Ok(self.sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert_eq!(Ecdf::new(&[]).unwrap_err(), StatsError::EmptySample);
        assert!(Ecdf::new(&[1.0, f64::NAN]).is_err());
        assert!(Ecdf::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn step_function_semantics() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(1.5), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(10.0), 1.0);
    }

    #[test]
    fn eval_matches_scan() {
        // The exact oracle against a brute-force count over the raw data.
        let data: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 * 0.1).collect();
        let e = Ecdf::new(&data).unwrap();
        for &x in &[-1.0, 0.0, 3.3, 5.05, 10.0, 100.0] {
            let count = data.iter().filter(|&&v| v <= x).count();
            assert_eq!(e.eval(x), count as f64 / data.len() as f64);
        }
    }

    #[test]
    fn quantile_inverts_eval() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = Ecdf::new(&data).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 1.0);
        assert_eq!(e.quantile(0.5).unwrap(), 50.0);
        assert_eq!(e.quantile(1.0).unwrap(), 100.0);
        assert!(e.quantile(1.5).is_err());
    }

    #[test]
    fn glivenko_cantelli_convergence() {
        // ECDF of uniform samples converges to the identity cdf.
        use crate::dist::{Continuous, UniformDist};
        let mut rng = StdRng::seed_from_u64(4);
        let u = UniformDist::standard();
        let xs = u.sample_n(&mut rng, 50_000);
        let e = Ecdf::new(&xs).unwrap();
        let mut sup: f64 = 0.0;
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            sup = sup.max((e.eval(x) - x).abs());
        }
        assert!(sup < 0.01, "sup-norm error {sup}");
    }
}
