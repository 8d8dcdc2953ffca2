//! Continuous distributions used throughout the reproduction.
//!
//! The paper's Fig. 2 separates true-negative from false-negative score
//! densities under three base laws — `N(0, 1)`, Student `t(3)` and
//! `Ga(2, 1)` — and the synthetic data generator draws latent factors from
//! Gaussians. Everything here is implemented on top of [`crate::special`];
//! no external math crate is used.
//!
//! All distributions implement [`Continuous`]: `pdf`, `cdf` and seeded
//! `sample`, the contract the order-statistic layer (`crate::order`), the
//! Bayesian classifier (`bns-core`) and the synthetic generator rely on.

use crate::special::{beta_inc, gamma_p, std_normal_cdf, std_normal_pdf};
use crate::{Result, StatsError};
use rand::{Rng, RngCore};

/// Uniform `[0, 1)` draw used by the samplers below.
#[inline]
fn unit<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A continuous univariate distribution.
pub trait Continuous {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// The normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`; `sd` must be finite and positive.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !mean.is_finite() || !sd.is_finite() || sd <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "Normal requires finite mean and sd > 0",
            });
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Fills `out` with draws: bit for bit the values, and the RNG state,
    /// that `out.len()` calls of [`Continuous::sample`] leave.
    ///
    /// The polar method rejects ~21% of its trials at random, a branch no
    /// predictor learns. Here every trial is written at a cursor that
    /// advances by the acceptance bit, so the trial loop has no
    /// data-dependent branch; the `ln`/`sqrt` transform then runs over
    /// each accepted block.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        const BLOCK: usize = 256;
        let mut radii = [0.0f64; BLOCK];
        for chunk in out.chunks_mut(BLOCK) {
            let mut at = 0;
            while at < chunk.len() {
                let u = 2.0 * unit(rng) - 1.0;
                let v = 2.0 * unit(rng) - 1.0;
                let s = u * u + v * v;
                chunk[at] = u;
                radii[at] = s;
                at += usize::from((s > 0.0) & (s < 1.0));
            }
            for (x, &s) in chunk.iter_mut().zip(&radii) {
                let factor = (-2.0 * s.ln() / s).sqrt();
                *x = self.mean + self.sd * *x * factor;
            }
        }
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mean) / self.sd) / self.sd
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia polar method; both draws of the pair would be valid,
        // one is discarded to keep the per-call contract simple.
        loop {
            let u = 2.0 * unit(rng) - 1.0;
            let v = 2.0 * unit(rng) - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.sd * u * factor;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Student-t
// ---------------------------------------------------------------------------

/// Student's t distribution with `nu` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
    /// Cached pdf normalization `Γ((ν+1)/2) / (√(νπ) Γ(ν/2))`.
    ln_norm: f64,
}

impl StudentT {
    /// Creates `t(nu)`; `nu` must be finite and positive.
    pub fn new(nu: f64) -> Result<Self> {
        if !nu.is_finite() || nu <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "StudentT requires nu > 0",
            });
        }
        let ln_norm = crate::special::ln_gamma((nu + 1.0) / 2.0)
            - crate::special::ln_gamma(nu / 2.0)
            - 0.5 * (nu * std::f64::consts::PI).ln();
        Ok(StudentT { nu, ln_norm })
    }

    /// The degrees-of-freedom parameter.
    pub fn nu(&self) -> f64 {
        self.nu
    }
}

impl Continuous for StudentT {
    fn pdf(&self, x: f64) -> f64 {
        (self.ln_norm - 0.5 * (self.nu + 1.0) * (1.0 + x * x / self.nu).ln()).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        // F(x) via the regularized incomplete beta:
        // I_{ν/(ν+x²)}(ν/2, 1/2), split at zero by symmetry.
        if x == 0.0 {
            return 0.5;
        }
        let t = self.nu / (self.nu + x * x);
        let half_tail = 0.5
            * beta_inc(self.nu / 2.0, 0.5, t)
                .expect("beta_inc arguments are in-domain by construction");
        if x > 0.0 {
            1.0 - half_tail
        } else {
            half_tail
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // t(ν) = Z / sqrt(χ²(ν)/ν) with χ²(ν) = Ga(ν/2, 1/2).
        let z = Normal::standard().sample(rng);
        let chi2 = GammaDist {
            shape: self.nu / 2.0,
            rate: 0.5,
        }
        .sample(rng);
        z / (chi2 / self.nu).sqrt()
    }
}

// ---------------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------------

/// The gamma distribution `Ga(shape, rate)` (rate parameterization:
/// mean = shape / rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    shape: f64,
    rate: f64,
}

impl GammaDist {
    /// Creates `Ga(shape, rate)`; both must be finite and positive.
    pub fn new(shape: f64, rate: f64) -> Result<Self> {
        if !shape.is_finite() || !rate.is_finite() || shape <= 0.0 || rate <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "GammaDist requires shape > 0 and rate > 0",
            });
        }
        Ok(GammaDist { shape, rate })
    }

    /// The shape parameter α.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The rate parameter β.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Continuous for GammaDist {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Limit at the boundary: finite only for shape >= 1.
            return if self.shape > 1.0 {
                0.0
            } else if self.shape == 1.0 {
                self.rate
            } else {
                f64::INFINITY
            };
        }
        let ln_pdf = self.shape * self.rate.ln() + (self.shape - 1.0) * x.ln()
            - self.rate * x
            - crate::special::ln_gamma(self.shape);
        ln_pdf.exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.shape, self.rate * x).expect("gamma_p arguments are in-domain by construction")
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia–Tsang squeeze for shape >= 1, boosted for shape < 1.
        let (d_shape, boost) = if self.shape < 1.0 {
            let u = unit(rng).max(f64::MIN_POSITIVE);
            (self.shape + 1.0, u.powf(1.0 / self.shape))
        } else {
            (self.shape, 1.0)
        };
        let d = d_shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = Normal::standard().sample(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = unit(rng).max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * z * z + d - d * v3 + d * v3.ln() {
                return boost * d * v3 / self.rate;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// The exponential distribution with the given rate (mean = 1 / rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates `Exp(rate)`; `rate` must be finite and positive.
    pub fn new(rate: f64) -> Result<Self> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "Exponential requires rate > 0",
            });
        }
        Ok(Exponential { rate })
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform on the survival function.
        -(1.0 - unit(rng)).max(f64::MIN_POSITIVE).ln() / self.rate
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// The continuous uniform distribution `U(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDist {
    a: f64,
    b: f64,
}

impl UniformDist {
    /// Creates `U(a, b)`; requires `a < b`, both finite.
    pub fn new(a: f64, b: f64) -> Result<Self> {
        if !a.is_finite() || !b.is_finite() || a >= b {
            return Err(StatsError::InvalidParameter {
                what: "UniformDist requires finite a < b",
            });
        }
        Ok(UniformDist { a, b })
    }

    /// The standard uniform `U(0, 1)`.
    pub fn standard() -> Self {
        UniformDist { a: 0.0, b: 1.0 }
    }

    /// The lower bound.
    pub fn lower(&self) -> f64 {
        self.a
    }

    /// The upper bound.
    pub fn upper(&self) -> f64 {
        self.b
    }
}

impl Continuous for UniformDist {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.a || x > self.b {
            0.0
        } else {
            1.0 / (self.b - self.a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.a {
            0.0
        } else if x >= self.b {
            1.0
        } else {
            (x - self.a) / (self.b - self.a)
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.a + (self.b - self.a) * unit(rng)
    }
}

/// Small numerical helpers shared by this crate's tests.
pub mod test_util {
    /// Composite trapezoid rule for `f` on `[lo, hi]` with `n` intervals.
    pub fn trapezoid<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, n: usize) -> f64 {
        assert!(n > 0 && hi > lo);
        let h = (hi - lo) / n as f64;
        let mut total = 0.5 * (f(lo) + f(hi));
        for i in 1..n {
            total += f(lo + h * i as f64);
        }
        total * h
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::trapezoid;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_validate_parameters() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(StudentT::new(0.0).is_err());
        assert!(GammaDist::new(-1.0, 1.0).is_err());
        assert!(GammaDist::new(1.0, 0.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(UniformDist::new(2.0, 2.0).is_err());
    }

    #[test]
    fn normal_fill_is_repeated_sample_bit_for_bit() {
        // Lengths around the fill's 256-draw block, and a non-standard law.
        for (n, mean, sd) in [
            (0, 0.0, 1.0),
            (1, 0.0, 1.0),
            (255, 2.5, 0.1),
            (1000, -1.0, 3.0),
        ] {
            let dist = Normal::new(mean, sd).unwrap();
            let mut one = StdRng::seed_from_u64(n as u64 + 17);
            let mut batched = one.clone();
            let want: Vec<u64> = (0..n).map(|_| dist.sample(&mut one).to_bits()).collect();
            let mut got = vec![f64::NAN; n];
            dist.fill(&mut batched, &mut got);
            let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "n = {n}");
            assert_eq!(batched.next_u64(), one.next_u64(), "RNG state, n = {n}");
        }
    }

    /// `(pdf, lo, hi, tolerance)` rows for the integration check.
    type PdfCheck = (Box<dyn Fn(f64) -> f64>, f64, f64, f64);

    #[test]
    fn pdfs_integrate_to_one() {
        let checks: Vec<PdfCheck> = vec![
            (Box::new(|x| Normal::standard().pdf(x)), -12.0, 12.0, 1e-9),
            (
                Box::new(|x| StudentT::new(3.0).unwrap().pdf(x)),
                -300.0,
                300.0,
                1e-4,
            ),
            (
                Box::new(|x| GammaDist::new(2.0, 1.0).unwrap().pdf(x)),
                0.0,
                80.0,
                1e-7,
            ),
            (
                Box::new(|x| Exponential::new(1.5).unwrap().pdf(x)),
                0.0,
                40.0,
                1e-7,
            ),
            (
                Box::new(|x| UniformDist::new(-2.0, 3.0).unwrap().pdf(x)),
                -2.0,
                3.0,
                1e-12,
            ),
        ];
        for (pdf, lo, hi, tol) in checks {
            let total = trapezoid(&*pdf, lo, hi, 200_000);
            assert!((total - 1.0).abs() < tol, "integral {total}");
        }
    }

    #[test]
    fn cdf_matches_integrated_pdf() {
        let n = Normal::new(1.0, 2.0).unwrap();
        let g = GammaDist::new(2.5, 1.5).unwrap();
        let t = StudentT::new(5.0).unwrap();
        for &x in &[-1.0, 0.3, 1.7, 4.0] {
            let num = trapezoid(|y| n.pdf(y), -30.0, x, 100_000);
            assert!((num - n.cdf(x)).abs() < 1e-7, "normal at {x}");
        }
        for &x in &[0.5, 1.0, 3.0] {
            let num = trapezoid(|y| g.pdf(y), 0.0, x, 100_000);
            assert!((num - g.cdf(x)).abs() < 1e-7, "gamma at {x}");
        }
        for &x in &[-2.0, 0.0, 1.5] {
            let num = trapezoid(|y| t.pdf(y), -200.0, x, 400_000);
            assert!((num - t.cdf(x)).abs() < 1e-5, "student at {x}");
        }
    }

    #[test]
    fn known_cdf_values() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.96) - 0.975).abs() < 1e-3);
        let t = StudentT::new(3.0).unwrap();
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
        // t(3): P(T <= 2.3534) ≈ 0.95 (standard table value).
        assert!((t.cdf(2.3534) - 0.95).abs() < 1e-3);
        let e = Exponential::new(2.0).unwrap();
        assert!((e.cdf(0.5) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_match_theory() {
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 60_000;

        let norm = Normal::new(2.0, 3.0).unwrap();
        let xs = norm.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "normal mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "normal var {var}");

        let gamma = GammaDist::new(2.0, 1.0).unwrap();
        let xs = gamma.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "gamma mean {mean}");
        assert!(xs.iter().all(|&x| x > 0.0));

        let gamma_small = GammaDist::new(0.5, 2.0).unwrap();
        let xs = gamma_small.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "small-shape gamma mean {mean}");

        let exp = Exponential::new(4.0).unwrap();
        let xs = exp.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "exponential mean {mean}");

        let uni = UniformDist::new(-1.0, 1.0).unwrap();
        let xs = uni.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "uniform mean {mean}");
        assert!(xs.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn student_t_samples_are_heavy_tailed_but_centred() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = StudentT::new(5.0).unwrap();
        let n = 60_000;
        let xs = t.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        // Var of t(5) = 5/3.
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "t mean {mean}");
        assert!((var - 5.0 / 3.0).abs() < 0.25, "t var {var}");
    }

    #[test]
    fn samples_agree_with_cdf_at_quartiles() {
        // Empirical CDF at the theoretical quartiles must be ≈ 0.25/0.5/0.75.
        let mut rng = StdRng::seed_from_u64(55);
        let g = GammaDist::new(2.0, 1.0).unwrap();
        let n = 40_000;
        let xs = g.sample_n(&mut rng, n);
        for target in [0.25, 0.5, 0.75] {
            // Invert the cdf by bisection.
            let (mut lo, mut hi) = (0.0f64, 50.0f64);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if g.cdf(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let q = 0.5 * (lo + hi);
            let frac = xs.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            assert!((frac - target).abs() < 0.02, "quartile {target}: {frac}");
        }
    }
}
