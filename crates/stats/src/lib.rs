#![deny(missing_docs)]

//! # bns-stats — statistics substrate for the BNS reproduction
//!
//! Everything in the paper's probabilistic machinery lives here:
//!
//! * [`special`] — special functions (`erf`, `ln_gamma`, regularized
//!   incomplete gamma/beta) implemented from scratch; no external math crate.
//! * [`dist`] — continuous distributions (Normal, Student-t, Gamma,
//!   Exponential, Uniform) with pdf/cdf/sampling, used by Fig. 2 of the paper
//!   and by the synthetic data generator.
//! * [`order`] — the paper's order-statistic densities
//!   `g(x) = 2 f(x)(1 − F(x))` (true negatives, Eq. 9) and
//!   `h(x) = 2 f(x) F(x)` (false negatives, Eq. 10).
//! * [`ecdf`] — empirical cumulative distribution functions (Eq. 16), the
//!   model-agnostic likelihood estimate at the heart of BNS.
//! * [`kde`] — Gaussian kernel density estimation for reproducing Fig. 1.
//! * [`moments`] — Welford streaming moments (used by the SRNS baseline).
//! * [`alias`] — alias-method weighted sampling (used by the PNS baseline
//!   and the synthetic generator).
//! * [`ks`] — the two-sample Kolmogorov–Smirnov distance Fig. 1 reports
//!   between the true- and false-negative score populations.
//! * [`correlation`] — Spearman rank correlation (the footnote 3 test).
//! * [`quantile`] — mean, standard deviation and rank-from-top on slices.

pub mod alias;
pub mod correlation;
pub mod dist;
pub mod ecdf;
pub mod kde;
pub mod ks;
pub mod moments;
pub mod order;
pub mod quantile;
pub mod special;

pub use alias::AliasTable;
pub use dist::{Continuous, Exponential, GammaDist, Normal, StudentT, UniformDist};
pub use ecdf::Ecdf;
pub use kde::GaussianKde;
pub use moments::Welford;
pub use order::{FalseNegativeDensity, OrderStatisticDensity, TrueNegativeDensity};

/// Errors produced by the statistics substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was outside its valid domain.
    InvalidParameter {
        /// Human-readable description of the offending parameter.
        what: &'static str,
    },
    /// An operation required a non-empty sample but received an empty one.
    EmptySample,
    /// Numerical iteration failed to converge.
    NoConvergence {
        /// The routine that failed.
        routine: &'static str,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InvalidParameter { what } => {
                write!(f, "invalid distribution parameter: {what}")
            }
            StatsError::EmptySample => write!(f, "operation requires a non-empty sample"),
            StatsError::NoConvergence { routine } => {
                write!(f, "numerical routine `{routine}` failed to converge")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
