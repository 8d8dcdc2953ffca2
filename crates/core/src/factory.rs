//! Plain-data sampler configurations resolved against a dataset.
//!
//! The experiment harness describes each run (Table II's six samplers,
//! Table III's BNS variants, Table IV's oracle sweep) as data; this module
//! turns those descriptions into live sampler objects.
//!
//! ```
//! use bns_core::{build_sampler, BnsConfig, PriorKind, SamplerConfig};
//! use bns_data::{Dataset, Interactions};
//!
//! let train = Interactions::from_pairs(2, 5, &[(0, 0), (0, 1), (1, 2)])?;
//! let test = Interactions::from_pairs(2, 5, &[(0, 3), (1, 4)])?;
//! let dataset = Dataset::new("doc", train, test)?;
//!
//! // The paper's sampler with its defaults: |Mᵤ| = 5, λ = 5, Eq. 32 rule.
//! let cfg = SamplerConfig::Bns {
//!     config: BnsConfig::default(),
//!     prior: PriorKind::Popularity,
//! };
//! let sampler = build_sampler(&cfg, &dataset, None)?;
//! assert_eq!(sampler.name(), "BNS[popularity]");
//!
//! // Every Table II baseline builds from data the same way.
//! for cfg in SamplerConfig::paper_lineup() {
//!     build_sampler(&cfg, &dataset, None)?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::aobpr::Aobpr;
use crate::bns::prior::{
    NonInformativePrior, OccupationPrior, OraclePrior, PopularityPrior, Prior,
};
use crate::bns::{BnsConfig, BnsSampler, PriorKind};
use crate::dns::Dns;
use crate::pns::Pns;
use crate::rns::Rns;
use crate::sampler::NegativeSampler;
use crate::srns::Srns;
use crate::{CoreError, Result};
use bns_data::{Dataset, Occupations};

/// A plain-data description of a negative sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerConfig {
    /// Uniform sampling.
    Rns,
    /// Popularity-biased sampling (`∝ r^0.75`).
    Pns,
    /// Rank-exponential oversampling with λ as a catalog fraction.
    Aobpr {
        /// λ / n_items.
        lambda_frac: f64,
    },
    /// Max-score of `m` uniform candidates.
    Dns {
        /// Candidate-set size.
        m: usize,
    },
    /// Variance-aware sampling.
    Srns {
        /// Memory size S₁.
        s1: usize,
        /// Per-draw sample size S₂.
        s2: usize,
        /// Variance weight α.
        alpha: f64,
    },
    /// Bayesian Negative Sampling with the given config and prior.
    Bns {
        /// BNS hyperparameters.
        config: BnsConfig,
        /// Prior construction.
        prior: PriorKind,
    },
}

impl SamplerConfig {
    /// The paper's six Table II entries, in presentation order.
    pub fn paper_lineup() -> Vec<SamplerConfig> {
        vec![
            SamplerConfig::Rns,
            SamplerConfig::Pns,
            SamplerConfig::Aobpr { lambda_frac: 0.05 },
            SamplerConfig::Dns { m: 5 },
            SamplerConfig::Srns {
                s1: 20,
                s2: 5,
                alpha: 1.0,
            },
            SamplerConfig::Bns {
                config: BnsConfig::default(),
                prior: PriorKind::Popularity,
            },
        ]
    }

    /// Display name matching the paper's tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            SamplerConfig::Rns => "RNS",
            SamplerConfig::Pns => "PNS",
            SamplerConfig::Aobpr { .. } => "AOBPR",
            SamplerConfig::Dns { .. } => "DNS",
            SamplerConfig::Srns { .. } => "SRNS",
            SamplerConfig::Bns { .. } => "BNS",
        }
    }
}

/// Builds the prior object described by `kind` from dataset artifacts.
pub fn build_prior(
    kind: PriorKind,
    dataset: &Dataset,
    occupations: Option<&Occupations>,
) -> Result<Box<dyn Prior>> {
    match kind {
        PriorKind::Popularity => Ok(Box::new(PopularityPrior::new(dataset.popularity()))),
        PriorKind::NonInformative => Ok(Box::new(NonInformativePrior::new(dataset.n_items()))),
        PriorKind::Occupation => {
            let occ = occupations.ok_or_else(|| {
                CoreError::InvalidConfig("occupation prior requires occupation labels".into())
            })?;
            Ok(Box::new(OccupationPrior::new(
                dataset.popularity(),
                dataset.train(),
                occ.clone(),
            )))
        }
        PriorKind::Oracle { p_if_fn, p_if_tn } => Ok(Box::new(OraclePrior::new(
            dataset.test().clone(),
            p_if_fn,
            p_if_tn,
        ))),
    }
}

/// Builds a live sampler from its description.
pub fn build_sampler(
    config: &SamplerConfig,
    dataset: &Dataset,
    occupations: Option<&Occupations>,
) -> Result<Box<dyn NegativeSampler>> {
    match *config {
        SamplerConfig::Rns => Ok(Box::new(Rns)),
        SamplerConfig::Pns => Ok(Box::new(Pns::new(dataset.popularity())?)),
        SamplerConfig::Aobpr { lambda_frac } => Ok(Box::new(Aobpr::new(lambda_frac)?)),
        SamplerConfig::Dns { m } => Ok(Box::new(Dns::new(m)?)),
        SamplerConfig::Srns { s1, s2, alpha } => Ok(Box::new(Srns::new(s1, s2, alpha, 0.2)?)),
        SamplerConfig::Bns { config, prior } => {
            let prior = build_prior(prior, dataset, occupations)?;
            Ok(Box::new(BnsSampler::new(config, prior)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let train = Interactions::from_pairs(3, 6, &[(0, 0), (0, 1), (1, 2), (2, 3)]).unwrap();
        let test = Interactions::from_pairs(3, 6, &[(0, 4), (1, 5)]).unwrap();
        Dataset::new("f", train, test).unwrap()
    }

    #[test]
    fn lineup_has_six_samplers_in_paper_order() {
        let lineup = SamplerConfig::paper_lineup();
        let names: Vec<&str> = lineup.iter().map(|c| c.display_name()).collect();
        assert_eq!(names, vec!["RNS", "PNS", "AOBPR", "DNS", "SRNS", "BNS"]);
    }

    #[test]
    fn builds_every_lineup_entry() {
        let d = dataset();
        for cfg in SamplerConfig::paper_lineup() {
            let s = build_sampler(&cfg, &d, None).unwrap();
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn occupation_prior_requires_labels() {
        let d = dataset();
        let cfg = SamplerConfig::Bns {
            config: BnsConfig::default(),
            prior: PriorKind::Occupation,
        };
        assert!(build_sampler(&cfg, &d, None).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        let occ = Occupations::random(3, 2, &mut rng);
        assert!(build_sampler(&cfg, &d, Some(&occ)).is_ok());
    }

    #[test]
    fn oracle_prior_reads_test_labels() {
        let d = dataset();
        let prior = build_prior(
            PriorKind::Oracle {
                p_if_fn: 0.64,
                p_if_tn: 0.04,
            },
            &d,
            None,
        )
        .unwrap();
        assert_eq!(prior.p_fn(0, 4), 0.64); // test positive
        assert_eq!(prior.p_fn(0, 3), 0.04);
    }

    #[test]
    fn invalid_nested_config_propagates() {
        let d = dataset();
        assert!(build_sampler(&SamplerConfig::Dns { m: 0 }, &d, None).is_err());
        assert!(build_sampler(&SamplerConfig::Aobpr { lambda_frac: -1.0 }, &d, None).is_err());
        assert!(build_sampler(
            &SamplerConfig::Srns {
                s1: 2,
                s2: 5,
                alpha: 1.0
            },
            &d,
            None
        )
        .is_err());
    }
}
