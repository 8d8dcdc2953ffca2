#![deny(missing_docs)]

//! # bns-core — Bayesian Negative Sampling and baselines
//!
//! The paper's contribution (§III) and everything it is compared against
//! (§IV-A2):
//!
//! * [`sampler`] — the [`NegativeSampler`] trait (per-pair `sample` and
//!   the batched `sample_batch` that fills a [`TripleBatch`] with
//!   `k ≥ 1` negatives per pair), the per-call [`SampleContext`], the
//!   [`ScoreAccess`] cost contract, and the shared uniform
//!   candidate-drawing helper.
//! * [`rns`] — Random Negative Sampling (uniform; BPR's default).
//! * [`pns`] — Popularity-biased Negative Sampling (`∝ r^0.75`).
//! * [`aobpr`] — Adaptive Oversampling BPR (rank-exponential; Rendle &
//!   Freudenthaler, WSDM 2014).
//! * [`dns`] — Dynamic Negative Sampling (max-score of a uniform candidate
//!   set; Zhang et al., SIGIR 2013).
//! * [`srns`] — Simplified SRNS (score + variance memory; Ding et al.,
//!   NeurIPS 2020).
//! * [`bns`] — **the paper's Bayesian Negative Sampling**: the `unbias`
//!   posterior (Eq. 15), pluggable priors (Eq. 17 and the Table III/IV
//!   variants), λ schedules, and the min-risk sampling rule (Eq. 32).
//! * [`classifier`] — the Bayesian negative classifier of Eq. (11)–(13).
//! * [`trainer`] — Algorithm 1: the serial, bit-exact BPR training loop,
//!   restructured around the SoA [`TripleBatch`] fill/update pipeline,
//!   that wires a sampler into a
//!   [`PairwiseModel`](bns_model::PairwiseModel), with observer hooks for
//!   the quality probes.
//! * [`factory`] — plain-data sampler configs → boxed samplers.

pub mod aobpr;
pub mod bns;
pub mod classifier;
pub mod contrastive;
pub mod dns;
pub mod factory;
pub mod pns;
pub mod rns;
pub mod sampler;
pub mod srns;
pub mod trainer;

pub use bns::{BnsConfig, BnsSampler, Criterion, LambdaSchedule, PosteriorStats, Prior, PriorKind};
pub use bns_model::TripleBatch;
pub use contrastive::{train_contrastive, ContrastiveConfig, ContrastiveStats};
pub use factory::{build_sampler, SamplerConfig};
pub use sampler::{NegativeSampler, SampleContext, ScoreAccess};
pub use trainer::{train, NoopObserver, TrainConfig, TrainObserver, TrainStats};

/// Errors produced by samplers and the trainer.
#[derive(Debug)]
pub enum CoreError {
    /// A sampler or trainer configuration was invalid.
    InvalidConfig(String),
    /// A user has no negative items to sample from.
    NoNegatives {
        /// The offending user.
        user: u32,
    },
    /// Error propagated from the model layer.
    Model(bns_model::ModelError),
    /// Error propagated from the data layer.
    Data(bns_data::DataError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(m) => write!(f, "invalid sampler config: {m}"),
            CoreError::NoNegatives { user } => {
                write!(
                    f,
                    "user {user} has interacted with every item; nothing to sample"
                )
            }
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<bns_model::ModelError> for CoreError {
    fn from(e: bns_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<bns_data::DataError> for CoreError {
    fn from(e: bns_data::DataError) -> Self {
        CoreError::Data(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
