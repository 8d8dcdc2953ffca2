#![deny(missing_docs)]

//! # bns-model — recommendation models for the BNS reproduction
//!
//! The paper evaluates negative samplers inside two recommendation models
//! (§IV-A3): classic matrix factorization (MF, Koren et al.) and LightGCN
//! (He et al., SIGIR 2020), both trained with the pairwise BPR objective of
//! Eq. (1). This crate implements both from scratch:
//!
//! * [`embedding`] — flat row-major `f32` embedding tables with seeded
//!   initialization.
//! * [`scorer`] — the [`scorer::Scorer`] trait (read-only score access
//!   used by samplers and evaluation, whose batched methods run the
//!   kernels over a model's [`scorer::RowTables`]) and the
//!   [`scorer::PairwiseModel`] trait (adds BPR updates).
//! * [`mf`] — matrix factorization with per-triple SGD (the paper trains MF
//!   with batch size 1).
//! * [`lightgcn`] — LightGCN: symmetric-normalized bipartite adjacency,
//!   K-layer propagation with mean layer combination, and the exact
//!   transposed-propagation backward pass.
//! * [`optim`] — learning-rate schedules (constant, and the step decay the
//!   paper uses for LightGCN) and SGD hyperparameters.
//! * [`loss`] — sigmoid / BPR loss / the `info(·)` gradient magnitude of
//!   Eq. (4).
//! * [`kernel`] — the unrolled `mul_add` scoring kernels (dot / GEMV /
//!   gather-dot / user-tiled GEMM) with one
//!   fixed summation order shared by every scoring entry point, plus the
//!   shared per-triple BPR step, and the bound-checked kernels over
//!   [`coded`] rows.
//! * [`coded`] — [`coded::CodedRows`]: a compact i16 copy of a set of
//!   rows with a rigorous per-row error bound, which decides score
//!   threshold tests exactly for all but the few rows near a threshold;
//!   and [`coded::I8Rows`]: 4-bit and i8 serving codes of an item table
//!   whose two-stage scan passes over every row provably below a running
//!   top-k floor.
//! * [`batch`] — the SoA [`batch::TripleBatch`] buffer: `{users, pos,
//!   negs}` with `k ≥ 1` negatives per positive, filled by batched
//!   samplers and consumed by [`scorer::PairwiseModel::update_batch`].
//! * [`snapshot`] — the [`snapshot::SnapshotScorer`] freeze point: the
//!   provenance tag of a scorer whose row tables the `bns-serve` artifact
//!   copies, reproducing its values bitwise.

pub mod batch;
pub mod coded;
pub mod embedding;
pub mod kernel;
pub mod lightgcn;
pub mod loss;
pub mod mf;
pub mod optim;
pub mod scorer;
pub mod snapshot;

pub use batch::TripleBatch;
pub use embedding::Embedding;
pub use lightgcn::LightGcn;
pub use mf::MatrixFactorization;
pub use optim::{LrSchedule, SgdConfig};
pub use scorer::{PairwiseModel, RowTables, Scorer, TableStamp};
pub use snapshot::{SnapshotKind, SnapshotScorer};

/// Errors produced by the model layer.
#[derive(Debug)]
pub enum ModelError {
    /// A hyperparameter was outside its valid domain.
    InvalidConfig(String),
    /// Model/dataset shape mismatch.
    ShapeMismatch(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidConfig(m) => write!(f, "invalid model config: {m}"),
            ModelError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
