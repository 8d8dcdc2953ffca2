#![deny(missing_docs)]

//! # bns-eval — evaluation substrate for the BNS reproduction
//!
//! * [`topk`] — top-K extraction from score vectors with train-positive
//!   masking.
//! * [`metrics`] — Precision@K, Recall@K, NDCG@K (the paper's Table II–IV
//!   metrics).
//! * [`ranking`] — the full ranking protocol: score every evaluable user,
//!   mask training positives, average metrics (parallelized with std::thread
//!   scoped threads; each worker scores and selects a tile of
//!   `bns_model::kernel::WIDTH` users per pass over the item table: 16 on
//!   AVX-512F builds, 8 on others).
//! * [`quality`] — the paper's sampling-quality instruments: TNR (Eq. 33)
//!   and INF (Eq. 34) per-epoch trackers and the Fig. 1 score-distribution
//!   probe, implemented as [`bns_core::TrainObserver`]s.

pub mod metrics;
pub mod quality;
pub mod ranking;
pub mod topk;

pub use metrics::{ndcg_at_k, precision_at_k, recall_at_k};
pub use quality::{QualityTracker, ScoreDistributionProbe};
pub use ranking::{evaluate_ranking, MetricRow, RankingReport};
pub use topk::{top_k_masked, top_k_masked_into, TopKBuffer};
