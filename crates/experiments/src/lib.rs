//! # bns-experiments — the table/figure regeneration harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (`cargo run --release -p bns-experiments --bin <name>`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — dataset statistics |
//! | `table2` | Table II — recommendation performance, 6 samplers × 2 models × 3 datasets |
//! | `table3` | Table III — BNS variant study (BNS-1..BNS-4) |
//! | `table4` | Table IV — asymptotic optimal sampler under the ideal prior |
//! | `fig1`   | Fig. 1 — real TN/FN score distributions across epochs |
//! | `fig2`   | Fig. 2 — theoretical order-statistic densities |
//! | `fig3`   | Fig. 3 — the unbias(F, P_fn) surface |
//! | `fig4`   | Fig. 4 — sampling quality (TNR / INF) per epoch |
//! | `fig5`   | Fig. 5 — sensitivity to λ and |Mᵤ| |
//!
//! Every binary accepts `--scale <f>` (default 0.15; `--scale 1.0` is paper
//! scale), `--epochs <n>`, `--seed <n>`, `--threads <n>` (evaluation)
//! and `--csv <dir>` (write machine-readable series next to the pretty
//! tables). Measured numbers
//! are printed beside the paper's published values wherever the paper
//! reports them.

pub mod common;
pub mod experiments;

pub use common::cli::HarnessArgs;
pub use common::config::{ModelKind, RunConfig};
pub use common::runner;
