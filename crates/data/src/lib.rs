#![deny(missing_docs)]

//! # bns-data — dataset substrate for the BNS reproduction
//!
//! The paper evaluates on MovieLens-100K, MovieLens-1M and Yahoo!-R3, all
//! converted to implicit feedback and split 80/20 (§IV-A). This crate
//! provides everything below the model layer:
//!
//! * [`interactions`] — a compact CSR store of user→item interactions with
//!   `O(log deg)` membership tests, the PU-dataset of the paper's §I.
//! * [`loader`] — parsers for the real on-disk formats (`u.data`,
//!   `ratings.dat`, Yahoo!-R3 triples), used when the raw files are present.
//! * [`synthetic`] — a latent-factor generator producing statistically
//!   matched stand-ins for the three datasets (see DESIGN.md §3 for the
//!   substitution argument).
//! * [`split`] — the 80/20 random split with a guarantee that every user
//!   keeps at least one training item.
//! * [`popularity`] — item interaction counts, the PNS `r^0.75` weights and
//!   the BNS prior `P_fn(l) = popₗ / N` (Eq. 17).
//! * [`occupation`] — synthetic occupation side-information for the BNS-4
//!   variant of Table III.
//! * [`presets`] — the three paper datasets at paper scale or scaled down.
//! * [`stats`] — the Table I statistics.
//! * [`serialize`] — binary round-tripping of interaction data, with a
//!   zero-copy mmap-backed load path for large artifacts.
//! * [`storage`] — the byte-buffer substrate behind the zero-copy path:
//!   an owned/mapped [`storage::Storage`] enum plus aligned typed views.
//! * [`le`] — the one checked little-endian reader every binary decoder
//!   (datasets here, model artifacts in `bns-serve`) reads through.

pub mod dataset;
pub mod filter;
pub mod interactions;
pub mod le;
pub mod loader;
pub mod occupation;
pub mod popularity;
pub mod presets;
pub mod serialize;
pub mod split;
pub mod stats;
pub mod storage;
pub mod synthetic;

pub use dataset::Dataset;
pub use filter::{k_core, KCoreResult};
pub use interactions::{Interactions, InteractionsBuilder};
pub use occupation::Occupations;
pub use popularity::Popularity;
pub use presets::{DatasetPreset, Scale};
pub use split::{split_leave_one_out, split_random, SplitConfig};
pub use stats::DatasetStats;
pub use storage::{F32Buf, Storage, U32Buf};
pub use synthetic::{SyntheticConfig, SyntheticDataset};

/// Errors produced by the dataset substrate.
#[derive(Debug)]
pub enum DataError {
    /// Parse failure in a dataset file.
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// I/O failure while reading a dataset file.
    Io(std::io::Error),
    /// A structural invariant was violated (e.g. empty dataset, id overflow).
    Invalid(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Invalid(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

impl From<le::Truncated> for DataError {
    fn from(e: le::Truncated) -> Self {
        DataError::Invalid(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;
