#![deny(missing_docs)]

//! # bns-serve — model artifacts and a concurrent top-k query engine
//!
//! Training (the `bns-core` trainers) produces a scorer that dies with the
//! process. This crate is the inference half of the system:
//!
//! * [`artifact`] — [`ModelArtifact`]: a versioned, checksummed,
//!   memory-layout-stable binary freeze of any trained
//!   [`bns_model::SnapshotScorer`] (MF, LightGCN with the propagation
//!   baked in), copied from its [`bns_model::Scorer::row_tables`],
//!   together with the training-positive CSR used for seen-item
//!   filtering. Save → load → score is **bitwise identical**
//!   to the live model, so offline evaluation numbers carry over to
//!   serving exactly.
//! * [`index`] — [`IvfIndex`]: the freeze-time IVF candidate-generation
//!   index (deterministic k-means over the frozen item table) stored in
//!   the v3 artifact section, turning top-k from an exhaustive scan into
//!   a centroid scan plus a few probed clusters.
//! * [`query`] — [`QueryEngine`]: answers `top_k(user, k, exclude_seen)`
//!   over an artifact through the same dot kernel and top-k selection
//!   buffer the evaluation protocol uses, with reusable per-worker
//!   [`QueryScratch`] so the steady-state query path is allocation-free.
//!   Both modes run one coded pre-filter scan plus an exact re-score of the
//!   rows that can reach the top-k; an [`IndexMode`] knob picks its range:
//!   every row (exact ranking, bitwise-exact) or the probed IVF clusters'
//!   rows (recall-gated approximate).
//! * [`engine`] — the multi-threaded request loop: `std::thread::scope`
//!   workers claiming [`Request`]s one at a time from one shared cursor,
//!   recording per-request latency into a [`ServeReport`], whose
//!   percentiles follow the workspace's one nearest-rank rule
//!   ([`bns_sync::nearest_rank`]).
//! * [`cache`] — [`TopKCache`]: an optional generation-stamped LRU for
//!   repeated-user traffic; one [`QueryEngine::swap_artifact`] bump
//!   invalidates every cached list without touching the map.
//! * [`proto`] — the length-prefixed, checksummed wire frames of the TCP
//!   front-end, with a typed [`ProtoError`] for every way a frame can be
//!   malformed (decode never panics, never reads out of bounds). Frames
//!   decode through the same checked [`bns_data::le::Reader`] as the
//!   artifact, and their checksum is the artifact's
//!   [`fnv1a64`](artifact::fnv1a64) truncated to 32 bits.
//! * [`net`] — [`NetServer`]: the `std::net` TCP front-end serving the
//!   binary protocol plus an HTTP/1.1 GET shim (`/topk`, `/metrics`),
//!   with bounded-queue backpressure, per-connection deadlines, and
//!   live artifact hot-swap under load.
//! * [`metrics`] — [`WireMetrics`]: per-endpoint latency histograms and
//!   lifecycle counters behind `bns-sync` facade types, rendered as the
//!   `/metrics` text exposition.
//!
//! End-to-end walkthrough: `examples/serve.rs` at the workspace root
//! (train → freeze → reload → serve). Load-generator numbers:
//! `cargo run --release -p bns-bench --bin serve_bench` writes
//! `BENCH_serve.json` (p50/p99 latency, queries/sec, scored items/sec
//! under Zipf-distributed user traffic, in process and over loopback
//! TCP).
//!
//! ## Determinism contract
//!
//! Serving is **bitwise deterministic given an artifact**: the engine only
//! reads frozen tables through the fixed-summation-order kernel, ties
//! break toward lower item ids (`bns_eval::topk`), and the shared-cursor
//! scheduler affects only *which thread* answers a request, never the
//! answer. Training is bit-exact too (same seed, same binary, same
//! tables), so a frozen artifact is reproducible from its seed. The IVF
//! path is equally deterministic — its answers are a pure function of
//! `(artifact, nprobe)` — but approximate against the exact ranking,
//! which is why it carries a recall@k gate instead of a bitwise one.

pub mod artifact;
pub mod cache;
pub mod engine;
pub mod index;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod query;

pub use artifact::ModelArtifact;
pub use cache::TopKCache;
pub use engine::{RankedList, Request, ServeReport};
pub use index::{IvfConfig, IvfIndex};
pub use metrics::WireMetrics;
pub use net::{NetConfig, NetServer, WireClient};
pub use proto::{ProtoError, RequestFrame, ResponseFrame, Status};
pub use query::{IndexMode, QueryEngine, QueryScratch};

/// Errors produced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// The buffer does not start with the artifact magic.
    BadMagic {
        /// The magic field actually found.
        found: u32,
    },
    /// The artifact was written by an unknown format version.
    UnsupportedVersion {
        /// The version field actually found.
        found: u32,
    },
    /// The buffer ended before the named field could be read.
    Truncated {
        /// Which field the decoder was reading when the buffer ran out.
        what: &'static str,
    },
    /// The stored checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the artifact tail.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// One payload chunk's stored digest does not match its bytes
    /// (artifact formats v2+ verify the payload in fixed-size chunks).
    ChunkChecksumMismatch {
        /// Index of the failing chunk.
        chunk: usize,
        /// Digest stored in the artifact footer.
        stored: u64,
        /// Digest recomputed over the chunk bytes.
        computed: u64,
    },
    /// A query referenced a user id outside the artifact's id space.
    UnknownUser {
        /// The offending user id.
        user: u32,
        /// Number of users in the artifact.
        n_users: u32,
    },
    /// IVF serving was requested of an artifact that carries no index
    /// (a v2 artifact, or a small-catalog freeze).
    NoIndex,
    /// A structural invariant was violated (shape mismatch, bad CSR, …).
    Invalid(String),
    /// A wire frame failed to decode (network front-end).
    Proto(ProtoError),
    /// I/O failure while reading or writing an artifact file.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadMagic { found } => {
                write!(f, "bad artifact magic 0x{found:08X}")
            }
            ServeError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact version {found}")
            }
            ServeError::Truncated { what } => {
                write!(f, "truncated artifact while reading {what}")
            }
            ServeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored 0x{stored:016X}, computed 0x{computed:016X}"
            ),
            ServeError::ChunkChecksumMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "artifact chunk {chunk} digest mismatch: stored 0x{stored:016X}, \
                 computed 0x{computed:016X}"
            ),
            ServeError::UnknownUser { user, n_users } => {
                write!(f, "user {user} outside artifact id space ({n_users} users)")
            }
            ServeError::NoIndex => {
                write!(f, "artifact carries no IVF index (Exact-only serving)")
            }
            ServeError::Invalid(msg) => write!(f, "invalid artifact: {msg}"),
            ServeError::Proto(e) => write!(f, "wire protocol error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> Self {
        ServeError::Proto(e)
    }
}

impl From<bns_data::le::Truncated> for ServeError {
    fn from(e: bns_data::le::Truncated) -> Self {
        ServeError::Truncated { what: e.what }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
