//! Concurrency facade for the workspace's lock-free paths, plus a
//! deterministic model checker.
//!
//! This crate is the **only** place in the workspace allowed to import
//! `std::sync::atomic` (enforced by `bns-lint`'s `atomic-import` rule).
//! Instead of raw atomics, concurrent code uses small project types that
//! expose exactly the operations — and exactly the memory orderings — each
//! protocol is allowed to rely on:
//!
//! | Type | Protocol | Orderings |
//! |------|----------|-----------|
//! | [`ClaimCursor`] | work-stealing claim loops: exclusivity comes from RMW atomicity alone | `Relaxed` `fetch_add` |
//! | [`Generation`] | cache-invalidation epochs: the bump publishes "a new artifact is live" | `Release` bump / `Acquire` read |
//! | [`Counter`] | statistics (hit/lookup counts) that no control flow depends on | `Relaxed` |
//! | [`PoisonFlag`] | sticky cross-thread failure latch | `Release` set / `Acquire` read |
//! | [`Mutex`] | plain mutual exclusion, modeled under the checker | n/a |
//! | [`RwLock`] | read-mostly shared state with rare exclusive swaps (the serve hot-swap protocol) | n/a |
//! | [`LatencyHistogram`] | fixed log-bucket latency statistics: one relaxed RMW per sample, no clock inside | `Relaxed` |
//! | [`CachePadded`] | layout shim: gives each element of an array of contended atomics its own cache line | n/a |
//!
//! Narrowing the API is the point: a call site cannot pick a wrong ordering
//! because the ordering is baked into the type, and a new protocol needs a
//! new type (with its own justification) rather than an ad-hoc atomic.
//!
//! # Model checking
//!
//! When built with `RUSTFLAGS="--cfg bns_model_check"`, every operation on
//! these types becomes a schedule point of the deterministic interleaving
//! scheduler in [`model`]. Scenario tests (see `crates/check`) then explore
//! thread interleavings exhaustively (small state spaces) or with seeded
//! randomized search, and any failure is replayable from its recorded
//! schedule. In normal builds the types compile straight to the underlying
//! atomics with zero overhead.
//!
//! # Seed mixing
//!
//! Being the workspace's dependency-free leaf, this crate also hosts the
//! one [`splitmix64`] that the model checker, the synthetic data
//! generator and the IVF index build derive their seeds from.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod counter;
mod cursor;
mod flag;
mod generation;
mod histogram;
pub mod model;
mod mutex;
mod padded;
mod rwlock;

pub use counter::Counter;
pub use cursor::ClaimCursor;
pub use flag::PoisonFlag;
pub use generation::Generation;
pub use histogram::{nearest_rank, HistogramSnapshot, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use mutex::{Mutex, MutexGuard};
pub use padded::CachePadded;
pub use rwlock::{ReadGuard, RwLock, WriteGuard};

/// The SplitMix64 output function (Steele, Lea & Flood, 2014): the
/// full-avalanche finalizer of `x` plus the golden-ratio increment
/// `γ = 0x9E37_79B9_7F4A_7C15`. `splitmix64(s + k·γ)` for `k = 0, 1, …`
/// is the reference SplitMix64 stream seeded with `s`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::splitmix64;

    #[test]
    fn splitmix64_known_answers() {
        // The first two outputs of the reference SplitMix64 stream seeded
        // with 0: state 0 and state 0x9E37_79B9_7F4A_7C15.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }
}
