//! Model-check scenario suite for the workspace's lock-free protocols.
//!
//! This crate holds no runtime code — its value is the integration tests
//! under `tests/`, which drive the deterministic interleaving scheduler in
//! [`bns_sync::model`] against the protocols the serve path relies on:
//! shared-cursor claim exclusivity and the cache-generation swap protocol.
//!
//! The scenarios are gated behind `--cfg bns_model_check` (so they compile
//! to nothing in tier-1 builds, where the facade types are *not*
//! instrumented and exploring interleavings would be meaningless). Run them
//! the way `ci.sh` does:
//!
//! ```text
//! RUSTFLAGS="-C target-cpu=native --cfg bns_model_check" \
//!     cargo test -p bns-check
//! ```
//!
//! Note that `RUSTFLAGS` *replaces* the `[build] rustflags` from
//! `.cargo/config.toml`, which is why the invocation restates
//! `-C target-cpu=native`.
//!
//! Each test follows the same shape: express the protocol with the facade
//! types ([`bns_sync::ClaimCursor`], [`bns_sync::Generation`],
//! [`bns_sync::Mutex`]), assert its invariant,
//! and hand it to [`bns_sync::model::check`] under an exhaustive (small
//! state space) or seeded-random (larger) exploration mode. Several tests
//! also include a deliberately broken variant and assert the checker
//! *finds* the bug and that the recorded schedule replays to the same
//! failure — guarding the guard.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

// Intentionally empty: see the crate docs and `tests/`.
