//! The sharded multi-core training engine.
//!
//! [`train_hogwild`] partitions the training pairs into per-thread user
//! shards (`u mod threads`), runs hogwild-style lock-free SGD epochs on a
//! [`HogwildMf`] via [`std::thread::scope`], and merges per-shard
//! statistics at epoch barriers. Each worker owns
//!
//! * its **own seeded RNG stream** (derived from the run seed and shard
//!   id with a SplitMix64 step, so streams are decorrelated and the run
//!   is reproducible *up to* hogwild write interleaving);
//! * its **own negative-sampler instance** built from the shared
//!   [`SamplerConfig`], so stateful samplers (SRNS memory, BNS λ/posterior
//!   accumulators) never need locks;
//! * a private [`TripleBatch`] pipeline: each worker fills its batch via
//!   `NegativeSampler::sample_batch` (score gathers grouped by user,
//!   straight from the shared hogwild tables through `Scorer::score_items`)
//!   and applies it with [`HogwildMf::apply_batch`], whose group updates
//!   batch the atomic stores.
//!
//! Sharding by user makes user-embedding updates race-free (each user row
//! has exactly one writer); item rows are shared and updated with the
//! relaxed-atomic hogwild contract of [`bns_model::hogwild`]. The BNS
//! per-triple computations — the Eq. (15) unbias posterior and the
//! Eq. (32) risk rule — depend only on the shared read-only score state,
//! so they shard cleanly; their per-shard sufficient statistics
//! ([`PosteriorStats`]) are drained from every worker and merged at each
//! epoch barrier.
//!
//! # Determinism
//!
//! The serial engine ([`crate::train`]) is the bit-exact one — one
//! thread, one RNG stream, the exact trace pinned by
//! `tests/trainer_repro_guard.rs`. [`train_hogwild`] trades that
//! bit-level trace for multi-core throughput: per-worker streams stay
//! seeded, but concurrent item-row writes interleave nondeterministically,
//! so only statistical reproducibility (final metric tolerance, see
//! `tests/parallel_equivalence.rs`) is guaranteed.
//!
//! # Observers
//!
//! `on_epoch_end` fires on the coordinating thread at every barrier with
//! the shared model, exactly as in the serial engine. Per-triple
//! `on_triple` callbacks are **not** delivered in hogwild mode — fanning
//! every worker's triples through one `&mut` observer would serialize the
//! hot path. Probes that need per-triple access (Fig. 4's TNR/INF) should
//! run on the serial engine.

use crate::bns::PosteriorStats;
use crate::factory::{build_sampler, SamplerConfig};
use crate::sampler::SampleContext;
use crate::trainer::{TrainConfig, TrainObserver, TrainStats};
use crate::{CoreError, Result};
use bns_data::{Dataset, Occupations};
use bns_model::{HogwildMf, HogwildScratch, MatrixFactorization, Scorer, TripleBatch};
use bns_sync::PoisonFlag;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;
use std::sync::{Barrier, Mutex};

/// What one worker hands the coordinator at an epoch barrier.
#[derive(Debug, Clone, Copy, Default)]
struct EpochReport {
    triples: usize,
    skipped: usize,
    info_sum: f64,
    info_count: usize,
    posterior: PosteriorStats,
}

/// Trains `model` on `dataset.train()` with the sharded hogwild engine
/// described at the module level: `threads` workers (= user shards), each
/// building its own sampler from `sampler_cfg` (`occupations` is needed
/// only by the BNS-4 occupation prior). `threads == 0` is an
/// [`CoreError::InvalidConfig`].
///
/// ```
/// use bns_core::{train_hogwild, SamplerConfig, TrainConfig};
/// use bns_data::{Dataset, Interactions};
/// use bns_model::MatrixFactorization;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let train = Interactions::from_pairs(2, 4, &[(0, 0), (0, 1), (1, 2)]).unwrap();
/// let test = Interactions::from_pairs(2, 4, &[(1, 3)]).unwrap();
/// let dataset = Dataset::new("doc", train, test).unwrap();
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = MatrixFactorization::new(2, 4, 4, 0.1, &mut rng).unwrap();
///
/// let config = TrainConfig::paper_mf(2, 7);
/// let stats = train_hogwild(
///     &mut model,
///     &dataset,
///     &SamplerConfig::Rns,
///     None,
///     &config,
///     2,
///     &mut bns_core::NoopObserver,
/// )
/// .unwrap();
/// assert_eq!(stats.triples, 2 * 3);
/// ```
pub fn train_hogwild(
    model: &mut MatrixFactorization,
    dataset: &Dataset,
    sampler_cfg: &SamplerConfig,
    occupations: Option<&Occupations>,
    config: &TrainConfig,
    threads: usize,
    observer: &mut dyn TrainObserver,
) -> Result<TrainStats> {
    if threads == 0 {
        return Err(CoreError::InvalidConfig(
            "hogwild training needs at least one thread".into(),
        ));
    }
    config.validate()?;
    if model.n_users() != dataset.n_users() || model.n_items() != dataset.n_items() {
        return Err(CoreError::InvalidConfig(format!(
            "model shape ({} users × {} items) does not match dataset ({} × {})",
            model.n_users(),
            model.n_items(),
            dataset.n_users(),
            dataset.n_items()
        )));
    }
    // Validate the sampler configuration once on the coordinator, so
    // workers can unwrap their per-shard builds.
    drop(build_sampler(sampler_cfg, dataset, occupations)?);

    // lint:allow(wall-clock) — wall_seconds is reporting-only output;
    // no training decision reads it.
    let started = std::time::Instant::now();
    let train_set = dataset.train();
    let popularity = dataset.popularity();
    let epochs = config.epochs;

    // User-sharded pair lists: shard w owns every user ≡ w (mod T), so
    // each user row has exactly one writer.
    let mut shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); threads];
    for (u, i) in train_set.iter_pairs() {
        shards[u as usize % threads].push((u, i));
    }

    let shared = HogwildMf::from_mf(model);
    let barrier = Barrier::new(threads + 1);
    let reports: Vec<Mutex<EpochReport>> = (0..threads)
        .map(|_| Mutex::new(EpochReport::default()))
        .collect();

    let mut stats = TrainStats {
        triples: 0,
        skipped: 0,
        mean_info_per_epoch: Vec::with_capacity(epochs),
        posterior_per_epoch: Vec::with_capacity(epochs),
        wall_seconds: 0.0,
    };

    // A panic anywhere (a worker's sampler, the user's observer) must
    // not leave the other barrier participants waiting forever: every
    // side runs its fallible work under `catch_unwind`, records the
    // first payload, and keeps hitting its barriers. Once poisoned,
    // everyone skips real work and the loops drain fast; the payload
    // is re-thrown after the scope joins, matching the serial engine's
    // panic behavior.
    let poisoned = PoisonFlag::new();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let poison = |payload: Box<dyn std::any::Any + Send>| {
        poisoned.set();
        panic_payload
            .lock()
            .expect("panic payload lock")
            .get_or_insert(payload);
    };

    std::thread::scope(|scope| {
        for (w, mut pairs) in shards.into_iter().enumerate() {
            let report = &reports[w];
            let shared = &shared;
            let barrier = &barrier;
            let poisoned = &poisoned;
            let poison = &poison;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(worker_seed(config.seed, w));
                let mut sampler = build_sampler(sampler_cfg, dataset, occupations)
                    .expect("sampler config validated by the coordinator");
                // Per-worker reusable batch pipeline buffers: the SoA
                // triple batch, the per-triple info output, and the
                // hogwild group-update scratch. All reach steady-state
                // capacity after the first batches.
                let mut batch_buf = TripleBatch::new();
                let mut infos: Vec<f32> = Vec::new();
                let mut scratch = HogwildScratch::default();
                for epoch in 0..epochs {
                    if !poisoned.is_set() {
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let lr = config.sgd.lr.at(epoch);
                            sampler.on_epoch_start(epoch);
                            pairs.shuffle(&mut rng);
                            let mut local = EpochReport::default();
                            for chunk in pairs.chunks(config.batch_size) {
                                // Fill: k negatives per pair against the
                                // shared tables, gathers batched by user.
                                {
                                    let ctx = SampleContext {
                                        scorer: shared,
                                        train: train_set,
                                        popularity,
                                        user_scores: &[],
                                        epoch,
                                    };
                                    sampler.sample_batch(
                                        chunk,
                                        config.k_negatives,
                                        &ctx,
                                        &mut rng,
                                        &mut batch_buf,
                                    );
                                }
                                local.skipped += chunk.len() - batch_buf.len();
                                // Update: hogwild writes with batched
                                // atomic stores per row group.
                                shared.apply_batch(
                                    &batch_buf,
                                    lr,
                                    config.sgd.reg,
                                    &mut infos,
                                    &mut scratch,
                                );
                                for &info in &infos {
                                    local.info_sum += info as f64;
                                }
                                local.info_count += infos.len();
                                local.triples += infos.len();
                            }
                            if let Some(post) = sampler.take_epoch_stats() {
                                local.posterior = post;
                            }
                            *report.lock().expect("worker report lock") = local;
                        }));
                        if let Err(payload) = outcome {
                            poison(payload);
                        }
                    }
                    // Rendezvous 1: every shard finished the epoch.
                    barrier.wait();
                    // Rendezvous 2: coordinator merged stats and ran
                    // the epoch-end observer on the quiesced model.
                    barrier.wait();
                }
            });
        }

        for epoch in 0..epochs {
            barrier.wait();
            if !poisoned.is_set() {
                let mut info_sum = 0.0f64;
                let mut info_count = 0usize;
                let mut posterior = PosteriorStats::default();
                for report in &reports {
                    let r = report.lock().expect("coordinator report lock");
                    stats.triples += r.triples;
                    stats.skipped += r.skipped;
                    info_sum += r.info_sum;
                    info_count += r.info_count;
                    posterior.merge(&r.posterior);
                }
                stats.mean_info_per_epoch.push(if info_count == 0 {
                    0.0
                } else {
                    info_sum / info_count as f64
                });
                stats.posterior_per_epoch.push(posterior);
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    observer.on_epoch_end(epoch, &shared as &dyn Scorer);
                }));
                if let Err(payload) = outcome {
                    poison(payload);
                }
            }
            barrier.wait();
        }
    });

    if let Some(payload) = panic_payload.lock().expect("panic payload lock").take() {
        std::panic::resume_unwind(payload);
    }
    *model = shared.to_mf();
    stats.wall_seconds = started.elapsed().as_secs_f64();
    Ok(stats)
}

/// Decorrelates per-shard RNG streams from the run seed: output `shard`
/// of the SplitMix64 stream seeded with `seed`.
fn worker_seed(seed: u64, shard: usize) -> u64 {
    bns_sync::splitmix64(seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::NoopObserver;
    use bns_data::Interactions;

    fn dataset() -> Dataset {
        let mut pairs = Vec::new();
        // 12 users × 20 items, 5 positives each, deterministic layout.
        for u in 0..12u32 {
            for k in 0..5u32 {
                pairs.push((u, (u * 3 + k * 4) % 20));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let train = Interactions::from_pairs(12, 20, &pairs).unwrap();
        let test = Interactions::from_pairs(
            12,
            20,
            &(0..12u32)
                .map(|u| (u, (u * 3 + 2) % 20))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        Dataset::new("par", train, test).unwrap()
    }

    fn mf(seed: u64, d: &Dataset) -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(seed);
        MatrixFactorization::new(d.n_users(), d.n_items(), 8, 0.1, &mut rng).unwrap()
    }

    #[test]
    fn config_validation() {
        let d = dataset();
        let mut model = mf(0, &d);
        let cfg = TrainConfig::paper_mf(1, 0);
        assert!(matches!(
            train_hogwild(
                &mut model,
                &d,
                &SamplerConfig::Rns,
                None,
                &cfg,
                0,
                &mut NoopObserver
            ),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn hogwild_counts_all_triples_and_epochs() {
        let d = dataset();
        let cfg = TrainConfig::paper_mf(3, 5);
        for threads in [1, 2, 4] {
            let mut model = mf(1, &d);
            let stats = train_hogwild(
                &mut model,
                &d,
                &SamplerConfig::Rns,
                None,
                &cfg,
                threads,
                &mut NoopObserver,
            )
            .unwrap();
            assert_eq!(stats.triples, 3 * d.train().len(), "threads = {threads}");
            assert_eq!(stats.skipped, 0);
            assert_eq!(stats.mean_info_per_epoch.len(), 3);
            assert_eq!(stats.posterior_per_epoch.len(), 3);
            assert!(model.sq_norm().is_finite());
        }
    }

    #[test]
    fn hogwild_merges_bns_posterior_stats() {
        let d = dataset();
        let cfg = TrainConfig::paper_mf(2, 9);
        let sampler = SamplerConfig::Bns {
            config: crate::BnsConfig::default(),
            prior: crate::PriorKind::Popularity,
        };
        let mut model = mf(2, &d);
        let stats =
            train_hogwild(&mut model, &d, &sampler, None, &cfg, 3, &mut NoopObserver).unwrap();
        for (epoch, post) in stats.posterior_per_epoch.iter().enumerate() {
            assert_eq!(
                post.draws as usize,
                d.train().len(),
                "epoch {epoch}: every draw must be recorded across shards"
            );
            assert!((0.0..=1.0).contains(&post.mean_unbias()));
            assert!((0.0..=1.0).contains(&post.mean_info()));
        }
    }

    #[test]
    fn hogwild_epoch_observer_runs_on_quiesced_model() {
        struct EpochProbe {
            epochs: Vec<usize>,
            users: u32,
        }
        impl TrainObserver for EpochProbe {
            fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {
                panic!("hogwild mode must not deliver per-triple callbacks");
            }
            fn on_epoch_end(&mut self, epoch: usize, model: &dyn Scorer) {
                self.users = model.n_users();
                self.epochs.push(epoch);
            }
        }
        let d = dataset();
        let mut model = mf(4, &d);
        let mut probe = EpochProbe {
            epochs: Vec::new(),
            users: 0,
        };
        let cfg = TrainConfig::paper_mf(3, 1);
        train_hogwild(
            &mut model,
            &d,
            &SamplerConfig::Rns,
            None,
            &cfg,
            2,
            &mut probe,
        )
        .unwrap();
        assert_eq!(probe.epochs, vec![0, 1, 2]);
        assert_eq!(probe.users, 12);
    }

    #[test]
    #[should_panic(expected = "probe panic")]
    fn observer_panic_propagates_instead_of_deadlocking() {
        // A panicking epoch-end observer must surface as a panic on the
        // calling thread, not hang the worker barrier rendezvous.
        struct Bomb;
        impl TrainObserver for Bomb {
            fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {}
            fn on_epoch_end(&mut self, epoch: usize, _: &dyn Scorer) {
                if epoch == 1 {
                    panic!("probe panic");
                }
            }
        }
        let d = dataset();
        let mut model = mf(8, &d);
        let cfg = TrainConfig::paper_mf(4, 3);
        let _ = train_hogwild(
            &mut model,
            &d,
            &SamplerConfig::Rns,
            None,
            &cfg,
            3,
            &mut Bomb,
        );
    }

    #[test]
    fn more_shards_than_users_is_fine() {
        let d = dataset();
        let mut model = mf(6, &d);
        let cfg = TrainConfig::paper_mf(1, 2);
        let stats = train_hogwild(
            &mut model,
            &d,
            &SamplerConfig::Rns,
            None,
            &cfg,
            16,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(stats.triples, d.train().len());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let mut wrong = MatrixFactorization::new(3, 20, 4, 0.1, &mut rng).unwrap();
        let cfg = TrainConfig::paper_mf(1, 0);
        assert!(train_hogwild(
            &mut wrong,
            &d,
            &SamplerConfig::Rns,
            None,
            &cfg,
            2,
            &mut NoopObserver
        )
        .is_err());
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|w| worker_seed(42, w)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(worker_seed(1, 0), worker_seed(2, 0));
    }
}
