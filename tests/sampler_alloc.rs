//! Steady-state allocation audit of every sampler's `sample()` and
//! `sample_batch()` paths.
//!
//! Each sampler owns reusable scratch (AOBPR's rank buffer, SRNS's lazily
//! built per-user memories, DNS candidate/score buffers, the BNS gather +
//! fused-ECDF scratch, and every batched-draw grouping buffer). After a
//! warm-up pass that touches every user once, **no draw may allocate**: a
//! counting global allocator (this test binary only — integration tests
//! are separate binaries) asserts the heap counter is flat across
//! thousands of subsequent draws — per-pair and batched alike.
//!
//! The allocator harness itself lives in `tests/support/counting_alloc.rs`
//! and is shared with the serving audit (`crates/serve/tests/query_alloc.rs`).

use bns::core::trainer::sample_pair;
use bns::core::{build_sampler, SampleContext, SamplerConfig};
use bns::data::{Dataset, Interactions};
use bns::model::{MatrixFactorization, TripleBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

include!("support/counting_alloc.rs");

fn dataset() -> Dataset {
    let mut pairs = Vec::new();
    for u in 0..16u32 {
        for k in 0..6u32 {
            pairs.push((u, (u * 7 + k * 5) % 60));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let train_set = Interactions::from_pairs(16, 60, &pairs).unwrap();
    let test_set = Interactions::from_pairs(
        16,
        60,
        &(0..16u32)
            .map(|u| (u, (u * 7 + 2) % 60))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    Dataset::new("alloc-audit", train_set, test_set).unwrap()
}

/// The same dataset with its train CSR re-read through the mmap-backed
/// zero-copy loader — every sampler must stay allocation-free when the
/// interactions it scans live in a mapped file instead of owned `Vec`s.
fn mapped_dataset() -> Dataset {
    let d = dataset();
    let path = std::env::temp_dir().join(format!("bns_sampler_alloc_{}.bns1", std::process::id()));
    bns::data::serialize::save_interactions(d.train(), &path).unwrap();
    let train_set = bns::data::serialize::map_interactions(&path).unwrap();
    // The mapping outlives the unlink on unix; clean up eagerly.
    std::fs::remove_file(&path).ok();
    #[cfg(all(unix, target_endian = "little"))]
    assert!(
        train_set.is_mapped(),
        "mapped load fell back to owned decode"
    );
    assert_eq!(&train_set, d.train());
    Dataset::new("alloc-audit-mapped", train_set, d.test().clone()).unwrap()
}

#[test]
fn every_sampler_is_allocation_free_in_steady_state() {
    let d = dataset();
    let mut rng_model = StdRng::seed_from_u64(1);
    let model =
        MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng_model).unwrap();
    let train_set = d.train();
    let popularity = d.popularity();
    let mut user_scores = vec![0.0f32; d.n_items() as usize];

    let lineup: Vec<SamplerConfig> = SamplerConfig::paper_lineup()
        .into_iter()
        .chain([
            // The exhaustive h* candidate set and the subsampled ECDF have
            // their own buffer paths; audit them too.
            SamplerConfig::Bns {
                config: bns::core::BnsConfig {
                    m: usize::MAX,
                    ..bns::core::BnsConfig::default()
                },
                prior: bns::core::PriorKind::Popularity,
            },
            SamplerConfig::Bns {
                config: bns::core::BnsConfig {
                    ecdf: bns::core::bns::EcdfStrategy::Subsample(16),
                    ..bns::core::BnsConfig::default()
                },
                prior: bns::core::PriorKind::Popularity,
            },
        ])
        .collect();

    for cfg in lineup {
        let mut sampler = build_sampler(&cfg, &d, None).unwrap();
        sampler.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(9);

        // Warm-up: touch every user (SRNS builds its per-user memories
        // here; every reusable buffer reaches steady-state capacity).
        for round in 0..3 {
            for u in 0..d.n_users() {
                let pos = train_set.items_of(u)[round % train_set.degree(u)];
                sample_pair(
                    sampler.as_mut(),
                    &model,
                    train_set,
                    popularity,
                    &mut user_scores,
                    u,
                    pos,
                    0,
                    &mut rng,
                );
            }
        }

        let before = allocation_count();
        for step in 0..2_000u32 {
            let u = step % d.n_users();
            let pos = train_set.items_of(u)[(step as usize / 16) % train_set.degree(u)];
            sample_pair(
                sampler.as_mut(),
                &model,
                train_set,
                popularity,
                &mut user_scores,
                u,
                pos,
                0,
                &mut rng,
            );
        }
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "{}: {} heap allocations across 2000 steady-state draws",
            sampler.name(),
            after - before
        );
    }
}

#[test]
fn sampling_over_mapped_storage_is_allocation_free_in_steady_state() {
    let d = mapped_dataset();
    let mut rng_model = StdRng::seed_from_u64(1);
    let model =
        MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng_model).unwrap();
    let train_set = d.train();
    let popularity = d.popularity();
    let mut user_scores = vec![0.0f32; d.n_items() as usize];

    for cfg in SamplerConfig::paper_lineup() {
        let mut sampler = build_sampler(&cfg, &d, None).unwrap();
        sampler.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(9);

        for round in 0..3 {
            for u in 0..d.n_users() {
                let pos = train_set.items_of(u)[round % train_set.degree(u)];
                sample_pair(
                    sampler.as_mut(),
                    &model,
                    train_set,
                    popularity,
                    &mut user_scores,
                    u,
                    pos,
                    0,
                    &mut rng,
                );
            }
        }

        let before = allocation_count();
        for step in 0..2_000u32 {
            let u = step % d.n_users();
            let pos = train_set.items_of(u)[(step as usize / 16) % train_set.degree(u)];
            sample_pair(
                sampler.as_mut(),
                &model,
                train_set,
                popularity,
                &mut user_scores,
                u,
                pos,
                0,
                &mut rng,
            );
        }
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "{} over mapped storage: {} heap allocations across 2000 steady-state draws",
            sampler.name(),
            after - before
        );
    }
}

#[test]
fn batched_sampling_is_allocation_free_in_steady_state() {
    let d = dataset();
    let mut rng_model = StdRng::seed_from_u64(2);
    let model =
        MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng_model).unwrap();
    let pairs: Vec<(u32, u32)> = d.train().iter_pairs().collect();

    let lineup: Vec<SamplerConfig> = SamplerConfig::paper_lineup()
        .into_iter()
        .chain([
            SamplerConfig::Bns {
                config: bns::core::BnsConfig {
                    m: usize::MAX,
                    ..bns::core::BnsConfig::default()
                },
                prior: bns::core::PriorKind::Popularity,
            },
            SamplerConfig::Bns {
                config: bns::core::BnsConfig {
                    ecdf: bns::core::bns::EcdfStrategy::Subsample(16),
                    ..bns::core::BnsConfig::default()
                },
                prior: bns::core::PriorKind::Popularity,
            },
        ])
        .collect();

    for cfg in lineup {
        for k in [1usize, 3] {
            let mut sampler = build_sampler(&cfg, &d, None).unwrap();
            sampler.on_epoch_start(0);
            let mut rng = StdRng::seed_from_u64(13);
            let mut batch = TripleBatch::new();
            let ctx = SampleContext {
                scorer: &model,
                train: d.train(),
                popularity: d.popularity(),
                user_scores: &[],
                epoch: 0,
                upcoming: &[],
            };

            // Warm-up: several full passes so every reusable buffer (batch
            // rows, grouped gather scratch, SRNS memories and caches)
            // reaches steady-state capacity.
            for _ in 0..3 {
                for chunk in pairs.chunks(32) {
                    sampler.sample_batch(chunk, k, &ctx, &mut rng, &mut batch);
                }
            }

            let before = allocation_count();
            for _ in 0..20 {
                for chunk in pairs.chunks(32) {
                    sampler.sample_batch(chunk, k, &ctx, &mut rng, &mut batch);
                    assert!(!batch.is_empty());
                }
            }
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "{} (k = {k}): {} heap allocations across steady-state batched draws",
                sampler.name(),
                after - before
            );
        }
    }
}
