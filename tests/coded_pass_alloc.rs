//! Steady-state allocation audit of BNS training through the coded Eq. 16
//! pass: MF exposes its rows, so every draw refreshes the coded copy of
//! the epoch sample from MF's write record, and every epoch redraws the
//! sample and rebuilds the copy. After warm-up epochs, whole epochs of
//! `sample_batch` + `update_batch` must not allocate, batched or not, and
//! with the rest of the epoch announced in `SampleContext::upcoming` (the
//! look-ahead windows of batch size 1) or not.
//!
//! The allocator harness lives in `tests/support/counting_alloc.rs`.

use bns::core::bns::EcdfStrategy;
use bns::core::{build_sampler, BnsConfig, PriorKind, SampleContext, SamplerConfig};
use bns::data::{Dataset, Interactions};
use bns::model::{MatrixFactorization, PairwiseModel, Scorer, TripleBatch};
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
    let test_set = Interactions::from_pairs(16, 60, &[(0, 59), (1, 58)]).unwrap();
    Dataset::new("coded-alloc-audit", train_set, test_set).unwrap()
}

#[test]
fn training_through_the_coded_pass_is_allocation_free_in_steady_state() {
    let d = dataset();
    let pairs: Vec<(u32, u32)> = d.train().iter_pairs().collect();
    let cfg = SamplerConfig::Bns {
        config: BnsConfig {
            ecdf: EcdfStrategy::Subsample(24),
            ..BnsConfig::default()
        },
        prior: PriorKind::Popularity,
    };
    // The last two cases announce the rest of the epoch in `upcoming`, as
    // `train` does, so batch-1 draws go through look-ahead windows.
    for (batch_size, k, ahead) in [
        (1usize, 1usize, false),
        (8, 3, false),
        (1, 1, true),
        (1, 2, true),
    ] {
        let mut rng = StdRng::seed_from_u64(31);
        let mut model =
            MatrixFactorization::new(d.n_users(), d.n_items(), 16, 0.1, &mut rng).unwrap();
        assert!(model.row_tables().is_some(), "MF takes the coded pass");
        let mut sampler = build_sampler(&cfg, &d, None).unwrap();
        let mut batch = TripleBatch::new();
        let mut infos = Vec::new();
        let mut epoch = |epoch: usize, model: &mut MatrixFactorization| {
            sampler.on_epoch_start(epoch);
            for (b, chunk) in pairs.chunks(batch_size).enumerate() {
                let rest = &pairs[b * batch_size + chunk.len()..];
                let ctx = SampleContext {
                    scorer: &*model,
                    train: d.train(),
                    popularity: d.popularity(),
                    user_scores: &[],
                    epoch,
                    upcoming: if ahead { rest } else { &[] },
                };
                sampler.sample_batch(chunk, k, &ctx, &mut rng, &mut batch);
                model.update_batch(&batch, 0.05, 0.01, &mut infos);
            }
            sampler
                .take_epoch_stats()
                .expect("BNS reports its statistics")
        };
        for e in 0..3 {
            epoch(e, &mut model);
        }
        let mut stats = Vec::with_capacity(5);
        let before = allocation_count();
        for e in 3..8 {
            stats.push(epoch(e, &mut model));
        }
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "batch {batch_size}, k = {k}: {} heap allocations across steady-state epochs",
            after - before
        );
        for s in &stats {
            assert!(s.ecdf_rows > 0 && s.ecdf_rescored < s.ecdf_rows, "{s:?}");
            assert_eq!(s.ecdf_tiled > 0, ahead, "{s:?}");
        }
    }
}
