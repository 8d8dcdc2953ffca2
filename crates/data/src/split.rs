//! Train/test splitting.
//!
//! The paper randomly selects 20% of each dataset as test data (§IV-A1).
//! [`split_random`] reproduces that protocol with one guard: a user whose
//! every interaction lands in the test side keeps one training interaction,
//! since a user without training positives can neither be trained on nor
//! generate pairwise triples.

use crate::interactions::{Interactions, RowStreamBuilder};
use crate::{DataError, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for the random split.
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Fraction of interactions assigned to the test set (the paper: 0.2).
    pub test_fraction: f64,
    /// Keep at least this many interactions per user in the training side
    /// (the paper's models need ≥ 1).
    pub min_train_per_user: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self {
            test_fraction: 0.2,
            min_train_per_user: 1,
        }
    }
}

/// Randomly splits `all` into `(train, test)` per `config`.
pub fn split_random<R: Rng + ?Sized>(
    all: &Interactions,
    config: SplitConfig,
    rng: &mut R,
) -> Result<(Interactions, Interactions)> {
    if !(0.0..1.0).contains(&config.test_fraction) {
        return Err(DataError::Invalid("test_fraction must be in [0, 1)".into()));
    }
    if all.is_empty() {
        return Err(DataError::Invalid("cannot split an empty dataset".into()));
    }

    let mut train = RowStreamBuilder::new(all.n_users(), all.n_items());
    train.reserve(all.len());
    let mut test = RowStreamBuilder::new(all.n_users(), all.n_items());

    // Split per user so the min-train guarantee is local and exact; each
    // side of the user's shuffle is sorted back into a CSR row.
    let mut shuffled: Vec<u32> = Vec::new();
    for u in 0..all.n_users() {
        let items = all.items_of(u);
        if items.is_empty() {
            continue;
        }
        shuffled.clear();
        shuffled.extend_from_slice(items);
        shuffled.shuffle(rng);

        let want_test = (items.len() as f64 * config.test_fraction).round() as usize;
        let max_test = items.len().saturating_sub(config.min_train_per_user);
        let n_test = want_test.min(max_test);

        let (held, kept) = shuffled.split_at_mut(n_test);
        held.sort_unstable();
        kept.sort_unstable();
        test.push_row(u, held)?;
        train.push_row(u, kept)?;
    }
    Ok((train.finish()?, test.finish()?))
}

/// Leave-one-out split: exactly one random interaction per user goes to the
/// test side (users with a single interaction keep it in train). A common
/// alternative protocol in the implicit-feedback literature (He et al.,
/// NCF; used here for the extended analyses).
pub fn split_leave_one_out<R: Rng + ?Sized>(
    all: &Interactions,
    rng: &mut R,
) -> Result<(Interactions, Interactions)> {
    if all.is_empty() {
        return Err(DataError::Invalid("cannot split an empty dataset".into()));
    }
    let mut train = RowStreamBuilder::new(all.n_users(), all.n_items());
    train.reserve(all.len());
    let mut test = RowStreamBuilder::new(all.n_users(), all.n_items());
    let mut kept: Vec<u32> = Vec::new();
    for u in 0..all.n_users() {
        let items = all.items_of(u);
        if items.len() <= 1 {
            train.push_row(u, items)?;
            continue;
        }
        let j = rng.random_range(0..items.len());
        kept.clear();
        kept.extend_from_slice(&items[..j]);
        kept.extend_from_slice(&items[j + 1..]);
        test.push_row(u, &items[j..=j])?;
        train.push_row(u, &kept)?;
    }
    Ok((train.finish()?, test.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::InteractionsBuilder;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The pair-builder form of [`split_random`]: every pair is pushed in
    /// shuffle order and one global sort builds each CSR.
    fn split_random_by_pairs<R: Rng + ?Sized>(
        all: &Interactions,
        config: SplitConfig,
        rng: &mut R,
    ) -> (Interactions, Interactions) {
        let mut train = InteractionsBuilder::with_capacity(all.n_users(), all.n_items(), all.len());
        let mut test = InteractionsBuilder::new(all.n_users(), all.n_items());
        let mut shuffled: Vec<u32> = Vec::new();
        for u in 0..all.n_users() {
            let items = all.items_of(u);
            if items.is_empty() {
                continue;
            }
            shuffled.clear();
            shuffled.extend_from_slice(items);
            shuffled.shuffle(rng);
            let want_test = (items.len() as f64 * config.test_fraction).round() as usize;
            let max_test = items.len().saturating_sub(config.min_train_per_user);
            let n_test = want_test.min(max_test);
            for (k, &i) in shuffled.iter().enumerate() {
                if k < n_test {
                    test.push(u, i).unwrap();
                } else {
                    train.push(u, i).unwrap();
                }
            }
        }
        (train.build().unwrap(), test.build().unwrap())
    }

    /// The pair-builder form of [`split_leave_one_out`].
    fn split_leave_one_out_by_pairs<R: Rng + ?Sized>(
        all: &Interactions,
        rng: &mut R,
    ) -> (Interactions, Interactions) {
        let mut train = InteractionsBuilder::with_capacity(all.n_users(), all.n_items(), all.len());
        let mut test = InteractionsBuilder::new(all.n_users(), all.n_items());
        for u in 0..all.n_users() {
            let items = all.items_of(u);
            if items.is_empty() {
                continue;
            }
            if items.len() == 1 {
                train.push(u, items[0]).unwrap();
                continue;
            }
            let held_out = items[rng.random_range(0..items.len())];
            for &i in items {
                if i == held_out {
                    test.push(u, i).unwrap();
                } else {
                    train.push(u, i).unwrap();
                }
            }
        }
        (train.build().unwrap(), test.build().unwrap())
    }

    /// A random dataset whose users are empty, single-item or hold up to
    /// half the catalog.
    fn random_dataset(rng: &mut StdRng) -> Interactions {
        let n_users = rng.random_range(1..40u32);
        let n_items = rng.random_range(1..60u32);
        let mut pairs = Vec::new();
        for u in 0..n_users {
            let degree = match rng.random_range(0..4u32) {
                0 => 0,
                1 => 1,
                _ => rng.random_range(0..=n_items / 2),
            };
            for _ in 0..degree {
                pairs.push((u, rng.random_range(0..n_items)));
            }
        }
        pairs.push((0, 0));
        Interactions::from_pairs(n_users, n_items, &pairs).unwrap()
    }

    #[test]
    fn row_splits_match_the_pair_builder_and_draw_the_same_words() {
        let mut gen = StdRng::seed_from_u64(12);
        for case in 0..200u64 {
            let all = random_dataset(&mut gen);
            let config = SplitConfig {
                test_fraction: [0.0, 0.2, 0.5, 0.95][case as usize % 4],
                min_train_per_user: [0, 1, 3, 1000][(case / 4) as usize % 4],
            };
            let (mut a, mut b) = (StdRng::seed_from_u64(case), StdRng::seed_from_u64(case));
            let want = split_random_by_pairs(&all, config, &mut b);
            assert_eq!(
                split_random(&all, config, &mut a).unwrap(),
                want,
                "case {case}"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");

            let want = split_leave_one_out_by_pairs(&all, &mut b);
            assert_eq!(
                split_leave_one_out(&all, &mut a).unwrap(),
                want,
                "case {case}"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
    }

    fn dense(n_users: u32, n_items: u32, per_user: u32) -> Interactions {
        let mut pairs = Vec::new();
        for u in 0..n_users {
            for k in 0..per_user {
                pairs.push((u, (u + k * 7) % n_items));
            }
        }
        Interactions::from_pairs(n_users, n_items, &pairs).unwrap()
    }

    #[test]
    fn split_is_a_partition() {
        let all = dense(50, 40, 20);
        let mut rng = StdRng::seed_from_u64(0);
        let (train, test) = split_random(&all, SplitConfig::default(), &mut rng).unwrap();
        assert_eq!(train.len() + test.len(), all.len());
        for (u, i) in test.iter_pairs() {
            assert!(all.contains(u, i));
            assert!(!train.contains(u, i));
        }
        for (u, i) in train.iter_pairs() {
            assert!(all.contains(u, i));
        }
    }

    #[test]
    fn ratio_is_approximately_respected() {
        let all = dense(100, 200, 40);
        let mut rng = StdRng::seed_from_u64(1);
        let (_, test) = split_random(&all, SplitConfig::default(), &mut rng).unwrap();
        let ratio = test.len() as f64 / all.len() as f64;
        assert!((ratio - 0.2).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn every_user_keeps_a_training_item() {
        // Users with a single interaction must keep it in train.
        let all = Interactions::from_pairs(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SplitConfig {
            test_fraction: 0.9,
            min_train_per_user: 1,
        };
        let (train, test) = split_random(&all, cfg, &mut rng).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 0);
        for u in 0..3 {
            assert_eq!(train.degree(u), 1);
        }
    }

    #[test]
    fn rejects_bad_fraction() {
        let all = dense(2, 2, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SplitConfig {
            test_fraction: 1.0,
            min_train_per_user: 1,
        };
        assert!(split_random(&all, cfg, &mut rng).is_err());
    }

    #[test]
    fn rejects_empty_input() {
        let all = Interactions::from_pairs(2, 2, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(split_random(&all, SplitConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let all = dense(30, 30, 10);
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let (tr1, te1) = split_random(&all, SplitConfig::default(), &mut rng1).unwrap();
        let (tr2, te2) = split_random(&all, SplitConfig::default(), &mut rng2).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
    }

    #[test]
    fn leave_one_out_holds_exactly_one_per_user() {
        let all = dense(20, 30, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let (train, test) = split_leave_one_out(&all, &mut rng).unwrap();
        assert_eq!(train.len() + test.len(), all.len());
        for u in 0..20 {
            assert_eq!(test.degree(u), 1, "user {u}");
            assert_eq!(train.degree(u), all.degree(u) - 1);
            let held = test.items_of(u)[0];
            assert!(all.contains(u, held));
            assert!(!train.contains(u, held));
        }
    }

    #[test]
    fn leave_one_out_keeps_singletons_in_train() {
        let all = Interactions::from_pairs(2, 3, &[(0, 0), (1, 1), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let (train, test) = split_leave_one_out(&all, &mut rng).unwrap();
        assert_eq!(train.degree(0), 1);
        assert_eq!(test.degree(0), 0);
        assert_eq!(test.degree(1), 1);
    }

    #[test]
    fn leave_one_out_rejects_empty() {
        let all = Interactions::from_pairs(2, 2, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        assert!(split_leave_one_out(&all, &mut rng).is_err());
    }
}
