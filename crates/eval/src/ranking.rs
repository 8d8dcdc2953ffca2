//! The full ranking-evaluation protocol.
//!
//! For every evaluable user (≥1 train positive, ≥1 test positive): score
//! all items, mask training positives, extract the top-K list and compute
//! Precision/Recall/NDCG at each requested K; report the mean over users.
//! This is the protocol behind Tables II, III and IV.
//!
//! Scoring users is embarrassingly parallel; users are partitioned across
//! std::thread scoped workers and partial sums merged at the end.
//!
//! A model with row tables ([`Scorer::row_tables`]) is ranked
//! [`kernel::WIDTH`] users at a time (16 on AVX-512F builds, 8 on others)
//! by one fused pass, [`kernel::tile_scan`]: each item row is read once for
//! the whole tile and scored against the tile's users in the lanes of one
//! register, and only the scores above a user's current
//! k-th best (or every score while the user's list is not full) leave the
//! kernel, to be masked by a cursor over the user's sorted training
//! positives and offered to the user's [`TopKBuffer`]. No score block
//! exists. A model without row tables is ranked one user at a time from
//! [`Scorer::score_items`] over chunks of consecutive ids, each chunk fed
//! to a [`MaskedScan`]. Either way every score and every ranked list is
//! the one per-user `score_all` + `top_k_masked` would give, and the
//! metrics are added in user order.

use crate::metrics::{ndcg_at_k, precision_at_k, recall_at_k};
use crate::topk::{MaskedScan, TopKBuffer};
use bns_data::Dataset;
use bns_model::kernel::{self, UserTile, WIDTH};
use bns_model::Scorer;

/// Ids per [`Scorer::score_items`] call when a model has no row tables.
const CHUNK: usize = 64;

/// Metrics at one cutoff K.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricRow {
    /// The cutoff.
    pub k: usize,
    /// Mean Precision@K over evaluable users.
    pub precision: f64,
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
}

/// Evaluation result over all requested cutoffs.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingReport {
    /// One row per requested K, in input order.
    pub rows: Vec<MetricRow>,
    /// Number of users averaged over.
    pub n_users: usize,
}

impl RankingReport {
    /// The row for cutoff `k`, if it was requested.
    pub fn at(&self, k: usize) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.k == k)
    }
}

/// Evaluates `model` on `dataset` at the given cutoffs using `n_threads`
/// parallel workers (1 = sequential; the paper's cutoffs are {5, 10, 20}).
pub fn evaluate_ranking(
    model: &(dyn Scorer + Sync),
    dataset: &Dataset,
    ks: &[usize],
    n_threads: usize,
) -> RankingReport {
    let users = dataset.evaluable_users();
    let max_k = ks.iter().copied().max().unwrap_or(0);
    if users.is_empty() || max_k == 0 {
        return RankingReport {
            rows: ks
                .iter()
                .map(|&k| MetricRow {
                    k,
                    precision: 0.0,
                    recall: 0.0,
                    ndcg: 0.0,
                })
                .collect(),
            n_users: 0,
        };
    }

    let n_threads = n_threads.max(1).min(users.len());
    let chunk = users.len().div_ceil(n_threads);
    let n_items = dataset.n_items();
    let tables = model.row_tables();
    // Partial metric sums per thread: [k_idx] → (p, r, n).
    let partials: Vec<Vec<(f64, f64, f64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_threads);
        for worker in users.chunks(chunk) {
            handles.push(scope.spawn(move || {
                // One set of buffers per worker thread, reused across all
                // of its users: one selector per tile lane and the
                // ranked-id list. The per-user loop is allocation-free
                // once these are warm.
                let mut topk: [TopKBuffer; WIDTH] = Default::default();
                let mut ranked: Vec<u32> = Vec::with_capacity(max_k);
                let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); ks.len()];
                let mut add = |buffer: &TopKBuffer, u: u32| {
                    buffer.emit(&mut ranked);
                    let relevant = dataset.test().items_of(u);
                    for (ki, &k) in ks.iter().enumerate() {
                        sums[ki].0 += precision_at_k(&ranked, relevant, k);
                        sums[ki].1 += recall_at_k(&ranked, relevant, k);
                        sums[ki].2 += ndcg_at_k(&ranked, relevant, k);
                    }
                };
                match tables {
                    Some(tables) => {
                        let items = &tables.items[..n_items as usize * tables.dim];
                        let mut tile = UserTile::default();
                        for tile_users in worker.chunks(WIDTH) {
                            tile.set(tables.dim, tile_users.iter().map(|&u| tables.user(u)));
                            let mut masks: [&[u32]; WIDTH] = [&[]; WIDTH];
                            for (mask, &u) in masks.iter_mut().zip(tile_users) {
                                *mask = dataset.train().items_of(u);
                            }
                            let mut cursors = [0usize; WIDTH];
                            for buffer in &mut topk[..tile_users.len()] {
                                buffer.begin(max_k);
                            }
                            // Ids arrive ascending per lane, so one cursor
                            // per user walks its sorted mask.
                            kernel::tile_scan(&tile, items, |t, id, score| {
                                let (masked, at) = (masks[t], &mut cursors[t]);
                                while *at < masked.len() && masked[*at] < id {
                                    *at += 1;
                                }
                                if masked.get(*at) != Some(&id) {
                                    topk[t].offer(score, id);
                                }
                                topk[t].floor()
                            });
                            for (&u, buffer) in tile_users.iter().zip(&topk) {
                                add(buffer, u);
                            }
                        }
                    }
                    None => {
                        let (mut ids, mut scores) = ([0u32; CHUNK], [0.0f32; CHUNK]);
                        let buffer = &mut topk[0];
                        for &u in worker {
                            let masked = dataset.train().items_of(u);
                            let mut scan = MaskedScan::default();
                            buffer.begin(max_k);
                            let mut first = 0u32;
                            while first < n_items {
                                let len = CHUNK.min((n_items - first) as usize);
                                for (id, i) in ids[..len].iter_mut().zip(first..) {
                                    *id = i;
                                }
                                model.score_items(u, &ids[..len], &mut scores[..len]);
                                scan.feed(&scores[..len], first, masked, buffer);
                                first += len as u32;
                            }
                            add(buffer, u);
                        }
                    }
                }
                sums
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("eval worker panicked"))
            .collect()
    });

    let n = users.len() as f64;
    let rows = ks
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let (p, r, nd) = partials.iter().fold((0.0, 0.0, 0.0), |acc, part| {
                (acc.0 + part[ki].0, acc.1 + part[ki].1, acc.2 + part[ki].2)
            });
            MetricRow {
                k,
                precision: p / n,
                recall: r / n,
                ndcg: nd / n,
            }
        })
        .collect();
    RankingReport {
        rows,
        n_users: users.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_masked;
    use bns_data::Interactions;
    use bns_model::scorer::FixedScorer;
    use bns_model::{Embedding, MatrixFactorization};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users × 5 items. User 0: train {0}, test {1, 2}; user 1: train
    /// {4}, test {3}.
    fn dataset() -> Dataset {
        let train = Interactions::from_pairs(2, 5, &[(0, 0), (1, 4)]).unwrap();
        let test = Interactions::from_pairs(2, 5, &[(0, 1), (0, 2), (1, 3)]).unwrap();
        Dataset::new("eval", train, test).unwrap()
    }

    fn perfect_scorer() -> FixedScorer {
        // User 0 ranks 1, 2 on top (after masking 0); user 1 ranks 3 first.
        FixedScorer::new(
            2,
            5,
            vec![
                0.9, 0.8, 0.7, 0.1, 0.0, // user 0
                0.0, 0.1, 0.2, 0.9, 0.5, // user 1
            ],
        )
    }

    #[test]
    fn perfect_model_gets_perfect_ndcg() {
        let d = dataset();
        let report = evaluate_ranking(&perfect_scorer(), &d, &[2], 1);
        assert_eq!(report.n_users, 2);
        let row = report.at(2).unwrap();
        // User 0: top-2 after mask = [1, 2] (both relevant): P = 1, R = 1.
        // User 1: top-2 = [3, 4→masked? no: train {4} masked → [3, 2]]:
        //   P = 0.5, R = 1.
        assert!((row.precision - 0.75).abs() < 1e-12);
        assert!((row.recall - 1.0).abs() < 1e-12);
        assert!((row.ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_perfect_model_gets_zero() {
        let d = dataset();
        // Scores inverted: relevant items at the bottom.
        let scorer = FixedScorer::new(
            2,
            5,
            vec![
                0.0, 0.1, 0.2, 0.8, 0.9, // user 0: top-2 after mask = [4, 3]
                0.9, 0.8, 0.7, 0.0, 0.1, // user 1: top-2 after mask = [0, 1]
            ],
        );
        let report = evaluate_ranking(&scorer, &d, &[2], 1);
        let row = report.at(2).unwrap();
        assert_eq!(row.precision, 0.0);
        assert_eq!(row.recall, 0.0);
        assert_eq!(row.ndcg, 0.0);
    }

    #[test]
    fn multiple_cutoffs_and_ordering() {
        let d = dataset();
        let report = evaluate_ranking(&perfect_scorer(), &d, &[1, 2, 4], 1);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].k, 1);
        assert_eq!(report.rows[2].k, 4);
        // Recall grows with K.
        assert!(report.rows[0].recall <= report.rows[1].recall);
        assert!(report.rows[1].recall <= report.rows[2].recall);
    }

    #[test]
    fn parallel_matches_sequential() {
        let d = dataset();
        let seq = evaluate_ranking(&perfect_scorer(), &d, &[1, 2], 1);
        let par = evaluate_ranking(&perfect_scorer(), &d, &[1, 2], 4);
        assert_eq!(seq, par);
    }

    /// The protocol the tiled loop replaces: per user `score_all` +
    /// `top_k_masked`, with users split into the same worker chunks and
    /// the partial sums merged in the same order, so equal ranked lists
    /// give equal bits.
    fn reference(
        model: &dyn Scorer,
        dataset: &Dataset,
        ks: &[usize],
        n_threads: usize,
    ) -> RankingReport {
        let users = dataset.evaluable_users();
        let max_k = ks.iter().copied().max().unwrap_or(0);
        let chunk = users.len().div_ceil(n_threads.max(1).min(users.len()));
        let mut scores = vec![0.0f32; dataset.n_items() as usize];
        let partials: Vec<Vec<(f64, f64, f64)>> = users
            .chunks(chunk)
            .map(|worker| {
                let mut sums = vec![(0.0, 0.0, 0.0); ks.len()];
                for &u in worker {
                    model.score_all(u, &mut scores);
                    let ranked = top_k_masked(&scores, dataset.train().items_of(u), max_k);
                    let relevant = dataset.test().items_of(u);
                    for (ki, &k) in ks.iter().enumerate() {
                        sums[ki].0 += precision_at_k(&ranked, relevant, k);
                        sums[ki].1 += recall_at_k(&ranked, relevant, k);
                        sums[ki].2 += ndcg_at_k(&ranked, relevant, k);
                    }
                }
                sums
            })
            .collect();
        let n = users.len() as f64;
        let rows = ks
            .iter()
            .enumerate()
            .map(|(ki, &k)| {
                let (p, r, nd) = partials.iter().fold((0.0, 0.0, 0.0), |acc, part| {
                    (acc.0 + part[ki].0, acc.1 + part[ki].1, acc.2 + part[ki].2)
                });
                MetricRow {
                    k,
                    precision: p / n,
                    recall: r / n,
                    ndcg: nd / n,
                }
            })
            .collect();
        RankingReport {
            rows,
            n_users: users.len(),
        }
    }

    /// A scorer with only `score`, `score_all` and `score_items` (no row
    /// tables), so `evaluate_ranking` ranks it through `score_items`.
    struct Plain<'a>(&'a MatrixFactorization);

    impl Scorer for Plain<'_> {
        fn n_users(&self) -> u32 {
            self.0.n_users()
        }
        fn n_items(&self) -> u32 {
            self.0.n_items()
        }
        fn score(&self, u: u32, i: u32) -> f32 {
            self.0.score(u, i)
        }
        fn score_all(&self, u: u32, out: &mut [f32]) {
            self.0.score_all(u, out);
        }
        fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
            self.0.score_items(u, items, out);
        }
    }

    #[test]
    fn tiles_and_blocks_match_the_per_user_protocol() {
        // 11 users: two full tiles and a short one. 600 items: two full
        // blocks and a short one.
        let (n_users, n_items) = (11u32, 600u32);
        let edges = [0u32, 255, 256, 511, 512, 599];
        for dim in [8, 13] {
            // Long edge rows score at the top or the bottom of each list,
            // so a mishandled edge changes the ranked lists.
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let users = Embedding::normal_init(n_users as usize, dim, 0.5, &mut rng).unwrap();
            let mut items = Embedding::normal_init(n_items as usize, dim, 0.5, &mut rng).unwrap();
            for &i in &edges {
                items.row_mut(i as usize).iter_mut().for_each(|x| *x *= 4.0);
            }
            let model = MatrixFactorization::from_embeddings(users, items).unwrap();
            let mut train = Vec::new();
            let mut test = Vec::new();
            let mut scores = vec![0.0f32; n_items as usize];
            for u in 0..n_users {
                // Mask each user's best items (so masking decides the
                // list), half of the block edges, and test on the next
                // best items and a few edges.
                model.score_all(u, &mut scores);
                let mut order: Vec<u32> = (0..n_items).collect();
                order.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
                let mut masked: Vec<u32> = order[..6].to_vec();
                masked.extend(edges.iter().skip(u as usize % 2).step_by(2));
                masked.sort_unstable();
                masked.dedup();
                let held_out = order[6..40]
                    .iter()
                    .step_by(3)
                    .chain(&edges)
                    .filter(|i| masked.binary_search(i).is_err());
                train.extend(masked.iter().map(|&i| (u, i)));
                test.extend(held_out.map(|&i| (u, i)));
            }
            test.sort_unstable();
            test.dedup();
            let d = Dataset::new(
                "edges",
                Interactions::from_pairs(n_users, n_items, &train).unwrap(),
                Interactions::from_pairs(n_users, n_items, &test).unwrap(),
            )
            .unwrap();
            let ks = [1, 5, 20];
            for threads in [1, 3] {
                let want = reference(&model, &d, &ks, threads);
                assert_eq!(want.n_users, 11);
                assert_eq!(
                    evaluate_ranking(&model, &d, &ks, threads),
                    want,
                    "dim {dim}"
                );
                assert_eq!(
                    evaluate_ranking(&Plain(&model), &d, &ks, threads),
                    want,
                    "score_items fallback, dim {dim}"
                );
            }
        }
    }

    #[test]
    fn ties_short_lists_and_negative_infinity_match_the_per_user_protocol() {
        // 13 users (a full tile and a short one) × 40 items. Items 8..32
        // share one row, so their scores tie exactly across every k-th
        // slot and the id decides; items 0..4 score `−∞` for every user (a
        // `−∞` coordinate against a positive user coordinate), ahead of
        // every finite score in id order.
        let (n_users, n_items, dim) = (13u32, 40u32, 5usize);
        let mut rng = StdRng::seed_from_u64(5);
        let mut users = Embedding::normal_init(n_users as usize, dim, 0.5, &mut rng).unwrap();
        let mut items = Embedding::normal_init(n_items as usize, dim, 0.5, &mut rng).unwrap();
        for u in 0..n_users as usize {
            users.row_mut(u)[0] = users.row_mut(u)[0].abs() + 0.1;
        }
        let tied = items.row_mut(8).to_vec();
        for i in 9..32 {
            items.row_mut(i).copy_from_slice(&tied);
        }
        for i in 0..4 {
            items.row_mut(i)[0] = f32::NEG_INFINITY;
        }
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        assert_eq!(model.score(0, 1), f32::NEG_INFINITY);
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for u in 0..n_users {
            if u % 4 == 3 {
                // Three unmasked items, two of them `−∞` and seen first:
                // fewer than k, so every `−∞` enters a list that is never
                // full.
                train.extend(
                    (0..n_items)
                        .filter(|i| ![1, 3, 20].contains(i))
                        .map(|i| (u, i)),
                );
                test.extend([(u, 1), (u, 20)]);
            } else {
                // Mask a few tied ids so the tie straddles the cut at
                // different ids per user.
                train.extend([(u, 8 + u % 5), (u, 12 + u), (u, 33)]);
                test.extend([(u, 20 + u % 7), (u, 2), (u, 36)]);
            }
        }
        train.sort_unstable();
        train.dedup();
        test.retain(|p| train.binary_search(p).is_err());
        let d = Dataset::new(
            "ties",
            Interactions::from_pairs(n_users, n_items, &train).unwrap(),
            Interactions::from_pairs(n_users, n_items, &test).unwrap(),
        )
        .unwrap();
        let ks = [1, 5, 20];
        for threads in [1, 2] {
            let want = reference(&model, &d, &ks, threads);
            assert_eq!(want.n_users, 13);
            assert_eq!(evaluate_ranking(&model, &d, &ks, threads), want);
            assert_eq!(evaluate_ranking(&Plain(&model), &d, &ks, threads), want);
        }
        // The short users rank all three items, `−∞` ones included.
        let mut scores = vec![0.0f32; n_items as usize];
        model.score_all(3, &mut scores);
        assert_eq!(
            top_k_masked(&scores, d.train().items_of(3), 20),
            vec![20, 1, 3]
        );
    }

    #[test]
    fn full_and_short_tiles_of_the_build_width_match_the_per_user_protocol() {
        // 2·WIDTH + 3 users: two full tiles and a short one on one thread,
        // a full and a short tile per worker on two, at either build width.
        let n_users = 2 * WIDTH as u32 + 3;
        let (n_items, dim) = (300u32, 9usize);
        let mut rng = StdRng::seed_from_u64(29);
        let users = Embedding::normal_init(n_users as usize, dim, 0.5, &mut rng).unwrap();
        let items = Embedding::normal_init(n_items as usize, dim, 0.5, &mut rng).unwrap();
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        let (mut train, mut test) = (Vec::new(), Vec::new());
        let mut scores = vec![0.0f32; n_items as usize];
        for u in 0..n_users {
            // Mask some of each user's best items, so masking decides the
            // list, and test on others near the top.
            model.score_all(u, &mut scores);
            let mut order: Vec<u32> = (0..n_items).collect();
            order.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]));
            let (head, rest) = order.split_at(3 + u as usize % 4);
            train.extend(head.iter().map(|&i| (u, i)));
            test.extend(
                rest[..30]
                    .iter()
                    .skip(u as usize % 3)
                    .step_by(4)
                    .map(|&i| (u, i)),
            );
        }
        let d = Dataset::new(
            "width",
            Interactions::from_pairs(n_users, n_items, &train).unwrap(),
            Interactions::from_pairs(n_users, n_items, &test).unwrap(),
        )
        .unwrap();
        let ks = [1, 5, 20];
        for threads in [1, 2] {
            let want = reference(&model, &d, &ks, threads);
            assert_eq!(want.n_users, n_users as usize);
            assert_eq!(evaluate_ranking(&model, &d, &ks, threads), want);
        }
    }

    #[test]
    fn empty_cutoffs_and_no_users() {
        let d = dataset();
        let report = evaluate_ranking(&perfect_scorer(), &d, &[], 1);
        assert!(report.rows.is_empty());

        // Dataset where no user has test items → no evaluable users.
        let train = Interactions::from_pairs(1, 3, &[(0, 0)]).unwrap();
        let test = Interactions::from_pairs(1, 3, &[]).unwrap();
        let d2 = Dataset::new("no-test", train, test).unwrap();
        let scorer = FixedScorer::new(1, 3, vec![0.0; 3]);
        let report = evaluate_ranking(&scorer, &d2, &[5], 2);
        assert_eq!(report.n_users, 0);
        assert_eq!(report.at(5).unwrap().ndcg, 0.0);
    }
}
