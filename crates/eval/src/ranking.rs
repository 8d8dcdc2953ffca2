//! The full ranking-evaluation protocol.
//!
//! For every evaluable user (≥1 train positive, ≥1 test positive): score
//! all items, mask training positives, extract the top-K list and compute
//! Precision/Recall/NDCG at each requested K; report the mean over users.
//! This is the protocol behind Tables II, III and IV.
//!
//! Scoring users is embarrassingly parallel; users are partitioned across
//! std::thread scoped workers and partial sums merged at the end.

use crate::metrics::{ndcg_at_k, precision_at_k, recall_at_k};
use crate::topk::{top_k_masked_into, TopKBuffer};
use bns_data::Dataset;
use bns_model::Scorer;

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
    // Partial metric sums per thread: [k_idx] → (p, r, n).
    let partials: Vec<Vec<(f64, f64, f64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_threads);
        for worker in users.chunks(chunk) {
            handles.push(scope.spawn(move || {
                // One set of buffers per worker thread, reused across all
                // of its users: the score vector, the top-k selection
                // scratch and the ranked-id list. The per-user loop is
                // allocation-free once these are warm.
                let n_items = dataset.n_items() as usize;
                let mut scores = vec![0.0f32; n_items];
                let mut topk = TopKBuffer::default();
                let mut ranked: Vec<u32> = Vec::with_capacity(max_k);
                let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); ks.len()];
                for &u in worker {
                    model.score_all(u, &mut scores);
                    let masked = dataset.train().items_of(u);
                    top_k_masked_into(&scores, masked, max_k, &mut topk, &mut ranked);
                    let relevant = dataset.test().items_of(u);
                    for (ki, &k) in ks.iter().enumerate() {
                        sums[ki].0 += precision_at_k(&ranked, relevant, k);
                        sums[ki].1 += recall_at_k(&ranked, relevant, k);
                        sums[ki].2 += ndcg_at_k(&ranked, relevant, k);
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
    use bns_data::Interactions;
    use bns_model::scorer::FixedScorer;

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
