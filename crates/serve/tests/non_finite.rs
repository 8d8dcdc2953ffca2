//! Non-finite rows in a model's item table: every selection path drops a
//! NaN score and ranks `±∞` like any other score, without panicking.
//!
//! A frozen artifact accepts NaN and `±∞` entries, so a query or an
//! evaluation can meet them. The exact and IVF serving paths and the
//! ranking protocol (with and without row tables) must all return what a
//! plain sort of every finite-or-infinite score returns.

use bns_data::{Dataset, Interactions};
use bns_eval::metrics::{ndcg_at_k, precision_at_k, recall_at_k};
use bns_eval::{evaluate_ranking, MetricRow, RankingReport};
use bns_model::{kernel, Embedding, MatrixFactorization, Scorer};
use bns_serve::{IndexMode, IvfConfig, ModelArtifact, QueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_USERS: u32 = 11;
const N_ITEMS: u32 = 203;
const NAN_ROW: u32 = 17;
const INF_ROW: u32 = 42;

/// Users and items in `[-1, 1)`; row `NAN_ROW` has a NaN coordinate and
/// row `INF_ROW` a `+∞` one, where the users' signs differ (and one user
/// is zero), so it scores `+∞`, `−∞` or NaN by user.
fn model(d: usize) -> MatrixFactorization {
    let mut rng = StdRng::seed_from_u64(d as u64);
    let mut table =
        |n: usize| -> Vec<f32> { (0..n * d).map(|_| rng.random_range(-1.0f32..1.0)).collect() };
    let mut users = table(N_USERS as usize);
    let mut items = table(N_ITEMS as usize);
    items[NAN_ROW as usize * d + d / 2] = f32::NAN;
    items[INF_ROW as usize * d] = f32::INFINITY;
    // On the +∞ row user 1 scores NaN, user 3 `+∞` and user 5 `−∞`.
    users[d] = 0.0;
    users[3 * d] = 0.5;
    users[5 * d] = -0.5;
    MatrixFactorization::from_embeddings(
        Embedding::from_vec(N_USERS as usize, d, users).unwrap(),
        Embedding::from_vec(N_ITEMS as usize, d, items).unwrap(),
    )
    .unwrap()
}

/// Train (seen) and test items per user. User 0 has seen the NaN row,
/// user 2 the `+∞` row; user 3 has the `+∞` row held out, user 4 the NaN
/// row.
fn dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for u in 0..N_USERS {
        for _ in 0..5 {
            train.push((u, rng.random_range(0..N_ITEMS)));
            test.push((u, rng.random_range(0..N_ITEMS)));
        }
    }
    train.extend([(0, NAN_ROW), (2, INF_ROW)]);
    test.extend([(3, INF_ROW), (4, NAN_ROW)]);
    train.sort_unstable();
    train.dedup();
    test.sort_unstable();
    test.dedup();
    test.retain(|p| train.binary_search(p).is_err());
    Dataset::new(
        "non-finite",
        Interactions::from_pairs(N_USERS, N_ITEMS, &train).unwrap(),
        Interactions::from_pairs(N_USERS, N_ITEMS, &test).unwrap(),
    )
    .unwrap()
}

/// Scores every row with `kernel::dot`, drops masked ids and NaN scores,
/// and sorts by (score desc, id asc).
fn reference(model: &MatrixFactorization, u: u32, masked: &[u32], k: usize) -> Vec<u32> {
    let tables = model.row_tables().unwrap();
    let mut all: Vec<(f32, u32)> = (0..N_ITEMS)
        .map(|i| (kernel::dot(tables.user(u), tables.item(i)), i))
        .filter(|&(s, i)| !s.is_nan() && masked.binary_search(&i).is_err())
        .collect();
    all.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    all.into_iter().take(k).map(|(_, i)| i).collect()
}

/// A scorer without row tables, so evaluation scores it through
/// `score_items`.
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
    fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
        self.0.score_items(u, items, out);
    }
}

#[test]
fn the_fixture_scores_nan_and_both_infinities() {
    let m = model(13);
    let scores: Vec<f32> = (0..N_USERS).map(|u| m.score(u, INF_ROW)).collect();
    assert!(scores.contains(&f32::INFINITY) && scores.contains(&f32::NEG_INFINITY));
    assert!(m.score(1, INF_ROW).is_nan());
    assert_eq!(m.score(3, INF_ROW), f32::INFINITY);
    assert_eq!(m.score(5, INF_ROW), f32::NEG_INFINITY);
    assert!((0..N_USERS).all(|u| m.score(u, NAN_ROW).is_nan()));
}

#[test]
fn exact_and_ivf_queries_drop_nan_and_rank_infinities() {
    let data = dataset();
    for d in [8, 13] {
        let m = model(d);
        let exact = QueryEngine::new(ModelArtifact::freeze_with(&m, data.train(), None).unwrap());
        let ivf_config = IvfConfig {
            n_clusters: 6,
            ..IvfConfig::default()
        };
        let ivf = QueryEngine::with_index_mode(
            ModelArtifact::freeze_with(&m, data.train(), Some(ivf_config)).unwrap(),
            // Every cluster probed: the answer must be the exact one.
            IndexMode::Ivf { nprobe: usize::MAX },
        )
        .unwrap();
        for u in 0..N_USERS {
            for exclude in [true, false] {
                let masked = if exclude {
                    data.train().items_of(u)
                } else {
                    &[]
                };
                for k in [1, 5, 20, N_ITEMS as usize] {
                    let want = reference(&m, u, masked, k);
                    let what = format!("d {d}, user {u}, k {k}, exclude {exclude}");
                    assert_eq!(exact.top_k(u, k, exclude).unwrap(), want, "exact, {what}");
                    assert_eq!(ivf.top_k(u, k, exclude).unwrap(), want, "ivf, {what}");
                }
            }
        }
    }
}

#[test]
fn evaluate_ranking_drops_nan_and_ranks_infinities() {
    let data = dataset();
    let ks = [1, 5, 20];
    for d in [8, 13] {
        let m = model(d);
        // One worker, users in order: the sums add in the same order.
        let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); ks.len()];
        let users = data.evaluable_users();
        for &u in users {
            let ranked = reference(&m, u, data.train().items_of(u), 20);
            let relevant = data.test().items_of(u);
            for (sum, &k) in sums.iter_mut().zip(&ks) {
                sum.0 += precision_at_k(&ranked, relevant, k);
                sum.1 += recall_at_k(&ranked, relevant, k);
                sum.2 += ndcg_at_k(&ranked, relevant, k);
            }
        }
        let n = users.len() as f64;
        let want = RankingReport {
            rows: sums
                .iter()
                .zip(&ks)
                .map(|(&(p, r, nd), &k)| MetricRow {
                    k,
                    precision: p / n,
                    recall: r / n,
                    ndcg: nd / n,
                })
                .collect(),
            n_users: users.len(),
        };
        assert!(want.at(1).unwrap().precision > 0.0, "the +∞ row is a hit");
        let artifact = ModelArtifact::freeze_with(&m, data.train(), None).unwrap();
        assert_eq!(evaluate_ranking(&m, &data, &ks, 1), want, "d {d}");
        assert_eq!(evaluate_ranking(&Plain(&m), &data, &ks, 1), want, "d {d}");
        assert_eq!(evaluate_ranking(&artifact, &data, &ks, 1), want, "d {d}");
        assert_eq!(
            evaluate_ranking(&m, &data, &ks, 3),
            evaluate_ranking(&Plain(&m), &data, &ks, 3),
            "d {d}"
        );
    }
}
