//! The serving paths against a plain reference on adversarial tables:
//! whatever rows the i8 pre-filter passes over, an `IndexMode::Exact`
//! answer must equal `kernel::dot` over every row followed by
//! `top_k_masked`, list for list, whether the artifact scans its rows in
//! id order (no index) or in the index's `perm` order; and an
//! `IndexMode::Ivf` answer, at every `nprobe`, must equal the same
//! selection over the members of the clusters the index's public bounds
//! choose.
//!
//! The tables mix the rows a bound is most likely to get wrong: exact
//! ties (duplicated rows), near ties among rows the i8 codes hold
//! exactly, constant, zero, subnormal-scale and huge-norm
//! rows (some past the kernel's overflow cap), and non-finite rows, which
//! every user has seen (and which are queried unmasked too). The
//! users include a zero user and one dominated by a single coordinate;
//! masks cover the unmasked top rows; `k` runs past the number of
//! unmasked rows; `d` covers 1, odd and even widths, and one wide enough
//! that the user codes shrink below i16's range.

use bns_data::Interactions;
use bns_eval::topk::top_k_masked;
use bns_model::{kernel, Embedding, MatrixFactorization};
use bns_serve::{IndexMode, IvfConfig, IvfIndex, ModelArtifact, QueryEngine, QueryScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dimensions under test: 600 makes `user_code_max` fall below 32767.
const DIMS: [usize; 8] = [1, 2, 3, 7, 8, 32, 33, 600];

/// Values in `[-1, 1)` with full mantissas.
fn rough(rng: &mut StdRng, d: usize) -> Vec<f32> {
    (0..d).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// One adversarial item row of kind `kind`; `earlier` are the rows so far.
fn item_row(rng: &mut StdRng, d: usize, kind: u32, earlier: &[Vec<f32>]) -> Vec<f32> {
    match kind {
        // Exact ties: a copy of an earlier finite row.
        0 if !earlier.is_empty() => {
            let row = &earlier[rng.random_range(0..earlier.len())];
            if row.iter().all(|x| x.is_finite()) {
                row.clone()
            } else {
                rough(rng, d)
            }
        }
        1 => vec![rng.random_range(-1.0f32..1.0); d],
        2 => vec![0.0; d],
        // Huge norms; the larger scale puts the slack past 2¹⁰², while
        // every score stays finite (|x| ≤ d·max|h| for users in [-1, 1]).
        3 => rough(rng, d).iter().map(|x| x * 1e30).collect(),
        4 => rough(rng, d).iter().map(|x| x * 1e37 / d as f32).collect(),
        // Scales near the bottom of the normal range.
        5 => rough(rng, d).iter().map(|x| x * 1e-37).collect(),
        // Rows the i8 codes hold exactly (multiples of 2⁻⁷ up to
        // 127·2⁻⁷) and close to each other: the row error is zero, so only
        // the user's coding error keeps the bound honest near a tie.
        7 | 8 => {
            let mut row: Vec<f32> = (0..d)
                .map(|_| rng.random_range(-2i32..=2) as f32 / 128.0)
                .collect();
            row[0] = 127.0 / 128.0;
            row
        }
        // One dominant coordinate.
        6 => {
            let mut row = rough(rng, d);
            row[rng.random_range(0..d)] *= 1e4;
            row
        }
        _ => rough(rng, d),
    }
}

/// A non-finite row: NaN, `+∞` or `−∞` in one coordinate.
fn non_finite_row(rng: &mut StdRng, d: usize) -> Vec<f32> {
    let mut row = rough(rng, d);
    row[rng.random_range(0..d)] =
        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.random_range(0..3)];
    row
}

/// The reference: score every row with `kernel::dot`, then select.
fn reference(user: &[f32], items: &[Vec<f32>], masked: &[u32], k: usize) -> Vec<u32> {
    let scores: Vec<f32> = items.iter().map(|h| kernel::dot(user, h)).collect();
    top_k_masked(&scores, masked, k)
}

/// The IVF reference through the index's public API: rank the clusters by
/// `score_clusters`, score the `nprobe` best clusters' members with
/// `kernel::dot` (every other item scores NaN, which is never ranked),
/// then select.
fn ivf_reference(
    index: &IvfIndex,
    user: &[f32],
    items: &[Vec<f32>],
    nprobe: usize,
    masked: &[u32],
    k: usize,
) -> Vec<u32> {
    let mut bounds = vec![0.0f32; index.n_clusters()];
    index.score_clusters(user, &mut bounds);
    let mut scores = vec![f32::NAN; items.len()];
    for c in top_k_masked(&bounds, &[], nprobe) {
        for &i in index.cluster_items(c as usize) {
            scores[i as usize] = kernel::dot(user, &items[i as usize]);
        }
    }
    top_k_masked(&scores, masked, k)
}

fn check_case(seed: u64, d: usize, n_items: usize, with_non_finite: bool) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<Vec<f32>> = Vec::with_capacity(n_items);
    let mut non_finite = Vec::new();
    for i in 0..n_items {
        if with_non_finite && rng.random_range(0..9) == 0 {
            non_finite.push(i as u32);
            items.push(non_finite_row(&mut rng, d));
        } else {
            let kind = rng.random_range(0..12);
            let row = item_row(&mut rng, d, kind, &items);
            items.push(row);
        }
    }
    let mut users = vec![vec![0.0f32; d], vec![0.5; d]];
    let mut dominant = rough(&mut rng, d);
    dominant[0] = 1.0;
    for x in &mut dominant[1..] {
        *x *= 1e-3;
    }
    users.push(dominant);
    users.extend((0..3).map(|_| rough(&mut rng, d)));
    // A user who prefers item 0's direction, so its top rows are masked.
    users.push(
        items[0]
            .iter()
            .map(|x| {
                if x.is_finite() {
                    x.clamp(-1.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect(),
    );
    let n_users = users.len() as u32;

    // Seen lists: every non-finite row, a few random rows, and the
    // reference's top rows of every other user.
    let mut pairs = Vec::new();
    for u in 0..n_users {
        pairs.extend(non_finite.iter().map(|&i| (u, i)));
        for _ in 0..rng.random_range(0..4) {
            pairs.push((u, rng.random_range(0..n_items as u32)));
        }
        if u % 2 == 1 {
            let clean: Vec<u32> = non_finite.clone();
            let top = reference(&users[u as usize], &items, &clean, 4);
            pairs.extend(top.iter().step_by(2).map(|&i| (u, i)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let seen =
        Interactions::from_pairs(n_users, n_items as u32, &pairs).map_err(|e| e.to_string())?;
    let flat = |rows: &[Vec<f32>]| rows.iter().flatten().copied().collect::<Vec<f32>>();
    let model = MatrixFactorization::from_embeddings(
        Embedding::from_vec(users.len(), d, flat(&users)).map_err(|e| e.to_string())?,
        Embedding::from_vec(n_items, d, flat(&items)).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    // Exact mode scans id order without an index and the index's `perm`
    // order with one.
    let freeze = |ivf: Option<IvfConfig>| {
        ModelArtifact::freeze_with(&model, &seen, ivf)
            .map(QueryEngine::new)
            .map_err(|e| e.to_string())
    };
    let (plain, indexed) = (freeze(None)?, freeze(Some(IvfConfig::default()))?);
    let index = indexed.artifact().index().ok_or("no index")?;
    let (mut scratch, mut got) = (QueryScratch::new(), Vec::new());

    for u in 0..n_users {
        let user = &users[u as usize];
        let masked = seen.items_of(u);
        let unmasked = n_items - masked.len();
        for k in [1, 3, 10, unmasked, unmasked + 5, n_items] {
            // Unmasked, a non-finite row scores NaN (never ranked) or
            // `±∞` (ranked like any score), as in the reference.
            for exclude in [true, false] {
                let mask: &[u32] = if exclude { masked } else { &[] };
                let want = reference(user, &items, mask, k);
                for (order, engine) in [("id", &plain), ("perm", &indexed)] {
                    let got = engine.top_k(u, k, exclude).map_err(|e| e.to_string())?;
                    if got != want {
                        return Err(format!(
                            "{order} order, user {u}, k {k}, exclude {exclude}: \
                             got {got:?}, want {want:?}"
                        ));
                    }
                }
                for nprobe in 1..=index.n_clusters() {
                    let want = ivf_reference(index, user, &items, nprobe, mask, k);
                    let mode = Some(IndexMode::Ivf { nprobe });
                    indexed
                        .top_k_with_mode_into(u, k, exclude, mode, &mut scratch, &mut got)
                        .map_err(|e| e.to_string())?;
                    if got != want {
                        return Err(format!(
                            "ivf nprobe {nprobe}, user {u}, k {k}, exclude {exclude}: \
                             got {got:?}, want {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn wide_rows_shrink_the_user_codes() {
    assert_eq!(kernel::user_code_max(32), 32767);
    assert!(kernel::user_code_max(600) < 32767);
}

#[test]
fn all_tied_rows_rank_by_id() {
    for d in DIMS {
        let items = vec![vec![0.25f32; d]; 37];
        let users = [vec![1.0f32; d], vec![0.0; d]];
        let flat = |rows: &[Vec<f32>]| rows.iter().flatten().copied().collect::<Vec<f32>>();
        let model = MatrixFactorization::from_embeddings(
            Embedding::from_vec(2, d, flat(&users)).unwrap(),
            Embedding::from_vec(37, d, flat(&items)).unwrap(),
        )
        .unwrap();
        let seen = Interactions::from_pairs(2, 37, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let engine = QueryEngine::new(ModelArtifact::freeze_with(&model, &seen, None).unwrap());
        assert_eq!(
            engine.top_k(0, 4, true).unwrap(),
            vec![1, 3, 4, 5],
            "d = {d}"
        );
        assert_eq!(engine.top_k(1, 3, true).unwrap(), vec![0, 2, 3], "d = {d}");
    }
}

proptest! {
    #[test]
    fn exact_mode_equals_dot_and_top_k_masked(
        seed in 0u64..1_000_000,
        dim in 0usize..8,
        n_items in 1usize..150,
        non_finite in 0u32..2,
    ) {
        let d = DIMS[dim];
        let outcome = check_case(seed, d, n_items, non_finite == 1);
        prop_assert!(outcome.is_ok(), "d = {}: {}", d, outcome.unwrap_err());
    }
}
