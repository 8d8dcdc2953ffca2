//! Property-based tests over the core invariants, spanning crates.
//!
//! Each property encodes a law from the paper or a structural invariant of
//! a substrate: Eq. (15)'s range/monotonicity, Eq. (31)/(32) equivalence,
//! Proposition 0.1, CSR round-trips, split partitioning, metric bounds and
//! top-k correctness.

use bns::core::bns::risk::{conditional_risk, selection_value};
use bns::core::bns::unbias::unbias;
use bns::core::bns::{fused_ecdf_counts, EcdfScratch, EcdfStrategy};
use bns::data::serialize::{decode_interactions, encode_interactions};
use bns::data::{split_random, Interactions, SplitConfig};
use bns::eval::{ndcg_at_k, precision_at_k, recall_at_k, top_k_masked};
use bns::model::loss::{bpr_log_likelihood, info, sigmoid};
use bns::model::scorer::FixedScorer;
use bns::model::{kernel, Embedding, MatrixFactorization, Scorer};
use bns::stats::dist::Continuous;
use bns::stats::{Ecdf, Normal, Welford};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards scoring to a model but hides its rows, so an Eq. 16 pass
/// through it takes the gather.
struct GatherOnly<'a>(&'a dyn Scorer);

impl Scorer for GatherOnly<'_> {
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
        self.0.score_items(u, items, out)
    }
}

proptest! {
    // ---------- Eq. (15): the unbias posterior ----------

    #[test]
    fn unbias_is_a_probability(f in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        let u = unbias(f, p);
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn unbias_monotone_decreasing_in_f(
        f1 in 0.0f64..=1.0,
        f2 in 0.0f64..=1.0,
        p in 0.01f64..=0.99,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(unbias(lo, p) + 1e-12 >= unbias(hi, p));
    }

    #[test]
    fn unbias_monotone_decreasing_in_prior(
        f in 0.01f64..=0.99,
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(unbias(f, lo) + 1e-12 >= unbias(f, hi));
    }

    #[test]
    fn unbias_complement_symmetry(f in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        // Swapping F ↔ 1−F and P ↔ 1−P flips the posterior.
        let a = unbias(f, p);
        let b = unbias(1.0 - f, 1.0 - p);
        prop_assert!((a + b - 1.0).abs() < 1e-9);
    }

    // ---------- Eq. (31)/(32): sampling risk ----------

    #[test]
    fn risk_forms_are_identical(
        info_v in 0.0f64..=1.0,
        unb in 0.0f64..=1.0,
        lambda in 0.0f64..=50.0,
    ) {
        let a = conditional_risk(info_v, unb, lambda);
        let b = selection_value(info_v, unb, lambda);
        prop_assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn risk_bounds(info_v in 0.0f64..=1.0, unb in 0.0f64..=1.0, lambda in 0.0f64..=50.0) {
        // R ∈ [−λ·info, +info].
        let r = conditional_risk(info_v, unb, lambda);
        prop_assert!(r <= info_v + 1e-12);
        prop_assert!(r >= -lambda * info_v - 1e-12);
    }

    // ---------- loss functions ----------

    #[test]
    fn sigmoid_in_unit_interval_and_monotone(a in -50.0f32..50.0, b in -50.0f32..50.0) {
        let (sa, sb) = (sigmoid(a), sigmoid(b));
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb);
        }
    }

    #[test]
    fn info_is_one_minus_sigmoid(pos in -20.0f32..20.0, neg in -20.0f32..20.0) {
        let i = info(pos, neg);
        prop_assert!((i - (1.0 - sigmoid(pos - neg))).abs() < 1e-6);
        prop_assert!((0.0..=1.0).contains(&i));
    }

    #[test]
    fn bpr_ll_is_nonpositive(pos in -20.0f32..20.0, neg in -20.0f32..20.0) {
        prop_assert!(bpr_log_likelihood(pos, neg) <= 1e-6);
    }

    // ---------- stats substrate ----------

    #[test]
    fn ecdf_is_monotone_step_function(mut xs in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let e = Ecdf::new(&xs).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert!((e.eval(xs[xs.len() - 1]) - 1.0).abs() < 1e-12);
        prop_assert!(e.eval(xs[0] - 1.0) == 0.0);
    }

    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6);
        prop_assert!((w.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_monotone_and_bounded(mu in -5.0f64..5.0, sigma in 0.1f64..5.0, x in -20.0f64..20.0) {
        let n = Normal::new(mu, sigma).unwrap();
        let c = n.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(n.cdf(x + 0.5) >= c);
        prop_assert!(n.pdf(x) >= 0.0);
    }

    // ---------- data substrate ----------

    #[test]
    fn interactions_round_trip_serialization(
        pairs in prop::collection::vec((0u32..20, 0u32..30), 0..200),
    ) {
        let x = Interactions::from_pairs(20, 30, &pairs).unwrap();
        let decoded = decode_interactions(&encode_interactions(&x)).unwrap();
        prop_assert_eq!(x, decoded);
    }

    #[test]
    fn split_is_partition_with_train_guarantee(
        pairs in prop::collection::vec((0u32..15, 0u32..25), 1..300),
        seed in 0u64..1000,
    ) {
        let all = Interactions::from_pairs(15, 25, &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = split_random(&all, SplitConfig::default(), &mut rng).unwrap();
        prop_assert_eq!(train.len() + test.len(), all.len());
        for (u, i) in test.iter_pairs() {
            prop_assert!(all.contains(u, i));
            prop_assert!(!train.contains(u, i));
        }
        for u in 0..15u32 {
            if all.degree(u) > 0 {
                prop_assert!(train.degree(u) >= 1, "user {} lost all train items", u);
            }
        }
    }

    // ---------- evaluation substrate ----------

    #[test]
    fn topk_matches_sort_reference(
        scores in prop::collection::vec(-100.0f32..100.0, 1..80),
        k in 1usize..20,
    ) {
        let got = top_k_masked(&scores, &[], k);
        let mut reference: Vec<(f32, u32)> =
            scores.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        reference.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let expected: Vec<u32> =
            reference.into_iter().take(k).map(|(_, i)| i).collect();
        prop_assert_eq!(got, expected);
    }

    // ---------- fused scoring kernels ----------
    //
    // The justification for re-pinning the bit-exact trainer traces: the
    // unrolled kernels change the summation order, but stay within 1e-5
    // relative error of an f64 scalar reference, and every entry point
    // (dot / gemv / gather) agrees bitwise with every other.

    #[test]
    fn kernel_dot_close_to_f64_reference(
        a in prop::collection::vec(-10.0f32..10.0, 0..200),
        b_seed in 0u64..1_000,
    ) {
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b_seed;
                ((h % 2_000) as f32 / 1_000.0) - 1.0
            })
            .collect();
        let got = kernel::dot(&a, &b) as f64;
        let reference: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let tol = 1e-5 * reference.abs().max(1.0);
        prop_assert!((got - reference).abs() <= tol, "{got} vs {reference}");
    }

    #[test]
    fn kernel_gemv_and_gather_agree_with_dot_bitwise(
        user in prop::collection::vec(-5.0f32..5.0, 1..64),
        n_rows in 1usize..30,
        table_seed in 0u64..1_000,
    ) {
        let d = user.len();
        let table: Vec<f32> = (0..d * n_rows)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ table_seed;
                ((h % 2_000) as f32 / 1_000.0) - 1.0
            })
            .collect();
        let mut full = vec![0.0f32; n_rows];
        kernel::gemv(&user, &table, &mut full);
        let ids: Vec<u32> = (0..n_rows as u32).rev().collect();
        let mut gathered = vec![0.0f32; n_rows];
        kernel::gather_dots(&user, &table, &ids, &mut gathered);
        for (k, &i) in ids.iter().enumerate() {
            let direct = kernel::dot(&user, &table[i as usize * d..(i as usize + 1) * d]);
            prop_assert_eq!(full[i as usize].to_bits(), direct.to_bits());
            prop_assert_eq!(gathered[k].to_bits(), direct.to_bits());
        }
    }

    // ---------- the fused single-pass ECDF ----------

    /// The fused blocked pass must be *count-for-count identical* to m
    /// independent `EcdfStrategy::Exact` scans of a precomputed rating
    /// vector, for arbitrary score tables, positive masks and candidate
    /// (threshold) sets — the correctness contract of the fused BNS draw.
    #[test]
    fn fused_ecdf_counts_match_independent_exact_scans(
        scores in prop::collection::vec(-10.0f32..10.0, 1..400),
        positives in prop::collection::btree_set(0u32..400, 0..40),
        thresholds in prop::collection::vec(0usize..400, 1..8),
    ) {
        let n_items = scores.len() as u32;
        let positives: Vec<u32> = positives.into_iter().filter(|&p| p < n_items).collect();
        let pairs: Vec<(u32, u32)> = positives.iter().map(|&p| (0, p)).collect();
        let train = Interactions::from_pairs(1, n_items, &pairs).unwrap();
        let scorer = FixedScorer::new(1, n_items, scores.clone());
        // Thresholds are item scores (as in the real draw) — including,
        // deliberately, scores of masked positives.
        let thresholds: Vec<f32> = thresholds
            .into_iter()
            .map(|t| scores[t % scores.len()])
            .collect();

        let mut counts = Vec::new();
        let mut scratch = EcdfScratch::default();
        let scanned = fused_ecdf_counts(
            EcdfStrategy::Exact,
            &scorer,
            &train,
            0,
            &thresholds,
            &mut counts,
            &mut scratch,
        );

        // Reference: the pre-fused path — one full rating vector, then one
        // independent scan per threshold with positive correction.
        let mut user_scores = vec![0.0f32; n_items as usize];
        scorer.score_all(0, &mut user_scores);
        let n_neg = n_items as usize - positives.len();
        prop_assert_eq!(scanned, n_neg);
        for (c, &x) in thresholds.iter().enumerate() {
            let all_le = user_scores.iter().filter(|&&s| s <= x).count();
            let pos_le = positives
                .iter()
                .filter(|&&p| user_scores[p as usize] <= x)
                .count();
            // Each threshold must match the independent scan exactly.
            prop_assert_eq!(counts[c] as usize, all_le - pos_le);
        }
    }

    /// The coded Eq. 16 pass (MF exposes its rows, and `Subsample(k)` below
    /// the catalog size draws a sample) must count exactly what the gather
    /// pass counts, threshold for threshold, on rows built to sit at the
    /// edge of its error bound: thresholds at sampled rows' scores and one
    /// ulp either side, exact ties, zero, constant and one-element rows,
    /// rows of norm ~1e30, and users that are tiny or not finite.
    #[test]
    fn coded_ecdf_counts_match_the_gather_pass(
        n_items in 40u32..300,
        d in 1usize..20,
        k_frac in 0.05f64..0.95,
        values in prop::collection::vec(-2.0f32..2.0, 6000),
        user_values in prop::collection::vec(-2.0f32..2.0, 20),
        positives in prop::collection::btree_set(0u32..300, 0..30),
        picks in prop::collection::vec(0usize..10_000, 10),
        seed in 0u64..1_000_000,
    ) {
        let strategy = EcdfStrategy::Subsample(((n_items as f64 * k_frac) as usize).max(1));
        let (mut coded, mut gathered) = (EcdfScratch::default(), EcdfScratch::default());
        coded.draw_sample(strategy, n_items, &mut StdRng::seed_from_u64(seed));
        gathered.draw_sample(strategy, n_items, &mut StdRng::seed_from_u64(seed));
        let sample = coded.sample().to_vec();
        prop_assert!(!sample.is_empty() && sample.len() < n_items as usize);
        let at = |p: usize| sample[picks[p] % sample.len()] as usize;

        let mut items: Vec<f32> = values.iter().copied().cycle().take(n_items as usize * d).collect();
        let twin = at(4);
        let source: Vec<f32> = items[twin * d..(twin + 1) * d].to_vec();
        let mut row = |i: usize, f: &dyn Fn(usize, f32) -> f32| {
            for (k, x) in items[i * d..(i + 1) * d].iter_mut().enumerate() {
                *x = f(k, *x);
            }
        };
        row(at(0), &|_, _| 0.0);
        row(at(1), &|_, _| 0.37);
        row(at(2), &|k, x| if k == 0 { 1e4 } else { x * 1e-3 });
        row(at(3), &|_, x| x * 1e30);
        row(at(5), &|k, _| source[k] * (1.0 + f32::EPSILON));
        row(at(6), &|k, _| source[k]);

        let user: Vec<f32> = user_values[..d].to_vec();
        let mut users = user.clone();
        users.extend(user.iter().map(|x| x * 1e-30));
        users.extend(user.iter().enumerate().map(|(k, &x)| if k == d / 2 { f32::NAN } else { x }));
        users.extend(user.iter().enumerate().map(|(k, &x)| if k == 0 { f32::INFINITY } else { x }));
        let model = MatrixFactorization::from_embeddings(
            Embedding::from_vec(4, d, users).unwrap(),
            Embedding::from_vec(n_items as usize, d, items).unwrap(),
        ).unwrap();
        prop_assert!(model.row_tables().is_some());
        let pairs: Vec<(u32, u32)> = positives
            .iter()
            .filter(|&&p| p < n_items)
            .flat_map(|&p| [(0, p), (3, p)])
            .collect();
        let train = Interactions::from_pairs(4, n_items, &pairs).unwrap();

        let (mut a, mut b) = (Vec::new(), Vec::new());
        for u in 0..4u32 {
            let mut thresholds = Vec::new();
            for p in [0, 1, 2, 3, 4, 5, 7, 8, 9] {
                let x = model.score(u, at(p) as u32);
                thresholds.extend([x, x.next_up(), x.next_down()]);
            }
            let scanned = fused_ecdf_counts(strategy, &model, &train, u, &thresholds, &mut a, &mut coded);
            let reference =
                fused_ecdf_counts(strategy, &GatherOnly(&model), &train, u, &thresholds, &mut b, &mut gathered);
            prop_assert_eq!(scanned, reference);
            prop_assert_eq!(&a, &b);
        }
    }

    #[test]
    fn metric_bounds_and_recall_monotonicity(
        ranked_len in 1usize..40,
        relevant in prop::collection::btree_set(0u32..60, 1..20),
    ) {
        let ranked: Vec<u32> = (0..ranked_len as u32).collect();
        let relevant: Vec<u32> = relevant.into_iter().collect();
        let mut prev_recall = 0.0;
        for k in 1..=ranked_len {
            let p = precision_at_k(&ranked, &relevant, k);
            let r = recall_at_k(&ranked, &relevant, k);
            let n = ndcg_at_k(&ranked, &relevant, k);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!((0.0..=1.0).contains(&n));
            prop_assert!(r + 1e-12 >= prev_recall, "recall decreased with k");
            prev_recall = r;
        }
    }
}
