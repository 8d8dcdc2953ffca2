//! Property-based tests of the statistics substrate.

use bns_stats::dist::Continuous;
use bns_stats::special::{beta_inc, gamma_p, ln_gamma};
use bns_stats::{
    AliasTable, Exponential, FalseNegativeDensity, GammaDist, Normal, OrderStatisticDensity,
    StudentT, TrueNegativeDensity, UniformDist,
};
use proptest::prelude::*;

proptest! {
    // ---------- special functions ----------

    #[test]
    fn gamma_p_is_a_cdf_in_x(a in 0.1f64..20.0, x1 in 0.0f64..50.0, x2 in 0.0f64..50.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let p_lo = gamma_p(a, lo).unwrap();
        let p_hi = gamma_p(a, hi).unwrap();
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!(p_hi + 1e-12 >= p_lo);
    }

    #[test]
    fn beta_inc_is_a_cdf_in_x(
        a in 0.1f64..10.0,
        b in 0.1f64..10.0,
        x1 in 0.0f64..=1.0,
        x2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let i_lo = beta_inc(a, b, lo).unwrap();
        let i_hi = beta_inc(a, b, hi).unwrap();
        prop_assert!((0.0..=1.0).contains(&i_lo));
        prop_assert!(i_hi + 1e-10 >= i_lo);
    }

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.5f64..50.0) {
        // Γ(x+1) = x·Γ(x) ⇒ lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    // ---------- distributions ----------

    #[test]
    fn all_cdfs_are_monotone_and_bounded(
        x1 in -30.0f64..30.0,
        x2 in -30.0f64..30.0,
        nu in 0.5f64..20.0,
        alpha in 0.2f64..10.0,
        rate in 0.1f64..5.0,
    ) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let dists: Vec<Box<dyn Fn(f64) -> f64>> = vec![
            Box::new({ let d = Normal::new(0.0, 1.5).unwrap(); move |x| d.cdf(x) }),
            Box::new({ let d = StudentT::new(nu).unwrap(); move |x| d.cdf(x) }),
            Box::new({ let d = GammaDist::new(alpha, rate).unwrap(); move |x| d.cdf(x) }),
            Box::new({ let d = Exponential::new(rate).unwrap(); move |x| d.cdf(x) }),
            Box::new({ let d = UniformDist::new(-2.0, 3.0).unwrap(); move |x| d.cdf(x) }),
        ];
        for cdf in &dists {
            let c_lo = cdf(lo);
            let c_hi = cdf(hi);
            prop_assert!((0.0..=1.0).contains(&c_lo));
            prop_assert!((0.0..=1.0).contains(&c_hi));
            prop_assert!(c_hi + 1e-10 >= c_lo);
        }
    }

    #[test]
    fn order_densities_are_nonnegative_and_bracket(
        x in -10.0f64..10.0,
        sigma in 0.2f64..4.0,
    ) {
        let base = Normal::new(0.0, sigma).unwrap();
        let tn = TrueNegativeDensity::new(base);
        let fnd = FalseNegativeDensity::new(base);
        prop_assert!(tn.density(x) >= 0.0);
        prop_assert!(fnd.density(x) >= 0.0);
        // g + h = 2f (Eq. 9 + Eq. 10 sum to twice the base density).
        let sum = tn.density(x) + fnd.density(x);
        prop_assert!((sum - 2.0 * base.pdf(x)).abs() < 1e-10);
        // P(max ≤ x) ≤ F(x) ≤ P(min ≤ x).
        prop_assert!(fnd.cdf(x) <= base.cdf(x) + 1e-12);
        prop_assert!(tn.cdf(x) >= base.cdf(x) - 1e-12);
    }

    // ---------- alias tables ----------

    #[test]
    fn alias_table_never_emits_zero_weight(
        weights in prop::collection::vec(0.0f64..10.0, 1..50),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        for _ in 0..200 {
            let idx = table.sample(&mut rng);
            prop_assert!(weights[idx] > 0.0, "sampled zero-weight outcome {}", idx);
        }
    }
}
