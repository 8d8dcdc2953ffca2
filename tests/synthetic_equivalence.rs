//! Scale-invariance suite for the streamed synthetic generator.
//!
//! The streamed generator (`generate_streamed`) and the in-RAM generator
//! (`generate`) share one code path by construction, so "streamed ≡
//! in-RAM" alone would not catch a bug in that shared path. This suite
//! therefore checks three layers:
//!
//! 1. **Bit-exactness across entry points** — `generate` and
//!    `generate_streamed` produce identical CSR matrices in both
//!    emission regimes.
//! 2. **Bit-exactness against an independent dense reference** — a
//!    from-scratch reimplementation of the planted model in the exact
//!    regime: materialized factor tables, full-catalog utilities, a full
//!    sort instead of the partial selection, and the pair-based builder
//!    instead of `RowStreamBuilder`. Any divergence in hashing, utility
//!    assembly, top-k selection, or CSR assembly shows up as a
//!    non-equal matrix.
//! 3. **Scale invariance of the planted structure** — the properties the
//!    generator exists to plant (Zipf popularity skew, log-normal
//!    activity dispersion, occupation-group consumption shift) must hold
//!    with comparable magnitudes when the catalog grows, because the
//!    whole point of the streamed path is running the *same* distribution
//!    at sizes where the dense reference is unaffordable.

use bns_data::occupation::OccupationItemCounts;
use bns_data::synthetic::{
    derive_occupations, generate, generate_streamed, pair_gumbel, popularity_logits, user_activity,
    EmissionMode, SyntheticConfig,
};
use bns_data::Interactions;

fn config(n_users: u32, n_items: u32, emission: EmissionMode) -> SyntheticConfig {
    SyntheticConfig {
        n_users,
        n_items,
        target_interactions: n_users as usize * 20,
        emission,
        seed: 4242,
        ..SyntheticConfig::default()
    }
}

#[test]
fn streamed_equals_in_ram_in_both_regimes() {
    for emission in [
        EmissionMode::Exact,
        EmissionMode::Pooled { oversample: 4 },
        EmissionMode::Auto,
    ] {
        let cfg = config(150, 320, emission);
        let in_ram = generate(&cfg).expect("in-RAM generation");
        let streamed = generate_streamed(&cfg).expect("streamed generation");
        assert_eq!(
            in_ram.interactions, streamed,
            "streamed CSR diverged from in-RAM CSR under {emission:?}"
        );
    }
}

/// The independent reference: full-catalog f64 utilities from the
/// materialized factor tables, full descending sort, pair-based builder.
/// Shares only the hash primitives (`pair_gumbel`, the factor tables, the
/// popularity ranks) with the production path — those ARE the definition
/// of the planted model.
fn dense_reference(cfg: &SyntheticConfig) -> Interactions {
    let ds = generate(cfg).expect("in-RAM generation");
    let pop = popularity_logits(cfg);
    let d = cfg.latent_dim;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for u in 0..cfg.n_users {
        let k = user_activity(cfg, u) as usize;
        let wu = &ds.user_factors[u as usize * d..(u as usize + 1) * d];
        let mut utils: Vec<(f64, u32)> = (0..cfg.n_items)
            .map(|i| {
                let hi = &ds.item_factors[i as usize * d..(i as usize + 1) * d];
                let dot: f32 = wu.iter().zip(hi).map(|(a, b)| a * b).sum();
                let util = cfg.latent_weight * dot as f64
                    + cfg.popularity_weight * pop[i as usize]
                    + pair_gumbel(cfg.seed, u, i);
                (util, i)
            })
            .collect();
        utils.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite utilities"));
        let mut row: Vec<u32> = utils[..k.min(utils.len())]
            .iter()
            .map(|&(_, i)| i)
            .collect();
        row.sort_unstable();
        pairs.extend(row.into_iter().map(|i| (u, i)));
    }
    Interactions::from_pairs(cfg.n_users, cfg.n_items, &pairs).expect("reference CSR")
}

#[test]
fn exact_regime_matches_the_independent_dense_reference_bit_exactly() {
    for (n_users, n_items, seed) in [(120, 260, 4242u64), (90, 500, 7)] {
        let cfg = SyntheticConfig {
            seed,
            ..config(n_users, n_items, EmissionMode::Exact)
        };
        let reference = dense_reference(&cfg);
        let streamed = generate_streamed(&cfg).expect("streamed generation");
        assert_eq!(
            reference, streamed,
            "streamed output diverged from the dense reference at {n_users}x{n_items}"
        );
    }
}

/// Least-squares slope of ln(count) over ln(rank) for the items that
/// received any interactions — the empirical Zipf exponent.
fn zipf_slope(x: &Interactions) -> f64 {
    let mut counts = x.item_counts();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let pts: Vec<(f64, f64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(r, &c)| (((r + 1) as f64).ln(), f64::from(c).ln()))
        .collect();
    let n = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let cov: f64 = pts.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = pts.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Standard deviation of ln(degree) over users — the planted log-normal
/// activity dispersion (≈ `activity_sigma` before clamping).
fn activity_dispersion(x: &Interactions) -> f64 {
    let logs: Vec<f64> = (0..x.n_users())
        .map(|u| (x.degree(u).max(1) as f64).ln())
        .collect();
    let n = logs.len() as f64;
    let mean = logs.iter().sum::<f64>() / n;
    (logs.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / n).sqrt()
}

/// Leave-one-out occupation consumption shift: for each interaction
/// `(u, i)`, how much of item `i`'s *other* consumption sits inside
/// `u`'s own group, beyond the group's population share. Positive iff
/// users systematically consume what their own group over-consumes; the
/// leave-one-out correction removes the mechanical self-counting bias
/// (a user's own interaction always sits in their own group).
fn occupation_shift(cfg: &SyntheticConfig, x: &Interactions) -> f64 {
    let occ = derive_occupations(cfg);
    let counts = OccupationItemCounts::build(x, &occ);
    let totals = x.item_counts();
    let mut group_users = vec![0usize; occ.n_groups() as usize];
    for u in 0..x.n_users() {
        group_users[occ.of(u) as usize] += 1;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for u in 0..x.n_users() {
        let g = occ.of(u);
        let share = group_users[g as usize] as f64 / x.n_users() as f64;
        for &i in x.items_of(u) {
            let others = f64::from(totals[i as usize]) - 1.0;
            if others <= 0.0 {
                continue;
            }
            let own_others = f64::from(counts.count(g, i)) - 1.0;
            total += (own_others - share * others) / others;
            n += 1;
        }
    }
    total / n as f64
}

#[test]
fn popularity_skew_is_scale_invariant() {
    let small = generate_streamed(&config(400, 800, EmissionMode::Auto)).unwrap();
    let large = generate_streamed(&config(1600, 3200, EmissionMode::Auto)).unwrap();
    let (s, l) = (zipf_slope(&small), zipf_slope(&large));
    assert!(
        s < -0.3,
        "small-scale popularity not Zipf-skewed: slope {s}"
    );
    assert!(
        l < -0.3,
        "large-scale popularity not Zipf-skewed: slope {l}"
    );
    assert!(
        (s - l).abs() < 0.4,
        "Zipf slope drifted across scales: small {s}, large {l}"
    );
}

#[test]
fn activity_dispersion_is_scale_invariant() {
    let small = generate_streamed(&config(400, 800, EmissionMode::Auto)).unwrap();
    let large = generate_streamed(&config(1600, 3200, EmissionMode::Auto)).unwrap();
    let (s, l) = (activity_dispersion(&small), activity_dispersion(&large));
    assert!(s > 0.2, "small-scale activity not dispersed: {s}");
    assert!(l > 0.2, "large-scale activity not dispersed: {l}");
    assert!(
        (s - l).abs() < 0.15,
        "activity dispersion drifted across scales: small {s}, large {l}"
    );
}

#[test]
fn occupation_shift_is_planted_and_scale_invariant() {
    let cfg_small = config(400, 800, EmissionMode::Auto);
    let cfg_large = config(1600, 3200, EmissionMode::Auto);
    let small = generate_streamed(&cfg_small).unwrap();
    let large = generate_streamed(&cfg_large).unwrap();
    let (s, l) = (
        occupation_shift(&cfg_small, &small),
        occupation_shift(&cfg_large, &large),
    );
    assert!(s > 0.01, "no occupation signal at small scale: shift {s}");
    assert!(l > 0.01, "no occupation signal at large scale: shift {l}");
    assert!(
        (s - l).abs() < 0.1,
        "occupation shift drifted across scales: small {s}, large {l}"
    );

    // Contrast: with the occupation blend off, the shift collapses.
    let cfg_off = SyntheticConfig {
        occupation_mix: 0.0,
        ..cfg_small.clone()
    };
    let off = generate_streamed(&cfg_off).unwrap();
    let baseline = occupation_shift(&cfg_off, &off);
    assert!(
        baseline < s / 2.0,
        "shift without occupation mixing ({baseline}) not clearly below planted ({s})"
    );
}

#[test]
fn pooled_regime_preserves_the_planted_structure_at_scale() {
    // The pooled (importance-corrected) emission is what actually runs at
    // million scale; its outputs must carry the same planted structure as
    // the exact regime, not just "some" structure.
    let cfg_exact = config(500, 1000, EmissionMode::Exact);
    let cfg_pooled = config(500, 1000, EmissionMode::Pooled { oversample: 4 });
    let exact = generate_streamed(&cfg_exact).unwrap();
    let pooled = generate_streamed(&cfg_pooled).unwrap();

    let (zs_e, zs_p) = (zipf_slope(&exact), zipf_slope(&pooled));
    assert!(
        (zs_e - zs_p).abs() < 0.5,
        "pooled Zipf slope {zs_p} far from exact {zs_e}"
    );
    let (ad_e, ad_p) = (activity_dispersion(&exact), activity_dispersion(&pooled));
    assert!(
        (ad_e - ad_p).abs() < 0.1,
        "pooled activity dispersion {ad_p} far from exact {ad_e}"
    );
    let (os_e, os_p) = (
        occupation_shift(&cfg_exact, &exact),
        occupation_shift(&cfg_pooled, &pooled),
    );
    assert!(
        os_p > os_e / 3.0,
        "pooled occupation shift {os_p} lost the planted signal (exact {os_e})"
    );
}

/// FNV-1a 64 of a CSR's `[n_users, n_items, offsets…, items…]` words and
/// of the two factor tables, each as little-endian bytes.
fn golden_digests(cfg: &SyntheticConfig) -> (usize, [u64; 3]) {
    use bns::serve::artifact::fnv1a64;
    let ds = generate(cfg).expect("in-RAM generation");
    let (n_users, n_items, offsets, items) = ds.interactions.csr_parts();
    let shape = [n_users, n_items];
    let csr: Vec<u8> = shape
        .iter()
        .chain(offsets)
        .chain(items)
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let table = |t: &[f32]| fnv1a64(&t.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
    let digests = [
        fnv1a64(&csr),
        table(&ds.item_factors),
        table(&ds.user_factors),
    ];
    (ds.interactions.len(), digests)
}

/// Pins the generated bits in both regimes, and the starved-pool fill, to
/// constants: a dataset that moves with the code, the build's ISA or the
/// optimizer fails here. The values are data; never regenerate them.
#[test]
fn generated_datasets_match_their_golden_digests() {
    let cases = [
        (
            SyntheticConfig {
                n_users: 400,
                n_items: 5000,
                target_interactions: 8000,
                seed: 4242,
                ..SyntheticConfig::default()
            },
            7846,
            [
                0x2E84_4A49_3156_5878,
                0xEDE9_82C4_BA4C_97A6,
                0x8DEF_082B_E76E_B29B,
            ],
        ),
        (
            SyntheticConfig {
                n_users: 60,
                n_items: 300,
                target_interactions: 3600,
                seed: 4242,
                emission: EmissionMode::Pooled { oversample: 4 },
                ..SyntheticConfig::default()
            },
            3323,
            [
                0x7E05_5551_BA85_8A31,
                0xFB83_AD7E_AE76_D6FE,
                0x302C_4DE3_7BE7_900F,
            ],
        ),
        (
            SyntheticConfig {
                n_users: 4,
                n_items: 400,
                target_interactions: 800,
                seed: 6,
                emission: EmissionMode::Pooled { oversample: 4 },
                ..SyntheticConfig::default()
            },
            1358,
            [
                0xC38E_3E1A_D103_ABAB,
                0x9D48_1A93_D60C_31E6,
                0x1189_DE91_840D_273B,
            ],
        ),
        (
            SyntheticConfig {
                n_users: 150,
                n_items: 320,
                target_interactions: 3000,
                seed: 4242,
                emission: EmissionMode::Exact,
                ..SyntheticConfig::default()
            },
            2868,
            [
                0xD7D9_E3E6_C731_06F0,
                0xF92A_5942_4993_8E90,
                0x3790_2D1E_7B7A_6798,
            ],
        ),
    ];
    for (cfg, len, digests) in cases {
        assert_eq!(
            golden_digests(&cfg),
            (len, digests),
            "{} x {} under {:?}",
            cfg.n_users,
            cfg.n_items,
            cfg.emission
        );
    }
}
