//! The paper's three datasets as generator presets.
//!
//! Table I of the paper:
//!
//! | dataset        | users | items | train | test |
//! |----------------|-------|-------|-------|------|
//! | MovieLens-100K |   943 | 1,682 |   80k |  20k |
//! | MovieLens-1M   | 6,040 | 3,952 |  800k | 200k |
//! | Yahoo!-R3      | 5,400 | 1,000 |  146k |  36k |
//!
//! Each preset produces a [`SyntheticConfig`] matching those counts, with
//! the MovieLens presets keeping the 20-interaction minimum per user that
//! GroupLens enforces. [`Scale`] shrinks user/item counts linearly and the
//! interaction count quadratically, preserving matrix density so that
//! sampler dynamics (candidate-set hit rates, popularity skew) carry over.

use crate::synthetic::SyntheticConfig;

/// Size multiplier applied to a preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// Full paper-scale counts.
    Paper,
    /// Shrink users/items by this fraction (interactions by its square).
    /// `Fraction(1.0)` equals `Paper`.
    Fraction(f64),
}

impl Scale {
    /// The linear multiplier.
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Paper => 1.0,
            Scale::Fraction(f) => *f,
        }
    }

    /// A small default used by tests and quick harness runs.
    pub fn small() -> Self {
        Scale::Fraction(0.2)
    }
}

/// The paper's datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPreset {
    /// MovieLens-100K: 943 × 1,682, 100k interactions.
    Ml100k,
    /// MovieLens-1M: 6,040 × 3,952, 1M interactions.
    Ml1m,
    /// Yahoo!-R3: 5,400 × 1,000, 183k interactions (146k/36k split).
    YahooR3,
}

impl DatasetPreset {
    /// All presets in the paper's order.
    pub const ALL: [DatasetPreset; 3] = [
        DatasetPreset::Ml100k,
        DatasetPreset::Ml1m,
        DatasetPreset::YahooR3,
    ];

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::Ml100k => "MovieLens-100K",
            DatasetPreset::Ml1m => "MovieLens-1M",
            DatasetPreset::YahooR3 => "Yahoo!-R3",
        }
    }

    /// Paper-scale `(users, items, interactions)`.
    pub fn paper_counts(&self) -> (u32, u32, usize) {
        match self {
            DatasetPreset::Ml100k => (943, 1_682, 100_000),
            DatasetPreset::Ml1m => (6_040, 3_952, 1_000_209),
            DatasetPreset::YahooR3 => (5_400, 1_000, 182_954),
        }
    }

    /// Builds the generator config at the requested scale.
    pub fn config(&self, scale: Scale, seed: u64) -> SyntheticConfig {
        let f = scale.factor();
        let (users, items, inter) = self.paper_counts();
        let n_users = ((users as f64 * f).round() as u32).max(8);
        let n_items = ((items as f64 * f).round() as u32).max(16);
        let target = ((inter as f64 * f * f).round() as usize)
            .max(n_users as usize * 4)
            .min(n_users as usize * n_items as usize / 2);
        let (min_activity, activity_sigma) = match self {
            // GroupLens enforces ≥20 ratings/user; keep proportionally.
            DatasetPreset::Ml100k | DatasetPreset::Ml1m => {
                (((20.0 * f).round() as u32).max(3), 0.9)
            }
            // Yahoo!-R3's survey design gives flatter activity.
            DatasetPreset::YahooR3 => (((10.0 * f).round() as u32).max(3), 0.5),
        };
        SyntheticConfig {
            n_users,
            n_items,
            target_interactions: target,
            latent_dim: 8,
            popularity_exponent: match self {
                // Yahoo!-R3's music items have flatter popularity.
                DatasetPreset::YahooR3 => 0.7,
                _ => 1.0,
            },
            popularity_weight: 1.0,
            latent_weight: 4.0,
            activity_sigma,
            min_activity,
            n_occupations: 21,
            occupation_mix: 0.3,
            seed,
            emission: crate::synthetic::EmissionMode::Auto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::generate;

    #[test]
    fn paper_counts_match_table_one() {
        assert_eq!(DatasetPreset::Ml100k.paper_counts(), (943, 1_682, 100_000));
        assert_eq!(
            DatasetPreset::Ml1m.paper_counts(),
            (6_040, 3_952, 1_000_209)
        );
        assert_eq!(
            DatasetPreset::YahooR3.paper_counts(),
            (5_400, 1_000, 182_954)
        );
    }

    #[test]
    fn scale_factor() {
        assert_eq!(Scale::Paper.factor(), 1.0);
        assert_eq!(Scale::Fraction(0.25).factor(), 0.25);
    }

    #[test]
    fn scaled_config_preserves_density_roughly() {
        let full = DatasetPreset::Ml100k.config(Scale::Paper, 1);
        let small = DatasetPreset::Ml100k.config(Scale::Fraction(0.25), 1);
        let density = |c: &crate::synthetic::SyntheticConfig| {
            c.target_interactions as f64 / (c.n_users as f64 * c.n_items as f64)
        };
        let (df, ds) = (density(&full), density(&small));
        assert!(
            (df - ds).abs() / df < 0.25,
            "density drifted: full {df}, small {ds}"
        );
    }

    #[test]
    fn small_scale_generates_quickly_and_validly() {
        for preset in DatasetPreset::ALL {
            let cfg = preset.config(Scale::Fraction(0.1), 3);
            let ds = generate(&cfg).unwrap();
            assert_eq!(ds.interactions.n_users(), cfg.n_users);
            assert_eq!(ds.interactions.n_items(), cfg.n_items);
            assert!(!ds.interactions.is_empty(), "{} empty", preset.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DatasetPreset::Ml100k.name(), "MovieLens-100K");
        assert_eq!(DatasetPreset::Ml1m.name(), "MovieLens-1M");
        assert_eq!(DatasetPreset::YahooR3.name(), "Yahoo!-R3");
    }
}
