//! Item popularity statistics.
//!
//! Three consumers:
//! * the PNS baseline samples items with probability `∝ r^0.75` where `r` is
//!   the interaction frequency (§IV-A2);
//! * the BNS prior `P_fn(l) = popₗ / N` (Eq. 17);
//! * Table I's dataset statistics (density, popularity skew).

use crate::interactions::Interactions;

/// Popularity exponent used by PNS, following word2vec and the paper.
pub const PNS_EXPONENT: f64 = 0.75;

/// Per-item interaction counts with cached derived quantities.
#[derive(Debug, Clone)]
pub struct Popularity {
    counts: Vec<u32>,
    total: u64,
}

impl Popularity {
    /// Counts interactions per item in `x`.
    pub fn from_interactions(x: &Interactions) -> Self {
        let counts = x.item_counts();
        let total = counts.iter().map(|&c| c as u64).sum();
        Self { counts, total }
    }

    /// Builds directly from counts (useful in tests).
    pub fn from_counts(counts: Vec<u32>) -> Self {
        let total = counts.iter().map(|&c| c as u64).sum();
        Self { counts, total }
    }

    /// Interaction count of item `i` (`popₗ`).
    pub fn count(&self, i: u32) -> u32 {
        self.counts[i as usize]
    }

    /// All counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total interactions (`N` of Eq. 17).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.counts.len()
    }

    /// PNS sampling weights `r^0.75` (unnormalized).
    pub fn pns_weights(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| (c as f64).powf(PNS_EXPONENT))
            .collect()
    }

    /// Gini coefficient of the popularity distribution — a skew summary
    /// reported in the Table I reproduction to show the synthetic datasets
    /// match the long-tailed shape of the real ones.
    pub fn gini(&self) -> f64 {
        if self.total == 0 || self.counts.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u64> = self.counts.iter().map(|&c| c as u64).collect();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let total = self.total as f64;
        // Gini = (2 Σ_i i·x_i) / (n Σ x) − (n + 1)/n with 1-based i on sorted data.
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(idx, &x)| (idx as f64 + 1.0) * x as f64)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let x = Interactions::from_pairs(2, 3, &[(0, 0), (0, 1), (1, 1)]).unwrap();
        let p = Popularity::from_interactions(&x);
        assert_eq!(p.count(0), 1);
        assert_eq!(p.count(1), 2);
        assert_eq!(p.count(2), 0);
        assert_eq!(p.total(), 3);
        assert_eq!(p.n_items(), 3);
    }

    #[test]
    fn pns_weights_use_three_quarters_power() {
        let p = Popularity::from_counts(vec![16, 1, 0]);
        let w = p.pns_weights();
        assert!((w[0] - 8.0).abs() < 1e-12); // 16^0.75 = 8
        assert!((w[1] - 1.0).abs() < 1e-12);
        assert_eq!(w[2], 0.0);
    }

    #[test]
    fn gini_extremes() {
        // Perfect equality → 0.
        let eq = Popularity::from_counts(vec![5, 5, 5, 5]);
        assert!(eq.gini().abs() < 1e-12);
        // Full concentration → (n−1)/n.
        let conc = Popularity::from_counts(vec![0, 0, 0, 100]);
        assert!((conc.gini() - 0.75).abs() < 1e-12);
        // Empty → 0.
        assert_eq!(Popularity::from_counts(vec![]).gini(), 0.0);
    }
}
