//! User occupation side-information.
//!
//! Table III's BNS-4 variant enhances the prior with occupation statistics:
//! `P_fn(l) = (popₗ/N) · (1 + Δoᵤₗ)` where `Δoᵤₗ = (oᵤₗ − ōₗ) / max oₗ`
//! measures how much `u`'s occupation group over- or under-consumes item
//! `l` relative to the average group. This module stores the labels and
//! computes the occupation×item count matrix from training data only.

use crate::interactions::Interactions;
use rand::Rng;

/// Occupation labels for every user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occupations {
    labels: Vec<u32>,
    n_groups: u32,
}

impl Occupations {
    /// Assigns each user a uniform-random group.
    pub fn random<R: Rng + ?Sized>(n_users: u32, n_groups: u32, rng: &mut R) -> Self {
        assert!(n_groups > 0, "need at least one occupation group");
        let labels = (0..n_users)
            .map(|_| rng.random_range(0..n_groups))
            .collect();
        Self { labels, n_groups }
    }

    /// Wraps explicit labels; every label must be `< n_groups`.
    pub fn from_labels(labels: Vec<u32>, n_groups: u32) -> Self {
        assert!(n_groups > 0, "need at least one occupation group");
        assert!(
            labels.iter().all(|&l| l < n_groups),
            "occupation label out of range"
        );
        Self { labels, n_groups }
    }

    /// Group of user `u`.
    pub fn of(&self, u: u32) -> u32 {
        self.labels[u as usize]
    }

    /// Number of groups.
    pub fn n_groups(&self) -> u32 {
        self.n_groups
    }

    /// Number of users.
    pub fn n_users(&self) -> u32 {
        self.labels.len() as u32
    }
}

/// Occupation×item interaction count matrix with the derived `Δoᵤₗ`
/// adjustment of the BNS-4 prior.
#[derive(Debug, Clone)]
pub struct OccupationItemCounts {
    n_groups: u32,
    n_items: u32,
    /// Row-major `n_groups × n_items` counts.
    counts: Vec<u32>,
    /// Per-item mean count over groups (`ōₗ`).
    mean_per_item: Vec<f64>,
    /// Per-item max count over groups (`max oₗ`), ≥ 1 to avoid div-by-zero.
    max_per_item: Vec<u32>,
}

impl OccupationItemCounts {
    /// Builds the count matrix from **training** interactions.
    pub fn build(train: &Interactions, occ: &Occupations) -> Self {
        assert_eq!(
            train.n_users(),
            occ.n_users(),
            "occupation labels must cover every user"
        );
        let n_groups = occ.n_groups();
        let n_items = train.n_items();
        let mut counts = vec![0u32; n_groups as usize * n_items as usize];
        for (u, i) in train.iter_pairs() {
            let g = occ.of(u) as usize;
            counts[g * n_items as usize + i as usize] += 1;
        }
        let mut mean_per_item = vec![0f64; n_items as usize];
        let mut max_per_item = vec![0u32; n_items as usize];
        for i in 0..n_items as usize {
            let mut sum = 0u64;
            let mut max = 0u32;
            for g in 0..n_groups as usize {
                let c = counts[g * n_items as usize + i];
                sum += c as u64;
                max = max.max(c);
            }
            mean_per_item[i] = sum as f64 / n_groups as f64;
            max_per_item[i] = max.max(1);
        }
        Self {
            n_groups,
            n_items,
            counts,
            mean_per_item,
            max_per_item,
        }
    }

    /// Count `oᵤₗ` for a group/item pair.
    pub fn count(&self, group: u32, item: u32) -> u32 {
        debug_assert!(group < self.n_groups && item < self.n_items);
        self.counts[group as usize * self.n_items as usize + item as usize]
    }

    /// The paper's adjustment `Δoᵤₗ = (oᵤₗ − ōₗ) / max oₗ` (§IV-C2, BNS-4).
    pub fn delta(&self, group: u32, item: u32) -> f64 {
        let o = self.count(group, item) as f64;
        let mean = self.mean_per_item[item as usize];
        let max = self.max_per_item[item as usize] as f64;
        (o - mean) / max
    }

    /// Number of occupation groups.
    pub fn n_groups(&self) -> u32 {
        self.n_groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_assignment_is_in_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let occ = Occupations::random(100, 7, &mut rng);
        assert_eq!(occ.n_users(), 100);
        assert_eq!(occ.n_groups(), 7);
        for u in 0..100 {
            assert!(occ.of(u) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn from_labels_validates() {
        Occupations::from_labels(vec![0, 5], 3);
    }

    #[test]
    fn counts_accumulate_by_group() {
        // Users 0,1 in group 0; user 2 in group 1.
        let occ = Occupations::from_labels(vec![0, 0, 1], 2);
        let train = Interactions::from_pairs(3, 2, &[(0, 0), (1, 0), (2, 0), (2, 1)]).unwrap();
        let c = OccupationItemCounts::build(&train, &occ);
        assert_eq!(c.count(0, 0), 2);
        assert_eq!(c.count(1, 0), 1);
        assert_eq!(c.count(0, 1), 0);
        assert_eq!(c.count(1, 1), 1);
    }

    #[test]
    fn delta_is_zero_when_groups_are_equal() {
        let occ = Occupations::from_labels(vec![0, 1], 2);
        let train = Interactions::from_pairs(2, 1, &[(0, 0), (1, 0)]).unwrap();
        let c = OccupationItemCounts::build(&train, &occ);
        assert!(c.delta(0, 0).abs() < 1e-12);
        assert!(c.delta(1, 0).abs() < 1e-12);
    }

    #[test]
    fn delta_sign_tracks_over_under_consumption() {
        // Group 0 consumes item 0 twice, group 1 never.
        let occ = Occupations::from_labels(vec![0, 0, 1], 2);
        let train = Interactions::from_pairs(3, 1, &[(0, 0), (1, 0)]).unwrap();
        let c = OccupationItemCounts::build(&train, &occ);
        // ō = 1, max = 2 → Δ(group 0) = (2−1)/2 = 0.5, Δ(group 1) = −0.5.
        assert!((c.delta(0, 0) - 0.5).abs() < 1e-12);
        assert!((c.delta(1, 0) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_handles_never_interacted_item() {
        let occ = Occupations::from_labels(vec![0, 1], 2);
        let train = Interactions::from_pairs(2, 2, &[(0, 0)]).unwrap();
        let c = OccupationItemCounts::build(&train, &occ);
        // Item 1 has no interactions anywhere: Δ must be finite (0).
        assert_eq!(c.delta(0, 1), 0.0);
        assert_eq!(c.delta(1, 1), 0.0);
    }
}
