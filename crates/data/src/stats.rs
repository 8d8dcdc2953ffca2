//! Dataset statistics — the Table I reproduction.

use crate::dataset::Dataset;

/// Summary statistics of a train/test dataset (Table I plus density and
/// popularity-skew diagnostics that validate the synthetic stand-ins).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset display name.
    pub name: String,
    /// Users in the id space.
    pub users: u32,
    /// Items in the id space.
    pub items: u32,
    /// Training interactions.
    pub train_size: usize,
    /// Test interactions.
    pub test_size: usize,
    /// `train / (users × items)`.
    pub density: f64,
    /// Mean training interactions per user.
    pub mean_user_degree: f64,
    /// Gini coefficient of item popularity (0 = uniform, →1 = concentrated).
    pub popularity_gini: f64,
}

impl DatasetStats {
    /// Computes the statistics of `d`.
    pub fn of(d: &Dataset) -> Self {
        let users = d.n_users();
        let items = d.n_items();
        let train_size = d.train().len();
        let test_size = d.test().len();
        let active_users = d.train().active_users().len().max(1);
        Self {
            name: d.name.clone(),
            users,
            items,
            train_size,
            test_size,
            density: train_size as f64 / (users as f64 * items as f64),
            mean_user_degree: train_size as f64 / active_users as f64,
            popularity_gini: d.popularity().gini(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interactions::Interactions;

    #[test]
    fn computes_basic_counts() {
        let train = Interactions::from_pairs(2, 4, &[(0, 0), (0, 1), (1, 2)]).unwrap();
        let test = Interactions::from_pairs(2, 4, &[(0, 2)]).unwrap();
        let d = Dataset::new("t", train, test).unwrap();
        let s = DatasetStats::of(&d);
        assert_eq!(s.users, 2);
        assert_eq!(s.items, 4);
        assert_eq!(s.train_size, 3);
        assert_eq!(s.test_size, 1);
        assert!((s.density - 3.0 / 8.0).abs() < 1e-12);
        assert!((s.mean_user_degree - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gini_reflects_skew() {
        // All mass on one item → high gini.
        let train = Interactions::from_pairs(3, 3, &[(0, 0), (1, 0), (2, 0)]).unwrap();
        let test = Interactions::from_pairs(3, 3, &[(0, 1)]).unwrap();
        let d = Dataset::new("skewed", train, test).unwrap();
        let s = DatasetStats::of(&d);
        assert!(s.popularity_gini > 0.5, "gini = {}", s.popularity_gini);
    }
}
