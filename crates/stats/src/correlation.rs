//! Rank correlation.
//!
//! `bns-core`'s footnote 3 test checks the paper's claim that "*Ranking
//! position and F(x̂ₗ) are with a one-to-one mapping*" as a Spearman
//! correlation of −1 between rank-from-top and ECDF value.

use crate::{Result, StatsError};

/// Pearson product-moment correlation of two equal-length samples.
fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter {
            what: "pearson: samples must have equal length",
        });
    }
    if x.len() < 2 {
        return Err(StatsError::EmptySample);
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let (da, db) = (a - mx, b - my);
        cov += da * db;
        vx += da * da;
        vy += db * db;
    }
    if vx == 0.0 || vy == 0.0 {
        return Err(StatsError::InvalidParameter {
            what: "pearson: a sample has zero variance",
        });
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

/// Mid-ranks (average ranks for ties), 1-based.
fn mid_ranks(x: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite values"));
    let mut ranks = vec![0.0; x.len()];
    let mut i = 0usize;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        // Average rank of the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation (Pearson on mid-ranks; tie-aware).
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter {
            what: "spearman: samples must have equal length",
        });
    }
    pearson(&mid_ranks(x), &mid_ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_bad_input() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err()); // zero variance
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // y = x³ is monotone: Spearman 1, Pearson < 1.
        let x: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties_with_midranks() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mid_ranks_average_tie_groups() {
        assert_eq!(
            mid_ranks(&[10.0, 20.0, 20.0, 5.0]),
            vec![2.0, 3.5, 3.5, 1.0]
        );
    }

    #[test]
    fn correlations_agree_in_sign() {
        let x = [0.3, 1.2, -0.5, 2.0, 0.9, -1.4];
        let y = [0.5, 1.0, -0.2, 1.8, 1.1, -0.9];
        let p = pearson(&x, &y).unwrap();
        let s = spearman(&x, &y).unwrap();
        assert!(p > 0.8 && s > 0.8);
    }
}
