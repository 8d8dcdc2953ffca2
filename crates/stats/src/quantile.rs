//! Summary statistics and ranks on slices.
//!
//! The stability experiment summarises repeated runs with [`mean`] and
//! [`std_dev`]; `bns-core`'s footnote 3 test ranks scores with
//! [`rank_from_top_f32`].

use crate::{Result, StatsError};

/// Mean of a slice; errors on empty input.
pub fn mean(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptySample);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population standard deviation of a slice; errors on empty input.
pub fn std_dev(data: &[f64]) -> Result<f64> {
    let m = mean(data)?;
    let var = data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64;
    Ok(var.sqrt())
}

/// 0-based rank of `x` within `scores` counted from the **top**: the number
/// of entries strictly greater than `x`. Rank 0 means `x` would be the
/// highest score: the rank position of the paper's footnote 3.
pub fn rank_from_top_f32(scores: &[f32], x: f32) -> usize {
    scores.iter().filter(|&&s| s > x).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data).unwrap() - 5.0).abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(std_dev(&[]).is_err());
    }

    #[test]
    fn rank_from_top_semantics() {
        let scores = [0.1f32, 0.9, 0.5, 0.7];
        assert_eq!(rank_from_top_f32(&scores, 1.0), 0);
        assert_eq!(rank_from_top_f32(&scores, 0.9), 0);
        assert_eq!(rank_from_top_f32(&scores, 0.6), 2);
        assert_eq!(rank_from_top_f32(&scores, 0.0), 4);
    }
}
