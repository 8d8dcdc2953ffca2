//! Two-sample Kolmogorov–Smirnov distance.
//!
//! The Fig. 1 experiment reports it between the recorded true-negative and
//! false-negative score populations at each watched epoch: the paper's
//! order relation predicts the distance grows with training.

/// Two-sample KS statistic `sup_x |F_a(x) − F_b(x)|`.
/// Both inputs must be sorted ascending; returns 0 if either is empty.
pub fn ks_statistic_two_sample(a_sorted: &[f64], b_sorted: &[f64]) -> f64 {
    if a_sorted.is_empty() || b_sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(a_sorted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b_sorted.windows(2).all(|w| w[0] <= w[1]));
    let (na, nb) = (a_sorted.len() as f64, b_sorted.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < a_sorted.len() && j < b_sorted.len() {
        // Step past every copy of the next value in either sample, so a tie
        // group moves both ECDFs before they are compared.
        let x = a_sorted[i].min(b_sorted[j]);
        while i < a_sorted.len() && a_sorted[i] <= x {
            i += 1;
        }
        while j < b_sorted.len() && b_sorted[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zero() {
        assert_eq!(ks_statistic_two_sample(&[], &[1.0]), 0.0);
    }

    #[test]
    fn two_sample_identical_is_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic_two_sample(&a, &a), 0.0);
    }

    #[test]
    fn two_sample_disjoint_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0];
        assert_eq!(ks_statistic_two_sample(&a, &b), 1.0);
    }

    #[test]
    fn two_sample_interleaved() {
        let a = [1.0, 3.0, 5.0];
        let b = [2.0, 4.0, 6.0];
        let d = ks_statistic_two_sample(&a, &b);
        assert!((d - 1.0 / 3.0).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn ties_move_both_samples_before_comparing() {
        // Both ECDFs are 0 below 1.0 and 1 from 1.0 on: the distance is 0.
        assert_eq!(ks_statistic_two_sample(&[1.0, 1.0], &[1.0]), 0.0);
        // F_b is 1/2 on [0, 1) and F_a is 0; at 1.0 both reach 1, so the
        // distance is 1/2, not the 3/4 a comparison inside the tie group sees.
        let d = ks_statistic_two_sample(&[1.0, 1.0, 1.0, 1.0], &[0.0, 1.0]);
        assert_eq!(d, 0.5);
    }
}
