//! Streaming moments (Welford's online algorithm).
//!
//! The SRNS baseline scores candidates repeatedly across epochs and prefers
//! negatives whose predicted score shows **high variance**; [`Welford`]
//! provides the numerically stable running mean/variance it needs without
//! storing score histories.

/// Numerically stable streaming mean and variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
}

impl Welford {
    /// A fresh accumulator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n); 0 with fewer than 2 observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n − 1); 0 with fewer than 2 observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(data: &[f64]) -> (f64, f64) {
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_reference() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let (mean, var) = reference(&data);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        // Known: mean 5, population variance 4.
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_uses_n_minus_one() {
        let mut w = Welford::new();
        for &x in &[1.0, 3.0] {
            w.push(x);
        }
        assert!((w.variance() - 1.0).abs() < 1e-12);
        assert!((w.sample_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.5];
        let b_data = [10.0, -4.0, 0.5, 2.0];
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut seq = Welford::new();
        for &x in &a_data {
            a.push(x);
            seq.push(x);
        }
        for &x in &b_data {
            b.push(x);
            seq.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation scenario for naive formulas.
        let offset = 1e9;
        let mut w = Welford::new();
        for &x in &[offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            w.push(x);
        }
        assert!((w.sample_variance() - 30.0).abs() < 1e-6);
    }
}
