//! Flat row-major embedding tables.
//!
//! Both models learn `d`-dimensional user and item representations
//! (`wᵤ`, `hᵢ` in the paper, d = 32 in §IV-B1). A single contiguous
//! `Vec<f32>` keeps rows cache-adjacent and avoids per-row allocations, per
//! the performance guide.

use crate::{ModelError, Result};
use bns_stats::dist::Normal;
use rand::Rng;

/// An `n × dim` table of `f32` embeddings.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    data: Vec<f32>,
    n: usize,
    dim: usize,
}

impl Embedding {
    /// All-zeros table.
    pub fn zeros(n: usize, dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(ModelError::InvalidConfig(
                "embedding dim must be > 0".into(),
            ));
        }
        Ok(Self {
            data: vec![0.0; n * dim],
            n,
            dim,
        })
    }

    /// Gaussian `N(0, std)` initialization — the conventional init for BPR
    /// models (std = 0.1 in the reference implementations).
    pub fn normal_init<R: Rng + ?Sized>(
        n: usize,
        dim: usize,
        std: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(ModelError::InvalidConfig(
                "embedding dim must be > 0".into(),
            ));
        }
        if std <= 0.0 || !std.is_finite() {
            return Err(ModelError::InvalidConfig(
                "init std must be finite and > 0".into(),
            ));
        }
        let dist = Normal::new(0.0, std).expect("validated std");
        // The batched fill draws what one `sample` per value would, bit for
        // bit and with the same RNG state after.
        let mut data = Vec::with_capacity(n * dim);
        let mut draws = [0.0f64; 256];
        while data.len() < n * dim {
            let draws = &mut draws[..(n * dim - data.len()).min(256)];
            dist.fill(rng, draws);
            data.extend(draws.iter().map(|&z| z as f32));
        }
        Ok(Self { data, n, dim })
    }

    /// Wraps an existing row-major buffer of `n · dim` values.
    pub fn from_vec(n: usize, dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 {
            return Err(ModelError::InvalidConfig(
                "embedding dim must be > 0".into(),
            ));
        }
        if data.len() != n * dim {
            return Err(ModelError::ShapeMismatch(format!(
                "buffer of {} values cannot hold {n} rows × {dim}",
                data.len()
            )));
        }
        Ok(Self { data, n, dim })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as an immutable slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.n, "row index out of range");
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.n, "row index out of range");
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Two distinct rows mutably at once (needed by the BPR update, which
    /// touches the positive and negative item rows together).
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert!(a != b, "two_rows_mut requires distinct rows");
        assert!(a < self.n && b < self.n, "row index out of range");
        let d = self.dim;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * d);
            (&mut lo[a * d..(a + 1) * d], &mut hi[..d])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * d);
            let (bs, as_) = (&mut lo[b * d..(b + 1) * d], &mut hi[..d]);
            (as_, bs)
        }
    }

    /// The full backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Squared L2 norm of the whole table (for regularization diagnostics).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let e = Embedding::zeros(3, 4).unwrap();
        assert_eq!(e.len(), 3);
        assert_eq!(e.dim(), 4);
        assert!(e.row(2).iter().all(|&x| x == 0.0));
        assert!(!e.is_empty());
        assert!(Embedding::zeros(0, 4).unwrap().is_empty());
    }

    #[test]
    fn rejects_zero_dim() {
        assert!(Embedding::zeros(3, 0).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Embedding::normal_init(3, 0, 0.1, &mut rng).is_err());
        assert!(Embedding::normal_init(3, 4, 0.0, &mut rng).is_err());
    }

    #[test]
    fn normal_init_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::normal_init(100, 64, 0.1, &mut rng).unwrap();
        let n = (100 * 64) as f64;
        let mean: f64 = e.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = e
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std = {}", var.sqrt());
    }

    #[test]
    fn row_mut_writes_through() {
        let mut e = Embedding::zeros(2, 3).unwrap();
        e.row_mut(1)[2] = 5.0;
        assert_eq!(e.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(e.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut e = Embedding::zeros(3, 2).unwrap();
        {
            let (a, b) = e.two_rows_mut(0, 2);
            a[0] = 1.0;
            b[1] = 2.0;
        }
        assert_eq!(e.row(0), &[1.0, 0.0]);
        assert_eq!(e.row(2), &[0.0, 2.0]);
        {
            let (a, b) = e.two_rows_mut(2, 0);
            assert_eq!(a[1], 2.0);
            assert_eq!(b[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_rejects_same_row() {
        let mut e = Embedding::zeros(2, 2).unwrap();
        let _ = e.two_rows_mut(1, 1);
    }

    #[test]
    fn dot_product() {
        // Rows of two different tables score through `kernel::dot`.
        let users = Embedding::from_vec(2, 3, vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0]).unwrap();
        let items = Embedding::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(crate::kernel::dot(users.row(1), items.row(0)), 32.0);
        assert_eq!(crate::kernel::dot(&[], &[]), 0.0);
    }
}
