//! Coded rows: a compact i16 copy of a set of embedding rows with a
//! rigorous per-row error bound, scored by [`kernel::coded_block_counts`].
//!
//! Row `h` (dimension d) is stored as i16 codes `c = round(h / s)` with
//! the per-row scale `s = max|hₖ| / 32767`, so `ĥ = s·c`, and a bound
//!
//! ```text
//! B ≥ ‖h − ĥ‖₂ + γ(‖h‖₂ + ‖ĥ‖₂),   γ = γ_{d+2} = (d+2)·2⁻²⁴ / (1 − (d+2)·2⁻²⁴),
//! ```
//!
//! computed in `f64` and rounded up to `f32`. With it, the approximate
//! score `a = s·Σₖ uₖcₖ` is within `‖u‖₂·B` (plus an underflow term) of
//! the exact kernel's `dot(u, h)`, in any summation order, with or without
//! FMA, so a threshold test `dot(u, h) ≤ t` is decided exactly whenever
//! `a` is far enough from `t` (the derivation is on the kernel). A row
//! with a non-finite entry gets `B = +∞` and is never decided from its
//! codes.
//!
//! Rows are kept in blocks of [`BLOCK_ROWS`] (8), dimension-major, so one
//! 8-lane FMA scores one dimension of a block; the last block is padded
//! with zero rows that are never counted. At d = 32 a row costs 64 B of
//! codes plus its scale and bound: 72 B, against 128 B for the `f32` row.
//!
//! **Why i16.** On a planted-popularity MF model (the train-bns workload)
//! the i16 codes leave 0.39% of rows ambiguous in the Eq. 16 pass; i8
//! codes with a per-row scale leave 59.65% (the popularity column
//! dominates each row's scale) and i8 with per-column scales 15.92%.

use crate::kernel::{self, CodedBlock, BLOCK_ROWS};

/// Largest code magnitude: codes span `[-32767, 32767]`.
const CODE_MAX: f64 = 32767.0;

/// A set of rows in the coded form of the module doc, addressed by their
/// position `0..len()`.
///
/// Equality compares codes, scales and bounds exactly: scales and bounds
/// are never NaN or `-0.0`, so `==` on them is bit equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodedRows {
    dim: usize,
    len: usize,
    /// `blocks × dim × 8` codes; block `b` holds rows `8b .. 8b + 8`, and
    /// `codes[(b·dim + k)·8 + l]` is dimension `k` of row `8b + l`.
    codes: Vec<i16>,
    /// `blocks × 8` per-row scales.
    scales: Vec<f32>,
    /// `blocks × 8` per-row error bounds.
    bounds: Vec<f32>,
}

impl CodedRows {
    /// An empty set of rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-codes the whole set from `rows` (each of length `dim`), reusing
    /// the buffers: allocation-free once they hold as many rows.
    pub fn rebuild<'a>(&mut self, dim: usize, rows: impl ExactSizeIterator<Item = &'a [f32]>) {
        let len = rows.len();
        let padded = len.div_ceil(BLOCK_ROWS) * BLOCK_ROWS;
        self.dim = dim;
        self.len = len;
        self.codes.clear();
        self.codes.resize(padded * dim, 0);
        self.scales.clear();
        self.scales.resize(padded, 0.0);
        self.bounds.clear();
        self.bounds.resize(padded, 0.0);
        for (r, row) in rows.enumerate() {
            self.set(r, row);
        }
    }

    /// Re-codes row `r` from `row`.
    pub fn set(&mut self, r: usize, row: &[f32]) {
        assert!(self.dim > 0, "coded rows need a positive dimension");
        assert!(r < self.len, "coded row {r} out of range");
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        let (block, lane) = (r / BLOCK_ROWS, r % BLOCK_ROWS);
        let base = block * self.dim * BLOCK_ROWS + lane;
        let codes = &mut self.codes[base..];
        let d = row.len();
        if !row.iter().all(|x| x.is_finite()) {
            for k in 0..d {
                codes[k * BLOCK_ROWS] = 0;
            }
            self.scales[r] = 0.0;
            self.bounds[r] = f32::INFINITY;
            return;
        }
        let max = row.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        // Any positive scale gives a valid bound (it is measured on the
        // codes actually stored); keep it positive when `max / 32767`
        // underflows to zero.
        let s = if max == 0.0 {
            0.0
        } else {
            (max / CODE_MAX as f32).max(f32::from_bits(1))
        };
        let inv = if s == 0.0 { 0.0 } else { 1.0 / f64::from(s) };
        let (mut err, mut norm_h, mut norm_q) = (0.0f64, 0.0f64, 0.0f64);
        for (k, &h) in row.iter().enumerate() {
            let c = (f64::from(h) * inv)
                .round_ties_even()
                .clamp(-CODE_MAX, CODE_MAX);
            codes[k * BLOCK_ROWS] = c as i16;
            // `s·c` is exact in f64 (24 + 15 significant bits).
            let q = f64::from(s) * c;
            err += (f64::from(h) - q) * (f64::from(h) - q);
            norm_h += f64::from(h) * f64::from(h);
            norm_q += q * q;
        }
        let unit = (d as f64 + 2.0) / (1u64 << 24) as f64;
        let gamma = unit / (1.0 - unit);
        // Covers the f64 roundings of the sums, square roots and products.
        let f64_error = 1.0 + 4.0 * (d as f64 + 8.0) * f64::EPSILON;
        let bound = (err.sqrt() + gamma * (norm_h.sqrt() + norm_q.sqrt())) * f64_error;
        self.scales[r] = s;
        self.bounds[r] = kernel::round_up_f32(bound);
    }

    /// Counts, for each of `thresholds`, the rows `r` with
    /// `dot(user, h_r) ≤ t` that [`kernel::coded_block_counts`] decides
    /// from the codes, into `counts` (which it adds to). Rows listed in
    /// `skip` (ascending positions) are left out; every other row the
    /// kernel cannot decide is passed to `ambiguous`, in ascending order,
    /// for the caller to score exactly. Returns the number of rows not
    /// skipped.
    pub fn count_le(
        &self,
        user: &[f32],
        thresholds: &[f32],
        skip: impl IntoIterator<Item = usize>,
        counts: &mut [u32],
        mut ambiguous: impl FnMut(usize),
    ) -> usize {
        assert_eq!(user.len(), self.dim, "user dimension mismatch");
        assert_eq!(thresholds.len(), counts.len(), "one count per threshold");
        let norm = kernel::norm_bound(user);
        let block_len = self.dim * BLOCK_ROWS;
        let mut skip = skip.into_iter().peekable();
        let mut skipped = 0usize;
        let blocks = self
            .codes
            .chunks_exact(block_len.max(1))
            .zip(self.scales.as_chunks::<BLOCK_ROWS>().0)
            .zip(self.bounds.as_chunks::<BLOCK_ROWS>().0);
        for (b, ((codes, scales), bounds)) in blocks.enumerate() {
            let first = b * BLOCK_ROWS;
            let end = (first + BLOCK_ROWS).min(self.len);
            let mut live = u8::MAX >> (BLOCK_ROWS - (end - first));
            while let Some(&r) = skip.peek() {
                if r >= end {
                    break;
                }
                if r >= first && live & (1 << (r - first)) != 0 {
                    live &= !(1 << (r - first));
                    skipped += 1;
                }
                skip.next();
            }
            let block = CodedBlock {
                codes,
                scales,
                bounds,
            };
            let mut open = kernel::coded_block_counts(user, norm, block, thresholds, live, counts);
            while open != 0 {
                ambiguous(first + open.trailing_zeros() as usize);
                open &= open - 1;
            }
        }
        self.len - skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-mantissa values in [-1, 1).
    fn rough(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// Exact reference counts through `kernel::dot`, skipping `skip`.
    fn exact(rows: &[Vec<f32>], user: &[f32], ts: &[f32], skip: &[usize]) -> Vec<u32> {
        ts.iter()
            .map(|&t| {
                rows.iter()
                    .enumerate()
                    .filter(|(r, h)| !skip.contains(r) && kernel::dot(user, h) <= t)
                    .count() as u32
            })
            .collect()
    }

    /// Coded counts with the ambiguous rows scored exactly.
    fn coded(rows: &[Vec<f32>], user: &[f32], ts: &[f32], skip: &[usize]) -> (Vec<u32>, usize) {
        let mut set = CodedRows::new();
        set.rebuild(user.len(), rows.iter().map(Vec::as_slice));
        let mut counts = vec![0u32; ts.len()];
        let mut open = Vec::new();
        let live = set.count_le(user, ts, skip.iter().copied(), &mut counts, |r| {
            open.push(r)
        });
        assert_eq!(live, rows.len() - skip.len());
        for &r in &open {
            assert!(!skip.contains(&r), "skipped row {r} handed back");
            let x = kernel::dot(user, &rows[r]);
            for (c, &t) in counts.iter_mut().zip(ts) {
                *c += u32::from(x <= t);
            }
        }
        (counts, open.len())
    }

    #[test]
    fn counts_equal_exact_counts_on_adversarial_rows() {
        for d in [1usize, 3, 8, 13, 32] {
            let user = rough(d, 1);
            let mut rows: Vec<Vec<f32>> = (0..37).map(|r| rough(d, 100 + r)).collect();
            rows.push(vec![0.0; d]);
            rows.push(vec![0.25; d]);
            let mut dominant = vec![1e-3; d];
            dominant[0] = 1e6;
            rows.push(dominant);
            rows.push(rough(d, 7).iter().map(|x| x * 1e30).collect());
            rows.push(rough(d, 8).iter().map(|x| x * 1e-38).collect());
            let mut bad = rough(d, 9);
            bad[d / 2] = f32::NAN;
            rows.push(bad);
            let mut inf = rough(d, 10);
            inf[0] = f32::INFINITY;
            rows.push(inf);
            // Thresholds at row scores, one ulp either side, and beyond.
            let mut ts = Vec::new();
            for h in rows.iter().step_by(5) {
                let x = kernel::dot(&user, h);
                ts.extend([x, x.next_up(), x.next_down()]);
            }
            ts.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0]);
            let skip = [2usize, 3, 40];
            let (got, open) = coded(&rows, &user, &ts, &skip);
            assert_eq!(got, exact(&rows, &user, &ts, &skip), "d = {d}");
            assert!(open < rows.len(), "d = {d}: every row ambiguous");
        }
    }

    #[test]
    fn a_non_finite_user_leaves_every_row_ambiguous() {
        let d = 8;
        let rows: Vec<Vec<f32>> = (0..20).map(|r| rough(d, r)).collect();
        for bad in [f32::NAN, f32::INFINITY, 3e38] {
            let mut user = rough(d, 50);
            user[3] = bad;
            let ts = [0.0f32, 1.0, -1.0];
            let (got, open) = coded(&rows, &user, &ts, &[]);
            assert_eq!(got, exact(&rows, &user, &ts, &[]));
            if !bad.is_finite() {
                assert_eq!(open, rows.len());
            }
        }
    }

    #[test]
    fn bound_covers_the_coding_error() {
        let d = 32;
        for seed in 0..50 {
            let h: Vec<f32> = rough(d, seed).iter().map(|x| x * 3.0).collect();
            let mut set = CodedRows::new();
            set.rebuild(d, std::iter::once(h.as_slice()));
            let s = f64::from(set.scales[0]);
            let err: f64 = (0..d)
                .map(|k| f64::from(h[k]) - s * f64::from(set.codes[k * BLOCK_ROWS]))
                .map(|e| e * e)
                .sum::<f64>()
                .sqrt();
            assert!(f64::from(set.bounds[0]) >= err);
            // i16 codes: the error is tiny against the row.
            assert!(err <= 1e-4 * 3.0 * (d as f64).sqrt(), "err {err}");
        }
    }

    #[test]
    fn set_matches_a_rebuild() {
        let d = 5;
        let rows: Vec<Vec<f32>> = (0..11).map(|r| rough(d, r)).collect();
        let mut set = CodedRows::new();
        set.rebuild(d, rows.iter().map(Vec::as_slice));
        let changed = rough(d, 99);
        set.set(9, &changed);
        let mut rows2 = rows.clone();
        rows2[9] = changed;
        let mut fresh = CodedRows::new();
        fresh.rebuild(d, rows2.iter().map(Vec::as_slice));
        assert_eq!(set, fresh);
    }
}
