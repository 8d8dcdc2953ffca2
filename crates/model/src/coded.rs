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
//!
//! **The i8 serving codes.** Serving asks a different question:
//! not "is this row below each of five thresholds" for every row, but
//! "could this row reach the current k-th best score", which nearly every
//! row of a 100k catalog misses by far more than an i8 code's error. So
//! [`I8Rows`] keeps i8 codes `round(h / s)`, `s = max|hₖ| / 127`, with
//! two per-row bound terms (at d = 32 a row is 44 B against 128 B), and
//! [`I8User`] codes the user in i16. [`kernel::i8_block_open`] multiplies
//! the two with integer multiply-adds (`_mm256_madd_epi16`), which sum
//! exactly in `i32` and need no int→float conversion per code: those
//! conversions bound [`kernel::coded_block_counts`], which would read
//! fewer bytes than the `f32` GEMV but run no faster. On the serving
//! benchmark's model (100k clustered items, d = 32, k = 10) a median of
//! ~118 rows per query survive the bound and are scored exactly when the
//! rows are scanned in id order, ~166 in the IVF index's cluster order,
//! and ~85 of the ~12k rows of 64 probed clusters. [`I8Rows::scan`] takes
//! a row range, so both serving modes scan one code table.

use crate::kernel::{self, CodedBlock, I8Block, I8Query, BLOCK_ROWS};
use std::ops::Range;

/// Largest code magnitude: codes span `[-32767, 32767]`.
const CODE_MAX: f64 = 32767.0;

/// Largest i8 row code magnitude: codes span `[-127, 127]`.
const I8_MAX: f64 = 127.0;

/// `γₙ = n·2⁻²⁴ / (1 − n·2⁻²⁴)`, the relative error bound of `n` `f32`
/// roundings.
fn gamma(n: f64) -> f64 {
    let unit = n / (1u64 << 24) as f64;
    unit / (1.0 - unit)
}

/// Inflation past the `f64` roundings of a length-`d` sum of squares, its
/// square root and a few products.
fn f64_error(d: usize) -> f64 {
    1.0 + 4.0 * (d as f64 + 8.0) * f64::EPSILON
}

/// Codes the finite `row` as `c = round(h / s)` with `s = max|hₖ| /
/// code_max` (zero for a zero row or `code_max = 0`), passing each code
/// to `store(k, c)`, and returns `s` with `‖h − ĥ‖₂`, `‖h‖₂` and
/// `‖ĥ‖₂` for `ĥ = s·c`, summed in `f64`.
fn code_row(row: &[f32], code_max: f64, mut store: impl FnMut(usize, f64)) -> (f32, f64, f64, f64) {
    let max = row.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    // Any positive scale gives a valid bound (it is measured on the codes
    // actually stored); keep it positive when `max / code_max` underflows
    // to zero.
    let s = if max == 0.0 || code_max == 0.0 {
        0.0
    } else {
        (max / code_max as f32).max(f32::from_bits(1))
    };
    let inv = if s == 0.0 { 0.0 } else { 1.0 / f64::from(s) };
    let (mut err, mut norm_h, mut norm_q) = (0.0f64, 0.0f64, 0.0f64);
    for (k, &h) in row.iter().enumerate() {
        let c = (f64::from(h) * inv)
            .round_ties_even()
            .clamp(-code_max, code_max);
        store(k, c);
        // `s·c` is exact in f64 (24 + 15 significant bits).
        let q = f64::from(s) * c;
        err += (f64::from(h) - q) * (f64::from(h) - q);
        norm_h += f64::from(h) * f64::from(h);
        norm_q += q * q;
    }
    (s, err.sqrt(), norm_h.sqrt(), norm_q.sqrt())
}

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
        let (s, err, norm_h, norm_q) =
            code_row(row, CODE_MAX, |k, c| codes[k * BLOCK_ROWS] = c as i16);
        let bound = (err + gamma(d as f64 + 2.0) * (norm_h + norm_q)) * f64_error(d);
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

/// The i8 serving codes of a row-major item table (see the module doc):
/// per row, i8 codes `c` with a scale `s` (`ĥ = s·c`) and the bound terms
/// `B ≥ ‖h − ĥ‖₂ + γ_{d+2}·‖h‖₂ + γ₃·‖ĥ‖₂` and `N ≥ (1 + γ₃)·‖ĥ‖₂`,
/// computed in `f64` and rounded up. A row with a non-finite entry gets
/// `B = +∞`, so [`I8Rows::scan`] always visits it.
///
/// Rows sit in blocks of [`BLOCK_ROWS`] with dimension pairs interleaved
/// (the layout of [`I8Block`]); the last block is padded with zero rows
/// that are never visited.
#[derive(Debug, Clone)]
pub struct I8Rows {
    dim: usize,
    len: usize,
    /// `blocks × ⌈dim/2⌉ × 16` codes.
    codes: Vec<i8>,
    /// `blocks × 8` per-row scales `s`.
    scales: Vec<f32>,
    /// `blocks × 8` per-row bounds `B`.
    bounds: Vec<f32>,
    /// `blocks × 8` per-row norms `N`.
    norms: Vec<f32>,
}

impl I8Rows {
    /// Codes the `table.len() / dim` rows of the row-major `table`.
    pub fn from_table(table: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "coded rows need a positive dimension");
        assert_eq!(table.len() % dim, 0, "table is not a whole number of rows");
        let len = table.len() / dim;
        let padded = len.div_ceil(BLOCK_ROWS) * BLOCK_ROWS;
        let pairs = dim.div_ceil(2);
        let mut rows = Self {
            dim,
            len,
            codes: vec![0; padded * pairs * 2],
            scales: vec![0.0; padded],
            bounds: vec![0.0; padded],
            norms: vec![0.0; padded],
        };
        for (r, row) in table.chunks_exact(dim).enumerate() {
            rows.set(r, row);
        }
        rows
    }

    /// Codes row `r` from `row`.
    fn set(&mut self, r: usize, row: &[f32]) {
        let (block, lane) = (r / BLOCK_ROWS, r % BLOCK_ROWS);
        let base = block * self.dim.div_ceil(2) * 2 * BLOCK_ROWS + 2 * lane;
        let at = |k: usize| base + (k / 2) * 2 * BLOCK_ROWS + k % 2;
        let d = row.len();
        if !row.iter().all(|x| x.is_finite()) {
            // Codes, scale and norm stay zero; the bound keeps the row.
            self.bounds[r] = f32::INFINITY;
            return;
        }
        let codes = &mut self.codes;
        let (s, err, norm_h, norm_q) = code_row(row, I8_MAX, |k, c| codes[at(k)] = c as i8);
        let f64_error = f64_error(d);
        let (g_d, g_3) = (gamma(d as f64 + 2.0), gamma(3.0));
        let bound = (err + g_d * norm_h + g_3 * norm_q) * f64_error;
        self.scales[r] = s;
        self.bounds[r] = kernel::round_up_f32(bound);
        self.norms[r] = kernel::round_up_f32((1.0 + g_3) * norm_q * f64_error);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visits, in ascending order, every row of `rows` whose exact score
    /// `kernel::dot(user, h)` could reach the running floor, which starts
    /// at `floor`: `visit(r)` scores row `r` (or passes it over) and
    /// returns the new floor, the score a row must reach to matter (`−∞`
    /// while every row does). A row is passed over unvisited only when
    /// [`kernel::i8_block_open`] proves its score strictly below the floor
    /// in force at its block. Returns the floor after the last visit, so
    /// consecutive ranges chain into one scan.
    pub fn scan(
        &self,
        user: &I8User,
        rows: Range<usize>,
        mut floor: f32,
        mut visit: impl FnMut(usize) -> f32,
    ) -> f32 {
        assert_eq!(user.dim, self.dim, "user dimension mismatch");
        assert!(
            rows.start <= rows.end && rows.end <= self.len,
            "rows {rows:?} out of 0..{}",
            self.len
        );
        let query = I8Query {
            pairs: &user.pairs,
            scale: user.scale,
            norm: user.norm,
            err: user.err,
        };
        let block_len = self.dim.div_ceil(2) * 2 * BLOCK_ROWS;
        let first_block = rows.start / BLOCK_ROWS;
        let blocks = first_block..rows.end.div_ceil(BLOCK_ROWS);
        let lanes = blocks.start * BLOCK_ROWS..blocks.end * BLOCK_ROWS;
        let blocks = self.codes[blocks.start * block_len..blocks.end * block_len]
            .chunks_exact(block_len)
            .zip(self.scales[lanes.clone()].as_chunks::<BLOCK_ROWS>().0)
            .zip(self.bounds[lanes.clone()].as_chunks::<BLOCK_ROWS>().0)
            .zip(self.norms[lanes].as_chunks::<BLOCK_ROWS>().0);
        // Lanes outside `rows` in the first and last block stay shut.
        let mut head = u8::MAX << (rows.start % BLOCK_ROWS);
        for (b, (((codes, scales), bounds), norms)) in blocks.enumerate() {
            let first = (first_block + b) * BLOCK_ROWS;
            let live = head & (u8::MAX >> (BLOCK_ROWS - (rows.end - first).min(BLOCK_ROWS)));
            head = u8::MAX;
            let block = I8Block {
                codes,
                scales,
                bounds,
                norms,
            };
            let open = kernel::i8_block_open(query, block, floor, live);
            if open != 0 {
                floor = visit_rows(first, open, &mut visit);
            }
        }
        floor
    }
}

/// Visits the rows of `open` (a lane mask over the block at `first`) in
/// ascending order and returns the floor after the last. Out of line:
/// kept apart, the visitor leaves the scan's block loop as tight as it
/// is without one.
#[inline(never)]
fn visit_rows(first: usize, mut open: u8, visit: &mut impl FnMut(usize) -> f32) -> f32 {
    let mut floor = f32::NEG_INFINITY;
    while open != 0 {
        floor = visit(first + open.trailing_zeros() as usize);
        open &= open - 1;
    }
    floor
}

/// The user side of [`I8Rows::scan`]: i16 codes `q = round(u / t)`,
/// `t = max|uₖ| / kernel::user_code_max(d)`, and the norms the bound
/// needs. Reusable: [`I8User::set`] is allocation-free once the buffer
/// holds a row of the dimension.
#[derive(Debug, Clone, Default)]
pub struct I8User {
    dim: usize,
    pairs: Vec<i32>,
    scale: f32,
    norm: f32,
    err: f32,
}

impl I8User {
    /// An empty user (set it before a scan).
    pub fn new() -> Self {
        Self::default()
    }

    /// Codes `user`. A non-finite user gets zero codes and an infinite
    /// error, so a scan visits every row.
    pub fn set(&mut self, user: &[f32]) {
        let d = user.len();
        self.dim = d;
        self.pairs.clear();
        self.pairs.resize(d.div_ceil(2), 0);
        self.norm = kernel::norm_bound(user);
        if !user.iter().all(|x| x.is_finite()) {
            (self.scale, self.err) = (0.0, f32::INFINITY);
            return;
        }
        let q_max = f64::from(kernel::user_code_max(d));
        let pairs = &mut self.pairs;
        let (t, err, _, _) = code_row(user, q_max, |k, c| {
            pairs[k / 2] |= (u32::from(c as i16 as u16) << (16 * (k % 2))) as i32;
        });
        self.scale = t;
        let grow = 1.0 + 8.0 / (1u64 << 24) as f64;
        self.err = kernel::round_up_f32(err * grow * f64_error(d));
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

    /// Rows the i8 codes hold exactly (`s = 2⁻⁷`, codes over the whole
    /// range), so only the user's coding error and the roundings separate
    /// the kernel's estimate from the exact score.
    fn exactly_coded(d: usize, seed: u64) -> Vec<f32> {
        let mut row: Vec<f32> = rough(d, seed)
            .iter()
            .map(|x| (x * 127.0).round() / 128.0)
            .collect();
        row[0] = 127.0 / 128.0;
        row
    }

    /// The rows of `table` a scan visits when the floor is held at
    /// `floor` after the first visit (the first block always opens at
    /// `−∞`).
    fn visited(rows: &I8Rows, user: &[f32], floor: f32) -> Vec<usize> {
        let mut coded = I8User::new();
        coded.set(user);
        let mut seen = Vec::new();
        rows.scan(&coded, 0..rows.len(), f32::NEG_INFINITY, |r| {
            seen.push(r);
            floor
        });
        seen
    }

    #[test]
    fn a_range_scan_visits_only_its_rows_and_chains_the_floor() {
        let d = 5;
        let table: Vec<f32> = (0..29).flat_map(|r| rough(d, 700 + r)).collect();
        let set = I8Rows::from_table(&table, d);
        let mut coded = I8User::new();
        coded.set(&rough(d, 3));
        for lo in 0..=set.len() {
            for hi in lo..=set.len() {
                let mut seen = Vec::new();
                let floor = set.scan(&coded, lo..hi, f32::NEG_INFINITY, |r| {
                    seen.push(r);
                    r as f32 - 1e6
                });
                assert_eq!(seen, (lo..hi).collect::<Vec<_>>(), "rows {lo}..{hi}");
                let last = if hi > lo {
                    (hi - 1) as f32 - 1e6
                } else {
                    f32::NEG_INFINITY
                };
                assert_eq!(floor, last, "rows {lo}..{hi}");
                // A floor no row reaches passes every row over and comes
                // back unchanged.
                let untouched = set.scan(&coded, lo..hi, 1e30, |r| panic!("row {r} visited"));
                assert_eq!(untouched, 1e30);
            }
        }
    }

    #[test]
    fn a_scan_visits_every_row_that_reaches_the_floor() {
        for d in [1usize, 2, 3, 8, 13, 32, 33, 600] {
            assert!(d < 600 || kernel::user_code_max(d) < 32767);
            let mut rows: Vec<Vec<f32>> = (0..30).map(|r| exactly_coded(d, 300 + r)).collect();
            rows.extend((0..20).map(|r| rough(d, 400 + r)));
            rows.push(vec![0.0; d]);
            rows.push(vec![0.25; d]);
            rows.push(rough(d, 9).iter().map(|x| x * 1e30).collect());
            rows.push(rough(d, 8).iter().map(|x| x * 1e-37).collect());
            let mut bad = rough(d, 7);
            bad[d / 2] = f32::NAN;
            rows.push(bad);
            let table: Vec<f32> = rows.iter().flatten().copied().collect();
            let set = I8Rows::from_table(&table, d);
            assert_eq!(set.len(), rows.len());
            let mut near_equal = vec![0.5f32; d];
            for (k, x) in near_equal.iter_mut().enumerate() {
                *x += k as f32 * 1e-6;
            }
            let users = [
                rough(d, 1),
                rough(d, 2).iter().map(|x| x * 1e-3).collect(),
                near_equal,
                vec![0.0; d],
            ];
            for user in &users {
                let scores: Vec<f32> = rows.iter().map(|h| kernel::dot(user, h)).collect();
                for (r, &x) in scores.iter().enumerate().skip(BLOCK_ROWS) {
                    if x.is_nan() {
                        continue;
                    }
                    // At its own score a row must be visited (it could tie),
                    // and so must every row scoring at least as high or NaN.
                    let open = visited(&set, user, x);
                    for (o, &y) in scores.iter().enumerate().skip(BLOCK_ROWS) {
                        if y >= x || y.is_nan() {
                            assert!(
                                open.contains(&o),
                                "d = {d}: row {o} ({y}) at floor {x} (row {r})"
                            );
                        }
                    }
                }
            }
            // The bound is not vacuous: at the best score of 64 rough
            // rows, most rows are passed over.
            let table: Vec<f32> = (0..64).flat_map(|r| rough(d, 500 + r)).collect();
            let set = I8Rows::from_table(&table, d);
            let user = rough(d, 1);
            let best = table
                .chunks_exact(d)
                .map(|h| kernel::dot(&user, h))
                .fold(f32::NEG_INFINITY, f32::max);
            let open = visited(&set, &user, best);
            assert!(open.len() < 32, "d = {d}: {} rows visited", open.len());
        }
    }

    #[test]
    fn a_non_finite_user_visits_every_row() {
        let d = 8;
        let table: Vec<f32> = (0..24).flat_map(|r| rough(d, r)).collect();
        let set = I8Rows::from_table(&table, d);
        for bad in [f32::NAN, f32::INFINITY] {
            let mut user = rough(d, 50);
            user[3] = bad;
            assert_eq!(visited(&set, &user, 1e30), (0..24).collect::<Vec<_>>());
        }
    }
}
