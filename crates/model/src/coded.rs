//! Coded rows: a compact i16 copy of a set of embedding rows with a
//! rigorous per-row error bound, scored by [`kernel::coded_tile_counts`].
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
//! Rows are kept in blocks of [`kernel::WIDTH`] (16 on AVX-512F builds,
//! 8 on others), dimension-major, so one FMA of the build's widest
//! register scores one dimension of a block; the last block is padded
//! with zero rows that are never counted. At d = 32 a row costs 64 B of
//! codes plus its scale and bound: 72 B, against 128 B for the `f32` row.
//!
//! **Why i16.** On a planted-popularity MF model (the train-bns workload)
//! the i16 codes leave 0.39% of rows ambiguous in the Eq. 16 pass; i8
//! codes with a per-row scale leave 59.65% (the popularity column
//! dominates each row's scale) and i8 with per-column scales 15.92%.
//!
//! **The serving codes.** Serving asks a different question:
//! not "is this row below each of five thresholds" for every row, but
//! "could this row reach the current k-th best score", which nearly every
//! row of a 100k catalog misses by far more than a coarse code's error.
//! So [`I8Rows`] keeps each row coded twice by the quantizer above, with
//! two per-row bound terms each: 4-bit codes `round(h / s)`, `s =
//! max|hₖ| / 7`, packed as nibbles in blocks of [`WIDTH`] rows (16 B of
//! codes, 28 B a row at d = 32), and i8 codes with `s = max|hₖ| / 127` in
//! blocks of eight (44 B a row), against 128 B for the `f32` row.
//! [`I8User`] codes the user in 8 bits for the first and in i16 for the
//! second. [`kernel::q4_block_open`] and [`kernel::i8_block_open`]
//! multiply them with integer multiply-adds (`maddubs` + `madd`,
//! `_mm256_madd_epi16`), which sum exactly in `i32` and need no
//! int→float conversion per code: those conversions bound
//! [`kernel::coded_tile_counts`], which would read fewer bytes than the
//! `f32` GEMV but run no faster. [`I8Rows::scan`] runs the 4-bit stage on
//! every block, the i8 stage on the rows it leaves open, and visits the
//! rest. On the serving benchmark's model (100k clustered items, d = 32,
//! k = 10), scanned in the IVF index's cluster order, a query's 4-bit
//! stage leaves ~1,090 rows open and ~190 survive the i8 bound and are
//! scored exactly (~620 and ~116 in id order), and the 4-bit stage
//! scans a row in ~1.1–1.5 ns, against ~1.9–2.7 for the i8 stage alone
//! (a 2-vCPU AVX-512 Xeon). [`I8Rows::scan`] takes a row range, so both
//! serving modes scan one code table.

use crate::kernel::{
    self, CodedBlock, CountTile, I8Block, I8Query, Q4Block, Q4Query, BLOCK_ROWS, WIDTH,
};
use std::ops::Range;

/// Largest code magnitude: codes span `[-32767, 32767]`.
const CODE_MAX: f64 = 32767.0;

/// Largest i8 row code magnitude: codes span `[-127, 127]`.
const I8_MAX: f64 = 127.0;

/// Largest 4-bit row code magnitude: codes span `[-7, 7]`.
const Q4_MAX: f64 = 7.0;

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
///
/// The maximum, the codes and the summands are computed a chunk of
/// dimensions at a time into contiguous buffers, where they vectorize;
/// only the three sums run one dimension after another, in ascending `k`
/// as before, so every bit of the result is that of the one-loop form
/// (pinned by a test against it).
fn code_row(row: &[f32], code_max: f64, mut store: impl FnMut(usize, f64)) -> (f32, f64, f64, f64) {
    debug_assert!(
        row.iter().all(|x| x.is_finite()),
        "code_row needs a finite row"
    );
    // For finite values the bits of |x| order like |x|, and an integer
    // maximum needs no NaN case, so it vectorizes.
    let max = f32::from_bits(
        row.iter()
            .map(|x| x.to_bits() & 0x7FFF_FFFF)
            .fold(0, u32::max),
    );
    // Any positive scale gives a valid bound (it is measured on the codes
    // actually stored); keep it positive when `max / code_max` underflows
    // to zero.
    let s = if max == 0.0 || code_max == 0.0 {
        0.0
    } else {
        (max / code_max as f32).max(f32::from_bits(1))
    };
    let inv = if s == 0.0 { 0.0 } else { 1.0 / f64::from(s) };
    const CHUNK: usize = 32;
    let (mut codes, mut terms) = ([0.0f64; CHUNK], [[0.0f64; 3]; CHUNK]);
    let (mut err, mut norm_h, mut norm_q) = (0.0f64, 0.0f64, 0.0f64);
    for (first, chunk) in (0..).step_by(CHUNK).zip(row.chunks(CHUNK)) {
        for ((c, t), &h) in codes.iter_mut().zip(&mut terms).zip(chunk) {
            let h = f64::from(h);
            *c = (h * inv).round_ties_even().clamp(-code_max, code_max);
            // `s·c` is exact in f64 (24 + 15 significant bits).
            let q = f64::from(s) * *c;
            *t = [(h - q) * (h - q), h * h, q * q];
        }
        for (k, (&c, t)) in codes.iter().zip(&terms).take(chunk.len()).enumerate() {
            store(first + k, c);
            err += t[0];
            norm_h += t[1];
            norm_q += t[2];
        }
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
    /// `blocks × dim × W` codes (`W` = [`WIDTH`]); block `b` holds rows
    /// `Wb .. Wb + W`, and `codes[(b·dim + k)·W + l]` is dimension `k` of
    /// row `Wb + l`.
    codes: Vec<i16>,
    /// `blocks × W` per-row scales.
    scales: Vec<f32>,
    /// `blocks × W` per-row error bounds.
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
        let padded = len.div_ceil(WIDTH) * WIDTH;
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
        let (block, lane) = (r / WIDTH, r % WIDTH);
        let base = block * self.dim * WIDTH + lane;
        let codes = &mut self.codes[base..];
        let d = row.len();
        if !row.iter().all(|x| x.is_finite()) {
            for k in 0..d {
                codes[k * WIDTH] = 0;
            }
            self.scales[r] = 0.0;
            self.bounds[r] = f32::INFINITY;
            return;
        }
        let (s, err, norm_h, norm_q) = code_row(row, CODE_MAX, |k, c| codes[k * WIDTH] = c as i16);
        let bound = (err + gamma(d as f64 + 2.0) * (norm_h + norm_q)) * f64_error(d);
        self.scales[r] = s;
        self.bounds[r] = kernel::round_up_f32(bound);
    }

    /// Counts, for each lane of `tile` and each of its thresholds, the
    /// rows `r` with `dot(user, h_r) ≤ t` that
    /// [`kernel::coded_tile_counts`] decides from the codes, into `counts`
    /// (laid out as [`CountTile::thresholds`]; it adds to them). Every row
    /// the kernel cannot decide for a lane goes to `ambiguous(lane, r)`,
    /// ascending within each lane, for the caller to score exactly. One
    /// pass over the codes serves every lane.
    pub fn count_tile(
        &self,
        tile: &CountTile,
        counts: &mut [u32],
        mut ambiguous: impl FnMut(usize, usize),
    ) {
        assert_eq!(tile.dim(), self.dim, "user dimension mismatch");
        assert_eq!(
            counts.len(),
            tile.thresholds().len(),
            "one count per threshold"
        );
        let blocks = self
            .codes
            .chunks_exact((self.dim * WIDTH).max(1))
            .zip(self.scales.as_chunks::<WIDTH>().0)
            .zip(self.bounds.as_chunks::<WIDTH>().0)
            .enumerate()
            .map(|(b, ((codes, scales), bounds))| CodedBlock {
                codes,
                scales,
                bounds,
                live: kernel::first_lanes((self.len - b * WIDTH).min(WIDTH)),
            });
        kernel::coded_tile_counts(tile, blocks, counts, |b, lane, mut rows| {
            while rows != 0 {
                ambiguous(lane, b * WIDTH + rows.trailing_zeros() as usize);
                rows &= rows - 1;
            }
        });
    }
}

/// The serving codes of a row-major item table (see the module doc), in
/// two resolutions with the same quantizer and bound formulas: per row,
/// codes `c` with a scale `s` (`ĥ = s·c`) and the bound terms
/// `B ≥ ‖h − ĥ‖₂ + γ_{d+2}·‖h‖₂ + γ₃·‖ĥ‖₂` and `N ≥ (1 + γ₃)·‖ĥ‖₂`,
/// computed in `f64` and rounded up, once for i8 codes (`s = max|hₖ| /
/// 127`) and once for 4-bit codes (`s = max|hₖ| / 7`). A row with a
/// non-finite entry gets `B = +∞` in both, so [`I8Rows::scan`] always
/// visits it.
///
/// The i8 rows sit in blocks of [`BLOCK_ROWS`] with dimension pairs
/// interleaved (the layout of [`I8Block`]), the 4-bit rows in blocks of
/// [`WIDTH`] as packed nibbles (the layout of [`Q4Block`]); the last
/// block of each is padded with zero rows that are never visited.
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
    /// The 4-bit codes: `blocks4 × ⌈dim/8⌉ × 4·WIDTH` bytes.
    nibbles: Vec<u8>,
    /// `blocks4 × WIDTH` per-row 4-bit scales, bounds `B` and norms `N`.
    q4_scales: Vec<f32>,
    q4_bounds: Vec<f32>,
    q4_norms: Vec<f32>,
}

/// The bound terms `B` and `N` of the codes [`code_row`] measured for a
/// row of dimension `d`, rounded up to `f32`.
fn serving_bounds(d: usize, err: f64, norm_h: f64, norm_q: f64) -> (f32, f32) {
    let f64_error = f64_error(d);
    let (g_d, g_3) = (gamma(d as f64 + 2.0), gamma(3.0));
    let bound = (err + g_d * norm_h + g_3 * norm_q) * f64_error;
    let norm = (1.0 + g_3) * norm_q * f64_error;
    (kernel::round_up_f32(bound), kernel::round_up_f32(norm))
}

impl I8Rows {
    /// Codes the `table.len() / dim` rows of the row-major `table`.
    pub fn from_table(table: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "coded rows need a positive dimension");
        assert_eq!(table.len() % dim, 0, "table is not a whole number of rows");
        let len = table.len() / dim;
        let padded = len.div_ceil(BLOCK_ROWS) * BLOCK_ROWS;
        let padded4 = len.div_ceil(WIDTH) * WIDTH;
        let pairs = dim.div_ceil(2);
        let mut rows = Self {
            dim,
            len,
            codes: vec![0; padded * pairs * 2],
            scales: vec![0.0; padded],
            bounds: vec![0.0; padded],
            norms: vec![0.0; padded],
            nibbles: vec![0x88; padded4 * dim.div_ceil(8) * 4],
            q4_scales: vec![0.0; padded4],
            q4_bounds: vec![0.0; padded4],
            q4_norms: vec![0.0; padded4],
        };
        for (r, row) in table.chunks_exact(dim).enumerate() {
            rows.set(r, row);
        }
        rows
    }

    /// Codes row `r` from `row`, in both resolutions.
    fn set(&mut self, r: usize, row: &[f32]) {
        let d = row.len();
        if !row.iter().all(|x| x.is_finite()) {
            // Codes, scales and norms stay zero; the bounds keep the row.
            self.bounds[r] = f32::INFINITY;
            self.q4_bounds[r] = f32::INFINITY;
            return;
        }
        let (block, lane) = (r / BLOCK_ROWS, r % BLOCK_ROWS);
        let base = block * self.dim.div_ceil(2) * 2 * BLOCK_ROWS + 2 * lane;
        let at = |k: usize| base + (k / 2) * 2 * BLOCK_ROWS + k % 2;
        let codes = &mut self.codes;
        let (s, err, norm_h, norm_q) = code_row(row, I8_MAX, |k, c| codes[at(k)] = c as i8);
        (self.bounds[r], self.norms[r]) = serving_bounds(d, err, norm_h, norm_q);
        self.scales[r] = s;

        let (block, lane) = (r / WIDTH, r % WIDTH);
        let base = block * self.dim.div_ceil(8) * 4 * WIDTH + 4 * lane;
        let nibbles = &mut self.nibbles;
        let (s, err, norm_h, norm_q) = code_row(row, Q4_MAX, |k, c| {
            let byte = &mut nibbles[base + (k / 8) * 4 * WIDTH + k % 4];
            let shift = 4 * (k % 8 / 4);
            *byte = (*byte & !(0x0F << shift)) | (((c + 8.0) as u8) << shift);
        });
        (self.q4_bounds[r], self.q4_norms[r]) = serving_bounds(d, err, norm_h, norm_q);
        self.q4_scales[r] = s;
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
    /// while every row does). Each block of [`WIDTH`] rows goes through
    /// [`kernel::q4_block_open`] on its 4-bit codes at the floor in force;
    /// the rows it leaves open go through [`kernel::i8_block_open`] on
    /// their i8 codes, a block of [`BLOCK_ROWS`] at a time, at the floor in
    /// force then; the rows that stage leaves open are visited. So a row is
    /// passed over unvisited only when one of the two kernels proves its
    /// score strictly below the floor in force at its check.
    ///
    /// Returns the floor after the last visit, so consecutive ranges chain
    /// into one scan, and the number of rows the 4-bit stage left open.
    pub fn scan(
        &self,
        user: &I8User,
        rows: Range<usize>,
        mut floor: f32,
        mut visit: impl FnMut(usize) -> f32,
    ) -> (f32, usize) {
        assert_eq!(user.dim, self.dim, "user dimension mismatch");
        assert!(
            rows.start <= rows.end && rows.end <= self.len,
            "rows {rows:?} out of 0..{}",
            self.len
        );
        let query = Q4Query {
            quads: &user.quads,
            bias: user.bias,
            scale: user.q4_scale,
            norm: user.norm,
            err: user.q4_err,
        };
        let block_len = self.dim.div_ceil(8) * 4 * WIDTH;
        let (scales, bounds, norms) = (
            self.q4_scales.as_chunks::<WIDTH>().0,
            self.q4_bounds.as_chunks::<WIDTH>().0,
            self.q4_norms.as_chunks::<WIDTH>().0,
        );
        // Lanes outside `rows` in the first and last block stay shut.
        let mut live =
            (kernel::first_lanes(WIDTH) << (rows.start % WIDTH)) & kernel::first_lanes(WIDTH);
        let mut opened = 0;
        for b in rows.start / WIDTH..rows.end.div_ceil(WIDTH) {
            let first = b * WIDTH;
            if rows.end - first < WIDTH {
                live &= kernel::first_lanes(rows.end - first);
            }
            let block = Q4Block {
                codes: &self.nibbles[b * block_len..][..block_len],
                scales: &scales[b],
                bounds: &bounds[b],
                norms: &norms[b],
            };
            let open = kernel::q4_block_open(query, block, floor, live);
            live = kernel::first_lanes(WIDTH);
            if open != 0 {
                opened += open.count_ones() as usize;
                floor = self.open_i8(user, first, open, floor, &mut visit);
            }
        }
        (floor, opened)
    }

    /// The second stage of [`I8Rows::scan`] for the rows of `open` (a lane
    /// mask over the 4-bit block at row `first`): each of its i8 blocks
    /// with open rows goes through [`kernel::i8_block_open`] at the floor
    /// in force, and the rows left open are visited in ascending order.
    /// Returns the floor after the last visit (`floor` if none). Out of
    /// line: kept apart, it leaves the scan's block loop as tight as it is
    /// without it.
    #[inline(never)]
    fn open_i8(
        &self,
        user: &I8User,
        first: usize,
        open: u16,
        mut floor: f32,
        visit: &mut impl FnMut(usize) -> f32,
    ) -> f32 {
        let query = I8Query {
            pairs: &user.pairs,
            scale: user.scale,
            norm: user.norm,
            err: user.err,
        };
        let block_len = self.dim.div_ceil(2) * 2 * BLOCK_ROWS;
        for sub in 0..WIDTH / BLOCK_ROWS {
            let live = (open >> (sub * BLOCK_ROWS)) as u8;
            if live == 0 {
                continue;
            }
            let start = first + sub * BLOCK_ROWS;
            let lanes = start..start + BLOCK_ROWS;
            let block = I8Block {
                codes: &self.codes[start / BLOCK_ROWS * block_len..][..block_len],
                scales: self.scales[lanes.clone()].as_array().expect("8 lanes"),
                bounds: self.bounds[lanes.clone()].as_array().expect("8 lanes"),
                norms: self.norms[lanes].as_array().expect("8 lanes"),
            };
            let mut rows = kernel::i8_block_open(query, block, floor, live);
            while rows != 0 {
                floor = visit(start + rows.trailing_zeros() as usize);
                rows &= rows - 1;
            }
        }
        floor
    }
}

/// The user side of [`I8Rows::scan`], coded twice: i16 codes `q = round(u
/// / t)`, `t = max|uₖ| / kernel::user_code_max(d)`, for the i8 stage and
/// 8-bit codes with `t = max|uₖ| / kernel::q4_user_code_max(d)` for the
/// 4-bit stage, each with its error bound, and the norm bound both
/// stages need. Reusable: [`I8User::set`] is allocation-free once the
/// buffers hold a row of the dimension.
#[derive(Debug, Clone, Default)]
pub struct I8User {
    dim: usize,
    pairs: Vec<i32>,
    scale: f32,
    norm: f32,
    err: f32,
    /// The 8-bit codes four to a word (the layout of [`Q4Query::quads`]).
    quads: Vec<i32>,
    /// `8·Σ q` over the 8-bit codes.
    bias: i32,
    q4_scale: f32,
    q4_err: f32,
}

impl I8User {
    /// An empty user (set it before a scan).
    pub fn new() -> Self {
        Self::default()
    }

    /// Codes `user`. A non-finite user gets zero codes and infinite
    /// errors, so a scan visits every row.
    pub fn set(&mut self, user: &[f32]) {
        let d = user.len();
        self.dim = d;
        self.pairs.clear();
        self.pairs.resize(d.div_ceil(2), 0);
        self.quads.clear();
        self.quads.resize(2 * d.div_ceil(8), 0);
        self.bias = 0;
        self.norm = kernel::norm_bound(user);
        if !user.iter().all(|x| x.is_finite()) {
            (self.scale, self.err) = (0.0, f32::INFINITY);
            (self.q4_scale, self.q4_err) = (0.0, f32::INFINITY);
            return;
        }
        let grow = 1.0 + 8.0 / (1u64 << 24) as f64;
        let q_max = f64::from(kernel::user_code_max(d));
        let pairs = &mut self.pairs;
        let (t, err, _, _) = code_row(user, q_max, |k, c| {
            pairs[k / 2] |= (u32::from(c as i16 as u16) << (16 * (k % 2))) as i32;
        });
        self.scale = t;
        self.err = kernel::round_up_f32(err * grow * f64_error(d));
        let q_max = f64::from(kernel::q4_user_code_max(d));
        let (quads, mut sum) = (&mut self.quads, 0i32);
        let (t, err, _, _) = code_row(user, q_max, |k, c| {
            quads[k / 4] |= (u32::from(c as i8 as u8) << (8 * (k % 4))) as i32;
            sum += c as i32;
        });
        self.bias = 8 * sum;
        self.q4_scale = t;
        self.q4_err = kernel::round_up_f32(err * grow * f64_error(d));
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
        counted(&set, rows, user, ts, skip)
    }

    /// The counts of `set`, which codes `rows`, over the rows not in
    /// `skip`, and how many of those rows were ambiguous: the ambiguous
    /// rows are scored exactly, and the skipped rows the codes decided are
    /// taken out again.
    fn counted(
        set: &CodedRows,
        rows: &[Vec<f32>],
        user: &[f32],
        ts: &[f32],
        skip: &[usize],
    ) -> (Vec<u32>, usize) {
        let (mut counts, open) = lone(set, user, ts);
        let (rescore, decided_skips): (Vec<usize>, Vec<usize>) = (
            open.iter().copied().filter(|r| !skip.contains(r)).collect(),
            skip.iter().copied().filter(|r| !open.contains(r)).collect(),
        );
        let le = |r: usize, t: f32| u32::from(kernel::dot(user, &rows[r]) <= t);
        for (c, &t) in counts.iter_mut().zip(ts) {
            *c += rescore.iter().map(|&r| le(r, t)).sum::<u32>();
            *c -= decided_skips.iter().map(|&r| le(r, t)).sum::<u32>();
        }
        (counts, rescore.len())
    }

    /// The decided counts and the ambiguous rows of a tile of `user` alone.
    fn lone(set: &CodedRows, user: &[f32], ts: &[f32]) -> (Vec<u32>, Vec<usize>) {
        let mut tile = CountTile::default();
        tile.clear(user.len());
        tile.push(user, ts);
        let mut counts = vec![0u32; ts.len()];
        let mut open = Vec::new();
        set.count_tile(&tile, &mut counts, |lane, r| {
            assert_eq!(lane, 0, "a one-user tile has one lane");
            open.push(r);
        });
        (counts, open)
    }

    /// The one-loop form of [`code_row`]: the maximum, each code and the
    /// three sums in one pass over the dimensions.
    fn code_row_reference(row: &[f32], code_max: f64) -> (Vec<f64>, f32, f64, f64, f64) {
        let max = row.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let s = if max == 0.0 || code_max == 0.0 {
            0.0
        } else {
            (max / code_max as f32).max(f32::from_bits(1))
        };
        let inv = if s == 0.0 { 0.0 } else { 1.0 / f64::from(s) };
        let (mut err, mut norm_h, mut norm_q) = (0.0f64, 0.0f64, 0.0f64);
        let mut codes = Vec::new();
        for &h in row {
            let c = (f64::from(h) * inv)
                .round_ties_even()
                .clamp(-code_max, code_max);
            codes.push(c);
            let q = f64::from(s) * c;
            err += (f64::from(h) - q) * (f64::from(h) - q);
            norm_h += f64::from(h) * f64::from(h);
            norm_q += q * q;
        }
        (codes, s, err.sqrt(), norm_h.sqrt(), norm_q.sqrt())
    }

    #[test]
    fn code_row_is_the_one_loop_form_bit_for_bit() {
        let bits = |x: f64| x.to_bits();
        for d in [1usize, 2, 7, 31, 32, 33, 64, 65, 100, 600] {
            let mut rows: Vec<Vec<f32>> = (0..8).map(|r| rough(d, 40 + r)).collect();
            rows.push(vec![0.0; d]);
            rows.push(vec![-0.0; d]);
            rows.push(rough(d, 3).iter().map(|x| x * 1e30).collect());
            rows.push(rough(d, 4).iter().map(|x| x * 1e-40).collect());
            rows.push(rough(d, 5).iter().map(|x| x * 1e-45).collect());
            let mut spike = rough(d, 6);
            spike[d / 2] = f32::MAX;
            rows.push(spike);
            // Ties at every half code.
            rows.push((0..d).map(|k| k as f32 + 0.5).collect());
            let code_maxes = [
                CODE_MAX,
                I8_MAX,
                Q4_MAX,
                f64::from(kernel::user_code_max(d)),
                f64::from(kernel::q4_user_code_max(d)),
                0.0,
            ];
            for (r, row) in rows.iter().enumerate() {
                for &code_max in &code_maxes {
                    let what = format!("d = {d}, row {r}, code_max {code_max}");
                    let mut codes = vec![f64::NAN; d];
                    let got = code_row(row, code_max, |k, c| codes[k] = c);
                    let want = code_row_reference(row, code_max);
                    assert_eq!(
                        codes.iter().map(|&c| bits(c)).collect::<Vec<_>>(),
                        want.0.iter().map(|&c| bits(c)).collect::<Vec<_>>(),
                        "{what}: codes"
                    );
                    assert_eq!(got.0.to_bits(), want.1.to_bits(), "{what}: scale");
                    let sums = [got.1, got.2, got.3].map(bits);
                    assert_eq!(sums, [want.2, want.3, want.4].map(bits), "{what}: sums");
                    // So the bounds and norms built on them are too.
                    assert_eq!(
                        serving_bounds(d, got.1, got.2, got.3),
                        serving_bounds(d, want.2, want.3, want.4),
                        "{what}"
                    );
                }
            }
        }
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
    fn every_row_count_and_upper_lane_counts_exactly() {
        // Every row count up to three blocks and one row, so the last
        // block is partial in its lower and its upper half at either
        // build width. Skips sit in lanes 8 to 15 of a 16-row block, and a
        // non-finite row in the upper half of the first.
        let d = 7;
        let user = rough(d, 3);
        let bad = WIDTH - 3;
        for len in 1..=3 * WIDTH + 1 {
            let mut rows: Vec<Vec<f32>> = (0..len).map(|r| rough(d, 900 + r as u64)).collect();
            if len > bad {
                rows[bad][2] = f32::INFINITY;
            }
            let mut ts: Vec<f32> = rows
                .iter()
                .step_by(4)
                .map(|h| kernel::dot(&user, h))
                .collect();
            ts.extend([f32::NEG_INFINITY, 0.0, f32::INFINITY]);
            let skip: Vec<usize> = (0..len).filter(|r| r % 16 >= 8 && r % 3 != 1).collect();
            let (got, open) = coded(&rows, &user, &ts, &skip);
            assert_eq!(got, exact(&rows, &user, &ts, &skip), "{len} rows");
            if len > bad && !skip.contains(&bad) {
                assert!(open >= 1, "{len} rows: the non-finite row is ambiguous");
            }
        }
        // Re-code rows in the upper half of the second block with `set`:
        // one to new finite values, one to a non-finite row, and the
        // non-finite row of the first block back to finite values.
        let len = 3 * WIDTH + 1;
        let mut rows: Vec<Vec<f32>> = (0..len).map(|r| rough(d, 900 + r as u64)).collect();
        rows[bad][2] = f32::INFINITY;
        let mut set = CodedRows::new();
        set.rebuild(d, rows.iter().map(Vec::as_slice));
        let changes = [
            (
                2 * WIDTH - 2,
                rough(d, 77).iter().map(|x| x * 4.0).collect(),
            ),
            (2 * WIDTH - 5, vec![f32::NAN; d]),
            (bad, rough(d, 78)),
        ];
        for (r, row) in changes {
            set.set(r, &row);
            rows[r] = row;
        }
        let mut fresh = CodedRows::new();
        fresh.rebuild(d, rows.iter().map(Vec::as_slice));
        assert_eq!(set, fresh);
        let ts: Vec<f32> = rows.iter().map(|h| kernel::dot(&user, h)).collect();
        let skip = [2 * WIDTH - 1, 3 * WIDTH - 8];
        let (got, _) = counted(&set, &rows, &user, &ts, &skip);
        assert_eq!(got, exact(&rows, &user, &ts, &skip));
    }

    /// The users of the tile pins: full-mantissa rows, a repeat of the
    /// first, a tiny one, a zero one, one with a NaN entry and one with an
    /// infinite entry.
    fn tile_users(d: usize) -> Vec<Vec<f32>> {
        (0..WIDTH)
            .map(|t| match t {
                2 => rough(d, 1),
                4 => rough(d, 5).iter().map(|x| x * 1e-30).collect(),
                5 => vec![0.0; d],
                7 => {
                    let mut u = rough(d, 7);
                    u[d / 2] = f32::NAN;
                    u
                }
                11 => {
                    let mut u = rough(d, 11);
                    u[0] = f32::INFINITY;
                    u
                }
                _ => rough(d, 1 + t as u64),
            })
            .collect()
    }

    /// Checks every tile of the first 1..=WIDTH of `users` over `rows`,
    /// lane `t` with `ts[t]`: each lane's decided counts and ambiguous rows
    /// equal those of a tile of its user alone, and its counts with the
    /// ambiguous rows scored exactly equal the exact counts.
    fn assert_lanes_are_lone_passes(rows: &[Vec<f32>], users: &[Vec<f32>], ts: &[Vec<f32>]) {
        let d = users[0].len();
        let mut set = CodedRows::new();
        set.rebuild(d, rows.iter().map(Vec::as_slice));
        for len in 1..=WIDTH {
            let mut tile = CountTile::default();
            tile.clear(d);
            for t in 0..len {
                tile.push(&users[t], &ts[t]);
            }
            let mut counts = vec![0u32; tile.thresholds().len()];
            let mut open = vec![Vec::new(); len];
            set.count_tile(&tile, &mut counts, |lane, r| open[lane].push(r));
            for t in 0..len {
                let what = format!("d = {d}, {} rows, lane {t} of {len}", rows.len());
                let (alone, alone_open) = lone(&set, &users[t], &ts[t]);
                assert_eq!(counts[tile.lane(t)], alone[..], "{what}");
                assert_eq!(open[t], alone_open, "{what}");
                let (exactly, _) = counted(&set, rows, &users[t], &ts[t], &[]);
                assert_eq!(exactly, exact(rows, &users[t], &ts[t], &[]), "{what}");
            }
        }
    }

    #[test]
    fn every_tile_lane_counts_as_its_user_alone() {
        for d in [1usize, 3, 8, 13, 32] {
            let users = tile_users(d);
            // The adversarial rows of `counts_equal_exact_counts_on_adversarial_rows`.
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
            // Lane t: its user's scores of every (t + 2)-th row, one ulp
            // either side, cut to t mod 6 + 1 thresholds; lane 3 has none,
            // and lane 9 adds ±∞ and NaN.
            let ts: Vec<Vec<f32>> = (0..WIDTH)
                .map(|t| {
                    let mut ts = Vec::new();
                    for h in rows.iter().step_by(t + 2) {
                        let x = kernel::dot(&users[t], h);
                        ts.extend([x, x.next_up(), x.next_down()]);
                    }
                    ts.truncate(t % 6 + 1);
                    match t {
                        3 => ts.clear(),
                        9 => ts.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]),
                        _ => {}
                    }
                    ts
                })
                .collect();
            assert_lanes_are_lone_passes(&rows, &users, &ts);
        }
        // Every row count up to three blocks and one row, at d = 7.
        let d = 7;
        let users = tile_users(d);
        for len in 1..=3 * WIDTH + 1 {
            let rows: Vec<Vec<f32>> = (0..len).map(|r| rough(d, 900 + r as u64)).collect();
            let ts: Vec<Vec<f32>> = (0..WIDTH)
                .map(|t| {
                    let mut ts: Vec<f32> = (rows.iter().skip(t % 3).step_by(3))
                        .map(|h| kernel::dot(&users[t], h))
                        .take(t % 5 + 1)
                        .collect();
                    ts.push(0.0);
                    ts
                })
                .collect();
            assert_lanes_are_lone_passes(&rows, &users, &ts);
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
                .map(|k| f64::from(h[k]) - s * f64::from(set.codes[k * WIDTH]))
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
    /// `−∞`). Every visited row was left open by the 4-bit stage.
    fn visited(rows: &I8Rows, user: &[f32], floor: f32) -> Vec<usize> {
        let mut coded = I8User::new();
        coded.set(user);
        let mut seen = Vec::new();
        let (_, opened) = rows.scan(&coded, 0..rows.len(), f32::NEG_INFINITY, |r| {
            seen.push(r);
            floor
        });
        assert!(
            opened >= seen.len(),
            "{opened} opened, {} visited",
            seen.len()
        );
        seen
    }

    /// A rough row with one coordinate `1e4` times the rest: every other
    /// 4-bit code rounds to zero, the 4-bit codes' worst case.
    fn dominant(d: usize, seed: u64) -> Vec<f32> {
        let mut row = rough(d, seed);
        row[seed as usize % d] = 1e4;
        row
    }

    #[test]
    fn a_range_scan_visits_only_its_rows_and_chains_the_floor() {
        // Three 4-bit blocks but three rows at either build width: ranges
        // start and end inside a 4-bit block, inside an i8 block and on
        // their edges.
        let d = 5;
        let len = 3 * WIDTH - 3;
        let table: Vec<f32> = (0..len as u64)
            .flat_map(|r| {
                if r % 5 == 2 {
                    dominant(d, 700 + r)
                } else {
                    rough(d, 700 + r)
                }
            })
            .collect();
        let set = I8Rows::from_table(&table, d);
        let mut coded = I8User::new();
        coded.set(&rough(d, 3));
        for lo in 0..=set.len() {
            for hi in lo..=set.len() {
                let mut seen = Vec::new();
                let (floor, opened) = set.scan(&coded, lo..hi, f32::NEG_INFINITY, |r| {
                    seen.push(r);
                    r as f32 - 1e6
                });
                assert_eq!(seen, (lo..hi).collect::<Vec<_>>(), "rows {lo}..{hi}");
                assert_eq!(opened, hi - lo, "rows {lo}..{hi}");
                let last = if hi > lo {
                    (hi - 1) as f32 - 1e6
                } else {
                    f32::NEG_INFINITY
                };
                assert_eq!(floor, last, "rows {lo}..{hi}");
                // A floor no row reaches passes every row over in the
                // 4-bit stage and comes back unchanged.
                let untouched = set.scan(&coded, lo..hi, 1e30, |r| panic!("row {r} visited"));
                assert_eq!(untouched, (1e30, 0));
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
            rows.extend((0..6).map(|r| dominant(d, 800 + r)));
            let mut spike = vec![1e-3; d];
            spike[d - 1] = 1.0;
            rows.push(spike);
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
