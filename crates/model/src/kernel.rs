//! Fused scoring kernels: the one dot-product the whole workspace shares.
//!
//! Algorithm 1 line 4 ("get rating vector x̂ᵤ") makes user-vs-catalog
//! scoring the hottest loop in the system: every model-aware sampler pays
//! it once per training pair, and the ranking protocol pays it for every
//! item of every user. A naive `iter().zip().map().sum()` dot is
//! *latency*-bound — each `f32` add waits on the previous one, so a d = 32
//! dot costs ~d·latency cycles instead of ~d/throughput. These kernels
//! break the dependency chain with [`LANES`] independent accumulators
//! updated by a fused multiply-add, then reduce them in a **fixed balanced
//! tree**, which makes the summation order deterministic and identical
//! across every entry point:
//!
//! * [`dot`] — one row · row product (single score),
//! * [`gemv`] — user row × the whole item table (the full rating vector),
//! * [`gather_dots`] — user row × an arbitrary subset of item rows (the
//!   candidate-scoring path of `ScoreAccess::Candidates` samplers),
//! * [`tile_scan`] — a [`UserTile`] of up to [`WIDTH`] users, one per
//!   `f32` lane, × every item row, each row read once for the whole tile,
//!   with a per-lane floor test that hands only the scores that could
//!   enter a top-k selection to a visitor (the ranking protocol's loop,
//!   which scores and selects in one pass).
//!
//! `Scorer`'s provided `score_all` and `score_items` run [`gemv`] and
//! [`gather_dots`] over the tables of any model that exposes them
//! (`Scorer::row_tables`), and the ranking protocol runs [`tile_scan`]
//! over them, so no model carries its own copy of those bodies.
//!
//! Because all four share one accumulation structure, `score(u, i)`,
//! `score_all(u, ..)[i]`, `score_items(u, [i], ..)` and the scores
//! [`tile_scan`] visits are **bitwise identical** for the same model
//! state — the property the fused BNS draw relies on when it compares
//! candidate thresholds against catalog scores computed in a separate
//! blocked pass, and the one that lets evaluation score a tile of users at
//! a time.
//!
//! One more entry point sits **outside** that bit contract:
//! [`coded_tile_counts`] scores the blocks of [`WIDTH`] rows of
//! [`crate::coded::CodedRows`] (i16 codes, a per-row scale and error
//! bound) for a [`CountTile`] of up to [`WIDTH`] users, widening each code
//! once for the whole tile, and decides `dot(user, row) ≤ t` for each
//! user's own thresholds from an approximate score and a rigorous bound
//! on its error, handing back the rows it cannot decide for an exact
//! re-score. Its approximate scores never reach a result, only its
//! decisions, which equal the exact kernel's comparisons; so its vector
//! and portable bodies may round differently. It runs every coded Eq. 16
//! pass of BNS, a lone draw being a tile of one. [`q4_block_open`] and
//! [`i8_block_open`] are its serving counterparts, the two stages of
//! serving's scan: over [`WIDTH`] rows of 4-bit codes and an 8-bit-coded
//! user, then over the eight rows of each i8 block that still holds open
//! rows and an i16-coded user, each proves, from an exact integer dot and
//! a rigorous slack, which rows score strictly below a floor, and hands
//! back the rest (of [`crate::coded::I8Rows`]) for the next stage and
//! finally an exact re-score.
//!
//! **The ISA is chosen at build time**, with no runtime dispatch. The
//! workspace builds with `target-cpu=native` (see `.cargo/config.toml`),
//! and there are three bodies:
//!
//! * **AVX-512F** (implies AVX2 and FMA): the two scan kernels,
//!   [`tile_scan`] and [`coded_tile_counts`], and the bound stage of
//!   [`q4_block_open`] run on 512-bit registers, so [`WIDTH`] is 16:
//!   sixteen users a tile, sixteen rows a coded block, sixteen users a
//!   count tile, sixteen rows a 4-bit block. [`q4_block_open`]'s integer
//!   dot runs its 512-bit body on AVX-512BW builds (its byte
//!   multiply-adds need BW), and its AVX2 body on each eight rows
//!   otherwise. [`dot`] and [`i8_block_open`] run their AVX2 bodies.
//! * **AVX2 + FMA**: every kernel runs on 256-bit registers and [`WIDTH`]
//!   is 8.
//! * **Any other build** runs the portable scalar bodies, with [`WIDTH`]
//!   8.
//!
//! The two scan kernels have one vector body for both widths, written
//! against the build's register (`simd::Lanes`), and the layouts they
//! read (a [`UserTile`], a [`CodedBlock`]) are [`WIDTH`] lanes wide. [`dot`]
//! runs one 256-bit FMA per 8-lane chunk into one vector accumulator and
//! reduces it with SSE adds and shuffles; [`tile_scan`] runs the same FMAs
//! with one user in each lane of its accumulators and reduces them with
//! the same tree as vertical adds. The summation order is the same in all
//! of them — per-lane multiply-adds, the same reduction tree, the same
//! tail — so on any build with FMA the vector bodies are bit for bit the
//! scalar body, and the training trace does not depend on which body that
//! build picked. A build without FMA runs the scalar body with a separate
//! multiply and add (see `fmadd`), so its scores differ from an FMA
//! build's in the low bits: like every build, it is reproducible per
//! binary (same binary, same bits), not across ISAs. The unit tests pin
//! the vector bodies to the scalar one bit for bit; accuracy against an
//! `f64` scalar reference is property-tested here and in
//! `tests/proptests.rs` (≤ 1e-5 relative). `ci.sh` tests the AVX2 and the
//! portable bodies on an AVX-512 host too, in builds of their own.

use std::ops::Range;

/// Number of independent accumulators in the unrolled kernels: the chunk
/// width of [`dot`]'s summation order.
pub const LANES: usize = 8;

/// The `f32` lanes of one register of the build's scan bodies: 16 on
/// AVX-512F builds, 8 on every other build. It is the number of users in a
/// [`UserTile`] and of rows in a [`CodedBlock`] and a [`Q4Block`].
pub const WIDTH: usize = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
    16
} else {
    8
};

/// The lane mask of the first `n` lanes (`n ≤ WIDTH`).
pub(crate) fn first_lanes(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

/// The register of the scan bodies ([`tile_scan`], [`coded_tile_counts`],
/// the bound stage of [`q4_block_open`]) and the operations they are
/// written in, so that one body serves both widths: a `__m512` with
/// `__mmask16` compare masks on AVX-512F builds, a `__m256` with vector
/// compare masks on AVX2 + FMA builds. Each method is the intrinsic of its
/// name, or the few that make it up.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod simd {
    use super::WIDTH;
    use std::arch::x86_64::*;

    /// [`WIDTH`] `f32` lanes.
    pub(super) trait Lanes: Copy {
        /// A lane mask as the compares produce it.
        type Mask: Copy;
        fn zero() -> Self;
        fn splat(x: f32) -> Self;
        fn load(x: &[f32; WIDTH]) -> Self;
        fn store(self, out: &mut [f32; WIDTH]);
        /// Widens [`WIDTH`] i16 codes to `f32`.
        fn codes(c: &[i16; WIDTH]) -> Self;
        /// Converts [`WIDTH`] `i32` to `f32`, rounding to nearest.
        fn ints(x: &[i32; WIDTH]) -> Self;
        /// `self · b + c`, rounded once.
        fn fmadd(self, b: Self, c: Self) -> Self;
        fn add(self, b: Self) -> Self;
        fn sub(self, b: Self) -> Self;
        fn mul(self, b: Self) -> Self;
        fn abs(self) -> Self;
        fn min(self, b: Self) -> Self;
        /// The lanes where `self P b` holds, for a `_CMP_*` predicate `P`.
        fn cmp<const P: i32>(self, b: Self) -> Self::Mask;
        fn and(m: Self::Mask, n: Self::Mask) -> Self::Mask;
        /// Bit `l` set iff lane `l` of `m` is.
        fn bits(m: Self::Mask) -> u16;
    }

    /// The register of this build.
    #[cfg(target_feature = "avx512f")]
    pub(super) type V = __m512;

    /// The register of this build.
    #[cfg(not(target_feature = "avx512f"))]
    pub(super) type V = __m256;

    #[cfg(target_feature = "avx512f")]
    impl Lanes for __m512 {
        type Mask = __mmask16;
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: the build targets AVX-512F (the cfg of this impl).
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        fn load(x: &[f32; WIDTH]) -> Self {
            // SAFETY: AVX-512F; the load reads the 16 floats of `x`.
            unsafe { _mm512_loadu_ps(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, out: &mut [f32; WIDTH]) {
            // SAFETY: AVX-512F; the store writes the 16 floats of `out`.
            unsafe { _mm512_storeu_ps(out.as_mut_ptr(), self) }
        }
        #[inline(always)]
        fn codes(c: &[i16; WIDTH]) -> Self {
            // SAFETY: AVX-512F; the load reads the 16 codes (32 bytes) of `c`.
            unsafe {
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(_mm256_loadu_si256(c.as_ptr().cast())))
            }
        }
        #[inline(always)]
        fn ints(x: &[i32; WIDTH]) -> Self {
            // SAFETY: AVX-512F; the load reads the 16 integers of `x`.
            unsafe { _mm512_cvtepi32_ps(_mm512_loadu_si512(x.as_ptr().cast())) }
        }
        #[inline(always)]
        fn fmadd(self, b: Self, c: Self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_fmadd_ps(self, b, c) }
        }
        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_add_ps(self, b) }
        }
        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_sub_ps(self, b) }
        }
        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_mul_ps(self, b) }
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_abs_ps(self) }
        }
        #[inline(always)]
        fn min(self, b: Self) -> Self {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_min_ps(self, b) }
        }
        #[inline(always)]
        fn cmp<const P: i32>(self, b: Self) -> __mmask16 {
            // SAFETY: the build targets AVX-512F.
            unsafe { _mm512_cmp_ps_mask::<P>(self, b) }
        }
        #[inline(always)]
        fn and(m: __mmask16, n: __mmask16) -> __mmask16 {
            m & n
        }
        #[inline(always)]
        fn bits(m: __mmask16) -> u16 {
            m
        }
    }

    #[cfg(not(target_feature = "avx512f"))]
    impl Lanes for __m256 {
        type Mask = __m256;
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: the build targets AVX2 and FMA (the cfg of the module).
            unsafe { _mm256_setzero_ps() }
        }
        #[inline(always)]
        fn splat(x: f32) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_set1_ps(x) }
        }
        #[inline(always)]
        fn load(x: &[f32; WIDTH]) -> Self {
            // SAFETY: AVX2; the load reads the 8 floats of `x`.
            unsafe { _mm256_loadu_ps(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, out: &mut [f32; WIDTH]) {
            // SAFETY: AVX2; the store writes the 8 floats of `out`.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self) }
        }
        #[inline(always)]
        fn codes(c: &[i16; WIDTH]) -> Self {
            // SAFETY: AVX2; the load reads the 8 codes (16 bytes) of `c`.
            unsafe { _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(c.as_ptr().cast()))) }
        }
        #[inline(always)]
        fn ints(x: &[i32; WIDTH]) -> Self {
            // SAFETY: AVX2; the load reads the 8 integers of `x`.
            unsafe { _mm256_cvtepi32_ps(_mm256_loadu_si256(x.as_ptr().cast())) }
        }
        #[inline(always)]
        fn fmadd(self, b: Self, c: Self) -> Self {
            // SAFETY: the build targets FMA.
            unsafe { _mm256_fmadd_ps(self, b, c) }
        }
        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_add_ps(self, b) }
        }
        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_sub_ps(self, b) }
        }
        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_mul_ps(self, b) }
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self) }
        }
        #[inline(always)]
        fn min(self, b: Self) -> Self {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_min_ps(self, b) }
        }
        #[inline(always)]
        fn cmp<const P: i32>(self, b: Self) -> __m256 {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_cmp_ps::<P>(self, b) }
        }
        #[inline(always)]
        fn and(m: __m256, n: __m256) -> __m256 {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_and_ps(m, n) }
        }
        #[inline(always)]
        fn bits(m: __m256) -> u16 {
            // SAFETY: the build targets AVX2.
            unsafe { _mm256_movemask_ps(m) as u16 }
        }
    }
}

/// One multiply-accumulate step.
///
/// `f32::mul_add` is only a win when the target actually codegens an FMA
/// instruction; on baseline x86-64 (SSE2) it lowers to a **libm call**,
/// which is an order of magnitude slower than the loop it lives in. The
/// workspace builds with `target-cpu=native` (see `.cargo/config.toml`),
/// so machines with FMA take the fused path; anything else falls back to
/// separate multiply+add, which the independent lanes still let LLVM
/// vectorize. Either way the summation order is fixed; the chosen path is
/// part of the binary's deterministic identity (same binary → same bits),
/// which is all the repro guards require.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
#[inline(always)]
fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Reduces the lane accumulators plus a scalar tail in a fixed balanced
/// tree. One reduction order for every kernel — the bit-consistency
/// contract of the module.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
#[inline(always)]
fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

/// Unrolled dot product with [`LANES`] accumulators and fused
/// multiply-adds.
///
/// The operands must have equal length (checked in debug builds).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use std::arch::x86_64::*;
        let (a_chunks, a_rem) = a.as_chunks::<LANES>();
        let (b_chunks, b_rem) = b.as_chunks::<LANES>();
        let mut tail = 0.0f32;
        for (&x, &y) in a_rem.iter().zip(b_rem) {
            tail = x.mul_add(y, tail);
        }
        // SAFETY: the enclosing cfg guarantees the build targets AVX2 and
        // FMA, and each unaligned load reads exactly the eight floats of
        // one `&[f32; 8]` chunk.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            for (ca, cb) in a_chunks.iter().zip(b_chunks) {
                acc = _mm256_fmadd_ps(
                    _mm256_loadu_ps(ca.as_ptr()),
                    _mm256_loadu_ps(cb.as_ptr()),
                    acc,
                );
            }
            // The tree of `reduce`: (a0+a4, a1+a5, a2+a6, a3+a7) …
            let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
            // … then (s0+s1, _, s2+s3, _) …
            let t = _mm_add_ps(s, _mm_shuffle_ps(s, s, 0b10_11_00_01));
            // … then (s0+s1) + (s2+s3), then the tail.
            _mm_cvtss_f32(_mm_add_ss(t, _mm_movehl_ps(t, t))) + tail
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        dot_scalar(a, b)
    }
}

/// The portable body of [`dot`]: [`LANES`] scalar accumulators reduced by
/// [`reduce`]. The vector body must match it bit for bit.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            acc[l] = fmadd(ca[l], cb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_rem.iter().zip(b_rem) {
        tail = fmadd(x, y, tail);
    }
    reduce(acc, tail)
}

/// Dense GEMV: fills `out[i] = dot(user, items[i·d .. (i+1)·d])` for the
/// row-major `out.len() × user.len()` table `items`.
///
/// The user row stays resident in registers/L1 while the item table
/// streams through once — the blocked form of Algorithm 1 line 4.
#[inline]
pub fn gemv(user: &[f32], items: &[f32], out: &mut [f32]) {
    let d = user.len();
    debug_assert_eq!(
        items.len(),
        d * out.len(),
        "item table shape does not match user dim × out len"
    );
    for (slot, row) in out.iter_mut().zip(items.chunks_exact(d.max(1))) {
        *slot = dot(user, row);
    }
}

/// One dimension of a [`UserTile`]: its value for each user, one per
/// lane, aligned to its own size so that a register load of it never
/// straddles two cache lines (a split load halves the scan's load rate).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    repr(C, align(64))
)]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_feature = "avx512f")),
    repr(C, align(32))
)]
struct Column([f32; WIDTH]);

/// Up to [`WIDTH`] user rows copied dimension-major, one user per `f32`
/// lane: the tile [`tile_scan`] scores. Lane `t` of column `k` is
/// dimension `k` of user `t`; the lanes past the tile's users hold zeros.
/// Reusable: [`UserTile::set`] is allocation-free once the buffer holds a
/// tile of the dimension.
#[derive(Debug, Clone, Default)]
pub struct UserTile {
    cols: Vec<Column>,
    dim: usize,
    len: usize,
}

impl UserTile {
    /// Copies `rows` (at most [`WIDTH`], each of length `dim`) into the
    /// tile, in lane order.
    pub fn set<'a>(&mut self, dim: usize, rows: impl IntoIterator<Item = &'a [f32]>) {
        self.clear(dim);
        for row in rows {
            self.push(row);
        }
    }

    /// Empties the tile for users of dimension `dim`.
    fn clear(&mut self, dim: usize) {
        self.dim = dim;
        self.cols.clear();
        self.cols.resize(dim, Column([0.0; WIDTH]));
        self.len = 0;
    }

    /// Copies `row` into the next lane.
    fn push(&mut self, row: &[f32]) {
        let t = self.len;
        assert!(t < WIDTH, "a tile holds at most {WIDTH} users");
        assert_eq!(row.len(), self.dim, "user row dimension mismatch");
        for (col, &x) in self.cols.iter_mut().zip(row) {
            col.0[t] = x;
        }
        self.len = t + 1;
    }
}

/// Scores every user of `tile` against every row of the row-major item
/// table `items` and selects in the same pass: the ranking protocol's
/// loop.
///
/// Each lane `t` (user `t` of the tile) keeps a floor and starts *open*.
/// Rows arrive in ascending id order; for each row, lane by lane, the
/// score `dot(user t, row)` goes to `visit(t, id, score)` iff the lane is
/// open or the score is **strictly** greater than the lane's floor (a
/// NaN score is never greater). The visitor's answer sets the lane's
/// state: `Some(floor)` closes the lane at that floor, `None` keeps it
/// open, so an open lane sees every score, `−∞` and NaN included. This is
/// a top-k selection's admission rule: while the selection is not full
/// every candidate may enter, and once it is, with ids ascending, only a
/// score above the k-th best can. Lanes past the tile's users are never
/// visited.
///
/// Every score is bit for bit [`dot`]'s. The vector body holds the
/// tile's users in the [`WIDTH`] lanes of a register: it streams item rows
/// two at a time, accumulates `fma(user column k, broadcast(row[k]),
/// acc[k mod 8])` in [`dot`]'s chunk order, and reduces the eight
/// accumulators with [`dot`]'s tree as vertical adds (on AVX2, each half
/// of the tree in its own pass over the row), then adds [`dot`]'s tail
/// (`+ 0.0` when `d` is a multiple of eight, as in [`dot`]). The portable
/// body computes [`dot`]'s portable sum per lane. Both compare with the
/// same strict `>`.
pub fn tile_scan(
    tile: &UserTile,
    items: &[f32],
    mut visit: impl FnMut(usize, u32, f32) -> Option<f32>,
) {
    let d = tile.dim;
    let n = items.len().checked_div(d).unwrap_or(0);
    debug_assert_eq!(items.len(), n * d, "item table shape does not match d");
    if tile.len == 0 || n == 0 {
        return;
    }
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use simd::{Lanes, V};
        use std::arch::x86_64::_CMP_GT_OQ;
        // The user columns, one per dimension: in chunks of eight
        // dimensions, then the tail dimensions.
        let (user_chunks, user_tail) = tile.cols.as_chunks::<LANES>();
        let row = |i: usize| &items[i * d..(i + 1) * d];
        let active = first_lanes(tile.len);
        let (mut floors, mut open) = ([0.0f32; WIDTH], active);
        let mut scores = [0.0f32; WIDTH];
        let mut floor = V::load(&floors);
        for i in (0..n).step_by(2) {
            // An odd last row pairs with itself; its copy is not visited.
            let (r0, r1) = (row(i), row((i + 1).min(n - 1)));
            let (c0, t0) = r0.as_chunks::<LANES>();
            let (c1, t1) = r1.as_chunks::<LANES>();
            // `dot`'s tree in its two halves, `(a0 + a4) + (a1 + a5)` and
            // `(a2 + a6) + (a3 + a7)`. AVX-512 has thirty-two vector
            // registers: the eight accumulators of both rows, the column
            // and two broadcasts fit, so one pass over the chunks sums both
            // halves. AVX2 has sixteen, so each half takes its own pass
            // with four accumulators per row live.
            #[cfg(target_feature = "avx512f")]
            let ([p0, q0], [p1, q1]) =
                tree_halves([[0, 4, 1, 5], [2, 6, 3, 7]], user_chunks, c0, c1);
            #[cfg(not(target_feature = "avx512f"))]
            let (([p0], [p1]), ([q0], [q1])) = (
                tree_halves([[0, 4, 1, 5]], user_chunks, c0, c1),
                tree_halves([[2, 6, 3, 7]], user_chunks, c0, c1),
            );
            let (mut s0, mut s1) = (V::zero(), V::zero());
            for ((u, &x0), &x1) in user_tail.iter().zip(t0).zip(t1) {
                let w = V::load(&u.0);
                s0 = w.fmadd(V::splat(x0), s0);
                s1 = w.fmadd(V::splat(x1), s1);
            }
            let pair = [p0.add(q0).add(s0), p1.add(q1).add(s1)];
            for (id, s) in (i..n.min(i + 2)).zip(pair) {
                let above = V::bits(s.cmp::<_CMP_GT_OQ>(floor));
                let lanes = (above | open) & active;
                if lanes != 0 {
                    s.store(&mut scores);
                    visit_lanes(
                        id as u32,
                        lanes,
                        &scores,
                        &mut floors,
                        &mut open,
                        &mut visit,
                    );
                    floor = V::load(&floors);
                }
            }
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    tile_scan_scalar(tile, items, &mut visit);
}

/// Halves of [`dot`]'s tree for two item rows (chunks `c0`, `c1`) against
/// the tile's user columns, summed in one pass over the chunks: for each
/// `halves[h] = [i, j, k, l]`, each row's `(a_i + a_j) + (a_k + a_l)`,
/// where `a_m` accumulates lane `m` of every chunk.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[inline(always)]
fn tree_halves<const H: usize>(
    halves: [[usize; 4]; H],
    users: &[[Column; LANES]],
    c0: &[[f32; LANES]],
    c1: &[[f32; LANES]],
) -> ([simd::V; H], [simd::V; H]) {
    use simd::{Lanes, V};
    let mut a0 = [[V::zero(); 4]; H];
    let mut a1 = [[V::zero(); 4]; H];
    for ((u, h0), h1) in users.iter().zip(c0).zip(c1) {
        for (half, chains) in halves.iter().enumerate() {
            for (j, &l) in chains.iter().enumerate() {
                let w = V::load(&u[l].0);
                a0[half][j] = w.fmadd(V::splat(h0[l]), a0[half][j]);
                a1[half][j] = w.fmadd(V::splat(h1[l]), a1[half][j]);
            }
        }
    }
    let tree = |a: [V; 4]| a[0].add(a[1]).add(a[2].add(a[3]));
    (a0.map(tree), a1.map(tree))
}

/// The portable body of [`tile_scan`]: [`dot_scalar`]'s sum per lane,
/// read from the tile's columns, and the same strict compare.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
fn tile_scan_scalar(
    tile: &UserTile,
    items: &[f32],
    mut visit: impl FnMut(usize, u32, f32) -> Option<f32>,
) {
    let d = tile.dim;
    let (user_chunks, user_tail) = tile.cols.as_chunks::<LANES>();
    let (mut floors, mut open) = ([0.0f32; WIDTH], first_lanes(tile.len));
    let mut scores = [0.0f32; WIDTH];
    for (id, row) in (0u32..).zip(items.chunks_exact(d.max(1))) {
        let (chunks, tail) = row.as_chunks::<LANES>();
        let mut lanes = 0u16;
        for (t, score) in scores.iter_mut().enumerate().take(tile.len) {
            let mut acc = [0.0f32; LANES];
            for (u, h) in user_chunks.iter().zip(chunks) {
                for l in 0..LANES {
                    acc[l] = fmadd(u[l].0[t], h[l], acc[l]);
                }
            }
            let mut rest = 0.0f32;
            for (u, &y) in user_tail.iter().zip(tail) {
                rest = fmadd(u.0[t], y, rest);
            }
            *score = reduce(acc, rest);
            lanes |= u16::from(open >> t & 1 == 1 || *score > floors[t]) << t;
        }
        if lanes != 0 {
            visit_lanes(id, lanes, &scores, &mut floors, &mut open, &mut visit);
        }
    }
}

/// Visits the lanes of `lanes` for row `id` in ascending order and
/// records each lane's answer (see [`tile_scan`]). Out of line: kept
/// apart, the visitor leaves the scan's row loop as tight as it is
/// without one.
#[inline(never)]
fn visit_lanes(
    id: u32,
    mut lanes: u16,
    scores: &[f32; WIDTH],
    floors: &mut [f32; WIDTH],
    open: &mut u16,
    visit: &mut impl FnMut(usize, u32, f32) -> Option<f32>,
) {
    while lanes != 0 {
        let t = lanes.trailing_zeros() as usize;
        match visit(t, id, scores[t]) {
            Some(floor) => {
                floors[t] = floor;
                *open &= !(1 << t);
            }
            None => *open |= 1 << t,
        }
        lanes &= lanes - 1;
    }
}

/// Gather-dot: fills `out[k] = dot(user, items[ids[k]])` for an arbitrary
/// id subset of the row-major item table — the batched
/// `Scorer::score_items` kernel behind `ScoreAccess::Candidates`.
#[inline]
pub fn gather_dots(user: &[f32], items: &[f32], ids: &[u32], out: &mut [f32]) {
    let d = user.len();
    debug_assert_eq!(ids.len(), out.len(), "one output slot per gathered id");
    for (slot, &i) in out.iter_mut().zip(ids) {
        let row = &items[i as usize * d..(i as usize + 1) * d];
        *slot = dot(user, row);
    }
}

/// Asks the CPU to start fetching `row`'s cache lines into cache without
/// waiting for them, so that a scattered row read soon after finds them
/// there. Prefetches are hints: they change no result. A no-op off
/// x86-64.
#[inline]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for x in row.iter().step_by(16).chain(row.last()) {
        // SAFETY: a prefetch reads nothing into a register and never
        // faults, and SSE, which provides it, is part of every x86-64
        // target.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                std::ptr::from_ref(x).cast(),
            )
        };
    }
}

/// Rows per block of the i8 serving codes: one 256-bit integer
/// multiply-add scores a dimension pair of eight rows.
pub const BLOCK_ROWS: usize = 8;

/// Rounds `x` up to the nearest `f32` (`+∞` above `f32::MAX`; NaN stays
/// NaN). The coded bounds are computed in `f64` and stored this way.
pub(crate) fn round_up_f32(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// `U ≥ (1 + 8·2⁻²⁴)·‖user‖₂ + 2⁻¹⁰⁰`, the user-side factor of the
/// per-row slack of [`coded_tile_counts`]: the norm is summed in `f64`,
/// inflated past its `f64` rounding error, then rounded up to `f32`.
/// `+∞` or NaN for a non-finite row, which makes every row of that user
/// ambiguous.
pub fn norm_bound(user: &[f32]) -> f32 {
    let sq: f64 = user.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    let f64_error = 1.0 + 4.0 * (user.len() as f64 + 8.0) * f64::EPSILON;
    let norm = sq.sqrt() * f64_error * (1.0 + 8.0 / (1u64 << 24) as f64);
    round_up_f32((norm + (-100f64).exp2()) * f64_error)
}

/// One block of [`WIDTH`] coded rows, as [`coded_tile_counts`] reads it
/// (laid out by `crate::coded::CodedRows`).
#[derive(Debug, Clone, Copy)]
pub struct CodedBlock<'a> {
    /// `d × WIDTH` i16 codes, dimension-major: `codes[k·WIDTH + l]` is
    /// dimension `k` of row `l`.
    pub codes: &'a [i16],
    /// Per-row scales `s`.
    pub scales: &'a [f32; WIDTH],
    /// Per-row bounds `B ≥ ‖h − ĥ‖₂ + γ(‖h‖₂ + ‖ĥ‖₂)`, `γ = γ_{d+2}`.
    pub bounds: &'a [f32; WIDTH],
    /// The rows that count, as a lane mask (the last block is padded).
    pub live: u16,
}

/// The user side of [`coded_tile_counts`]: up to [`WIDTH`] users, one per
/// lane, each with its [`norm_bound`] and thresholds of its own (lanes may
/// hold different numbers of thresholds). Reusable: [`CountTile::clear`]
/// and [`CountTile::push`] are allocation-free once the buffers hold a
/// tile of the size.
#[derive(Debug, Clone, Default)]
pub struct CountTile {
    users: UserTile,
    norms: [f32; WIDTH],
    /// Every lane's thresholds, lane after lane.
    thresholds: Vec<f32>,
    /// Lane `t`'s thresholds end at `ends[t]` (and start at `ends[t − 1]`,
    /// or 0).
    ends: [usize; WIDTH],
}

impl CountTile {
    /// Empties the tile for users of dimension `dim`.
    pub fn clear(&mut self, dim: usize) {
        self.users.clear(dim);
        self.thresholds.clear();
    }

    /// Adds a lane: `user` (of the tile's dimension) and its thresholds.
    /// A NaN threshold decides no row, so a lane with one gets a NaN norm,
    /// which leaves every row of the lane to the caller.
    pub fn push(&mut self, user: &[f32], thresholds: &[f32]) {
        let t = self.users.len;
        self.users.push(user);
        self.norms[t] = if thresholds.iter().any(|x| x.is_nan()) {
            f32::NAN
        } else {
            norm_bound(user)
        };
        self.thresholds.extend_from_slice(thresholds);
        self.ends[t] = self.thresholds.len();
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.users.len
    }

    /// The users' dimension.
    pub fn dim(&self) -> usize {
        self.users.dim
    }

    /// Whether the tile has no lanes.
    pub fn is_empty(&self) -> bool {
        self.users.len == 0
    }

    /// Every lane's thresholds, lane after lane: the layout of the counts
    /// [`coded_tile_counts`] adds to.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// The positions of lane `t`'s thresholds in [`CountTile::thresholds`].
    pub fn lane(&self, t: usize) -> Range<usize> {
        assert!(t < self.len(), "lane {t} of a {}-lane tile", self.len());
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        start..self.ends[t]
    }

    /// Whether lane `t` holds exactly `user` and `thresholds`, bit for bit.
    pub fn holds(&self, t: usize, user: &[f32], thresholds: &[f32]) -> bool {
        let bits = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        user.len() == self.users.dim
            && (self.users.cols.iter().zip(user)).all(|(c, x)| c.0[t].to_bits() == x.to_bits())
            && bits(&self.thresholds[self.lane(t)], thresholds)
    }
}

/// The coded count kernel: for a [`CountTile`] of users, each with its own
/// thresholds, decides `x ≤ t` for the rows of every coded block of
/// `blocks` from their i16 codes, and hands back, per lane, the rows it
/// cannot decide.
///
/// Row `l` of a block is coded as `ĥ = s·c` (see [`CodedBlock`]). For
/// each user `u` of the tile the kernel computes the approximate score
/// `a = s·Σₖ uₖcₖ` and the slack
///
/// ```text
/// b = (U·B) + 2⁻¹²⁶,   U = norm_bound(u) ≥ (1 + 8ε)‖u‖₂ + 2⁻¹⁰⁰,
/// ```
///
/// and counts, per threshold of that user's lane, the rows with `a ≤ t`
/// among the rows that every one of the lane's thresholds decides: those
/// with `|a − t| > b` for all of them. It adds the counts to `counts`
/// (laid out as [`CountTile::thresholds`]) and calls `open(block, lane,
/// rows)` with the other live rows of a block, as a lane mask, when there
/// are any; the caller scores them exactly. Rows outside a block's `live`
/// are neither counted nor handed back.
///
/// The block's codes are widened to `f32` once per dimension and serve
/// every user of the tile. Each user's sum has four chains, chain `c`
/// summing dimensions `4q + c` in ascending order and chain 0 then the
/// `d mod 4` tail dimensions, added as `(c₀ + c₁) + (c₂ + c₃)`: the same
/// operations whatever the tile's length, so a lane's `a`, and so its
/// open rows, are those of a tile of that user alone. A short tile keeps
/// all four chains of each user in flight (a tile of one is the former
/// one-user kernel's four-chain loop); a long one sums them a chain at a
/// time, with one accumulator per user.
///
/// **Why each decision is exact.** Let `x` be the exact kernel's score
/// `dot(u, h)` and `ε = 2⁻²⁴`. Any `f32` dot product of length d, in any
/// order, with or without FMA, is within `γ_d·Σ|uₖhₖ|` of the real one,
/// plus `2⁻¹⁵⁰` per rounding that underflows (Higham, *Accuracy and
/// Stability*, §3.1). So
///
/// ```text
/// |x − u·h|   ≤ γ_d·‖u‖‖h‖ + (d+1)·2⁻¹⁵⁰
/// |u·h − u·ĥ| ≤ ‖u‖·‖h − ĥ‖
/// |u·ĥ − a|   ≤ γ_{d+1}·‖u‖‖ĥ‖ + (s·(d+1)(1+ε) + 1)·2⁻¹⁵⁰
/// ```
///
/// (the last line is the sum `Σₖ uₖcₖ` of exact codes, then one multiply
/// by `s`), so `|x − a| ≤ ‖u‖·B + (d+2)·2⁻¹⁵⁰ + 2(d+2)·s·2⁻¹⁵⁰`. The
/// computed `b` takes two `f32` roundings, each at worst `(1 − ε)`
/// relative or `2⁻¹⁵⁰` absolute, so `b ≥ (1 − ε)²·U·B + (1 − ε)·(2⁻¹²⁶ −
/// 2⁻¹⁵⁰)`. The `(1 + 8ε)‖u‖` part of `U` covers `(1 + ε)‖u‖·B`; the
/// `2⁻¹⁰⁰` part covers the `s` term, because `B ≥ γ‖h‖ ≥ (d+2)·2⁻²⁴·max|hₖ|`
/// and `s ≤ (1 + ε)·max|hₖ| / 32767 + 2⁻¹⁴⁹`; `2⁻¹²⁶` covers the rest for
/// `d < 2²²`. So `b ≥ (1 + ε)` times the bound on `|x − a|`. The computed
/// `|a − t|` is at most `(1 + ε)` times the real one, so `|a − t| > b`
/// proves `|x − a| < |a − t|`: `x` lies on `a`'s side of `t`. (The slack
/// terms are normal numbers, not the subnormal `(d+2)·2⁻¹⁵⁰`, because
/// subnormal operands cost a microcode assist per instruction on x86;
/// they decide nothing any real score needs.) The argument holds for each
/// user and threshold on its own, so it covers every lane of a tile.
///
/// The bound assumes no overflow, so a row is always ambiguous when `a` is
/// not finite or `b ≥ 2¹⁰²`: `b ≥ γ_d·‖u‖‖h‖` keeps every partial sum of
/// `x` below `2¹²⁶`. Non-finite inputs land there too: a non-finite row
/// has `B = +∞`, a non-finite user `U = +∞` or NaN, and a NaN `a` or `t`
/// fails `|a − t| > b`.
///
/// **Bits.** `a` and `b` never reach a result — only the decisions do, and
/// those agree with `x ≤ t` exactly — so this kernel is outside the
/// module's bit contract: the vector body sums the four chains above and
/// the portable body one sum per lane, and their `a` may differ in the low
/// bits.
pub fn coded_tile_counts<'a>(
    tile: &CountTile,
    blocks: impl IntoIterator<Item = CodedBlock<'a>>,
    counts: &mut [u32],
    mut open: impl FnMut(usize, usize, u16),
) {
    debug_assert_eq!(
        counts.len(),
        tile.thresholds.len(),
        "one count per threshold"
    );
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        // One body per tile length, so that each user's chains live in
        // registers (see `chains`).
        macro_rules! by_len {
            ($($n:literal)*) => {
                match tile.len() {
                    $($n => {
                        for (b, block) in blocks.into_iter().enumerate() {
                            coded_tile_block::<$n, { chains($n) }>(tile, block, counts, |t, rows| {
                                open(b, t, rows)
                            });
                        }
                    })*
                    _ => {}
                }
            };
        }
        #[cfg(target_feature = "avx512f")]
        by_len!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        #[cfg(not(target_feature = "avx512f"))]
        by_len!(1 2 3 4 5 6 7 8);
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    for (index, block) in blocks.into_iter().enumerate() {
        debug_assert_eq!(block.codes.len(), tile.dim() * WIDTH);
        let (lanes, _) = block.codes.as_chunks::<WIDTH>();
        for t in 0..tile.len() {
            let mut sum = [0.0f32; WIDTH];
            for (row, col) in lanes.iter().zip(&tile.users.cols) {
                let uk = col.0[t];
                for (acc, &c) in sum.iter_mut().zip(row) {
                    *acc += uk * f32::from(c);
                }
            }
            let mut a = [0.0f32; WIDTH];
            let mut b = [0.0f32; WIDTH];
            for l in 0..WIDTH {
                a[l] = sum[l] * block.scales[l];
                b[l] = tile.norms[t] * block.bounds[l] + f32::MIN_POSITIVE;
                let ok = b[l] < SLACK_CAP && a[l].abs() < f32::INFINITY;
                if !ok {
                    b[l] = f32::INFINITY;
                }
            }
            let lane = tile.lane(t);
            let thresholds = &tile.thresholds[lane.clone()];
            let mut sure = first_lanes(WIDTH);
            for &th in thresholds {
                for l in 0..WIDTH {
                    // NaN gaps compare false: not sure.
                    let decided = (a[l] - th).abs() > b[l];
                    sure &= !(u16::from(!decided) << l);
                }
            }
            let keep = block.live & sure;
            if keep != 0 {
                for (count, &th) in counts[lane].iter_mut().zip(thresholds) {
                    let mut le = 0u16;
                    for (l, &al) in a.iter().enumerate() {
                        le |= u16::from(al <= th) << l;
                    }
                    *count += (le & keep).count_ones();
                }
            }
            let rows = block.live & !sure;
            if rows != 0 {
                open(index, t, rows);
            }
        }
    }
}

/// 2¹⁰²: past it the slack of [`coded_tile_counts`] no longer rules out
/// overflow in `x`.
const SLACK_CAP: f32 = f32::from_bits((127 + 102) << 23);

/// Chains a user of a `users`-long tile keeps in flight in
/// [`coded_tile_counts`]'s vector body: four while the tile's
/// accumulators fit beside the codes in the build's registers (sixteen
/// of AVX-512's thirty-two, eight of AVX2's sixteen), else two, else one.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
const fn chains(users: usize) -> usize {
    let regs = if cfg!(target_feature = "avx512f") {
        16
    } else {
        8
    };
    if 4 * users <= regs {
        4
    } else if 2 * users <= regs {
        2
    } else {
        1
    }
}

/// The vector body of [`coded_tile_counts`] for one block and a tile of
/// `T` users, each summing `C` of its four chains at a time; `open(t,
/// rows)` gets each lane's undecided rows.
///
/// Each lane's threshold stage counts `a ≤ t` over every live row while
/// it takes the smallest gap `min |a − t|`, then takes the counts of the
/// rows that gap leaves undecided back out: the rows `|a − t| > b` decides
/// for every threshold are those whose smallest gap exceeds `b` (no gap
/// is NaN: `a` is finite where the row is decided, and a lane with a NaN
/// threshold has a NaN `b`, see [`CountTile::push`]).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[inline(always)]
fn coded_tile_block<const T: usize, const C: usize>(
    tile: &CountTile,
    block: CodedBlock<'_>,
    counts: &mut [u32],
    mut open: impl FnMut(usize, u16),
) {
    use simd::{Lanes, V};
    use std::arch::x86_64::{_CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ};
    debug_assert_eq!(block.codes.len(), tile.dim() * WIDTH);
    let (codes, _) = block.codes.as_chunks::<WIDTH>();
    let (code_quads, code_tail) = codes.as_chunks::<4>();
    let (user_quads, user_tail) = tile.users.cols.as_chunks::<4>();
    // Chains `first .. first + C` of every user over the block.
    let run = |first: usize| {
        let mut acc = [[V::zero(); C]; T];
        for (rows, users) in code_quads.iter().zip(user_quads) {
            for c in 0..C {
                let x = V::codes(&rows[first + c]);
                for (t, acc) in acc.iter_mut().enumerate() {
                    acc[c] = V::splat(users[first + c].0[t]).fmadd(x, acc[c]);
                }
            }
        }
        if first == 0 {
            for (row, user) in code_tail.iter().zip(user_tail) {
                let x = V::codes(row);
                for (t, acc) in acc.iter_mut().enumerate() {
                    acc[0] = V::splat(user.0[t]).fmadd(x, acc[0]);
                }
            }
        }
        acc
    };
    // Every user's `(c₀ + c₁)` and `(c₂ + c₃)`, a run of chains at a time
    // (built element by element: a zeroed array this size would be a
    // memset per block).
    let sum = |x: [[V; C]; T], y: [[V; C]; T], i: usize, j: usize| -> [V; T] {
        std::array::from_fn(|t| x[t][i].add(y[t][j]))
    };
    let halves = match C {
        4 => {
            let all = run(0);
            [sum(all, all, 0, 1), sum(all, all, 2, 3)]
        }
        2 => {
            let (low, high) = (run(0), run(2));
            [sum(low, low, 0, 1), sum(high, high, 0, 1)]
        }
        _ => {
            let low = sum(run(0), run(1), 0, 0);
            [low, sum(run(2), run(3), 0, 0)]
        }
    };
    let scales = V::load(block.scales);
    let bounds = V::load(block.bounds);
    let live = block.live;
    for (t, half) in halves[0].iter().zip(&halves[1]).enumerate() {
        let a = half.0.add(*half.1).mul(scales);
        let b = V::splat(tile.norms[t])
            .mul(bounds)
            .add(V::splat(f32::MIN_POSITIVE));
        let ok = V::and(
            b.cmp::<_CMP_LT_OQ>(V::splat(SLACK_CAP)),
            a.abs().cmp::<_CMP_LT_OQ>(V::splat(f32::INFINITY)),
        );
        let lane = tile.lane(t);
        let thresholds = &tile.thresholds[lane.clone()];
        let counts = &mut counts[lane];
        let mut gap = V::splat(f32::INFINITY);
        for (count, &th) in counts.iter_mut().zip(thresholds) {
            let th = V::splat(th);
            gap = gap.min(a.sub(th).abs());
            *count += (V::bits(a.cmp::<_CMP_LE_OQ>(th)) & live).count_ones();
        }
        let rows = live & !V::bits(V::and(ok, gap.cmp::<_CMP_GT_OQ>(b)));
        if rows != 0 {
            for (count, &th) in counts.iter_mut().zip(thresholds) {
                *count -= (V::bits(a.cmp::<_CMP_LE_OQ>(V::splat(th))) & rows).count_ones();
            }
            open(t, rows);
        }
    }
}

/// The largest user code magnitude [`i8_block_open`] accepts at dimension
/// `d`: `min(32767, ⌊(2³¹ − 1) / (127·d)⌋)`, so that a sum of `d` products
/// of a user code and an i8 row code can never leave `i32`.
pub fn user_code_max(d: usize) -> i32 {
    let cap = i32::MAX as usize / (127 * d.max(1));
    cap.min(i16::MAX as usize) as i32
}

/// The user side of [`i8_block_open`]: i16 codes `q` with a scale `t`, so
/// `û = t·q`, and the two norms its slack needs.
#[derive(Debug, Clone, Copy)]
pub struct I8Query<'a> {
    /// The codes two to a word: dimension `2p` in the low 16 bits of
    /// `pairs[p]`, `2p + 1` in the high 16 (zero past an odd `d`). Every
    /// code is at most [`user_code_max`] in magnitude.
    pub pairs: &'a [i32],
    /// The scale `t`.
    pub scale: f32,
    /// `≥ (1 + 8ε)·‖u‖₂ + 2⁻¹⁰⁰` ([`norm_bound`]).
    pub norm: f32,
    /// `≥ (1 + 8ε)·‖u − û‖₂`.
    pub err: f32,
}

/// One block of [`BLOCK_ROWS`] rows of i8 serving codes, as
/// [`i8_block_open`] reads it (laid out by `crate::coded::I8Rows`).
#[derive(Debug, Clone, Copy)]
pub struct I8Block<'a> {
    /// `⌈d/2⌉ × 16` codes in dimension pairs: `codes[16p + 2l + j]` is
    /// dimension `2p + j` of row `l` (zero past an odd `d`).
    pub codes: &'a [i8],
    /// Per-row scales `s`: `ĥ = s·c`.
    pub scales: &'a [f32; BLOCK_ROWS],
    /// Per-row `B ≥ ‖h − ĥ‖₂ + γ_{d+2}·‖h‖₂ + γ₃·‖ĥ‖₂`.
    pub bounds: &'a [f32; BLOCK_ROWS],
    /// Per-row `N ≥ (1 + γ₃)·‖ĥ‖₂`.
    pub norms: &'a [f32; BLOCK_ROWS],
}

/// The serving pre-filter kernel: for one user and the eight rows of one
/// i8 block, returns the rows of `live` whose exact score could still
/// reach `floor`, as a lane mask. Every row it leaves out has
/// `dot(user, h) < floor`, strictly.
///
/// The integer dot `D = Σₖ qₖcₖ` is exact in `i32` (the codes are bounded
/// by [`user_code_max`]), so `û·ĥ = s·t·D` exactly. The kernel computes
/// `a = fl(D)·fl(s·t)` and the slack
///
/// ```text
/// b = (norm·B + err·N) + 2⁻⁹⁰
/// ```
///
/// and leaves a row out iff `fl(floor − a) > b`.
///
/// **Why that is exact.** Let `x = dot(u, h)` and `ε = 2⁻²⁴`. As for
/// [`coded_tile_counts`] (Higham, *Accuracy and Stability*, §3.1),
///
/// ```text
/// x − u·h   ≤ γ_d·‖u‖‖h‖ + (d+1)·2⁻¹⁵⁰
/// u·h − u·ĥ ≤ ‖u‖·‖h − ĥ‖
/// u·ĥ − û·ĥ ≤ ‖u − û‖·‖ĥ‖
/// û·ĥ − a   ≤ γ₃·‖û‖‖ĥ‖ + 2⁻¹¹⁷,   ‖û‖ ≤ ‖u‖ + ‖u − û‖
/// ```
///
/// (three roundings make `a`; an underflow of `s·t` costs at most
/// `|D|·2⁻¹⁵⁰ ≤ 2⁻¹¹⁹`). So `x − a ≤ ‖u‖·B + ‖u − û‖·N + 2⁻¹¹⁶`. The
/// computed `b` takes three roundings, each at worst `(1 − ε)` relative
/// or `2⁻¹⁵⁰` absolute, and the `(1 + 8ε)` in `norm` and `err` outweighs
/// them and one more `(1 + ε)`; so `b ≥ (1 + ε)·(x − a)`. The computed
/// `floor − a` is at most `(1 + ε)` times the real one when it exceeds
/// `b ≥ 2⁻⁹¹`, so `fl(floor − a) > b` proves `floor − a > x − a`.
///
/// As there, the bound assumes no overflow, so a row is always kept when
/// `a` is not finite or `b ≥ 2¹⁰²`, and non-finite inputs land there: a
/// non-finite row has `B = +∞`, a non-finite user `norm` or `err` `+∞`
/// or NaN. A NaN or `−∞` floor keeps every row.
///
/// **Bits.** `D` is exact and `a`, `b` and the test are the same `f32`
/// operations, without fusion, in the AVX2 and the portable body, so both
/// bodies keep the same rows.
#[inline]
pub fn i8_block_open(user: I8Query<'_>, block: I8Block<'_>, floor: f32, live: u8) -> u8 {
    debug_assert_eq!(
        block.codes.len(),
        user.pairs.len() * 2 * BLOCK_ROWS,
        "one code per dimension pair and row"
    );
    // The absolute slack 2⁻⁹⁰.
    let tiny = f32::from_bits((127 - 90) << 23);
    let (pairs, _) = block.codes.as_chunks::<{ 2 * BLOCK_ROWS }>();
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use std::arch::x86_64::*;
        // SAFETY: the enclosing cfg guarantees the build targets AVX2; each
        // unaligned load reads exactly one `[i8; 16]` dimension pair of
        // codes (16 bytes) or one `[f32; 8]` of scales, bounds or norms.
        unsafe {
            let widen =
                |c: &[i8; 2 * BLOCK_ROWS]| _mm256_cvtepi8_epi16(_mm_loadu_si128(c.as_ptr().cast()));
            // Two accumulators halve the add chain; integer sums are exact
            // in any order.
            let mut acc = [_mm256_setzero_si256(); 2];
            let (duos, rest) = pairs.as_chunks::<2>();
            let (user_duos, user_rest) = user.pairs.as_chunks::<2>();
            for (c, q) in duos.iter().zip(user_duos) {
                for j in 0..2 {
                    let prod = _mm256_madd_epi16(widen(&c[j]), _mm256_set1_epi32(q[j]));
                    acc[j] = _mm256_add_epi32(acc[j], prod);
                }
            }
            for (c, &q) in rest.iter().zip(user_rest) {
                let prod = _mm256_madd_epi16(widen(c), _mm256_set1_epi32(q));
                acc[0] = _mm256_add_epi32(acc[0], prod);
            }
            let dots = _mm256_cvtepi32_ps(_mm256_add_epi32(acc[0], acc[1]));
            let st = _mm256_mul_ps(
                _mm256_loadu_ps(block.scales.as_ptr()),
                _mm256_set1_ps(user.scale),
            );
            let a = _mm256_mul_ps(dots, st);
            let b = _mm256_add_ps(
                _mm256_add_ps(
                    _mm256_mul_ps(
                        _mm256_set1_ps(user.norm),
                        _mm256_loadu_ps(block.bounds.as_ptr()),
                    ),
                    _mm256_mul_ps(
                        _mm256_set1_ps(user.err),
                        _mm256_loadu_ps(block.norms.as_ptr()),
                    ),
                ),
                _mm256_set1_ps(tiny),
            );
            let ok = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_LT_OQ>(b, _mm256_set1_ps(SLACK_CAP)),
                _mm256_cmp_ps::<_CMP_LT_OQ>(
                    _mm256_andnot_ps(_mm256_set1_ps(-0.0), a),
                    _mm256_set1_ps(f32::INFINITY),
                ),
            );
            let gap = _mm256_sub_ps(_mm256_set1_ps(floor), a);
            let out = _mm256_and_ps(ok, _mm256_cmp_ps::<_CMP_GT_OQ>(gap, b));
            live & !(_mm256_movemask_ps(out) as u8)
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        let mut dots = [0i32; BLOCK_ROWS];
        for (c, &q) in pairs.iter().zip(user.pairs) {
            let (q0, q1) = (i32::from(q as i16), q >> 16);
            for (l, dot) in dots.iter_mut().enumerate() {
                *dot += i32::from(c[2 * l]) * q0 + i32::from(c[2 * l + 1]) * q1;
            }
        }
        let mut out = 0u8;
        for (l, &dot) in dots.iter().enumerate() {
            let a = dot as f32 * (block.scales[l] * user.scale);
            let b = (user.norm * block.bounds[l] + user.err * block.norms[l]) + tiny;
            let ok = b < SLACK_CAP && a.abs() < f32::INFINITY;
            // NaN gaps compare false: the row stays.
            out |= u8::from(ok && floor - a > b) << l;
        }
        live & !out
    }
}

/// The largest user code magnitude [`q4_block_open`] accepts at dimension
/// `d`: `min(127, ⌊(2³¹ − 1) / (15·d)⌋)`, so that a sum of `d` products of
/// a user code and a nibble can never leave `i32`.
pub fn q4_user_code_max(d: usize) -> i32 {
    let cap = i32::MAX as usize / (15 * d.max(1));
    cap.min(i8::MAX as usize) as i32
}

/// The user side of [`q4_block_open`]: 8-bit codes `q` with a scale `t`,
/// so `û = t·q`, and the two norms its slack needs.
#[derive(Debug, Clone, Copy)]
pub struct Q4Query<'a> {
    /// The codes four to a word: dimension `4w + j` in byte `j` of
    /// `quads[w]`, two words per eight dimensions (zero past `d`). Every
    /// code is at most [`q4_user_code_max`] in magnitude.
    pub quads: &'a [i32],
    /// `8·Σₖ qₖ`, which takes the nibbles' offset back out of the dot.
    pub bias: i32,
    /// The scale `t`.
    pub scale: f32,
    /// `≥ (1 + 8ε)·‖u‖₂ + 2⁻¹⁰⁰` ([`norm_bound`]).
    pub norm: f32,
    /// `≥ (1 + 8ε)·‖u − û‖₂`.
    pub err: f32,
}

/// One block of [`WIDTH`] rows of 4-bit serving codes, as
/// [`q4_block_open`] reads it (laid out by `crate::coded::I8Rows`).
#[derive(Debug, Clone, Copy)]
pub struct Q4Block<'a> {
    /// `⌈d/8⌉` chunks of `4·WIDTH` bytes, one chunk per eight dimensions:
    /// byte `4l + j` of chunk `p` holds dimension `8p + j` of row `l` in
    /// its low nibble and dimension `8p + 4 + j` in its high nibble, each
    /// code `c ∈ [−8, 7]` stored as `c + 8` (8 past `d`).
    pub codes: &'a [u8],
    /// Per-row scales `s`: `ĥ = s·c`.
    pub scales: &'a [f32; WIDTH],
    /// Per-row `B ≥ ‖h − ĥ‖₂ + γ_{d+2}·‖h‖₂ + γ₃·‖ĥ‖₂`.
    pub bounds: &'a [f32; WIDTH],
    /// Per-row `N ≥ (1 + γ₃)·‖ĥ‖₂`.
    pub norms: &'a [f32; WIDTH],
}

/// The coarse stage of the serving pre-filter: [`i8_block_open`] over the
/// [`WIDTH`] rows of one block of 4-bit codes and an 8-bit-coded user.
/// Returns the rows of `live` whose exact score could still reach
/// `floor`, as a lane mask; every row it leaves out has `dot(user, h) <
/// floor`, strictly.
///
/// The integer dot `D = Σₖ qₖ·(cₖ + 8) − 8·Σₖ qₖ = Σₖ qₖcₖ` is exact: the
/// unsigned nibbles multiply the signed user codes in byte pairs
/// (`maddubs`, whose pair sums are at most 2·15·127 = 3,810 in magnitude,
/// so at most eight of them are added in `i16` before `madd` widens them
/// to `i32`), and [`q4_user_code_max`] keeps every sum in `i32`. The
/// bound stage is then [`i8_block_open`]'s word for word — `a = fl(D)·fl(s·t)`,
/// `b = (norm·B + err·N) + 2⁻⁹⁰`, a row left out iff `fl(floor − a) > b`
/// with `b < 2¹⁰²` and `a` finite — and so is its proof: it holds for any
/// codes `ĥ = s·c` with the `B` and `N` above, and the 4-bit rows and
/// 8-bit user supply exactly those (`|D| ≤ 2³¹` still bounds the
/// underflow of `s·t`).
///
/// **Bodies.** The integer dot has three: 512-bit `maddubs` + `madd` on
/// AVX-512BW builds (one register holds a chunk of all sixteen rows), the
/// same pair on 256-bit registers for each eight rows on other AVX2
/// builds, and a portable scalar loop. `D` is exact in each, and the
/// bound stage runs the same unfused `f32` operations in its vector and
/// its portable body, so every body keeps the same rows.
#[inline]
pub fn q4_block_open(user: Q4Query<'_>, block: Q4Block<'_>, floor: f32, live: u16) -> u16 {
    debug_assert_eq!(
        block.codes.len(),
        user.quads.len() * 2 * WIDTH,
        "one code byte per four dimensions and row"
    );
    debug_assert_eq!(live & !first_lanes(WIDTH), 0, "a live lane past WIDTH");
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
    let dots = q4_dots_avx512(user, block.codes);
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(target_feature = "avx512bw")
    ))]
    let dots = q4_dots_avx2(user, block.codes);
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    let dots = q4_dots_scalar(user, block.codes);
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        q4_open_lanes(user, block, &dots, floor, live)
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        q4_open_lanes_scalar(user, block, &dots, floor, live)
    }
}

/// The AVX-512BW body of [`q4_block_open`]'s integer dot: each 64-byte
/// chunk holds eight dimensions of all sixteen rows.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
#[inline(always)]
fn q4_dots_avx512(user: Q4Query<'_>, codes: &[u8]) -> [i32; WIDTH] {
    use std::arch::x86_64::*;
    let (chunks, _) = codes.as_chunks::<{ 4 * WIDTH }>();
    let (words, _) = user.quads.as_chunks::<2>();
    let mut dots = [0i32; WIDTH];
    // SAFETY: the enclosing cfg guarantees the build targets AVX-512BW
    // (and so AVX-512F); each unaligned load reads exactly one 64-byte
    // chunk, and the store writes the sixteen integers of `dots`.
    unsafe {
        let nibble = _mm512_set1_epi8(0x0F);
        // Up to four chunks add eight pair sums into each `i16` lane: at
        // most 8·3,810 = 30,480 in magnitude. Then `madd` widens them.
        let group = |acc, chunks: &[[u8; 4 * WIDTH]], words: &[[i32; 2]]| {
            let mut sums = [_mm512_setzero_si512(); 2];
            for (c, q) in chunks.iter().zip(words) {
                let x = _mm512_loadu_si512(c.as_ptr().cast());
                let low = _mm512_and_si512(x, nibble);
                let high = _mm512_and_si512(_mm512_srli_epi16::<4>(x), nibble);
                let pair = |n, q| _mm512_maddubs_epi16(n, _mm512_set1_epi32(q));
                sums[0] = _mm512_add_epi16(sums[0], pair(low, q[0]));
                sums[1] = _mm512_add_epi16(sums[1], pair(high, q[1]));
            }
            let sum = _mm512_add_epi16(sums[0], sums[1]);
            _mm512_add_epi32(acc, _mm512_madd_epi16(sum, _mm512_set1_epi16(1)))
        };
        let (groups, rest) = chunks.as_chunks::<4>();
        let (word_groups, word_rest) = words.as_chunks::<4>();
        let mut acc = _mm512_setzero_si512();
        for (c, q) in groups.iter().zip(word_groups) {
            acc = group(acc, c, q);
        }
        if !rest.is_empty() {
            acc = group(acc, rest, word_rest);
        }
        let d = _mm512_sub_epi32(acc, _mm512_set1_epi32(user.bias));
        _mm512_storeu_si512(dots.as_mut_ptr().cast(), d);
    }
    dots
}

/// The AVX2 body of [`q4_block_open`]'s integer dot: the AVX-512 body's
/// steps on 256-bit registers, for each eight rows of the block in turn
/// (their 32 bytes of each chunk).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    any(test, not(target_feature = "avx512bw"))
))]
#[inline(always)]
fn q4_dots_avx2(user: Q4Query<'_>, codes: &[u8]) -> [i32; WIDTH] {
    use std::arch::x86_64::*;
    let (chunks, _) = codes.as_chunks::<{ 4 * WIDTH }>();
    let (words, _) = user.quads.as_chunks::<2>();
    let mut dots = [0i32; WIDTH];
    for (half, out) in dots.as_chunks_mut::<8>().0.iter_mut().enumerate() {
        // SAFETY: the enclosing cfg guarantees the build targets AVX2; each
        // unaligned load reads the 32 bytes of one chunk that hold rows
        // `8·half ..`, and the store writes the eight integers of `out`.
        unsafe {
            let nibble = _mm256_set1_epi8(0x0F);
            let group = |acc, chunks: &[[u8; 4 * WIDTH]], words: &[[i32; 2]]| {
                let mut sums = [_mm256_setzero_si256(); 2];
                for (c, q) in chunks.iter().zip(words) {
                    let x = _mm256_loadu_si256(c[32 * half..].as_ptr().cast());
                    let low = _mm256_and_si256(x, nibble);
                    let high = _mm256_and_si256(_mm256_srli_epi16::<4>(x), nibble);
                    let pair = |n, q| _mm256_maddubs_epi16(n, _mm256_set1_epi32(q));
                    sums[0] = _mm256_add_epi16(sums[0], pair(low, q[0]));
                    sums[1] = _mm256_add_epi16(sums[1], pair(high, q[1]));
                }
                let sum = _mm256_add_epi16(sums[0], sums[1]);
                _mm256_add_epi32(acc, _mm256_madd_epi16(sum, _mm256_set1_epi16(1)))
            };
            let (groups, rest) = chunks.as_chunks::<4>();
            let (word_groups, word_rest) = words.as_chunks::<4>();
            let mut acc = _mm256_setzero_si256();
            for (c, q) in groups.iter().zip(word_groups) {
                acc = group(acc, c, q);
            }
            if !rest.is_empty() {
                acc = group(acc, rest, word_rest);
            }
            let d = _mm256_sub_epi32(acc, _mm256_set1_epi32(user.bias));
            _mm256_storeu_si256(out.as_mut_ptr().cast(), d);
        }
    }
    dots
}

/// The portable body of [`q4_block_open`]'s integer dot.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
fn q4_dots_scalar(user: Q4Query<'_>, codes: &[u8]) -> [i32; WIDTH] {
    let (chunks, _) = codes.as_chunks::<{ 4 * WIDTH }>();
    let (words, _) = user.quads.as_chunks::<2>();
    let mut dots = [0i32; WIDTH];
    for (c, q) in chunks.iter().zip(words) {
        let (low, high) = (q[0].to_le_bytes(), q[1].to_le_bytes());
        for (l, dot) in dots.iter_mut().enumerate() {
            for j in 0..4 {
                let byte = c[4 * l + j];
                *dot += i32::from(byte & 0x0F) * i32::from(low[j] as i8)
                    + i32::from(byte >> 4) * i32::from(high[j] as i8);
            }
        }
    }
    dots.map(|dot| dot - user.bias)
}

/// The vector bound stage of [`q4_block_open`]: [`i8_block_open`]'s on
/// [`WIDTH`] lanes.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[inline(always)]
fn q4_open_lanes(
    user: Q4Query<'_>,
    block: Q4Block<'_>,
    dots: &[i32; WIDTH],
    floor: f32,
    live: u16,
) -> u16 {
    use simd::{Lanes, V};
    use std::arch::x86_64::{_CMP_GT_OQ, _CMP_LT_OQ};
    // The absolute slack 2⁻⁹⁰.
    let tiny = f32::from_bits((127 - 90) << 23);
    let st = V::load(block.scales).mul(V::splat(user.scale));
    let a = V::ints(dots).mul(st);
    let b = V::splat(user.norm)
        .mul(V::load(block.bounds))
        .add(V::splat(user.err).mul(V::load(block.norms)))
        .add(V::splat(tiny));
    let ok = V::and(
        b.cmp::<_CMP_LT_OQ>(V::splat(SLACK_CAP)),
        a.abs().cmp::<_CMP_LT_OQ>(V::splat(f32::INFINITY)),
    );
    let gap = V::splat(floor).sub(a);
    live & !V::bits(V::and(ok, gap.cmp::<_CMP_GT_OQ>(b)))
}

/// The portable bound stage of [`q4_block_open`]: [`i8_block_open`]'s
/// portable one on [`WIDTH`] lanes.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
))]
fn q4_open_lanes_scalar(
    user: Q4Query<'_>,
    block: Q4Block<'_>,
    dots: &[i32; WIDTH],
    floor: f32,
    live: u16,
) -> u16 {
    let tiny = f32::from_bits((127 - 90) << 23);
    let mut out = 0u16;
    for (l, &dot) in dots.iter().enumerate() {
        let a = dot as f32 * (block.scales[l] * user.scale);
        let b = (user.norm * block.bounds[l] + user.err * block.norms[l]) + tiny;
        let ok = b < SLACK_CAP && a.abs() < f32::INFINITY;
        // NaN gaps compare false: the row stays.
        out |= u16::from(ok && floor - a > b) << l;
    }
    live & !out
}

/// One BPR SGD step over the three rows of a triple `(u, i, j)` with
/// gradient magnitude `g = info(j)` (Rendle et al., UAI 2009):
///
/// ```text
/// wᵤ += α (g·(hᵢ − hⱼ) − λ wᵤ)
/// hᵢ += α (g·wᵤ        − λ hᵢ)
/// hⱼ += α (−g·wᵤ       − λ hⱼ)
/// ```
///
/// All three writes use the pre-update values of the current dimension.
/// This is the **one** copy of the per-triple update arithmetic: both
/// `MatrixFactorization::accumulate_triple` and the `k = 1` rows of the
/// blocked `update_batch` path call it, which is what keeps the batched
/// trainer bitwise identical to the per-triple trace at `k = 1`.
#[inline]
pub fn bpr_step(wu: &mut [f32], hi: &mut [f32], hj: &mut [f32], g: f32, lr: f32, reg: f32) {
    let dim = wu.len();
    debug_assert_eq!(hi.len(), dim, "row dims must agree");
    debug_assert_eq!(hj.len(), dim, "row dims must agree");
    for k in 0..dim {
        let (wuk, hik, hjk) = (wu[k], hi[k], hj[k]);
        wu[k] += lr * (g * (hik - hjk) - reg * wuk);
        hi[k] += lr * (g * wuk - reg * hik);
        hj[k] += lr * (-g * wuk - reg * hjk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f64 scalar reference for accuracy checks.
    fn dot_ref(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
    }

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-alternating values in ~[-1, 1].
        (0..n)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(40503));
                ((h % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn dot_matches_reference_across_lengths() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100] {
            let a = pseudo(n, 1);
            let b = pseudo(n, 2);
            let got = dot(&a, &b) as f64;
            let want = dot_ref(&a, &b);
            let tol = 1e-5 * want.abs().max(1.0);
            assert!((got - want).abs() <= tol, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_exact_small_integers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn gemv_rows_are_bitwise_equal_to_dot() {
        let d = 32;
        let n = 17;
        let user = pseudo(d, 5);
        let table = pseudo(d * n, 6);
        let mut out = vec![0.0f32; n];
        gemv(&user, &table, &mut out);
        for i in 0..n {
            assert_eq!(
                out[i].to_bits(),
                dot(&user, &table[i * d..(i + 1) * d]).to_bits(),
                "row {i}"
            );
        }
    }

    /// Full-mantissa values in [-1, 1), so every FMA and add rounds and a
    /// changed operation order shows in the bits.
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

    #[test]
    fn kernels_are_bitwise_equal_to_the_scalar_body() {
        let n = 13;
        for d in 0..=100 {
            for seed in 1..=4u64 {
                let user = rough(d, seed);
                let table = rough(d * n, seed + 100);
                let row = |i: usize| &table[i * d..(i + 1) * d];
                let mut full = vec![f32::NAN; n];
                gemv(&user, &table, &mut full);
                for (i, got) in full.iter().enumerate() {
                    let want = dot_scalar(&user, row(i));
                    assert_eq!(
                        dot(&user, row(i)).to_bits(),
                        want.to_bits(),
                        "d={d} row {i}"
                    );
                    // A 0-column table has no rows for `gemv` to stream (and
                    // every model rejects d = 0), so its output is untouched.
                    if d > 0 {
                        assert_eq!(got.to_bits(), want.to_bits(), "gemv d={d} row {i}");
                    }
                }
                let ids = [3u32, 0, 12, 3, 7, 7, 3];
                let mut out = vec![f32::NAN; ids.len()];
                gather_dots(&user, &table, &ids, &mut out);
                for (got, &i) in out.iter().zip(&ids) {
                    let want = dot_scalar(&user, row(i as usize));
                    assert_eq!(got.to_bits(), want.to_bits(), "gather d={d} id {i}");
                }
                // Eight distinct users, then a short tile that repeats a
                // user, against all 13 rows (an odd count, so the last
                // row is scored on its own).
                let others: Vec<Vec<f32>> = (1..8).map(|s| rough(d, seed + 100 * s)).collect();
                let mut distinct = vec![&user[..]];
                distinct.extend(others.iter().map(|o| &o[..]));
                let repeated = [&user[..], &others[0], &user];
                for users in [&distinct[..], &repeated[..]] {
                    // As for `gemv`, a 0-column table has no rows.
                    if d > 0 {
                        assert_tile_scores_are_dot(users, &table, &format!("d={d}"));
                    }
                }
            }
        }
    }

    /// Every score each tile-scan body visits, with every lane kept open:
    /// `(lane, id, bits)` in visit order.
    fn tile_visits(users: &[&[f32]], table: &[f32], scalar: bool) -> Vec<(usize, u32, u32)> {
        let mut tile = UserTile::default();
        tile.set(users[0].len(), users.iter().copied());
        let mut seen = Vec::new();
        let visit = |t: usize, id: u32, s: f32| {
            seen.push((t, id, s.to_bits()));
            None
        };
        if scalar {
            tile_scan_scalar(&tile, table, visit);
        } else {
            tile_scan(&tile, table, visit);
        }
        seen
    }

    /// Pins both tile-scan bodies to `dot`: with every lane open each
    /// body visits every (row, lane) in row-then-lane order with `dot`'s
    /// bits.
    fn assert_tile_scores_are_dot(users: &[&[f32]], table: &[f32], what: &str) {
        let d = users[0].len();
        let want: Vec<(usize, u32, u32)> = (0u32..)
            .zip(table.chunks_exact(d))
            .flat_map(|(i, row)| {
                users
                    .iter()
                    .enumerate()
                    .map(move |(t, u)| (t, i, dot(u, row).to_bits()))
            })
            .collect();
        for scalar in [false, true] {
            assert_eq!(
                tile_visits(users, table, scalar),
                want,
                "{what}, scalar body {scalar}"
            );
        }
    }

    #[test]
    fn tile_scan_scores_are_dot_bit_for_bit() {
        // Rows with signed zeros, subnormals and 1e30-scale entries among
        // full-mantissa ones, at each dimension class: below a chunk, one
        // chunk, chunks plus a tail.
        let special = [0.0f32, -0.0, 1e-40, -3e-42, 1e30, -2e30, f32::MIN_POSITIVE];
        for d in [1usize, 7, 8, 13, 32, 33] {
            for n in [1usize, 2, 5, 9] {
                let mut table = rough(d * n, d as u64 + 7);
                for (x, &v) in table.iter_mut().step_by(3).zip(special.iter().cycle()) {
                    *x = v;
                }
                // A row of zeros and a row of negative zeros: their
                // scores are `+0.0` through `dot`'s tail, never `-0.0`.
                table[..d].iter_mut().for_each(|x| *x = -0.0);
                for len in 1..=LANES {
                    let rows: Vec<Vec<f32>> = (0..len)
                        .map(|t| {
                            let mut u = rough(d, 50 + t as u64);
                            if t % 3 == 1 {
                                u.iter_mut().step_by(2).for_each(|x| *x = 0.0);
                            }
                            if t % 4 == 2 {
                                u.iter_mut().for_each(|x| *x *= 1e-20);
                            }
                            u
                        })
                        .collect();
                    let users: Vec<&[f32]> = rows.iter().map(|r| &r[..]).collect();
                    assert_tile_scores_are_dot(&users, &table, &format!("d={d} n={n} len={len}"));
                }
            }
        }
    }

    #[test]
    fn tile_scan_visits_open_lanes_and_scores_above_the_floor() {
        // Each lane follows a different floor policy; both bodies must
        // visit exactly what the rule says, in order.
        let (d, n) = (13, 41);
        let table = rough(d * n, 3);
        let rows: Vec<Vec<f32>> = (0..5).map(|t| rough(d, 9 + t)).collect();
        let users: Vec<&[f32]> = rows.iter().map(|r| &r[..]).collect();
        // Lane t closes at the running max from its (t+1)-th visit on,
        // except lane 4, which reopens every third visit; lane 2 closes at
        // `-∞`, so every non-NaN score passes it.
        let policy = |t: usize, count: usize, best: f32| match t {
            2 => Some(f32::NEG_INFINITY),
            4 if count.is_multiple_of(3) => None,
            _ if count > t => Some(best),
            _ => None,
        };
        let run = |scalar: bool| {
            let mut tile = UserTile::default();
            tile.set(d, users.iter().copied());
            let (mut counts, mut best) = ([0usize; LANES], [f32::NEG_INFINITY; LANES]);
            let mut seen = Vec::new();
            let visit = |t: usize, id: u32, s: f32| {
                seen.push((t, id));
                counts[t] += 1;
                best[t] = best[t].max(s);
                policy(t, counts[t], best[t])
            };
            if scalar {
                tile_scan_scalar(&tile, &table, visit);
            } else {
                tile_scan(&tile, &table, visit);
            }
            seen
        };
        let mut want = Vec::new();
        let (mut counts, mut best) = ([0usize; LANES], [f32::NEG_INFINITY; LANES]);
        let mut state: [Option<f32>; LANES] = [None; LANES];
        for (i, row) in (0u32..).zip(table.chunks_exact(d)) {
            for (t, u) in users.iter().enumerate() {
                let s = dot(u, row);
                if state[t].is_none_or(|f| s > f) {
                    want.push((t, i));
                    counts[t] += 1;
                    best[t] = best[t].max(s);
                    state[t] = policy(t, counts[t], best[t]);
                }
            }
        }
        assert!(want.len() < 5 * n, "the floors pass some scores over");
        assert_eq!(run(false), want);
        assert_eq!(run(true), want);
    }

    #[test]
    fn tile_scan_never_visits_a_nan_above_a_floor_but_an_open_lane_sees_it() {
        let d = 9;
        let mut table = rough(d * 4, 5);
        table[0] = f32::NAN; // row 0, before any other score
        table[2 * d] = f32::INFINITY; // row 2
        let users = [vec![0.5f32; d], vec![-0.5f32; d]];
        let users: Vec<&[f32]> = users.iter().map(|u| &u[..]).collect();
        for scalar in [false, true] {
            // Lane 0 stays open; lane 1 closes at `-∞` after its first
            // visit.
            let mut tile = UserTile::default();
            tile.set(d, users.iter().copied());
            let mut seen = Vec::new();
            let visit = |t: usize, id: u32, s: f32| {
                seen.push((t, id, s));
                (t == 1).then_some(f32::NEG_INFINITY)
            };
            if scalar {
                tile_scan_scalar(&tile, &table, visit);
            } else {
                tile_scan(&tile, &table, visit);
            }
            let ids: Vec<(usize, u32)> = seen.iter().map(|&(t, i, _)| (t, i)).collect();
            // Both lanes start open, so both see row 0's NaN. Row 2
            // scores `+∞` for lane 0 and `-∞` for lane 1, which is not
            // above lane 1's floor.
            assert_eq!(
                ids,
                [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 3)],
                "scalar body {scalar}"
            );
            assert!(seen[0].2.is_nan() && seen[1].2.is_nan());
            assert_eq!(seen[4].2, f32::INFINITY);
        }
    }

    /// User `t` of a tile: a full-mantissa row, except in lanes 8 to 14
    /// (the upper half of a 16-lane register), which hold signed zeros,
    /// subnormals and 1e30-scale entries.
    fn lane_user(d: usize, t: usize) -> Vec<f32> {
        let mut u = rough(d, 80 + t as u64);
        match t {
            8 => u.iter_mut().for_each(|x| *x = -0.0),
            9 => u.iter_mut().for_each(|x| *x *= 1e-39),
            10 => u.iter_mut().for_each(|x| *x *= 1e30),
            11 => u.iter_mut().step_by(2).for_each(|x| *x = -0.0),
            12 => {
                u.iter_mut().for_each(|x| *x = 0.0);
                u[d - 1] = -3e-42;
            }
            13 => u.iter_mut().step_by(3).for_each(|x| *x = f32::MIN_POSITIVE),
            14 => u.iter_mut().for_each(|x| *x *= -2e29),
            _ => {}
        }
        u
    }

    #[test]
    fn every_tile_length_scores_dot_bit_for_bit() {
        // Odd dimensions (a tail after the chunks, or no chunk at all) and
        // rows with signed zeros, subnormals and 1e30-scale entries.
        let special = [-0.0f32, 0.0, 2e-41, -1e30, 1e-30, f32::MIN_POSITIVE];
        for d in [1usize, 3, 9, 15, 31, 33] {
            for n in [1usize, 2, 7] {
                let mut table = rough(d * n, d as u64 + 40);
                for (x, &v) in table
                    .iter_mut()
                    .skip(1)
                    .step_by(4)
                    .zip(special.iter().cycle())
                {
                    *x = v;
                }
                table[(n - 1) * d..].iter_mut().for_each(|x| *x = -0.0);
                let rows: Vec<Vec<f32>> = (0..WIDTH).map(|t| lane_user(d, t)).collect();
                for len in 1..=WIDTH {
                    let users: Vec<&[f32]> = rows[..len].iter().map(|r| &r[..]).collect();
                    assert_tile_scores_are_dot(&users, &table, &format!("d={d} n={n} len={len}"));
                }
            }
        }
    }

    #[test]
    fn every_lane_follows_the_floor_and_nan_rules() {
        // A full tile, each lane on its own floor policy: both bodies must
        // visit exactly what the rule says, in order. Row 2 scores NaN in
        // every lane, row 9 `±∞` or NaN, and the last user has a NaN entry,
        // so its lane scores NaN throughout.
        let (d, n) = (11, 37);
        let mut table = rough(d * n, 21);
        table[2 * d + 4] = f32::NAN;
        table[9 * d] = f32::INFINITY;
        let mut rows: Vec<Vec<f32>> = (0..WIDTH).map(|t| lane_user(d, t)).collect();
        rows[WIDTH - 1][2] = f32::NAN;
        let users: Vec<&[f32]> = rows.iter().map(|r| &r[..]).collect();
        // Lane t closes at its running max from its (t mod 4 + 1)-th
        // visit on; lanes 2, 7 and 12 close at `-∞`, and lanes 4, 10 and
        // 15 reopen on every third visit.
        let policy = |t: usize, count: usize, best: f32| match t % 5 {
            2 => Some(f32::NEG_INFINITY),
            _ if t % 6 == 4 && count.is_multiple_of(3) => None,
            _ if count > t % 4 => Some(best),
            _ => None,
        };
        let run = |scalar: bool| {
            let mut tile = UserTile::default();
            tile.set(d, users.iter().copied());
            let (mut counts, mut best) = ([0usize; WIDTH], [f32::NEG_INFINITY; WIDTH]);
            let mut seen = Vec::new();
            let visit = |t: usize, id: u32, s: f32| {
                seen.push((t, id, s.to_bits()));
                counts[t] += 1;
                best[t] = best[t].max(s);
                policy(t, counts[t], best[t])
            };
            if scalar {
                tile_scan_scalar(&tile, &table, visit);
            } else {
                tile_scan(&tile, &table, visit);
            }
            seen
        };
        let mut want = Vec::new();
        let (mut counts, mut best) = ([0usize; WIDTH], [f32::NEG_INFINITY; WIDTH]);
        let mut state: [Option<f32>; WIDTH] = [None; WIDTH];
        for (i, row) in (0u32..).zip(table.chunks_exact(d)) {
            for (t, u) in users.iter().enumerate() {
                let s = dot(u, row);
                if state[t].is_none_or(|f| s > f) {
                    want.push((t, i, s.to_bits()));
                    counts[t] += 1;
                    best[t] = best[t].max(s);
                    state[t] = policy(t, counts[t], best[t]);
                }
            }
        }
        assert!(want.len() < WIDTH * n, "the floors pass some scores over");
        // Open lanes see row 2's NaN; the NaN lane is visited only while
        // it is open, then never again.
        assert!(want
            .iter()
            .any(|&(_, i, s)| i == 2 && f32::from_bits(s).is_nan()));
        let nan_lane = want.iter().filter(|&&(t, ..)| t == WIDTH - 1).count();
        let closes = (1..).find(|&c| policy(WIDTH - 1, c, f32::NEG_INFINITY).is_some());
        assert_eq!(Some(nan_lane), closes);
        assert_eq!(run(false), want);
        assert_eq!(run(true), want);
    }

    #[test]
    fn gather_dots_matches_gemv_subset() {
        let d = 16;
        let n = 40;
        let user = pseudo(d, 7);
        let table = pseudo(d * n, 8);
        let mut full = vec![0.0f32; n];
        gemv(&user, &table, &mut full);
        let ids = [0u32, 5, 5, 39, 17];
        let mut out = vec![0.0f32; ids.len()];
        gather_dots(&user, &table, &ids, &mut out);
        for (k, &i) in ids.iter().enumerate() {
            assert_eq!(out[k].to_bits(), full[i as usize].to_bits());
        }
    }

    /// The codes of a block of 4-bit rows with nibbles `nibbles[l][k]`
    /// (row `l`, dimension `k`), 8 past `d`, and the user words and bias of
    /// the 8-bit codes `q`, in the layouts of [`Q4Block`] and [`Q4Query`].
    fn q4_layout(d: usize, nibbles: &[Vec<u8>], q: &[i8]) -> (Vec<u8>, Vec<i32>, i32) {
        let chunks = d.div_ceil(8);
        let mut codes = vec![0x88u8; chunks * 4 * WIDTH];
        for (l, row) in nibbles.iter().enumerate() {
            for (k, &n) in row.iter().enumerate() {
                let byte = &mut codes[(k / 8) * 4 * WIDTH + 4 * l + k % 4];
                let shift = 4 * (k % 8 / 4);
                *byte = (*byte & !(0x0F << shift)) | (n << shift);
            }
        }
        let mut quads = vec![0i32; 2 * chunks];
        for (k, &c) in q.iter().enumerate() {
            quads[k / 4] |= (u32::from(c as u8) << (8 * (k % 4))) as i32;
        }
        let bias = 8 * q.iter().map(|&c| i32::from(c)).sum::<i32>();
        (codes, quads, bias)
    }

    #[test]
    fn q4_bodies_agree_and_their_dot_is_exact() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for d in [1usize, 3, 7, 9, 33, 600] {
            assert_eq!(q4_user_code_max(d), 127, "d = {d}");
            // Extreme codes first (every nibble 0 or 15, every user code
            // ±127: the largest pair sums `maddubs` forms), then random.
            let mut cases: Vec<(Vec<Vec<u8>>, Vec<i8>)> = vec![
                (vec![vec![15; d]; WIDTH], vec![127; d]),
                (vec![vec![15; d]; WIDTH], vec![-127; d]),
                (
                    vec![vec![0; d]; WIDTH],
                    (0..d)
                        .map(|k| if k % 2 == 0 { 127 } else { -127 })
                        .collect(),
                ),
                (
                    (0..WIDTH)
                        .map(|l| {
                            (0..d)
                                .map(|k| if (l + k) % 2 == 0 { 15 } else { 0 })
                                .collect()
                        })
                        .collect(),
                    (0..d)
                        .map(|k| if k % 3 == 0 { -127 } else { 127 })
                        .collect(),
                ),
            ];
            for _ in 0..6 {
                let rows = (0..WIDTH)
                    .map(|_| (0..d).map(|_| next(16) as u8).collect())
                    .collect();
                cases.push((
                    rows,
                    (0..d).map(|_| (next(255) as i32 - 127) as i8).collect(),
                ));
            }
            for (case, (nibbles, q)) in cases.iter().enumerate() {
                let what = format!("d = {d}, case {case}");
                let (codes, quads, bias) = q4_layout(d, nibbles, q);
                let want: Vec<i64> = nibbles
                    .iter()
                    .map(|row| {
                        (row.iter().zip(q))
                            .map(|(&n, &c)| (i64::from(n) - 8) * i64::from(c))
                            .sum()
                    })
                    .collect();
                let mut scales = [1.0f32; WIDTH];
                let mut bounds = [0.0f32; WIDTH];
                scales[3] = 0.5;
                scales[5] = f32::MAX; // `a` overflows: the row stays
                bounds[1] = f32::INFINITY;
                bounds[2] = 3.0;
                let norms = [0.0f32; WIDTH];
                let user = Q4Query {
                    quads: &quads,
                    bias,
                    scale: 1.0,
                    norm: 1.0,
                    err: 0.0,
                };
                let block = Q4Block {
                    codes: &codes,
                    scales: &scales,
                    bounds: &bounds,
                    norms: &norms,
                };
                let scalar = q4_dots_scalar(user, &codes);
                let mut bodies = vec![("portable", scalar)];
                #[cfg(all(
                    target_arch = "x86_64",
                    target_feature = "avx2",
                    target_feature = "fma"
                ))]
                bodies.push(("avx2", q4_dots_avx2(user, &codes)));
                #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
                bodies.push(("avx512", q4_dots_avx512(user, &codes)));
                for (body, dots) in &bodies {
                    let got: Vec<i64> = dots.iter().map(|&x| i64::from(x)).collect();
                    assert_eq!(got, want, "{what}: {body} dot");
                }
                let floors = [
                    want[0] as f32,
                    want[0] as f32 + 1.0,
                    want[4] as f32 - 1.0,
                    want[6] as f32 + 4.0,
                    0.0,
                    f32::NEG_INFINITY,
                    f32::INFINITY,
                    f32::NAN,
                ];
                // Every lane, none, alternate lanes, and the five live rows
                // of a padded last block.
                let lives = [
                    first_lanes(WIDTH),
                    0,
                    0xAAAA & first_lanes(WIDTH),
                    first_lanes(5),
                ];
                for &floor in &floors {
                    for &live in &lives {
                        let mask = q4_open_lanes_scalar(user, block, &scalar, floor, live);
                        #[cfg(all(
                            target_arch = "x86_64",
                            target_feature = "avx2",
                            target_feature = "fma"
                        ))]
                        for (body, dots) in &bodies {
                            let vector = q4_open_lanes(user, block, dots, floor, live);
                            assert_eq!(vector, mask, "{what}: {body} at {floor}, {live:b}");
                        }
                        assert_eq!(q4_block_open(user, block, floor, live), mask, "{what}");
                        assert_eq!(mask & !live, 0, "{what}: a shut lane opened");
                        // Lane 0 (scale 1, zero bound): open at its own
                        // score, passed over one above it.
                        if live & 1 == 1 && floor == want[0] as f32 {
                            assert_eq!(mask & 1, 1, "{what}");
                        }
                        if live & 1 == 1 && floor == want[0] as f32 + 1.0 {
                            assert_eq!(mask & 1, 0, "{what}");
                        }
                        // The infinite bound and an overflowing `a` keep
                        // their rows; so does every row at a NaN or `−∞`
                        // floor.
                        let kept = if want[5] == 0 { 0b10 } else { 0b10_0010 };
                        assert_eq!(mask & live & kept, live & kept, "{what}");
                        if floor.is_nan() || floor == f32::NEG_INFINITY {
                            assert_eq!(mask, live, "{what} at {floor}");
                        }
                    }
                }
            }
        }
    }
}
