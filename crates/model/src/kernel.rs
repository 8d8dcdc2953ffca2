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
//! * [`tile_scan`] — a [`UserTile`] of up to [`LANES`] users, one per
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
//! blocked pass, and the one that lets evaluation score eight users at a
//! time.
//!
//! One more entry point sits **outside** that bit contract:
//! [`coded_block_counts`] scores a block of eight rows of
//! [`crate::coded::CodedRows`] (i16 codes, a per-row scale and error
//! bound) and decides `dot(user, row) ≤ t` for a set of thresholds from
//! an approximate score and a rigorous bound on its error, handing back
//! the rows it cannot decide for an exact re-score. Its approximate
//! scores never reach a result, only its decisions, which equal the exact
//! kernel's comparisons; so its vector and portable bodies may round
//! differently. It runs BNS's coded Eq. 16 pass. [`i8_block_open`] is its
//! serving counterpart: over eight rows of [`crate::coded::I8Rows`] (i8
//! codes) and an i16-coded user it proves, from an exact integer dot and
//! a rigorous slack, which rows score strictly below a floor, and hands
//! back the rest for an exact re-score. It runs exact serving's scan.
//!
//! **The ISA is chosen at build time.** When the build targets x86-64
//! with AVX2 and FMA (the workspace builds with `target-cpu=native`, see
//! `.cargo/config.toml`), [`dot`] runs one 256-bit FMA per 8-lane chunk
//! into one vector accumulator and reduces it with SSE adds and shuffles,
//! and [`tile_scan`] runs the same FMAs with eight users in the lanes of
//! each accumulator and reduces them with the same tree as vertical adds;
//! every other build runs the portable scalar bodies. The summation
//! order is the same in all of them — per-lane multiply-adds, the same
//! reduction tree, the same tail — so on any build with FMA the vector
//! bodies are bit for bit the scalar body, and the training trace does
//! not depend on which body that build picked. A build without FMA runs
//! the scalar body with a separate multiply and add (see `fmadd`), so its
//! scores differ from an FMA build's in the low bits: like every build, it
//! is reproducible per binary (same binary, same bits), not across ISAs.
//! The unit tests pin the vector bodies to the scalar one bit for bit;
//! accuracy against an `f64` scalar reference is property-tested here and
//! in `tests/proptests.rs` (≤ 1e-5 relative).

/// Number of independent accumulators in the unrolled kernels, and of
/// users in a [`UserTile`].
pub const LANES: usize = 8;

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

/// Up to [`LANES`] user rows copied dimension-major, one user per `f32`
/// lane: the tile [`tile_scan`] scores. `cols[k·LANES + t]` is dimension
/// `k` of user `t`; the lanes past the tile's users hold zeros.
/// Reusable: [`UserTile::set`] is allocation-free once the buffer holds a
/// tile of the dimension.
#[derive(Debug, Clone, Default)]
pub struct UserTile {
    cols: Vec<f32>,
    dim: usize,
    len: usize,
}

impl UserTile {
    /// Copies `rows` (at most [`LANES`], each of length `dim`) into the
    /// tile, in lane order.
    pub fn set<'a>(&mut self, dim: usize, rows: impl IntoIterator<Item = &'a [f32]>) {
        self.dim = dim;
        self.cols.clear();
        self.cols.resize(dim * LANES, 0.0);
        self.len = 0;
        for (t, row) in rows.into_iter().enumerate() {
            assert!(t < LANES, "a tile holds at most {LANES} users");
            assert_eq!(row.len(), dim, "user row dimension mismatch");
            for (k, &x) in row.iter().enumerate() {
                self.cols[k * LANES + t] = x;
            }
            self.len = t + 1;
        }
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
/// Every score is bit for bit [`dot`]'s. The vector body holds eight
/// users in the eight lanes of a register: it streams item rows two at a
/// time, accumulates `fma(user column k, broadcast(row[k]), acc[k mod
/// 8])` in [`dot`]'s chunk order, and reduces the eight accumulators with
/// [`dot`]'s tree as vertical adds (each half of the tree in its own pass
/// over the row), then adds [`dot`]'s tail (`+ 0.0` when `d` is a
/// multiple of eight, as in [`dot`]). The portable body computes
/// [`dot`]'s portable sum per lane. Both compare with the same strict `>`.
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
        use std::arch::x86_64::*;
        let k = d / LANES;
        // The user columns of one chunk of eight dimensions, and of the
        // tail dimensions.
        let (user_chunks, user_tail) = tile.cols.as_chunks::<{ LANES * LANES }>();
        let user_chunks = &user_chunks[..k];
        let user_tail = &user_tail.as_chunks::<LANES>().0[..d - k * LANES];
        let row = |i: usize| &items[i * d..(i + 1) * d];
        let active = u8::MAX >> (LANES - tile.len);
        let (mut floors, mut open) = ([0.0f32; LANES], active);
        let mut scores = [0.0f32; LANES];
        // SAFETY: the enclosing cfg guarantees the build targets AVX2 and
        // FMA; each unaligned load reads exactly the eight floats of one
        // `[f32; 8]` (a user column, `floors`), and each store writes the
        // eight floats of `scores`.
        unsafe {
            let mut floor = _mm256_loadu_ps(floors.as_ptr());
            for i in (0..n).step_by(2) {
                // An odd last row pairs with itself; its copy is not visited.
                let (r0, r1) = (row(i), row((i + 1).min(n - 1)));
                let (c0, t0) = r0.as_chunks::<LANES>();
                let (c1, t1) = r1.as_chunks::<LANES>();
                // `dot`'s tree in its two halves, `(a0 + a4) + (a1 + a5)`
                // and `(a2 + a6) + (a3 + a7)`, each summed in its own pass
                // over the chunks: four accumulators per row are live at a
                // time, which with the column and two broadcasts fits the
                // sixteen vector registers of AVX2 without a spill.
                let half = |chains: [usize; 4]| {
                    let mut a0 = [_mm256_setzero_ps(); 4];
                    let mut a1 = [_mm256_setzero_ps(); 4];
                    for ((u, h0), h1) in user_chunks.iter().zip(c0).zip(c1) {
                        for (j, &l) in chains.iter().enumerate() {
                            let w = _mm256_loadu_ps(u[l * LANES..].as_ptr());
                            a0[j] = _mm256_fmadd_ps(w, _mm256_set1_ps(h0[l]), a0[j]);
                            a1[j] = _mm256_fmadd_ps(w, _mm256_set1_ps(h1[l]), a1[j]);
                        }
                    }
                    let tree = |a: [__m256; 4]| {
                        _mm256_add_ps(_mm256_add_ps(a[0], a[1]), _mm256_add_ps(a[2], a[3]))
                    };
                    (tree(a0), tree(a1))
                };
                let (p0, p1) = half([0, 4, 1, 5]);
                let (q0, q1) = half([2, 6, 3, 7]);
                let (mut s0, mut s1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                for ((u, &x0), &x1) in user_tail.iter().zip(t0).zip(t1) {
                    let w = _mm256_loadu_ps(u.as_ptr());
                    s0 = _mm256_fmadd_ps(w, _mm256_set1_ps(x0), s0);
                    s1 = _mm256_fmadd_ps(w, _mm256_set1_ps(x1), s1);
                }
                let pair = [
                    _mm256_add_ps(_mm256_add_ps(p0, q0), s0),
                    _mm256_add_ps(_mm256_add_ps(p1, q1), s1),
                ];
                for (id, s) in (i..n.min(i + 2)).zip(pair) {
                    let above = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(s, floor)) as u8;
                    let lanes = (above | open) & active;
                    if lanes != 0 {
                        _mm256_storeu_ps(scores.as_mut_ptr(), s);
                        visit_lanes(
                            id as u32,
                            lanes,
                            &scores,
                            &mut floors,
                            &mut open,
                            &mut visit,
                        );
                        floor = _mm256_loadu_ps(floors.as_ptr());
                    }
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
    let (user_chunks, user_tail) = tile.cols.as_chunks::<{ LANES * LANES }>();
    let (mut floors, mut open) = ([0.0f32; LANES], u8::MAX >> (LANES - tile.len));
    let mut scores = [0.0f32; LANES];
    for (id, row) in (0u32..).zip(items.chunks_exact(d.max(1))) {
        let (chunks, tail) = row.as_chunks::<LANES>();
        let mut lanes = 0u8;
        for (t, score) in scores.iter_mut().enumerate().take(tile.len) {
            let mut acc = [0.0f32; LANES];
            for (u, h) in user_chunks.iter().zip(chunks) {
                for l in 0..LANES {
                    acc[l] = fmadd(u[l * LANES + t], h[l], acc[l]);
                }
            }
            let mut rest = 0.0f32;
            for (j, &y) in tail.iter().enumerate() {
                rest = fmadd(user_tail[j * LANES + t], y, rest);
            }
            *score = reduce(acc, rest);
            lanes |= u8::from(open >> t & 1 == 1 || *score > floors[t]) << t;
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
    mut lanes: u8,
    scores: &[f32; LANES],
    floors: &mut [f32; LANES],
    open: &mut u8,
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

/// Rows per block of the coded count kernel: one 8-lane FMA scores one
/// dimension of eight coded rows.
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
/// per-row slack of [`coded_block_counts`]: the norm is summed in `f64`,
/// inflated past its `f64` rounding error, then rounded up to `f32`.
/// `+∞` or NaN for a non-finite row, which makes every row of that user
/// ambiguous.
pub fn norm_bound(user: &[f32]) -> f32 {
    let sq: f64 = user.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    let f64_error = 1.0 + 4.0 * (user.len() as f64 + 8.0) * f64::EPSILON;
    let norm = sq.sqrt() * f64_error * (1.0 + 8.0 / (1u64 << 24) as f64);
    round_up_f32((norm + (-100f64).exp2()) * f64_error)
}

/// One block of [`BLOCK_ROWS`] coded rows, as [`coded_block_counts`]
/// reads it (laid out by `crate::coded::CodedRows`).
#[derive(Debug, Clone, Copy)]
pub struct CodedBlock<'a> {
    /// `d × 8` i16 codes, dimension-major: `codes[k·8 + l]` is dimension
    /// `k` of row `l`.
    pub codes: &'a [i16],
    /// Per-row scales `s`.
    pub scales: &'a [f32; BLOCK_ROWS],
    /// Per-row bounds `B ≥ ‖h − ĥ‖₂ + γ(‖h‖₂ + ‖ĥ‖₂)`, `γ = γ_{d+2}`.
    pub bounds: &'a [f32; BLOCK_ROWS],
}

/// The coded count kernel: for one user row and m `thresholds`, decides
/// `x ≤ t` for the eight rows of one coded block from their i16 codes, and
/// hands back the rows it cannot decide.
///
/// Row `l` of the block is coded as `ĥ = s·c` (see [`CodedBlock`]). The
/// kernel computes the approximate score `a = s·Σₖ uₖcₖ` and the slack
///
/// ```text
/// b = (U·B) + 2⁻¹²⁶,   U = norm_bound(user) ≥ (1 + 8ε)‖u‖₂ + 2⁻¹⁰⁰,
/// ```
///
/// and counts, per threshold, the rows with `a ≤ t` among the rows that
/// every threshold decides: those with `|a − t| > b` for all m `t`. It
/// returns the other rows of `live` as a lane mask; the caller scores
/// them exactly. Lanes outside `live` are neither counted nor returned.
///
/// **Why the decision is exact.** Let `x` be the exact kernel's score
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
/// they decide nothing any real score needs.)
///
/// The bound assumes no overflow, so a row is always ambiguous when `a` is
/// not finite or `b ≥ 2¹⁰²`: `b ≥ γ_d·‖u‖‖h‖` keeps every partial sum of
/// `x` below `2¹²⁶`. Non-finite inputs land there too: a non-finite row
/// has `B = +∞`, a non-finite user `U = +∞` or NaN, and a NaN `a` or `t`
/// fails `|a − t| > b`.
///
/// **Bits.** `a` and `b` never reach a result — only the decisions do, and
/// those agree with `x ≤ t` exactly — so this kernel is outside the
/// module's bit contract: the AVX2 body keeps four accumulators and the
/// portable body one sum per lane, and their `a` may differ in the low
/// bits.
#[inline]
pub fn coded_block_counts(
    user: &[f32],
    norm: f32,
    block: CodedBlock<'_>,
    thresholds: &[f32],
    live: u8,
    counts: &mut [u32],
) -> u8 {
    let d = user.len();
    debug_assert_eq!(
        block.codes.len(),
        d * BLOCK_ROWS,
        "one code per dimension and row"
    );
    debug_assert_eq!(thresholds.len(), counts.len(), "one count per threshold");
    // 2¹⁰²: past it the bound no longer rules out overflow in `x`.
    let cap = f32::from_bits((127 + 102) << 23);
    let (lanes, _) = block.codes.as_chunks::<BLOCK_ROWS>();
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use std::arch::x86_64::*;
        // SAFETY: the enclosing cfg guarantees the build targets AVX2 and
        // FMA; each unaligned load reads exactly one `[i16; 8]` row of
        // codes (16 bytes) or one `[f32; 8]` of scales or bounds.
        unsafe {
            let code = |row: &[i16; BLOCK_ROWS]| {
                _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm_loadu_si128(row.as_ptr().cast())))
            };
            // Four accumulators keep the FMA chain short; the order of the
            // sum is free (see **Bits**).
            let mut acc = [_mm256_setzero_ps(); 4];
            let (quads, rest) = lanes.as_chunks::<4>();
            let (user_quads, user_rest) = user.as_chunks::<4>();
            for (rows, us) in quads.iter().zip(user_quads) {
                for t in 0..4 {
                    acc[t] = _mm256_fmadd_ps(_mm256_set1_ps(us[t]), code(&rows[t]), acc[t]);
                }
            }
            for (row, &uk) in rest.iter().zip(user_rest) {
                acc[0] = _mm256_fmadd_ps(_mm256_set1_ps(uk), code(row), acc[0]);
            }
            let sum = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
            let a = _mm256_mul_ps(sum, _mm256_loadu_ps(block.scales.as_ptr()));
            let b = _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(norm), _mm256_loadu_ps(block.bounds.as_ptr())),
                _mm256_set1_ps(f32::MIN_POSITIVE),
            );
            let sign = _mm256_set1_ps(-0.0);
            let ok = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_LT_OQ>(b, _mm256_set1_ps(cap)),
                _mm256_cmp_ps::<_CMP_LT_OQ>(
                    _mm256_andnot_ps(sign, a),
                    _mm256_set1_ps(f32::INFINITY),
                ),
            );
            let b = _mm256_blendv_ps(_mm256_set1_ps(f32::INFINITY), b, ok);
            let mut sure_lanes = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
            for &t in thresholds {
                let gap = _mm256_andnot_ps(sign, _mm256_sub_ps(a, _mm256_set1_ps(t)));
                sure_lanes = _mm256_and_ps(sure_lanes, _mm256_cmp_ps::<_CMP_GT_OQ>(gap, b));
            }
            let sure = _mm256_movemask_ps(sure_lanes) as u8;
            let keep = live & sure;
            if keep != 0 {
                for (count, &t) in counts.iter_mut().zip(thresholds) {
                    let le = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(a, _mm256_set1_ps(t)));
                    *count += (le as u8 & keep).count_ones();
                }
            }
            live & !sure
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        let mut sum = [0.0f32; BLOCK_ROWS];
        for (row, &uk) in lanes.iter().zip(user) {
            for (acc, &c) in sum.iter_mut().zip(row) {
                *acc += uk * f32::from(c);
            }
        }
        let mut a = [0.0f32; BLOCK_ROWS];
        let mut b = [0.0f32; BLOCK_ROWS];
        for l in 0..BLOCK_ROWS {
            a[l] = sum[l] * block.scales[l];
            b[l] = norm * block.bounds[l] + f32::MIN_POSITIVE;
            let ok = b[l] < cap && a[l].abs() < f32::INFINITY;
            if !ok {
                b[l] = f32::INFINITY;
            }
        }
        let mut sure = 0xFFu8;
        for &t in thresholds {
            for l in 0..BLOCK_ROWS {
                // NaN gaps compare false: not sure.
                let decided = (a[l] - t).abs() > b[l];
                sure &= !(u8::from(!decided) << l);
            }
        }
        let keep = live & sure;
        if keep != 0 {
            for (count, &t) in counts.iter_mut().zip(thresholds) {
                let mut le = 0u8;
                for (l, &al) in a.iter().enumerate() {
                    le |= u8::from(al <= t) << l;
                }
                *count += (le & keep).count_ones();
            }
        }
        live & !sure
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
/// [`coded_block_counts`] (Higham, *Accuracy and Stability*, §3.1),
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
    // 2¹⁰², as in `coded_block_counts`, and the absolute slack 2⁻⁹⁰.
    let cap = f32::from_bits((127 + 102) << 23);
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
                _mm256_cmp_ps::<_CMP_LT_OQ>(b, _mm256_set1_ps(cap)),
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
            let ok = b < cap && a.abs() < f32::INFINITY;
            // NaN gaps compare false: the row stays.
            out |= u8::from(ok && floor - a > b) << l;
        }
        live & !out
    }
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
}
