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
//! * [`gemm`] — a tile of [`TILE`] user rows × a block of item rows, each
//!   item row read once for the whole tile (the ranking protocol's
//!   `Scorer::score_tile`, dispatched by [`score_tile`]).
//!
//! `Scorer`'s provided `score_all`, `score_items` and `score_tile` run
//! [`gemv`], [`gather_dots`] and [`score_tile`] over the tables of any
//! model that exposes them (`Scorer::row_tables`), so no model carries its
//! own copy of those bodies.
//!
//! Because all four share one accumulation structure, `score(u, i)`,
//! `score_all(u, ..)[i]`, `score_items(u, [i], ..)` and `score_tile`
//! return **bitwise identical** values for the same model state — the
//! property the fused BNS draw relies on when it compares candidate
//! thresholds against catalog scores computed in a separate blocked pass,
//! and the one that lets evaluation score a tile of users at a time.
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
//! and [`gemm`] runs the same FMAs into one accumulator per (user, item)
//! pair and reduces eight such pairs side by side with the same tree;
//! every other build runs the portable scalar body. The summation
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

/// Number of independent accumulators in the unrolled kernels.
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

/// Users scored together by [`gemm`]: one tile of the ranking protocol.
pub const TILE: usize = 4;

/// User-tiled GEMM: fills `out[t·n + i] = dot(users[t], items[i·d ..
/// (i+1)·d])` for [`TILE`] user rows of length `d` and the row-major
/// `n × d` block `items`, where `n = out.len() / TILE`.
///
/// Each item chunk is loaded once for the whole tile instead of once per
/// user. Every `(user, row)` pair keeps its own accumulator, fed in
/// [`dot`]'s chunk order and reduced by [`dot`]'s tree plus [`dot`]'s
/// tail, so every score is bit for bit [`dot`]'s. The vector body takes
/// item rows two at a time and runs the eight reductions of such a pair
/// side by side in one register (`hadd` adds the same pairs the tree adds).
#[inline]
pub fn gemm(users: [&[f32]; TILE], items: &[f32], out: &mut [f32]) {
    let d = users[0].len();
    let n = out.len() / TILE;
    debug_assert!(users.iter().all(|u| u.len() == d), "user rows must agree");
    debug_assert_eq!(out.len(), TILE * n, "one output row per tile user");
    debug_assert_eq!(items.len(), d * n, "item block shape does not match d × n");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use std::arch::x86_64::*;
        // The pair reduction below interleaves exactly four users.
        const _: () = assert!(TILE == 4);
        if d == 0 || n == 0 {
            // No rows to stream, as in `gemv`.
            return;
        }
        let k = d / LANES;
        let user_chunks = users.map(|u| &u.as_chunks::<LANES>().0[..k]);
        // `dot`'s scalar tail of each user against `row`.
        #[inline(always)]
        fn tails(users: [&[f32]; TILE], row: &[f32], from: usize) -> [f32; TILE] {
            let mut tails = [0.0f32; TILE];
            if row.len() > from {
                for (tail, u) in tails.iter_mut().zip(users) {
                    for (&x, &y) in u[from..].iter().zip(&row[from..]) {
                        *tail = x.mul_add(y, *tail);
                    }
                }
            }
            tails
        }
        let row = |i: usize| &items[i * d..(i + 1) * d];
        let mut rows = out.chunks_exact_mut(n);
        let mut outs: [&mut [f32]; TILE] =
            std::array::from_fn(|_| rows.next().expect("one output row per tile user"));
        for i in (0..n).step_by(2) {
            // An odd last row pairs with itself; its copy is not written.
            let (r0, r1) = (row(i), row((i + 1).min(n - 1)));
            let (c0, c1) = (
                &r0.as_chunks::<LANES>().0[..k],
                &r1.as_chunks::<LANES>().0[..k],
            );
            let (t0, t1) = (tails(users, r0, k * LANES), tails(users, r1, k * LANES));
            let mut scores = [0.0f32; 2 * TILE];
            // SAFETY: the enclosing cfg guarantees the build targets AVX2
            // and FMA; each unaligned load reads exactly the eight floats
            // of one `&[f32; 8]` chunk, and the one store writes the eight
            // floats of `scores`.
            unsafe {
                let mut a0 = [_mm256_setzero_ps(); TILE];
                let mut a1 = [_mm256_setzero_ps(); TILE];
                for c in 0..k {
                    let x0 = _mm256_loadu_ps(c0[c].as_ptr());
                    let x1 = _mm256_loadu_ps(c1[c].as_ptr());
                    for t in 0..TILE {
                        let w = _mm256_loadu_ps(user_chunks[t][c].as_ptr());
                        a0[t] = _mm256_fmadd_ps(w, x0, a0[t]);
                        a1[t] = _mm256_fmadd_ps(w, x1, a1[t]);
                    }
                }
                // `reduce`'s first level for two accumulators P, Q at once:
                // [P.lo + P.hi | Q.lo + Q.hi] = (a0+a4, …, a3+a7) of each.
                let halves = |p: __m256, q: __m256| {
                    _mm256_add_ps(
                        _mm256_permute2f128_ps(p, q, 0x20),
                        _mm256_permute2f128_ps(p, q, 0x31),
                    )
                };
                // `hadd` adds adjacent lanes: the second level gives
                // (s0+s1, s2+s3) of each, and the third (s0+s1)+(s2+s3).
                // Pairing (user t, user t+2) in the first level leaves the
                // result lanes in the order (u0r0, u0r1, u1r0, u1r1, …).
                let left = _mm256_hadd_ps(halves(a0[0], a0[2]), halves(a1[0], a1[2]));
                let right = _mm256_hadd_ps(halves(a0[1], a0[3]), halves(a1[1], a1[3]));
                let tail = _mm256_setr_ps(t0[0], t1[0], t0[1], t1[1], t0[2], t1[2], t0[3], t1[3]);
                let sums = _mm256_add_ps(_mm256_hadd_ps(left, right), tail);
                _mm256_storeu_ps(scores.as_mut_ptr(), sums);
            }
            for (o, s) in outs.iter_mut().zip(scores.as_chunks::<2>().0) {
                o[i] = s[0];
                if i + 1 < n {
                    o[i + 1] = s[1];
                }
            }
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    for (user, row) in users.iter().zip(out.chunks_exact_mut(n.max(1))) {
        gemv(user, items, row);
    }
}

/// The provided `Scorer::score_tile` body over a model's row tables (one
/// contiguous row-major item `table`): scores the users `users` (their
/// rows given by `row`) against items `first ..` into `out` (one row of
/// `out.len() / users.len()` scores per user). A full tile goes through
/// [`gemm`], anything shorter through [`gemv`] per user.
pub fn score_tile<'a>(
    row: impl Fn(u32) -> &'a [f32],
    table: &[f32],
    users: &[u32],
    first: u32,
    out: &mut [f32],
) {
    let Some(&u0) = users.first() else {
        return;
    };
    let d = row(u0).len();
    let n = out.len() / users.len();
    let start = first as usize * d;
    let items = &table[start..start + n * d];
    match <[u32; TILE]>::try_from(users) {
        Ok(tile) => gemm(tile.map(row), items, out),
        Err(_) => {
            for (&u, scores) in users.iter().zip(out.chunks_exact_mut(n.max(1))) {
                gemv(row(u), items, scores);
            }
        }
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
                // Four distinct users, then a tile that repeats a user,
                // against all 13 rows (an odd count, so the last row is
                // scored on its own).
                let others = [200, 300, 400].map(|s| rough(d, seed + s));
                let distinct = [&user[..], &others[0], &others[1], &others[2]];
                let repeated = [&user[..], &others[0], &user, &others[1]];
                for tile in [distinct, repeated] {
                    let mut block = vec![f32::NAN; TILE * n];
                    gemm(tile, &table, &mut block);
                    for (t, u) in tile.iter().enumerate() {
                        for i in 0..n {
                            let got = block[t * n + i];
                            // As for `gemv`, a 0-column table has no rows.
                            if d > 0 {
                                let want = dot_scalar(u, row(i));
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "gemm d={d} user {t} row {i}"
                                );
                            }
                        }
                    }
                }
            }
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
