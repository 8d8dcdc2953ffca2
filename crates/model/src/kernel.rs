//! Fused scoring kernels: the one dot-product the whole workspace shares.
//!
//! Algorithm 1 line 4 ("get rating vector x̂ᵤ") makes user-vs-catalog
//! scoring the hottest loop in the system: every model-aware sampler pays
//! it once per training pair. A naive `iter().zip().map().sum()` dot is
//! *latency*-bound — each `f32` add waits on the previous one, so a d = 32
//! dot costs ~d·latency cycles instead of ~d/throughput. These kernels
//! break the dependency chain with [`LANES`] independent accumulators
//! updated via [`f32::mul_add`], then reduce them in a **fixed balanced
//! tree**, which makes the summation order deterministic and identical
//! across every entry point:
//!
//! * [`dot`] — one row · row product (single score),
//! * [`gemv`] — user row × the whole item table (the full rating vector),
//! * [`gather_dots`] — user row × an arbitrary subset of item rows (the
//!   candidate-scoring path of `ScoreAccess::Candidates` samplers),
//! * [`dot_atomic`] — the same arithmetic over [`AtomicF32Cell`] rows (the
//!   hogwild tables of [`crate::hogwild`]).
//!
//! Because all four share one accumulation structure, `score(u, i)`,
//! `score_all(u, ..)[i]` and `score_items(u, [i], ..)` return **bitwise
//! identical** values for the same model state — the property the fused
//! BNS draw relies on when it compares candidate thresholds against
//! catalog scores computed in a separate blocked pass.
//!
//! Changing this module changes the bit-level training trace (a different
//! but still deterministic summation order); re-pin the repro guards when
//! touching it. Accuracy against an `f64` scalar reference is property-
//! tested here and in `tests/proptests.rs` (≤ 1e-5 relative).

use bns_sync::AtomicF32Cell;

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
#[inline(always)]
fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

/// Unrolled dot product with [`LANES`] accumulators and `mul_add`.
///
/// Panics in debug builds when the lengths differ; the release path
/// truncates to the shorter slice via `chunks_exact`/`zip`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
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

/// [`dot`] over one plain row and one row of relaxed-atomic bit cells —
/// the hogwild variant. Identical accumulation structure, so for equal
/// values the result is bitwise equal to [`dot`].
#[inline]
pub fn dot_atomic(a: &[f32], cells: &[AtomicF32Cell]) -> f32 {
    debug_assert_eq!(a.len(), cells.len(), "dot operands must have equal length");
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let c_chunks = cells.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let c_rem = c_chunks.remainder();
    for (ca, cc) in a_chunks.zip(c_chunks) {
        for l in 0..LANES {
            acc[l] = fmadd(ca[l], cc[l].load(), acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, cell) in a_rem.iter().zip(c_rem) {
        tail = fmadd(x, cell.load(), tail);
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
    fn atomic_dot_is_bitwise_equal_to_plain_dot() {
        for n in [3usize, 8, 32, 50] {
            let a = pseudo(n, 3);
            let b = pseudo(n, 4);
            let cells: Vec<AtomicF32Cell> = b.iter().map(|&x| AtomicF32Cell::new(x)).collect();
            assert_eq!(dot(&a, &b).to_bits(), dot_atomic(&a, &cells).to_bits());
        }
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
