//! The negative-sampler interface.
//!
//! A sampler receives a `(user, positive)` pair plus read-only model/data
//! context and returns one negative item `j ∈ I⁻ᵤ` for the training triple
//! `(u, i, j)` of the paper's Eq. (1). Each sampler declares, via
//! [`NegativeSampler::score_access`], how much of the model it reads per
//! draw: nothing, a few gathered items, or the full rating vector of
//! Algorithm 1 line 4 — and the trainer pays exactly that cost, no more.

use bns_data::{Interactions, Popularity};
use bns_model::{Scorer, TripleBatch};
use rand::Rng;

/// How much score access a sampler needs per draw — the contract that lets
/// the trainer skip Algorithm 1 line 4 ("get rating vector x̂ᵤ") whenever
/// the sampler can do with less.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreAccess {
    /// No model scores at all. Static samplers (RNS, PNS) are
    /// model-independent exactly as in the paper; the trainer performs
    /// **zero** scoring work for them.
    None,
    /// Scores of a few specific items, fetched by the sampler itself via
    /// [`Scorer::score_items`] (DNS/SRNS candidates, the fused BNS draw).
    /// The trainer precomputes nothing.
    Candidates,
    /// The full rating vector x̂ᵤ, precomputed by the trainer into
    /// [`SampleContext::user_scores`] (AOBPR's global-rank lookup).
    Full,
}

/// Read-only context handed to a sampler for each draw.
pub struct SampleContext<'a> {
    /// The model being trained (score access only).
    pub scorer: &'a dyn Scorer,
    /// Training interactions (defines `I⁺ᵤ` / `I⁻ᵤ`).
    pub train: &'a Interactions,
    /// Training-set item popularity.
    pub popularity: &'a Popularity,
    /// User `u`'s predicted scores for every item, when the sampler's
    /// [`NegativeSampler::score_access`] returned [`ScoreAccess::Full`];
    /// empty slice otherwise. `Candidates` samplers score what they need
    /// through [`SampleContext::scorer`] instead.
    pub user_scores: &'a [f32],
    /// Current 0-based training epoch.
    pub epoch: usize,
    /// The pairs the caller will sample next, in order, after this call's
    /// own: the rest of the epoch when the trainer calls, empty otherwise.
    /// A caller that fills it promises that its next `sample_batch` calls
    /// on this sampler are exactly these pairs, in order, with the same
    /// `k` and RNG, and that nothing else draws from that RNG meanwhile. A
    /// sampler may then draw their randomness ahead (BNS scores a look-ahead
    /// window of them in one Eq. 16 pass at batch size 1). Every caller
    /// other than the trainer passes `&[]`.
    pub upcoming: &'a [(u32, u32)],
}

impl<'a> SampleContext<'a> {
    /// Number of items in the catalog.
    pub fn n_items(&self) -> u32 {
        self.train.n_items()
    }
}

/// A negative-sampling policy.
///
/// Implementations are stateful where their papers require it (AOBPR's rank
/// cache, SRNS's variance memory, BNS-1's λ schedule); state is advanced via
/// [`NegativeSampler::on_epoch_start`].
pub trait NegativeSampler {
    /// Short display name used in tables (`"RNS"`, `"BNS"`, …).
    fn name(&self) -> &str;

    /// Draws one negative for the pair `(u, pos)`.
    ///
    /// Returns `None` iff the user has no negatives (interacted with every
    /// item), which the trainer skips.
    fn sample(
        &mut self,
        u: u32,
        pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32>;

    /// Draws `k` negatives for every pair of `pairs` into the reusable SoA
    /// buffer `out` — the batched form of Algorithm 1 lines 5–13.
    ///
    /// `out` is cleared and refilled with one row per pair **in pair
    /// order**; pairs whose user has no negatives are dropped (so
    /// `out.len() ≤ pairs.len()`). The model is treated as frozen for the
    /// whole batch: implementations may reorder *score* work freely (group
    /// gathers by user, amortize catalog passes) but must keep the **RNG
    /// call sequence and the returned draws identical to this default** —
    /// `k` looped [`NegativeSampler::sample`] calls per pair — which is
    /// what makes `batch_size = 1, k = 1` reproduce the per-pair trace bit
    /// for bit (`tests/batch_equivalence.rs` pins every built-in sampler
    /// to this contract). The one exception is [`SampleContext::upcoming`]:
    /// a sampler may consume the RNG of those pairs' draws in this call,
    /// in the order the looped calls would, and then consume none for them
    /// when they come.
    ///
    /// `ctx.user_scores` is empty on the batch path; samplers needing
    /// [`ScoreAccess::Full`] fetch rating vectors themselves (the default
    /// below does it per pair into a local buffer, so only specialized
    /// implementations are allocation-free — every built-in sampler
    /// specializes).
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        out.begin_fill(k);
        let mut user_scores: Vec<f32> = Vec::new();
        for &(u, pos) in pairs {
            let full = self.score_access() == ScoreAccess::Full;
            if full {
                user_scores.resize(ctx.train.n_items() as usize, 0.0);
                ctx.scorer.score_all(u, &mut user_scores);
            }
            let pair_ctx = SampleContext {
                scorer: ctx.scorer,
                train: ctx.train,
                popularity: ctx.popularity,
                user_scores: if full { &user_scores } else { &[] },
                epoch: ctx.epoch,
                upcoming: &[],
            };
            let row = out.push_row(u, pos);
            let mut filled = 0usize;
            while filled < k {
                match self.sample(u, pos, &pair_ctx, rng) {
                    Some(j) => {
                        row[filled] = j;
                        filled += 1;
                    }
                    None => break,
                }
            }
            if filled < k {
                out.pop_row();
            }
        }
    }

    /// The score access this sampler needs for its next draw (may vary
    /// with sampler state — BNS needs none during its warm-up epochs).
    /// The trainer precomputes the full rating vector only for
    /// [`ScoreAccess::Full`].
    fn score_access(&self) -> ScoreAccess;

    /// Hook called at the start of every epoch, before any sampling.
    fn on_epoch_start(&mut self, _epoch: usize) {}

    /// Drains the sampler's sufficient statistics accumulated since the
    /// last call (one epoch's worth when drained at epoch boundaries, as
    /// the trainer does).
    ///
    /// Samplers without Bayesian signals return `None` (the default). The
    /// BNS sampler returns the sums behind its per-epoch mean
    /// `info`/`unbias`/risk diagnostics.
    fn take_epoch_stats(&mut self) -> Option<crate::bns::PosteriorStats> {
        None
    }
}

/// Fills `out` with one row per pair, drawing each of the `k` negative
/// slots from `draw` in pair-major, slot-minor order and dropping rows
/// whose draw fails (`None` — a user with no negatives fails on the first
/// slot without consuming RNG). This is the **one** copy of the
/// row-abort contract of `sample_batch`, shared by every sampler whose
/// batched path is a straight per-draw loop (RNS, PNS, SRNS, the BNS
/// warm-up) so the partial-row semantics cannot drift between them.
pub(crate) fn fill_rows(
    pairs: &[(u32, u32)],
    k: usize,
    out: &mut TripleBatch,
    rng: &mut dyn rand::RngCore,
    mut draw: impl FnMut(u32, &mut dyn rand::RngCore) -> Option<u32>,
) {
    out.begin_fill(k);
    for &(u, pos) in pairs {
        let row = out.push_row(u, pos);
        let mut filled = 0usize;
        while filled < k {
            match draw(u, rng) {
                Some(j) => {
                    row[filled] = j;
                    filled += 1;
                }
                None => break,
            }
        }
        if filled < k {
            out.pop_row();
        }
    }
}

/// Fills `order` with the draw indices `0..users.len()` sorted by
/// `(user, index)` — the by-user grouping the batched samplers use to turn
/// per-draw score gathers into one gather (and, for BNS, one Eq. 16
/// catalog pass) per distinct user of the batch. The secondary index key
/// makes the grouping fully deterministic and keeps same-user draws in
/// draw order.
pub(crate) fn group_runs_by_user(users: &[u32], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..users.len() as u32);
    order.sort_unstable_by_key(|&i| (users[i as usize], i));
}

/// Draws one uniform negative of `u` by rejection against the training
/// positives. Returns `None` when the user has no negatives.
///
/// With the paper's datasets (density ≤ 7%) rejection succeeds in ~1.05
/// tries on average; the loop is additionally capped against adversarial
/// densities by falling back to an exact scan.
pub fn draw_uniform_negative<R: Rng + ?Sized>(
    train: &Interactions,
    u: u32,
    rng: &mut R,
) -> Option<u32> {
    let n_items = train.n_items();
    let degree = train.degree(u) as u32;
    if degree >= n_items {
        return None;
    }
    // Expected tries = n/(n−deg); 64 tries fail with prob < 2^-64 unless the
    // user has interacted with almost everything.
    for _ in 0..64 {
        let i = rng.random_range(0..n_items);
        if !train.contains(u, i) {
            return Some(i);
        }
    }
    // Dense-user fallback: index uniformly into the complement.
    let target = rng.random_range(0..n_items - degree);
    let mut seen = 0u32;
    let positives = train.items_of(u);
    let mut pos_idx = 0usize;
    for i in 0..n_items {
        if pos_idx < positives.len() && positives[pos_idx] == i {
            pos_idx += 1;
            continue;
        }
        if seen == target {
            return Some(i);
        }
        seen += 1;
    }
    unreachable!("complement indexing is exact");
}

/// Fills `out` with `m` uniform negatives of `u` (sampling **with**
/// replacement across slots, as in the paper's candidate sets `Mᵤ`).
/// Returns `false` when the user has no negatives.
pub fn draw_candidate_set<R: Rng + ?Sized>(
    train: &Interactions,
    u: u32,
    m: usize,
    out: &mut Vec<u32>,
    rng: &mut R,
) -> bool {
    out.clear();
    draw_candidate_append(train, u, m, out, rng)
}

/// [`draw_candidate_set`] without the clear: **appends** `m` uniform
/// negatives of `u` to `out` (the batched samplers draw every pair's
/// candidate set straight into one concatenated buffer, no per-draw copy).
/// Consumes the RNG identically to [`draw_candidate_set`]; on failure
/// (user has no negatives — detected before any RNG use) whatever was
/// appended is truncated away and `false` is returned.
pub fn draw_candidate_append<R: Rng + ?Sized>(
    train: &Interactions,
    u: u32,
    m: usize,
    out: &mut Vec<u32>,
    rng: &mut R,
) -> bool {
    let start = out.len();
    for _ in 0..m {
        match draw_uniform_negative(train, u, rng) {
            Some(i) => out.push(i),
            None => {
                out.truncate(start);
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn train() -> Interactions {
        Interactions::from_pairs(2, 6, &[(0, 1), (0, 3), (1, 0)]).unwrap()
    }

    #[test]
    fn uniform_negative_never_returns_positive() {
        let t = train();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..2_000 {
            let j = draw_uniform_negative(&t, 0, &mut rng).unwrap();
            assert!(!t.contains(0, j), "sampled positive {j}");
            assert!(j < 6);
        }
    }

    #[test]
    fn uniform_negative_is_uniform_over_complement() {
        let t = train();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 6];
        let n = 40_000;
        for _ in 0..n {
            counts[draw_uniform_negative(&t, 0, &mut rng).unwrap() as usize] += 1;
        }
        // Negatives of user 0: {0, 2, 4, 5} — each should get ~25%.
        for &i in &[0usize, 2, 4, 5] {
            let f = counts[i] as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.02, "item {i}: frequency {f}");
        }
        assert_eq!(counts[1] + counts[3], 0);
    }

    #[test]
    fn saturated_user_returns_none() {
        let t = Interactions::from_pairs(1, 3, &[(0, 0), (0, 1), (0, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(draw_uniform_negative(&t, 0, &mut rng), None);
    }

    #[test]
    fn dense_user_fallback_is_exact() {
        // User with all but one item: rejection will almost surely exhaust
        // its 64 tries and hit the exact-complement fallback.
        let n = 2_000u32;
        let pairs: Vec<(u32, u32)> = (0..n - 1).map(|i| (0, i)).collect();
        let t = Interactions::from_pairs(1, n, &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(draw_uniform_negative(&t, 0, &mut rng), Some(n - 1));
        }
    }

    #[test]
    fn candidate_set_size_and_validity() {
        let t = train();
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        assert!(draw_candidate_set(&t, 0, 5, &mut out, &mut rng));
        assert_eq!(out.len(), 5);
        for &j in &out {
            assert!(!t.contains(0, j));
        }
    }

    #[test]
    fn candidate_set_fails_for_saturated_user() {
        let t = Interactions::from_pairs(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = vec![9, 9];
        assert!(!draw_candidate_set(&t, 0, 3, &mut out, &mut rng));
    }
}
