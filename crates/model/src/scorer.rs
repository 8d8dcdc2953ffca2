//! Model traits: read-only scoring and pairwise training.
//!
//! Negative samplers and the evaluation protocol only need scores, so they
//! work against [`Scorer`]. The training loop (Algorithm 1 of the paper,
//! implemented in `bns-core::trainer`) additionally needs BPR updates and
//! batch hooks, provided by [`PairwiseModel`].

use crate::batch::TripleBatch;
use bns_sync::ClaimCursor;

/// Identifies one state of a model's item table: which table, and how
/// many writes it has taken.
///
/// Every table gets a process-unique id when it is built, cloned or
/// rewritten whole, and every call that writes some of its item rows bumps
/// its version, so two equal stamps always name the same table contents.
/// A holder of a copy made at some stamp can tell from the current stamp
/// whether the copy is still fresh.
///
/// Ids come only from [`TableStamp::fresh`]; versions advance only inside
/// this crate, whose models record the rows each write changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStamp {
    /// Process-unique id of the table.
    table: u64,
    /// Writes the table has taken since it got its id.
    version: u64,
}

impl TableStamp {
    /// A stamp for a newly built (or cloned, or wholly rewritten) table:
    /// a fresh id, version 0. No stamp minted before it names the same
    /// table, so a holder of an older copy always rebuilds it.
    pub fn fresh() -> Self {
        static IDS: ClaimCursor = ClaimCursor::new();
        Self {
            table: IDS.claim() as u64,
            version: 0,
        }
    }

    /// The stamp after one more write.
    pub(crate) fn next(self) -> Self {
        Self {
            version: self.version + 1,
            ..self
        }
    }

    /// The stamp before the latest write, if the table has taken one.
    pub fn previous(self) -> Option<Self> {
        Some(Self {
            version: self.version.checked_sub(1)?,
            ..self
        })
    }
}

/// Read access to a model whose scores are `kernel::dot(users[u],
/// items[i])` over two contiguous row-major tables, with a record of the
/// item rows its latest write changed.
#[derive(Debug, Clone, Copy)]
pub struct RowTables<'a> {
    /// Row-major `n_users × dim` user table.
    pub users: &'a [f32],
    /// Row-major `n_items × dim` item table.
    pub items: &'a [f32],
    /// Row dimension.
    pub dim: usize,
    /// The item table's current state.
    pub stamp: TableStamp,
    /// Every item row that differs between `stamp.previous()` and `stamp`
    /// (ids may repeat).
    pub changed: &'a [u32],
}

impl<'a> RowTables<'a> {
    /// User `u`'s row.
    #[inline]
    pub fn user(&self, u: u32) -> &'a [f32] {
        let at = u as usize * self.dim;
        &self.users[at..at + self.dim]
    }

    /// Item `i`'s row.
    #[inline]
    pub fn item(&self, i: u32) -> &'a [f32] {
        let at = i as usize * self.dim;
        &self.items[at..at + self.dim]
    }
}

/// Read-only access to predicted scores `x̂ᵤᵢ`.
///
/// A scorer implements [`Scorer::score`] and, when its scores are
/// `kernel::dot` of a user row and a row of one contiguous item table
/// (MF, LightGCN over its propagated table, a frozen artifact),
/// [`Scorer::row_tables`]. The batched methods are provided: with row
/// tables they run the kernel entry points over them, and without they
/// loop over `score`. The ranking protocol scores a model with row tables
/// eight users at a time straight from the tables, and one without
/// through [`Scorer::score_items`]. A wrapper that scores through an inner model
/// forwards `score` and `row_tables`, or overrides the batched methods
/// itself; one that forwards neither gets the loops over `score`.
pub trait Scorer {
    /// Number of users in the model.
    fn n_users(&self) -> u32;

    /// Number of items in the model.
    fn n_items(&self) -> u32;

    /// Predicted score of a single `(user, item)` pair.
    fn score(&self, u: u32, i: u32) -> f32;

    /// Fills `out` (length `n_items`) with user `u`'s scores for every item
    /// — the "rating vector x̂ᵤ" of Algorithm 1, line 4: one
    /// [`crate::kernel::gemv`] over the item table when the scorer has
    /// [`Scorer::row_tables`], else a loop over [`Scorer::score`].
    fn score_all(&self, u: u32, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.n_items() as usize);
        match self.row_tables() {
            Some(tables) => crate::kernel::gemv(tables.user(u), tables.items, out),
            None => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = self.score(u, i as u32);
                }
            }
        }
    }

    /// Fills `out[k]` with user `u`'s score for `items[k]` — the batched
    /// gather-dot behind `ScoreAccess::Candidates` samplers, which score a
    /// handful of specific items instead of the whole catalog.
    ///
    /// Repeated ids are allowed (each slot is filled independently).
    /// Values are bitwise identical to [`Scorer::score`] /
    /// [`Scorer::score_all`] for the same `(u, item)`, so samplers can mix
    /// the three access paths freely: [`crate::kernel::gather_dots`] over
    /// [`Scorer::row_tables`] runs `score`'s `dot`, and without row tables
    /// this loops over `score`.
    fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
        debug_assert_eq!(items.len(), out.len(), "one output slot per item");
        match self.row_tables() {
            Some(tables) => crate::kernel::gather_dots(tables.user(u), tables.items, items, out),
            None => {
                for (slot, &i) in out.iter_mut().zip(items) {
                    *slot = self.score(u, i);
                }
            }
        }
    }

    /// The model's contiguous user and item tables and its item write
    /// record: the one dense view behind the provided batched methods,
    /// the ranking protocol's tile scan ([`crate::kernel::tile_scan`]),
    /// the artifact freeze and BNS's coded Eq. 16 pass (which keeps its
    /// own copy of some item rows). `None`, the default, tells callers to
    /// score through [`Scorer::score`] / [`Scorer::score_items`] instead.
    /// A model returning `Some` must score exactly `kernel::dot` over
    /// these rows, and its [`RowTables::stamp`] must name the rows'
    /// contents: bump it on every write to an item row, with the rows
    /// written in [`RowTables::changed`], or mint a fresh one.
    fn row_tables(&self) -> Option<RowTables<'_>> {
        None
    }
}

/// A model trainable with pairwise BPR updates.
///
/// The batch protocol mirrors mini-batch training: the trainer calls
/// [`PairwiseModel::begin_batch`], then [`PairwiseModel::update_batch`]
/// with the sampled [`TripleBatch`], then [`PairwiseModel::end_batch`].
/// MF (trained with batch size 1 in the paper) applies updates immediately
/// inside `update_batch` through the blocked kernel path; LightGCN
/// accumulates gradients on the propagated embeddings and backpropagates
/// once per batch.
pub trait PairwiseModel: Scorer {
    /// Called once per epoch before any batch (LightGCN refreshes its
    /// propagated embeddings here; MF is a no-op).
    fn begin_epoch(&mut self, epoch: usize);

    /// Called before each mini-batch.
    fn begin_batch(&mut self);

    /// Processes one training triple `(u, i, j)` and returns the
    /// informativeness `info(j) = 1 − σ(x̂ᵤᵢ − x̂ᵤⱼ)` of the sampled
    /// negative (Eq. 4), which the quality probes record.
    fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, lr: f32, reg: f32) -> f32;

    /// Processes one sampled [`TripleBatch`], pushing `info(j)` (Eq. 4) for
    /// every applied triple into `infos` in row-major `(row, neg-slot)`
    /// order — `batch.n_triples()` values total.
    ///
    /// The default loops [`PairwiseModel::accumulate_triple`] over every
    /// `(u, i, jₜ)` of the batch, which preserves per-triple sequential-SGD
    /// semantics exactly. Models with a cheaper blocked path (MF gathers
    /// each row group's scores in one kernel pass) override it; overrides
    /// must stay bitwise identical to the default at `k = 1`, which is
    /// the contract `tests/trainer_repro_guard.rs` leans on.
    fn update_batch(&mut self, batch: &TripleBatch, lr: f32, reg: f32, infos: &mut Vec<f32>) {
        infos.clear();
        infos.reserve(batch.n_triples());
        for (u, pos, negs) in batch.iter() {
            for &neg in negs {
                infos.push(self.accumulate_triple(u, pos, neg, lr, reg));
            }
        }
    }

    /// Called after each mini-batch; applies accumulated gradients.
    fn end_batch(&mut self, lr: f32, reg: f32);

    /// Mean BPR log-likelihood over the given triples (diagnostics).
    fn mean_bpr_ll(&self, triples: &[(u32, u32, u32)]) -> f64 {
        if triples.is_empty() {
            return 0.0;
        }
        triples
            .iter()
            .map(|&(u, i, j)| {
                crate::loss::bpr_log_likelihood(self.score(u, i), self.score(u, j)) as f64
            })
            .sum::<f64>()
            / triples.len() as f64
    }
}

/// A fixed score table, useful for deterministic tests of samplers and
/// metrics (also used by the Fig. 3 harness where scores are synthetic).
#[derive(Debug, Clone)]
pub struct FixedScorer {
    n_users: u32,
    n_items: u32,
    /// Row-major `n_users × n_items` scores.
    scores: Vec<f32>,
}

impl FixedScorer {
    /// Wraps a dense score table.
    pub fn new(n_users: u32, n_items: u32, scores: Vec<f32>) -> Self {
        assert_eq!(
            scores.len(),
            n_users as usize * n_items as usize,
            "score table shape mismatch"
        );
        Self {
            n_users,
            n_items,
            scores,
        }
    }

    /// Mutable access for test setup.
    pub fn set(&mut self, u: u32, i: u32, s: f32) {
        self.scores[u as usize * self.n_items as usize + i as usize] = s;
    }
}

impl Scorer for FixedScorer {
    fn n_users(&self) -> u32 {
        self.n_users
    }

    fn n_items(&self) -> u32 {
        self.n_items
    }

    fn score(&self, u: u32, i: u32) -> f32 {
        self.scores[u as usize * self.n_items as usize + i as usize]
    }

    fn score_all(&self, u: u32, out: &mut [f32]) {
        let row = &self.scores
            [u as usize * self.n_items as usize..(u as usize + 1) * self.n_items as usize];
        out.copy_from_slice(row);
    }

    fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
        let row = &self.scores
            [u as usize * self.n_items as usize..(u as usize + 1) * self.n_items as usize];
        for (slot, &i) in out.iter_mut().zip(items) {
            *slot = row[i as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_scorer_round_trip() {
        let mut s = FixedScorer::new(2, 3, vec![0.0; 6]);
        s.set(1, 2, 4.5);
        assert_eq!(s.score(1, 2), 4.5);
        assert_eq!(s.score(0, 0), 0.0);
        let mut out = vec![0.0f32; 3];
        s.score_all(1, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 4.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn fixed_scorer_validates_shape() {
        FixedScorer::new(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn default_score_all_matches_score() {
        // A scorer that only implements `score`.
        struct Diag;
        impl Scorer for Diag {
            fn n_users(&self) -> u32 {
                1
            }
            fn n_items(&self) -> u32 {
                4
            }
            fn score(&self, _u: u32, i: u32) -> f32 {
                i as f32 * 2.0
            }
        }
        let mut out = vec![0.0f32; 4];
        Diag.score_all(0, &mut out);
        assert_eq!(out, vec![0.0, 2.0, 4.0, 6.0]);
    }
}
