//! Matrix factorization trained with BPR (the paper's first CF model).
//!
//! Scores are dot products `x̂ᵤᵢ = ⟨wᵤ, hᵢ⟩`. For a triple `(u, i, j)` the
//! BPR stochastic gradient step with learning rate `α` and L2 constant `λ`
//! is (Rendle et al., UAI 2009):
//!
//! ```text
//! g  = 1 − σ(x̂ᵤᵢ − x̂ᵤⱼ)          // = info(j), Eq. (4)
//! wᵤ += α (g·(hᵢ − hⱼ) − λ wᵤ)
//! hᵢ += α (g·wᵤ        − λ hᵢ)
//! hⱼ += α (−g·wᵤ       − λ hⱼ)
//! ```
//!
//! The paper trains MF with batch size 1, so updates are applied immediately
//! inside [`PairwiseModel::accumulate_triple`].

use crate::batch::TripleBatch;
use crate::embedding::Embedding;
use crate::loss::info;
use crate::scorer::{PairwiseModel, RowTables, Scorer, TableStamp};
use crate::{ModelError, Result};
use rand::Rng;

/// BPR matrix factorization model.
#[derive(Debug)]
pub struct MatrixFactorization {
    users: Embedding,
    items: Embedding,
    /// The item table's write record: its current stamp, and the item
    /// rows the latest write changed (see [`Scorer::row_tables`]).
    stamp: TableStamp,
    changed: Vec<u32>,
    /// Reusable scratch of the blocked `update_batch` path (gather ids,
    /// gathered scores, per-triple gradients, the pre-update user row).
    scratch: BatchScratch,
}

impl Clone for MatrixFactorization {
    /// A clone is a new table: it gets a fresh stamp, so a copy made from
    /// one of the two models is never taken for a copy of the other.
    fn clone(&self) -> Self {
        Self {
            users: self.users.clone(),
            items: self.items.clone(),
            stamp: TableStamp::fresh(),
            changed: Vec::new(),
            scratch: self.scratch.clone(),
        }
    }
}

/// Reusable buffers of the blocked batch update; steady-state
/// allocation-free once capacities are reached.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    ids: Vec<u32>,
    scores: Vec<f32>,
    gs: Vec<f32>,
    wu0: Vec<f32>,
}

impl MatrixFactorization {
    /// Creates a model with `N(0, init_std)` embeddings (paper: d = 32).
    pub fn new<R: Rng + ?Sized>(
        n_users: u32,
        n_items: u32,
        dim: usize,
        init_std: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if n_users == 0 || n_items == 0 {
            return Err(ModelError::InvalidConfig("need users and items".into()));
        }
        Ok(Self {
            users: Embedding::normal_init(n_users as usize, dim, init_std, rng)?,
            items: Embedding::normal_init(n_items as usize, dim, init_std, rng)?,
            stamp: TableStamp::fresh(),
            changed: Vec::new(),
            scratch: BatchScratch::default(),
        })
    }

    /// Wraps existing user/item embedding tables into a model (hand-built
    /// or loaded tables, e.g. in tests and benchmarks).
    pub fn from_embeddings(users: Embedding, items: Embedding) -> Result<Self> {
        if users.dim() != items.dim() {
            return Err(ModelError::ShapeMismatch(format!(
                "user dim {} != item dim {}",
                users.dim(),
                items.dim()
            )));
        }
        if users.is_empty() || items.is_empty() {
            return Err(ModelError::InvalidConfig("need users and items".into()));
        }
        Ok(Self {
            users,
            items,
            stamp: TableStamp::fresh(),
            changed: Vec::new(),
            scratch: BatchScratch::default(),
        })
    }

    /// The full user embedding table.
    pub fn users(&self) -> &Embedding {
        &self.users
    }

    /// The full item embedding table.
    pub fn items(&self) -> &Embedding {
        &self.items
    }

    /// User embedding row.
    pub fn user_embedding(&self, u: u32) -> &[f32] {
        self.users.row(u as usize)
    }

    /// Item embedding row.
    pub fn item_embedding(&self, i: u32) -> &[f32] {
        self.items.row(i as usize)
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.users.dim()
    }

    /// Sum of squared embedding norms (diagnostic for regularization tests).
    pub fn sq_norm(&self) -> f64 {
        self.users.sq_norm() + self.items.sq_norm()
    }

    /// Bumps the write record for a call that changes the item rows
    /// `ids` (and possibly user rows, which callers read directly).
    /// Allocation-free once `changed` holds the largest call's ids.
    fn record_writes(&mut self, ids: impl IntoIterator<Item = u32>) {
        self.stamp = self.stamp.next();
        self.changed.clear();
        self.changed.extend(ids);
    }

    /// Mutable user row, exposed for gradient-check tests only.
    #[cfg(test)]
    pub(crate) fn users_mut_for_test(&mut self, u: u32) -> &mut [f32] {
        self.users.row_mut(u as usize)
    }

    /// One InfoNCE update for `(u, pos)` against `negs` (the contrastive
    /// extension the paper's §VI proposes: "generalize BNS to
    /// contrastive-based learning methods").
    ///
    /// Loss: `L = −ln( e^{s₊/τ} / (e^{s₊/τ} + Σₖ e^{sₖ/τ}) )` with
    /// `sⱼ = ⟨wᵤ, hⱼ⟩`. Gradients follow the softmax weights
    /// `wⱼ = e^{sⱼ/τ}/Z` over `{pos} ∪ negs`:
    /// `∂L/∂s₊ = (w₊ − 1)/τ`, `∂L/∂sₖ = wₖ/τ`.
    ///
    /// Returns the loss value. Repeated negatives are allowed (their
    /// gradients accumulate); `negs` must not contain `pos`.
    pub fn infonce_update(
        &mut self,
        u: u32,
        pos: u32,
        negs: &[u32],
        lr: f32,
        reg: f32,
        temperature: f32,
    ) -> f32 {
        debug_assert!(temperature > 0.0, "temperature must be positive");
        debug_assert!(!negs.is_empty(), "InfoNCE requires at least one negative");
        debug_assert!(!negs.contains(&pos), "negatives must exclude the positive");
        let tau = temperature;
        let dim = self.users.dim();
        self.record_writes(std::iter::once(pos).chain(negs.iter().copied()));

        // Stable softmax over {pos} ∪ negs.
        let s_pos = self.score(u, pos) / tau;
        let s_negs: Vec<f32> = negs.iter().map(|&j| self.score(u, j) / tau).collect();
        let max_logit = s_negs.iter().copied().fold(s_pos, f32::max);
        let e_pos = (s_pos - max_logit).exp();
        let e_negs: Vec<f32> = s_negs.iter().map(|&s| (s - max_logit).exp()).collect();
        let z = e_pos + e_negs.iter().sum::<f32>();
        let w_pos = e_pos / z;
        let loss = -(w_pos.max(f32::MIN_POSITIVE)).ln();

        // Gradient on the user embedding: Σⱼ ∂L/∂sⱼ · hⱼ / (nothing else).
        let mut user_grad = vec![0.0f32; dim];
        {
            let g_pos = (w_pos - 1.0) / tau;
            let h_pos = self.items.row(pos as usize);
            for (g, &h) in user_grad.iter_mut().zip(h_pos) {
                *g += g_pos * h;
            }
            for (k, &j) in negs.iter().enumerate() {
                let g_k = (e_negs[k] / z) / tau;
                let h_j = self.items.row(j as usize);
                for (g, &h) in user_grad.iter_mut().zip(h_j) {
                    *g += g_k * h;
                }
            }
        }

        // Item updates use the *pre-update* user embedding.
        let wu_snapshot: Vec<f32> = self.users.row(u as usize).to_vec();
        {
            let g_pos = (w_pos - 1.0) / tau;
            let h_pos = self.items.row_mut(pos as usize);
            for (k, h) in h_pos.iter_mut().enumerate() {
                *h -= lr * (g_pos * wu_snapshot[k] + reg * *h);
            }
        }
        for (k, &j) in negs.iter().enumerate() {
            let g_k = (e_negs[k] / z) / tau;
            let h_j = self.items.row_mut(j as usize);
            for (d, h) in h_j.iter_mut().enumerate() {
                *h -= lr * (g_k * wu_snapshot[d] + reg * *h);
            }
        }
        let wu = self.users.row_mut(u as usize);
        for (k, w) in wu.iter_mut().enumerate() {
            *w -= lr * (user_grad[k] + reg * *w);
        }
        loss
    }
}

impl Scorer for MatrixFactorization {
    fn n_users(&self) -> u32 {
        self.users.len() as u32
    }

    fn n_items(&self) -> u32 {
        self.items.len() as u32
    }

    #[inline]
    fn score(&self, u: u32, i: u32) -> f32 {
        crate::kernel::dot(self.users.row(u as usize), self.items.row(i as usize))
    }

    fn row_tables(&self) -> Option<RowTables<'_>> {
        Some(RowTables {
            users: self.users.as_slice(),
            items: self.items.as_slice(),
            dim: self.items.dim(),
            stamp: self.stamp,
            changed: &self.changed,
        })
    }
}

impl PairwiseModel for MatrixFactorization {
    fn begin_epoch(&mut self, _epoch: usize) {}

    fn begin_batch(&mut self) {}

    fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, lr: f32, reg: f32) -> f32 {
        debug_assert_ne!(pos, neg, "positive and negative item must differ");
        self.record_writes([pos, neg]);
        let g = info(self.score(u, pos), self.score(u, neg));
        let wu = self.users.row_mut(u as usize);
        let (hi, hj) = self.items.two_rows_mut(pos as usize, neg as usize);
        crate::kernel::bpr_step(wu, hi, hj, g, lr, reg);
        g
    }

    /// The blocked batch update: for every `(u, i, {j₁…jₖ})` row group the
    /// `k + 1` item scores are produced by **one** [`crate::kernel::gather_dots`]
    /// pass over the embedding rows instead of `2k` independent `score`
    /// calls, and the gradients are applied with the vectorized kernel
    /// step.
    ///
    /// * `k = 1` rows take the exact [`crate::kernel::bpr_step`] path of
    ///   [`PairwiseModel::accumulate_triple`] with bitwise-identical scores
    ///   (the kernel contract), so the batched trainer reproduces the
    ///   per-triple trace bit for bit — `tests/trainer_repro_guard.rs`.
    /// * `k > 1` rows apply the multi-negative BPR group step: all k + 1
    ///   scores and gradients `gₜ` are evaluated against the row group's
    ///   *pre-update* state, then `wᵤ` receives the summed gradient in one
    ///   write, `hᵢ` the summed positive-side pull, and each `hⱼₜ` its own
    ///   push (sequentially, so duplicate negatives accumulate). This is
    ///   standard mini-batch semantics over the negative group rather than
    ///   k sequential SGD steps.
    ///
    /// Row groups are processed sequentially: group 2's scores see group
    /// 1's updates, exactly like the per-triple loop at `k = 1`.
    fn update_batch(&mut self, batch: &TripleBatch, lr: f32, reg: f32, infos: &mut Vec<f32>) {
        infos.clear();
        infos.reserve(batch.n_triples());
        self.record_writes(batch.pos().iter().chain(batch.negs()).copied());
        let k = batch.k();
        let dim = self.users.dim();
        for (row, (&u, &pos)) in batch.users().iter().zip(batch.pos()).enumerate() {
            let negs = batch.negs_of(row);
            // One gather for pos + negatives (bitwise equal to score()).
            self.scratch.ids.clear();
            self.scratch.ids.push(pos);
            self.scratch.ids.extend_from_slice(negs);
            self.scratch.scores.clear();
            self.scratch.scores.resize(k + 1, 0.0);
            crate::kernel::gather_dots(
                self.users.row(u as usize),
                self.items.as_slice(),
                &self.scratch.ids,
                &mut self.scratch.scores,
            );
            let s_pos = self.scratch.scores[0];
            if k == 1 {
                let neg = negs[0];
                debug_assert_ne!(pos, neg, "positive and negative item must differ");
                let g = info(s_pos, self.scratch.scores[1]);
                let wu = self.users.row_mut(u as usize);
                let (hi, hj) = self.items.two_rows_mut(pos as usize, neg as usize);
                crate::kernel::bpr_step(wu, hi, hj, g, lr, reg);
                infos.push(g);
                continue;
            }

            // Multi-negative group step against the pre-update state.
            self.scratch.gs.clear();
            let mut g_sum = 0.0f32;
            for &s_neg in &self.scratch.scores[1..] {
                let g = info(s_pos, s_neg);
                self.scratch.gs.push(g);
                g_sum += g;
                infos.push(g);
            }
            // Pre-update user row snapshot (hᵢ/hⱼ updates read it).
            self.scratch.wu0.clear();
            self.scratch
                .wu0
                .extend_from_slice(self.users.row(u as usize));
            // wᵤ: summed gradient over the group, pre-update item rows.
            {
                let items = self.items.as_slice();
                let wu = self.users.row_mut(u as usize);
                for (d, w) in wu.iter_mut().enumerate() {
                    let hid = items[pos as usize * dim + d];
                    let mut acc = 0.0f32;
                    for (t, &neg) in negs.iter().enumerate() {
                        acc += self.scratch.gs[t] * (hid - items[neg as usize * dim + d]);
                    }
                    *w += lr * (acc - reg * *w);
                }
            }
            // hᵢ: summed positive-side pull with the snapshot user row.
            {
                let hi = self.items.row_mut(pos as usize);
                for (d, h) in hi.iter_mut().enumerate() {
                    *h += lr * (g_sum * self.scratch.wu0[d] - reg * *h);
                }
            }
            // hⱼₜ: one push per negative, sequential so duplicates stack.
            for (t, &neg) in negs.iter().enumerate() {
                debug_assert_ne!(pos, neg, "positive and negative item must differ");
                let g = self.scratch.gs[t];
                let hj = self.items.row_mut(neg as usize);
                for (d, h) in hj.iter_mut().enumerate() {
                    *h += lr * (-g * self.scratch.wu0[d] - reg * *h);
                }
            }
        }
    }

    fn end_batch(&mut self, _lr: f32, _reg: f32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> MatrixFactorization {
        let mut rng = StdRng::seed_from_u64(seed);
        MatrixFactorization::new(4, 6, 8, 0.1, &mut rng).unwrap()
    }

    #[test]
    fn shapes() {
        let m = model(0);
        assert_eq!(m.n_users(), 4);
        assert_eq!(m.n_items(), 6);
        assert_eq!(m.dim(), 8);
    }

    #[test]
    fn rejects_degenerate() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MatrixFactorization::new(0, 5, 8, 0.1, &mut rng).is_err());
        assert!(MatrixFactorization::new(5, 0, 8, 0.1, &mut rng).is_err());
        assert!(MatrixFactorization::new(5, 5, 0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn score_all_matches_score() {
        let m = model(1);
        let mut out = vec![0.0f32; 6];
        m.score_all(2, &mut out);
        for i in 0..6 {
            assert_eq!(out[i as usize], m.score(2, i));
        }
    }

    #[test]
    fn update_widens_pairwise_margin() {
        let mut m = model(2);
        let (u, pos, neg) = (1u32, 2u32, 4u32);
        let before = m.score(u, pos) - m.score(u, neg);
        for _ in 0..50 {
            m.accumulate_triple(u, pos, neg, 0.1, 0.0);
        }
        let after = m.score(u, pos) - m.score(u, neg);
        assert!(after > before, "margin did not grow: {before} → {after}");
    }

    #[test]
    fn update_returns_info() {
        let mut m = model(3);
        let g = m.accumulate_triple(0, 1, 2, 0.0, 0.0); // lr 0: model unchanged
        let expected = crate::loss::info(m.score(0, 1), m.score(0, 2));
        assert!((g - expected).abs() < 1e-6);
        assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn regularization_shrinks_norms() {
        let mut m = model(4);
        let before = m.sq_norm();
        // Many high-reg, zero-gradient-ish updates shrink the touched rows.
        for _ in 0..200 {
            m.accumulate_triple(0, 1, 2, 0.1, 0.5);
        }
        // The model still learns, but with reg = 0.5 and repeated touching,
        // the touched rows stay bounded. Check no explosion.
        let after = m.sq_norm();
        assert!(after.is_finite());
        assert!(after < before * 100.0, "norms exploded: {before} → {after}");
    }

    #[test]
    fn training_separates_planted_preference() {
        // One user who likes item 0 (always positive) vs item 1 (always
        // negative): after training the score gap must be decisive.
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = MatrixFactorization::new(1, 2, 4, 0.1, &mut rng).unwrap();
        for _ in 0..300 {
            m.accumulate_triple(0, 0, 1, 0.05, 0.001);
        }
        assert!(m.score(0, 0) - m.score(0, 1) > 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = model(7);
        let b = model(7);
        assert_eq!(a.score(0, 0), b.score(0, 0));
        assert_eq!(a.user_embedding(3), b.user_embedding(3));
    }

    #[test]
    fn update_batch_k1_matches_sequential_triples_bitwise() {
        // The blocked path at k = 1 must be indistinguishable from looping
        // accumulate_triple — the repro-guard contract.
        let mut seq = model(20);
        let mut blocked = seq.clone();
        let rows = [(0u32, 1u32, 4u32), (1, 2, 5), (0, 0, 3), (3, 5, 1)];
        let mut seq_infos = Vec::new();
        for &(u, pos, neg) in &rows {
            seq_infos.push(seq.accumulate_triple(u, pos, neg, 0.05, 0.01));
        }
        let mut batch = TripleBatch::new();
        batch.begin_fill(1);
        for &(u, pos, neg) in &rows {
            batch.push_row(u, pos)[0] = neg;
        }
        let mut infos = Vec::new();
        blocked.update_batch(&batch, 0.05, 0.01, &mut infos);
        assert_eq!(infos.len(), seq_infos.len());
        for (a, b) in infos.iter().zip(&seq_infos) {
            assert_eq!(a.to_bits(), b.to_bits(), "info diverged");
        }
        for u in 0..4u32 {
            assert_eq!(seq.user_embedding(u), blocked.user_embedding(u));
        }
        for i in 0..6u32 {
            assert_eq!(seq.item_embedding(i), blocked.item_embedding(i));
        }
    }

    #[test]
    fn write_record_names_every_item_row_a_call_changes() {
        let mut m = model(23);
        let stamp = |m: &MatrixFactorization| m.row_tables().unwrap().stamp;
        // A clone is a different table: same rows, a fresh stamp.
        assert_ne!(stamp(&m.clone()), stamp(&m));
        // Each write moves the stamp one step and names every changed row.
        let write = |m: &mut MatrixFactorization, call: &dyn Fn(&mut MatrixFactorization)| {
            let (before, items) = (stamp(m), m.items().clone());
            call(m);
            let tables = m.row_tables().unwrap();
            assert_eq!(tables.stamp.previous(), Some(before));
            for i in 0..m.n_items() {
                if m.item_embedding(i) != items.row(i as usize) {
                    assert!(tables.changed.contains(&i), "row {i} changed unrecorded");
                }
            }
        };
        write(&mut m, &|m| {
            m.accumulate_triple(0, 1, 2, 0.1, 0.0);
        });
        assert_eq!(m.row_tables().unwrap().changed, &[1, 2]);
        for (k, rows) in [
            (1usize, &[(0u32, 3u32, [4u32, 0])][..]),
            (2, &[(1, 5, [0, 2]), (3, 1, [4, 4])]),
        ] {
            write(&mut m, &|m| {
                let mut batch = TripleBatch::new();
                batch.begin_fill(k);
                for &(u, pos, negs) in rows {
                    batch.push_row(u, pos).copy_from_slice(&negs[..k]);
                }
                m.update_batch(&batch, 0.1, 0.01, &mut Vec::new());
            });
        }
        write(&mut m, &|m| {
            m.infonce_update(2, 0, &[3, 5], 0.1, 0.01, 0.5);
        });
    }

    #[test]
    fn update_batch_multi_negative_widens_margins() {
        let mut m = model(21);
        let (u, pos) = (2u32, 3u32);
        let negs = [0u32, 1, 5];
        let before: f32 = negs.iter().map(|&j| m.score(u, pos) - m.score(u, j)).sum();
        let mut batch = TripleBatch::new();
        let mut infos = Vec::new();
        for _ in 0..60 {
            batch.begin_fill(negs.len());
            batch.push_row(u, pos).copy_from_slice(&negs);
            m.update_batch(&batch, 0.05, 0.001, &mut infos);
            assert_eq!(infos.len(), negs.len());
            for &g in &infos {
                assert!((0.0..=1.0).contains(&g));
            }
        }
        let after: f32 = negs.iter().map(|&j| m.score(u, pos) - m.score(u, j)).sum();
        assert!(after > before, "margins did not grow: {before} → {after}");
    }

    #[test]
    fn update_batch_duplicate_negatives_accumulate() {
        // A duplicated negative must receive both pushes — compare against
        // the same group with distinct negatives only through finiteness
        // and the doubled gradient on the duplicated row.
        let base = model(22);
        let mut once = base.clone();
        let mut twice = base.clone();
        let mut infos = Vec::new();
        let mut batch = TripleBatch::new();
        batch.begin_fill(2);
        batch.push_row(0, 1).copy_from_slice(&[4, 5]);
        once.update_batch(&batch, 0.1, 0.0, &mut infos);
        batch.begin_fill(2);
        batch.push_row(0, 1).copy_from_slice(&[4, 4]);
        twice.update_batch(&batch, 0.1, 0.0, &mut infos);
        let delta = |m: &MatrixFactorization, i: u32| -> f32 {
            m.item_embedding(i)
                .iter()
                .zip(base.item_embedding(i))
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        assert!(delta(&twice, 4) > delta(&once, 4) * 1.5);
    }

    #[test]
    fn infonce_loss_decreases_under_training() {
        let mut m = model(8);
        let (u, pos) = (0u32, 1u32);
        let negs = [2u32, 3, 4];
        let first = m.infonce_update(u, pos, &negs, 0.05, 0.0, 0.5);
        let mut last = first;
        for _ in 0..200 {
            last = m.infonce_update(u, pos, &negs, 0.05, 0.0, 0.5);
        }
        assert!(
            last < first,
            "InfoNCE loss did not decrease: {first} → {last}"
        );
        // The positive now dominates every negative.
        for &j in &negs {
            assert!(m.score(u, pos) > m.score(u, j));
        }
    }

    #[test]
    fn infonce_gradient_matches_finite_difference() {
        // Check ∂L/∂wᵤ[0] numerically: run one zero-lr pass to get the loss
        // function, then compare a lr-scaled parameter delta with the
        // central difference.
        let m0 = model(9);
        let (u, pos) = (1u32, 0u32);
        let negs = [2u32, 5];
        let tau = 0.7f32;
        let loss_at = |m: &MatrixFactorization| {
            // Recompute the InfoNCE loss without mutating.
            let s_pos = m.score(u, pos) / tau;
            let mx = negs
                .iter()
                .map(|&j| m.score(u, j) / tau)
                .fold(s_pos, f32::max);
            let e_pos = (s_pos - mx).exp();
            let z: f32 = e_pos
                + negs
                    .iter()
                    .map(|&j| (m.score(u, j) / tau - mx).exp())
                    .sum::<f32>();
            -((e_pos / z).ln())
        };
        // Analytic step: lr = 1 on a copy; parameter delta = −gradient.
        let mut stepped = m0.clone();
        stepped.infonce_update(u, pos, &negs, 1.0, 0.0, tau);
        let grad0 = m0.user_embedding(u)[0] - stepped.user_embedding(u)[0];

        // Numeric gradient for coordinate 0 of wᵤ.
        let eps = 1e-3f32;
        let mut up = m0.clone();
        up.users_mut_for_test(u)[0] += eps;
        let mut down = m0.clone();
        down.users_mut_for_test(u)[0] -= eps;
        let numeric = (loss_at(&up) - loss_at(&down)) / (2.0 * eps);
        assert!(
            (grad0 - numeric).abs() < 2e-3,
            "analytic {grad0} vs numeric {numeric}"
        );
    }

    #[test]
    fn infonce_temperature_sharpens_gradients() {
        // Lower temperature → larger update magnitude for the same state.
        let base = model(10);
        let mut cold = base.clone();
        let mut warm = base.clone();
        cold.infonce_update(0, 1, &[2, 3], 0.1, 0.0, 0.1);
        warm.infonce_update(0, 1, &[2, 3], 0.1, 0.0, 2.0);
        let delta = |m: &MatrixFactorization| -> f32 {
            m.user_embedding(0)
                .iter()
                .zip(base.user_embedding(0))
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        assert!(delta(&cold) > delta(&warm));
    }
}
