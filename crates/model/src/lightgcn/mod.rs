//! LightGCN (He et al., SIGIR 2020) — the paper's second CF model.
//!
//! LightGCN removes feature transforms and non-linearities from graph
//! convolution: embeddings are propagated through the normalized bipartite
//! adjacency `Ã` and the layers are averaged,
//!
//! ```text
//! E⁽ᵏ⁺¹⁾ = Ã E⁽ᵏ⁾,   E_final = (1/(K+1)) Σ_{k=0..K} E⁽ᵏ⁾,
//! ```
//!
//! with BPR on the final embeddings. Because `Ã` is symmetric, the exact
//! gradient w.r.t. the base embeddings is the same averaged propagation
//! applied to the gradient at the output:
//! `∂L/∂E⁽⁰⁾ = (1/(K+1)) Σ_k Ãᵏ (∂L/∂E_final)`.
//!
//! The batch protocol accumulates output-side gradients sparsely per triple
//! and performs the dense backward + SGD step once per mini-batch
//! ([`PairwiseModel::end_batch`]), matching reference mini-batch training
//! (the paper uses batch 128 for the small datasets, 1024 for ML-1M,
//! K = 1 layer).

pub mod graph;

pub use graph::NormAdjacency;

use crate::batch::TripleBatch;
use crate::embedding::Embedding;
use crate::loss::info;
use crate::scorer::{PairwiseModel, RowTables, Scorer, TableStamp};
use crate::{ModelError, Result};
use bns_data::Interactions;
use rand::Rng;

/// LightGCN model state.
#[derive(Debug, Clone)]
pub struct LightGcn {
    adj: NormAdjacency,
    dim: usize,
    layers: usize,
    /// Base ("layer 0") embeddings, `(M+N) × dim`.
    base: Vec<f32>,
    /// Propagated, layer-averaged embeddings, `(M+N) × dim`.
    final_emb: Vec<f32>,
    /// Per-batch gradient w.r.t. `final_emb` (ascent direction).
    grad: Vec<f32>,
    /// Nodes some triple of this batch touched, each once.
    touched: Vec<u32>,
    /// Whether each node is in `touched`.
    in_touched: Vec<bool>,
    /// Backward-pass scratch: the batch gradient w.r.t. `base`.
    grad_base: Vec<f32>,
    /// Dirty flag: `final_emb` must be recomputed before scoring.
    stale: bool,
    /// The state of `final_emb`: a fresh stamp per [`LightGcn::refresh`],
    /// which rewrites the whole table (see [`Scorer::row_tables`]). A
    /// clone shares it until either copy refreshes, and so do its rows.
    stamp: TableStamp,
    /// Scratch buffers for propagation.
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
}

impl LightGcn {
    /// Creates a LightGCN over the training graph with `N(0, init_std)`
    /// base embeddings (paper: d = 32, K = 1).
    pub fn new<R: Rng + ?Sized>(
        train: &Interactions,
        dim: usize,
        layers: usize,
        init_std: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(ModelError::InvalidConfig("dim must be > 0".into()));
        }
        if layers == 0 {
            return Err(ModelError::InvalidConfig(
                "layers must be ≥ 1 (0 layers is plain MF)".into(),
            ));
        }
        let adj = NormAdjacency::from_interactions(train);
        let n_nodes = adj.n_nodes();
        let base = Embedding::normal_init(n_nodes, dim, init_std, rng)?;
        let sz = n_nodes * dim;
        let mut model = Self {
            adj,
            dim,
            layers,
            base: base.as_slice().to_vec(),
            final_emb: vec![0.0; sz],
            grad: vec![0.0; sz],
            touched: Vec::new(),
            in_touched: vec![false; n_nodes],
            grad_base: vec![0.0; sz],
            stale: true,
            stamp: TableStamp::fresh(),
            buf_a: vec![0.0; sz],
            buf_b: vec![0.0; sz],
        };
        model.refresh();
        Ok(model)
    }

    /// Node id of item `i` in the packed node space.
    #[inline]
    fn item_node(&self, i: u32) -> usize {
        (self.adj.n_users() + i) as usize
    }

    /// Recomputes `final_emb = (1/(K+1)) Σ_k Ãᵏ base`, under a fresh
    /// [`TableStamp`].
    pub fn refresh(&mut self) {
        propagate_mean(
            &self.adj,
            &self.base,
            self.layers,
            self.dim,
            &mut self.final_emb,
            &mut self.buf_a,
            &mut self.buf_b,
        );
        self.stale = false;
        self.stamp = TableStamp::fresh();
    }

    /// Number of propagation layers `K`.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Whether the propagated embeddings are stale (a base-embedding update
    /// has been applied since the last [`LightGcn::refresh`]). Scores must
    /// only be read when this is `false`, and [`Scorer::row_tables`] is
    /// `None` until then.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Base embedding of a node (for tests).
    pub fn base_embedding(&self, node: usize) -> &[f32] {
        &self.base[node * self.dim..(node + 1) * self.dim]
    }

    /// Mutable base embedding (for gradient-check tests).
    pub fn base_embedding_mut(&mut self, node: usize) -> &mut [f32] {
        self.stale = true;
        &mut self.base[node * self.dim..(node + 1) * self.dim]
    }

    /// Records `node` in `touched` unless this batch already has.
    fn touch(&mut self, node: usize) {
        if !self.in_touched[node] {
            self.in_touched[node] = true;
            self.touched.push(node as u32);
        }
    }

    fn add_grad(&mut self, node: usize, coeff: f32, from: usize) {
        // grad[node] += coeff · final_emb[from]
        let d = self.dim;
        self.touch(node);
        for k in 0..d {
            self.grad[node * d + k] += coeff * self.final_emb[from * d + k];
        }
    }

    fn add_grad_diff(&mut self, node: usize, coeff: f32, a: usize, b: usize) {
        // grad[node] += coeff · (final_emb[a] − final_emb[b])
        let d = self.dim;
        self.touch(node);
        for k in 0..d {
            self.grad[node * d + k] +=
                coeff * (self.final_emb[a * d + k] - self.final_emb[b * d + k]);
        }
    }
}

/// `out = (1/(K+1)) Σ_{k=0..K} Ãᵏ src`, using two scratch buffers.
fn propagate_mean(
    adj: &NormAdjacency,
    src: &[f32],
    layers: usize,
    dim: usize,
    out: &mut [f32],
    buf_a: &mut Vec<f32>,
    buf_b: &mut Vec<f32>,
) {
    out.copy_from_slice(src); // layer 0
    buf_a.copy_from_slice(src);
    for k in 0..layers {
        // buf_b = Ã buf_a; out += buf_b
        adj.propagate(buf_a, buf_b, dim);
        for (o, &b) in out.iter_mut().zip(buf_b.iter()) {
            *o += b;
        }
        if k + 1 < layers {
            std::mem::swap(buf_a, buf_b);
        }
    }
    let scale = 1.0 / (layers as f32 + 1.0);
    for o in out.iter_mut() {
        *o *= scale;
    }
}

impl Scorer for LightGcn {
    fn n_users(&self) -> u32 {
        self.adj.n_users()
    }

    fn n_items(&self) -> u32 {
        self.adj.n_items()
    }

    #[inline]
    fn score(&self, u: u32, i: u32) -> f32 {
        debug_assert!(
            !self.stale,
            "scores read from a stale LightGCN; call refresh()"
        );
        let d = self.dim;
        let un = u as usize;
        let inn = self.item_node(i);
        crate::kernel::dot(
            &self.final_emb[un * d..(un + 1) * d],
            &self.final_emb[inn * d..(inn + 1) * d],
        )
    }

    /// The propagated table, split at the first item node; `None` while
    /// stale.
    fn row_tables(&self) -> Option<RowTables<'_>> {
        if self.stale {
            return None;
        }
        let (users, items) = self
            .final_emb
            .split_at(self.adj.n_users() as usize * self.dim);
        Some(RowTables {
            users,
            items,
            dim: self.dim,
            stamp: self.stamp,
            changed: &[],
        })
    }
}

impl PairwiseModel for LightGcn {
    fn begin_epoch(&mut self, _epoch: usize) {
        if self.stale {
            self.refresh();
        }
    }

    fn begin_batch(&mut self) {
        debug_assert!(self.touched.is_empty(), "unfinished previous batch");
    }

    fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, _lr: f32, _reg: f32) -> f32 {
        debug_assert_ne!(pos, neg, "positive and negative item must differ");
        let g = info(self.score(u, pos), self.score(u, neg));
        let un = u as usize;
        let pn = self.item_node(pos);
        let nn = self.item_node(neg);
        // Ascent direction of ln σ(x̂ᵤᵢ − x̂ᵤⱼ) w.r.t. final embeddings.
        self.add_grad_diff(un, g, pn, nn);
        self.add_grad(pn, g, un);
        self.add_grad(nn, -g, un);
        g
    }

    /// The [`TripleBatch`] path: gradients accumulate sparsely exactly as
    /// in [`PairwiseModel::accumulate_triple`], but `x̂ᵤᵢ` is computed once
    /// per row group instead of once per negative (the propagated
    /// embeddings are frozen between [`LightGcn::refresh`] calls, so the
    /// value is identical — `k = 1` rows are bitwise the default path).
    fn update_batch(&mut self, batch: &TripleBatch, _lr: f32, _reg: f32, infos: &mut Vec<f32>) {
        infos.clear();
        infos.reserve(batch.n_triples());
        for (row, (&u, &pos)) in batch.users().iter().zip(batch.pos()).enumerate() {
            let s_pos = self.score(u, pos);
            let un = u as usize;
            let pn = self.item_node(pos);
            for &neg in batch.negs_of(row) {
                debug_assert_ne!(pos, neg, "positive and negative item must differ");
                let g = info(s_pos, self.score(u, neg));
                let nn = self.item_node(neg);
                self.add_grad_diff(un, g, pn, nn);
                self.add_grad(pn, g, un);
                self.add_grad(nn, -g, un);
                infos.push(g);
            }
        }
    }

    fn end_batch(&mut self, lr: f32, reg: f32) {
        if self.touched.is_empty() {
            return;
        }
        // Backward: grad_base = (1/(K+1)) Σ_k Ãᵏ grad  (Ã symmetric).
        let d = self.dim;
        propagate_mean(
            &self.adj,
            &self.grad,
            self.layers,
            d,
            &mut self.grad_base,
            &mut self.buf_a,
            &mut self.buf_b,
        );
        // SGD ascent step with L2 on the batch's ego (base) embeddings only,
        // matching the reference implementation's regularization.
        for (b, &g) in self.base.iter_mut().zip(self.grad_base.iter()) {
            *b += lr * g;
        }
        for &node in &self.touched {
            let row = &mut self.base[node as usize * d..(node as usize + 1) * d];
            for v in row.iter_mut() {
                *v -= lr * reg * *v;
            }
        }
        // Zero the sparse grad rows and refresh the propagated embeddings.
        for &node in &self.touched {
            self.grad[node as usize * d..(node as usize + 1) * d].fill(0.0);
            self.in_touched[node as usize] = false;
        }
        self.touched.clear();
        self.refresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_train() -> Interactions {
        Interactions::from_pairs(3, 4, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]).unwrap()
    }

    fn model(layers: usize, seed: u64) -> LightGcn {
        let mut rng = StdRng::seed_from_u64(seed);
        LightGcn::new(&tiny_train(), 4, layers, 0.1, &mut rng).unwrap()
    }

    #[test]
    fn construction_and_shapes() {
        let m = model(1, 0);
        assert_eq!(m.n_users(), 3);
        assert_eq!(m.n_items(), 4);
        assert_eq!(m.layers(), 1);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    fn rejects_bad_config() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(LightGcn::new(&tiny_train(), 0, 1, 0.1, &mut rng).is_err());
        assert!(LightGcn::new(&tiny_train(), 4, 0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn final_embeddings_average_layers() {
        // For K = 1: final = (base + Ã base) / 2. Check one node by hand.
        let m = model(1, 1);
        let n = m.adj.n_nodes();
        let d = m.dim;
        let mut prop = vec![0.0f32; n * d];
        m.adj.propagate(&m.base, &mut prop, d);
        for (v, &p) in prop.iter().enumerate().take(n * d) {
            let expected = (m.base[v] + p) / 2.0;
            assert!((m.final_emb[v] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn score_all_matches_score() {
        let m = model(2, 2);
        let mut out = vec![0.0f32; 4];
        m.score_all(1, &mut out);
        for i in 0..4u32 {
            assert!((out[i as usize] - m.score(1, i)).abs() < 1e-7);
        }
    }

    #[test]
    fn tile_scan_is_bitwise_score_all() {
        let m = model(2, 2);
        let tables = m.row_tables().expect("a new model is refreshed");
        let mut all = vec![0.0f32; 4];
        // A tile that repeats user 2, and a short one, over items 1..4;
        // every lane is kept open, so every score is visited.
        for users in [&[2u32, 0, 1, 2][..], &[1, 0]] {
            let mut tile = crate::kernel::UserTile::default();
            tile.set(tables.dim, users.iter().map(|&u| tables.user(u)));
            let mut visited = vec![0usize; users.len()];
            crate::kernel::tile_scan(&tile, &tables.items[tables.dim..], |t, i, s| {
                m.score_all(users[t], &mut all);
                assert_eq!(i, visited[t] as u32, "user {}", users[t]);
                assert_eq!(
                    s.to_bits(),
                    all[1 + i as usize].to_bits(),
                    "user {}",
                    users[t]
                );
                visited[t] += 1;
                None
            });
            assert!(visited.iter().all(|&v| v == 3));
        }
    }

    #[test]
    fn row_tables_hide_while_stale_and_each_refresh_mints_a_stamp() {
        let mut m = model(1, 8);
        let stamp = |m: &LightGcn| m.row_tables().map(|t| t.stamp);
        let first = stamp(&m).expect("a new model is refreshed");
        // A clone holds the same rows until either copy refreshes.
        assert_eq!(stamp(&m.clone()), Some(first));
        m.base_embedding_mut(0)[0] += 1.0;
        assert!(m.is_stale() && m.row_tables().is_none());
        m.refresh();
        let tables = m.row_tables().unwrap();
        // A refresh rewrites the whole table: a new id, no one-write record.
        assert_ne!(tables.stamp, first);
        assert_eq!(tables.stamp.previous(), None);
        assert!(tables.changed.is_empty());
        let second = tables.stamp;
        m.begin_batch();
        m.accumulate_triple(0, 0, 3, 0.0, 0.0);
        m.end_batch(0.1, 0.0);
        let third = stamp(&m).expect("end_batch refreshes");
        assert!(third != first && third != second);
    }

    #[test]
    fn batch_training_widens_margin() {
        let mut m = model(1, 3);
        let (u, pos, neg) = (0u32, 0u32, 3u32);
        let before = m.score(u, pos) - m.score(u, neg);
        for _ in 0..30 {
            m.begin_batch();
            m.accumulate_triple(u, pos, neg, 0.0, 0.0);
            m.end_batch(0.1, 0.0);
        }
        let after = m.score(u, pos) - m.score(u, neg);
        assert!(after > before + 0.1, "margin {before} → {after}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Exactness check of the transposed-propagation backward pass: for
        // the scalar loss L = lnσ(x̂(u,p) − x̂(u,q)), compare the analytic
        // base-embedding gradient against central finite differences.
        let mut m = model(2, 4);
        let (u, pos, neg) = (1u32, 0u32, 3u32);

        // Analytic gradient: run one batch with lr = 1, reg = 0 on a copy
        // whose update equals +grad_base exactly.
        let mut analytic = m.clone();
        analytic.begin_batch();
        analytic.accumulate_triple(u, pos, neg, 0.0, 0.0);
        let base_before = analytic.base.clone();
        analytic.end_batch(1.0, 0.0);
        let grad_analytic: Vec<f32> = analytic
            .base
            .iter()
            .zip(&base_before)
            .map(|(a, b)| a - b)
            .collect();

        // Finite differences on a few random coordinates.
        let loss = |m: &mut LightGcn| -> f64 {
            m.refresh();
            crate::loss::bpr_log_likelihood(m.score(u, pos), m.score(u, neg)) as f64
        };
        let eps = 1e-3f32;
        for &coord in &[0usize, 5, 11, 17, 23] {
            let orig = m.base[coord];
            m.base[coord] = orig + eps;
            let up = loss(&mut m);
            m.base[coord] = orig - eps;
            let down = loss(&mut m);
            m.base[coord] = orig;
            m.refresh();
            let numeric = (up - down) / (2.0 * eps as f64);
            let analytic_g = grad_analytic[coord] as f64;
            assert!(
                (numeric - analytic_g).abs() < 2e-3,
                "coord {coord}: numeric {numeric} vs analytic {analytic_g}"
            );
        }
    }

    #[test]
    fn end_batch_clears_gradient_state() {
        let mut m = model(1, 5);
        m.begin_batch();
        m.accumulate_triple(0, 0, 2, 0.0, 0.0);
        m.end_batch(0.01, 0.0);
        assert!(m.touched.is_empty());
        assert!(m.grad.iter().all(|&g| g == 0.0));
        // A second batch must not panic on the debug assert.
        m.begin_batch();
        m.accumulate_triple(1, 1, 3, 0.0, 0.0);
        m.end_batch(0.01, 0.0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut m = model(1, 6);
        let before = m.base.clone();
        m.begin_batch();
        m.end_batch(0.1, 0.1);
        assert_eq!(m.base, before);
    }

    #[test]
    fn regularization_targets_touched_rows() {
        let mut m = model(1, 7);
        let untouched_node = 2usize; // user 2 not in the triple below
        let before = m.base_embedding(untouched_node).to_vec();
        m.begin_batch();
        m.accumulate_triple(0, 0, 3, 0.0, 0.0);
        m.end_batch(0.0, 0.9); // lr 0: only the reg term could move rows
        assert_eq!(m.base_embedding(untouched_node), &before[..]);
    }

    #[test]
    fn a_zero_gradient_triple_does_not_shrink_its_rows_twice() {
        // A saturated triple (info rounds to 0) leaves the gradient rows of
        // its nodes all zero; a second triple on the same user and positive
        // must not record them again, or `end_batch` shrinks them twice.
        let mut m = model(1, 10);
        let (u, pos, neg, other) = (0u32, 0u32, 3u32, 2u32);
        let (un, pn) = (u as usize, 3 + pos as usize);
        for (node, sign) in [
            (un, 1.0f32),
            (pn, 1.0),
            (3 + neg as usize, -1.0),
            (3 + 2, -1.0),
        ] {
            m.base_embedding_mut(node).fill(sign * 20.0);
        }
        m.refresh();
        let (lr, reg) = (0.1f32, 0.5f32);
        m.begin_batch();
        assert_eq!(m.accumulate_triple(u, pos, neg, lr, reg), 0.0);
        assert_eq!(m.accumulate_triple(u, pos, other, lr, reg), 0.0);
        let mut touched = m.touched.clone();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(touched.len(), m.touched.len(), "touched {:?}", m.touched);
        let before = m.base_embedding(un).to_vec();
        m.end_batch(lr, reg);
        // Zero gradient: only the L2 shrink moves the row, exactly once.
        for (after, b) in m.base_embedding(un).iter().zip(&before) {
            assert_eq!(*after, b - lr * reg * b);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = model(1, 9);
        let b = model(1, 9);
        assert_eq!(a.score(0, 0), b.score(0, 0));
    }
}
