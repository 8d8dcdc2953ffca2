//! Dense scorer snapshots — the freeze point of the serving subsystem.
//!
//! Every scorer the workspace trains ultimately ranks with a dot product
//! between a user row and an item row (MF directly; LightGCN after
//! propagating and layer-averaging its base embeddings).
//! [`SnapshotScorer`] exposes that common dense form: a `(users, items)`
//! pair of [`Embedding`] tables such that
//! `kernel::dot(users.row(u), items.row(i))` is **bitwise identical** to
//! the live model's [`Scorer::score`] — the contract `bns-serve` builds
//! its immutable [`ModelArtifact`] on.
//!
//! The bitwise guarantee holds because every scoring path in the workspace
//! shares one summation order ([`crate::kernel`]): MF scores through
//! `kernel::dot`, and LightGCN through `kernel::dot` on its propagated
//! rows — so copying the tables and re-running the kernel reproduces
//! every score exactly.
//!
//! [`ModelArtifact`]: https://docs.rs/bns-serve

use crate::embedding::Embedding;
use crate::lightgcn::LightGcn;
use crate::mf::MatrixFactorization;
use crate::scorer::Scorer;
use crate::{ModelError, Result};

/// Which live scorer a frozen snapshot came from (stored in the artifact
/// header for provenance; all kinds serve through the same dense form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Serial BPR matrix factorization.
    Mf,
    /// LightGCN with the propagated, layer-averaged embeddings baked in.
    LightGcnPropagated,
}

impl SnapshotKind {
    /// Stable on-disk tag (artifact format field).
    pub fn tag(self) -> u32 {
        // Tag 1 is retired and must never be reused: artifacts written with
        // it must keep failing to decode rather than load as another kind.
        match self {
            SnapshotKind::Mf => 0,
            SnapshotKind::LightGcnPropagated => 2,
        }
    }

    /// Inverse of [`SnapshotKind::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            0 => Some(SnapshotKind::Mf),
            2 => Some(SnapshotKind::LightGcnPropagated),
            _ => None,
        }
    }

    /// Human-readable name (serve logs, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotKind::Mf => "MF",
            SnapshotKind::LightGcnPropagated => "LightGCN-propagated",
        }
    }
}

/// A scorer that can freeze itself into dense `(users, items)` embedding
/// tables reproducing its scores bitwise through [`crate::kernel::dot`].
///
/// ```
/// use bns_model::{MatrixFactorization, Scorer, SnapshotScorer};
/// use bns_model::kernel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let model = MatrixFactorization::new(3, 5, 8, 0.1, &mut rng)?;
/// let (users, items) = model.snapshot_embeddings()?;
/// for u in 0..3u32 {
///     for i in 0..5u32 {
///         let frozen = kernel::dot(users.row(u as usize), items.row(i as usize));
///         assert_eq!(frozen.to_bits(), model.score(u, i).to_bits());
///     }
/// }
/// # Ok::<(), bns_model::ModelError>(())
/// ```
pub trait SnapshotScorer: Scorer {
    /// Provenance tag recorded in the frozen artifact.
    fn snapshot_kind(&self) -> SnapshotKind;

    /// The dense `(users, items)` tables. Errors when the model is not in
    /// a scoreable state (a stale LightGCN that needs `refresh()`).
    fn snapshot_embeddings(&self) -> Result<(Embedding, Embedding)>;
}

impl SnapshotScorer for MatrixFactorization {
    fn snapshot_kind(&self) -> SnapshotKind {
        SnapshotKind::Mf
    }

    fn snapshot_embeddings(&self) -> Result<(Embedding, Embedding)> {
        Ok((self.users().clone(), self.items().clone()))
    }
}

impl SnapshotScorer for LightGcn {
    fn snapshot_kind(&self) -> SnapshotKind {
        SnapshotKind::LightGcnPropagated
    }

    /// Splits the propagated node table into user rows and item rows.
    /// The propagation is baked in: the artifact scores with a plain dot
    /// over these rows, exactly like the live model's [`Scorer::score`]
    /// on its `final_emb`. Errors when the model is stale (an update has
    /// been applied since the last `refresh()`), because the frozen scores
    /// would not match what the live model would serve after refreshing.
    fn snapshot_embeddings(&self) -> Result<(Embedding, Embedding)> {
        if self.is_stale() {
            return Err(ModelError::InvalidConfig(
                "cannot snapshot a stale LightGCN; call refresh() first".into(),
            ));
        }
        let d = self.dim();
        let n_users = self.n_users() as usize;
        let n_items = self.n_items() as usize;
        let mut users = Vec::with_capacity(n_users * d);
        for node in 0..n_users {
            users.extend_from_slice(self.final_embedding(node));
        }
        let mut items = Vec::with_capacity(n_items * d);
        for node in n_users..n_users + n_items {
            items.extend_from_slice(self.final_embedding(node));
        }
        Ok((
            Embedding::from_vec(n_users, d, users)?,
            Embedding::from_vec(n_items, d, items)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tags_round_trip() {
        for kind in [SnapshotKind::Mf, SnapshotKind::LightGcnPropagated] {
            assert_eq!(SnapshotKind::from_tag(kind.tag()), Some(kind));
        }
        // Tag 1 is retired and must stay unknown.
        assert_eq!(SnapshotKind::from_tag(1), None);
        assert_eq!(SnapshotKind::from_tag(99), None);
    }

    #[test]
    fn mf_snapshot_scores_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = MatrixFactorization::new(4, 6, 8, 0.1, &mut rng).unwrap();
        let (users, items) = m.snapshot_embeddings().unwrap();
        for u in 0..4u32 {
            for i in 0..6u32 {
                let frozen = crate::kernel::dot(users.row(u as usize), items.row(i as usize));
                assert_eq!(frozen.to_bits(), m.score(u, i).to_bits());
            }
        }
    }

    #[test]
    fn lightgcn_snapshot_scores_bitwise() {
        let train = Interactions::from_pairs(3, 4, &[(0, 0), (0, 2), (1, 1), (2, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = LightGcn::new(&train, 8, 1, 0.1, &mut rng).unwrap();
        let (users, items) = m.snapshot_embeddings().unwrap();
        for u in 0..3u32 {
            for i in 0..4u32 {
                let frozen = crate::kernel::dot(users.row(u as usize), items.row(i as usize));
                assert_eq!(frozen.to_bits(), m.score(u, i).to_bits());
            }
        }
    }

    #[test]
    fn stale_lightgcn_snapshot_is_rejected() {
        let train = Interactions::from_pairs(2, 3, &[(0, 0), (1, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = LightGcn::new(&train, 4, 1, 0.1, &mut rng).unwrap();
        m.base_embedding_mut(0)[0] += 1.0; // marks the model stale
        assert!(m.snapshot_embeddings().is_err());
        m.refresh();
        assert!(m.snapshot_embeddings().is_ok());
    }
}
