//! Dense scorer snapshots — the freeze point of the serving subsystem.
//!
//! Every scorer the workspace trains ultimately ranks with a dot product
//! between a user row and an item row (MF directly; LightGCN after
//! propagating and layer-averaging its base embeddings). That dense form
//! is [`Scorer::row_tables`]: a `(users, items)` pair of contiguous tables
//! such that `kernel::dot` of a user row and an item row is **bitwise
//! identical** to the live model's [`Scorer::score`]. `bns-serve` copies
//! those tables into its immutable [`ModelArtifact`]; a model with no row
//! tables (a stale LightGCN) cannot be frozen.
//!
//! The bitwise guarantee holds because every scoring path in the workspace
//! shares one summation order ([`crate::kernel`]), so copying the tables
//! and re-running the kernel reproduces every score exactly.
//! [`SnapshotScorer`] adds only the provenance tag the artifact header
//! records.
//!
//! [`ModelArtifact`]: https://docs.rs/bns-serve

use crate::lightgcn::LightGcn;
use crate::mf::MatrixFactorization;
use crate::scorer::Scorer;

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

/// A scorer that can be frozen into a serving artifact: its dense tables
/// are [`Scorer::row_tables`], and this names the model they came from.
///
/// ```
/// use bns_model::{kernel, MatrixFactorization, Scorer, SnapshotKind, SnapshotScorer};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let model = MatrixFactorization::new(3, 5, 8, 0.1, &mut rng)?;
/// assert_eq!(model.snapshot_kind(), SnapshotKind::Mf);
/// let tables = model.row_tables().expect("MF always exposes its rows");
/// for u in 0..3u32 {
///     for i in 0..5u32 {
///         let frozen = kernel::dot(tables.user(u), tables.item(i));
///         assert_eq!(frozen.to_bits(), model.score(u, i).to_bits());
///     }
/// }
/// # Ok::<(), bns_model::ModelError>(())
/// ```
pub trait SnapshotScorer: Scorer {
    /// Provenance tag recorded in the frozen artifact.
    fn snapshot_kind(&self) -> SnapshotKind;
}

impl SnapshotScorer for MatrixFactorization {
    fn snapshot_kind(&self) -> SnapshotKind {
        SnapshotKind::Mf
    }
}

impl SnapshotScorer for LightGcn {
    /// The propagation is baked in: the frozen tables are the propagated,
    /// layer-averaged rows the live model scores with.
    fn snapshot_kind(&self) -> SnapshotKind {
        SnapshotKind::LightGcnPropagated
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

    /// `kernel::dot` over the row tables reproduces every live score.
    fn assert_rows_score_bitwise(m: &dyn Scorer) {
        let tables = m.row_tables().expect("a fresh model exposes its rows");
        for u in 0..m.n_users() {
            for i in 0..m.n_items() {
                let frozen = crate::kernel::dot(tables.user(u), tables.item(i));
                assert_eq!(frozen.to_bits(), m.score(u, i).to_bits());
            }
        }
    }

    #[test]
    fn mf_snapshot_scores_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = MatrixFactorization::new(4, 6, 8, 0.1, &mut rng).unwrap();
        assert_rows_score_bitwise(&m);
    }

    #[test]
    fn lightgcn_snapshot_scores_bitwise() {
        let train = Interactions::from_pairs(3, 4, &[(0, 0), (0, 2), (1, 1), (2, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = LightGcn::new(&train, 8, 1, 0.1, &mut rng).unwrap();
        assert_rows_score_bitwise(&m);
    }
}
