//! The frozen model artifact: a versioned, checksummed binary freeze of a
//! trained scorer plus its seen-item CSR and (v3) its freeze-time IVF
//! index.
//!
//! ## Format v3 (all integers little-endian)
//!
//! ```text
//! payload:
//!   magic    4 bytes = b"BNSA" (u32 LE 0x414E5342)
//!   version  u32  = 3
//!   kind     u32  SnapshotKind tag (provenance only; all kinds serve alike)
//!   n_users  u32
//!   n_items  u32
//!   dim      u32
//!   users    n_users·dim × u32   f32 bit patterns, row-major   (byte 24)
//!   items    n_items·dim × u32   f32 bit patterns, row-major
//!   seen_len u64, then seen_len bytes: bns_data::serialize::encode_interactions
//!            of the training-positive CSR (the per-user exclusion mask)
//!   index_len u64 (0 = no index), then index_len bytes: the IVF section —
//!            n_clusters u32, centroid f32 bit patterns, per-cluster radii,
//!            cluster offsets, cluster-sorted item permutation, and the
//!            item rows in that order (see [`crate::index`])
//! footer:
//!   digests  n_chunks × u64   word-FNV digest per CHUNK_SIZE payload slice
//!   chunk_size u64
//!   n_chunks   u64
//!   footer_sum u64   word-FNV over [digests‥n_chunks] (protects the footer)
//! ```
//!
//! Every multi-byte region (the two tables, the embedded CSR arrays, and
//! each IVF subsection — the CSR encoding is always a multiple of 4 bytes,
//! so the index section inherits alignment) starts at a 4-byte-aligned
//! file offset, which is what lets [`ModelArtifact::load_mapped`] serve
//! straight out of an `mmap`ed file: the tables become [`F32Buf`] views
//! and the CSR and IVF arrays become `U32Buf`/`F32Buf` views — no read
//! pass, no copy, no per-element decode. Integrity stays three-layered:
//! magic/version gate the format, the chunked word-FNV digests reject any
//! bit flip in payload or footer (verified over the mapped bytes before
//! any view is handed out; the IVF section sits inside the digested
//! payload, so it is covered for free), and the CSR and IVF sections
//! re-validate every structural invariant, down to the IVF rows being the
//! item table's rows bit for bit. The v1 single-trailing-checksum
//! format is rejected with the typed [`ServeError::UnsupportedVersion`];
//! v2 artifacts (no index section) still load, with
//! [`ModelArtifact::index`] absent — Exact-only serving.
//!
//! The layout is **memory-stable**: floats are stored as their exact bit
//! patterns and scored through the same [`bns_model::kernel`] entry points
//! as the live models, so a loaded artifact reproduces the model's scores
//! bitwise whatever the backing store (see [`ModelArtifact::freeze`]).

use crate::index::{IvfConfig, IvfIndex};
use crate::{Result, ServeError};
use bns_data::le::Reader;
use bns_data::serialize::{decode_interactions_storage, encode_interactions};
use bns_data::storage::{F32Buf, Storage};
use bns_data::Interactions;
use bns_model::coded::I8Rows;
use bns_model::snapshot::{SnapshotKind, SnapshotScorer};
use bns_model::{kernel, RowTables, Scorer, TableStamp};
use std::sync::{Arc, OnceLock};

/// Format magic — the file starts with the literal bytes `b"BNSA"`
/// (BNS Artifact), stored here as the little-endian `u32` the encoder
/// writes so the first four bytes of an artifact read "BNSA" in a hex
/// dump.
pub const MAGIC: u32 = u32::from_le_bytes(*b"BNSA");

/// Current format version. Decoders accept [`MIN_VERSION`]..=[`VERSION`]
/// and reject anything else with [`ServeError::UnsupportedVersion`].
pub const VERSION: u32 = 3;

/// Oldest format version decoders still accept. v2 is v3 without the
/// IVF index section; a v2 artifact loads with [`ModelArtifact::index`]
/// absent and serves Exact-only.
pub const MIN_VERSION: u32 = 2;

/// Catalog size at which [`ModelArtifact::freeze`] builds an IVF index by
/// default. Below this an exhaustive scan is already microseconds and the
/// index would only add freeze latency; [`ModelArtifact::freeze_with`]
/// overrides in either direction.
pub const AUTO_INDEX_MIN_ITEMS: usize = 1024;

/// Payload bytes covered by each footer digest. One digest per MiB keeps
/// the footer tiny (8 B/MiB) while letting verification stream cache-sized
/// pieces over the mapped file.
pub const CHUNK_SIZE: usize = 1 << 20;

/// FNV-1a 64-bit hash — the byte-at-a-time reference form.
///
/// Chosen over a CRC because it needs no table, is a few lines of
/// dependency-free code, and at artifact sizes (megabytes) any accidental
/// corruption flips the digest with probability ≈ 1 − 2⁻⁶⁴. It is *not*
/// cryptographic; artifacts are trusted inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a 64 folded over 8-byte little-endian words instead of bytes —
/// the v2 digest. One xor-multiply per 8 bytes makes verification a
/// near-memory-bandwidth pass over the mapped pages (the point of the
/// chunked footer: `load_ms` stops paying a per-byte hash loop on top of
/// the former per-element decode). The zero-padded tail word plus a final
/// length fold keep distinct-length suffixes distinct.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        hash ^= u64::from_le_bytes(*w);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(w);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(0x0000_0100_0000_01B3)
}

/// An immutable frozen scorer: dense user/item tables plus the seen-item
/// CSR, scoring through the same kernel as the live models.
///
/// ```
/// use bns_data::Interactions;
/// use bns_model::{MatrixFactorization, Scorer};
/// use bns_serve::ModelArtifact;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let model = MatrixFactorization::new(3, 5, 8, 0.1, &mut rng)?;
/// let seen = Interactions::from_pairs(3, 5, &[(0, 1), (1, 0), (2, 4)])?;
///
/// // Freeze, round-trip through the binary format, and verify bitwise.
/// let artifact = ModelArtifact::freeze(&model, &seen)?;
/// let reloaded = ModelArtifact::decode(&artifact.encode())?;
/// for u in 0..3u32 {
///     for i in 0..5u32 {
///         assert_eq!(reloaded.score(u, i).to_bits(), model.score(u, i).to_bits());
///     }
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    kind: SnapshotKind,
    /// Minted at freeze or load and never changed: the tables never are.
    stamp: TableStamp,
    /// Row-major `n_users × dim` and `n_items × dim` tables: heap-owned
    /// (freeze, decode) or zero-copy views into a mapped file. Row access
    /// is a plain slice either way, so the kernels cannot tell them apart.
    users: F32Buf,
    items: F32Buf,
    dim: usize,
    /// Training positives; its shape is the tables' `n_users × n_items`.
    seen: Interactions,
    index: Option<IvfIndex>,
    /// The serving codes of the item rows in scan order, built by the
    /// first query and shared by every clone (never serialized).
    codes: Arc<OnceLock<I8Rows>>,
}

/// The item rows in the order both query modes scan them: the index's
/// `perm` order (its `vectors` rows) when the artifact carries one, id
/// order otherwise.
pub(crate) struct ScanOrder<'a> {
    /// The serving codes of `rows`.
    pub codes: &'a I8Rows,
    /// Row-major item rows in scan order.
    pub rows: &'a [f32],
    /// The item id of each row (`perm`), or `None` in id order.
    pub ids: Option<&'a [u32]>,
}

impl ModelArtifact {
    /// Freezes a trained scorer together with the training-positive CSR
    /// used for `exclude_seen` filtering at query time.
    ///
    /// The frozen scores are bitwise identical to the live model's: the
    /// dense tables are copied from [`Scorer::row_tables`] (whose contract
    /// is exactness) and this type scores them through the same
    /// [`bns_model::kernel`] entry points. A scorer without row tables (a
    /// stale LightGCN) is rejected with [`ServeError::Invalid`].
    ///
    /// Catalogs of at least [`AUTO_INDEX_MIN_ITEMS`] items also get a
    /// freeze-time IVF index (default [`IvfConfig`]); smaller ones freeze
    /// index-free, where the exhaustive scan is already fast. Use
    /// [`ModelArtifact::freeze_with`] to force either choice.
    pub fn freeze<S: SnapshotScorer + ?Sized>(scorer: &S, seen: &Interactions) -> Result<Self> {
        let auto = if scorer.n_items() as usize >= AUTO_INDEX_MIN_ITEMS {
            Some(IvfConfig::default())
        } else {
            None
        };
        Self::freeze_with(scorer, seen, auto)
    }

    /// [`ModelArtifact::freeze`] with explicit control over the IVF index:
    /// `Some(cfg)` always builds one (whatever the catalog size), `None`
    /// never does.
    pub fn freeze_with<S: SnapshotScorer + ?Sized>(
        scorer: &S,
        seen: &Interactions,
        ivf: Option<IvfConfig>,
    ) -> Result<Self> {
        if seen.n_users() != scorer.n_users() || seen.n_items() != scorer.n_items() {
            return Err(ServeError::Invalid(format!(
                "seen CSR shape ({} users × {} items) does not match scorer ({} × {})",
                seen.n_users(),
                seen.n_items(),
                scorer.n_users(),
                scorer.n_items()
            )));
        }
        let tables = scorer.row_tables().ok_or_else(|| {
            ServeError::Invalid(
                "scorer exposes no row tables to freeze (a stale LightGCN needs refresh())".into(),
            )
        })?;
        let (n_users, n_items, dim) = (seen.n_users(), seen.n_items() as usize, tables.dim);
        if dim == 0
            || tables.users.len() != n_users as usize * dim
            || tables.items.len() != n_items * dim
        {
            return Err(ServeError::Invalid(format!(
                "row tables of dim {dim} do not hold {n_users} × {n_items} rows"
            )));
        }
        let (users, items) = (tables.users.to_vec(), tables.items.to_vec());
        let index = ivf.map(|cfg| IvfIndex::build(&items, n_items, dim, &cfg));
        Ok(Self {
            kind: scorer.snapshot_kind(),
            stamp: TableStamp::fresh(),
            users: users.into(),
            items: items.into(),
            dim,
            seen: seen.clone(),
            index,
            codes: Arc::default(),
        })
    }

    /// Provenance: which live scorer this artifact was frozen from.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The frozen seen-item CSR (training positives at freeze time).
    pub fn seen(&self) -> &Interactions {
        &self.seen
    }

    /// The freeze-time IVF index, when the artifact carries one (v3 with
    /// an index section, or an in-memory freeze that built one). Absent on
    /// v2 artifacts and small-catalog freezes — the engine then serves
    /// Exact-only.
    pub fn index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// The frozen tables under the artifact's one stamp.
    pub(crate) fn tables(&self) -> RowTables<'_> {
        RowTables {
            users: self.users.as_slice(),
            items: self.items.as_slice(),
            dim: self.dim,
            stamp: self.stamp,
            changed: &[],
        }
    }

    /// The item rows in scan order with their serving codes
    /// ([`I8Rows`]), which queries scan before re-scoring the few rows
    /// that can reach the top-k. The codes are built on first use (about
    /// 35–55 ms at 100k items × d = 32 on a 2-vCPU Xeon, i8 and 4-bit
    /// codes a row) and shared by every clone of this
    /// artifact; an artifact swapped into an engine brings its own.
    pub(crate) fn scan_order(&self) -> ScanOrder<'_> {
        let (rows, ids) = match &self.index {
            Some(index) => (index.vectors(), Some(index.perm())),
            None => (self.items.as_slice(), None),
        };
        let codes = self
            .codes
            .get_or_init(|| I8Rows::from_table(rows, self.dim));
        ScanOrder { codes, rows, ids }
    }

    /// Whether the tables serve zero-copy out of a live file mapping
    /// (true only for [`ModelArtifact::load_mapped`] on a platform where
    /// the mapped views qualified).
    pub fn is_mapped(&self) -> bool {
        self.users.is_mapped() && self.items.is_mapped()
    }

    /// Encodes into the self-describing checksummed binary format
    /// (always version [`VERSION`]; an artifact without an index encodes
    /// `index_len = 0`).
    pub fn encode(&self) -> Vec<u8> {
        let seen_bytes = encode_interactions(&self.seen);
        let index_len = self.index.as_ref().map_or(0, |ix| ix.encoded_len());
        let payload_len = 24
            + 4 * (self.users.as_slice().len() + self.items.as_slice().len())
            + 8
            + seen_bytes.len()
            + 8
            + index_len;
        let n_chunks = payload_len.div_ceil(CHUNK_SIZE);
        let mut buf = Vec::with_capacity(payload_len + 8 * n_chunks + 24);
        for field in [
            MAGIC,
            VERSION,
            self.kind.tag(),
            self.n_users(),
            self.n_items(),
            self.dim as u32,
        ] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        put_f32s(&mut buf, self.users.as_slice());
        put_f32s(&mut buf, self.items.as_slice());
        buf.extend_from_slice(&(seen_bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&seen_bytes);
        buf.extend_from_slice(&(index_len as u64).to_le_bytes());
        if let Some(ix) = &self.index {
            ix.encode_into(&mut buf);
        }
        debug_assert_eq!(buf.len(), payload_len);

        let footer_start = buf.len();
        let digests: Vec<u64> = buf.chunks(CHUNK_SIZE).map(fnv1a64_words).collect();
        for field in digests
            .into_iter()
            .chain([CHUNK_SIZE as u64, n_chunks as u64])
        {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        let footer_sum = fnv1a64_words(&buf[footer_start..]);
        buf.extend_from_slice(&footer_sum.to_le_bytes());
        buf
    }

    /// Decodes a buffer produced by [`ModelArtifact::encode`], verifying
    /// magic, version, every chunk digest and every structural invariant.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let storage = Arc::new(Storage::Owned(buf.to_vec()));
        Self::parse(&storage)
    }

    /// Verifies the chunked footer and returns the payload length.
    fn verify(bytes: &[u8]) -> Result<usize> {
        // magic + version + the 24-byte footer tail is the bare minimum
        // to even identify the format.
        if bytes.len() < 8 + 24 {
            return Err(ServeError::Truncated {
                what: "artifact frame",
            });
        }
        let tail_at = bytes.len() - 24;
        let mut tail = Reader::window(bytes, tail_at, 24, "artifact footer")?;
        let chunk_size = tail.u64_len("chunk size")?;
        let n_chunks = tail.u64_len("chunk count")?;
        let footer_sum = tail.u64("footer checksum")?;
        let digests_len = n_chunks.checked_mul(8).ok_or(ServeError::Truncated {
            what: "chunk digests",
        })?;
        let digest_start = tail_at
            .checked_sub(digests_len)
            .ok_or(ServeError::Truncated {
                what: "chunk digests",
            })?;
        // The footer checksum covers digests + chunk_size + n_chunks, so
        // corruption of the footer itself cannot masquerade as valid.
        let computed = fnv1a64_words(&bytes[digest_start..bytes.len() - 8]);
        if computed != footer_sum {
            return Err(ServeError::ChecksumMismatch {
                stored: footer_sum,
                computed,
            });
        }
        let payload_len = digest_start;
        if chunk_size == 0 || payload_len == 0 {
            return Err(ServeError::Invalid(
                "artifact footer: empty payload or zero chunk size".into(),
            ));
        }
        if payload_len.div_ceil(chunk_size) != n_chunks {
            return Err(ServeError::Invalid(format!(
                "artifact footer: {n_chunks} digests cannot cover {payload_len} payload bytes \
                 at chunk size {chunk_size}"
            )));
        }
        let mut digests = Reader::window(bytes, digest_start, digests_len, "chunk digests")?;
        for (idx, chunk) in bytes[..payload_len].chunks(chunk_size).enumerate() {
            let stored = digests.u64("chunk digests")?;
            let computed = fnv1a64_words(chunk);
            if stored != computed {
                return Err(ServeError::ChunkChecksumMismatch {
                    chunk: idx,
                    stored,
                    computed,
                });
            }
        }
        Ok(payload_len)
    }

    /// The shared parse core: verifies, then builds tables and CSR as
    /// zero-copy views into `storage` when the platform allows, falling
    /// back to owned decodes otherwise (bit-identical results either way).
    fn parse(storage: &Arc<Storage>) -> Result<Self> {
        let bytes = storage.as_bytes();
        let mut frame = Reader::new(bytes);
        let magic = frame.u32("artifact frame")?;
        let version = frame.u32("artifact frame")?;
        if magic != MAGIC {
            return Err(ServeError::BadMagic { found: magic });
        }
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(ServeError::UnsupportedVersion { found: version });
        }
        let payload_len = Self::verify(bytes)?;

        let mut r = Reader::window(bytes, 0, payload_len, "header")?;
        r.take(8, "header")?; // magic + version, checked above
        let kind_tag = r.u32("header")?;
        let n_users = r.u32("header")? as usize;
        let n_items = r.u32("header")? as usize;
        let dim = r.u32("header")? as usize;
        let kind = SnapshotKind::from_tag(kind_tag)
            .ok_or_else(|| ServeError::Invalid(format!("unknown snapshot kind tag {kind_tag}")))?;
        if n_users == 0 || n_items == 0 || dim == 0 {
            return Err(ServeError::Invalid(format!(
                "degenerate shape: {n_users} users × {n_items} items × dim {dim}"
            )));
        }
        let users_len = n_users
            .checked_mul(dim)
            .ok_or_else(|| ServeError::Invalid("users table size overflows".into()))?;
        let items_len = n_items
            .checked_mul(dim)
            .ok_or_else(|| ServeError::Invalid("items table size overflows".into()))?;
        let users = r.words(users_len, "users table")?;
        let items = r.words(items_len, "items table")?;
        let seen_len = r.u64_len("seen length")?;
        let seen_at = r.pos();
        r.take(seen_len, "seen CSR")?;
        // v2 ends at the seen CSR; v3 appends `index_len u64` plus the
        // IVF section. Either way the payload must end exactly where the
        // declared sections do.
        let index_span = if version >= 3 {
            let index_len = r.u64_len("index length")?;
            let index_at = r.pos();
            r.take(index_len, "ivf index")?;
            (index_len > 0).then_some((index_at, index_len))
        } else {
            None
        };
        if r.remaining() != 0 {
            return Err(ServeError::Invalid(
                "trailing bytes after artifact payload".into(),
            ));
        }

        let users = F32Buf::from_words(storage, users);
        let items = F32Buf::from_words(storage, items);

        let seen = decode_interactions_storage(storage, seen_at, seen_len)
            .map_err(|e| ServeError::Invalid(format!("seen CSR: {e}")))?;
        if seen.n_users() as usize != n_users || seen.n_items() as usize != n_items {
            return Err(ServeError::Invalid(format!(
                "seen CSR shape ({} × {}) does not match tables ({n_users} × {n_items})",
                seen.n_users(),
                seen.n_items()
            )));
        }
        let index = match index_span {
            Some((at, len)) => Some(IvfIndex::parse(storage, at, len, n_items, dim)?),
            None => None,
        };
        if let Some(index) = &index {
            // Queries re-score the index's rows in place of the item rows,
            // so they must be the same bits. (The branch-free compare per
            // row vectorizes; an early exit per element ran ~3× slower.)
            let differs = |(row, &id): (&[f32], &u32)| {
                let item = &items.as_slice()[id as usize * dim..][..dim];
                let diff = row.iter().zip(item);
                diff.fold(0, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits())) != 0
            };
            let mut rows = index.vectors().chunks_exact(dim).zip(index.perm());
            if let Some(j) = rows.position(differs) {
                let msg = format!("ivf index: row {j} is not its item's row");
                return Err(ServeError::Invalid(msg));
            }
        }
        Ok(Self {
            kind,
            stamp: TableStamp::fresh(),
            users,
            items,
            dim,
            seen,
            index,
            codes: Arc::default(),
        })
    }

    /// Writes the encoded artifact to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes an artifact file through the buffered path (one
    /// full read into owned memory).
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let storage = Arc::new(Storage::read(path)?);
        Self::parse(&storage)
    }

    /// Memory-maps and decodes an artifact file: after chunk verification
    /// (a single streaming hash pass over the mapped pages) the embedding
    /// tables and CSR arrays are zero-copy views into the mapping, so load
    /// cost stops scaling with a read+copy+decode pass over the file.
    pub fn load_mapped(path: &std::path::Path) -> Result<Self> {
        let storage = Arc::new(Storage::map(path)?);
        Self::parse(&storage)
    }
}

/// Appends `values` as little-endian f32 bit patterns.
pub(crate) fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    for &v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

impl Scorer for ModelArtifact {
    fn n_users(&self) -> u32 {
        self.seen.n_users()
    }

    fn n_items(&self) -> u32 {
        self.seen.n_items()
    }

    #[inline]
    fn score(&self, u: u32, i: u32) -> f32 {
        let tables = self.tables();
        kernel::dot(tables.user(u), tables.item(i))
    }

    fn row_tables(&self) -> Option<RowTables<'_>> {
        Some(self.tables())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_model::MatrixFactorization;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (MatrixFactorization, Interactions) {
        let mut rng = StdRng::seed_from_u64(11);
        let model = MatrixFactorization::new(4, 7, 8, 0.1, &mut rng).unwrap();
        let seen =
            Interactions::from_pairs(4, 7, &[(0, 1), (0, 3), (1, 0), (2, 6), (3, 2)]).unwrap();
        (model, seen)
    }

    #[test]
    fn encode_decode_round_trip_is_bitwise() {
        let (model, seen) = fixture();
        let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
        let reloaded = ModelArtifact::decode(&artifact.encode()).unwrap();
        assert_eq!(reloaded.kind(), SnapshotKind::Mf);
        assert_eq!(reloaded.seen(), &seen);
        for u in 0..4u32 {
            for i in 0..7u32 {
                assert_eq!(
                    reloaded.score(u, i).to_bits(),
                    model.score(u, i).to_bits(),
                    "score diverged at ({u}, {i})"
                );
            }
        }
    }

    #[test]
    fn score_paths_agree_bitwise() {
        let (model, seen) = fixture();
        let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
        let mut all = vec![0.0f32; 7];
        artifact.score_all(2, &mut all);
        let ids: Vec<u32> = (0..7).collect();
        let mut gathered = vec![0.0f32; 7];
        artifact.score_items(2, &ids, &mut gathered);
        for i in 0..7u32 {
            let s = artifact.score(2, i);
            assert_eq!(s.to_bits(), all[i as usize].to_bits());
            assert_eq!(s.to_bits(), gathered[i as usize].to_bits());
        }
        // The ranking protocol's tile scan over the artifact's rows: a
        // tile that repeats user 2 and a short one, over items 2..7, with
        // every lane kept open so every score is visited.
        let tables = artifact.row_tables().unwrap();
        for users in [&[2u32, 0, 2, 3][..], &[1, 2]] {
            let mut tile = kernel::UserTile::default();
            tile.set(tables.dim, users.iter().map(|&u| tables.user(u)));
            let mut visits = 0;
            kernel::tile_scan(&tile, &tables.items[2 * tables.dim..], |t, i, s| {
                artifact.score_all(users[t], &mut all);
                let want = all[2 + i as usize];
                assert_eq!(s.to_bits(), want.to_bits(), "user {}", users[t]);
                visits += 1;
                None
            });
            assert_eq!(visits, users.len() * 5);
        }
    }

    #[test]
    fn freeze_rejects_a_stale_lightgcn() {
        let train = Interactions::from_pairs(2, 3, &[(0, 0), (1, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = bns_model::LightGcn::new(&train, 4, 1, 0.1, &mut rng).unwrap();
        m.base_embedding_mut(0)[0] += 1.0; // marks the model stale
        assert!(matches!(
            ModelArtifact::freeze(&m, &train),
            Err(ServeError::Invalid(_))
        ));
        m.refresh();
        let artifact = ModelArtifact::freeze(&m, &train).unwrap();
        assert_eq!(artifact.kind(), SnapshotKind::LightGcnPropagated);
        assert_eq!(artifact.score(1, 2).to_bits(), m.score(1, 2).to_bits());
    }

    #[test]
    fn every_backing_exposes_the_frozen_rows_under_one_stamp() {
        let (model, seen) = fixture();
        let owned = ModelArtifact::freeze(&model, &seen).unwrap();
        let path = std::env::temp_dir().join(format!(
            "bns_artifact_rows_test_{}.bnsa",
            std::process::id()
        ));
        owned.save(&path).unwrap();
        let decoded = ModelArtifact::decode(&owned.encode()).unwrap();
        let mapped = ModelArtifact::load_mapped(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let live = model.row_tables().unwrap();
        let mut all = vec![0.0f32; 7];
        let held_out = Interactions::from_pairs(4, 7, &[(0, 0), (1, 2), (2, 5), (3, 4)]).unwrap();
        let data = bns_data::Dataset::new("backings", seen.clone(), held_out).unwrap();
        let ranked = bns_eval::evaluate_ranking(&model, &data, &[1, 3], 1);
        for artifact in [&owned, &decoded, &mapped] {
            let tables = artifact
                .row_tables()
                .expect("an artifact always has its rows");
            assert_eq!((tables.users, tables.items), (live.users, live.items));
            assert_eq!((tables.dim, tables.changed), (8, &[][..]));
            for u in 0..4u32 {
                artifact.score_all(u, &mut all);
                artifact.score_items(u, &[6, 0, 6], &mut all[..3]);
                assert_eq!(artifact.row_tables().unwrap().stamp, tables.stamp);
            }
            // The ranking protocol ranks every backing as the live model.
            assert_eq!(
                bns_eval::evaluate_ranking(artifact, &data, &[1, 3], 1),
                ranked
            );
            assert_eq!(artifact.row_tables().unwrap().stamp, tables.stamp);
        }
    }

    #[test]
    fn freeze_rejects_shape_mismatch() {
        let (model, _) = fixture();
        let wrong = Interactions::from_pairs(3, 7, &[(0, 1)]).unwrap();
        assert!(matches!(
            ModelArtifact::freeze(&model, &wrong),
            Err(ServeError::Invalid(_))
        ));
    }

    #[test]
    fn file_round_trip() {
        let (model, seen) = fixture();
        let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
        let path = std::env::temp_dir().join(format!(
            "bns_artifact_unit_test_{}.bnsa",
            std::process::id()
        ));
        artifact.save(&path).unwrap();
        let reloaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(
            reloaded.score(1, 2).to_bits(),
            artifact.score(1, 2).to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_is_bitwise_and_zero_copy() {
        let (model, seen) = fixture();
        let artifact = ModelArtifact::freeze(&model, &seen).unwrap();
        let path = std::env::temp_dir().join(format!(
            "bns_artifact_mapped_test_{}.bnsa",
            std::process::id()
        ));
        artifact.save(&path).unwrap();
        let mapped = ModelArtifact::load_mapped(&path).unwrap();
        assert_eq!(mapped.seen(), &seen);
        for u in 0..4u32 {
            for i in 0..7u32 {
                assert_eq!(
                    mapped.score(u, i).to_bits(),
                    model.score(u, i).to_bits(),
                    "mapped score diverged at ({u}, {i})"
                );
            }
        }
        #[cfg(all(unix, target_endian = "little"))]
        {
            assert!(mapped.is_mapped(), "tables must serve from the mapping");
            assert!(mapped.seen().is_mapped(), "CSR must serve from the mapping");
        }
        assert!(!artifact.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn on_disk_file_starts_with_bnsa() {
        let (model, seen) = fixture();
        let buf = ModelArtifact::freeze(&model, &seen).unwrap().encode();
        assert_eq!(
            &buf[..4],
            b"BNSA",
            "magic must be recognizable in a hex dump"
        );
    }

    #[test]
    fn v1_artifacts_are_rejected_with_the_typed_version_error() {
        let (model, seen) = fixture();
        let mut buf = ModelArtifact::freeze(&model, &seen).unwrap().encode();
        // Rewrite the version field to 1 (the retired single-checksum
        // format). The version gate must fire before any checksum logic.
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(&buf),
            Err(ServeError::UnsupportedVersion { found: 1 })
        ));
    }

    #[test]
    fn chunk_corruption_reports_the_chunk() {
        let (model, seen) = fixture();
        let mut buf = ModelArtifact::freeze(&model, &seen).unwrap().encode();
        // Flip a payload byte past the header: chunk 0 must be named.
        buf[30] ^= 0x01;
        assert!(matches!(
            ModelArtifact::decode(&buf),
            Err(ServeError::ChunkChecksumMismatch { chunk: 0, .. })
        ));
    }

    #[test]
    fn small_freeze_skips_the_index_and_freeze_with_forces_it() {
        let (model, seen) = fixture();
        // 7 items is far below AUTO_INDEX_MIN_ITEMS.
        let auto = ModelArtifact::freeze(&model, &seen).unwrap();
        assert!(auto.index().is_none());
        let forced = ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default())).unwrap();
        assert!(forced.index().is_some());
        let suppressed = ModelArtifact::freeze_with(&model, &seen, None).unwrap();
        assert!(suppressed.index().is_none());
    }

    #[test]
    fn index_round_trips_through_encode_decode() {
        let (model, seen) = fixture();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(IvfConfig::default())).unwrap();
        let reloaded = ModelArtifact::decode(&artifact.encode()).unwrap();
        let (a, b) = (artifact.index().unwrap(), reloaded.index().unwrap());
        assert_eq!(a.n_clusters(), b.n_clusters());
        assert_eq!(a.perm(), b.perm());
        // And the exact scores stay bitwise regardless of the section.
        for u in 0..4u32 {
            for i in 0..7u32 {
                assert_eq!(reloaded.score(u, i).to_bits(), model.score(u, i).to_bits());
            }
        }
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn word_fnv_distinguishes_padding_from_content() {
        // The zero-padded tail must not collide with literal zero bytes.
        assert_ne!(fnv1a64_words(b"abc"), fnv1a64_words(b"abc\0"));
        assert_ne!(fnv1a64_words(b""), fnv1a64_words(b"\0"));
        assert_ne!(fnv1a64_words(b"12345678"), fnv1a64_words(b"123456780"));
    }
}
