//! The freeze-time IVF index: deterministic k-means over the frozen item
//! table, giving the query engine a sublinear candidate-generation stage.
//!
//! ## Why
//!
//! `QueryEngine::top_k` in exact mode scans every item's i8 code —
//! perfect recall, but `O(n_items)` per query, which grows with the
//! catalog however cheap each row is. The retrieval-vs-ranking split of
//! the negative-sampling survey (Ma et al., 2409.07237) assumes a
//! candidate-generation stage in front of exact scoring; this module is
//! that stage, built entirely at [`crate::ModelArtifact::freeze`] time and
//! stored inside the artifact.
//!
//! ## What is stored
//!
//! An inverted-file (IVF) layout over the item table:
//!
//! * `centroids` — `n_clusters × dim` k-means cluster centers;
//! * `radii` — per cluster, the max distance of a member to its center
//!   (the Cauchy–Schwarz probe bound below);
//! * `perm` — the item ids permuted so each cluster's members are
//!   **contiguous** (within a cluster, ascending id);
//! * `offsets` — `n_clusters + 1` bounds into `perm`;
//! * `vectors` — the item rows copied into `perm` order (the classic
//!   IVF-Flat inverted-list layout), bit for bit the item table's rows
//!   (checked when an artifact loads). An artifact with an index serves
//!   both query modes from this order: its i8 serving codes are coded
//!   from `vectors`, a cluster is the contiguous row range
//!   `offsets[c]..offsets[c + 1]` of one scan, and the few rows the codes
//!   cannot rule out are re-scored against the neighbouring `vectors` row
//!   instead of a random-access gather through `perm`.
//!
//! At query time the engine scores all centroids with the shared
//! [`kernel::gemv`], then runs the exact mode's i8 scan over the best
//! `nprobe` clusters' row ranges, in bound order, and selects with the
//! same [`bns_eval::topk`] tie-break as the exact path. Clusters are
//! ranked by the **upper bound** `u·c + ‖u‖·r_c ≥ max_{i∈c} u·h_i`
//! rather than the raw centroid score: for max-inner-product retrieval
//! the bound stops high-variance clusters (which hide extreme items
//! behind a mediocre mean) from being skipped, which is what carries
//! recall@10 at small probe fractions. (The bound is computed in `f32`
//! without rounding slack, so it orders clusters; it decides nothing.)
//!
//! ## Determinism
//!
//! The build is bit-reproducible from `(item table, IvfConfig)` alone:
//! std-only Lloyd's with a fixed iteration count, splitmix64-seeded
//! initialization, fixed-order accumulation, lowest-id tie-breaks on
//! assignment, and empty clusters keeping their previous center. Same
//! seed → byte-identical index section (pinned by
//! `crates/serve/tests/ivf_index.rs`). The ANN *answers* are likewise a
//! pure function of `(artifact, nprobe)` — approximate against the exact
//! ranking, but never nondeterministic.

use crate::artifact::put_f32s;
use crate::{Result, ServeError};
use bns_data::le::Reader;
use bns_data::storage::{F32Buf, Storage, U32Buf};
use bns_model::kernel;
use bns_sync::splitmix64;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the freeze-time k-means build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of clusters; `0` picks `clamp(4·√n_items, 1, n_items/8)`,
    /// which keeps the centroid scan two to three orders of magnitude
    /// under the catalog while leaving clusters fine-grained enough to
    /// probe ~1–2% of items at the default `nprobe`.
    pub n_clusters: usize,
    /// Lloyd iterations over the training sample. Fixed count — no
    /// convergence test — so the build cost and the result are both
    /// deterministic.
    pub iters: usize,
    /// Seed of the splitmix64 stream that picks the initial centers.
    pub seed: u64,
    /// Training-sample budget as a multiple of `n_clusters` (`0` trains
    /// on every item). Lloyd's runs on an evenly-strided sample of
    /// `sample_per_cluster · n_clusters` items, then one full assignment
    /// pass places all items — the standard IVF trick that keeps
    /// freeze-time sub-minute at million-item catalogs.
    pub sample_per_cluster: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            n_clusters: 0,
            iters: 10,
            seed: 0x1BF5_C0DE,
            sample_per_cluster: 32,
        }
    }
}

impl IvfConfig {
    /// The cluster count this config resolves to for an `n_items` catalog.
    pub fn resolved_clusters(&self, n_items: usize) -> usize {
        if self.n_clusters > 0 {
            return self.n_clusters.clamp(1, n_items.max(1));
        }
        let auto = (4.0 * (n_items as f64).sqrt()).ceil() as usize;
        auto.clamp(1, (n_items / 8).max(1))
    }
}

/// A built (or decoded) IVF index over a frozen item table.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    n_items: usize,
    centroids: F32Buf,
    radii: F32Buf,
    offsets: U32Buf,
    perm: U32Buf,
    /// Item rows in `perm` order — bit-identical copies of the frozen
    /// table, laid out so each cluster scans sequentially.
    vectors: F32Buf,
}

impl IvfIndex {
    /// Builds the index over a row-major `n_items × dim` item table with
    /// deterministic Lloyd's k-means (see the module doc for the exact
    /// protocol).
    pub fn build(items: &[f32], n_items: usize, dim: usize, cfg: &IvfConfig) -> Self {
        assert!(dim > 0, "IVF index requires dim >= 1");
        assert_eq!(items.len(), n_items * dim, "item table must be n × d");
        assert!(n_items > 0, "IVF index requires a non-empty catalog");
        let k = cfg.resolved_clusters(n_items);

        // Training sample: evenly strided over the catalog (deterministic,
        // order-preserving), capped at sample_per_cluster · k points.
        let budget = if cfg.sample_per_cluster == 0 {
            n_items
        } else {
            (cfg.sample_per_cluster * k).min(n_items)
        };
        let sample: Vec<u32> = if budget >= n_items {
            (0..n_items as u32).collect()
        } else {
            (0..budget)
                .map(|j| ((j as u64 * n_items as u64) / budget as u64) as u32)
                .collect()
        };

        // Seeded init: k distinct sample members via the splitmix64
        // stream, linear-probing past duplicates so the choice is still a
        // pure function of the seed.
        let mut taken = vec![false; sample.len()];
        let mut centroids = vec![0.0f32; k * dim];
        let mut state = cfg.seed;
        for c in 0..k {
            state = splitmix64(state);
            let mut at = (state % sample.len() as u64) as usize;
            while taken[at] {
                at = (at + 1) % sample.len();
            }
            taken[at] = true;
            let row = sample[at] as usize;
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&items[row * dim..(row + 1) * dim]);
        }

        // Lloyd's: fixed iteration count, f64 fixed-order accumulation,
        // empty clusters keep their previous center.
        let mut cnorm = vec![0.0f32; k];
        let mut scores = vec![0.0f32; k];
        let mut assign = vec![0u32; sample.len()];
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u64; k];
        for _ in 0..cfg.iters {
            for c in 0..k {
                let row = &centroids[c * dim..(c + 1) * dim];
                cnorm[c] = kernel::dot(row, row);
            }
            for (slot, &id) in assign.iter_mut().zip(&sample) {
                let x = &items[id as usize * dim..(id as usize + 1) * dim];
                *slot = nearest(x, &centroids, &cnorm, &mut scores);
            }
            sums.iter_mut().for_each(|s| *s = 0.0);
            counts.iter_mut().for_each(|c| *c = 0);
            for (&c, &id) in assign.iter().zip(&sample) {
                let x = &items[id as usize * dim..(id as usize + 1) * dim];
                let acc = &mut sums[c as usize * dim..(c as usize + 1) * dim];
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a += v as f64;
                }
                counts[c as usize] += 1;
            }
            for c in 0..k {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = (s * inv) as f32;
                    }
                }
            }
        }

        // Final pass: assign every item, then recompute each center and
        // radius over its actual members (ascending-id order throughout).
        for c in 0..k {
            let row = &centroids[c * dim..(c + 1) * dim];
            cnorm[c] = kernel::dot(row, row);
        }
        let mut full_assign = vec![0u32; n_items];
        for (i, slot) in full_assign.iter_mut().enumerate() {
            let x = &items[i * dim..(i + 1) * dim];
            *slot = nearest(x, &centroids, &cnorm, &mut scores);
        }
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, &c) in full_assign.iter().enumerate() {
            let x = &items[i * dim..(i + 1) * dim];
            let acc = &mut sums[c as usize * dim..(c as usize + 1) * dim];
            for (a, &v) in acc.iter_mut().zip(x) {
                *a += v as f64;
            }
            counts[c as usize] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *dst = (s * inv) as f32;
                }
            }
        }

        // Counting sort by cluster: offsets, then the cluster-contiguous
        // permutation (within a cluster, ids ascend because the fill walks
        // items in id order).
        let mut offsets = vec![0u32; k + 1];
        for &c in &full_assign {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor: Vec<u32> = offsets[..k].to_vec();
        let mut perm = vec![0u32; n_items];
        for (i, &c) in full_assign.iter().enumerate() {
            perm[cursor[c as usize] as usize] = i as u32;
            cursor[c as usize] += 1;
        }

        let mut radii = vec![0.0f32; k];
        for (i, &c) in full_assign.iter().enumerate() {
            let x = &items[i * dim..(i + 1) * dim];
            let ctr = &centroids[c as usize * dim..(c as usize + 1) * dim];
            let mut d2 = 0.0f32;
            for (&a, &b) in x.iter().zip(ctr) {
                let diff = a - b;
                d2 += diff * diff;
            }
            let r = d2.sqrt();
            if r > radii[c as usize] {
                radii[c as usize] = r;
            }
        }

        // Inverted-list vector copy: rows in perm order, bit-identical to
        // the frozen table, so probing streams instead of gathering.
        let mut vectors = vec![0.0f32; n_items * dim];
        for (slot, &id) in vectors.chunks_exact_mut(dim).zip(&perm) {
            slot.copy_from_slice(&items[id as usize * dim..(id as usize + 1) * dim]);
        }

        Self {
            dim,
            n_items,
            centroids: F32Buf::from(centroids),
            radii: F32Buf::from(radii),
            offsets: U32Buf::from(offsets),
            perm: U32Buf::from(perm),
            vectors: F32Buf::from(vectors),
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.offsets.as_slice().len() - 1
    }

    /// Number of indexed items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The default probe width: a constant 64 clusters (clamped to the
    /// cluster count). With the auto cluster count `k ≈ 4·√n` the probed
    /// *fraction* shrinks as the catalog grows — small test shapes visit
    /// ≥ 25% of clusters (measured recall@10 ≥ 0.95 even on uniform-random
    /// embeddings, the worst case for IVF-MIPS; see
    /// `crates/serve/tests/ivf_recall.rs`), while the 1M-item tier scores
    /// ~4000 centroids + 64 clusters of ~250 items ≈ 20k dots, ≥ 50× under
    /// the exhaustive scan.
    pub fn default_nprobe(&self) -> usize {
        64.min(self.n_clusters())
    }

    /// The cluster-contiguous item permutation.
    pub fn perm(&self) -> &[u32] {
        self.perm.as_slice()
    }

    /// Members of cluster `c` as a contiguous slice of item ids.
    pub fn cluster_items(&self, c: usize) -> &[u32] {
        &self.perm.as_slice()[self.cluster_rows(c)]
    }

    /// Cluster `c`'s positions in `perm` order: the rows of
    /// [`vectors`](Self::vectors) and of the scan that hold its members.
    pub(crate) fn cluster_rows(&self, c: usize) -> Range<usize> {
        let offsets = self.offsets.as_slice();
        offsets[c] as usize..offsets[c + 1] as usize
    }

    /// The item rows in `perm` order, row-major.
    pub(crate) fn vectors(&self) -> &[f32] {
        self.vectors.as_slice()
    }

    /// Scores every cluster for probe ordering: `out[c] = u·cᶜ + ‖u‖·r_c`,
    /// the Cauchy–Schwarz upper bound on any member's inner product with
    /// `u`. Centroid dots go through the shared [`kernel::gemv`], so the
    /// pass is bit-deterministic like every other scoring path.
    ///
    /// A NaN bound (a non-finite member makes its cluster's centroid or
    /// radius non-finite) bounds nothing, so it reads `+∞`: such a cluster
    /// ranks first among the probes, and its finite members are scored
    /// like any others.
    pub fn score_clusters(&self, user: &[f32], out: &mut [f32]) {
        debug_assert_eq!(user.len(), self.dim, "user row must match index dim");
        debug_assert_eq!(out.len(), self.n_clusters(), "one slot per cluster");
        kernel::gemv(user, self.centroids.as_slice(), out);
        let unorm = kernel::dot(user, user).sqrt();
        for (slot, &r) in out.iter_mut().zip(self.radii.as_slice()) {
            *slot += unorm * r;
            if slot.is_nan() {
                *slot = f32::INFINITY;
            }
        }
    }

    /// Whether every component serves zero-copy out of a live file mapping.
    pub fn is_mapped(&self) -> bool {
        self.centroids.is_mapped()
            && self.radii.is_mapped()
            && self.offsets.is_mapped()
            && self.perm.is_mapped()
            && self.vectors.is_mapped()
    }

    /// Encoded byte length of the index section body.
    pub(crate) fn encoded_len(&self) -> usize {
        encoded_len(self.n_clusters(), self.n_items, self.dim)
            .expect("a built index fits in memory")
    }

    /// Appends the index section body: `n_clusters u32`, centroid f32 bit
    /// patterns, radii, offsets, perm, reordered vectors — every array at
    /// a 4-byte-aligned offset when the section itself starts aligned.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.n_clusters() as u32).to_le_bytes());
        put_f32s(buf, self.centroids.as_slice());
        put_f32s(buf, self.radii.as_slice());
        for &v in self.offsets.as_slice().iter().chain(self.perm.as_slice()) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        put_f32s(buf, self.vectors.as_slice());
    }

    /// Decodes an index section at `bytes[at..at + len]` of `storage`,
    /// re-validating every structural invariant (cluster count bounds,
    /// monotone offsets covering exactly `n_items`, `perm` an exact
    /// permutation) — checksums upstream catch corruption, this catches a
    /// hostile-but-checksummed or buggy encoder. Components become
    /// zero-copy views into `storage` where the platform allows.
    pub(crate) fn parse(
        storage: &Arc<Storage>,
        at: usize,
        len: usize,
        n_items: usize,
        dim: usize,
    ) -> Result<Self> {
        let invalid = |msg: String| ServeError::Invalid(format!("ivf index: {msg}"));
        let mut r = Reader::window(storage.as_bytes(), at, len, "ivf index section")?;
        let k = r.u32("ivf index section")? as usize;
        if k == 0 || k > n_items {
            return Err(invalid(format!("{k} clusters over {n_items} items")));
        }
        if Some(len) != encoded_len(k, n_items, dim) {
            return Err(invalid(format!(
                "section length {len} does not match {k} clusters × dim {dim} over {n_items} items"
            )));
        }
        // The length matches, so these reads cannot run out.
        let centroids = F32Buf::from_words(storage, r.words(k * dim, "centroids")?);
        let radii = F32Buf::from_words(storage, r.words(k, "radii")?);
        let offsets = U32Buf::from_words(storage, r.words(k + 1, "cluster offsets")?);
        let perm = U32Buf::from_words(storage, r.words(n_items, "perm")?);
        let vectors = F32Buf::from_words(storage, r.words(n_items * dim, "vectors")?);

        {
            let offs = offsets.as_slice();
            if offs[0] != 0 || offs[k] as usize != n_items {
                return Err(invalid("offsets must span [0, n_items]".into()));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err(invalid("offsets must be monotone".into()));
            }
            // Exact-permutation check: each id once. A bitset pass keeps
            // this O(n) time and n/8 bytes of transient memory.
            let mut seen = vec![0u64; n_items.div_ceil(64)];
            for &id in perm.as_slice() {
                let id = id as usize;
                if id >= n_items {
                    return Err(invalid(format!("perm entry {id} out of range")));
                }
                let (w, b) = (id / 64, id % 64);
                if seen[w] & (1 << b) != 0 {
                    return Err(invalid(format!("perm repeats item {id}")));
                }
                seen[w] |= 1 << b;
            }
        }
        Ok(Self {
            dim,
            n_items,
            centroids,
            radii,
            offsets,
            perm,
            vectors,
        })
    }
}

/// Byte length of an index section body: `n_clusters u32` plus the five
/// arrays of 4-byte words. `None` when the size overflows `usize`.
fn encoded_len(k: usize, n_items: usize, dim: usize) -> Option<usize> {
    let words = [
        k.checked_mul(dim)?,
        k,
        k.checked_add(1)?,
        n_items,
        n_items.checked_mul(dim)?,
    ]
    .into_iter()
    .try_fold(0usize, usize::checked_add)?;
    words.checked_mul(4)?.checked_add(4)
}

/// Nearest centroid of `x` under squared L2, lowest index on ties.
/// `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²`, and `‖x‖²` is constant across
/// centroids, so the argmin of `cnorm[c] − 2·(x·c)` suffices — one shared
/// [`kernel::gemv`] over the centroid table per point.
fn nearest(x: &[f32], centroids: &[f32], cnorm: &[f32], scores: &mut [f32]) -> u32 {
    kernel::gemv(x, centroids, scores);
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for (c, (&s, &n)) in scores.iter().zip(cnorm).enumerate() {
        let d = n - 2.0 * s;
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_table(n: usize, dim: usize, seed: u32) -> Vec<f32> {
        (0..n * dim)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(40503));
                ((h % 2000) as f32 / 1000.0) - 1.0
            })
            .collect()
    }

    #[test]
    fn build_partitions_every_item_exactly_once() {
        let (n, d) = (300usize, 8usize);
        let items = pseudo_table(n, d, 1);
        let index = IvfIndex::build(&items, n, d, &IvfConfig::default());
        let mut seen = vec![false; n];
        for c in 0..index.n_clusters() {
            for &i in index.cluster_items(c) {
                assert!(!seen[i as usize], "item {i} in two clusters");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every item must be indexed");
        // The inverted-list rows are bit-identical copies of the table.
        for (j, (&i, copy)) in index
            .perm()
            .iter()
            .zip(index.vectors().chunks_exact(d))
            .enumerate()
        {
            let orig = &items[i as usize * d..(i as usize + 1) * d];
            assert!(
                orig.iter()
                    .zip(copy)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "row {j} diverges from item {i}"
            );
        }
    }

    #[test]
    fn cluster_members_ascend_within_each_cluster() {
        let (n, d) = (200usize, 4usize);
        let items = pseudo_table(n, d, 2);
        let index = IvfIndex::build(&items, n, d, &IvfConfig::default());
        for c in 0..index.n_clusters() {
            let members = index.cluster_items(c);
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "cluster {c} not id-sorted"
            );
        }
    }

    #[test]
    fn same_seed_builds_identical_bytes_different_seed_differs() {
        let (n, d) = (256usize, 8usize);
        let items = pseudo_table(n, d, 3);
        let cfg = IvfConfig::default();
        let mut a = Vec::new();
        IvfIndex::build(&items, n, d, &cfg).encode_into(&mut a);
        let mut b = Vec::new();
        IvfIndex::build(&items, n, d, &cfg).encode_into(&mut b);
        assert_eq!(a, b, "same seed must build byte-identical indexes");
        let mut c = Vec::new();
        IvfIndex::build(&items, n, d, &IvfConfig { seed: 99, ..cfg }).encode_into(&mut c);
        assert_ne!(a, c, "a different seed should move some assignment");
    }

    #[test]
    fn encode_parse_round_trips() {
        let (n, d) = (180usize, 6usize);
        let items = pseudo_table(n, d, 4);
        let built = IvfIndex::build(&items, n, d, &IvfConfig::default());
        let mut buf = Vec::new();
        built.encode_into(&mut buf);
        let len = buf.len();
        assert_eq!(len, built.encoded_len());
        let storage = Arc::new(Storage::Owned(buf));
        let parsed = IvfIndex::parse(&storage, 0, len, n, d).unwrap();
        assert_eq!(parsed.n_clusters(), built.n_clusters());
        assert_eq!(parsed.perm(), built.perm());
        let user = pseudo_table(1, d, 5);
        let mut sa = vec![0.0f32; built.n_clusters()];
        let mut sb = vec![0.0f32; built.n_clusters()];
        built.score_clusters(&user, &mut sa);
        parsed.score_clusters(&user, &mut sb);
        for (a, b) in sa.iter().zip(&sb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parse_rejects_structural_corruption_behind_valid_bytes() {
        let (n, d) = (64usize, 4usize);
        let items = pseudo_table(n, d, 6);
        let built = IvfIndex::build(&items, n, d, &IvfConfig::default());
        let mut good = Vec::new();
        built.encode_into(&mut good);

        // Duplicated perm entry (perm sits between offsets and the
        // reordered vector rows that end the section).
        let mut bad = good.clone();
        let perm_at = bad.len() - 4 * n * d - 4 * n;
        let first = bad[perm_at..perm_at + 4].to_vec();
        bad[perm_at + 4..perm_at + 8].copy_from_slice(&first);
        let storage = Arc::new(Storage::Owned(bad));
        assert!(matches!(
            IvfIndex::parse(&storage, 0, good.len(), n, d),
            Err(ServeError::Invalid(_))
        ));

        // Out-of-range perm entry.
        let mut bad = good.clone();
        let at = bad.len() - 4 * n * d - 4;
        bad[at..at + 4].copy_from_slice(&(n as u32 + 7).to_le_bytes());
        let storage = Arc::new(Storage::Owned(bad));
        assert!(matches!(
            IvfIndex::parse(&storage, 0, good.len(), n, d),
            Err(ServeError::Invalid(_))
        ));

        // Zero clusters.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&0u32.to_le_bytes());
        let storage = Arc::new(Storage::Owned(bad));
        assert!(IvfIndex::parse(&storage, 0, good.len(), n, d).is_err());

        // Wrong section length.
        let storage = Arc::new(Storage::Owned(good.clone()));
        assert!(IvfIndex::parse(&storage, 0, good.len() - 4, n, d).is_err());
    }

    #[test]
    fn probe_bound_dominates_member_scores() {
        // The cluster score must upper-bound every member's inner product
        // with the user (up to the rounding the f32 bound does not cover)
        // — the property that lets the bound order probes for recall.
        let (n, d) = (150usize, 8usize);
        let items = pseudo_table(n, d, 7);
        let index = IvfIndex::build(&items, n, d, &IvfConfig::default());
        let user = pseudo_table(1, d, 8);
        let mut bounds = vec![0.0f32; index.n_clusters()];
        index.score_clusters(&user, &mut bounds);
        for (c, &bound) in bounds.iter().enumerate() {
            for &i in index.cluster_items(c) {
                let s = kernel::dot(&user, &items[i as usize * d..(i as usize + 1) * d]);
                assert!(
                    s <= bound + 1e-4,
                    "member {i} score {s} exceeds cluster {c} bound {bound}"
                );
            }
        }
    }
}
