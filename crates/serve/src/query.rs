//! The top-k query engine over a frozen [`ModelArtifact`].
//!
//! One query is the read-only half of the evaluation protocol
//! (`bns_eval::ranking`): score the user against the catalog, mask the
//! seen items from the artifact's CSR, and extract the top-k list with the
//! bounded selection buffer of [`bns_eval::topk`]. Ties break toward lower
//! item ids, so a query's answer is a pure function of the artifact —
//! bit-for-bit reproducible across runs, threads and machines.
//!
//! Both retrieval strategies, picked by [`IndexMode`], run one scan over
//! the artifact's serving codes ([`bns_model::coded::I8Rows`]), kept in
//! the artifact's scan order: the IVF index's cluster-contiguous `perm`
//! order when it carries an index, id order otherwise. For each block of
//! rows a kernel bounds every row's exact score from above on 4-bit codes
//! and passes over the rows whose bound falls strictly below the current
//! k-th best, then a second does the same on the i8 codes of the rows
//! left; each remaining row is mapped to its item id, masked if seen, or
//! scored with `kernel::dot` against its scan-order row and offered to the
//! [`TopKBuffer`]. A passed-over row could neither enter nor tie the
//! selection, so the answer is bit for bit that of scoring every scanned
//! row.
//!
//! * **Exact** scans every row: the answer is the exact ranking, in
//!   `O(n_items)` integer work on 4-bit codes, a thousand-odd rows of i8
//!   work and a few hundred `dot`s.
//! * **Ivf** ranks the artifact's freeze-time clusters ([`crate::index`])
//!   by their centroid bounds and scans only the best `nprobe` clusters'
//!   row ranges. Still deterministic (a pure function of
//!   `(artifact, nprobe)`), but approximate against the exact ranking —
//!   gated by measured recall@k (`crates/serve/tests/ivf_recall.rs`)
//!   instead of bit equality.
//!
//! The hot paths are **allocation-free in steady state**: callers (or the
//! [`crate::engine`] workers) hold one [`QueryScratch`] per thread and the
//! user codes, cluster bounds, selection buffer and output lists are all
//! reused — the same discipline the samplers follow
//! (`tests/sampler_alloc.rs`), pinned for this crate by
//! `crates/serve/tests/query_alloc.rs`.

use crate::cache::TopKCache;
use crate::engine::{serve_parallel, Request, ServeReport};
use crate::{ModelArtifact, Result, ServeError};
use bns_eval::topk::TopKBuffer;
use bns_model::coded::I8User;
use bns_model::{kernel, Scorer};
use bns_sync::{Counter, Generation, Mutex};
use std::fmt::Write as _;

/// Which retrieval strategy [`QueryEngine::top_k_into`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Every item, ranked by its exact score: one integer pass over the
    /// artifact's 4-bit codes, a second over the i8 codes of the rows it
    /// leaves open, then `kernel::dot` on the few rows that can reach the
    /// top-k. Bitwise-exact, `O(n_items)`.
    Exact,
    /// IVF candidate generation: the same pass, over only the `nprobe`
    /// best clusters of the artifact's freeze-time index. Exact over the
    /// probed rows, approximate over the catalog. Requires the artifact to
    /// carry an index ([`ModelArtifact::index`]); `nprobe ≥ 1`.
    Ivf {
        /// How many clusters to probe per query. Higher is slower and
        /// more exact; [`crate::IvfIndex::default_nprobe`] is the
        /// recall-gated default.
        nprobe: usize,
    },
}

/// Reusable per-worker buffers for [`QueryEngine::top_k_into`]: the
/// coded user and the top-k selection buffer both modes scan with, and
/// IVF's cluster bounds and chosen probes. Steady-state allocation-free
/// once warm.
#[derive(Debug, Default)]
pub struct QueryScratch {
    user: I8User,
    topk: TopKBuffer,
    cluster_scores: Vec<f32>,
    ranked_clusters: Vec<u64>,
    probe_ids: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Answers `top_k(user, k, exclude_seen)` queries over a frozen artifact,
/// optionally through a generation-stamped LRU cache, and fans request
/// batches out to scoped workers that share one claim cursor
/// ([`QueryEngine::serve`]).
///
/// ```
/// use bns_data::Interactions;
/// use bns_model::MatrixFactorization;
/// use bns_serve::{ModelArtifact, QueryEngine};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let model = MatrixFactorization::new(2, 6, 4, 0.1, &mut rng)?;
/// let seen = Interactions::from_pairs(2, 6, &[(0, 1), (1, 4)])?;
/// let engine = QueryEngine::new(ModelArtifact::freeze(&model, &seen)?);
///
/// let ranked = engine.top_k(0, 3, true)?;
/// assert_eq!(ranked.len(), 3);
/// assert!(!ranked.contains(&1), "seen item must be filtered");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    artifact: ModelArtifact,
    cache: Option<Mutex<TopKCache>>,
    generation: Generation,
    cache_hits: Counter,
    cache_lookups: Counter,
    exact_queries: Counter,
    opened_rows: Counter,
    rescored_rows: Counter,
    ivf_queries: Counter,
    ivf_opened_rows: Counter,
    ivf_rescored_rows: Counter,
    ivf_scanned_rows: Counter,
    mode: IndexMode,
}

impl QueryEngine {
    /// Creates an engine with no cache: every query runs the exact path
    /// ([`IndexMode::Exact`]).
    pub fn new(artifact: ModelArtifact) -> Self {
        Self {
            artifact,
            cache: None,
            generation: Generation::new(),
            cache_hits: Counter::new(),
            cache_lookups: Counter::new(),
            exact_queries: Counter::new(),
            opened_rows: Counter::new(),
            rescored_rows: Counter::new(),
            ivf_queries: Counter::new(),
            ivf_opened_rows: Counter::new(),
            ivf_rescored_rows: Counter::new(),
            ivf_scanned_rows: Counter::new(),
            mode: IndexMode::Exact,
        }
    }

    /// Creates an engine serving in the given [`IndexMode`]. Fails with
    /// [`ServeError::NoIndex`] when IVF is requested of an index-free
    /// artifact, or [`ServeError::Invalid`] for `nprobe == 0`.
    pub fn with_index_mode(artifact: ModelArtifact, mode: IndexMode) -> Result<Self> {
        let mut engine = Self::new(artifact);
        engine.set_index_mode(mode)?;
        Ok(engine)
    }

    /// Creates an engine with a generation-stamped LRU cache of
    /// `capacity` entries in front of the scoring path. A `capacity` of
    /// zero disables the cache entirely (identical to
    /// [`QueryEngine::new`]), so callers can wire the capacity straight
    /// from configuration without an off-switch.
    pub fn with_cache(artifact: ModelArtifact, capacity: usize) -> Self {
        Self {
            cache: (capacity > 0).then(|| Mutex::new(TopKCache::new(capacity))),
            ..Self::new(artifact)
        }
    }

    /// The frozen artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The retrieval strategy queries currently run.
    pub fn index_mode(&self) -> IndexMode {
        self.mode
    }

    /// Switches the retrieval strategy. `&mut self` like
    /// [`QueryEngine::swap_artifact`]: a mode change happens between
    /// serve batches, never racing in-flight queries. The cache needs no
    /// invalidation — the mode is part of every cache key, so exact and
    /// IVF lists never alias.
    pub fn set_index_mode(&mut self, mode: IndexMode) -> Result<()> {
        self.check_mode(mode)?;
        self.mode = mode;
        Ok(())
    }

    /// Validates `mode` against the served artifact — [`ServeError::NoIndex`]
    /// for IVF against an index-free artifact, [`ServeError::Invalid`] for
    /// `nprobe == 0` — and returns it with `nprobe` clamped to the index's
    /// cluster count (probing more clusters than exist changes nothing).
    fn check_mode(&self, mode: IndexMode) -> Result<IndexMode> {
        match mode {
            IndexMode::Exact => Ok(mode),
            IndexMode::Ivf { nprobe } => {
                let index = self.artifact.index().ok_or(ServeError::NoIndex)?;
                if nprobe == 0 {
                    return Err(ServeError::Invalid(
                        "IndexMode::Ivf requires nprobe >= 1".into(),
                    ));
                }
                Ok(IndexMode::Ivf {
                    nprobe: nprobe.min(index.n_clusters()),
                })
            }
        }
    }

    /// Current artifact generation (bumped by
    /// [`QueryEngine::swap_artifact`]).
    pub fn generation(&self) -> u64 {
        self.generation.current()
    }

    /// Cache hits since construction (0 when no cache is configured).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Cache lookups since construction (0 when no cache is configured).
    pub fn cache_lookups(&self) -> u64 {
        self.cache_lookups.get()
    }

    /// Exact-mode queries scored since construction (cache hits are not
    /// scored and not counted).
    pub fn exact_queries(&self) -> u64 {
        self.exact_queries.get()
    }

    /// Rows exact-mode queries re-scored with `kernel::dot` since
    /// construction: the unmasked rows the pre-filter could not rule out
    /// (every one while the selection is filling). On the serve-exact
    /// benchmark's model at k = 10 that is a mean of ~190 of 100k rows
    /// per query in the IVF index's cluster order, which its artifact
    /// scans, and ~116 in id order.
    pub fn rescored_rows(&self) -> u64 {
        self.rescored_rows.get()
    }

    /// Rows exact-mode queries' 4-bit pre-filter stage left open since
    /// construction: the rows the i8 stage then checked, every re-scored
    /// row among them. A mean of ~1,090 per query on the serve-exact
    /// benchmark's model in cluster order, ~620 in id order.
    pub fn opened_rows(&self) -> u64 {
        self.opened_rows.get()
    }

    /// Appends the per-mode query, opened-row and re-scored-row counters,
    /// and the rows IVF queries scanned (the sizes of their probed
    /// clusters, summed), to a `GET /metrics` body, one `name value` line
    /// each.
    pub(crate) fn render_metrics(&self, out: &mut String) {
        for (name, c) in [
            ("bns_exact_queries", &self.exact_queries),
            ("bns_exact_opened_rows", &self.opened_rows),
            ("bns_exact_rescored_rows", &self.rescored_rows),
            ("bns_ivf_queries", &self.ivf_queries),
            ("bns_ivf_opened_rows", &self.ivf_opened_rows),
            ("bns_ivf_rescored_rows", &self.ivf_rescored_rows),
            ("bns_ivf_scanned_rows", &self.ivf_scanned_rows),
        ] {
            let _ = writeln!(out, "{name} {}", c.get());
        }
    }

    /// Replaces the served artifact (a model hot-swap after retraining)
    /// and bumps the generation, which invalidates every cached top-k
    /// list in one step. Returns the previous artifact.
    ///
    /// Takes `&mut self`: a swap is an exclusive operation between serve
    /// batches, never racing in-flight queries. [`Generation::bump`] is
    /// nevertheless a Release store (and reads Acquire), so the protocol
    /// stays correct when the planned online-learning path starts swapping
    /// through a shared reference; the `cache_swap` scenarios in
    /// `bns-check` pin the invariant either way.
    ///
    /// The [`IndexMode`] survives the swap. Swapping in an index-free
    /// artifact while in IVF mode is not hidden by a silent fallback:
    /// subsequent queries fail with [`ServeError::NoIndex`] until
    /// [`QueryEngine::set_index_mode`] picks a servable mode.
    pub fn swap_artifact(&mut self, artifact: ModelArtifact) -> ModelArtifact {
        self.generation.bump();
        std::mem::replace(&mut self.artifact, artifact)
    }

    /// Answers one query into caller-owned buffers: `out` receives the
    /// ranked item ids (best first, at most `k`), `scratch` holds the
    /// reusable score/selection buffers. Allocation-free once warm
    /// (except on a cache *insert*, which clones the list it stores).
    ///
    /// With `exclude_seen`, the user's frozen training positives are
    /// masked out — the §II recommendation-list protocol; without it, the
    /// raw top-k over the whole catalog is returned.
    pub fn top_k_into(
        &self,
        user: u32,
        k: usize,
        exclude_seen: bool,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        self.top_k_with_mode_into(user, k, exclude_seen, None, scratch, out)
    }

    /// The engine's configured mode upgraded to IVF at the artifact's
    /// default probe width — what a wire request asking for "IVF" without
    /// naming a width gets. Fails with [`ServeError::NoIndex`] when the
    /// served artifact carries no index.
    pub fn default_ivf_mode(&self) -> Result<IndexMode> {
        let index = self.artifact.index().ok_or(ServeError::NoIndex)?;
        Ok(IndexMode::Ivf {
            nprobe: index.default_nprobe(),
        })
    }

    /// [`QueryEngine::top_k_into`] with a per-request [`IndexMode`]
    /// override (`None` = the engine's configured mode) — the network
    /// front-end's per-request `flags` land here. The override is
    /// validated per call (`NoIndex` for IVF against an index-free
    /// artifact, `Invalid` for `nprobe == 0`) and participates in the
    /// cache key exactly like the configured mode, so forced-exact and
    /// forced-IVF answers never alias.
    pub fn top_k_with_mode_into(
        &self,
        user: u32,
        k: usize,
        exclude_seen: bool,
        mode: Option<IndexMode>,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let n_users = self.artifact.n_users();
        if user >= n_users {
            return Err(ServeError::UnknownUser { user, n_users });
        }
        // Clamp `k` and `nprobe` once, here: a list never exceeds the
        // catalog and a probe never exceeds the cluster count, so answers
        // are unchanged, every buffer below stays bounded, and the cache
        // key holds both values without truncation.
        let mode = self.check_mode(mode.unwrap_or(self.mode))?;
        let k = k.min(self.artifact.n_items() as usize);
        // Read the generation once and use it for both the lookup and the
        // insert below: re-reading at insert time could stamp a list
        // computed against the old artifact with the new generation (the
        // staleness bug the bns-check `cache_swap` scenario demonstrates).
        let generation = self.generation.current();
        let key = cache_key(user, k, exclude_seen, mode);
        if let Some(cache) = &self.cache {
            self.cache_lookups.incr();
            let mut cache = cache.lock();
            if let Some(items) = cache.get(key, generation) {
                out.clear();
                out.extend_from_slice(items);
                self.cache_hits.incr();
                return Ok(());
            }
        }

        self.search(user, k, exclude_seen, mode, scratch, out)?;

        if let Some(cache) = &self.cache {
            cache.lock().insert(key, generation, out);
        }
        Ok(())
    }

    /// Both modes' one scan over the artifact's serving codes in scan order
    /// (see [`ModelArtifact::scan_order`]): exact mode scans every row,
    /// IVF the best `nprobe` clusters' row ranges in bound order. Every
    /// row the scan cannot rule out (see [`bns_model::coded::I8Rows::scan`])
    /// is mapped to its item id, masked by a binary search over the sorted
    /// seen list, or scored with `kernel::dot` against its scan-order row
    /// and offered to the [`TopKBuffer`], whose k-th best score is the
    /// floor of the next block. A row the scan passes over scores strictly
    /// below that floor, so offering it would have changed nothing: the
    /// answer equals `top_k_masked` over the scanned rows' exact scores bit
    /// for bit (over every row in exact mode).
    fn search(
        &self,
        user: u32,
        k: usize,
        exclude_seen: bool,
        mode: IndexMode,
        scratch: &mut QueryScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let (queries, opened_rows, rescored_rows) = match mode {
            IndexMode::Exact => (&self.exact_queries, &self.opened_rows, &self.rescored_rows),
            IndexMode::Ivf { .. } => (
                &self.ivf_queries,
                &self.ivf_opened_rows,
                &self.ivf_rescored_rows,
            ),
        };
        queries.incr();
        if k == 0 {
            out.clear();
            return Ok(());
        }
        let urow = self.artifact.tables().user(user);
        let probes = match mode {
            IndexMode::Exact => None,
            IndexMode::Ivf { nprobe } => {
                let index = self.artifact.index().ok_or(ServeError::NoIndex)?;
                let bounds = &mut scratch.cluster_scores;
                bounds.resize(index.n_clusters(), 0.0);
                index.score_clusters(urow, bounds);
                let ranked = &mut scratch.ranked_clusters;
                best_clusters(bounds, nprobe, ranked, &mut scratch.probe_ids);
                Some(index)
            }
        };
        let masked: &[u32] = if exclude_seen {
            self.artifact.seen().items_of(user)
        } else {
            &[]
        };
        let order = self.artifact.scan_order();
        scratch.user.set(urow);
        scratch.topk.begin(k);
        let mut rescored = 0u64;
        let mut visit = |r: usize| {
            let id = order.ids.map_or(r as u32, |ids| ids[r]);
            if masked.binary_search(&id).is_err() {
                rescored += 1;
                let row = &order.rows[r * urow.len()..][..urow.len()];
                scratch.topk.offer(kernel::dot(urow, row), id);
            }
            scratch.topk.floor().unwrap_or(f32::NEG_INFINITY)
        };
        let (codes, mut floor) = (order.codes, f32::NEG_INFINITY);
        let opened = match probes {
            None => codes.scan(&scratch.user, 0..codes.len(), floor, visit).1,
            Some(index) => {
                let (mut scanned, mut opened) = (0u64, 0);
                for &c in &scratch.probe_ids {
                    let rows = index.cluster_rows(c as usize);
                    scanned += rows.len() as u64;
                    let open;
                    (floor, open) = codes.scan(&scratch.user, rows, floor, &mut visit);
                    opened += open;
                }
                self.ivf_scanned_rows.add(scanned);
                opened
            }
        };
        opened_rows.add(opened as u64);
        rescored_rows.add(rescored);
        scratch.topk.emit(out);
        Ok(())
    }

    /// Convenience wrapper over [`QueryEngine::top_k_into`] that
    /// allocates fresh buffers — fine for one-off queries and doc
    /// examples; hot loops should reuse a [`QueryScratch`].
    pub fn top_k(&self, user: u32, k: usize, exclude_seen: bool) -> Result<Vec<u32>> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.top_k_into(user, k, exclude_seen, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Serves a batch of requests on `n_threads` scoped workers claiming
    /// from one shared cursor; see [`crate::engine`] for the scheduling
    /// contract. Validates every request — and that the
    /// configured [`IndexMode`] is servable — up front, so the report
    /// covers all of them in input order.
    pub fn serve(&self, requests: &[Request], n_threads: usize) -> Result<ServeReport> {
        self.check_mode(self.mode)?;
        let n_users = self.artifact.n_users();
        for r in requests {
            if r.user >= n_users {
                return Err(ServeError::UnknownUser {
                    user: r.user,
                    n_users,
                });
            }
        }
        Ok(serve_parallel(self, requests, n_threads))
    }
}

/// Writes the ids of the `nprobe` best clusters by `bounds` to `probes`,
/// best first, in the order of the selection buffer (bound descending,
/// ties toward the lower id), so the answer is that of `top_k_masked`
/// over the bounds. Each cluster becomes one `u64` key that sorts in that
/// order — the bound's bits mapped to an order-reversing integer above the
/// id, with `−0` taken to `+0` so the two tie — and a partial select on
/// `ranked` finds the `nprobe` smallest keys in linear time; only those
/// are sorted. [`crate::IvfIndex::score_clusters`] never writes a NaN
/// bound.
fn best_clusters(bounds: &[f32], nprobe: usize, ranked: &mut Vec<u64>, probes: &mut Vec<u32>) {
    debug_assert!(bounds.iter().all(|b| !b.is_nan()), "NaN cluster bound");
    ranked.clear();
    ranked.extend((0u32..).zip(bounds).map(|(c, &b)| {
        let bits = (b + 0.0).to_bits();
        // Ascends with the bound: negative bounds flip all bits, the rest
        // set the sign bit.
        let ascending = if bits >> 31 == 1 {
            !bits
        } else {
            bits | 1 << 31
        };
        (u64::from(!ascending) << 32) | u64::from(c)
    }));
    let nprobe = nprobe.min(ranked.len());
    if nprobe > 0 {
        ranked.select_nth_unstable(nprobe - 1);
    }
    let best = &mut ranked[..nprobe];
    best.sort_unstable();
    probes.clear();
    probes.extend(best.iter().map(|&key| key as u32));
}

/// Packs `(user, k, exclude_seen, mode)` into one cache key: user in bits
/// 0–31, `k` in 32–63, the mask flag at 64, an IVF flag at 65 and `nprobe`
/// in 66–97. The caller has clamped `k` to the item count and `nprobe` to
/// the cluster count, both `u32`-sized, so no field is truncated and no
/// two distinct queries share a key.
fn cache_key(user: u32, k: usize, exclude_seen: bool, mode: IndexMode) -> u128 {
    let (ivf, nprobe) = match mode {
        IndexMode::Exact => (0u128, 0u128),
        IndexMode::Ivf { nprobe } => (1u128, nprobe as u128),
    };
    debug_assert!(k <= u32::MAX as usize && nprobe <= u32::MAX as u128);
    (user as u128)
        | ((k as u128) << 32)
        | ((exclude_seen as u128) << 64)
        | (ivf << 65)
        | (nprobe << 66)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::Interactions;
    use bns_model::{Embedding, MatrixFactorization};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users × 4 items with hand-set scores via an MF whose dim-1
    /// embeddings multiply to the fixed table below.
    fn engine() -> QueryEngine {
        // users: [1], [2]; items: [0.9, 0.5, 0.7, 0.1]
        let users = Embedding::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let items = Embedding::from_vec(4, 1, vec![0.9, 0.5, 0.7, 0.1]).unwrap();
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        let seen = Interactions::from_pairs(2, 4, &[(0, 0), (1, 2)]).unwrap();
        QueryEngine::new(ModelArtifact::freeze(&model, &seen).unwrap())
    }

    #[test]
    fn ranks_by_score_with_mask() {
        let e = engine();
        // User 0 scores: [0.9, 0.5, 0.7, 0.1]; item 0 seen.
        assert_eq!(e.top_k(0, 2, true).unwrap(), vec![2, 1]);
        assert_eq!(e.top_k(0, 2, false).unwrap(), vec![0, 2]);
        // User 1 scores doubled, same order; item 2 seen.
        assert_eq!(e.top_k(1, 4, true).unwrap(), vec![0, 1, 3]);
    }

    #[test]
    fn unknown_user_is_typed() {
        let e = engine();
        assert!(matches!(
            e.top_k(9, 2, true),
            Err(ServeError::UnknownUser {
                user: 9,
                n_users: 2
            })
        ));
    }

    #[test]
    fn cached_engine_returns_identical_lists_and_counts_hits() {
        let users = Embedding::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let items = Embedding::from_vec(4, 1, vec![0.9, 0.5, 0.7, 0.1]).unwrap();
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        let seen = Interactions::from_pairs(2, 4, &[(0, 0), (1, 2)]).unwrap();
        let e = QueryEngine::with_cache(ModelArtifact::freeze(&model, &seen).unwrap(), 8);
        let first = e.top_k(0, 2, true).unwrap();
        assert_eq!(e.cache_hits(), 0);
        let second = e.top_k(0, 2, true).unwrap();
        assert_eq!(first, second);
        assert_eq!(e.cache_hits(), 1);
        // Different k or mask is a different key.
        let _ = e.top_k(0, 3, true).unwrap();
        let _ = e.top_k(0, 2, false).unwrap();
        assert_eq!(e.cache_hits(), 1);
    }

    #[test]
    fn zero_cache_capacity_disables_the_cache() {
        let users = Embedding::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let items = Embedding::from_vec(4, 1, vec![0.9, 0.5, 0.7, 0.1]).unwrap();
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        let seen = Interactions::from_pairs(2, 4, &[(0, 0)]).unwrap();
        let e = QueryEngine::with_cache(ModelArtifact::freeze(&model, &seen).unwrap(), 0);
        let first = e.top_k(0, 2, true).unwrap();
        assert_eq!(first, e.top_k(0, 2, true).unwrap());
        assert_eq!(e.cache_lookups(), 0, "capacity 0 must bypass the cache");
        assert_eq!(e.cache_hits(), 0);
    }

    #[test]
    fn swap_artifact_bumps_generation_and_invalidates() {
        let users = Embedding::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let items = Embedding::from_vec(4, 1, vec![0.9, 0.5, 0.7, 0.1]).unwrap();
        let model = MatrixFactorization::from_embeddings(users, items).unwrap();
        let seen = Interactions::from_pairs(2, 4, &[(0, 0)]).unwrap();
        let mut e = QueryEngine::with_cache(ModelArtifact::freeze(&model, &seen).unwrap(), 8);
        assert_eq!(e.top_k(0, 2, true).unwrap(), vec![2, 1]);

        // Retrained model: item 3 is now the best for user 0.
        let users2 = Embedding::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let items2 = Embedding::from_vec(4, 1, vec![0.1, 0.2, 0.3, 0.9]).unwrap();
        let model2 = MatrixFactorization::from_embeddings(users2, items2).unwrap();
        let old = e.swap_artifact(ModelArtifact::freeze(&model2, &seen).unwrap());
        assert_eq!(e.generation(), 1);
        assert_eq!(old.score(0, 0), 0.9);
        // The cached [2, 1] must not leak through.
        assert_eq!(e.top_k(0, 2, true).unwrap(), vec![3, 2]);
    }

    #[test]
    fn ivf_mode_requires_an_index_and_nonzero_nprobe() {
        let e = engine(); // 4 items — frozen without an index
        assert!(matches!(
            QueryEngine::with_index_mode(e.artifact().clone(), IndexMode::Ivf { nprobe: 2 }),
            Err(ServeError::NoIndex)
        ));
        let mut rng = StdRng::seed_from_u64(41);
        let model = MatrixFactorization::new(3, 50, 4, 0.1, &mut rng).unwrap();
        let seen = Interactions::from_pairs(3, 50, &[(0, 1)]).unwrap();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(crate::IvfConfig::default())).unwrap();
        assert!(matches!(
            QueryEngine::with_index_mode(artifact.clone(), IndexMode::Ivf { nprobe: 0 }),
            Err(ServeError::Invalid(_))
        ));
        let e = QueryEngine::with_index_mode(artifact, IndexMode::Ivf { nprobe: 3 }).unwrap();
        assert_eq!(e.index_mode(), IndexMode::Ivf { nprobe: 3 });
        assert_eq!(e.top_k(0, 5, true).unwrap().len(), 5);
    }

    #[test]
    fn ivf_with_all_clusters_probed_matches_exact_bitwise() {
        // Probing every cluster visits every item exactly once, so the
        // approximate path degenerates to the exact ranking.
        let mut rng = StdRng::seed_from_u64(43);
        let model = MatrixFactorization::new(5, 120, 8, 0.1, &mut rng).unwrap();
        let pairs: Vec<(u32, u32)> = (0..5u32).flat_map(|u| [(u, u), (u, u + 40)]).collect();
        let seen = Interactions::from_pairs(5, 120, &pairs).unwrap();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(crate::IvfConfig::default())).unwrap();
        let n_clusters = artifact.index().unwrap().n_clusters();
        let exact = QueryEngine::new(artifact.clone());
        let ivf =
            QueryEngine::with_index_mode(artifact, IndexMode::Ivf { nprobe: n_clusters }).unwrap();
        for u in 0..5u32 {
            for exclude in [false, true] {
                assert_eq!(
                    ivf.top_k(u, 10, exclude).unwrap(),
                    exact.top_k(u, 10, exclude).unwrap(),
                    "user {u} exclude {exclude}"
                );
            }
        }
    }

    #[test]
    fn ivf_cache_keys_do_not_alias_exact_keys() {
        let mut rng = StdRng::seed_from_u64(59);
        let model = MatrixFactorization::new(3, 64, 4, 0.1, &mut rng).unwrap();
        let seen = Interactions::from_pairs(3, 64, &[(0, 2)]).unwrap();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(crate::IvfConfig::default())).unwrap();
        let mut e = QueryEngine::with_cache(artifact, 16);
        let exact = e.top_k(0, 8, true).unwrap();
        let hits_before = e.cache_hits();
        e.set_index_mode(IndexMode::Ivf { nprobe: 1 }).unwrap();
        // A 1-cluster probe must not be served from the exact entry.
        let _ivf = e.top_k(0, 8, true).unwrap();
        assert_eq!(e.cache_hits(), hits_before, "mode must be part of the key");
        e.set_index_mode(IndexMode::Exact).unwrap();
        assert_eq!(e.top_k(0, 8, true).unwrap(), exact);
        assert_eq!(e.cache_hits(), hits_before + 1);
    }

    /// 1 user × 40 items with item 10 seen: the full masked list has 39
    /// entries.
    fn forty_items() -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(61);
        let model = MatrixFactorization::new(1, 40, 4, 0.1, &mut rng).unwrap();
        let seen = Interactions::from_pairs(1, 40, &[(0, 10)]).unwrap();
        ModelArtifact::freeze(&model, &seen).unwrap()
    }

    #[test]
    fn cache_keys_hold_every_wire_k_without_aliasing() {
        // A wire `k` is a u16, so every k up to 65535 needs its own key.
        let artifact = forty_items();
        let full = QueryEngine::new(artifact.clone())
            .top_k(0, 16385, true)
            .unwrap();
        assert_eq!(full.len(), 39);
        let cached = QueryEngine::with_cache(artifact, 8);
        assert_eq!(cached.top_k(0, 1, true).unwrap().len(), 1);
        assert_eq!(cached.top_k(0, 16385, true).unwrap(), full);
        assert_eq!(cached.cache_hits(), 0, "k = 1 and k = 16385 must not alias");
        // Any k at or beyond the catalog asks for the same list.
        assert_eq!(cached.top_k(0, 40, true).unwrap(), full);
        assert_eq!(cached.cache_hits(), 1);
    }

    #[test]
    fn unbounded_k_returns_the_whole_pool_instead_of_panicking() {
        let e = QueryEngine::new(forty_items());
        let full = e.top_k(0, 40, true).unwrap();
        assert_eq!(e.top_k(0, usize::MAX, true).unwrap(), full);
        let request = Request {
            user: 0,
            k: usize::MAX,
            exclude_seen: true,
        };
        let report = e.serve(&[request; 3], 2).unwrap();
        for r in &report.results {
            assert_eq!(r.items, full);
        }
    }

    #[test]
    fn exact_counters_count_scored_queries_and_rescored_rows() {
        let mut rng = StdRng::seed_from_u64(67);
        let (n_users, n_items) = (4u32, 2000u32);
        let model = MatrixFactorization::new(n_users, n_items, 16, 0.1, &mut rng).unwrap();
        let seen = Interactions::from_pairs(n_users, n_items, &[(0, 5), (2, 9)]).unwrap();
        let artifact =
            ModelArtifact::freeze_with(&model, &seen, Some(crate::IvfConfig::default())).unwrap();
        let mut e = QueryEngine::with_cache(artifact, 8);
        assert_eq!(
            (e.exact_queries(), e.opened_rows(), e.rescored_rows()),
            (0, 0, 0)
        );
        for u in 0..n_users {
            e.top_k(u, 10, true).unwrap();
        }
        assert_eq!(e.exact_queries(), 4);
        // Every query re-scores at least the k rows that fill the
        // selection, and the pre-filter passes over most of the rest: the
        // four queries re-score fewer rows than one catalog. The 4-bit
        // stage leaves open every row that is re-scored, and fewer rows
        // than the four catalogs it scans.
        let (opened, rescored) = (e.opened_rows(), e.rescored_rows());
        assert!(
            (40..u64::from(n_items)).contains(&rescored),
            "{rescored} rows re-scored"
        );
        assert!(
            (rescored..4 * u64::from(n_items)).contains(&opened),
            "{opened} rows opened, {rescored} re-scored"
        );
        // A cache hit and an IVF query score no exact rows.
        e.top_k(0, 10, true).unwrap();
        e.set_index_mode(IndexMode::Ivf { nprobe: 2 }).unwrap();
        e.top_k(1, 10, true).unwrap();
        e.top_k(1, 10, true).unwrap(); // a cache hit scores nothing
        assert_eq!(
            (e.exact_queries(), e.opened_rows(), e.rescored_rows()),
            (4, opened, rescored)
        );
        let mut text = String::new();
        e.render_metrics(&mut text);
        assert!(text.contains("bns_exact_queries 4\n"), "{text}");
        assert!(
            text.contains(&format!("bns_exact_opened_rows {opened}\n")),
            "{text}"
        );
        assert!(
            text.contains(&format!("bns_exact_rescored_rows {rescored}\n")),
            "{text}"
        );
        // The IVF query counts on its own lines: it re-scores at least the
        // k rows that fill it, and at most the two clusters it probes; its
        // 4-bit stage leaves open at least those rows and at most the
        // probed ones.
        assert!(text.contains("bns_ivf_queries 1\n"), "{text}");
        let counter = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {name} counter in {text}"))
        };
        let ivf_rescored = counter("bns_ivf_rescored_rows");
        let ivf_opened = counter("bns_ivf_opened_rows");
        let index = e.artifact().index().unwrap();
        let mut bounds = vec![0.0f32; index.n_clusters()];
        index.score_clusters(e.artifact().tables().user(1), &mut bounds);
        let probed: usize = bns_eval::topk::top_k_masked(&bounds, &[], 2)
            .iter()
            .map(|&c| index.cluster_items(c as usize).len())
            .sum();
        assert!(
            (10..=probed as u64).contains(&ivf_rescored),
            "{ivf_rescored} of {probed} probed rows re-scored"
        );
        assert!(
            (ivf_rescored..=probed as u64).contains(&ivf_opened),
            "{ivf_opened} of {probed} probed rows opened"
        );
        // It scanned exactly its probed clusters' rows; exact mode and the
        // cache hit scanned none.
        assert!(
            text.contains(&format!("bns_ivf_scanned_rows {probed}\n")),
            "{text}"
        );
        assert!(
            probed < n_items as usize,
            "two of the clusters hold every row"
        );
    }

    #[test]
    fn best_clusters_are_the_selection_of_the_bounds() {
        // Ties (among them -0 and +0), infinities, the extreme finite and
        // subnormal values, and every probe width.
        let mut rng = StdRng::seed_from_u64(71);
        let mut bounds: Vec<f32> = (0..40)
            .map(|_| f32::from(rand::Rng::random_range(&mut rng, -4i8..4)) / 2.0)
            .collect();
        bounds[3] = -0.0;
        bounds[7] = f32::INFINITY;
        bounds[8] = f32::NEG_INFINITY;
        bounds[30] = f32::INFINITY;
        bounds[11] = f32::from_bits(1);
        bounds[12] = -f32::from_bits(1);
        bounds[13] = f32::MAX;
        bounds[14] = -f32::MAX;
        let (mut ranked, mut probes) = (Vec::new(), Vec::new());
        for nprobe in 0..=bounds.len() + 1 {
            best_clusters(&bounds, nprobe, &mut ranked, &mut probes);
            let want = bns_eval::topk::top_k_masked(&bounds, &[], nprobe);
            assert_eq!(probes, want, "nprobe {nprobe}");
        }
    }

    #[test]
    fn matches_live_scorer_rankings_bitwise() {
        // Freeze a random MF and compare every user's full ranking against
        // the live model's score_all + top_k_masked.
        let mut rng = StdRng::seed_from_u64(5);
        let model = MatrixFactorization::new(6, 20, 8, 0.1, &mut rng).unwrap();
        let seen =
            Interactions::from_pairs(6, 20, &[(0, 3), (1, 7), (2, 0), (3, 19), (4, 4), (5, 11)])
                .unwrap();
        let e = QueryEngine::new(ModelArtifact::freeze(&model, &seen).unwrap());
        let mut scores = vec![0.0f32; 20];
        for u in 0..6u32 {
            model.score_all(u, &mut scores);
            let expected = bns_eval::topk::top_k_masked(&scores, seen.items_of(u), 10);
            assert_eq!(e.top_k(u, 10, true).unwrap(), expected, "user {u}");
        }
    }
}
