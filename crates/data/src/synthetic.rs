//! Synthetic implicit-feedback dataset generator.
//!
//! The environment cannot download MovieLens or Yahoo!-R3, so the paper's
//! datasets are replaced by statistically matched synthetic stand-ins (see
//! DESIGN.md §3). The generator plants structure that the paper's analysis
//! depends on:
//!
//! 1. **Latent preference structure.** Users and items get low-rank latent
//!    vectors; interaction propensity grows with their dot product. The
//!    held-out 20% therefore contains items the user genuinely "likes" —
//!    real *false negatives* during training, which is precisely the
//!    population whose scores drift upward in Fig. 1.
//! 2. **Popularity skew.** Item base propensity follows a Zipf law, giving
//!    the long-tailed popularity profile that PNS (`r^0.75`) and the BNS
//!    prior (`popₗ/N`, Eq. 17) key on.
//! 3. **Heterogeneous user activity.** Per-user interaction counts follow a
//!    log-normal law calibrated so the total matches the target count.
//! 4. **Occupation groups.** Users belong to occupation groups that shift
//!    their latent vectors, so occupation statistics carry signal — the
//!    property the BNS-4 prior of Table III exploits.
//!
//! Sampling per user uses the Gumbel-top-k trick: adding iid Gumbel noise to
//! utility logits and taking the top-k is equivalent to sampling k items
//! without replacement from the softmax distribution.
//!
//! ## Streaming at million scale
//!
//! Every random quantity is **hash-derived**: latent components, Gumbel
//! keys, activity draws and occupation labels are pure functions of
//! `(seed, salt, id, component)` through a splitmix64 chain, bit-exact
//! reproducible in any evaluation order. No `n_users × d` table exists
//! — [`RowStream`] emits one user row at a time from O(row) scratch plus
//! per-item state: the `n_items × d` f32 item table, derived once (4·d B
//! an item, 32 B at the default `latent_dim = 8`), popularity metadata
//! (~28 B an item) and a pool bitmap (1 bit an item), and
//! [`generate_streamed`] pipes that straight into CSR
//! construction ([`crate::interactions::RowStreamBuilder`], the push core
//! of `InteractionsBuilder::from_stream`). [`generate`] — the in-RAM
//! analysis path — drives the *same* row stream, so the two are identical
//! by construction (`tests/synthetic_equivalence.rs` additionally proves
//! the stream against an independent dense reference).
//!
//! Per-user emission has two regimes, selected by [`EmissionMode`]:
//!
//! * **Exact** — score every item (`utility = β_lat·⟨w_u, h_i⟩ +
//!   β_pop·pop_logit + Gumbel`) and take the top-k. O(n_items) per user,
//!   reading the item table.
//! * **Pooled** — sampled-softmax: draw a candidate pool of
//!   `oversample × k` distinct items from the popularity proposal
//!   `q(i) ∝ exp(β_pop·pop_logit_i)` (alias table), then Gumbel-top-k over
//!   the pool with importance-corrected logits. The correction subtracts
//!   `ln q(i)`, which cancels the popularity term exactly, leaving
//!   `β_lat·⟨w_u, h_i⟩ + Gumbel` — so the popularity skew enters through
//!   the pool composition and the latent signal through the selection,
//!   preserving both planted structures at 1M × 1M without any full-catalog
//!   scan.

use crate::interactions::{Interactions, RowStreamBuilder};
use crate::occupation::Occupations;
use crate::{DataError, Result};
use bns_stats::alias::AliasTable;
use bns_sync::splitmix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How a user's interaction row is drawn from the planted utility model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum EmissionMode {
    /// Pick per catalog size: [`EmissionMode::Exact`] when
    /// `n_items ≤ 4096`, else [`EmissionMode::Pooled`] with oversample 4.
    #[default]
    Auto,
    /// Full-catalog scan: exact Gumbel-top-k over all `n_items` utilities.
    Exact,
    /// Sampled-softmax over a popularity-proposal candidate pool of
    /// `oversample × k` distinct items (importance-corrected, see module
    /// docs). Constant work per emitted interaction.
    Pooled {
        /// Pool size multiplier over the user's activity k (≥ 1).
        oversample: u32,
    },
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of users.
    pub n_users: u32,
    /// Number of items.
    pub n_items: u32,
    /// Target total number of interactions (approximate; user activities are
    /// integer draws).
    pub target_interactions: usize,
    /// Latent dimensionality of the planted preference model.
    pub latent_dim: usize,
    /// Zipf exponent of item base popularity (≈1 for MovieLens-like skew).
    pub popularity_exponent: f64,
    /// Weight of the popularity logit in the interaction utility.
    pub popularity_weight: f64,
    /// Weight of the latent dot product in the interaction utility
    /// (higher → stronger collaborative signal, easier false negatives).
    pub latent_weight: f64,
    /// Log-normal σ of per-user activity.
    pub activity_sigma: f64,
    /// Minimum interactions per user (MovieLens guarantees 20).
    pub min_activity: u32,
    /// Number of occupation groups (MovieLens-100K has 21).
    pub n_occupations: u32,
    /// Share ρ ∈ [0, 1) of a user's latent vector contributed by the
    /// occupation group vector.
    pub occupation_mix: f64,
    /// RNG seed; generation is fully deterministic given the config.
    pub seed: u64,
    /// Row-emission regime (defaults to [`EmissionMode::Auto`]).
    pub emission: EmissionMode,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n_users: 200,
            n_items: 400,
            target_interactions: 8_000,
            latent_dim: 8,
            popularity_exponent: 1.0,
            popularity_weight: 1.0,
            latent_weight: 4.0,
            activity_sigma: 0.6,
            min_activity: 5,
            n_occupations: 8,
            occupation_mix: 0.3,
            seed: 42,
            emission: EmissionMode::Auto,
        }
    }
}

/// Catalog size up to which [`EmissionMode::Auto`] scans exactly.
const AUTO_EXACT_ITEM_LIMIT: u32 = 4096;
/// Pool multiplier [`EmissionMode::Auto`] uses in the pooled regime.
const AUTO_OVERSAMPLE: u32 = 4;

impl SyntheticConfig {
    fn validate(&self) -> Result<()> {
        if self.n_users == 0 || self.n_items == 0 {
            return Err(DataError::Invalid(
                "need at least one user and one item".into(),
            ));
        }
        if self.latent_dim == 0 {
            return Err(DataError::Invalid("latent_dim must be > 0".into()));
        }
        if self.target_interactions == 0 {
            return Err(DataError::Invalid("target_interactions must be > 0".into()));
        }
        if !(0.0..1.0).contains(&self.occupation_mix) {
            return Err(DataError::Invalid(
                "occupation_mix must be in [0, 1)".into(),
            ));
        }
        if self.n_occupations == 0 {
            return Err(DataError::Invalid("n_occupations must be > 0".into()));
        }
        if let EmissionMode::Pooled { oversample } = self.emission {
            if oversample == 0 {
                return Err(DataError::Invalid("pool oversample must be ≥ 1".into()));
            }
        }
        let max_possible = self.n_users as u64 * self.n_items as u64;
        if self.target_interactions as u64 > max_possible {
            return Err(DataError::Invalid(format!(
                "target_interactions {} exceeds the {} possible pairs",
                self.target_interactions, max_possible
            )));
        }
        Ok(())
    }

    /// The regime [`EmissionMode::Auto`] resolves to for this config.
    pub fn resolved_emission(&self) -> EmissionMode {
        match self.emission {
            EmissionMode::Auto => {
                if self.n_items <= AUTO_EXACT_ITEM_LIMIT {
                    EmissionMode::Exact
                } else {
                    EmissionMode::Pooled {
                        oversample: AUTO_OVERSAMPLE,
                    }
                }
            }
            m => m,
        }
    }
}

// ---------------------------------------------------------------------------
// Hash-derived randomness: every draw is a pure function of
// (seed, salt, id, component), so any subset of the dataset can be
// regenerated bit-exactly without sequencing a global RNG.
// ---------------------------------------------------------------------------

const SALT_OCC_LABEL: u64 = 0x4F43_434C_4142_454C; // "OCCLABEL"
const SALT_OCC_VEC: u64 = 0x4F43_4356_4543_544F;
const SALT_USER_VEC: u64 = 0x5553_4552_5645_4354;
const SALT_ITEM_VEC: u64 = 0x4954_454D_5645_4354;
const SALT_ACTIVITY: u64 = 0x4143_5449_5649_5459;
const SALT_GUMBEL: u64 = 0x4755_4D42_454C_4B45;
const SALT_POOL: u64 = 0x504F_4F4C_5345_4544;
const SALT_RANK: u64 = 0x5241_4E4B_5045_524D;
const SALT_GROUP_LABEL: u64 = 0x4752_504C_4142_454C; // "GRPLABEL"
const SALT_GROUP_VEC: u64 = 0x4752_5056_4543_544F;
const SALT_GROUP_NOISE: u64 = 0x4752_504E_4F49_5345;

/// Mixes `(seed, salt, a, b)` into a uniform 64-bit hash.
#[inline]
fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ a);
    splitmix64(h ^ b)
}

/// Uniform in the open interval (0, 1) — safe for `ln` and `ln(-ln ·)`.
#[inline]
fn unit_open(h: u64) -> f64 {
    ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// A standard normal via Box-Muller over two independent hashes.
#[inline]
fn std_gaussian(seed: u64, salt: u64, id: u64, component: u64) -> f64 {
    let u1 = unit_open(mix(seed, salt, id, component.wrapping_mul(2)));
    let u2 = unit_open(mix(seed, salt, id, component.wrapping_mul(2) + 1));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The Gumbel(0, 1) perturbation key of pair `(u, i)` — a pure function of
/// the seed, so deduplicated pool draws keep their key and emission order
/// cannot change a row.
pub fn pair_gumbel(seed: u64, u: u32, i: u32) -> f64 {
    let v = unit_open(mix(seed, SALT_GUMBEL, u as u64, i as u64));
    -(-v.ln()).ln()
}

/// Component `k` of the latent vector of entity `id` under `salt`, at the
/// `1/√d` prior scale. Used for users (individual part), items and
/// occupation group vectors alike.
#[inline]
fn latent_component(seed: u64, salt: u64, id: u64, k: usize, scale: f64) -> f32 {
    (scale * std_gaussian(seed, salt, id, k as u64)) as f32
}

/// Fills `out` with a **clusterable** item embedding: item `id` belongs
/// to one of `n_groups` hash-derived latent groups and its vector is that
/// group's center (at the `1/√d` prior scale) plus `within × 1/√d`
/// Gaussian within-group noise. A trained item table concentrates around
/// preference modes the same way; this is the planted stand-in that makes
/// IVF-style cluster-probed retrieval meaningful at benchmark scale,
/// where a uniform-random table would be the degenerate worst case.
///
/// Pure function of `(seed, n_groups, within, id)` — streamable in any
/// order, no RNG sequencing, O(d) work per row.
pub fn clustered_item_embedding(seed: u64, n_groups: u32, within: f64, id: u32, out: &mut [f32]) {
    let dim = out.len();
    let scale = 1.0 / (dim as f64).sqrt();
    let group = mix(seed, SALT_GROUP_LABEL, id as u64, 0) % n_groups.max(1) as u64;
    for (k, slot) in out.iter_mut().enumerate() {
        let center = latent_component(seed, SALT_GROUP_VEC, group, k, scale);
        let noise = latent_component(seed, SALT_GROUP_NOISE, id as u64, k, within * scale);
        *slot = center + noise;
    }
}

/// Occupation label of user `u` (uniform over groups, hash-derived).
fn occupation_label(seed: u64, n_occupations: u32, u: u32) -> u32 {
    (mix(seed, SALT_OCC_LABEL, u as u64, 0) % n_occupations as u64) as u32
}

/// Occupation labels for every user — O(n_users) labels, no RNG sequencing.
pub fn derive_occupations(config: &SyntheticConfig) -> Occupations {
    let labels = (0..config.n_users)
        .map(|u| occupation_label(config.seed, config.n_occupations, u))
        .collect();
    Occupations::from_labels(labels, config.n_occupations)
}

/// Activity (row length) of user `u`: a log-normal draw calibrated so the
/// expected total matches `target_interactions`, clamped to
/// `[min_activity, n_items − 1]`.
pub fn user_activity(config: &SyntheticConfig, u: u32) -> u32 {
    let sigma = config.activity_sigma.max(1e-9);
    let mu = (config.target_interactions as f64 / config.n_users as f64).ln() - sigma * sigma / 2.0;
    let raw = (mu + sigma * std_gaussian(config.seed, SALT_ACTIVITY, u as u64, 0))
        .exp()
        .round();
    let max_per_user = config.n_items.saturating_sub(1).max(1);
    (raw as u32).clamp(config.min_activity.min(max_per_user), max_per_user)
}

/// Zipf popularity logits over a seed-derived random item permutation (so
/// popularity is independent of the latent geometry):
/// `pop_logit[i] = −s·ln(rank_i + 1)`.
pub fn popularity_logits(config: &SyntheticConfig) -> Vec<f64> {
    let mut ranks: Vec<u32> = (0..config.n_items).collect();
    let mut rng = StdRng::seed_from_u64(mix(config.seed, SALT_RANK, 0, 0));
    ranks.shuffle(&mut rng);
    let mut pop_logit = vec![0f64; config.n_items as usize];
    for (rank_pos, &item) in ranks.iter().enumerate() {
        pop_logit[item as usize] = -config.popularity_exponent * ((rank_pos + 1) as f64).ln();
    }
    pop_logit
}

/// A generated dataset: interactions, occupation labels, and the planted
/// ground-truth latent model (kept for analysis and tests).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// All generated interactions (pre-split).
    pub interactions: Interactions,
    /// Occupation label per user.
    pub occupations: Occupations,
    /// Planted user latent vectors, row-major `n_users × latent_dim`.
    pub user_factors: Vec<f32>,
    /// Planted item latent vectors, row-major `n_items × latent_dim`.
    pub item_factors: Vec<f32>,
    /// The config used for generation.
    pub config: SyntheticConfig,
}

impl SyntheticDataset {
    /// Ground-truth affinity of `(u, i)` under the planted model
    /// (latent dot product only; no popularity term).
    pub fn true_affinity(&self, u: u32, i: u32) -> f32 {
        let d = self.config.latent_dim;
        let wu = &self.user_factors[u as usize * d..(u as usize + 1) * d];
        let hi = &self.item_factors[i as usize * d..(i as usize + 1) * d];
        wu.iter().zip(hi).map(|(a, b)| a * b).sum()
    }
}

/// The resolved per-run state shared by every emission path: the item
/// table, O(n_items) popularity metadata and the tiny occupation-vector
/// table.
struct PlantedModel {
    cfg: SyntheticConfig,
    scale: f64,
    w_ind: f32,
    w_occ: f32,
    /// Occupation group vectors, `n_occupations × d` (tiny).
    occ_factors: Vec<f32>,
    pop_logit: Vec<f64>,
    /// Planted item vectors, row-major `n_items × d`.
    item_factors: Vec<f32>,
    /// Pooled regime only: alias table over `q(i) ∝ exp(β_pop·pop_logit)`.
    alias: Option<AliasTable>,
    /// Pooled regime only: the normalized proposal probabilities `q(i)`,
    /// needed for the importance correction.
    proposal_q: Vec<f64>,
    oversample: u32,
}

/// Reusable per-row scratch: the only allocation growth across a stream
/// is `Vec` capacity high-water marks.
struct EmitScratch {
    user_vec: Vec<f32>,
    utilities: Vec<(f64, u32)>,
    pool: Vec<u32>,
    /// One bit per item, set while the item is in `pool` (all clear
    /// between rows).
    seen: Vec<u64>,
    row: Vec<u32>,
}

impl PlantedModel {
    fn build(config: &SyntheticConfig) -> Result<Self> {
        config.validate()?;
        let d = config.latent_dim;
        let scale = 1.0 / (d as f64).sqrt();
        let rho = config.occupation_mix;
        let seed = config.seed;

        let mut occ_factors = vec![0f32; config.n_occupations as usize * d];
        for o in 0..config.n_occupations as usize {
            for k in 0..d {
                occ_factors[o * d + k] = latent_component(seed, SALT_OCC_VEC, o as u64, k, scale);
            }
        }

        let mut item_factors = vec![0f32; config.n_items as usize * d];
        for (i, row) in item_factors.chunks_exact_mut(d).enumerate() {
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = latent_component(seed, SALT_ITEM_VEC, i as u64, k, scale);
            }
        }
        let pop_logit = popularity_logits(config);
        let (alias, proposal_q, oversample) = match config.resolved_emission() {
            EmissionMode::Exact => (None, Vec::new(), 0),
            EmissionMode::Pooled { oversample } => {
                let weights: Vec<f64> = pop_logit
                    .iter()
                    .map(|&l| (config.popularity_weight * l).exp())
                    .collect();
                let total: f64 = weights.iter().sum();
                let q: Vec<f64> = weights.iter().map(|w| w / total).collect();
                let alias = AliasTable::new(&weights)
                    .map_err(|e| DataError::Invalid(format!("popularity proposal: {e}")))?;
                (Some(alias), q, oversample)
            }
            EmissionMode::Auto => unreachable!("resolved_emission never returns Auto"),
        };

        Ok(Self {
            cfg: config.clone(),
            scale,
            w_ind: (1.0 - rho).sqrt() as f32,
            w_occ: rho.sqrt() as f32,
            occ_factors,
            pop_logit,
            item_factors,
            alias,
            proposal_q,
            oversample,
        })
    }

    fn scratch(&self) -> EmitScratch {
        EmitScratch {
            user_vec: vec![0f32; self.cfg.latent_dim],
            utilities: Vec::new(),
            pool: Vec::new(),
            seen: vec![0u64; (self.cfg.n_items as usize).div_ceil(64)],
            row: Vec::new(),
        }
    }

    /// Writes user `u`'s latent vector into `out`:
    /// `√(1−ρ)·individual + √ρ·occupation-group`.
    fn user_vec_into(&self, u: u32, out: &mut [f32]) {
        let d = self.cfg.latent_dim;
        let o = occupation_label(self.cfg.seed, self.cfg.n_occupations, u) as usize;
        for (k, slot) in out.iter_mut().enumerate() {
            let ind = latent_component(self.cfg.seed, SALT_USER_VEC, u as u64, k, self.scale);
            *slot = self.w_ind * ind + self.w_occ * self.occ_factors[o * d + k];
        }
    }

    /// Item `i`'s latent vector.
    fn item_vec(&self, i: u32) -> &[f32] {
        let d = self.cfg.latent_dim;
        &self.item_factors[i as usize * d..(i as usize + 1) * d]
    }

    /// Emits user `u`'s row into `scratch.row`, sorted ascending.
    fn emit_row(&self, u: u32, scratch: &mut EmitScratch) {
        let cfg = &self.cfg;
        let k = user_activity(cfg, u) as usize;
        self.user_vec_into(u, &mut scratch.user_vec);
        let user_vec = &scratch.user_vec;

        scratch.utilities.clear();
        if let Some(alias) = &self.alias {
            // Pooled regime: distinct popularity-proposal candidates, in
            // bursts sized by the distinct ids drawn so far …
            let target = (k * self.oversample as usize).min(cfg.n_items as usize);
            let mut rng = StdRng::seed_from_u64(mix(cfg.seed, SALT_POOL, u as u64, 0));
            scratch.pool.clear();
            let max_draws = 32 * target + 256;
            let mut draws = 0usize;
            while scratch.pool.len() < target && draws < max_draws {
                let burst = target - scratch.pool.len();
                for _ in 0..burst.max(8) {
                    let i = alias.sample(&mut rng);
                    draws += 1;
                    let (word, bit) = (&mut scratch.seen[i / 64], 1u64 << (i % 64));
                    if *word & bit == 0 {
                        *word |= bit;
                        scratch.pool.push(i as u32);
                    }
                }
            }
            scratch.pool.sort_unstable();
            for &i in &scratch.pool {
                scratch.seen[i as usize / 64] &= !(1u64 << (i % 64));
            }
            // Deterministic fill if Zipf collisions starved the pool (only
            // reachable when k·oversample approaches the catalog size). Only
            // the sorted drawn prefix is searched: the appended fill ids
            // ascend but interleave with it, so the whole vec is unsorted.
            if scratch.pool.len() < target {
                let drawn = scratch.pool.len();
                for i in 0..cfg.n_items {
                    if scratch.pool[..drawn].binary_search(&i).is_err() {
                        scratch.pool.push(i);
                        if scratch.pool.len() >= target {
                            break;
                        }
                    }
                }
                scratch.pool.sort_unstable();
            }
            // … scored with importance-corrected logits. Subtracting the
            // log inclusion probability ln π_i, π_i = 1 − (1 − q_i)^m over
            // the m proposal draws, approximately cancels the popularity
            // term when the pool is sparse (π_i ≈ m·q_i) and vanishes when
            // the pool saturates the catalog (π_i → 1), where the exact
            // utility must be restored.
            let m = draws as f64;
            for &i in &scratch.pool {
                let hi = self.item_vec(i);
                let dot: f32 = user_vec.iter().zip(hi).map(|(a, b)| a * b).sum();
                let q = self.proposal_q[i as usize];
                // ln π_i via ln1p/exp_m1 to stay accurate for tiny q·m.
                let log_pi = (-((m * (-q).ln_1p()).exp_m1())).max(1e-300).ln();
                let util = cfg.latent_weight * dot as f64
                    + cfg.popularity_weight * self.pop_logit[i as usize]
                    - log_pi
                    + pair_gumbel(cfg.seed, u, i);
                scratch.utilities.push((util, i));
            }
        } else {
            // Exact regime: full-catalog utilities.
            for i in 0..cfg.n_items {
                let hi = self.item_vec(i);
                let dot: f32 = user_vec.iter().zip(hi).map(|(a, b)| a * b).sum();
                let util = cfg.latent_weight * dot as f64
                    + cfg.popularity_weight * self.pop_logit[i as usize]
                    + pair_gumbel(cfg.seed, u, i);
                scratch.utilities.push((util, i));
            }
        }

        let k = k.min(scratch.utilities.len());
        // Partial selection of the k largest utilities (Gumbel-top-k).
        scratch.utilities.select_nth_unstable_by(k - 1, |a, b| {
            b.0.partial_cmp(&a.0).expect("finite utilities")
        });
        scratch.row.clear();
        scratch
            .row
            .extend(scratch.utilities[..k].iter().map(|&(_, i)| i));
        scratch.row.sort_unstable();
    }
}

/// A constant-overhead, user-at-a-time stream of interaction rows — the
/// chunked iterator behind [`generate_streamed`]. Rows come out in
/// ascending user order, each sorted ascending, ready for
/// [`crate::interactions::RowStreamBuilder`].
pub struct RowStream {
    model: PlantedModel,
    scratch: EmitScratch,
    next_user: u32,
}

impl RowStream {
    /// Opens a stream over the configured user range.
    pub fn new(config: &SyntheticConfig) -> Result<Self> {
        let model = PlantedModel::build(config)?;
        let scratch = model.scratch();
        Ok(Self {
            model,
            scratch,
            next_user: 0,
        })
    }

    /// Emits the next user's row, or `None` after the last user. The slice
    /// borrows reusable scratch — copy it out before the next call.
    pub fn next_row(&mut self) -> Option<(u32, &[u32])> {
        if self.next_user >= self.model.cfg.n_users {
            return None;
        }
        let u = self.next_user;
        self.next_user += 1;
        self.model.emit_row(u, &mut self.scratch);
        Some((u, &self.scratch.row))
    }

    /// The resolved emission regime of this stream.
    pub fn emission(&self) -> EmissionMode {
        self.model.cfg.resolved_emission()
    }

    /// Streams every remaining row into CSR form.
    fn drain(&mut self) -> Result<Interactions> {
        let cfg = &self.model.cfg;
        let mut builder = RowStreamBuilder::new(cfg.n_users, cfg.n_items);
        builder.reserve(cfg.target_interactions);
        while let Some((u, row)) = self.next_row() {
            builder.push_row(u, row)?;
        }
        builder.finish()
    }
}

/// Streams the full dataset straight into CSR form without a user table:
/// memory is the output CSR plus the stream's per-item state (see the
/// module docs). Bit-identical to [`generate`]'s interactions for the
/// same config.
pub fn generate_streamed(config: &SyntheticConfig) -> Result<Interactions> {
    RowStream::new(config)?.drain()
}

/// Generates a dataset from `config`. Deterministic given the config.
///
/// This is the in-RAM analysis path: it also returns the planted factor
/// tables for tests and diagnostics. The interactions come from the same
/// [`RowStream`] as [`generate_streamed`], so the two agree bit-exactly,
/// and the item table is the one that stream emitted from; use the
/// streamed form when the user table would not fit.
pub fn generate(config: &SyntheticConfig) -> Result<SyntheticDataset> {
    let mut stream = RowStream::new(config)?;
    let interactions = stream.drain()?;
    let model = stream.model;
    let mut user_factors = vec![0f32; config.n_users as usize * config.latent_dim];
    for (u, row) in user_factors.chunks_exact_mut(config.latent_dim).enumerate() {
        model.user_vec_into(u as u32, row);
    }
    Ok(SyntheticDataset {
        interactions,
        occupations: derive_occupations(config),
        user_factors,
        item_factors: model.item_factors,
        config: config.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            n_users: 60,
            n_items: 120,
            target_interactions: 2_400,
            seed: 7,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn respects_id_space_and_rough_size() {
        let ds = generate(&small_config()).unwrap();
        let x = &ds.interactions;
        assert_eq!(x.n_users(), 60);
        assert_eq!(x.n_items(), 120);
        // Log-normal draws wobble; allow ±40%.
        let target = 2_400f64;
        assert!(
            (x.len() as f64) > target * 0.6 && (x.len() as f64) < target * 1.4,
            "generated {} interactions for target {target}",
            x.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small_config()).unwrap();
        let b = generate(&small_config()).unwrap();
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.user_factors, b.user_factors);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_config()).unwrap();
        let mut cfg = small_config();
        cfg.seed = 8;
        let b = generate(&cfg).unwrap();
        assert_ne!(a.interactions, b.interactions);
    }

    #[test]
    fn streamed_equals_in_ram() {
        let cfg = small_config();
        let a = generate(&cfg).unwrap().interactions;
        let b = generate_streamed(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_user_meets_min_activity() {
        let ds = generate(&small_config()).unwrap();
        for u in 0..60 {
            assert!(ds.interactions.degree(u) >= 5, "user {u} too inactive");
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let ds = generate(&small_config()).unwrap();
        let pop = crate::popularity::Popularity::from_interactions(&ds.interactions);
        // Zipf base popularity should give a clearly non-uniform profile.
        assert!(pop.gini() > 0.2, "gini = {}", pop.gini());
    }

    #[test]
    fn latent_signal_is_planted() {
        // Interacted pairs should have higher ground-truth affinity than
        // random pairs on average.
        let ds = generate(&small_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut pos_aff = 0.0f64;
        let mut n_pos = 0usize;
        for (u, i) in ds.interactions.iter_pairs() {
            pos_aff += ds.true_affinity(u, i) as f64;
            n_pos += 1;
        }
        let mut rand_aff = 0.0f64;
        let n_rand = 4_000;
        for _ in 0..n_rand {
            let u = rng.random_range(0..60u32);
            let i = rng.random_range(0..120u32);
            rand_aff += ds.true_affinity(u, i) as f64;
        }
        let pos_mean = pos_aff / n_pos as f64;
        let rand_mean = rand_aff / n_rand as f64;
        assert!(
            pos_mean > rand_mean + 0.05,
            "positives mean {pos_mean} not above random mean {rand_mean}"
        );
    }

    #[test]
    fn pooled_mode_plants_the_same_structure() {
        let cfg = SyntheticConfig {
            emission: EmissionMode::Pooled { oversample: 4 },
            ..small_config()
        };
        let ds = generate(&cfg).unwrap();
        assert_eq!(ds.interactions.n_users(), 60);
        for u in 0..60 {
            assert!(ds.interactions.degree(u) >= 5, "user {u} too inactive");
        }
        // Popularity skew survives the proposal-pool regime.
        let pop = crate::popularity::Popularity::from_interactions(&ds.interactions);
        assert!(pop.gini() > 0.2, "gini = {}", pop.gini());
        // Streamed ≡ in-RAM holds in the pooled regime too.
        assert_eq!(ds.interactions, generate_streamed(&cfg).unwrap());
        // And the pooled rows differ from exact rows (different regime).
        let exact = generate(&small_config()).unwrap();
        assert_ne!(ds.interactions, exact.interactions);
    }

    #[test]
    fn auto_mode_resolves_by_catalog_size() {
        let small = small_config();
        assert_eq!(small.resolved_emission(), EmissionMode::Exact);
        let big = SyntheticConfig {
            n_items: 100_000,
            ..small_config()
        };
        assert!(matches!(
            big.resolved_emission(),
            EmissionMode::Pooled {
                oversample: AUTO_OVERSAMPLE
            }
        ));
    }

    #[test]
    fn row_stream_is_in_order_and_sorted() {
        let mut stream = RowStream::new(&small_config()).unwrap();
        let mut expected_user = 0u32;
        while let Some((u, row)) = stream.next_row() {
            assert_eq!(u, expected_user);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted");
            assert!(!row.is_empty());
            expected_user += 1;
        }
        assert_eq!(expected_user, 60);
    }

    #[test]
    fn starved_pool_fill_never_repeats_an_item() {
        // k·oversample exceeds the catalog, so every row's pool is topped
        // up by the deterministic fill, which must add only items the
        // proposal draws missed. Before the fix this shape emitted a
        // duplicate item in user 3's row.
        let cfg = SyntheticConfig {
            n_users: 4,
            n_items: 400,
            target_interactions: 4 * 200,
            seed: 6,
            emission: EmissionMode::Pooled { oversample: 4 },
            ..SyntheticConfig::default()
        };
        // The stream validates every row as it is built, so a repeated
        // item surfaces as an `Err` here.
        let x = generate_streamed(&cfg).unwrap();
        for u in 0..4 {
            let row = x.items_of(u);
            assert!(row.windows(2).all(|p| p[0] < p[1]), "user {u}: {row:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = small_config();
        c.n_users = 0;
        assert!(generate(&c).is_err());

        let mut c = small_config();
        c.latent_dim = 0;
        assert!(generate(&c).is_err());

        let mut c = small_config();
        c.target_interactions = 0;
        assert!(generate(&c).is_err());

        let mut c = small_config();
        c.occupation_mix = 1.0;
        assert!(generate(&c).is_err());

        let mut c = small_config();
        c.target_interactions = usize::MAX;
        assert!(generate(&c).is_err());

        let mut c = small_config();
        c.emission = EmissionMode::Pooled { oversample: 0 };
        assert!(generate(&c).is_err());
    }
}
