//! BNS — Bayesian Negative Sampling (Algorithm 1 of the paper).
//!
//! For each positive pair `(u, i)`:
//!
//! 1. uniformly draw a candidate set `Mᵤ ⊆ I⁻ᵤ` (paper: |Mᵤ| = 5);
//! 2. for each candidate `l` compute
//!    * `info(l) = 1 − σ(x̂ᵤᵢ − x̂ᵤₗ)` (Eq. 4, the likelihood-side signal),
//!    * `F(x̂ₗ)` — the empirical cdf of `x̂ₗ` among the user's un-interacted
//!      items (Eq. 16, estimated per Glivenko–Cantelli),
//!    * `P_fn(l)` — the prior (Eq. 17 or a Table III/IV variant),
//!    * `unbias(l)` — the normalized posterior of `l` being a true negative
//!      (Eq. 15);
//! 3. select `j = argmin info(l)·[1 − (1+λ)·unbias(l)]` (Eq. 32), or
//!    `argmax unbias(l)` under the posterior criterion of Eq. (35).
//!
//! # The fused draw
//!
//! The paper's Algorithm 1 (and this module's original implementation)
//! computes the full rating vector x̂ᵤ per pair and then runs one `O(|I|)`
//! ECDF scan per candidate — six passes of catalog-sized memory traffic
//! per draw. The implementation here collapses that to **one blocked pass**:
//! candidates are drawn first, `pos` and the candidates are scored with a
//! single [`Scorer::score_items`] gather, and all m ECDF counts of Eq. (16)
//! are produced by [`fused_ecdf_counts`] — each scanned item is scored once
//! (in L1-resident blocks, via the unrolled kernels of
//! `bns_model::kernel`) and compared against all m candidate thresholds
//! in-register. No `n_items`-sized buffer is ever written or re-read.
//! Against the pre-fused draw it measured ~2.5× at d = 32 and 10k items.
//!
//! # A bounded Eq. 16 estimate
//!
//! The paper justifies Eq. (16) by Glivenko–Cantelli. Its quantitative
//! form, the Dvoretzky–Kiefer–Wolfowitz inequality, bounds the sup-error of
//! an empirical cdf over n uniform draws: `P(sup |F̂ − F| > ε) ≤ 2e^(−2nε²)`.
//! So n = ⌈ln(2/δ)/(2ε²)⌉ = [`DKW_SAMPLE`] = 18,445 scores give
//! ε = 0.01 with probability ≥ 1 − δ = 0.95, whatever the catalog size.
//! The default [`EcdfStrategy::Subsample`]`(DKW_SAMPLE)` therefore costs
//! `O(min(n_items, 18,445))` per draw:
//!
//! * on catalogs up to 18,445 items it is the exact pass over `I⁻ᵤ`, and it
//!   consumes no randomness;
//! * above that, the pass scans one uniform sample of item ids. The sample
//!   is drawn once per epoch, at the epoch's first draw, and shared by all
//!   of the epoch's draws and by [`BnsSampler::evaluate_candidate`]. The
//!   user's positives are skipped, so the denominator is the number of
//!   sampled negatives. (Positives shrink n by the user's interaction
//!   ratio, which is tiny on large catalogs.)
//!
//! `tests::dkw_sample_meets_its_error_bound` enforces the bound.
//! `bench_json` records the draw rate of both strategies in
//! `BENCH_samplers.json`, and `scale_bench` the default's rate up to 1M
//! items in `BENCH_scale.json`.
//!
//! # The coded pass
//!
//! Gathering the sampled rows is most of a draw: each one is a scattered
//! 128-byte row (d = 32) fetched from the item table. When the scorer
//! exposes its rows ([`Scorer::row_tables`]: MF, a refreshed LightGCN and
//! a frozen artifact do) and an epoch sample exists, the pass instead
//! reads a compact copy of the sample's rows,
//! [`CodedRows`]: i16 codes with a per-row scale, dimension-major in
//! blocks of 8 rows, and a per-row bound
//! `B ≥ ‖h − ĥ‖₂ + γ_{d+2}(‖h‖₂ + ‖ĥ‖₂)` on the coding error. For every
//! row, `bns_model::kernel::coded_block_counts` computes an approximate
//! score `a` and decides `x̂ ≤ t` for each threshold whenever
//! `|a − t| > ‖u‖₂·B` (plus a rigorously derived slack for the `f32`
//! arithmetic, documented on the kernel). The few rows it cannot decide
//! are re-scored exactly through [`Scorer::score_items`]. So every count
//! equals the gather pass's count, integer for integer: every F̂, draw,
//! RNG word and NDCG bit is unchanged, and the pass reads 72 B per row
//! from a 1.33 MB table instead of scattered rows of the whole catalog.
//!
//! * **Why i16.** On the train-bns model (planted popularity column),
//!   i16 codes leave 0.39% of the scanned rows ambiguous; i8 codes leave
//!   59.65% with a per-row scale and 15.92% with per-column scales.
//!   `PosteriorStats::{ecdf_rows, ecdf_rescored}` report the rate of
//!   every run.
//! * **Exactly fresh.** The copy is built by the first pass after the
//!   epoch sample is drawn. The model stamps its item table on every
//!   write and records the item rows the latest write changed
//!   ([`bns_model::TableStamp`], [`bns_model::RowTables::changed`]).
//!   Before each pass the copy is brought to the current stamp: nothing
//!   when it is there, a re-code of the changed rows that are in the
//!   sample when it is one write behind, and a full rebuild in any other
//!   case (several writes between passes, another model, a clone, a
//!   LightGCN refresh, which rewrites the whole table under a fresh
//!   stamp). It is never stale, whatever calls reach the model.
//! * **Fallback.** Only scorers that expose no rows gather: a stale
//!   LightGCN, `FixedScorer`, and wrappers that hide or do not forward
//!   `row_tables`. The exact pass gathers too, and the gather is the
//!   tests' reference.

pub mod prior;
pub mod risk;
pub mod schedule;
pub mod suffstats;
pub mod unbias;

pub use prior::{NonInformativePrior, OccupationPrior, OraclePrior, PopularityPrior, Prior};
pub use schedule::LambdaSchedule;
pub use suffstats::PosteriorStats;
pub use unbias::unbias;

use crate::sampler::{
    draw_candidate_set, draw_uniform_negative, group_runs_by_user, NegativeSampler, SampleContext,
    ScoreAccess,
};
use crate::{CoreError, Result};
use bns_data::Interactions;
use bns_model::coded::CodedRows;
use bns_model::loss::info;
use bns_model::{RowTables, Scorer, TableStamp, TripleBatch};

/// Items scored per block of the fused ECDF pass. 256 scores = 1 KiB —
/// resident in L1 while the m threshold comparisons run over it.
const ECDF_BLOCK: usize = 256;

/// Size of the default Eq. (16) sample: the DKW bound
/// n = ⌈ln(2/δ)/(2ε²)⌉ at ε = 0.01 and δ = 0.05. An empirical cdf over this
/// many uniform draws is within 0.01 of the exact one everywhere, with
/// probability at least 0.95, whatever the catalog size.
pub const DKW_SAMPLE: usize = 18_445;

/// Reusable scratch for [`fused_ecdf_counts`]: the block of item ids being
/// scored and their scores, the epoch's Eq. (16) sample, and the coded
/// copy of the sample's item rows (see "The coded pass" above).
/// Steady-state allocation-free: the block is bounded by `ECDF_BLOCK` (256)
/// ids, the sample by its size `k` and the coded copy by `k` rows (72 B a
/// row at d = 32, ~1.33 MB at `DKW_SAMPLE`); all are reused across
/// epochs, and refreshing the copy re-codes rows in place.
#[derive(Debug, Default)]
pub struct EcdfScratch {
    block: Block,
    /// Sorted item ids of the epoch sample; empty until one is drawn.
    sample: Vec<u32>,
    /// The coded copy of the sample's item rows.
    coded: CodedSample,
    /// Exact counts of the rows a coded pass re-scores.
    rescored_counts: Vec<u32>,
    /// Rows the passes scanned, and rows they scored exactly, since the
    /// owning sampler last took its epoch statistics.
    rows: u64,
    rescored: u64,
}

impl EcdfScratch {
    /// Draws the Eq. (16) sample `strategy` asks for on an `n_items`
    /// catalog: `k` distinct ids by selection sampling for
    /// `Subsample(k)` below the catalog size (consuming `rng`), else no
    /// sample (the exact pass), consuming no randomness.
    pub fn draw_sample(
        &mut self,
        strategy: EcdfStrategy,
        n_items: u32,
        rng: &mut dyn rand::RngCore,
    ) {
        match strategy {
            EcdfStrategy::Subsample(k) if k < n_items as usize => {
                selection_sample(k, n_items, &mut self.sample, rng)
            }
            _ => self.sample.clear(),
        }
        self.coded.stamp = None;
    }

    /// The sorted item ids of the epoch sample; empty when the pass scans
    /// all of `I⁻ᵤ`.
    pub fn sample(&self) -> &[u32] {
        &self.sample
    }
}

/// The coded copy of the epoch sample's item rows, in sample order, and
/// the item-table state it equals a fresh coding of.
#[derive(Debug, Default)]
struct CodedSample {
    rows: CodedRows,
    /// `None` when no copy exists for the current sample.
    stamp: Option<TableStamp>,
    /// Full rebuilds so far.
    builds: u64,
}

impl CodedSample {
    /// Brings the copy up to `tables.stamp`: nothing when it is already
    /// there, a re-code of the rows `tables.changed` names when it is one
    /// write behind (each found in the sorted `sample` by binary search),
    /// and a full rebuild otherwise — so the copy is never stale, whatever
    /// calls reached the model in between.
    fn refresh(&mut self, tables: &RowTables<'_>, sample: &[u32]) {
        match self.stamp {
            Some(held) if held == tables.stamp => {}
            Some(held) if Some(held) == tables.stamp.previous() => {
                for &i in tables.changed {
                    if let Ok(r) = sample.binary_search(&i) {
                        self.rows.set(r, tables.item(i));
                    }
                }
            }
            _ => {
                self.rows
                    .rebuild(tables.dim, sample.iter().map(|&i| tables.item(i)));
                self.builds += 1;
            }
        }
        self.stamp = Some(tables.stamp);
    }
}

/// The block of item ids being scored, and their scores.
#[derive(Debug, Default)]
struct Block {
    ids: Vec<u32>,
    scores: Vec<f32>,
}

impl Block {
    /// Scores the pending block and folds it into the threshold counters.
    fn flush(&mut self, scorer: &dyn Scorer, u: u32, thresholds: &[f32], counts: &mut [u32]) {
        if self.ids.is_empty() {
            return;
        }
        self.scores.clear();
        self.scores.resize(self.ids.len(), 0.0);
        scorer.score_items(u, &self.ids, &mut self.scores);
        // Block scores stay in L1; each threshold streams over them with a
        // branchless compare-accumulate.
        for (count, &t) in counts.iter_mut().zip(thresholds) {
            let mut c = 0u32;
            for &s in &self.scores {
                c += u32::from(s <= t);
            }
            *count += c;
        }
        self.ids.clear();
    }
}

/// Draws `k` distinct ids of `0..n` uniformly into `out`, in ascending
/// order — Vitter's selection sampling (Algorithm S): id `i` is kept with
/// probability `(still needed) / (ids left)`. `out`'s capacity is reused.
fn selection_sample(k: usize, n: u32, out: &mut Vec<u32>, rng: &mut dyn rand::RngCore) {
    out.clear();
    let mut needed = k as u64;
    for i in 0..n {
        if needed == 0 {
            break;
        }
        if rand::Rng::random_range(rng, 0..u64::from(n - i)) < needed {
            out.push(i);
            needed -= 1;
        }
    }
}

/// One blocked Eq. (16) pass over the ascending ids `scan`, skipping the
/// user's positives with a merge cursor. Returns the number of ids scored.
fn ecdf_pass(
    scan: impl Iterator<Item = u32>,
    scorer: &dyn Scorer,
    train: &Interactions,
    u: u32,
    thresholds: &[f32],
    counts: &mut Vec<u32>,
    block: &mut Block,
) -> usize {
    counts.clear();
    counts.resize(thresholds.len(), 0);
    block.ids.clear();
    let positives = train.items_of(u);
    let mut pos_idx = 0usize;
    let mut scanned = 0usize;
    for i in scan {
        while pos_idx < positives.len() && positives[pos_idx] < i {
            pos_idx += 1;
        }
        if pos_idx < positives.len() && positives[pos_idx] == i {
            continue;
        }
        block.ids.push(i);
        scanned += 1;
        if block.ids.len() == ECDF_BLOCK {
            block.flush(scorer, u, thresholds, counts);
        }
    }
    block.flush(scorer, u, thresholds, counts);
    scanned
}

/// All m empirical-cdf counts of Eq. (16) in **one** blocked pass.
///
/// Fills `counts[c] = #{scanned items with x̂ᵤᵢ ≤ thresholds[c]}` and
/// returns the number of items scanned (the cdf denominator). The user's
/// training positives are always skipped:
///
/// * [`EcdfStrategy::Exact`], and `Subsample(k)` with `k ≥ n_items`, scan
///   exactly the user's un-interacted items `I⁻ᵤ`, returning `|I⁻ᵤ|` — the
///   exact Eq. (16) numerators and denominator.
/// * `Subsample(k)` below the catalog size scans the epoch sample held in
///   `scratch` (which a [`BnsSampler`] draws at each epoch's first draw)
///   and returns the number of sampled negatives. A scratch that holds no
///   sample yet gets the exact pass.
///
/// Items are scored through [`Scorer::score_items`] in `ECDF_BLOCK`-sized
/// (256-item) blocks and compared against all thresholds while the block is
/// hot, so no catalog-sized buffer exists anywhere. Scores are bitwise
/// identical to `score`/`score_all` (the kernel contract), which keeps the
/// exact counts equal to m independent scans of a precomputed rating
/// vector — property-tested in `tests/proptests.rs`.
///
/// When the scan is the epoch sample and the scorer exposes its rows
/// ([`Scorer::row_tables`]), the pass reads the sample's coded copy
/// instead (see "The coded pass" above) and gathers only the rows the
/// codes cannot decide; its counts and return value are the gather's,
/// integer for integer (`proptests::coded_ecdf_counts_match_the_gather_pass`).
/// Every call adds the rows it scanned, and the rows it scored exactly, to
/// the counters the owning sampler reports as
/// [`PosteriorStats::ecdf_rows`] and [`PosteriorStats::ecdf_rescored`].
pub fn fused_ecdf_counts(
    strategy: EcdfStrategy,
    scorer: &dyn Scorer,
    train: &Interactions,
    u: u32,
    thresholds: &[f32],
    counts: &mut Vec<u32>,
    scratch: &mut EcdfScratch,
) -> usize {
    let sampled = match strategy {
        EcdfStrategy::Subsample(k) => k < train.n_items() as usize,
        EcdfStrategy::Exact => false,
    };
    let scanned = match scorer.row_tables() {
        Some(tables) if sampled && !scratch.sample.is_empty() => {
            coded_pass(&tables, scorer, train, u, thresholds, counts, scratch)
        }
        _ => {
            let sample = if sampled {
                scratch.sample.as_slice()
            } else {
                &[]
            };
            let scanned = counts_over(
                sample,
                scorer,
                train,
                u,
                thresholds,
                counts,
                &mut scratch.block,
            );
            scratch.rescored += scanned as u64;
            scanned
        }
    };
    scratch.rows += scanned as u64;
    scanned
}

/// The coded Eq. (16) pass over the epoch sample: refreshes the coded
/// copy to the model's current item table, counts every row the codes
/// decide, and re-scores the rest exactly through [`Scorer::score_items`]
/// in `ECDF_BLOCK`-sized blocks. The user's positives are skipped with a
/// merge cursor over the two sorted id lists. Counts, and the number of
/// rows scanned, are those of the gather pass exactly.
fn coded_pass(
    tables: &RowTables<'_>,
    scorer: &dyn Scorer,
    train: &Interactions,
    u: u32,
    thresholds: &[f32],
    counts: &mut Vec<u32>,
    scratch: &mut EcdfScratch,
) -> usize {
    let EcdfScratch {
        block,
        sample,
        coded,
        rescored_counts,
        rescored,
        ..
    } = scratch;
    coded.refresh(tables, sample);
    counts.clear();
    counts.resize(thresholds.len(), 0);
    rescored_counts.clear();
    rescored_counts.resize(thresholds.len(), 0);
    block.ids.clear();
    // Full-block capacity up front: how many rows are ambiguous varies
    // from pass to pass, and a growing buffer would allocate mid-epoch.
    block.ids.reserve(ECDF_BLOCK);
    block.scores.reserve(ECDF_BLOCK);
    let user = tables.user(u);
    // Sample positions of the user's positives, ascending.
    let mut from = 0usize;
    let skip = train.items_of(u).iter().filter_map(|&p| {
        from += sample[from..].partition_point(|&i| i < p);
        (sample.get(from) == Some(&p)).then_some(from)
    });
    let scanned = coded.rows.count_le(user, thresholds, skip, counts, |r| {
        block.ids.push(sample[r]);
        *rescored += 1;
        if block.ids.len() == ECDF_BLOCK {
            block.flush(scorer, u, thresholds, rescored_counts);
        }
    });
    block.flush(scorer, u, thresholds, rescored_counts);
    for (count, extra) in counts.iter_mut().zip(rescored_counts.iter()) {
        *count += extra;
    }
    scanned
}

/// The gather pass of [`fused_ecdf_counts`], with the id set resolved: the
/// sorted `sample`, or all of `I⁻ᵤ` when it is empty.
fn counts_over(
    sample: &[u32],
    scorer: &dyn Scorer,
    train: &Interactions,
    u: u32,
    thresholds: &[f32],
    counts: &mut Vec<u32>,
    block: &mut Block,
) -> usize {
    if sample.is_empty() {
        let all = 0..train.n_items();
        ecdf_pass(all, scorer, train, u, thresholds, counts, block)
    } else {
        let sampled = sample.iter().copied();
        ecdf_pass(sampled, scorer, train, u, thresholds, counts, block)
    }
}

/// Which selection rule to apply over the candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Criterion {
    /// Eq. (32): minimize the conditional sampling risk (the full BNS rule,
    /// balancing informativeness and unbiasedness).
    MinRisk,
    /// Eq. (35): maximize the posterior `unbias(l)` (pure bias avoidance —
    /// used in Fig. 4's sampling-quality study).
    PosteriorMax,
    /// Exploration–exploitation mix (the paper's §VI future-work remark):
    /// with probability `epsilon` pick the *most informative* candidate
    /// (explore hard negatives regardless of bias), otherwise apply the
    /// Eq. (32) min-risk rule (exploit). `epsilon = 0` is `MinRisk`.
    ExploreExploit {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

/// How to estimate the likelihood term `F(x̂ₗ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdfStrategy {
    /// Exact Eq. (16): scan all of the user's un-interacted item scores
    /// (the paper's reference).
    Exact,
    /// Scan a uniform sample of this many item ids; the default, at
    /// [`DKW_SAMPLE`]. A sample at least as large as the catalog is the
    /// exact pass and consumes no randomness. Otherwise the ids are drawn
    /// without replacement once per epoch, at the epoch's first draw, and
    /// every draw of the epoch reads that one sample; the user's positives
    /// are skipped, so the denominator is the number of sampled negatives.
    /// By the DKW inequality, n sampled scores put F̂ within
    /// ε = √(ln(2/δ)/(2n)) of the exact Eq. (16) cdf with probability
    /// ≥ 1 − δ, independent of the catalog size.
    Subsample(usize),
}

/// Descriptor of how to construct the prior (plain data; resolved against
/// a dataset by `factory::build_sampler`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorKind {
    /// Eq. (17) interaction-ratio prior (standard BNS).
    Popularity,
    /// BNS-3 uniform prior `1/n_items`.
    NonInformative,
    /// BNS-4 occupation-enhanced prior.
    Occupation,
    /// Table IV oracle prior with the given probabilities for true false
    /// negatives / true negatives.
    Oracle {
        /// `P_fn` assigned to genuine false negatives (paper: 0.64).
        p_if_fn: f64,
        /// `P_fn` assigned to genuine true negatives (paper: 0.04).
        p_if_tn: f64,
    },
}

/// BNS hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnsConfig {
    /// Candidate-set size |Mᵤ| (paper default 5). `usize::MAX` means "all
    /// negatives" — the asymptotically optimal sampler h* of Table IV.
    pub m: usize,
    /// λ schedule (paper default: constant 5; BNS-1 uses the warm start).
    pub lambda: LambdaSchedule,
    /// Selection rule.
    pub criterion: Criterion,
    /// BNS-2: epochs of plain uniform sampling before the Bayesian rule
    /// kicks in (warm-starts the sample information x̂).
    pub warmup_epochs: usize,
    /// Likelihood estimation strategy.
    pub ecdf: EcdfStrategy,
    /// Taylor-expansion order of the sampling-loss estimate (the paper's
    /// §VI notes the first-order Eq. 30 "has much room for improvement").
    pub risk_order: risk::RiskOrder,
}

impl Default for BnsConfig {
    fn default() -> Self {
        Self {
            m: 5,
            lambda: LambdaSchedule::paper_default(),
            criterion: Criterion::MinRisk,
            warmup_epochs: 0,
            ecdf: EcdfStrategy::Subsample(DKW_SAMPLE),
            risk_order: risk::RiskOrder::First,
        }
    }
}

impl BnsConfig {
    fn validate(&self) -> Result<()> {
        if self.m == 0 {
            return Err(CoreError::InvalidConfig(
                "BNS candidate size must be > 0".into(),
            ));
        }
        if !self.lambda.is_valid() {
            return Err(CoreError::InvalidConfig("invalid λ schedule".into()));
        }
        if let EcdfStrategy::Subsample(0) = self.ecdf {
            return Err(CoreError::InvalidConfig(
                "ECDF subsample size must be > 0".into(),
            ));
        }
        if let Criterion::ExploreExploit { epsilon } = self.criterion {
            if !(0.0..=1.0).contains(&epsilon) || !epsilon.is_finite() {
                return Err(CoreError::InvalidConfig(
                    "exploration epsilon must be in [0, 1]".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Per-candidate evaluation record (exposed for the experiment harness and
/// tests; Fig. 3 plots `unbias`, Fig. 4's risk analysis uses the rest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSignal {
    /// The candidate item.
    pub item: u32,
    /// `info(l)` — Eq. (4).
    pub info: f64,
    /// `F(x̂ₗ)` — Eq. (16).
    pub f_hat: f64,
    /// Prior `P_fn(l)`.
    pub p_fn: f64,
    /// Posterior `unbias(l)` — Eq. (15).
    pub unbias: f64,
    /// Selection value `info·[1 − (1+λ)·unbias]` — Eq. (32).
    pub risk: f64,
}

/// Which signal drives the selection over a candidate set, and in which
/// direction (resolved from [`Criterion`] per draw — the ExploreExploit
/// coin is flipped at draw time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    MinRisk,
    MaxUnbias,
    MaxInfo,
}

/// Reusable buffers of the batched BNS draw: per-draw candidate records,
/// their gathered scores and fused Eq. 16 counts, and the by-user grouping
/// of the batch. Steady-state allocation-free once capacities are reached.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Concatenated candidate sets in draw order.
    cands: Vec<u32>,
    /// Scores aligned with `cands`.
    cand_scores: Vec<f32>,
    /// Eq. 16 counts aligned with `cands`.
    ecdf: Vec<u32>,
    /// Per-draw records (user, positive, candidate range, selection rule,
    /// catalog-scan size, positive score).
    draw_users: Vec<u32>,
    draw_pos: Vec<u32>,
    draw_start: Vec<u32>,
    draw_len: Vec<u32>,
    draw_rule: Vec<Rule>,
    draw_scanned: Vec<u32>,
    draw_pos_score: Vec<f32>,
    /// Draw indices grouped by user.
    order: Vec<u32>,
    /// Per-run gather inputs/outputs and fused-pass thresholds.
    run_ids: Vec<u32>,
    run_scores: Vec<f32>,
    run_thresholds: Vec<f32>,
    run_counts: Vec<u32>,
}

/// The Bayesian negative sampler.
pub struct BnsSampler {
    config: BnsConfig,
    prior: Box<dyn Prior>,
    lambda_now: f64,
    epoch: usize,
    candidates: Vec<u32>,
    display_name: String,
    epoch_stats: PosteriorStats,
    /// `[pos, candidates…]` of the current draw (one gather-dot input).
    gather_ids: Vec<u32>,
    /// Scores matching `gather_ids`.
    gather_scores: Vec<f32>,
    /// Per-candidate ECDF counts from the fused pass.
    ecdf_counts: Vec<u32>,
    /// Block scratch of the fused pass, and the epoch's Eq. 16 sample.
    ecdf_scratch: EcdfScratch,
    /// Whether the epoch sample is still to be drawn (set at every epoch
    /// start; cleared by the epoch's first Bayesian draw).
    sample_due: bool,
    /// Batched-draw buffers.
    batch: BatchScratch,
}

impl BnsSampler {
    /// Creates a BNS sampler with an explicit prior object.
    pub fn new(config: BnsConfig, prior: Box<dyn Prior>) -> Result<Self> {
        config.validate()?;
        let display_name = format!("BNS[{}]", prior.name());
        Ok(Self {
            lambda_now: config.lambda.at(0),
            config,
            prior,
            epoch: 0,
            candidates: Vec::new(),
            display_name,
            epoch_stats: PosteriorStats::default(),
            gather_ids: Vec::new(),
            gather_scores: Vec::new(),
            ecdf_counts: Vec::new(),
            ecdf_scratch: EcdfScratch::default(),
            sample_due: true,
            batch: BatchScratch::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &BnsConfig {
        &self.config
    }

    /// λ at the current epoch.
    pub fn lambda_now(&self) -> f64 {
        self.lambda_now
    }

    /// Draws the epoch's Eq. 16 sample at the epoch's first Bayesian draw,
    /// from the draw RNG. Consumes no randomness when the strategy scans
    /// all of `I⁻ᵤ` on this catalog, or when the sample is already drawn.
    fn draw_epoch_sample(&mut self, n_items: u32, rng: &mut dyn rand::RngCore) {
        if std::mem::take(&mut self.sample_due) {
            self.ecdf_scratch
                .draw_sample(self.config.ecdf, n_items, rng);
        }
    }

    /// Empirical cdf value of `x` among user `u`'s un-interacted items
    /// (Eq. 16), via a one-threshold [`fused_ecdf_counts`] pass over the
    /// same id set as the draws: the epoch sample once one is drawn, else
    /// all of `I⁻ᵤ`. Diagnostic path: it allocates a local scratch with a
    /// copy of the sample (and so codes the sample afresh when it takes
    /// the coded pass); the sampling hot path batches all m thresholds
    /// into a single pass instead.
    fn likelihood_f(&self, u: u32, x: f32, ctx: &SampleContext<'_>) -> f64 {
        let mut counts = Vec::new();
        let mut scratch = EcdfScratch {
            sample: self.ecdf_scratch.sample.clone(),
            ..EcdfScratch::default()
        };
        let scanned = fused_ecdf_counts(
            self.config.ecdf,
            ctx.scorer,
            ctx.train,
            u,
            &[x],
            &mut counts,
            &mut scratch,
        );
        if scanned == 0 {
            return 0.5;
        }
        counts[0] as f64 / scanned as f64
    }

    /// Evaluates the full signal vector for one candidate (used by the
    /// harness to reproduce Fig. 3/4 and by the tests below).
    ///
    /// Scores come from [`Scorer::score_items`] — bitwise identical to the
    /// fused sampling path — and `F̂` reads the epoch sample of the latest
    /// draw (the exact pass before any sample is drawn), so brute-force
    /// argmins over this method agree with [`NegativeSampler::sample`]
    /// exactly.
    pub fn evaluate_candidate(
        &self,
        u: u32,
        pos: u32,
        item: u32,
        ctx: &SampleContext<'_>,
    ) -> CandidateSignal {
        let mut pair = [0.0f32; 2];
        ctx.scorer.score_items(u, &[pos, item], &mut pair);
        let info = info(pair[0], pair[1]) as f64;
        let f_hat = self.likelihood_f(u, pair[1], ctx);
        let p_fn = self.prior.p_fn(u, item);
        let unb = unbias(f_hat, p_fn);
        let risk =
            risk::selection_value_ordered(info, unb, self.lambda_now, self.config.risk_order);
        CandidateSignal {
            item,
            info,
            f_hat,
            p_fn,
            unbias: unb,
            risk,
        }
    }

    /// Resolves the per-draw selection rule, flipping the
    /// exploration coin (from the shared RNG, for reproducibility) when the
    /// criterion is [`Criterion::ExploreExploit`].
    fn resolve_rule(criterion: Criterion, rng: &mut dyn rand::RngCore) -> Rule {
        match criterion {
            Criterion::MinRisk => Rule::MinRisk,
            Criterion::PosteriorMax => Rule::MaxUnbias,
            Criterion::ExploreExploit { epsilon } => {
                let coin: f64 = rand::Rng::random_range(rng, 0.0..1.0);
                if coin < epsilon {
                    Rule::MaxInfo
                } else {
                    Rule::MinRisk
                }
            }
        }
    }

    /// Applies `rule` over one draw's candidate set given its gathered
    /// scores and fused Eq. 16 counts — the **one** copy of the signal
    /// evaluation and tie-breaking (`min_by`/`max_by` semantics: keep the
    /// *first* minimal element, the *last* maximal one), shared verbatim by
    /// the per-pair and batched paths so they cannot drift.
    #[allow(clippy::too_many_arguments)] // the flat per-draw signal inputs
    fn select_over_candidates(
        prior: &dyn Prior,
        lambda_now: f64,
        risk_order: risk::RiskOrder,
        rule: Rule,
        u: u32,
        candidates: &[u32],
        cand_scores: &[f32],
        score_pos: f32,
        ecdf_counts: &[u32],
        scanned: usize,
    ) -> Option<CandidateSignal> {
        let keep_min = |a: f64, b: f64| a.partial_cmp(&b).expect("finite signal").is_lt();
        let keep_max = |a: f64, b: f64| a.partial_cmp(&b).expect("finite signal").is_ge();
        let mut best: Option<CandidateSignal> = None;
        for (slot, &item) in candidates.iter().enumerate() {
            let score_neg = cand_scores[slot];
            let info = info(score_pos, score_neg) as f64;
            let f_hat = if scanned == 0 {
                0.5
            } else {
                ecdf_counts[slot] as f64 / scanned as f64
            };
            let p_fn = prior.p_fn(u, item);
            let unb = unbias(f_hat, p_fn);
            let risk = risk::selection_value_ordered(info, unb, lambda_now, risk_order);
            let signal = CandidateSignal {
                item,
                info,
                f_hat,
                p_fn,
                unbias: unb,
                risk,
            };
            let replace = match &best {
                None => true,
                Some(b) => match rule {
                    Rule::MinRisk => keep_min(signal.risk, b.risk),
                    Rule::MaxUnbias => keep_max(signal.unbias, b.unbias),
                    Rule::MaxInfo => keep_max(signal.info, b.info),
                },
            };
            if replace {
                best = Some(signal);
            }
        }
        best
    }

    /// Fills `self.candidates` with the candidate set: either `m` uniform
    /// negatives, or — when `m` exceeds the user's negative count — every
    /// negative (the optimal sampler h*). Returns false if no negatives.
    fn fill_candidates(
        &mut self,
        u: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> bool {
        fill_candidate_set(&mut self.candidates, self.config.m, u, ctx, rng)
    }
}

/// Fills `out` with `u`'s candidate set: either `m` uniform negatives, or —
/// when `m` exceeds the user's negative count — every negative (the optimal
/// sampler h*). Returns false if the user has no negatives (consuming no
/// RNG in that case). A free function over the buffer so the per-pair and
/// batched paths share the **one** candidate-construction implementation.
fn fill_candidate_set(
    out: &mut Vec<u32>,
    m: usize,
    u: u32,
    ctx: &SampleContext<'_>,
    rng: &mut dyn rand::RngCore,
) -> bool {
    let n_neg = ctx.train.n_negatives(u);
    if n_neg == 0 {
        return false;
    }
    if m >= n_neg {
        // Exhaustive candidate set = all un-interacted items.
        out.clear();
        out.reserve(n_neg);
        let positives = ctx.train.items_of(u);
        let mut pos_idx = 0usize;
        for i in 0..ctx.n_items() {
            if pos_idx < positives.len() && positives[pos_idx] == i {
                pos_idx += 1;
                continue;
            }
            out.push(i);
        }
        true
    } else {
        draw_candidate_set(ctx.train, u, m, out, rng)
    }
}

impl NegativeSampler for BnsSampler {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn sample(
        &mut self,
        u: u32,
        pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        // BNS-2 warm start: plain RNS while the score function is unreliable.
        if self.epoch < self.config.warmup_epochs {
            return draw_uniform_negative(ctx.train, u, rng);
        }
        self.draw_epoch_sample(ctx.n_items(), rng);
        if !self.fill_candidates(u, ctx, rng) {
            return None;
        }

        // Score pos + candidates in one gather-dot, then produce all m
        // ECDF counts in one blocked pass over `I⁻ᵤ` or the epoch sample —
        // the fused draw described at the module level.
        self.gather_ids.clear();
        self.gather_ids.push(pos);
        self.gather_ids.extend_from_slice(&self.candidates);
        self.gather_scores.clear();
        self.gather_scores.resize(self.gather_ids.len(), 0.0);
        ctx.scorer
            .score_items(u, &self.gather_ids, &mut self.gather_scores);
        let score_pos = self.gather_scores[0];
        let cand_scores = &self.gather_scores[1..];
        let scanned = fused_ecdf_counts(
            self.config.ecdf,
            ctx.scorer,
            ctx.train,
            u,
            cand_scores,
            &mut self.ecdf_counts,
            &mut self.ecdf_scratch,
        );

        let rule = Self::resolve_rule(self.config.criterion, rng);
        let best = Self::select_over_candidates(
            self.prior.as_ref(),
            self.lambda_now,
            self.config.risk_order,
            rule,
            u,
            &self.candidates,
            cand_scores,
            score_pos,
            &self.ecdf_counts,
            scanned,
        );

        if let Some(signal) = &best {
            self.epoch_stats.record(signal);
        }
        best.map(|s| s.item)
    }

    /// The batched fused draw. Phase 1 consumes **all** the randomness in
    /// pair order (the epoch sample at the epoch's first draw, then
    /// candidate sets and the per-draw exploration coin — the exact RNG
    /// sequence of the looped per-pair path, since scoring consumes none).
    /// Phase 2 groups the batch by user: `pos` + the candidates of *all* of
    /// a user's draws go through **one** `score_items` gather, and all
    /// their Eq. (16) thresholds through **one** blocked
    /// [`fused_ecdf_counts`] pass (reusing [`EcdfScratch`]), so same-user
    /// draws amortize the Eq. 16 pass that dominates a BNS draw. Phase 3 applies the Eq. (32)/(35)
    /// selection per draw with the shared tie rules and records the
    /// posterior statistics in draw order.
    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        out.begin_fill(k);

        // BNS-2 warm start: plain uniform bulk draws, no scoring at all.
        if self.epoch < self.config.warmup_epochs {
            crate::sampler::fill_rows(pairs, k, out, rng, |u, rng| {
                draw_uniform_negative(ctx.train, u, rng)
            });
            return;
        }

        if !pairs.is_empty() {
            self.draw_epoch_sample(ctx.n_items(), rng);
        }
        let b = &mut self.batch;
        b.cands.clear();
        b.draw_users.clear();
        b.draw_pos.clear();
        b.draw_start.clear();
        b.draw_len.clear();
        b.draw_rule.clear();

        // Phase 1 (all the RNG): candidate sets + exploration coins in
        // pair-major, slot-minor order.
        for &(u, pos) in pairs {
            out.push_row(u, pos);
            let mut ok = true;
            for _ in 0..k {
                // The shared candidate construction, into the scratch
                // buffer directly (split borrow: `b` stays live).
                if !fill_candidate_set(&mut self.candidates, self.config.m, u, ctx, rng) {
                    ok = false;
                    break;
                }
                b.draw_users.push(u);
                b.draw_pos.push(pos);
                b.draw_start.push(b.cands.len() as u32);
                b.draw_len.push(self.candidates.len() as u32);
                b.cands.extend_from_slice(&self.candidates);
                b.draw_rule
                    .push(Self::resolve_rule(self.config.criterion, rng));
            }
            if !ok {
                // Saturated user: the first slot failed before any RNG use,
                // so nothing of this pair was recorded.
                out.pop_row();
            }
        }

        // Phase 2 (all the scoring): one gather + one fused Eq. 16 pass per
        // distinct user of the batch.
        group_runs_by_user(&b.draw_users, &mut b.order);
        b.cand_scores.clear();
        b.cand_scores.resize(b.cands.len(), 0.0);
        b.ecdf.clear();
        b.ecdf.resize(b.cands.len(), 0);
        b.draw_scanned.clear();
        b.draw_scanned.resize(b.draw_users.len(), 0);
        b.draw_pos_score.clear();
        b.draw_pos_score.resize(b.draw_users.len(), 0.0);
        let mut run = 0usize;
        while run < b.order.len() {
            let user = b.draw_users[b.order[run] as usize];
            let mut end = run;
            while end < b.order.len() && b.draw_users[b.order[end] as usize] == user {
                end += 1;
            }
            // One gather: [pos, candidates…] of every draw in the run.
            b.run_ids.clear();
            for &d in &b.order[run..end] {
                let d = d as usize;
                let (s, l) = (b.draw_start[d] as usize, b.draw_len[d] as usize);
                b.run_ids.push(b.draw_pos[d]);
                b.run_ids.extend_from_slice(&b.cands[s..s + l]);
            }
            b.run_scores.clear();
            b.run_scores.resize(b.run_ids.len(), 0.0);
            ctx.scorer.score_items(user, &b.run_ids, &mut b.run_scores);
            // Scatter scores and collect the run's Eq. 16 thresholds.
            b.run_thresholds.clear();
            let mut cur = 0usize;
            for &d in &b.order[run..end] {
                let d = d as usize;
                let (s, l) = (b.draw_start[d] as usize, b.draw_len[d] as usize);
                b.draw_pos_score[d] = b.run_scores[cur];
                b.cand_scores[s..s + l].copy_from_slice(&b.run_scores[cur + 1..cur + 1 + l]);
                b.run_thresholds.extend_from_slice(&b.cand_scores[s..s + l]);
                cur += 1 + l;
            }
            // One blocked Eq. 16 pass for every threshold of the run.
            let scanned = fused_ecdf_counts(
                self.config.ecdf,
                ctx.scorer,
                ctx.train,
                user,
                &b.run_thresholds,
                &mut b.run_counts,
                &mut self.ecdf_scratch,
            );
            let mut cur = 0usize;
            for &d in &b.order[run..end] {
                let d = d as usize;
                let (s, l) = (b.draw_start[d] as usize, b.draw_len[d] as usize);
                b.ecdf[s..s + l].copy_from_slice(&b.run_counts[cur..cur + l]);
                b.draw_scanned[d] = scanned as u32;
                cur += l;
            }
            run = end;
        }

        // Phase 3: the Eq. (32)/(35) selection per draw, in draw order.
        for (d, slot) in out.negs_mut().iter_mut().enumerate() {
            let (s, l) = (b.draw_start[d] as usize, b.draw_len[d] as usize);
            let best = Self::select_over_candidates(
                self.prior.as_ref(),
                self.lambda_now,
                self.config.risk_order,
                b.draw_rule[d],
                b.draw_users[d],
                &b.cands[s..s + l],
                &b.cand_scores[s..s + l],
                b.draw_pos_score[d],
                &b.ecdf[s..s + l],
                b.draw_scanned[d] as usize,
            );
            let signal = best.expect("non-empty candidate set always selects");
            self.epoch_stats.record(&signal);
            *slot = signal.item;
        }
    }

    fn score_access(&self) -> ScoreAccess {
        // During BNS-2 warmup the draws are uniform and need no scores at
        // all; afterwards the fused draw gathers exactly what it needs.
        if self.epoch < self.config.warmup_epochs {
            ScoreAccess::None
        } else {
            ScoreAccess::Candidates
        }
    }

    fn on_epoch_start(&mut self, epoch: usize) {
        self.epoch = epoch;
        self.sample_due = true;
        self.lambda_now = self.config.lambda.at(epoch);
    }

    fn take_epoch_stats(&mut self) -> Option<PosteriorStats> {
        let mut stats = std::mem::take(&mut self.epoch_stats);
        stats.ecdf_rows = std::mem::take(&mut self.ecdf_scratch.rows);
        stats.ecdf_rescored = std::mem::take(&mut self.ecdf_scratch.rescored);
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_data::{Interactions, Popularity};
    use bns_model::scorer::FixedScorer;
    use bns_model::{LightGcn, MatrixFactorization, PairwiseModel, Scorer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Fixture {
        train: Interactions,
        pop: Popularity,
        scorer: FixedScorer,
        user_scores: Vec<f32>,
    }

    impl Fixture {
        /// 1 user, `n` items; user interacted with item 0; scores ascend
        /// with item id. Item popularity: uniform 1 except item n−1 which is
        /// wildly popular.
        fn new(n: u32) -> Self {
            let mut pairs = vec![(0u32, 0u32)];
            // Give every item a popularity count via phantom users.
            let n_users = 40u32;
            for u in 1..n_users {
                pairs.push((u, u % n));
                // Make the last item very popular.
                pairs.push((u, n - 1));
            }
            let train = Interactions::from_pairs(n_users, n, &pairs).unwrap();
            let pop = Popularity::from_interactions(&train);
            let scorer = FixedScorer::new(n_users, n, {
                let mut all = Vec::with_capacity((n_users * n) as usize);
                for _ in 0..n_users {
                    all.extend((0..n).map(|i| i as f32 * 0.05));
                }
                all
            });
            let mut user_scores = vec![0.0f32; n as usize];
            scorer.score_all(0, &mut user_scores);
            Self {
                train,
                pop,
                scorer,
                user_scores,
            }
        }

        fn ctx(&self) -> SampleContext<'_> {
            SampleContext {
                scorer: &self.scorer,
                train: &self.train,
                popularity: &self.pop,
                user_scores: &self.user_scores,
                epoch: 0,
            }
        }
    }

    fn sampler(config: BnsConfig, fx: &Fixture) -> BnsSampler {
        BnsSampler::new(config, Box::new(PopularityPrior::new(&fx.pop))).unwrap()
    }

    #[test]
    fn config_validation() {
        let fx = Fixture::new(20);
        let bad = BnsConfig {
            m: 0,
            ..BnsConfig::default()
        };
        assert!(BnsSampler::new(bad, Box::new(PopularityPrior::new(&fx.pop))).is_err());
        let bad = BnsConfig {
            lambda: LambdaSchedule::Constant(-1.0),
            ..BnsConfig::default()
        };
        assert!(BnsSampler::new(bad, Box::new(PopularityPrior::new(&fx.pop))).is_err());
        let bad = BnsConfig {
            ecdf: EcdfStrategy::Subsample(0),
            ..BnsConfig::default()
        };
        assert!(BnsSampler::new(bad, Box::new(PopularityPrior::new(&fx.pop))).is_err());
    }

    #[test]
    fn never_samples_positive() {
        let fx = Fixture::new(30);
        let mut s = sampler(BnsConfig::default(), &fx);
        let ctx = fx.ctx();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            let j = s.sample(0, 0, &ctx, &mut rng).unwrap();
            assert!(!fx.train.contains(0, j), "sampled positive {j}");
        }
    }

    #[test]
    fn likelihood_f_is_exact_eq16() {
        let fx = Fixture::new(10);
        let s = sampler(BnsConfig::default(), &fx);
        let ctx = fx.ctx();
        // User 0's only positive is item 0 (score 0.0). Negatives: items
        // 1..9 with scores 0.05·i. F(x̂_5) = #{neg scores ≤ 0.25}/9 = 5/9.
        let f = s.likelihood_f(0, fx.user_scores[5], &ctx);
        assert!((f - 5.0 / 9.0).abs() < 1e-12, "F = {f}");
        // Top item: F = 1.
        let f = s.likelihood_f(0, fx.user_scores[9], &ctx);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dkw_sample_is_the_dkw_bound_at_one_percent() {
        let (epsilon, delta) = (0.01f64, 0.05f64);
        let n = ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize;
        assert_eq!(DKW_SAMPLE, n);
        assert_eq!(
            BnsConfig::default().ecdf,
            EcdfStrategy::Subsample(DKW_SAMPLE)
        );
    }

    /// One user with the given positives on an `n`-item catalog whose
    /// scores ascend with the item id.
    fn one_user(n: u32, positives: &[u32]) -> (Interactions, Popularity, FixedScorer) {
        let pairs: Vec<(u32, u32)> = positives.iter().map(|&i| (0, i)).collect();
        let train = Interactions::from_pairs(1, n, &pairs).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(1, n, (0..n).map(|i| i as f32 * 0.01).collect());
        (train, pop, scorer)
    }

    #[test]
    fn subsampled_likelihood_skips_the_users_positives() {
        // The positives are the top-scored half of the catalog. Counting
        // them would put F̂ of the best negative near 0.5; skipping them
        // makes it exactly 1.
        let positives: Vec<u32> = (500..1_000).collect();
        let (train, pop, scorer) = one_user(1_000, &positives);
        let cfg = BnsConfig {
            ecdf: EcdfStrategy::Subsample(100),
            ..BnsConfig::default()
        };
        let mut s = BnsSampler::new(cfg, Box::new(PopularityPrior::new(&pop))).unwrap();
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[],
            epoch: 0,
        };
        let mut rng = StdRng::seed_from_u64(6);
        s.sample(0, 500, &ctx, &mut rng).unwrap();
        let sampled_negatives = s.ecdf_scratch.sample.iter().filter(|&&i| i < 500).count();
        assert_eq!(s.ecdf_scratch.sample.len(), 100);
        assert!(sampled_negatives > 0 && sampled_negatives < 100);

        let best_negative = scorer.score(0, 499);
        assert_eq!(s.likelihood_f(0, best_negative, &ctx), 1.0);
        let mut counts = Vec::new();
        let scanned = fused_ecdf_counts(
            cfg.ecdf,
            &scorer,
            &train,
            0,
            &[best_negative],
            &mut counts,
            &mut s.ecdf_scratch,
        );
        assert_eq!(scanned, sampled_negatives);
        assert_eq!(counts, [sampled_negatives as u32]);
    }

    #[test]
    fn dkw_sample_meets_its_error_bound() {
        // 50k items with pseudo-random scores; the user's positives are the
        // 1,000 top-scored items, so counting them would bias the top
        // quantiles by ~2%.
        let n = 50_000u32;
        let scores: Vec<f32> = (0..n)
            .map(|i| {
                let h = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
                (h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect();
        let mut sorted = scores.clone();
        sorted.sort_by(f32::total_cmp);
        let cut = sorted[n as usize - 1_000];
        let positives: Vec<u32> = (0..n).filter(|&i| scores[i as usize] >= cut).collect();
        let pairs: Vec<(u32, u32)> = positives.iter().map(|&i| (0, i)).collect();
        let train = Interactions::from_pairs(1, n, &pairs).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(1, n, scores.clone());

        // The exact Eq. 16 cdf over I⁻ᵤ, and 64 of its quantiles.
        let negatives: Vec<f64> = (0..n)
            .filter(|&i| !train.contains(0, i))
            .map(|i| f64::from(scores[i as usize]))
            .collect();
        let exact = bns_stats::Ecdf::new(&negatives).unwrap();
        let thresholds: Vec<f32> = (1..=64)
            .map(|q| exact.quantile(q as f64 / 65.0).unwrap() as f32)
            .collect();

        let cfg = BnsConfig::default();
        let mut s = BnsSampler::new(cfg, Box::new(PopularityPrior::new(&pop))).unwrap();
        let mut counts = Vec::new();
        let mut within = 0usize;
        for seed in 0..100u64 {
            s.on_epoch_start(seed as usize);
            s.draw_epoch_sample(n, &mut StdRng::seed_from_u64(seed));
            let scanned = fused_ecdf_counts(
                cfg.ecdf,
                &scorer,
                &train,
                0,
                &thresholds,
                &mut counts,
                &mut s.ecdf_scratch,
            );
            assert!(scanned < DKW_SAMPLE, "the sample skips positives");
            let sup = thresholds
                .iter()
                .zip(&counts)
                .map(|(&t, &c)| (c as f64 / scanned as f64 - exact.eval(f64::from(t))).abs())
                .fold(0.0f64, f64::max);
            within += usize::from(sup <= 0.01);
        }
        println!("DKW_SAMPLE: sup-error <= 0.01 for {within} of 100 seeds");
        assert!(
            within >= 95,
            "sup-error <= 0.01 for only {within} of 100 seeds"
        );
    }

    /// A [`FixedScorer`] that counts the scores it hands out.
    struct Counting {
        inner: FixedScorer,
        scored: std::cell::Cell<usize>,
    }

    impl Scorer for Counting {
        fn n_users(&self) -> u32 {
            self.inner.n_users()
        }
        fn n_items(&self) -> u32 {
            self.inner.n_items()
        }
        fn score(&self, u: u32, i: u32) -> f32 {
            self.scored.set(self.scored.get() + 1);
            self.inner.score(u, i)
        }
    }

    #[test]
    fn default_is_exact_up_to_dkw_sample() {
        // Four users with a few positives each, on a catalog of exactly
        // DKW_SAMPLE items: the default must be the exact pass, draw for
        // draw and RNG word for RNG word.
        let n = DKW_SAMPLE as u32;
        let pairs: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| (0..5u32).map(move |t| (u, (u * 977 + t * 3_001) % n)))
            .collect();
        let train = Interactions::from_pairs(4, n, &pairs).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(
            4,
            n,
            (0..4 * n)
                .map(|x| (u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as f32)
                .collect(),
        );
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[],
            epoch: 0,
        };
        let pairs: Vec<(u32, u32)> = train.iter_pairs().collect();
        let exact = BnsConfig {
            ecdf: EcdfStrategy::Exact,
            ..BnsConfig::default()
        };
        let mut a =
            BnsSampler::new(BnsConfig::default(), Box::new(PopularityPrior::new(&pop))).unwrap();
        let mut b = BnsSampler::new(exact, Box::new(PopularityPrior::new(&pop))).unwrap();
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (mut out_a, mut out_b) = (TripleBatch::new(), TripleBatch::new());
        let mut draws = 0;
        for epoch in 0..2 {
            a.on_epoch_start(epoch);
            b.on_epoch_start(epoch);
            for _ in 0..8 {
                for chunk in pairs.chunks(7) {
                    a.sample_batch(chunk, 2, &ctx, &mut rng_a, &mut out_a);
                    b.sample_batch(chunk, 2, &ctx, &mut rng_b, &mut out_b);
                    assert_eq!(out_a.users(), out_b.users());
                    assert_eq!(out_a.pos(), out_b.pos());
                    assert_eq!(out_a.negs(), out_b.negs());
                    draws += out_a.negs().len();
                }
            }
        }
        assert!(draws >= 300, "{draws} draws");
        assert_eq!(
            rand::RngCore::next_u64(&mut rng_a),
            rand::RngCore::next_u64(&mut rng_b)
        );
    }

    #[test]
    fn default_samples_above_dkw_sample_and_diagnostics_read_the_same_sample() {
        let n = DKW_SAMPLE as u32 + 1;
        let positives = [3u32, 1_000, 9_999, 18_000];
        let (train, pop, inner) = one_user(n, &positives);
        let scorer = Counting {
            inner,
            scored: std::cell::Cell::new(0),
        };
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[],
            epoch: 0,
        };
        let cfg = BnsConfig::default();
        let mut s = BnsSampler::new(cfg, Box::new(PopularityPrior::new(&pop))).unwrap();
        s.on_epoch_start(0);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            scorer.scored.set(0);
            let j = s.sample(0, 1_000, &ctx, &mut rng).unwrap();
            // One gather of pos + the m candidates, then the Eq. 16 pass.
            let scanned = scorer.scored.get() - (1 + cfg.m);
            assert!(scanned < DKW_SAMPLE + 1, "scanned {scanned} ids");
            let recorded = s.take_epoch_stats().unwrap();
            assert_eq!(recorded.draws, 1);
            let sig = s.evaluate_candidate(0, 1_000, j, &ctx);
            assert_eq!(sig.f_hat.to_bits(), recorded.likelihood_sum.to_bits());
        }
    }

    #[test]
    fn candidate_signal_fields_are_consistent() {
        let fx = Fixture::new(40);
        let mut s = sampler(BnsConfig::default(), &fx);
        s.on_epoch_start(0);
        let ctx = fx.ctx();
        let sig = s.evaluate_candidate(0, 0, 20, &ctx);
        assert_eq!(sig.item, 20);
        assert!((0.0..=1.0).contains(&sig.info));
        assert!((0.0..=1.0).contains(&sig.f_hat));
        assert!((0.0..=1.0).contains(&sig.p_fn));
        assert!((0.0..=1.0).contains(&sig.unbias));
        assert!((sig.risk - risk::selection_value(sig.info, sig.unbias, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn avoids_high_prior_popular_item_under_posterior_criterion() {
        // Item n−1 is both top-scored (F = 1) and very popular (high prior):
        // the posterior criterion must essentially never choose it, while
        // plain DNS-style max-score always would.
        let fx = Fixture::new(20);
        let cfg = BnsConfig {
            criterion: Criterion::PosteriorMax,
            ..BnsConfig::default()
        };
        let mut s = sampler(cfg, &fx);
        let ctx = fx.ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let mut picked_popular = 0usize;
        for _ in 0..300 {
            if s.sample(0, 0, &ctx, &mut rng).unwrap() == 19 {
                picked_popular += 1;
            }
        }
        assert!(
            picked_popular < 5,
            "picked the popular top item {picked_popular} times"
        );
    }

    #[test]
    fn exhaustive_candidate_set_is_deterministic_optimum() {
        // m = MAX → h*: the argmin over every negative; the same draw must
        // come out every time regardless of RNG.
        let fx = Fixture::new(25);
        let cfg = BnsConfig {
            m: usize::MAX,
            ..BnsConfig::default()
        };
        let mut s = sampler(cfg, &fx);
        s.on_epoch_start(0);
        let ctx = fx.ctx();
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(999);
        let a = s.sample(0, 0, &ctx, &mut rng1).unwrap();
        let b = s.sample(0, 0, &ctx, &mut rng2).unwrap();
        assert_eq!(a, b);
        // And it must match the brute-force argmin.
        let best = (1..25u32)
            .map(|l| s.evaluate_candidate(0, 0, l, &ctx))
            .min_by(|x, y| x.risk.partial_cmp(&y.risk).unwrap())
            .unwrap()
            .item;
        assert_eq!(a, best);
    }

    #[test]
    fn warmup_reduces_to_uniform() {
        let fx = Fixture::new(20);
        let cfg = BnsConfig {
            warmup_epochs: 3,
            ..BnsConfig::default()
        };
        let mut s = sampler(cfg, &fx);
        s.on_epoch_start(0); // inside warmup
        let ctx = fx.ctx();
        let mut rng = StdRng::seed_from_u64(3);
        // During warmup, draws should cover the negative space broadly —
        // including low-scored items that MinRisk at λ=5 would down-weight.
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..400 {
            distinct.insert(s.sample(0, 0, &ctx, &mut rng).unwrap());
        }
        assert!(
            distinct.len() > 15,
            "warmup draws not uniform: {}",
            distinct.len()
        );
        // After warmup ends, the Bayesian rule activates.
        s.on_epoch_start(3);
        assert_eq!(s.lambda_now(), 5.0);
    }

    #[test]
    fn lambda_schedule_advances_with_epochs() {
        let fx = Fixture::new(20);
        let cfg = BnsConfig {
            lambda: LambdaSchedule::paper_warm_start(),
            ..BnsConfig::default()
        };
        let mut s = sampler(cfg, &fx);
        s.on_epoch_start(0);
        assert!((s.lambda_now() - 10.0).abs() < 1e-12);
        s.on_epoch_start(40);
        assert!((s.lambda_now() - 6.0).abs() < 1e-12);
        s.on_epoch_start(100);
        assert!((s.lambda_now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_user_returns_none() {
        let train = Interactions::from_pairs(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let pop = Popularity::from_interactions(&train);
        let scorer = FixedScorer::new(1, 2, vec![0.0; 2]);
        let mut s =
            BnsSampler::new(BnsConfig::default(), Box::new(PopularityPrior::new(&pop))).unwrap();
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &[0.0, 0.0],
            epoch: 0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(s.sample(0, 0, &ctx, &mut rng), None);
    }

    #[test]
    fn oracle_prior_selects_true_negatives() {
        // With the oracle prior, candidates that are "test positives" must
        // be dodged. Respect the paper's order relation (Eq. 6): a trained
        // model scores false negatives *high*, so mark the top-scored items
        // 11..19 as the test positives.
        let train = Interactions::from_pairs(1, 20, &[(0, 0)]).unwrap();
        let test =
            Interactions::from_pairs(1, 20, &(11..20u32).map(|i| (0, i)).collect::<Vec<_>>())
                .unwrap();
        let pop = Popularity::from_interactions(&train);
        let scores: Vec<f32> = (0..20).map(|i| i as f32 * 0.01).collect();
        let scorer = FixedScorer::new(1, 20, scores.clone());
        let cfg = BnsConfig {
            criterion: Criterion::PosteriorMax,
            ..BnsConfig::default()
        };
        let mut s = BnsSampler::new(cfg, Box::new(OraclePrior::paper(test.clone()))).unwrap();
        let ctx = SampleContext {
            scorer: &scorer,
            train: &train,
            popularity: &pop,
            user_scores: &scores,
            epoch: 0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut fn_hits = 0usize;
        let trials = 400;
        for _ in 0..trials {
            let j = s.sample(0, 0, &ctx, &mut rng).unwrap();
            if test.contains(0, j) {
                fn_hits += 1;
            }
        }
        // Random sampling would hit false negatives ~47% of the time
        // (9 of 19 negatives); the oracle-informed posterior nearly never.
        assert!(
            fn_hits < trials / 10,
            "false-negative hits: {fn_hits}/{trials}"
        );
    }

    /// Scores through a model but hides its rows, so every Eq. 16 pass
    /// takes the gather.
    struct Hidden<M>(M);

    impl<M: std::ops::Deref<Target: Scorer>> Scorer for Hidden<M> {
        fn n_users(&self) -> u32 {
            self.0.n_users()
        }
        fn n_items(&self) -> u32 {
            self.0.n_items()
        }
        fn score(&self, u: u32, i: u32) -> f32 {
            self.0.score(u, i)
        }
        fn score_all(&self, u: u32, out: &mut [f32]) {
            self.0.score_all(u, out)
        }
        fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
            self.0.score_items(u, items, out)
        }
    }

    impl<M: std::ops::DerefMut<Target: PairwiseModel>> PairwiseModel for Hidden<M> {
        fn begin_epoch(&mut self, epoch: usize) {
            self.0.begin_epoch(epoch)
        }
        fn begin_batch(&mut self) {
            self.0.begin_batch()
        }
        fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, lr: f32, reg: f32) -> f32 {
            self.0.accumulate_triple(u, pos, neg, lr, reg)
        }
        fn update_batch(&mut self, batch: &TripleBatch, lr: f32, reg: f32, infos: &mut Vec<f32>) {
            self.0.update_batch(batch, lr, reg, infos)
        }
        fn end_batch(&mut self, lr: f32, reg: f32) {
            self.0.end_batch(lr, reg)
        }
    }

    /// `n_users` users with a few positives each on an `n_items` catalog.
    fn small_train(n_users: u32, n_items: u32) -> Interactions {
        let pairs: Vec<(u32, u32)> = (0..n_users)
            .flat_map(|u| (0..4u32).map(move |t| (u, (u * 37 + t * 101) % n_items)))
            .collect();
        Interactions::from_pairs(n_users, n_items, &pairs).unwrap()
    }

    /// A fresh coding of the sample's current item rows.
    fn fresh_copy(model: &MatrixFactorization, sample: &[u32]) -> CodedRows {
        let mut fresh = CodedRows::new();
        fresh.rebuild(model.dim(), sample.iter().map(|&i| model.item_embedding(i)));
        fresh
    }

    #[test]
    fn coded_copy_is_exactly_fresh_after_every_model_call() {
        let (n_users, n_items) = (6u32, 300u32);
        let train = small_train(n_users, n_items);
        let strategy = EcdfStrategy::Subsample(120);
        let mut rng = StdRng::seed_from_u64(21);
        let mut model = MatrixFactorization::new(n_users, n_items, 13, 0.3, &mut rng).unwrap();
        let mut scratch = EcdfScratch::default();
        scratch.draw_sample(strategy, n_items, &mut rng);
        let thresholds = [-0.05f32, 0.0, 0.02];
        let (mut counts, mut gathered) = (Vec::new(), Vec::new());
        // One pass per model call: the copy must equal a fresh coding bit
        // for bit, from one full build plus per-call row refreshes.
        let mut pass = |model: &MatrixFactorization, scratch: &mut EcdfScratch, u: u32| {
            let scanned = fused_ecdf_counts(
                strategy,
                model,
                &train,
                u,
                &thresholds,
                &mut counts,
                scratch,
            );
            let reference = fused_ecdf_counts(
                strategy,
                &Hidden(model),
                &train,
                u,
                &thresholds,
                &mut gathered,
                &mut EcdfScratch {
                    sample: scratch.sample.clone(),
                    ..EcdfScratch::default()
                },
            );
            assert_eq!((scanned, &counts), (reference, &gathered));
            assert_eq!(scratch.coded.rows, fresh_copy(model, &scratch.sample));
        };
        pass(&model, &mut scratch, 0);
        assert_eq!(scratch.coded.builds, 1);
        let mut batch = TripleBatch::new();
        let mut infos = Vec::new();
        for step in 0..300u32 {
            let u = rng.random_range(0..n_users);
            // Draw positives and negatives from the sample half the time,
            // so refreshed rows are often sampled ones.
            let item = |rng: &mut StdRng| {
                if rng.random_range(0..2) == 0 {
                    scratch.sample[rng.random_range(0..scratch.sample.len())]
                } else {
                    rng.random_range(0..n_items)
                }
            };
            if step % 5 == 0 {
                let (pos, neg) = (item(&mut rng), item(&mut rng));
                if pos != neg {
                    model.accumulate_triple(u, pos, neg, 0.5, 0.01);
                }
            } else {
                let k = rng.random_range(1..4usize);
                batch.begin_fill(k);
                for _ in 0..rng.random_range(1..5) {
                    let pos = item(&mut rng);
                    let negs: Vec<u32> = (0..k)
                        .map(|_| loop {
                            let j = item(&mut rng);
                            if j != pos {
                                break j;
                            }
                        })
                        .collect();
                    batch
                        .push_row(rng.random_range(0..n_users), pos)
                        .copy_from_slice(&negs);
                }
                model.update_batch(&batch, 0.5, 0.01, &mut infos);
            }
            pass(&model, &mut scratch, u);
        }
        assert_eq!(scratch.coded.builds, 1, "every call was one write behind");

        // Sequences the write record cannot cover force a rebuild: two
        // writes between passes, a clone that then diverges, and a
        // redrawn sample.
        let s = scratch.sample.clone();
        model.accumulate_triple(0, s[0], s[1], 0.5, 0.01);
        model.accumulate_triple(1, s[2], s[3], 0.5, 0.01);
        pass(&model, &mut scratch, 2);
        assert_eq!(scratch.coded.builds, 2);
        let mut twin = model.clone();
        twin.accumulate_triple(3, s[4], s[5], 0.5, 0.01);
        pass(&twin, &mut scratch, 3);
        assert_eq!(scratch.coded.builds, 3);
        model.accumulate_triple(4, s[6], s[7], 0.5, 0.01);
        pass(&model, &mut scratch, 4);
        assert_eq!(scratch.coded.builds, 4);
        model.infonce_update(5, s[8], &[s[9], s[10]], 0.5, 0.01, 0.5);
        pass(&model, &mut scratch, 5);
        assert_eq!(scratch.coded.builds, 4, "InfoNCE writes are recorded");
        scratch.draw_sample(strategy, n_items, &mut rng);
        pass(&model, &mut scratch, 0);
        assert_eq!(scratch.coded.builds, 5);
    }

    #[test]
    fn ecdf_counters_sum_each_draws_scanned_rows() {
        let (n_users, n_items) = (8u32, 400u32);
        let train = small_train(n_users, n_items);
        let pop = Popularity::from_interactions(&train);
        let mut rng = StdRng::seed_from_u64(22);
        let model = MatrixFactorization::new(n_users, n_items, 8, 0.3, &mut rng).unwrap();
        let cfg = BnsConfig {
            ecdf: EcdfStrategy::Subsample(150),
            ..BnsConfig::default()
        };
        let hidden = Hidden(&model);
        for scorer in [&model as &dyn Scorer, &hidden] {
            let ctx = SampleContext {
                scorer,
                train: &train,
                popularity: &pop,
                user_scores: &[],
                epoch: 0,
            };
            let mut s = BnsSampler::new(cfg, Box::new(PopularityPrior::new(&pop))).unwrap();
            s.on_epoch_start(0);
            let mut expected = 0u64;
            for (u, pos) in train.iter_pairs() {
                s.sample(u, pos, &ctx, &mut rng).unwrap();
                let sample = &s.ecdf_scratch.sample;
                let scanned = sample.iter().filter(|&&i| !train.contains(u, i)).count();
                expected += scanned as u64;
            }
            let stats = s.take_epoch_stats().unwrap();
            assert_eq!(stats.draws, train.len() as u64);
            assert_eq!(stats.ecdf_rows, expected);
            assert!(stats.ecdf_rescored <= stats.ecdf_rows);
            if scorer.row_tables().is_none() {
                assert_eq!(
                    stats.ecdf_rescored, stats.ecdf_rows,
                    "the gather scores all"
                );
            } else {
                assert!(stats.ecdf_rescored < stats.ecdf_rows / 4, "{stats:?}");
            }
            let next = s.take_epoch_stats().unwrap();
            assert_eq!((next.ecdf_rows, next.ecdf_rescored), (0, 0));
        }
    }

    /// Every triple and info value of a run, and its stats.
    #[derive(Default)]
    struct Trace(Vec<(usize, u32, u32, u32, u32)>);

    impl crate::TrainObserver for Trace {
        fn on_triple(&mut self, epoch: usize, u: u32, pos: u32, neg: u32, info: f32) {
            self.0.push((epoch, u, pos, neg, info.to_bits()));
        }
        fn on_epoch_end(&mut self, _: usize, _: &dyn Scorer) {}
    }

    /// Trains clones of `model` with BNS at `Subsample(64)` on the coded
    /// pass and behind [`Hidden`] (every Eq. 16 pass gathers), asserts that
    /// both runs give the same triples, stats and tables, and returns the
    /// coded run's full rebuilds of its copy.
    fn coded_run_is_the_gather_run<M: PairwiseModel + Clone>(
        model: &M,
        dataset: &bns_data::Dataset,
        config: &crate::TrainConfig,
    ) -> u64 {
        let run = |hide: bool| {
            let cfg = BnsConfig {
                ecdf: EcdfStrategy::Subsample(64),
                ..BnsConfig::default()
            };
            let prior = Box::new(PopularityPrior::new(dataset.popularity()));
            let mut sampler = BnsSampler::new(cfg, prior).unwrap();
            let (mut model, mut trace) = (model.clone(), Trace::default());
            let mut stats = if hide {
                let mut hidden = Hidden(&mut model);
                crate::train(&mut hidden, dataset, &mut sampler, config, &mut trace)
            } else {
                crate::train(&mut model, dataset, &mut sampler, config, &mut trace)
            }
            .unwrap();
            stats.wall_seconds = 0.0;
            let rescored: Vec<u64> = (stats.posterior_per_epoch.iter_mut())
                .map(|p| std::mem::take(&mut p.ecdf_rescored))
                .collect();
            let builds = sampler.ecdf_scratch.coded.builds;
            (trace.0, stats, rescored, model, builds)
        };
        let (coded, coded_stats, a, coded_model, builds) = run(false);
        let (gather, gather_stats, b, gather_model, _) = run(true);
        assert!(coded.len() >= 3 * 90, "{} triples", coded.len());
        assert_eq!(coded, gather);
        assert!(a.iter().zip(&b).all(|(a, b)| a < b), "{a:?} vs {b:?}");
        assert_eq!(coded_stats, gather_stats);
        let (a, b) = (coded_model.row_tables(), gather_model.row_tables());
        let (a, b) = (a.expect("trained rows"), b.expect("trained rows"));
        assert_eq!((a.users, a.items), (b.users, b.items));
        builds
    }

    #[test]
    fn training_on_the_coded_pass_is_the_gather_trace() {
        let (n_users, n_items) = (24u32, 500u32);
        let dataset = bns_data::Dataset::new(
            "coded-trace",
            small_train(n_users, n_items),
            Interactions::from_pairs(n_users, n_items, &[(0, 7), (5, 9)]).unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mf = MatrixFactorization::new(n_users, n_items, 16, 0.1, &mut rng).unwrap();
        let batched = crate::TrainConfig {
            batch_size: 8,
            k_negatives: 2,
            ..crate::TrainConfig::paper_mf(3, 5)
        };
        // MF records every write, so its copy is rebuilt only when each
        // epoch redraws the sample.
        for config in [crate::TrainConfig::paper_mf(3, 4), batched] {
            assert_eq!(coded_run_is_the_gather_run(&mf, &dataset, &config), 3);
        }
        // LightGCN rewrites its whole table at every batch's refresh, so
        // every batch after the first of an epoch rebuilds the copy too.
        let gcn = LightGcn::new(dataset.train(), 16, 1, 0.1, &mut rng).unwrap();
        let config = crate::TrainConfig::paper_lightgcn(3, 8, 6);
        let batches = dataset.train().len().div_ceil(8) as u64;
        let builds = coded_run_is_the_gather_run(&gcn, &dataset, &config);
        assert_eq!(builds, 3 * batches);
    }
}
