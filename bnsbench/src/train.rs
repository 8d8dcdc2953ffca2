//! The training workloads: dataset → `train()` → NDCG@20.
//!
//! One *job* is what a user of the trainer waits for: a fresh MF model
//! trained by the serial, bit-exact `bns_core::train` in the paper's MF
//! setup (batch 1, k = 1, lr 0.01), then ranked by
//! `bns_eval::evaluate_ranking`. A run repeats jobs on one generated
//! dataset until its time is up and reports means over the jobs.
//!
//! The traced run wraps the sampler and the model in [`TimedSampler`] and
//! [`TimedModel`], delegating wrappers that forward every trait method and
//! time the calls the trainer makes into each layer.

use crate::report::{self, CallTimer, Metrics, Span, Summary};
use bns_core::bns::prior::PopularityPrior;
use bns_core::rns::Rns;
use bns_core::{
    train, BnsConfig, BnsSampler, NegativeSampler, NoopObserver, PosteriorStats, SampleContext,
    ScoreAccess, TrainConfig,
};
use bns_data::synthetic::{generate, popularity_logits, SyntheticConfig, SyntheticDataset};
use bns_data::{split_random, Dataset, SplitConfig};
use bns_eval::evaluate_ranking;
use bns_model::{Embedding, MatrixFactorization, PairwiseModel, Scorer, TripleBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Embedding dimension of every trained model.
const DIM: usize = 32;
/// NDCG / Recall cutoff.
const CUTOFF: usize = 20;
/// Data set-ups per run; `setup_s` is their median. A set-up takes
/// 0.05–0.15 s, short enough for the host's scheduling noise to be a
/// visible share of one, so the median is taken over many.
const SETUP_REPEATS: usize = 9;
/// Threads `evaluate_ranking` gets. One: on a 2-core host a second thread
/// made evaluation no faster, only more variable from run to run.
const EVAL_THREADS: usize = 1;
/// Fewest untraced jobs per untraced run, however short `--seconds` is.
const MIN_JOBS: usize = 2;

/// Which negative sampler a workload trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// BNS at the paper defaults (|Mᵤ| = 5, λ = 5, exact Eq. 16 ECDF,
    /// Eq. 17 popularity prior).
    Bns,
    /// Uniform random negatives.
    Rns,
}

/// The shape of one training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub n_users: u32,
    pub n_items: u32,
    /// Target interactions per user before the split.
    pub per_user: usize,
    pub epochs: usize,
    pub sampler: SamplerKind,
    /// The traced run times one in this many sampler / model calls.
    pub trace_every: u64,
}

/// `train-bns`: a 100k-item catalog, about 5× the DKW sample size of the
/// bounded-ECDF item, with few pairs per user so one epoch takes seconds.
/// The exact Eq. 16 pass in `sample_batch` dominates.
pub const TRAIN_BNS: TrainSpec = TrainSpec {
    n_users: 300,
    n_items: 100_000,
    per_user: 6,
    epochs: 1,
    sampler: SamplerKind::Bns,
    trace_every: 1,
};

/// `train-rns`: a denser paper-scale catalog (10k items) with uniform
/// negatives; sampling is nearly free, so updates and evaluation dominate.
pub const TRAIN_RNS: TrainSpec = TrainSpec {
    n_users: 2_000,
    n_items: 10_000,
    per_user: 40,
    epochs: 3,
    sampler: SamplerKind::Rns,
    trace_every: 16,
};

/// The generator's planted utility `β_lat·⟨w_u, h_i⟩ + β_pop·pop_logitᵢ`
/// written into the first `width` embedding dimensions: user rows hold
/// `(β_lat·w_u, β_pop)`, item rows `(h_i, pop_logitᵢ)`. At 100k items one
/// epoch of a randomly initialised model still ranks at chance, so a job
/// that starts here measures one epoch of fine-tuning a model that already
/// ranks, and its NDCG is a steady number rather than noise around zero.
pub struct Planted {
    width: usize,
    users: Vec<f32>,
    items: Vec<f32>,
}

impl Planted {
    fn new(synthetic: &SyntheticDataset) -> Self {
        let cfg = &synthetic.config;
        let d = cfg.latent_dim;
        let width = d + 1;
        let mut users = Vec::with_capacity(cfg.n_users as usize * width);
        for w in synthetic.user_factors.chunks_exact(d) {
            users.extend(w.iter().map(|&x| x * cfg.latent_weight as f32));
            users.push(cfg.popularity_weight as f32);
        }
        let logits = popularity_logits(cfg);
        let mut items = Vec::with_capacity(cfg.n_items as usize * width);
        for (h, &logit) in synthetic.item_factors.chunks_exact(d).zip(&logits) {
            items.extend_from_slice(h);
            items.push(logit as f32);
        }
        Self {
            width,
            users,
            items,
        }
    }

    /// A random model (the usual init) with the planted utility laid over
    /// its leading dimensions.
    fn model(&self, n_users: u32, n_items: u32, rng: &mut StdRng) -> MatrixFactorization {
        let w = self.width;
        let mut users =
            Embedding::normal_init(n_users as usize, DIM, 0.1, rng).expect("user table");
        let mut items =
            Embedding::normal_init(n_items as usize, DIM, 0.1, rng).expect("item table");
        for (u, planted) in self.users.chunks_exact(w).enumerate() {
            users.row_mut(u)[..w].copy_from_slice(planted);
        }
        for (i, planted) in self.items.chunks_exact(w).enumerate() {
            items.row_mut(i)[..w].copy_from_slice(planted);
        }
        MatrixFactorization::from_embeddings(users, items).expect("valid model shape")
    }
}

/// The generated input of a training run.
pub struct TrainInput {
    pub dataset: Dataset,
    pub planted: Planted,
    pub generate_s: f64,
    pub split_s: f64,
    /// FNV-1a digest of the train and test CSR arrays.
    pub digest: u64,
}

/// Seed of each training workload's dataset: the planted preferences,
/// popularity, per-user activity and the train/test split. The dataset is
/// part of the workload's definition; `--seed` draws the training run's
/// randomness (the model's random dimensions, the pair order and every
/// negative). With a seeded dataset, NDCG@20 moved ±5% from seed to seed
/// with the code unchanged.
const DATA_SEED: u64 = 47;

/// Generates and splits the workload's dataset.
pub fn make_input(spec: &TrainSpec) -> TrainInput {
    let cfg = SyntheticConfig {
        n_users: spec.n_users,
        n_items: spec.n_items,
        target_interactions: spec.n_users as usize * spec.per_user,
        seed: DATA_SEED,
        ..SyntheticConfig::default()
    };
    let t0 = Instant::now();
    let synthetic = generate(&cfg).expect("valid workload config");
    let planted = Planted::new(&synthetic);
    let all = synthetic.interactions;
    let t1 = Instant::now();
    let mut rng = StdRng::seed_from_u64(DATA_SEED ^ 0x5EED_5917);
    let (train_set, test_set) =
        split_random(&all, SplitConfig::default(), &mut rng).expect("workload split");
    let dataset = Dataset::new("bench", train_set, test_set).expect("valid workload dataset");
    let t2 = Instant::now();
    TrainInput {
        digest: dataset_digest(&dataset),
        dataset,
        planted,
        generate_s: (t1 - t0).as_secs_f64(),
        split_s: (t2 - t1).as_secs_f64(),
    }
}

/// FNV-1a over the train and test CSR offsets and item ids.
pub fn dataset_digest(dataset: &Dataset) -> u64 {
    let mut bytes = Vec::new();
    for part in [dataset.train(), dataset.test()] {
        let (n_users, n_items, offsets, items) = part.csr_parts();
        bytes.extend_from_slice(&n_users.to_le_bytes());
        bytes.extend_from_slice(&n_items.to_le_bytes());
        for &v in offsets.iter().chain(items) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bns_serve::artifact::fnv1a64(&bytes)
}

fn make_sampler(kind: SamplerKind, dataset: &Dataset) -> Box<dyn NegativeSampler> {
    match kind {
        SamplerKind::Bns => Box::new(
            BnsSampler::new(
                BnsConfig::default(),
                Box::new(PopularityPrior::new(dataset.popularity())),
            )
            .expect("paper-default BNS config"),
        ),
        SamplerKind::Rns => Box::new(Rns),
    }
}

/// A [`NegativeSampler`] that forwards every method to `inner` and times
/// `sample_batch` (one call in `every`) plus each epoch.
pub struct TimedSampler {
    inner: Box<dyn NegativeSampler>,
    pub timer: CallTimer,
    pub draws: u64,
    epoch: u64,
    epoch_start: Option<Instant>,
    origin: Instant,
    pub epoch_spans: Vec<Span>,
}

impl TimedSampler {
    pub fn new(inner: Box<dyn NegativeSampler>, origin: Instant, every: u64) -> Self {
        Self {
            inner,
            timer: CallTimer::new(origin, every),
            draws: 0,
            epoch: 0,
            epoch_start: None,
            origin,
            epoch_spans: Vec::new(),
        }
    }
}

impl NegativeSampler for TimedSampler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample(
        &mut self,
        u: u32,
        pos: u32,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Option<u32> {
        self.inner.sample(u, pos, ctx, rng)
    }

    fn sample_batch(
        &mut self,
        pairs: &[(u32, u32)],
        k: usize,
        ctx: &SampleContext<'_>,
        rng: &mut dyn rand::RngCore,
        out: &mut TripleBatch,
    ) {
        let inner = &mut self.inner;
        self.timer.time("sample_batch", self.epoch, || {
            inner.sample_batch(pairs, k, ctx, rng, out);
        });
        self.draws += out.n_triples() as u64;
    }

    fn score_access(&self) -> ScoreAccess {
        self.inner.score_access()
    }

    fn on_epoch_start(&mut self, epoch: usize) {
        self.epoch = epoch as u64;
        self.epoch_start = Some(Instant::now());
        self.inner.on_epoch_start(epoch);
    }

    fn take_epoch_stats(&mut self) -> Option<PosteriorStats> {
        // The trainer drains the stats once per epoch, after its last batch.
        if let Some(start) = self.epoch_start.take() {
            self.epoch_spans.push(Span {
                name: "epoch",
                parent: "train",
                id: self.epoch,
                start_ns: report::ns_between(self.origin, start),
                end_ns: report::ns_between(self.origin, Instant::now()),
            });
        }
        self.inner.take_epoch_stats()
    }
}

/// A [`PairwiseModel`] that forwards every method to `inner` and times
/// `update_batch` (one call in `every`).
pub struct TimedModel<M> {
    pub inner: M,
    pub timer: CallTimer,
    epoch: u64,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M, origin: Instant, every: u64) -> Self {
        Self {
            inner,
            timer: CallTimer::new(origin, every),
            epoch: 0,
        }
    }
}

impl<M: Scorer> Scorer for TimedModel<M> {
    fn n_users(&self) -> u32 {
        self.inner.n_users()
    }

    fn n_items(&self) -> u32 {
        self.inner.n_items()
    }

    fn score(&self, u: u32, i: u32) -> f32 {
        self.inner.score(u, i)
    }

    fn score_all(&self, u: u32, out: &mut [f32]) {
        self.inner.score_all(u, out);
    }

    fn score_items(&self, u: u32, items: &[u32], out: &mut [f32]) {
        self.inner.score_items(u, items, out);
    }
}

impl<M: PairwiseModel> PairwiseModel for TimedModel<M> {
    fn begin_epoch(&mut self, epoch: usize) {
        self.epoch = epoch as u64;
        self.inner.begin_epoch(epoch);
    }

    fn begin_batch(&mut self) {
        self.inner.begin_batch();
    }

    fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, lr: f32, reg: f32) -> f32 {
        self.inner.accumulate_triple(u, pos, neg, lr, reg)
    }

    fn update_batch(&mut self, batch: &TripleBatch, lr: f32, reg: f32, infos: &mut Vec<f32>) {
        let inner = &mut self.inner;
        self.timer.time("update_batch", self.epoch, || {
            inner.update_batch(batch, lr, reg, infos);
        });
    }

    fn end_batch(&mut self, lr: f32, reg: f32) {
        self.inner.end_batch(lr, reg);
    }

    fn mean_bpr_ll(&self, triples: &[(u32, u32, u32)]) -> f64 {
        self.inner.mean_bpr_ll(triples)
    }
}

/// What one dataset → NDCG job measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Job {
    /// Model init + training + ranking evaluation.
    pub time_to_ndcg_s: f64,
    pub init_s: f64,
    pub train_s: f64,
    pub eval_s: f64,
    pub ndcg: f64,
    pub recall: f64,
    pub triples: usize,
    pub skipped: usize,
    pub eval_users: usize,
    /// Traced jobs only: estimated seconds in `sample_batch` and
    /// `update_batch`, and negatives drawn.
    pub sample_s: f64,
    pub update_s: f64,
    pub draws: u64,
}

/// Runs one job; with `trace = Some((origin, job_id, spans))` the sampler
/// and model are wrapped and every span lands in `spans`.
pub fn run_job(
    spec: &TrainSpec,
    input: &TrainInput,
    seed: u64,
    trace: Option<(Instant, u64, &mut Vec<Span>)>,
) -> Job {
    let dataset = &input.dataset;
    let config = TrainConfig::paper_mf(spec.epochs, seed ^ 0x7EA1);
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x30DE1);
    let model = input
        .planted
        .model(dataset.n_users(), dataset.n_items(), &mut rng);
    let sampler = make_sampler(spec.sampler, dataset);
    let t1 = Instant::now();
    let mut job = Job::default();
    let (ranking, t2, t3) = match trace {
        None => {
            let mut model = model;
            let mut sampler = sampler;
            let stats = train(
                &mut model,
                dataset,
                sampler.as_mut(),
                &config,
                &mut NoopObserver,
            )
            .expect("valid training config");
            let t2 = Instant::now();
            job.triples = stats.triples;
            job.skipped = stats.skipped;
            let ranking = evaluate_ranking(&model, dataset, &[CUTOFF], EVAL_THREADS);
            (ranking, t2, Instant::now())
        }
        Some((origin, job_id, spans)) => {
            let mut model = TimedModel::new(model, origin, spec.trace_every);
            let mut sampler = TimedSampler::new(sampler, origin, spec.trace_every);
            let stats = train(
                &mut model,
                dataset,
                &mut sampler,
                &config,
                &mut NoopObserver,
            )
            .expect("valid training config");
            let t2 = Instant::now();
            let ranking = evaluate_ranking(&model, dataset, &[CUTOFF], EVAL_THREADS);
            let t3 = Instant::now();
            job.triples = stats.triples;
            job.skipped = stats.skipped;
            job.sample_s = sampler.timer.estimated_s();
            job.update_s = model.timer.estimated_s();
            job.draws = sampler.draws;
            let span = |name, start, end| Span {
                name,
                parent: "job",
                id: job_id,
                start_ns: report::ns_between(origin, start),
                end_ns: report::ns_between(origin, end),
            };
            spans.push(span("model_init", t0, t1));
            spans.push(span("train", t1, t2));
            spans.push(span("evaluate_ranking", t2, t3));
            spans.append(&mut sampler.epoch_spans);
            spans.append(&mut sampler.timer.spans);
            spans.append(&mut model.timer.spans);
            (ranking, t2, t3)
        }
    };
    let row = ranking.at(CUTOFF).expect("cutoff requested");
    job.ndcg = row.ndcg;
    job.recall = row.recall;
    job.eval_users = ranking.n_users;
    job.init_s = (t1 - t0).as_secs_f64();
    job.train_s = (t2 - t1).as_secs_f64();
    job.eval_s = (t3 - t2).as_secs_f64();
    job.time_to_ndcg_s = (t3 - t0).as_secs_f64();
    job
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

/// Runs a training workload for `seconds` and collects its metrics.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut notes = Vec::new();
    let mut correct = true;

    // Set-up: generate and split the dataset several times; every repeat
    // must give the same digest. Only the first is kept.
    let input = make_input(spec);
    let (mut generate, mut split) = (vec![input.generate_s], vec![input.split_s]);
    for _ in 1..SETUP_REPEATS {
        let again = make_input(spec);
        if again.digest != input.digest {
            correct = false;
            notes.push("CHECK FAILED: set-up repeats produced different datasets".into());
        }
        generate.push(again.generate_s);
        split.push(again.split_s);
    }
    let setup: Vec<f64> = generate.iter().zip(&split).map(|(g, s)| g + s).collect();
    let dataset = &input.dataset;
    notes.push(format!(
        "dataset: {} users x {} items, {} train / {} test pairs, digest {:016x}",
        dataset.n_users(),
        dataset.n_items(),
        dataset.train().len(),
        dataset.test().len(),
        input.digest
    ));

    let origin = Instant::now();
    let started = Instant::now();
    let mut plain: Vec<Job> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    loop {
        plain.push(run_job(spec, &input, seed, None));
        if trace {
            let id = traced.len() as u64;
            traced.push(run_job(spec, &input, seed, Some((origin, id, &mut spans))));
        }
        let enough = trace || plain.len() >= MIN_JOBS;
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Every job trains the same model from the same seed, traced or not:
    // the NDCG bits must agree.
    let ndcg_bits = plain[0].ndcg.to_bits();
    if plain
        .iter()
        .chain(&traced)
        .any(|j| j.ndcg.to_bits() != ndcg_bits)
    {
        correct = false;
        notes.push("CHECK FAILED: NDCG@20 bits differ between jobs (traced vs untraced)".into());
    }
    if plain[0].ndcg <= 0.0 {
        correct = false;
        notes.push("CHECK FAILED: NDCG@20 is zero".into());
    }

    let sum = |jobs: &[Job], f: fn(&Job) -> f64| -> f64 { jobs.iter().map(f).sum() };
    let mut m = Metrics::default();
    if !trace {
        let e2e = Summary::of(
            &plain
                .iter()
                .map(|j| j.time_to_ndcg_s * 1e3)
                .collect::<Vec<_>>(),
        );
        notes.push(format!(
            "time_to_ndcg over {} jobs: p50 {:.1} ms, p99 {:.1} ms ({} beyond p99); jobs (ms): {:?}",
            e2e.n,
            e2e.p50,
            e2e.p99,
            e2e.beyond_p99,
            plain.iter().map(|j| (j.time_to_ndcg_s * 1e3).round()).collect::<Vec<_>>()
        ));
        m.put("setup_s", report::median(&setup));
        m.put("peak_rss_mb", report::peak_rss_mb());
        // Means, not medians: the host alternates between fast and slow
        // phases of a few seconds, and a median over jobs jumps between
        // the two while a mean moves with the mix.
        m.put(
            "latency_mean_ms",
            sum(&plain, |j| j.time_to_ndcg_s) * 1e3 / plain.len() as f64,
        );
        m.put(
            "throughput_per_s",
            sum(&plain, |j| j.triples as f64) / sum(&plain, |j| j.train_s),
        );
        m.put("ndcg", plain[0].ndcg);
        m.put("recall", plain[0].recall);
    } else {
        // The additive split uses means, so the parts sum to the mean.
        let mean =
            |f: fn(&Job) -> f64| -> f64 { traced.iter().map(f).sum::<f64>() / traced.len() as f64 };
        let e2e = mean(|j| j.time_to_ndcg_s);
        let sample_s = mean(|j| j.sample_s);
        let update_s = mean(|j| j.update_s);
        let train_s = mean(|j| j.train_s);
        let init_s = mean(|j| j.init_s);
        let eval_s = mean(|j| j.eval_s);
        let other_s = train_s - sample_s - update_s;
        let draws = traced[0].draws as f64;
        m.put("bns_data.generate_s", report::median(&generate));
        m.put("bns_data.split_s", report::median(&split));
        m.put("bns_core.sample_batch_s", sample_s);
        m.put("bns_core.sample_share", sample_s / e2e);
        m.put("bns_core.draws", draws);
        m.put("bns_core.draws_per_s", draws / sample_s.max(1e-12));
        m.put("bns_core.skipped", traced[0].skipped as f64);
        m.put("bns_core.trainer_other_s", other_s);
        m.put("bns_model.init_s", init_s);
        m.put("bns_model.update_batch_s", update_s);
        m.put("bns_model.update_share", update_s / e2e);
        m.put("bns_model.triples", traced[0].triples as f64);
        m.put("bns_eval.ranking_s", eval_s);
        m.put("bns_eval.share", eval_s / e2e);
        m.put(
            "bns_eval.items_scored_per_s",
            traced[0].eval_users as f64 * f64::from(dataset.n_items()) / eval_s.max(1e-12),
        );
        m.put("trace.time_to_ndcg_s", e2e);
        m.put(
            "trace.overhead_frac",
            e2e / (plain.iter().map(|j| j.time_to_ndcg_s).sum::<f64>() / plain.len() as f64) - 1.0,
        );
        m.put("trace.sample_every", spec.trace_every as f64);
    }
    let jobs = (plain.len() + traced.len()) as u64;
    Outcome {
        metrics: m,
        correct,
        attempted: jobs,
        failed: 0,
        spans,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: TrainSpec = TrainSpec {
        n_users: 40,
        n_items: 300,
        per_user: 12,
        epochs: 2,
        sampler: SamplerKind::Bns,
        trace_every: 3,
    };

    /// Final scores of every (user, item) plus NDCG, as bits.
    fn fingerprint(spec: &TrainSpec, traced: bool) -> (Vec<u32>, u64) {
        let input = make_input(spec);
        let dataset = &input.dataset;
        let config = TrainConfig::paper_mf(spec.epochs, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut model =
            MatrixFactorization::new(dataset.n_users(), dataset.n_items(), 8, 0.1, &mut rng)
                .unwrap();
        let sampler = make_sampler(spec.sampler, dataset);
        if traced {
            let origin = Instant::now();
            let mut wrapped = TimedModel::new(model, origin, spec.trace_every);
            let mut sampler = TimedSampler::new(sampler, origin, spec.trace_every);
            train(
                &mut wrapped,
                dataset,
                &mut sampler,
                &config,
                &mut NoopObserver,
            )
            .unwrap();
            assert!(sampler.timer.calls > 0 && wrapped.timer.calls > 0);
            assert_eq!(sampler.epoch_spans.len(), spec.epochs);
            model = wrapped.inner;
        } else {
            let mut sampler = sampler;
            train(
                &mut model,
                dataset,
                sampler.as_mut(),
                &config,
                &mut NoopObserver,
            )
            .unwrap();
        }
        let mut scores = vec![0f32; dataset.n_items() as usize];
        let mut bits = Vec::new();
        for u in 0..dataset.n_users() {
            model.score_all(u, &mut scores);
            bits.extend(scores.iter().map(|s| s.to_bits()));
        }
        let ndcg = evaluate_ranking(&model, dataset, &[CUTOFF], 1).rows[0].ndcg;
        (bits, ndcg.to_bits())
    }

    #[test]
    fn wrapped_training_is_bit_identical_for_bns_and_rns() {
        for sampler in [SamplerKind::Bns, SamplerKind::Rns] {
            let spec = TrainSpec { sampler, ..TINY };
            assert_eq!(
                fingerprint(&spec, false),
                fingerprint(&spec, true),
                "{sampler:?}: the timing wrappers changed the training trace"
            );
        }
    }

    #[test]
    fn the_dataset_is_deterministic() {
        assert_eq!(make_input(&TINY).digest, make_input(&TINY).digest);
    }
}
