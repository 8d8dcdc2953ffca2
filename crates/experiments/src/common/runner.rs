//! Glue: dataset preparation, model construction, train-and-eval plumbing.
//!
//! Every run, observer-free (the table binaries' bulk training) or
//! observer-driven (the figure binaries' TNR/INF and score-distribution
//! probes), trains on the serial, bit-exact [`bns_core::train`].

use crate::common::config::{ModelKind, RunConfig};
use bns_core::{
    build_sampler, train, NegativeSampler, NoopObserver, SamplerConfig, TrainConfig, TrainObserver,
    TrainStats,
};
use bns_data::synthetic::generate;
use bns_data::{split_random, Dataset, DatasetPreset, Occupations, SplitConfig};
use bns_eval::{evaluate_ranking, RankingReport};
use bns_model::snapshot::{SnapshotKind, SnapshotScorer};
use bns_model::{LightGcn, MatrixFactorization, PairwiseModel, RowTables, Scorer};
use bns_serve::ModelArtifact;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated dataset plus its side information.
pub struct PreparedDataset {
    /// The train/test dataset.
    pub dataset: Dataset,
    /// Synthetic occupation labels (for the BNS-4 prior).
    pub occupations: Occupations,
}

/// Generates the synthetic stand-in for `preset` at the configured scale
/// and splits it 80/20 (the paper's protocol).
pub fn prepare_dataset(preset: DatasetPreset, cfg: &RunConfig) -> PreparedDataset {
    let gen_cfg = preset.config(cfg.dataset_scale(), cfg.seed);
    let synthetic = generate(&gen_cfg).expect("valid preset config");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5711);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng)
            .expect("split of non-empty dataset");
    let dataset = Dataset::new(
        format!("{} (synthetic, scale {:.2})", preset.name(), cfg.scale),
        train_set,
        test_set,
    )
    .expect("split produces disjoint train/test");
    PreparedDataset {
        dataset,
        occupations: synthetic.occupations,
    }
}

/// Either of the paper's two CF models behind one concrete type, so the
/// generic trainer can be driven from runtime configuration.
pub enum AnyModel {
    /// BPR matrix factorization.
    Mf(MatrixFactorization),
    /// LightGCN.
    Gcn(LightGcn),
}

impl AnyModel {
    /// Builds the model for `kind` with the paper's hyperparameters.
    pub fn build(kind: ModelKind, dataset: &Dataset, cfg: &RunConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6d0de1);
        match kind {
            ModelKind::Mf => AnyModel::Mf(
                MatrixFactorization::new(
                    dataset.n_users(),
                    dataset.n_items(),
                    cfg.dim,
                    cfg.init_std,
                    &mut rng,
                )
                .expect("valid MF config"),
            ),
            ModelKind::LightGcn => AnyModel::Gcn(
                LightGcn::new(
                    dataset.train(),
                    cfg.dim,
                    cfg.gcn_layers,
                    cfg.init_std,
                    &mut rng,
                )
                .expect("valid LightGCN config"),
            ),
        }
    }
}

impl Scorer for AnyModel {
    fn n_users(&self) -> u32 {
        match self {
            AnyModel::Mf(m) => m.n_users(),
            AnyModel::Gcn(m) => m.n_users(),
        }
    }

    fn n_items(&self) -> u32 {
        match self {
            AnyModel::Mf(m) => m.n_items(),
            AnyModel::Gcn(m) => m.n_items(),
        }
    }

    fn score(&self, u: u32, i: u32) -> f32 {
        match self {
            AnyModel::Mf(m) => m.score(u, i),
            AnyModel::Gcn(m) => m.score(u, i),
        }
    }

    fn row_tables(&self) -> Option<RowTables<'_>> {
        match self {
            AnyModel::Mf(m) => m.row_tables(),
            AnyModel::Gcn(m) => m.row_tables(),
        }
    }
}

impl SnapshotScorer for AnyModel {
    fn snapshot_kind(&self) -> SnapshotKind {
        match self {
            AnyModel::Mf(m) => m.snapshot_kind(),
            AnyModel::Gcn(m) => m.snapshot_kind(),
        }
    }
}

impl PairwiseModel for AnyModel {
    fn begin_epoch(&mut self, epoch: usize) {
        match self {
            AnyModel::Mf(m) => m.begin_epoch(epoch),
            AnyModel::Gcn(m) => m.begin_epoch(epoch),
        }
    }

    fn begin_batch(&mut self) {
        match self {
            AnyModel::Mf(m) => m.begin_batch(),
            AnyModel::Gcn(m) => m.begin_batch(),
        }
    }

    fn accumulate_triple(&mut self, u: u32, pos: u32, neg: u32, lr: f32, reg: f32) -> f32 {
        match self {
            AnyModel::Mf(m) => m.accumulate_triple(u, pos, neg, lr, reg),
            AnyModel::Gcn(m) => m.accumulate_triple(u, pos, neg, lr, reg),
        }
    }

    fn update_batch(
        &mut self,
        batch: &bns_model::TripleBatch,
        lr: f32,
        reg: f32,
        infos: &mut Vec<f32>,
    ) {
        // Forward explicitly so MF keeps its blocked group-update path (the
        // trait default would silently fall back to per-triple loops).
        match self {
            AnyModel::Mf(m) => m.update_batch(batch, lr, reg, infos),
            AnyModel::Gcn(m) => m.update_batch(batch, lr, reg, infos),
        }
    }

    fn end_batch(&mut self, lr: f32, reg: f32) {
        match self {
            AnyModel::Mf(m) => m.end_batch(lr, reg),
            AnyModel::Gcn(m) => m.end_batch(lr, reg),
        }
    }
}

/// The paper's [`TrainConfig`] for a model kind / dataset / run config.
pub fn paper_train_config(kind: ModelKind, preset: DatasetPreset, cfg: &RunConfig) -> TrainConfig {
    let base = match kind {
        ModelKind::Mf => TrainConfig::paper_mf(cfg.epochs, cfg.seed),
        ModelKind::LightGcn => {
            TrainConfig::paper_lightgcn(cfg.epochs, kind.paper_batch_size(preset), cfg.seed)
        }
    };
    TrainConfig {
        k_negatives: cfg.k_negatives,
        ..base
    }
}

/// Trains `kind` with `sampler_cfg` on the prepared dataset, driving the
/// provided observer, and returns the trained model with its stats.
pub fn train_model(
    prepared: &PreparedDataset,
    preset: DatasetPreset,
    kind: ModelKind,
    sampler_cfg: &SamplerConfig,
    cfg: &RunConfig,
    observer: &mut dyn TrainObserver,
) -> (AnyModel, TrainStats) {
    let mut model = AnyModel::build(kind, &prepared.dataset, cfg);
    let mut sampler = build_sampler(sampler_cfg, &prepared.dataset, Some(&prepared.occupations))
        .expect("valid sampler config");
    let tc = paper_train_config(kind, preset, cfg);
    let stats = train(
        &mut model,
        &prepared.dataset,
        sampler.as_mut(),
        &tc,
        observer,
    )
    .expect("training run");
    (model, stats)
}

/// Trains a boxed sampler directly (for configurations that need a custom
/// prior object not expressible as [`SamplerConfig`]).
pub fn train_model_with_sampler(
    prepared: &PreparedDataset,
    preset: DatasetPreset,
    kind: ModelKind,
    sampler: &mut dyn NegativeSampler,
    cfg: &RunConfig,
    observer: &mut dyn TrainObserver,
) -> (AnyModel, TrainStats) {
    let mut model = AnyModel::build(kind, &prepared.dataset, cfg);
    let tc = paper_train_config(kind, preset, cfg);
    let stats = train(&mut model, &prepared.dataset, sampler, &tc, observer).expect("training run");
    (model, stats)
}

/// Convenience: train and evaluate with no observer.
pub fn train_and_eval(
    prepared: &PreparedDataset,
    preset: DatasetPreset,
    kind: ModelKind,
    sampler_cfg: &SamplerConfig,
    cfg: &RunConfig,
) -> (RankingReport, TrainStats) {
    let (model, stats) = train_model(prepared, preset, kind, sampler_cfg, cfg, &mut NoopObserver);
    if let Some(path) = &cfg.save_artifact {
        save_artifact(&model, prepared, path);
    }
    let report = evaluate_ranking(&model, &prepared.dataset, &cfg.ks, cfg.threads);
    (report, stats)
}

/// Freezes a trained model into a `bns-serve` [`ModelArtifact`] at `path`,
/// embedding the training-positive CSR for seen-item filtering. The frozen
/// scores are bitwise identical to what `evaluate_ranking` measures, so
/// the reported metrics carry over to serving exactly.
///
/// Failures (an unwritable path, a full disk) are reported to stderr but
/// do **not** abort the run — a paper-scale training run must never be
/// thrown away because its artifact could not be written; the evaluation
/// still completes and reports.
pub fn save_artifact(model: &AnyModel, prepared: &PreparedDataset, path: &std::path::Path) {
    let artifact = match ModelArtifact::freeze(model, prepared.dataset.train()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("warning: could not freeze model artifact: {e}");
            return;
        }
    };
    match artifact.save(path) {
        Ok(()) => eprintln!(
            "saved {} artifact ({} users × {} items, d = {}) to {}",
            artifact.kind().name(),
            artifact.n_users(),
            artifact.n_items(),
            artifact.dim(),
            path.display()
        ),
        Err(e) => eprintln!(
            "warning: could not write model artifact to {}: {e}",
            path.display()
        ),
    }
}

/// Fans observer callbacks out to several observers.
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn TrainObserver>,
}

impl<'a> MultiObserver<'a> {
    /// Wraps a list of observers.
    pub fn new(observers: Vec<&'a mut dyn TrainObserver>) -> Self {
        Self { observers }
    }
}

impl TrainObserver for MultiObserver<'_> {
    fn on_triple(&mut self, epoch: usize, u: u32, pos: u32, neg: u32, info: f32) {
        for obs in self.observers.iter_mut() {
            obs.on_triple(epoch, u, pos, neg, info);
        }
    }

    fn on_epoch_end(&mut self, epoch: usize, model: &dyn Scorer) {
        for obs in self.observers.iter_mut() {
            obs.on_epoch_end(epoch, model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::cli::HarnessArgs;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::from_args(&HarnessArgs::default());
        cfg.scale = 0.05;
        cfg.epochs = 3;
        cfg.dim = 8;
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn prepares_all_presets() {
        let cfg = quick_cfg();
        for preset in DatasetPreset::ALL {
            let p = prepare_dataset(preset, &cfg);
            assert!(!p.dataset.train().is_empty());
            assert!(!p.dataset.test().is_empty());
            assert_eq!(p.occupations.n_users(), p.dataset.n_users());
        }
    }

    #[test]
    fn dataset_preparation_is_deterministic() {
        let cfg = quick_cfg();
        let a = prepare_dataset(DatasetPreset::Ml100k, &cfg);
        let b = prepare_dataset(DatasetPreset::Ml100k, &cfg);
        assert_eq!(a.dataset.train(), b.dataset.train());
        assert_eq!(a.dataset.test(), b.dataset.test());
    }

    #[test]
    fn trains_both_models_end_to_end() {
        let cfg = quick_cfg();
        let prepared = prepare_dataset(DatasetPreset::Ml100k, &cfg);
        for kind in [ModelKind::Mf, ModelKind::LightGcn] {
            let (report, stats) = train_and_eval(
                &prepared,
                DatasetPreset::Ml100k,
                kind,
                &SamplerConfig::Rns,
                &cfg,
            );
            assert!(stats.triples > 0, "{}: no triples", kind.name());
            assert_eq!(report.rows.len(), 3);
            assert!(report.n_users > 0);
        }
    }

    #[test]
    fn any_model_forwards_update_batch_to_mf_blocked_path() {
        // At k_negatives > 1 the MF blocked group update differs from the
        // trait-default per-triple loop, so training through AnyModel must
        // match training the inner MatrixFactorization directly bit for
        // bit — this pins the explicit update_batch forwarding.
        use bns_core::{train, NoopObserver};
        use bns_model::MatrixFactorization;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut cfg = quick_cfg();
        cfg.k_negatives = 2;
        let prepared = prepare_dataset(DatasetPreset::Ml100k, &cfg);
        let tc = paper_train_config(ModelKind::Mf, DatasetPreset::Ml100k, &cfg);
        assert_eq!(tc.k_negatives, 2);

        let build_mf = |d: &Dataset| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6d0de1);
            MatrixFactorization::new(d.n_users(), d.n_items(), cfg.dim, cfg.init_std, &mut rng)
                .unwrap()
        };
        let mut direct = build_mf(&prepared.dataset);
        let mut sampler =
            bns_core::build_sampler(&SamplerConfig::Dns { m: 3 }, &prepared.dataset, None).unwrap();
        train(
            &mut direct,
            &prepared.dataset,
            sampler.as_mut(),
            &tc,
            &mut NoopObserver,
        )
        .unwrap();

        let mut wrapped = AnyModel::Mf(build_mf(&prepared.dataset));
        let mut sampler =
            bns_core::build_sampler(&SamplerConfig::Dns { m: 3 }, &prepared.dataset, None).unwrap();
        train(
            &mut wrapped,
            &prepared.dataset,
            sampler.as_mut(),
            &tc,
            &mut NoopObserver,
        )
        .unwrap();

        for u in 0..prepared.dataset.n_users() {
            for i in 0..prepared.dataset.n_items() {
                assert_eq!(
                    direct.score(u, i).to_bits(),
                    wrapped.score(u, i).to_bits(),
                    "AnyModel dropped the blocked MF update_batch path"
                );
            }
        }
    }

    #[test]
    fn save_artifact_round_trips_bitwise_for_both_models() {
        let mut cfg = quick_cfg();
        let prepared = prepare_dataset(DatasetPreset::Ml100k, &cfg);
        let path = std::env::temp_dir().join(format!(
            "bns_runner_artifact_test_{}.bnsa",
            std::process::id()
        ));
        cfg.save_artifact = Some(path.clone());
        for kind in [ModelKind::Mf, ModelKind::LightGcn] {
            let (report, _) = train_and_eval(
                &prepared,
                DatasetPreset::Ml100k,
                kind,
                &SamplerConfig::Rns,
                &cfg,
            );
            let artifact = ModelArtifact::load(&path).expect("artifact written and loadable");
            // The frozen scores reproduce the just-evaluated metrics exactly.
            let frozen_report =
                evaluate_ranking(&artifact, &prepared.dataset, &cfg.ks, cfg.threads);
            assert_eq!(report, frozen_report, "{}: metrics diverged", kind.name());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_observer_fans_out() {
        struct Count(usize);
        impl TrainObserver for Count {
            fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {
                self.0 += 1;
            }
            fn on_epoch_end(&mut self, _: usize, _: &dyn Scorer) {}
        }
        let cfg = quick_cfg();
        let prepared = prepare_dataset(DatasetPreset::YahooR3, &cfg);
        let mut a = Count(0);
        let mut b = Count(0);
        {
            let mut multi = MultiObserver::new(vec![&mut a, &mut b]);
            let (_, stats) = train_model(
                &prepared,
                DatasetPreset::YahooR3,
                ModelKind::Mf,
                &SamplerConfig::Dns { m: 3 },
                &cfg,
                &mut multi,
            );
            assert!(stats.triples > 0);
        }
        assert_eq!(a.0, b.0);
        assert!(a.0 > 0);
    }
}
