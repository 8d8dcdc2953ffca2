//! Run configuration shared by all experiment binaries.

use crate::common::cli::HarnessArgs;
use bns_data::{DatasetPreset, Scale};

/// Which CF model to train (§IV-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Matrix factorization, batch size 1 (paper's MF setup).
    Mf,
    /// LightGCN with 1 layer (paper's setup), batched.
    LightGcn,
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mf => "MF",
            ModelKind::LightGcn => "LightGCN",
        }
    }

    /// The paper's batch size for this model and dataset: 1 for MF;
    /// 128 for LightGCN (1024 on MovieLens-1M).
    pub fn paper_batch_size(&self, preset: DatasetPreset) -> usize {
        match self {
            ModelKind::Mf => 1,
            ModelKind::LightGcn => match preset {
                DatasetPreset::Ml1m => 1024,
                _ => 128,
            },
        }
    }
}

/// A fully resolved experiment run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Evaluation threads.
    pub threads: usize,
    /// Negatives sampled per positive pair (paper: 1; > 1 feeds the
    /// multi-negative `TripleBatch` workload).
    pub k_negatives: usize,
    /// Embedding dimensionality (paper: 32).
    pub dim: usize,
    /// Embedding init standard deviation.
    pub init_std: f64,
    /// LightGCN propagation layers (paper: 1).
    pub gcn_layers: usize,
    /// Ranking cutoffs (paper: 5, 10, 20).
    pub ks: Vec<usize>,
    /// Optional path to freeze each trained model into a `bns-serve`
    /// [`ModelArtifact`](bns_serve::ModelArtifact). Multi-run binaries
    /// overwrite it per run; the last completed run's model wins.
    pub save_artifact: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// Builds from CLI args with the paper's model hyperparameters.
    pub fn from_args(args: &HarnessArgs) -> Self {
        Self {
            scale: args.scale,
            epochs: args.epochs,
            seed: args.seed,
            threads: args.threads,
            k_negatives: args.k_negatives,
            dim: 32,
            init_std: 0.1,
            gcn_layers: 1,
            ks: vec![5, 10, 20],
            save_artifact: args.save_artifact.clone(),
        }
    }

    /// The [`Scale`] for dataset generation.
    pub fn dataset_scale(&self) -> Scale {
        if (self.scale - 1.0).abs() < 1e-12 {
            Scale::Paper
        } else {
            Scale::Fraction(self.scale)
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::from_args(&HarnessArgs::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sizes_match_paper() {
        assert_eq!(ModelKind::Mf.paper_batch_size(DatasetPreset::Ml100k), 1);
        assert_eq!(
            ModelKind::LightGcn.paper_batch_size(DatasetPreset::Ml100k),
            128
        );
        assert_eq!(
            ModelKind::LightGcn.paper_batch_size(DatasetPreset::Ml1m),
            1024
        );
        assert_eq!(
            ModelKind::LightGcn.paper_batch_size(DatasetPreset::YahooR3),
            128
        );
    }

    #[test]
    fn scale_resolution() {
        let paper = RunConfig {
            scale: 1.0,
            ..RunConfig::default()
        };
        assert_eq!(paper.dataset_scale(), Scale::Paper);
        let small = RunConfig {
            scale: 0.25,
            ..RunConfig::default()
        };
        assert_eq!(small.dataset_scale(), Scale::Fraction(0.25));
    }

    #[test]
    fn defaults_follow_paper_hyperparameters() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.gcn_layers, 1);
        assert_eq!(cfg.ks, vec![5, 10, 20]);
    }
}
