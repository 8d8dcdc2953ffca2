//! Optimization hyperparameters and learning-rate schedules.
//!
//! The paper's setups (§IV-B1): MF uses a constant learning rate 0.01 with
//! L2 regularization 0.01; LightGCN uses initial rate 0.01 decaying by ×0.1
//! every 20 epochs with regularization 1e-5.

use crate::{ModelError, Result};

/// Learning-rate schedule over epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Same rate every epoch.
    Constant(f32),
    /// `initial · factor^{⌊epoch / every⌋}` — the paper's LightGCN schedule
    /// with `every = 20`, `factor = 0.1`.
    StepDecay {
        /// Rate at epoch 0.
        initial: f32,
        /// Epochs between decays.
        every: usize,
        /// Multiplicative decay factor.
        factor: f32,
    },
}

impl LrSchedule {
    /// The learning rate at a 0-based epoch.
    pub fn at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay {
                initial,
                every,
                factor,
            } => {
                let steps = epoch.checked_div(every).unwrap_or(0) as i32;
                initial * factor.powi(steps)
            }
        }
    }

    /// Validates rates and factors.
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            LrSchedule::Constant(lr) => lr > 0.0 && lr.is_finite(),
            LrSchedule::StepDecay {
                initial,
                every,
                factor,
            } => initial > 0.0 && initial.is_finite() && every > 0 && factor > 0.0 && factor <= 1.0,
        };
        if ok {
            Ok(())
        } else {
            Err(ModelError::InvalidConfig(
                "invalid learning-rate schedule".into(),
            ))
        }
    }
}

/// SGD hyperparameters shared by both models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// L2 regularization constant applied to the embeddings touched by each
    /// update.
    pub reg: f32,
}

impl SgdConfig {
    /// The paper's MF setup: constant lr 0.01, reg 0.01.
    pub fn paper_mf() -> Self {
        Self {
            lr: LrSchedule::Constant(0.01),
            reg: 0.01,
        }
    }

    /// The paper's LightGCN setup: lr 0.01 decayed ×0.1 every 20 epochs,
    /// reg 1e-5.
    pub fn paper_lightgcn() -> Self {
        Self {
            lr: LrSchedule::StepDecay {
                initial: 0.01,
                every: 20,
                factor: 0.1,
            },
            reg: 1e-5,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.lr.validate()?;
        if self.reg < 0.0 || !self.reg.is_finite() {
            return Err(ModelError::InvalidConfig(
                "reg must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::Constant(0.01);
        assert_eq!(s.at(0), 0.01);
        assert_eq!(s.at(99), 0.01);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn step_decay_matches_paper_lightgcn() {
        let s = LrSchedule::StepDecay {
            initial: 0.01,
            every: 20,
            factor: 0.1,
        };
        assert!((s.at(0) - 0.01).abs() < 1e-9);
        assert!((s.at(19) - 0.01).abs() < 1e-9);
        assert!((s.at(20) - 0.001).abs() < 1e-9);
        assert!((s.at(59) - 1e-4).abs() < 1e-9); // two decays by epoch 59
        assert!((s.at(60) - 1e-5).abs() < 1e-9); // third decay at epoch 60
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(LrSchedule::Constant(0.0).validate().is_err());
        assert!(LrSchedule::Constant(f32::NAN).validate().is_err());
        assert!(LrSchedule::StepDecay {
            initial: 0.01,
            every: 0,
            factor: 0.1
        }
        .validate()
        .is_err());
        assert!(LrSchedule::StepDecay {
            initial: 0.01,
            every: 5,
            factor: 1.5
        }
        .validate()
        .is_err());
        let bad_reg = SgdConfig {
            lr: LrSchedule::Constant(0.01),
            reg: -1.0,
        };
        assert!(bad_reg.validate().is_err());
    }

    #[test]
    fn paper_presets_validate() {
        assert!(SgdConfig::paper_mf().validate().is_ok());
        assert!(SgdConfig::paper_lightgcn().validate().is_ok());
    }
}
