//! Full-gradient (batch) training: the "Central (batch)" baseline.
//!
//! The paper's strongest baseline trains on the pooled data with a batch
//! algorithm; its error appears as a horizontal line in Figs. 4–9 because it is
//! "not incremental and therefore is a constant". We implement it as full-gradient
//! descent with the projected update and a decreasing step size, run to a fixed
//! iteration budget, which reaches the same optimum as any other batch solver for
//! these convex risks.

use crate::error::LearningError;
use crate::metrics::error_rate;
use crate::model::{minibatch_statistics, Model};
use crate::schedule::LearningRate;
use crate::Result;
use crowd_data::Dataset;
use crowd_linalg::ops::project_l2_ball;
use crowd_linalg::Vector;

/// Configuration for batch (full-gradient) training.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Number of full-gradient iterations.
    pub iterations: usize,
    /// Learning-rate schedule.
    pub schedule: LearningRate,
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Radius of the parameter ball for the projection.
    pub radius: f64,
    /// Stop early when the full-gradient L2 norm falls below this tolerance.
    pub gradient_tolerance: f64,
}

impl BatchConfig {
    /// Default configuration: 200 iterations of `η(t) = 2/√t`, no regularization.
    pub fn new() -> Self {
        BatchConfig {
            iterations: 200,
            schedule: LearningRate::InvSqrt { c: 2.0 },
            lambda: 0.0,
            radius: 100.0,
            gradient_tolerance: 1e-8,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.iterations == 0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "iterations",
                value: 0.0,
            });
        }
        if self.lambda < 0.0 || !self.lambda.is_finite() {
            return Err(LearningError::InvalidHyperparameter {
                name: "lambda",
                value: self.lambda,
            });
        }
        if self.radius <= 0.0 || !self.radius.is_finite() {
            return Err(LearningError::InvalidHyperparameter {
                name: "radius",
                value: self.radius,
            });
        }
        if self.gradient_tolerance < 0.0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "gradient_tolerance",
                value: self.gradient_tolerance,
            });
        }
        Ok(())
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::new()
    }
}

/// Outcome of a batch training run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Learned parameters.
    pub params: Vector,
    /// Iterations actually performed (may be fewer than requested when the
    /// gradient tolerance triggers early stopping).
    pub iterations: usize,
    /// Final training error.
    pub train_error: f64,
}

/// Full-gradient descent trainer.
#[derive(Debug, Clone)]
pub struct BatchTrainer<M: Model> {
    model: M,
    config: BatchConfig,
}

impl<M: Model> BatchTrainer<M> {
    /// Creates a trainer, validating the configuration.
    pub fn new(model: M, config: BatchConfig) -> Result<Self> {
        config.validate()?;
        Ok(BatchTrainer { model, config })
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Trains on the full dataset.
    pub fn train(&self, train: &Dataset) -> Result<BatchOutcome> {
        if train.is_empty() {
            return Err(LearningError::EmptyData);
        }
        let mut params = self.model.init_params();
        let mut schedule = self.config.schedule.clone();
        let samples = train.samples();
        let mut performed = 0usize;
        for t in 1..=self.config.iterations {
            let stats =
                minibatch_statistics(&self.model, &params, samples, self.config.lambda, &[])?;
            performed = t;
            if stats.gradient.norm_l2() <= self.config.gradient_tolerance {
                break;
            }
            let eta = schedule.rate(t, &stats.gradient);
            params
                .axpy(-eta, &stats.gradient)
                .map_err(|e| LearningError::ShapeMismatch {
                    reason: e.to_string(),
                })?;
            project_l2_ball(&mut params, self.config.radius);
        }
        if !params.is_finite() {
            return Err(LearningError::NumericalFailure {
                context: "batch training".into(),
            });
        }
        let train_error = error_rate(&self.model, &params, train)?;
        Ok(BatchOutcome {
            params,
            iterations: performed,
            train_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::MulticlassLogistic;
    use crowd_data::synthetic::GaussianMixtureSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn task(seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        GaussianMixtureSpec::new(8, 3)
            .with_train_size(600)
            .with_test_size(200)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = BatchConfig::new();
        assert!(c.validate().is_ok());
        c.iterations = 0;
        assert!(c.validate().is_err());
        c = BatchConfig::new();
        c.lambda = f64::NAN;
        assert!(c.validate().is_err());
        c = BatchConfig::new();
        c.radius = -1.0;
        assert!(c.validate().is_err());
        c = BatchConfig::new();
        c.gradient_tolerance = -1.0;
        assert!(c.validate().is_err());
        assert_eq!(BatchConfig::default(), BatchConfig::new());
    }

    #[test]
    fn batch_training_reaches_low_error() {
        let (train, test) = task(0);
        let model = MulticlassLogistic::new(8, 3).unwrap();
        let trainer = BatchTrainer::new(model, BatchConfig::new()).unwrap();
        let outcome = trainer.train(&train).unwrap();
        assert!(
            outcome.train_error < 0.12,
            "train error {}",
            outcome.train_error
        );
        let test_err = error_rate(trainer.model(), &outcome.params, &test).unwrap();
        assert!(test_err < 0.15, "test error {test_err}");
        assert!(outcome.iterations <= 200);
    }

    #[test]
    fn batch_is_at_least_as_good_as_one_pass_sgd() {
        use crate::sgd::{SgdConfig, SgdTrainer};
        let (train, test) = task(1);
        let model = MulticlassLogistic::new(8, 3).unwrap();
        let batch = BatchTrainer::new(model, BatchConfig::new()).unwrap();
        let batch_err =
            error_rate(batch.model(), &batch.train(&train).unwrap().params, &test).unwrap();

        let sgd_model = MulticlassLogistic::new(8, 3).unwrap();
        let sgd = SgdTrainer::new(sgd_model, SgdConfig::new()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let sgd_err = error_rate(
            sgd.model(),
            &sgd.train(&train, None, &mut rng).unwrap().params,
            &test,
        )
        .unwrap();
        assert!(
            batch_err <= sgd_err + 0.05,
            "batch {batch_err} vs sgd {sgd_err}"
        );
    }

    #[test]
    fn early_stopping_on_small_gradient() {
        let (train, _) = task(3);
        let model = MulticlassLogistic::new(8, 3).unwrap();
        let mut config = BatchConfig::new();
        config.gradient_tolerance = 10.0; // absurdly loose: stop immediately
        let trainer = BatchTrainer::new(model, config).unwrap();
        let outcome = trainer.train(&train).unwrap();
        assert_eq!(outcome.iterations, 1);
    }

    #[test]
    fn empty_data_rejected() {
        let model = MulticlassLogistic::new(4, 2).unwrap();
        let trainer = BatchTrainer::new(model, BatchConfig::new()).unwrap();
        assert!(trainer.train(&Dataset::empty(4, 2).unwrap()).is_err());
    }
}
