//! Stochastic-gradient training over a local dataset.
//!
//! [`SgdTrainer`] implements the projected minibatch SGD update of Eq. (3):
//! `w(t+1) ← Π_W[w(t) − η(t)·g̃(t)]`, where `g̃` is the averaged minibatch gradient
//! plus regularization. It is used directly by the "Decentralized (SGD)" and
//! "Centralized (SGD)" baselines, and the Crowd-ML server applies exactly the same
//! update to gradients that arrive from devices (see `crowd-core`).

use crate::error::LearningError;
use crate::metrics::{error_rate, ErrorCurve};
use crate::model::{minibatch_statistics, Model};
use crate::schedule::LearningRate;
use crate::Result;
use crowd_data::{Dataset, Sample};
use crowd_linalg::ops::project_l2_ball;
use crowd_linalg::Vector;
use rand::Rng;

/// Hyperparameters of a (local) SGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdConfig {
    /// Learning-rate schedule η(t).
    pub schedule: LearningRate,
    /// L2 regularization strength λ (Eq. 2).
    pub lambda: f64,
    /// Radius `R` of the parameter ball `W` for the projection `Π_W`.
    pub radius: f64,
    /// Minibatch size `b`.
    pub minibatch_size: usize,
    /// Number of passes over the data.
    pub passes: f64,
    /// Evaluate the test error every `eval_every` consumed samples when producing
    /// an error curve.
    pub eval_every: usize,
}

impl SgdConfig {
    /// A reasonable default configuration matching the paper's settings:
    /// `η(t) = c/√t` with `c = 1`, λ = 0, radius 100, minibatch 1, one pass.
    pub fn new() -> Self {
        SgdConfig {
            schedule: LearningRate::InvSqrt { c: 1.0 },
            lambda: 0.0,
            radius: 100.0,
            minibatch_size: 1,
            passes: 1.0,
            eval_every: 1000,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
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
        if self.minibatch_size == 0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "minibatch_size",
                value: 0.0,
            });
        }
        if self.passes <= 0.0 || !self.passes.is_finite() {
            return Err(LearningError::InvalidHyperparameter {
                name: "passes",
                value: self.passes,
            });
        }
        if self.eval_every == 0 {
            return Err(LearningError::InvalidHyperparameter {
                name: "eval_every",
                value: 0.0,
            });
        }
        Ok(())
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig::new()
    }
}

/// Outcome of an SGD run: the learned parameters plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdOutcome {
    /// Final parameter vector.
    pub params: Vector,
    /// Number of SGD updates applied.
    pub updates: usize,
    /// Number of samples consumed (updates × minibatch size, modulo the final
    /// partial minibatch).
    pub samples_consumed: usize,
    /// Error curve on the evaluation set (empty when no evaluation set was given).
    pub curve: ErrorCurve,
    /// 0/1 mistake sequence of online predictions made before each update
    /// (the quantity Fig. 3 time-averages).
    pub online_mistakes: Vec<bool>,
}

/// Minibatch SGD trainer over a single local dataset.
#[derive(Debug, Clone)]
pub struct SgdTrainer<M: Model> {
    model: M,
    config: SgdConfig,
}

impl<M: Model> SgdTrainer<M> {
    /// Creates a trainer, validating the configuration.
    pub fn new(model: M, config: SgdConfig) -> Result<Self> {
        config.validate()?;
        Ok(SgdTrainer { model, config })
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Runs SGD over `train`, optionally evaluating on `eval` every
    /// `config.eval_every` consumed samples.
    ///
    /// Sample order is re-shuffled every pass using `rng`. The number of consumed
    /// samples is `⌈passes × |train|⌉`, allowing fractional passes.
    pub fn train<R: Rng + ?Sized>(
        &self,
        train: &Dataset,
        eval: Option<&Dataset>,
        rng: &mut R,
    ) -> Result<SgdOutcome> {
        if train.is_empty() {
            return Err(LearningError::EmptyData);
        }
        let total_samples = ((train.len() as f64) * self.config.passes).ceil() as usize;
        let mut params = self.model.init_params();
        let mut schedule = self.config.schedule.clone();
        let mut curve = ErrorCurve::new();
        let mut online_mistakes = Vec::new();

        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut pos = train.len(); // force a shuffle on the first iteration
        let mut consumed = 0usize;
        let mut updates = 0usize;
        let mut batch: Vec<Sample> = Vec::with_capacity(self.config.minibatch_size);
        let mut next_eval = self.config.eval_every;

        while consumed < total_samples {
            if pos >= order.len() {
                // New pass: reshuffle.
                for i in (1..order.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    order.swap(i, j);
                }
                pos = 0;
            }
            let sample = train.get(order[pos]).clone();
            pos += 1;
            consumed += 1;

            // Record the online prediction made with the *current* parameters.
            let pred = self.model.predict(&params, &sample.features)?;
            online_mistakes.push(pred != sample.label);

            batch.push(sample);
            if batch.len() >= self.config.minibatch_size || consumed == total_samples {
                let stats =
                    minibatch_statistics(&self.model, &params, &batch, self.config.lambda, &[])?;
                updates += 1;
                let eta = schedule.rate(updates, &stats.gradient);
                params
                    .axpy(-eta, &stats.gradient)
                    .map_err(|e| LearningError::ShapeMismatch {
                        reason: e.to_string(),
                    })?;
                project_l2_ball(&mut params, self.config.radius);
                batch.clear();
            }

            if let Some(eval_set) = eval {
                if consumed >= next_eval || consumed == total_samples {
                    curve.push(consumed, error_rate(&self.model, &params, eval_set)?);
                    next_eval = consumed + self.config.eval_every;
                }
            }
        }

        if !params.is_finite() {
            return Err(LearningError::NumericalFailure {
                context: "sgd training".into(),
            });
        }

        Ok(SgdOutcome {
            params,
            updates,
            samples_consumed: consumed,
            curve,
            online_mistakes,
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
        GaussianMixtureSpec::new(10, 4)
            .with_train_size(800)
            .with_test_size(200)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = SgdConfig::new();
        assert!(c.validate().is_ok());
        c.lambda = -1.0;
        assert!(c.validate().is_err());
        c = SgdConfig::new();
        c.radius = 0.0;
        assert!(c.validate().is_err());
        c = SgdConfig::new();
        c.minibatch_size = 0;
        assert!(c.validate().is_err());
        c = SgdConfig::new();
        c.passes = 0.0;
        assert!(c.validate().is_err());
        c = SgdConfig::new();
        c.eval_every = 0;
        assert!(c.validate().is_err());
        assert_eq!(SgdConfig::default(), SgdConfig::new());
    }

    #[test]
    fn learns_a_separable_task() {
        let (train, test) = task(0);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = SgdConfig {
            schedule: LearningRate::inv_sqrt(2.0).unwrap(),
            passes: 3.0,
            ..SgdConfig::new()
        };
        let trainer = SgdTrainer::new(model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = trainer.train(&train, Some(&test), &mut rng).unwrap();
        let err = error_rate(trainer.model(), &outcome.params, &test).unwrap();
        assert!(err < 0.15, "test error {err}");
        assert!(!outcome.curve.is_empty());
        assert_eq!(outcome.samples_consumed, 2400);
        assert_eq!(outcome.online_mistakes.len(), 2400);
    }

    #[test]
    fn minibatch_reduces_update_count() {
        let (train, _) = task(2);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut config = SgdConfig::new();
        config.minibatch_size = 20;
        config.passes = 1.0;
        let trainer = SgdTrainer::new(model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = trainer.train(&train, None, &mut rng).unwrap();
        assert_eq!(outcome.samples_consumed, 800);
        assert_eq!(outcome.updates, 40);
        assert!(outcome.curve.is_empty());
    }

    #[test]
    fn fractional_passes_consume_partial_data() {
        let (train, _) = task(4);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut config = SgdConfig::new();
        config.passes = 0.25;
        let trainer = SgdTrainer::new(model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = trainer.train(&train, None, &mut rng).unwrap();
        assert_eq!(outcome.samples_consumed, 200);
    }

    #[test]
    fn projection_keeps_parameters_in_ball() {
        let (train, _) = task(6);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut config = SgdConfig::new();
        config.radius = 0.5;
        config.schedule = LearningRate::constant(5.0).unwrap();
        let trainer = SgdTrainer::new(model, config).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = trainer.train(&train, None, &mut rng).unwrap();
        assert!(outcome.params.norm_l2() <= 0.5 + 1e-9);
    }

    #[test]
    fn empty_training_set_rejected() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let trainer = SgdTrainer::new(model, SgdConfig::new()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        assert!(trainer
            .train(&Dataset::empty(3, 2).unwrap(), None, &mut rng)
            .is_err());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (train, test) = task(9);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let trainer = SgdTrainer::new(model, SgdConfig::new()).unwrap();
        let a = trainer
            .train(&train, Some(&test), &mut StdRng::seed_from_u64(42))
            .unwrap();
        let b = trainer
            .train(&train, Some(&test), &mut StdRng::seed_from_u64(42))
            .unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.curve, b.curve);
    }
}
