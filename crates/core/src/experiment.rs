//! High-level experiment runners reproducing the paper's evaluation protocol.
//!
//! A [`CrowdMlExperiment`] bundles a [`Workload`] (which dataset, how it is split
//! across devices) with an [`ExperimentConfig`] (number of devices `M`, minibatch
//! size `b`, privacy level, delay, learning rate, seed) and can run:
//!
//! * the Crowd-ML system itself ([`CrowdMlExperiment::run`]), via the asynchronous
//!   simulation;
//! * the Centralized (batch) baseline ([`CrowdMlExperiment::run_central_batch`]);
//! * the Centralized (SGD) baseline on input-perturbed data
//!   ([`CrowdMlExperiment::run_central_sgd`]);
//! * the Decentralized baseline ([`CrowdMlExperiment::run_decentralized`]).
//!
//! The figure binaries in `crowd-bench` are thin wrappers that call these with the
//! parameter grids of Figs. 3–9.

use crate::baselines::{central_batch, central_sgd, decentralized};
use crate::config::{CrowdMlConfig, DeviceConfig, PrivacyConfig, ServerConfig};
use crate::simulation::{run_crowd_ml, DelayModel, SimulationConfig, SimulationTrace};
use crate::Result;
use crowd_data::activity::{simulate_fleet, ActivityConfig};
use crowd_data::partition::{partition, PartitionStrategy};
use crowd_data::synthetic::{cifar_feature_like, mnist_like, GaussianMixtureSpec};
use crowd_data::Dataset;
use crowd_learning::batch::BatchConfig;
use crowd_learning::metrics::{time_averaged_error, ErrorCurve};
use crowd_learning::sgd::SgdConfig;
use crowd_learning::{LearningRate, MulticlassLogistic};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which dataset an experiment runs on.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A synthetic Gaussian-mixture task (used by the quickstart and tests).
    GaussianMixture(GaussianMixtureSpec),
    /// The MNIST surrogate of §V-C (50-D, 10 classes); `scale` shrinks the
    /// 60 000/10 000 sample counts proportionally.
    MnistLike {
        /// Fraction of the paper-scale sample counts to generate.
        scale: f64,
    },
    /// The CIFAR-feature surrogate of Appendix D (100-D, 10 classes).
    CifarFeatureLike {
        /// Fraction of the paper-scale sample counts to generate.
        scale: f64,
    },
    /// The activity-recognition workload of §V-B: per-device accelerometer
    /// simulation with label-change-triggered sampling.
    Activity {
        /// Samples each device contributes to training.
        samples_per_device: usize,
        /// Samples generated for the common test set.
        test_samples: usize,
    },
}

/// Experiment-level configuration shared by Crowd-ML and the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of devices `M`.
    pub devices: usize,
    /// Minibatch size `b`.
    pub minibatch: usize,
    /// Passes over the training data.
    pub passes: f64,
    /// Privacy configuration (shared ε convention with the baselines).
    pub privacy: PrivacyConfig,
    /// Maximum per-leg communication delay, in units of Δ (fleet-wide sample
    /// arrivals); 0 disables delays.
    pub delay_delta: f64,
    /// Learning-rate constant `c` of the `c/√t` schedule.
    pub rate_constant: f64,
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Radius of the parameter ball.
    pub radius: f64,
    /// Number of points to record on each error curve.
    pub eval_points: usize,
    /// Random seed controlling data generation, partitioning, noise, and delays.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Starts a builder with the defaults of the paper's Fig. 4 configuration
    /// (M = 100, b = 1, one pass, non-private, no delay, c = 1).
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            config: ExperimentConfig {
                devices: 100,
                minibatch: 1,
                passes: 1.0,
                privacy: PrivacyConfig::non_private(),
                delay_delta: 0.0,
                rate_constant: 1.0,
                lambda: 0.0,
                radius: 100.0,
                eval_points: 30,
                seed: 0,
            },
        }
    }

    fn validate(&self) -> Result<()> {
        if self.devices == 0 {
            return Err(crate::CoreError::Config("devices must be positive".into()));
        }
        if self.minibatch == 0 {
            return Err(crate::CoreError::Config(
                "minibatch must be positive".into(),
            ));
        }
        if self.passes <= 0.0 {
            return Err(crate::CoreError::Config("passes must be positive".into()));
        }
        if self.eval_points == 0 {
            return Err(crate::CoreError::Config(
                "eval_points must be positive".into(),
            ));
        }
        if self.delay_delta < 0.0 || !self.delay_delta.is_finite() {
            return Err(crate::CoreError::Config(
                "delay_delta must be non-negative".into(),
            ));
        }
        Ok(())
    }

    fn crowd_config(&self) -> Result<CrowdMlConfig> {
        CrowdMlConfig::new(
            DeviceConfig::new(self.minibatch)
                .with_max_buffer(self.minibatch.saturating_mul(64).max(64)),
            ServerConfig {
                schedule: LearningRate::InvSqrt {
                    c: self.rate_constant,
                },
                lambda: self.lambda,
                radius: self.radius,
                max_iterations: u64::MAX,
                target_error: 0.0,
                agg: crate::config::AggSettings::new(),
                persist: crate::config::PersistSettings::new(),
                budget: crate::config::BudgetSettings::new(),
                rounds: None,
            },
            self.privacy,
        )
    }

    fn sgd_config(&self, train_len: usize) -> SgdConfig {
        SgdConfig {
            schedule: LearningRate::InvSqrt {
                c: self.rate_constant,
            },
            lambda: self.lambda,
            radius: self.radius,
            minibatch_size: self.minibatch,
            passes: self.passes,
            eval_every: self.eval_every(train_len),
        }
    }

    fn eval_every(&self, train_len: usize) -> usize {
        let total = ((train_len as f64) * self.passes).ceil() as usize;
        (total / self.eval_points).max(1)
    }
}

/// Builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the number of devices `M`.
    pub fn devices(mut self, devices: usize) -> Self {
        self.config.devices = devices;
        self
    }

    /// Sets the minibatch size `b`.
    pub fn minibatch(mut self, minibatch: usize) -> Self {
        self.config.minibatch = minibatch;
        self
    }

    /// Sets the number of passes over the training data.
    pub fn passes(mut self, passes: f64) -> Self {
        self.config.passes = passes;
        self
    }

    /// Sets the privacy configuration.
    pub fn privacy(mut self, privacy: PrivacyConfig) -> Self {
        self.config.privacy = privacy;
        self
    }

    /// Sets the maximum per-leg delay in Δ units.
    pub fn delay_delta(mut self, delay: f64) -> Self {
        self.config.delay_delta = delay;
        self
    }

    /// Sets the learning-rate constant `c`.
    pub fn rate_constant(mut self, c: f64) -> Self {
        self.config.rate_constant = c;
        self
    }

    /// Sets the regularization strength λ.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.config.lambda = lambda;
        self
    }

    /// Sets the number of curve evaluation points.
    pub fn eval_points(mut self, points: usize) -> Self {
        self.config.eval_points = points;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> ExperimentConfig {
        self.config
    }
}

/// The outcome of running Crowd-ML on a workload.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Test-error curve against samples consumed by the server.
    pub curve: ErrorCurve,
    /// Time-averaged online error across devices (the Fig. 3 curve).
    pub online_error: Vec<f64>,
    /// Number of server updates applied.
    pub server_iterations: u64,
    /// Simulation trace (event counts, staleness).
    pub trace: SimulationTrace,
}

impl ExperimentOutcome {
    /// The final test error.
    pub fn final_test_error(&self) -> f64 {
        self.curve.final_error().unwrap_or(1.0)
    }
}

/// A fully specified experiment: workload + configuration.
#[derive(Debug, Clone)]
pub struct CrowdMlExperiment {
    workload: Workload,
    config: ExperimentConfig,
}

/// The materialized data of an experiment: per-device training partitions and a
/// common test set.
#[derive(Debug, Clone)]
pub struct MaterializedData {
    /// Per-device training data.
    pub partitions: Vec<Dataset>,
    /// Pooled training data (union of the partitions).
    pub pooled_train: Dataset,
    /// Common test set.
    pub test: Dataset,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub num_classes: usize,
}

impl CrowdMlExperiment {
    /// Experiment on a Gaussian-mixture workload.
    pub fn gaussian_mixture(spec: GaussianMixtureSpec, config: ExperimentConfig) -> Self {
        CrowdMlExperiment {
            workload: Workload::GaussianMixture(spec),
            config,
        }
    }

    /// Experiment on the MNIST surrogate (§V-C).
    pub fn mnist_like(scale: f64, config: ExperimentConfig) -> Self {
        CrowdMlExperiment {
            workload: Workload::MnistLike { scale },
            config,
        }
    }

    /// Experiment on the CIFAR-feature surrogate (Appendix D).
    pub fn cifar_feature_like(scale: f64, config: ExperimentConfig) -> Self {
        CrowdMlExperiment {
            workload: Workload::CifarFeatureLike { scale },
            config,
        }
    }

    /// Experiment on the activity-recognition workload (§V-B).
    pub fn activity(
        samples_per_device: usize,
        test_samples: usize,
        config: ExperimentConfig,
    ) -> Self {
        CrowdMlExperiment {
            workload: Workload::Activity {
                samples_per_device,
                test_samples,
            },
            config,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Generates and partitions the workload data deterministically from the seed.
    pub fn materialize(&self) -> Result<MaterializedData> {
        self.config.validate()?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let (partitions, pooled_train, test) = match &self.workload {
            Workload::GaussianMixture(spec) => {
                let (train, test) = spec.generate(&mut rng)?;
                let parts = partition(
                    &train,
                    self.config.devices,
                    PartitionStrategy::Iid,
                    &mut rng,
                )?;
                (parts, train, test)
            }
            Workload::MnistLike { scale } => {
                let (train, test) = mnist_like(&mut rng, *scale)?;
                let parts = partition(
                    &train,
                    self.config.devices,
                    PartitionStrategy::Iid,
                    &mut rng,
                )?;
                (parts, train, test)
            }
            Workload::CifarFeatureLike { scale } => {
                let (train, test) = cifar_feature_like(&mut rng, *scale)?;
                let parts = partition(
                    &train,
                    self.config.devices,
                    PartitionStrategy::Iid,
                    &mut rng,
                )?;
                (parts, train, test)
            }
            Workload::Activity {
                samples_per_device,
                test_samples,
            } => {
                let activity_config = ActivityConfig::default();
                let parts = simulate_fleet(
                    &mut rng,
                    &activity_config,
                    self.config.devices,
                    *samples_per_device,
                )?;
                // One additional simulated device provides the common test set.
                let test = simulate_fleet(&mut rng, &activity_config, 1, *test_samples)?
                    .pop()
                    .expect("one test device requested");
                let mut pooled = Dataset::empty(
                    parts.first().map(|p| p.dim()).unwrap_or(0),
                    parts.first().map(|p| p.num_classes()).unwrap_or(1),
                )?;
                for p in &parts {
                    pooled = pooled.concat(p.clone())?;
                }
                (parts, pooled, test)
            }
        };
        let dim = pooled_train.dim();
        let num_classes = pooled_train.num_classes();
        if dim == 0 || pooled_train.is_empty() {
            return Err(crate::CoreError::Config(
                "workload produced no training data".into(),
            ));
        }
        Ok(MaterializedData {
            partitions,
            pooled_train,
            test,
            dim,
            num_classes,
        })
    }

    fn delay_model(&self) -> DelayModel {
        if self.config.delay_delta > 0.0 {
            DelayModel::Uniform {
                max: self.config.delay_delta,
            }
        } else {
            DelayModel::None
        }
    }

    /// Runs the Crowd-ML system on the workload.
    pub fn run(&self) -> Result<ExperimentOutcome> {
        let data = self.materialize()?;
        let model = MulticlassLogistic::new(data.dim, data.num_classes)?;
        let crowd_config = self.config.crowd_config()?;
        let sim = SimulationConfig::new()
            .with_delay(self.delay_model())
            .with_eval_every(self.config.eval_every(data.pooled_train.len()))
            .with_passes(self.config.passes);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let result = run_crowd_ml(
            &model,
            &data.partitions,
            &data.test,
            &crowd_config,
            &sim,
            &mut rng,
        )?;
        let mistakes = result.online_mistakes.clone();
        Ok(ExperimentOutcome {
            curve: result.curve,
            online_error: time_averaged_error(&mistakes),
            server_iterations: result.server_iterations,
            trace: result.trace,
        })
    }

    /// Runs the Centralized (batch) baseline, returning its test error.
    pub fn run_central_batch(&self) -> Result<f64> {
        let data = self.materialize()?;
        let model = MulticlassLogistic::new(data.dim, data.num_classes)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(2));
        let result = central_batch(
            &model,
            &data.pooled_train,
            &data.test,
            &self.config.privacy,
            &BatchConfig {
                lambda: self.config.lambda,
                radius: self.config.radius,
                ..BatchConfig::new()
            },
            &mut rng,
        )?;
        Ok(result.test_error)
    }

    /// Runs the Centralized (SGD) baseline on input-perturbed data, returning its
    /// error curve.
    pub fn run_central_sgd(&self) -> Result<ErrorCurve> {
        let data = self.materialize()?;
        let model = MulticlassLogistic::new(data.dim, data.num_classes)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(3));
        let result = central_sgd(
            &model,
            &data.pooled_train,
            &data.test,
            &self.config.privacy,
            &self.config.sgd_config(data.pooled_train.len()),
            &mut rng,
        )?;
        Ok(result.curve)
    }

    /// Runs the Decentralized baseline, returning its error curve (averaged over at
    /// most `max_eval_devices` devices).
    pub fn run_decentralized(&self, max_eval_devices: usize) -> Result<ErrorCurve> {
        let data = self.materialize()?;
        let model = MulticlassLogistic::new(data.dim, data.num_classes)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(4));
        let result = decentralized(
            &model,
            &data.partitions,
            &data.test,
            &self.config.sgd_config(data.pooled_train.len()),
            max_eval_devices,
            &mut rng,
        )?;
        Ok(result.curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig::builder()
            .devices(10)
            .minibatch(1)
            .passes(1.0)
            .rate_constant(2.0)
            .eval_points(5)
            .seed(3)
            .build()
    }

    fn small_spec() -> GaussianMixtureSpec {
        GaussianMixtureSpec::new(8, 3)
            .with_train_size(600)
            .with_test_size(150)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let c = ExperimentConfig::builder()
            .devices(42)
            .minibatch(7)
            .delay_delta(3.0)
            .lambda(0.01)
            .build();
        assert_eq!(c.devices, 42);
        assert_eq!(c.minibatch, 7);
        assert_eq!(c.delay_delta, 3.0);
        assert_eq!(c.lambda, 0.01);
        assert!(c.privacy.is_non_private());
    }

    #[test]
    fn invalid_configs_rejected_at_run_time() {
        let bad = ExperimentConfig::builder().devices(0).build();
        let exp = CrowdMlExperiment::gaussian_mixture(small_spec(), bad);
        assert!(exp.run().is_err());
        let bad2 = ExperimentConfig::builder().minibatch(0).build();
        assert!(CrowdMlExperiment::gaussian_mixture(small_spec(), bad2)
            .materialize()
            .is_err());
    }

    #[test]
    fn materialize_partitions_cover_training_data() {
        let exp = CrowdMlExperiment::gaussian_mixture(small_spec(), small_config());
        let data = exp.materialize().unwrap();
        assert_eq!(data.partitions.len(), 10);
        let total: usize = data.partitions.iter().map(|p| p.len()).sum();
        assert_eq!(total, data.pooled_train.len());
        assert_eq!(data.dim, 8);
        assert_eq!(data.num_classes, 3);
        assert_eq!(data.test.len(), 150);
    }

    #[test]
    fn crowd_run_learns_gaussian_mixture() {
        let exp = CrowdMlExperiment::gaussian_mixture(small_spec(), small_config());
        let outcome = exp.run().unwrap();
        assert!(
            outcome.final_test_error() < 0.2,
            "error {}",
            outcome.final_test_error()
        );
        assert!(!outcome.online_error.is_empty());
        assert!(outcome.server_iterations > 0);
        assert!(outcome.trace.samples_generated > 0);
    }

    #[test]
    fn baselines_run_on_the_same_workload() {
        let exp = CrowdMlExperiment::gaussian_mixture(small_spec(), small_config());
        let batch_err = exp.run_central_batch().unwrap();
        assert!(batch_err < 0.2, "central batch error {batch_err}");
        let sgd_curve = exp.run_central_sgd().unwrap();
        assert!(!sgd_curve.is_empty());
        let dec_curve = exp.run_decentralized(5).unwrap();
        assert!(!dec_curve.is_empty());
        // Decentralized should be worse than central batch on this pooled task.
        assert!(dec_curve.final_error().unwrap() > batch_err);
    }

    #[test]
    fn activity_workload_runs_end_to_end() {
        let config = ExperimentConfig::builder()
            .devices(7)
            .minibatch(1)
            // Within the range that moves the parameters on ~210 samples (see
            // the rate sweep in tests/end_to_end.rs: constants below ~1e-1
            // have not learned yet at this sample count).
            .rate_constant(0.1)
            .eval_points(3)
            .seed(11)
            .build();
        let exp = CrowdMlExperiment::activity(30, 60, config);
        let outcome = exp.run().unwrap();
        // 7 devices × 30 samples = 210 online predictions.
        assert_eq!(outcome.online_error.len(), 210);
        // The classifier must beat chance (2/3 error for 3 balanced classes).
        assert!(
            outcome.final_test_error() < 0.55,
            "error {}",
            outcome.final_test_error()
        );
    }

    #[test]
    fn experiment_is_reproducible() {
        let exp = CrowdMlExperiment::mnist_like(
            0.01,
            ExperimentConfig::builder()
                .devices(20)
                .eval_points(4)
                .seed(5)
                .build(),
        );
        let a = exp.run().unwrap();
        let b = exp.run().unwrap();
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.online_error, b.online_error);
    }

    #[test]
    fn delay_config_maps_to_uniform_model() {
        let exp = CrowdMlExperiment::gaussian_mixture(
            small_spec(),
            ExperimentConfig::builder()
                .delay_delta(10.0)
                .devices(5)
                .build(),
        );
        assert_eq!(exp.delay_model(), DelayModel::Uniform { max: 10.0 });
        let no_delay = CrowdMlExperiment::gaussian_mixture(small_spec(), small_config());
        assert_eq!(no_delay.delay_model(), DelayModel::None);
    }
}
