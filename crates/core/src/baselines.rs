//! The comparison systems of the paper's evaluation.
//!
//! * **Centralized (batch)** — all raw data is pooled at the server and trained
//!   with a batch algorithm. With privacy, each feature vector is perturbed with
//!   Laplace noise (Eq. 15) and each label is flipped through the exponential
//!   mechanism (Eq. 16) *before* leaving the device; test data is never perturbed
//!   (footnote 8).
//! * **Centralized (SGD)** — the same (possibly perturbed) pooled data trained by
//!   minibatch SGD, so the curves of Fig. 5 can be reproduced.
//! * **Decentralized (SGD)** — every device trains only on its own `~N/M` samples
//!   with no communication; the reported error is the average over devices.

use crate::config::PrivacyConfig;
use crate::Result;
use crowd_data::{Dataset, Sample};
use crowd_learning::batch::{BatchConfig, BatchTrainer};
use crowd_learning::dp::sensitivity::feature_release;
use crowd_learning::dp::{Epsilon, ExponentialMechanism, LaplaceMechanism};
use crowd_learning::metrics::{error_rate, ErrorCurve};
use crowd_learning::model::Model;
use crowd_learning::sgd::{SgdConfig, SgdTrainer};
use crowd_linalg::Vector;
use rand::Rng;

/// Input perturbation for the centralized baselines (Appendix C).
///
/// The total ε is split evenly between features and labels
/// (`ε_x = ε_y = ε/2`, as in the paper's experiments). Passing a non-private
/// configuration returns an unmodified copy.
pub fn perturb_dataset_for_central<R: Rng + ?Sized>(
    data: &Dataset,
    privacy: &PrivacyConfig,
    rng: &mut R,
) -> Result<Dataset> {
    let total = privacy.budget.total_per_checkin(data.num_classes());
    if privacy.is_non_private() || total <= 0.0 {
        return Ok(data.clone());
    }
    let eps_x = Epsilon::finite(total / 2.0)?;
    let eps_y = Epsilon::finite(total / 2.0)?;
    let feature_mechanism = LaplaceMechanism::new(eps_x, feature_release())?;
    let label_mechanism = ExponentialMechanism::new(eps_y, 1.0)?;

    let mut out = Dataset::empty(data.dim(), data.num_classes())?;
    for s in data.iter() {
        let features = feature_mechanism.perturb_vector(rng, &s.features);
        let label = label_mechanism.perturb_label(rng, s.label, data.num_classes())?;
        out.push(Sample::new(features, label))?;
    }
    Ok(out)
}

/// Result of a centralized batch run.
#[derive(Debug, Clone)]
pub struct CentralBatchResult {
    /// Learned parameters.
    pub params: Vector,
    /// Test error of the learned model (the horizontal line of Figs. 4–9).
    pub test_error: f64,
}

/// Runs the "Central (batch)" baseline: pool (optionally perturbed) training data,
/// run batch training, evaluate on the clean test set.
pub fn central_batch<M: Model + Clone, R: Rng + ?Sized>(
    model: &M,
    train: &Dataset,
    test: &Dataset,
    privacy: &PrivacyConfig,
    config: &BatchConfig,
    rng: &mut R,
) -> Result<CentralBatchResult> {
    let released = perturb_dataset_for_central(train, privacy, rng)?;
    let trainer = BatchTrainer::new(model.clone(), config.clone())?;
    let outcome = trainer.train(&released)?;
    let test_error = error_rate(model, &outcome.params, test)?;
    Ok(CentralBatchResult {
        params: outcome.params,
        test_error,
    })
}

/// Result of a centralized SGD run.
#[derive(Debug, Clone)]
pub struct CentralSgdResult {
    /// Learned parameters.
    pub params: Vector,
    /// Error-vs-iteration curve on the clean test set.
    pub curve: ErrorCurve,
}

/// Runs the "Central (SGD)" baseline: pool (optionally perturbed) training data and
/// run minibatch SGD, recording the test-error curve.
pub fn central_sgd<M: Model + Clone, R: Rng + ?Sized>(
    model: &M,
    train: &Dataset,
    test: &Dataset,
    privacy: &PrivacyConfig,
    config: &SgdConfig,
    rng: &mut R,
) -> Result<CentralSgdResult> {
    let released = perturb_dataset_for_central(train, privacy, rng)?;
    let trainer = SgdTrainer::new(model.clone(), config.clone())?;
    let outcome = trainer.train(&released, Some(test), rng)?;
    Ok(CentralSgdResult {
        params: outcome.params,
        curve: outcome.curve,
    })
}

/// Result of the decentralized baseline.
#[derive(Debug, Clone)]
pub struct DecentralizedResult {
    /// Error-vs-total-iterations curve, where the error at each point is averaged
    /// over the evaluated devices and the iteration axis counts samples consumed
    /// across the whole fleet.
    pub curve: ErrorCurve,
    /// Final per-device test errors for the evaluated devices.
    pub final_device_errors: Vec<f64>,
}

/// Runs the "Decentralized (SGD)" baseline.
///
/// Each device trains only on its own partition. Training every one of `M = 1000`
/// devices and evaluating it on the full test set is wasteful when the devices are
/// statistically identical, so at most `max_eval_devices` devices (chosen from the
/// front of the partition list) are actually trained and their curves averaged;
/// the iteration axis is then scaled by the total number of devices so it remains
/// comparable to the other approaches, exactly as the paper plots it.
pub fn decentralized<M: Model + Clone, R: Rng + ?Sized>(
    model: &M,
    partitions: &[Dataset],
    test: &Dataset,
    config: &SgdConfig,
    max_eval_devices: usize,
    rng: &mut R,
) -> Result<DecentralizedResult> {
    if partitions.is_empty() {
        return Err(crate::CoreError::Config(
            "decentralized baseline needs at least one device partition".into(),
        ));
    }
    let eval_count = max_eval_devices.clamp(1, partitions.len());
    let mut curves = Vec::new();
    let mut final_errors = Vec::new();
    for part in partitions.iter().filter(|p| !p.is_empty()).take(eval_count) {
        // Evaluate after every local sample so curves from devices with few
        // samples still have enough resolution to be averaged.
        let mut local_config = config.clone();
        local_config.eval_every = 1;
        let trainer = SgdTrainer::new(model.clone(), local_config)?;
        let outcome = trainer.train(part, Some(test), rng)?;
        final_errors.push(error_rate(model, &outcome.params, test)?);
        curves.push(outcome.curve);
    }
    if curves.is_empty() {
        return Err(crate::CoreError::Config(
            "all device partitions were empty".into(),
        ));
    }

    // Average the curves point-wise up to the shortest curve, then rescale the
    // iteration axis from per-device samples to fleet-wide samples.
    let min_len = curves.iter().map(|c| c.len()).min().unwrap_or(0);
    let mut averaged = ErrorCurve::new();
    for i in 0..min_len {
        let mean_err =
            curves.iter().map(|c| c.points()[i].error).sum::<f64>() / curves.len() as f64;
        let per_device_iter = curves[0].points()[i].iteration;
        averaged.push(per_device_iter * partitions.len(), mean_err);
    }
    Ok(DecentralizedResult {
        curve: averaged,
        final_device_errors: final_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrivacyConfig;
    use crowd_data::partition::{partition, PartitionStrategy};
    use crowd_data::synthetic::GaussianMixtureSpec;
    use crowd_learning::MulticlassLogistic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn task(seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        GaussianMixtureSpec::new(10, 4)
            .with_train_size(1200)
            .with_test_size(300)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
            .generate(&mut rng)
            .unwrap()
    }

    #[test]
    fn perturbation_is_identity_when_non_private() {
        let (train, _) = task(0);
        let mut rng = StdRng::seed_from_u64(1);
        let released =
            perturb_dataset_for_central(&train, &PrivacyConfig::non_private(), &mut rng).unwrap();
        assert_eq!(released, train);
    }

    #[test]
    fn perturbation_changes_features_and_some_labels() {
        let (train, _) = task(2);
        let privacy = PrivacyConfig::with_total_epsilon(1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let released = perturb_dataset_for_central(&train, &privacy, &mut rng).unwrap();
        assert_eq!(released.len(), train.len());
        // Features must differ.
        let changed_features = train
            .iter()
            .zip(released.iter())
            .filter(|(a, b)| a.features != b.features)
            .count();
        assert_eq!(changed_features, train.len());
        // With ε_y = 0.5 and 4 classes most labels should flip away from truth
        // sometimes; require at least a few flips.
        let flipped = train
            .iter()
            .zip(released.iter())
            .filter(|(a, b)| a.label != b.label)
            .count();
        assert!(flipped > train.len() / 10, "only {flipped} labels flipped");
    }

    #[test]
    fn central_batch_beats_chance_and_privacy_hurts() {
        let (train, test) = task(4);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let clean = central_batch(
            &model,
            &train,
            &test,
            &PrivacyConfig::non_private(),
            &BatchConfig::new(),
            &mut rng,
        )
        .unwrap();
        assert!(clean.test_error < 0.15, "clean error {}", clean.test_error);

        let noisy = central_batch(
            &model,
            &train,
            &test,
            &PrivacyConfig::with_total_epsilon(1.0),
            &BatchConfig::new(),
            &mut rng,
        )
        .unwrap();
        assert!(
            noisy.test_error > clean.test_error,
            "privacy should cost accuracy: clean {} noisy {}",
            clean.test_error,
            noisy.test_error
        );
    }

    #[test]
    fn central_sgd_produces_decreasing_curve() {
        let (train, test) = task(6);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut config = SgdConfig::new();
        config.eval_every = 200;
        config.passes = 2.0;
        let result = central_sgd(
            &model,
            &train,
            &test,
            &PrivacyConfig::non_private(),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(!result.curve.is_empty());
        let first = result.curve.points()[0].error;
        let last = result.curve.final_error().unwrap();
        // Both evaluations are stochastic estimates on 300 test points; allow
        // a fluctuation of a few samples rather than demanding strict
        // monotonicity between two already-converged curve points.
        assert!(
            last <= first + 0.02,
            "curve should not get worse: {first} → {last}"
        );
        assert!(last < 0.2);
    }

    #[test]
    fn decentralized_is_worse_than_central() {
        let (train, test) = task(8);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let parts = partition(&train, 200, PartitionStrategy::Iid, &mut rng).unwrap();
        let result = decentralized(&model, &parts, &test, &SgdConfig::new(), 10, &mut rng).unwrap();
        assert!(!result.curve.is_empty());
        let central = central_batch(
            &model,
            &train,
            &test,
            &PrivacyConfig::non_private(),
            &BatchConfig::new(),
            &mut rng,
        )
        .unwrap();
        let dec_err = result.curve.final_error().unwrap();
        assert!(
            dec_err > central.test_error + 0.05,
            "decentralized {dec_err} should be clearly worse than central {}",
            central.test_error
        );
        // Iteration axis is fleet-wide.
        assert!(result.curve.points().last().unwrap().iteration >= 200);
        assert_eq!(result.final_device_errors.len(), 10);
    }

    #[test]
    fn decentralized_rejects_empty_input() {
        let model = MulticlassLogistic::new(4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let test = Dataset::empty(4, 2).unwrap();
        assert!(decentralized(&model, &[], &test, &SgdConfig::new(), 5, &mut rng).is_err());
        let empty_parts = vec![Dataset::empty(4, 2).unwrap()];
        assert!(
            decentralized(&model, &empty_parts, &test, &SgdConfig::new(), 5, &mut rng).is_err()
        );
    }
}
