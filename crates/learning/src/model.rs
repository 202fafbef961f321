//! The [`Model`] trait: per-sample losses, gradients, and predictions over a flat
//! parameter vector.
//!
//! All models expose their parameters as a single flat [`Vector`] so the server
//! update (Eq. 3), the L2-ball projection, and the Laplace gradient perturbation
//! (Eq. 10) operate uniformly regardless of the model family. Multiclass models
//! store their `C × D` weight matrix row-major in that vector.
//!
//! A minibatch is built from one per-sample primitive,
//! [`Model::evaluate_accumulate`], which adds `∇_w l` straight into the running
//! gradient sum, in sample order. That is bitwise the sum a zeroed per-sample
//! scratch plus an `axpy` gave: the scratch held `0.0 + coeff·x`, which differs
//! from `coeff·x` only when the product is `−0.0`, and `s + (−0.0) = s + 0.0`
//! for every `s` but `−0.0` — which a sum starting at `+0.0` never becomes. So
//! even the exact-zero count behind the sparse/dense wire choice is unchanged.

use crate::error::LearningError;
use crate::Result;
use crowd_data::Sample;
use crowd_linalg::Vector;

/// A differentiable classification model with a flat parameter vector.
pub trait Model: Send + Sync {
    /// Feature dimensionality `D`.
    fn input_dim(&self) -> usize;

    /// Number of classes `C`.
    fn num_classes(&self) -> usize;

    /// Length of the flat parameter vector.
    fn param_dim(&self) -> usize;

    /// Initial parameter vector (zeros unless a model overrides it).
    fn init_params(&self) -> Vector {
        Vector::zeros(self.param_dim())
    }

    /// Per-class decision scores for a feature vector.
    fn scores(&self, params: &Vector, x: &Vector) -> Result<Vec<f64>>;

    /// Predicted class label (argmax of scores; Table I's `argmax_k w_k'x`).
    fn predict(&self, params: &Vector, x: &Vector) -> Result<usize> {
        let scores = self.scores(params, x)?;
        crowd_linalg::ops::argmax(&scores).ok_or(LearningError::ShapeMismatch {
            reason: "model produced no scores".into(),
        })
    }

    /// Per-sample loss `l(h(x; w), y)` (without the regularization term).
    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> Result<f64>;

    /// Per-sample (sub)gradient `∇_w l(h(x; w), y)` (without regularization).
    ///
    /// Allocates a fresh vector per call; hot loops should prefer
    /// [`Model::gradient_into`] with a reused scratch vector.
    fn gradient(&self, params: &Vector, x: &Vector, y: usize) -> Result<Vector> {
        let mut out = Vector::zeros(self.param_dim());
        self.gradient_into(params, x, y, &mut out)?;
        Ok(out)
    }

    /// Writes the per-sample (sub)gradient into `out` (overwriting it) without
    /// allocating. `out` must have length [`Model::param_dim`].
    fn gradient_into(&self, params: &Vector, x: &Vector, y: usize, out: &mut Vector) -> Result<()>;

    /// The per-sample primitive of [`minibatch_statistics`]: prediction and
    /// loss (bitwise [`Model::predict`]'s and [`Model::loss`]'s) and, when
    /// `grad_sum` is given (length [`Model::param_dim`]), the products
    /// [`Model::gradient_into`] computes *added* into it.
    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad_sum: Option<&mut Vector>,
    ) -> Result<SampleEval>;

    /// Validates that a feature/label pair is compatible with the model.
    fn validate(&self, x: &Vector, y: usize) -> Result<()> {
        if x.len() != self.input_dim() {
            return Err(LearningError::ShapeMismatch {
                reason: format!(
                    "feature dimension {} does not match model input dimension {}",
                    x.len(),
                    self.input_dim()
                ),
            });
        }
        if y >= self.num_classes() {
            return Err(LearningError::ShapeMismatch {
                reason: format!("label {y} out of range for {} classes", self.num_classes()),
            });
        }
        Ok(())
    }
}

/// Per-sample outcome of a fused [`Model::evaluate_accumulate`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEval {
    /// The predicted class label (argmax of the scores).
    pub predicted: usize,
    /// The per-sample loss `l(h(x; w), y)`.
    pub loss: f64,
}

/// Checks that a gradient vector handed to a model has length `dim`.
pub(crate) fn check_grad_len(grad: &Vector, dim: usize) -> Result<()> {
    if grad.len() != dim {
        return Err(LearningError::ShapeMismatch {
            reason: format!("gradient vector has length {}, expected {dim}", grad.len()),
        });
    }
    Ok(())
}

/// The statistics a device computes over one minibatch in Device Routine 2:
/// the averaged regularized gradient `g̃ = (1/n) Σ ∇l + λw`, the number of
/// processed samples `n_s`, the misclassification count `n_e`, and the per-class
/// label counts `n_y^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinibatchStats {
    /// Averaged regularized gradient over the minibatch.
    pub gradient: Vector,
    /// Number of samples in the minibatch (`n_s`).
    pub num_samples: usize,
    /// Number of misclassified samples under the current parameters (`n_e`).
    pub num_errors: usize,
    /// Per-class label counts (`n_y^k`, length `C`).
    pub label_counts: Vec<u64>,
    /// Average per-sample loss over the minibatch (not transmitted; used for
    /// diagnostics and tests).
    pub mean_loss: f64,
}

/// Computes the Device Routine 2 statistics for a minibatch: predictions, error and
/// label counts, and the averaged gradient `g̃ = (1/n) Σ_i ∇l(x_i, y_i) + λ w`.
///
/// `holdout` optionally marks samples (by index) that are used only for error
/// estimation — their gradients are excluded from the average, matching Remark 2
/// of the paper.
pub fn minibatch_statistics<M: Model + ?Sized>(
    model: &M,
    params: &Vector,
    samples: &[Sample],
    lambda: f64,
    holdout: &[usize],
) -> Result<MinibatchStats> {
    if samples.is_empty() {
        return Err(LearningError::EmptyData);
    }
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LearningError::InvalidHyperparameter {
            name: "lambda",
            value: lambda,
        });
    }
    let mut gradient = Vector::zeros(model.param_dim());
    let mut num_errors = 0usize;
    let mut label_counts = vec![0u64; model.num_classes()];
    let mut loss_sum = 0.0;
    let mut grad_count = 0usize;

    for (i, s) in samples.iter().enumerate() {
        model.validate(&s.features, s.label)?;
        label_counts[s.label] += 1;
        let averaged = !holdout.contains(&i);
        let eval = model.evaluate_accumulate(
            params,
            &s.features,
            s.label,
            averaged.then_some(&mut gradient),
        )?;
        num_errors += usize::from(eval.predicted != s.label);
        loss_sum += eval.loss;
        grad_count += usize::from(averaged);
    }

    // Average, `+λw` and finiteness in one pass; each coordinate still sees
    // `g·(1/n)`, then `+ λ·w`. With every sample held out the sum stays `+0.0`.
    let inv = 1.0 / grad_count.max(1) as f64;
    let finite = if lambda > 0.0 {
        if params.len() != gradient.len() {
            return Err(LearningError::ShapeMismatch {
                reason: "regularization failed: parameter length mismatch".into(),
            });
        }
        gradient
            .iter_mut()
            .zip(params.iter())
            .fold(true, |ok, (g, &w)| {
                *g = *g * inv + lambda * w;
                ok & g.is_finite()
            })
    } else {
        gradient.iter_mut().fold(true, |ok, g| {
            *g *= inv;
            ok & g.is_finite()
        })
    };
    if !finite {
        return Err(LearningError::NumericalFailure {
            context: "minibatch gradient".into(),
        });
    }

    Ok(MinibatchStats {
        gradient,
        num_samples: samples.len(),
        num_errors,
        label_counts,
        mean_loss: loss_sum / samples.len() as f64,
    })
}

/// Numerically estimates the gradient of `model.loss` at `(params, x, y)` by
/// central finite differences. Used by tests and the Table I verification bench to
/// confirm the closed-form gradients.
pub fn finite_difference_gradient<M: Model + ?Sized>(
    model: &M,
    params: &Vector,
    x: &Vector,
    y: usize,
    step: f64,
) -> Result<Vector> {
    let mut grad = Vector::zeros(params.len());
    for i in 0..params.len() {
        let mut plus = params.clone();
        plus[i] += step;
        let mut minus = params.clone();
        minus[i] -= step;
        let f_plus = model.loss(&plus, x, y)?;
        let f_minus = model.loss(&minus, x, y)?;
        grad[i] = (f_plus - f_minus) / (2.0 * step);
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::BinaryLogistic;
    use crate::logistic::MulticlassLogistic;
    use crate::minibatch_reference;
    use crate::svm::MulticlassHinge;
    use crowd_linalg::Vector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples() -> Vec<Sample> {
        vec![
            Sample::new(Vector::from_vec(vec![0.5, 0.5]), 0),
            Sample::new(Vector::from_vec(vec![-0.5, 0.5]), 1),
            Sample::new(Vector::from_vec(vec![0.25, -0.75]), 2),
            Sample::new(Vector::from_vec(vec![0.9, 0.1]), 0),
        ]
    }

    #[test]
    fn minibatch_stats_counts_and_shape() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        let stats = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        assert_eq!(stats.num_samples, 4);
        assert_eq!(stats.label_counts, vec![2, 1, 1]);
        assert_eq!(stats.gradient.len(), model.param_dim());
        assert!(stats.mean_loss > 0.0);
        // With zero weights every class ties, argmax picks class 0, so labels 1 and
        // 2 are errors.
        assert_eq!(stats.num_errors, 2);
    }

    #[test]
    fn empty_minibatch_and_bad_lambda_rejected() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        assert_eq!(
            minibatch_statistics(&model, &w, &[], 0.0, &[]),
            Err(LearningError::EmptyData)
        );
        assert!(minibatch_statistics(&model, &w, &samples(), -0.1, &[]).is_err());
        assert!(minibatch_statistics(&model, &w, &samples(), f64::NAN, &[]).is_err());
    }

    #[test]
    fn holdout_excludes_gradient_but_not_error_counting() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let w = model.init_params();
        let all = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        let held = minibatch_statistics(&model, &w, &samples(), 0.0, &[0, 1, 2, 3]).unwrap();
        // All gradients held out: averaged gradient is zero, errors still counted.
        assert_eq!(held.gradient.norm_l1(), 0.0);
        assert_eq!(held.num_errors, all.num_errors);
        assert_eq!(held.num_samples, 4);
    }

    #[test]
    fn regularization_adds_lambda_w() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut w = model.init_params();
        for i in 0..w.len() {
            w[i] = 0.1 * (i as f64 + 1.0);
        }
        let without = minibatch_statistics(&model, &w, &samples(), 0.0, &[]).unwrap();
        let with = minibatch_statistics(&model, &w, &samples(), 0.5, &[]).unwrap();
        let diff = &with.gradient - &without.gradient;
        let expected = w.scaled(0.5);
        assert!((diff.distance(&expected).unwrap()) < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        assert!(model.validate(&Vector::zeros(3), 1).is_ok());
        assert!(model.validate(&Vector::zeros(2), 1).is_err());
        assert!(model.validate(&Vector::zeros(3), 2).is_err());
    }

    /// Requires the accumulate path and the frozen scratch path to agree:
    /// gradient and mean loss bit for bit, counts exactly, errors in full.
    fn assert_matches_frozen(
        model: &dyn Model,
        params: &Vector,
        samples: &[Sample],
        lambda: f64,
        holdout: &[usize],
    ) -> Result<MinibatchStats> {
        let new = minibatch_statistics(model, params, samples, lambda, holdout);
        let old =
            minibatch_reference::minibatch_statistics(model, params, samples, lambda, holdout);
        match (&new, &old) {
            (Ok(n), Ok(o)) => {
                let bits = |v: &Vector| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&n.gradient), bits(&o.gradient));
                assert_eq!(n.mean_loss.to_bits(), o.mean_loss.to_bits());
                assert_eq!(
                    (n.num_samples, n.num_errors, &n.label_counts),
                    (o.num_samples, o.num_errors, &o.label_counts)
                );
            }
            _ => assert_eq!(new, old),
        }
        new
    }

    /// The three models over `dim` features (`classes` for the multiclass
    /// ones).
    fn models(dim: usize, classes: usize) -> Vec<Box<dyn Model>> {
        vec![
            Box::new(MulticlassLogistic::new(dim, classes).unwrap()),
            Box::new(BinaryLogistic::new(dim).unwrap()),
            Box::new(MulticlassHinge::new(dim, classes).unwrap()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accumulated_minibatch_is_bitwise_the_frozen_scratch_path(
            seed in any::<u64>(),
            b in 1usize..=32,
            kind in 0usize..3,
            regularize in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(1..=8);
            let model = models(dim, rng.gen_range(2..=5)).swap_remove(kind);
            let lambda = if regularize { rng.gen_range(0.001..1.0) } else { 0.0 };
            // Large scales saturate the softmax and the hinges, so whole
            // classes get a coefficient of exactly 0.
            let scale = [0.1, 1.0, 30.0, 1000.0][rng.gen_range(0..4usize)];
            let params = Vector::from_vec(
                (0..model.param_dim()).map(|_| scale * rng.gen_range(-1.0..1.0)).collect(),
            );
            let samples: Vec<Sample> = (0..b)
                .map(|_| {
                    let x = (0..dim)
                        .map(|_| match rng.gen_range(0..4usize) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-1.0..1.0),
                        })
                        .collect();
                    Sample::new(Vector::from_vec(x), rng.gen_range(0..model.num_classes()))
                })
                .collect();
            // Any subset, possibly every sample, possibly with repeats.
            let holdout: Vec<usize> =
                (0..rng.gen_range(0..=b)).map(|_| rng.gen_range(0..b)).collect();
            let stats = assert_matches_frozen(&*model, &params, &samples, lambda, &holdout);
            prop_assert!(stats.is_ok());
        }
    }

    #[test]
    fn frozen_path_agrees_on_signed_zeros_and_zero_coefficients() {
        // Row 0 scores +1000 and every other row −1000 on feature 0, with the
        // label on the winning class: the softmax saturates to exactly 1 and
        // 0, every hinge is inactive, and the binary sigmoid rounds to 1, so
        // every class coefficient is exactly 0. The other features are ±0.0.
        let x = Vector::from_vec(vec![1.0, -0.0, 0.0, -0.0]);
        for model in models(4, 3) {
            let params = Vector::from_vec(
                (0..model.param_dim())
                    .map(|j| match (j % 4, j < 4) {
                        (0, true) => 1000.0,
                        (0, false) => -1000.0,
                        _ => 0.0,
                    })
                    .collect(),
            );
            let label = if model.num_classes() == 2 { 1 } else { 0 };
            let saturated = vec![Sample::new(x.clone(), label)];
            let mixed = vec![
                Sample::new(x.clone(), label),
                Sample::new(Vector::from_vec(vec![-0.0, 0.5, -0.0, -0.25]), 0),
                Sample::new(Vector::from_vec(vec![0.0, -0.0, 0.0, -0.0]), 1),
            ];
            for lambda in [0.0, 0.5] {
                let zero =
                    assert_matches_frozen(&*model, &params, &saturated, lambda, &[]).unwrap();
                if lambda == 0.0 {
                    assert!(zero.gradient.iter().all(|g| g.to_bits() == 0));
                }
                assert_matches_frozen(&*model, &params, &mixed, lambda, &[]).unwrap();
                assert_matches_frozen(&*model, &params, &mixed, lambda, &[1]).unwrap();
            }
        }
    }

    #[test]
    fn frozen_path_agrees_on_every_error() {
        let nan = Sample::new(Vector::from_vec(vec![f64::NAN, 0.5, 0.25]), 1);
        let fine = Sample::new(Vector::from_vec(vec![0.5, -0.5, 0.0]), 0);
        for (kind, model) in models(3, 3).into_iter().enumerate() {
            let params = Vector::from_vec(vec![0.3; model.param_dim()]);
            let batch = [fine.clone(), nan.clone()];
            let check = |params: &Vector, samples: &[Sample], lambda: f64, holdout: &[usize]| {
                assert_matches_frozen(&*model, params, samples, lambda, holdout)
            };
            // A NaN margin activates no hinge, so only the logistic models'
            // gradients turn non-finite.
            let poisoned = check(&params, &batch, 0.1, &[]);
            assert_eq!(
                matches!(poisoned, Err(LearningError::NumericalFailure { .. })),
                kind < 2
            );
            // Held out, the NaN sample never reaches the gradient.
            check(&params, &batch, 0.1, &[1]).unwrap();
            assert_eq!(check(&params, &[], 0.1, &[]), Err(LearningError::EmptyData));
            assert!(matches!(
                check(&params, &batch, -0.1, &[]),
                Err(LearningError::InvalidHyperparameter { .. })
            ));
            let short = Vector::zeros(model.param_dim() - 1);
            for lambda in [0.0, 0.1] {
                assert!(matches!(
                    check(&short, std::slice::from_ref(&fine), lambda, &[]),
                    Err(LearningError::ShapeMismatch { .. })
                ));
            }
        }
    }
}
