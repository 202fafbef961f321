//! The plain statement of Device Routine 2, bit for bit what
//! [`crate::model::minibatch_statistics`] computes. Only tests, and other
//! crates' `spec` functions, call it.
//!
//! Every sample's gradient is written into a scratch vector and added to a
//! sum that starts at `+0.0`; the scale by 1/n, the `+λw`, the finiteness
//! check and the non-zero count are separate passes. The per-sample step is
//! `predict`, `loss` and `gradient_into`, which every model's fused
//! `evaluate_accumulate` matches bit for bit.

use crate::error::LearningError;
use crate::model::{MinibatchStats, Model};
use crate::Result;
use crowd_data::Sample;
use crowd_linalg::Vector;

/// Device Routine 2: the prediction errors `n_e`, the label counts `n_y^k`
/// and the averaged regularized gradient `g̃ = (1/n) Σ_i ∇l(x_i, y_i) + λw`
/// over the `n` samples not in `holdout` (Remark 2), plus the mean loss.
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
    let dim = model.param_dim();
    let mut scratch = Vector::zeros(dim);
    let mut sum = vec![0.0; dim];
    let mut label_counts = vec![0u64; model.num_classes()];
    let (mut num_errors, mut loss_sum, mut n) = (0, 0.0, 0);
    for (i, s) in samples.iter().enumerate() {
        model.validate(&s.features, s.label)?;
        label_counts[s.label] += 1;
        num_errors += usize::from(model.predict(params, &s.features)? != s.label);
        loss_sum += model.loss(params, &s.features, s.label)?;
        model.gradient_into(params, &s.features, s.label, &mut scratch)?;
        if !holdout.contains(&i) {
            n += 1;
            for (total, g) in sum.iter_mut().zip(scratch.iter()) {
                *total += g;
            }
        }
    }

    if n > 0 {
        let inv_n = 1.0 / n as f64;
        sum.iter_mut().for_each(|g| *g *= inv_n);
    }
    if lambda > 0.0 {
        if params.len() != dim {
            let reason = "regularization failed: parameter length mismatch".into();
            return Err(LearningError::ShapeMismatch { reason });
        }
        for (g, w) in sum.iter_mut().zip(params.iter()) {
            *g += lambda * w;
        }
    }
    if !sum.iter().all(|g| g.is_finite()) {
        let context = "minibatch gradient".into();
        return Err(LearningError::NumericalFailure { context });
    }
    Ok(MinibatchStats {
        nonzero: sum.iter().filter(|g| g.to_bits() != 0).count(),
        gradient: Vector::from_vec(sum),
        num_samples: samples.len(),
        num_errors,
        label_counts,
        mean_loss: loss_sum / samples.len() as f64,
    })
}
