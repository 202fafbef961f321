//! The minibatch routine `model::minibatch_statistics` replaced, frozen as the
//! oracle of the differential tests in `model::tests`: every sample's
//! gradient is written into a zeroed scratch vector and `axpy`-ed into the
//! sum, and the scale by 1/n, the `+λw` and the finiteness check are three
//! separate passes. The per-sample step is the old `Model::evaluate_into`
//! default — `predict`, `loss`, `gradient_into` — which every model's fused
//! override matched bit for bit. Test-only — nothing outside `#[cfg(test)]`
//! may call it.

use crate::error::LearningError;
use crate::model::{MinibatchStats, Model};
use crate::Result;
use crowd_data::Sample;
use crowd_linalg::Vector;

/// Device Routine 2's statistics as computed before the accumulate path.
pub fn minibatch_statistics<M: Model + ?Sized>(
    model: &M,
    params: &Vector,
    samples: &[Sample],
    lambda: f64,
    holdout: &[usize],
) -> Result<MinibatchStats> {
    let mut scratch = Vector::zeros(model.param_dim());
    if samples.is_empty() {
        return Err(LearningError::EmptyData);
    }
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LearningError::InvalidHyperparameter {
            name: "lambda",
            value: lambda,
        });
    }
    let mut grad_sum = Vector::zeros(model.param_dim());
    let mut num_errors = 0usize;
    let mut label_counts = vec![0u64; model.num_classes()];
    let mut loss_sum = 0.0;
    let mut grad_count = 0usize;

    for (i, s) in samples.iter().enumerate() {
        model.validate(&s.features, s.label)?;
        label_counts[s.label] += 1;
        let predicted = model.predict(params, &s.features)?;
        let loss = model.loss(params, &s.features, s.label)?;
        model.gradient_into(params, &s.features, s.label, &mut scratch)?;
        if predicted != s.label {
            num_errors += 1;
        }
        loss_sum += loss;
        if holdout.contains(&i) {
            continue;
        }
        grad_sum
            .axpy(1.0, &scratch)
            .map_err(|e| LearningError::ShapeMismatch {
                reason: format!("gradient accumulation failed: {e}"),
            })?;
        grad_count += 1;
    }

    let mut gradient = grad_sum;
    if grad_count > 0 {
        gradient.scale(1.0 / grad_count as f64);
    }
    if lambda > 0.0 {
        gradient
            .axpy(lambda, params)
            .map_err(|e| LearningError::ShapeMismatch {
                reason: format!("regularization failed: {e}"),
            })?;
    }
    if !gradient.is_finite() {
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
