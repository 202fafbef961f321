//! The checkin tail `Device::compute_checkin` replaced, frozen as the oracle
//! of the differential tests in `device::tests`: the sanitizer is calibrated
//! to the whole buffer, the gradient is perturbed into a fresh copy (the old
//! `Sanitizer::sanitize` body, mechanisms inlined), and max|g| is folded
//! whether or not the payload can be quantized. The gradient itself comes
//! from today's `minibatch_statistics`, which `crowd-learning` holds bitwise
//! to its own frozen predecessor. Test-only — nothing outside `#[cfg(test)]`
//! may call it.

use super::{CheckinPayload, Device};
use crate::error::CoreError;
use crate::Result;
use crowd_dp::sensitivity::averaged_logistic_gradient;
use crowd_dp::{DiscreteLaplaceMechanism, LaplaceMechanism};
use crowd_learning::model::{minibatch_statistics, Model};
use crowd_linalg::{GradientUpdate, QuantizedVector, Vector};
use rand::Rng;

/// Device Routines 2 and 3 as they were before the in-place sanitize.
pub(super) fn compute_checkin<M: Model + ?Sized, R: Rng + ?Sized>(
    device: &mut Device,
    model: &M,
    params: &Vector,
    checkout_iteration: u64,
    lambda: f64,
    rng: &mut R,
) -> Result<CheckinPayload> {
    if device.buffer.is_empty() {
        return Err(CoreError::Protocol(format!(
            "device {} has no buffered samples to check in",
            device.id
        )));
    }

    let holdout: Vec<usize> = if device.config.holdout_fraction > 0.0 {
        let count =
            ((device.buffer.len() as f64) * device.config.holdout_fraction).floor() as usize;
        let mut indices: Vec<usize> = (0..device.buffer.len()).collect();
        for i in (1..indices.len()).rev() {
            let j = rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        indices.truncate(count.min(device.buffer.len().saturating_sub(1)));
        indices
    } else {
        Vec::new()
    };

    let stats = minibatch_statistics(model, params, &device.buffer, lambda, &holdout)?;
    let budget = &device.privacy.budget;
    let gradient_mechanism = LaplaceMechanism::new(
        budget.gradient,
        averaged_logistic_gradient(stats.num_samples),
    )
    .map_err(CoreError::Privacy)?;
    let counter_mechanism = DiscreteLaplaceMechanism::new(budget.error_count);
    let label_mechanism = DiscreteLaplaceMechanism::new(budget.label_count);
    let sanitized_gradient = gradient_mechanism.perturb_vector(rng, &stats.gradient);
    let error_count = counter_mechanism.perturb_count(rng, stats.num_errors as i64);
    let label_counts: Vec<i64> = stats
        .label_counts
        .iter()
        .map(|&c| label_mechanism.perturb_count(rng, c as i64))
        .collect();

    device.buffer.clear();
    device.awaiting_params = false;
    device.checkins_completed += 1;

    let max_abs = sanitized_gradient
        .iter()
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    let quant_step = max_abs / f64::from(crowd_linalg::quant::QMAX);
    let gradient = if crowd_dp::noise_dominates_quantization(gradient_mechanism.scale(), quant_step)
    {
        GradientUpdate::Quantized(
            QuantizedVector::quantize_stochastic(sanitized_gradient.as_slice(), rng)
                .map_err(|e| CoreError::Protocol(e.to_string()))?,
        )
    } else {
        GradientUpdate::from_dense_auto(sanitized_gradient)
    };

    Ok(CheckinPayload {
        device_id: device.id,
        checkout_iteration,
        nonce: device.checkins_completed,
        gradient,
        num_samples: stats.num_samples,
        error_count,
        label_counts,
    })
}
