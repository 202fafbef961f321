//! The device round's core stages stated plainly, bit for bit what the fast
//! paths compute: Device Routine 3 with the sanitizer of Eqs. 10–12
//! ([`checkin`], against [`crate::device::Device::compute_checkin`]) and
//! Server Routine 2's projected step of Eq. 3 ([`apply`], against
//! [`crate::server::Server::apply_aggregate`]). Only tests, and other crates'
//! `spec` functions, call them.

use crate::config::PrivacyConfig;
use crate::device::CheckinPayload;
use crate::error::CoreError;
use crate::Result;
use crowd_data::Sample;
use crowd_learning::dp::sensitivity::averaged_logistic_gradient;
use crowd_learning::dp::{
    noise_dominates_quantization, DiscreteLaplaceMechanism, LaplaceMechanism,
};
use crowd_learning::model::Model;
use crowd_learning::spec::minibatch_statistics;
use crowd_linalg::ops::project_l2_ball;
use crowd_linalg::quant::QMAX;
use crowd_linalg::{GradientUpdate, QuantizedVector, Vector};
use rand::Rng;

/// Device Routines 2 and 3 on one minibatch.
///
/// 1. Remark 2's hold-out: a shuffle of the sample indices (Fisher–Yates,
///    drawn from `rng`) keeps its first `⌊b·holdout_fraction⌋` (at most
///    `b − 1`) out of the gradient.
/// 2. Device Routine 2's statistics ([`crowd_learning::spec::minibatch_statistics`]).
/// 3. The sanitizer, drawing in this order: Laplace noise of scale
///    `4/(b′·ε_g)` on every gradient coordinate (Eq. 10), where `b′` is the
///    number of samples the gradient averages; discrete Laplace noise on the
///    error count (Eq. 11); then on each label count (Eq. 12).
/// 4. The wire encoding: stochastic `i16` quantization when the noise scale
///    dominates the quantization step `max|ĝ|/QMAX`, otherwise dense or
///    sparse, whichever is smaller.
///
/// Every model is calibrated to `4/b′`, the bound Theorem 1 proves for the
/// averaged multiclass-logistic gradient, the hinge and binary models
/// included: an open gap (crowd-epsilon in `ROADMAP.md`).
///
/// `device_id`, `checkout_iteration` and `nonce` are bookkeeping Routine 3
/// does not compute; they come back as 0 for the caller to fill in.
pub fn checkin<M: Model + ?Sized, R: Rng + ?Sized>(
    model: &M,
    params: &Vector,
    minibatch: &[Sample],
    privacy: &PrivacyConfig,
    holdout_fraction: f64,
    lambda: f64,
    rng: &mut R,
) -> Result<CheckinPayload> {
    let b = minibatch.len();
    let mut holdout: Vec<usize> = Vec::new();
    if holdout_fraction > 0.0 {
        holdout = (0..b).collect();
        for i in (1..b).rev() {
            let j = rng.gen_range(0..=i);
            holdout.swap(i, j);
        }
        let count = (b as f64 * holdout_fraction).floor() as usize;
        holdout.truncate(count.min(b.saturating_sub(1)));
    }

    let stats = minibatch_statistics(model, params, minibatch, lambda, &holdout)?;
    let budget = &privacy.budget;
    let gradient_noise = LaplaceMechanism::new(
        budget.gradient,
        averaged_logistic_gradient(b - holdout.len()),
    )?;
    let gradient = gradient_noise.perturb_vector(rng, &stats.gradient);
    let error_count = DiscreteLaplaceMechanism::new(budget.error_count)
        .perturb_count(rng, stats.num_errors as i64);
    let label_noise = DiscreteLaplaceMechanism::new(budget.label_count);
    let label_counts = stats
        .label_counts
        .iter()
        .map(|&c| label_noise.perturb_count(rng, c as i64))
        .collect();

    let max_abs = gradient.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let gradient =
        if noise_dominates_quantization(gradient_noise.scale(), max_abs / f64::from(QMAX)) {
            GradientUpdate::Quantized(
                QuantizedVector::quantize_stochastic(gradient.as_slice(), rng)
                    .map_err(|e| CoreError::Protocol(e.to_string()))?,
            )
        } else {
            GradientUpdate::from_dense_auto(gradient)
        };
    Ok(CheckinPayload {
        device_id: 0,
        checkout_iteration: 0,
        nonce: 0,
        gradient,
        num_samples: stats.num_samples,
        error_count,
        label_counts,
    })
}

/// Server Routine 2's update on one epoch, Eq. 3 on the epoch's mean
/// gradient: `w ← Π_W[w − η·(Σĝ)/k]` for the `k` checkins summed in
/// `gradient_sum`, with `Π_W` the projection onto the L2 ball of radius
/// `radius` (the zero vector when `radius ≤ 0`). The mean is `Σĝ · (1/k)`,
/// so one checkin (`k = 1`) takes the paper's per-checkin step exactly.
pub fn apply(
    params: &[f64],
    gradient_sum: &[f64],
    checkin_count: u64,
    eta: f64,
    radius: f64,
) -> Vector {
    let inv_k = 1.0 / checkin_count as f64;
    let mut w: Vector = params
        .iter()
        .zip(gradient_sum)
        .map(|(&w, &g)| w + -eta * (g * inv_k))
        .collect();
    project_l2_ball(&mut w, radius);
    w
}
