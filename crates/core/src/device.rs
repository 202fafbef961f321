//! Device-side state machine: Device Routines 1–3 of Algorithm 1.
//!
//! A [`Device`] buffers locally generated samples (Routine 1), asks for a checkout
//! once the buffer reaches the minibatch size `b`, and — when the server's
//! parameters arrive — computes the averaged regularized gradient, the
//! misclassification count, and the label counts over its buffer, sanitizes them
//! (Routine 3 via [`crate::privacy::Sanitizer`]), and produces a
//! [`CheckinPayload`] to upload (Routine 2). Failed checkouts simply leave the
//! buffer intact so the device retries later (Remark 1 of the paper).

use crate::config::{DeviceConfig, PrivacyConfig};
use crate::error::CoreError;
use crate::privacy::Sanitizer;
use crate::Result;
use crowd_data::Sample;
use crowd_learning::model::{minibatch_statistics, Model};
use crowd_linalg::{GradientUpdate, QuantizedVector, Vector};
use rand::Rng;

/// What a device did with an observed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceAction {
    /// The sample was added to the buffer; nothing else to do yet.
    Buffered,
    /// The buffer is at its maximum size `B`; the sample was discarded
    /// ("stop collection to prevent resource outage").
    Dropped,
    /// The buffer has reached the minibatch size: the device should check out the
    /// current parameters from the server.
    RequestCheckout,
}

/// The sanitized statistics a device uploads at checkin
/// (`ĝ`, `n_s`, `n̂_e`, `n̂_y^k` plus bookkeeping).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckinPayload {
    /// The uploading device's id.
    pub device_id: u64,
    /// Server iteration at which the parameters used for this gradient were read.
    pub checkout_iteration: u64,
    /// Duplicate-detection nonce, unique per checkin within a device (0 = no
    /// dedup requested). Devices number their checkins 1, 2, 3, …; a retry of
    /// the same payload carries the same nonce, which is what lets the server
    /// apply and ε-charge a retried upload exactly once.
    pub nonce: u64,
    /// The sanitized averaged gradient `ĝ`, in whichever representation the
    /// device chose for the wire (dense, or sparse when mostly exact zeros).
    pub gradient: GradientUpdate,
    /// The number of samples `n_s` the statistics were computed from.
    pub num_samples: usize,
    /// The sanitized misclassification count `n̂_e`.
    pub error_count: i64,
    /// The sanitized per-class label counts `n̂_y^k`.
    pub label_counts: Vec<i64>,
}

/// A Crowd-ML device.
#[derive(Debug, Clone)]
pub struct Device {
    id: u64,
    config: DeviceConfig,
    privacy: PrivacyConfig,
    buffer: Vec<Sample>,
    awaiting_params: bool,
    samples_observed: u64,
    samples_dropped: u64,
    checkins_completed: u64,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(id: u64, config: DeviceConfig, privacy: PrivacyConfig) -> Result<Self> {
        config.validate()?;
        Ok(Device {
            id,
            config,
            privacy,
            buffer: Vec::with_capacity(config.minibatch_size),
            awaiting_params: false,
            samples_observed: 0,
            samples_dropped: 0,
            checkins_completed: 0,
        })
    }

    /// The device id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of samples currently buffered.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Total samples observed (buffered or dropped).
    pub fn samples_observed(&self) -> u64 {
        self.samples_observed
    }

    /// Samples dropped because the buffer was full.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Completed checkins.
    pub fn checkins_completed(&self) -> u64 {
        self.checkins_completed
    }

    /// Whether the device has requested a checkout and is waiting for parameters.
    pub fn is_awaiting_params(&self) -> bool {
        self.awaiting_params
    }

    /// Whether the buffer has reached the minibatch size (and the device is not
    /// already waiting on a checkout).
    pub fn ready_for_checkout(&self) -> bool {
        !self.awaiting_params && self.buffer.len() >= self.config.minibatch_size
    }

    /// Device Routine 1: receive one sample.
    pub fn observe(&mut self, sample: Sample) -> DeviceAction {
        self.samples_observed += 1;
        if self.buffer.len() >= self.config.max_buffer {
            self.samples_dropped += 1;
            return DeviceAction::Dropped;
        }
        self.buffer.push(sample);
        if self.ready_for_checkout() {
            DeviceAction::RequestCheckout
        } else {
            DeviceAction::Buffered
        }
    }

    /// Marks the device as having issued a checkout request. Returns an error if a
    /// checkout is already outstanding.
    pub fn begin_checkout(&mut self) -> Result<()> {
        if self.awaiting_params {
            return Err(CoreError::Protocol(format!(
                "device {} already has an outstanding checkout",
                self.id
            )));
        }
        self.awaiting_params = true;
        Ok(())
    }

    /// Abandons an outstanding checkout (e.g. after a network failure), keeping
    /// the buffered samples so the device can retry later.
    pub fn abort_checkout(&mut self) {
        self.awaiting_params = false;
    }

    /// Device Routines 2 and 3: given the parameters received from the server,
    /// compute the minibatch statistics over the buffered samples, sanitize them,
    /// clear the buffer, and return the payload to upload.
    ///
    /// `lambda` is the regularization strength of the global risk (Eq. 2);
    /// `checkout_iteration` is the server iteration tagged on the parameters.
    pub fn compute_checkin<M: Model + ?Sized, R: Rng + ?Sized>(
        &mut self,
        model: &M,
        params: &Vector,
        checkout_iteration: u64,
        lambda: f64,
        rng: &mut R,
    ) -> Result<CheckinPayload> {
        if self.buffer.is_empty() {
            return Err(CoreError::Protocol(format!(
                "device {} has no buffered samples to check in",
                self.id
            )));
        }

        let (holdout, sanitizer) = self.holdout_and_sanitizer(rng)?;
        let stats = minibatch_statistics(model, params, &self.buffer, lambda, &holdout)?;
        let sanitized =
            sanitizer.sanitize_owned(rng, stats.gradient, stats.num_errors, &stats.label_counts);

        self.buffer.clear();
        self.awaiting_params = false;
        self.checkins_completed += 1;

        // Wire v5: a DP-noised gradient whose Laplace scale dominates the
        // i16 quantization step ships as stochastically rounded fixed-point
        // levels — 2 bytes per coordinate instead of 8, with rounding error
        // provably below the noise already injected. Otherwise ship the
        // lossless encoding (sparse when the measured density makes it
        // smaller on the wire; noised gradients are always dense). Without
        // noise the rule can never hold, so max|g| is not even folded.
        let noise_scale = sanitizer.gradient_noise_scale();
        let quantize = noise_scale > 0.0 && {
            let max_abs = sanitized
                .gradient
                .iter()
                .fold(0.0_f64, |m, &v| m.max(v.abs()));
            let quant_step = max_abs / f64::from(crowd_linalg::quant::QMAX);
            crowd_dp::noise_dominates_quantization(noise_scale, quant_step)
        };
        let gradient = if quantize {
            GradientUpdate::Quantized(
                QuantizedVector::quantize_stochastic(sanitized.gradient.as_slice(), rng)
                    .map_err(|e| CoreError::Protocol(e.to_string()))?,
            )
        } else {
            GradientUpdate::from_dense_auto(sanitized.gradient)
        };

        Ok(CheckinPayload {
            device_id: self.id,
            checkout_iteration,
            // 1-based checkin counter: unique within the device for the whole
            // run (and deterministic), never the "no dedup" sentinel 0.
            nonce: self.checkins_completed,
            gradient,
            num_samples: stats.num_samples,
            error_count: sanitized.error_count,
            label_counts: sanitized.label_counts,
        })
    }

    /// Remark 2: optionally sets aside a random fraction of the buffer as
    /// held-out samples whose gradients are excluded from the average, and
    /// calibrates the sanitizer to the `b − h` samples the gradient *does*
    /// average — its L1 sensitivity is `4/(b − h)`, not `4/b`.
    fn holdout_and_sanitizer<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(Vec<usize>, Sanitizer)> {
        let holdout: Vec<usize> = if self.config.holdout_fraction > 0.0 {
            let count =
                ((self.buffer.len() as f64) * self.config.holdout_fraction).floor() as usize;
            let mut indices: Vec<usize> = (0..self.buffer.len()).collect();
            for i in (1..indices.len()).rev() {
                let j = rng.gen_range(0..=i);
                indices.swap(i, j);
            }
            indices.truncate(count.min(self.buffer.len().saturating_sub(1)));
            indices
        } else {
            Vec::new()
        };
        let sanitizer = Sanitizer::new(&self.privacy, self.buffer.len() - holdout.len())?;
        Ok((holdout, sanitizer))
    }
}

#[cfg(test)]
mod checkin_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, PrivacyConfig};
    use crowd_learning::logistic::BinaryLogistic;
    use crowd_learning::svm::MulticlassHinge;
    use crowd_learning::MulticlassLogistic;
    use crowd_linalg::Vector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(label: usize) -> Sample {
        Sample::new(Vector::from_vec(vec![0.3, -0.7]), label)
    }

    fn device(b: usize) -> Device {
        Device::new(7, DeviceConfig::new(b), PrivacyConfig::non_private()).unwrap()
    }

    #[test]
    fn observe_triggers_checkout_at_minibatch_size() {
        let mut d = device(3);
        assert_eq!(d.observe(sample(0)), DeviceAction::Buffered);
        assert_eq!(d.observe(sample(1)), DeviceAction::Buffered);
        assert_eq!(d.observe(sample(2)), DeviceAction::RequestCheckout);
        assert!(d.ready_for_checkout());
        assert_eq!(d.buffer_len(), 3);
        assert_eq!(d.samples_observed(), 3);
    }

    #[test]
    fn buffer_bound_drops_samples() {
        let mut d = Device::new(
            1,
            DeviceConfig::new(2).with_max_buffer(2),
            PrivacyConfig::non_private(),
        )
        .unwrap();
        d.observe(sample(0));
        d.observe(sample(1));
        assert_eq!(d.observe(sample(2)), DeviceAction::Dropped);
        assert_eq!(d.samples_dropped(), 1);
        assert_eq!(d.buffer_len(), 2);
    }

    #[test]
    fn checkout_state_machine() {
        let mut d = device(1);
        d.observe(sample(0));
        assert!(d.begin_checkout().is_ok());
        assert!(d.is_awaiting_params());
        // Double checkout is a protocol error.
        assert!(d.begin_checkout().is_err());
        // While awaiting, new samples do not re-trigger a checkout.
        assert_eq!(d.observe(sample(1)), DeviceAction::Buffered);
        d.abort_checkout();
        assert!(!d.is_awaiting_params());
        assert!(d.ready_for_checkout());
    }

    #[test]
    fn compute_checkin_produces_payload_and_clears_buffer() {
        let mut d = device(2);
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let params = model.init_params();
        d.observe(sample(0));
        d.observe(sample(2));
        d.begin_checkout().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let payload = d
            .compute_checkin(&model, &params, 5, 0.0, &mut rng)
            .unwrap();
        assert_eq!(payload.device_id, 7);
        assert_eq!(payload.checkout_iteration, 5);
        assert_eq!(payload.num_samples, 2);
        assert_eq!(payload.label_counts.len(), 3);
        assert_eq!(payload.label_counts[0], 1);
        assert_eq!(payload.label_counts[2], 1);
        assert_eq!(payload.gradient.dim(), model.param_dim());
        assert_eq!(d.buffer_len(), 0);
        assert!(!d.is_awaiting_params());
        assert_eq!(d.checkins_completed(), 1);
    }

    #[test]
    fn checkin_without_samples_is_protocol_error() {
        let mut d = device(1);
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let params = model.init_params();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(d
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .is_err());
    }

    #[test]
    fn private_checkin_noise_changes_gradient() {
        let mut noisy = Device::new(
            1,
            DeviceConfig::new(1),
            PrivacyConfig::with_total_epsilon(0.5),
        )
        .unwrap();
        let mut clean = device(1);
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let params = model.init_params();
        noisy.observe(sample(1));
        clean.observe(sample(1));
        let mut rng = StdRng::seed_from_u64(2);
        let noisy_payload = noisy
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .unwrap();
        let clean_payload = clean
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .unwrap();
        assert_ne!(noisy_payload.gradient, clean_payload.gradient);
    }

    #[test]
    fn private_checkin_quantizes_when_noise_floor_dominates() {
        // ε = 0.5 over one checkin gives a Laplace scale far above the i16
        // quantization step of a unit-clipped gradient, so the lossy
        // encoding is provably safe and must be selected.
        let mut noisy = Device::new(
            1,
            DeviceConfig::new(1),
            PrivacyConfig::with_total_epsilon(0.5),
        )
        .unwrap();
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let params = model.init_params();
        noisy.observe(sample(1));
        let mut rng = StdRng::seed_from_u64(11);
        let payload = noisy
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .unwrap();
        assert!(
            matches!(payload.gradient, GradientUpdate::Quantized(_)),
            "DP-noised upload should select the quantized encoding"
        );
        assert_eq!(payload.gradient.dim(), model.param_dim());

        // A non-private device must never pay the quantization loss.
        let mut clean = device(1);
        clean.observe(sample(1));
        let payload = clean
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .unwrap();
        assert!(!matches!(payload.gradient, GradientUpdate::Quantized(_)));
    }

    #[test]
    fn holdout_fraction_excludes_gradients() {
        let config = DeviceConfig::new(4).with_holdout_fraction(0.99);
        let mut d = Device::new(1, config, PrivacyConfig::non_private()).unwrap();
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let params = model.init_params();
        for label in [0, 1, 2, 0] {
            d.observe(sample(label));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let payload = d
            .compute_checkin(&model, &params, 0, 0.0, &mut rng)
            .unwrap();
        // At least one sample always contributes a gradient (we never hold out all
        // of them), and the payload still reports the full sample count.
        assert_eq!(payload.num_samples, 4);
        assert!(payload.gradient.dim() == model.param_dim());
    }

    #[test]
    fn holdout_calibrates_noise_to_the_averaged_samples() {
        // Remark 2 with b = 20 and half held out: the gradient averages 10
        // samples, so its sensitivity — and the Laplace scale — is 4/10, not
        // 4/20. The payload still reports all 20 samples.
        let privacy = PrivacyConfig::with_total_epsilon(1.0);
        let config = DeviceConfig::new(20).with_holdout_fraction(0.5);
        let mut d = Device::new(1, config, privacy).unwrap();
        for i in 0..20 {
            d.observe(sample(i % 3));
        }
        let (holdout, sanitizer) = d
            .holdout_and_sanitizer(&mut StdRng::seed_from_u64(4))
            .unwrap();
        assert_eq!(holdout.len(), 10);
        let eps_g = privacy.budget.gradient.value();
        let expected = 4.0 / (10.0 * eps_g);
        assert!((sanitizer.gradient_noise_scale() - expected).abs() < 1e-12);
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let payload = d
            .compute_checkin(
                &model,
                &model.init_params(),
                0,
                0.0,
                &mut StdRng::seed_from_u64(4),
            )
            .unwrap();
        assert_eq!(payload.num_samples, 20);
    }

    /// Features with exact `+0.0` and `−0.0` coordinates mixed in.
    fn signed_zero_features(rng: &mut StdRng, dim: usize) -> Vector {
        Vector::from_vec(
            (0..dim)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect(),
        )
    }

    /// Runs the same checkin through `compute_checkin` and the frozen
    /// pre-in-place tail from identically seeded RNGs. Debug output is the
    /// comparison: it prints every finite `f64` in a round-trippable form
    /// (`-0.0` included), so equal strings mean equal bits — and a payload
    /// never carries a NaN.
    fn assert_matches_frozen(
        model: &dyn Model,
        privacy: PrivacyConfig,
        params: &Vector,
        samples: Vec<Sample>,
        lambda: f64,
        seed: u64,
    ) -> Result<CheckinPayload> {
        let mut device = Device::new(3, DeviceConfig::new(samples.len()), privacy).unwrap();
        for s in samples {
            device.observe(s);
        }
        device.begin_checkout().unwrap();
        let mut frozen = device.clone();
        let new =
            device.compute_checkin(model, params, 9, lambda, &mut StdRng::seed_from_u64(seed));
        let old = checkin_reference::compute_checkin(
            &mut frozen,
            model,
            params,
            9,
            lambda,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(format!("{new:?}"), format!("{old:?}"));
        new
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn checkin_payload_is_bitwise_the_frozen_tail(
            seed in any::<u64>(),
            b in 1usize..=32,
            kind in 0usize..3,
            private in any::<bool>(),
            regularize in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(1..=8);
            let classes = rng.gen_range(2..=5);
            let model: Box<dyn Model> = match kind {
                0 => Box::new(MulticlassLogistic::new(dim, classes).unwrap()),
                1 => Box::new(BinaryLogistic::new(dim).unwrap()),
                _ => Box::new(MulticlassHinge::new(dim, classes).unwrap()),
            };
            let privacy = if private {
                PrivacyConfig::with_total_epsilon(rng.gen_range(0.05..50.0))
            } else {
                PrivacyConfig::non_private()
            };
            let lambda = if regularize { rng.gen_range(0.001..1.0) } else { 0.0 };
            let scale = [0.1, 1.0, 30.0, 1000.0][rng.gen_range(0..4usize)];
            let params = Vector::from_vec(
                (0..model.param_dim()).map(|_| scale * rng.gen_range(-1.0..1.0)).collect(),
            );
            let samples = (0..b)
                .map(|_| {
                    let x = signed_zero_features(&mut rng, dim);
                    Sample::new(x, rng.gen_range(0..model.num_classes()))
                })
                .collect();
            prop_assert!(assert_matches_frozen(&*model, privacy, &params, samples, lambda, seed).is_ok());
        }
    }

    #[test]
    fn signed_zero_features_pick_the_frozen_wire_encoding() {
        // Half of every feature vector is exact ±0.0, so the non-private
        // gradient is sparse on the wire; the in-place path must count the
        // same exact zeros as the scratch path did.
        let model = MulticlassLogistic::new(8, 3).unwrap();
        let params = Vector::from_vec((0..24).map(|i| 0.1 * i as f64 - 1.0).collect());
        let samples = (0..6)
            .map(|i| {
                let v = 0.1 * (i + 1) as f64;
                Sample::new(
                    Vector::from_vec(vec![v, -0.0, 0.0, -v, -0.0, 0.5, 0.0, -0.0]),
                    i % 3,
                )
            })
            .collect::<Vec<_>>();
        for lambda in [0.0, 0.25] {
            let payload = assert_matches_frozen(
                &model,
                PrivacyConfig::non_private(),
                &params,
                samples.clone(),
                lambda,
                5,
            )
            .unwrap();
            // λw fills every coordinate; without it the zeros survive.
            assert_eq!(
                matches!(payload.gradient, GradientUpdate::Sparse(_)),
                lambda == 0.0
            );
        }
    }
}
