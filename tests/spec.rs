//! The production device round against the composed spec pipeline.
//!
//! Seeded fleets run, in lockstep, through the production path
//! (`Device::compute_checkin`, the session's request builders, the wire
//! codec, `AggRuntime`) and through the `spec` function of every stage:
//! `core::spec::checkin` (Device Routines 2–3, Eqs. 10–12),
//! `proto::spec::decode` and `agg::spec::epoch`, or `rounds::spec::net_mask`
//! and `finalize_sum` over `rounds::spec::cohort`, and `core::spec::apply`
//! (Server Routine 2, Eq. 3). Both must end with the same parameters and ε
//! ledger, bit for bit.

use crowd_ml::agg::spec as agg_spec;
use crowd_ml::agg::AggRuntime;
use crowd_ml::core::config::{
    AggSettings, DeviceConfig, PrivacyConfig, RoundSettings, ServerConfig,
};
use crowd_ml::core::device::{CheckinPayload, Device};
use crowd_ml::core::server::{PendingSubmission, Server};
use crowd_ml::core::spec as core_spec;
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::data::Sample;
use crowd_ml::learning::model::Model;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::{GradientUpdate, QuantizedVector, SparseVector, Vector};
use crowd_ml::net::session::{CheckedOutParams, DeviceSession};
use crowd_ml::proto::message::{CheckinRequest, GradientPayload, RoundParams};
use crowd_ml::proto::spec as proto_spec;
use crowd_ml::proto::{codec, AuthToken, Message};
use crowd_ml::rounds::spec as rounds_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const FEATURES: usize = 6;
const CLASSES: usize = 3;
const DIM: usize = FEATURES * CLASSES;
const RATE: f64 = 1.5;
/// Small enough that Eq. 3's projection acts.
const RADIUS: f64 = 0.5;
const EPSILON_PER_CHECKIN: f64 = 0.25;

fn model() -> MulticlassLogistic {
    MulticlassLogistic::new(FEATURES, CLASSES).unwrap()
}

/// A seeded minibatch of four whose first three features are zero, so a
/// non-private gradient is sparse on the wire.
fn minibatch(seed: u64) -> Vec<Sample> {
    let spec = GaussianMixtureSpec::new(FEATURES, CLASSES)
        .with_train_size(4)
        .with_test_size(3);
    let (train, _) = spec.generate(&mut StdRng::seed_from_u64(seed)).unwrap();
    let zeroed = |s: &Sample| {
        (0..FEATURES)
            .map(|j| if j < 3 { 0.0 } else { s.features[j] })
            .collect()
    };
    train
        .iter()
        .map(|s| Sample::new(zeroed(s), s.label))
        .collect()
}

/// Even devices sanitize, so their gradients are quantized; odd ones do not.
fn privacy(d: u64) -> PrivacyConfig {
    if d.is_multiple_of(2) {
        PrivacyConfig::with_total_epsilon(1.0)
    } else {
        PrivacyConfig::non_private()
    }
}

fn device(d: u64) -> Device {
    Device::new(d, DeviceConfig::new(4), privacy(d)).unwrap()
}

/// Device `d`'s generator, the same in both pipelines.
fn rng(d: u64) -> StdRng {
    StdRng::seed_from_u64(0xD0 ^ d)
}

fn session(device_id: u64) -> DeviceSession {
    let token = AuthToken::derive(device_id, 7);
    DeviceSession { device_id, token }
}

/// Device Routines 1–3 in production: buffer `batch`, check out, check in.
fn checkin(
    device: &mut Device,
    batch: &[Sample],
    params: &Vector,
    iteration: u64,
    rng: &mut StdRng,
) -> CheckinPayload {
    for sample in batch {
        device.observe(sample.clone());
    }
    device.begin_checkout().unwrap();
    device
        .compute_checkin(&model(), params, iteration, 0.0, rng)
        .unwrap()
}

fn spec_checkin(d: u64, batch: &[Sample], params: &Vector, rng: &mut StdRng) -> CheckinPayload {
    core_spec::checkin(&model(), params, batch, &privacy(d), 0.0, 0.0, rng).unwrap()
}

fn request(decoded: crowd_ml::proto::Result<Message>) -> CheckinRequest {
    match decoded.unwrap() {
        Message::CheckinRequest(request) => request,
        other => panic!("expected a checkin request, got {other:?}"),
    }
}

/// A decoded free-run checkin as the runtime takes it.
fn payload_of(r: CheckinRequest) -> CheckinPayload {
    let gradient = match r.gradient {
        GradientPayload::Dense(values) => Vector::from_vec(values).into(),
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => SparseVector::new(dim as usize, indices, values)
            .unwrap()
            .into(),
        GradientPayload::Quantized { scale, levels } => {
            GradientUpdate::Quantized(QuantizedVector::from_parts(scale, levels).unwrap())
        }
        GradientPayload::Masked { .. } => panic!("a free-run checkin is not masked"),
    };
    CheckinPayload {
        device_id: r.device_id,
        checkout_iteration: r.checkout_iteration,
        nonce: r.nonce,
        gradient,
        num_samples: r.num_samples as usize,
        error_count: r.error_count,
        label_counts: r.label_counts,
    }
}

/// The production server, and the spec pipeline's.
fn servers(
    epoch_size: u64,
    rounds: Option<RoundSettings>,
) -> (AggRuntime<MulticlassLogistic>, SpecServer) {
    let mut config = ServerConfig::new()
        .with_rate_constant(RATE)
        .with_budget(EPSILON_PER_CHECKIN, f64::INFINITY)
        .with_agg(AggSettings {
            queue_bound: 256,
            epoch_size,
            retry_after_ms: 1,
            flush_idle_ms: 0,
        });
    config.radius = RADIUS;
    config.rounds = rounds;
    let runtime = AggRuntime::new(Server::new(model(), config).unwrap()).unwrap();
    let spec = SpecServer {
        params: model().init_params(),
        iteration: 0,
        ledger: BTreeMap::new(),
    };
    (runtime, spec)
}

struct SpecServer {
    params: Vector,
    iteration: u64,
    ledger: BTreeMap<u64, f64>,
}

impl SpecServer {
    /// Eq. 3 on one epoch of `k` checkins at `η(t) = c/√t`, and the ε
    /// charge of each `(device, checkins)` in it.
    fn apply(&mut self, sum: &[f64], k: u64, charged: impl Iterator<Item = (u64, u64)>) {
        for (device, checkins) in charged {
            *self.ledger.entry(device).or_insert(0.0) += EPSILON_PER_CHECKIN * checkins as f64;
        }
        self.iteration += 1;
        let eta = RATE / (self.iteration as f64).sqrt();
        self.params = core_spec::apply(self.params.as_slice(), sum, k, eta, RADIUS);
    }

    fn apply_epoch(&mut self, checkins: &[CheckinPayload]) {
        let epoch = agg_spec::epoch(checkins, DIM, CLASSES).unwrap();
        let charged = epoch.device_stats.iter().map(|d| (d.device_id, d.checkins));
        self.apply(epoch.gradient_sum.as_slice(), epoch.checkin_count, charged);
    }

    fn assert_matches(&self, runtime: &AggRuntime<MulticlassLogistic>) {
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ledger_bits =
            |l: &[(u64, f64)]| l.iter().map(|&(d, e)| (d, e.to_bits())).collect::<Vec<_>>();
        let ledger: Vec<(u64, f64)> = self.ledger.clone().into_iter().collect();
        assert_eq!(runtime.iteration(), self.iteration);
        assert_eq!(bits(&runtime.params()), bits(&self.params));
        assert_eq!(ledger_bits(&runtime.budget_ledger()), ledger_bits(&ledger));
    }
}

#[test]
fn free_run_in_epochs_is_bitwise_the_spec_pipeline() {
    // Fifteen checkins in epochs of four: the shutdown flush applies the
    // last three.
    let (runtime, mut spec) = servers(4, None);
    let mut fleet: Vec<_> = (0..5).map(|d| (d, device(d), rng(d), rng(d))).collect();
    let (mut waits, mut epoch, mut sparse, mut quantized) = (Vec::new(), Vec::new(), false, false);
    for step in 0..3 {
        for (d, device, rng, spec_rng) in &mut fleet {
            let (d, batch) = (*d, minibatch(10 * *d + step));
            let (params, iteration) = (runtime.params(), runtime.iteration());
            let payload = checkin(device, &batch, &params, iteration, rng);
            let wire = codec::encode(&session(d).checkin_request(payload));
            let upload = payload_of(request(codec::decode(&wire)));
            sparse |= matches!(upload.gradient, GradientUpdate::Sparse(_));
            quantized |= matches!(upload.gradient, GradientUpdate::Quantized(_));
            waits.push(runtime.submit(upload).unwrap());

            let payload = spec_checkin(d, &batch, &spec.params, spec_rng);
            let (checkout_iteration, nonce) = (spec.iteration, step + 1);
            let payload = CheckinPayload {
                device_id: d,
                checkout_iteration,
                nonce,
                ..payload
            };
            let wire = codec::encode(&session(d).checkin_request(payload));
            epoch.push(payload_of(request(proto_spec::decode(&wire))));
            if epoch.len() == 4 {
                // The epoch closed on this checkin: the next checkout reads
                // its update.
                for wait in waits.drain(..) {
                    assert!(wait.wait().unwrap().accepted);
                }
                spec.apply_epoch(&epoch);
                epoch.clear();
            }
        }
    }
    runtime.shutdown();
    for wait in waits {
        assert!(wait.wait().unwrap().accepted);
    }
    spec.apply_epoch(&epoch);
    assert!(sparse && quantized, "both lossless and quantized uploads");
    spec.assert_matches(&runtime);
}

#[test]
fn masked_round_with_a_dropout_is_bitwise_the_spec_pipeline() {
    let settings = RoundSettings::new(24).with_select_fraction(0.5);
    let (runtime, mut spec) = servers(1, Some(settings));
    let info = runtime.round_info().unwrap();
    let round = RoundParams {
        round_id: info.round_id,
        seed: info.seed,
        select_fraction: info.select_fraction,
        deadline_epochs: info.deadline_epochs,
        population: info.population,
    };
    let checked_out = CheckedOutParams {
        iteration: 0,
        params: runtime.params(),
        stopped: false,
        round: Some(round),
    };
    let (seed, cohort) = (info.seed, rounds_spec::cohort(info.seed, 24, 0.5));
    assert!(
        cohort.len() >= 10,
        "a ring cohort, so masks are sparse: {cohort:?}"
    );
    let mut survivors = Vec::new();
    // The cohort's second member drops out.
    for d in cohort.iter().copied().filter(|&d| d != cohort[1]) {
        let batch = minibatch(100 + d);
        let view = session(d).join(&checked_out).unwrap();
        assert_eq!(view.cohort, cohort);
        let payload = checkin(&mut device(d), &batch, &checked_out.params, 0, &mut rng(d));
        let share = session(d).submit_request(&view, &payload).unwrap();
        let r = request(codec::decode(&codec::encode(&share)));
        let GradientPayload::Masked { words } = r.gradient else {
            panic!("an unmasked share")
        };
        let submission = PendingSubmission {
            device_id: r.device_id,
            nonce: r.nonce,
            checkout_iteration: r.checkout_iteration,
            words,
            num_samples: r.num_samples,
            error_count: r.error_count,
            label_counts: r.label_counts,
        };
        let receipt = runtime.submit_round(r.round_id, submission).unwrap();
        assert!(receipt.accepted && !receipt.deduped);

        let gradient = spec_checkin(d, &batch, &spec.params, &mut rng(d))
            .gradient
            .to_dense();
        let mask = rounds_spec::net_mask(seed, d, &cohort, DIM);
        let words = gradient
            .iter()
            .zip(mask)
            .map(|(g, m)| g.to_bits().wrapping_add(m));
        survivors.push((d, words.collect()));
    }
    assert_eq!(runtime.iteration(), 0, "the round is still open");
    runtime.settle_rounds();

    let sum = rounds_spec::finalize_sum(seed, &cohort, &survivors, DIM).unwrap();
    let charged = survivors.iter().map(|&(d, _)| (d, 1));
    spec.apply(&sum, survivors.len() as u64, charged);
    spec.assert_matches(&runtime);
    runtime.shutdown();
}
