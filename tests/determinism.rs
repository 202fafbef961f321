//! Reproducibility guarantees: a fixed seed yields identical experiments,
//! different seeds yield different noise realizations, and the aggregation
//! runtime fed by concurrent devices reproduces the sequential aggregate bit
//! for bit.

use crowd_ml::agg::AggRuntime;
use crowd_ml::core::config::{AggSettings, PrivacyConfig, ServerConfig};
use crowd_ml::core::device::CheckinPayload;
use crowd_ml::core::experiment::{CrowdMlExperiment, ExperimentConfig};
use crowd_ml::core::server::Server;
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn experiment(seed: u64) -> CrowdMlExperiment {
    let spec = GaussianMixtureSpec::new(8, 3)
        .with_train_size(600)
        .with_test_size(150);
    let config = ExperimentConfig::builder()
        .devices(15)
        .minibatch(5)
        .privacy(PrivacyConfig::with_total_epsilon(2.0))
        .delay_delta(25.0)
        .eval_points(5)
        .seed(seed)
        .build();
    CrowdMlExperiment::gaussian_mixture(spec, config)
}

#[test]
fn same_seed_same_everything() {
    let a = experiment(77).run().expect("run a");
    let b = experiment(77).run().expect("run b");
    assert_eq!(a.curve, b.curve);
    assert_eq!(a.online_error, b.online_error);
    assert_eq!(a.server_iterations, b.server_iterations);

    // Baselines are deterministic too.
    let batch_a = experiment(77).run_central_batch().expect("batch a");
    let batch_b = experiment(77).run_central_batch().expect("batch b");
    assert_eq!(batch_a, batch_b);
}

#[test]
fn different_seeds_differ() {
    let a = experiment(1).run().expect("run 1");
    let b = experiment(2).run().expect("run 2");
    // Different data, partitioning, and noise: the curves should not coincide.
    assert_ne!(a.curve, b.curve);
}

const DETERMINISM_DIM: usize = 8;
const DETERMINISM_CLASSES: usize = 4;
const DETERMINISM_DEVICES: u64 = 12;
const DETERMINISM_CHECKINS: u64 = 4;

fn determinism_payload(device: u64, step: u64) -> CheckinPayload {
    let dim = DETERMINISM_DIM * DETERMINISM_CLASSES;
    let mut rng = StdRng::seed_from_u64(device * 7919 + step);
    CheckinPayload {
        device_id: device,
        checkout_iteration: step,
        nonce: 0,
        gradient: Vector::from_vec((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).into(),
        num_samples: 3,
        error_count: rng.gen_range(-2i64..3),
        label_counts: (0..DETERMINISM_CLASSES)
            .map(|_| rng.gen_range(0i64..3))
            .collect(),
    }
}

fn determinism_runtime(agg: AggSettings) -> AggRuntime<MulticlassLogistic> {
    let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
    let config = ServerConfig::new().with_rate_constant(1.5).with_agg(agg);
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// The runtime's epoch aggregate must not depend on thread interleaving:
/// concurrent device threads end in exactly the same parameters as one
/// thread submitting sequentially.
///
/// Epoch boundaries are pinned (one epoch covering every checkin, idle flush
/// disabled) so the only thing under test is what interleaving can change:
/// the order in which devices' gradients reach the accumulator.
#[test]
fn sharded_aggregation_matches_single_lock_bitwise() {
    let total = DETERMINISM_DEVICES * DETERMINISM_CHECKINS;

    // Sequential reference: one thread, one epoch.
    let sequential = determinism_runtime(AggSettings {
        queue_bound: 2 * total as usize,
        epoch_size: total,
        retry_after_ms: 1,
        flush_idle_ms: 0,
    });
    let mut waits = Vec::new();
    for device in 0..DETERMINISM_DEVICES {
        for step in 0..DETERMINISM_CHECKINS {
            waits.push(
                sequential
                    .submit(determinism_payload(device, step))
                    .expect("sequential submit"),
            );
        }
    }
    for wait in waits {
        assert!(wait.wait().expect("sequential outcome").accepted);
    }
    let expected_params = sequential.params();
    let expected_iteration = sequential.iteration();
    let expected_samples = sequential.total_samples();
    sequential.shutdown();

    // Concurrent run: one thread per device. A holder of the core lock runs
    // the queued checkins before its own, so each device's checkins
    // accumulate in submission order (the guarantee the live protocol gets
    // from devices awaiting their acks), while the 12 device threads still
    // race freely against each other — the nondeterminism the per-device
    // sums and fixed merge order must absorb.
    let sharded = Arc::new(determinism_runtime(AggSettings {
        queue_bound: 2 * total as usize,
        epoch_size: total,
        retry_after_ms: 1,
        flush_idle_ms: 0,
    }));
    let mut threads = Vec::new();
    for device in 0..DETERMINISM_DEVICES {
        let runtime = Arc::clone(&sharded);
        threads.push(std::thread::spawn(move || {
            // Each device's own checkins stay sequential (as the protocol
            // guarantees), but devices race freely against each other.
            let handles: Vec<_> = (0..DETERMINISM_CHECKINS)
                .map(|step| {
                    runtime
                        .submit(determinism_payload(device, step))
                        .expect("sharded submit")
                })
                .collect();
            for handle in handles {
                assert!(handle.wait().expect("sharded outcome").accepted);
            }
        }));
    }
    for thread in threads {
        thread.join().expect("device thread");
    }

    assert_eq!(sharded.iteration(), expected_iteration);
    assert_eq!(sharded.total_samples(), expected_samples);
    // Bit-for-bit: raw f64 comparison, no tolerance.
    assert_eq!(sharded.params().as_slice(), expected_params.as_slice());
    sharded.shutdown();
}

/// With the default per-checkin epochs (`epoch_size = 1`), the runtime applies
/// exactly the classic `Server::checkin` update: driving the same payloads
/// sequentially through both paths ends in bitwise identical parameters.
#[test]
fn runtime_epoch_size_one_matches_classic_server_bitwise() {
    let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
    let config = ServerConfig::new().with_rate_constant(1.5);
    let mut classic = Server::new(model, config.clone()).unwrap();
    let runtime = determinism_runtime(config.agg);

    for device in 0..DETERMINISM_DEVICES {
        for step in 0..DETERMINISM_CHECKINS {
            let payload = determinism_payload(device, step);
            let classic_outcome = classic.checkin(&payload).unwrap();
            let runtime_outcome = runtime.checkin(payload).unwrap();
            assert_eq!(classic_outcome.iteration, runtime_outcome.iteration);
            assert_eq!(classic_outcome.accepted, runtime_outcome.accepted);
        }
    }
    assert_eq!(classic.params().as_slice(), runtime.params().as_slice());
    assert_eq!(classic.total_samples(), runtime.total_samples());
    runtime.shutdown();
}

/// crowd-scope: instrumenting a deterministic run must not break its
/// determinism. Two identical seeded runs on logical-clock registries render
/// byte-identical text and JSON metric dumps — counters, gauges, and
/// histogram percentiles included.
#[test]
fn instrumented_runs_render_byte_identical_dumps() {
    use crowd_ml::telemetry::{Clock, Registry};

    fn run_once() -> (String, String) {
        let model = MulticlassLogistic::new(DETERMINISM_DIM, DETERMINISM_CLASSES).unwrap();
        let config = ServerConfig::new()
            .with_rate_constant(1.5)
            .with_budget(0.25, f64::INFINITY)
            .with_agg(AggSettings {
                queue_bound: 64,
                epoch_size: 1,
                retry_after_ms: 1,
                flush_idle_ms: 0,
            });
        let metrics = Arc::new(Registry::with_clock(Clock::logical()));
        let runtime = AggRuntime::with_instrumentation(
            Server::new(model, config).unwrap(),
            None,
            Arc::clone(&metrics),
        )
        .unwrap();
        for device in 0..DETERMINISM_DEVICES {
            for step in 0..DETERMINISM_CHECKINS {
                // Deterministic time: tick between checkins, never while one
                // is in flight, so every measured latency is reproducible.
                metrics.clock().advance(7);
                let wait = runtime
                    .submit(determinism_payload(device, step))
                    .expect("instrumented submit");
                assert!(wait.wait().expect("instrumented outcome").accepted);
            }
        }
        runtime.shutdown();
        let snap = metrics.snapshot();
        (snap.render_text(), snap.render_json())
    }

    let (text_a, json_a) = run_once();
    let (text_b, json_b) = run_once();
    assert_eq!(text_a, text_b, "text dumps must be byte-identical");
    assert_eq!(json_a, json_b, "JSON dumps must be byte-identical");
    assert!(text_a.contains("time base: logical"));
    // The dump reflects the run, not an empty registry.
    let total = DETERMINISM_DEVICES * DETERMINISM_CHECKINS;
    assert!(text_a.contains(&format!("counter checkins_applied {total}")));
    assert!(text_a.contains(&format!("counter epoch_merges {total}")));
    assert!(text_a.contains(&format!("hist eps_spend_microeps count={total}")));
}
