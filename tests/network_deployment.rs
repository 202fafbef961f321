//! Integration test of the TCP deployment: the networked cluster must learn the
//! same kind of model as the in-process simulation, with authentication enforced.
//!
//! Sandbox-friendliness: every server in these tests binds `127.0.0.1:0`
//! (ephemeral ports, no fixed-port collisions between parallel test runs), and
//! each test body runs under [`with_timeout`] so a wedged socket can never hang
//! CI — the watchdog fails the test instead.

use crowd_ml::core::config::{PrivacyConfig, ServerConfig};
use crowd_ml::data::partition::{partition, PartitionStrategy};
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::learning::metrics::error_rate;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::fault::FaultPlan;
use crowd_ml::net::{ChaosCluster, DeviceClient, NetError, ReactorServer};
use crowd_ml::proto::auth::{AuthToken, TokenRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Runs `body` on a worker thread and fails the test if it has not finished
/// within `limit`. The worker is detached on timeout (std threads cannot be
/// killed), which is fine: the test process is about to exit anyway.
fn with_timeout(limit: Duration, body: fn()) {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => {
            let _ = worker.join();
        }
        // The sender was dropped without sending: the body panicked. Re-raise
        // the original panic so the real assertion failure is reported.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("test exceeded its {limit:?} watchdog timeout")
        }
    }
}

#[test]
fn tcp_cluster_learns_with_privacy() {
    with_timeout(
        Duration::from_secs(120),
        tcp_cluster_learns_with_privacy_body,
    );
}

fn tcp_cluster_learns_with_privacy_body() {
    let dim = 10;
    let classes = 3;
    let mut rng = StdRng::seed_from_u64(5);
    let (train, test) = GaussianMixtureSpec::new(dim, classes)
        .with_train_size(900)
        .with_test_size(300)
        .with_mean_scale(2.5)
        .with_noise_std(0.6)
        .generate(&mut rng)
        .unwrap();
    let parts = partition(&train, 6, PartitionStrategy::Iid, &mut rng).unwrap();

    let cluster = ChaosCluster {
        minibatch: 10,
        privacy: PrivacyConfig::with_total_epsilon(20.0),
        server: ServerConfig::new().with_rate_constant(2.0),
        ..ChaosCluster::new(FaultPlan::fault_free(9))
    };
    let report = cluster.run_on(&parts).expect("cluster run");

    // One thread steps the fleet in a fixed order, so the same experiment
    // replays bit for bit, noise draws included.
    let replay = cluster.run_on(&parts).expect("replayed cluster run");
    let bits = |params: &[f64]| params.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(replay.params.as_slice()),
        bits(report.params.as_slice())
    );
    assert_eq!(replay.ledger, report.ledger);
    assert_eq!(replay.acked_checkins, report.acked_checkins);

    assert_eq!(report.total_samples, 900);
    assert_eq!(report.iterations, 90);
    let model = MulticlassLogistic::new(dim, classes).unwrap();
    let err = error_rate(&model, &report.params, &test).unwrap();
    assert!(err < 0.3, "networked private training error {err}");
}

#[test]
fn unauthenticated_devices_are_rejected() {
    with_timeout(
        Duration::from_secs(60),
        unauthenticated_devices_are_rejected_body,
    );
}

fn unauthenticated_devices_are_rejected_body() {
    let model = MulticlassLogistic::new(4, 2).unwrap();
    let tokens = TokenRegistry::with_derived_tokens(2, 1234);
    let handle = ReactorServer::start(model, ServerConfig::new(), tokens).expect("server start");

    // Correct token works.
    let good = DeviceClient::builder(handle.addr(), 1, AuthToken::derive(1, 1234)).build();
    assert!(good.checkout().is_ok());

    // Wrong secret and unknown device id are both rejected with a server error.
    let wrong_secret = DeviceClient::builder(handle.addr(), 1, AuthToken::derive(1, 9999)).build();
    assert!(matches!(
        wrong_secret.checkout(),
        Err(NetError::ServerError { .. })
    ));
    let unknown_device =
        DeviceClient::builder(handle.addr(), 7, AuthToken::derive(7, 1234)).build();
    assert!(matches!(
        unknown_device.checkout(),
        Err(NetError::ServerError { .. })
    ));

    handle.shutdown();
}
