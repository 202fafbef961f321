//! Durability integration tests: crash recovery must be invisible.
//!
//! The contract under test is the strongest one the store can make: after a
//! crash at *any* point in a checkin stream, snapshot-load + WAL-replay
//! produces a server whose parameters, iteration, and per-device ε ledger are
//! **bitwise identical** to an uninterrupted run — and resuming the stream
//! lands on the exact same trajectory. A property test sweeps random crash
//! points (including torn WAL tails) at the store level, and a networked test
//! SIGKILL-style crashes a live TCP server mid-experiment and restarts it from
//! its data directory.

use crowd_ml::agg::AggRuntime;
use crowd_ml::core::config::ServerConfig;
use crowd_ml::core::device::CheckinPayload;
use crowd_ml::core::server::{EpochAggregate, Server, ServerState};
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::Vector;
use crowd_ml::net::{DeviceClient, ReactorServer};
use crowd_ml::proto::auth::{AuthToken, TokenRegistry};
use crowd_ml::store::testutil::temp_dir;
use crowd_ml::store::Store;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Duration;

const DIM: usize = 4;
const CLASSES: usize = 3;
const PARAM_DIM: usize = DIM * CLASSES;

fn model() -> MulticlassLogistic {
    MulticlassLogistic::new(DIM, CLASSES).unwrap()
}

/// The durable configuration under test: ε accounting on (the ledger must
/// survive), periodic snapshots so crash points land before, on, and after
/// snapshot boundaries.
fn durable_config(dir: &Path, snapshot_every: u64) -> ServerConfig {
    ServerConfig::new()
        .with_rate_constant(1.5)
        .with_budget(0.3, f64::INFINITY)
        .with_data_dir(dir)
        .with_snapshot_every(snapshot_every)
}

/// The same configuration without persistence: the uninterrupted reference.
fn volatile_config() -> ServerConfig {
    ServerConfig::new()
        .with_rate_constant(1.5)
        .with_budget(0.3, f64::INFINITY)
}

/// A deterministic checkin stream: same seed, same payloads, bit for bit.
fn stream(seed: u64, n: usize) -> Vec<CheckinPayload> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|step| CheckinPayload {
            device_id: step as u64 % 4,
            checkout_iteration: step as u64,
            nonce: 0,
            gradient: Vector::from_vec((0..PARAM_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        })
        .collect()
}

/// One durable checkin through the store protocol: WAL-append (write-ahead),
/// apply, snapshot when due — the same order `crowd-agg` uses.
fn durable_checkin(store: &mut Store, server: &mut Server<MulticlassLogistic>, p: &CheckinPayload) {
    let epoch = EpochAggregate::from_payload(p);
    let charges = server.epoch_charges(&epoch);
    store
        .log_epoch(server.iteration(), &epoch, &charges)
        .unwrap();
    server.apply_aggregate(&epoch).unwrap();
    if store.note_applied() {
        store.snapshot(&server.export_state()).unwrap();
    }
}

/// Reference states after every prefix of the stream, on a volatile server.
fn reference_states(payloads: &[CheckinPayload]) -> Vec<ServerState> {
    let mut server = Server::new(model(), volatile_config()).unwrap();
    let mut states = vec![server.export_state()];
    for p in payloads {
        server
            .apply_aggregate(&EpochAggregate::from_payload(p))
            .unwrap();
        states.push(server.export_state());
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at a random point in a random checkin stream: the recovered
    /// server must equal the uninterrupted run bit for bit — parameters,
    /// iteration, AND budget ledger — and resuming must land on the same
    /// final state.
    #[test]
    fn recovery_at_random_crash_point_is_bitwise_identical(
        seed in 0u64..10_000,
        n in 4usize..24,
        crash_num in 0u64..1_000,
        snapshot_every in 1u64..7,
    ) {
        let crash_after = (crash_num as usize) % (n + 1);
        let payloads = stream(seed, n);
        let reference = reference_states(&payloads);

        let dir = temp_dir("prop");
        let config = durable_config(&dir, snapshot_every);
        let (mut store, mut server, _) = Store::open(model(), config.clone()).unwrap();
        for p in &payloads[..crash_after] {
            durable_checkin(&mut store, &mut server, p);
        }
        // Crash: no checkpoint, no flush.
        drop(store);
        drop(server);

        let (mut store, mut server, report) = Store::open(model(), config).unwrap();
        let recovered = server.export_state();
        prop_assert_eq!(&recovered, &reference[crash_after]);
        // Bitwise, not approximately: compare the raw f64 bit patterns.
        let recovered_bits: Vec<u64> =
            recovered.params.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u64> =
            reference[crash_after].params.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(recovered_bits, reference_bits);
        prop_assert_eq!(recovered.iteration, crash_after as u64);
        prop_assert_eq!(
            &recovered.budget_ledger,
            &reference[crash_after].budget_ledger
        );
        prop_assert_eq!(report.skipped_epochs, 0);

        // Resuming the stream reproduces the uninterrupted trajectory exactly.
        for p in &payloads[crash_after..] {
            durable_checkin(&mut store, &mut server, p);
        }
        prop_assert_eq!(&server.export_state(), &reference[n]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash that tears the final WAL record (partial append) recovers to
    /// the last complete epoch — still bitwise equal to the reference at that
    /// iteration.
    #[test]
    fn torn_wal_tail_recovers_to_last_complete_epoch(
        seed in 0u64..10_000,
        n in 2usize..12,
        tear in 1u64..40,
    ) {
        let payloads = stream(seed, n);
        let reference = reference_states(&payloads);

        let dir = temp_dir("torn");
        // No periodic snapshots: everything lives in the WAL, so the tear is
        // guaranteed to hit the only copy of the newest epoch.
        let config = durable_config(&dir, 0);
        let (mut store, mut server, _) = Store::open(model(), config.clone()).unwrap();
        for p in &payloads {
            durable_checkin(&mut store, &mut server, p);
        }
        let wal_path = dir.join(format!("wal-{:08}.log", store.wal_seq()));
        drop(store);
        drop(server);

        let len = std::fs::metadata(&wal_path).unwrap().len();
        let tear = tear.min(len.saturating_sub(8));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - tear)
            .unwrap();

        let (_store, server, report) = Store::open(model(), config).unwrap();
        let recovered = server.export_state();
        let iteration = recovered.iteration as usize;
        prop_assert!(iteration <= n);
        prop_assert_eq!(&recovered, &reference[iteration]);
        prop_assert!(report.torn_tail || iteration == n);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Durability before acknowledgement, seen from outside the runtime: at the
/// instant a checkin's handle resolves, a copy of the data directory — what a
/// crash at that instant would leave — already recovers the acknowledged
/// epoch, however the group commit batched it with its neighbours.
#[test]
fn acknowledged_epochs_are_already_on_disk() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 12;
    let dir = temp_dir("ack-durable");
    // No snapshot rotation: a file-by-file copy is only a faithful crash image
    // while the directory holds one append-only segment.
    let config = durable_config(&dir, 0).with_fsync(true);
    let (store, server, _) = Store::open(model(), config).unwrap();
    let rt = AggRuntime::with_store(server, Some(store)).unwrap();
    let payloads = stream(5, SUBMITTERS * PER_SUBMITTER);

    std::thread::scope(|scope| {
        for (submitter, own) in payloads.chunks(PER_SUBMITTER).enumerate() {
            let (rt, dir) = (&rt, &dir);
            scope.spawn(move || {
                for (step, p) in own.iter().enumerate() {
                    let outcome = rt
                        .submit(p.clone())
                        .unwrap()
                        .wait_timeout(Duration::from_secs(30))
                        .unwrap();
                    assert!(outcome.accepted);
                    if step % 3 != submitter % 3 {
                        continue;
                    }
                    let image = temp_dir("ack-image");
                    for entry in std::fs::read_dir(dir).unwrap() {
                        let entry = entry.unwrap();
                        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
                    }
                    let (_store, recovered, _) =
                        Store::open(model(), durable_config(&image, 0)).unwrap();
                    assert!(
                        recovered.iteration() >= outcome.iteration,
                        "acked epoch {} but the disk image recovers only {}",
                        outcome.iteration,
                        recovered.iteration()
                    );
                    std::fs::remove_dir_all(&image).unwrap();
                }
            });
        }
    });
    assert_eq!(rt.iteration(), (SUBMITTERS * PER_SUBMITTER) as u64);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `body` on a worker thread and fails the test if it has not finished
/// within `limit` (sandbox watchdog, as in `network_deployment.rs`).
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

/// The acceptance test: a live TCP server is crash-killed mid-experiment and
/// restarted from its data directory; training resumes on the same trajectory
/// (bitwise-identical final parameters vs. an uninterrupted server) and the
/// per-device ε spend survives the restart.
#[test]
fn tcp_server_killed_midway_resumes_identical_trajectory() {
    with_timeout(
        Duration::from_secs(120),
        tcp_server_killed_midway_resumes_identical_trajectory_body,
    );
}

fn tcp_server_killed_midway_resumes_identical_trajectory_body() {
    let n = 20;
    let crash_after = 8;
    let payloads = stream(11, n);
    let secret = 0xD00D;
    let tokens = || TokenRegistry::with_derived_tokens(4, secret);

    // One sequential client driving the stream keeps the epoch order (and so
    // the learning-rate schedule position) deterministic across runs.
    let drive = |addr, slice: &[CheckinPayload]| {
        for p in slice {
            let client =
                DeviceClient::builder(addr, p.device_id, AuthToken::derive(p.device_id, secret))
                    .build();
            assert!(client.checkin(p.clone()).unwrap().applied());
        }
    };

    // Uninterrupted reference over TCP, volatile server.
    let reference = ReactorServer::start(model(), volatile_config(), tokens()).unwrap();
    drive(reference.addr(), &payloads);
    assert_eq!(reference.iteration(), n as u64);
    let reference_params = reference.params();
    let reference_ledger = reference.budget_ledger();
    reference.shutdown();

    // Durable run: crash-kill after `crash_after` acknowledged checkins.
    let dir = temp_dir("tcp");
    let config = durable_config(&dir, 3);
    let server = ReactorServer::start(model(), config.clone(), tokens()).unwrap();
    drive(server.addr(), &payloads[..crash_after]);
    assert_eq!(server.iteration(), crash_after as u64);
    server.kill();

    // Restart from disk: recovery must report prior state, resume serving,
    // and the finished experiment must land on the reference bit for bit.
    let server = ReactorServer::start(model(), config, tokens()).unwrap();
    let report = server.recovery_report().unwrap().clone();
    assert!(report.recovered(), "restart must recover prior state");
    assert_eq!(server.iteration(), crash_after as u64);
    drive(server.addr(), &payloads[crash_after..]);
    assert_eq!(server.iteration(), n as u64);

    let final_bits: Vec<u64> = server.params().iter().map(|v| v.to_bits()).collect();
    let reference_bits: Vec<u64> = reference_params.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        final_bits, reference_bits,
        "recovered trajectory must be bitwise identical to the uninterrupted run"
    );
    // The ε spend of every device survived the crash and kept accumulating.
    assert_eq!(server.budget_ledger(), reference_ledger);
    assert!(!server.budget_ledger().is_empty());
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
