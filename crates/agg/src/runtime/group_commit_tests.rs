//! The group-commit contract of a durable [`AggRuntime`]: nothing gets out
//! before the commit that covers it, a crash loses only unacknowledged work,
//! a failed commit halts the runtime, and no ack is ever stranded.
//!
//! Where a test needs the window between apply and commit it holds the
//! `wal_commit` lock itself — it *is* the committer, so `crowd-agg` waits for
//! it and the submitters stage behind it — and once the test lets go,
//! `crowd-agg` commits what was staged.

use super::*;
use crowd_core::config::ServerConfig;
use crowd_learning::MulticlassLogistic;
use crowd_store::testutil::{break_wal, temp_dir};
use crowd_store::{codec, wal, RecoveryReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicUsize;

const PARAM_DIM: usize = 6;
const EPSILON: f64 = 0.25;
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

type Runtime = AggRuntime<MulticlassLogistic>;

fn model() -> MulticlassLogistic {
    MulticlassLogistic::new(2, 3).unwrap()
}

/// Per-checkin epochs and no idle flush: an ack can only come from a commit
/// `crowd-agg` performs.
fn volatile_config() -> ServerConfig {
    ServerConfig::new()
        .with_rate_constant(1.0)
        .with_budget(EPSILON, f64::INFINITY)
        .with_agg(AggSettings {
            queue_bound: 1024,
            epoch_size: 1,
            retry_after_ms: 1,
            flush_idle_ms: 0,
        })
}

fn durable_config(dir: &Path, snapshot_every: u64, fsync: bool) -> ServerConfig {
    volatile_config()
        .with_data_dir(dir)
        .with_snapshot_every(snapshot_every)
        .with_fsync(fsync)
}

fn open(config: &ServerConfig) -> (Runtime, RecoveryReport) {
    let (store, server, report) = Store::open(model(), config.clone()).unwrap();
    (AggRuntime::with_store(server, Some(store)).unwrap(), report)
}

fn durable(rt: &Runtime) -> &Durable {
    rt.inner.store.as_ref().expect("a durable runtime")
}

/// Payload `index` of a seeded stream, tagged with its index (as the checkout
/// iteration, which only feeds the staleness figure) so a WAL record names
/// the payload it logged.
fn payload(rng: &mut StdRng, device_id: u64, index: usize) -> CheckinPayload {
    CheckinPayload {
        device_id,
        checkout_iteration: index as u64,
        nonce: 0,
        gradient: Vector::from_vec((0..PARAM_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .into(),
        num_samples: 2,
        error_count: 1,
        label_counts: vec![1, 1, 0],
    }
}

/// Polls `done` every millisecond, for at least [`ACK_TIMEOUT`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    for _ in 0..ACK_TIMEOUT.as_millis() {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting until {what}");
}

fn unresolved(handle: &CompletionHandle) -> bool {
    matches!(handle.rx.try_recv(), Err(mpsc::TryRecvError::Empty))
}

#[test]
fn one_worker_commits_its_own_frame() {
    let dir = temp_dir("gc-single");
    let config = durable_config(&dir, 0, true);
    let (rt, _) = open(&config);
    let mut rng = StdRng::seed_from_u64(1);
    // No idle flush: the submitter stages, then `crowd-agg` commits.
    let outcome = rt
        .submit(payload(&mut rng, 0, 0))
        .unwrap()
        .wait_timeout(ACK_TIMEOUT)
        .unwrap();
    assert!(outcome.accepted);
    assert_eq!(outcome.iteration, 1);
    assert_eq!(rt.snapshot().iteration, 1);
    let stats = rt.stats();
    assert_eq!(stats.get("wal_appends"), 1);
    assert_eq!(stats.get("wal_frames"), 1);
    assert_eq!(stats.get("checkins_applied"), 1);
    rt.kill();
    let (rt, report) = open(&config);
    assert_eq!(report.replayed_epochs, 1);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn nothing_gets_out_between_apply_and_commit() {
    let dir = temp_dir("gc-window");
    let (rt, _) = open(&durable_config(&dir, 0, false));
    let mut rng = StdRng::seed_from_u64(2);
    let mut p = payload(&mut rng, 3, 0);
    p.nonce = 7;

    let gate = durable(&rt).wal_commit.lock();
    let handle = rt.submit(p.clone()).unwrap();
    wait_until("the epoch is applied", || rt.iteration() == 1);
    // Applied and staged, but not durable: no ack, no checkout of the new
    // parameters, no count, and a duplicate is still "in flight".
    assert!(unresolved(&handle));
    assert_eq!(rt.snapshot().iteration, 0);
    assert_eq!(rt.stats().get("checkins_applied"), 0);
    assert_eq!(rt.stats().get("wal_appends"), 0);
    assert!(matches!(
        rt.submit(p.clone()),
        Err(AggError::Busy { retry_after_ms: 1 })
    ));
    assert_eq!(rt.stats().get("dedup_inflight_busy"), 1);

    drop(gate);
    let original = handle.wait_timeout(ACK_TIMEOUT).unwrap();
    assert!(original.accepted);
    assert_eq!(rt.snapshot().iteration, 1);
    assert_eq!(rt.stats().get("checkins_applied"), 1);
    // After the commit the duplicate replays the original ack.
    let replayed = rt.checkin(p).unwrap();
    assert!(replayed.deduped);
    assert_eq!(
        CheckinReceipt {
            deduped: false,
            ..replayed
        },
        original
    );
    assert_eq!(rt.iteration(), 1);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_drops_what_is_staged_and_shutdown_commits_it() {
    for crash in [true, false] {
        let dir = temp_dir("gc-staged");
        let config = durable_config(&dir, 0, false);
        let (rt, _) = open(&config);
        let mut rng = StdRng::seed_from_u64(3);
        let gate = durable(&rt).wal_commit.lock();
        let handles: Vec<CompletionHandle> = (0..3)
            .map(|i| rt.submit(payload(&mut rng, i, i as usize)).unwrap())
            .collect();
        wait_until("all three are staged", || rt.iteration() == 3);
        if crash {
            // The kill begins while the frames sit on the stage.
            std::thread::scope(|scope| {
                scope.spawn(|| rt.kill());
                wait_until("the kill to begin", || {
                    rt.inner.crashed.load(Ordering::SeqCst)
                });
                drop(gate);
            });
        } else {
            drop(gate);
            rt.shutdown();
        }
        for handle in handles {
            match handle.wait_timeout(ACK_TIMEOUT) {
                Err(AggError::ShuttingDown) if crash => {}
                Ok(outcome) if !crash => assert!(outcome.accepted),
                other => panic!("crash = {crash}: unexpected {other:?}"),
            }
        }
        let (rt, _) = open(&config);
        assert_eq!(rt.iteration(), if crash { 0 } else { 3 });
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn many_submitters_all_resolve_and_share_commits() {
    const SUBMITTERS: u64 = 64;
    const ROUNDS: u64 = 8;
    let dir = temp_dir("gc-stress");
    // The first wave stages behind a held commit lock, so at least one commit
    // group is known to span many frames whatever the scheduler does after.
    // (The snapshot cadence exceeds that wave: a due snapshot waits for the
    // commit lock with the core lock held, and this committer polls the core.)
    let (rt, _) = open(&durable_config(&dir, 100, true));
    let gate = durable(&rt).wal_commit.lock();
    std::thread::scope(|scope| {
        for device in 0..SUBMITTERS {
            let rt = &rt;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(device);
                for step in 0..ROUNDS {
                    let outcome = rt
                        .submit(payload(&mut rng, device, step as usize))
                        .unwrap()
                        .wait_timeout(ACK_TIMEOUT)
                        .expect("every handle resolves without the idle flush");
                    assert!(outcome.accepted);
                }
            });
        }
        wait_until("the first wave is staged", || rt.iteration() == SUBMITTERS);
        assert_eq!(rt.stats().get("wal_appends"), 0);
        assert_eq!(rt.stats().get("checkins_applied"), 0);
        drop(gate);
    });
    let stats = rt.stats();
    let total = SUBMITTERS * ROUNDS;
    assert_eq!(stats.get("checkins_applied"), total);
    assert_eq!(stats.get("wal_frames"), total);
    assert_eq!(stats.histogram("wal_group_frames").unwrap().sum(), total);
    assert!(stats.histogram("wal_group_frames").unwrap().max() >= SUBMITTERS);
    assert!(
        stats.get("wal_appends") <= total - (SUBMITTERS - 1),
        "{} appends for {total} checkins",
        stats.get("wal_appends")
    );
    assert_eq!(stats.get("wal_errors"), 0);
    assert_eq!(rt.snapshot().iteration, total);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_commit_halts_the_runtime_and_acks_nothing() {
    let dir = temp_dir("gc-broken");
    let config = durable_config(&dir, 0, false);
    let (rt, _) = open(&config);
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..3 {
        assert!(
            rt.checkin(payload(&mut rng, i, i as usize))
                .unwrap()
                .accepted
        );
    }
    let durable_prefix = rt.inner.core.lock().server.export_state();

    let mut gate = durable(&rt).wal_commit.lock();
    break_wal(&mut gate.store).unwrap();
    let handles: Vec<CompletionHandle> = (3..8)
        .map(|i| {
            let mut p = payload(&mut rng, i, i as usize);
            p.nonce = 100 + i;
            rt.submit(p).unwrap()
        })
        .collect();
    wait_until("all five are staged", || rt.iteration() == 8);
    drop(gate);

    // Every waiter of the failed group fails; none is acknowledged.
    for handle in handles {
        assert!(matches!(
            handle.wait_timeout(ACK_TIMEOUT),
            Err(AggError::ShuttingDown)
        ));
    }
    let stats = rt.stats();
    assert_eq!(stats.get("wal_errors"), 1);
    assert_eq!(stats.get("checkins_applied"), 3);
    assert_eq!(rt.snapshot().iteration, 3);
    // Fatal for the runtime, not for one epoch: later submits are refused, a
    // retry of a dropped nonce included.
    let mut retry = payload(&mut rng, 3, 3);
    retry.nonce = 103;
    for p in [payload(&mut rng, 9, 9), retry] {
        assert!(matches!(rt.submit(p), Err(AggError::ShuttingDown)));
    }
    rt.shutdown();

    // No checkpoint was written over the failure: a restart replays exactly
    // the durable prefix.
    let (store, server, report) = Store::open(model(), config).unwrap();
    assert!(!report.from_snapshot);
    assert_eq!(report.replayed_epochs, 3);
    assert_eq!(server.export_state(), durable_prefix);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Which payload (by its index tag) each epoch record still in the WAL logged,
/// keyed by the iteration the epoch produced.
fn epochs_in_wal(dir: &Path) -> BTreeMap<u64, usize> {
    let mut logged = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        if wal::parse_segment_seq(&name).is_none() {
            continue;
        }
        for record in wal::read_segment(&path).unwrap().records {
            let record = codec::decode_epoch_record(&record).unwrap();
            logged.insert(
                record.pre_iteration + 1,
                record.epoch.min_checkout_iteration as usize,
            );
        }
    }
    logged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent submitters and a kill at a random point: what
    /// recovery rebuilds is the sequential run over some prefix of the applied
    /// epochs — bit for bit, ledger included — and the prefix covers every
    /// acknowledged checkin.
    #[test]
    fn kill_recovers_a_prefix_that_covers_every_ack(
        seed in 0u64..10_000,
        per_device in 3usize..10,
        kill_after in 0usize..40,
        cadence in 0usize..3,
    ) {
        const DEVICES: usize = 4;
        let dir = temp_dir("gc-prop");
        let config = durable_config(&dir, [0, 4, 9][cadence], false);
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads: Vec<CheckinPayload> = (0..DEVICES * per_device)
            .map(|index| payload(&mut rng, (index / per_device) as u64, index))
            .collect();

        let (rt, _) = open(&config);
        let acked = Mutex::new(BTreeMap::new());
        let settled = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for own in payloads.chunks(per_device) {
                let (rt, acked, settled) = (&rt, &acked, &settled);
                scope.spawn(move || {
                    for p in own {
                        let index = p.checkout_iteration as usize;
                        let outcome = rt.submit(p.clone()).and_then(|h| h.wait_timeout(ACK_TIMEOUT));
                        settled.fetch_add(1, Ordering::SeqCst);
                        match outcome {
                            Ok(outcome) => {
                                assert!(outcome.accepted);
                                acked.lock().insert(outcome.iteration, index);
                            }
                            Err(AggError::ShuttingDown) => {}
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
            let target = kill_after.min(payloads.len());
            wait_until("enough checkins settled", || settled.load(Ordering::SeqCst) >= target);
            rt.kill();
        });
        let applied = rt.iteration();
        let acked = acked.into_inner();
        drop(rt);

        // The order of the recovered prefix: acks name their epochs, and a
        // durable-but-unacknowledged tail (what a real crash between write
        // and ack leaves) would still be in the WAL. Where both speak, they
        // agree.
        let logged = epochs_in_wal(&dir);
        let (store, server, _) = Store::open(model(), config).unwrap();
        let n = server.iteration();
        prop_assert!(n <= applied, "recovered {n} of {applied} applied");
        if let Some((&last_acked, _)) = acked.last_key_value() {
            prop_assert!(last_acked <= n, "ack of epoch {last_acked} but recovered {n}");
        }
        let mut reference = Server::new(model(), volatile_config()).unwrap();
        let mut epochs_of = [0u32; DEVICES];
        for iteration in 1..=n {
            let index = match (acked.get(&iteration), logged.get(&iteration)) {
                (Some(a), Some(l)) => {
                    prop_assert_eq!(a, l);
                    *a
                }
                (Some(index), None) | (None, Some(index)) => *index,
                (None, None) => panic!("epoch {iteration} is neither acked nor in the WAL"),
            };
            epochs_of[index / per_device] += 1;
            reference
                .apply_aggregate(&EpochAggregate::from_payload(&payloads[index]))
                .unwrap();
        }
        let recovered = server.export_state();
        prop_assert_eq!(&recovered, &reference.export_state());
        let bits = |state: &crowd_core::ServerState| -> Vec<u64> {
            state.params.iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&recovered), bits(&reference.export_state()));
        let ledger: Vec<(u64, f64)> = (0..DEVICES)
            .filter(|&d| epochs_of[d] > 0)
            .map(|d| (d as u64, EPSILON * f64::from(epochs_of[d])))
            .collect();
        prop_assert_eq!(recovered.budget_ledger, ledger);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
