//! Persistence-subsystem benches: WAL append throughput, group-commit
//! amortisation, and recovery time.
//!
//! The WAL commit sits on the checkin write path, so its cost bounds the
//! durable server's update rate; recovery time bounds how long a restarted
//! server is dark. Append and recovery are measured at several gradient
//! dimensionalities and WAL lengths, without fsync (the CI box measures the
//! code path, not its disk); `group_commit/fsync` turns fsync on, because the
//! curve it guards — one `fsync` covering 1, 8 or 64 staged epochs — is the
//! whole point of the group commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::config::ServerConfig;
use crowd_core::device::CheckinPayload;
use crowd_core::server::EpochAggregate;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_store::testutil::temp_dir;
use crowd_store::{Store, WalStage};
use std::hint::black_box;
use std::path::Path;

const CLASSES: usize = 4;

fn config(dir: &Path) -> ServerConfig {
    ServerConfig::new()
        .with_budget(0.1, f64::INFINITY)
        .with_data_dir(dir)
        // Periodic snapshots off: these benches isolate append and replay.
        .with_snapshot_every(0)
}

fn epoch(dim: usize, step: u64) -> EpochAggregate {
    EpochAggregate::from_payload(&CheckinPayload {
        device_id: step % 8,
        checkout_iteration: step,
        nonce: 0,
        gradient: Vector::from_vec((0..dim).map(|i| (i as f64 + 1.0) * 1e-4).collect()).into(),
        num_samples: 20,
        error_count: 2,
        label_counts: vec![5; CLASSES],
    })
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    // dim is the feature dimension; the logged gradient has dim × CLASSES
    // entries, matching what a real checkin of that model would carry.
    for &dim in &[50usize, 500, 5000] {
        let param_dim = dim * CLASSES;
        let dir = temp_dir("bench");
        let (mut store, server, _) =
            Store::open(MulticlassLogistic::new(dim, CLASSES).unwrap(), config(&dir)).unwrap();
        let charges = server.epoch_charges(&epoch(param_dim, 0));
        let mut step = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(dim), &param_dim, |b, &pd| {
            b.iter(|| {
                let e = epoch(pd, step);
                step += 1;
                store
                    .log_epoch(black_box(step), black_box(&e), &charges)
                    .unwrap();
            })
        });
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    group.finish();
}

fn bench_group_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_commit/fsync");
    let dim = 50;
    let param_dim = dim * CLASSES;
    // One iteration stages `frames` epochs and commits them once; dividing by
    // `frames` gives the per-epoch cost the runtime sees at that group size.
    for &frames in &[1u64, 8, 64] {
        let dir = temp_dir("bench");
        let (mut store, server, _) = Store::open(
            MulticlassLogistic::new(dim, CLASSES).unwrap(),
            config(&dir).with_fsync(true),
        )
        .unwrap();
        let epochs: Vec<EpochAggregate> = (0..frames).map(|step| epoch(param_dim, step)).collect();
        let charges = server.epoch_charges(&epochs[0]);
        let mut stage = WalStage::new();
        let mut step = 0u64;
        group.bench_function(format!("frames{frames}"), |b| {
            b.iter(|| {
                for e in &epochs {
                    stage.stage_epoch(step, black_box(e), &charges);
                    step += 1;
                }
                store.commit(&mut stage).unwrap();
            })
        });
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_replay");
    let dim = 100;
    let param_dim = dim * CLASSES;
    // Recovery time scales with the WAL tail length (epochs since the last
    // snapshot); measure a short and a long tail.
    for &epochs in &[64u64, 512] {
        let dir = temp_dir("bench");
        {
            let (mut store, mut server, _) =
                Store::open(MulticlassLogistic::new(dim, CLASSES).unwrap(), config(&dir)).unwrap();
            for step in 0..epochs {
                let e = epoch(param_dim, step);
                let charges = server.epoch_charges(&e);
                store.log_epoch(server.iteration(), &e, &charges).unwrap();
                server.apply_aggregate(&e).unwrap();
            }
            // Drop without checkpoint: recovery must replay the whole tail.
        }
        group.bench_with_input(BenchmarkId::from_parameter(epochs), &epochs, |b, &n| {
            b.iter(|| {
                let (_store, server, report) =
                    Store::open(MulticlassLogistic::new(dim, CLASSES).unwrap(), config(&dir))
                        .unwrap();
                assert_eq!(report.replayed_epochs, n);
                black_box(server.iteration())
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // One atomic full-snapshot write for a mid-sized model with a populated
    // ledger — the periodic cost a durable server pays every
    // `snapshot_every_epochs`.
    c.bench_function("snapshot_write_d400", |b| {
        let dim = 100;
        let param_dim = dim * CLASSES;
        let dir = temp_dir("bench");
        let (mut store, mut server, _) =
            Store::open(MulticlassLogistic::new(dim, CLASSES).unwrap(), config(&dir)).unwrap();
        for step in 0..32 {
            server.apply_aggregate(&epoch(param_dim, step)).unwrap();
        }
        let state = server.export_state();
        b.iter(|| store.snapshot(black_box(&state)).unwrap());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_group_commit,
    bench_recovery,
    bench_snapshot
);
criterion_main!(benches);
