//! Server throughput comparison: the original single-mutex path (every
//! checkout clones the parameter vector under the global lock and every
//! checkin serializes a full projected SGD update behind it) versus the
//! `crowd-agg` runtime, varying device concurrency and epoch size.
//!
//! Each measured iteration runs `threads` devices through rounds of the
//! protocol's natural unit of work — one checkout followed by a window of
//! checkins — until `threads × CHECKINS_PER_DEVICE` checkins have been applied,
//! so ms/iter is directly comparable across paths: lower is higher sustained
//! throughput. Two submission styles are timed for the runtime: `sync` (each
//! device blocks on its ack before the next checkin, the lockstep worst case
//! for batching — it pays the runtime's queueing without amortizing anything)
//! and `pipelined` (devices submit their round's window before collecting
//! acks, as a gateway or async device would), which lets large epochs amortize
//! the projection and bookkeeping of the update across many gradients while
//! checkouts ride the lock-free snapshot.

use criterion::{criterion_group, criterion_main, Criterion};
use crowd_agg::AggRuntime;
use crowd_core::config::{AggSettings, RoundSettings, ServerConfig};
use crowd_core::device::CheckinPayload;
use crowd_core::server::{PendingSubmission, Server};
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

// A large model (d = DIM·CLASSES = 100 000 parameters) so the per-request
// O(d) work — the thing batching and snapshotting amortize —
// dominates the fixed per-request synchronization cost. 24 checkins per device
// keeps the totals (48 / 192) aligned with the benched epoch sizes, so no
// measured configuration depends on the idle-flush timer.
const DIM: usize = 1000;
const CLASSES: usize = 100;
const CHECKINS_PER_DEVICE: u64 = 24;
// Checkins per checkout round: a device that has buffered a few minibatches
// (or a gateway fronting co-located devices) uploads them against one
// parameter snapshot.
const ROUND: u64 = 4;

fn payload(device_id: u64, step: u64) -> CheckinPayload {
    CheckinPayload {
        device_id,
        checkout_iteration: step,
        nonce: 0,
        gradient: Vector::filled(DIM * CLASSES, 0.001).into(),
        num_samples: 20,
        error_count: 2,
        label_counts: vec![2; CLASSES],
    }
}

/// A 95%-zero gradient in its sparse representation: what a bandwidth-lean
/// device uploads, ingested by the accumulator via scatter-add.
fn sparse_payload(device_id: u64, step: u64) -> CheckinPayload {
    let dim = DIM * CLASSES;
    let mut grad = vec![0.0; dim];
    for i in (0..dim).step_by(20) {
        grad[i] = 0.001;
    }
    let gradient = crowd_linalg::GradientUpdate::from_dense_auto(Vector::from_vec(grad));
    assert!(gradient.is_sparse());
    CheckinPayload {
        device_id,
        checkout_iteration: step,
        nonce: 0,
        gradient,
        num_samples: 20,
        error_count: 2,
        label_counts: vec![2; CLASSES],
    }
}

fn new_server() -> Server<MulticlassLogistic> {
    let model = MulticlassLogistic::new(DIM, CLASSES).unwrap();
    Server::new(model, ServerConfig::new()).unwrap()
}

/// The pre-`crowd-agg` design: one global mutex around the whole server, so a
/// checkout copies the parameters under the same lock every update serializes
/// behind.
fn run_single_mutex(threads: u64) -> u64 {
    let server = Arc::new(Mutex::new(new_server()));
    let mut handles = Vec::new();
    for device in 0..threads {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for round in 0..CHECKINS_PER_DEVICE / ROUND {
                let ticket = server.lock().unwrap().checkout();
                black_box(ticket.iteration);
                for slot in 0..ROUND {
                    let p = payload(device, round * ROUND + slot);
                    let mut guard = server.lock().unwrap();
                    black_box(guard.checkin(&p).unwrap());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let iterations = server.lock().unwrap().iteration();
    assert_eq!(iterations, threads * CHECKINS_PER_DEVICE);
    iterations
}

fn agg_runtime(epoch: u64) -> AggRuntime<MulticlassLogistic> {
    let config = ServerConfig::new().with_agg(AggSettings {
        queue_bound: 4096,
        epoch_size: epoch,
        retry_after_ms: 1,
        flush_idle_ms: 1,
    });
    let model = MulticlassLogistic::new(DIM, CLASSES).unwrap();
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// Lockstep devices: checkout a snapshot each round, then block on each ack
/// before the next checkin.
fn run_sharded_sync(threads: u64, epoch: u64) -> u64 {
    let runtime = Arc::new(agg_runtime(epoch));
    let mut handles = Vec::new();
    for device in 0..threads {
        let runtime = Arc::clone(&runtime);
        handles.push(std::thread::spawn(move || {
            for round in 0..CHECKINS_PER_DEVICE / ROUND {
                black_box(runtime.snapshot().iteration);
                for slot in 0..ROUND {
                    let p = payload(device, round * ROUND + slot);
                    black_box(runtime.checkin(p).unwrap());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let applied = runtime.stats().get("checkins_applied");
    assert_eq!(applied, threads * CHECKINS_PER_DEVICE);
    runtime.shutdown();
    applied
}

/// Pipelined devices: checkout a snapshot, submit the round's window, then
/// collect the acks. `sparse` switches the uploads to the 95%-zero sparse
/// representation, exercising the accumulator's scatter-add path.
fn run_sharded_pipelined_with(threads: u64, epoch: u64, sparse: bool) -> u64 {
    let runtime = Arc::new(agg_runtime(epoch));
    let mut handles = Vec::new();
    for device in 0..threads {
        let runtime = Arc::clone(&runtime);
        handles.push(std::thread::spawn(move || {
            for round in 0..CHECKINS_PER_DEVICE / ROUND {
                black_box(runtime.snapshot().iteration);
                let tickets: Vec<_> = (0..ROUND)
                    .map(|slot| {
                        let step = round * ROUND + slot;
                        let p = if sparse {
                            sparse_payload(device, step)
                        } else {
                            payload(device, step)
                        };
                        runtime.submit(p).unwrap()
                    })
                    .collect();
                for ticket in tickets {
                    black_box(ticket.wait().unwrap());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let applied = runtime.stats().get("checkins_applied");
    assert_eq!(applied, threads * CHECKINS_PER_DEVICE);
    runtime.shutdown();
    applied
}

fn run_sharded_pipelined(threads: u64, epoch: u64) -> u64 {
    run_sharded_pipelined_with(threads, epoch, false)
}

/// One pipelined run's submit→ack latency distribution, read off the
/// crowd-scope registry and reported as extra `BENCH_JSON` entries
/// (`checkin_latency_p50_us` / `checkin_latency_p99_us`, values in ns like
/// every other entry). These feed `BENCH_runtime.json` so the perf
/// trajectory tracks tail latency, not just throughput; the bench gate
/// treats them like any other named entry.
fn report_checkin_latency_percentiles() {
    let runtime = Arc::new(agg_runtime(64));
    let mut handles = Vec::new();
    for device in 0..8u64 {
        let runtime = Arc::clone(&runtime);
        handles.push(std::thread::spawn(move || {
            for round in 0..CHECKINS_PER_DEVICE / ROUND {
                black_box(runtime.snapshot().iteration);
                let tickets: Vec<_> = (0..ROUND)
                    .map(|slot| {
                        runtime
                            .submit(payload(device, round * ROUND + slot))
                            .unwrap()
                    })
                    .collect();
                for ticket in tickets {
                    black_box(ticket.wait().unwrap());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = runtime.stats();
    runtime.shutdown();
    let bins = snap
        .histogram("checkin_latency_us")
        .expect("registry checkin latency histogram");
    println!(
        "bench {:<50} p50={}us p99={}us (n={})",
        "checkin_latency/pipelined_e64",
        bins.p50(),
        bins.p99(),
        bins.count()
    );
    let Some(path) = std::env::var_os("BENCH_JSON") else {
        return;
    };
    use std::io::Write;
    // Mirrors the vendored criterion shim's BENCH_JSON line format.
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        for (name, us) in [
            ("checkin_latency_p50_us", bins.p50()),
            ("checkin_latency_p99_us", bins.p99()),
        ] {
            let _ = writeln!(
                file,
                "{{\"name\":\"{name}\",\"ns_per_iter\":{:.1}}}",
                us as f64 * 1e3
            );
        }
    }
}

// The rounds bench uses a smaller model (d = 1 000) than the throughput
// benches: a cohort round is dominated by per-member mask generation and the
// finalization unmask+sum, both O(cohort · d), and this size keeps one round
// in the microsecond regime where the latency histogram has resolution.
const ROUND_DIM: usize = 100;
const ROUND_CLASSES: usize = 10;
const COHORT: u64 = 8;

fn rounds_runtime() -> AggRuntime<MulticlassLogistic> {
    let config = ServerConfig::new()
        .with_agg(AggSettings {
            queue_bound: 4096,
            epoch_size: 1,
            retry_after_ms: 1,
            flush_idle_ms: 1,
        })
        .with_rounds(
            RoundSettings::new(COHORT)
                .with_select_fraction(1.0)
                .with_deadline_epochs(1_000_000),
        );
    let model = MulticlassLogistic::new(ROUND_DIM, ROUND_CLASSES).unwrap();
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// One full cohort round: every member derives its net mask, masks a dense
/// gradient, and submits; the last submission completes the cohort and drives
/// finalization (mask cancellation, unmasked sum, projected update) inline.
fn run_one_round(runtime: &AggRuntime<MulticlassLogistic>) {
    let info = runtime.round_info().expect("rounds are enabled");
    let members = crowd_rounds::cohort(info.seed, info.population, info.select_fraction);
    let dim = ROUND_DIM * ROUND_CLASSES;
    let grad = vec![0.001f64; dim];
    for &d in &members {
        let mask_words = crowd_rounds::net_mask(info.seed, d, &members, dim);
        let words = crowd_rounds::mask(&grad, &mask_words);
        let submission = PendingSubmission {
            device_id: d,
            nonce: info.round_id,
            checkout_iteration: 0,
            words,
            num_samples: 2 * ROUND_CLASSES as u32,
            error_count: 2,
            label_counts: vec![2; ROUND_CLASSES],
        };
        black_box(runtime.submit_round(info.round_id, submission).unwrap());
    }
}

/// Server-side round-finalization latency percentiles off the crowd-scope
/// `round_finalize_us` histogram, reported as `BENCH_JSON` entries
/// (`round_finalize_p50_us` / `round_finalize_p99_us`, values in ns like
/// every other entry) so `BENCH_runtime.json` tracks finalization latency.
fn report_round_finalize_percentiles() {
    let runtime = rounds_runtime();
    for _ in 0..64 {
        run_one_round(&runtime);
    }
    let snap = runtime.stats();
    runtime.shutdown();
    let bins = snap
        .histogram("round_finalize_us")
        .expect("registry round finalize histogram");
    println!(
        "bench {:<50} p50={}us p99={}us (n={})",
        "round_finalize/latency_cohort8",
        bins.p50(),
        bins.p99(),
        bins.count()
    );
    let Some(path) = std::env::var_os("BENCH_JSON") else {
        return;
    };
    use std::io::Write;
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        for (name, us) in [
            ("round_finalize_p50_us", bins.p50()),
            ("round_finalize_p99_us", bins.p99()),
        ] {
            let _ = writeln!(
                file,
                "{{\"name\":\"{name}\",\"ns_per_iter\":{:.1}}}",
                us as f64 * 1e3
            );
        }
    }
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_finalize");
    group.bench_function(
        format!("cohort{COHORT}_d{}", ROUND_DIM * ROUND_CLASSES),
        |b| {
            let runtime = rounds_runtime();
            b.iter(|| run_one_round(&runtime));
            runtime.shutdown();
        },
    );
    group.finish();
    report_round_finalize_percentiles();
}

fn bench_agg(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkin_throughput");
    for &threads in &[2u64, 8] {
        group.bench_function(format!("single_mutex/devices{threads}"), |b| {
            b.iter(|| run_single_mutex(threads))
        });
        group.bench_function(format!("sharded_sync_e1/devices{threads}"), |b| {
            b.iter(|| run_sharded_sync(threads, 1))
        });
        group.bench_function(
            format!("sharded_pipelined_e{threads}/devices{threads}"),
            |b| b.iter(|| run_sharded_pipelined(threads, threads)),
        );
        group.bench_function(format!("sharded_pipelined_e64/devices{threads}"), |b| {
            b.iter(|| run_sharded_pipelined(threads, 64))
        });
        // Same pipeline, sparse uploads: the accumulator scatter-adds 5% of the
        // coordinates instead of folding all of them.
        group.bench_function(
            format!("sharded_pipelined_e64_sparse95/devices{threads}"),
            |b| b.iter(|| run_sharded_pipelined_with(threads, 64, true)),
        );
    }
    group.finish();
    report_checkin_latency_percentiles();
}

criterion_group!(benches, bench_agg, bench_rounds);
criterion_main!(benches);
