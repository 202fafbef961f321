//! Chaos suite: seeded fault-injection and churn sweeps over the real TCP
//! stack, asserting the three standing invariants under every plan:
//!
//! 1. **Termination** — every seeded run finishes under its watchdog; no
//!    fault schedule may wedge a device or the server.
//! 2. **Ledger integrity** — the server's ε ledger charges exactly one
//!    per-checkin ε per *acknowledged* checkin: duplicates, retries, and
//!    crash-recovery replays never over-charge a device.
//! 3. **Transport transparency** — when faults are confined to the transport
//!    layer (drops, delays, duplicates, truncations; stable fleet, no
//!    crashes), the final parameters land bitwise on the fault-free
//!    reference: retries plus the dedup nonce deliver exactly-once checkins.
//!
//! Seed control:
//! * `CHAOS_SEEDS=n` sweeps seeds `0..n` (default 16; CI's nightly uses 64).
//! * `CHAOS_SEED=s` pins a single seed — the one-line repro for a failure.
//!
//! On failure the suite prints the failing seed, a repro command, and writes
//! the run's full trace to `target/chaos/` (uploaded as a CI artifact).

use crowd_ml::net::chaos::{ChaosCluster, ChaosReport};
use crowd_ml::sim::chaos::FaultPlan;
use crowd_ml::store::testutil::temp_dir;
use std::time::Duration;

/// Per-seed watchdog. Runs are sub-second in the common case; the limit is
/// generous because CI runners stall unpredictably.
const WATCHDOG: Duration = Duration::from_secs(120);

/// The seeds to sweep: `CHAOS_SEED` pins one, `CHAOS_SEEDS` widens the sweep.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        if let Ok(seed) = s.trim().parse() {
            return vec![seed];
        }
    }
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(16);
    (0..count).collect()
}

/// Writes the run's trace to `target/chaos/` and returns the repro line shown
/// in the panic message.
fn dump_failure(kind: &str, seed: u64, report: Option<&ChaosReport>, detail: &str) -> String {
    let dir = std::path::Path::new("target").join("chaos");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("trace-{kind}-seed{seed}.log"));
    let mut contents = format!("chaos failure: {kind}, seed {seed}\n{detail}\n\n");
    if let Some(report) = report {
        contents.push_str(&format!(
            "iterations: {}\nledger: {:?}\nacked: {:?}\nrestarts: {}\n\n-- trace --\n",
            report.iterations, report.ledger, report.acked_checkins, report.restarts
        ));
        for line in &report.trace {
            contents.push_str(line);
            contents.push('\n');
        }
    }
    let _ = std::fs::write(&path, contents);
    format!(
        "chaos {kind} failed at seed {seed}: {detail}\n\
         repro: CHAOS_SEED={seed} cargo test --release --test chaos {kind} -- --nocapture\n\
         trace: {}",
        path.display()
    )
}

/// Runs `body(seed)` under the watchdog; a hang fails with the seed repro.
fn sweep(kind: &'static str, body: fn(u64)) {
    for seed in seeds() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            body(seed);
            let _ = tx.send(());
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(()) => {
                let _ = worker.join();
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!(
                    "{}",
                    dump_failure(
                        kind,
                        seed,
                        None,
                        &format!(
                            "run exceeded its {WATCHDOG:?} watchdog (invariant 1: termination)"
                        )
                    )
                );
            }
        }
    }
}

/// Invariant 2, checked per device: `ledger[d] == ε · acked[d]` exactly (up to
/// float accumulation noise). Equality — not just an upper bound — because
/// every acknowledged checkin must be charged once, and nothing else may be.
/// `eps` is the run's configured `ChaosCluster::per_checkin_epsilon`.
fn assert_ledger_integrity(kind: &str, seed: u64, eps: f64, report: &ChaosReport) {
    for &(device, charged) in &report.ledger {
        let expected = eps * report.acked_checkins[device as usize] as f64;
        if (charged - expected).abs() > 1e-9 {
            panic!(
                "{}",
                dump_failure(
                    kind,
                    seed,
                    Some(report),
                    &format!(
                        "ledger integrity: device {device} charged ε {charged}, \
                         expected ε·acked = {expected} (invariant 2)"
                    )
                )
            );
        }
    }
}

fn transport_only_body(seed: u64) {
    let reference_cluster = ChaosCluster::new(FaultPlan::fault_free(seed));
    let eps = reference_cluster.per_checkin_epsilon;
    let reference = reference_cluster.run().expect("reference run failed");
    let chaotic = match ChaosCluster::new(FaultPlan::transport_only(seed)).run() {
        Ok(r) => r,
        Err(e) => panic!(
            "{}",
            dump_failure("transport_only", seed, None, &format!("run error: {e}"))
        ),
    };
    assert_ledger_integrity("transport_only", seed, eps, &reference);
    assert_ledger_integrity("transport_only", seed, eps, &chaotic);
    // Invariant 3: transport faults are invisible in the final state.
    if chaotic.params.as_slice() != reference.params.as_slice()
        || chaotic.iterations != reference.iterations
        || chaotic.ledger != reference.ledger
        || chaotic.acked_checkins != reference.acked_checkins
    {
        panic!(
            "{}",
            dump_failure(
                "transport_only",
                seed,
                Some(&chaotic),
                &format!(
                    "bitwise divergence from fault-free reference (invariant 3): \
                     iterations {} vs {}, acked {:?} vs {:?}, params equal: {}",
                    chaotic.iterations,
                    reference.iterations,
                    chaotic.acked_checkins,
                    reference.acked_checkins,
                    chaotic.params.as_slice() == reference.params.as_slice()
                )
            )
        );
    }
}

fn churn_crash_body(seed: u64) {
    let dir = temp_dir(&format!("chaos-{seed}"));
    let plan = FaultPlan::full(seed, 24);
    let earliest_crash = plan
        .crash
        .as_ref()
        .and_then(|c| c.points.first().copied())
        .expect("full plans script at least one crash point");
    let mut cluster = ChaosCluster::new(plan);
    // Batched epochs + idle flush: straggler checkins arrive alone and must
    // resolve through the aggregator's flush-idle path.
    cluster.server = cluster.server.with_epoch_size(2);
    cluster.data_dir = Some(dir.clone());
    let eps = cluster.per_checkin_epsilon;
    let report = match cluster.run() {
        Ok(r) => r,
        Err(e) => panic!(
            "{}",
            dump_failure("churn_crash", seed, None, &format!("run error: {e}"))
        ),
    };
    // Invariant 2 holds through churn, crashes, and WAL recovery: every
    // acknowledged checkin is charged exactly once, survived restarts
    // included.
    assert_ledger_integrity("churn_crash", seed, eps, &report);
    // Crash points beyond what churn let the run reach legitimately never
    // fire; a restart is only owed when the earliest point was reachable.
    if report.restarts == 0 && earliest_crash <= report.iterations {
        panic!(
            "{}",
            dump_failure(
                "churn_crash",
                seed,
                Some(&report),
                &format!(
                    "the run reached iteration {} past the earliest crash point \
                     {earliest_crash} but never restarted the server",
                    report.iterations
                )
            )
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rounds-mode cluster of `devices` under `plan`, `select_fraction` of them
/// in each round's cohort.
fn rounds_cluster(plan: FaultPlan, devices: usize, select_fraction: f64) -> ChaosCluster {
    let mut cluster = ChaosCluster {
        devices,
        ..ChaosCluster::new(plan)
    }
    .with_rounds();
    cluster.rounds = cluster
        .rounds
        .map(|r| r.with_select_fraction(select_fraction));
    cluster
}

/// The default fleet: 4 devices, half selected — cohorts of about 2, masked
/// over all pairs.
fn rounds_body(seed: u64) {
    rounds_legs("rounds", seed, 4, 0.5);
}

/// 16 devices, all selected: every cohort of 16 masks toward 8 of its 15
/// peers, so the same legs run over the sparse mask ring.
fn rounds_sparse_body(seed: u64) {
    rounds_legs("rounds_sparse", seed, 16, 1.0);
}

fn rounds_legs(kind: &str, seed: u64, devices: usize, select_fraction: f64) {
    let cluster = |plan| rounds_cluster(plan, devices, select_fraction);
    // Leg 1 — transport transparency with masking in the path: a rounds-mode
    // run under transport-only faults must land bitwise on the rounds-mode
    // fault-free reference. Masked shares ride the same retry + dedup
    // machinery as free-run checkins (per-round, the server keys dedup on
    // `(round, nonce)`), so faults must stay invisible.
    let reference_cluster = cluster(FaultPlan::fault_free(seed));
    let eps = reference_cluster.per_checkin_epsilon;
    let reference = reference_cluster
        .run()
        .expect("rounds reference run failed");
    let chaotic = match cluster(FaultPlan::transport_only(seed)).run() {
        Ok(r) => r,
        Err(e) => panic!(
            "{}",
            dump_failure(kind, seed, None, &format!("run error: {e}"))
        ),
    };
    assert_ledger_integrity(kind, seed, eps, &reference);
    assert_ledger_integrity(kind, seed, eps, &chaotic);
    if chaotic.params.as_slice() != reference.params.as_slice()
        || chaotic.iterations != reference.iterations
        || chaotic.ledger != reference.ledger
        || chaotic.acked_checkins != reference.acked_checkins
    {
        panic!(
            "{}",
            dump_failure(
                kind,
                seed,
                Some(&chaotic),
                &format!(
                    "bitwise divergence from rounds-mode reference (invariant 3): \
                     iterations {} vs {}, acked {:?} vs {:?}, params equal: {}",
                    chaotic.iterations,
                    reference.iterations,
                    chaotic.acked_checkins,
                    reference.acked_checkins,
                    chaotic.params.as_slice() == reference.params.as_slice()
                )
            )
        );
    }
    // Leg 2 — scripted mid-round dropouts plus churn: cohort members vanish
    // without submitting and rounds finalize at their deadline from the
    // survivors (mask compensation). The ledger invariant must still hold:
    // only acknowledged contributions are ever charged.
    let stormy = match cluster(FaultPlan::rounds(seed)).run() {
        Ok(r) => r,
        Err(e) => panic!(
            "{}",
            dump_failure(kind, seed, None, &format!("dropout-leg run error: {e}"))
        ),
    };
    assert_ledger_integrity(kind, seed, eps, &stormy);
    // A round a scripted dropout left short of its cohort can only have
    // closed at its deadline, finalizing the survivors.
    if stormy.round_dropouts > 0 && stormy.metrics.get("rounds_finalized") == 0 {
        panic!(
            "{}",
            dump_failure(
                kind,
                seed,
                Some(&stormy),
                &format!(
                    "{} scripted dropouts but no round finalized",
                    stormy.round_dropouts
                )
            )
        );
    } // Leg 3 — the full storm against a durable server: masked submissions
      // over TCP through transport faults and churn, with scripted crashes
      // and WAL recovery. Queued round submissions are acknowledged only
      // after their commit, so a crash never loses an acked contribution and
      // recovery never charges one twice.
    let dir = temp_dir(&format!("chaos-{kind}-{seed}"));
    let plan = FaultPlan::full(seed, 8);
    let earliest_crash = plan
        .crash
        .as_ref()
        .and_then(|c| c.points.first().copied())
        .expect("full plans script at least one crash point");
    let mut durable = cluster(plan);
    durable.data_dir = Some(dir.clone());
    let crashed = match durable.run() {
        Ok(r) => r,
        Err(e) => panic!(
            "{}",
            dump_failure(kind, seed, None, &format!("durable-leg run error: {e}"))
        ),
    };
    assert_ledger_integrity(kind, seed, eps, &crashed);
    if crashed.restarts == 0 && earliest_crash <= crashed.iterations {
        panic!(
            "{}",
            dump_failure(
                kind,
                seed,
                Some(&crashed),
                &format!(
                    "the durable leg reached iteration {} past the earliest crash \
                     point {earliest_crash} but never restarted the server",
                    crashed.iterations
                )
            )
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transport_only_plans_land_bitwise_on_the_reference() {
    sweep("transport_only", transport_only_body);
}

#[test]
fn rounds_plans_hold_the_standing_invariants() {
    sweep("rounds", rounds_body);
}

#[test]
fn rounds_sparse_mask_plans_hold_the_standing_invariants() {
    sweep("rounds_sparse", rounds_sparse_body);
}

#[test]
fn churn_and_crash_plans_terminate_without_overcharging() {
    sweep("churn_crash", churn_crash_body);
}

#[test]
fn chaotic_runs_exercise_the_fault_paths() {
    // Meta-check on the harness itself: across a handful of seeds, the
    // transport plans actually injected faults that forced dedup replays —
    // otherwise the sweep would be vacuously green.
    let mut replays = 0u64;
    for seed in 0..4u64 {
        let report = ChaosCluster::new(FaultPlan::transport_only(seed))
            .run()
            .expect("chaotic run failed");
        replays += report.dedup_replays;
    }
    assert!(
        replays > 0,
        "no dedup replays across 4 seeds — the fault shim is not injecting"
    );
}
