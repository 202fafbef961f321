//! Chaos smoke test: seeded fault injection, churn, and server crashes over
//! the real TCP stack, with the standing invariants checked at the end.
//!
//! Phase 1 runs a **transport-only** fault plan (dropped, delayed,
//! duplicated, and truncated frames on a stable fleet) and asserts the run
//! lands *bitwise* on a fault-free reference of the same seed — the retry +
//! dedup-nonce machinery makes every logical checkin apply exactly once.
//!
//! Phase 2 runs the **full storm** — transport faults plus device churn
//! (late joiners, retirements, stragglers) plus scripted crash/restart points
//! on a durable server — and asserts the run terminates with an intact
//! ε ledger: exactly one per-checkin ε charged per acknowledged checkin,
//! through every duplicate, retry, and WAL recovery.
//!
//! Run with: `cargo run --release --example chaos_demo [seed]`
//! (CI runs this as the chaos smoke step; it exits non-zero on any
//! invariant violation.)

use crowd_ml::net::chaos::{ChaosCluster, ChaosReport};
use crowd_ml::sim::chaos::FaultPlan;

/// `eps` is the cluster's configured `per_checkin_epsilon`.
fn check_ledger(report: &ChaosReport, eps: f64) {
    for &(device, charged) in &report.ledger {
        let expected = eps * report.acked_checkins[device as usize] as f64;
        assert!(
            (charged - expected).abs() < 1e-9,
            "device {device} charged ε {charged}, expected ε·acked = {expected}"
        );
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    // Phase 1: transport-only chaos vs the fault-free reference.
    let reference_cluster = ChaosCluster::new(FaultPlan::fault_free(seed));
    let eps = reference_cluster.per_checkin_epsilon;
    let reference = reference_cluster.run().expect("reference run");
    let plan = FaultPlan::transport_only(seed);
    println!("phase 1: {}", plan.describe());
    let chaotic = ChaosCluster::new(plan).run().expect("transport chaos run");
    println!(
        "  reference: {} iterations, {} samples; chaotic: {} iterations, {} dedup replays",
        reference.iterations, reference.total_samples, chaotic.iterations, chaotic.dedup_replays
    );
    assert_eq!(
        chaotic.params.as_slice(),
        reference.params.as_slice(),
        "transport faults changed the final parameters"
    );
    assert_eq!(chaotic.iterations, reference.iterations);
    assert_eq!(chaotic.ledger, reference.ledger);
    check_ledger(&chaotic, eps);
    println!("  bitwise match with the fault-free reference — OK");
    // The volatile run's share of checkins that ran to completion on the
    // thread that decoded them; the durable dump below must read 0. The CI
    // metrics gate checks both.
    println!(
        "phase1 counter checkins_inline {}",
        chaotic.metrics.get("checkins_inline")
    );

    // Phase 2: the full storm on a durable server.
    let dir = std::env::temp_dir().join(format!("crowd-chaos-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create data dir");
    let plan = FaultPlan::full(seed, 24);
    println!("phase 2: {}", plan.describe());
    let earliest_crash = plan
        .crash
        .as_ref()
        .and_then(|c| c.points.first().copied())
        .expect("full plans script at least one crash point");
    let mut cluster = ChaosCluster::new(plan);
    cluster.server = cluster.server.with_epoch_size(2);
    cluster.data_dir = Some(dir.clone());
    let report = cluster.run().expect("full chaos run");
    println!(
        "  {} iterations, {} restarts, {} late joiners, {} retirements, ledger {:?}",
        report.iterations, report.restarts, report.late_joins, report.retired, report.ledger
    );
    // A crash point beyond what churn let the run reach legitimately never
    // fires; a restart is only owed when the earliest point was reachable.
    assert!(
        report.restarts > 0 || earliest_crash > report.iterations,
        "the run passed crash point {earliest_crash} without restarting"
    );
    check_ledger(&report, eps);
    let _ = std::fs::remove_dir_all(&dir);
    println!("  terminated with an intact ε ledger through churn and crashes — OK");

    // crowd-scope: dump the final incarnation's metric registry so the CI
    // smoke step can grep the catalogue and archive the dump as an artifact.
    assert!(report.metrics.get("checkins_applied") > 0);
    assert!(report.metrics.get("epoch_merges") > 0);
    println!("--- metrics dump (final server incarnation) ---");
    print!("{}", report.metrics.render_text());
    println!("--- end metrics dump ---");

    println!("chaos_demo: all invariants held (seed {seed})");
}
