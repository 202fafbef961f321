//! Crash-and-restart smoke test for the durable server (`crowd-store`).
//!
//! Phase 1 starts a durable TCP server (WAL + snapshots under a data
//! directory) and runs device traffic against it, then **kills** the server
//! mid-experiment — a crash-stop with no final flush or checkpoint, leaving
//! the disk exactly as a SIGKILL would. Phase 2 restarts a fresh server from
//! the same data directory, verifies that recovery reproduced the
//! acknowledged state bit for bit (including the per-device ε ledger), and
//! finishes the experiment against the restarted server.
//!
//! Run with: `cargo run --release --example durable_restart`
//! (CI runs this as the crash/restart smoke step; it exits non-zero on any
//! recovery mismatch.)

use crowd_ml::core::config::ServerConfig;
use crowd_ml::core::device::CheckinPayload;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::linalg::Vector;
use crowd_ml::net::{DeviceClient, ReactorServer};
use crowd_ml::proto::auth::{AuthToken, TokenRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 12;
const CLASSES: usize = 4;
const DEVICES: u64 = 6;
const CHECKINS: usize = 60;
const CRASH_AFTER: usize = 25;
const SECRET: u64 = 0xFEED;

fn model() -> MulticlassLogistic {
    MulticlassLogistic::new(DIM, CLASSES).expect("model")
}

fn payloads() -> Vec<CheckinPayload> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..CHECKINS)
        .map(|step| CheckinPayload {
            device_id: step as u64 % DEVICES,
            checkout_iteration: step as u64,
            nonce: 0,
            gradient: Vector::from_vec(
                (0..DIM * CLASSES)
                    .map(|_| rng.gen_range(-0.5..0.5))
                    .collect(),
            )
            .into(),
            num_samples: 10,
            error_count: 1,
            label_counts: vec![3, 3, 2, 2],
        })
        .collect()
}

fn drive(addr: std::net::SocketAddr, slice: &[CheckinPayload]) {
    for p in slice {
        let client =
            DeviceClient::builder(addr, p.device_id, AuthToken::derive(p.device_id, SECRET))
                .build();
        let outcome = client.checkin(p.clone()).expect("checkin over TCP");
        assert!(outcome.applied(), "checkin must be accepted");
    }
}

fn main() {
    let data_dir = std::env::temp_dir().join(format!("crowd-ml-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let config = ServerConfig::new()
        .with_rate_constant(1.0)
        .with_budget(0.5, f64::INFINITY)
        .with_data_dir(&data_dir)
        .with_snapshot_every(8);
    let stream = payloads();

    println!("Phase 1: durable server, {CRASH_AFTER} checkins, then SIGKILL-style crash");
    let server = ReactorServer::start(
        model(),
        config.clone(),
        TokenRegistry::with_derived_tokens(DEVICES, SECRET),
    )
    .expect("start durable server");
    drive(server.addr(), &stream[..CRASH_AFTER]);
    let iteration_at_kill = server.iteration();
    let params_at_kill = server.params();
    let ledger_at_kill = server.budget_ledger();
    assert_eq!(iteration_at_kill, CRASH_AFTER as u64);
    server.kill();
    println!("  killed at iteration {iteration_at_kill} (no flush, no checkpoint)");

    println!("Phase 2: restart from {}", data_dir.display());
    let server = ReactorServer::start(
        model(),
        config,
        TokenRegistry::with_derived_tokens(DEVICES, SECRET),
    )
    .expect("restart from data dir");
    let report = server
        .recovery_report()
        .expect("durable server has a report");
    println!(
        "  recovered: snapshot={}, replayed {} WAL epochs, torn tail={}",
        report.from_snapshot, report.replayed_epochs, report.torn_tail
    );
    assert!(report.recovered(), "restart must find prior state");
    assert_eq!(
        server.iteration(),
        iteration_at_kill,
        "iteration must survive"
    );
    assert_eq!(
        server.params().as_slice(),
        params_at_kill.as_slice(),
        "parameters must be bitwise identical after recovery"
    );
    assert_eq!(
        server.budget_ledger(),
        ledger_at_kill,
        "ε ledger must survive"
    );

    drive(server.addr(), &stream[CRASH_AFTER..]);
    assert_eq!(server.iteration(), CHECKINS as u64);
    println!(
        "  experiment completed: {} iterations, {} devices in the ε ledger",
        server.iteration(),
        server.budget_ledger().len()
    );

    // crowd-scope: scrape the live server's metric registry over the wire
    // (the same authenticated admin message an operator would send) and dump
    // it so the CI smoke step can grep the catalogue and archive it.
    let scraper = DeviceClient::builder(server.addr(), 0, AuthToken::derive(0, SECRET)).build();
    let scraped = scraper.scrape_metrics().expect("metrics scrape over TCP");
    let counter = |name: &str| {
        scraped
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    // The post-restart incarnation applied the remaining checkins durably.
    assert_eq!(
        counter("checkins_applied"),
        (CHECKINS - CRASH_AFTER) as u64,
        "scrape must report this incarnation's applied checkins"
    );
    assert!(counter("wal_appends") > 0, "durable path must hit the WAL");
    println!("--- metrics scrape (post-restart server, over TCP) ---");
    for (name, value) in &scraped.counters {
        println!("counter {name} {value}");
    }
    for (name, value) in &scraped.gauges {
        println!("gauge {name} {value}");
    }
    for h in &scraped.histograms {
        println!(
            "hist {} count={} sum={} max={} p50={} p90={} p99={} p999={}",
            h.name, h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999
        );
    }
    println!("--- end metrics scrape ---");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
    println!("OK: crash, bitwise recovery, and resumed training all verified");
}
