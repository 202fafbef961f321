//! Server scale suite: the capacity claim of the event-driven TCP server.
//!
//! One event-loop thread holds thousands of concurrent device
//! connections where a thread per connection would need thousands of OS
//! threads. The first test below drives 2,000 devices — each holding a
//! persistent connection for its whole checkout+checkin lifetime — from one
//! lockstep `FleetDriver` thread, requires every exchange to complete, and
//! then reads the loaded server's telemetry over the wire. The second drives
//! a fleet into a 2-deep ingest queue on a durable server while monitor
//! threads keep reading the server's state under the core lock, so checkins
//! queue behind them and connections park; backpressure must lose no checkin.
//! Correctness under faults is `tests/chaos.rs`; bitwise recovery over TCP is
//! `tests/durability.rs`.

use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::{DeviceClient, FleetConfig, FleetDriver, ReactorServer};
use crowd_ml::proto::auth::{AuthToken, TokenRegistry};
use crowd_ml::store::testutil::temp_dir;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Watchdog wrapper: these tests drive real sockets, so a regression that
/// wedges the event loop should fail with a message, not hang CI.
fn under_watchdog(limit: Duration, body: fn()) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit).expect("test exceeded its watchdog");
    let _ = worker.join();
}

#[test]
fn reactor_holds_2000_concurrent_devices() {
    under_watchdog(Duration::from_secs(300), || {
        let devices = 2000usize;
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(devices as u64, 99);
        let handle =
            ReactorServer::start(model, crowd_ml::core::config::ServerConfig::new(), tokens)
                .unwrap();
        let config = FleetConfig {
            devices,
            rounds: 1,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            // The whole fleet is admitted at once: 2k truly concurrent
            // connections against the one event loop.
            max_open: devices,
        };
        let report = FleetDriver::run(handle.addr(), config).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, devices as u64);
        assert_eq!(report.checkouts, devices as u64);
        let stats = handle.reactor_stats().unwrap();
        assert!(
            stats.accepted >= devices as u64,
            "expected ≥{devices} accepted connections, saw {}",
            stats.accepted
        );
        assert_eq!(
            handle.runtime_stats().get("checkins_applied"),
            devices as u64
        );

        // crowd-scope acceptance: the live server under fleet load answers a
        // wire scrape with per-stage latency histograms and pressure gauges.
        let scraper = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 99)).build();
        // Scrape twice: a scrape's own service time is recorded after its
        // snapshot was taken, so only the second scrape can observe the first.
        scraper.scrape_metrics().unwrap();
        let report = scraper.scrape_metrics().unwrap();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert!(counter("conns_accepted") >= devices as u64);
        assert_eq!(counter("checkins_applied"), devices as u64);
        let hist = |name: &str| {
            report
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        let checkin = hist("checkin_latency_us");
        assert_eq!(checkin.count, devices as u64);
        assert!(checkin.p50 <= checkin.p99 && checkin.p99 <= checkin.max.max(checkin.p99));
        assert!(hist("req_checkout_us").count >= devices as u64);
        // The scrape itself is instrumented, so its own histogram is live.
        assert!(hist("req_metrics_us").count >= 1);
        // Pressure gauges are present (zero once the fleet drained).
        for gauge in ["queue_depth", "conns_parked", "inflight"] {
            assert!(
                report.gauges.iter().any(|(n, _)| n == gauge),
                "missing gauge {gauge}"
            );
        }
        handle.shutdown();
    });
}

#[test]
fn fleet_survives_backpressure_without_losing_checkins() {
    under_watchdog(Duration::from_secs(120), || {
        // 64 concurrent devices against a 2-deep ingest queue: the server
        // throttles reads instead of dropping work, so every checkin still
        // gets an answer and every accepted one is applied exactly once.
        // The contention that fills the queue is the test's own, not load
        // borrowed from a neighbouring test: two monitors poll the server's
        // iteration throughout, and every poll takes the core lock an inline
        // checkin needs, so checkins queue behind them and connections park.
        // An fsync'd snapshot after every epoch, under the same lock, adds
        // milliseconds of it on a real disk.
        let devices = 64usize;
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(devices as u64, 99);
        let dir = temp_dir("backpressure");
        let config = crowd_ml::core::config::ServerConfig::new()
            .with_queue_bound(2)
            .with_data_dir(&dir)
            .with_snapshot_every(1)
            .with_fsync(true);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let config = FleetConfig {
            devices,
            rounds: 4,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            max_open: devices,
        };
        let fleet_done = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !fleet_done.load(Ordering::Relaxed) {
                        std::hint::black_box(handle.iteration());
                    }
                });
            }
            let report = FleetDriver::run(handle.addr(), config);
            fleet_done.store(true, Ordering::Relaxed);
            report.unwrap()
        });
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.acked + report.rejected, 4 * devices as u64);
        assert_eq!(handle.runtime_stats().get("checkins_applied"), report.acked);
        assert!(
            handle.runtime_stats().get("parks") > 0,
            "no connection parked"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
