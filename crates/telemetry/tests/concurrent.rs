//! Concurrency tests: counters, gauges, and histograms lose no updates under
//! contended multi-threaded recording.

use crowd_telemetry::{CounterId, GaugeId, HistogramId, Registry};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS: u64 = 10_000;

#[test]
fn contended_counters_lose_no_increments() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    reg.incr(CounterId::CheckinsApplied);
                    reg.add(CounterId::WalAppendBytes, 3);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        reg.counter(CounterId::CheckinsApplied),
        THREADS as u64 * OPS
    );
    assert_eq!(
        reg.counter(CounterId::WalAppendBytes),
        THREADS as u64 * OPS * 3
    );
}

#[test]
fn contended_gauges_balance_to_zero() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    reg.gauge_add(GaugeId::QueueDepth, 1);
                    reg.gauge_add(GaugeId::QueueDepth, -1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(reg.gauge(GaugeId::QueueDepth), 0);
}

#[test]
fn contended_histograms_keep_exact_count_and_sum() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    // Spread observations across buckets deterministically.
                    reg.observe(HistogramId::CheckinLatencyUs, (t as u64 + 1) * (i % 1024));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    let bins = snap.histogram("checkin_latency_us").unwrap();
    assert_eq!(bins.count(), THREADS as u64 * OPS);
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| (0..OPS).map(|i| (t + 1) * (i % 1024)).sum::<u64>())
        .sum();
    assert_eq!(bins.sum(), expected_sum);
    // The per-thread maximum is (t+1) * 1023.
    assert_eq!(bins.max(), THREADS as u64 * 1023);
}
