//! Server scaling: checkins/sec as the device count grows from 100 to 10k.
//!
//! Each measured iteration starts a fresh server, runs a whole simulated
//! fleet through one checkout+checkin round per device with the lockstep
//! `FleetDriver` (every admitted device holds a persistent connection, so N
//! admitted devices are N concurrent server connections), and shuts the
//! server down. `ns_per_iter / devices` is therefore the end-to-end cost per
//! device round — checkins/sec is its reciprocal.
//!
//! Fleets run up to 10k devices in 4k-device windows (a 20k
//! file-descriptor budget, two ends per localhost connection).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::config::ServerConfig;
use crowd_learning::MulticlassLogistic;
use crowd_net::{FleetConfig, FleetDriver, ReactorServer};
use crowd_proto::auth::TokenRegistry;
use std::hint::black_box;

const SECRET: u64 = 99;

/// Cap on simultaneously open fleet connections; 2×4k fds on localhost
/// stays well inside the 20k descriptor budget.
const MAX_OPEN: usize = 4000;

fn fleet(devices: usize) -> FleetConfig {
    FleetConfig {
        devices,
        rounds: 1,
        dim: 12,
        classes: 3,
        auth_secret: SECRET,
        max_open: devices.min(MAX_OPEN),
    }
}

fn bench_reactor_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("reactor_fleet");
    for &devices in &[100usize, 1000, 2000, 10_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(devices),
            &devices,
            |bench, &devices| {
                bench.iter(|| {
                    let model = MulticlassLogistic::new(4, 3).unwrap();
                    let tokens = TokenRegistry::with_derived_tokens(devices as u64, SECRET);
                    let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
                    let report = FleetDriver::run(handle.addr(), fleet(devices)).unwrap();
                    assert_eq!(report.failed_devices, 0, "{report:?}");
                    handle.shutdown();
                    black_box(report.acked)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reactor_fleet);
criterion_main!(benches);
