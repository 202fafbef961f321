//! Crowd-ML over real sockets: a localhost TCP server plus a fleet of device
//! threads, mirroring the paper's smartphone/Apache prototype.
//!
//! Each device thread buffers its local samples, checks out parameters over TCP,
//! sanitizes its averaged gradient with the Laplace mechanism, and checks the
//! result back in. The server applies the projected SGD update and tracks the
//! privately estimated error rate.
//!
//! Run with: `cargo run --release --example federated_network`

use crowd_ml::core::config::{DeviceConfig, PrivacyConfig, ServerConfig};
use crowd_ml::data::partition::{partition, PartitionStrategy};
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::learning::metrics::error_rate;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::LocalCluster;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dim = 16;
    let classes = 4;
    let devices = 8;

    let mut rng = StdRng::seed_from_u64(3);
    let (train, test) = GaussianMixtureSpec::new(dim, classes)
        .with_train_size(2400)
        .with_test_size(600)
        .with_mean_scale(2.2)
        .with_noise_std(0.7)
        .generate(&mut rng)
        .expect("synthetic data");
    let partitions =
        partition(&train, devices, PartitionStrategy::Iid, &mut rng).expect("device partitions");

    println!("Starting a localhost Crowd-ML cluster: 1 server + {devices} device threads");

    // The server serves from the aggregation runtime with a 256-deep ingest
    // queue (overflow answered with Busy + retry-after, which the device
    // clients absorb with backoff).
    let server_config = ServerConfig::new()
        .with_rate_constant(2.0)
        .with_queue_bound(256);
    let cluster = LocalCluster::new(server_config)
        .with_device(DeviceConfig::new(10))
        .with_privacy(PrivacyConfig::with_total_epsilon(5.0))
        .with_seed(17);
    let report = cluster
        .run(dim, classes, &partitions)
        .expect("cluster run over TCP");

    println!("server applied {} updates", report.server_iterations);
    println!("devices reported {} samples in total", report.total_samples);
    println!(
        "aggregation runtime: {} epoch merges, {} busy rejections",
        report.runtime_stats.get("epoch_merges"),
        report.runtime_stats.get("busy_rejections"),
    );
    for (id, device) in report.device_reports.iter().enumerate() {
        println!(
            "  device {id}: observed {:>4} samples, completed {:>3} checkins",
            device.samples_observed, device.checkins
        );
    }

    let model = MulticlassLogistic::new(dim, classes).expect("model");
    let err = error_rate(&model, &report.params, &test).expect("evaluation");
    println!();
    println!("test error of the collaboratively learned model: {err:.3}");
    println!("(every gradient crossed the wire with eps = 5 local differential privacy)");
}
