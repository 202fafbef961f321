//! Crowd-ML over real sockets: a localhost TCP server plus a fleet of devices,
//! mirroring the paper's smartphone/Apache prototype.
//!
//! One thread steps the devices round-robin in a fixed order: each buffers its
//! local samples, checks out parameters over TCP, sanitizes its averaged
//! gradient with the Laplace mechanism, and checks the result back in. The
//! server applies the projected SGD update and tracks the privately estimated
//! error rate. The run is seeded and sequential, so its output is the same
//! every time.
//!
//! Run with: `cargo run --release --example federated_network`

use crowd_ml::core::config::{PrivacyConfig, ServerConfig};
use crowd_ml::data::partition::{partition, PartitionStrategy};
use crowd_ml::data::synthetic::GaussianMixtureSpec;
use crowd_ml::learning::metrics::error_rate;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::fault::FaultPlan;
use crowd_ml::net::ChaosCluster;
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

    println!("Starting a localhost Crowd-ML cluster: 1 server + {devices} devices over TCP");

    // Every checkin is charged the devices' total ε on the server's ledger.
    let privacy = PrivacyConfig::with_total_epsilon(5.0);
    let cluster = ChaosCluster {
        minibatch: 10,
        privacy,
        per_checkin_epsilon: privacy.budget.total_per_checkin(classes),
        server: ServerConfig::new().with_rate_constant(2.0),
        ..ChaosCluster::new(FaultPlan::fault_free(17))
    };
    let report = cluster.run_on(&partitions).expect("cluster run over TCP");

    println!("server applied {} updates", report.iterations);
    println!("devices reported {} samples in total", report.total_samples);
    println!(
        "aggregation runtime: {} epoch merges, {} checkins applied",
        report.metrics.get("epoch_merges"),
        report.metrics.get("checkins_applied"),
    );
    for &(device, eps) in &report.ledger {
        let checkins = report.acked_checkins[device as usize];
        println!("  device {device}: {checkins:>3} acked checkins, eps spent {eps:.1}");
    }

    let model = MulticlassLogistic::new(dim, classes).expect("model");
    let err = error_rate(&model, &report.params, &test).expect("evaluation");
    println!();
    println!("test error of the collaboratively learned model: {err:.3}");
    println!("(every gradient crossed the wire with eps = 5 local differential privacy)");
}
