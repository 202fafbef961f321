//! Localhost cluster runner: one TCP server plus a fleet of device threads.
//!
//! This is the networked counterpart of the in-process simulation in
//! `crowd-core::simulation`: real sockets, real concurrency, the same algorithm.
//! It backs the `federated_network` example and the cross-crate integration tests.

use crate::client::{DeviceClient, DeviceReport};
use crate::reactor_server::ReactorServer;
use crate::Result;
use crossbeam::channel;
use crowd_core::config::{DeviceConfig, PrivacyConfig, ServerConfig};
use crowd_data::Dataset;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_proto::auth::{AuthToken, TokenRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a localhost cluster run.
#[derive(Debug, Clone)]
pub struct LocalCluster {
    /// Server-side configuration (schedule, λ, radius, stopping criteria).
    pub server: ServerConfig,
    /// Per-device configuration (minibatch size, buffer bound, holdout).
    pub device: DeviceConfig,
    /// Privacy configuration shared by all devices.
    pub privacy: PrivacyConfig,
    /// Shared secret used to derive device authentication tokens.
    pub auth_secret: u64,
    /// Seed for the per-device RNGs (each device uses `seed + device_id`).
    pub seed: u64,
}

/// The result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Final global parameters.
    pub params: Vector,
    /// Number of server updates applied.
    pub server_iterations: u64,
    /// Total samples reported by all devices.
    pub total_samples: u64,
    /// Per-device participation summaries, indexed by device id.
    pub device_reports: Vec<DeviceReport>,
    /// Aggregation-runtime counters (`epoch_merges`, `checkins_applied`,
    /// `busy_rejections`, …).
    pub runtime_stats: crowd_telemetry::MetricsSnapshot,
    /// Per-device cumulative ε spend `(device_id, ε)`, ascending by device id.
    /// Empty when budget accounting is disabled and the run is non-private.
    pub budget_spent: Vec<(u64, f64)>,
}

impl LocalCluster {
    /// Creates a cluster configuration with defaults (non-private, b = 1).
    pub fn new(server: ServerConfig) -> Self {
        LocalCluster {
            server,
            device: DeviceConfig::new(1),
            privacy: PrivacyConfig::non_private(),
            auth_secret: 0xC0FFEE,
            seed: 0,
        }
    }

    /// Sets the device configuration.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Sets the privacy configuration.
    pub fn with_privacy(mut self, privacy: PrivacyConfig) -> Self {
        self.privacy = privacy;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the cluster: starts a TCP server for `dim`/`num_classes` multiclass
    /// logistic regression and one thread per entry of `partitions`, each running
    /// the full device loop over its local data. Returns once every device thread
    /// finished.
    pub fn run(
        &self,
        dim: usize,
        num_classes: usize,
        partitions: &[Dataset],
    ) -> Result<ClusterReport> {
        let model = MulticlassLogistic::new(dim, num_classes)?;
        let tokens = TokenRegistry::with_derived_tokens(partitions.len() as u64, self.auth_secret);
        let mut server_config = self.server.clone();
        // A private run with accounting left at its default gets the ledger
        // for free: charge each checkin the privacy config's total ε
        // (tracking only — no ceiling unless the caller set one).
        if server_config.budget.is_disabled() && !self.privacy.is_non_private() {
            server_config.budget.per_checkin_epsilon =
                self.privacy.budget.total_per_checkin(num_classes);
        }
        let handle = ReactorServer::start(model, server_config, tokens)?;
        let addr = handle.addr();

        let (tx, rx) = channel::unbounded::<(usize, Result<DeviceReport>)>();
        let mut threads = Vec::with_capacity(partitions.len());
        for (device_id, part) in partitions.iter().enumerate() {
            let part = part.clone();
            let tx = tx.clone();
            let device_config = self.device;
            let privacy = self.privacy;
            let lambda = self.server.lambda;
            let auth_secret = self.auth_secret;
            let seed = self.seed;
            threads.push(std::thread::spawn(move || {
                let client = DeviceClient::builder(
                    addr,
                    device_id as u64,
                    AuthToken::derive(device_id as u64, auth_secret),
                )
                .build();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(device_id as u64));
                // A model construction failure (cannot happen after the server
                // constructor validated the same dimensions) is reported like
                // any other device error instead of panicking the thread.
                let result = MulticlassLogistic::new(dim, num_classes)
                    .map_err(crate::NetError::from)
                    .and_then(|model| {
                        client.run_task(&model, &part, device_config, privacy, lambda, &mut rng)
                    });
                let _ = tx.send((device_id, result));
            }));
        }
        drop(tx);

        let mut device_reports = vec![DeviceReport::default(); partitions.len()];
        let mut first_error: Option<crate::NetError> = None;
        for (device_id, result) in rx.iter() {
            match result {
                Ok(report) => device_reports[device_id] = report,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        for t in threads {
            let _ = t.join();
        }

        let report = ClusterReport {
            params: handle.params(),
            server_iterations: handle.iteration(),
            total_samples: handle.total_samples(),
            device_reports,
            runtime_stats: handle.runtime_stats(),
            budget_spent: handle.budget_ledger(),
        };
        handle.shutdown();
        match first_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::partition::{partition, PartitionStrategy};
    use crowd_data::synthetic::GaussianMixtureSpec;
    use crowd_learning::metrics::error_rate;
    use crowd_learning::model::Model;

    #[test]
    fn cluster_learns_a_small_task_over_tcp() {
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = GaussianMixtureSpec::new(8, 3)
            .with_train_size(300)
            .with_test_size(100)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
            .generate(&mut rng)
            .unwrap();
        let parts = partition(&train, 5, PartitionStrategy::Iid, &mut rng).unwrap();

        let cluster = LocalCluster::new(ServerConfig::new().with_rate_constant(2.0))
            .with_device(DeviceConfig::new(2))
            .with_seed(7);
        let report = cluster.run(8, 3, &parts).unwrap();

        assert_eq!(report.total_samples, 300);
        assert_eq!(report.server_iterations, 150);
        assert_eq!(report.device_reports.len(), 5);
        assert!(report.device_reports.iter().all(|r| r.checkins == 30));

        let model = MulticlassLogistic::new(8, 3).unwrap();
        let err = error_rate(&model, &report.params, &test).unwrap();
        assert!(err < 0.25, "networked training error {err}");
        assert_eq!(report.params.len(), model.param_dim());
    }

    #[test]
    fn cluster_survives_backpressure_without_losing_checkins() {
        // A 2-deep ingest queue under 6 concurrent devices forces Busy
        // rejections; the client-side retry must make them invisible: every
        // sample still arrives and every minibatch is still applied.
        let mut rng = StdRng::seed_from_u64(3);
        let (train, _) = GaussianMixtureSpec::new(4, 2)
            .with_train_size(240)
            .with_test_size(10)
            .generate(&mut rng)
            .unwrap();
        let parts = partition(&train, 6, PartitionStrategy::Iid, &mut rng).unwrap();
        let config = ServerConfig::new().with_queue_bound(2);
        let cluster = LocalCluster::new(config).with_device(DeviceConfig::new(4));
        let report = cluster.run(4, 2, &parts).unwrap();
        assert_eq!(report.total_samples, 240);
        assert_eq!(report.server_iterations, 60);
        assert!(report.device_reports.iter().all(|r| r.checkins == 10));
        assert_eq!(report.runtime_stats.get("checkins_applied"), 60);
    }

    #[test]
    fn cluster_respects_server_stopping_criterion() {
        let mut rng = StdRng::seed_from_u64(2);
        let (train, _) = GaussianMixtureSpec::new(4, 2)
            .with_train_size(200)
            .with_test_size(10)
            .generate(&mut rng)
            .unwrap();
        let parts = partition(&train, 4, PartitionStrategy::Iid, &mut rng).unwrap();
        let cluster = LocalCluster::new(ServerConfig::new().with_max_iterations(10))
            .with_device(DeviceConfig::new(1));
        let report = cluster.run(4, 2, &parts).unwrap();
        assert_eq!(report.server_iterations, 10);
        // At least one device observed the stop signal.
        assert!(report.device_reports.iter().any(|r| r.stopped_by_server));
    }
}
