//! The six workloads: fleet shape, device configuration and server
//! configuration of each. Names are normative — later issues name their claim
//! as "`metric` on `workload`".

use crowd_core::config::{DeviceConfig, PrivacyConfig, RoundSettings, ServerConfig};
use std::path::Path;

/// Shared secret the token registry and the fleet derive device tokens from.
pub const AUTH_SECRET: u64 = 0x00B0_D6E7;

/// Rounds driven through the durable server before it is killed and
/// recovered. A fixed count decouples `store.recover_s` from write throughput.
pub const RECOVERY_ROUNDS: u64 = 100_000;

/// One selected device in this many drops out of a round (`rounds-masked`).
pub const DROPOUT_ONE_IN: u64 = 16;

/// Shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Normative name.
    pub name: &'static str,
    /// Simulated devices, all in flight at once (closed loop, no think time).
    pub devices: usize,
    /// Feature dimension.
    pub features: usize,
    /// Class count; the parameter length is `features × classes`.
    pub classes: usize,
    /// Device minibatch size `b`.
    pub minibatch: usize,
    /// ε⁻¹ of the device-side privacy mechanism; 0 = non-private.
    pub inverse_epsilon: f64,
    /// Checkins folded into one server epoch.
    pub epoch_size: u64,
    /// WAL + snapshots with fsync on (the store's write path).
    pub durable: bool,
    /// Round protocol with masked submissions and scripted dropouts.
    pub rounds: bool,
    /// Every device round on a fresh TCP connection.
    pub reconnect: bool,
    /// Samples in each device's private slice of the training set.
    pub samples_per_device: usize,
    /// Held-out test error must stay at or below this: 1.5 × the value a
    /// 10 s run at seed 1 reached when the benchmark was defined (seeds 1–10
    /// and 1 s smoke runs all stay under it).
    pub error_ceiling: f64,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper-private",
        devices: 64,
        features: 50,
        classes: 10,
        minibatch: 20,
        inverse_epsilon: 0.1,
        epoch_size: 1,
        durable: false,
        rounds: false,
        reconnect: false,
        samples_per_device: 320,
        error_ceiling: 0.54,
    },
    Workload {
        name: "small-dense",
        devices: 64,
        features: 50,
        classes: 3,
        minibatch: 1,
        inverse_epsilon: 0.0,
        epoch_size: 1,
        durable: false,
        rounds: false,
        reconnect: false,
        samples_per_device: 256,
        error_ceiling: 0.27,
    },
    Workload {
        name: "wide-dense",
        devices: 64,
        features: 500,
        classes: 10,
        minibatch: 1,
        inverse_epsilon: 0.0,
        epoch_size: 16,
        durable: false,
        rounds: false,
        reconnect: false,
        samples_per_device: 64,
        error_ceiling: 0.65,
    },
    Workload {
        name: "durable-fsync",
        devices: 64,
        features: 50,
        classes: 3,
        minibatch: 1,
        inverse_epsilon: 0.0,
        epoch_size: 1,
        durable: true,
        rounds: false,
        reconnect: false,
        samples_per_device: 256,
        error_ceiling: 0.27,
    },
    Workload {
        name: "rounds-masked",
        devices: 256,
        features: 50,
        classes: 10,
        minibatch: 1,
        inverse_epsilon: 0.0,
        epoch_size: 1,
        durable: false,
        rounds: true,
        reconnect: false,
        samples_per_device: 64,
        error_ceiling: 0.49,
    },
    Workload {
        name: "reconnect",
        devices: 64,
        features: 50,
        classes: 3,
        minibatch: 1,
        inverse_epsilon: 0.0,
        epoch_size: 1,
        durable: false,
        rounds: false,
        reconnect: true,
        samples_per_device: 256,
        error_ceiling: 0.27,
    },
];

impl Workload {
    /// Looks a workload up by its normative name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Parameter (and gradient) length `D`.
    pub fn param_dim(&self) -> usize {
        self.features * self.classes
    }

    /// Whether devices add DP noise (and therefore ship quantized gradients).
    pub fn private(&self) -> bool {
        self.inverse_epsilon > 0.0
    }

    /// Device-side configuration.
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig::new(self.minibatch)
    }

    /// Device-side privacy configuration.
    pub fn privacy(&self) -> PrivacyConfig {
        PrivacyConfig::from_inverse_epsilon(self.inverse_epsilon)
            .expect("workload ε⁻¹ is a valid constant")
    }

    /// Server configuration for the timed phase. `data_dir` is used only by a
    /// durable workload.
    pub fn server_config(&self, data_dir: &Path) -> ServerConfig {
        let mut config = ServerConfig::new().with_epoch_size(self.epoch_size);
        if self.durable {
            config = config
                .with_data_dir(data_dir)
                .with_fsync(true)
                .with_snapshot_every(256);
        }
        if self.rounds {
            // The deadline is counted in applied epochs, so it must scale with
            // load: at the default 8 epochs nearly every round expires empty
            // before its cohort's masked submissions arrive.
            config = config.with_rounds(
                RoundSettings::new(self.devices as u64)
                    .with_select_fraction(0.5)
                    .with_deadline_epochs(1024),
            );
        }
        config
    }

    /// Server configuration for the fixed-count recovery phase: durable, no
    /// fsync, and no periodic snapshot, so a restart replays every epoch.
    pub fn recovery_config(&self, data_dir: &Path) -> ServerConfig {
        ServerConfig::new()
            .with_epoch_size(self.epoch_size)
            .with_data_dir(data_dir)
            .with_fsync(false)
            .with_snapshot_every(0)
    }
}

/// Whether `device` drops out of round `round_id`: a pure function of the run
/// seed, the device and the round, so a rerun scripts the same dropouts.
pub fn drops_out(seed: u64, device: u64, round_id: u64) -> bool {
    // SplitMix64 finalizer over the three inputs.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(device.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(round_id.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(DROPOUT_ONE_IN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            w.server_config(Path::new("unused")).validate().unwrap();
            w.device_config().validate().unwrap();
        }
        assert_eq!(Workload::by_name("no-such-workload"), None);
    }

    #[test]
    fn dropout_script_is_a_pure_function_of_seed_device_and_round() {
        let script = |seed| -> Vec<bool> {
            (0..64u64)
                .flat_map(|d| (1..=64u64).map(move |r| drops_out(seed, d, r)))
                .collect()
        };
        assert_eq!(script(1), script(1));
        assert_ne!(script(1), script(2));
        // About one in sixteen of the 4096 (device, round) pairs drops out.
        let dropped = script(1).iter().filter(|&&d| d).count();
        assert!((150..=370).contains(&dropped), "{dropped} dropouts");
        // Each argument matters on its own.
        let varies = |f: &dyn Fn(u64) -> bool| (0..256).any(|i| f(i) != f(0));
        assert!(varies(&|d| drops_out(1, d, 1)));
        assert!(varies(&|r| drops_out(1, 1, r)));
        assert!(varies(&|s| drops_out(s, 1, 1)));
    }
}
