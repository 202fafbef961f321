//! Configuration types for devices, the server, and the privacy mechanisms.

use crate::error::CoreError;
use crate::Result;
use crowd_dp::{Epsilon, PrivacyBudget};
use crowd_learning::LearningRate;
use std::path::PathBuf;

/// Privacy configuration for a Crowd-ML deployment.
///
/// Wraps the per-checkin [`PrivacyBudget`] (ε_g for gradients, ε_e for the error
/// counter, ε_y for each label counter) plus the number of classes needed to
/// compute the total `ε = ε_g + ε_e + C·ε_y` of Appendix B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyConfig {
    /// Per-checkin budget split.
    pub budget: PrivacyBudget,
}

impl PrivacyConfig {
    /// Fully non-private configuration (the ε⁻¹ = 0 setting of Figs. 3–4).
    pub fn non_private() -> Self {
        PrivacyConfig {
            budget: PrivacyBudget::non_private(),
        }
    }

    /// Splits a total ε following the paper's guidance (Appendix B, Remark 1):
    /// 99% of the budget to the gradient, 1% shared by the monitoring counters.
    pub fn with_total_epsilon(total: f64) -> Self {
        let eps = Epsilon::finite(total).unwrap_or(Epsilon::NonPrivate);
        PrivacyConfig {
            budget: PrivacyBudget::split_total(eps, 10, 0.01)
                .unwrap_or_else(|_| PrivacyBudget::non_private()),
        }
    }

    /// Builds the configuration from the inverse ε the paper reports
    /// (`ε⁻¹ = 0.1` in Figs. 5–6 and 8–9; `ε⁻¹ = 0` means non-private).
    pub fn from_inverse_epsilon(inverse: f64) -> Result<Self> {
        let eps = Epsilon::from_inverse(inverse).map_err(CoreError::Privacy)?;
        Ok(match eps {
            Epsilon::NonPrivate => Self::non_private(),
            Epsilon::Finite(v) => Self::with_total_epsilon(v),
        })
    }

    /// The gradient budget ε_g.
    pub fn gradient_epsilon(&self) -> Epsilon {
        self.budget.gradient
    }

    /// `true` when no noise is added anywhere.
    pub fn is_non_private(&self) -> bool {
        self.budget.is_non_private()
    }
}

impl Default for PrivacyConfig {
    fn default() -> Self {
        Self::non_private()
    }
}

/// Per-device configuration (Algorithm 1 inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Minibatch size `b`: the device checks out parameters once it has buffered
    /// this many samples.
    pub minibatch_size: usize,
    /// Maximum buffer size `B`: sample collection pauses beyond this bound "to
    /// prevent resource outage".
    pub max_buffer: usize,
    /// Fraction of buffered samples set aside as held-out test data (Remark 2);
    /// their gradients are excluded from the average.
    pub holdout_fraction: f64,
}

impl DeviceConfig {
    /// Creates a device configuration with buffer bound `4·b` and no holdout.
    pub fn new(minibatch_size: usize) -> Self {
        DeviceConfig {
            minibatch_size,
            max_buffer: minibatch_size.saturating_mul(4).max(1),
            holdout_fraction: 0.0,
        }
    }

    /// Sets the maximum buffer size.
    pub fn with_max_buffer(mut self, max_buffer: usize) -> Self {
        self.max_buffer = max_buffer;
        self
    }

    /// Sets the held-out fraction.
    pub fn with_holdout_fraction(mut self, fraction: f64) -> Self {
        self.holdout_fraction = fraction;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.minibatch_size == 0 {
            return Err(CoreError::Config("minibatch_size must be positive".into()));
        }
        if self.max_buffer < self.minibatch_size {
            return Err(CoreError::Config(format!(
                "max_buffer {} must be at least the minibatch size {}",
                self.max_buffer, self.minibatch_size
            )));
        }
        if !(0.0..1.0).contains(&self.holdout_fraction) {
            return Err(CoreError::Config(format!(
                "holdout_fraction {} must be in [0, 1)",
                self.holdout_fraction
            )));
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::new(1)
    }
}

/// Tuning knobs of the aggregation runtime (`crowd-agg`) that serves the
/// checkin write path behind a deployed server.
///
/// The runtime has no thread pool: the threads that submit checkins run
/// them, and one that finds the core lock taken leaves its checkin on a
/// combining queue for the lock's holder. At most `queue_bound` checkins wait
/// there (the rest are rejected with a retry-after hint instead of piling
/// up). The runtime folds the accumulated gradients into one projected SGD
/// step once `epoch_size` checkins have arrived. `epoch_size = 1` reproduces
/// the paper's per-checkin update `w ← Π_W[w − η(t)ĝ]` exactly; larger epochs
/// apply the *mean* of the epoch's gradients as a single step (synchronous
/// minibatch aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSettings {
    /// Capacity of the combining queue: checkins waiting for the holder of
    /// the core lock. A full queue rejects checkins with a "server busy"
    /// reply carrying [`AggSettings::retry_after_ms`].
    pub queue_bound: usize,
    /// Number of checkins folded into one server update. 1 = per-checkin SGD.
    pub epoch_size: u64,
    /// Retry hint (milliseconds) returned with backpressure rejections.
    pub retry_after_ms: u32,
    /// Idle flush interval in milliseconds: a partially filled epoch is applied
    /// once no checkin has arrived for this long, so a trickle of checkins
    /// never stalls behind an unreachable `epoch_size`. 0 disables idle flushes
    /// (epochs then close only on `epoch_size` or shutdown), which makes epoch
    /// boundaries — and therefore the whole run — independent of thread timing.
    pub flush_idle_ms: u32,
}

impl AggSettings {
    /// Defaults: 1024-deep queue, per-checkin updates, 2 ms retry hint,
    /// 1 ms idle flush.
    pub fn new() -> Self {
        AggSettings {
            queue_bound: 1024,
            epoch_size: 1,
            retry_after_ms: 2,
            flush_idle_ms: 1,
        }
    }

    /// Validates the settings.
    pub fn validate(&self) -> Result<()> {
        if self.queue_bound == 0 {
            return Err(CoreError::Config("queue_bound must be positive".into()));
        }
        if self.epoch_size == 0 {
            return Err(CoreError::Config("epoch_size must be positive".into()));
        }
        Ok(())
    }
}

impl Default for AggSettings {
    fn default() -> Self {
        AggSettings::new()
    }
}

/// Durability knobs of the persistence subsystem (`crowd-store`).
///
/// A server with a `data_dir` keeps a CRC-framed write-ahead log of every
/// applied epoch plus periodic atomic-rename full snapshots; on restart it
/// loads the latest snapshot and replays the WAL tail to a state bitwise
/// identical to an uninterrupted run. The log is group-committed: epochs are
/// staged in memory as they are applied, one write (and one `fsync`) makes
/// everything staged durable, and only then are those epochs acknowledged or
/// visible to checkouts — so a crash loses at most a suffix of unacknowledged
/// epochs, and a commit that fails halts the runtime rather than one epoch.
/// Group size follows the load; there is nothing to tune. With
/// `data_dir = None` (the default) the server is volatile, exactly as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistSettings {
    /// Directory holding the snapshot and WAL files. `None` disables
    /// persistence entirely.
    pub data_dir: Option<PathBuf>,
    /// Full snapshot (and WAL rotation/compaction) every this many applied
    /// epochs. 0 = snapshot only at clean shutdown.
    pub snapshot_every_epochs: u64,
    /// `fsync` the WAL once per commit group, the snapshot after every write,
    /// and the data directory after every file creation or rename. Required
    /// for durability across power loss; off by default because the tests and
    /// benches only need durability across process crashes.
    pub fsync: bool,
}

impl PersistSettings {
    /// Defaults: persistence disabled, snapshot every 256 epochs once enabled,
    /// no fsync.
    pub fn new() -> Self {
        PersistSettings {
            data_dir: None,
            snapshot_every_epochs: 256,
            fsync: false,
        }
    }

    /// `true` when a data directory is configured.
    pub fn is_enabled(&self) -> bool {
        self.data_dir.is_some()
    }

    /// Validates the settings.
    pub fn validate(&self) -> Result<()> {
        if let Some(dir) = &self.data_dir {
            if dir.as_os_str().is_empty() {
                return Err(CoreError::Config("data_dir must not be empty".into()));
            }
        }
        Ok(())
    }
}

impl Default for PersistSettings {
    fn default() -> Self {
        PersistSettings::new()
    }
}

/// Per-device privacy-budget accounting enforced on the server's write path.
///
/// The server is the custodian of how much ε each device has already spent;
/// every checkin a device contributes is charged `per_checkin_epsilon` to its
/// ledger (the `ε_g + ε_e + C·ε_y` total of Appendix B), and once a device
/// reaches `ceiling` the server refuses to serve it further checkouts or accept
/// its checkins — it will not silently over-query a device past its ε budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSettings {
    /// ε charged per checkin. 0 disables accounting.
    pub per_checkin_epsilon: f64,
    /// Per-device ε ceiling; `f64::INFINITY` = track spend without enforcing.
    pub ceiling: f64,
}

impl BudgetSettings {
    /// Defaults: accounting disabled (no per-checkin cost, infinite ceiling).
    pub fn new() -> Self {
        BudgetSettings {
            per_checkin_epsilon: 0.0,
            ceiling: f64::INFINITY,
        }
    }

    /// `true` when no spend would ever be recorded.
    pub fn is_disabled(&self) -> bool {
        self.per_checkin_epsilon == 0.0 && self.ceiling.is_infinite()
    }

    /// Validates the settings.
    pub fn validate(&self) -> Result<()> {
        if self.per_checkin_epsilon < 0.0 || !self.per_checkin_epsilon.is_finite() {
            return Err(CoreError::Config(
                "per_checkin_epsilon must be finite and non-negative".into(),
            ));
        }
        if self.ceiling <= 0.0 || self.ceiling.is_nan() {
            return Err(CoreError::Config(
                "budget ceiling must be positive (or infinite)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for BudgetSettings {
    fn default() -> Self {
        BudgetSettings::new()
    }
}

/// Round-based cohort protocol settings (wire v6).
///
/// When configured, the server runs the `crowd-rounds` protocol: it publishes
/// `crowd_proto::message::RoundParams`-shaped parameters in every checkout,
/// accepts exactly one masked submission per selected device per round, and
/// folds the unmasked cohort sum into the model when the round finalizes
/// (cohort complete or `deadline_epochs` applied epochs elapsed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSettings {
    /// Fraction of the population selected into each round's cohort, in
    /// `(0, 1]`.
    pub select_fraction: f64,
    /// A round expires after this many applied server epochs without cohort
    /// completion; survivors are then finalized with dropout compensation.
    pub deadline_epochs: u32,
    /// Device-id population the selection draws from (`0..population`).
    pub population: u64,
    /// Base seed; each round's selection seed is derived from
    /// `(seed, round_id)`.
    pub seed: u64,
}

impl RoundSettings {
    /// Defaults: half the population per round, 8-epoch deadline.
    pub fn new(population: u64) -> Self {
        RoundSettings {
            select_fraction: 0.5,
            deadline_epochs: 8,
            population,
            seed: 0x0C0D_0217,
        }
    }

    /// Sets the cohort selection fraction.
    pub fn with_select_fraction(mut self, fraction: f64) -> Self {
        self.select_fraction = fraction;
        self
    }

    /// Sets the round deadline in applied epochs.
    pub fn with_deadline_epochs(mut self, epochs: u32) -> Self {
        self.deadline_epochs = epochs;
        self
    }

    /// Sets the base selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the settings.
    pub fn validate(&self) -> Result<()> {
        if !(self.select_fraction.is_finite()
            && self.select_fraction > 0.0
            && self.select_fraction <= 1.0)
        {
            return Err(CoreError::Config(format!(
                "select_fraction {} must be in (0, 1]",
                self.select_fraction
            )));
        }
        if self.deadline_epochs == 0 {
            return Err(CoreError::Config("deadline_epochs must be positive".into()));
        }
        if self.population == 0 {
            return Err(CoreError::Config(
                "round population must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Server configuration (Algorithm 2 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Learning-rate schedule η(t); the paper's default is `c/√t`.
    pub schedule: LearningRate,
    /// L2 regularization strength λ.
    pub lambda: f64,
    /// Radius `R` of the parameter ball for the projection `Π_W`.
    pub radius: f64,
    /// Maximum number of server updates `T_max`.
    pub max_iterations: u64,
    /// Desired overall error ρ: the task stops when the (privately estimated)
    /// error falls below this value. Use 0 to disable the error-based stop.
    pub target_error: f64,
    /// Aggregation-runtime knobs used by deployed (networked) servers.
    pub agg: AggSettings,
    /// Durability knobs of the persistence subsystem (`crowd-store`).
    pub persist: PersistSettings,
    /// Per-device privacy-budget accounting on the checkin write path.
    pub budget: BudgetSettings,
    /// Round-based cohort protocol; `None` (the default) free-runs as before.
    pub rounds: Option<RoundSettings>,
}

impl ServerConfig {
    /// A default configuration: `η(t) = 1/√t`, no regularization, radius 100,
    /// effectively unbounded iterations, no error-based stop.
    pub fn new() -> Self {
        ServerConfig {
            schedule: LearningRate::InvSqrt { c: 1.0 },
            lambda: 0.0,
            radius: 100.0,
            max_iterations: u64::MAX,
            target_error: 0.0,
            agg: AggSettings::new(),
            persist: PersistSettings::new(),
            budget: BudgetSettings::new(),
            rounds: None,
        }
    }

    /// Sets the learning-rate constant `c` of the paper's `c/√t` schedule.
    pub fn with_rate_constant(mut self, c: f64) -> Self {
        self.schedule = LearningRate::InvSqrt { c };
        self
    }

    /// Sets the regularization strength.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the maximum iteration count.
    pub fn with_max_iterations(mut self, t_max: u64) -> Self {
        self.max_iterations = t_max;
        self
    }

    /// Sets the target error ρ.
    pub fn with_target_error(mut self, rho: f64) -> Self {
        self.target_error = rho;
        self
    }

    /// Replaces the aggregation-runtime settings wholesale.
    pub fn with_agg(mut self, agg: AggSettings) -> Self {
        self.agg = agg;
        self
    }

    /// Sets the ingest-queue capacity of the aggregation runtime.
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.agg.queue_bound = bound;
        self
    }

    /// Sets how many checkins are folded into one server update.
    pub fn with_epoch_size(mut self, epoch: u64) -> Self {
        self.agg.epoch_size = epoch;
        self
    }

    /// Enables durability: WAL + snapshots under `data_dir`, recovery at start.
    pub fn with_data_dir(mut self, data_dir: impl Into<PathBuf>) -> Self {
        self.persist.data_dir = Some(data_dir.into());
        self
    }

    /// Sets the snapshot/rotation cadence (applied epochs between snapshots;
    /// 0 = snapshot only at clean shutdown).
    pub fn with_snapshot_every(mut self, epochs: u64) -> Self {
        self.persist.snapshot_every_epochs = epochs;
        self
    }

    /// Enables `fsync` on WAL appends and snapshot writes.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.persist.fsync = fsync;
        self
    }

    /// Enables per-device ε accounting: `per_checkin_epsilon` charged per
    /// checkin against a per-device `ceiling` (use `f64::INFINITY` to track
    /// without enforcing).
    pub fn with_budget(mut self, per_checkin_epsilon: f64, ceiling: f64) -> Self {
        self.budget = BudgetSettings {
            per_checkin_epsilon,
            ceiling,
        };
        self
    }

    /// Enables the round-based cohort protocol.
    pub fn with_rounds(mut self, rounds: RoundSettings) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.schedule.c() <= 0.0 || !self.schedule.c().is_finite() {
            return Err(CoreError::Config(
                "learning-rate constant must be positive".into(),
            ));
        }
        if self.lambda < 0.0 || !self.lambda.is_finite() {
            return Err(CoreError::Config("lambda must be non-negative".into()));
        }
        if self.radius <= 0.0 || !self.radius.is_finite() {
            return Err(CoreError::Config("radius must be positive".into()));
        }
        if self.max_iterations == 0 {
            return Err(CoreError::Config("max_iterations must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.target_error) {
            return Err(CoreError::Config("target_error must be in [0, 1]".into()));
        }
        self.agg.validate()?;
        self.persist.validate()?;
        self.budget.validate()?;
        if let Some(rounds) = &self.rounds {
            rounds.validate()?;
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// Complete configuration of a Crowd-ML task.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdMlConfig {
    /// Per-device configuration.
    pub device: DeviceConfig,
    /// Server configuration.
    pub server: ServerConfig,
    /// Privacy configuration.
    pub privacy: PrivacyConfig,
}

impl CrowdMlConfig {
    /// Creates a configuration from its parts, validating each.
    pub fn new(device: DeviceConfig, server: ServerConfig, privacy: PrivacyConfig) -> Result<Self> {
        device.validate()?;
        server.validate()?;
        Ok(CrowdMlConfig {
            device,
            server,
            privacy,
        })
    }

    /// A non-private single-sample-minibatch configuration (the paper's Fig. 4
    /// Crowd-ML setting).
    pub fn default_non_private() -> Self {
        CrowdMlConfig {
            device: DeviceConfig::new(1),
            server: ServerConfig::new(),
            privacy: PrivacyConfig::non_private(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privacy_config_constructors() {
        assert!(PrivacyConfig::non_private().is_non_private());
        assert!(PrivacyConfig::default().is_non_private());
        let p = PrivacyConfig::with_total_epsilon(10.0);
        assert!(!p.is_non_private());
        assert!(p.gradient_epsilon().is_private());
        // Inverse convention: 0 → non-private, 0.1 → ε = 10.
        assert!(PrivacyConfig::from_inverse_epsilon(0.0)
            .unwrap()
            .is_non_private());
        let q = PrivacyConfig::from_inverse_epsilon(0.1).unwrap();
        assert!((q.budget.total_per_checkin(10) - 10.0).abs() < 1e-9);
        assert!(PrivacyConfig::from_inverse_epsilon(-1.0).is_err());
        // Degenerate total falls back to non-private rather than panicking.
        assert!(PrivacyConfig::with_total_epsilon(0.0).is_non_private());
    }

    #[test]
    fn device_config_validation() {
        assert!(DeviceConfig::new(1).validate().is_ok());
        assert!(DeviceConfig::new(0).validate().is_err());
        assert!(DeviceConfig::new(10).with_max_buffer(5).validate().is_err());
        assert!(DeviceConfig::new(10)
            .with_holdout_fraction(1.5)
            .validate()
            .is_err());
        let d = DeviceConfig::new(20);
        assert_eq!(d.max_buffer, 80);
        assert_eq!(DeviceConfig::default().minibatch_size, 1);
    }

    #[test]
    fn server_config_validation() {
        assert!(ServerConfig::new().validate().is_ok());
        assert!(ServerConfig::new()
            .with_rate_constant(0.0)
            .validate()
            .is_err());
        assert!(ServerConfig::new().with_lambda(-1.0).validate().is_err());
        let mut s = ServerConfig::new();
        s.radius = 0.0;
        assert!(s.validate().is_err());
        s = ServerConfig::new();
        s.max_iterations = 0;
        assert!(s.validate().is_err());
        assert!(ServerConfig::new()
            .with_target_error(1.5)
            .validate()
            .is_err());
        assert_eq!(ServerConfig::default(), ServerConfig::new());
    }

    #[test]
    fn agg_settings_validation_and_builders() {
        assert!(AggSettings::new().validate().is_ok());
        assert_eq!(AggSettings::default(), AggSettings::new());
        for broken in [
            AggSettings {
                queue_bound: 0,
                ..AggSettings::new()
            },
            AggSettings {
                epoch_size: 0,
                ..AggSettings::new()
            },
        ] {
            assert!(broken.validate().is_err());
            assert!(ServerConfig::new().with_agg(broken).validate().is_err());
        }
        let tuned = ServerConfig::new().with_queue_bound(16).with_epoch_size(32);
        assert_eq!(tuned.agg.queue_bound, 16);
        assert_eq!(tuned.agg.epoch_size, 32);
        assert!(tuned.validate().is_ok());
    }

    #[test]
    fn persist_and_budget_settings_validate() {
        assert!(PersistSettings::new().validate().is_ok());
        assert!(!PersistSettings::new().is_enabled());
        assert_eq!(PersistSettings::default(), PersistSettings::new());
        let enabled = ServerConfig::new()
            .with_data_dir("/tmp/crowd-store")
            .with_snapshot_every(8)
            .with_fsync(true);
        assert!(enabled.persist.is_enabled());
        assert_eq!(enabled.persist.snapshot_every_epochs, 8);
        assert!(enabled.persist.fsync);
        assert!(enabled.validate().is_ok());
        let empty_dir = ServerConfig::new().with_data_dir("");
        assert!(empty_dir.validate().is_err());

        assert!(BudgetSettings::new().validate().is_ok());
        assert!(BudgetSettings::new().is_disabled());
        assert_eq!(BudgetSettings::default(), BudgetSettings::new());
        let tracked = ServerConfig::new().with_budget(0.5, 10.0);
        assert!(!tracked.budget.is_disabled());
        assert!(tracked.validate().is_ok());
        assert!(ServerConfig::new()
            .with_budget(-0.1, 10.0)
            .validate()
            .is_err());
        assert!(ServerConfig::new()
            .with_budget(f64::NAN, 10.0)
            .validate()
            .is_err());
        assert!(ServerConfig::new()
            .with_budget(0.5, 0.0)
            .validate()
            .is_err());
        assert!(ServerConfig::new()
            .with_budget(0.5, f64::NAN)
            .validate()
            .is_err());
        // Tracking-only (infinite ceiling, positive cost) is valid and enabled.
        let tracking = BudgetSettings {
            per_checkin_epsilon: 0.1,
            ceiling: f64::INFINITY,
        };
        assert!(tracking.validate().is_ok());
        assert!(!tracking.is_disabled());
    }

    #[test]
    fn round_settings_validate() {
        assert!(RoundSettings::new(8).validate().is_ok());
        let cfg = ServerConfig::new().with_rounds(
            RoundSettings::new(8)
                .with_select_fraction(0.25)
                .with_deadline_epochs(4)
                .with_seed(99),
        );
        let r = cfg.rounds.unwrap();
        assert_eq!(r.select_fraction, 0.25);
        assert_eq!(r.deadline_epochs, 4);
        assert_eq!(r.seed, 99);
        assert!(cfg.validate().is_ok());
        for broken in [
            RoundSettings::new(8).with_select_fraction(0.0),
            RoundSettings::new(8).with_select_fraction(1.5),
            RoundSettings::new(8).with_select_fraction(f64::NAN),
            RoundSettings::new(8).with_deadline_epochs(0),
            RoundSettings::new(0),
        ] {
            assert!(broken.validate().is_err());
            assert!(ServerConfig::new().with_rounds(broken).validate().is_err());
        }
        // ServerConfig::new() stays round-free (wire round_id 0 = free-run).
        assert!(ServerConfig::new().rounds.is_none());
    }

    #[test]
    fn crowd_config_composition() {
        let ok = CrowdMlConfig::new(
            DeviceConfig::new(5),
            ServerConfig::new().with_rate_constant(0.5),
            PrivacyConfig::with_total_epsilon(1.0),
        );
        assert!(ok.is_ok());
        let bad = CrowdMlConfig::new(
            DeviceConfig::new(0),
            ServerConfig::new(),
            PrivacyConfig::non_private(),
        );
        assert!(bad.is_err());
        let d = CrowdMlConfig::default_non_private();
        assert!(d.privacy.is_non_private());
        assert_eq!(d.device.minibatch_size, 1);
    }
}
