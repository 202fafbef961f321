//! Deterministic fleet driver: real [`Device`]s on one TCP server, under a
//! seeded [`FaultPlan`].
//!
//! The driver steps a fleet of devices round-robin from ONE thread against a
//! live [`ReactorServer`]: each device observes its next sample and, when its
//! minibatch fills, checks out, computes, and checks in. Every request the
//! driver makes is idempotent (a read, or a checkin carrying its dedup
//! nonce), so it calls each client method once and the client's own retries
//! absorb whatever the fault shim injects until the server answers. Under
//! [`FaultPlan::fault_free`] it is the plain networked learning run:
//! [`ChaosCluster::run_on`] drives caller-supplied device partitions, and
//! [`ChaosCluster::run`] a seeded synthetic fleet. The
//! sequential schedule is the determinism anchor: checkins are applied in
//! program order, so two runs that apply every checkin exactly once produce
//! bitwise-identical servers. Transport faults (drops, delays, duplicates,
//! truncations) therefore must not change a single bit of the final
//! parameters — retries plus the checkin dedup nonce make every logical
//! checkin apply exactly once, and `tests/chaos.rs` asserts the bitwise match
//! against a fault-free reference run of the same seed.
//!
//! Churn (late joiners, retirements, stragglers) and scripted server
//! crash/restart points intentionally change *which* checkins happen, so
//! those runs are held to the weaker standing invariants instead: the run
//! terminates, and the ε ledger charges exactly one per-checkin ε per
//! acknowledged checkin — never more (no over-charging through duplicates,
//! retries, or crash recovery).

use crate::client::{CheckedOutParams, CheckinOutcome, DeviceClient, RetryPolicy};
use crate::fault::FaultPlan;
use crate::reactor_server::{ReactorServer, ReactorServerHandle};
use crate::{NetError, Result};
use crowd_core::config::{DeviceConfig, PrivacyConfig, RoundSettings, ServerConfig};
use crowd_core::device::{CheckinPayload, Device, DeviceAction};
use crowd_data::Dataset;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_proto::auth::{AuthToken, TokenRegistry};
use crowd_proto::message::ErrorCode;
use crowd_rounds::Role;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Cap on recorded trace lines, so a pathological run cannot balloon memory.
const MAX_TRACE_LINES: usize = 10_000;

/// How many 1 ms naps the final scrape waits, at most, for the reactor to
/// see the last exchange's connection close. A fault-free run needs at most
/// one. A faulted one can end with connections the reactor never sees close
/// (a request and its sender's hang-up read in one go), so the wait is kept
/// short.
const CLOSE_WAIT_POLLS: usize = 20;

/// Configuration of one chaos run: the workload plus the fault plan.
#[derive(Debug, Clone)]
pub struct ChaosCluster {
    /// The seeded fault schedule driving transport faults, churn, and crashes.
    pub plan: FaultPlan,
    /// Fleet size of the seeded synthetic fleet [`Self::run`] builds (and
    /// the cohort population [`Self::with_rounds`] sets up);
    /// [`Self::run_on`] reads the fleet size off its partitions.
    pub devices: usize,
    /// Samples each device of the seeded fleet observes (its local stream
    /// length); only [`Self::run`] reads it.
    pub samples_per_device: usize,
    /// Device minibatch size `b`.
    pub minibatch: usize,
    /// Privacy configuration every device sanitizes its checkins with.
    pub privacy: PrivacyConfig,
    /// ε charged per checkin on the server's ledger (tracking only — the
    /// ceiling stays infinite so no device is refused mid-run).
    pub per_checkin_epsilon: f64,
    /// Feature dimension of the seeded fleet's synthetic task; only
    /// [`Self::run`] reads it.
    pub dim: usize,
    /// Class count of the seeded fleet's synthetic task; only [`Self::run`]
    /// reads it.
    pub classes: usize,
    /// Base server configuration (schedule, agg knobs); budget and persistence
    /// are layered on top by the driver.
    pub server: ServerConfig,
    /// Cohort-round settings; `Some` runs the server in rounds mode (wire
    /// v6): selected devices submit masked shares through
    /// [`crate::RoundSession`], unselected devices free-run, and the churn
    /// schedule's scripted mid-round dropouts simply never submit.
    pub rounds: Option<RoundSettings>,
    /// Data directory for a durable server. Required when the plan scripts
    /// crashes; `None` runs volatile.
    pub data_dir: Option<PathBuf>,
    /// Shared secret for device auth tokens.
    pub auth_secret: u64,
}

/// What a chaos run left behind: final server state plus the counters the
/// invariants are checked against.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Final global parameters.
    pub params: Vector,
    /// Applied server iterations.
    pub iterations: u64,
    /// Per-device cumulative ε spend, ascending by device id.
    pub ledger: Vec<(u64, f64)>,
    /// Total samples the server saw.
    pub total_samples: u64,
    /// Acknowledged checkins per device (each logical checkin counted once,
    /// however many wire attempts it took).
    pub acked_checkins: Vec<u64>,
    /// Scripted server crash/restart cycles performed.
    pub restarts: u64,
    /// Devices that joined after round 0.
    pub late_joins: u64,
    /// Devices that retired before exhausting their stream.
    pub retired: u64,
    /// Duplicate checkins the server answered from its dedup table, summed
    /// across server incarnations.
    pub dedup_replays: u64,
    /// Scripted mid-round cohort dropouts performed (minibatches a selected
    /// device discarded instead of submitting). Zero outside rounds mode.
    pub round_dropouts: u64,
    /// The final server incarnation's full crowd-scope metric snapshot
    /// (counters, gauges, histograms) — what a wire scrape of that server
    /// would have reported at the end of the run.
    pub metrics: crowd_telemetry::MetricsSnapshot,
    /// Event log: one line per notable event, for the failure artifact.
    pub trace: Vec<String>,
}

struct Driver<'a> {
    opts: &'a ChaosCluster,
    /// One local data stream per device, indexed by device id.
    partitions: &'a [Dataset],
    dim: usize,
    classes: usize,
    trace: Vec<String>,
}

impl ChaosCluster {
    /// A small default workload under the given plan: 4 non-private devices
    /// × 24 samples, minibatch 3, per-checkin ε 0.25.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosCluster {
            plan,
            devices: 4,
            samples_per_device: 24,
            minibatch: 3,
            privacy: PrivacyConfig::non_private(),
            per_checkin_epsilon: 0.25,
            dim: 4,
            classes: 3,
            server: ServerConfig::new().with_rate_constant(1.0),
            rounds: None,
            data_dir: None,
            auth_secret: 0xC4A05,
        }
    }

    /// Enables cohort rounds over the cluster's own fleet: every device is in
    /// the population, half are selected per round, and the deadline is tuned
    /// short enough that dropped-out cohorts still expire within a run.
    pub fn with_rounds(mut self) -> Self {
        self.rounds = Some(RoundSettings::new(self.devices as u64).with_deadline_epochs(4));
        self
    }

    /// Runs the seeded synthetic fleet under the plan: `devices` streams of
    /// `samples_per_device` samples of a `dim`×`classes` Gaussian mixture,
    /// each derived from the plan's seed alone (never from the fault
    /// schedule), so every plan over one seed sees identical data.
    pub fn run(&self) -> Result<ChaosReport> {
        let partitions = (0..self.devices as u64)
            .map(|d| self.seeded_partition(d))
            .collect::<Result<Vec<_>>>()?;
        self.run_on(&partitions)
    }

    /// Runs one device per entry of `partitions` (device `d` observes
    /// `partitions[d]` in order) under the plan, until the longest partition
    /// is exhausted or the server stops the task. The model shape is read off
    /// the partitions, which must be non-empty and agree on dimension and
    /// class count. Deterministic given the plan, the workload knobs and the
    /// data (modulo retry *counts*, which may vary with scheduling; the
    /// applied checkin sequence never does).
    pub fn run_on(&self, partitions: &[Dataset]) -> Result<ChaosReport> {
        if self.plan.crash.is_some() && self.data_dir.is_none() {
            return Err(invalid_input(
                "a crash plan requires a durable server (set data_dir)",
            ));
        }
        let first = partitions
            .first()
            .ok_or_else(|| invalid_input("a run needs at least one device partition"))?;
        let (dim, classes) = (first.dim(), first.num_classes());
        if partitions
            .iter()
            .any(|p| p.dim() != dim || p.num_classes() != classes)
        {
            return Err(invalid_input(
                "device partitions disagree on dimension or class count",
            ));
        }
        Driver {
            opts: self,
            partitions,
            dim,
            classes,
            trace: Vec::new(),
        }
        .run()
    }

    fn seeded_partition(&self, device_id: u64) -> Result<Dataset> {
        let mut rng = StdRng::seed_from_u64(self.plan.seed ^ (device_id << 20) ^ 0xDA7A);
        let (train, _test) =
            crowd_data::synthetic::GaussianMixtureSpec::new(self.dim, self.classes)
                .with_train_size(self.samples_per_device)
                .with_test_size(1)
                .generate(&mut rng)
                .map_err(crowd_core::CoreError::from)?;
        Ok(train)
    }
}

fn invalid_input(detail: &str) -> NetError {
    NetError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        detail,
    ))
}

impl Driver<'_> {
    fn log(&mut self, line: String) {
        if self.trace.len() < MAX_TRACE_LINES {
            self.trace.push(line);
        }
    }

    fn server_config(&self) -> ServerConfig {
        let mut config = self
            .opts
            .server
            .clone()
            .with_budget(self.opts.per_checkin_epsilon, f64::INFINITY);
        if let Some(rounds) = self.opts.rounds {
            config = config.with_rounds(rounds);
        }
        if let Some(dir) = &self.opts.data_dir {
            config = config.with_data_dir(dir).with_snapshot_every(3);
        }
        config
    }

    fn start_server(&self) -> Result<ReactorServerHandle> {
        let model = MulticlassLogistic::new(self.dim, self.classes)?;
        let tokens =
            TokenRegistry::with_derived_tokens(self.partitions.len() as u64, self.opts.auth_secret);
        ReactorServer::start(model, self.server_config(), tokens)
    }

    fn run(mut self) -> Result<ChaosReport> {
        let opts = self.opts;
        let partitions = self.partitions;
        let fleet = partitions.len();
        self.log(opts.plan.describe());
        let mut handle = self.start_server()?;
        let model = MulticlassLogistic::new(self.dim, self.classes)?;
        let faults = Arc::new(opts.plan.transport);
        // Every request here is idempotent, so the client retries transport
        // faults and busy replies until the server answers; termination rests
        // on the plan's per-exchange fault rate being below 1 and the suite's
        // watchdog.
        let retry = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        let mut clients: Vec<DeviceClient> = (0..fleet as u64)
            .map(|d| {
                DeviceClient::builder(handle.addr(), d, AuthToken::derive(d, opts.auth_secret))
                    .retry(retry)
                    .transport_faults(Arc::clone(&faults))
                    .build()
            })
            .collect();
        let mut devices: Vec<Device> = (0..fleet as u64)
            .map(|d| Device::new(d, DeviceConfig::new(opts.minibatch), opts.privacy))
            .collect::<crowd_core::Result<_>>()?;
        let mut rngs: Vec<StdRng> = (0..fleet as u64)
            .map(|d| StdRng::seed_from_u64(opts.plan.seed.wrapping_add(d)))
            .collect();
        let mut cursors = vec![0usize; fleet];
        let mut acked = vec![0u64; fleet];
        let mut active = vec![true; fleet];
        let mut crash_points: Vec<u64> = opts
            .plan
            .crash
            .as_ref()
            .map(|c| c.points.clone())
            .unwrap_or_default();
        crash_points.reverse(); // pop() yields ascending order
        let mut restarts = 0u64;
        let mut retired = 0u64;
        let mut dedup_replays = 0u64;
        let mut late_joins = 0u64;
        let mut round_dropouts = 0u64;
        // Rounds mode: the highest round id each device has submitted a
        // masked share to (0 = none yet); a device contributes to a round at
        // most once, later minibatches in the same round free-run.
        let mut last_submitted = vec![0u64; fleet];
        for d in 0..fleet as u64 {
            let join = opts
                .plan
                .churn
                .as_ref()
                .map_or(0, |churn| churn.join_round(d));
            if join > 0 {
                late_joins += 1;
                self.log(format!("device {d} joins late at round {join}"));
            }
        }

        let steps = partitions.iter().map(Dataset::len).max().unwrap_or(0);
        for round in 0..steps as u64 {
            for d in 0..fleet {
                let device_id = d as u64;
                if !active[d] || cursors[d] >= partitions[d].len() {
                    continue;
                }
                if let Some(churn) = &opts.plan.churn {
                    if round < churn.join_round(device_id) {
                        continue;
                    }
                }
                let sample = partitions[d].get(cursors[d]).clone();
                cursors[d] += 1;
                if devices[d].observe(sample) != DeviceAction::RequestCheckout {
                    continue;
                }
                if let Some(churn) = &opts.plan.churn {
                    let stall = churn.straggle_ms(device_id);
                    if stall > 0 {
                        // The straggler path: a slow device whose checkins
                        // trickle in alone, landing on the aggregator's
                        // idle-flush path instead of filling epochs.
                        std::thread::sleep(Duration::from_millis(stall));
                    }
                }
                let checked_out = match self.checkout_until_served(&clients[d], &mut devices[d])? {
                    Some(c) => c,
                    None => {
                        // Budget refusal: the device is done.
                        active[d] = false;
                        continue;
                    }
                };
                if checked_out.stopped {
                    self.log(format!("device {device_id} observed task stop"));
                    active[d] = false;
                    continue;
                }
                let payload = devices[d].compute_checkin(
                    &model,
                    &checked_out.params,
                    checked_out.iteration,
                    opts.server.lambda,
                    &mut rngs[d],
                )?;
                let nonce = payload.nonce;
                if opts.rounds.is_some() {
                    if !self.round_step(&clients[d], payload, &mut last_submitted[d])? {
                        round_dropouts += 1;
                        continue;
                    }
                } else {
                    unless_exhausted(clients[d].checkin(payload)?)?;
                }
                acked[d] += 1;
                self.log(format!(
                    "round {round} device {device_id} checkin nonce {nonce} acked (server it {})",
                    handle.iteration()
                ));
                if let Some(churn) = &opts.plan.churn {
                    if let Some(limit) = churn.retire_after_checkins(device_id) {
                        if acked[d] >= limit {
                            retired += 1;
                            active[d] = false;
                            self.log(format!("device {device_id} retires after {limit} checkins"));
                        }
                    }
                }
                // Scripted crash points: once the applied-iteration count
                // passes the next point, crash-stop the server (no flush, no
                // checkpoint) and restart it from its data directory.
                if crash_points
                    .last()
                    .is_some_and(|&point| handle.iteration() >= point)
                {
                    crash_points.pop();
                    dedup_replays += handle.runtime_stats().get("dedup_replays");
                    let at = handle.iteration();
                    handle.kill();
                    handle = self.start_server()?;
                    restarts += 1;
                    let recovered = handle
                        .recovery_report()
                        .map(|r| (r.from_snapshot, r.replayed_epochs));
                    self.log(format!(
                        "server crash at iteration {at}; restarted (recovery {recovered:?}), \
                         now at {}",
                        handle.iteration()
                    ));
                    let addr = handle.addr();
                    for client in &mut clients {
                        *client = client.clone().with_addr(addr);
                    }
                }
            }
        }

        // Settle the open round before reading the ledger: its pending
        // submissions were acknowledged, so the invariant `ledger == ε·acked`
        // requires their finalization charge to land first.
        handle.settle_rounds();
        // Every exchange closed its connection, but the reactor may not have
        // seen the last close yet; `conns_active` reads it once it has.
        for _ in 0..CLOSE_WAIT_POLLS {
            if handle.reactor_stats().is_none_or(|stats| stats.active == 0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let final_metrics = handle.runtime_stats();
        dedup_replays += final_metrics.get("dedup_replays");
        let report = ChaosReport {
            metrics: final_metrics,
            params: handle.params(),
            iterations: handle.iteration(),
            ledger: handle.budget_ledger(),
            total_samples: handle.total_samples(),
            acked_checkins: acked,
            restarts,
            late_joins,
            retired,
            dedup_replays,
            round_dropouts,
            trace: std::mem::take(&mut self.trace),
        };
        handle.shutdown();
        Ok(report)
    }

    /// Checks the device out. `Ok(None)` when the server refuses the device
    /// for good (budget) — not reachable with an infinite ceiling, but
    /// handled for completeness; any other refusal is returned.
    fn checkout_until_served(
        &self,
        client: &DeviceClient,
        device: &mut Device,
    ) -> Result<Option<CheckedOutParams>> {
        device.begin_checkout()?;
        let checked_out = client.checkout();
        if checked_out.is_err() {
            device.abort_checkout();
        }
        match checked_out {
            Err(NetError::ServerError {
                code: ErrorCode::BudgetExhausted,
                ..
            }) => Ok(None),
            served => served.map(Some),
        }
    }

    /// One minibatch under rounds mode. The device joins the current round;
    /// Unselected devices (and Selected ones whose share is already in)
    /// free-run, Selected devices submit the payload as a masked cohort share
    /// — unless the churn schedule scripts a mid-round dropout, in which case
    /// the minibatch is discarded unsent. A submission the server answers
    /// `RoundOutdated` rejoins the successor round and goes again there.
    /// Returns `Ok(true)` when an ack was obtained, `Ok(false)` when the
    /// dropout fired.
    fn round_step(
        &mut self,
        client: &DeviceClient,
        payload: CheckinPayload,
        last_submitted: &mut u64,
    ) -> Result<bool> {
        loop {
            let session = client.join_round()?;
            let round_id = session.round_id();
            if session.role() == Role::Unselected || *last_submitted == round_id {
                // Free-run checkins are what advance the round's deadline
                // clock, so unselected devices still make progress.
                unless_exhausted(client.checkin(payload)?)?;
                return Ok(true);
            }
            if let Some(churn) = &self.opts.plan.churn {
                if churn.round_dropout(client.device_id(), round_id) {
                    self.log(format!(
                        "device {} drops out of round {round_id} (minibatch nonce {} lost)",
                        client.device_id(),
                        payload.nonce
                    ));
                    return Ok(false);
                }
            }
            let outcome = unless_exhausted(session.submit(&payload)?)?;
            if !matches!(outcome, CheckinOutcome::RoundOutdated { .. }) {
                *last_submitted = round_id;
                return Ok(true);
            }
            // The round closed under us without our share: rejoin the
            // successor round and contribute there instead.
            self.log(format!(
                "device {} outdated in round {round_id}; resyncing",
                client.device_id()
            ));
        }
    }
}

/// Passes a checkin's outcome through, except a budget refusal: the driver's
/// infinite ceiling never refuses a device, so one is an invariant violation
/// to report, not an ack to count.
fn unless_exhausted(outcome: CheckinOutcome) -> Result<CheckinOutcome> {
    if outcome == CheckinOutcome::BudgetExhausted {
        return Err(NetError::Round("budget exhausted mid-chaos-run"));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TransportFaults;
    use crowd_data::partition::{partition, PartitionStrategy};
    use crowd_data::synthetic::GaussianMixtureSpec;
    use crowd_learning::metrics::error_rate;
    use crowd_learning::model::Model;

    #[test]
    fn fault_free_run_is_reproducible_bitwise() {
        let a = ChaosCluster::new(FaultPlan::fault_free(5)).run().unwrap();
        let b = ChaosCluster::new(FaultPlan::fault_free(5)).run().unwrap();
        assert_eq!(a.params.as_slice(), b.params.as_slice());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.ledger, b.ledger);
        assert!(a.iterations > 0);
        assert_eq!(a.restarts, 0);
        assert_eq!(a.dedup_replays, 0);
        // The final scrape waits for the last connection to close.
        assert_eq!(a.metrics.gauge("conns_active"), 0);
        assert_eq!(b.metrics.gauge("conns_active"), 0);
    }

    #[test]
    fn ledger_charges_exactly_once_per_acked_checkin() {
        let report = ChaosCluster::new(FaultPlan::fault_free(3)).run().unwrap();
        for (device, eps) in &report.ledger {
            let expected = 0.25 * report.acked_checkins[*device as usize] as f64;
            assert!(
                (eps - expected).abs() < 1e-9,
                "device {device}: charged {eps}, expected {expected}"
            );
        }
    }

    #[test]
    fn transport_chaos_lands_bitwise_on_reference() {
        // One fixed seed as a unit-level smoke; tests/chaos.rs sweeps many.
        let reference = ChaosCluster::new(FaultPlan::fault_free(11)).run().unwrap();
        let mut plan = FaultPlan::transport_only(11);
        // Keep delays tiny for test latency.
        plan.transport = TransportFaults::from_seed(11, 2);
        let chaotic = ChaosCluster::new(plan).run().unwrap();
        assert_eq!(chaotic.params.as_slice(), reference.params.as_slice());
        assert_eq!(chaotic.iterations, reference.iterations);
        assert_eq!(chaotic.ledger, reference.ledger);
        assert_eq!(chaotic.acked_checkins, reference.acked_checkins);
    }

    #[test]
    fn rounds_fault_free_run_masks_submissions_and_charges_once_per_ack() {
        let report = ChaosCluster::new(FaultPlan::fault_free(21))
            .with_rounds()
            .run()
            .unwrap();
        assert!(report.iterations > 0);
        assert_eq!(report.round_dropouts, 0);
        assert!(
            report.metrics.get("round_submissions") > 0,
            "no masked submissions in a rounds-mode run"
        );
        for (device, eps) in &report.ledger {
            let expected = 0.25 * report.acked_checkins[*device as usize] as f64;
            assert!(
                (eps - expected).abs() < 1e-9,
                "device {device}: charged {eps}, expected {expected}"
            );
        }
    }

    #[test]
    fn rounds_transport_chaos_lands_bitwise_on_reference() {
        let reference = ChaosCluster::new(FaultPlan::fault_free(23))
            .with_rounds()
            .run()
            .unwrap();
        let mut plan = FaultPlan::transport_only(23);
        plan.transport = TransportFaults::from_seed(23, 2);
        let chaotic = ChaosCluster::new(plan).with_rounds().run().unwrap();
        assert_eq!(chaotic.params.as_slice(), reference.params.as_slice());
        assert_eq!(chaotic.iterations, reference.iterations);
        assert_eq!(chaotic.ledger, reference.ledger);
        assert_eq!(chaotic.acked_checkins, reference.acked_checkins);
    }

    #[test]
    fn rounds_with_scripted_dropouts_hold_the_ledger_invariant() {
        let report = ChaosCluster::new(FaultPlan::rounds(29))
            .with_rounds()
            .run()
            .unwrap();
        for (device, eps) in &report.ledger {
            let expected = 0.25 * report.acked_checkins[*device as usize] as f64;
            assert!(
                (eps - expected).abs() < 1e-9,
                "device {device}: charged {eps}, expected {expected}"
            );
        }
    }

    #[test]
    fn crash_plan_without_data_dir_is_rejected() {
        let cluster = ChaosCluster::new(FaultPlan::full(1, 100));
        assert!(cluster.run().is_err());
    }

    #[test]
    fn run_on_rejects_an_empty_or_mismatched_fleet() {
        let cluster = ChaosCluster::new(FaultPlan::fault_free(0));
        assert!(cluster.run_on(&[]).is_err());
        let parts = [Dataset::empty(4, 3).unwrap(), Dataset::empty(5, 3).unwrap()];
        assert!(cluster.run_on(&parts).is_err());
        let parts = [Dataset::empty(4, 3).unwrap(), Dataset::empty(4, 2).unwrap()];
        assert!(cluster.run_on(&parts).is_err());
    }

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

        let cluster = ChaosCluster {
            minibatch: 2,
            server: ServerConfig::new().with_rate_constant(2.0),
            ..ChaosCluster::new(FaultPlan::fault_free(7))
        };
        let report = cluster.run_on(&parts).unwrap();

        assert_eq!(report.total_samples, 300);
        assert_eq!(report.iterations, 150);
        assert_eq!(report.acked_checkins, vec![30; 5]);

        let model = MulticlassLogistic::new(8, 3).unwrap();
        let err = error_rate(&model, &report.params, &test).unwrap();
        assert!(err < 0.25, "networked training error {err}");
        assert_eq!(report.params.len(), model.param_dim());
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
        let cluster = ChaosCluster {
            minibatch: 1,
            server: ServerConfig::new().with_max_iterations(10),
            ..ChaosCluster::new(FaultPlan::fault_free(0))
        };
        let report = cluster.run_on(&parts).unwrap();
        assert_eq!(report.iterations, 10);
        // At least one device observed the stop signal.
        assert!(report
            .trace
            .iter()
            .any(|line| line.contains("observed task stop")));
    }

    /// Regression: a checkout refusal that no retry can cure (here a wrong
    /// auth token) used to be retried forever; it must come back as an error.
    #[test]
    fn checkout_returns_a_refusal_that_is_not_retryable() {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let model = MulticlassLogistic::new(3, 2).unwrap();
            let tokens = TokenRegistry::with_derived_tokens(1, 5);
            let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
            let bad = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 999)).build();
            let cluster = ChaosCluster::new(FaultPlan::fault_free(0));
            let driver = Driver {
                opts: &cluster,
                partitions: &[],
                dim: 3,
                classes: 2,
                trace: Vec::new(),
            };
            let mut device =
                Device::new(0, DeviceConfig::new(1), PrivacyConfig::non_private()).unwrap();
            let result = driver
                .checkout_until_served(&bad, &mut device)
                .map(|served| served.is_some());
            handle.shutdown();
            let _ = tx.send(result);
        });
        // A timeout means the refusal was retried until the watchdog fired.
        let result = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("checkout did not return within the watchdog");
        worker.join().expect("checkout thread panicked");
        assert!(
            matches!(
                result,
                Err(NetError::ServerError {
                    code: ErrorCode::Unauthorized,
                    ..
                })
            ),
            "expected an Unauthorized server error, got {result:?}"
        );
    }
}
