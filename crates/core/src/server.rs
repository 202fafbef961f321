//! Server-side state machine: Server Routines 1–2 of Algorithm 2.
//!
//! The [`Server`] hands out the current parameters on checkout, applies the
//! projected SGD update `w ← Π_W[w − η(t)·ĝ]` on checkin, accumulates the
//! per-device counters `N_s^m`, `N_e^m`, `N_y^{k,m}`, and evaluates the stopping
//! criterion `t ≥ T_max` or `Σ N_e / Σ N_s ≤ ρ`.

use crate::config::{RoundSettings, ServerConfig};
use crate::device::CheckinPayload;
use crate::error::CoreError;
use crate::Result;
use crowd_learning::dp::BudgetAccountant;
use crowd_learning::model::Model;
use crowd_learning::LearningRate;
use crowd_linalg::ops::project_l2_ball;
use crowd_linalg::random::normal_vector;
use crowd_linalg::Vector;
use rand::Rng;
use std::collections::BTreeMap;

/// Per-device progress statistics maintained by the server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceProgress {
    /// Total samples reported (`N_s^m`).
    pub samples: u64,
    /// Total (perturbed) misclassifications reported (`N_e^m`).
    pub errors: i64,
    /// Total (perturbed) per-class label counts (`N_y^{k,m}`).
    pub label_counts: Vec<i64>,
    /// Number of checkins received from the device.
    pub checkins: u64,
}

/// The result of serving a checkout request (Server Routine 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckoutTicket {
    /// The server iteration at which the parameters were read.
    pub iteration: u64,
    /// A copy of the current parameters.
    pub params: Vector,
    /// Whether the stopping criterion has already been met.
    pub stopped: bool,
}

/// Per-device contribution to one aggregation epoch.
///
/// Produced by the aggregation runtime (`crowd-agg`): each device's checkins
/// within the epoch are pre-summed in the device's own accumulator, and the
/// merged epoch lists devices in ascending-id order so the floating-point fold
/// is bitwise reproducible regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEpochStats {
    /// The contributing device.
    pub device_id: u64,
    /// Checkins the device contributed to this epoch.
    pub checkins: u64,
    /// Samples reported (`Σ n_s` over the device's epoch checkins).
    pub samples: u64,
    /// Perturbed misclassification counts (`Σ n̂_e`).
    pub errors: i64,
    /// Perturbed per-class label counts (`Σ n̂_y^k`).
    pub label_counts: Vec<i64>,
}

/// A merged aggregation epoch: the write-path input of the split server.
///
/// [`Server::checkout`] is the read path (a parameter snapshot); applying one of
/// these is the entire write path. With `checkin_count == 1` the update is
/// bit-for-bit the paper's per-checkin step `w ← Π_W[w − η(t)ĝ]`; with more
/// checkins the *mean* of the epoch's gradients is applied as one step.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochAggregate {
    /// Sum of the sanitized gradients folded in fixed device order.
    pub gradient_sum: Vector,
    /// Number of checkins in the epoch (the divisor for the mean gradient).
    pub checkin_count: u64,
    /// The oldest checkout iteration among the epoch's checkins (staleness is
    /// measured against the most out-of-date contribution).
    pub min_checkout_iteration: u64,
    /// Per-device monitoring statistics, ascending by device id.
    pub device_stats: Vec<DeviceEpochStats>,
}

impl EpochAggregate {
    /// The aggregate of a single checkin; applying it is equivalent to the
    /// classic [`Server::checkin`].
    pub fn from_payload(payload: &CheckinPayload) -> Self {
        EpochAggregate {
            gradient_sum: payload.gradient.to_dense(),
            checkin_count: 1,
            min_checkout_iteration: payload.checkout_iteration,
            device_stats: vec![DeviceEpochStats {
                device_id: payload.device_id,
                checkins: 1,
                samples: payload.num_samples as u64,
                errors: payload.error_count,
                label_counts: payload.label_counts.clone(),
            }],
        }
    }
}

/// The server-side record of a settled checkin (Server Routine 2). What a
/// device sees of it over TCP is `crowd_net::CheckinOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckinReceipt {
    /// Whether the gradient was applied (a stopped server rejects new gradients).
    pub accepted: bool,
    /// The server iteration after this checkin.
    pub iteration: u64,
    /// Whether the stopping criterion is now met.
    pub stopped: bool,
    /// How many updates happened between the device's checkout and this checkin
    /// (the staleness the delay analysis of §IV-B3 reasons about).
    pub staleness: u64,
    /// `true` when this outcome is a replay of an earlier identical checkin
    /// (same device and nonce) rather than a fresh apply. The core apply path
    /// never sets this; the deduplicating runtime does when it answers a
    /// retried request from its table.
    pub deduped: bool,
}

/// One selected device's masked round contribution, held by the server until
/// its round finalizes (cohort complete or deadline reached).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSubmission {
    /// The contributing device.
    pub device_id: u64,
    /// The checkin's idempotency nonce (identifies the submission on retry).
    pub nonce: u64,
    /// The server iteration the device checked parameters out at.
    pub checkout_iteration: u64,
    /// The masked gradient words (`crowd_rounds::mask` output), one per
    /// coordinate.
    pub words: Vec<u64>,
    /// Samples behind the gradient (`n_s`).
    pub num_samples: u32,
    /// Perturbed misclassification count (`n̂_e`).
    pub error_count: i64,
    /// Perturbed per-class label counts (`n̂_y^k`).
    pub label_counts: Vec<i64>,
}

/// Round protocol state in the deterministic snapshot layout: everything
/// needed to resume a half-finished round after a crash. The cohort is *not*
/// stored — it is recomputed from the configured [`RoundSettings`] and the
/// round id, exactly as every device recomputes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStateSnapshot {
    /// The currently open round (starts at 1).
    pub round_id: u64,
    /// Server iteration when the round opened; the round expires once
    /// `iteration ≥ opened_iteration + deadline_epochs`.
    pub opened_iteration: u64,
    /// Submissions accepted so far, ascending by device id.
    pub pending: Vec<PendingSubmission>,
}

/// How the server classified a round submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundAdmission {
    /// Recorded; `cohort_complete` when every cohort member has now submitted
    /// (the caller should finalize the round).
    Accepted {
        /// Whether this submission completed the cohort.
        cohort_complete: bool,
    },
    /// The device already contributed this exact `(round_id, nonce)` — either
    /// to the still-open round or to an already-finalized one. The original
    /// acceptance stands; nothing was recorded twice.
    Duplicate,
    /// The named round is no longer (or not yet) the server's current round;
    /// the device must refetch parameters and resync.
    Outdated {
        /// The server's current round id, for the device's resync.
        current_round: u64,
    },
    /// The device is not in the round's cohort and must free-run instead.
    NotSelected,
}

/// The current round's published parameters (the server-side source of the
/// wire-level `RoundParams`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundInfo {
    /// The currently open round (starts at 1; 0 is reserved for "free-run").
    pub round_id: u64,
    /// This round's derived selection/mask seed.
    pub seed: u64,
    /// Configured cohort fraction.
    pub select_fraction: f64,
    /// Configured deadline in applied epochs.
    pub deadline_epochs: u32,
    /// Configured device population.
    pub population: u64,
}

/// Live round bookkeeping inside the server.
#[derive(Debug, Clone)]
struct RoundRuntime {
    round_id: u64,
    opened_iteration: u64,
    /// Derived seed for this round (cached from `round_seed`).
    seed: u64,
    /// Ascending cohort member ids for this round.
    cohort: Vec<u64>,
    /// Accepted submissions by device id.
    pending: BTreeMap<u64, PendingSubmission>,
}

impl RoundRuntime {
    fn open(settings: &RoundSettings, round_id: u64, opened_iteration: u64) -> Self {
        let seed = crowd_rounds::round_seed(settings.seed, round_id);
        let cohort = crowd_rounds::cohort(seed, settings.population, settings.select_fraction);
        RoundRuntime {
            round_id,
            opened_iteration,
            seed,
            cohort,
            pending: BTreeMap::new(),
        }
    }
}

/// The complete mutable state of a [`Server`], in a deterministic layout.
///
/// This is what the persistence subsystem (`crowd-store`) snapshots and what
/// [`Server::restore`] rebuilds: parameters, iteration, the learning-rate
/// schedule position (including AdaGrad's accumulated squared gradients — the
/// only stateful schedule), the per-device monitoring counters, and the
/// per-device ε ledger. All maps are exported sorted by device id so two
/// bitwise-equal servers export bitwise-equal states. The model and the
/// [`ServerConfig`] are *not* part of the state; restoring requires the same
/// ones the original server ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerState {
    /// The global parameters `w`.
    pub params: Vector,
    /// Number of applied epochs `t`.
    pub iteration: u64,
    /// Total samples reported across devices.
    pub total_samples: u64,
    /// Total (perturbed) misclassifications reported across devices.
    pub total_errors: i64,
    /// Per-device monitoring counters, ascending by device id.
    pub progress: Vec<(u64, DeviceProgress)>,
    /// The learning-rate schedule, including any internal position/state.
    pub schedule: LearningRate,
    /// Per-device cumulative ε spend, ascending by device id.
    pub budget_ledger: Vec<(u64, f64)>,
    /// The open round (with its pending submissions) when the round protocol
    /// is configured; `None` on a free-running server.
    pub round: Option<RoundStateSnapshot>,
    /// Per-device `(round_id, nonce)` of the last accepted round submission,
    /// ascending by device id. Lets a retry that straddles a round advance be
    /// answered as a duplicate instead of `Outdated` (which would provoke a
    /// double contribution).
    pub last_round: Vec<(u64, u64, u64)>,
}

/// The Crowd-ML server.
#[derive(Debug, Clone)]
pub struct Server<M: Model> {
    model: M,
    config: ServerConfig,
    schedule: LearningRate,
    params: Vector,
    iteration: u64,
    // A BTreeMap so per-device progress iterates in device-id order: it feeds
    // exported state and the class-prior estimate, which must be reproducible.
    progress: BTreeMap<u64, DeviceProgress>,
    total_samples: u64,
    total_errors: i64,
    accountant: BudgetAccountant,
    /// The open round when `config.rounds` is set.
    round: Option<RoundRuntime>,
    /// Per-device `(round_id, nonce)` of the last accepted round submission.
    last_round: BTreeMap<u64, (u64, u64)>,
}

/// Ledger key for a device (the accountant tracks entities by string).
fn budget_entity(device_id: u64) -> String {
    device_id.to_string()
}

impl<M: Model> Server<M> {
    /// Creates a server with zero-initialized parameters.
    pub fn new(model: M, config: ServerConfig) -> Result<Self> {
        config.validate()?;
        let params = model.init_params();
        let accountant = BudgetAccountant::new(config.budget.ceiling);
        let round = config
            .rounds
            .as_ref()
            .map(|settings| RoundRuntime::open(settings, 1, 0));
        Ok(Server {
            schedule: config.schedule.clone(),
            model,
            config,
            params,
            iteration: 0,
            progress: BTreeMap::new(),
            total_samples: 0,
            total_errors: 0,
            accountant,
            round,
            last_round: BTreeMap::new(),
        })
    }

    /// Creates a server with small random initial parameters (Algorithm 2's
    /// "randomized w" initialization), scaled to fit well inside the projection
    /// ball.
    pub fn with_random_init<R: Rng + ?Sized>(
        model: M,
        config: ServerConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let mut server = Server::new(model, config)?;
        let mut init = normal_vector(rng, server.params.len());
        init.scale(0.01);
        project_l2_ball(&mut init, server.config.radius);
        server.params = init;
        Ok(server)
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The current parameters.
    pub fn params(&self) -> &Vector {
        &self.params
    }

    /// The current iteration `t` (number of applied checkins).
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Total samples reported across devices (`Σ_m N_s^m`).
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Number of devices that have checked in at least once.
    pub fn active_devices(&self) -> usize {
        self.progress.len()
    }

    /// Per-device progress, if the device has checked in.
    pub fn device_progress(&self, device_id: u64) -> Option<&DeviceProgress> {
        self.progress.get(&device_id)
    }

    /// Total ε spent so far by `device_id` (zero if never charged).
    pub fn budget_spent(&self, device_id: u64) -> f64 {
        self.accountant.spent(&budget_entity(device_id))
    }

    /// `true` when the device has reached its ε ceiling and must not be
    /// queried further. Always `false` while accounting is disabled.
    pub fn budget_exhausted(&self, device_id: u64) -> bool {
        // The float-accumulation slack scales down with the ceiling so a tiny
        // (but valid) ceiling is not pre-exhausted for never-charged devices.
        let ceiling = self.config.budget.ceiling;
        let slack = 1e-12 * ceiling.min(1.0);
        !self.config.budget.is_disabled() && self.budget_spent(device_id) >= ceiling - slack
    }

    /// The per-device ε ledger, ascending by device id.
    pub fn budget_ledger(&self) -> Vec<(u64, f64)> {
        let mut ledger: Vec<(u64, f64)> = self
            .accountant
            .iter()
            .filter_map(|(entity, spent)| entity.parse::<u64>().ok().map(|id| (id, spent)))
            .collect();
        ledger.sort_unstable_by_key(|&(id, _)| id);
        ledger
    }

    /// The ε each device in `epoch` will be charged when the epoch is applied:
    /// `per_checkin_epsilon · checkins`, ascending by device id. Pure — safe to
    /// compute before [`Server::apply_aggregate`] (e.g. for a write-ahead log
    /// entry) and deterministic, so a recovery replay recomputes it bit for bit.
    pub fn epoch_charges(&self, epoch: &EpochAggregate) -> Vec<(u64, f64)> {
        if self.config.budget.is_disabled() {
            return Vec::new();
        }
        epoch
            .device_stats
            .iter()
            .map(|stats| {
                (
                    stats.device_id,
                    self.config.budget.per_checkin_epsilon * stats.checkins as f64,
                )
            })
            .collect()
    }

    /// The current round's published parameters, or `None` on a free-running
    /// server.
    pub fn round_info(&self) -> Option<RoundInfo> {
        let (round, settings) = (self.round.as_ref()?, self.config.rounds.as_ref()?);
        Some(RoundInfo {
            round_id: round.round_id,
            seed: round.seed,
            select_fraction: settings.select_fraction,
            deadline_epochs: settings.deadline_epochs,
            population: settings.population,
        })
    }

    /// The current round's cohort (ascending device ids), or `None` on a
    /// free-running server.
    pub fn round_cohort(&self) -> Option<&[u64]> {
        self.round.as_ref().map(|r| r.cohort.as_slice())
    }

    /// Submissions accepted into the open round and not yet finalized.
    pub fn round_pending(&self) -> usize {
        self.round.as_ref().map_or(0, |r| r.pending.len())
    }

    /// Classifies and (when current) records one masked round submission.
    ///
    /// On [`RoundAdmission::Accepted`] the submission is pending until
    /// [`Server::finalize_round`]; the device's `(round_id, nonce)` is also
    /// remembered so a retried submission — even one arriving after the round
    /// advanced — is answered [`RoundAdmission::Duplicate`] instead of being
    /// double-counted or bounced into a second contribution.
    pub fn round_submit(
        &mut self,
        round_id: u64,
        submission: PendingSubmission,
    ) -> Result<RoundAdmission> {
        let num_classes = self.model.num_classes();
        let dim = self.params.len();
        let round = self.round.as_mut().ok_or_else(|| {
            CoreError::Protocol("round submission to a server without rounds".into())
        })?;
        if self.last_round.get(&submission.device_id) == Some(&(round_id, submission.nonce)) {
            return Ok(RoundAdmission::Duplicate);
        }
        if round_id != round.round_id {
            return Ok(RoundAdmission::Outdated {
                current_round: round.round_id,
            });
        }
        if round.cohort.binary_search(&submission.device_id).is_err() {
            return Ok(RoundAdmission::NotSelected);
        }
        if round.pending.contains_key(&submission.device_id) {
            // Same device, same round, different nonce: the device lost the
            // ack and re-derived a nonce. Its contribution already stands.
            return Ok(RoundAdmission::Duplicate);
        }
        if submission.words.len() != dim {
            return Err(CoreError::Protocol(format!(
                "round submission has {} masked words, expected {dim}",
                submission.words.len()
            )));
        }
        if submission.label_counts.len() != num_classes {
            return Err(CoreError::Protocol(format!(
                "round submission reports {} label counts, expected {num_classes}",
                submission.label_counts.len()
            )));
        }
        if submission.num_samples == 0 {
            return Err(CoreError::Protocol(
                "round submission must cover at least one sample".into(),
            ));
        }
        self.last_round
            .insert(submission.device_id, (round_id, submission.nonce));
        round.pending.insert(submission.device_id, submission);
        Ok(RoundAdmission::Accepted {
            cohort_complete: round.pending.len() == round.cohort.len(),
        })
    }

    /// Whether the open round has passed its deadline
    /// (`iteration ≥ opened_iteration + deadline_epochs`). Always `false` on
    /// a free-running server.
    pub fn round_expired(&self) -> bool {
        match (&self.round, &self.config.rounds) {
            (Some(round), Some(settings)) => {
                self.iteration >= round.opened_iteration + settings.deadline_epochs as u64
            }
            _ => false,
        }
    }

    /// Closes the open round and opens the next one: unmasks the survivors'
    /// submissions (recomputing each one's net mask over the round's mask
    /// graph — the dropout compensation), folds them in ascending device
    /// order, and returns the closed round id plus the finalization epoch
    /// (`None` when nobody submitted). The caller applies the epoch through
    /// the ordinary [`Server::apply_aggregate`] path, which is what makes the
    /// finalized cohort sum bitwise identical to the unmasked equivalent.
    ///
    /// Submissions that admission would have refused (reachable only by
    /// restoring state under a different configuration) are an error: they
    /// are discarded and the round stays open.
    pub fn finalize_round(&mut self) -> Result<(u64, Option<EpochAggregate>)> {
        let settings = *self.config.rounds.as_ref().ok_or_else(|| {
            CoreError::Protocol("finalize_round on a server without rounds".into())
        })?;
        let dim = self.params.len();
        let round = self
            .round
            .as_mut()
            .ok_or_else(|| CoreError::Protocol("no open round".into()))?;
        let closed = round.round_id;
        // The round is replaced below, so its submissions are moved out, not
        // cloned. BTreeMap order is the ascending device order the
        // deterministic fold requires.
        let pending = std::mem::take(&mut round.pending);
        let epoch = if pending.is_empty() {
            None
        } else {
            let checkin_count = pending.len() as u64;
            let mut min_checkout_iteration = u64::MAX;
            let mut device_stats = Vec::with_capacity(pending.len());
            let mut survivors = Vec::with_capacity(pending.len());
            for s in pending.into_values() {
                min_checkout_iteration = min_checkout_iteration.min(s.checkout_iteration);
                device_stats.push(DeviceEpochStats {
                    device_id: s.device_id,
                    checkins: 1,
                    samples: s.num_samples as u64,
                    errors: s.error_count,
                    label_counts: s.label_counts,
                });
                survivors.push((s.device_id, s.words));
            }
            let sum = crowd_rounds::finalize_sum(round.seed, &round.cohort, &survivors, dim)
                .ok_or_else(|| {
                    CoreError::Protocol("round survivors inconsistent with cohort".into())
                })?;
            Some(EpochAggregate {
                gradient_sum: Vector::from_vec(sum),
                checkin_count,
                min_checkout_iteration,
                device_stats,
            })
        };
        self.round = Some(RoundRuntime::open(&settings, closed + 1, self.iteration));
        Ok((closed, epoch))
    }

    /// Replay counterpart of the round advance inside
    /// [`Server::finalize_round`]: closes `closed_round_id` (which must be
    /// the open round) and opens its successor, discarding pending
    /// submissions — the finalization epoch, if any, is replayed separately
    /// as an ordinary epoch record.
    pub fn advance_round(&mut self, closed_round_id: u64) -> Result<()> {
        let settings = *self.config.rounds.as_ref().ok_or_else(|| {
            CoreError::Protocol("advance_round on a server without rounds".into())
        })?;
        let round = self
            .round
            .as_ref()
            .ok_or_else(|| CoreError::Protocol("no open round".into()))?;
        if round.round_id != closed_round_id {
            return Err(CoreError::Protocol(format!(
                "advance closes round {closed_round_id} but round {} is open",
                round.round_id
            )));
        }
        self.round = Some(RoundRuntime::open(
            &settings,
            closed_round_id + 1,
            self.iteration,
        ));
        Ok(())
    }

    /// Exports the complete mutable state in the deterministic layout of
    /// [`ServerState`] (maps sorted by device id).
    pub fn export_state(&self) -> ServerState {
        // BTreeMap iteration is already ascending by device id.
        let progress: Vec<(u64, DeviceProgress)> = self
            .progress
            .iter()
            .map(|(&id, p)| (id, p.clone()))
            .collect();
        ServerState {
            params: self.params.clone(),
            iteration: self.iteration,
            total_samples: self.total_samples,
            total_errors: self.total_errors,
            progress,
            schedule: self.schedule.clone(),
            budget_ledger: self.budget_ledger(),
            round: self.round.as_ref().map(|r| RoundStateSnapshot {
                round_id: r.round_id,
                opened_iteration: r.opened_iteration,
                pending: r.pending.values().cloned().collect(),
            }),
            last_round: self
                .last_round
                .iter()
                .map(|(&d, &(r, n))| (d, r, n))
                .collect(),
        }
    }

    /// Rebuilds a server from an exported [`ServerState`].
    ///
    /// `model` and `config` must be the ones the exporting server ran with (the
    /// state stores neither); the parameter dimension is checked, the rest is
    /// the caller's contract. The restored server is bitwise identical to the
    /// exporter: same parameters, iteration, schedule position, counters, and
    /// ε ledger.
    pub fn restore(model: M, config: ServerConfig, state: ServerState) -> Result<Self> {
        let mut server = Server::new(model, config)?;
        if state.params.len() != server.params.len() {
            return Err(CoreError::Protocol(format!(
                "restored parameters have dimension {}, model expects {}",
                state.params.len(),
                server.params.len()
            )));
        }
        for (_, progress) in &state.progress {
            if progress.label_counts.len() != server.model.num_classes() {
                return Err(CoreError::Protocol(format!(
                    "restored progress has {} label counts, model expects {}",
                    progress.label_counts.len(),
                    server.model.num_classes()
                )));
            }
        }
        server.params = state.params;
        server.iteration = state.iteration;
        server.total_samples = state.total_samples;
        server.total_errors = state.total_errors;
        server.progress = state.progress.into_iter().collect();
        server.schedule = state.schedule;
        match (&server.config.rounds, state.round) {
            (Some(settings), Some(snap)) => {
                // Reopen the round and recompute its cohort from config, as
                // every device does; only the pending submissions are data.
                let mut round = RoundRuntime::open(settings, snap.round_id, snap.opened_iteration);
                for sub in snap.pending {
                    round.pending.insert(sub.device_id, sub);
                }
                server.round = Some(round);
            }
            (None, None) => {}
            (Some(_), None) | (None, Some(_)) => {
                return Err(CoreError::Protocol(
                    "round configuration does not match the persisted state".into(),
                ));
            }
        }
        server.last_round = state
            .last_round
            .into_iter()
            .map(|(d, r, n)| (d, (r, n)))
            .collect();
        server.accountant.restore_spent(
            state
                .budget_ledger
                .into_iter()
                .map(|(id, spent)| (budget_entity(id), spent)),
        )?;
        Ok(server)
    }

    /// The privately estimated overall error rate `Σ N_e / Σ N_s` (Eq. 14), or
    /// `None` before any samples have been reported. Clamped to `[0, 1]` since the
    /// perturbed counts can stray outside the valid range.
    pub fn error_estimate(&self) -> Option<f64> {
        if self.total_samples == 0 {
            None
        } else {
            Some((self.total_errors as f64 / self.total_samples as f64).clamp(0.0, 1.0))
        }
    }

    /// The privately estimated class prior `P(y = k)` (Eq. 14), or `None` before
    /// any samples have been reported. Negative perturbed counts are clamped to 0
    /// before normalization.
    pub fn prior_estimate(&self) -> Option<Vec<f64>> {
        if self.total_samples == 0 {
            return None;
        }
        let mut totals = vec![0.0; self.model.num_classes()];
        for p in self.progress.values() {
            for (t, &c) in totals.iter_mut().zip(p.label_counts.iter()) {
                *t += (c.max(0)) as f64;
            }
        }
        let sum: f64 = totals.iter().sum();
        if sum <= 0.0 {
            return Some(vec![0.0; self.model.num_classes()]);
        }
        Some(totals.into_iter().map(|t| t / sum).collect())
    }

    /// Whether the stopping criterion (`t ≥ T_max` or error estimate ≤ ρ) is met.
    pub fn stopped(&self) -> bool {
        if self.iteration >= self.config.max_iterations {
            return true;
        }
        if self.config.target_error > 0.0 {
            if let Some(err) = self.error_estimate() {
                // Require a minimal amount of evidence before trusting the noisy
                // estimate.
                if self.total_samples >= 20 && err <= self.config.target_error {
                    return true;
                }
            }
        }
        false
    }

    /// Server Routine 1: serve the current parameters.
    pub fn checkout(&self) -> CheckoutTicket {
        CheckoutTicket {
            iteration: self.iteration,
            params: self.params.clone(),
            stopped: self.stopped(),
        }
    }

    /// Server Routine 2: apply one sanitized checkin.
    pub fn checkin(&mut self, payload: &CheckinPayload) -> Result<CheckinReceipt> {
        if payload.gradient.dim() != self.params.len() {
            return Err(CoreError::Protocol(format!(
                "checkin gradient has dimension {}, expected {}",
                payload.gradient.dim(),
                self.params.len()
            )));
        }
        if payload.label_counts.len() != self.model.num_classes() {
            return Err(CoreError::Protocol(format!(
                "checkin reports {} label counts, expected {}",
                payload.label_counts.len(),
                self.model.num_classes()
            )));
        }
        if payload.num_samples == 0 {
            return Err(CoreError::Protocol(
                "checkin must cover at least one sample".into(),
            ));
        }

        self.apply_aggregate(&EpochAggregate::from_payload(payload))
    }

    /// The write path of the split server: applies one merged aggregation epoch.
    ///
    /// Folds every contributing device's monitoring counters (regardless of
    /// acceptance, so the server's view of data volume stays accurate) and, if
    /// the task has not stopped, takes one projected SGD step with the epoch's
    /// *mean* gradient `w ← Π_W[w − η(t)·(Σĝ)/k]`.
    pub fn apply_aggregate(&mut self, epoch: &EpochAggregate) -> Result<CheckinReceipt> {
        if epoch.gradient_sum.len() != self.params.len() {
            return Err(CoreError::Protocol(format!(
                "epoch gradient has dimension {}, expected {}",
                epoch.gradient_sum.len(),
                self.params.len()
            )));
        }
        if epoch.checkin_count == 0 || epoch.device_stats.is_empty() {
            return Err(CoreError::Protocol(
                "epoch must contain at least one checkin".into(),
            ));
        }
        for stats in &epoch.device_stats {
            if stats.label_counts.len() != self.model.num_classes() {
                return Err(CoreError::Protocol(format!(
                    "epoch reports {} label counts for device {}, expected {}",
                    stats.label_counts.len(),
                    stats.device_id,
                    self.model.num_classes()
                )));
            }
        }

        let staleness = self.iteration.saturating_sub(epoch.min_checkout_iteration);

        for stats in &epoch.device_stats {
            let progress = self
                .progress
                .entry(stats.device_id)
                .or_insert_with(|| DeviceProgress {
                    label_counts: vec![0; self.model.num_classes()],
                    ..DeviceProgress::default()
                });
            progress.samples += stats.samples;
            progress.errors += stats.errors;
            for (acc, &c) in progress
                .label_counts
                .iter_mut()
                .zip(stats.label_counts.iter())
            {
                *acc += c;
            }
            progress.checkins += stats.checkins;
            self.total_samples += stats.samples;
            self.total_errors += stats.errors;
        }

        // Charge the ε ledger in the same fixed device order as the fold, and
        // regardless of acceptance below — by the time a checkin reaches the
        // server the device has already spent the privacy budget, so the
        // ledger must count it even when the gradient is not applied.
        for (device_id, cost) in self.epoch_charges(epoch) {
            self.accountant.record(&budget_entity(device_id), cost)?;
        }

        if self.stopped() {
            return Ok(CheckinReceipt {
                accepted: false,
                iteration: self.iteration,
                stopped: true,
                staleness,
                deduped: false,
            });
        }

        // The projected SGD update of Eq. 3, on the epoch's mean gradient.
        // Dividing by 1 is exact, so a singleton epoch reproduces the classic
        // per-checkin update bit for bit.
        let mut mean = epoch.gradient_sum.clone();
        mean.scale(1.0 / epoch.checkin_count as f64);
        self.iteration += 1;
        let eta = self.schedule.rate(self.iteration as usize, &mean);
        self.params
            .axpy(-eta, &mean)
            .map_err(|e| CoreError::Protocol(format!("update failed: {e}")))?;
        project_l2_ball(&mut self.params, self.config.radius);

        Ok(CheckinReceipt {
            accepted: true,
            iteration: self.iteration,
            stopped: self.stopped(),
            staleness,
            deduped: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn payload(device_id: u64, grad: Vec<f64>, iteration: u64) -> CheckinPayload {
        CheckinPayload {
            device_id,
            checkout_iteration: iteration,
            nonce: 0,
            gradient: Vector::from_vec(grad).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        }
    }

    fn server() -> Server<MulticlassLogistic> {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        Server::new(model, ServerConfig::new().with_rate_constant(1.0)).unwrap()
    }

    #[test]
    fn checkout_returns_current_state() {
        let s = server();
        let ticket = s.checkout();
        assert_eq!(ticket.iteration, 0);
        assert_eq!(ticket.params.len(), 6);
        assert!(!ticket.stopped);
    }

    #[test]
    fn checkin_applies_projected_update_and_counts() {
        let mut s = server();
        let g = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let outcome = s.checkin(&payload(3, g, 0)).unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.iteration, 1);
        assert_eq!(outcome.staleness, 0);
        // η(1) = 1/√1 = 1, so w moved by -1 on the first coordinate.
        assert!((s.params()[0] + 1.0).abs() < 1e-12);
        assert_eq!(s.total_samples(), 2);
        assert_eq!(s.active_devices(), 1);
        let progress = s.device_progress(3).unwrap();
        assert_eq!(progress.samples, 2);
        assert_eq!(progress.errors, 1);
        assert_eq!(progress.checkins, 1);
        assert_eq!(s.error_estimate(), Some(0.5));
        let prior = s.prior_estimate().unwrap();
        assert!((prior[0] - 0.5).abs() < 1e-12);
        assert_eq!(prior[2], 0.0);
    }

    #[test]
    fn staleness_is_measured_against_checkout_iteration() {
        let mut s = server();
        let g = vec![0.1; 6];
        s.checkin(&payload(0, g.clone(), 0)).unwrap();
        s.checkin(&payload(1, g.clone(), 0)).unwrap();
        let outcome = s.checkin(&payload(2, g, 0)).unwrap();
        assert_eq!(outcome.staleness, 2);
        assert_eq!(s.iteration(), 3);
    }

    #[test]
    fn projection_bounds_parameters() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut config = ServerConfig::new().with_rate_constant(100.0);
        config.radius = 1.0;
        let mut s = Server::new(model, config).unwrap();
        s.checkin(&payload(0, vec![5.0; 6], 0)).unwrap();
        assert!(s.params().norm_l2() <= 1.0 + 1e-9);
    }

    #[test]
    fn stopping_on_max_iterations() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new().with_max_iterations(2);
        let mut s = Server::new(model, config).unwrap();
        assert!(s.checkin(&payload(0, vec![0.1; 6], 0)).unwrap().accepted);
        let second = s.checkin(&payload(0, vec![0.1; 6], 1)).unwrap();
        assert!(second.accepted);
        assert!(second.stopped);
        // Once stopped, further gradients are rejected but still counted.
        let third = s.checkin(&payload(0, vec![0.1; 6], 2)).unwrap();
        assert!(!third.accepted);
        assert_eq!(s.iteration(), 2);
        assert!(s.checkout().stopped);
    }

    #[test]
    fn stopping_on_target_error() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new().with_target_error(0.2);
        let mut s = Server::new(model, config).unwrap();
        // Report 30 samples with zero errors: estimate 0 ≤ 0.2 and enough evidence.
        let p = CheckinPayload {
            device_id: 1,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::zeros(6).into(),
            num_samples: 30,
            error_count: 0,
            label_counts: vec![10, 10, 10],
        };
        let outcome = s.checkin(&p).unwrap();
        assert!(outcome.stopped);
    }

    #[test]
    fn malformed_checkins_rejected() {
        let mut s = server();
        let bad_dim = CheckinPayload {
            device_id: 0,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::zeros(5).into(),
            num_samples: 1,
            error_count: 0,
            label_counts: vec![0, 0, 0],
        };
        assert!(s.checkin(&bad_dim).is_err());
        let bad_counts = CheckinPayload {
            device_id: 0,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::zeros(6).into(),
            num_samples: 1,
            error_count: 0,
            label_counts: vec![0, 0],
        };
        assert!(s.checkin(&bad_counts).is_err());
        let zero_samples = CheckinPayload {
            device_id: 0,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::zeros(6).into(),
            num_samples: 0,
            error_count: 0,
            label_counts: vec![0, 0, 0],
        };
        assert!(s.checkin(&zero_samples).is_err());
        assert_eq!(s.iteration(), 0);
    }

    #[test]
    fn random_init_is_small_and_inside_ball() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let s = Server::with_random_init(model, ServerConfig::new(), &mut rng).unwrap();
        assert!(s.params().norm_l2() > 0.0);
        assert!(s.params().norm_l2() <= s.config().radius);
        assert_eq!(s.error_estimate(), None);
        assert_eq!(s.prior_estimate(), None);
    }

    #[test]
    fn singleton_aggregate_matches_classic_checkin_bitwise() {
        let mut classic = server();
        let mut split = server();
        for (device, step) in [(0u64, 0u64), (1, 0), (0, 1), (2, 2)] {
            let g: Vec<f64> = (0..6).map(|i| 0.3 * (i as f64 + 1.0) / 7.0).collect();
            let a = classic.checkin(&payload(device, g.clone(), step)).unwrap();
            let b = split
                .apply_aggregate(&EpochAggregate::from_payload(&payload(device, g, step)))
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(classic.params().as_slice(), split.params().as_slice());
        assert_eq!(classic.iteration(), split.iteration());
        assert_eq!(classic.total_samples(), split.total_samples());
    }

    #[test]
    fn multi_checkin_epoch_applies_mean_gradient_once() {
        let mut s = server();
        let epoch = EpochAggregate {
            // Two checkins whose gradients sum to (2, 0, ...): the mean (1, 0, ...)
            // moves w by -η(1)·1 = -1 on the first coordinate, in ONE iteration.
            gradient_sum: Vector::from_vec(vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            checkin_count: 2,
            min_checkout_iteration: 0,
            device_stats: vec![
                DeviceEpochStats {
                    device_id: 1,
                    checkins: 1,
                    samples: 2,
                    errors: 1,
                    label_counts: vec![1, 1, 0],
                },
                DeviceEpochStats {
                    device_id: 2,
                    checkins: 1,
                    samples: 3,
                    errors: 0,
                    label_counts: vec![0, 2, 1],
                },
            ],
        };
        let outcome = s.apply_aggregate(&epoch).unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.iteration, 1);
        assert!((s.params()[0] + 1.0).abs() < 1e-12);
        assert_eq!(s.total_samples(), 5);
        assert_eq!(s.active_devices(), 2);
        assert_eq!(s.device_progress(2).unwrap().checkins, 1);
    }

    #[test]
    fn malformed_epochs_rejected() {
        let mut s = server();
        let empty = EpochAggregate {
            gradient_sum: Vector::zeros(6),
            checkin_count: 0,
            min_checkout_iteration: 0,
            device_stats: vec![],
        };
        assert!(s.apply_aggregate(&empty).is_err());
        let bad_dim = EpochAggregate {
            gradient_sum: Vector::zeros(5),
            checkin_count: 1,
            min_checkout_iteration: 0,
            device_stats: vec![DeviceEpochStats {
                device_id: 0,
                checkins: 1,
                samples: 1,
                errors: 0,
                label_counts: vec![0, 0, 0],
            }],
        };
        assert!(s.apply_aggregate(&bad_dim).is_err());
        let bad_counts = EpochAggregate {
            gradient_sum: Vector::zeros(6),
            checkin_count: 1,
            min_checkout_iteration: 0,
            device_stats: vec![DeviceEpochStats {
                device_id: 0,
                checkins: 1,
                samples: 1,
                errors: 0,
                label_counts: vec![0, 0],
            }],
        };
        assert!(s.apply_aggregate(&bad_counts).is_err());
        assert_eq!(s.iteration(), 0);
        assert_eq!(s.total_samples(), 0);
    }

    #[test]
    fn budget_accounting_tracks_and_flags_exhaustion() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new().with_budget(0.5, 1.0);
        let mut s = Server::new(model, config).unwrap();
        assert_eq!(s.budget_spent(7), 0.0);
        assert!(!s.budget_exhausted(7));
        s.checkin(&payload(7, vec![0.1; 6], 0)).unwrap();
        assert!((s.budget_spent(7) - 0.5).abs() < 1e-12);
        assert!(!s.budget_exhausted(7));
        // The checkin that reaches the ceiling is still counted in full.
        s.checkin(&payload(7, vec![0.1; 6], 1)).unwrap();
        assert!((s.budget_spent(7) - 1.0).abs() < 1e-12);
        assert!(s.budget_exhausted(7));
        assert!(!s.budget_exhausted(8));
        assert_eq!(s.budget_ledger(), vec![(7, 1.0)]);
        // Disabled accounting keeps the ledger empty and never exhausts.
        let mut off = server();
        off.checkin(&payload(3, vec![0.1; 6], 0)).unwrap();
        assert!(off.budget_ledger().is_empty());
        assert!(!off.budget_exhausted(3));
        // A valid ceiling below the absolute slack must not pre-exhaust
        // never-charged devices.
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let tiny = Server::new(model, ServerConfig::new().with_budget(1e-14, 1e-13)).unwrap();
        assert!(!tiny.budget_exhausted(0));
    }

    #[test]
    fn epoch_charges_are_per_device_checkin_counts() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let s = Server::new(model, ServerConfig::new().with_budget(0.25, f64::INFINITY)).unwrap();
        let epoch = EpochAggregate {
            gradient_sum: Vector::zeros(6),
            checkin_count: 3,
            min_checkout_iteration: 0,
            device_stats: vec![
                DeviceEpochStats {
                    device_id: 1,
                    checkins: 2,
                    samples: 4,
                    errors: 0,
                    label_counts: vec![2, 2, 0],
                },
                DeviceEpochStats {
                    device_id: 5,
                    checkins: 1,
                    samples: 2,
                    errors: 1,
                    label_counts: vec![1, 1, 0],
                },
            ],
        };
        assert_eq!(s.epoch_charges(&epoch), vec![(1, 0.5), (5, 0.25)]);
    }

    #[test]
    fn export_restore_round_trips_bitwise() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new()
            .with_rate_constant(1.0)
            .with_budget(0.1, 10.0);
        let mut original = Server::new(model, config.clone()).unwrap();
        for (device, step) in [(4u64, 0u64), (1, 0), (4, 1), (9, 2)] {
            let g: Vec<f64> = (0..6).map(|i| 0.17 * (i as f64 - 2.5)).collect();
            original.checkin(&payload(device, g, step)).unwrap();
        }
        let state = original.export_state();
        // The exported layout is sorted by device id.
        let ids: Vec<u64> = state.progress.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 4, 9]);
        let ledger_ids: Vec<u64> = state.budget_ledger.iter().map(|&(id, _)| id).collect();
        assert_eq!(ledger_ids, vec![1, 4, 9]);

        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut restored = Server::restore(model, config, state.clone()).unwrap();
        assert_eq!(restored.params().as_slice(), original.params().as_slice());
        assert_eq!(restored.iteration(), original.iteration());
        assert_eq!(restored.total_samples(), original.total_samples());
        assert_eq!(restored.budget_ledger(), original.budget_ledger());
        assert_eq!(restored.export_state(), state);

        // The restored server continues exactly where the original would: the
        // next checkin produces bitwise-identical parameters on both.
        let g = vec![0.3, -0.2, 0.1, 0.0, -0.4, 0.2];
        original.checkin(&payload(2, g.clone(), 3)).unwrap();
        restored.checkin(&payload(2, g, 3)).unwrap();
        assert_eq!(restored.params().as_slice(), original.params().as_slice());
        assert_eq!(restored.export_state(), original.export_state());
    }

    #[test]
    fn restore_rejects_mismatched_state() {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut s = Server::new(model, ServerConfig::new()).unwrap();
        s.checkin(&payload(0, vec![0.1; 6], 0)).unwrap();
        let mut bad_params = s.export_state();
        bad_params.params = Vector::zeros(5);
        let model = MulticlassLogistic::new(2, 3).unwrap();
        assert!(Server::restore(model, ServerConfig::new(), bad_params).is_err());
        let mut bad_counts = s.export_state();
        bad_counts.progress[0].1.label_counts = vec![0, 0];
        let model = MulticlassLogistic::new(2, 3).unwrap();
        assert!(Server::restore(model, ServerConfig::new(), bad_counts).is_err());
    }

    fn round_server(population: u64, fraction: f64) -> Server<MulticlassLogistic> {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let config = ServerConfig::new().with_rate_constant(1.0).with_rounds(
            crate::config::RoundSettings::new(population)
                .with_select_fraction(fraction)
                .with_deadline_epochs(3)
                .with_seed(42),
        );
        Server::new(model, config).unwrap()
    }

    fn submission(
        server: &Server<MulticlassLogistic>,
        device_id: u64,
        nonce: u64,
    ) -> PendingSubmission {
        let info = server.round_info().unwrap();
        let cohort = server.round_cohort().unwrap().to_vec();
        let gradient: Vec<f64> = (0..6)
            .map(|i| (device_id as f64 + 1.0) * 0.1 + i as f64 * 0.01)
            .collect();
        let mask_words = crowd_rounds::net_mask(info.seed, device_id, &cohort, 6);
        PendingSubmission {
            device_id,
            nonce,
            checkout_iteration: server.iteration(),
            words: crowd_rounds::mask(&gradient, &mask_words),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        }
    }

    #[test]
    fn round_lifecycle_accepts_finalizes_and_advances() {
        let mut s = round_server(4, 1.0);
        let info = s.round_info().unwrap();
        assert_eq!(info.round_id, 1);
        assert_eq!(s.round_cohort().unwrap(), &[0, 1, 2, 3]);
        assert!(!s.round_expired());

        for d in 0..3u64 {
            let admission = s.round_submit(1, submission(&s, d, 100 + d)).unwrap();
            assert_eq!(
                admission,
                RoundAdmission::Accepted {
                    cohort_complete: false
                }
            );
        }
        // A retried submission (same round, same nonce) is a duplicate.
        assert_eq!(
            s.round_submit(1, submission(&s, 0, 100)).unwrap(),
            RoundAdmission::Duplicate
        );
        // Same device, same round, fresh nonce: still a duplicate (the
        // contribution already stands).
        assert_eq!(
            s.round_submit(1, submission(&s, 0, 999)).unwrap(),
            RoundAdmission::Duplicate
        );
        let last = s.round_submit(1, submission(&s, 3, 103)).unwrap();
        assert_eq!(
            last,
            RoundAdmission::Accepted {
                cohort_complete: true
            }
        );

        let (closed, epoch) = s.finalize_round().unwrap();
        assert_eq!(closed, 1);
        let epoch = epoch.unwrap();
        assert_eq!(epoch.checkin_count, 4);
        // The unmasked fold equals the raw-gradient fold bitwise.
        let mut expected = [0.0f64; 6];
        for d in 0..4u64 {
            for (e, i) in expected.iter_mut().zip(0..6) {
                *e += (d as f64 + 1.0) * 0.1 + i as f64 * 0.01;
            }
        }
        assert_eq!(
            epoch
                .gradient_sum
                .as_slice()
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            expected.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        s.apply_aggregate(&epoch).unwrap();
        assert_eq!(s.round_info().unwrap().round_id, 2);
        // A straggler of round 1 with its original nonce: duplicate, not
        // outdated (it was already counted).
        assert_eq!(
            s.round_submit(1, submission(&s, 2, 102)).unwrap(),
            RoundAdmission::Duplicate
        );
        // A genuinely stale newcomer gets Outdated with the current round.
        let stale = s.round_submit(1, submission(&s, 2, 555)).unwrap();
        assert_eq!(stale, RoundAdmission::Outdated { current_round: 2 });
    }

    #[test]
    fn round_rejects_outsiders_and_malformed_submissions() {
        let mut s = round_server(8, 0.4);
        let cohort = s.round_cohort().unwrap().to_vec();
        assert!(!cohort.is_empty() && cohort.len() < 8);
        let outsider = (0..8).find(|d| !cohort.contains(d)).unwrap();
        assert_eq!(
            s.round_submit(1, submission(&s, outsider, 1)).unwrap(),
            RoundAdmission::NotSelected
        );
        let member = cohort[0];
        let mut bad_dim = submission(&s, member, 2);
        bad_dim.words.pop();
        assert!(s.round_submit(1, bad_dim).is_err());
        let mut bad_counts = submission(&s, member, 3);
        bad_counts.label_counts.pop();
        assert!(s.round_submit(1, bad_counts).is_err());
        let mut no_samples = submission(&s, member, 4);
        no_samples.num_samples = 0;
        assert!(s.round_submit(1, no_samples).is_err());
        // A free-running server refuses round traffic outright.
        let mut free = server();
        let sub = PendingSubmission {
            device_id: 0,
            nonce: 0,
            checkout_iteration: 0,
            words: vec![0; 6],
            num_samples: 1,
            error_count: 0,
            label_counts: vec![0, 0, 0],
        };
        assert!(free.round_submit(1, sub).is_err());
        assert!(free.finalize_round().is_err());
        assert!(free.round_info().is_none());
        assert!(!free.round_expired());
    }

    #[test]
    fn round_expiry_finalizes_survivors_with_compensation() {
        let mut s = round_server(4, 1.0);
        // Two of four submit; the others vanish.
        s.round_submit(1, submission(&s, 1, 11)).unwrap();
        s.round_submit(1, submission(&s, 3, 13)).unwrap();
        // Free-run epochs advance the clock past the 3-epoch deadline.
        for step in 0..3 {
            assert!(!s.round_expired());
            s.checkin(&payload(9, vec![0.1; 6], step)).unwrap();
        }
        assert!(s.round_expired());
        let (closed, epoch) = s.finalize_round().unwrap();
        assert_eq!(closed, 1);
        let epoch = epoch.unwrap();
        assert_eq!(epoch.checkin_count, 2);
        // Survivor sum (devices 1 and 3) bitwise: dropout compensation
        // recovered the exact bits despite devices 0 and 2 never submitting.
        let mut expected = [0.0f64; 6];
        for d in [1u64, 3] {
            for (e, i) in expected.iter_mut().zip(0..6) {
                *e += (d as f64 + 1.0) * 0.1 + i as f64 * 0.01;
            }
        }
        assert_eq!(
            epoch
                .gradient_sum
                .as_slice()
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            expected.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        // Round 2 opened at the current iteration: not instantly expired.
        assert!(!s.round_expired());
        // An empty expired round finalizes to no epoch but still advances.
        for step in 3..6 {
            s.checkin(&payload(9, vec![0.1; 6], step)).unwrap();
        }
        assert!(s.round_expired());
        let (closed, epoch) = s.finalize_round().unwrap();
        assert_eq!(closed, 2);
        assert!(epoch.is_none());
        assert_eq!(s.round_info().unwrap().round_id, 3);
    }

    #[test]
    fn round_state_export_restore_round_trips() {
        let mut s = round_server(4, 1.0);
        s.round_submit(1, submission(&s, 0, 10)).unwrap();
        s.round_submit(1, submission(&s, 2, 12)).unwrap();
        s.checkin(&payload(7, vec![0.2; 6], 0)).unwrap();
        let state = s.export_state();
        let snap = state.round.as_ref().unwrap();
        assert_eq!(snap.round_id, 1);
        assert_eq!(snap.pending.len(), 2);
        assert_eq!(state.last_round, vec![(0, 1, 10), (2, 1, 12)]);

        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut restored = Server::restore(model, s.config().clone(), state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.round_cohort(), s.round_cohort());
        // Both finalize to the identical epoch.
        let (_, a) = s.finalize_round().unwrap();
        let (_, b) = restored.finalize_round().unwrap();
        assert_eq!(a, b);

        // Config/state round mismatches are refused both ways.
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let mut no_rounds = ServerConfig::new();
        no_rounds.rounds = None;
        assert!(Server::restore(model, no_rounds, s.export_state()).is_err());
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let plain = server().export_state();
        assert!(Server::restore(
            model,
            s.config().clone(),
            ServerState {
                round: None,
                ..plain
            }
        )
        .is_err());
    }

    #[test]
    fn advance_round_replays_the_finalize_transition() {
        let mut s = round_server(4, 1.0);
        s.round_submit(1, submission(&s, 0, 10)).unwrap();
        assert!(s.advance_round(2).is_err());
        s.advance_round(1).unwrap();
        assert_eq!(s.round_info().unwrap().round_id, 2);
        // Pending submissions of the closed round are discarded.
        assert!(s.export_state().round.unwrap().pending.is_empty());
        assert!(server().advance_round(1).is_err());
    }

    #[test]
    fn negative_perturbed_counts_clamp_in_estimates() {
        let mut s = server();
        let p = CheckinPayload {
            device_id: 0,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::zeros(6).into(),
            num_samples: 5,
            error_count: -3,
            label_counts: vec![-2, 4, 1],
        };
        s.checkin(&p).unwrap();
        assert_eq!(s.error_estimate(), Some(0.0));
        let prior = s.prior_estimate().unwrap();
        assert_eq!(prior[0], 0.0);
        assert!((prior.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
