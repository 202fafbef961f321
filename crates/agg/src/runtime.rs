//! The aggregation runtime: lock-free-read checkouts, and checkins run by
//! whichever thread holds the core lock (flat combining).
//!
//! Request flow:
//!
//! ```text
//! checkout  ──►  RwLock<Arc<ParamSnapshot>>      (read: clone an Arc)
//!
//! checkin   ──►  admit (validate, dedup, ε budget)
//!                  │
//!                  ├─ core lock free ──► the submitter runs it ────────────────┐
//!                  │                                                          │
//!                  └─ taken ──► BoundedQueue ──► the lock's holder runs it ───┤
//!                                                                             ▼
//!                         epoch_size = 1: apply ◄────────────── epoch accumulator
//!                                          │   (epoch full, traffic idle, shutdown)
//!                                          ▼
//!                  Mutex<Core>: Server::apply_aggregate ── swap snapshot ── reply
//!                                   (durable: stage; crowd-agg commits, then swaps and replies)
//!
//! round     ──►  validate, ε budget ──► (same two routes) ──► Server::round_submit
//!                                        ──► finalize when the cohort is complete
//! ```
//!
//! Flat combining (Hendler, Incze, Shavit and Taubenfeld, SPAA 2010): every
//! acquisition of the core lock goes through `CoreGuard`. A submitter that
//! wins `try_lock` runs its own job; one that loses queues it and tries once
//! more. A holder drains the queue as soon as it has the lock (before its own
//! job, so a thread's jobs run in submission order) and again before it lets
//! go, then looks once more after letting go, so no queued job is stranded.
//! A full queue rejects with [`AggError::Busy`]. The submit path only ever
//! *tries* the lock; the blocking entry points and `crowd-agg` wait for it.
//!
//! Who fires the reply. A submitter that ran its own per-checkin epoch on a
//! volatile runtime gets the outcome back by value ([`Submitted::Applied`]);
//! any other checkin carries an [`OutcomeSink`], run by whoever applied its
//! epoch, or on a durable runtime by `crowd-agg` after the commit. A checkin
//! the runtime drops unanswered (a kill, a halt) runs its sink with
//! [`AggError::ShuttingDown`].
//!
//! A durable runtime (one given a `Store`) group-commits its write-ahead log:
//!
//! ```text
//! stage ─► apply ─► park ack            the lock's holder: memory only
//!            commit ─► publish ─► ack    crowd-agg: seal CRCs, one write + fsync per group
//! ```
//!
//! Staging encodes a frame and writes its length, nothing more: the frame's
//! CRC is sealed by `crowd-agg` as part of the commit, so no checksum is
//! computed under the core lock. The submitters keep staging while
//! `crowd-agg` commits, so a group is as large as the load made it, with
//! nothing to tune, and no submitting thread waits for an `fsync`.
//! `crowd-agg` also takes the periodic checkpoints and, with
//! `epoch_size > 1`, flushes a partial epoch once ingest goes idle; a
//! runtime with neither a store nor an idle flush has no thread of its own.
//! What survives a crash is a prefix of the applied epochs that contains
//! every acknowledged one; a failed commit halts the runtime (see `halt`).

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::dedup::{Admission, DedupTable};
use crate::epoch::{EpochAccumulator, Waiter};
use crate::queue::{BoundedQueue, PushError};
use crate::reply::{OutcomeSink, Reply};
use crate::{AggError, Result};
use crowd_core::config::AggSettings;
use crowd_core::device::CheckinPayload;
use crowd_core::server::{
    CheckinReceipt, CheckoutTicket, EpochAggregate, PendingSubmission, RoundAdmission, RoundInfo,
    Server,
};
use crowd_learning::model::Model;
use crowd_linalg::Vector;
use crowd_store::{Store, WalStage};
use crowd_telemetry::sync::{Mutex, MutexGuard, RwLock};
use crowd_telemetry::{CounterId, GaugeId, HistogramId, MetricsSnapshot, Registry, Tick};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// An immutable view of the global parameters at some server iteration.
///
/// Checkouts clone an `Arc` to one of these under a briefly held read lock (the
/// writer only swaps a pointer), so the read path never waits on gradient
/// application and never copies the parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSnapshot {
    /// Server iteration at which the snapshot was taken.
    pub iteration: u64,
    /// The global parameters `w`.
    pub params: Vector,
    /// Whether the stopping criterion was met.
    pub stopped: bool,
}

/// Completed checkins remembered for duplicate detection. Retries arrive
/// within the client's backoff window (milliseconds), so thousands of entries
/// are far more history than any retry needs.
const DEDUP_CAPACITY: usize = 8192;

/// One job on the combining queue.
enum Task {
    Checkin(Job),
    Round(RoundJob),
}

struct Job {
    payload: CheckinPayload,
    reply: Reply,
    /// When the checkin was admitted, for the end-to-end latency histogram
    /// (`checkin_latency_us`: queue wait + ingest + epoch apply + ack).
    submitted: Tick,
}

/// A masked round submission (see [`run_round`]).
struct RoundJob {
    round_id: u64,
    submission: PendingSubmission,
    reply: Reply,
}

/// What `agg.core` guards: the server and the open epoch it applies next.
struct Core<M: Model> {
    server: Server<M>,
    epoch: EpochAccumulator,
}

struct Inner<M: Model> {
    // audit:lock(agg.core, 10)
    core: Mutex<Core<M>>,
    // audit:lock(agg.snapshot, 50)
    snapshot: RwLock<Arc<ParamSnapshot>>,
    /// Jobs whose submitter found the core lock taken, for its holder to run.
    queue: BoundedQueue<Task>,
    settings: AggSettings,
    param_dim: usize,
    num_classes: usize,
    /// The crowd-scope registry every counter, gauge, and histogram on the
    /// checkin path lands in. Shared so servers can scrape it live and
    /// deterministic harnesses can inject a logical-clock registry.
    metrics: Arc<Registry>,
    /// The durability hook: when present, every epoch's WAL frame (with its ε
    /// charges) is staged before the epoch is applied, and group-committed
    /// before any of its checkins is acked, replayed from the dedup table, or
    /// visible to a checkout. `None` is the volatile runtime: apply, publish
    /// and ack back to back, touching neither of the two locks.
    store: Option<Durable>,
    /// Devices that have spent their entire privacy budget. Read lock-free-ish
    /// on the submit path; updated under the core lock whenever an applied
    /// epoch pushes a device over its ceiling.
    // audit:lock(agg.exhausted, 40)
    exhausted: RwLock<BTreeSet<u64>>,
    /// The open round's published parameters, mirrored out of the core server
    /// so checkouts read them without touching the core lock. Written only
    /// under the core lock (at construction and whenever a round advances).
    // audit:lock(agg.rounds, 55)
    rounds: RwLock<Option<RoundInfo>>,
    /// Recent checkin outcomes keyed on `(device_id, nonce)`: a retried or
    /// network-duplicated checkin is answered with the original ack instead of
    /// being applied (and ε-charged) twice.
    // audit:lock(agg.dedup, 60)
    dedup: Mutex<DedupTable>,
    /// Set once, by `finish`. Read under the core lock: once `finish` has held
    /// it, a submitter that gets it refuses its own job.
    closed: AtomicBool,
    /// Set by [`AggRuntime::kill`] and by a failed WAL commit: nothing more is
    /// committed or acknowledged, and the final flush and the shutdown
    /// checkpoint are skipped, leaving the disk exactly as a SIGKILL would.
    crashed: AtomicBool,
    /// `crowd-agg`, if any: unparked when a durable core lock is released.
    agg_thread: OnceLock<Thread>,
}

impl<M: Model> Inner<M> {
    fn refusing(&self) -> bool {
        self.closed.load(Ordering::SeqCst) || self.crashed.load(Ordering::SeqCst)
    }

    fn idle_flush(&self) -> Option<Duration> {
        (self.settings.epoch_size > 1 && self.settings.flush_idle_ms > 0)
            .then(|| Duration::from_millis(u64::from(self.settings.flush_idle_ms)))
    }

    /// Unparks `crowd-agg`, unless this is `crowd-agg`: its loop commits
    /// before it parks again.
    fn wake_agg(&self) {
        if let Some(thread) = self.agg_thread.get() {
            if thread.id() != std::thread::current().id() {
                thread.unpark();
            }
        }
    }
}

/// The one way to hold `agg.core`: acquiring it drains the queue, and so
/// does releasing it, before and after the unlock (see the module docs).
struct CoreGuard<'a, M: Model> {
    // Field order is the release protocol: `drop` drains, `core` unlocks,
    // then `recheck` runs.
    core: MutexGuard<'a, Core<M>>,
    recheck: Recheck<'a, M>,
}

impl<'a, M: Model> CoreGuard<'a, M> {
    fn lock(inner: &'a Inner<M>) -> Self {
        Self::hold(inner, inner.core.lock())
    }

    fn try_lock(inner: &'a Inner<M>) -> Option<Self> {
        Some(Self::hold(inner, inner.core.try_lock()?))
    }

    fn hold(inner: &'a Inner<M>, mut core: MutexGuard<'a, Core<M>>) -> Self {
        drain(inner, &mut core);
        CoreGuard {
            core,
            recheck: Recheck(inner),
        }
    }
}

impl<M: Model> Deref for CoreGuard<'_, M> {
    type Target = Core<M>;

    fn deref(&self) -> &Core<M> {
        &self.core
    }
}

impl<M: Model> DerefMut for CoreGuard<'_, M> {
    fn deref_mut(&mut self) -> &mut Core<M> {
        &mut self.core
    }
}

impl<M: Model> Drop for CoreGuard<'_, M> {
    fn drop(&mut self) {
        drain(self.recheck.0, &mut self.core);
    }
}

/// The tail of a [`CoreGuard`] release, once the lock is free: it runs a job
/// pushed after the last drain by a submitter whose second try came early.
struct Recheck<'a, M: Model>(&'a Inner<M>);

impl<M: Model> Drop for Recheck<'_, M> {
    fn drop(&mut self) {
        let inner = self.0;
        while !inner.queue.is_empty() {
            let Some(mut core) = inner.core.try_lock() else {
                break;
            };
            drain(inner, &mut core);
        }
        if inner.store.is_some() {
            inner.wake_agg();
        }
    }
}

/// Runs every queued job, oldest first, under the held core lock.
fn drain<M: Model>(inner: &Inner<M>, core: &mut Core<M>) {
    while let Some(task) = inner.queue.pop() {
        inner.metrics.gauge_add(GaugeId::QueueDepth, -1);
        match task {
            Task::Checkin(job) => {
                run_checkin(inner, core, job);
            }
            Task::Round(job) => {
                if let Some((answer, reply)) = run_round(inner, &mut core.server, job) {
                    reply.settle(answer);
                }
            }
        }
    }
}

/// The two halves of a durable runtime's write path. Lock order is
/// `core → stage → wal_commit`; only a checkpoint takes `wal_commit` under
/// the other two, so the `fsync` behind it never stalls an apply.
struct Durable {
    /// Applied-but-uncommitted work, appended to under the core lock.
    // audit:lock(agg.store, 30)
    stage: Mutex<Staged>,
    /// The WAL writer. Holding this lock is being *the* committer.
    // audit:lock(agg.wal_commit, 35)
    wal_commit: Mutex<Committer>,
    /// `persist.snapshot_every_epochs` (0 = only at clean shutdown).
    snapshot_every: u64,
}

#[derive(Default)]
struct Staged {
    batch: Batch,
    /// Epochs applied since the last successful snapshot.
    since_snapshot: u64,
}

/// One commit group in the making: the frames of the epochs applied since the
/// previous group was swapped out, and everything that has to wait for them
/// to be durable.
#[derive(Default)]
struct Batch {
    frames: WalStage,
    acks: Vec<Ack>,
    /// The parameters after the batch's last epoch — what checkouts may see
    /// once the batch is durable.
    newest: Option<Arc<ParamSnapshot>>,
    /// Checkins the batch's epochs folded in (`checkins_applied` at commit).
    applied: u64,
}

impl Batch {
    fn is_empty(&self) -> bool {
        // `newest` only ever accompanies a frame.
        self.frames.is_empty() && self.acks.is_empty()
    }
}

struct Committer {
    store: Store,
    /// The batch being committed, and between commits the empty one whose
    /// buffers the next swap hands back to the stage.
    batch: Batch,
}

/// What answering one checkin takes once its epoch is settled.
struct Ack {
    reply: Reply,
    outcome: CheckinReceipt,
    /// When the checkin was admitted (see [`Job::submitted`]); `None`, and
    /// nonce 0, for a round submission, which the core server dedups.
    submitted: Option<Tick>,
    device_id: u64,
    nonce: u64,
}

/// How [`AggRuntime::submit_to`] (or [`AggRuntime::submit_round_to`]) took
/// a checkin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Settled before the call returned — run to completion on the calling
    /// thread, or a replay of an already-applied nonce (`deduped`). No sink
    /// was built; this is the whole answer.
    Applied(CheckinReceipt),
    /// Admitted; the outcome goes to the sink.
    Pending,
}

/// Why [`AggRuntime::submit_to`] refused a checkin (`T` is what was
/// submitted: a [`CheckinPayload`], or a [`PendingSubmission`] for
/// [`AggRuntime::submit_round_to`]).
#[derive(Debug)]
pub enum SubmitRejection<T = CheckinPayload> {
    /// Retryable backpressure — the combining queue is full, or a duplicate
    /// of this nonce is still in flight. The payload is returned so the
    /// caller can park it (e.g. a reactor throttling the connection's reads)
    /// and re-attempt admission later.
    Busy {
        /// The checkin, unchanged; resubmit it as-is.
        payload: T,
        /// Pacing hint, mirroring [`AggError::Busy`].
        retry_after_ms: u32,
    },
    /// Hard refusal (malformed, budget exhausted, shutting down); the
    /// connection should be answered with the mapped error reply.
    Refused(AggError),
}

impl<T> From<SubmitRejection<T>> for AggError {
    fn from(rejection: SubmitRejection<T>) -> AggError {
        match rejection {
            SubmitRejection::Busy { retry_after_ms, .. } => AggError::Busy { retry_after_ms },
            SubmitRejection::Refused(err) => err,
        }
    }
}

/// What admission made of a checkin.
enum Admitted {
    /// A retry of an applied checkin: its recorded outcome, flagged `deduped`.
    Replay(CheckinReceipt),
    /// Valid, within budget, and its nonce (if any) marked in flight.
    Fresh(CheckinPayload),
}

/// A ticket for a submitted checkin: blocks until the checkin's epoch has been
/// applied and the outcome is known.
pub struct CompletionHandle {
    rx: mpsc::Receiver<Result<CheckinReceipt>>,
}

impl CompletionHandle {
    /// Waits for the checkin's epoch to be applied.
    pub fn wait(self) -> Result<CheckinReceipt> {
        self.rx.recv().unwrap_or(Err(AggError::ShuttingDown))
    }

    /// Waits up to `timeout`; `Err(ShuttingDown)` if the runtime died,
    /// `Err(Timeout)` if the epoch was not applied in time.
    pub fn wait_timeout(self, timeout: Duration) -> Result<CheckinReceipt> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(AggError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(AggError::ShuttingDown),
        }
    }
}

/// A sink that sends the outcome down `tx`, to a [`CompletionHandle`].
fn channel_sink(tx: mpsc::Sender<Result<CheckinReceipt>>) -> OutcomeSink {
    Box::new(move |outcome| {
        let _ = tx.send(outcome);
    })
}

/// The batched aggregation runtime wrapping a [`Server`].
pub struct AggRuntime<M: Model + Send + 'static> {
    inner: Arc<Inner<M>>,
    /// `crowd-agg`, joined on drop.
    agg: Option<JoinHandle<()>>,
}

impl<M: Model + Send + 'static> AggRuntime<M> {
    /// Wraps `server` in a volatile runtime configured by `server.config().agg`.
    pub fn new(server: Server<M>) -> Result<Self> {
        Self::with_store(server, None)
    }

    /// Wraps `server` in a runtime backed by `store` (opened — and already
    /// recovered from — by the caller, typically via `crowd_store::Store::open`
    /// with this same server). Every applied epoch is WAL-logged, and the log
    /// group-committed, before its checkins are acknowledged; periodic
    /// snapshots and the clean-shutdown checkpoint come from the configured
    /// cadence (`persist.snapshot_every_epochs`).
    pub fn with_store(server: Server<M>, store: Option<Store>) -> Result<Self> {
        Self::with_instrumentation(server, store, Arc::new(Registry::new()))
    }

    /// Like [`AggRuntime::with_store`], but every counter, gauge, and
    /// histogram lands in the caller's `metrics` registry. This is how a
    /// serving layer shares one scrapeable registry with the runtime, and how
    /// deterministic suites inject a logical-clock registry so two identical
    /// seeded runs render byte-identical metric dumps.
    pub fn with_instrumentation(
        server: Server<M>,
        store: Option<Store>,
        metrics: Arc<Registry>,
    ) -> Result<Self> {
        let settings = server.config().agg;
        settings.validate().map_err(AggError::Core)?;
        let param_dim = server.params().len();
        let num_classes = server.model().num_classes();
        let ticket = server.checkout();
        // Seed the refusal set from the (possibly recovered) ledger, so a
        // device that exhausted its budget before a crash stays refused after
        // the restart.
        let exhausted: BTreeSet<u64> = server
            .budget_ledger()
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| server.budget_exhausted(id))
            .collect();
        // The store shares the runtime's registry so WAL append bytes, fsync
        // latency, and snapshot durations land in the same scrape.
        let snapshot_every = server.config().persist.snapshot_every_epochs;
        let store = store.map(|mut store| {
            store.set_metrics(Arc::clone(&metrics));
            Durable {
                stage: Mutex::new(Staged::default()),
                wal_commit: Mutex::new(Committer {
                    store,
                    batch: Batch::default(),
                }),
                snapshot_every,
            }
        });
        let round_info = server.round_info();
        let inner = Arc::new(Inner {
            snapshot: RwLock::new(Arc::new(ParamSnapshot {
                iteration: ticket.iteration,
                params: ticket.params,
                stopped: ticket.stopped,
            })),
            queue: BoundedQueue::new(settings.queue_bound),
            core: Mutex::new(Core {
                server,
                epoch: EpochAccumulator::new(param_dim, num_classes),
            }),
            settings,
            param_dim,
            num_classes,
            metrics,
            store,
            exhausted: RwLock::new(exhausted),
            rounds: RwLock::new(round_info),
            dedup: Mutex::new(DedupTable::new(DEDUP_CAPACITY)),
            closed: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            agg_thread: OnceLock::new(),
        });
        // A recovered round may already be past its deadline (the crash could
        // land between the expiring apply and its finalization); settle it
        // before serving.
        {
            let mut core = CoreGuard::lock(&inner);
            let mut stage = lock_stage(&inner, &core.server);
            settle_due_rounds(&inner, &mut core.server, stage.as_deref_mut());
        }
        let needs_agg = inner.store.is_some() || inner.idle_flush().is_some();
        let agg = needs_agg.then(|| {
            let agg_inner = Arc::clone(&inner);
            #[allow(
                clippy::expect_used,
                reason = "startup only, as std::thread::spawn itself does"
            )]
            let handle = std::thread::Builder::new()
                .name("crowd-agg".into())
                .spawn(move || agg_loop(&agg_inner))
                .expect("failed to spawn the crowd-agg thread");
            let _ = inner.agg_thread.set(handle.thread().clone());
            handle
        });
        Ok(AggRuntime { inner, agg })
    }

    /// The runtime's settings.
    pub fn settings(&self) -> &AggSettings {
        &self.inner.settings
    }

    /// The read path: the current parameter snapshot, shared not copied.
    pub fn snapshot(&self) -> Arc<ParamSnapshot> {
        Arc::clone(&self.inner.snapshot.read())
    }

    /// The read path as a core [`CheckoutTicket`] (copies the parameters).
    pub fn checkout(&self) -> CheckoutTicket {
        let snap = self.snapshot();
        CheckoutTicket {
            iteration: snap.iteration,
            params: snap.params.clone(),
            stopped: snap.stopped,
        }
    }

    /// Admits one checkin: [`AggRuntime::submit_to`] with a sink that sends
    /// down the returned handle's channel.
    ///
    /// Fails fast with [`AggError::Invalid`] on malformed payloads and
    /// [`AggError::Busy`] when the combining queue is full (backpressure: the
    /// caller should retry after the indicated delay rather than block).
    ///
    /// The merged aggregate is bitwise independent of device interleaving as
    /// long as each *individual device's* checkins accumulate in a fixed
    /// order — guaranteed when one thread submits each device's checkins.
    pub fn submit(&self, payload: CheckinPayload) -> Result<CompletionHandle> {
        let (tx, rx) = mpsc::channel();
        let sink_tx = tx.clone();
        if let Submitted::Applied(outcome) = self.submit_to(payload, || channel_sink(sink_tx))? {
            let _ = tx.send(Ok(outcome));
        }
        Ok(CompletionHandle { rx })
    }

    /// The entry point for a caller that must not block — an event loop.
    ///
    /// After admission (validation, duplicate detection, the ε budget), the
    /// checkin runs on the calling thread when the core lock is free, and is
    /// queued for the lock's holder otherwise (see the module docs).
    /// [`Submitted::Applied`] carries the outcome of a replay, or of a
    /// per-checkin epoch the caller ran on a volatile runtime, and
    /// `make_sink` is never called. Otherwise the sink `make_sink` builds
    /// gets the outcome, possibly before the call returns.
    ///
    /// On retryable backpressure the payload is handed back instead of
    /// dropped, and no sink has been built, so the caller can park the
    /// request and re-attempt admission later without re-decoding it. The
    /// dedup reservation (if any) is released first, so the retry is admitted
    /// fresh.
    pub fn submit_to(
        &self,
        payload: CheckinPayload,
        make_sink: impl FnOnce() -> OutcomeSink,
    ) -> std::result::Result<Submitted, SubmitRejection> {
        let payload = match self.admit(payload)? {
            Admitted::Replay(outcome) => return Ok(Submitted::Applied(outcome)),
            Admitted::Fresh(payload) => payload,
        };
        let inner = &*self.inner;
        let submitted = inner.metrics.start();
        let Some(mut core) = CoreGuard::try_lock(inner) else {
            self.enqueue_checkin(payload, submitted, || Reply::sink(make_sink()))?;
            // The holder may have looked for the last time before the push.
            drop(CoreGuard::try_lock(inner));
            return Ok(Submitted::Pending);
        };
        if inner.refusing() {
            abandon(inner, payload.device_id, payload.nonce);
            return Err(SubmitRejection::Refused(AggError::ShuttingDown));
        }
        inner.metrics.incr(CounterId::CheckinsInline);
        // Only a volatile per-checkin epoch is settled when the job returns.
        let by_value = inner.store.is_none() && inner.settings.epoch_size == 1;
        let reply = if by_value {
            Reply::returned()
        } else {
            Reply::sink(make_sink())
        };
        let job = Job {
            payload,
            reply,
            submitted,
        };
        Ok(match run_checkin(inner, &mut core, job) {
            Some(outcome) if by_value => Submitted::Applied(outcome),
            _ => Submitted::Pending,
        })
    }

    /// Validation, duplicate detection and the ε budget check, in that order.
    fn admit(&self, payload: CheckinPayload) -> std::result::Result<Admitted, SubmitRejection> {
        if let Err(e) = self.validate(&payload) {
            return Err(SubmitRejection::Refused(e));
        }
        // Duplicate detection comes first: a retry of an already-applied
        // checkin must get its original ack replayed even when the device has
        // since exhausted its budget (the original WAS served). A duplicate of
        // a still-in-flight checkin is answered with retryable backpressure —
        // by the time the client retries, the original has resolved.
        if payload.nonce != 0 {
            let admission = self
                .inner
                .dedup
                .lock()
                .admit((payload.device_id, payload.nonce));
            match admission {
                Admission::Replay(outcome) => {
                    self.inner.metrics.incr(CounterId::DedupReplays);
                    return Ok(Admitted::Replay(CheckinReceipt {
                        deduped: true,
                        ..outcome
                    }));
                }
                Admission::InFlight => {
                    self.inner.metrics.incr(CounterId::DedupInflightBusy);
                    return Err(SubmitRejection::Busy {
                        payload,
                        retry_after_ms: self.inner.settings.retry_after_ms,
                    });
                }
                Admission::Fresh => {}
            }
        }
        if self.budget_exhausted(payload.device_id) {
            abandon(&self.inner, payload.device_id, payload.nonce);
            self.inner.metrics.incr(CounterId::BudgetRejections);
            return Err(SubmitRejection::Refused(AggError::BudgetExhausted {
                device_id: payload.device_id,
            }));
        }
        Ok(Admitted::Fresh(payload))
    }

    /// Queues an admitted checkin for the core lock's holder, releasing its
    /// nonce if the queue refuses it.
    fn enqueue_checkin(
        &self,
        payload: CheckinPayload,
        submitted: Tick,
        make_reply: impl FnOnce() -> Reply,
    ) -> std::result::Result<(), SubmitRejection> {
        let (device_id, nonce) = (payload.device_id, payload.nonce);
        self.enqueue(payload, |payload| {
            Task::Checkin(Job {
                payload,
                reply: make_reply(),
                submitted,
            })
        })
        .inspect_err(|_| abandon(&self.inner, device_id, nonce))
    }

    /// Queues `item` as the task `make_task` builds. The task (and with it
    /// the reply) is built only once the queue has a slot for it: a refusal
    /// builds nothing and hands `item` back.
    fn enqueue<T>(
        &self,
        item: T,
        make_task: impl FnOnce(T) -> Task,
    ) -> std::result::Result<(), SubmitRejection<T>> {
        let inner = &*self.inner;
        match inner.queue.try_push_with(item, make_task) {
            Ok(()) => {
                inner.metrics.gauge_add(GaugeId::QueueDepth, 1);
                Ok(())
            }
            Err(PushError::Full(item)) => {
                inner.metrics.incr(CounterId::BusyRejections);
                Err(SubmitRejection::Busy {
                    payload: item,
                    retry_after_ms: inner.settings.retry_after_ms,
                })
            }
            Err(PushError::Closed(_)) => Err(SubmitRejection::Refused(AggError::ShuttingDown)),
        }
    }

    /// Submits a checkin and blocks until its epoch is applied.
    pub fn checkin(&self, payload: CheckinPayload) -> Result<CheckinReceipt> {
        self.submit(payload)?.wait()
    }

    /// The open round's published parameters, or `None` on a free-running
    /// server. Reads the round mirror — never the core lock — so checkout
    /// handlers can attach `RoundParams` to every response for free.
    pub fn round_info(&self) -> Option<RoundInfo> {
        *self.inner.rounds.read()
    }

    /// Submits one masked round contribution and blocks until it is
    /// answered: [`AggRuntime::submit_round_to`] with a sink that sends down
    /// a channel.
    pub fn submit_round(
        &self,
        round_id: u64,
        submission: PendingSubmission,
    ) -> Result<CheckinReceipt> {
        let (tx, rx) = mpsc::channel();
        match self.submit_round_to(round_id, submission, || channel_sink(tx))? {
            Submitted::Applied(outcome) => Ok(outcome),
            Submitted::Pending => CompletionHandle { rx }.wait(),
        }
    }

    /// Submits one masked round contribution without blocking — the round
    /// protocol's [`AggRuntime::submit_to`].
    ///
    /// Unlike free-run checkins, round submissions bypass the epoch
    /// accumulator: the masked words are opaque until the whole cohort is
    /// unmasked together, so the submission goes straight into the core
    /// server's pending set (WAL-logged first when durable) and is applied —
    /// and ε-charged — when the round finalizes. If this submission completes
    /// the cohort, the round is finalized before it is answered.
    ///
    /// Validation and the ε budget check come first; then the submission
    /// takes a checkin's two routes. On a volatile runtime a submission the
    /// caller ran is answered by [`Submitted::Applied`]; on a durable one the
    /// answer always goes to the sink, after the commit covering the
    /// submission's WAL frame. A closed round is refused with
    /// [`AggError::RoundOutdated`]. A full queue hands the submission back,
    /// as [`SubmitRejection::Busy`].
    pub fn submit_round_to(
        &self,
        round_id: u64,
        submission: PendingSubmission,
        make_sink: impl FnOnce() -> OutcomeSink,
    ) -> std::result::Result<Submitted, SubmitRejection<PendingSubmission>> {
        self.admit_round(&submission)
            .map_err(SubmitRejection::Refused)?;
        let inner = &*self.inner;
        let Some(mut core) = CoreGuard::try_lock(inner) else {
            self.enqueue(submission, |submission| {
                Task::Round(RoundJob {
                    round_id,
                    submission,
                    reply: Reply::sink(make_sink()),
                })
            })?;
            // The holder may have looked for the last time before the push.
            drop(CoreGuard::try_lock(inner));
            return Ok(Submitted::Pending);
        };
        if inner.refusing() {
            return Err(SubmitRejection::Refused(AggError::ShuttingDown));
        }
        let by_value = inner.store.is_none();
        let reply = if by_value {
            Reply::returned()
        } else {
            Reply::sink(make_sink())
        };
        let job = RoundJob {
            round_id,
            submission,
            reply,
        };
        match run_round(inner, &mut core.server, job) {
            Some((answer, _)) if by_value => answer
                .map(Submitted::Applied)
                .map_err(SubmitRejection::Refused),
            Some((answer, reply)) => {
                reply.settle(answer);
                Ok(Submitted::Pending)
            }
            None => Ok(Submitted::Pending),
        }
    }

    /// A round submission's shape checks and ε budget check.
    fn admit_round(&self, submission: &PendingSubmission) -> Result<()> {
        let inner = &self.inner;
        if submission.words.len() != inner.param_dim {
            return Err(AggError::Invalid(format!(
                "round submission has {} masked words, expected {}",
                submission.words.len(),
                inner.param_dim
            )));
        }
        if submission.label_counts.len() != inner.num_classes {
            return Err(AggError::Invalid(format!(
                "round submission reports {} label counts, expected {}",
                submission.label_counts.len(),
                inner.num_classes
            )));
        }
        if submission.num_samples == 0 {
            return Err(AggError::Invalid(
                "round submission must cover at least one sample".into(),
            ));
        }
        if self.budget_exhausted(submission.device_id) {
            inner.metrics.incr(CounterId::BudgetRejections);
            return Err(AggError::BudgetExhausted {
                device_id: submission.device_id,
            });
        }
        Ok(())
    }

    fn validate(&self, payload: &CheckinPayload) -> Result<()> {
        if payload.gradient.dim() != self.inner.param_dim {
            return Err(AggError::Invalid(format!(
                "checkin gradient has dimension {}, expected {}",
                payload.gradient.dim(),
                self.inner.param_dim
            )));
        }
        if payload.label_counts.len() != self.inner.num_classes {
            return Err(AggError::Invalid(format!(
                "checkin reports {} label counts, expected {}",
                payload.label_counts.len(),
                self.inner.num_classes
            )));
        }
        if payload.num_samples == 0 {
            return Err(AggError::Invalid(
                "checkin must cover at least one sample".into(),
            ));
        }
        Ok(())
    }

    /// The core server, under the core lock.
    fn core(&self) -> CoreGuard<'_, M> {
        CoreGuard::lock(&self.inner)
    }

    /// Server iteration (number of applied epochs).
    pub fn iteration(&self) -> u64 {
        self.core().server.iteration()
    }

    /// A copy of the current parameters.
    pub fn params(&self) -> Vector {
        self.core().server.params().clone()
    }

    /// Whether the stopping criterion has been met.
    pub fn stopped(&self) -> bool {
        self.core().server.stopped()
    }

    /// Total samples reported across devices.
    pub fn total_samples(&self) -> u64 {
        self.core().server.total_samples()
    }

    /// The privately estimated error rate, if any samples were reported.
    pub fn error_estimate(&self) -> Option<f64> {
        self.core().server.error_estimate()
    }

    /// Number of devices that have checked in at least once.
    pub fn active_devices(&self) -> usize {
        self.core().server.active_devices()
    }

    /// `true` when the device has spent its entire privacy budget and the
    /// server refuses to query it further.
    pub fn budget_exhausted(&self, device_id: u64) -> bool {
        self.inner.exhausted.read().contains(&device_id)
    }

    /// The per-device ε ledger, ascending by device id.
    pub fn budget_ledger(&self) -> Vec<(u64, f64)> {
        self.core().server.budget_ledger()
    }

    /// A point-in-time snapshot of the runtime's metrics (`epoch_merges`,
    /// `checkins_applied`, `busy_rejections`, the `checkin_latency_us`
    /// histogram, …), sorted by name for deterministic rendering.
    pub fn stats(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The live metric registry the runtime records into. Servers clone this
    /// to instrument their own request path and answer metrics scrapes from
    /// one shared registry.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.metrics)
    }

    /// Settles the open cohort round immediately, exactly as a graceful
    /// shutdown would: pending submissions are finalized (their masks
    /// cancelled, their ε charged) and the successor round is published. A
    /// no-op when rounds are disabled or nothing is pending. Harnesses call
    /// this before reading the ledger of a still-running server, so
    /// acknowledged round submissions are never observed uncharged.
    ///
    /// On a durable runtime this returns once the finalization is applied and
    /// *staged*, not committed: `crowd-agg` commits it right after, and a
    /// shutdown's checkpoint covers it, but a crash in between recovers the
    /// round still open, its submissions pending and uncharged. The in-memory
    /// ledger this makes readable is the applied one.
    pub fn settle_rounds(&self) {
        settle_open_round(&self.inner, &mut self.core().server);
    }

    /// Stops accepting checkins, applies everything already admitted, and —
    /// when durable — writes a final checkpoint snapshot (compacting the WAL
    /// away). Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.finish(false);
    }

    /// Crash-stops the runtime, simulating a SIGKILL for recovery testing:
    /// admitted-but-unapplied checkins are dropped (their waiters see
    /// [`AggError::ShuttingDown`]) and **no** final flush or checkpoint is
    /// written — the data directory is left exactly as an abrupt process death
    /// would leave it, so a subsequent open exercises real WAL replay.
    pub fn kill(&self) {
        self.finish(true);
    }

    fn finish(&self, crash: bool) {
        let inner = &*self.inner;
        if crash {
            inner.crashed.store(true, Ordering::SeqCst);
        }
        // Once, on the call that actually tears the runtime down.
        if inner.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        inner.queue.close();
        inner.wake_agg();
        // Taking the lock runs every job queued before the close; a submitter
        // that gets the lock after this guard refuses its own job.
        let mut core = CoreGuard::lock(inner);
        if inner.crashed.load(Ordering::SeqCst) {
            // Crash-stopped: drop what is still staged or sitting on the
            // accumulator, waiters included, and wait out a commit already
            // under way, so nothing reaches the disk after this returns.
            drop(core.epoch.drain());
            if let (Some(durable), Some(mut stage)) =
                (&inner.store, lock_stage(inner, &core.server))
            {
                drop_batch(inner, &mut stage.batch);
                drop(durable.wal_commit.lock());
            }
            return;
        }
        // The final flush: apply whatever was ingested and not yet merged.
        merge(inner, &mut core);
        // A graceful shutdown settles the open round first: its pending
        // submissions were acknowledged, so their ε must be charged (via the
        // finalization epoch) before the checkpoint freezes the ledger.
        settle_open_round(inner, &mut core.server);
        if let (Some(durable), Some(mut stage)) = (&inner.store, lock_stage(inner, &core.server)) {
            checkpoint(inner, durable, &core.server, &mut stage);
        }
    }
}

impl<M: Model + Send + 'static> Drop for AggRuntime<M> {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(agg) = self.agg.take() {
            let _ = agg.join();
        }
    }
}

/// Takes a durable runtime's stage. The core server is the caller's proof of
/// the lock order: it is only reachable through the core lock.
fn lock_stage<'a, M: Model>(
    inner: &'a Inner<M>,
    _core: &Server<M>,
) -> Option<MutexGuard<'a, Staged>> {
    inner.store.as_ref().map(|durable| durable.stage.lock())
}

/// Finalizes the open round under the held core lock: stages the round
/// boundary, publishes the successor round's parameters, and — when the
/// cohort contributed — pushes the unmasked finalization epoch through the
/// standard apply path.
fn finalize_round<M: Model>(
    inner: &Inner<M>,
    core: &mut Server<M>,
    mut stage: Option<&mut Staged>,
) {
    let start = inner.metrics.start();
    let (closed, epoch) = match core.finalize_round() {
        Ok(parts) => parts,
        Err(_) => {
            inner.metrics.incr(CounterId::ApplyErrors);
            return;
        }
    };
    if let Some(stage) = stage.as_deref_mut() {
        stage.batch.frames.stage_round_advance(closed);
    }
    *inner.rounds.write() = core.round_info();
    match epoch {
        Some(epoch) => {
            let (_, applied) = apply_epoch(inner, core, stage.as_deref_mut(), &epoch);
            if applied {
                inner.metrics.incr(CounterId::RoundsFinalized);
                match stage {
                    Some(stage) => stage.batch.applied += epoch.checkin_count,
                    None => inner
                        .metrics
                        .add(CounterId::CheckinsApplied, epoch.checkin_count),
                }
            }
        }
        None => inner.metrics.incr(CounterId::RoundsExpired),
    }
    inner
        .metrics
        .observe_since(HistogramId::RoundFinalizeUs, start);
}

/// Finalizes rounds whose deadline the iteration clock has passed. Loops
/// because a finalization epoch itself advances the clock (possibly expiring
/// its freshly opened successor); an expiry with no submissions re-opens at
/// the current iteration, so the loop always terminates.
fn settle_due_rounds<M: Model>(
    inner: &Inner<M>,
    core: &mut Server<M>,
    mut stage: Option<&mut Staged>,
) {
    let rounds_enabled = inner.rounds.read().is_some();
    while rounds_enabled && core.round_expired() {
        finalize_round(inner, core, stage.as_deref_mut());
    }
}

/// Finalizes the open round now if it holds submissions (and whatever that
/// makes due): the graceful-shutdown and harness entry point.
fn settle_open_round<M: Model>(inner: &Inner<M>, core: &mut Server<M>) {
    if core.round_pending() > 0 {
        let mut stage = lock_stage(inner, core);
        finalize_round(inner, core, stage.as_deref_mut());
        settle_due_rounds(inner, core, stage.as_deref_mut());
    }
}

/// `crowd-agg`: commits what was staged and flushes idle partial epochs
/// until `finish` closes the runtime; what is left then is `finish`'s.
fn agg_loop<M: Model>(inner: &Inner<M>) {
    let idle = inner.idle_flush();
    // The idle flush waits for a whole interval in which `pending` held still.
    let mut idle_pending = 0;
    while !inner.closed.load(Ordering::SeqCst) {
        if let Some(durable) = &inner.store {
            commit_staged(inner, durable);
        }
        let Some(idle) = idle else {
            std::thread::park();
            continue;
        };
        std::thread::park_timeout(idle);
        // A lost try means ingest holds the lock, so it is not idle.
        let Some(mut core) = CoreGuard::try_lock(inner) else {
            idle_pending = 0;
            continue;
        };
        let pending = core.epoch.pending();
        if pending > 0 && pending == idle_pending {
            merge(inner, &mut core);
        }
        idle_pending = pending;
    }
}

/// Runs one admitted round submission under the held core lock. An accepted
/// submission on a durable runtime parks its ack with the batch, for
/// `crowd-agg` to send after the commit that covers its WAL frame, and `None`
/// comes back; any other answer comes back with the reply, for the caller to
/// give.
fn run_round<M: Model>(
    inner: &Inner<M>,
    core: &mut Server<M>,
    job: RoundJob,
) -> Option<(Result<CheckinReceipt>, Reply)> {
    let (round_id, reply) = (job.round_id, job.reply);
    let device_id = job.submission.device_id;
    let checkout_iteration = job.submission.checkout_iteration;
    let logged = inner.store.is_some().then(|| job.submission.clone());
    let mut stage = lock_stage(inner, core);
    let cohort_complete = match core.round_submit(round_id, job.submission) {
        Ok(RoundAdmission::Accepted { cohort_complete }) => cohort_complete,
        Ok(RoundAdmission::Duplicate) => {
            inner.metrics.incr(CounterId::DedupReplays);
            let outcome = CheckinReceipt {
                accepted: true,
                iteration: core.iteration(),
                stopped: core.stopped(),
                staleness: 0,
                deduped: true,
            };
            return Some((Ok(outcome), reply));
        }
        Ok(RoundAdmission::Outdated { current_round }) => {
            inner.metrics.incr(CounterId::RoundOutdatedRejections);
            return Some((Err(AggError::RoundOutdated { current_round }), reply));
        }
        Ok(RoundAdmission::NotSelected) => {
            let cohort = format!("device {device_id} is not in round {round_id}'s cohort");
            return Some((Err(AggError::Invalid(cohort)), reply));
        }
        Err(e) => return Some((Err(AggError::Core(e)), reply)),
    };
    if let (Some(stage), Some(sub)) = (stage.as_deref_mut(), &logged) {
        stage.batch.frames.stage_round_submit(round_id, sub);
    }
    let outcome = CheckinReceipt {
        accepted: true,
        iteration: core.iteration(),
        stopped: core.stopped(),
        staleness: core.iteration().saturating_sub(checkout_iteration),
        deduped: false,
    };
    inner.metrics.incr(CounterId::RoundSubmissions);
    if cohort_complete {
        finalize_round(inner, core, stage.as_deref_mut());
        settle_due_rounds(inner, core, stage.as_deref_mut());
    }
    // On a durable runtime the ack waits for the commit. When that fails the
    // pending entry stays (there is no un-submit) but no ack is sent.
    match stage {
        Some(mut stage) => {
            stage.batch.acks.push(Ack {
                reply,
                outcome,
                submitted: None,
                device_id,
                nonce: 0,
            });
            None
        }
        None => Some((Ok(outcome), reply)),
    }
}

/// Runs one admitted checkin under the held core lock: with `epoch_size = 1`
/// as its own epoch, whose outcome is returned, and otherwise through the
/// accumulator.
fn run_checkin<M: Model>(inner: &Inner<M>, core: &mut Core<M>, job: Job) -> Option<CheckinReceipt> {
    if inner.settings.epoch_size == 1 {
        return Some(apply_singleton(inner, &mut core.server, job));
    }
    ingest(inner, core, job);
    None
}

/// Folds one checkin into the epoch accumulator and closes the epoch if that
/// filled it.
fn ingest<M: Model>(inner: &Inner<M>, core: &mut Core<M>, job: Job) {
    let waiter = Waiter {
        checkout_iteration: job.payload.checkout_iteration,
        device_id: job.payload.device_id,
        nonce: job.payload.nonce,
        reply: job.reply,
        submitted: job.submitted,
    };
    let pending = match core.epoch.ingest(job.payload, waiter) {
        Ok(pending) => pending,
        // Unreachable for payloads that passed submit-time validation; fail
        // the one checkin, not the thread. The nonce is released rather than
        // completed: nothing was applied, so a retry must be admitted fresh.
        Err(rejected) => {
            abandon(inner, rejected.device_id, rejected.nonce);
            inner.metrics.incr(CounterId::IngestErrors);
            return rejected.reply.send(CheckinReceipt {
                accepted: false,
                iteration: core.server.iteration(),
                stopped: core.server.stopped(),
                staleness: 0,
                deduped: false,
            });
        }
    };
    if pending >= inner.settings.epoch_size {
        merge(inner, core);
    }
}

/// Stages (when durable) and applies one epoch under the held core lock.
/// Returns the outcome to fan out and whether the epoch was applied.
///
/// The order is the durability contract: stage the WAL frame → apply → update
/// the exhausted set → hand the new parameters on. A
/// volatile runtime publishes them at once; a durable one leaves them with
/// the batch, and neither they nor any ack of the epoch gets out before the
/// commit that covers the frame — no checkin is ever acknowledged, and no
/// checkout ever served, from state that recovery could not reproduce.
fn apply_epoch<M: Model>(
    inner: &Inner<M>,
    core: &mut Server<M>,
    mut stage: Option<&mut Staged>,
    epoch: &EpochAggregate,
) -> (CheckinReceipt, bool) {
    let merge_start = inner.metrics.start();
    // The ε charges feed both the WAL record (durable runtimes) and the
    // ε-spend distribution (whenever budget accounting is on); skip the
    // recompute when neither applies.
    let charges = if stage.is_some() || !core.config().budget.is_disabled() {
        Some(core.epoch_charges(epoch))
    } else {
        None
    };
    if let Some(stage) = stage.as_deref_mut() {
        let charges = charges.as_deref().unwrap_or(&[]);
        stage
            .batch
            .frames
            .stage_epoch(core.iteration(), epoch, charges);
    }
    match core.apply_aggregate(epoch) {
        Ok(outcome) => {
            let snapshot = Arc::new(ParamSnapshot {
                iteration: core.iteration(),
                params: core.params().clone(),
                stopped: outcome.stopped,
            });
            if !core.config().budget.is_disabled() {
                let mut exhausted = inner.exhausted.write();
                for stats in &epoch.device_stats {
                    if core.budget_exhausted(stats.device_id) {
                        exhausted.insert(stats.device_id);
                    }
                }
            }
            match stage.as_deref_mut() {
                Some(stage) => stage.batch.newest = Some(snapshot),
                None => *inner.snapshot.write() = snapshot,
            }
            inner.metrics.incr(CounterId::EpochMerges);
            inner
                .metrics
                .observe_since(HistogramId::EpochMergeUs, merge_start);
            if let Some(charges) = &charges {
                for &(_, eps) in charges.iter() {
                    inner
                        .metrics
                        .observe(HistogramId::EpsSpendMicroeps, microeps(eps));
                }
            }
            if let Some(stage) = stage {
                stage.since_snapshot += 1;
            }
            (outcome, true)
        }
        Err(_) => {
            // Unreachable for payloads that passed submit-time validation; fail
            // the epoch's checkins without taking a step. (A durable runtime has
            // staged the frame already; replay refuses it identically.)
            let outcome = CheckinReceipt {
                accepted: false,
                iteration: core.iteration(),
                stopped: core.stopped(),
                staleness: 0,
                deduped: false,
            };
            inner.metrics.incr(CounterId::ApplyErrors);
            (outcome, false)
        }
    }
}

/// ε in integer micro-ε, the unit of the `eps_spend_microeps` histogram
/// (saturating; non-finite or negative charges record as zero).
fn microeps(eps: f64) -> u64 {
    if eps.is_finite() && eps > 0.0 {
        (eps * 1e6).round().min(u64::MAX as f64) as u64
    } else {
        0
    }
}

/// Settles the checkins of one epoch applied under the held core lock,
/// releasing the stage. Applied and volatile: count and answer them now.
/// Applied and durable: park the acks with the batch for `crowd-agg`. Not
/// applied: refuse them.
fn settle_epoch<M: Model>(
    inner: &Inner<M>,
    stage: Option<MutexGuard<'_, Staged>>,
    applied: bool,
    count: u64,
    acks: impl Iterator<Item = Ack>,
) {
    match stage {
        Some(mut stage) if applied => {
            stage.batch.applied += count;
            stage.batch.acks.extend(acks);
        }
        stage => {
            drop(stage);
            if applied {
                inner.metrics.add(CounterId::CheckinsApplied, count);
                acks.for_each(|ack| deliver(inner, ack));
            } else {
                acks.for_each(|ack| refuse(inner, ack));
            }
        }
    }
}

/// Answers a checkin whose epoch was applied (and, when durable, committed).
fn deliver<M: Model>(inner: &Inner<M>, ack: Ack) {
    // Record the outcome BEFORE acking, so a duplicate that races the ack can
    // never slip past the table and be applied a second time.
    if ack.nonce != 0 {
        inner
            .dedup
            .lock()
            .complete((ack.device_id, ack.nonce), ack.outcome);
    }
    send(inner, ack);
}

/// Releases the nonce of a checkin that will not stand — it was never
/// admitted, its epoch was not applied, or will never be committed — so a
/// retry is admitted fresh.
fn abandon<M: Model>(inner: &Inner<M>, device_id: u64, nonce: u64) {
    if nonce != 0 {
        inner.dedup.lock().abandon((device_id, nonce));
    }
}

/// Answers a checkin whose epoch was not applied.
fn refuse<M: Model>(inner: &Inner<M>, ack: Ack) {
    abandon(inner, ack.device_id, ack.nonce);
    send(inner, ack);
}

fn send<M: Model>(inner: &Inner<M>, ack: Ack) {
    if let Some(submitted) = ack.submitted {
        inner
            .metrics
            .observe_since(HistogramId::CheckinLatencyUs, submitted);
    }
    ack.reply.send(ack.outcome);
}

/// Drops a batch that will never be committed: its nonces are released and
/// its waiters see [`AggError::ShuttingDown`].
fn drop_batch<M: Model>(inner: &Inner<M>, batch: &mut Batch) {
    batch.frames.clear();
    batch.newest = None;
    batch.applied = 0;
    for ack in batch.acks.drain(..) {
        abandon(inner, ack.device_id, ack.nonce);
    }
}

/// `crowd-agg`'s commit pass: makes everything staged durable and lets it
/// out, one group per pass, until the stage is empty. A group that brings a
/// periodic snapshot due goes out through a checkpoint, under the core lock,
/// so the snapshot is taken before any epoch after it is applied.
fn commit_staged<M: Model>(inner: &Inner<M>, durable: &Durable) {
    loop {
        let mut stage = durable.stage.lock();
        if stage.batch.is_empty() {
            return;
        }
        let due = |stage: &Staged| {
            durable.snapshot_every > 0 && stage.since_snapshot >= durable.snapshot_every
        };
        if due(&stage) {
            drop(stage);
            let core = CoreGuard::lock(inner);
            if let Some(mut stage) = lock_stage(inner, &core.server) {
                // Shutdown may have checkpointed while this thread waited.
                if !stage.batch.is_empty() && due(&stage) {
                    checkpoint(inner, durable, &core.server, &mut stage);
                }
            }
            continue;
        }
        let Some(mut committer) = durable.wal_commit.try_lock() else {
            // Shutdown's checkpoint holds the log: wait it out, leaving the
            // stage to the submitters meanwhile.
            drop(stage);
            drop(durable.wal_commit.lock());
            continue;
        };
        std::mem::swap(&mut stage.batch, &mut committer.batch);
        drop(stage);
        commit_batch(inner, &mut committer);
    }
}

/// Writes the committer's batch as one WAL commit group and then, in this
/// order, publishes its newest parameter snapshot, counts its checkins, and —
/// dedup outcome first — sends its acks. On a halted runtime (or when the
/// write fails, which halts it) the batch is dropped instead, waiters
/// included. Leaves the batch empty.
fn commit_batch<M: Model>(inner: &Inner<M>, committer: &mut Committer) {
    let Committer { store, batch } = committer;
    let committed = !inner.crashed.load(Ordering::SeqCst)
        && store
            .commit(&mut batch.frames)
            .map_err(|e| halt(inner, &e))
            .is_ok();
    if !committed {
        drop_batch(inner, batch);
        return;
    }
    if let Some(snapshot) = batch.newest.take() {
        *inner.snapshot.write() = snapshot;
    }
    inner.metrics.add(
        CounterId::CheckinsApplied,
        std::mem::take(&mut batch.applied),
    );
    for ack in batch.acks.drain(..) {
        deliver(inner, ack);
    }
}

/// A WAL commit failed. The batch's epochs are already applied in memory, so
/// this is not one epoch's failure: the runtime stops — nothing staged is
/// acknowledged, nothing more is committed or checkpointed, new checkins are
/// refused — and a restart recovers the durable prefix.
fn halt<M: Model>(inner: &Inner<M>, cause: &crowd_store::StoreError) {
    inner.crashed.store(true, Ordering::SeqCst);
    inner.queue.close();
    inner.metrics.incr(CounterId::WalErrors);
    eprintln!("crowd-agg: WAL commit failed, halting the durable runtime: {cause}");
}

/// Snapshots the server under the held core lock: commits what is staged to
/// the old segment first (the snapshot rotates the log, and a frame the
/// snapshot already reflects must never land in the successor) — releasing
/// that batch's acks — then snapshots and rotates.
fn checkpoint<M: Model>(inner: &Inner<M>, durable: &Durable, core: &Server<M>, stage: &mut Staged) {
    let mut committer = durable.wal_commit.lock();
    std::mem::swap(&mut stage.batch, &mut committer.batch);
    commit_batch(inner, &mut committer);
    if inner.crashed.load(Ordering::SeqCst) {
        return;
    }
    match committer.store.snapshot(&core.export_state()) {
        Ok(()) => {
            stage.since_snapshot = 0;
            inner.metrics.incr(CounterId::Snapshots);
        }
        Err(_) => inner.metrics.incr(CounterId::SnapshotErrors),
    }
}

/// Applies one checkin as its own epoch (the `epoch_size = 1` path) under the
/// held core lock: the classic Server Routine 2 update, bit for bit, one
/// iteration per checkin (a singleton [`EpochAggregate`] is exactly
/// `Server::checkin`). Returns the outcome the checkin is answered with.
fn apply_singleton<M: Model>(inner: &Inner<M>, core: &mut Server<M>, job: Job) -> CheckinReceipt {
    let (device_id, nonce) = (job.payload.device_id, job.payload.nonce);
    let epoch = EpochAggregate::from(job.payload);
    let mut stage = lock_stage(inner, core);
    let (outcome, applied) = apply_epoch(inner, core, stage.as_deref_mut(), &epoch);
    // The apply advanced the iteration clock; settle any now-due round before
    // acking, so a caller that has its ack also sees the finalized round.
    if applied {
        settle_due_rounds(inner, core, stage.as_deref_mut());
    }
    let ack = Ack {
        reply: job.reply,
        outcome,
        submitted: Some(job.submitted),
        device_id,
        nonce,
    };
    settle_epoch(inner, stage, applied, 1, std::iter::once(ack));
    outcome
}

/// Applies one epoch under the held core lock: drain the accumulator (fixed
/// merge order), take one projected SGD step on the core server, hand on the
/// new snapshot, settle the waiters.
fn merge<M: Model>(inner: &Inner<M>, core: &mut Core<M>) {
    let drained = core.epoch.drain();
    let Some(epoch) = drained.epoch else {
        return;
    };
    let server = &mut core.server;
    let mut stage = lock_stage(inner, server);
    let (outcome, applied) = apply_epoch(inner, server, stage.as_deref_mut(), &epoch);
    if applied {
        if drained.count > 1 {
            inner.metrics.incr(CounterId::BatchedEpochs);
        }
        // The apply advanced the iteration clock; settle any now-due round
        // before acking, so a caller that has its ack also sees the finalized
        // round.
        settle_due_rounds(inner, server, stage.as_deref_mut());
    }
    // Staleness is per-checkin: measured against the iteration the epoch was
    // applied at (the pre-update iteration, as in the classic checkin path).
    let pre_iteration = outcome.iteration - u64::from(outcome.accepted);
    let acks = drained.waiters.into_iter().map(|waiter| Ack {
        reply: waiter.reply,
        outcome: CheckinReceipt {
            accepted: outcome.accepted,
            iteration: outcome.iteration,
            stopped: outcome.stopped,
            staleness: pre_iteration.saturating_sub(waiter.checkout_iteration),
            deduped: false,
        },
        submitted: Some(waiter.submitted),
        device_id: waiter.device_id,
        nonce: waiter.nonce,
    });
    settle_epoch(inner, stage, applied, drained.count, acks);
    // The epoch has been applied (or refused); either way its merged gradient
    // buffer goes back to the accumulator's pool for the next merge.
    core.epoch.recycle_epoch(epoch);
}

#[cfg(test)]
mod group_commit_tests;

#[cfg(test)]
mod inline_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;

    fn payload(device_id: u64, grad: Vec<f64>, checkout: u64) -> CheckinPayload {
        CheckinPayload {
            device_id,
            checkout_iteration: checkout,
            nonce: 0,
            gradient: Vector::from_vec(grad).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        }
    }

    fn runtime(config: ServerConfig) -> AggRuntime<MulticlassLogistic> {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
    }

    #[test]
    fn checkout_reads_snapshot_without_blocking() {
        let rt = runtime(ServerConfig::new());
        let snap = rt.snapshot();
        assert_eq!(snap.iteration, 0);
        assert_eq!(snap.params.len(), 6);
        assert!(!snap.stopped);
        let ticket = rt.checkout();
        assert_eq!(ticket.iteration, 0);
        rt.shutdown();
    }

    #[test]
    fn checkin_applies_update_and_advances_snapshot() {
        let rt = runtime(ServerConfig::new().with_rate_constant(1.0));
        let outcome = rt
            .checkin(payload(3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0))
            .unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.iteration, 1);
        assert_eq!(outcome.staleness, 0);
        // η(1) = 1, so w moved by -1 on the first coordinate; the snapshot the
        // next checkout sees reflects the update.
        let snap = rt.snapshot();
        assert_eq!(snap.iteration, 1);
        assert!((snap.params[0] + 1.0).abs() < 1e-12);
        assert_eq!(rt.iteration(), 1);
        assert_eq!(rt.total_samples(), 2);
        assert_eq!(rt.active_devices(), 1);
        assert_eq!(rt.stats().get("checkins_applied"), 1);
        rt.shutdown();
    }

    #[test]
    fn invalid_payloads_fail_fast() {
        let rt = runtime(ServerConfig::new());
        assert!(matches!(
            rt.checkin(payload(0, vec![1.0; 5], 0)),
            Err(AggError::Invalid(_))
        ));
        let mut zero = payload(0, vec![0.0; 6], 0);
        zero.num_samples = 0;
        assert!(matches!(rt.checkin(zero), Err(AggError::Invalid(_))));
        let mut counts = payload(0, vec![0.0; 6], 0);
        counts.label_counts = vec![0, 0];
        assert!(matches!(rt.checkin(counts), Err(AggError::Invalid(_))));
        assert_eq!(rt.iteration(), 0);
        rt.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // One-deep queue and an epoch size nothing reaches without the idle
        // flush: while the core guard is held, submissions beyond the first
        // are rejected with a retry hint.
        let config = ServerConfig::new().with_agg(crowd_core::config::AggSettings {
            queue_bound: 1,
            epoch_size: u64::MAX,
            retry_after_ms: 7,
            flush_idle_ms: 0,
        });
        let rt = runtime(config);
        let mut handles = Vec::new();
        let mut busy = 0;
        let held = CoreGuard::lock(&rt.inner);
        for i in 0..50u64 {
            match rt.submit(payload(i, vec![0.1; 6], 0)) {
                Ok(h) => handles.push(h),
                Err(AggError::Busy { retry_after_ms }) => {
                    assert_eq!(retry_after_ms, 7);
                    busy += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        drop(held);
        assert!(busy > 0, "a 1-deep queue must reject under a burst of 50");
        assert_eq!(rt.stats().get("busy_rejections"), busy);
        // Shutdown flushes the admitted checkins; every handle resolves.
        rt.shutdown();
        for h in handles {
            let outcome = h.wait().unwrap();
            assert!(outcome.accepted);
        }
    }

    #[test]
    fn batched_epochs_apply_mean_gradient() {
        let config =
            ServerConfig::new()
                .with_rate_constant(1.0)
                .with_agg(crowd_core::config::AggSettings {
                    queue_bound: 64,
                    epoch_size: 4,
                    retry_after_ms: 1,
                    flush_idle_ms: 0,
                });
        let rt = runtime(config);
        let handles: Vec<CompletionHandle> = (0..4u64)
            .map(|d| {
                rt.submit(payload(d, vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0))
                    .unwrap()
            })
            .collect();
        for h in handles {
            let outcome = h.wait_timeout(Duration::from_secs(10)).unwrap();
            assert!(outcome.accepted);
            assert_eq!(outcome.iteration, 1, "4 checkins fold into ONE epoch");
        }
        // Mean gradient (1, 0, …) with η(1) = 1 moves w by exactly -1.
        assert!((rt.params()[0] + 1.0).abs() < 1e-12);
        assert_eq!(rt.iteration(), 1);
        assert_eq!(rt.total_samples(), 8);
        assert_eq!(rt.stats().get("batched_epochs"), 1);
        rt.shutdown();
    }

    #[test]
    fn idle_flush_applies_partial_epochs() {
        let config = ServerConfig::new().with_agg(crowd_core::config::AggSettings {
            queue_bound: 16,
            epoch_size: 1000,
            retry_after_ms: 1,
            flush_idle_ms: 1,
        });
        let rt = runtime(config);
        // Far fewer checkins than the epoch size: the idle flush must still
        // apply them promptly rather than stalling the devices forever.
        let outcome = rt
            .submit(payload(0, vec![0.5; 6], 0))
            .unwrap()
            .wait_timeout(Duration::from_secs(10))
            .unwrap();
        assert!(outcome.accepted);
        assert_eq!(rt.iteration(), 1);
        rt.shutdown();
    }

    #[test]
    fn stopped_server_rejects_but_counts() {
        let rt = runtime(ServerConfig::new().with_max_iterations(1));
        assert!(rt.checkin(payload(0, vec![0.1; 6], 0)).unwrap().accepted);
        let second = rt.checkin(payload(1, vec![0.1; 6], 1)).unwrap();
        assert!(!second.accepted);
        assert!(second.stopped);
        assert!(rt.snapshot().stopped);
        assert_eq!(rt.iteration(), 1);
        // The rejected checkin's statistics still count (Server Routine 2).
        assert_eq!(rt.total_samples(), 4);
        rt.shutdown();
    }

    use crowd_store::testutil::temp_dir;

    fn durable_runtime(
        config: &ServerConfig,
    ) -> (AggRuntime<MulticlassLogistic>, crowd_store::RecoveryReport) {
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let (store, server, report) = crowd_store::Store::open(model, config.clone()).unwrap();
        (AggRuntime::with_store(server, Some(store)).unwrap(), report)
    }

    #[test]
    fn kill_then_reopen_recovers_bitwise() {
        let dir = temp_dir("kill");
        let config = ServerConfig::new()
            .with_rate_constant(1.0)
            .with_budget(0.2, f64::INFINITY)
            .with_data_dir(&dir)
            .with_snapshot_every(2);
        let (rt, report) = durable_runtime(&config);
        assert!(!report.recovered());
        for step in 0..5u64 {
            let g: Vec<f64> = (0..6).map(|i| 0.07 * (i as f64 + step as f64)).collect();
            assert!(rt.checkin(payload(step % 2, g, step)).unwrap().accepted);
        }
        let params_at_kill = rt.params();
        let ledger_at_kill = rt.budget_ledger();
        // Crash-stop: no final flush, no checkpoint — disk is as SIGKILL leaves it.
        rt.kill();

        let (rt, report) = durable_runtime(&config);
        assert!(report.recovered());
        // snapshot_every = 2 ⇒ the last snapshot covered epoch 4; the tail is
        // replayed from the WAL.
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(rt.iteration(), 5);
        assert_eq!(rt.params().as_slice(), params_at_kill.as_slice());
        assert_eq!(rt.budget_ledger(), ledger_at_kill);
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_shutdown_checkpoints_and_compacts() {
        let dir = temp_dir("clean");
        let config = ServerConfig::new()
            .with_rate_constant(1.0)
            .with_data_dir(&dir)
            .with_snapshot_every(100);
        let (rt, _) = durable_runtime(&config);
        for step in 0..3u64 {
            rt.checkin(payload(step, vec![0.1; 6], step)).unwrap();
        }
        let params = rt.params();
        rt.shutdown();
        // The shutdown checkpoint makes recovery snapshot-only: no WAL replay.
        let (rt, report) = durable_runtime(&config);
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 0);
        assert_eq!(rt.iteration(), 3);
        assert_eq!(rt.params().as_slice(), params.as_slice());
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_devices_are_refused_and_stay_refused_after_restart() {
        let dir = temp_dir("budget");
        // Two 0.5-ε checkins reach the 1.0 ceiling.
        let config = ServerConfig::new()
            .with_budget(0.5, 1.0)
            .with_data_dir(&dir)
            .with_snapshot_every(1);
        let (rt, _) = durable_runtime(&config);
        assert!(rt.checkin(payload(0, vec![0.1; 6], 0)).unwrap().accepted);
        assert!(!rt.budget_exhausted(0));
        assert!(rt.checkin(payload(0, vec![0.1; 6], 1)).unwrap().accepted);
        assert!(rt.budget_exhausted(0));
        match rt.checkin(payload(0, vec![0.1; 6], 2)) {
            Err(AggError::BudgetExhausted { device_id: 0 }) => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Other devices are unaffected.
        assert!(rt.checkin(payload(1, vec![0.1; 6], 2)).unwrap().accepted);
        assert_eq!(rt.stats().get("budget_rejections"), 1);
        rt.kill();

        // The refusal must survive the crash: the ledger is durable state.
        let (rt, _) = durable_runtime(&config);
        assert!(rt.budget_exhausted(0));
        assert!(matches!(
            rt.checkin(payload(0, vec![0.1; 6], 3)),
            Err(AggError::BudgetExhausted { device_id: 0 })
        ));
        assert!(!rt.budget_exhausted(1));
        assert_eq!(rt.budget_ledger(), vec![(0, 1.0), (1, 0.5)]);
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_nonce_replays_original_ack_without_reapplying() {
        let rt = runtime(ServerConfig::new().with_rate_constant(1.0));
        let mut p = payload(3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0);
        p.nonce = 7;
        let original = rt.checkin(p.clone()).unwrap();
        assert!(original.accepted);
        assert_eq!(original.iteration, 1);
        let params_after_first = rt.params();
        // The same (device, nonce) again — a retry or a network duplicate —
        // must replay the original ack (flagged as a dedup) and leave the
        // parameters untouched.
        let replayed = rt.checkin(p).unwrap();
        assert!(replayed.deduped);
        assert_eq!(
            CheckinReceipt {
                deduped: false,
                ..replayed
            },
            original
        );
        assert_eq!(rt.iteration(), 1);
        assert_eq!(rt.params().as_slice(), params_after_first.as_slice());
        assert_eq!(rt.stats().get("dedup_replays"), 1);
        assert_eq!(rt.stats().get("checkins_applied"), 1);
        // A different nonce from the same device applies normally.
        let mut next = payload(3, vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1);
        next.nonce = 8;
        assert!(rt.checkin(next).unwrap().accepted);
        assert_eq!(rt.iteration(), 2);
        rt.shutdown();
    }

    #[test]
    fn duplicate_nonce_is_not_double_charged() {
        let rt = runtime(ServerConfig::new().with_budget(0.5, f64::INFINITY));
        let mut p = payload(1, vec![0.1; 6], 0);
        p.nonce = 11;
        assert!(rt.checkin(p.clone()).unwrap().accepted);
        assert!(rt.checkin(p).unwrap().accepted); // replay, not re-apply
                                                  // One application, one charge: the ledger must not see the duplicate.
        assert_eq!(rt.budget_ledger(), vec![(1, 0.5)]);
        assert_eq!(rt.total_samples(), 2);
        rt.shutdown();
    }

    #[test]
    fn nonce_zero_disables_dedup() {
        let rt = runtime(ServerConfig::new());
        let p = payload(0, vec![0.1; 6], 0);
        assert_eq!(p.nonce, 0);
        assert!(rt.checkin(p.clone()).unwrap().accepted);
        assert!(rt.checkin(p).unwrap().accepted);
        // Legacy behaviour: both applied.
        assert_eq!(rt.iteration(), 2);
        assert_eq!(rt.stats().get("dedup_replays"), 0);
        rt.shutdown();
    }

    fn round_config(population: u64, fraction: f64, deadline: u32) -> ServerConfig {
        ServerConfig::new().with_rate_constant(1.0).with_rounds(
            crowd_core::RoundSettings::new(population)
                .with_select_fraction(fraction)
                .with_deadline_epochs(deadline),
        )
    }

    /// A masked submission for `device_id` against the runtime's open round,
    /// carrying the given gradient.
    fn masked(
        rt: &AggRuntime<MulticlassLogistic>,
        device_id: u64,
        gradient: &[f64],
    ) -> (u64, PendingSubmission) {
        let info = rt.round_info().unwrap();
        let cohort = crowd_rounds::cohort(info.seed, info.population, info.select_fraction);
        let masks = crowd_rounds::net_mask(info.seed, device_id, &cohort, gradient.len());
        (
            info.round_id,
            PendingSubmission {
                device_id,
                nonce: 500 + device_id,
                checkout_iteration: rt.iteration(),
                words: crowd_rounds::mask(gradient, &masks),
                num_samples: 2,
                error_count: 1,
                label_counts: vec![1, 1, 0],
            },
        )
    }

    #[test]
    fn complete_cohort_finalizes_to_the_unmasked_mean() {
        // Fraction 1.0: all 3 devices are selected.
        let rt = runtime(round_config(3, 1.0, 100));
        assert_eq!(rt.round_info().unwrap().round_id, 1);
        let gradient = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for device in 0..3u64 {
            let (round_id, sub) = masked(&rt, device, &gradient);
            let outcome = rt.submit_round(round_id, sub).unwrap();
            assert!(outcome.accepted);
            assert!(!outcome.deduped);
        }
        // The third submission completed the cohort: one epoch applied, the
        // next round opened, and the step equals the unmasked mean gradient
        // (all three sent the same one) with η(1) = 1.
        assert_eq!(rt.iteration(), 1);
        assert_eq!(rt.round_info().unwrap().round_id, 2);
        assert!((rt.params()[0] + 1.0).abs() < 1e-12);
        let stats = rt.stats();
        assert_eq!(stats.get("round_submissions"), 3);
        assert_eq!(stats.get("rounds_finalized"), 1);
        assert_eq!(stats.get("checkins_applied"), 3);
        rt.shutdown();
    }

    #[test]
    fn round_retry_is_deduped_and_stale_round_is_outdated() {
        let rt = runtime(round_config(3, 1.0, 100));
        let gradient = [0.5; 6];
        let (round_id, sub) = masked(&rt, 0, &gradient);
        assert!(!rt.submit_round(round_id, sub.clone()).unwrap().deduped);
        // A retried submission (ack lost on the wire) replays, not re-applies.
        assert!(rt.submit_round(round_id, sub.clone()).unwrap().deduped);
        // A submission against a round that is not current resyncs the device.
        match rt.submit_round(round_id + 7, sub) {
            Err(AggError::RoundOutdated { current_round }) => {
                assert_eq!(current_round, round_id)
            }
            other => panic!("expected outdated, got {other:?}"),
        }
        let stats = rt.stats();
        assert_eq!(stats.get("dedup_replays"), 1);
        assert_eq!(stats.get("round_outdated_rejections"), 1);
        assert_eq!(rt.iteration(), 0, "no cohort completion, no epoch");
        rt.shutdown();
    }

    #[test]
    fn partial_cohort_is_finalized_by_graceful_shutdown() {
        let rt = runtime(round_config(4, 1.0, 100));
        let gradient = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for device in 0..2u64 {
            let (round_id, sub) = masked(&rt, device, &gradient);
            rt.submit_round(round_id, sub).unwrap();
        }
        assert_eq!(rt.iteration(), 0);
        rt.shutdown();
        // Shutdown settled the half-full round: the two acknowledged
        // submissions were applied (mask compensation recovered their sum).
        assert_eq!(rt.iteration(), 1);
        assert!((rt.params()[0] + 1.0).abs() < 1e-12);
        assert_eq!(rt.stats().get("rounds_finalized"), 1);
    }

    #[test]
    fn deadline_expiry_finalizes_survivors_mid_run() {
        // Deadline of 2 epochs; unselected devices' free-run checkins drive
        // the iteration clock past it.
        let rt = runtime(round_config(8, 0.5, 2));
        let info = rt.round_info().unwrap();
        let cohort = crowd_rounds::cohort(info.seed, info.population, info.select_fraction);
        assert!(!cohort.is_empty() && cohort.len() < 8);
        // One cohort member submits; the rest drop out.
        let survivor = cohort[0];
        let (round_id, sub) = masked(&rt, survivor, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        rt.submit_round(round_id, sub).unwrap();
        // Two free-run checkins from a non-member expire the round.
        let free = (0..8).find(|d| !cohort.contains(d)).unwrap();
        for step in 0..2u64 {
            assert!(
                rt.checkin(payload(free, vec![0.0; 6], step))
                    .unwrap()
                    .accepted
            );
        }
        // The expiry epoch applied the lone survivor's unmasked gradient
        // (compensating every dropout's pairwise masks).
        assert_eq!(rt.iteration(), 3);
        assert_eq!(rt.round_info().unwrap().round_id, 2);
        assert_eq!(rt.stats().get("rounds_finalized"), 1);
        rt.shutdown();
    }

    #[test]
    fn mid_round_kill_recovers_pending_and_finalizes_identically() {
        let dir = temp_dir("round-kill");
        let mk = |dir: &std::path::Path| {
            round_config(3, 1.0, 100)
                .with_data_dir(dir)
                .with_snapshot_every(100)
        };
        let gradient = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let (store, server, _) = crowd_store::Store::open(model, mk(&dir)).unwrap();
        let rt = AggRuntime::with_store(server, Some(store)).unwrap();
        for device in 0..2u64 {
            let (round_id, sub) = masked(&rt, device, &gradient);
            rt.submit_round(round_id, sub).unwrap();
        }
        rt.kill();

        // Recovery rebuilds the pending cohort from the WAL; the last member
        // completes it and finalization matches the uninterrupted run.
        let model = MulticlassLogistic::new(2, 3).unwrap();
        let (store, server, report) = crowd_store::Store::open(model, mk(&dir)).unwrap();
        assert_eq!(report.replayed_submissions, 2);
        let rt = AggRuntime::with_store(server, Some(store)).unwrap();
        let (round_id, sub) = masked(&rt, 2, &gradient);
        assert!(rt.submit_round(round_id, sub).unwrap().accepted);
        assert_eq!(rt.iteration(), 1);
        assert!((rt.params()[0] + 1.0).abs() < 1e-12);
        rt.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_checkins_from_many_devices() {
        let rt = Arc::new(runtime(ServerConfig::new()));
        let mut threads = Vec::new();
        for device in 0..8u64 {
            let rt = Arc::clone(&rt);
            threads.push(std::thread::spawn(move || {
                for step in 0..10u64 {
                    let outcome = rt.checkin(payload(device, vec![0.01; 6], step)).unwrap();
                    assert!(outcome.accepted);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rt.total_samples(), 160);
        assert_eq!(rt.active_devices(), 8);
        assert_eq!(rt.stats().get("checkins_applied"), 80);
        rt.shutdown();
    }
}
