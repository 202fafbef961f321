//! The contract of [`AggRuntime::submit_to`] and the combining protocol
//! behind it: a checkin run to completion on its submitting thread leaves
//! the same state and gets the same answer as one the core lock's holder ran
//! off the queue; a holder drains the queue before its own job and again on
//! release; nothing admitted is stranded, by contention, by shutdown or by a
//! kill; and a durable runtime acknowledges a checkin its submitter ran only
//! after the commit. The same holds for a masked round submission through
//! [`AggRuntime::submit_round_to`].

use super::*;
use crowd_core::config::ServerConfig;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::{GradientUpdate, QuantizedVector, SparseVector};
use crowd_store::testutil::temp_dir;
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64};

const PARAM_DIM: usize = 6;
const EPSILON: f64 = 0.5;
const WAIT: Duration = Duration::from_secs(30);

type Runtime = AggRuntime<MulticlassLogistic>;

fn config(epoch_size: u64, queue_bound: usize) -> ServerConfig {
    ServerConfig::new()
        .with_rate_constant(1.0)
        .with_agg(AggSettings {
            queue_bound,
            epoch_size,
            retry_after_ms: 1,
            // No idle flush: an epoch closes because it filled, or at shutdown.
            flush_idle_ms: 0,
        })
}

fn runtime(config: ServerConfig) -> Runtime {
    let model = MulticlassLogistic::new(2, 3).unwrap();
    AggRuntime::new(Server::new(model, config).unwrap()).unwrap()
}

/// A deterministic payload: `kind` picks the gradient encoding.
fn payload(device_id: u64, nonce: u64, kind: u8, seed: u64) -> CheckinPayload {
    let value =
        |i: usize| ((seed.wrapping_mul(31).wrapping_add(i as u64) % 17) as f64 - 8.0) / 16.0;
    let gradient = match kind % 3 {
        0 => GradientUpdate::Dense(Vector::from_vec((0..PARAM_DIM).map(value).collect())),
        1 => GradientUpdate::Sparse(
            SparseVector::new(PARAM_DIM, vec![1, 4], vec![value(1), value(4)]).unwrap(),
        ),
        _ => GradientUpdate::Quantized(
            QuantizedVector::from_parts(
                0.125,
                (0..PARAM_DIM).map(|i| (value(i) * 64.0) as i16).collect(),
            )
            .unwrap(),
        ),
    };
    CheckinPayload {
        device_id,
        checkout_iteration: seed % 3,
        nonce,
        gradient,
        num_samples: 2,
        error_count: 1,
        label_counts: vec![1, 1, 0],
    }
}

/// How one submission was answered.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Outcome(CheckinReceipt),
    Busy,
    Refused(String),
    /// The runtime dropped the checkin: its sink ran with an error.
    Dropped(String),
}

/// Everything a run leaves behind that the two routes must agree on.
#[derive(Debug, PartialEq)]
struct Trace {
    answers: Vec<Option<Answer>>,
    params: Vec<u64>,
    iteration: u64,
    total_samples: u64,
    ledger: Vec<(u64, u64)>,
    applied: u64,
}

fn trace(rt: &Runtime, answers: Vec<Option<Answer>>) -> Trace {
    Trace {
        answers,
        params: rt.params().as_slice().iter().map(|v| v.to_bits()).collect(),
        iteration: rt.iteration(),
        total_samples: rt.total_samples(),
        ledger: rt
            .budget_ledger()
            .into_iter()
            .map(|(device, eps)| (device, eps.to_bits()))
            .collect(),
        applied: rt.stats().get("checkins_applied"),
    }
}

/// Answers collected from sinks, by submission index.
#[derive(Clone, Default)]
struct Answers(Arc<Mutex<Vec<Option<Answer>>>>);

impl Answers {
    fn set(&self, index: usize, answer: Answer) {
        let mut slots = self.0.lock();
        if slots.len() <= index {
            slots.resize(index + 1, None);
        }
        assert!(slots[index].replace(answer).is_none(), "answered twice");
    }

    fn sink(&self, index: usize) -> OutcomeSink {
        let answers = self.clone();
        Box::new(move |outcome| {
            answers.set(
                index,
                match outcome {
                    Ok(outcome) => Answer::Outcome(outcome),
                    Err(e) => Answer::Dropped(e.to_string()),
                },
            )
        })
    }

    /// Submits through the event entry and records whatever is known at once.
    fn submit_to(&self, rt: &Runtime, index: usize, payload: CheckinPayload) {
        match rt.submit_to(payload, || self.sink(index)) {
            Ok(Submitted::Applied(outcome)) => self.set(index, Answer::Outcome(outcome)),
            Ok(Submitted::Pending) => {}
            Err(SubmitRejection::Busy { .. }) => self.set(index, Answer::Busy),
            Err(SubmitRejection::Refused(e)) => self.set(index, Answer::Refused(e.to_string())),
        }
    }

    fn take(&self, len: usize) -> Vec<Option<Answer>> {
        let mut slots = std::mem::take(&mut *self.0.lock());
        slots.resize(len, None);
        slots
    }
}

/// The reference: every payload through `submit()` under a held core guard,
/// so it is queued, and the guard's release runs it — the combined route.
fn run_queued(config: ServerConfig, payloads: &[CheckinPayload]) -> Trace {
    let rt = runtime(config);
    let mut answers: Vec<Option<Answer>> = vec![None; payloads.len()];
    let mut waiting: Vec<(usize, CompletionHandle)> = Vec::new();
    for (index, payload) in payloads.iter().enumerate() {
        let held = CoreGuard::lock(&rt.inner);
        let submitted = rt.submit(payload.clone());
        drop(held);
        match submitted {
            Ok(handle) => waiting.push((index, handle)),
            Err(AggError::Busy { .. }) => answers[index] = Some(Answer::Busy),
            Err(e) => answers[index] = Some(Answer::Refused(e.to_string())),
        }
    }
    rt.shutdown();
    for (index, handle) in waiting {
        let outcome = handle
            .wait_timeout(WAIT)
            .expect("an admitted checkin resolves");
        answers[index] = Some(Answer::Outcome(outcome));
    }
    assert_eq!(
        rt.stats().get("checkins_inline"),
        0,
        "every checkin ran on the combined route"
    );
    trace(&rt, answers)
}

/// The same payloads through `submit_to()` from one thread: the core lock is
/// always free, so every checkin runs inline.
fn run_event(config: ServerConfig, payloads: &[CheckinPayload]) -> Trace {
    let rt = runtime(config);
    let answers = Answers::default();
    for (index, payload) in payloads.iter().enumerate() {
        answers.submit_to(&rt, index, payload.clone());
    }
    rt.shutdown();
    let answers = answers.take(payloads.len());
    let fresh = answers
        .iter()
        .filter(|a| matches!(a, Some(Answer::Outcome(o)) if !o.deduped))
        .count() as u64;
    // Every fresh checkin ran inline and kept its instruments: one latency
    // sample each, and nothing ever touched the queue.
    let stats = rt.stats();
    assert_eq!(stats.get("checkins_inline"), fresh);
    assert_eq!(stats.get("checkins_applied"), fresh);
    let latencies = stats
        .histogram("checkin_latency_us")
        .map_or(0, |h| h.count());
    assert_eq!(latencies, fresh);
    trace(&rt, answers)
}

/// `(device, encoding, seed, nonce mode)`: mode 0 sends no nonce, mode 1
/// repeats an earlier submission verbatim, anything else is a fresh nonce.
type Step = ((u64, u8), u64, u8);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(((0..3u64, 0..3u8), any::<u64>(), 0..6u8), 1..40)
}

fn payloads_of(steps: &[Step]) -> Vec<CheckinPayload> {
    let mut payloads: Vec<CheckinPayload> = Vec::with_capacity(steps.len());
    for (index, &((device, kind), seed, mode)) in steps.iter().enumerate() {
        let next = match mode {
            0 => payload(device, 0, kind, seed),
            1 if !payloads.is_empty() => payloads[seed as usize % payloads.len()].clone(),
            _ => payload(device, index as u64 + 1, kind, seed),
        };
        payloads.push(next);
    }
    payloads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same replies, same state: queued and inline are one computation.
    #[test]
    fn queued_and_inline_routes_agree_bitwise(steps in steps(), batched in any::<bool>()) {
        let epoch_size = if batched { 4 } else { 1 };
        // Four ε-charged checkins exhaust a device, so refusals are in the mix.
        let config = config(epoch_size, 64).with_budget(EPSILON, 4.0 * EPSILON);
        let payloads = payloads_of(&steps);
        let queued = run_queued(config.clone(), &payloads);
        let event = run_event(config, &payloads);
        prop_assert!(queued.answers.iter().all(Option::is_some));
        prop_assert_eq!(queued, event);
    }

    /// Two submitters over disjoint devices racing for the core lock — the
    /// loser's checkin goes through the queue — fill exactly one epoch, which
    /// is bitwise the epoch the sequential reference builds.
    #[test]
    fn racing_submitters_build_the_reference_epoch(seeds in prop::collection::vec(any::<u64>(), 8)) {
        let payloads: Vec<CheckinPayload> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| payload(i as u64 % 4, i as u64 + 1, (seed % 3) as u8, seed))
            .collect();
        let config = config(payloads.len() as u64, 64);
        let reference = run_queued(config.clone(), &payloads);

        let rt = runtime(config);
        let answers = Answers::default();
        std::thread::scope(|scope| {
            for half in 0..2u64 {
                let (rt, answers, payloads) = (&rt, &answers, &payloads);
                scope.spawn(move || {
                    // Devices 0 and 2, or 1 and 3; each device's checkins in order.
                    for (index, payload) in payloads.iter().enumerate() {
                        if payload.device_id % 2 == half {
                            answers.submit_to(rt, index, payload.clone());
                        }
                    }
                });
            }
        });
        rt.shutdown();
        let raced = trace(&rt, answers.take(payloads.len()));
        prop_assert_eq!(raced.iteration, 1);
        prop_assert_eq!(reference, raced);
    }
}

#[test]
fn a_held_core_lock_queues_the_checkin_and_a_full_queue_hands_it_back() {
    let rt = runtime(config(1, 2));
    let answers = Answers::default();
    let sinks_built = AtomicU64::new(0);
    let submit = |index: usize| {
        rt.submit_to(payload(index as u64, index as u64 + 1, 0, 7), || {
            sinks_built.fetch_add(1, Ordering::SeqCst);
            answers.sink(index)
        })
    };

    let held = CoreGuard::lock(&rt.inner);
    // The lock is taken: the checkins are queued for its holder, which runs
    // them when it lets go.
    assert_eq!(submit(0).unwrap(), Submitted::Pending);
    assert_eq!(submit(1).unwrap(), Submitted::Pending);
    // The two-deep queue is full: the payload comes back, and no sink was
    // built for it.
    match submit(2) {
        Err(SubmitRejection::Busy {
            payload,
            retry_after_ms: 1,
        }) => assert_eq!((payload.device_id, payload.nonce), (2, 3)),
        other => panic!("expected the payload back, got {other:?}"),
    }
    assert_eq!(sinks_built.load(Ordering::SeqCst), 2);
    assert_eq!(rt.stats().get("busy_rejections"), 1);
    assert_eq!(rt.stats().get("checkins_applied"), 0);

    // The release ran both.
    drop(held);
    let settled = answers.take(2);
    for (index, answer) in settled.iter().enumerate() {
        match answer {
            Some(Answer::Outcome(outcome)) => {
                assert!(outcome.accepted);
                assert_eq!(outcome.iteration, index as u64 + 1);
            }
            other => panic!("checkin {index} was answered {other:?}"),
        }
    }
    assert_eq!(rt.stats().get("checkins_inline"), 0);
    // The parked payload, resubmitted with the lock free, runs inline.
    match submit(2).unwrap() {
        Submitted::Applied(outcome) => assert_eq!(outcome.iteration, 3),
        Submitted::Pending => panic!("nothing holds the core lock"),
    }
    assert_eq!(sinks_built.load(Ordering::SeqCst), 2);
    assert_eq!(rt.stats().get("checkins_inline"), 1);
    assert_eq!(rt.stats().get("checkins_applied"), 3);
    rt.shutdown();
}

/// Drain first: a thread that gets the core lock runs what is queued before
/// its own job, so its later checkin never overtakes its queued one.
#[test]
fn a_holder_runs_the_queued_jobs_before_its_own() {
    let rt = runtime(config(1, 64));
    let answers = Answers::default();
    // Checkin A is queued behind a raw hold, whose release runs nothing;
    // checkin B finds the lock free, and its submitter runs A, then B.
    let raw = rt.inner.core.lock();
    answers.submit_to(&rt, 0, payload(0, 1, 0, 1));
    drop(raw);
    answers.submit_to(&rt, 1, payload(0, 2, 0, 2));
    let iterations = answers.take(2).into_iter().map(|answer| match answer {
        Some(Answer::Outcome(outcome)) => outcome.iteration,
        other => panic!("expected an outcome, got {other:?}"),
    });
    assert_eq!(iterations.collect::<Vec<_>>(), [1, 2]);
    assert_eq!(rt.stats().get("checkins_inline"), 1);
    rt.shutdown();
}

/// Releasing a core guard runs what was queued meanwhile, before `drop`
/// returns and with no further submission.
#[test]
fn releasing_the_core_guard_runs_what_was_queued_meanwhile() {
    let rt = runtime(config(1, 64));
    let answers = Answers::default();
    let held = CoreGuard::lock(&rt.inner);
    std::thread::scope(|scope| {
        scope.spawn(|| answers.submit_to(&rt, 0, payload(1, 1, 0, 3)));
    });
    drop(held);
    match answers.take(1).as_slice() {
        [Some(Answer::Outcome(outcome))] => assert_eq!(outcome.iteration, 1),
        other => panic!("the release ran nothing: {other:?}"),
    }
    assert_eq!(rt.stats().get("checkins_inline"), 0);
    rt.shutdown();
}

#[test]
fn a_durable_checkin_run_by_its_submitter_is_acked_after_its_commit() {
    let dir = temp_dir("inline-durable");
    let config = config(1, 64).with_data_dir(&dir).with_fsync(false);
    let model = MulticlassLogistic::new(2, 3).unwrap();
    let (store, server, _) = crowd_store::Store::open(model, config).unwrap();
    let rt = AggRuntime::with_store(server, Some(store)).unwrap();
    let (tx, rx) = mpsc::channel();
    for step in 0..20u64 {
        let tx = tx.clone();
        let submitted = rt
            .submit_to(payload(step % 3, step + 1, step as u8, step), move || {
                Box::new(move |outcome| tx.send(outcome).unwrap())
            })
            .unwrap();
        // The submitter ran it, but the ack waits for the commit: the sink
        // runs on `crowd-agg`, after the commit.
        assert_eq!(submitted, Submitted::Pending);
        let outcome = rx.recv_timeout(WAIT).unwrap().unwrap();
        assert_eq!(outcome.iteration, step + 1);
        assert!(rt.stats().get("wal_frames") > step);
    }
    // A replay needs no thread at all, durable or not.
    match rt.submit_to(payload(1, 2, 1, 1), || {
        unreachable!("a replay builds no sink")
    }) {
        Ok(Submitted::Applied(outcome)) => assert!(outcome.deduped),
        other => panic!("expected the replay, got {other:?}"),
    }
    let stats = rt.stats();
    assert_eq!(stats.get("checkins_inline"), 20);
    assert_eq!(stats.get("checkins_applied"), 20);
    rt.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Submitters hammer the event entry while the runtime stops under them.
/// Returns, per device, how many of its checkins were answered with an
/// applied outcome, plus how many sinks ran with an error.
fn hammer_until_stopped(rt: &Runtime, stop: impl FnOnce(&Runtime)) -> (Vec<u64>, u64) {
    const SUBMITTERS: u64 = 4;
    let resolved: Vec<Arc<AtomicU64>> = (0..SUBMITTERS).map(|_| Arc::default()).collect();
    let dropped = Arc::new(AtomicU64::new(0));
    let pending = Arc::new(AtomicI64::new(0));
    std::thread::scope(|scope| {
        for device in 0..SUBMITTERS {
            let resolved = Arc::clone(&resolved[device as usize]);
            let (dropped, pending) = (Arc::clone(&dropped), Arc::clone(&pending));
            scope.spawn(move || {
                for step in 0u64.. {
                    let sink_resolved = Arc::clone(&resolved);
                    let (sink_dropped, sink_pending) = (Arc::clone(&dropped), Arc::clone(&pending));
                    let submitted = rt.submit_to(payload(device, 0, step as u8, step), move || {
                        sink_pending.fetch_add(1, Ordering::SeqCst);
                        Box::new(move |outcome| {
                            match outcome {
                                Ok(_) => sink_resolved.fetch_add(1, Ordering::SeqCst),
                                Err(AggError::ShuttingDown) => {
                                    sink_dropped.fetch_add(1, Ordering::SeqCst)
                                }
                                Err(e) => panic!("a sink only ever fails with ShuttingDown: {e}"),
                            };
                            sink_pending.fetch_sub(1, Ordering::SeqCst);
                        })
                    });
                    match submitted {
                        Ok(Submitted::Applied(_)) => {
                            resolved.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(Submitted::Pending) | Err(SubmitRejection::Busy { .. }) => {}
                        Err(SubmitRejection::Refused(AggError::ShuttingDown)) => return,
                        Err(other) => panic!("unexpected refusal {other:?}"),
                    }
                }
            });
        }
        // Stop once every submitter is demonstrably mid-stream.
        while resolved.iter().any(|r| r.load(Ordering::SeqCst) < 50) {
            std::thread::yield_now();
        }
        stop(rt);
        // Whatever was admitted has been answered by the time the stop
        // returns — not whenever the runtime happens to be dropped.
        assert_eq!(pending.load(Ordering::SeqCst), 0, "a sink is still owed");
    });
    assert_eq!(pending.load(Ordering::SeqCst), 0);
    let resolved = resolved.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    (resolved, dropped.load(Ordering::SeqCst))
}

#[test]
fn shutdown_under_fire_applies_and_answers_everything_it_admitted() {
    // The larger the epoch, the surer a part-filled one is open at the stop.
    for epoch_size in [1, 4, 7, 64] {
        let rt = runtime(config(epoch_size, 8).with_budget(EPSILON, f64::INFINITY));
        let (resolved, dropped) = hammer_until_stopped(&rt, Runtime::shutdown);
        assert_eq!(
            dropped, 0,
            "epoch_size {epoch_size}: shutdown strands nothing"
        );
        let total: u64 = resolved.iter().sum();
        let stats = rt.stats();
        assert_eq!(stats.get("checkins_applied"), total);
        assert!(stats.get("checkins_inline") > 0);
        assert_eq!(rt.total_samples(), 2 * total);
        if epoch_size == 1 {
            assert_eq!(rt.iteration(), total);
        }
        // ledger[d] == ε · acked[d], exactly.
        let ledger: Vec<(u64, f64)> = resolved
            .iter()
            .enumerate()
            .map(|(device, &acked)| (device as u64, EPSILON * acked as f64))
            .collect();
        assert_eq!(rt.budget_ledger(), ledger);
    }
}

#[test]
fn kill_under_fire_applies_whole_checkins_or_drops_them() {
    // The larger the epoch, the surer a part-filled one is open at the stop.
    for epoch_size in [1, 4, 7, 64] {
        let rt = runtime(config(epoch_size, 8).with_budget(EPSILON, f64::INFINITY));
        let (resolved, _dropped) = hammer_until_stopped(&rt, Runtime::kill);
        // Every checkin is wholly in the state (and answered) or wholly out
        // of it (and dropped or refused): per device, a prefix of its stream.
        let total: u64 = resolved.iter().sum();
        assert_eq!(rt.stats().get("checkins_applied"), total);
        assert_eq!(rt.total_samples(), 2 * total);
        let ledger: Vec<(u64, f64)> = resolved
            .iter()
            .enumerate()
            .map(|(device, &acked)| (device as u64, EPSILON * acked as f64))
            .collect();
        assert_eq!(rt.budget_ledger(), ledger);
    }
}

/// Rounds over a population of four, all of them selected, that never expire
/// on their own.
fn with_rounds(config: ServerConfig) -> ServerConfig {
    config.with_rounds(
        crowd_core::RoundSettings::new(4)
            .with_select_fraction(1.0)
            .with_deadline_epochs(1000),
    )
}

/// `device_id`'s masked submission to the runtime's open round.
fn round_submission(rt: &Runtime, device_id: u64) -> (u64, PendingSubmission) {
    let info = rt.round_info().unwrap();
    let cohort = crowd_rounds::cohort(info.seed, info.population, info.select_fraction);
    let masks = crowd_rounds::net_mask(info.seed, device_id, &cohort, PARAM_DIM);
    let gradient: Vec<f64> = (0..PARAM_DIM).map(|i| i as f64 / 8.0).collect();
    let submission = PendingSubmission {
        device_id,
        nonce: 700 + device_id,
        checkout_iteration: 0,
        words: crowd_rounds::mask(&gradient, &masks),
        num_samples: 2,
        error_count: 1,
        label_counts: vec![1, 1, 0],
    };
    (info.round_id, submission)
}

/// Waits until `cond` holds, for at most [`WAIT`].
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..WAIT.as_millis() {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn a_held_core_lock_queues_the_round_submission_and_its_sink_fires_once() {
    let rt = runtime(with_rounds(config(1, 2)));
    let answers = Answers::default();
    let sinks_built = AtomicU64::new(0);
    let submit = |device: u64| {
        let (round_id, submission) = round_submission(&rt, device);
        rt.submit_round_to(round_id, submission, || {
            sinks_built.fetch_add(1, Ordering::SeqCst);
            answers.sink(device as usize)
        })
    };

    let held = CoreGuard::lock(&rt.inner);
    // The lock is taken: the submissions are queued for its holder, which
    // runs them when it lets go.
    assert_eq!(submit(0).unwrap(), Submitted::Pending);
    assert_eq!(submit(1).unwrap(), Submitted::Pending);
    // The two-deep queue is full: the submission comes back, no sink built.
    match submit(2) {
        Err(SubmitRejection::Busy {
            payload,
            retry_after_ms: 1,
        }) => assert_eq!((payload.device_id, payload.nonce), (2, 702)),
        other => panic!("expected the submission back, got {other:?}"),
    }
    assert_eq!(sinks_built.load(Ordering::SeqCst), 2);
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        answers.0.lock().is_empty(),
        "no sink fires while the core lock is held"
    );

    drop(held);
    assert_eq!(answers.0.lock().len(), 2, "the release ran both");
    // `Answers::set` refuses a second answer; give a stray one time to land.
    std::thread::sleep(Duration::from_millis(20));
    for (device, answer) in answers.take(2).iter().enumerate() {
        match answer {
            Some(Answer::Outcome(outcome)) => assert!(outcome.accepted && !outcome.deduped),
            other => panic!("submission {device} was answered {other:?}"),
        }
    }
    // The handed-back submission, resubmitted with the lock free, runs
    // inline; so does the one that completes the cohort and finalizes it.
    for device in [2, 3] {
        match submit(device).unwrap() {
            Submitted::Applied(outcome) => assert!(outcome.accepted && !outcome.deduped),
            Submitted::Pending => panic!("nothing holds the core lock"),
        }
    }
    assert_eq!(sinks_built.load(Ordering::SeqCst), 2);
    let stats = rt.stats();
    assert_eq!(stats.get("round_submissions"), 4);
    assert_eq!(stats.get("rounds_finalized"), 1);
    assert_eq!(rt.iteration(), 1);
    rt.shutdown();
}

#[test]
fn a_durable_round_submission_is_answered_after_its_commit_or_not_at_all() {
    let dir = temp_dir("round-route-durable");
    let config = with_rounds(config(1, 64))
        .with_data_dir(&dir)
        .with_fsync(false);
    let model = MulticlassLogistic::new(2, 3).unwrap();
    let (store, server, _) = crowd_store::Store::open(model, config).unwrap();
    let rt = AggRuntime::with_store(server, Some(store)).unwrap();
    let metrics = rt.metrics();
    let (tx, rx) = mpsc::channel();
    let submit = |device: u64| {
        let (round_id, submission) = round_submission(&rt, device);
        let (tx, metrics) = (tx.clone(), Arc::clone(&metrics));
        rt.submit_round_to(round_id, submission, move || {
            Box::new(move |outcome| {
                // What the WAL held when the sink ran.
                let committed = metrics.counter(CounterId::WalFrames);
                tx.send((outcome, committed)).unwrap();
            })
        })
    };
    for device in 0..3u64 {
        // The submitter runs it, but the ack waits for the commit.
        assert_eq!(submit(device).unwrap(), Submitted::Pending);
        let (outcome, committed) = rx.recv_timeout(WAIT).unwrap();
        assert!(outcome.unwrap().accepted);
        assert!(
            committed > device,
            "submission {device} was answered before its frame was committed"
        );
    }

    // A kill while the submission waits for the core lock: its frame is
    // never committed, and its sink says so.
    let frames = metrics.counter(CounterId::WalFrames);
    std::thread::scope(|scope| {
        let held = rt.inner.core.lock();
        assert_eq!(submit(3).unwrap(), Submitted::Pending);
        let killer = scope.spawn(|| rt.kill());
        wait_until("the kill to begin", || {
            rt.inner.crashed.load(Ordering::SeqCst)
        });
        drop(held);
        killer.join().unwrap();
    });
    match rx.recv_timeout(WAIT).unwrap() {
        (Err(AggError::ShuttingDown), committed) => assert_eq!(committed, frames),
        (other, _) => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert!(rx.try_recv().is_err(), "the sink ran once");
    std::fs::remove_dir_all(&dir).unwrap();
}
