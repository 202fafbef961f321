//! Request handling for [`crate::reactor_server::ReactorServer`], kept apart
//! from the transport: authentication against the [`TokenRegistry`], the
//! [`AggRuntime`] behind every reply, and the mapping from requests to wire
//! replies, through two entry points over the same state.
//!
//! [`handle_event`] is what the reactor calls. It maps requests onto
//! [`crowd_reactor::Response`] so the event loop never blocks: checkouts
//! answer immediately; a checkin — free-run or a masked round submission —
//! is run by the event loop, or by the holder of the aggregation
//! runtime's core lock (`AggRuntime::submit_to`, `AggRuntime::submit_round_to`),
//! and whichever thread settles it answers through the request's
//! [`crowd_reactor::Completer`] — nothing waits for an ack.
//! [`ServerCore::handle_message`] answers everything else — metrics scrapes
//! and malformed traffic — inline. The blocking `Message`-in, `Message`-out
//! checkout and checkin the event path is tested against live in the
//! test-only `message_path` module.
//!
//! Backpressure on the wire: the reactor path never answers a checkin with a
//! [`Message::Busy`]. A full combining queue *parks* the connection (read
//! throttling) and the reactor re-admits the decoded checkin as the queue
//! drains, so the device sees a quiet socket, not a retry request. `Busy`
//! stays on the wire, and the client's handling of it stays too, as
//! validation of what a server may send.
//!
//! A checkout reply depends only on the published parameter snapshot and the
//! open round, so the reactor path encodes it once per `(snapshot, round)` —
//! straight from the snapshot, length prefix included — and hands every
//! connection the same [`SharedFrame`] until a request sees another snapshot
//! or round. Who may have the reply is decided per request, before the
//! shared frame is looked at ([`ServerCore::checkout_refusal`], which the
//! test-only `Message` path runs too). `checkout_frames_built` against
//! `checkouts_served` tells a scrape how much sharing actually happens.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crowd_agg::{AggError, AggRuntime, OutcomeSink, ParamSnapshot, SubmitRejection, Submitted};
use crowd_core::device::CheckinPayload;
use crowd_core::server::{CheckinReceipt, PendingSubmission};
use crowd_learning::MulticlassLogistic;
use crowd_linalg::{GradientUpdate, QuantizedVector, SparseVector, Vector};
use crowd_proto::auth::TokenRegistry;
use crowd_proto::frame::SharedFrame;
use crowd_proto::message::{
    BusyReply, CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, ErrorReply, GradientPayload,
    HistogramReport, Message, MetricsReport, RoundParams,
};
use crowd_proto::{BufPool, PROTOCOL_VERSION};
use crowd_reactor::{Completer, Ctx, Response};
use crowd_telemetry::sync::Mutex;
use crowd_telemetry::{CounterId, HistogramId, MetricsSnapshot, Registry, Tick};
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod message_path;

/// Server state shared by every connection, independent of transport.
pub(crate) struct ServerCore {
    pub(crate) runtime: AggRuntime<MulticlassLogistic>,
    pub(crate) tokens: TokenRegistry,
    /// Frame buffers shared by every connection: payload reads and reply
    /// encodes reuse pooled storage instead of allocating per message.
    pub(crate) pool: Arc<BufPool>,
    /// The aggregation runtime's crowd-scope registry, shared so the serving
    /// layer's own counters and per-message-type latency land in the same
    /// scrape the `MetricsRequest` admin message answers from.
    pub(crate) metrics: Arc<Registry>,
    /// The latest checkout reply frame. Taken holding no other lock, and
    /// nothing is locked while it is held: the snapshot and the round are
    /// read before it.
    // audit:lock(net.checkout-frame, 75)
    checkout_frame: Mutex<Option<CheckoutFrame>>,
}

/// A checkout reply frame and exactly what it was encoded from. Holding the
/// snapshot keeps its address from being reused, so pointer equality
/// identifies it.
struct CheckoutFrame {
    snapshot: Arc<ParamSnapshot>,
    round: Option<RoundParams>,
    frame: SharedFrame,
}

impl ServerCore {
    pub(crate) fn new(runtime: AggRuntime<MulticlassLogistic>, tokens: TokenRegistry) -> Self {
        let metrics = runtime.metrics();
        ServerCore {
            runtime,
            tokens,
            pool: Arc::new(BufPool::default()),
            metrics,
            checkout_frame: Mutex::new(None),
        }
    }

    /// Answers what [`handle_event`] does not answer itself: a metrics
    /// scrape, timed as `req_metrics_us`, and a `BadRequest` refusal for
    /// anything else.
    pub(crate) fn handle_message(&self, message: Message) -> Message {
        let start = self.metrics.start();
        let scrape = matches!(message, Message::MetricsRequest(_));
        let reply = self.dispatch(message);
        if scrape {
            self.metrics.observe_since(HistogramId::ReqMetricsUs, start);
        }
        reply
    }

    fn dispatch(&self, message: Message) -> Message {
        match message {
            Message::MetricsRequest(req) => {
                if req.version != PROTOCOL_VERSION {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("unsupported protocol version {}", req.version),
                    );
                }
                // The scrape is authenticated exactly like a checkout: any
                // registered device (an operator holds one) may read the
                // registry, which carries no per-device training data.
                if !self.tokens.verify(req.device_id, &req.token) {
                    return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
                }
                Message::MetricsReport(metrics_report(&self.runtime.stats()))
            }
            other => error_reply(
                ErrorCode::BadRequest,
                format!("unexpected message {}", other.name()),
            ),
        }
    }

    /// The gatekeepers of a checkout, in reply order — protocol version,
    /// token, ε budget: the refusal a request gets, or `None` when it may
    /// read the parameters.
    fn checkout_refusal(&self, req: &CheckoutRequest) -> Option<Message> {
        if req.version != PROTOCOL_VERSION {
            return Some(error_reply(
                ErrorCode::BadRequest,
                format!("unsupported protocol version {}", req.version),
            ));
        }
        if !self.tokens.verify(req.device_id, &req.token) {
            return Some(error_reply(
                ErrorCode::Unauthorized,
                "unknown device or bad token",
            ));
        }
        // Refusing the *checkout* is where over-querying is actually
        // prevented: a device that cannot read parameters computes no
        // further gradients on its own ε.
        if self.runtime.budget_exhausted(req.device_id) {
            self.metrics.incr(CounterId::ExhaustionRefusals);
            return Some(error_reply(
                ErrorCode::BudgetExhausted,
                format!("device {} has exhausted its privacy budget", req.device_id),
            ));
        }
        None
    }

    /// Answers a checkout for the reactor: the refusal the request earns, or
    /// the pre-framed reply for the current snapshot and round —
    /// byte-identical to framing a `CheckoutResponse` built from them.
    fn checkout_event(&self, req: &CheckoutRequest) -> Response {
        if let Some(refusal) = self.checkout_refusal(req) {
            return Response::Now(refusal);
        }
        let snapshot = self.runtime.snapshot();
        let round = self.round_params();
        self.metrics.incr(CounterId::CheckoutsServed);
        Response::Framed(self.frame_for(snapshot, round))
    }

    /// The frame for exactly this snapshot and round: the slot's if it was
    /// encoded from them, otherwise a fresh one, which replaces it. Built
    /// under the lock, so requests arriving together for a new snapshot
    /// encode it once and the rest wait the few microseconds that takes.
    fn frame_for(&self, snapshot: Arc<ParamSnapshot>, round: Option<RoundParams>) -> SharedFrame {
        let mut slot = self.checkout_frame.lock();
        if let Some(cached) = slot.as_ref() {
            if Arc::ptr_eq(&cached.snapshot, &snapshot) && cached.round == round {
                return cached.frame.clone();
            }
        }
        let frame = SharedFrame::checkout_response(
            snapshot.iteration,
            snapshot.stopped,
            snapshot.params.as_slice(),
            round.as_ref(),
        );
        self.metrics.incr(CounterId::CheckoutFramesBuilt);
        *slot = Some(CheckoutFrame {
            snapshot,
            round,
            frame: frame.clone(),
        });
        frame
    }

    /// The current round parameters, as published in every checkout when the
    /// server runs the round-based cohort protocol (wire v6).
    fn round_params(&self) -> Option<RoundParams> {
        self.runtime.round_info().map(|info| RoundParams {
            round_id: info.round_id,
            seed: info.seed,
            select_fraction: info.select_fraction,
            deadline_epochs: info.deadline_epochs,
            population: info.population,
        })
    }

    /// Refuses a free-run checkin tagged with a round other than the server's
    /// current one: the device's protocol view is stale and it must refetch
    /// the round parameters. `round_id == 0` opts out of the check, and the
    /// tag is meaningless (not stale) when rounds are disabled.
    fn stale_round_reply(&self, round_id: u64) -> Option<Message> {
        if round_id == 0 {
            return None;
        }
        match self.runtime.round_info() {
            Some(info) if info.round_id != round_id => {
                self.metrics.incr(CounterId::RoundOutdatedRejections);
                Some(round_outdated_reply(info.round_id))
            }
            _ => None,
        }
    }
}

/// Builds the wire scrape reply from a registry snapshot: every counter and
/// gauge verbatim, histograms reduced to count/sum/max plus the four summary
/// quantiles. Sections stay name-sorted (the snapshot's order), so identical
/// registries encode byte-identically.
pub(crate) fn metrics_report(snap: &MetricsSnapshot) -> MetricsReport {
    MetricsReport {
        counters: snap
            .counters()
            .iter()
            .map(|&(name, v)| (name.to_string(), v))
            .collect(),
        gauges: snap
            .gauges()
            .iter()
            .map(|&(name, v)| (name.to_string(), v))
            .collect(),
        histograms: snap
            .histograms()
            .iter()
            .map(|(name, bins)| HistogramReport {
                name: name.to_string(),
                count: bins.count(),
                sum: bins.sum(),
                max: bins.max(),
                p50: bins.p50(),
                p90: bins.p90(),
                p99: bins.p99(),
                p999: bins.p999(),
            })
            .collect(),
    }
}

/// Handles one request for the reactor without ever blocking the event loop.
///
/// * Checkouts answer inline with the shared pre-framed reply for the
///   current snapshot; malformed traffic and scrapes answer inline too.
/// * A checkin goes to the runtime's non-blocking entry. Run to completion
///   right here, it is answered inline ([`Response::Now`]); queued or folded
///   into an open epoch, it is [`Response::Deferred`] and the aggregation
///   thread that settles it builds the ack and fires the request's completer.
///   A masked round submission takes the same two routes through
///   `AggRuntime::submit_round_to`.
/// * A full queue becomes [`Response::Throttle`]: the payload is parked (the
///   decoded request is handed back by the runtime) and re-admission is
///   probed by the reactor, which reads nothing more from the connection. The
///   device never sees a Busy reply on this path — it sees a quiet socket.
pub(crate) fn handle_event(core: &Arc<ServerCore>, message: Message, ctx: &Ctx<'_>) -> Response {
    match message {
        Message::CheckinRequest(req) => {
            // `req_checkin_us` runs from here to the reply, wherever that is
            // built: here, or on the thread that settles it.
            let start = core.metrics.start();
            let refusal = |reply| Response::Now(checkin_reply(&core.metrics, start, reply));
            if !core.tokens.verify(req.device_id, &req.token) {
                return refusal(error_reply(
                    ErrorCode::Unauthorized,
                    "unknown device or bad token",
                ));
            }
            note_gradient_encoding(&core.metrics, &req.gradient);
            if matches!(req.gradient, GradientPayload::Masked { .. }) {
                return match round_submission_of(req) {
                    Ok(round) => submit_event(core, round, start, ctx),
                    Err(reply) => refusal(*reply),
                };
            }
            if let Some(reply) = core.stale_round_reply(req.round_id) {
                return refusal(reply);
            }
            let payload = match payload_of(req) {
                Ok(p) => p,
                Err(reply) => return refusal(*reply),
            };
            submit_event(core, payload, start, ctx)
        }
        Message::CheckoutRequest(req) => {
            let start = core.metrics.start();
            let response = core.checkout_event(&req);
            core.metrics
                .observe_since(HistogramId::ReqCheckoutUs, start);
            response
        }
        other => Response::Now(core.handle_message(other)),
    }
}

/// Closes a reactor checkin's `req_checkin_us` measurement as its reply is
/// built.
fn checkin_reply(metrics: &Registry, start: Tick, reply: Message) -> Message {
    metrics.observe_since(HistogramId::ReqCheckinUs, start);
    reply
}

/// What the thread that settles a deferred checkin runs: build the reply —
/// the ack, or the refusal a dropped checkin maps to — and hand it to the
/// event loop.
fn ack_sink(metrics: &Arc<Registry>, start: Tick, completer: Completer) -> OutcomeSink {
    let metrics = Arc::clone(metrics);
    Box::new(move |outcome| {
        let reply = match outcome {
            Ok(outcome) => Message::CheckinAck(ack_of(outcome)),
            Err(e) => agg_error_reply(e),
        };
        completer.complete(checkin_reply(&metrics, start, reply));
    })
}

/// A masked checkin as the runtime takes it: the submission, and the round
/// it contributes to.
struct RoundSubmission {
    round_id: u64,
    submission: PendingSubmission,
}

/// What the reactor path submits without blocking: a free-run checkin or a
/// round submission. A full queue hands it back whole, for parking.
trait EventJob: Sized + Send + 'static {
    fn submit_to(
        self,
        runtime: &AggRuntime<MulticlassLogistic>,
        make_sink: impl FnOnce() -> OutcomeSink,
    ) -> std::result::Result<Submitted, SubmitRejection<Self>>;
}

impl EventJob for CheckinPayload {
    fn submit_to(
        self,
        runtime: &AggRuntime<MulticlassLogistic>,
        make_sink: impl FnOnce() -> OutcomeSink,
    ) -> std::result::Result<Submitted, SubmitRejection<Self>> {
        runtime.submit_to(self, make_sink)
    }
}

impl EventJob for RoundSubmission {
    fn submit_to(
        self,
        runtime: &AggRuntime<MulticlassLogistic>,
        make_sink: impl FnOnce() -> OutcomeSink,
    ) -> std::result::Result<Submitted, SubmitRejection<Self>> {
        let round_id = self.round_id;
        match runtime.submit_round_to(round_id, self.submission, make_sink) {
            Ok(submitted) => Ok(submitted),
            Err(SubmitRejection::Busy {
                payload,
                retry_after_ms,
            }) => Err(SubmitRejection::Busy {
                payload: RoundSubmission {
                    round_id,
                    submission: payload,
                },
                retry_after_ms,
            }),
            Err(SubmitRejection::Refused(e)) => Err(SubmitRejection::Refused(e)),
        }
    }
}

/// One admission attempt on the reactor path.
enum Attempt<J> {
    /// Answered, now or later.
    Resolved(Response),
    /// Backpressure: the job back, with the runtime's pacing hint, for
    /// parking.
    Busy(J, u32),
}

fn admit_event<J: EventJob>(core: &ServerCore, job: J, start: Tick, ctx: &Ctx<'_>) -> Attempt<J> {
    let now = |reply| Attempt::Resolved(Response::Now(checkin_reply(&core.metrics, start, reply)));
    let submitted = job.submit_to(&core.runtime, || {
        ack_sink(&core.metrics, start, ctx.completer())
    });
    match submitted {
        Ok(Submitted::Applied(outcome)) => now(Message::CheckinAck(ack_of(outcome))),
        Ok(Submitted::Pending) => Attempt::Resolved(Response::Deferred),
        Err(SubmitRejection::Busy {
            payload,
            retry_after_ms,
        }) => Attempt::Busy(payload, retry_after_ms),
        Err(SubmitRejection::Refused(e)) => now(agg_error_reply(e)),
    }
}

fn submit_event<J: EventJob>(
    core: &Arc<ServerCore>,
    job: J,
    start: Tick,
    ctx: &Ctx<'_>,
) -> Response {
    match admit_event(core, job, start, ctx) {
        Attempt::Resolved(response) => response,
        Attempt::Busy(job, retry_after_ms) => {
            // Backpressure: park the decoded job and let the reactor probe
            // re-admission. A checkin's dedup reservation was released by
            // `submit_to`, so each probe is admitted fresh.
            let core = Arc::clone(core);
            let mut parked = Some(job);
            Response::Throttle {
                retry_after_ms,
                retry: Box::new(
                    move |ctx| match admit_event(&core, parked.take()?, start, ctx) {
                        Attempt::Resolved(response) => Some(response),
                        Attempt::Busy(job, _) => {
                            parked = Some(job);
                            None
                        }
                    },
                ),
            }
        }
    }
}

/// Counts a checkin's gradient encoding: quantized uploads bump
/// `quantized_checkins` and credit `quantized_bytes_saved` with the wire bytes
/// the encoding avoided relative to a dense body of the same dimension.
pub(crate) fn note_gradient_encoding(metrics: &Registry, gradient: &GradientPayload) {
    if let GradientPayload::Quantized { levels, .. } = gradient {
        metrics.incr(CounterId::QuantizedCheckins);
        let dense_len = 1 + 4 + 8 * levels.len();
        metrics.add(
            CounterId::QuantizedBytesSaved,
            (dense_len.saturating_sub(gradient.encoded_len())) as u64,
        );
    }
}

/// Converts a decoded checkin into the runtime payload without copying the
/// gradient — a sparse upload stays sparse all the way to the epoch
/// accumulator. Re-validation of the sparse structure (the codec already
/// checked it) costs O(nnz) and turns a hand-crafted bad payload into a
/// `BadRequest` reply instead of trusting the transport. The error reply is
/// boxed to keep the happy path's `Result` small.
pub(crate) fn payload_of(req: CheckinRequest) -> std::result::Result<CheckinPayload, Box<Message>> {
    let gradient = match req.gradient {
        GradientPayload::Dense(values) => GradientUpdate::Dense(Vector::from_vec(values)),
        GradientPayload::Sparse {
            dim,
            indices,
            values,
        } => match SparseVector::new(dim as usize, indices, values) {
            Ok(sparse) => GradientUpdate::Sparse(sparse),
            Err(e) => return Err(Box::new(error_reply(ErrorCode::BadRequest, e.to_string()))),
        },
        GradientPayload::Quantized { scale, levels } => {
            match QuantizedVector::from_parts(scale, levels) {
                Ok(q) => GradientUpdate::Quantized(q),
                Err(e) => return Err(Box::new(error_reply(ErrorCode::BadRequest, e.to_string()))),
            }
        }
        GradientPayload::Masked { .. } => {
            // Masked gradients are round submissions; callers route them to
            // `round_submission_of` before building a free-run payload.
            return Err(Box::new(error_reply(
                ErrorCode::BadRequest,
                "a masked gradient is only valid as a round submission",
            )));
        }
    };
    Ok(CheckinPayload {
        device_id: req.device_id,
        checkout_iteration: req.checkout_iteration,
        nonce: req.nonce,
        gradient,
        num_samples: req.num_samples as usize,
        error_count: req.error_count,
        label_counts: req.label_counts,
    })
}

/// Converts a decoded masked checkin into a round submission, refusing one
/// that names no round. Boxed like [`payload_of`].
fn round_submission_of(req: CheckinRequest) -> std::result::Result<RoundSubmission, Box<Message>> {
    let GradientPayload::Masked { words } = req.gradient else {
        return Err(Box::new(error_reply(
            ErrorCode::Internal,
            "a round submission needs a masked gradient",
        )));
    };
    if req.round_id == 0 {
        return Err(Box::new(error_reply(
            ErrorCode::BadRequest,
            "a masked checkin must name the round it contributes to",
        )));
    }
    Ok(RoundSubmission {
        round_id: req.round_id,
        submission: PendingSubmission {
            device_id: req.device_id,
            nonce: req.nonce,
            checkout_iteration: req.checkout_iteration,
            words,
            num_samples: req.num_samples,
            error_count: req.error_count,
            label_counts: req.label_counts,
        },
    })
}

/// The wire acknowledgement of a settled checkin.
fn ack_of(outcome: CheckinReceipt) -> CheckinAck {
    CheckinAck {
        accepted: outcome.accepted,
        iteration: outcome.iteration,
        stopped: outcome.stopped,
        deduped: outcome.deduped,
    }
}

/// Maps a runtime refusal to its wire reply: backpressure becomes `Busy`,
/// everything else an `Error`.
pub(crate) fn agg_error_reply(e: AggError) -> Message {
    match e {
        AggError::Busy { retry_after_ms } => Message::Busy(BusyReply { retry_after_ms }),
        AggError::Invalid(detail) => error_reply(ErrorCode::BadRequest, detail),
        AggError::ShuttingDown => error_reply(ErrorCode::TaskEnded, "server is shutting down"),
        AggError::Timeout => error_reply(ErrorCode::Internal, "epoch application timed out"),
        AggError::BudgetExhausted { device_id } => error_reply(
            ErrorCode::BudgetExhausted,
            format!("device {device_id} has exhausted its privacy budget"),
        ),
        AggError::RoundOutdated { current_round } => round_outdated_reply(current_round),
        AggError::Core(e) => error_reply(ErrorCode::Internal, e.to_string()),
        AggError::Store(e) => error_reply(ErrorCode::Internal, e.to_string()),
    }
}

pub(crate) fn error_reply(code: ErrorCode, detail: impl Into<String>) -> Message {
    Message::Error(ErrorReply {
        code,
        detail: detail.into(),
        round_id: 0,
    })
}

/// The refusal for a checkin against a closed round, carrying the server's
/// *current* round id so the stale device can resync without an extra
/// checkout round-trip.
pub(crate) fn round_outdated_reply(current_round: u64) -> Message {
    Message::Error(ErrorReply {
        code: ErrorCode::RoundOutdated,
        detail: format!("round closed; the current round is {current_round}"),
        round_id: current_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor_server::build_runtime;
    use crowd_core::config::{RoundSettings, ServerConfig};
    use crowd_proto::auth::AuthToken;
    use crowd_proto::codec::decode;
    use crowd_proto::frame::write_message;
    use crowd_proto::message::CheckoutResponse;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const SECRET: u64 = 99;
    const DEVICES: u64 = 4;
    /// `MulticlassLogistic::new(4, 3)`: 12 parameters.
    const DIM: usize = 12;

    fn core_with(config: ServerConfig) -> ServerCore {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let (runtime, _) = build_runtime(model, config).unwrap();
        ServerCore::new(runtime, TokenRegistry::with_derived_tokens(DEVICES, SECRET))
    }

    fn checkout(device_id: u64) -> CheckoutRequest {
        CheckoutRequest {
            version: PROTOCOL_VERSION,
            device_id,
            token: AuthToken::derive(device_id, SECRET),
        }
    }

    /// One dense free-run checkin; epochs are one checkin each by default,
    /// so the ack means a new snapshot is published.
    fn checkin(core: &ServerCore, step: u64) -> Message {
        let device_id = step % DEVICES;
        message_path::reply(
            core,
            Message::CheckinRequest(CheckinRequest {
                device_id,
                token: AuthToken::derive(device_id, SECRET),
                checkout_iteration: step,
                nonce: step + 1,
                round_id: 0,
                gradient: GradientPayload::Dense(
                    (0..DIM)
                        .map(|i| 0.01 * (step + 1) as f64 * (i as f64 - 5.5))
                        .collect(),
                ),
                num_samples: 2,
                error_count: 1,
                label_counts: vec![1, 1, 0],
            }),
        )
    }

    fn built(core: &ServerCore) -> u64 {
        core.metrics.counter(CounterId::CheckoutFramesBuilt)
    }

    /// The reactor path's reply to `req` as wire bytes.
    fn event_bytes(core: &ServerCore, req: &CheckoutRequest) -> Vec<u8> {
        match core.checkout_event(req) {
            Response::Framed(frame) => frame.as_bytes().to_vec(),
            Response::Now(reply) => framed(&reply),
            other => panic!("a checkout never defers: {other:?}"),
        }
    }

    fn framed(message: &Message) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_message(&mut bytes, message).unwrap();
        bytes
    }

    /// Both paths answer `req` with the same bytes; returns the decoded reply.
    fn assert_paths_agree(core: &ServerCore, req: &CheckoutRequest, stage: &str) -> Message {
        let via_message = message_path::reply(core, Message::CheckoutRequest(req.clone()));
        assert_eq!(
            event_bytes(core, req),
            framed(&via_message),
            "{stage}: shared frame diverged from the message path"
        );
        via_message
    }

    fn expect_response(reply: Message) -> CheckoutResponse {
        match reply {
            Message::CheckoutResponse(r) => r,
            other => panic!("expected a checkout response, got {other:?}"),
        }
    }

    #[test]
    fn shared_frame_equals_the_message_path_across_a_server_life() {
        let core = core_with(ServerConfig::new().with_max_iterations(2));
        let fresh = expect_response(assert_paths_agree(&core, &checkout(0), "fresh"));
        assert_eq!((fresh.iteration, fresh.stopped), (0, false));
        assert_eq!(built(&core), 1);
        // Same snapshot, another device: shared, not rebuilt.
        assert_paths_agree(&core, &checkout(1), "fresh, second device");
        assert_eq!(built(&core), 1);

        checkin(&core, 0);
        let after = expect_response(assert_paths_agree(&core, &checkout(0), "after an epoch"));
        assert_eq!((after.iteration, after.stopped), (1, false));
        assert_ne!(after.params, fresh.params);
        assert_eq!(built(&core), 2);

        checkin(&core, 1);
        let stopped = expect_response(assert_paths_agree(&core, &checkout(2), "stopped"));
        assert_eq!((stopped.iteration, stopped.stopped), (2, true));
        assert_eq!(built(&core), 3);
    }

    #[test]
    fn shared_frame_carries_the_open_round_and_follows_it() {
        let rounds = RoundSettings::new(DEVICES).with_deadline_epochs(1);
        let core = core_with(ServerConfig::new().with_rounds(rounds));
        let first = expect_response(assert_paths_agree(&core, &checkout(0), "rounds on"));
        let opened = first.round.expect("round parameters are published");
        assert_eq!(opened.round_id, 1);

        // A free-run epoch passes the deadline: round 1 expires with no
        // submissions and round 2 opens.
        checkin(&core, 0);
        assert_eq!(core.metrics.counter(CounterId::RoundsExpired), 1);
        let second = expect_response(assert_paths_agree(&core, &checkout(0), "round expired"));
        let reopened = second.round.expect("the successor round is published");
        assert_eq!(reopened.round_id, 2);
        assert_ne!(reopened.seed, opened.seed);

        // The round is part of the key on its own: the same snapshot under
        // another round is a different reply, in both directions.
        let snapshot = core.runtime.snapshot();
        let before = built(&core);
        let current = core.frame_for(Arc::clone(&snapshot), Some(reopened));
        assert_eq!(built(&core), before, "current pair is cached");
        let stale = core.frame_for(Arc::clone(&snapshot), Some(opened));
        assert_eq!(built(&core), before + 1);
        assert_ne!(stale.as_bytes(), current.as_bytes());
        let again = core.frame_for(snapshot, Some(reopened));
        assert_eq!(built(&core), before + 2);
        assert_eq!(again.as_bytes(), current.as_bytes());
    }

    #[test]
    fn shared_frame_equals_the_message_path_after_kill_and_recovery() {
        let dir = crowd_store::testutil::temp_dir("checkout-frame-recovery");
        let config = ServerConfig::new()
            .with_data_dir(&dir)
            .with_snapshot_every(2);
        let core = core_with(config.clone());
        for step in 0..3 {
            checkin(&core, step);
        }
        let at_kill = framed(&assert_paths_agree(&core, &checkout(0), "before the kill"));
        core.runtime.kill();
        drop(core);

        let core = core_with(config);
        assert_eq!(
            built(&core),
            0,
            "a recovered server starts with an empty slot"
        );
        let recovered = assert_paths_agree(&core, &checkout(0), "after recovery");
        assert_eq!(framed(&recovered), at_kill, "recovery is bitwise");
        drop(core);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cached_frame_never_answers_for_the_gatekeepers() {
        // One ε per checkin against a ceiling of one: device 0's first
        // checkin exhausts it.
        let core = core_with(ServerConfig::new().with_budget(1.0, 1.0));
        assert!(matches!(checkin(&core, 0), Message::CheckinAck(ack) if ack.accepted));
        assert!(core.runtime.budget_exhausted(0));
        // Device 1 fills the slot for the current snapshot.
        assert_paths_agree(&core, &checkout(1), "admitted");
        let cached = built(&core);
        let served = core.metrics.counter(CounterId::CheckoutsServed);

        let bad_token = CheckoutRequest {
            token: AuthToken::derive(1, SECRET + 1),
            ..checkout(1)
        };
        let wrong_version = CheckoutRequest {
            version: PROTOCOL_VERSION + 1,
            ..checkout(1)
        };
        let unknown_device = checkout(DEVICES + 7);
        for (req, code) in [
            (bad_token, ErrorCode::Unauthorized),
            (wrong_version, ErrorCode::BadRequest),
            (unknown_device, ErrorCode::Unauthorized),
            (checkout(0), ErrorCode::BudgetExhausted),
        ] {
            let reply = assert_paths_agree(&core, &req, "refusal");
            assert!(
                matches!(&reply, Message::Error(e) if e.code == code),
                "expected {code:?}, got {reply:?}"
            );
        }
        assert_eq!(built(&core), cached, "a refusal never touches the slot");
        assert_eq!(core.metrics.counter(CounterId::CheckoutsServed), served);
        // The admitted device is still served from the slot.
        assert!(matches!(
            core.checkout_event(&checkout(1)),
            Response::Framed(_)
        ));
        assert_eq!(built(&core), cached);
    }

    #[test]
    fn concurrent_checkouts_share_frames_and_never_mix_snapshots() {
        const EPOCHS: u64 = 40;
        const CLIENTS: usize = 2;
        /// Checkouts each client still makes once the publisher is done:
        /// the snapshot is final by then, so all but the first are hits.
        const QUIET_TAIL: usize = 500;

        // The parameters of every iteration, from a single-threaded replay
        // of the same checkins.
        let replay = core_with(ServerConfig::new());
        let mut params_at: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let record = |core: &ServerCore, params_at: &mut BTreeMap<u64, Vec<f64>>| {
            let snap = core.runtime.snapshot();
            params_at.insert(snap.iteration, snap.params.as_slice().to_vec());
        };
        record(&replay, &mut params_at);
        for step in 0..EPOCHS {
            checkin(&replay, step);
            record(&replay, &mut params_at);
        }
        assert_eq!(params_at.len() as u64, EPOCHS + 1);

        let core = core_with(ServerConfig::new());
        let done = AtomicBool::new(false);
        let start = Barrier::new(CLIENTS + 1);
        let served: usize = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (core, done, start, params_at) = (&core, &done, &start, &params_at);
                    scope.spawn(move || {
                        let req = checkout(client as u64);
                        let mut served = 0usize;
                        let mut tail = 0usize;
                        let mut newest = 0u64;
                        start.wait();
                        while tail < QUIET_TAIL {
                            if done.load(Ordering::Acquire) {
                                tail += 1;
                            }
                            let Response::Framed(frame) = core.checkout_event(&req) else {
                                panic!("an admitted checkout is answered with a frame");
                            };
                            let reply = decode(&frame.as_bytes()[4..]).unwrap();
                            let reply = expect_response(reply);
                            assert_eq!(
                                Some(&reply.params),
                                params_at.get(&reply.iteration),
                                "reply names iteration {} but carries other parameters",
                                reply.iteration
                            );
                            assert!(reply.iteration >= newest, "a client's view went back");
                            newest = reply.iteration;
                            served += 1;
                        }
                        assert_eq!(newest, EPOCHS);
                        served
                    })
                })
                .collect();
            start.wait();
            for step in 0..EPOCHS {
                assert!(matches!(checkin(&core, step), Message::CheckinAck(ack) if ack.accepted));
            }
            done.store(true, Ordering::Release);
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });

        assert_eq!(
            core.metrics.counter(CounterId::CheckoutsServed),
            served as u64
        );
        // One build per distinct snapshot, plus what a publish can cost: a
        // request that read the old snapshot but reaches the slot after
        // another client installed the new one rebuilds the old frame, and
        // the next request rebuilds the new one. Each client has at most
        // one request in flight, so that is at most `CLIENTS - 1` such
        // pairs per publish.
        let bound = (EPOCHS + 1) + 2 * (CLIENTS as u64 - 1) * EPOCHS;
        let built = built(&core);
        assert!(built <= bound, "{built} frames built, bound {bound}");
        assert!(served as u64 >= (CLIENTS * QUIET_TAIL) as u64);
        assert!(
            built * 5 < served as u64,
            "{built} frames built for {served} checkouts: frames are not being shared"
        );
    }
}
