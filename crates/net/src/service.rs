//! Transport-independent request handling shared by the threaded
//! [`crate::server::NetServer`] and the event-driven
//! [`crate::reactor_server::ReactorServer`].
//!
//! Both servers authenticate against the same [`TokenRegistry`], serve the
//! same [`AggRuntime`], and produce byte-identical replies; only the I/O model
//! differs. The blocking entry point ([`ServerCore::handle_message`]) waits
//! for checkin completions inline; the event entry point ([`handle_event`])
//! maps the same requests onto [`crowd_reactor::Response`] so a reactor
//! thread never blocks: checkouts answer immediately, checkin completions
//! resolve on the completion pump, and a full ingest queue *parks* the
//! connection (read throttling) instead of emitting a Busy reply.

use crowd_agg::{AggError, AggRuntime, CompletionHandle, RoundSubmitOutcome, SubmitRejection};
use crowd_core::device::CheckinPayload;
use crowd_core::server::PendingSubmission;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::{GradientUpdate, QuantizedVector, SparseVector, Vector};
use crowd_proto::auth::TokenRegistry;
use crowd_proto::message::{
    BatchAck, BatchCheckinAck, BusyReply, CheckinAck, CheckinRequest, CheckoutResponse, ErrorCode,
    ErrorReply, GradientPayload, HistogramReport, Message, MetricsReport, RoundParams,
};
use crowd_proto::{BufPool, PROTOCOL_VERSION};
use crowd_reactor::Response;
use crowd_telemetry::{CounterId, HistogramId, MetricsSnapshot, Registry, Tick};
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking handler (or the completion pump) waits for a queued
/// checkin's epoch to be applied before reporting an internal error. Epochs
/// close on `epoch_size` or the idle flush, so in practice this bound is
/// never approached.
pub(crate) const CHECKIN_WAIT: Duration = Duration::from_secs(30);

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
}

impl ServerCore {
    pub(crate) fn new(runtime: AggRuntime<MulticlassLogistic>, tokens: TokenRegistry) -> Self {
        let metrics = runtime.metrics();
        ServerCore {
            runtime,
            tokens,
            pool: Arc::new(BufPool::default()),
            metrics,
        }
    }

    /// Handles one request, blocking until the reply is known. Used by the
    /// thread-per-connection server and (for batch requests) the reactor's
    /// completion pump. Request latency is recorded per message type.
    pub(crate) fn handle_message(&self, message: Message) -> Message {
        let hist = match &message {
            Message::CheckoutRequest(_) => Some(HistogramId::ReqCheckoutUs),
            Message::CheckinRequest(_) => Some(HistogramId::ReqCheckinUs),
            Message::BatchCheckinRequest(_) => Some(HistogramId::ReqBatchCheckinUs),
            Message::MetricsRequest(_) => Some(HistogramId::ReqMetricsUs),
            _ => None,
        };
        let start = self.metrics.start();
        let reply = self.dispatch(message);
        if let Some(id) = hist {
            self.metrics.observe_since(id, start);
        }
        reply
    }

    fn dispatch(&self, message: Message) -> Message {
        match message {
            Message::CheckoutRequest(req) => {
                if req.version != PROTOCOL_VERSION {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("unsupported protocol version {}", req.version),
                    );
                }
                if !self.tokens.verify(req.device_id, &req.token) {
                    return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
                }
                // Refusing the *checkout* is where over-querying is actually
                // prevented: a device that cannot read parameters computes no
                // further gradients on its own ε.
                if self.runtime.budget_exhausted(req.device_id) {
                    self.metrics.incr(CounterId::ExhaustionRefusals);
                    return error_reply(
                        ErrorCode::BudgetExhausted,
                        format!("device {} has exhausted its privacy budget", req.device_id),
                    );
                }
                // Lock-free read path: clone the epoch snapshot, never touching
                // the write path's locks.
                let snapshot = self.runtime.snapshot();
                self.metrics.incr(CounterId::CheckoutsServed);
                Message::CheckoutResponse(CheckoutResponse {
                    iteration: snapshot.iteration,
                    params: snapshot.params.as_slice().to_vec(),
                    stopped: snapshot.stopped,
                    round: self.round_params(),
                })
            }
            Message::CheckinRequest(req) => {
                if !self.tokens.verify(req.device_id, &req.token) {
                    return error_reply(ErrorCode::Unauthorized, "unknown device or bad token");
                }
                note_gradient_encoding(&self.metrics, &req.gradient);
                if matches!(req.gradient, GradientPayload::Masked { .. }) {
                    return self.round_checkin(req);
                }
                if let Some(reply) = self.stale_round_reply(req.round_id) {
                    return reply;
                }
                let payload = match payload_of(req) {
                    Ok(p) => p,
                    Err(reply) => return *reply,
                };
                match self.runtime.submit(payload) {
                    Ok(handle) => match wait_ack(handle) {
                        Ok(ack) => Message::CheckinAck(ack),
                        Err(reply) => *reply,
                    },
                    Err(e) => agg_error_reply(e),
                }
            }
            Message::BatchCheckinRequest(req) => {
                // Admit every item before waiting on any of them, so a batch
                // fills at most one epoch's worth of queue slots at a time and
                // the runtime can fold co-submitted gradients into shared
                // epochs.
                let submitted: Vec<std::result::Result<CompletionHandle, Box<Message>>> = req
                    .items
                    .into_iter()
                    .map(|item| {
                        if !self.tokens.verify(item.device_id, &item.token) {
                            return Err(Box::new(error_reply(
                                ErrorCode::Unauthorized,
                                "unknown device or bad token",
                            )));
                        }
                        note_gradient_encoding(&self.metrics, &item.gradient);
                        if matches!(item.gradient, GradientPayload::Masked { .. }) {
                            // Round submissions resolve synchronously; the
                            // reply (ack or refusal) is folded in positionally.
                            return Err(Box::new(self.round_checkin(item)));
                        }
                        if let Some(reply) = self.stale_round_reply(item.round_id) {
                            return Err(Box::new(reply));
                        }
                        self.runtime
                            .submit(payload_of(item)?)
                            .map_err(|e| Box::new(agg_error_reply(e)))
                    })
                    .collect();
                let acks = submitted
                    .into_iter()
                    .map(|entry| match entry {
                        Ok(handle) => match wait_ack(handle) {
                            Ok(ack) => BatchAck {
                                accepted: ack.accepted,
                                iteration: ack.iteration,
                                stopped: ack.stopped,
                                deduped: ack.deduped,
                                reject: None,
                            },
                            Err(reply) => batch_ack_of(&reply),
                        },
                        Err(reply) => batch_ack_of(&reply),
                    })
                    .collect();
                Message::BatchCheckinAck(BatchCheckinAck { acks })
            }
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

    /// Handles a round submission (a masked checkin): the gradient is recorded
    /// against the round it names and applied at round finalization, so the
    /// acknowledgement is immediate — no epoch wait.
    pub(crate) fn round_checkin(&self, req: CheckinRequest) -> Message {
        let GradientPayload::Masked { words } = req.gradient else {
            return error_reply(ErrorCode::Internal, "round_checkin on an unmasked gradient");
        };
        if req.round_id == 0 {
            return error_reply(
                ErrorCode::BadRequest,
                "a masked checkin must name the round it contributes to",
            );
        }
        let submission = PendingSubmission {
            device_id: req.device_id,
            nonce: req.nonce,
            checkout_iteration: req.checkout_iteration,
            words,
            num_samples: req.num_samples,
            error_count: req.error_count,
            label_counts: req.label_counts,
        };
        match self.runtime.submit_round(req.round_id, submission) {
            Ok(RoundSubmitOutcome::Acked(outcome)) => Message::CheckinAck(CheckinAck {
                accepted: outcome.accepted,
                iteration: outcome.iteration,
                stopped: outcome.stopped,
                deduped: outcome.deduped,
            }),
            Ok(RoundSubmitOutcome::Outdated { current_round }) => {
                round_outdated_reply(current_round)
            }
            Err(e) => agg_error_reply(e),
        }
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
/// * Checkouts (and malformed traffic) answer inline — they only clone the
///   epoch snapshot.
/// * Checkins are admitted to the ingest queue here; the wait for the applied
///   epoch becomes a [`Response::Pending`] closure on the completion pump.
/// * A full queue becomes [`Response::Throttle`]: the payload is parked (the
///   decoded request is handed back by the runtime) and re-admission is
///   probed by the reactor while the connection's reads stay disarmed. The
///   device never sees a Busy reply on this path — it sees a quiet socket.
/// * Batch checkins block on their epochs, so they run wholesale on the pump.
pub(crate) fn handle_event(core: &Arc<ServerCore>, message: Message) -> Response {
    match message {
        Message::CheckinRequest(req) => {
            // `req_checkin_us` runs from here to the reply, wherever that is
            // built: inline for a refusal, on the pump for an ack.
            let start = core.metrics.start();
            let refusal = |reply| Response::Now(checkin_reply(core, start, reply));
            if !core.tokens.verify(req.device_id, &req.token) {
                return refusal(error_reply(
                    ErrorCode::Unauthorized,
                    "unknown device or bad token",
                ));
            }
            note_gradient_encoding(&core.metrics, &req.gradient);
            if matches!(req.gradient, GradientPayload::Masked { .. }) {
                // A round submission locks the aggregation core synchronously
                // (and may finalize an epoch when it completes the cohort), so
                // it runs on the completion pump, never the event loop.
                let core = Arc::clone(core);
                return Response::Pending(Box::new(move || {
                    let reply = core.round_checkin(req);
                    checkin_reply(&core, start, reply)
                }));
            }
            if let Some(reply) = core.stale_round_reply(req.round_id) {
                return refusal(reply);
            }
            let payload = match payload_of(req) {
                Ok(p) => p,
                Err(reply) => return refusal(*reply),
            };
            submit_event(core, payload, start)
        }
        Message::BatchCheckinRequest(_) => {
            let core = Arc::clone(core);
            Response::Pending(Box::new(move || core.handle_message(message)))
        }
        other => Response::Now(core.handle_message(other)),
    }
}

/// Closes a reactor checkin's `req_checkin_us` measurement as its reply is
/// built.
fn checkin_reply(core: &ServerCore, start: Tick, reply: Message) -> Message {
    core.metrics.observe_since(HistogramId::ReqCheckinUs, start);
    reply
}

/// Turns a completion handle into a pump-side reply closure.
fn pending_ack(core: &Arc<ServerCore>, handle: CompletionHandle, start: Tick) -> Response {
    let core = Arc::clone(core);
    Response::Pending(Box::new(move || {
        let reply = match wait_ack(handle) {
            Ok(ack) => Message::CheckinAck(ack),
            Err(reply) => *reply,
        };
        checkin_reply(&core, start, reply)
    }))
}

fn submit_event(core: &Arc<ServerCore>, payload: CheckinPayload, start: Tick) -> Response {
    let refusal =
        move |core: &ServerCore, e| Response::Now(checkin_reply(core, start, agg_error_reply(e)));
    match core.runtime.submit_or_return(payload) {
        Ok(handle) => pending_ack(core, handle, start),
        Err(SubmitRejection::Busy {
            payload,
            retry_after_ms,
        }) => {
            // Backpressure: park the decoded payload and let the reactor
            // probe re-admission. The dedup reservation was released by
            // `submit_or_return`, so each probe is admitted fresh.
            let core = Arc::clone(core);
            let mut parked = Some(payload);
            Response::Throttle {
                retry_after_ms,
                retry: Box::new(move || {
                    let payload = parked.take()?;
                    match core.runtime.submit_or_return(payload) {
                        Ok(handle) => Some(pending_ack(&core, handle, start)),
                        Err(SubmitRejection::Busy { payload, .. }) => {
                            parked = Some(payload);
                            None
                        }
                        Err(SubmitRejection::Refused(e)) => Some(refusal(&core, e)),
                    }
                }),
            }
        }
        Err(SubmitRejection::Refused(e)) => refusal(core, e),
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
/// gradient — a sparse upload stays sparse all the way to the shard
/// accumulators. Re-validation of the sparse structure (the codec already
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
            // `ServerCore::round_checkin` before building a free-run payload.
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

pub(crate) fn wait_ack(handle: CompletionHandle) -> std::result::Result<CheckinAck, Box<Message>> {
    match handle.wait_timeout(CHECKIN_WAIT) {
        Ok(outcome) => Ok(CheckinAck {
            accepted: outcome.accepted,
            iteration: outcome.iteration,
            stopped: outcome.stopped,
            deduped: outcome.deduped,
        }),
        Err(e) => Err(Box::new(agg_error_reply(e))),
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
        AggError::Core(e) => error_reply(ErrorCode::Internal, e.to_string()),
        AggError::Store(e) => error_reply(ErrorCode::Internal, e.to_string()),
    }
}

/// Collapses a refusal reply into a per-item batch acknowledgement.
pub(crate) fn rejected_ack(reply: &Message) -> BatchAck {
    let reject = match reply {
        Message::Busy(_) => ErrorCode::Busy,
        Message::Error(e) => e.code,
        _ => ErrorCode::Internal,
    };
    BatchAck {
        accepted: false,
        iteration: 0,
        stopped: false,
        deduped: false,
        reject: Some(reject),
    }
}

/// Folds any per-item reply into a batch acknowledgement: a checkin ack (a
/// synchronously resolved round submission) positionally as-is, a refusal via
/// [`rejected_ack`].
pub(crate) fn batch_ack_of(reply: &Message) -> BatchAck {
    match reply {
        Message::CheckinAck(ack) => BatchAck {
            accepted: ack.accepted,
            iteration: ack.iteration,
            stopped: ack.stopped,
            deduped: ack.deduped,
            reject: None,
        },
        _ => rejected_ack(reply),
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
