//! Device-side TCP client running Device Routines 1–3 against a remote server.

use crate::error::NetError;
use crate::fault::{FaultAction, TransportFaults};
use crate::Result;
use crowd_core::device::CheckinPayload;
use crowd_linalg::{GradientUpdate, Vector};
use crowd_proto::frame::{read_message_pooled, write_message_pooled, DEFAULT_MAX_FRAME};
use crowd_proto::message::{
    CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, GradientPayload, Message,
    MetricsReport, MetricsRequest, RoundParams,
};
use crowd_proto::{AuthToken, BufPool, PROTOCOL_VERSION};
use crowd_rounds::Role;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bounded retry-with-backoff policy for "server busy" backpressure replies.
///
/// The aggregation runtime sheds load by rejecting checkins when its ingest
/// queue is full; those rejections are transient by design, so the client
/// retries them transparently with exponential backoff, preferring the server's
/// own retry-after hint over the local schedule when one is provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry k (1-based) is `base_backoff · 2^(k-1)`, capped.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// Default policy: 5 attempts, 1 ms base backoff, 50 ms cap.
    pub fn new() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }

    /// The sleep before retry attempt `attempt` (0-based count of failures so
    /// far), honoring the server's retry-after hint when present.
    fn backoff(&self, attempt: u32, hint_ms: u32) -> Duration {
        let scheduled = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        scheduled.max(Duration::from_millis(hint_ms as u64))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

/// Maps a device's gradient representation onto the wire encoding without
/// densifying or copying: a sparse update ships only its stored coordinates,
/// and a quantized update ships its `i16` levels plus the shared scale. The
/// vectors move into the message.
fn wire_gradient(gradient: GradientUpdate) -> GradientPayload {
    match gradient {
        GradientUpdate::Dense(v) => GradientPayload::Dense(v.into_vec()),
        GradientUpdate::Sparse(s) => {
            let (dim, indices, values) = s.into_parts();
            GradientPayload::Sparse {
                dim: dim as u32,
                indices,
                values,
            }
        }
        GradientUpdate::Quantized(q) => {
            let (scale, levels) = q.into_parts();
            GradientPayload::Quantized { scale, levels }
        }
    }
}

/// A device's view of a checkout: the parameters and the server iteration they
/// were read at.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedOutParams {
    /// Server iteration at checkout time.
    pub iteration: u64,
    /// The parameter vector.
    pub params: Vector,
    /// Whether the server reports the task as stopped.
    pub stopped: bool,
    /// The server's current round parameters, when it runs the round-based
    /// cohort protocol (wire v6); `None` on a free-running server.
    pub round: Option<RoundParams>,
}

/// Typed result of one checkin, replacing the old `(accepted, stopped)` pair.
///
/// Budget exhaustion and round staleness arrive on the wire as error replies
/// but are *protocol states*, not failures: they surface as variants here so
/// a caller matches once instead of inspecting error codes. Transport
/// failures and genuine server errors still arrive as `Err`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinOutcome {
    /// The gradient was applied; the server has advanced to `iteration`.
    Applied {
        /// Server iteration after applying this checkin.
        iteration: u64,
    },
    /// A dedup replay: an earlier attempt of this nonce was already applied
    /// (and ε-charged), so nothing happened twice.
    Deduped,
    /// The task's stopping criterion is met and the device should stop
    /// collecting; `applied` reports whether this checkin still made it in.
    Stopped {
        /// Whether the gradient was applied before the stop was observed.
        applied: bool,
    },
    /// The device's privacy budget is spent; it should end participation.
    BudgetExhausted,
    /// The round this checkin named closed while the device was computing.
    /// Non-fatal: refetch the round parameters (the server's current round is
    /// included here), re-derive the role, and resubmit against the new round.
    RoundOutdated {
        /// The server's current round id.
        current_round: u64,
    },
}

impl CheckinOutcome {
    /// Whether this checkin's gradient was (or had already been) applied.
    pub fn applied(&self) -> bool {
        matches!(
            self,
            CheckinOutcome::Applied { .. }
                | CheckinOutcome::Deduped
                | CheckinOutcome::Stopped { applied: true }
        )
    }

    /// Whether the server reported the task's stopping criterion as met.
    pub fn task_stopped(&self) -> bool {
        matches!(self, CheckinOutcome::Stopped { .. })
    }
}

impl From<CheckinAck> for CheckinOutcome {
    fn from(ack: CheckinAck) -> Self {
        if ack.deduped {
            CheckinOutcome::Deduped
        } else if ack.stopped {
            CheckinOutcome::Stopped {
                applied: ack.accepted,
            }
        } else if ack.accepted {
            CheckinOutcome::Applied {
                iteration: ack.iteration,
            }
        } else {
            // The server only withholds `accepted` once the task stopped;
            // map the combination defensively rather than invent a variant.
            CheckinOutcome::Stopped { applied: false }
        }
    }
}

/// Folds a checkin reply into the typed outcome: budget exhaustion and round
/// staleness become `Ok` protocol states, everything else an error.
fn checkin_outcome(reply: Message) -> Result<CheckinOutcome> {
    match reply {
        Message::CheckinAck(ack) => Ok(ack.into()),
        Message::Error(e) => match e.code {
            ErrorCode::BudgetExhausted => Ok(CheckinOutcome::BudgetExhausted),
            ErrorCode::RoundOutdated => Ok(CheckinOutcome::RoundOutdated {
                current_round: e.round_id,
            }),
            _ => Err(NetError::ServerError {
                code: e.code,
                detail: e.detail,
            }),
        },
        other => Err(NetError::UnexpectedMessage {
            expected: "checkin_ack",
            received: other.name(),
        }),
    }
}

/// A TCP client for one device.
#[derive(Debug, Clone)]
pub struct DeviceClient {
    addr: SocketAddr,
    device_id: u64,
    token: AuthToken,
    retry: RetryPolicy,
    /// Reused frame buffers (shared across clones, e.g. a gateway's workers).
    pool: Arc<BufPool>,
    /// Optional seeded transport-fault shim (chaos testing): decides per wire
    /// exchange whether the frame is dropped, delayed, duplicated, or
    /// truncated. `None` = a faithful transport.
    faults: Option<Arc<TransportFaults>>,
    /// Monotonic wire-exchange counter feeding the fault shim (shared across
    /// clones and [`DeviceClient::with_addr`] reconnects, so the fault
    /// schedule continues instead of restarting).
    ops: Arc<AtomicU64>,
}

/// A transport failure injected by the chaos shim (or suffered for real);
/// indistinguishable from a genuine socket error by design.
fn chaos_io_error(detail: &str) -> NetError {
    NetError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionReset,
        format!("chaos: {detail}"),
    ))
}

/// `true` for failures worth retrying on an idempotent request: the socket
/// died somewhere between connect and reply, so the server may or may not
/// have processed the request.
fn is_transient_transport(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Io(_) | NetError::Proto(crowd_proto::ProtoError::Io(_))
    )
}

/// The single construction path for [`DeviceClient`]: the address, identity,
/// and token are mandatory, everything else layers on before [`build`]
/// (replacing the old `new` / `with_retry` / `with_transport_faults`
/// special-case constructors).
///
/// [`build`]: DeviceClientBuilder::build
#[derive(Debug, Clone)]
pub struct DeviceClientBuilder {
    addr: SocketAddr,
    device_id: u64,
    token: AuthToken,
    retry: RetryPolicy,
    faults: Option<Arc<TransportFaults>>,
}

impl DeviceClientBuilder {
    /// Replaces the default busy-retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a seeded transport-fault shim: every wire exchange consults it
    /// and may be dropped, delayed, duplicated, or truncated. The client's
    /// retry and dedup machinery must absorb whatever it injects.
    pub fn transport_faults(mut self, faults: Arc<TransportFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builds the client.
    pub fn build(self) -> DeviceClient {
        DeviceClient {
            addr: self.addr,
            device_id: self.device_id,
            token: self.token,
            retry: self.retry,
            pool: Arc::new(BufPool::default()),
            faults: self.faults,
            ops: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl DeviceClient {
    /// Starts building a client for `device_id` talking to the server at
    /// `addr`, with the default busy-retry policy and a faithful transport.
    pub fn builder(addr: SocketAddr, device_id: u64, token: AuthToken) -> DeviceClientBuilder {
        DeviceClientBuilder {
            addr,
            device_id,
            token,
            retry: RetryPolicy::new(),
            faults: None,
        }
    }

    /// Re-targets the client at a new address (a restarted server on a fresh
    /// ephemeral port), keeping the fault-shim schedule and buffer pool.
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// The device id this client authenticates as.
    pub fn device_id(&self) -> u64 {
        self.device_id
    }

    fn exchange_once(&self, request: &Message) -> Result<Message> {
        let action = match &self.faults {
            Some(faults) => faults.decide(self.device_id, self.ops.fetch_add(1, Ordering::Relaxed)),
            None => FaultAction::None,
        };
        self.exchange_once_with(request, action)
    }

    /// One wire exchange under an explicit fault decision.
    fn exchange_once_with(&self, request: &Message, action: FaultAction) -> Result<Message> {
        if let FaultAction::DelaySend { ms } = action {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if action == FaultAction::DropBeforeSend {
            // The server never sees the request: safe to retry blindly.
            return Err(chaos_io_error("connection dropped before send"));
        }
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        match action {
            FaultAction::TruncateFrame => {
                // Transmit a strict prefix of the frame and hang up: the
                // server must discard the partial frame, the client must treat
                // the upload as unconfirmed. The frame bytes come from the
                // canonical framing layer (written into a Vec), so the fault
                // always truncates a genuine frame, whatever the layout.
                use std::io::Write;
                let mut frame = Vec::new();
                crowd_proto::frame::write_message(&mut frame, request)?;
                frame.truncate((frame.len() / 2).max(1));
                stream.write_all(&frame)?;
                stream.flush().ok();
                drop(stream);
                Err(chaos_io_error("connection dropped mid-frame"))
            }
            FaultAction::DuplicateFrame => {
                // The same frame arrives twice on one connection; the reply to
                // the first copy is the authoritative one, the second is
                // drained (a deduplicating server replays or rejects it).
                write_message_pooled(&mut stream, request, &self.pool)?;
                write_message_pooled(&mut stream, request, &self.pool)?;
                let first = read_message_pooled(&mut stream, &self.pool, DEFAULT_MAX_FRAME)?;
                let _ = read_message_pooled(&mut stream, &self.pool, DEFAULT_MAX_FRAME);
                Ok(first)
            }
            FaultAction::DropAfterSend => {
                // The full request reaches the wire — the server WILL process
                // it — but the connection dies before the reply. Only the
                // dedup nonce lets a retry of this checkin stay idempotent.
                write_message_pooled(&mut stream, request, &self.pool)?;
                drop(stream);
                Err(chaos_io_error("connection dropped after send"))
            }
            _ => {
                write_message_pooled(&mut stream, request, &self.pool)?;
                Ok(read_message_pooled(
                    &mut stream,
                    &self.pool,
                    DEFAULT_MAX_FRAME,
                )?)
            }
        }
    }

    /// One request/reply exchange, transparently retrying "server busy"
    /// backpressure replies (either a dedicated `Busy` message or an
    /// `ErrorReply` with the retryable [`ErrorCode::Busy`]) with backoff.
    ///
    /// [`ErrorCode::Busy`]: crowd_proto::message::ErrorCode::Busy
    fn exchange(&self, request: &Message) -> Result<Message> {
        self.exchange_policy(request, false)
    }

    /// Like [`DeviceClient::exchange`], but additionally retries transient
    /// transport failures. Only safe for idempotent requests: checkouts
    /// (reads) and checkins carrying a dedup nonce (the server replays the
    /// original ack if the first attempt was actually applied).
    fn exchange_idempotent(&self, request: &Message) -> Result<Message> {
        self.exchange_policy(request, true)
    }

    fn exchange_policy(&self, request: &Message, retry_transport: bool) -> Result<Message> {
        let mut failures = 0u32;
        loop {
            let reply = match self.exchange_once(request) {
                Ok(reply) => reply,
                Err(e) if retry_transport && is_transient_transport(&e) => {
                    // The request may or may not have been applied server-side;
                    // idempotence (checkout = read, checkin = dedup nonce)
                    // makes the blind retry safe.
                    failures += 1;
                    if failures >= self.retry.max_attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.backoff(failures - 1, 0));
                    continue;
                }
                Err(e) => return Err(e),
            };
            let hint_ms = match &reply {
                Message::Busy(b) => b.retry_after_ms,
                Message::Error(e) if e.code.is_retryable() => 0,
                _ => return Ok(reply),
            };
            failures += 1;
            if failures >= self.retry.max_attempts {
                return Err(NetError::ServerError {
                    code: crowd_proto::message::ErrorCode::Busy,
                    detail: format!("server still busy after {failures} attempts"),
                });
            }
            std::thread::sleep(self.retry.backoff(failures - 1, hint_ms));
        }
    }

    /// Checks out the current parameters from the server (Fig. 2, steps 2–3).
    /// A checkout is a read, hence idempotent: transient transport failures
    /// are retried under the client's policy.
    pub fn checkout(&self) -> Result<CheckedOutParams> {
        let reply = self.exchange_idempotent(&Message::CheckoutRequest(CheckoutRequest {
            version: PROTOCOL_VERSION,
            device_id: self.device_id,
            token: self.token,
        }))?;
        match reply {
            Message::CheckoutResponse(r) => Ok(CheckedOutParams {
                iteration: r.iteration,
                params: Vector::from_vec(r.params),
                stopped: r.stopped,
                round: r.round,
            }),
            Message::Error(e) => Err(NetError::ServerError {
                code: e.code,
                detail: e.detail,
            }),
            other => Err(NetError::UnexpectedMessage {
                expected: "checkout_response",
                received: other.name(),
            }),
        }
    }

    /// Scrapes the server's metric registry over the wire (the `crowd-scope`
    /// observability surface, wire v4). A scrape is a read authenticated
    /// exactly like a checkout, hence idempotent: transient transport
    /// failures are retried under the client's policy.
    pub fn scrape_metrics(&self) -> Result<MetricsReport> {
        let reply = self.exchange_idempotent(&Message::MetricsRequest(MetricsRequest {
            version: PROTOCOL_VERSION,
            device_id: self.device_id,
            token: self.token,
        }))?;
        match reply {
            Message::MetricsReport(report) => Ok(report),
            Message::Error(e) => Err(NetError::ServerError {
                code: e.code,
                detail: e.detail,
            }),
            other => Err(NetError::UnexpectedMessage {
                expected: "metrics_report",
                received: other.name(),
            }),
        }
    }

    /// Checks in a sanitized payload (Fig. 2, steps 4–5) as an ordinary
    /// free-running (round-untagged) checkin, returning the typed
    /// [`CheckinOutcome`].
    ///
    /// A payload carrying a dedup nonce is retried through transient transport
    /// failures: even if an earlier attempt was applied server-side, the
    /// server recognizes the nonce and replays the original acknowledgement
    /// instead of applying the gradient (and charging the ε ledger) twice.
    /// Nonce-less payloads keep the conservative behaviour — a transport
    /// failure is reported to the caller, because a blind retry could
    /// double-apply.
    ///
    /// The payload's vectors move into the request, which every retry
    /// re-sends as it is.
    pub fn checkin(&self, payload: CheckinPayload) -> Result<CheckinOutcome> {
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: self.device_id,
            token: self.token,
            checkout_iteration: payload.checkout_iteration,
            nonce: payload.nonce,
            round_id: 0,
            gradient: wire_gradient(payload.gradient),
            num_samples: payload.num_samples as u32,
            error_count: payload.error_count,
            label_counts: payload.label_counts,
        });
        let reply = if payload.nonce != 0 {
            self.exchange_idempotent(&request)?
        } else {
            self.exchange(&request)?
        };
        checkin_outcome(reply)
    }

    /// Joins the server's current round (wire v6): one checkout both reads
    /// the model parameters and the published [`RoundParams`], from which the
    /// device derives its [`Role`] and cohort — no extra coordination
    /// messages. Errors with [`NetError::Round`] when the server runs free.
    pub fn join_round(&self) -> Result<RoundSession> {
        let checked_out = self.checkout()?;
        let round = checked_out
            .round
            .ok_or(NetError::Round("the server is not running rounds"))?;
        let cohort = crowd_rounds::cohort(round.seed, round.population, round.select_fraction);
        let role = if cohort.binary_search(&self.device_id).is_ok() {
            Role::Selected
        } else {
            Role::Unselected
        };
        Ok(RoundSession {
            client: self.clone(),
            round,
            checked_out,
            role,
            cohort,
        })
    }
}

/// A device's typed view of one aggregation round (wire v6), produced by
/// [`DeviceClient::join_round`].
///
/// The session snapshots the checkout (model parameters + round parameters)
/// and the role derived from the round seed. A `Selected` device submits
/// exactly one masked contribution via [`RoundSession::submit`]; an
/// `Unselected` one free-runs ordinary [`DeviceClient::checkin`]s until the
/// next round. When a submit comes back [`CheckinOutcome::RoundOutdated`],
/// the round closed mid-computation — [`RoundSession::resync`] joins the
/// current one (non-fatal by design).
#[derive(Debug, Clone)]
pub struct RoundSession {
    client: DeviceClient,
    round: RoundParams,
    checked_out: CheckedOutParams,
    role: Role,
    /// Ascending cohort ids, derived from the round seed like every party
    /// derives them.
    cohort: Vec<u64>,
}

impl RoundSession {
    /// This device's role in the joined round.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The joined round's id.
    pub fn round_id(&self) -> u64 {
        self.round.round_id
    }

    /// The round parameters as published by the server.
    pub fn round(&self) -> RoundParams {
        self.round
    }

    /// The checkout this session was created from (model parameters).
    pub fn checked_out(&self) -> &CheckedOutParams {
        &self.checked_out
    }

    /// The round's cohort (ascending device ids).
    pub fn cohort(&self) -> &[u64] {
        &self.cohort
    }

    /// Submits this round's masked contribution (`Selected` role only): each
    /// coordinate of the payload gradient (densified first if sparse or
    /// quantized) gets the device's seed-derived pairwise net mask added to
    /// its IEEE-754 bits (wrapping), so the raw gradient never crosses the
    /// wire and the masks cancel exactly in the finalized cohort sum. Retried
    /// through transport faults when the payload carries a dedup nonce, like
    /// [`DeviceClient::checkin`].
    pub fn submit(&self, payload: &CheckinPayload) -> Result<CheckinOutcome> {
        if self.role != Role::Selected {
            return Err(NetError::Round("only a selected device submits to a round"));
        }
        let densified;
        let dense = match &payload.gradient {
            GradientUpdate::Dense(v) => v.as_slice(),
            sparse_or_quantized => {
                densified = sparse_or_quantized.to_dense();
                densified.as_slice()
            }
        };
        let mask_words = crowd_rounds::net_mask(
            self.round.seed,
            self.client.device_id,
            &self.cohort,
            dense.len(),
        );
        let words = crowd_rounds::mask(dense, &mask_words);
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: self.client.device_id,
            token: self.client.token,
            checkout_iteration: payload.checkout_iteration,
            nonce: payload.nonce,
            round_id: self.round.round_id,
            gradient: GradientPayload::Masked { words },
            num_samples: payload.num_samples as u32,
            error_count: payload.error_count,
            label_counts: payload.label_counts.clone(),
        });
        let reply = if payload.nonce != 0 {
            self.client.exchange_idempotent(&request)?
        } else {
            self.client.exchange(&request)?
        };
        checkin_outcome(reply)
    }

    /// Rejoins the server's *current* round after a
    /// [`CheckinOutcome::RoundOutdated`]: one fresh checkout, a newly derived
    /// role.
    pub fn resync(&self) -> Result<RoundSession> {
        self.client.join_round()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test deadlines bound waits on a live server; no checked value depends on them"
)]
mod tests {
    use super::*;
    use crate::reactor_server::ReactorServer;
    use crowd_core::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;
    use crowd_proto::auth::TokenRegistry;

    #[test]
    fn checkout_and_checkin_against_live_server() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(2, 5);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let client = DeviceClient::builder(handle.addr(), 1, AuthToken::derive(1, 5)).build();
        assert_eq!(client.device_id(), 1);

        let checked_out = client.checkout().unwrap();
        assert_eq!(checked_out.iteration, 0);
        assert_eq!(checked_out.params.len(), 6);
        // A free-running server publishes no round parameters.
        assert_eq!(checked_out.round, None);

        let payload = crowd_core::device::CheckinPayload {
            device_id: 1,
            checkout_iteration: 0,
            nonce: 0,
            gradient: Vector::from_vec(vec![0.1; 6]).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let outcome = client.checkin(payload).unwrap();
        assert_eq!(outcome, CheckinOutcome::Applied { iteration: 1 });
        assert!(outcome.applied());
        assert!(!outcome.task_stopped());
        assert_eq!(handle.iteration(), 1);
        handle.shutdown();
    }

    #[test]
    fn retry_policy_backoff_honors_hint_and_cap() {
        let policy = RetryPolicy::new();
        // Scheduled backoff doubles from the base and saturates at the cap.
        assert_eq!(policy.backoff(0, 0), Duration::from_millis(1));
        assert_eq!(policy.backoff(3, 0), Duration::from_millis(8));
        assert_eq!(policy.backoff(16, 0), Duration::from_millis(50));
        // A larger server hint wins over the local schedule.
        assert_eq!(policy.backoff(0, 30), Duration::from_millis(30));
    }

    /// Regression (chaos satellite): an I/O failure on a checkin whose request
    /// DID reach the server used to be fatal for the minibatch — the client
    /// could not safely retry because a blind resend would double-apply. With
    /// the dedup nonce the retry is idempotent: the server recognizes the
    /// nonce, replays the original ack, and applies (and ε-charges) exactly
    /// once.
    #[test]
    fn retried_checkin_after_send_failure_applies_exactly_once() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(2, 5);
        let config = ServerConfig::new().with_budget(0.25, f64::INFINITY);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let client = DeviceClient::builder(handle.addr(), 1, AuthToken::derive(1, 5)).build();
        let payload = crowd_core::device::CheckinPayload {
            device_id: 1,
            checkout_iteration: 0,
            nonce: 42,
            gradient: Vector::from_vec(vec![0.1; 6]).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: 1,
            token: AuthToken::derive(1, 5),
            checkout_iteration: 0,
            nonce: payload.nonce,
            round_id: 0,
            gradient: wire_gradient(payload.gradient.clone()),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        });
        // The connection dies right after the full frame was sent: the server
        // processes the checkin, the client sees only an I/O error.
        let err = client
            .exchange_once_with(&request, FaultAction::DropAfterSend)
            .unwrap_err();
        assert!(is_transient_transport(&err));
        // Wait for the server to absorb the orphaned frame.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.iteration() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "server never applied the orphaned checkin"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The retry (same nonce) resolves as a dedup replay — recognized,
        // counted as applied, and NOT applied a second time.
        let outcome = client.checkin(payload).unwrap();
        assert_eq!(outcome, CheckinOutcome::Deduped);
        assert!(outcome.applied());
        assert_eq!(handle.iteration(), 1, "duplicate applied twice");
        assert_eq!(handle.total_samples(), 2);
        // Charged once, not twice.
        assert_eq!(handle.budget_ledger(), vec![(1, 0.25)]);
        assert!(handle.runtime_stats().get("dedup_replays") >= 1);
        handle.shutdown();
    }

    #[test]
    fn transport_faults_are_absorbed_by_idempotent_retries() {
        // Every scripted fault kind, in sequence, against a live server: the
        // client's retry + the server's dedup must deliver exactly-once
        // semantics for all of them.
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(2, 5);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let client = DeviceClient::builder(handle.addr(), 1, AuthToken::derive(1, 5)).build();
        let actions = [
            FaultAction::DropBeforeSend,
            FaultAction::TruncateFrame,
            FaultAction::DropAfterSend,
        ];
        for (i, &action) in actions.iter().enumerate() {
            let nonce = 100 + i as u64;
            let request = Message::CheckinRequest(CheckinRequest {
                device_id: 1,
                token: AuthToken::derive(1, 5),
                checkout_iteration: 0,
                nonce,
                round_id: 0,
                gradient: GradientPayload::Dense(vec![0.1; 6]),
                num_samples: 1,
                error_count: 0,
                label_counts: vec![1, 0],
            });
            assert!(client.exchange_once_with(&request, action).is_err());
            // Retry until the ack arrives (an in-flight original replies Busy
            // for a moment; the exchange layer absorbs that).
            let reply = client.exchange_idempotent(&request).unwrap();
            assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        }
        // A duplicated frame resolves to one application as well.
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: 1,
            token: AuthToken::derive(1, 5),
            checkout_iteration: 0,
            nonce: 200,
            round_id: 0,
            gradient: GradientPayload::Dense(vec![0.1; 6]),
            num_samples: 1,
            error_count: 0,
            label_counts: vec![1, 0],
        });
        let reply = client
            .exchange_once_with(&request, FaultAction::DuplicateFrame)
            .unwrap();
        assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        // 3 faulted-then-retried + 1 duplicated = exactly 4 applications
        // (DropBeforeSend and TruncateFrame never reached the server, their
        // retries were the only copies; DropAfterSend applied once and its
        // retry was replayed).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.iteration() < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(handle.iteration(), 4);
        assert_eq!(handle.total_samples(), 4);
        handle.shutdown();
    }

    #[test]
    fn unauthorized_client_gets_server_error() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(1, 5);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let bad = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 999)).build();
        match bad.checkout() {
            Err(NetError::ServerError { .. }) => {}
            other => panic!("expected ServerError, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn round_session_masks_submissions_and_resyncs_when_stale() {
        use crowd_core::config::RoundSettings;
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let config = ServerConfig::new().with_rounds(
            RoundSettings::new(2)
                .with_select_fraction(1.0)
                .with_deadline_epochs(100),
        );
        let tokens = TokenRegistry::with_derived_tokens(2, 5);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let clients: Vec<DeviceClient> = (0..2)
            .map(|d| DeviceClient::builder(handle.addr(), d, AuthToken::derive(d, 5)).build())
            .collect();

        let sessions: Vec<RoundSession> = clients.iter().map(|c| c.join_round().unwrap()).collect();
        assert!(sessions
            .iter()
            .all(|s| s.round_id() == 1 && s.role() == Role::Selected));
        assert_eq!(sessions[0].cohort(), &[0, 1]);

        let payload = |d: u64| crowd_core::device::CheckinPayload {
            device_id: d,
            checkout_iteration: 0,
            nonce: 900 + d,
            gradient: Vector::from_vec(vec![0.5 - d as f64, 0.25, -0.125, 1.0, 0.0, -2.0]).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        };
        // The first submission is held pending (acked, nothing applied yet).
        let first = sessions[0].submit(&payload(0)).unwrap();
        assert_eq!(first, CheckinOutcome::Applied { iteration: 0 });
        assert_eq!(handle.iteration(), 0);
        // The cohort's last submission completes the round: the masks cancel
        // and the finalized sum applies as one epoch.
        let second = sessions[1].submit(&payload(1)).unwrap();
        assert_eq!(second, CheckinOutcome::Applied { iteration: 0 });
        assert_eq!(handle.iteration(), 1);
        // A retry of a settled submission (same nonce) replays, not re-applies.
        assert_eq!(
            sessions[1].submit(&payload(1)).unwrap(),
            CheckinOutcome::Deduped
        );
        assert_eq!(handle.iteration(), 1);
        // A *fresh* submission against the closed round is outdated — the
        // reply names the current round and `resync` rejoins it.
        let mut stale = payload(0);
        stale.nonce = 777;
        assert_eq!(
            sessions[0].submit(&stale).unwrap(),
            CheckinOutcome::RoundOutdated { current_round: 2 }
        );
        let resynced = sessions[0].resync().unwrap();
        assert_eq!(resynced.round_id(), 2);
        assert_eq!(resynced.checked_out().iteration, 1);
        handle.shutdown();
    }

    #[test]
    fn join_round_on_a_free_running_server_is_a_protocol_error() {
        let model = MulticlassLogistic::new(3, 2).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(1, 5);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let client = DeviceClient::builder(handle.addr(), 0, AuthToken::derive(0, 5)).build();
        match client.join_round() {
            Err(NetError::Round(_)) => {}
            other => panic!("expected NetError::Round, got {other:?}"),
        }
        handle.shutdown();
    }
}
