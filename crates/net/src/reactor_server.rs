//! The Crowd-ML TCP server: Server Routines 1–2 for the whole crowd, on the
//! `crowd-reactor` core.
//!
//! One event-loop thread multiplexes every connection through nonblocking
//! sockets and resumable frame state machines; request handling lives in
//! `crate::service`. What that buys at 10k devices:
//!
//! * **Thread count is O(1), not O(connections).** An idle or slow device
//!   costs a slab slot and a parked socket, not a stack.
//! * **Backpressure is read throttling, not Busy spam.** When the ingest
//!   queue is full, the connection is parked and not read; TCP
//!   flow control pushes back to the device, and the parked gradient is
//!   re-admitted as soon as the queue drains — the device never re-uploads.
//! * **Nothing waits for an ack.** A checkin — free-run or a masked round
//!   submission — is run by the event loop that decoded it, or, if the
//!   aggregation runtime's core lock is taken, by the lock's holder. The
//!   thread that settles it — on a durable server the runtime's `crowd-agg`
//!   thread, after its `fsync` — posts the reply straight to the event
//!   loop. The reactor runs no other thread.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::service::{handle_event, ServerCore};
use crate::Result;
use crowd_agg::{AggError, AggRuntime};
use crowd_core::config::ServerConfig;
use crowd_core::server::Server;
use crowd_learning::MulticlassLogistic;
use crowd_linalg::Vector;
use crowd_proto::auth::TokenRegistry;
use crowd_reactor::{Ctx, Reactor, ReactorStats};
use crowd_store::{RecoveryReport, Store};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Upper bound on graceful-shutdown drain: 1 ms polls until every in-flight
/// checkin has been acked and every queued reply flushed.
const DRAIN_POLLS: usize = 10_000;

/// The event-driven Crowd-ML TCP server.
pub struct ReactorServer;

/// Builds the aggregation runtime `config` describes: through the recovery
/// path when `config.persist` names a data directory, volatile otherwise.
pub(crate) fn build_runtime(
    model: MulticlassLogistic,
    config: ServerConfig,
) -> Result<(AggRuntime<MulticlassLogistic>, Option<RecoveryReport>)> {
    if config.persist.is_enabled() {
        let (store, server, report) = Store::open(model, config).map_err(AggError::from)?;
        Ok((AggRuntime::with_store(server, Some(store))?, Some(report)))
    } else {
        Ok((AggRuntime::new(Server::new(model, config)?)?, None))
    }
}

impl ReactorServer {
    /// Starts a server on `127.0.0.1` (ephemeral port) for the given model,
    /// configuration, and device-token registry. The aggregation runtime is
    /// configured by `config.agg`.
    ///
    /// When `config.persist` names a data directory, the server binds through
    /// the recovery path: the latest snapshot is loaded, the WAL tail replayed
    /// (bitwise-identical state, including the per-device ε ledger), and every
    /// applied epoch is WAL-logged before its checkins are acked; see
    /// [`ReactorServerHandle::recovery_report`].
    pub fn start(
        model: MulticlassLogistic,
        config: ServerConfig,
        tokens: TokenRegistry,
    ) -> Result<ReactorServerHandle> {
        let (runtime, recovery) = build_runtime(model, config)?;
        let core = Arc::new(ServerCore::new(runtime, tokens));
        let service_core = Arc::clone(&core);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let reactor = Reactor::start(
            listener,
            Arc::new(move |message, ctx: &Ctx<'_>| handle_event(&service_core, message, ctx)),
            Arc::clone(&core.pool),
            Arc::clone(&core.metrics),
        )?;
        Ok(ReactorServerHandle {
            addr,
            core,
            reactor: Some(reactor),
            recovery,
        })
    }
}

/// A handle to a running server: address, shared state, and the reactor.
pub struct ReactorServerHandle {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    reactor: Option<Reactor>,
    recovery: Option<RecoveryReport>,
}

impl ReactorServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server iteration (number of applied epochs).
    pub fn iteration(&self) -> u64 {
        self.core.runtime.iteration()
    }

    /// A copy of the current parameters.
    pub fn params(&self) -> Vector {
        self.core.runtime.params()
    }

    /// Whether the stopping criterion has been met.
    pub fn stopped(&self) -> bool {
        self.core.runtime.stopped()
    }

    /// The total number of samples reported by devices.
    pub fn total_samples(&self) -> u64 {
        self.core.runtime.total_samples()
    }

    /// The privately estimated error rate (Eq. 14), if any samples were reported.
    pub fn error_estimate(&self) -> Option<f64> {
        self.core.runtime.error_estimate()
    }

    /// A snapshot of the aggregation-runtime counters.
    pub fn runtime_stats(&self) -> crowd_telemetry::MetricsSnapshot {
        self.core.runtime.stats()
    }

    /// The shared metric registry backing this server's scrape surface.
    pub fn metrics(&self) -> Arc<crowd_telemetry::Registry> {
        Arc::clone(&self.core.metrics)
    }

    /// Point-in-time reactor counters (accepted/active/parked/inflight).
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.reactor.as_ref().map(|r| r.stats())
    }

    /// What the recovery path found at bind time (`None` for volatile servers).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The per-device ε ledger, ascending by device id.
    pub fn budget_ledger(&self) -> Vec<(u64, f64)> {
        self.core.runtime.budget_ledger()
    }

    /// Settles the open cohort round (finalizing pending submissions and
    /// charging their ε) without stopping the server. No-op when rounds are
    /// off or nothing is pending.
    pub fn settle_rounds(&self) {
        self.core.runtime.settle_rounds()
    }

    /// `true` when the device has spent its entire privacy budget.
    pub fn budget_exhausted(&self, device_id: u64) -> bool {
        self.core.runtime.budget_exhausted(device_id)
    }

    /// Gracefully stops the server: refuse new connections, flush the
    /// aggregation runtime (which resolves every pending and parked checkin),
    /// drain the reactor until all replies are on the wire, then stop it.
    pub fn shutdown(mut self) {
        self.stop_graceful();
    }

    /// Crash-stops the server, simulating a SIGKILL for recovery testing:
    /// in-flight and parked checkins are dropped unacknowledged, no final
    /// flush or checkpoint snapshot is written. Everything already
    /// acknowledged is in the WAL (appends happen before acks), so a
    /// subsequent [`ReactorServer::start`] on the same data directory recovers
    /// to exactly the acknowledged state via real snapshot-load + WAL-replay.
    pub fn kill(mut self) {
        self.core.runtime.kill();
        if let Some(reactor) = self.reactor.take() {
            reactor.stop();
        }
    }

    fn stop_graceful(&mut self) {
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        reactor.stop_accepting();
        // Flush the runtime FIRST: pending waits resolve with their epoch
        // outcome and parked retries resolve to a shutdown refusal, so the
        // drain below cannot stall behind an epoch that would never close.
        self.core.runtime.shutdown();
        reactor.drain(DRAIN_POLLS);
        reactor.stop();
    }
}

impl Drop for ReactorServerHandle {
    fn drop(&mut self) {
        self.stop_graceful();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::message_path;
    use crowd_proto::auth::AuthToken;
    use crowd_proto::frame::{read_message, write_message};
    use crowd_proto::message::{
        CheckinAck, CheckinRequest, CheckoutRequest, ErrorCode, ErrorReply, GradientPayload,
        Message,
    };
    use crowd_proto::PROTOCOL_VERSION;
    use std::net::TcpStream;
    use std::time::Duration;

    fn start_test_server() -> (ReactorServerHandle, AuthToken) {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        (handle, AuthToken::derive(0, 99))
    }

    fn roundtrip(addr: SocketAddr, msg: &Message) -> Message {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, msg).unwrap();
        read_message(&mut stream).unwrap()
    }

    fn checkin_item(device_id: u64, secret: u64, gradient: Vec<f64>) -> CheckinRequest {
        CheckinRequest {
            device_id,
            token: AuthToken::derive(device_id, secret),
            checkout_iteration: 0,
            nonce: 0,
            round_id: 0,
            gradient: GradientPayload::Dense(gradient),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1, 0],
        }
    }

    #[test]
    fn checkout_and_checkin_round_trip() {
        let (handle, token) = start_test_server();
        assert_eq!((handle.iteration(), handle.total_samples()), (0, 0));
        assert_eq!(handle.error_estimate(), None);
        let initial = handle.params();
        assert_eq!(initial.len(), 12);
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token,
            }),
        );
        assert!(matches!(
            reply,
            Message::CheckoutResponse(r)
                if r.iteration == 0 && r.params.len() == 12 && !r.stopped
        ));
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted && ack.iteration == 1));
        assert_eq!(handle.iteration(), 1);
        assert_eq!(handle.total_samples(), 2);
        assert_eq!(handle.error_estimate(), Some(0.5));
        assert!(!handle.stopped());
        assert_ne!(handle.params().as_slice(), initial.as_slice());
        assert_eq!(handle.runtime_stats().get("checkins_applied"), 1);
        handle.shutdown();
    }

    #[test]
    fn reactor_checkin_records_req_checkin_us() {
        let (handle, _token) = start_test_server();
        let histogram_count = |handle: &ReactorServerHandle| {
            let stats = handle.runtime_stats();
            stats.histogram("req_checkin_us").map_or(0, |h| h.count())
        };
        assert_eq!(histogram_count(&handle), 0);
        // One acknowledged checkin …
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12])),
        );
        assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        assert_eq!(histogram_count(&handle), 1);
        // … and one refused inline on the event loop.
        let reply = roundtrip(
            handle.addr(),
            &Message::CheckinRequest(checkin_item(1, 12345, vec![0.1; 12])),
        );
        assert!(matches!(reply, Message::Error(_)));
        assert_eq!(histogram_count(&handle), 2);
        handle.shutdown();
    }

    /// One request over `stream`; the reply as the raw frame it arrived in.
    fn raw_exchange(stream: &mut TcpStream, msg: &Message) -> Vec<u8> {
        use std::io::Read;
        write_message(stream, msg).unwrap();
        let mut frame = vec![0u8; 4];
        stream.read_exact(&mut frame).unwrap();
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        frame.resize(4 + len, 0);
        stream.read_exact(&mut frame[4..]).unwrap();
        frame
    }

    /// The checkin stream both routes are held to: accepted, replayed,
    /// accepted-and-stopping, counted-but-refused after the stop, and the
    /// refusals that never reach the runtime's queue.
    fn checkin_script() -> Vec<(&'static str, CheckinRequest)> {
        let with = |device_id, nonce, checkout_iteration| {
            let mut item = checkin_item(device_id, 99, vec![0.25; 12]);
            item.nonce = nonce;
            item.checkout_iteration = checkout_iteration;
            item
        };
        vec![
            ("accepted", with(1, 11, 0)),
            ("deduped", with(1, 11, 0)),
            ("accepted, and the last step", with(2, 12, 1)),
            ("stopped", with(3, 13, 2)),
            ("deduped after the stop", with(2, 12, 1)),
            ("bad token", checkin_item(1, 12345, vec![0.25; 12])),
            ("wrong dimension", checkin_item(1, 99, vec![0.25; 5])),
        ]
    }

    #[test]
    fn checkin_replies_are_byte_equal_to_the_message_path_on_both_routes() {
        use crowd_store::testutil::temp_dir;
        let tokens = || TokenRegistry::with_derived_tokens(4, 99);
        let model = || MulticlassLogistic::new(4, 3).unwrap();
        let volatile = ServerConfig::new()
            .with_max_iterations(2)
            .with_budget(0.25, f64::INFINITY);
        let dirs = [
            temp_dir("reply-bytes-reactor"),
            temp_dir("reply-bytes-oracle"),
        ];
        // The event loop runs each checkin itself. Volatile: it answers
        // at once. Durable: `crowd-agg` acknowledges it after the commit,
        // via the sink.
        let routes = [
            (volatile.clone(), volatile.clone(), false),
            (
                volatile.clone().with_data_dir(&dirs[0]),
                volatile.with_data_dir(&dirs[1]),
                true,
            ),
        ];
        for (config, oracle_config, durable) in routes {
            let handle = ReactorServer::start(model(), config, tokens()).unwrap();
            let (runtime, _) = build_runtime(model(), oracle_config).unwrap();
            let oracle = ServerCore::new(runtime, tokens());
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let script = checkin_script();
            for (what, request) in &script {
                let request = Message::CheckinRequest(request.clone());
                let mut expected = Vec::new();
                write_message(
                    &mut expected,
                    &message_path::reply(&oracle, request.clone()),
                )
                .unwrap();
                assert_eq!(
                    raw_exchange(&mut stream, &request),
                    expected,
                    "durable = {durable}: {what}"
                );
            }
            let stats = handle.runtime_stats();
            assert_eq!(stats.get("checkins_applied"), 3);
            assert_eq!(stats.get("checkins_inline"), 3);
            // One `req_checkin_us` sample per checkin, wherever its reply
            // was built.
            let timed = stats.histogram("req_checkin_us").map_or(0, |h| h.count());
            assert_eq!(timed, script.len() as u64);
            // The same script leaves the same server behind, bit for bit,
            // whichever path carried it.
            let bits = |params: Vector| params.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(handle.stopped());
            assert_eq!(handle.iteration(), oracle.runtime.iteration());
            assert_eq!(handle.total_samples(), oracle.runtime.total_samples());
            assert_eq!(bits(handle.params()), bits(oracle.runtime.params()));
            // (ε charges are finite and positive, where `==` is bit equality.)
            assert_eq!(handle.budget_ledger(), oracle.runtime.budget_ledger());
            assert_eq!(handle.budget_ledger().len(), 3, "three devices charged");
            handle.shutdown();
            oracle.runtime.shutdown();
        }
        for dir in dirs {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn error_path_replies_are_byte_equal_to_the_message_path() {
        let (handle, _token) = start_test_server();
        let (runtime, _) =
            build_runtime(MulticlassLogistic::new(4, 3).unwrap(), ServerConfig::new()).unwrap();
        let oracle = ServerCore::new(runtime, TokenRegistry::with_derived_tokens(4, 99));
        // The wire reply to `request` must be the message path's, byte for
        // byte; returns that reply decoded.
        let exchange = |what: &str, request: Message| {
            let reply = message_path::reply(&oracle, request.clone());
            let mut expected = Vec::new();
            write_message(&mut expected, &reply).unwrap();
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            assert_eq!(raw_exchange(&mut stream, &request), expected, "{what}");
            reply
        };
        let checkout = |version, secret| {
            Message::CheckoutRequest(CheckoutRequest {
                version,
                device_id: 0,
                token: AuthToken::derive(0, secret),
            })
        };
        let not_a_request = Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: 0,
            stopped: false,
            deduped: false,
        });
        for (what, request, code) in [
            (
                "bad token",
                checkout(PROTOCOL_VERSION, 12345),
                ErrorCode::Unauthorized,
            ),
            ("bad version", checkout(999, 99), ErrorCode::BadRequest),
            (
                "unexpected message type",
                not_a_request,
                ErrorCode::BadRequest,
            ),
            (
                "malformed gradient",
                Message::CheckinRequest(checkin_item(2, 99, vec![0.5; 3])),
                ErrorCode::BadRequest,
            ),
            (
                "bad checkin token",
                Message::CheckinRequest(checkin_item(3, 12345, vec![0.1; 12])),
                ErrorCode::Unauthorized,
            ),
        ] {
            let reply = exchange(what, request);
            assert!(
                matches!(&reply, Message::Error(e) if e.code == code),
                "{what}: {reply:?}"
            );
        }
        // The refusals applied nothing; a well-formed checkin still is.
        let valid = Message::CheckinRequest(checkin_item(1, 99, vec![0.1; 12]));
        match exchange("valid checkin", valid) {
            Message::CheckinAck(ack) => assert!(ack.accepted),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.iteration(), 1);
        handle.shutdown();
        oracle.runtime.shutdown();
    }

    /// Wire v7 changed no message, only what a masked word means (sparse
    /// ring masks instead of all-pairs): a v6 device must be turned away at
    /// checkout, before it can learn a round to submit an all-pairs mask to.
    /// Wire v8 retired batch checkin, so a v7 device is turned away too.
    #[test]
    fn a_v6_checkout_is_refused_as_a_bad_version() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let config = ServerConfig::new().with_rounds(crowd_core::config::RoundSettings::new(4));
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        for version in [6, 7] {
            let reply = roundtrip(
                handle.addr(),
                &Message::CheckoutRequest(CheckoutRequest {
                    version,
                    device_id: 0,
                    token: AuthToken::derive(0, 99),
                }),
            );
            let expected = format!("unsupported protocol version {version}");
            assert!(
                matches!(
                    &reply,
                    Message::Error(e) if e.code == ErrorCode::BadRequest && e.detail == expected
                ),
                "{reply:?}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn exhausted_device_is_refused_checkout_and_checkin() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // Two 0.6-ε checkins cross the 1.0 ceiling.
        let config = ServerConfig::new().with_budget(0.6, 1.0);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let checkin = |device_id, nonce| {
            let mut item = checkin_item(device_id, 99, vec![0.1; 12]);
            item.nonce = nonce;
            roundtrip(handle.addr(), &Message::CheckinRequest(item))
        };
        let exhausted = ErrorCode::BudgetExhausted;
        let refused = |reply: &Message| matches!(reply, Message::Error(e) if e.code == exhausted);
        for step in 0..2u64 {
            assert!(
                matches!(checkin(1, step), Message::CheckinAck(ack) if ack.accepted),
                "checkin {step} should be accepted"
            );
        }
        assert!(handle.budget_exhausted(1));
        let refused_checkout = roundtrip(
            handle.addr(),
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 1,
                token: AuthToken::derive(1, 99),
            }),
        );
        assert!(refused(&refused_checkout), "{refused_checkout:?}");
        let refused_checkin = checkin(1, 2);
        assert!(refused(&refused_checkin), "{refused_checkin:?}");
        // Device 2 is untouched.
        assert!(!handle.budget_exhausted(2));
        assert!(matches!(checkin(2, 0), Message::CheckinAck(ack) if ack.accepted));
        assert_eq!(handle.budget_ledger(), vec![(1, 1.2), (2, 0.6)]);
        handle.shutdown();
    }

    #[test]
    fn one_connection_many_sequential_exchanges() {
        let (handle, token) = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for round in 0..50u64 {
            let mut item = checkin_item(1, 99, vec![0.01; 12]);
            item.nonce = round;
            item.checkout_iteration = round;
            write_message(&mut stream, &Message::CheckinRequest(item)).unwrap();
            let reply = read_message(&mut stream).unwrap();
            assert!(
                matches!(reply, Message::CheckinAck(ack) if ack.accepted),
                "round {round}: {reply:?}"
            );
            write_message(
                &mut stream,
                &Message::CheckoutRequest(CheckoutRequest {
                    version: PROTOCOL_VERSION,
                    device_id: 0,
                    token,
                }),
            )
            .unwrap();
            let reply = read_message(&mut stream).unwrap();
            assert!(matches!(reply, Message::CheckoutResponse(r) if r.iteration == round + 1));
        }
        assert_eq!(handle.iteration(), 50);
        handle.shutdown();
    }

    #[test]
    fn full_queue_throttles_instead_of_busy() {
        // A one-deep queue and an epoch nothing closes before shutdown (an
        // epoch of u64::MAX, no idle flush). A checkin that finds the queue
        // full is parked, not answered Busy, and the admitted checkins all
        // resolve at the shutdown flush: devices never see a Busy frame.
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let config = ServerConfig::new().with_agg(crowd_core::config::AggSettings {
            queue_bound: 1,
            epoch_size: u64::MAX,
            retry_after_ms: 9,
            flush_idle_ms: 0,
        });
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let mut readers = Vec::new();
        for attempt in 0..12u64 {
            let mut item = checkin_item(attempt % 4, 99, vec![0.1; 12]);
            item.nonce = attempt;
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            write_message(&mut stream, &Message::CheckinRequest(item)).unwrap();
            readers.push(std::thread::spawn(move || {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                read_message(&mut stream).ok()
            }));
        }
        // Give the burst time to be admitted or parked, then flush via
        // shutdown: parked gradients re-admit as the queue drains.
        std::thread::sleep(Duration::from_millis(200));
        handle.shutdown();
        let mut acked = 0;
        let mut busy = 0;
        for reader in readers {
            match reader.join().unwrap() {
                Some(Message::CheckinAck(_)) => acked += 1,
                Some(Message::Busy(_)) => busy += 1,
                // Parked connections that could not re-admit before the
                // runtime closed are refused with TaskEnded.
                Some(Message::Error(ErrorReply {
                    code: ErrorCode::TaskEnded,
                    ..
                })) => {}
                Some(other) => panic!("unexpected reply {other:?}"),
                None => {}
            }
        }
        assert_eq!(busy, 0, "reactor backpressure must not emit Busy frames");
        assert!(acked > 0, "admitted checkins resolve at the final flush");
    }

    #[test]
    fn kill_and_restart_recovers_state() {
        use crowd_store::testutil::temp_dir;
        let dir = temp_dir("reactor-restart");
        let config = ServerConfig::new()
            .with_data_dir(&dir)
            .with_snapshot_every(2)
            .with_budget(0.25, f64::INFINITY);
        let tokens = || TokenRegistry::with_derived_tokens(4, 99);
        let model = || MulticlassLogistic::new(4, 3).unwrap();

        let handle = ReactorServer::start(model(), config.clone(), tokens()).unwrap();
        assert_eq!(handle.recovery_report().map(|r| r.recovered()), Some(false));
        for step in 0..3u64 {
            let mut item = checkin_item(step % 2, 99, vec![0.1; 12]);
            item.nonce = step;
            let reply = roundtrip(handle.addr(), &Message::CheckinRequest(item));
            assert!(matches!(reply, Message::CheckinAck(ack) if ack.accepted));
        }
        let params_at_kill = handle.params();
        let ledger_at_kill = handle.budget_ledger();
        handle.kill();

        let handle = ReactorServer::start(model(), config, tokens()).unwrap();
        let report = handle.recovery_report().unwrap();
        assert!(report.recovered());
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(handle.iteration(), 3);
        assert_eq!(handle.params().as_slice(), params_at_kill.as_slice());
        assert_eq!(handle.budget_ledger(), ledger_at_kill);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reactor_stats_are_exposed() {
        let (handle, token) = start_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        write_message(
            &mut second,
            &Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: 0,
                token,
            }),
        )
        .unwrap();
        let _ = read_message(&mut second).unwrap();
        let stats = handle.reactor_stats().unwrap();
        assert!(stats.accepted >= 2);
        assert!(stats.active >= 1);
        assert_eq!(stats.rejected, 0);
        drop(stream);
        drop(second);
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_under_concurrent_connects() {
        // Shutdown completes promptly even while a client thread hammers
        // connects, some landing before `stop_accepting` and some after.
        use std::sync::atomic::{AtomicBool, Ordering};
        for _round in 0..5 {
            let (handle, _token) = start_test_server();
            let addr = handle.addr();
            let hammer_stop = Arc::new(AtomicBool::new(false));
            let hammer_flag = Arc::clone(&hammer_stop);
            let (connected_tx, connected_rx) = std::sync::mpsc::sync_channel(1);
            let hammer = std::thread::spawn(move || {
                let mut opened = Vec::new();
                while !hammer_flag.load(Ordering::SeqCst) {
                    // A rolling window of idle connections plus a steady
                    // stream of fresh ones.
                    if let Ok(stream) = TcpStream::connect(addr) {
                        let _ = connected_tx.try_send(());
                        opened.push(stream);
                        if opened.len() > 8 {
                            opened.remove(0);
                        }
                    }
                }
            });
            // Shut down once the hammer is landing connects, on a thread of
            // its own so a channel timeout can bound the wait.
            connected_rx.recv().expect("the hammer connects");
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let closer = std::thread::spawn(move || {
                handle.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("shutdown stalled behind concurrent client connects");
            hammer_stop.store(true, Ordering::SeqCst);
            let _ = hammer.join();
            let _ = closer.join();
        }
    }
}
