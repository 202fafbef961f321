//! Single-threaded fleet driver: one thread running an entire simulated
//! device fleet against a Crowd-ML server.
//!
//! [`crate::DeviceClient`] is the faithful per-device client — one blocking
//! connection per device, so a fleet of them is either stepped one exchange
//! at a time ([`crate::ChaosCluster`]) or needs one thread per device, which
//! tops out around the thread budget of the machine, far below the paper's
//! "thousands of devices" premise. `FleetDriver` restructures the
//! client side the same way `crowd-reactor` restructures the server: every
//! device becomes a resumable state machine (checkout → checkin → next
//! round), all of them multiplexed over nonblocking sockets by one poller
//! loop.
//!
//! Each admitted device holds one persistent connection for its whole
//! lifetime of rounds, so N admitted devices really are N concurrent
//! connections on the server — the quantity the `reactor_fleet` scaling
//! bench measures. `max_open` caps how many devices are admitted at once;
//! with a 20k file-descriptor budget and two fd ends per localhost
//! connection, fleets beyond ~4k devices are served through a rolling
//! admission window (a finished device's slot goes to the next queued one).
//!
//! Determinism: gradients, labels, and nonces are pure functions of
//! `(device, round)`; a retried exchange reuses its nonce so server-side
//! dedup keeps retries idempotent. The driver reads no wallclock — waiting is
//! expressed in poller ticks, and the stall watchdog counts event-less ticks.

use crowd_proto::auth::AuthToken;
use crowd_proto::frame::DEFAULT_MAX_FRAME;
use crowd_proto::message::{CheckinRequest, CheckoutRequest, ErrorCode, GradientPayload, Message};
use crowd_proto::{BufPool, PROTOCOL_VERSION};
use crowd_reactor::{FrameReader, FrameWriter, ReadEvent, WriteEvent};
use polling::{Event, Events, Poller};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One poller tick: the wait timeout used when backoffs or the stall watchdog
/// need time to pass. Ticks are the driver's only clock.
const TICK: Duration = Duration::from_millis(2);

/// Milliseconds per tick, for converting server `retry_after_ms` hints.
const TICK_MS: u32 = 2;

/// Maximum new connections opened per event-loop pass. Connecting an entire
/// fleet in one burst overflows the listener's accept backlog (128 on Linux);
/// overflowed SYNs are silently dropped and retransmitted after ~1 s, which
/// dwarfs every other latency in a fleet run. Pacing admission keeps the
/// backlog bounded while the loop's event wakeups keep admission fast.
const ADMIT_BURST: usize = 64;

/// Fleet shape and budget knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Checkout+checkin rounds each device performs.
    pub rounds: u64,
    /// Dense gradient length (`dim * classes` of the server's model).
    pub dim: usize,
    /// Class count (shapes the per-checkin label histogram).
    pub classes: usize,
    /// Secret the server's token registry derived device tokens from.
    pub auth_secret: u64,
    /// Maximum simultaneously admitted devices (= open connections). Bounds
    /// the file-descriptor footprint: each admitted device costs one client
    /// fd here plus one server fd.
    pub max_open: usize,
    /// Transport retries per device before it is marked failed.
    pub max_attempts: u32,
    /// Event-less poller ticks before the driver declares the server stalled
    /// and aborts (marking unfinished devices failed).
    pub stall_ticks: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 100,
            rounds: 2,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            max_open: 2048,
            max_attempts: 8,
            stall_ticks: 30_000,
        }
    }
}

/// What the fleet accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Checkins acknowledged as accepted.
    pub acked: u64,
    /// Checkins acknowledged but rejected (stale iteration, dedup replay, …).
    pub rejected: u64,
    /// Successful checkouts.
    pub checkouts: u64,
    /// Top-level `Busy` replies absorbed. The server parks a backpressured
    /// connection instead of sending one, so this stays 0 against it.
    pub busy: u64,
    /// Devices refused for an exhausted privacy budget (these still count as
    /// finished, not failed — the refusal is the protocol working).
    pub exhausted_devices: u64,
    /// Devices that gave up (transport failures or fatal server errors).
    pub failed_devices: u64,
    /// Reconnects after mid-stream transport errors.
    pub reconnects: u64,
}

impl FleetReport {
    /// `true` when every device finished every round without failures.
    pub fn clean(&self) -> bool {
        self.failed_devices == 0 && self.busy == 0 && self.exhausted_devices == 0
    }
}

/// Where a device is in its exchange loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Checkout,
    Checkin,
}

/// How a device ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Exhausted,
    Failed,
}

struct Device {
    round: u64,
    step: Step,
    attempts: u32,
    checkout_iteration: u64,
    outcome: Option<Outcome>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    registered: bool,
}

enum Drive {
    Reply(Message),
    WaitReadable,
    WaitWritable,
    Dead,
}

fn drive_conn(conn: &mut Conn) -> Drive {
    match conn.writer.poll_write(&mut conn.stream) {
        Ok(WriteEvent::Flushed) => {}
        Ok(WriteEvent::NeedMore) => return Drive::WaitWritable,
        Err(_) => return Drive::Dead,
    }
    match conn.reader.poll_read(&mut conn.stream) {
        Ok(ReadEvent::Frame(message)) => Drive::Reply(message),
        Ok(ReadEvent::NeedMore) => Drive::WaitReadable,
        Ok(ReadEvent::Closed) | Err(_) => Drive::Dead,
    }
}

/// Drives a whole device fleet from the calling thread.
pub struct FleetDriver {
    addr: SocketAddr,
    config: FleetConfig,
    poller: Poller,
    pool: Arc<BufPool>,
    devices: Vec<Device>,
    conns: Vec<Option<Conn>>,
    /// Devices waiting for an admission slot (no connection open).
    ready: VecDeque<usize>,
    /// Devices waiting out a backoff, in remaining ticks. A backoff entry may
    /// or may not still hold its connection.
    backoff: Vec<(usize, u32)>,
    open: usize,
    unfinished: usize,
    report: FleetReport,
}

impl FleetDriver {
    /// Runs `config.devices` simulated devices against the server at `addr`
    /// and reports what the fleet accomplished. Blocks the calling thread
    /// until every device finished or the stall watchdog fires.
    pub fn run(addr: SocketAddr, config: FleetConfig) -> io::Result<FleetReport> {
        let poller = Poller::new()?;
        let device_count = config.devices;
        let mut driver = FleetDriver {
            addr,
            poller,
            pool: Arc::new(BufPool::default()),
            devices: (0..device_count)
                .map(|_| Device {
                    round: 0,
                    step: Step::Checkout,
                    attempts: 0,
                    checkout_iteration: 0,
                    outcome: None,
                })
                .collect(),
            conns: (0..device_count).map(|_| None).collect(),
            ready: (0..device_count).collect(),
            backoff: Vec::new(),
            open: 0,
            unfinished: device_count,
            report: FleetReport::default(),
            config,
        };
        driver.event_loop()?;
        Ok(driver.report)
    }

    fn event_loop(&mut self) -> io::Result<()> {
        let mut events = Events::new();
        let mut stall_ticks = 0u32;
        while self.unfinished > 0 {
            let mut progressed = false;
            // Admit queued devices into free connection slots, at most
            // ADMIT_BURST per pass so the accept backlog never overflows.
            let mut burst = ADMIT_BURST;
            while self.open < self.config.max_open && burst > 0 {
                let Some(idx) = self.ready.pop_front() else {
                    break;
                };
                burst -= 1;
                progressed |= self.start_device(idx);
            }
            if self.unfinished == 0 {
                break;
            }
            events.clear();
            // Sleep a tick when backoffs need time to pass; otherwise park
            // until socket readiness (the notifier is unused here, so a
            // plain timeout bounds watchdog latency).
            let timeout = Some(TICK);
            self.poller.wait(&mut events, timeout)?;
            let keys: Vec<usize> = events.iter().map(|e| e.key).collect();
            for key in keys {
                if self.conns.get(key).map(|c| c.is_some()) == Some(true) {
                    progressed |= self.pump(key);
                }
            }
            progressed |= self.tick_backoffs();
            if progressed {
                stall_ticks = 0;
            } else {
                stall_ticks += 1;
                if stall_ticks > self.config.stall_ticks {
                    // The server stopped making progress: fail every
                    // unfinished device rather than spinning forever.
                    for idx in 0..self.devices.len() {
                        if self.devices[idx].outcome.is_none() {
                            self.finish(idx, Outcome::Failed);
                        }
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// Opens (or reopens) a device's connection and sends its next request.
    /// Returns whether any progress happened.
    fn start_device(&mut self, idx: usize) -> bool {
        debug_assert!(self.conns[idx].is_none());
        let stream = match TcpStream::connect(self.addr) {
            Ok(s) => s,
            Err(_) => return self.transport_error(idx),
        };
        if stream.set_nonblocking(true).is_err() {
            return self.transport_error(idx);
        }
        stream.set_nodelay(true).ok();
        self.conns[idx] = Some(Conn {
            stream,
            reader: FrameReader::new(Arc::clone(&self.pool), DEFAULT_MAX_FRAME),
            writer: FrameWriter::new(Arc::clone(&self.pool)),
            registered: false,
        });
        self.open += 1;
        self.send_request(idx);
        self.pump(idx)
    }

    /// Enqueues the request for the device's current step on its open
    /// connection.
    fn send_request(&mut self, idx: usize) {
        let device = &self.devices[idx];
        let request = match device.step {
            Step::Checkout => Message::CheckoutRequest(CheckoutRequest {
                version: PROTOCOL_VERSION,
                device_id: idx as u64,
                token: AuthToken::derive(idx as u64, self.config.auth_secret),
            }),
            Step::Checkin => Message::CheckinRequest(self.checkin_request(idx)),
        };
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.writer.enqueue(&request);
        }
    }

    /// The deterministic checkin for `(device, round)`: gradient, labels, and
    /// nonce are pure functions of the pair, so a retry resends bitwise the
    /// same request and the server's dedup makes it idempotent.
    fn checkin_request(&self, idx: usize) -> CheckinRequest {
        let device = &self.devices[idx];
        let (id, round) = (idx as u64, device.round);
        let gradient: Vec<f64> = (0..self.config.dim)
            .map(|i| {
                let mix = id
                    .wrapping_mul(31)
                    .wrapping_add(round.wrapping_mul(7))
                    .wrapping_add(i as u64);
                ((mix % 13) as f64 - 6.0) * 1e-3
            })
            .collect();
        let classes = self.config.classes.max(1);
        let mut label_counts = vec![0i64; classes];
        label_counts[(id.wrapping_add(round) % classes as u64) as usize] = 2;
        CheckinRequest {
            device_id: id,
            token: AuthToken::derive(id, self.config.auth_secret),
            checkout_iteration: device.checkout_iteration,
            nonce: round,
            round_id: 0,
            gradient: GradientPayload::Dense(gradient),
            num_samples: 2,
            error_count: 1,
            label_counts,
        }
    }

    /// Pumps one device's connection: flush writes, read replies, advance the
    /// state machine — repeating while exchanges complete synchronously.
    /// Returns whether any reply was processed (or the device finished).
    fn pump(&mut self, idx: usize) -> bool {
        let mut progressed = false;
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return progressed;
            };
            match drive_conn(conn) {
                Drive::Reply(message) => {
                    progressed = true;
                    if !self.on_reply(idx, message) {
                        return true;
                    }
                }
                Drive::WaitReadable => {
                    return self.arm(idx, Event::readable(idx)) || progressed;
                }
                Drive::WaitWritable => {
                    return self.arm(idx, Event::writable(idx)) || progressed;
                }
                Drive::Dead => {
                    self.close_conn(idx);
                    self.transport_error(idx);
                    return true;
                }
            }
        }
    }

    /// (Re-)arms poller interest for a connection. Returns false always (no
    /// progress), folding registration failures into a transport error.
    fn arm(&mut self, idx: usize, event: Event) -> bool {
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        let result = if conn.registered {
            self.poller.modify(&conn.stream, event)
        } else {
            let result = self.poller.add(&conn.stream, event);
            if result.is_ok() {
                conn.registered = true;
            }
            result
        };
        if result.is_err() {
            self.close_conn(idx);
            self.transport_error(idx);
        }
        false
    }

    /// Advances a device past a received reply. Returns `true` when the
    /// device immediately has a next request queued on the same connection
    /// (the caller keeps pumping), `false` when it finished or went into
    /// backoff.
    fn on_reply(&mut self, idx: usize, message: Message) -> bool {
        self.devices[idx].attempts = 0;
        let step = self.devices[idx].step;
        match (step, message) {
            (Step::Checkout, Message::CheckoutResponse(r)) => {
                self.report.checkouts += 1;
                self.devices[idx].checkout_iteration = r.iteration;
                self.devices[idx].step = Step::Checkin;
                self.send_request(idx);
                true
            }
            (Step::Checkin, Message::CheckinAck(ack)) => {
                if ack.accepted {
                    self.report.acked += 1;
                } else {
                    self.report.rejected += 1;
                }
                let device = &mut self.devices[idx];
                device.round += 1;
                device.step = Step::Checkout;
                if device.round >= self.config.rounds {
                    self.finish(idx, Outcome::Completed);
                    false
                } else {
                    self.send_request(idx);
                    true
                }
            }
            (_, Message::Busy(busy)) => {
                // A server that answers backpressure with a reply (ours
                // throttles reads instead): hold the connection open and
                // resend the same step after the hinted pause.
                self.report.busy += 1;
                self.backoff.push((idx, busy.retry_after_ms / TICK_MS + 1));
                false
            }
            (_, Message::Error(e)) => match e.code {
                ErrorCode::BudgetExhausted => {
                    self.report.exhausted_devices += 1;
                    self.finish(idx, Outcome::Exhausted);
                    false
                }
                // Fatal for this device: the server is gone or the request
                // can never succeed.
                _ => {
                    self.finish(idx, Outcome::Failed);
                    false
                }
            },
            _ => {
                self.finish(idx, Outcome::Failed);
                false
            }
        }
    }

    /// Handles a connect/read/write failure: bounded retries with a one-tick
    /// pause, then the device is marked failed. Returns whether the device
    /// finished (progress).
    fn transport_error(&mut self, idx: usize) -> bool {
        let device = &mut self.devices[idx];
        device.attempts += 1;
        if device.attempts > self.config.max_attempts {
            self.finish(idx, Outcome::Failed);
            true
        } else {
            self.report.reconnects += 1;
            self.backoff.push((idx, device.attempts));
            false
        }
    }

    /// Counts down backoffs; expired devices resume (resending on their open
    /// connection, or reconnecting). Returns whether any resumed device made
    /// progress.
    fn tick_backoffs(&mut self) -> bool {
        if self.backoff.is_empty() {
            return false;
        }
        let mut expired = Vec::new();
        self.backoff.retain_mut(|(idx, ticks)| {
            *ticks = ticks.saturating_sub(1);
            if *ticks == 0 {
                expired.push(*idx);
                false
            } else {
                true
            }
        });
        let mut progressed = false;
        for idx in expired {
            if self.devices[idx].outcome.is_some() {
                continue;
            }
            if self.conns[idx].is_some() {
                // Busy backoff: the connection is still open; resend.
                self.send_request(idx);
                progressed |= self.pump(idx);
            } else if self.open < self.config.max_open {
                progressed |= self.start_device(idx);
            } else {
                self.ready.push_back(idx);
            }
        }
        progressed
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            if conn.registered {
                let _ = self.poller.delete(&conn.stream);
            }
            self.open -= 1;
        }
    }

    fn finish(&mut self, idx: usize, outcome: Outcome) {
        self.close_conn(idx);
        if self.devices[idx].outcome.is_none() {
            self.devices[idx].outcome = Some(outcome);
            if outcome == Outcome::Failed {
                self.report.failed_devices += 1;
            }
            self.unfinished -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor_server::ReactorServer;
    use crowd_core::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;
    use crowd_proto::auth::TokenRegistry;

    fn fleet(devices: usize, rounds: u64) -> FleetConfig {
        FleetConfig {
            devices,
            rounds,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_completes_against_reactor_server() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(64, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(64, 3)).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, 64 * 3);
        assert_eq!(report.checkouts, 64 * 3);
        assert!(handle.iteration() > 0);
        assert_eq!(handle.runtime_stats().get("checkins_applied"), 64 * 3);
        handle.shutdown();
    }

    #[test]
    fn admission_window_serves_fleets_larger_than_the_window() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(50, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let config = FleetConfig {
            max_open: 8,
            ..fleet(50, 2)
        };
        let report = FleetDriver::run(handle.addr(), config).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, 50 * 2);
        handle.shutdown();
    }

    #[test]
    fn unknown_devices_fail_without_stalling_the_fleet() {
        // The registry only covers devices 0–7; devices 8–15 get Unauthorized
        // and must fail fast while the authorized half completes.
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(8, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(16, 2)).unwrap();
        assert_eq!(report.failed_devices, 8, "{report:?}");
        assert_eq!(report.acked + report.rejected, 8 * 2);
        handle.shutdown();
    }

    #[test]
    fn exhausted_budgets_finish_devices_cleanly() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // One 0.6-ε checkin fits, the second checkout is refused.
        let config = ServerConfig::new().with_budget(0.6, 1.0);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(4, 5)).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.exhausted_devices, 4);
        assert!(report.acked >= 4);
        handle.shutdown();
    }
}
