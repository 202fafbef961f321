//! The load generator: one thread multiplexing every simulated device over
//! nonblocking sockets.
//!
//! Each simulated device is a real [`crowd_core::Device`]: it observes `b`
//! samples of its private slice, checks out, computes and sanitizes its
//! minibatch statistics on the parameters it checked out, and checks in — in a
//! closed loop with no think time, because a Crowd-ML device is a caller that
//! waits (it cannot check in before its checkout returns, nor start the next
//! minibatch's round before the ack). The shape follows
//! `crowd_net::FleetDriver`, which cannot be reused here: it sends synthetic
//! gradients, has no rounds mode and takes no timings.

use crate::sys::reset_on_close;
use crate::trace::{OpenRound, RoundAcc, SpanKind, Tracer};
use crate::workload::{drops_out, Workload, AUTH_SECRET};
use crowd_core::device::{CheckinPayload, Device};
use crowd_data::{Dataset, Sample};
use crowd_learning::MulticlassLogistic;
use crowd_linalg::{GradientUpdate, Vector};
use crowd_proto::auth::AuthToken;
use crowd_proto::frame::DEFAULT_MAX_FRAME;
use crowd_proto::message::{
    CheckinRequest, CheckoutRequest, CheckoutResponse, ErrorCode, GradientPayload, Message,
    RoundParams,
};
use crowd_proto::{BufPool, PROTOCOL_VERSION};
use crowd_reactor::{FrameReader, FrameWriter, ReadEvent, WriteEvent};
use polling::{Event, Events, Poller};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poller wait timeout: bounds how late the loop notices its deadline.
const TICK: Duration = Duration::from_millis(2);

/// Maximum new connections opened per loop pass (as
/// `FleetDriver::ADMIT_BURST`): a larger burst overflows the listener's
/// 128-deep accept backlog, and an overflowed SYN is retransmitted after ~1 s.
const ADMIT_BURST: usize = 64;

/// Messages and payloads kept from the traced run for the isolated probes.
const CAPTURE: usize = 256;

/// How long the fleet waits for in-flight rounds to end before giving up.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// How long a fixed count of rounds may take before the fleet gives up.
const COUNT_LIMIT: Duration = Duration::from_secs(120);

/// Maps a device's gradient representation onto the wire encoding without
/// densifying. A copy of the private `crowd_net::client::wire_gradient`.
pub fn wire_gradient(gradient: &GradientUpdate) -> GradientPayload {
    match gradient {
        GradientUpdate::Dense(v) => GradientPayload::Dense(v.as_slice().to_vec()),
        GradientUpdate::Sparse(s) => GradientPayload::Sparse {
            dim: s.dim() as u32,
            indices: s.indices().to_vec(),
            values: s.values().to_vec(),
        },
        GradientUpdate::Quantized(q) => GradientPayload::Quantized {
            scale: q.scale(),
            levels: q.levels().to_vec(),
        },
    }
}

/// `Read`/`Write` wrapper that counts the bytes that actually crossed the
/// stream (short transfers count what was transferred, errors count nothing).
pub struct Counted<'a, S> {
    pub inner: &'a mut S,
    pub bytes: &'a mut u64,
}

impl<S: Read> Read for Counted<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Cumulative fleet counters; a window's figures are the difference of two
/// copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Device rounds started.
    pub started: u64,
    /// Rounds that ended in an accepting `CheckinAck`.
    pub acked: u64,
    /// Of `acked`, masked round submissions.
    pub submissions: u64,
    /// Rounds ended by a transport error, an unexpected message or an error
    /// reply other than `RoundOutdated`.
    pub failed: u64,
    /// Rounds refused with `RoundOutdated` (the round closed under the device).
    pub outdated: u64,
    /// Rounds a scripted dropout ended without a checkin.
    pub dropouts: u64,
    /// Masks computed (accepted or not).
    pub masks: u64,
    /// Frame bytes written by the fleet.
    pub uplink_bytes: u64,
    /// Frame bytes read by the fleet.
    pub downlink_bytes: u64,
    /// Nanoseconds inside device-side library calls.
    pub device_ns: u64,
    /// Nanoseconds closing connections (outside any round span).
    pub close_ns: u64,
}

/// What the traced run keeps for the isolated probes.
#[derive(Debug, Default)]
pub struct Captures {
    /// Checked-out parameters with the minibatch computed on them.
    pub minibatches: Vec<(Vector, Vec<Sample>)>,
    /// Free-run payloads as the device produced them.
    pub payloads: Vec<CheckinPayload>,
    /// Checkin requests as sent (masked ones included).
    pub checkins: Vec<Message>,
    /// Checkout responses as received.
    pub checkouts: Vec<Message>,
    /// Round parameters of the first masked submission.
    pub round: Option<RoundParams>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Checkout,
    Checkin { masked_round: u64 },
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
}

struct Sim {
    device: Device,
    token: AuthToken,
    rng: StdRng,
    /// This device's slice of the training set and its read position.
    slice: std::ops::Range<usize>,
    cursor: usize,
    conn: Option<Conn>,
    phase: Phase,
    round_start_ns: u64,
    /// Round id this device has already submitted to or dropped out of.
    settled_round: u64,
    wait_start_ns: u64,
    open: Option<OpenRound>,
    acc: RoundAcc,
}

enum RoundEnd {
    Acked,
    Outdated,
    Dropped,
    Failed,
}

/// The simulated device fleet and its event loop.
pub struct Fleet {
    workload: &'static Workload,
    seed: u64,
    addr: SocketAddr,
    model: MulticlassLogistic,
    train: Arc<Dataset>,
    lambda: f64,
    poller: Poller,
    events: Events,
    pool: Arc<BufPool>,
    sims: Vec<Sim>,
    /// Devices waiting to open a connection and start a round.
    admit: VecDeque<usize>,
    epoch: Instant,
    draining: bool,
    /// Rounds still allowed to start (`None` = unlimited).
    budget: Option<u64>,
    in_flight: usize,
    pub counters: Counters,
    /// Latency (ns) of each round acked since the last
    /// [`Fleet::take_latencies`].
    latencies: Vec<u64>,
    pub tracer: Tracer,
    capturing: bool,
    pub captures: Captures,
    /// First failure seen, for the error report.
    pub first_failure: Option<String>,
}

impl Fleet {
    /// Builds the fleet (devices, RNG streams, data slices); opens no socket.
    pub fn new(
        workload: &'static Workload,
        seed: u64,
        addr: SocketAddr,
        train: Arc<Dataset>,
        lambda: f64,
    ) -> io::Result<Fleet> {
        let model = MulticlassLogistic::new(workload.features, workload.classes)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let per_device = workload.samples_per_device;
        assert!(train.len() >= workload.devices * per_device);
        let sims = (0..workload.devices)
            .map(|i| {
                let id = i as u64;
                let device = Device::new(id, workload.device_config(), workload.privacy())
                    .map_err(|e| io::Error::other(e.to_string()))?;
                Ok(Sim {
                    device,
                    token: AuthToken::derive(id, AUTH_SECRET),
                    rng: StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    slice: i * per_device..(i + 1) * per_device,
                    cursor: 0,
                    conn: None,
                    phase: Phase::Idle,
                    round_start_ns: 0,
                    settled_round: 0,
                    wait_start_ns: 0,
                    open: None,
                    acc: [0; SpanKind::COUNT],
                })
            })
            .collect::<io::Result<Vec<Sim>>>()?;
        Ok(Fleet {
            workload,
            seed,
            addr,
            model,
            train,
            lambda,
            poller: Poller::new()?,
            events: Events::new(),
            pool: Arc::new(BufPool::default()),
            admit: (0..sims.len()).collect(),
            sims,
            epoch: Instant::now(),
            draining: false,
            budget: None,
            in_flight: 0,
            counters: Counters::default(),
            latencies: Vec::new(),
            tracer: Tracer::default(),
            capturing: false,
            captures: Captures::default(),
            first_failure: None,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs loop passes until every device has started its first round.
    pub fn connect_all(&mut self) -> io::Result<()> {
        while !self.admit.is_empty() {
            self.pass()?;
        }
        Ok(())
    }

    /// Runs the closed loop for `duration`.
    pub fn run_for(&mut self, duration: Duration) -> io::Result<()> {
        let deadline = Instant::now() + duration;
        while Instant::now() < deadline {
            self.pass()?;
        }
        Ok(())
    }

    /// Lets the running loop start exactly `rounds` more rounds and runs until
    /// every round has ended.
    pub fn run_rounds(&mut self, rounds: u64) -> io::Result<()> {
        self.budget = Some(rounds);
        let result = self.run_until_idle(COUNT_LIMIT);
        self.budget = None;
        result
    }

    /// Stops starting rounds and runs until every in-flight round has ended.
    pub fn drain(&mut self) -> io::Result<()> {
        self.draining = true;
        self.admit.clear();
        self.run_until_idle(DRAIN_LIMIT)
    }

    fn run_until_idle(&mut self, limit: Duration) -> io::Result<()> {
        let limit = Instant::now() + limit;
        while self.in_flight > 0 || (!self.admit.is_empty() && self.budget != Some(0)) {
            if Instant::now() > limit {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} rounds still in flight at the time limit",
                        self.in_flight
                    ),
                ));
            }
            self.pass()?;
        }
        self.admit.clear();
        Ok(())
    }

    /// Starts recording spans and keeping messages for the probes.
    pub fn start_tracing(&mut self) {
        self.tracer.enable();
        self.capturing = true;
    }

    /// Round latencies (ns) recorded since the last call.
    pub fn take_latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.latencies)
    }

    /// One loop pass: admit a burst of waiting devices, wait for readiness,
    /// pump every ready connection.
    fn pass(&mut self) -> io::Result<()> {
        let mut burst = ADMIT_BURST;
        while burst > 0 {
            let Some(idx) = self.admit.pop_front() else {
                break;
            };
            burst -= 1;
            self.start_round(idx);
        }
        self.poller.wait(&mut self.events, Some(TICK))?;
        let woke_ns = self.now_ns();
        let keys: Vec<usize> = self.events.iter().map(|e| e.key).collect();
        for idx in keys {
            self.pump(idx, woke_ns);
        }
        Ok(())
    }

    fn child(&mut self, idx: usize, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let sim = &mut self.sims[idx];
        if let Some(open) = &sim.open {
            self.tracer
                .child(open, &mut sim.acc, kind, start_ns, end_ns);
        }
    }

    /// Ends a device-side span that started at `start_ns`: always charged to
    /// `device_ns`, recorded when the round is traced. Returns the end time.
    fn device_span(&mut self, idx: usize, kind: SpanKind, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        self.counters.device_ns += end_ns - start_ns;
        self.child(idx, kind, start_ns, end_ns);
        end_ns
    }

    /// Start time for a span that is only measured on traced rounds.
    fn mark(&self, idx: usize) -> u64 {
        if self.sims[idx].open.is_some() {
            self.now_ns()
        } else {
            0
        }
    }

    /// Ends a traced-only span started by [`Fleet::mark`].
    fn span(&mut self, idx: usize, kind: SpanKind, start_ns: u64) {
        if self.sims[idx].open.is_some() {
            let end_ns = self.now_ns();
            self.child(idx, kind, start_ns, end_ns);
        }
    }

    /// Begins a device round: (connect,) observe `b` samples, request a
    /// checkout.
    fn start_round(&mut self, idx: usize) {
        if self.draining {
            return;
        }
        match &mut self.budget {
            Some(0) => return,
            Some(left) => *left -= 1,
            None => {}
        }
        let start_ns = self.now_ns();
        self.counters.started += 1;
        self.in_flight += 1;
        let open = self.tracer.open_round(start_ns);
        let sim = &mut self.sims[idx];
        sim.round_start_ns = start_ns;
        sim.open = open;
        sim.acc = [0; SpanKind::COUNT];
        sim.phase = Phase::Checkout;

        if self.sims[idx].conn.is_none() {
            if let Err(e) = self.connect(idx) {
                self.fail(idx, format!("connect: {e}"));
                return;
            }
            self.span(idx, SpanKind::Connect, start_ns);
        }

        let t = self.now_ns();
        let sim = &mut self.sims[idx];
        for _ in 0..self.workload.minibatch {
            let sample = self.train.get(sim.slice.start + sim.cursor).clone();
            sim.cursor = (sim.cursor + 1) % sim.slice.len();
            sim.device.observe(sample);
        }
        if let Err(e) = sim.device.begin_checkout() {
            self.fail(idx, format!("begin_checkout: {e}"));
            return;
        }
        let request = Message::CheckoutRequest(CheckoutRequest {
            version: PROTOCOL_VERSION,
            device_id: sim.device.id(),
            token: sim.token,
        });
        let t = self.device_span(idx, SpanKind::Device, t);
        self.send(idx, &request, t);
    }

    fn connect(&mut self, idx: usize) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        if self.workload.reconnect {
            // At ~14k connections a second an orderly close would park a
            // TIME_WAIT socket on every ephemeral port within two seconds;
            // the kernel's port search then stalls every connect() for tens
            // of milliseconds once a second, for as long as earlier runs'
            // sockets linger. A reset on close leaves nothing behind.
            reset_on_close(&stream)?;
        }
        // Registered with no interest; `arm` sets it once a request is out.
        self.poller.add(&stream, Event::none(idx))?;
        self.sims[idx].conn = Some(Conn {
            reader: FrameReader::new(Arc::clone(&self.pool), DEFAULT_MAX_FRAME),
            writer: FrameWriter::new(Arc::clone(&self.pool)),
            stream,
        });
        Ok(())
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.sims[idx].conn.take() {
            let _ = self.poller.delete(&conn.stream);
        }
    }

    /// Enqueues `request` (a device-side cost starting at `start_ns`) and
    /// starts flushing it.
    fn send(&mut self, idx: usize, request: &Message, start_ns: u64) {
        let Some(conn) = self.sims[idx].conn.as_mut() else {
            return;
        };
        conn.writer.enqueue(request);
        self.device_span(idx, SpanKind::Enqueue, start_ns);
        self.flush(idx);
    }

    /// Writes as much of the queued request as the socket takes, then arms
    /// the interest that moves the exchange forward.
    fn flush(&mut self, idx: usize) {
        let t = self.mark(idx);
        let Some(conn) = self.sims[idx].conn.as_mut() else {
            return;
        };
        let mut stream = Counted {
            inner: &mut conn.stream,
            bytes: &mut self.counters.uplink_bytes,
        };
        let event = match conn.writer.poll_write(&mut stream) {
            Ok(WriteEvent::Flushed) => Event::readable(idx),
            Ok(WriteEvent::NeedMore) => Event::writable(idx),
            Err(e) => {
                self.fail(idx, format!("write: {e}"));
                return;
            }
        };
        self.span(idx, SpanKind::Write, t);
        self.arm(idx, event);
    }

    fn arm(&mut self, idx: usize, event: Event) {
        let t = self.mark(idx);
        let Some(conn) = self.sims[idx].conn.as_ref() else {
            return;
        };
        if let Err(e) = self.poller.modify(&conn.stream, event) {
            self.fail(idx, format!("poller modify: {e}"));
            return;
        }
        self.span(idx, SpanKind::Arm, t);
        // The reply wait starts once the request is flushed and read
        // interest armed (a partial-frame resume re-enters the same wait).
        self.sims[idx].wait_start_ns = self.mark(idx);
    }

    /// Advances one connection the poller reported ready at `woke_ns`.
    fn pump(&mut self, idx: usize, woke_ns: u64) {
        let Some(conn) = self.sims[idx].conn.as_mut() else {
            return;
        };
        if !conn.writer.is_idle() {
            // Still flushing a large request: nothing was awaited yet.
            self.flush(idx);
            return;
        }
        let wait_kind = match self.sims[idx].phase {
            Phase::Checkout => SpanKind::CheckoutWait,
            Phase::Checkin { .. } => SpanKind::CheckinWait,
            Phase::Idle => return,
        };
        if self.sims[idx].open.is_some() {
            let wait_start = self.sims[idx].wait_start_ns;
            self.child(idx, wait_kind, wait_start, woke_ns.max(wait_start));
            self.span(idx, SpanKind::Queue, woke_ns.max(wait_start));
        }
        let t = self.mark(idx);
        let Some(conn) = self.sims[idx].conn.as_mut() else {
            return;
        };
        let mut stream = Counted {
            inner: &mut conn.stream,
            bytes: &mut self.counters.downlink_bytes,
        };
        let event = conn.reader.poll_read(&mut stream);
        self.span(idx, SpanKind::Read, t);
        match event {
            Ok(ReadEvent::Frame(message)) => self.on_reply(idx, message),
            Ok(ReadEvent::NeedMore) => self.arm(idx, Event::readable(idx)),
            Ok(ReadEvent::Closed) => self.fail(idx, "server closed the connection".into()),
            Err(e) => self.fail(idx, format!("read: {e}")),
        }
    }

    fn on_reply(&mut self, idx: usize, message: Message) {
        match (self.sims[idx].phase, message) {
            (Phase::Checkout, Message::CheckoutResponse(response)) => {
                self.on_checkout(idx, response)
            }
            (Phase::Checkin { masked_round }, Message::CheckinAck(ack)) if ack.accepted => {
                if masked_round != 0 {
                    self.counters.submissions += 1;
                }
                self.end_round(idx, RoundEnd::Acked);
            }
            (Phase::Checkin { .. }, Message::Error(e)) if e.code == ErrorCode::RoundOutdated => {
                self.end_round(idx, RoundEnd::Outdated)
            }
            (phase, other) => self.fail(idx, format!("{} in {phase:?}", describe(&other))),
        }
    }

    /// Device Routines 2–3 on the checked-out parameters, then the checkin —
    /// free-run, masked, or (scripted) not sent at all.
    fn on_checkout(&mut self, idx: usize, response: CheckoutResponse) {
        let capture = self.capturing && self.captures.checkouts.len() < CAPTURE;
        if capture {
            self.captures
                .checkouts
                .push(Message::CheckoutResponse(response.clone()));
        }
        let minibatch: Option<Vec<Sample>> = capture.then(|| self.last_minibatch(idx));

        let t = self.now_ns();
        let sim = &mut self.sims[idx];
        let params = Vector::from_vec(response.params);
        let payload = match sim.device.compute_checkin(
            &self.model,
            &params,
            response.iteration,
            self.lambda,
            &mut sim.rng,
        ) {
            Ok(payload) => payload,
            Err(e) => {
                self.fail(idx, format!("compute_checkin: {e}"));
                return;
            }
        };
        let mut t = self.device_span(idx, SpanKind::Device, t);
        if let Some(samples) = minibatch {
            self.captures.minibatches.push((params, samples));
        }

        // Round policy of `ChaosCluster::round_step`: selected and not yet
        // settled this round → masked submission (or the scripted dropout);
        // otherwise free-run.
        let mut masked_words = None;
        if let Some(round) = response.round {
            let sim = &mut self.sims[idx];
            let id = sim.device.id();
            let cohort = crowd_rounds::cohort(round.seed, round.population, round.select_fraction);
            let submits = cohort.binary_search(&id).is_ok() && sim.settled_round != round.round_id;
            if submits && drops_out(self.seed, id, round.round_id) {
                // The device vanishes for this minibatch and free-runs for the
                // rest of the round, so the round can only close on its
                // deadline, with dropout compensation.
                sim.settled_round = round.round_id;
                self.device_span(idx, SpanKind::Mask, t);
                self.end_round(idx, RoundEnd::Dropped);
                return;
            }
            if submits {
                let dense = payload.gradient.to_dense();
                let net = crowd_rounds::net_mask(round.seed, id, &cohort, dense.len());
                masked_words = Some(crowd_rounds::mask(dense.as_slice(), &net));
                sim.settled_round = round.round_id;
                self.counters.masks += 1;
                self.captures.round.get_or_insert(round);
            }
            t = self.device_span(idx, SpanKind::Mask, t);
        }

        let sim = &self.sims[idx];
        let masked_round = match (&masked_words, response.round) {
            (Some(_), Some(round)) => round.round_id,
            _ => 0,
        };
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: sim.device.id(),
            token: sim.token,
            checkout_iteration: payload.checkout_iteration,
            nonce: payload.nonce,
            round_id: masked_round,
            gradient: match masked_words {
                Some(words) => GradientPayload::Masked { words },
                None => wire_gradient(&payload.gradient),
            },
            num_samples: payload.num_samples as u32,
            error_count: payload.error_count,
            label_counts: payload.label_counts.clone(),
        });
        let t = self.device_span(idx, SpanKind::WireMap, t);
        self.sims[idx].phase = Phase::Checkin { masked_round };
        let t = if self.capturing && self.captures.checkins.len() < CAPTURE {
            self.captures.checkins.push(request.clone());
            if masked_round == 0 {
                self.captures.payloads.push(payload);
            }
            // Capturing is generator work outside the device: restart the clock.
            self.now_ns()
        } else {
            t
        };
        self.send(idx, &request, t);
    }

    /// The samples the device buffered for the round in flight.
    fn last_minibatch(&self, idx: usize) -> Vec<Sample> {
        let sim = &self.sims[idx];
        let n = sim.slice.len();
        (1..=self.workload.minibatch)
            .rev()
            .map(|back| {
                let pos = (sim.cursor + n - back % n) % n;
                self.train.get(sim.slice.start + pos).clone()
            })
            .collect()
    }

    fn fail(&mut self, idx: usize, why: String) {
        self.first_failure
            .get_or_insert_with(|| format!("device {idx}: {why}"));
        self.end_round(idx, RoundEnd::Failed);
    }

    fn end_round(&mut self, idx: usize, end: RoundEnd) {
        let end_ns = self.now_ns();
        let sim = &mut self.sims[idx];
        if sim.phase == Phase::Idle {
            return;
        }
        sim.phase = Phase::Idle;
        self.in_flight -= 1;
        let open = sim.open.take();
        match end {
            RoundEnd::Acked => {
                self.counters.acked += 1;
                self.latencies.push(end_ns - sim.round_start_ns);
                if let Some(open) = open {
                    self.tracer.close_round(open, &sim.acc, end_ns);
                }
            }
            RoundEnd::Outdated => self.counters.outdated += 1,
            RoundEnd::Dropped => self.counters.dropouts += 1,
            RoundEnd::Failed => {
                // A failed device is retired: its connection is gone and the
                // run is already incorrect, so the loop must not spin on it.
                self.counters.failed += 1;
                self.close(idx);
                return;
            }
        }
        if self.workload.reconnect {
            let t = self.tracer.is_on().then(|| self.now_ns());
            self.close(idx);
            if let Some(t) = t {
                self.counters.close_ns += self.now_ns() - t;
            }
            // The next connect waits for the next loop pass, where the
            // admission burst is capped.
            if !self.draining {
                self.admit.push_back(idx);
            }
        } else {
            self.start_round(idx);
        }
    }
}

fn describe(message: &Message) -> String {
    match message {
        Message::Error(e) => format!("error reply {:?} ({})", e.code, e.detail),
        other => format!("unexpected {}", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_linalg::{QuantizedVector, SparseVector};
    use crowd_proto::codec;

    #[test]
    fn counted_streams_count_transferred_bytes_only() {
        let mut sink = Vec::new();
        let mut written = 0u64;
        let mut w = Counted {
            inner: &mut sink,
            bytes: &mut written,
        };
        w.write_all(b"hello").unwrap();
        w.write_all(b", world").unwrap();
        w.flush().unwrap();
        assert_eq!(written, 12);
        assert_eq!(sink, b"hello, world");

        let mut source: &[u8] = b"0123456789";
        let mut read = 0u64;
        let mut r = Counted {
            inner: &mut source,
            bytes: &mut read,
        };
        let mut buf = [0u8; 4];
        // Short reads count what was transferred; EOF counts nothing.
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert_eq!(read, 10);
    }

    fn round_trip(gradient: GradientUpdate) -> GradientPayload {
        let request = Message::CheckinRequest(CheckinRequest {
            device_id: 7,
            token: AuthToken::derive(7, AUTH_SECRET),
            checkout_iteration: 3,
            nonce: 9,
            round_id: 0,
            gradient: wire_gradient(&gradient),
            num_samples: 2,
            error_count: -1,
            label_counts: vec![1, 0, 1],
        });
        let decoded = codec::decode(&codec::encode(&request)).unwrap();
        assert_eq!(decoded, request);
        match decoded {
            Message::CheckinRequest(r) => r.gradient,
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn wire_map_round_trips_all_three_gradient_arms() {
        let dense = vec![0.5, -0.25, 0.0, 1.5];
        match round_trip(GradientUpdate::Dense(Vector::from_vec(dense.clone()))) {
            GradientPayload::Dense(v) => assert_eq!(v, dense),
            other => panic!("dense mapped to {other:?}"),
        }
        let sparse = SparseVector::from_dense(&[0.0, 2.0, 0.0, 0.0, -3.0]);
        match round_trip(GradientUpdate::Sparse(sparse)) {
            GradientPayload::Sparse {
                dim,
                indices,
                values,
            } => {
                assert_eq!(dim, 5);
                assert_eq!(indices, vec![1, 4]);
                assert_eq!(values, vec![2.0, -3.0]);
            }
            other => panic!("sparse mapped to {other:?}"),
        }
        let quantized = QuantizedVector::from_parts(0.125, vec![3, -7, 0, 32767]).unwrap();
        match round_trip(GradientUpdate::Quantized(quantized)) {
            GradientPayload::Quantized { scale, levels } => {
                assert_eq!(scale, 0.125);
                assert_eq!(levels, vec![3, -7, 0, 32767]);
            }
            other => panic!("quantized mapped to {other:?}"),
        }
    }
}
