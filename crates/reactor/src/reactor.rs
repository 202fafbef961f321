//! The reactor: a fixed pool of event-loop threads multiplexing every
//! accepted connection.
//!
//! ## Thread model
//!
//! `threads` reactor threads each own a [`polling::Poller`] and a slab of
//! connections. Thread 0 additionally owns the listening socket; accepted
//! connections are distributed round-robin across all threads through
//! channels paired with [`polling::Poller::notify`] wakeups. Each reactor
//! thread also gets one **completion pump** thread: blocking reply futures
//! (`Response::Pending` closures, e.g. an aggregation completion handle) are
//! executed there, and finished replies are posted back to the owning
//! reactor, so the event loop itself never blocks on anything but the poller.
//!
//! ## Connection protocol
//!
//! Connections are strictly request/reply: the reactor reads frames only
//! while no request from that connection is outstanding and its write queue
//! is empty. Pipelined frames are therefore handled one at a time, and a
//! client that never reads its replies is eventually stopped by TCP flow
//! control rather than unbounded buffering.
//!
//! ## Backpressure by read throttling
//!
//! When the service reports [`Response::Throttle`] (ingest queue full), the
//! connection is *parked*: its read interest is left disarmed — the poller's
//! oneshot semantics make that the default — and the retry closure is invoked
//! on subsequent loop iterations until it produces a reply. The device is
//! slowed by the kernel's receive window instead of a Busy-reply storm.
//!
//! ## Lock discipline
//!
//! The reactor registers **no locks** in the workspace rank table
//! (`// audit:lock` annotations, see `crates/audit`): every slab is owned
//! exclusively by its reactor thread, and all cross-thread traffic —
//! accepted sockets, finished replies, shutdown — flows through `mpsc`
//! channels and atomics. Service callbacks may take locks of their own
//! (e.g. `agg.*` ranks inside the aggregation runtime), but the reactor
//! never holds one across a callback, so it cannot participate in a
//! lock-order cycle.

use crate::frame::{FrameError, FrameReader, FrameWriter, ReadEvent, WriteEvent};
use crowd_proto::frame::SharedFrame;
use crowd_proto::pool::BufPool;
use crowd_proto::Message;
use crowd_telemetry::{CounterId, GaugeId, Registry, Stage};
use polling::{Event, Events, Poller};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// A deferred reply: runs on the completion pump thread, may block.
pub type PendingReply = Box<dyn FnOnce() -> Message + Send + 'static>;

/// A parked request's retry hook: returns `None` while the service still
/// cannot accept the request, or `Some(response)` once it resolved. Must not
/// return [`Response::Throttle`] — park state is expressed by `None`.
pub type RetryFn = Box<dyn FnMut() -> Option<Response> + Send + 'static>;

/// What the [`Service`] wants done with a decoded request.
pub enum Response {
    /// Reply immediately.
    Now(Message),
    /// Reply immediately with a frame the service already encoded — the same
    /// bytes for every connection that gets them, written from one shared
    /// allocation instead of being encoded per connection.
    Framed(SharedFrame),
    /// Reply later; the closure blocks on the pump thread until the reply is
    /// known.
    Pending(PendingReply),
    /// The service cannot accept the request right now (e.g. ingest queue
    /// full). The reactor parks the connection — reads stay disarmed — and
    /// polls `retry` until it yields a response.
    Throttle {
        /// The service's pacing hint (currently informational; parked
        /// connections are retried on every loop iteration).
        retry_after_ms: u32,
        /// Called to re-attempt admission.
        retry: RetryFn,
    },
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Response::Now(m) => f.debug_tuple("Now").field(m).finish(),
            Response::Framed(frame) => write!(f, "Framed({} bytes)", frame.as_bytes().len()),
            Response::Pending(_) => f.write_str("Pending(..)"),
            Response::Throttle { retry_after_ms, .. } => f
                .debug_struct("Throttle")
                .field("retry_after_ms", retry_after_ms)
                .finish(),
        }
    }
}

/// Maps decoded requests to responses. Implementations must be cheap on the
/// immediate path — `handle` runs on a reactor thread.
pub trait Service: Send + Sync + 'static {
    /// Handles one decoded request frame.
    fn handle(&self, message: Message) -> Response;
}

impl<F> Service for F
where
    F: Fn(Message) -> Response + Send + Sync + 'static,
{
    fn handle(&self, message: Message) -> Response {
        self(message)
    }
}

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of reactor (event loop) threads; each gets one pump thread.
    pub threads: usize,
    /// Maximum accepted frame size in bytes.
    pub max_frame: usize,
    /// Hard cap on simultaneously open connections (across all threads);
    /// connections beyond it are dropped at accept.
    pub max_connections: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            threads: 2,
            max_frame: crowd_proto::frame::DEFAULT_MAX_FRAME,
            max_connections: 16 * 1024,
        }
    }
}

/// Point-in-time counters, for tests and operational visibility.
///
/// Since the crowd-scope migration this is a *view* over the reactor's
/// [`Registry`] (`conns_accepted`, `conns_active`, `conns_parked`,
/// `inflight`, `conns_rejected`) — the registry snapshot is the one
/// authoritative stats surface; this struct just names the reactor's slice
/// of it for convenience.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections accepted over the reactor's lifetime.
    pub accepted: u64,
    /// Currently open connections.
    pub active: usize,
    /// Connections parked by backpressure right now.
    pub parked: usize,
    /// Requests waiting on the completion pumps right now.
    pub inflight: usize,
    /// Connections dropped at accept because `max_connections` was reached.
    pub rejected: u64,
}

/// Upper bound on one poller wait; bounds stop-flag latency and parked-retry
/// latency even if a notify is lost.
const TICK: Duration = Duration::from_millis(500);

/// Poller key of the listening socket (thread 0 only). Connection slots use
/// `key = slab_index + 1`; `usize::MAX` is reserved by the poller shim.
const LISTENER_KEY: usize = 0;

struct Shared {
    service: Arc<dyn Service>,
    pool: Arc<BufPool>,
    config: ReactorConfig,
    /// Connection accounting lives in the crowd-scope registry
    /// (`conns_accepted`/`conns_rejected` counters, `conns_active`/
    /// `conns_parked`/`inflight` gauges) — one source for [`ReactorStats`]
    /// and wire scrapes alike.
    metrics: Arc<Registry>,
    stop: AtomicBool,
    accepting: AtomicBool,
    /// Round-robin distribution state for accepted connections (distinct from
    /// the `conns_accepted` telemetry counter, which nothing reads back).
    next_conn: AtomicU64,
    unflushed: AtomicUsize,
    shards: Vec<ShardHandle>,
}

impl Shared {
    fn quiesced(&self) -> bool {
        self.metrics.gauge(GaugeId::Inflight) == 0
            && self.metrics.gauge(GaugeId::ConnsParked) == 0
            && self.unflushed.load(Ordering::Acquire) == 0
    }

    fn notify_all(&self) {
        for shard in &self.shards {
            let _ = shard.poller.notify();
        }
    }
}

struct ShardHandle {
    poller: Arc<Poller>,
    conn_tx: Sender<TcpStream>,
}

/// A reply finished by the completion pump.
struct Done {
    conn: usize,
    generation: u64,
    reply: Message,
}

/// Work for the completion pump thread.
struct PumpJob {
    conn: usize,
    generation: u64,
    wait: PendingReply,
}

/// An event-driven frame server over a fixed reactor thread pool.
pub struct Reactor {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<thread::JoinHandle<()>>,
    pumps: Vec<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts the reactor pool serving `service` on `listener`, with a fresh
    /// private metric registry.
    pub fn start(
        listener: TcpListener,
        service: Arc<dyn Service>,
        pool: Arc<BufPool>,
        config: ReactorConfig,
    ) -> io::Result<Reactor> {
        Self::start_with_metrics(listener, service, pool, config, Arc::new(Registry::new()))
    }

    /// Like [`Reactor::start`], but connection counters, park/resume rates,
    /// and accept/decode spans land in the caller's `metrics` registry — how
    /// a server shares one scrapeable registry across its serving layers.
    pub fn start_with_metrics(
        listener: TcpListener,
        service: Arc<dyn Service>,
        pool: Arc<BufPool>,
        config: ReactorConfig,
        metrics: Arc<Registry>,
    ) -> io::Result<Reactor> {
        let threads = config.threads.max(1);
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut shard_handles = Vec::with_capacity(threads);
        let mut conn_rxs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let poller = Arc::new(Poller::new()?);
            let (conn_tx, conn_rx) = mpsc::channel();
            shard_handles.push(ShardHandle { poller, conn_tx });
            conn_rxs.push(conn_rx);
        }

        let shared = Arc::new(Shared {
            service,
            pool,
            config: ReactorConfig { threads, ..config },
            metrics,
            stop: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            next_conn: AtomicU64::new(0),
            unflushed: AtomicUsize::new(0),
            shards: shard_handles,
        });

        let mut reactor_threads = Vec::with_capacity(threads);
        let mut pump_threads = Vec::with_capacity(threads);
        let mut listener = Some(listener);
        for (idx, conn_rx) in conn_rxs.into_iter().enumerate() {
            let (pump_tx, pump_rx) = mpsc::channel::<PumpJob>();
            let (done_tx, done_rx) = mpsc::channel::<Done>();

            let pump_poller = Arc::clone(&shared.shards[idx].poller);
            let pump = thread::Builder::new()
                .name(format!("crowd-pump-{idx}"))
                .spawn(move || {
                    while let Ok(job) = pump_rx.recv() {
                        let reply = (job.wait)();
                        if done_tx
                            .send(Done {
                                conn: job.conn,
                                generation: job.generation,
                                reply,
                            })
                            .is_err()
                        {
                            break;
                        }
                        let _ = pump_poller.notify();
                    }
                })
                .map_err(|e| io::Error::other(format!("spawning pump thread: {e}")))?;
            pump_threads.push(pump);

            let shard = Shard {
                idx,
                shared: Arc::clone(&shared),
                poller: Arc::clone(&shared.shards[idx].poller),
                listener: if idx == 0 { listener.take() } else { None },
                listener_armed: false,
                conn_rx,
                done_rx,
                pump_tx,
                slab: Slab::new(),
                parked_list: Vec::new(),
            };
            let handle = thread::Builder::new()
                .name(format!("crowd-reactor-{idx}"))
                .spawn(move || shard.run())
                .map_err(|e| io::Error::other(format!("spawning reactor thread: {e}")))?;
            reactor_threads.push(handle);
        }

        Ok(Reactor {
            shared,
            addr,
            threads: reactor_threads,
            pumps: pump_threads,
        })
    }

    /// Address the reactor is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters, read from the reactor's registry.
    pub fn stats(&self) -> ReactorStats {
        let m = &self.shared.metrics;
        ReactorStats {
            accepted: m.counter(CounterId::ConnsAccepted),
            active: m.gauge(GaugeId::ConnsActive).max(0) as usize,
            parked: m.gauge(GaugeId::ConnsParked).max(0) as usize,
            inflight: m.gauge(GaugeId::Inflight).max(0) as usize,
            rejected: m.counter(CounterId::ConnsRejected),
        }
    }

    /// The registry the reactor records into.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Stops accepting new connections (existing ones keep being served).
    pub fn stop_accepting(&self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.notify_all();
    }

    /// Waits (up to `max_wait` 1 ms polls) until no request is in flight, no
    /// connection is parked, and every queued reply has been flushed. Parked
    /// connections only resolve if the service's retry hooks can complete —
    /// e.g. after the ingest queue behind them has been shut down — so call
    /// this *after* draining the service. Returns whether quiescence was
    /// reached.
    pub fn drain(&self, max_wait: usize) -> bool {
        for _ in 0..max_wait {
            if self.shared.quiesced() {
                return true;
            }
            self.shared.notify_all();
            thread::sleep(Duration::from_millis(1));
        }
        self.shared.quiesced()
    }

    /// Stops the event loops and joins all threads. Connections are dropped;
    /// call [`Reactor::drain`] first for a graceful stop.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Reactor threads dropped their pump senders; pumps exit after their
        // current (already-unblocked) job, if any.
        for handle in self.pumps.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Connection slab
// ---------------------------------------------------------------------------

/// Lifecycle of one connection inside its reactor thread.
enum Mode {
    /// Reading requests.
    Idle,
    /// A request is on the pump; reads stay disarmed until its reply.
    Awaiting,
    /// Backpressure: reads disarmed, retry hook polled each iteration.
    Parked { retry: RetryFn },
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    generation: u64,
    mode: Mode,
    /// Whether this connection currently contributes to `Shared::unflushed`.
    counted_unflushed: bool,
    /// A request frame is partially read: the next completed frame counts as
    /// a resume (`frame_resumes`).
    mid_frame: bool,
}

enum Slot {
    Free { next: Option<usize> },
    Used(Box<Conn>),
}

/// Index-stable connection storage with generation counters so completions
/// addressed to a closed (and possibly reused) slot are discarded.
struct Slab {
    slots: Vec<(u64, Slot)>,
    free_head: Option<usize>,
    len: usize,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        self.len += 1;
        match self.free_head {
            Some(idx) => {
                let next = match self.slots[idx].1 {
                    Slot::Free { next } => next,
                    Slot::Used(_) => None, // unreachable by construction
                };
                self.free_head = next;
                self.slots[idx].1 = Slot::Used(Box::new(conn));
                idx
            }
            None => {
                self.slots.push((0, Slot::Used(Box::new(conn))));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        match self.slots.get_mut(idx) {
            Some((_, Slot::Used(conn))) => Some(conn),
            _ => None,
        }
    }

    fn generation(&self, idx: usize) -> Option<u64> {
        self.slots.get(idx).map(|(generation, _)| *generation)
    }

    fn remove(&mut self, idx: usize) -> Option<Box<Conn>> {
        let slot = self.slots.get_mut(idx)?;
        if matches!(slot.1, Slot::Free { .. }) {
            return None;
        }
        slot.0 += 1;
        let old = std::mem::replace(
            &mut slot.1,
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = Some(idx);
        self.len -= 1;
        match old {
            Slot::Used(conn) => Some(conn),
            Slot::Free { .. } => None,
        }
    }

    fn used_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (_, slot))| matches!(slot, Slot::Used(_)).then_some(i))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Reactor thread
// ---------------------------------------------------------------------------

struct Shard {
    idx: usize,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    listener: Option<TcpListener>,
    listener_armed: bool,
    conn_rx: Receiver<TcpStream>,
    done_rx: Receiver<Done>,
    pump_tx: Sender<PumpJob>,
    slab: Slab,
    parked_list: Vec<usize>,
}

enum DriveOutcome {
    Keep,
    Close,
}

impl Shard {
    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .add(listener, Event::readable(LISTENER_KEY))
                .is_ok()
            {
                self.listener_armed = true;
            }
        }
        let mut events = Events::new();
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.sync_listener();
            let _ = self.poller.wait(&mut events, Some(TICK));
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.adopt_new_connections();
            self.apply_completions();
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    self.accept_burst();
                } else {
                    self.drive(event.key - 1);
                }
            }
            self.retry_parked();
        }
        self.teardown();
    }

    /// Arms or disarms the listener to match the accepting flag. Also the
    /// re-arm point after an accept error left the listener disarmed.
    fn sync_listener(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let accepting = self.shared.accepting.load(Ordering::Acquire);
        if accepting && !self.listener_armed {
            self.listener_armed = self
                .poller
                .modify(listener, Event::readable(LISTENER_KEY))
                .is_ok();
        } else if !accepting && self.listener_armed {
            let _ = self.poller.modify(listener, Event::none(LISTENER_KEY));
            self.listener_armed = false;
        }
    }

    fn accept_burst(&mut self) {
        self.listener_armed = false;
        if !self.shared.accepting.load(Ordering::Acquire) {
            return;
        }
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let n = self.shared.next_conn.fetch_add(1, Ordering::AcqRel);
                    self.shared.metrics.incr(CounterId::ConnsAccepted);
                    self.shared.metrics.span(Stage::Accept, n);
                    if self.shared.metrics.gauge(GaugeId::ConnsActive)
                        >= self.shared.config.max_connections as i64
                    {
                        self.shared.metrics.incr(CounterId::ConnsRejected);
                        drop(stream);
                        continue;
                    }
                    let target = (n as usize) % self.shared.config.threads;
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        let shard = &self.shared.shards[target];
                        if shard.conn_tx.send(stream).is_ok() {
                            let _ = shard.poller.notify();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Out of descriptors or a transient accept failure: leave
                    // the listener disarmed for this tick so the loop does
                    // not spin; `sync_listener` re-arms it next iteration.
                    return;
                }
            }
        }
        self.sync_listener();
    }

    fn adopt_new_connections(&mut self) {
        while let Ok(stream) = self.conn_rx.try_recv() {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            stream,
            reader: FrameReader::new(Arc::clone(&self.shared.pool), self.shared.config.max_frame),
            writer: FrameWriter::new(Arc::clone(&self.shared.pool)),
            generation: 0,
            mode: Mode::Idle,
            counted_unflushed: false,
            mid_frame: false,
        };
        let idx = self.slab.insert(conn);
        let generation = self.slab.generation(idx).unwrap_or(0);
        if let Some(conn) = self.slab.get_mut(idx) {
            conn.generation = generation;
        }
        self.shared.metrics.gauge_add(GaugeId::ConnsActive, 1);
        let key = idx + 1;
        let registered = {
            let conn = match self.slab.get_mut(idx) {
                Some(conn) => conn,
                None => return,
            };
            self.poller.add(&conn.stream, Event::readable(key)).is_ok()
        };
        if !registered {
            self.close(idx);
        }
    }

    fn apply_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.shared.metrics.gauge_add(GaugeId::Inflight, -1);
            let matches = self.slab.generation(done.conn) == Some(done.generation)
                && self.slab.get_mut(done.conn).is_some();
            if !matches {
                continue; // connection closed while its reply was pending
            }
            if let Some(conn) = self.slab.get_mut(done.conn) {
                conn.writer.enqueue(&done.reply);
                conn.mode = Mode::Idle;
            }
            self.drive(done.conn);
        }
    }

    /// Re-attempts every parked connection. Called once per loop iteration:
    /// each attempt is one cheap admission probe against the service.
    fn retry_parked(&mut self) {
        if self.parked_list.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked_list);
        for idx in parked {
            let response = {
                let Some(conn) = self.slab.get_mut(idx) else {
                    continue;
                };
                let Mode::Parked { retry } = &mut conn.mode else {
                    continue;
                };
                match retry() {
                    None => {
                        self.parked_list.push(idx);
                        continue;
                    }
                    Some(response) => response,
                }
            };
            self.unpark(idx);
            self.apply_response(idx, response);
            self.drive(idx);
        }
    }

    fn unpark(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx) {
            if matches!(conn.mode, Mode::Parked { .. }) {
                conn.mode = Mode::Idle;
                self.shared.metrics.gauge_add(GaugeId::ConnsParked, -1);
            }
        }
    }

    /// Applies a service response to a connection (which must be `Idle`).
    fn apply_response(&mut self, idx: usize, response: Response) {
        let generation = self.slab.generation(idx).unwrap_or(0);
        let Some(conn) = self.slab.get_mut(idx) else {
            return;
        };
        match response {
            Response::Now(reply) => {
                conn.writer.enqueue(&reply);
            }
            Response::Framed(frame) => {
                conn.writer.enqueue_frame(frame);
            }
            Response::Pending(wait) => {
                conn.mode = Mode::Awaiting;
                self.shared.metrics.gauge_add(GaugeId::Inflight, 1);
                let job = PumpJob {
                    conn: idx,
                    generation,
                    wait,
                };
                if self.pump_tx.send(job).is_err() {
                    // Pump gone (shutdown); the connection will be dropped
                    // with the reactor.
                    self.shared.metrics.gauge_add(GaugeId::Inflight, -1);
                }
            }
            Response::Throttle { retry, .. } => {
                conn.mode = Mode::Parked { retry };
                self.shared.metrics.incr(CounterId::Parks);
                self.shared.metrics.gauge_add(GaugeId::ConnsParked, 1);
                self.parked_list.push(idx);
            }
        }
    }

    /// Pumps one connection: flush queued replies, then (if idle) read and
    /// handle requests, then arm the poller for whatever it still waits on.
    fn drive(&mut self, idx: usize) {
        let outcome = self.drive_inner(idx);
        match outcome {
            DriveOutcome::Keep => self.account_unflushed(idx),
            DriveOutcome::Close => self.close(idx),
        }
    }

    fn drive_inner(&mut self, idx: usize) -> DriveOutcome {
        loop {
            // Phase 1: drain the write queue.
            {
                let Some(conn) = self.slab.get_mut(idx) else {
                    return DriveOutcome::Keep;
                };
                if !conn.writer.is_idle() {
                    match conn.writer.poll_write(&mut conn.stream) {
                        Ok(WriteEvent::Flushed) => {}
                        Ok(WriteEvent::NeedMore) => {
                            let key = idx + 1;
                            let _ = self.poller.modify(&conn.stream, Event::writable(key));
                            return DriveOutcome::Keep;
                        }
                        Err(_) => return DriveOutcome::Close,
                    }
                }
            }
            // Phase 2: only an idle connection reads the next request.
            let response = {
                let Some(conn) = self.slab.get_mut(idx) else {
                    return DriveOutcome::Keep;
                };
                if !matches!(conn.mode, Mode::Idle) {
                    // Awaiting or parked: stay disarmed until completion.
                    return DriveOutcome::Keep;
                }
                match conn.reader.poll_read(&mut conn.stream) {
                    Ok(ReadEvent::Frame(message)) => {
                        if conn.mid_frame {
                            conn.mid_frame = false;
                            self.shared.metrics.incr(CounterId::FrameResumes);
                        }
                        self.shared.metrics.span(Stage::FrameDecode, idx as u64);
                        self.shared.service.handle(message)
                    }
                    Ok(ReadEvent::NeedMore) => {
                        conn.mid_frame = conn.reader.mid_frame();
                        let key = idx + 1;
                        let _ = self.poller.modify(&conn.stream, Event::readable(key));
                        return DriveOutcome::Keep;
                    }
                    Ok(ReadEvent::Closed) => return DriveOutcome::Close,
                    Err(FrameError::Io(_))
                    | Err(FrameError::Proto(_))
                    | Err(FrameError::TruncatedFrame { .. }) => return DriveOutcome::Close,
                }
            };
            self.apply_response(idx, response);
            // Loop: flush the reply (phase 1) and, if the response was
            // immediate and fully flushed, keep reading pipelined frames.
        }
    }

    fn account_unflushed(&mut self, idx: usize) {
        let Some(conn) = self.slab.get_mut(idx) else {
            return;
        };
        let busy = !conn.writer.is_idle();
        if busy && !conn.counted_unflushed {
            conn.counted_unflushed = true;
            self.shared.unflushed.fetch_add(1, Ordering::AcqRel);
        } else if !busy && conn.counted_unflushed {
            conn.counted_unflushed = false;
            self.shared.unflushed.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slab.remove(idx) else {
            return;
        };
        let _ = self.poller.delete(&conn.stream);
        self.shared.metrics.gauge_add(GaugeId::ConnsActive, -1);
        if conn.counted_unflushed {
            self.shared.unflushed.fetch_sub(1, Ordering::AcqRel);
        }
        if matches!(conn.mode, Mode::Parked { .. }) {
            self.shared.metrics.gauge_add(GaugeId::ConnsParked, -1);
        }
        // An Awaiting connection's pump reply is discarded by the generation
        // check in `apply_completions`.
    }

    fn teardown(&mut self) {
        for idx in self.slab.used_indices() {
            self.close(idx);
        }
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(&listener);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_proto::frame::{read_message, write_message};
    use crowd_proto::message::{CheckinAck, ErrorCode, ErrorReply};
    use std::io::Write;
    use std::sync::Mutex;

    fn ping(n: u64) -> Message {
        Message::CheckinAck(CheckinAck {
            accepted: true,
            iteration: n,
            stopped: false,
            deduped: false,
        })
    }

    fn echo_service() -> Arc<dyn Service> {
        Arc::new(|message: Message| Response::Now(message))
    }

    fn start(service: Arc<dyn Service>, threads: usize) -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            service,
            Arc::new(BufPool::default()),
            ReactorConfig {
                threads,
                ..ReactorConfig::default()
            },
        )
        .unwrap()
    }

    fn exchange(addr: SocketAddr, request: &Message) -> Message {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, request).unwrap();
        read_message(&mut stream).unwrap()
    }

    #[test]
    fn echo_round_trip_over_reactor() {
        let reactor = start(echo_service(), 2);
        let addr = reactor.local_addr();
        for i in 0..16 {
            assert_eq!(exchange(addr, &ping(i)), ping(i));
        }
        assert!(reactor.stats().accepted >= 16);
        reactor.stop();
    }

    #[test]
    fn many_sequential_requests_on_one_connection() {
        let reactor = start(echo_service(), 1);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for i in 0..200 {
            write_message(&mut stream, &ping(i)).unwrap();
            assert_eq!(read_message(&mut stream).unwrap(), ping(i));
        }
        drop(stream);
        reactor.stop();
    }

    #[test]
    fn pending_replies_flow_through_the_pump() {
        let service: Arc<dyn Service> = Arc::new(|message: Message| {
            Response::Pending(Box::new(move || {
                thread::sleep(Duration::from_millis(5));
                message
            }))
        });
        let reactor = start(service, 2);
        let addr = reactor.local_addr();
        let workers: Vec<_> = (0..8)
            .map(|i| thread::spawn(move || exchange(addr, &ping(i)) == ping(i)))
            .collect();
        for worker in workers {
            assert!(worker.join().unwrap());
        }
        assert!(reactor.drain(2000));
        reactor.stop();
    }

    #[test]
    fn throttled_requests_park_and_resolve() {
        // Admit nothing for the first 3 probes of each request, then echo.
        let service: Arc<dyn Service> = Arc::new(|message: Message| {
            let mut probes = 0u32;
            let mut slot = Some(message);
            Response::Throttle {
                retry_after_ms: 1,
                retry: Box::new(move || {
                    probes += 1;
                    if probes < 3 {
                        return None;
                    }
                    slot.take().map(Response::Now)
                }),
            }
        });
        let reactor = start(service, 1);
        let addr = reactor.local_addr();
        assert_eq!(exchange(addr, &ping(9)), ping(9));
        assert!(reactor.drain(2000));
        assert_eq!(reactor.stats().parked, 0);
        reactor.stop();
    }

    #[test]
    fn interleaved_partial_frames_across_connections() {
        let reactor = start(echo_service(), 1);
        let addr = reactor.local_addr();

        let mut frame_a = Vec::new();
        write_message(&mut frame_a, &ping(1)).unwrap();
        let mut frame_b = Vec::new();
        write_message(&mut frame_b, &ping(2)).unwrap();

        let mut conn_a = TcpStream::connect(addr).unwrap();
        let mut conn_b = TcpStream::connect(addr).unwrap();

        // A sends half a frame, then B sends a whole one: B must be answered
        // while A's fragment sits buffered.
        conn_a.write_all(&frame_a[..frame_a.len() / 2]).unwrap();
        conn_a.flush().unwrap();
        conn_b.write_all(&frame_b).unwrap();
        assert_eq!(read_message(&mut conn_b).unwrap(), ping(2));

        // A completes its frame and gets its reply.
        conn_a.write_all(&frame_a[frame_a.len() / 2..]).unwrap();
        assert_eq!(read_message(&mut conn_a).unwrap(), ping(1));
        reactor.stop();
    }

    #[test]
    fn oversized_frame_drops_the_connection_but_not_the_reactor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = Reactor::start(
            listener,
            echo_service(),
            Arc::new(BufPool::default()),
            ReactorConfig {
                threads: 1,
                max_frame: 1024,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = reactor.local_addr();
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&(1024u32 * 1024).to_le_bytes()).unwrap();
        // The oversized connection is closed...
        let mut probe = [0u8; 1];
        bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(std::io::Read::read(&mut bad, &mut probe).unwrap(), 0);
        // ...while fresh connections keep working.
        assert_eq!(exchange(addr, &ping(5)), ping(5));
        reactor.stop();
    }

    #[test]
    fn mid_frame_disconnect_is_tolerated() {
        let reactor = start(echo_service(), 1);
        let addr = reactor.local_addr();
        let mut frame = Vec::new();
        write_message(&mut frame, &ping(3)).unwrap();
        {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(&frame[..3]).unwrap();
        } // dropped mid-frame
        assert_eq!(exchange(addr, &ping(4)), ping(4));
        reactor.stop();
    }

    #[test]
    fn stop_accepting_refuses_new_but_serves_existing() {
        let reactor = start(echo_service(), 1);
        let addr = reactor.local_addr();
        let mut existing = TcpStream::connect(addr).unwrap();
        write_message(&mut existing, &ping(1)).unwrap();
        assert_eq!(read_message(&mut existing).unwrap(), ping(1));

        reactor.stop_accepting();
        // Existing connection still served.
        write_message(&mut existing, &ping(2)).unwrap();
        assert_eq!(read_message(&mut existing).unwrap(), ping(2));
        // New connections connect (backlog) but are never accepted/served.
        let mut fresh = TcpStream::connect(addr).unwrap();
        fresh
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        write_message(&mut fresh, &ping(3)).unwrap();
        assert!(read_message(&mut fresh).is_err());
        reactor.stop();
    }

    #[test]
    fn generation_guard_discards_replies_for_closed_connections() {
        // A pending reply that outlives its connection must be dropped, not
        // delivered to a reused slot.
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let gate2 = Arc::clone(&gate);
        let service: Arc<dyn Service> = Arc::new(move |message: Message| {
            let gate = Arc::clone(&gate2);
            Response::Pending(Box::new(move || {
                let _wait = gate.lock().unwrap_or_else(|e| e.into_inner());
                message
            }))
        });
        let reactor = start(service, 1);
        let addr = reactor.local_addr();
        let mut doomed = TcpStream::connect(addr).unwrap();
        write_message(&mut doomed, &ping(7)).unwrap();
        thread::sleep(Duration::from_millis(50)); // request reaches the pump
        drop(doomed); // close while pending
        drop(held); // let the pump finish; reply must be discarded
        thread::sleep(Duration::from_millis(50));
        // Slot reuse: a new connection works and gets only its own reply.
        let service_alive = exchange(addr, &ping(8));
        assert_eq!(service_alive, ping(8));
        assert!(reactor.drain(2000));
        reactor.stop();
    }

    #[test]
    fn error_replies_pass_through() {
        let service: Arc<dyn Service> = Arc::new(|_message: Message| {
            Response::Now(Message::Error(ErrorReply {
                code: ErrorCode::Internal,
                detail: "nope".into(),
                round_id: 0,
            }))
        });
        let reactor = start(service, 1);
        let reply = exchange(reactor.local_addr(), &ping(1));
        assert!(matches!(reply, Message::Error(_)));
        reactor.stop();
    }
}
