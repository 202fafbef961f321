//! The reactor: one event-loop thread multiplexing every accepted
//! connection.
//!
//! ## Thread model
//!
//! The reactor runs one thread, `crowd-reactor`, and no other. That event
//! loop owns the listening socket, a [`polling::Poller`], the slab of
//! connections and the channel that completions arrive on, adopts every
//! connection it accepts, and never blocks on anything but the poller. The
//! server it fronts serializes every checkin on one lock anyway, so a
//! second loop would only run more syscalls in parallel, at the price of
//! its own wake-ups and a hand-off per accepted connection.
//!
//! A request whose reply is not known when [`Service::handle`] returns has
//! one way to be answered later: the service takes a one-shot [`Completer`]
//! from the request's [`Ctx`] and returns [`Response::Deferred`]. Whichever
//! thread learns the reply fires the completer, which posts the reply
//! straight to the event loop and wakes its poller. Nothing waits: the reply
//! comes from work some other thread finishes anyway (a WAL committer after
//! its `fsync`, a blocking caller that ran a queued checkin). A service with
//! work that would block finds it such a thread; it never blocks the loop.
//!
//! ## Connection protocol
//!
//! Connections are strictly request/reply: the reactor reads frames only
//! while no request from that connection is outstanding and its write queue
//! is empty. Pipelined frames are therefore handled one at a time, and a
//! client that never reads its replies is eventually stopped by TCP flow
//! control rather than unbounded buffering.
//!
//! Every socket is registered with the poller once, edge-triggered: the
//! listener and each connection with read interest when adopted, and a
//! connection gains write interest, for good, on the first reply the socket
//! cannot take whole. Nothing is re-armed, so a request costs one `recv`, one
//! `send` and no `epoll_ctl`. An edge reports only *new* arrivals, so each
//! connection keeps a `readable` flag: every readable event sets it, and it
//! is cleared before a read that starts from an empty read buffer and after
//! a read that came back short. A connection reads on when the flag is set,
//! when its reader holds buffered bytes, or when its last `read` filled the
//! whole buffer it was offered. Otherwise
//! ([`FrameReader::drained`](crate::frame::FrameReader::drained)) the socket
//! was empty at that read and nothing has arrived since, so the reactor skips
//! the syscall that would only see `EAGAIN`: a request that arrives later is
//! a new edge, and its event drives the connection. This holds for the reply
//! written in the same drive, for one a [`Completer`] posted and for a
//! parked request's retry, whichever of them comes first.
//!
//! ## Backpressure by read throttling
//!
//! When the service reports [`Response::Throttle`] (ingest queue full), the
//! connection is *parked*: the reactor reads nothing more from it — its
//! events only set the `readable` flag — and the retry closure is invoked on
//! subsequent loop iterations until it produces a reply. Parked requests
//! wait on one admission queue, so a pass over them stops at the first one
//! still refused. The device is slowed by the kernel's receive window
//! instead of a Busy-reply storm.
//!
//! ## Lock discipline
//!
//! The reactor registers **no locks** in the workspace rank table
//! (`// audit:lock` annotations, see `crates/audit`): the slab is owned
//! exclusively by the event loop, accepted sockets never leave it, and the
//! only cross-thread traffic — finished replies and shutdown — flows
//! through one `mpsc` channel and atomics. Service callbacks may take locks
//! of their own (e.g. `agg.*` ranks inside the aggregation runtime), but
//! the reactor never holds one across a callback, so it cannot participate
//! in a lock-order cycle.

use crate::frame::{FrameError, FrameReader, FrameWriter, ReadEvent, WriteEvent};
use crowd_proto::frame::{SharedFrame, DEFAULT_MAX_FRAME};
use crowd_proto::pool::BufPool;
use crowd_proto::Message;
use crowd_telemetry::{CounterId, GaugeId, Registry};
use polling::{Event, Events, PollMode, Poller};
use std::cell::Cell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// A parked request's retry hook: returns `None` while the service still
/// cannot accept the request, or `Some(response)` once it resolved. Must not
/// return [`Response::Throttle`] — park state is expressed by `None`. The
/// [`Ctx`] is the parked request's, as in [`Service::handle`].
pub type RetryFn = Box<dyn FnMut(&Ctx<'_>) -> Option<Response> + Send + 'static>;

/// What the [`Service`] wants done with a decoded request.
pub enum Response {
    /// Reply immediately.
    Now(Message),
    /// Reply immediately with a frame the service already encoded — the same
    /// bytes for every connection that gets them, written from one shared
    /// allocation instead of being encoded per connection.
    Framed(SharedFrame),
    /// Reply later, without a waiting thread: the service took the request's
    /// [`Completer`] (see [`Ctx::completer`]) and some thread will fire it.
    /// The connection reads no further request until then.
    Deferred,
    /// The service cannot accept the request right now (e.g. ingest queue
    /// full). The reactor parks the connection — it reads no further
    /// request — and polls `retry` until it yields a response.
    Throttle {
        /// The service's pacing hint: parked connections are re-probed in
        /// park order on every loop iteration, until the first refusal, and
        /// an otherwise idle event loop wakes up after this long (at least
        /// 1 ms) to probe them.
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
            Response::Deferred => f.write_str("Deferred"),
            Response::Throttle { retry_after_ms, .. } => f
                .debug_struct("Throttle")
                .field("retry_after_ms", retry_after_ms)
                .finish(),
        }
    }
}

/// Maps decoded requests to responses. Implementations must be cheap on the
/// immediate path — `handle` runs on the event loop.
pub trait Service: Send + Sync + 'static {
    /// Handles one decoded request frame. `ctx` identifies the request to
    /// the reactor, for a reply that will be known only later.
    fn handle(&self, message: Message, ctx: &Ctx<'_>) -> Response;
}

impl<F> Service for F
where
    F: Fn(Message, &Ctx<'_>) -> Response + Send + Sync + 'static,
{
    fn handle(&self, message: Message, ctx: &Ctx<'_>) -> Response {
        self(message, ctx)
    }
}

/// One request as the reactor knows it: which connection it arrived on, and
/// how to reach the event loop that owns that connection.
pub struct Ctx<'a> {
    done_tx: &'a Sender<Done>,
    poller: &'a Arc<Poller>,
    conn: usize,
    generation: u64,
    /// Whether a completer was handed out, which is what
    /// [`Response::Deferred`] promises.
    deferred: Cell<bool>,
}

impl<'a> Ctx<'a> {
    fn new(done_tx: &'a Sender<Done>, poller: &'a Arc<Poller>, slab: &Slab, conn: usize) -> Self {
        Ctx {
            done_tx,
            poller,
            conn,
            generation: slab.generation(conn).unwrap_or(0),
            deferred: Cell::new(false),
        }
    }

    /// The request's one-shot completion handle. A service that takes it
    /// answers [`Response::Deferred`] (or, from a retry hook,
    /// `Some(Response::Deferred)`); one that answers any other way must not
    /// take it.
    pub fn completer(&self) -> Completer {
        self.deferred.set(true);
        Completer {
            done_tx: self.done_tx.clone(),
            poller: Arc::clone(self.poller),
            conn: self.conn,
            generation: self.generation,
            fired: false,
        }
    }
}

/// The reply-later half of [`Response::Deferred`]: resolves its connection
/// exactly once, from any thread.
///
/// [`Completer::complete`] posts the reply to the event loop and wakes it;
/// the reply is written and the connection reads its next request. It may
/// run before `handle` has even returned — only the loop consumes
/// completions, and it does so after it has marked the connection as
/// waiting. A completer dropped without completing releases the connection
/// instead: the reactor closes it, since it can invent no reply. Either way
/// a completion for a connection that closed in the meantime is discarded
/// by the slab's generation check.
pub struct Completer {
    done_tx: Sender<Done>,
    poller: Arc<Poller>,
    conn: usize,
    generation: u64,
    fired: bool,
}

impl Completer {
    /// Answers the request with `reply`.
    pub fn complete(mut self, reply: Message) {
        self.post(Some(reply));
    }

    fn post(&mut self, reply: Option<Message>) {
        self.fired = true;
        let done = Done {
            conn: self.conn,
            generation: self.generation,
            reply,
        };
        // A send fails only when the event loop is gone, and its
        // connections with it.
        if self.done_tx.send(done).is_ok() {
            let _ = self.poller.notify();
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.fired {
            self.post(None);
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
    /// Requests whose reply is still to come: deferred replies whose
    /// [`Completer`] has not fired yet.
    pub inflight: usize,
    /// Connections dropped at accept because the connection cap was reached.
    pub rejected: u64,
}

/// Hard cap on simultaneously open connections; connections beyond it are
/// dropped at accept.
const MAX_CONNECTIONS: i64 = 16 * 1024;

/// Upper bound on one poller wait; bounds stop-flag latency even if a notify
/// is lost. A loop with parked connections waits no longer than their
/// retry hints (see [`EventLoop::wait_timeout`]).
const TICK: Duration = Duration::from_millis(500);

/// Poller key of the listening socket. Connection slots use
/// `key = slab_index + 1`; `usize::MAX` is reserved by the poller shim.
const LISTENER_KEY: usize = 0;

/// State the event loop shares with the [`Reactor`] handle.
struct Shared {
    /// Connection accounting lives in the crowd-scope registry
    /// (`conns_accepted`/`conns_rejected` counters, `conns_active`/
    /// `conns_parked`/`inflight` gauges) — one source for [`ReactorStats`]
    /// and wire scrapes alike.
    metrics: Arc<Registry>,
    stop: AtomicBool,
    accepting: AtomicBool,
    unflushed: AtomicUsize,
}

impl Shared {
    fn quiesced(&self) -> bool {
        self.metrics.gauge(GaugeId::Inflight) == 0
            && self.metrics.gauge(GaugeId::ConnsParked) == 0
            && self.unflushed.load(Ordering::Acquire) == 0
    }
}

/// A reply that became known off the event loop, posted by a [`Completer`].
/// `None` is a completer dropped unfired — there is no reply, and the
/// connection is closed.
struct Done {
    conn: usize,
    generation: u64,
    reply: Option<Message>,
}

/// An event-driven frame server on one event-loop thread.
pub struct Reactor {
    shared: Arc<Shared>,
    /// The loop's poller, for waking it from outside.
    poller: Arc<Poller>,
    addr: SocketAddr,
    thread: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts the event loop serving `service` on `listener`. Connection
    /// counters and park/resume rates land in `metrics` — how a server
    /// shares one scrapeable registry across its serving layers.
    pub fn start(
        listener: TcpListener,
        service: Arc<dyn Service>,
        pool: Arc<BufPool>,
        metrics: Arc<Registry>,
    ) -> io::Result<Reactor> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Arc::new(Poller::new()?);
        let shared = Arc::new(Shared {
            metrics,
            stop: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            unflushed: AtomicUsize::new(0),
        });
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let event_loop = EventLoop {
            service,
            pool,
            shared: Arc::clone(&shared),
            poller: Arc::clone(&poller),
            listener,
            listener_armed: false,
            done_tx,
            done_rx,
            slab: Slab::new(),
            parked_list: Vec::new(),
        };
        let thread = thread::Builder::new()
            .name("crowd-reactor".into())
            .spawn(move || event_loop.run())
            .map_err(|e| io::Error::other(format!("spawning reactor thread: {e}")))?;
        Ok(Reactor {
            shared,
            poller,
            addr,
            thread: Some(thread),
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
        self.notify();
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
            self.notify();
            thread::sleep(Duration::from_millis(1));
        }
        self.shared.quiesced()
    }

    /// Stops the event loop and joins its thread. Connections are dropped;
    /// call [`Reactor::drain`] first for a graceful stop.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn notify(&self) {
        let _ = self.poller.notify();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.thread.take() {
            self.shared.stop.store(true, Ordering::Release);
            self.notify();
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

// ---------------------------------------------------------------------------
// Connection slab
// ---------------------------------------------------------------------------

/// Lifecycle of one connection inside the event loop.
enum Mode {
    /// Reading requests.
    Idle,
    /// A request's reply is deferred; nothing is read until it arrives.
    Awaiting,
    /// Backpressure: nothing is read, the retry hook is polled each iteration
    /// and at least every `retry_after_ms`.
    Parked { retry: RetryFn, retry_after_ms: u32 },
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
    /// Bytes (or EOF) may have arrived since the last read that found the
    /// socket empty: set by every readable event, cleared before a read that
    /// starts from an empty read buffer and after one that ends short.
    readable: bool,
    /// Whether the registration carries write interest. It is added on the
    /// first reply the socket cannot take whole, and kept.
    write_armed: bool,
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

    fn get(&self, idx: usize) -> Option<&Conn> {
        match self.slots.get(idx) {
            Some((_, Slot::Used(conn))) => Some(conn),
            _ => None,
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
// Event loop
// ---------------------------------------------------------------------------

struct EventLoop {
    service: Arc<dyn Service>,
    pool: Arc<BufPool>,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    /// Closed when the loop is dropped, which also unregisters it.
    listener: TcpListener,
    /// Whether the listener's registration carries read interest and no
    /// accept error has been left behind since; `sync_listener` restores it.
    listener_armed: bool,
    /// Cloned into every [`Completer`]; keeping one here also keeps
    /// `done_rx` connected for the loop's whole life.
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    slab: Slab,
    parked_list: Vec<usize>,
}

enum DriveOutcome {
    Keep,
    Close,
}

impl EventLoop {
    fn run(mut self) {
        self.listener_armed = self
            .poller
            .add_with_mode(
                &self.listener,
                Event::readable(LISTENER_KEY),
                PollMode::Edge,
            )
            .is_ok();
        let mut events = Events::new();
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.sync_listener();
            let _ = self.poller.wait(&mut events, Some(self.wait_timeout()));
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            self.apply_completions();
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    self.accept_burst();
                    continue;
                }
                let idx = event.key - 1;
                if let Some(conn) = self.slab.get_mut(idx) {
                    conn.readable |= event.readable;
                }
                self.drive(idx);
            }
            self.retry_parked();
        }
        self.teardown();
    }

    /// How long the loop may sleep: `TICK`, or — while connections are
    /// parked — the smallest of their retry hints (at least 1 ms), so a
    /// loop with no other traffic still re-probes them when the service
    /// asked it to, not half a second later.
    fn wait_timeout(&self) -> Duration {
        let hint = self
            .parked_list
            .iter()
            .filter_map(|&idx| match self.slab.get(idx).map(|conn| &conn.mode) {
                Some(Mode::Parked { retry_after_ms, .. }) => Some(*retry_after_ms),
                _ => None,
            })
            .min();
        match hint {
            Some(ms) => Duration::from_millis(u64::from(ms.max(1))).min(TICK),
            None => TICK,
        }
    }

    /// Gives the listener read interest or takes it away, to match the
    /// accepting flag. Also the retry point after an accept error: the
    /// `EPOLL_CTL_MOD` re-checks readiness, so connections still waiting in
    /// the backlog are reported by the next wait although no new edge came.
    fn sync_listener(&mut self) {
        let accepting = self.shared.accepting.load(Ordering::Acquire);
        if accepting && !self.listener_armed {
            self.listener_armed = self
                .poller
                .modify_with_mode(
                    &self.listener,
                    Event::readable(LISTENER_KEY),
                    PollMode::Edge,
                )
                .is_ok();
        } else if !accepting && self.listener_armed {
            let _ = self.poller.modify_with_mode(
                &self.listener,
                Event::none(LISTENER_KEY),
                PollMode::Edge,
            );
            self.listener_armed = false;
        }
    }

    /// Accepts until the backlog is empty: the listener is edge-triggered,
    /// so connections left waiting would not be reported again.
    fn accept_burst(&mut self) {
        if !self.shared.accepting.load(Ordering::Acquire) {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared.metrics.incr(CounterId::ConnsAccepted);
                    if self.shared.metrics.gauge(GaugeId::ConnsActive) >= MAX_CONNECTIONS {
                        self.shared.metrics.incr(CounterId::ConnsRejected);
                        drop(stream);
                        continue;
                    }
                    self.adopt(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Out of descriptors or a transient accept failure: stop
                    // for this tick so the loop does not spin, and have
                    // `sync_listener` re-check the backlog next iteration.
                    self.listener_armed = false;
                    return;
                }
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            stream,
            reader: FrameReader::new(Arc::clone(&self.pool), DEFAULT_MAX_FRAME),
            writer: FrameWriter::new(Arc::clone(&self.pool)),
            generation: 0,
            mode: Mode::Idle,
            counted_unflushed: false,
            mid_frame: false,
            readable: false,
            write_armed: false,
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
            // Registered once, for good: a request that arrived before the
            // registration is reported by the first wait.
            self.poller
                .add_with_mode(&conn.stream, Event::readable(key), PollMode::Edge)
                .is_ok()
        };
        if !registered {
            self.close(idx);
        }
    }

    fn apply_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.shared.metrics.gauge_add(GaugeId::Inflight, -1);
            let awaited = self.slab.generation(done.conn) == Some(done.generation)
                && matches!(
                    self.slab.get(done.conn).map(|conn| &conn.mode),
                    Some(Mode::Awaiting)
                );
            if !awaited {
                continue; // connection closed while its reply was pending
            }
            let Some(reply) = done.reply else {
                self.close(done.conn); // abandoned by the service
                continue;
            };
            if let Some(conn) = self.slab.get_mut(done.conn) {
                conn.writer.enqueue(&reply);
                conn.mode = Mode::Idle;
            }
            self.drive(done.conn);
        }
    }

    /// Re-attempts parked connections in the order they parked. Called once
    /// per loop iteration: each attempt is one cheap admission probe against
    /// the service. Parked requests wait on the same admission queue, so the
    /// pass ends at the first refusal: that connection goes to the back of
    /// the list and the ones behind it, not yet probed, keep their places
    /// ahead of it — the next pass starts with them, so none is starved.
    fn retry_parked(&mut self) {
        if self.parked_list.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked_list).into_iter();
        while let Some(idx) = parked.next() {
            let (response, deferred) = {
                let ctx = Ctx::new(&self.done_tx, &self.poller, &self.slab, idx);
                let Some(conn) = self.slab.get_mut(idx) else {
                    continue;
                };
                let Mode::Parked { retry, .. } = &mut conn.mode else {
                    continue;
                };
                match retry(&ctx) {
                    None => {
                        // Ahead of anything parked during this pass.
                        let parked_since = std::mem::take(&mut self.parked_list);
                        self.parked_list.extend(parked);
                        self.parked_list.push(idx);
                        self.parked_list.extend(parked_since);
                        return;
                    }
                    Some(response) => (response, ctx.deferred.get()),
                }
            };
            self.unpark(idx);
            self.apply_response(idx, response, deferred);
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
    /// `deferred` is whether the service took the request's completer.
    fn apply_response(&mut self, idx: usize, response: Response, deferred: bool) {
        debug_assert_eq!(
            deferred,
            matches!(response, Response::Deferred),
            "a completer is taken exactly when the response is Deferred"
        );
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
            Response::Deferred => {
                // The completion may already sit in `done_rx`: the loop is its
                // only consumer, and gets to it after this.
                conn.mode = Mode::Awaiting;
                self.shared.metrics.gauge_add(GaugeId::Inflight, 1);
            }
            Response::Throttle {
                retry,
                retry_after_ms,
            } => {
                conn.mode = Mode::Parked {
                    retry,
                    retry_after_ms,
                };
                self.shared.metrics.incr(CounterId::Parks);
                self.shared.metrics.gauge_add(GaugeId::ConnsParked, 1);
                self.parked_list.push(idx);
            }
        }
    }

    /// Pumps one connection: flush queued replies, then (if idle) read and
    /// handle requests. Nothing is re-armed: the connection's registration
    /// reports every arrival, and `Conn::readable` remembers one that no read
    /// has consumed yet.
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
                            if !conn.write_armed {
                                // The modify re-checks readiness: space freed
                                // since the write fires the next wait.
                                let all = Event::all(idx + 1);
                                if self
                                    .poller
                                    .modify_with_mode(&conn.stream, all, PollMode::Edge)
                                    .is_err()
                                {
                                    return DriveOutcome::Close;
                                }
                                conn.write_armed = true;
                            }
                            return DriveOutcome::Keep;
                        }
                        Err(_) => return DriveOutcome::Close,
                    }
                }
            }
            // Phase 2: only an idle connection reads the next request.
            let (response, deferred) = {
                let ctx = Ctx::new(&self.done_tx, &self.poller, &self.slab, idx);
                let Some(conn) = self.slab.get_mut(idx) else {
                    return DriveOutcome::Keep;
                };
                if !matches!(conn.mode, Mode::Idle) {
                    // Awaiting or parked: read nothing until it resolves.
                    return DriveOutcome::Keep;
                }
                if !conn.readable && conn.reader.drained() {
                    // The last read found the socket empty, nothing is
                    // buffered and no event has come since: a read now would
                    // only return EAGAIN. Bytes that arrive later are a new
                    // edge, and their event drives the connection.
                    return DriveOutcome::Keep;
                }
                if !conn.reader.mid_frame() {
                    // This call reads, and an arrival after the read is a new
                    // edge. With bytes buffered it might return a frame
                    // without reading, so the flag stays.
                    conn.readable = false;
                }
                match conn.reader.poll_read(&mut conn.stream) {
                    Ok(ReadEvent::Frame(message)) => {
                        if conn.mid_frame {
                            conn.mid_frame = false;
                            self.shared.metrics.incr(CounterId::FrameResumes);
                        }
                        let response = self.service.handle(message, &ctx);
                        (response, ctx.deferred.get())
                    }
                    Ok(ReadEvent::NeedMore) => {
                        // The call's last read came back short or
                        // `WouldBlock`: anything later is a new edge.
                        conn.mid_frame = conn.reader.mid_frame();
                        conn.readable = false;
                        return DriveOutcome::Keep;
                    }
                    Ok(ReadEvent::Closed) => return DriveOutcome::Close,
                    Err(FrameError::Io(_))
                    | Err(FrameError::Proto(_))
                    | Err(FrameError::TruncatedFrame { .. }) => return DriveOutcome::Close,
                }
            };
            self.apply_response(idx, response, deferred);
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

    /// Drops a connection. Closing its socket, the only descriptor of it,
    /// also takes it off the poller's interest list, so no `delete` is due.
    fn close(&mut self, idx: usize) {
        let Some(conn) = self.slab.remove(idx) else {
            return;
        };
        self.shared.metrics.gauge_add(GaugeId::ConnsActive, -1);
        if conn.counted_unflushed {
            self.shared.unflushed.fetch_sub(1, Ordering::AcqRel);
        }
        if matches!(conn.mode, Mode::Parked { .. }) {
            self.shared.metrics.gauge_add(GaugeId::ConnsParked, -1);
        }
        // An Awaiting connection's deferred reply is discarded by the
        // generation check in `apply_completions`.
    }

    /// Closes every connection; the listener goes with the loop.
    fn teardown(&mut self) {
        for idx in self.slab.used_indices() {
            self.close(idx);
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests time how soon the event loop wakes; no checked value is replayed"
)]
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
        Arc::new(|message: Message, _: &Ctx<'_>| Response::Now(message))
    }

    fn start(service: Arc<dyn Service>) -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            service,
            Arc::new(BufPool::default()),
            Arc::new(Registry::new()),
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
        let reactor = start(echo_service());
        let addr = reactor.local_addr();
        for i in 0..16 {
            assert_eq!(exchange(addr, &ping(i)), ping(i));
        }
        assert!(reactor.stats().accepted >= 16);
        reactor.stop();
    }

    #[test]
    fn many_sequential_requests_on_one_connection() {
        let reactor = start(echo_service());
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for i in 0..200 {
            write_message(&mut stream, &ping(i)).unwrap();
            assert_eq!(read_message(&mut stream).unwrap(), ping(i));
        }
        drop(stream);
        reactor.stop();
    }

    #[test]
    fn sequential_connections_are_each_served_and_released() {
        // `close` leaves unregistering to the kernel, and the next accept
        // may reuse the descriptor number it freed: every connection must
        // still be registered, served and released.
        let reactor = start(echo_service());
        let addr = reactor.local_addr();
        for i in 0..500 {
            assert_eq!(exchange(addr, &ping(i)), ping(i));
        }
        eventually("every connection to be released", || {
            let stats = reactor.stats();
            stats.accepted == 500 && stats.active == 0
        });
        reactor.stop();
    }

    #[test]
    fn deferred_replies_flow_from_helper_threads() {
        let service: Arc<dyn Service> = Arc::new(|message: Message, ctx: &Ctx<'_>| {
            let completer = ctx.completer();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                completer.complete(message);
            });
            Response::Deferred
        });
        let reactor = start(service);
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
        let service: Arc<dyn Service> = Arc::new(|message: Message, _: &Ctx<'_>| {
            let mut probes = 0u32;
            let mut slot = Some(message);
            Response::Throttle {
                retry_after_ms: 1,
                retry: Box::new(move |_| {
                    probes += 1;
                    if probes < 3 {
                        return None;
                    }
                    slot.take().map(Response::Now)
                }),
            }
        });
        let reactor = start(service);
        let addr = reactor.local_addr();
        assert_eq!(exchange(addr, &ping(9)), ping(9));
        assert!(reactor.drain(2000));
        assert_eq!(reactor.stats().parked, 0);
        reactor.stop();
    }

    #[test]
    fn interleaved_partial_frames_across_connections() {
        let reactor = start(echo_service());
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
        let reactor = start(echo_service());
        let addr = reactor.local_addr();
        let mut bad = TcpStream::connect(addr).unwrap();
        let oversized = DEFAULT_MAX_FRAME as u32 + 1;
        bad.write_all(&oversized.to_le_bytes()).unwrap();
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
        let reactor = start(echo_service());
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
        let reactor = start(echo_service());
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

    /// Polls `cond` (1 ms steps, no reactor wake-ups) for up to ten seconds.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn parked_connection_on_an_idle_reactor_is_reprobed_at_its_retry_hint() {
        let admit = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&admit);
        let service: Arc<dyn Service> = Arc::new(move |message: Message, _: &Ctx<'_>| {
            let gate = Arc::clone(&gate);
            let mut slot = Some(message);
            Response::Throttle {
                retry_after_ms: 2,
                retry: Box::new(move |_| {
                    if !gate.load(Ordering::Acquire) {
                        return None;
                    }
                    slot.take().map(Response::Now)
                }),
            }
        });
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        write_message(&mut stream, &ping(3)).unwrap();
        eventually("the request to park", || reactor.stats().parked == 1);
        // Nothing else happens on this reactor: no traffic, no notify. Only
        // the retry hint can bring the loop back to the parked connection.
        thread::sleep(Duration::from_millis(20));
        let began = std::time::Instant::now();
        admit.store(true, Ordering::Release);
        assert_eq!(read_message(&mut stream).unwrap(), ping(3));
        let waited = began.elapsed();
        assert!(
            waited < TICK / 4,
            "a 2 ms retry hint resolved after {waited:?} (TICK is {TICK:?})"
        );
        assert_eq!(reactor.stats().parked, 0);
        reactor.stop();
    }

    #[test]
    fn completer_fired_from_another_thread_before_handle_returns() {
        // `handle` does not return until the helper thread has fired the
        // completer, so the completion is in the reactor's channel before
        // the connection is marked as awaiting it.
        let service: Arc<dyn Service> = Arc::new(|message: Message, ctx: &Ctx<'_>| {
            let completer = ctx.completer();
            thread::spawn(move || completer.complete(message))
                .join()
                .unwrap();
            Response::Deferred
        });
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for i in 0..50 {
            write_message(&mut stream, &ping(i)).unwrap();
            assert_eq!(read_message(&mut stream).unwrap(), ping(i));
        }
        assert!(reactor.drain(2000));
        assert_eq!(reactor.stats().inflight, 0);
        reactor.stop();
    }

    #[test]
    fn completer_dropped_unfired_releases_the_connection() {
        let service: Arc<dyn Service> = Arc::new(|_message: Message, ctx: &Ctx<'_>| {
            let completer = ctx.completer();
            thread::spawn(move || drop(completer));
            Response::Deferred
        });
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_message(&mut stream, &ping(1)).unwrap();
        // No reply can be invented for an abandoned request: the device
        // sees the connection close, and nothing is left in flight.
        let mut probe = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut stream, &mut probe).unwrap(), 0);
        assert!(reactor.drain(2000));
        let stats = reactor.stats();
        assert_eq!((stats.inflight, stats.active), (0, 0));
        reactor.stop();
    }

    #[test]
    fn generation_guard_discards_deferred_replies_for_closed_connections() {
        let (service, stash) = defer_ping_7();
        let reactor = start(service);
        let addr = reactor.local_addr();
        let mut doomed = TcpStream::connect(addr).unwrap();
        write_message(&mut doomed, &ping(7)).unwrap();
        eventually("the request to be deferred", || {
            reactor.stats().inflight == 1
        });
        drop(doomed); // close while the reply is deferred
        let (completer, message) = stash.lock().unwrap().pop().unwrap();
        completer.complete(message);
        // The late reply goes nowhere, and the request stops counting.
        eventually("the dead connection to be released", || {
            let stats = reactor.stats();
            stats.active == 0 && stats.inflight == 0
        });
        // Slot reuse: a new connection works and gets only its own replies.
        let mut fresh = TcpStream::connect(addr).unwrap();
        for i in 8..12 {
            write_message(&mut fresh, &ping(i)).unwrap();
            assert_eq!(read_message(&mut fresh).unwrap(), ping(i));
        }
        assert!(reactor.drain(2000));
        reactor.stop();
    }

    /// Deferred requests, each with the completer that answers it.
    type Held = Arc<Mutex<Vec<(Completer, Message)>>>;

    /// A service that defers `ping(7)` — its completer goes to the returned
    /// stash — and echoes everything else at once.
    fn defer_ping_7() -> (Arc<dyn Service>, Held) {
        let stash: Held = Arc::new(Mutex::new(Vec::new()));
        let held = Arc::clone(&stash);
        let service: Arc<dyn Service> = Arc::new(move |message: Message, ctx: &Ctx<'_>| {
            if message == ping(7) {
                held.lock().unwrap().push((ctx.completer(), message));
                Response::Deferred
            } else {
                Response::Now(message)
            }
        });
        (service, stash)
    }

    #[test]
    fn a_request_sent_while_the_reply_is_deferred_is_read_after_completion() {
        // The deferred request's read left the reader drained, so only the
        // event for the request that arrived meanwhile makes the completion
        // read: that event must not be lost while the reply is deferred.
        let (service, stash) = defer_ping_7();
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_message(&mut stream, &ping(7)).unwrap();
        eventually("the request to be deferred", || {
            reactor.stats().inflight == 1
        });
        write_message(&mut stream, &ping(8)).unwrap();
        thread::sleep(Duration::from_millis(20));
        let (completer, message) = stash.lock().unwrap().pop().unwrap();
        completer.complete(message);
        assert_eq!(read_message(&mut stream).unwrap(), ping(7));
        assert_eq!(read_message(&mut stream).unwrap(), ping(8));
        assert!(reactor.drain(2000));
        reactor.stop();
    }

    #[test]
    fn a_peer_that_closes_while_its_reply_is_deferred_is_closed_afterwards() {
        let (service, stash) = defer_ping_7();
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_message(&mut stream, &ping(7)).unwrap();
        eventually("the request to be deferred", || {
            reactor.stats().inflight == 1
        });
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        thread::sleep(Duration::from_millis(20));
        let (completer, message) = stash.lock().unwrap().pop().unwrap();
        completer.complete(message);
        // The reply still goes out; the EOF behind it, reported while the
        // reply was deferred, is read next and closes the connection.
        assert_eq!(read_message(&mut stream).unwrap(), ping(7));
        let mut probe = [0u8; 1];
        assert_eq!(std::io::Read::read(&mut stream, &mut probe).unwrap(), 0);
        eventually("the closed peer to be released", || {
            let stats = reactor.stats();
            stats.active == 0 && stats.inflight == 0
        });
        reactor.stop();
    }

    #[test]
    fn deferred_replies_fired_out_of_order_keep_per_connection_order() {
        // Every request is deferred: even ones to one helper thread, odd
        // ones to another. Each helper takes whatever has piled up and fires
        // it newest first, so completions reach the reactor thread out of
        // arrival order.
        type Stash = mpsc::Sender<(Completer, Message)>;
        fn helper(delay: Duration) -> (Stash, thread::JoinHandle<()>) {
            let (tx, rx) = mpsc::channel::<(Completer, Message)>();
            let handle = thread::spawn(move || {
                while let Ok(first) = rx.recv() {
                    thread::sleep(delay);
                    let mut batch = vec![first];
                    batch.extend(rx.try_iter());
                    for (completer, message) in batch.into_iter().rev() {
                        completer.complete(message);
                    }
                }
            });
            (tx, handle)
        }
        let (even, even_helper) = helper(Duration::from_micros(200));
        let (odd, odd_helper) = helper(Duration::from_micros(50));
        let service: Arc<dyn Service> = Arc::new(move |message: Message, ctx: &Ctx<'_>| {
            let Message::CheckinAck(ack) = &message else {
                return Response::Now(message);
            };
            let helper = if ack.iteration % 2 == 0 { &even } else { &odd };
            helper.send((ctx.completer(), message)).unwrap();
            Response::Deferred
        });
        let reactor = start(service);
        let addr = reactor.local_addr();
        let clients: Vec<_> = (0..3u64)
            .map(|client| {
                thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    // Pipelined: all requests are on the wire before the
                    // first reply is read.
                    let ids: Vec<u64> = (0..40).map(|i| client * 1000 + i).collect();
                    for &id in &ids {
                        write_message(&mut stream, &ping(id)).unwrap();
                    }
                    for &id in &ids {
                        assert_eq!(read_message(&mut stream).unwrap(), ping(id));
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        assert!(reactor.drain(2000));
        // Stopping drops the service and with it the helpers' senders.
        reactor.stop();
        even_helper.join().unwrap();
        odd_helper.join().unwrap();
    }

    #[test]
    fn a_reply_larger_than_the_socket_buffers_reaches_a_late_reader() {
        // ~12 MB: more than the send and receive buffers of a peer that is
        // not reading can hold, so the writer stops on `NeedMore` and the
        // rest goes out on write readiness, which the reactor registers then.
        fn big(n: u64) -> Message {
            Message::CheckoutResponse(crowd_proto::message::CheckoutResponse {
                iteration: n,
                params: vec![0.25; 1_500_000],
                stopped: false,
                round: None,
            })
        }
        let service: Arc<dyn Service> = Arc::new(|message: Message, _: &Ctx<'_>| match message {
            Message::CheckinAck(ack) => Response::Now(big(ack.iteration)),
            other => Response::Now(other),
        });
        let reactor = start(service);
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for i in 0..2 {
            write_message(&mut stream, &ping(i)).unwrap();
            // Not reading yet: the reply must back up unflushed.
            eventually("the reply to fill the socket buffers", || !reactor.drain(0));
            thread::sleep(Duration::from_millis(20));
            assert_eq!(read_message(&mut stream).unwrap(), big(i));
            assert!(reactor.drain(2000));
        }
        reactor.stop();
    }

    #[test]
    fn pipelined_requests_in_one_segment_are_all_answered_in_order() {
        // One `write` carries several frames: the first read takes them all,
        // and the ones behind the first must be served from the buffer with
        // no further event to announce them.
        let reactor = start(echo_service());
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for round in 0..20u64 {
            let ids: Vec<u64> = (0..5).map(|i| round * 10 + i).collect();
            let mut segment = Vec::new();
            for &id in &ids {
                write_message(&mut segment, &ping(id)).unwrap();
            }
            stream.write_all(&segment).unwrap();
            for &id in &ids {
                assert_eq!(read_message(&mut stream).unwrap(), ping(id));
            }
        }
        reactor.stop();
    }

    #[test]
    fn error_replies_pass_through() {
        let service: Arc<dyn Service> = Arc::new(|_message: Message, _: &Ctx<'_>| {
            Response::Now(Message::Error(ErrorReply {
                code: ErrorCode::Internal,
                detail: "nope".into(),
                round_id: 0,
            }))
        });
        let reactor = start(service);
        let reply = exchange(reactor.local_addr(), &ping(1));
        assert!(matches!(reply, Message::Error(_)));
        reactor.stop();
    }
}
