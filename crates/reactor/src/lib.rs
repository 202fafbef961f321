//! Event-driven server core for the Crowd-ML TCP deployment.
//!
//! A server that dedicates one OS thread (and two blocking syscalls' worth of
//! latency) to every connected device is dominated, at thousands of devices,
//! by the scheduler, stack memory, and context switches. This crate serves
//! `crowd-net` with a classic reactor instead:
//!
//! * **one event-loop thread** running a readiness loop over a
//!   [`polling::Poller`] (edge-triggered epoll: each socket is registered
//!   once, and no request costs an `epoll_ctl`),
//! * **per-connection frame state machines** ([`frame::FrameReader`] /
//!   [`frame::FrameWriter`]) that resume partial reads and writes at any byte
//!   boundary, reusing `crowd-proto`'s pooled buffers,
//! * **replies that arrive later without a waiting thread**: a one-shot
//!   [`Completer`] that whichever thread learns the reply fires straight at
//!   the event loop, and
//! * **backpressure by read throttling**: when the ingest queue is full the
//!   connection is simply not read, so the kernel's TCP flow control pushes
//!   back on the device instead of a Busy-reply storm.
//!
//! The crate is transport-generic: it serves any [`Service`] that maps a
//! decoded [`crowd_proto::Message`] to a [`Response`]. `crowd-net` wires it to
//! the aggregation runtime.

#![forbid(unsafe_code)]

pub mod frame;
pub mod reactor;

pub use frame::{FrameError, FrameReader, FrameWriter, ReadEvent, WriteEvent};
pub use reactor::{Completer, Ctx, Reactor, ReactorStats, Response, RetryFn, Service};
