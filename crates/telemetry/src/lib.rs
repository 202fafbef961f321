//! crowd-scope: the workspace-wide observability subsystem.
//!
//! The paper's scalability story (§IV-B) is argued in terms of latency
//! distributions, queue pressure, and refusal rates; this crate is the
//! instrument the rest of the workspace reports those quantities with. Three
//! design constraints shape everything here:
//!
//! 1. **Allocation-free on the hot path.** Counters and gauges are plain
//!    atomics in fixed arrays addressed by compile-time metric ids
//!    ([`CounterId`], [`GaugeId`], [`HistogramId`]); histograms use fixed
//!    log₂ buckets with atomic counts. Recording never hashes a string,
//!    takes a lock, or allocates — asserted by a counting-allocator test.
//! 2. **Deterministic under test.** All time flows through the [`Clock`]
//!    abstraction: live servers use a monotonic clock (the *only* wall-clock
//!    read outside test code lives in `clock.rs`, the one such waiver of the
//!    clippy ban on `Instant::now`), while sim and determinism suites use
//!    logical ticks, so two identical seeded runs render byte-identical
//!    metric dumps.
//! 3. **One snapshot shape.** Every layer (agg, net, reactor, store, dp)
//!    records into one shared [`Registry`]; scrapes, tests, and reports all
//!    read the same [`MetricsSnapshot`].
//!
//! The crate also holds the workspace's one lock type, [`sync::Mutex`] and
//! [`sync::RwLock`]: non-poisoning wrappers over `std::sync`. They live in
//! this leaf crate because the crates that lock (crowd-agg, crowd-net)
//! already depend on it.

#![forbid(unsafe_code)]
// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod clock;
pub mod hist;
pub mod metrics;
pub mod sync;

pub use clock::{Clock, Tick};
pub use hist::{Histogram, HistogramBins};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsSnapshot, Registry};
