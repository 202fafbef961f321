//! The clock abstraction every telemetry timestamp flows through.
//!
//! This module is the **only** place outside test code that reads the wall
//! clock: [`Clock::monotonic`] carries the one such waiver of the clippy ban
//! on `Instant::now` (`clippy.toml`). Everything downstream — histograms and
//! latency tokens — sees time as opaque microsecond counts from a [`Clock`],
//! which comes in two flavors:
//!
//! * [`Clock::monotonic`] — live servers. Microseconds elapsed since the
//!   clock was created, read from [`Instant`].
//! * [`Clock::logical`] — sim and determinism suites. A shared atomic tick
//!   counter advanced explicitly by the harness via [`Clock::advance`];
//!   never advances on its own, so identical seeded runs observe identical
//!   durations (zero, unless the harness ticks) and render byte-identical
//!   metric dumps.
//!
//! Clones share the underlying time source: a cloned logical clock sees the
//! same ticks, a cloned monotonic clock keeps the same epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An opaque start token from [`Clock::start`]; redeem it with
/// [`Clock::elapsed_micros`]. Copyable so it can ride through queues and
/// pending-ack slots without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick(u64);

#[derive(Debug, Clone)]
enum Inner {
    /// Epoch from which elapsed microseconds are measured.
    Monotonic(Instant),
    /// Harness-driven tick counter, in "microseconds".
    Logical(Arc<AtomicU64>),
}

/// A cloneable time source: monotonic in live servers, logical in tests.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Inner,
}

impl Clock {
    /// A monotonic clock anchored at its creation instant.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one place a monotonic `Instant` is anchored; everything else observes time through a `Clock`"
    )]
    pub fn monotonic() -> Self {
        Clock {
            inner: Inner::Monotonic(Instant::now()),
        }
    }

    /// A logical clock starting at tick zero. It only moves when
    /// [`Clock::advance`] is called, which is what makes metric dumps
    /// reproducible in deterministic suites.
    pub fn logical() -> Self {
        Clock {
            inner: Inner::Logical(Arc::new(AtomicU64::new(0))),
        }
    }

    /// `true` for logical clocks (used by dumps to label the time base).
    pub fn is_logical(&self) -> bool {
        matches!(self.inner, Inner::Logical(_))
    }

    /// Current time in microseconds since the clock's epoch.
    pub fn now_micros(&self) -> u64 {
        match &self.inner {
            Inner::Monotonic(epoch) => {
                // Saturate rather than wrap: u64 microseconds is ~584k years.
                u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            Inner::Logical(ticks) => ticks.load(Ordering::Relaxed),
        }
    }

    /// Starts a latency measurement.
    pub fn start(&self) -> Tick {
        Tick(self.now_micros())
    }

    /// Microseconds elapsed since `start` (saturating at zero).
    pub fn elapsed_micros(&self, start: Tick) -> u64 {
        self.now_micros().saturating_sub(start.0)
    }

    /// Advances a logical clock by `micros` ticks; no-op on monotonic clocks.
    pub fn advance(&self, micros: u64) {
        if let Inner::Logical(ticks) = &self.inner {
            ticks.fetch_add(micros, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_only_moves_when_advanced() {
        let clock = Clock::logical();
        assert!(clock.is_logical());
        let start = clock.start();
        assert_eq!(clock.elapsed_micros(start), 0);
        clock.advance(250);
        assert_eq!(clock.elapsed_micros(start), 250);
        // Clones share the tick counter.
        let twin = clock.clone();
        twin.advance(50);
        assert_eq!(clock.now_micros(), 300);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = Clock::monotonic();
        assert!(!clock.is_logical());
        let start = clock.start();
        let a = clock.elapsed_micros(start);
        let b = clock.elapsed_micros(start);
        assert!(b >= a);
        // advance is a no-op (the wall clock cannot be steered).
        clock.advance(1_000_000_000);
        assert!(clock.now_micros() < 1_000_000_000);
    }
}
