//! `crowd-agg`: a batched gradient-aggregation runtime behind the Crowd-ML
//! server.
//!
//! The paper's server is conceptually a single sequential loop — devices check
//! out the current parameters `w` and check in sanitized gradients that the
//! server folds into the projected SGD update `w ← Π_W[w − η(t)ĝ]` — but a
//! crowd of devices hammers that loop concurrently. Serializing every checkout
//! *and* checkin through one mutex collapses throughput exactly where the
//! paper's premise demands scale. This crate decomposes the server into:
//!
//! * **An epoch accumulator** — per-device running gradient sums, kept under
//!   the core lock and folded in ascending device-id order at epoch
//!   boundaries, so the aggregate is bitwise reproducible no matter how
//!   threads interleave. [`spec::epoch`] states the same merge as a pure
//!   function of the epoch's checkins, the reference it is tested against.
//! * **Epoch-snapshotted parameters** ([`runtime::ParamSnapshot`]) — checkouts
//!   clone an `Arc` published at the last update; the read path never waits on
//!   gradient application.
//! * **Flat combining over one core lock** — the submitting threads run the
//!   checkins, the lock's holder those that found it taken; a full combining
//!   queue rejects with [`AggError::Busy`] and a retry hint. A durable
//!   runtime adds one thread, `crowd-agg`, that group-commits the WAL.
//!
//! All knobs live on `crowd_core::config::ServerConfig::agg`
//! ([`crowd_core::config::AggSettings`]). With the default `epoch_size = 1`
//! the runtime reproduces the paper's per-checkin update bit for bit; larger
//! epochs apply the mean of the epoch's gradients as one step.

#![forbid(unsafe_code)]

mod dedup;
mod epoch;
mod queue;
mod reply;
pub mod runtime;
pub mod spec;

pub use reply::OutcomeSink;
pub use runtime::{AggRuntime, CompletionHandle, ParamSnapshot, SubmitRejection, Submitted};

use std::fmt;

/// Errors produced by the aggregation runtime.
#[derive(Debug)]
pub enum AggError {
    /// The ingest queue is full; retry after the indicated backoff.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The checkin payload failed validation.
    Invalid(String),
    /// The runtime is shutting down and no longer accepts checkins.
    ShuttingDown,
    /// A bounded wait for an epoch application elapsed.
    Timeout,
    /// The device has spent its entire privacy budget; the server refuses to
    /// query it further (neither checkouts nor checkins are served).
    BudgetExhausted {
        /// The exhausted device.
        device_id: u64,
    },
    /// A round submission named a round that has closed; the device must
    /// refetch parameters (which carry the current round) and resync.
    RoundOutdated {
        /// The server's current round id.
        current_round: u64,
    },
    /// The core framework reported an error.
    Core(crowd_core::CoreError),
    /// The persistence subsystem reported an error.
    Store(crowd_store::StoreError),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms} ms")
            }
            AggError::Invalid(detail) => write!(f, "invalid checkin: {detail}"),
            AggError::ShuttingDown => write!(f, "aggregation runtime is shutting down"),
            AggError::Timeout => write!(f, "timed out waiting for epoch application"),
            AggError::BudgetExhausted { device_id } => {
                write!(f, "device {device_id} has exhausted its privacy budget")
            }
            AggError::RoundOutdated { current_round } => {
                write!(f, "round closed; the current round is {current_round}")
            }
            AggError::Core(e) => write!(f, "core error: {e}"),
            AggError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for AggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AggError::Core(e) => Some(e),
            AggError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crowd_core::CoreError> for AggError {
    fn from(e: crowd_core::CoreError) -> Self {
        AggError::Core(e)
    }
}

impl From<crowd_store::StoreError> for AggError {
    fn from(e: crowd_store::StoreError) -> Self {
        AggError::Store(e)
    }
}

/// Result alias for aggregation operations.
pub type Result<T> = std::result::Result<T, AggError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let busy = AggError::Busy { retry_after_ms: 3 };
        assert!(busy.to_string().contains("3 ms"));
        assert!(std::error::Error::source(&busy).is_none());
        let invalid = AggError::Invalid("bad dim".into());
        assert!(invalid.to_string().contains("bad dim"));
        let core: AggError = crowd_core::CoreError::Config("broken".into()).into();
        assert!(core.to_string().contains("broken"));
        assert!(std::error::Error::source(&core).is_some());
        assert!(AggError::ShuttingDown.to_string().contains("shutting down"));
        assert!(AggError::Timeout.to_string().contains("timed out"));
        let exhausted = AggError::BudgetExhausted { device_id: 6 };
        assert!(exhausted.to_string().contains("device 6"));
        let outdated = AggError::RoundOutdated { current_round: 9 };
        assert!(outdated.to_string().contains("round is 9"));
        assert!(std::error::Error::source(&exhausted).is_none());
        let store: AggError = crowd_store::StoreError::CorruptWal("tail".into()).into();
        assert!(store.to_string().contains("tail"));
        assert!(std::error::Error::source(&store).is_some());
    }
}
