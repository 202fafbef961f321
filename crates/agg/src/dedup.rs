//! Duplicate-checkin detection keyed on `(device_id, nonce)`.
//!
//! The transport makes no exactly-once promise: a client whose connection dies
//! after the request was sent cannot know whether the server applied its
//! checkin, so it retries — and a flaky network can deliver the same frame
//! twice on its own. Devices therefore tag every checkin with a per-device
//! nonce, and the runtime remembers the outcome of each applied nonce: a
//! duplicate is answered with the *original* acknowledgement instead of being
//! applied (and ε-charged) a second time. That replay is what makes retried
//! checkins idempotent, which in turn is what lets a fault-injected run land
//! bitwise on the fault-free reference.
//!
//! The table distinguishes in-flight nonces (admitted but their epoch not yet
//! applied) from completed ones. A duplicate of an in-flight checkin is
//! answered "busy, retry shortly" — by the time the client retries, the
//! original has resolved and the replay path serves it. Completed entries are
//! evicted FIFO once the table exceeds its capacity; retries arrive within
//! milliseconds, so a multi-thousand-entry window is orders of magnitude more
//! history than any retry needs.
//!
//! Scope: the table is in-memory, so the exactly-once guarantee spans one
//! server *lifetime*. Crash recovery replays the WAL-logged (acked) state
//! exactly once, but a retry that straddles a crash — sent before the crash,
//! retried against the restarted server — meets an empty table and can be
//! applied a second time. The chaos driver therefore crashes servers only
//! between acknowledged checkins; making retries crash-proof would require
//! persisting completed nonces alongside the epochs they acked.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crowd_core::server::CheckinReceipt;
use std::collections::{BTreeMap, VecDeque};

/// What the runtime should do with a submitted nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Never seen: admit the checkin and mark the nonce in flight.
    Fresh,
    /// The same nonce is currently in flight; the caller should answer with
    /// retryable backpressure rather than queue a duplicate.
    InFlight,
    /// Already applied: replay the recorded outcome without re-applying.
    Replay(CheckinReceipt),
}

enum DedupState {
    InFlight,
    Done(CheckinReceipt),
}

/// Bounded memory of recent checkin outcomes, keyed on `(device_id, nonce)`.
pub(crate) struct DedupTable {
    // A BTreeMap so any future iteration over the ledger (eviction sweeps,
    // state export) is deterministic; lookups stay logarithmic.
    entries: BTreeMap<(u64, u64), DedupState>,
    /// Completed keys in completion order — the FIFO eviction queue. In-flight
    /// keys are never evicted (they always resolve or are abandoned).
    completed: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl DedupTable {
    /// Creates a table remembering at most `capacity` completed checkins.
    pub(crate) fn new(capacity: usize) -> Self {
        DedupTable {
            entries: BTreeMap::new(),
            completed: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Classifies `key` and, when fresh, marks it in flight.
    pub(crate) fn admit(&mut self, key: (u64, u64)) -> Admission {
        match self.entries.get(&key) {
            Some(DedupState::Done(outcome)) => Admission::Replay(*outcome),
            Some(DedupState::InFlight) => Admission::InFlight,
            None => {
                self.entries.insert(key, DedupState::InFlight);
                Admission::Fresh
            }
        }
    }

    /// Drops an in-flight marker whose checkin was never admitted (queue full,
    /// shutdown, ingest failure), so a retry can be admitted fresh.
    pub(crate) fn abandon(&mut self, key: (u64, u64)) {
        if matches!(self.entries.get(&key), Some(DedupState::InFlight)) {
            self.entries.remove(&key);
        }
    }

    /// Records the outcome of an applied checkin, evicting the oldest
    /// completed entries beyond the capacity.
    pub(crate) fn complete(&mut self, key: (u64, u64), outcome: CheckinReceipt) {
        self.entries.insert(key, DedupState::Done(outcome));
        self.completed.push_back(key);
        while self.completed.len() > self.capacity {
            if let Some(old) = self.completed.pop_front() {
                // Only remove if still completed: the key cannot be re-used
                // while Done (admit replays it), so this is always safe, but
                // stay defensive about the state anyway.
                if matches!(self.entries.get(&old), Some(DedupState::Done(_))) {
                    self.entries.remove(&old);
                }
            }
        }
    }

    /// Number of keys currently remembered (in flight + completed).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(iteration: u64) -> CheckinReceipt {
        CheckinReceipt {
            accepted: true,
            iteration,
            stopped: false,
            staleness: 0,
            deduped: false,
        }
    }

    #[test]
    fn fresh_inflight_replay_lifecycle() {
        let mut table = DedupTable::new(8);
        let key = (3, 1);
        assert_eq!(table.admit(key), Admission::Fresh);
        // A duplicate while the original is in flight is told to back off.
        assert_eq!(table.admit(key), Admission::InFlight);
        table.complete(key, outcome(5));
        // After completion, duplicates replay the recorded ack.
        assert_eq!(table.admit(key), Admission::Replay(outcome(5)));
        assert_eq!(table.admit(key), Admission::Replay(outcome(5)));
    }

    #[test]
    fn abandon_allows_fresh_retry() {
        let mut table = DedupTable::new(8);
        let key = (1, 7);
        assert_eq!(table.admit(key), Admission::Fresh);
        table.abandon(key);
        assert_eq!(table.admit(key), Admission::Fresh);
        // Abandon is a no-op on completed entries.
        table.complete(key, outcome(2));
        table.abandon(key);
        assert_eq!(table.admit(key), Admission::Replay(outcome(2)));
    }

    #[test]
    fn completed_entries_evict_fifo_but_inflight_survive() {
        let mut table = DedupTable::new(2);
        let inflight = (9, 100);
        assert_eq!(table.admit(inflight), Admission::Fresh);
        for nonce in 1..=4u64 {
            let key = (0, nonce);
            assert_eq!(table.admit(key), Admission::Fresh);
            table.complete(key, outcome(nonce));
        }
        // Only the 2 most recent completed entries remain; older ones are
        // forgotten and would be admitted fresh again.
        assert_eq!(table.admit((0, 1)), Admission::Fresh);
        table.abandon((0, 1));
        assert_eq!(table.admit((0, 4)), Admission::Replay(outcome(4)));
        // The in-flight key outlived every eviction.
        assert_eq!(table.admit(inflight), Admission::InFlight);
        assert!(table.len() <= 4);
    }
}
