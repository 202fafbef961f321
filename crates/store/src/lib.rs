//! `crowd-store`: durable server state for Crowd-ML.
//!
//! The server is the custodian of two things that must never be lost: the
//! shared model parameters and the record of privacy budget already spent by
//! each device — forgetting the latter after a crash would let the server
//! silently over-query devices past their ε ceiling. This crate makes both
//! survive restarts:
//!
//! * **Write-ahead log** ([`wal`]) — every applied aggregation epoch (and the
//!   per-device ε charges it incurs) is a CRC-framed record in an append-only
//!   log, durable *before* its checkins are acknowledged. Records are staged
//!   in memory ([`WalStage`]) in apply order and group-committed
//!   ([`Store::commit`]): the CRCs are sealed, then one write and one `fsync`
//!   cover every epoch staged since the previous commit.
//! * **Snapshots** ([`snapshot`]) — periodic full snapshots of the
//!   [`ServerState`](crowd_core::ServerState) (params, iteration, schedule
//!   position, monitoring counters, ε ledger), written to a temporary file and
//!   atomically renamed so a crash never leaves a half-written snapshot
//!   visible.
//! * **Recovery** ([`store::Store::open`]) — load the latest snapshot, replay
//!   the WAL tail (tolerating a torn final record, the expected crash
//!   artifact), and hand back a server whose state is **bitwise identical** to
//!   an uninterrupted run. This leans on the deterministic fixed-order merge
//!   of `crowd-agg`: replaying the logged epochs through
//!   [`Server::apply_aggregate`](crowd_core::Server::apply_aggregate)
//!   reproduces every parameter bit and every ledger entry.
//! * **Rotation/compaction** — each snapshot moves the log to a successor
//!   segment, recycled from the one spare the previous snapshot superseded,
//!   and deletes every older segment, so the log never grows beyond one
//!   snapshot interval and the disk holds at most two segments.
//!
//! The knobs live on `crowd_core::config::ServerConfig::persist`
//! ([`PersistSettings`](crowd_core::PersistSettings)): the data directory,
//! the snapshot cadence, and whether appends `fsync` (required for durability
//! across power loss; process-crash durability needs no fsync).

#![forbid(unsafe_code)]
// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use store::{RecoveryReport, Store, WalStage};

use std::fmt;

/// Errors produced by the persistence subsystem.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The snapshot file exists but cannot be decoded. A torn WAL tail is
    /// *not* corruption (it is the expected crash artifact and is truncated
    /// away); a damaged snapshot is, because snapshots are written atomically.
    CorruptSnapshot(String),
    /// A WAL record decoded but violates the log's sequencing invariants
    /// (e.g. its pre-apply iteration does not match the recovered server).
    CorruptWal(String),
    /// A WAL segment is in a format of this log that this build does not
    /// read (e.g. `CMLWAL01`, written before frames were salted). Reading it
    /// as empty would silently drop acknowledged epochs and their ε charges.
    UnsupportedWal {
        /// The segment's path.
        segment: std::path::PathBuf,
        /// The magic found at its start.
        found: String,
    },
    /// Replaying a logged epoch produced different ε charges than the log
    /// recorded — the server was restarted with a different budget
    /// configuration than it ran with.
    ReplayDiverged(String),
    /// The core framework reported an error during restore or replay.
    Core(crowd_core::CoreError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::CorruptSnapshot(detail) => write!(f, "corrupt snapshot: {detail}"),
            StoreError::CorruptWal(detail) => write!(f, "corrupt WAL: {detail}"),
            StoreError::UnsupportedWal { segment, found } => write!(
                f,
                "WAL segment {} is format {found}; this build reads {} only",
                segment.display(),
                String::from_utf8_lossy(wal::WAL_MAGIC)
            ),
            StoreError::ReplayDiverged(detail) => write!(f, "replay diverged: {detail}"),
            StoreError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<crowd_core::CoreError> for StoreError {
    fn from(e: crowd_core::CoreError) -> Self {
        StoreError::Core(e)
    }
}

/// Result alias for persistence operations.
pub type Result<T> = std::result::Result<T, StoreError>;

pub mod testutil {
    //! Tiny helpers shared by the workspace's durability tests and benches.
    //! Not part of the persistence API proper — just the one piece of
    //! filesystem scaffolding every store consumer's tests need.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, disposable directory under the system temp dir. Callers own
    /// cleanup (`std::fs::remove_dir_all`) once they are done with it.
    #[allow(
        clippy::expect_used,
        reason = "test scaffolding, never on the request path"
    )]
    pub fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("crowd-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Makes every later commit to `store` fail the way a dead disk would:
    /// the active segment is reopened read-only, so the OS refuses the write
    /// (nothing reaches the file). For commit-failure tests — an open WAL
    /// cannot be made to fail from outside the process.
    pub fn break_wal(store: &mut crate::Store) -> std::io::Result<()> {
        store.wal_mut().break_writes()
    }

    /// Runs the first half of `store`'s next snapshot rotation — the spare
    /// segment renamed to the successor's name and its header rewritten (or,
    /// with no spare, the successor created) — and stops there, as a crash
    /// before the snapshot that names the successor is installed would.
    pub fn rotate_without_snapshot(store: &mut crate::Store) -> crate::Result<()> {
        store.open_successor().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let io: StoreError = std::io::Error::other("disk").into();
        assert!(io.to_string().contains("disk"));
        assert!(std::error::Error::source(&io).is_some());
        let snap = StoreError::CorruptSnapshot("bad magic".into());
        assert!(snap.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&snap).is_none());
        let wal = StoreError::CorruptWal("iteration gap".into());
        assert!(wal.to_string().contains("iteration gap"));
        let v1 = StoreError::UnsupportedWal {
            segment: "data/wal-00000003.log".into(),
            found: "CMLWAL01".into(),
        };
        assert!(v1.to_string().contains("wal-00000003.log"));
        assert!(v1.to_string().contains("CMLWAL01"));
        let diverged = StoreError::ReplayDiverged("charges".into());
        assert!(diverged.to_string().contains("charges"));
        let core: StoreError = crowd_core::CoreError::Config("bad".into()).into();
        assert!(core.to_string().contains("bad"));
        assert!(std::error::Error::source(&core).is_some());
    }
}
