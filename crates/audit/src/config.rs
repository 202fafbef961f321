//! The policy tables: which crates and files each rule applies to.
//!
//! Kept in one place so the rule catalogue in the README and the code can be
//! diffed at a glance.

/// Crates whose iteration order reaches merged parameters, acks, or persisted
/// state — the bitwise-determinism surface. Each names a directory under
/// `crates/` (rule `stale-path`).
pub const DETERMINISM_CRATES: &[&str] = &["core", "agg", "store", "learning", "linalg"];

/// Files allowed to read the wall clock: the telemetry clock module (the ONE
/// place a monotonic `Instant` is anchored — everything else observes time
/// through `crowd_telemetry::Clock`) and the benchmark harness. Entries are
/// workspace-relative path prefixes.
pub const WALLCLOCK_ALLOWED: &[&str] = &["crates/telemetry/src/clock.rs", "crates/bench/src/"];

/// Request-path modules where a panic tears down a server worker mid-epoch:
/// everything between a byte arriving on the socket and the durable ack.
/// Entries are workspace-relative path prefixes; here and in the wallclock
/// allow-list each must name something that exists (rule `stale-path`).
pub const PANIC_FREE_PATHS: &[&str] = &[
    "crates/proto/src/codec.rs",
    "crates/proto/src/frame.rs",
    "crates/proto/src/le.rs",
    "crates/proto/src/pool.rs",
    "crates/net/src/service.rs",
    "crates/net/src/reactor_server.rs",
    "crates/reactor/src/",
    "crates/agg/src/runtime.rs",
    "crates/agg/src/epoch.rs",
    "crates/agg/src/dedup.rs",
    "crates/agg/src/queue.rs",
    "crates/agg/src/reply.rs",
    "crates/store/src/",
    "crates/telemetry/src/",
];

/// The file carrying the message tag table (`Message::tag`).
pub const WIRE_MESSAGE_FILE: &str = "crates/proto/src/message.rs";

/// The file carrying `PROTOCOL_VERSION`.
pub const WIRE_VERSION_FILE: &str = "crates/proto/src/lib.rs";

/// Is `rel_path` inside one of the prefix lists?
pub fn path_in(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}
