//! Fixture: policy tables that outlived a deleted `crates/net/src/server.rs`.
//! The directory and file entries that still name something are fine; the
//! orphaned one is the single finding.

pub const WALLCLOCK_ALLOWED: &[&str] = &["crates/audit/src/"];

pub const PANIC_FREE_PATHS: &[&str] = &[
    "crates/audit/src/config.rs",
    "crates/net/src/server.rs",
];
