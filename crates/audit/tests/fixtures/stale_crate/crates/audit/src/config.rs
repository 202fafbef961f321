//! Fixture: a determinism table that outlived a crate folded into another.
//! `dp` names no `crates/dp/` any more; the entries that still name a crate,
//! and the path tables, are fine.

pub const DETERMINISM_CRATES: &[&str] = &["audit", "dp"];

pub const WALLCLOCK_ALLOWED: &[&str] = &["crates/audit/src/"];

pub const PANIC_FREE_PATHS: &[&str] = &["crates/audit/src/config.rs"];
