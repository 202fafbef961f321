//! The audit must pass on the tree it ships in: zero non-baselined findings,
//! a baseline that parses with no stale entries, and a wire.lock that matches
//! the live proto surface. This is the same gate CI runs via
//! `cargo run -p crowd-audit -- --deny`, kept as a unit test so a plain
//! `cargo test` catches violations without the extra CI step.

use crowd_audit::report::Baseline;
use crowd_audit::rules::wire_hygiene;
use crowd_audit::source::scan_workspace;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("audit crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn the_shipped_tree_is_clean() {
    let root = workspace_root();
    let outcome =
        crowd_audit::run(&root, &root.join("audit-baseline.txt")).expect("workspace audit runs");
    assert!(
        outcome.fresh.is_empty(),
        "non-baselined findings:\n{}",
        outcome
            .fresh
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline entries (prune them): {:?}",
        outcome.stale
    );
}

#[test]
fn the_checked_in_baseline_parses_and_is_not_stale() {
    let root = workspace_root();
    let path = root.join("audit-baseline.txt");
    let text = std::fs::read_to_string(&path).expect("audit-baseline.txt exists at the root");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    // The shipped baseline is empty: every grandfathered finding has been
    // fixed. Entries may be added under pressure, but each must still match
    // a real finding — the clean-tree test above fails on stale ones.
    assert!(
        baseline.entries.is_empty(),
        "the shipped baseline should stay empty; found {:?}",
        baseline.entries
    );
}

/// `unsafe` is refused by the compiler, not by a rule: every crate root under
/// `crates/*/src` (`lib.rs`, `main.rs`, `bin/*.rs`) must carry
/// `#![forbid(unsafe_code)]`, so a new crate or binary cannot opt out
/// silently.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let crates = workspace_root().join("crates");
    let mut roots = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ lists") {
        let src = entry.expect("crates/ entry reads").path().join("src");
        roots.extend(
            ["lib.rs", "main.rs"]
                .iter()
                .map(|name| src.join(name))
                .filter(|p| p.is_file()),
        );
        if let Ok(bins) = std::fs::read_dir(src.join("bin")) {
            roots.extend(
                bins.map(|e| e.expect("bin/ entry reads").path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "rs")),
            );
        }
    }
    assert!(roots.len() >= 15, "found only {} crate roots", roots.len());
    let missing: Vec<_> = roots
        .iter()
        .filter(|p| {
            !std::fs::read_to_string(p)
                .expect("crate root reads")
                .contains("#![forbid(unsafe_code)]")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}

#[test]
fn wire_lock_matches_the_live_surface() {
    let root = workspace_root();
    let files = scan_workspace(&root).expect("workspace scans");
    let live = wire_hygiene::extract(&files).expect("proto wire surface extracts");
    let lock_text = std::fs::read_to_string(root.join(wire_hygiene::WIRE_LOCK_FILE))
        .expect("wire.lock exists at the root");
    let locked = wire_hygiene::WireSurface::parse(&lock_text).expect("wire.lock parses");
    assert_eq!(
        live, locked,
        "wire.lock is out of date — refresh with `cargo run -p crowd-audit -- --update-wire-lock`"
    );
}
