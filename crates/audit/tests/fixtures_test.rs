//! Each fixture tree contains exactly one deliberate violation of one rule,
//! plus that rule's escape hatches (allow annotation, structural escapes,
//! test code). These tests pin down both halves: the rule fires exactly at
//! the bad site, and nowhere else.

use crowd_audit::report::Finding;
use crowd_audit::rules;
use crowd_audit::source::scan_workspace;
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit_fixture(name: &str) -> Vec<Finding> {
    let root = fixture_root(name);
    let files = scan_workspace(&root).expect("fixture tree scans");
    rules::run_all(&files, &root)
}

#[test]
fn unordered_iter_fires_exactly_once() {
    let findings = audit_fixture("unordered_iter");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "unordered-iter");
    assert_eq!(f.file, "crates/agg/src/bad.rs");
    assert_eq!(f.line, 13);
    assert!(f.message.contains("`entries`"));
}

#[test]
fn wallclock_fires_exactly_once() {
    let findings = audit_fixture("wallclock");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "wallclock");
    assert_eq!(f.file, "crates/sim/src/bad.rs");
    assert_eq!(f.line, 8);
}

#[test]
fn panic_freedom_fires_exactly_once() {
    let findings = audit_fixture("panic_freedom");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "panic-freedom");
    assert_eq!(f.file, "crates/store/src/bad.rs");
    assert_eq!(f.line, 6);
    assert!(f.message.contains("`unwrap`"));
}

#[test]
fn lock_order_fires_exactly_once() {
    let findings = audit_fixture("lock_order");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(f.file, "crates/agg/src/bad.rs");
    assert_eq!(f.line, 25);
    assert!(f.message.contains("fixture.core"));
    assert!(f.message.contains("fixture.store"));
}

#[test]
fn wire_change_without_bump_fires() {
    let findings = audit_fixture("wire");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "wire-hygiene");
    assert!(f.message.contains("without a PROTOCOL_VERSION bump"));
}

#[test]
fn stale_path_fires_exactly_once() {
    let findings = audit_fixture("stale_path");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "stale-path");
    assert_eq!(f.file, "crates/audit/src/config.rs");
    assert_eq!(f.line, 9);
    assert!(f.message.contains("`crates/net/src/server.rs`"));
    assert!(f.message.contains("PANIC_FREE_PATHS"));
}

#[test]
fn stale_crate_fires_exactly_once() {
    let findings = audit_fixture("stale_crate");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "stale-path");
    assert_eq!(f.file, "crates/audit/src/config.rs");
    assert_eq!(f.line, 5);
    assert!(f.message.contains("`crates/dp`"));
    assert!(f.message.contains("DETERMINISM_CRATES"));
}

/// Every fixture must fail a `--deny` run (the CI loop relies on this).
#[test]
fn every_fixture_fails_deny() {
    for name in [
        "unordered_iter",
        "wallclock",
        "panic_freedom",
        "lock_order",
        "wire",
        "stale_path",
        "stale_crate",
    ] {
        let root = fixture_root(name);
        let outcome =
            crowd_audit::run(&root, &root.join("audit-baseline.txt")).expect("fixture audit runs");
        assert!(
            !outcome.clean(),
            "fixture {name} unexpectedly passes --deny"
        );
    }
}

/// A baseline entry naming the fixture's finding grandfathers it — and the
/// same entry becomes stale (still failing `--deny`) once pointed at nothing.
#[test]
fn baseline_grandfathers_and_goes_stale() {
    let root = fixture_root("panic_freedom");
    let dir = std::env::temp_dir().join(format!("audit-baseline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let matching = dir.join("matching.txt");
    std::fs::write(&matching, "panic-freedom crates/store/src/bad.rs 6\n").unwrap();
    let outcome = crowd_audit::run(&root, &matching).unwrap();
    assert!(outcome.clean());
    assert_eq!(outcome.grandfathered.len(), 1);

    let stale = dir.join("stale.txt");
    std::fs::write(
        &stale,
        "panic-freedom crates/store/src/bad.rs 6\npanic-freedom crates/store/src/gone.rs 1\n",
    )
    .unwrap();
    let outcome = crowd_audit::run(&root, &stale).unwrap();
    assert!(!outcome.clean(), "a stale baseline entry must fail --deny");
    assert_eq!(outcome.stale.len(), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}
