//! Each fixture contains exactly one deliberate violation of one rule, plus
//! that rule's escape hatches (an allow with a reason, structural escapes,
//! test code). These tests pin down both halves: the check fires exactly at
//! the bad site, and nowhere else.
//!
//! `lock_order` and `wire` are workspace trees that `crowd-audit` checks.
//! `wallclock`, `unordered_iter` and `panic_freedom` are standalone crates,
//! each with a `[workspace]` of its own, that `cargo clippy` must reject.

use crowd_audit::report::Finding;
use crowd_audit::rules;
use crowd_audit::source::scan_workspace;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// One lint diagnostic: its lint, level, and the `file:line` of its primary
/// span, relative to the fixture crate.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Diagnostic {
    lint: String,
    level: String,
    file: String,
    line: u32,
}

/// Runs `cargo clippy` on the fixture crate `name`, test code included, and
/// returns each distinct lint diagnostic. The lib is checked twice (as a lib
/// and as a test harness), so one site can be reported twice.
fn clippy_fixture(name: &str) -> Vec<Diagnostic> {
    let output = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .arg("--message-format=json")
        .arg("--manifest-path")
        .arg(fixture_root(name).join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixtures"))
        .output()
        .expect("cargo clippy starts");
    let stdout = String::from_utf8(output.stdout).expect("cargo prints UTF-8");
    let mut diagnostics: Vec<Diagnostic> = stdout.lines().filter_map(diagnostic).collect();
    diagnostics.sort();
    diagnostics.dedup();
    diagnostics
}

/// The lint diagnostic in one line of cargo's JSON output, if the line holds
/// one. Only a top-level diagnostic carries a lint `code` object and a
/// `rendered` string (its children hold `null` in both), and the rendered
/// text starts `<level>: ` and names its primary span as ` --> file:line:col`.
fn diagnostic(json: &str) -> Option<Diagnostic> {
    let after = |key: &str| json.split(key).nth(1);
    let lint = after(r#""code":{"code":""#)?.split('"').next()?;
    let rendered = after(r#""rendered":""#)?;
    let (level, _) = rendered.split_once(':')?;
    let span = rendered.split(" --> ").nth(1)?.split("\\n").next()?;
    let mut parts = span.rsplitn(3, ':').skip(1);
    let line = parts.next()?.parse().ok()?;
    Some(Diagnostic {
        lint: lint.to_string(),
        level: level.to_string(),
        file: parts.next()?.to_string(),
        line,
    })
}

/// Asserts that clippy reports exactly one diagnostic on fixture `name`: an
/// error of `lint` at `file:line`.
fn assert_one_clippy_error(name: &str, lint: &str, file: &str, line: u32) {
    let diagnostics = clippy_fixture(name);
    assert_eq!(diagnostics.len(), 1, "diagnostics: {diagnostics:?}");
    let d = &diagnostics[0];
    assert_eq!(d.lint, lint);
    assert_eq!(d.level, "error");
    assert_eq!(d.file, file);
    assert_eq!(d.line, line);
}

#[test]
fn unordered_iter_fires_exactly_once() {
    assert_one_clippy_error(
        "unordered_iter",
        "clippy::disallowed_types",
        "src/lib.rs",
        9,
    );
}

#[test]
fn wallclock_fires_exactly_once() {
    assert_one_clippy_error("wallclock", "clippy::disallowed_methods", "src/lib.rs", 8);
}

#[test]
fn panic_freedom_fires_exactly_once() {
    assert_one_clippy_error("panic_freedom", "clippy::unwrap_used", "src/bad.rs", 10);
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

/// Every audit fixture must fail a `--deny` run (the CI loop relies on this).
#[test]
fn every_fixture_fails_deny() {
    for name in ["lock_order", "wire"] {
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
    let root = fixture_root("lock_order");
    let dir = std::env::temp_dir().join(format!("audit-baseline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let matching = dir.join("matching.txt");
    std::fs::write(&matching, "lock-order crates/agg/src/bad.rs 25\n").unwrap();
    let outcome = crowd_audit::run(&root, &matching).unwrap();
    assert!(outcome.clean());
    assert_eq!(outcome.grandfathered.len(), 1);

    let stale = dir.join("stale.txt");
    std::fs::write(
        &stale,
        "lock-order crates/agg/src/bad.rs 25\nlock-order crates/agg/src/gone.rs 1\n",
    )
    .unwrap();
    let outcome = crowd_audit::run(&root, &stale).unwrap();
    assert!(!outcome.clean(), "a stale baseline entry must fail --deny");
    assert_eq!(outcome.stale.len(), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}
