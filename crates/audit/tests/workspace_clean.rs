//! The audit must pass on the tree it ships in: zero non-baselined findings,
//! a baseline that parses with no stale entries, and a wire.lock that matches
//! the live proto surface. This is the same gate CI runs via
//! `cargo run -p crowd-audit -- --deny`, kept as a unit test so a plain
//! `cargo test` catches violations without the extra CI step.

use crowd_audit::report::Baseline;
use crowd_audit::rules::wire_hygiene;
use crowd_audit::source::{collect_rs, scan_workspace};
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

/// `(key, value)` of each entry in the `[section]` table of a Cargo.toml,
/// with a `.workspace` suffix stripped (`rand.workspace = true` names `rand`).
fn toml_table<'a>(text: &'a str, section: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{section}]");
    let mut inside = false;
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let Some((key, value)) = line
            .split_once('=')
            .filter(|_| inside && !line.starts_with('#'))
        {
            let key = key.trim();
            entries.push((key.strip_suffix(".workspace").unwrap_or(key), value.trim()));
        }
    }
    entries
}

/// The directory of every workspace member, relative to the root: the
/// `members` list of the root manifest, plus `.` for the root package.
fn workspace_members(root_toml: &str) -> Vec<&str> {
    let members = root_toml
        .split("\nmembers = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the root manifest lists its members");
    members.split('"').skip(1).step_by(2).chain(["."]).collect()
}

/// A dependency edge must not outlive its last use: a crate that stops
/// using a dependency still builds it, and Cargo says nothing. So every
/// `[dependencies]` entry of every member must be named, with dashes as
/// underscores, somewhere in that member's `src/` or `benches/`.
#[test]
fn every_dependency_is_named_in_its_crate() {
    let root = workspace_root();
    let root_toml = std::fs::read_to_string(root.join("Cargo.toml")).expect("manifest reads");
    let mut unused = Vec::new();
    for member in workspace_members(&root_toml) {
        let dir = root.join(member);
        let toml = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
        let mut paths = Vec::new();
        for sub in ["src", "benches"].map(|sub| dir.join(sub)) {
            if sub.is_dir() {
                collect_rs(&sub, &mut paths).expect("sources list");
            }
        }
        let sources: String = paths
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("source reads"))
            .collect();
        for (dependency, _) in toml_table(&toml, "dependencies") {
            if !sources.contains(&dependency.replace('-', "_")) {
                unused.push(format!("{member}: {dependency}"));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies their crate never names (drop them from its Cargo.toml): {unused:?}"
    );
}

/// A vendored shim must not outlive its last user: nothing else fails when
/// the last crate stops naming it, and it keeps being built and tested. So
/// every directory under `vendor/` must be a path entry in
/// `[workspace.dependencies]`, and every such entry must be named in the
/// `[dependencies]` or `[dev-dependencies]` of some workspace member.
#[test]
fn every_vendor_shim_is_declared_and_used() {
    let root = workspace_root();
    let manifest = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("Cargo.toml")).expect("manifest reads")
    };
    let root_toml = manifest(".");
    let shims: Vec<(&str, &str)> = toml_table(&root_toml, "workspace.dependencies")
        .into_iter()
        .filter_map(|(name, value)| {
            let path = value.split("path = \"").nth(1)?.split('"').next()?;
            path.starts_with("vendor/").then_some((name, path))
        })
        .collect();

    let undeclared: Vec<String> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor/ lists")
        .map(|e| {
            format!(
                "vendor/{}",
                e.expect("entry reads").file_name().to_string_lossy()
            )
        })
        .filter(|dir| !shims.iter().any(|(_, path)| path == dir))
        .collect();
    assert!(
        undeclared.is_empty(),
        "vendor directories with no [workspace.dependencies] path entry: {undeclared:?}"
    );

    let mut named = Vec::new();
    for member in workspace_members(&root_toml) {
        let toml = manifest(member);
        for section in ["dependencies", "dev-dependencies"] {
            named.extend(
                toml_table(&toml, section)
                    .into_iter()
                    .map(|(k, _)| k.to_string()),
            );
        }
    }
    let unused: Vec<&str> = shims
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| !named.iter().any(|n| n == name))
        .collect();
    assert!(
        unused.is_empty(),
        "vendor shims no member depends on (delete them): {unused:?}"
    );
}

/// README's lock-rank sentence is the one place the global acquisition order
/// is written out for readers, so it must name exactly the `name(rank)`
/// pairs that `// audit:lock` registers under `crates/*/src`, in rank order.
#[test]
fn readme_rank_sentence_lists_every_registered_lock() {
    let root = workspace_root();
    let files = scan_workspace(&root).expect("workspace scans");
    let mut registered: Vec<(u32, String)> = files
        .iter()
        .flat_map(|f| f.locks.iter().map(|l| (l.rank, l.name.clone())))
        .collect();
    registered.sort();
    registered.dedup();
    let registered: Vec<String> = registered
        .into_iter()
        .map(|(rank, name)| format!("{name}({rank})"))
        .collect();

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md reads");
    let sentence = readme
        .split("The registered rank order encodes the core→store convention:")
        .nth(1)
        .and_then(|rest| rest.split('`').nth(1))
        .expect("README states the registered rank order in backticks");
    let listed: Vec<String> = sentence
        .split('<')
        .map(|pair| pair.split_whitespace().collect())
        .collect();
    assert_eq!(
        listed, registered,
        "README's rank sentence is out of date with the audit:lock annotations"
    );
}
