//! `crowd-audit`: the workspace's static-analysis pass.
//!
//! Every correctness claim this reproduction makes — bitwise
//! interleaving-independent merges, bitwise crash recovery, bitwise
//! chaos-vs-reference equivalence — rests on invariants that ordinary tests
//! only probe dynamically: no unordered iteration feeding outputs, no wall
//! clock in deterministic code, no panics in request paths, one global lock
//! order, a wire surface that never changes without a version bump, and
//! policy tables whose every entry still names a module that exists. This
//! crate checks them *statically*, on every CI run, with a hand-rolled lexer
//! and token-tree walker (the workspace vendors no `syn`).
//!
//! The rule catalogue lives in [`rules`]; the policy tables (which crates and
//! files each rule covers) in [`config`]; findings, the baseline, and the
//! JSON report in [`report`]. The `crowd-audit` binary wires them to a CLI:
//!
//! ```text
//! cargo run -p crowd-audit -- --deny          # CI mode: nonzero on findings
//! cargo run -p crowd-audit -- --update-wire-lock
//! ```
//!
//! Suppressions are per-site comments, always with a reason:
//!
//! ```text
//! // audit:allow(<rule>, <reason>)   — waive one finding on the next line
//! // audit:lock(<name>, <rank>)     — register a Mutex/RwLock field
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use report::{Baseline, Finding};
use std::path::Path;

/// The outcome of one audit run over a workspace tree.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Findings not covered by the baseline — these fail `--deny`.
    pub fresh: Vec<Finding>,
    /// Findings grandfathered by the baseline.
    pub grandfathered: Vec<Finding>,
    /// Baseline entries matching no current finding — these also fail
    /// `--deny`, because a stale baseline hides regressions.
    pub stale: Vec<String>,
}

impl AuditOutcome {
    /// Does this run pass a `--deny` gate?
    pub fn clean(&self) -> bool {
        self.fresh.is_empty() && self.stale.is_empty()
    }
}

/// Scans the workspace at `root`, runs every rule, and applies the baseline
/// at `baseline_path`.
pub fn run(root: &Path, baseline_path: &Path) -> Result<AuditOutcome, String> {
    let files = source::scan_workspace(root).map_err(|e| format!("scanning {root:?}: {e}"))?;
    let findings = rules::run_all(&files, root);
    let baseline = Baseline::load(baseline_path)?;
    let (fresh, grandfathered, stale) = baseline.apply(&findings);
    Ok(AuditOutcome {
        fresh,
        grandfathered,
        stale,
    })
}

/// Regenerates the `wire.lock` manifest from the live proto sources.
/// `Ok(false)` when the tree has no wire surface to record.
pub fn update_wire_lock(root: &Path) -> Result<bool, String> {
    let files = source::scan_workspace(root).map_err(|e| format!("scanning {root:?}: {e}"))?;
    match rules::wire_hygiene::extract(&files) {
        Some(surface) => {
            let path = root.join(rules::wire_hygiene::WIRE_LOCK_FILE);
            std::fs::write(&path, surface.render())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(true)
        }
        None => Ok(false),
    }
}
