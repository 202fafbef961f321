//! Findings, the baseline of grandfathered findings, and the JSON report.
//!
//! The JSON writer is hand-rolled (the workspace vendors no serde); the
//! baseline uses a line-oriented text format so it needs no parser at all:
//!
//! ```text
//! # comment
//! <rule> <file> <line>
//! ```

use std::fmt::Write as _;
use std::path::Path;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug, e.g. `lock-order`.
    pub rule: String,
    /// Human-readable description of what fired and why it matters.
    pub message: String,
}

impl Finding {
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }

    /// The `rule file line` key used by the baseline.
    pub fn key(&self) -> String {
        format!("{} {} {}", self.rule, self.file, self.line)
    }
}

/// A parsed baseline: the set of grandfathered finding keys, in file order.
#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<String>,
}

/// A baseline line that failed to parse.
#[derive(Debug)]
pub struct BaselineError {
    pub line_no: usize,
    pub text: String,
}

impl Baseline {
    /// Parses baseline text. Blank lines and `#` comments are skipped; every
    /// other line must be exactly `rule file line`.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let ok = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(_rule), Some(_file), Some(n), None) => n.parse::<u32>().is_ok(),
                _ => false,
            };
            if !ok {
                return Err(BaselineError {
                    line_no: idx + 1,
                    text: raw.to_string(),
                });
            }
            entries.push(line.to_string());
        }
        Ok(Baseline { entries })
    }

    /// Loads a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text).map_err(|e| {
                format!(
                    "{}:{}: malformed baseline entry {:?} (want `rule file line`)",
                    path.display(),
                    e.line_no,
                    e.text
                )
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Splits findings into (new, grandfathered) and returns stale baseline
    /// entries — keys no current finding matches. Stale entries must be
    /// pruned: a baseline that outlives its findings hides regressions that
    /// reintroduce them at the same location.
    pub fn apply(&self, findings: &[Finding]) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
        let keys: Vec<String> = findings.iter().map(|f| f.key()).collect();
        let mut fresh = Vec::new();
        let mut grandfathered = Vec::new();
        for (f, key) in findings.iter().zip(&keys) {
            if self.entries.iter().any(|e| e == key) {
                grandfathered.push(f.clone());
            } else {
                fresh.push(f.clone());
            }
        }
        let stale: Vec<String> = self
            .entries
            .iter()
            .filter(|e| !keys.iter().any(|k| k == *e))
            .cloned()
            .collect();
        (fresh, grandfathered, stale)
    }
}

/// Renders the machine-readable report consumed by CI.
pub fn render_json(findings: &[Finding], grandfathered: &[Finding], stale: &[String]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"findings\": [");
    write_finding_array(&mut out, findings);
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"grandfathered\": [");
    write_finding_array(&mut out, grandfathered);
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"stale_baseline_entries\": [");
    for (i, s) in stale.iter().enumerate() {
        let comma = if i + 1 < stale.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", json_string(s));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"counts\": {{ \"findings\": {}, \"grandfathered\": {}, \"stale\": {} }}",
        findings.len(),
        grandfathered.len(),
        stale.len()
    );
    out.push_str("}\n");
    out
}

fn write_finding_array(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {} }}{comma}",
            json_string(&f.rule),
            json_string(&f.file),
            f.line,
            json_string(&f.message)
        );
    }
}

/// Escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &str, file: &str, line: u32) -> Finding {
        Finding::new(rule, file, line, format!("{rule} fired"))
    }

    #[test]
    fn baseline_round_trip_and_staleness() {
        let text = "# grandfathered\nlock-order crates/agg/src/epoch.rs 10\nwire-hygiene crates/proto/src/message.rs 59\n";
        let baseline = Baseline::parse(text).unwrap();
        assert_eq!(baseline.entries.len(), 2);
        let findings = vec![
            f("lock-order", "crates/agg/src/epoch.rs", 10),
            f("lock-order", "crates/agg/src/dedup.rs", 4),
        ];
        let (fresh, grandfathered, stale) = baseline.apply(&findings);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].file, "crates/agg/src/dedup.rs");
        assert_eq!(grandfathered.len(), 1);
        assert_eq!(stale, vec!["wire-hygiene crates/proto/src/message.rs 59"]);
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(Baseline::parse("just-two fields").is_err());
        assert!(Baseline::parse("rule file notanumber").is_err());
        assert!(Baseline::parse("rule file 10 extra").is_err());
        assert!(Baseline::parse("\n# only comments\n\n")
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn json_is_escaped_and_counted() {
        let findings = vec![Finding::new(
            "wire-hygiene",
            "crates/proto/src/message.rs",
            1,
            "tag \"7\"\nchanged".into(),
        )];
        let json = render_json(&findings, &[], &["a b 1".into()]);
        assert!(json.contains("\\\"7\\\"\\nchanged"));
        assert!(json.contains("\"findings\": 1"));
        assert!(json.contains("\"stale\": 1"));
    }
}
