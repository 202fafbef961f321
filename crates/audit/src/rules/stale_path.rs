//! Rule `stale-path`: a policy-table entry that names nothing.
//!
//! `panic-freedom` and `wallclock` decide where they apply from path-prefix
//! tables in [`crate::config`], and `unordered-iter` from a table of crate
//! names. Delete or rename a module or crate and its entry keeps compiling
//! while guarding nothing, so every entry must name a file or directory that
//! exists under the audited root (a crate name: `crates/<name>/`).
//!
//! The entries are read from the audited tree's own copy of the tables
//! ([`CONFIG_FILE`]), so a finding points at the line to fix; a tree without
//! that file (the other rules' fixtures) has no tables to hold to anything.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use std::path::Path;

pub const RULE: &str = "stale-path";

/// Where the policy tables live, workspace-relative.
pub const CONFIG_FILE: &str = "crates/audit/src/config.rs";

/// `(table, directory its entries are relative to)`.
const PATH_TABLES: &[(&str, &str)] = &[
    ("PANIC_FREE_PATHS", ""),
    ("WALLCLOCK_ALLOWED", ""),
    ("DETERMINISM_CRATES", "crates/"),
];

/// `(table, path, line)` for the string literals of every
/// `const <TABLE>: … = &[ … ];` in `config`, each joined to its table's
/// directory.
pub fn entries(config: &SourceFile) -> Vec<(&'static str, String, u32)> {
    let tokens = &config.tokens;
    let mut out = Vec::new();
    for &(table, dir) in PATH_TABLES {
        // Past the `=` (the type before it has brackets of its own), the
        // first `[` opens the initializer.
        let Some(open) = tokens
            .iter()
            .position(|t| t.kind.ident() == Some(table))
            .and_then(|name| (name..tokens.len()).find(|&i| tokens[i].kind.is_punct('=')))
            .and_then(|eq| (eq..tokens.len()).find(|&i| tokens[i].kind == TokenKind::Open('[')))
        else {
            continue;
        };
        for token in &tokens[open..config.partner[open].min(tokens.len())] {
            let TokenKind::Literal(text) = &token.kind else {
                continue;
            };
            if let Some(entry) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
                out.push((table, format!("{dir}{entry}"), token.line));
            }
        }
    }
    out
}

pub fn check(files: &[SourceFile], root: &Path) -> Vec<Finding> {
    let Some(config) = files.iter().find(|f| f.rel_path == CONFIG_FILE) else {
        return Vec::new();
    };
    entries(config)
        .into_iter()
        .filter(|(_, path, _)| !root.join(path).exists())
        .map(|(table, path, line)| {
            Finding::new(
                RULE,
                CONFIG_FILE,
                line,
                format!(
                    "`{path}` in {table} names no file or directory — the module or crate \
                     was deleted or renamed; drop the entry or point it at its new home"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DETERMINISM_CRATES, PANIC_FREE_PATHS, WALLCLOCK_ALLOWED};

    #[test]
    fn reads_exactly_the_compiled_in_tables() {
        // The rule checks what it reads from the tree; this pins that to
        // what the other rules actually use.
        let config = SourceFile::parse(CONFIG_FILE, include_str!("../config.rs"));
        let read = entries(&config);
        for (table, dir, compiled) in [
            ("PANIC_FREE_PATHS", "", PANIC_FREE_PATHS),
            ("WALLCLOCK_ALLOWED", "", WALLCLOCK_ALLOWED),
            ("DETERMINISM_CRATES", "crates/", DETERMINISM_CRATES),
        ] {
            let paths: Vec<&str> = read
                .iter()
                .filter(|(t, ..)| *t == table)
                .map(|(_, path, _)| path.as_str())
                .collect();
            let expected: Vec<String> = compiled.iter().map(|e| format!("{dir}{e}")).collect();
            assert_eq!(paths, expected, "{table}");
        }
    }
}
