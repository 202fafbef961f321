//! Rule `wire-hygiene`: the message tag table matches the checked-in
//! `wire.lock`, and any change to it bumps `PROTOCOL_VERSION`.
//!
//! An old client decodes frames by tag; silently reusing or renumbering a tag
//! turns a version skew into garbage decodes instead of a clean
//! `ErrorCode::UnsupportedVersion` rejection. The rule extracts the live tag
//! table from `Message::tag` and `PROTOCOL_VERSION` from `crowd-proto`,
//! checks tag uniqueness, and diffs against the `wire.lock` manifest at the
//! workspace root. Changing the message set without bumping the version is a
//! finding; after a legitimate change + bump, refresh the manifest with
//! `cargo run -p crowd-audit -- --update-wire-lock`.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use std::path::Path;

pub const RULE: &str = "wire-hygiene";

/// File name of the manifest at the workspace root.
pub const WIRE_LOCK_FILE: &str = "wire.lock";

/// The file carrying the message tag table (`Message::tag`).
pub const WIRE_MESSAGE_FILE: &str = "crates/proto/src/message.rs";

/// The file carrying `PROTOCOL_VERSION`.
pub const WIRE_VERSION_FILE: &str = "crates/proto/src/lib.rs";

/// The live wire surface: protocol version plus the (tag, variant) table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSurface {
    pub version: u64,
    /// Sorted by tag.
    pub tags: Vec<(u64, String)>,
}

impl WireSurface {
    /// Renders the manifest format: a version line, then one `tag variant`
    /// line per message, sorted by tag.
    pub fn render(&self) -> String {
        let mut out = String::from("# Wire surface manifest — regenerate with:\n");
        out.push_str("#   cargo run -p crowd-audit -- --update-wire-lock\n");
        out.push_str(&format!("version {}\n", self.version));
        for (tag, name) in &self.tags {
            out.push_str(&format!("{tag} {name}\n"));
        }
        out
    }

    /// Parses the manifest format. Returns `None` on any malformed line.
    pub fn parse(text: &str) -> Option<WireSurface> {
        let mut version = None;
        let mut tags = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(v) = line.strip_prefix("version ") {
                version = Some(v.trim().parse::<u64>().ok()?);
            } else {
                let (tag, name) = line.split_once(' ')?;
                tags.push((tag.trim().parse::<u64>().ok()?, name.trim().to_string()));
            }
        }
        tags.sort();
        Some(WireSurface {
            version: version?,
            tags,
        })
    }
}

/// Extracts the live wire surface from the scanned workspace. `None` if the
/// proto files are missing (e.g. a fixture tree without a wire surface).
pub fn extract(files: &[SourceFile]) -> Option<WireSurface> {
    let message_file = files.iter().find(|f| f.rel_path == WIRE_MESSAGE_FILE)?;
    let version_file = files.iter().find(|f| f.rel_path == WIRE_VERSION_FILE)?;
    let version = protocol_version(version_file)?;
    let tags = tag_table(message_file)?;
    Some(WireSurface { version, tags })
}

/// `pub const PROTOCOL_VERSION: <ty> = <number>;`
fn protocol_version(file: &SourceFile) -> Option<u64> {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind.ident() == Some("PROTOCOL_VERSION") {
            let mut k = i + 1;
            while k < toks.len() && !toks[k].kind.is_punct('=') {
                if toks[k].kind.is_punct(';') {
                    return None;
                }
                k += 1;
            }
            if let Some(TokenKind::Literal(lit)) = toks.get(k + 1).map(|t| &t.kind) {
                return parse_number(lit);
            }
        }
    }
    None
}

/// The match arms of `fn tag`: `Message :: Variant ( … ) => <number>`.
fn tag_table(file: &SourceFile) -> Option<Vec<(u64, String)>> {
    let toks = &file.tokens;
    let fn_idx = (0..toks.len()).find(|&i| {
        toks[i].kind.ident() == Some("fn")
            && toks.get(i + 1).and_then(|t| t.kind.ident()) == Some("tag")
    })?;
    // Body of fn tag.
    let open = (fn_idx..toks.len()).find(|&i| matches!(toks[i].kind, TokenKind::Open('{')))?;
    let close = file.partner[open];
    if close == usize::MAX {
        return None;
    }
    let mut tags = Vec::new();
    let mut i = open + 1;
    while i + 2 < close {
        // `Variant ( … ) => NUM` or `Variant { … } => NUM`, where Variant is
        // the ident after `::`.
        if matches!(toks[i].kind, TokenKind::Ident(_))
            && i >= 2
            && toks[i - 1].kind.is_punct(':')
            && toks[i - 2].kind.is_punct(':')
        {
            let name = toks[i].kind.ident()?.to_string();
            let mut k = i + 1;
            if let TokenKind::Open(c) = toks[k].kind {
                if c == '(' || c == '{' {
                    let p = file.partner[k];
                    if p == usize::MAX {
                        return None;
                    }
                    k = p + 1;
                }
            }
            if toks.get(k).map(|t| t.kind.is_punct('=')).unwrap_or(false)
                && toks
                    .get(k + 1)
                    .map(|t| t.kind.is_punct('>'))
                    .unwrap_or(false)
            {
                if let Some(TokenKind::Literal(lit)) = toks.get(k + 2).map(|t| &t.kind) {
                    if let Some(n) = parse_number(lit) {
                        tags.push((n, name));
                    }
                }
            }
            i = k;
        } else {
            i += 1;
        }
    }
    tags.sort();
    Some(tags)
}

fn parse_number(lit: &str) -> Option<u64> {
    // Strip type suffixes (`3u16`) and underscores.
    let digits: String = lit
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if digits.is_empty() {
        None
    } else {
        digits.parse().ok()
    }
}

pub fn check(files: &[SourceFile], root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(live) = extract(files) else {
        // No proto crate in this tree (fixture workspaces) — nothing to check.
        return findings;
    };

    // Tag uniqueness.
    for w in live.tags.windows(2) {
        if w[0].0 == w[1].0 {
            findings.push(Finding::new(
                RULE,
                WIRE_MESSAGE_FILE,
                0,
                format!(
                    "wire tag {} assigned to both `{}` and `{}`",
                    w[0].0, w[0].1, w[1].1
                ),
            ));
        }
    }

    let lock_path = root.join(WIRE_LOCK_FILE);
    let lock_text = match std::fs::read_to_string(&lock_path) {
        Ok(t) => t,
        Err(_) => {
            findings.push(Finding::new(
                RULE,
                WIRE_LOCK_FILE,
                0,
                "wire.lock manifest is missing — generate it with \
                 `cargo run -p crowd-audit -- --update-wire-lock`"
                    .to_string(),
            ));
            return findings;
        }
    };
    let Some(locked) = WireSurface::parse(&lock_text) else {
        findings.push(Finding::new(
            RULE,
            WIRE_LOCK_FILE,
            0,
            "wire.lock manifest is malformed — regenerate it with \
             `cargo run -p crowd-audit -- --update-wire-lock`"
                .to_string(),
        ));
        return findings;
    };

    if live.tags != locked.tags && live.version == locked.version {
        findings.push(Finding::new(
            RULE,
            WIRE_MESSAGE_FILE,
            0,
            format!(
                "message set changed (wire.lock records {} messages, live table has {}) \
                 without a PROTOCOL_VERSION bump — old peers would mis-decode; bump the \
                 version, then refresh wire.lock",
                locked.tags.len(),
                live.tags.len()
            ),
        ));
    } else if live.version != locked.version {
        findings.push(Finding::new(
            RULE,
            WIRE_LOCK_FILE,
            0,
            format!(
                "wire.lock is stale (records version {}, live is {}) — refresh it with \
                 `cargo run -p crowd-audit -- --update-wire-lock`",
                locked.version, live.version
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto_files(version: &str, arms: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::parse(
                WIRE_VERSION_FILE,
                &format!("pub const PROTOCOL_VERSION: u16 = {version};"),
            ),
            SourceFile::parse(
                WIRE_MESSAGE_FILE,
                &format!(
                    "impl Message {{ pub fn tag(&self) -> u8 {{ match self {{ {arms} }} }} }}"
                ),
            ),
        ]
    }

    #[test]
    fn extracts_version_and_tags() {
        let files = proto_files("3", "Message::A(_) => 1, Message::B(_) => 2,");
        let surface = extract(&files).unwrap();
        assert_eq!(surface.version, 3);
        assert_eq!(surface.tags, vec![(1, "A".into()), (2, "B".into())]);
    }

    #[test]
    fn manifest_round_trips() {
        let s = WireSurface {
            version: 3,
            tags: vec![(1, "A".into()), (2, "B".into())],
        };
        assert_eq!(WireSurface::parse(&s.render()), Some(s));
        assert_eq!(WireSurface::parse("version x\n"), None);
        assert_eq!(WireSurface::parse("1 A\n"), None); // no version line
    }

    #[test]
    fn duplicate_tags_are_flagged() {
        let files = proto_files("3", "Message::A(_) => 1, Message::B(_) => 1,");
        let dir = std::env::temp_dir().join(format!("audit-wire-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WIRE_LOCK_FILE), "version 3\n1 A\n1 B\n").unwrap();
        let found = check(&files, &dir);
        assert!(found.iter().any(|f| f.message.contains("assigned to both")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn change_without_bump_and_stale_lock() {
        let dir = std::env::temp_dir().join(format!("audit-wire-chk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WIRE_LOCK_FILE), "version 3\n1 A\n").unwrap();

        // Same version, extra message: the failure the rule exists for.
        let grown = proto_files("3", "Message::A(_) => 1, Message::B(_) => 2,");
        let found = check(&grown, &dir);
        assert!(found
            .iter()
            .any(|f| f.message.contains("without a PROTOCOL_VERSION bump")));

        // Bumped version: the lock is merely stale.
        let bumped = proto_files("4", "Message::A(_) => 1, Message::B(_) => 2,");
        let found = check(&bumped, &dir);
        assert!(found.iter().any(|f| f.message.contains("stale")));

        // In sync: clean.
        std::fs::write(dir.join(WIRE_LOCK_FILE), "version 4\n1 A\n2 B\n").unwrap();
        assert!(check(&bumped, &dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
