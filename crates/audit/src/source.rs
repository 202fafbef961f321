//! The source model: lexed files plus the annotation and test-region
//! structure every rule consumes.

use crate::lexer::{self, Comment, Token, TokenKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// An `// audit:allow(rule, reason)` annotation.
#[derive(Debug, Clone)]
pub struct AllowAnnotation {
    /// Line the comment sits on. The allowance covers this line and the next
    /// (annotation-above-the-statement style).
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// An `// audit:lock(name, rank)` annotation registering a lock field.
#[derive(Debug, Clone)]
pub struct LockAnnotation {
    pub line: u32,
    /// Human-readable lock name, e.g. `agg.core`.
    pub name: String,
    /// Position in the global acquisition order; lower ranks are taken first.
    pub rank: u32,
}

/// One lexed workspace file with its audit-relevant structure extracted.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// The `<name>` from `crates/<name>/src/…`.
    pub crate_name: String,
    pub tokens: Vec<Token>,
    /// `partner[i]` is the index of the delimiter matching token `i`.
    pub partner: Vec<usize>,
    pub comments: Vec<Comment>,
    pub allows: Vec<AllowAnnotation>,
    pub locks: Vec<LockAnnotation>,
    /// Half-open token ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Parses source text into the model. `rel_path` must use `/` separators.
    pub fn parse(rel_path: &str, source: &str) -> SourceFile {
        let lexed = lexer::lex(source);
        let partner = lexer::match_delims(&lexed.tokens);
        let crate_name = crate_of(rel_path);
        let (allows, locks) = parse_annotations(&lexed.comments);
        let test_ranges = find_test_ranges(&lexed.tokens, &partner);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            tokens: lexed.tokens,
            partner,
            comments: lexed.comments,
            allows,
            locks,
            test_ranges,
        }
    }

    /// Is token index `i` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// Does an `audit:allow(rule, …)` annotation cover `line`? Annotations
    /// cover their own line (trailing comment) and the line below (comment
    /// above the statement).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// The line of token `i` (saturating for out-of-range).
    pub fn line_of(&self, i: usize) -> u32 {
        self.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Field-name → lock annotation, resolved by finding the `ident :` that
    /// starts on the annotation's line or the line below it.
    pub fn lock_fields(&self) -> BTreeMap<String, LockAnnotation> {
        let mut map = BTreeMap::new();
        for ann in &self.locks {
            // Find the first `Ident` on ann.line or ann.line + 1 that is
            // immediately followed by `:` — the struct field the annotation
            // documents.
            let mut k = 0usize;
            while k < self.tokens.len() {
                let t = &self.tokens[k];
                if (t.line == ann.line || t.line == ann.line + 1)
                    && matches!(t.kind, TokenKind::Ident(_))
                    && self
                        .tokens
                        .get(k + 1)
                        .map(|n| n.kind.is_punct(':'))
                        .unwrap_or(false)
                {
                    if let TokenKind::Ident(name) = &t.kind {
                        // Skip visibility-path idents like `pub(crate)` — a
                        // field name is never followed by `::`.
                        let double_colon = self
                            .tokens
                            .get(k + 2)
                            .map(|n| n.kind.is_punct(':'))
                            .unwrap_or(false);
                        if !double_colon {
                            map.insert(name.clone(), ann.clone());
                            break;
                        }
                    }
                }
                if t.line > ann.line + 1 {
                    break;
                }
                k += 1;
            }
        }
        map
    }
}

fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => String::from("(root)"),
    }
}

fn parse_annotations(comments: &[Comment]) -> (Vec<AllowAnnotation>, Vec<LockAnnotation>) {
    let mut allows = Vec::new();
    let mut locks = Vec::new();
    for c in comments {
        let text = c.text.trim();
        if let Some(body) = annotation_body(text, "audit:allow") {
            if let Some((rule, reason)) = split_two(body) {
                allows.push(AllowAnnotation {
                    line: c.line,
                    rule,
                    reason,
                });
            }
        } else if let Some(body) = annotation_body(text, "audit:lock") {
            if let Some((name, rank)) = split_two(body) {
                if let Ok(rank) = rank.parse::<u32>() {
                    locks.push(LockAnnotation {
                        line: c.line,
                        name,
                        rank,
                    });
                }
            }
        }
    }
    (allows, locks)
}

/// Extracts `…` from `prefix(…)` anywhere in a comment.
fn annotation_body<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    let at = text.find(prefix)?;
    let rest = &text[at + prefix.len()..];
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    Some(&rest[..close])
}

/// Splits `a, b...` at the first comma, trimming both halves.
fn split_two(body: &str) -> Option<(String, String)> {
    let (a, b) = body.split_once(',')?;
    let (a, b) = (a.trim(), b.trim());
    if a.is_empty() || b.is_empty() {
        return None;
    }
    Some((a.to_string(), b.to_string()))
}

/// Finds token ranges of items annotated `#[cfg(test)]`: the attribute pattern
/// `# [ cfg ( test ) ]`, then the item it attaches to, through its closing
/// brace (or terminating `;` for declarations).
fn find_test_ranges(tokens: &[Token], partner: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].kind.is_punct('#')
            && matches!(tokens[i + 1].kind, TokenKind::Open('['))
            && tokens[i + 2].kind.ident() == Some("cfg")
            && matches!(tokens[i + 3].kind, TokenKind::Open('('))
            && tokens[i + 4].kind.ident() == Some("test")
            && matches!(tokens[i + 5].kind, TokenKind::Close(')'))
            && matches!(tokens[i + 6].kind, TokenKind::Close(']'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then consume the item: everything up
        // to the first top-level `{…}` (inclusive) or `;`.
        let mut j = i + 7;
        while j + 1 < tokens.len()
            && tokens[j].kind.is_punct('#')
            && matches!(tokens[j + 1].kind, TokenKind::Open('['))
        {
            let close = partner[j + 1];
            if close == usize::MAX {
                break;
            }
            j = close + 1;
        }
        let mut end = j;
        while end < tokens.len() {
            match tokens[end].kind {
                TokenKind::Open('{') => {
                    let close = partner[end];
                    end = if close == usize::MAX {
                        tokens.len()
                    } else {
                        close + 1
                    };
                    break;
                }
                // Skip nested non-brace groups (generics bounds with parens,
                // where-clauses can't contain stray `;`).
                TokenKind::Open(_) => {
                    let close = partner[end];
                    end = if close == usize::MAX {
                        tokens.len()
                    } else {
                        close + 1
                    };
                }
                TokenKind::Punct(';') => {
                    end += 1;
                    break;
                }
                _ => end += 1,
            }
        }
        ranges.push((i, end));
        i = end.max(i + 1);
    }
    ranges
}

/// Scans `<root>/crates/*/src/**/*.rs` in deterministic (sorted path) order
/// and parses each file. Unreadable entries are reported as errors.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

/// Appends the path of every `.rs` file under `dir`, recursively, to `out`.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_parse() {
        let src = "\
// audit:allow(unordered-iter, snapshot export sorts below)
let x = map.iter();
struct S {
    // audit:lock(agg.core, 10)
    core: Mutex<u8>,
}
";
        let f = SourceFile::parse("crates/agg/src/lib.rs", src);
        assert_eq!(f.crate_name, "agg");
        assert!(f.allowed("unordered-iter", 1));
        assert!(f.allowed("unordered-iter", 2));
        assert!(!f.allowed("unordered-iter", 3));
        assert!(!f.allowed("panic-freedom", 2));
        let fields = f.lock_fields();
        let ann = fields.get("core").expect("core field registered");
        assert_eq!(ann.name, "agg.core");
        assert_eq!(ann.rank, 10);
    }

    #[test]
    fn lock_annotation_trailing_style() {
        let src = "struct S { core: Mutex<u8>, // audit:lock(agg.core, 10)\n }";
        let f = SourceFile::parse("crates/agg/src/lib.rs", src);
        let fields = f.lock_fields();
        assert_eq!(fields.get("core").map(|a| a.rank), Some(10));
    }

    #[test]
    fn test_ranges_cover_mod_and_fn() {
        let src = "\
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn inner() { y.unwrap(); }
}
#[cfg(test)]
#[derive(Debug)]
struct Probe;
fn live_again() {}
";
        let f = SourceFile::parse("crates/core/src/lib.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.ident() == Some("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
        // The struct after a second attribute is covered; the next fn is not.
        let probe = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("Probe"))
            .unwrap();
        assert!(f.in_test(probe));
        let live_again = f
            .tokens
            .iter()
            .position(|t| t.kind.ident() == Some("live_again"))
            .unwrap();
        assert!(!f.in_test(live_again));
    }
}
