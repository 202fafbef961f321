//! The rule catalogue. Each rule is a function from the source model to a
//! list of findings; `run_all` is the single entry point the CLI and tests
//! share.

pub mod lock_order;
pub mod wire_hygiene;

use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::source::SourceFile;
use std::path::Path;

/// Runs every rule over the scanned workspace. `root` is needed by the
/// wire-hygiene rule to locate `wire.lock`.
pub fn run_all(files: &[SourceFile], root: &Path) -> Vec<Finding> {
    let mut findings = lock_order::check(files);
    findings.extend(wire_hygiene::check(files, root));
    findings.sort();
    findings
}

/// Brace/paren/bracket nesting depth at each token. An `Open` token sits at
/// the depth *outside* its group; its contents are one deeper.
pub(crate) fn depths(tokens: &[Token]) -> Vec<u32> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut d: u32 = 0;
    for t in tokens {
        match t.kind {
            TokenKind::Open(_) => {
                out.push(d);
                d += 1;
            }
            TokenKind::Close(_) => {
                d = d.saturating_sub(1);
                out.push(d);
            }
            _ => out.push(d),
        }
    }
    out
}

/// The half-open token range of the statement containing token `i`: from just
/// after the previous `;`/`{`/`}` at the same depth to and including the next
/// `;` at the same depth (or the token before depth drops below `i`'s).
pub(crate) fn statement_bounds(tokens: &[Token], depth: &[u32], i: usize) -> (usize, usize) {
    let d = depth[i];
    let mut start = i;
    while start > 0 {
        let p = start - 1;
        let boundary = depth[p] < d
            || (depth[p] == d
                && matches!(
                    tokens[p].kind,
                    TokenKind::Punct(';') | TokenKind::Open('{') | TokenKind::Close('}')
                ));
        if boundary {
            break;
        }
        start = p;
    }
    let mut end = i;
    while end < tokens.len() {
        if depth[end] < d {
            break;
        }
        if depth[end] == d && tokens[end].kind.is_punct(';') {
            end += 1;
            break;
        }
        end += 1;
    }
    (start, end)
}

/// The `let [mut] <name> =` binding at the start of a statement range, if any.
pub(crate) fn let_binding(tokens: &[Token], start: usize, end: usize) -> Option<String> {
    if tokens.get(start)?.kind.ident()? != "let" {
        return None;
    }
    let mut k = start + 1;
    if tokens.get(k)?.kind.ident() == Some("mut") {
        k += 1;
    }
    let name = tokens.get(k)?.kind.ident()?.to_string();
    // Skip an optional type ascription to require this is a plain binding,
    // not a destructuring pattern.
    match &tokens.get(k + 1)?.kind {
        TokenKind::Punct('=') | TokenKind::Punct(':') => {
            let _ = end;
            Some(name)
        }
        _ => None,
    }
}
