//! Rule `unordered-iter`: `HashMap`/`HashSet` iteration in
//! determinism-critical crates.
//!
//! `HashMap` iteration order depends on the hasher's per-process random seed,
//! so any value derived from it — merged parameters, ack contents, persisted
//! ledgers — varies run to run. In the crates whose outputs must be bitwise
//! reproducible (`core`, `agg`, `store`, `learning`, `linalg`) every iteration over
//! a hash container must either be sorted before use, switched to a BTree
//! container, or explicitly waived with
//! `// audit:allow(unordered-iter, reason)`.
//!
//! Detection is name-based: identifiers whose declared type (or constructor)
//! is `HashMap`/`HashSet` are tracked per file, and `iter`/`keys`/`values`/
//! `drain`/`into_iter`/`for … in &x` sites on them are flagged. Escapes: an
//! allow annotation, a sort in the same statement, or an immediately
//! following `<binding>.sort…` statement on the collected result.

use super::{depths, let_binding, statement_bounds};
use crate::config::DETERMINISM_CRATES;
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub const RULE: &str = "unordered-iter";

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let hashed = hash_typed_idents(file);
        if hashed.is_empty() {
            continue;
        }
        let depth = depths(&file.tokens);
        for i in 0..file.tokens.len() {
            if file.in_test(i) {
                continue;
            }
            if let Some(site) = iteration_site(file, &hashed, i) {
                let line = file.line_of(i);
                if file.allowed(RULE, line) {
                    continue;
                }
                let (start, end) = statement_bounds(&file.tokens, &depth, i);
                if statement_sorts(file, start, end)
                    || next_statement_sorts(file, &depth, start, end)
                {
                    continue;
                }
                findings.push(Finding::new(
                    RULE,
                    &file.rel_path,
                    line,
                    format!(
                        "iteration over hash container `{site}` in determinism-critical \
                         crate `{}` — sort the result, use a BTree container, or annotate \
                         `// audit:allow(unordered-iter, reason)`",
                        file.crate_name
                    ),
                ));
            }
        }
    }
    findings
}

/// Identifiers declared (or constructed) as `HashMap`/`HashSet` in this file:
/// `name: [path::]HashMap<…>` fields/ascriptions and
/// `let [mut] name = HashMap::new()`-style constructions.
fn hash_typed_idents(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(ty) = t.kind.ident() else { continue };
        if !HASH_TYPES.contains(&ty) {
            continue;
        }
        // Back-walk over a path prefix (`std :: collections ::`) to the
        // token introducing the type.
        let mut k = i;
        while k >= 2 && toks[k - 1].kind.is_punct(':') && toks[k - 2].kind.is_punct(':') {
            k -= 2;
            if k > 0 && matches!(toks[k - 1].kind, TokenKind::Ident(_)) {
                k -= 1;
            }
        }
        if k == 0 {
            continue;
        }
        match &toks[k - 1].kind {
            // `name : HashMap<…>` — field or type ascription.
            TokenKind::Punct(':') if k >= 2 && !toks[k - 2].kind.is_punct(':') => {
                if let Some(name) = toks[k - 2].kind.ident() {
                    out.insert(name.to_string());
                }
            }
            // `name = HashMap::new()` / `name = HashMap::with_capacity(…)`.
            TokenKind::Punct('=') if k >= 2 => {
                if let Some(name) = toks[k - 2].kind.ident() {
                    out.insert(name.to_string());
                }
            }
            _ => {}
        }
    }
    out
}

/// If token `i` is an iteration site over a tracked ident, returns the ident.
fn iteration_site(file: &SourceFile, hashed: &BTreeSet<String>, i: usize) -> Option<String> {
    let toks = &file.tokens;
    let t = toks.get(i)?;
    if let Some(m) = t.kind.ident() {
        // `x.iter()` — method named in ITER_METHODS, preceded by `. ident`
        // where ident is tracked, followed by `(`.
        if ITER_METHODS.contains(&m)
            && i >= 2
            && toks[i - 1].kind.is_punct('.')
            && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokenKind::Open('(')))
        {
            if let Some(recv) = toks[i - 2].kind.ident() {
                if hashed.contains(recv) {
                    return Some(recv.to_string());
                }
            }
        }
        // `for pat in &x {` / `for pat in &mut x {` / `for pat in x {`.
        if m == "for" {
            let mut k = i + 1;
            let mut guard = 0;
            while k < toks.len() && toks[k].kind.ident() != Some("in") && guard < 24 {
                k += 1;
                guard += 1;
            }
            if k < toks.len() && toks[k].kind.ident() == Some("in") {
                let mut e = k + 1;
                while e < toks.len()
                    && (toks[e].kind.is_punct('&') || toks[e].kind.ident() == Some("mut"))
                {
                    e += 1;
                }
                if let Some(name) = toks.get(e).and_then(|t| t.kind.ident()) {
                    // Must be the whole iterated expression: next token opens
                    // the loop body (or dereferences a field of self).
                    let next = toks.get(e + 1).map(|t| &t.kind);
                    let direct = matches!(next, Some(TokenKind::Open('{')));
                    if direct && hashed.contains(name) {
                        return Some(name.to_string());
                    }
                    // `for … in &self.x {`
                    if name == "self" && matches!(next, Some(TokenKind::Punct('.'))) {
                        if let Some(fld) = toks.get(e + 2).and_then(|t| t.kind.ident()) {
                            if hashed.contains(fld)
                                && matches!(
                                    toks.get(e + 3).map(|t| &t.kind),
                                    Some(TokenKind::Open('{'))
                                )
                            {
                                return Some(fld.to_string());
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Does the statement `[start, end)` contain a sort or a BTree collect?
fn statement_sorts(file: &SourceFile, start: usize, end: usize) -> bool {
    file.tokens[start..end.min(file.tokens.len())]
        .iter()
        .any(|t| match t.kind.ident() {
            Some(id) => id.starts_with("sort") || id == "BTreeMap" || id == "BTreeSet",
            None => false,
        })
}

/// Collect-then-sort across two statements:
/// `let mut v = map.keys().collect(); v.sort_unstable();`.
fn next_statement_sorts(file: &SourceFile, depth: &[u32], start: usize, end: usize) -> bool {
    let Some(binding) = let_binding(&file.tokens, start, end) else {
        return false;
    };
    let toks = &file.tokens;
    if end >= toks.len() || depth.get(end).copied() != depth.get(start).copied() {
        return false;
    }
    toks.get(end).and_then(|t| t.kind.ident()) == Some(binding.as_str())
        && toks
            .get(end + 1)
            .map(|t| t.kind.is_punct('.'))
            .unwrap_or(false)
        && toks
            .get(end + 2)
            .and_then(|t| t.kind.ident())
            .map(|id| id.starts_with("sort"))
            .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/agg/src/x.rs", src);
        check(&[file])
    }

    #[test]
    fn flags_iteration_in_determinism_crate() {
        let src = "\
struct S { m: HashMap<u64, f64> }
impl S {
    fn f(&self) -> f64 { self.m.values().sum() }
    fn g(&self) { for (k, v) in &self.m { use_it(k, v); } }
}
";
        let found = run(src);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 3);
        assert_eq!(found[1].line, 4);
    }

    #[test]
    fn non_determinism_crate_is_ignored() {
        let src = "fn f(m: HashMap<u8, u8>) { for x in &m {} }";
        let file = SourceFile::parse("crates/net/src/x.rs", src);
        assert!(check(&[file]).is_empty());
    }

    #[test]
    fn allow_and_sort_escapes() {
        let src = "\
fn f(m: HashMap<u64, f64>) {
    // audit:allow(unordered-iter, summed — order cancels)
    let total: f64 = m.values().sum();
    let sorted: Vec<_> = { let mut v: Vec<_> = m.keys().copied().collect(); v.sort_unstable(); v };
    let mut ks: Vec<_> = m.keys().collect();
    ks.sort();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn let_constructed_map_is_tracked() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for x in &m {} }";
        let found = run(src);
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f(m: HashMap<u8, u8>) { for x in &m {} } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn btreemap_is_fine() {
        let src =
            "struct S { m: BTreeMap<u64, f64> }\nimpl S { fn f(&self) { for x in &self.m {} } }";
        assert!(run(src).is_empty());
    }
}
