//! Bench regression gate: compares a current quick-mode bench run against a
//! checked-in baseline and fails on large regressions.
//!
//! Usage: `bench_gate <BENCH_baseline.json> <current.json> [more-current.json…]`
//!
//! Both inputs are JSON-lines files as written by the vendored criterion's
//! `BENCH_JSON` hook — one `{"name": "...", "ns_per_iter": N}` object per
//! line. The gate always prints the full delta table (baseline, current,
//! ratio, verdict per tracked bench) and exits non-zero iff any bench present
//! in BOTH files regressed past the threshold.
//!
//! Threshold: `BENCH_GATE_RATIO` (default 2.5×). Deliberately tolerant —
//! quick-mode windows on shared CI runners are noisy, and the gate exists to
//! catch order-of-magnitude mistakes (an accidental clone in the codec hot
//! loop), not 10% drifts; the uploaded `BENCH_*.json` artifacts carry the
//! fine-grained trajectory. Benches only in the baseline (renamed/removed)
//! are reported but do not fail the gate; benches only in the current run are
//! reported as new. Refresh the baseline by re-running the bench-smoke
//! commands from the workflow and checking in the fresh file (see README,
//! "Chaos & CI").

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default regression threshold: current/baseline above this fails the gate.
const DEFAULT_RATIO: f64 = 2.5;

/// Parses one `{"name":"…","ns_per_iter":N}` JSON line. Hand-rolled because
/// the workspace is offline (no serde); the format is machine-written, so the
/// parser only needs to be exact, not general.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let name_key = line.find("\"name\"")?;
    let after = &line[name_key + "\"name\"".len()..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    // The writer escapes only `"` and `\`; unescape them.
    let mut name = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(escaped) => name.push(escaped),
                None => return None,
            },
            '"' => break,
            c => name.push(c),
        }
    }
    let ns_key = line.find("\"ns_per_iter\"")?;
    let after = &line[ns_key + "\"ns_per_iter\"".len()..];
    let colon = after.find(':')?;
    let number: String = after[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    let ns: f64 = number.parse().ok()?;
    if !(ns.is_finite() && ns > 0.0) {
        return None;
    }
    Some((name, ns))
}

/// Loads a JSON-lines bench file. A bench appearing multiple times (appended
/// runs) keeps its best (minimum) time — the least noisy estimate.
fn load(contents: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    for line in contents.lines() {
        if let Some((name, ns)) = parse_line(line) {
            let slot = map.entry(name).or_insert(ns);
            if ns < *slot {
                *slot = ns;
            }
        }
    }
    map
}

fn human(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The comparison verdict: regressed bench names, in table order.
fn gate(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    ratio_limit: f64,
) -> Vec<String> {
    let mut regressed = Vec::new();
    println!(
        "{:<56} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline", "current", "ratio"
    );
    for (name, &base_ns) in baseline {
        match current.get(name) {
            Some(&cur_ns) => {
                let ratio = cur_ns / base_ns;
                let verdict = if ratio > ratio_limit {
                    regressed.push(name.clone());
                    "REGRESSED"
                } else if ratio < 1.0 / ratio_limit {
                    "improved"
                } else {
                    "ok"
                };
                println!(
                    "{:<56} {:>12} {:>12} {:>7.2}x  {}",
                    name,
                    human(base_ns),
                    human(cur_ns),
                    ratio,
                    verdict
                );
            }
            None => {
                println!(
                    "{:<56} {:>12} {:>12} {:>8}  missing from current (not gated)",
                    name,
                    human(base_ns),
                    "-",
                    "-"
                );
            }
        }
    }
    for (name, &cur_ns) in current {
        if !baseline.contains_key(name) {
            println!(
                "{:<56} {:>12} {:>12} {:>8}  new (add to baseline)",
                name,
                "-",
                human(cur_ns),
                "-"
            );
        }
    }
    regressed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: bench_gate <baseline.json> <current.json> [more-current.json…]");
        return ExitCode::from(2);
    }
    let ratio_limit: f64 = std::env::var("BENCH_GATE_RATIO")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|r: &f64| r.is_finite() && *r > 1.0)
        .unwrap_or(DEFAULT_RATIO);
    let baseline = match std::fs::read_to_string(&args[0]) {
        Ok(contents) => load(&contents),
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline {}: {e}", args[0]);
            return ExitCode::from(2);
        }
    };
    let mut current = BTreeMap::new();
    for path in &args[1..] {
        match std::fs::read_to_string(path) {
            Ok(contents) => {
                for (name, ns) in load(&contents) {
                    let slot = current.entry(name).or_insert(ns);
                    if ns < *slot {
                        *slot = ns;
                    }
                }
            }
            Err(e) => {
                eprintln!("bench_gate: cannot read current {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if baseline.is_empty() {
        eprintln!("bench_gate: baseline {} holds no benches", args[0]);
        return ExitCode::from(2);
    }
    println!(
        "bench_gate: {} baseline / {} current benches, fail ratio > {ratio_limit:.2}x",
        baseline.len(),
        current.len()
    );
    let regressed = gate(&baseline, &current, ratio_limit);
    if regressed.is_empty() {
        println!("bench_gate: OK — no bench regressed past {ratio_limit:.2}x");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_gate: FAIL — {} bench(es) regressed past {ratio_limit:.2}x: {}",
            regressed.len(),
            regressed.join(", ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_writer_format() {
        let (name, ns) =
            parse_line(r#"{"name":"codec/encode/5000","ns_per_iter":1234.5}"#).unwrap();
        assert_eq!(name, "codec/encode/5000");
        assert!((ns - 1234.5).abs() < 1e-9);
        // Escapes round-trip.
        let (name, _) = parse_line(r#"{"name":"with \"quote\" and \\","ns_per_iter":1}"#).unwrap();
        assert_eq!(name, "with \"quote\" and \\");
        // Garbage and non-positive timings are skipped, not crashed on.
        assert!(parse_line("not json").is_none());
        assert!(parse_line(r#"{"name":"x","ns_per_iter":-3}"#).is_none());
        assert!(parse_line(r#"{"name":"x","ns_per_iter":"nan"}"#).is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn duplicate_benches_keep_the_best_time() {
        let map = load(concat!(
            "{\"name\":\"a\",\"ns_per_iter\":300.0}\n",
            "{\"name\":\"a\",\"ns_per_iter\":100.0}\n",
            "{\"name\":\"a\",\"ns_per_iter\":200.0}\n",
        ));
        assert_eq!(map.get("a"), Some(&100.0));
    }

    #[test]
    fn gate_flags_only_regressions_past_the_ratio() {
        let baseline = load("{\"name\":\"fast\",\"ns_per_iter\":100.0}\n{\"name\":\"slow\",\"ns_per_iter\":100.0}\n{\"name\":\"gone\",\"ns_per_iter\":5.0}\n");
        let current = load("{\"name\":\"fast\",\"ns_per_iter\":240.0}\n{\"name\":\"slow\",\"ns_per_iter\":260.0}\n{\"name\":\"new\",\"ns_per_iter\":7.0}\n");
        // 2.4x passes at a 2.5x limit, 2.6x fails; missing/new entries never
        // fail the gate.
        let regressed = gate(&baseline, &current, 2.5);
        assert_eq!(regressed, vec!["slow".to_string()]);
        // A deliberately broken (too-fast) baseline makes everything regress.
        let broken = load(
            "{\"name\":\"fast\",\"ns_per_iter\":1.0}\n{\"name\":\"slow\",\"ns_per_iter\":1.0}\n",
        );
        let regressed = gate(&broken, &current, 2.5);
        assert_eq!(regressed.len(), 2);
    }
}
