//! Smoke runs of `small-dense` through the real server: the span trace closes,
//! and the metric names the runs report are the ones `BENCHMARK.json` lists.

use crowd_budget::run::{run, Options, Report};
use crowd_budget::workload::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn smoke(trace: bool, tag: &str) -> (Report, PathBuf) {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let report = run(&Options {
        workload: Workload::by_name("small-dense").unwrap(),
        seed: 1,
        window: Duration::from_secs(1),
        trace,
        out_dir: out_dir.clone(),
    })
    .unwrap();
    for check in &report.checks {
        assert!(check.ok, "{}: {}", check.name, check.detail);
    }
    assert_eq!(report.failed, 0);
    assert!(report.rounds > 1000, "only {} rounds", report.rounds);
    (report, out_dir)
}

/// The `"name": "…"` values of one top-level array of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn untraced_run_reports_exactly_the_end_to_end_catalogue() {
    let (report, out_dir) = smoke(false, "e2e");
    assert_eq!(names(&report), catalogue("end_to_end"));
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} is {}", m.name, m.value);
    }
    std::fs::remove_dir_all(out_dir).unwrap();
}

#[test]
fn traced_run_closes_its_spans_and_reports_the_per_layer_catalogue() {
    let (report, out_dir) = smoke(true, "layers");
    assert_eq!(names(&report), catalogue("per_layer"));
    let value = |name: &str| {
        let m = report.metrics.iter().find(|m| m.name == name).unwrap();
        m.value
    };

    // Closure from the run's own totals (every traced round): what no child
    // span covers stays within 2 % of the round latency.
    assert!(value("telemetry.uncovered_share").abs() < 0.02);

    // Closure again from the trace file, per round: children lie inside their
    // round, do not overlap, and with `gen.queue` sum to its latency.
    let text = std::fs::read_to_string(out_dir.join("small-dense.trace.json")).unwrap();
    let rows: Vec<Vec<u64>> = text
        .lines()
        .filter(|l| l.starts_with('['))
        .map(|l| {
            l.trim_matches(|c| c == '[' || c == ']' || c == ',')
                .split(',')
                .map(|v| v.parse().unwrap())
                .collect()
        })
        .collect();
    let mut rounds: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let (id, parent, start, end) = (row[0], row[1], row[4], row[5]);
        assert_eq!(id, i as u64 + 1, "ids are positions");
        assert!(end >= start);
        if parent == 0 {
            assert_eq!(row[3], 0, "only round spans are roots");
            rounds.insert(id, (start, end));
        } else {
            children.entry(parent).or_default().push((start, end));
        }
    }
    assert!(rounds.len() > 1000, "only {} traced rounds", rounds.len());
    let (mut covered, mut total) = (0u64, 0u64);
    for (id, (start, end)) in &rounds {
        let mut spans = children.remove(id).unwrap_or_default();
        spans.sort_unstable();
        let mut cursor = *start;
        for (s, e) in spans {
            assert!(
                s >= cursor && e <= *end,
                "span [{s}, {e}] outside or overlapping"
            );
            cursor = e;
            covered += e - s;
        }
        total += end - start;
    }
    assert!(children.is_empty(), "child spans without a round span");
    let uncovered = 1.0 - covered as f64 / total as f64;
    assert!(
        (0.0..0.02).contains(&uncovered),
        "uncovered share {uncovered}"
    );
    std::fs::remove_dir_all(out_dir).unwrap();
}
