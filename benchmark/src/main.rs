//! Command line of the benchmark: one workload, one run.
//!
//! `crowd-budget --workload NAME [--seed N] [--seconds S | --smoke] [--trace 0|1]`
//!
//! Prints one line per metric (`workload metric value unit`), writes
//! `benchmark/out/<workload>[.layers].json`, and prints the result object as
//! the last line of standard output. Exits non-zero when a correctness check
//! fails.

use crowd_budget::run::{run, Options, Report};
use crowd_budget::workload::{Workload, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Default measured window, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: crowd-budget --workload <{}> [--seed N] [--seconds S | --smoke] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--smoke" => seconds = 1.0,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        out_dir: PathBuf::from("benchmark/out"),
    })
}

/// The result object the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result file: the result object plus what a reader wants beside it.
fn file_json(report: &Report, opts: &Options) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {},\n \"result\": {},\n \"checks\": [",
        report.workload,
        opts.seed,
        opts.window.as_secs_f64(),
        report.trace,
        report.rounds,
        result_json(report)
    );
    for (i, c) in report.checks.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}\n  {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
            c.name,
            c.ok,
            escape(&c.detail)
        );
    }
    out.push_str("\n ],\n \"notes\": [");
    for (i, note) in report.notes.iter().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{comma}\"{}\"", escape(note));
    }
    out.push_str("],\n \"slices\": [");
    for (i, s) in report.slices.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}\n  {{\"wall_s\": {}, \"rounds\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"cpu_s\": {}, \"device_ns\": {}, \"speed\": {}}}",
            s.wall_s, s.delta.acked, s.p50_ns, s.p99_ns, s.cpu_s, s.delta.device_ns, s.speed
        );
    }
    out.push_str("\n ]}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("crowd-budget: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("crowd-budget: {} failed: {e}", opts.workload.name);
            return ExitCode::FAILURE;
        }
    };
    let w = report.workload;
    let marks: Vec<&str> = report.notes.iter().map(String::as_str).collect();
    println!(
        "# {w} seed={} trace={} rounds={} [{}]",
        opts.seed,
        u8::from(opts.trace),
        report.rounds,
        marks.join("; ")
    );
    for m in &report.metrics {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("# check {w} {} {verdict}: {}", c.name, c.detail);
    }
    let suffix = if opts.trace { ".layers" } else { "" };
    let path = opts.out_dir.join(format!("{w}{suffix}.json"));
    if let Err(e) = std::fs::write(&path, file_json(&report, &opts)) {
        eprintln!("crowd-budget: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
