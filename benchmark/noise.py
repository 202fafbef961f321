#!/usr/bin/env python3
"""Noise calibration for crowd-budget.

Runs every workload of BENCHMARK.json `--runs` times, each run with another
seed (workloads interleaved, so machine-speed drift lands on all of them), and
prints for each end-to-end metric its min / quartiles / max, the spread the
driver judges (distance between first and third quartile as a share of the
median, `statistics.quantiles(values, n=4)`), the full range as a share of the
median, and the bound from BENCHMARK.json. Every run's metrics and as-measured
slices are kept in benchmark/out/noise-raw.json.

    python3 benchmark/noise.py --runs 10 > benchmark/out/noise.md
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} incorrect: {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    detail = json.loads((ROOT / "benchmark" / "out" / f"{workload}.json").read_text())
    return metrics, detail["slices"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    raw = []
    # A process started after the box idled for minutes runs with every thread
    # on one CPU (NOISE.md); one discarded run brings the scheduler back.
    one_run(spec["command"], workloads[0], args.first_seed, 2)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            metrics, slices = one_run(spec["command"], workload, seed, spec["run_seconds"])
            for name, series in values[workload].items():
                series.append(metrics[name])
            raw.append({"workload": workload, "seed": seed, "metrics": metrics, "slices": slices})
            print(f"seed {seed} {workload} done", file=sys.stderr)

    (ROOT / "benchmark" / "out" / "noise-raw.json").write_text(json.dumps(raw))
    print(f"| workload | metric | min | q1 | median | q3 | max | iqr/median | range/median | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    over = []
    for workload in workloads:
        for m in spec["end_to_end"]:
            series = values[workload][m["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            full = (max(series) - min(series)) / med
            if spread > m["bound"] and m["name"] != "setup_s":
                over.append((workload, m["name"], spread, m["bound"]))
            print(f"| {workload} | {m['name']} | {min(series):.6g} | {q1:.6g} | {med:.6g} "
                  f"| {q3:.6g} | {max(series):.6g} | {spread:.4f} | {full:.4f} | {m['bound']} |")
    for workload, name, spread, bound in over:
        print(f"OVER BOUND: {name} on {workload}: spread {spread:.4f} > {bound}", file=sys.stderr)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
