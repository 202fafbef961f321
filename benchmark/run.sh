#!/usr/bin/env bash
# crowd-budget: builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      all six workloads, untraced then traced
#   benchmark/run.sh --smoke              the same with 1 s windows
#   benchmark/run.sh --seed 7             another dataset / noise / dropout seed
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                         one run; the last line of stdout is
#                                         the result object
#
# Prints one line per metric (`workload metric value unit`), writes
# benchmark/out/<workload>.json, <workload>.layers.json and
# <workload>.trace.json, and exits non-zero when a correctness check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/crowd-budget"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in paper-private small-dense wide-dense durable-fsync rounds-masked reconnect; do
    # Each run is its own process, so peak_rss_mb is not inherited.
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
