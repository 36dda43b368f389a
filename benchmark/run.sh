#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object (the form
#       BENCHMARK.json's "command" is called in)
#   run.sh [--seed N] [--reps R] [--record FILE]
#       the full protocol: R untraced runs per workload (seeds N..N+R-1),
#       round-robin across workloads so host drift spreads evenly, then one
#       traced run per workload; prints every metric by name with its unit,
#       median, quartiles and sample count
#   run.sh --smoke
#       every workload once at a tenth of its size, untraced and traced
#   run.sh --summarise FILE | --compare A B | --catalogue | --workloads
set -euo pipefail
cd "$(dirname "$0")/.."

# Relative to the repo root, like the `.bench_build` the driver sets.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/wmn-benchmark"

case " $* " in
*" --workload "* | *" --summarise "* | *" --compare "* | *" --catalogue "* | *" --workloads "*)
    exec "$bin" "$@"
    ;;
esac

run_seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
workloads=$("$bin" --workloads)

if [ "${1:-}" = "--smoke" ]; then
    for w in $workloads; do
        for trace in 0 1; do
            "$bin" --workload "$w" --seed 1 --seconds 1 --scale 0.1 --trace "$trace" |
                tail -n 1 | grep -q '"correct": true, .*"failed": 0,' ||
                { echo "smoke: $w --trace $trace failed" >&2; exit 1; }
            echo "smoke: $w --trace $trace ok" >&2
        done
    done
    exit 0
fi

seed=1 reps=5 record=benchmark/out/runs.tsv
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed=$2 ;;
    --reps) reps=$2 ;;
    --record) record=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
mkdir -p "$(dirname "$record")"
: >"$record"

# One OS process per (workload, repetition): peak RSS is the workload's
# own and every run starts cold, as a user's does.
for rep in $(seq 0 $((reps - 1))); do
    for w in $workloads; do
        echo "run.sh: $w seed $((seed + rep)) untraced" >&2
        "$bin" --workload "$w" --seed $((seed + rep)) --seconds "$run_seconds" --trace 0 \
            --record "$record" --rev "$rev" | grep '^#' >&2 || true
    done
done
for w in $workloads; do
    echo "run.sh: $w seed $seed traced" >&2
    "$bin" --workload "$w" --seed "$seed" --seconds "$run_seconds" --trace 1 \
        --record "$record" --rev "$rev" | grep '^#' >&2 || true
done
# Exits non-zero if any job or check of any run failed.
"$bin" --summarise "$record"
