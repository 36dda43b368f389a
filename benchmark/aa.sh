#!/usr/bin/env bash
# A/A: run the full protocol twice on the same tree and compare the two
# sets. Prints, per (workload, end-to-end metric), by how much the second
# median is worse than the first beside the metric's bound, and both sets'
# noise floors (IQR / median); checks that digests and exact counts are
# identical. Exits non-zero if anything exceeds its bound or differs.
#
#   aa.sh [--seed N] [--reps R]
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh "$@" --record benchmark/out/aa_a.tsv >/dev/null
benchmark/run.sh "$@" --record benchmark/out/aa_b.tsv >/dev/null
benchmark/run.sh --compare benchmark/out/aa_a.tsv benchmark/out/aa_b.tsv
