#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload: the evidence a
# performance claim needs (choosing-metrics section 8), from one command.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seconds] [first-seed=31]
#
# Checks <parent-rev> out under target/pairs/ (git archive: a plain tree,
# nothing registered in .git), builds that tree's benchmark/ and this
# tree's, each with its own CARGO_TARGET_DIR, then runs `pairs` pairs of
# `benchmark/run.sh --workload <workload> --trace 0`, pair i on seed
# first-seed+i with the side that goes first flipping every pair. Prints,
# per end-to-end metric, median [Q1, Q3] of both sides and the pairs the
# change won, whether every digest matched, then `benchmark/run.sh
# --compare` on the two record files. Exits 1 if a digest differs or a run
# fails.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
rev=$(git rev-parse --short "$1^{commit}")
workload=$2 pairs=${3:-10} first_seed=${5:-31}
seconds=${4:-$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)}

out=$PWD/target/pairs
parent=$out/$rev
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
rec_parent=$out/$workload.parent.tsv rec_change=$out/$workload.change.tsv
: >"$rec_parent"; : >"$rec_change"

# run_side <tree> <name> <seed>: one run, appended to that side's records.
run_side() {
    CARGO_TARGET_DIR=$out/build-$2 "$1/benchmark/run.sh" --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 --record "$out/$workload.$2.tsv" --rev "$2" |
        grep '^# .* digest ' >&2
}
for i in $(seq 0 $((pairs - 1))); do
    seed=$((first_seed + i))
    echo "pair $((i + 1))/$pairs, seed $seed" >&2
    if [ $((i % 2)) -eq 0 ]; then
        run_side "$parent" parent "$seed"; run_side "$PWD" change "$seed"
    else
        run_side "$PWD" change "$seed"; run_side "$parent" parent "$seed"
    fi
done

echo "# $workload: parent $rev vs working tree, $pairs pairs of $seconds s, seeds $first_seed..$((first_seed + pairs - 1))"
status=0
awk -F'\t' '
  function quantile(v, n, k,   pos, j) {      # exclusive method, as benchmark/src/stats.rs
      pos = k * (n + 1) / 4; j = int(pos); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      return n < 2 ? v[1] : v[j] + (pos - j) * (v[j + 1] - v[j])
  }
  function stats(side, metric,   i, j, x, v) {       # insertion sort: mawk has no asort
      for (i = 1; i <= runs; i++) {
          x = val[side, metric, seeds[i]] + 0
          for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
          v[j + 1] = x
      }
      return sprintf("%.4g [%.4g, %.4g]", quantile(v, runs, 2), quantile(v, runs, 1), quantile(v, runs, 3))
  }
  { side = FILENAME ~ /parent\.tsv$/ ? "parent" : "change" }
  $1 == "m" { val[side, $8, $3] = $9; unit[$8] = $10
              if (!($8 in known)) { known[$8]; order[++metrics] = $8 }
              if (!($3 in seen)) { seen[$3]; seeds[++runs] = $3 } }
  $1 == "d" { digest[side, $3] = $5 }
  $1 == "x" { failed += $6 }
  END {
      lower["wall_s"] = lower["job_ms_p50"] = lower["job_ms_p90"] = lower["peak_rss_mib"] = lower["setup_s"] = 1
      printf "%-28s %-28s %-28s %s\n", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "pairs won by change"
      for (m = 1; m <= metrics; m++) {
          name = order[m]; won = 0
          for (i = 1; i <= runs; i++) {
              p = val["parent", name, seeds[i]]; c = val["change", name, seeds[i]]
              won += (name in lower) ? c < p : c > p
          }
          printf "%-28s %-28s %-28s %d/%d\n", name " (" unit[name] ")", stats("parent", name), stats("change", name), won, runs
      }
      for (i = 1; i <= runs; i++) same += digest["parent", seeds[i]] == digest["change", seeds[i]]
      printf "digests identical: %d/%d; failed operations: %d\n", same, runs, failed
      exit !(same == runs && failed == 0)
  }' "$rec_parent" "$rec_change" || status=1
# Its verdict covers all five workloads; only this one was run.
CARGO_TARGET_DIR=$out/build-change benchmark/run.sh --compare "$rec_parent" "$rec_change" |
    grep -v 'missing from a set' || true
exit $status
