#!/usr/bin/env bash
# Benchmark snapshot: criterion micro-benches plus one QUICK figure sweep.
#
# Writes BENCH_<YYYY-MM-DD>.json at the repo root:
#   {
#     "date": "...", "threads": N,
#     "micro":  [{"kind":"micro","name":"...","ns_per_iter":...}, ...],
#     "sweeps": [{"kind":"sweep","name":"fig1","wall_s":...,"jobs":...}, ...],
#     "reference": { ...frozen pre-optimisation numbers... }
#   }
#
# The "reference" block is read from scripts/bench_reference.json (committed,
# measured on the pre-optimisation tree) so every snapshot carries its own
# before/after comparison.
#
# Telemetry hot-path guard: the scenario/small_5x5_10s micro-bench runs with
# telemetry disabled (the default) and must stay within 10 % of the
# reference ns_per_iter — a disabled Tel handle is one branch, so any
# regression here means instrumentation leaked into the hot path. Set
# BENCH_NO_GUARD=1 to snapshot without failing (e.g. on a slower host).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_$(date +%F).json"
TMP_SWEEPS=$(mktemp)
TMP_MICRO=$(mktemp)
trap 'rm -f "$TMP_SWEEPS" "$TMP_MICRO"' EXIT

cargo build --release

# Micro benches. The vendored criterion harness prints
# "bench: <name>  mean <ns> ns/iter  (...)" per benchmark.
cargo bench -p wmn-bench --bench engine_micro 2>&1 \
  | tee /dev/stderr \
  | awk '/^bench: / {
      printf "{\"kind\":\"micro\",\"name\":\"%s\",\"ns_per_iter\":%s}\n", $2, $4
    }' > "$TMP_MICRO"

# One full figure in QUICK mode; the sweep harness appends its own JSONL
# record (wall seconds, job count, thread count) to $BENCH_JSON.
BENCH_JSON="$TMP_SWEEPS" QUICK=1 ./target/release/fig1_overhead_size >/dev/null

# The scale sweep (100 and 1000 nodes in QUICK mode) — tracks the 1k-node
# wall-clock and the sharded medium-cache hit rates as the tree evolves.
BENCH_JSON="$TMP_SWEEPS" QUICK=1 ./target/release/fig12_scale >/dev/null

# Shard-parallel engine (QUICK: 1k nodes at 1 and 2 workers). Records one
# "parallel" entry per (nodes, threads) cell — single- vs multi-thread
# wall-clock on this host — and asserts results are thread-count-invariant.
BENCH_JSON="$TMP_SWEEPS" QUICK=1 ./target/release/fig13_parallel >/dev/null

# QUICK output is a reduced sweep, not a figure update: restore the
# committed full-resolution CSVs if we are in a clean checkout.
git checkout -- results 2>/dev/null || true

# Overhead guards: the shard profiler must stay within 10 % and
# epoch-barrier checkpointing at the default 1 s cadence within 5 % of the
# plain run — snapshots happen at barriers where every region is already
# quiesced, so anything above that means serialization crept onto the
# critical path. One run of each variant per round, interleaved so host
# drift hits every variant equally; the best wall per variant is the
# least-noisy estimate (the CSV line's last field is wall seconds).
# BENCH_NO_GUARD=1 reports without failing (e.g. on a noisy shared host).
# The cell is sized for a plain wall of about 2 s (1k nodes, 1000 flows,
# 100 s of simulated time): a 5 % ceiling on the former 50 ms cell was
# 2.5 ms, which is host jitter, not a measurement. It runs on one worker:
# the plain run then never waits at a barrier, so the instrumentation's
# share of the wall is at its largest, and the reading does not depend on
# how many cores the host can spare (two workers on two shared vCPUs swing
# the plain wall by 2x from run to run).
one_wall() {
  ./target/release/wmn-sim --parmesh --nodes 1000 --flows 1000 \
    --duration 100 --warmup 2 --seed 3 --threads 1 --csv "$@" 2>/dev/null \
    | tail -1 | awk -F, '{print $NF}'
}
best_of() { awk -v a="$1" -v b="$2" 'BEGIN{print (b == "" || a < b) ? a : b}'; }
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"; rm -f "$TMP_SWEEPS" "$TMP_MICRO"' EXIT
PLAIN_WALL=""; PROF_WALL=""; CKPT_WALL=""
for _ in 1 2 3 4 5; do
  PLAIN_WALL=$(best_of "$(one_wall)" "$PLAIN_WALL")
  PROF_WALL=$(best_of "$(one_wall --profile-out /dev/null)" "$PROF_WALL")
  CKPT_WALL=$(best_of "$(one_wall --checkpoint-dir "$CKPT_DIR")" "$CKPT_WALL")
done
echo "profiling overhead guard: plain ${PLAIN_WALL}s, profiled ${PROF_WALL}s"
if ! awk -v p="$PROF_WALL" -v b="$PLAIN_WALL" 'BEGIN{exit !(p <= b * 1.10)}'; then
  if [ -z "${BENCH_NO_GUARD:-}" ]; then
    echo "FAIL: profiling overhead exceeds 10% (${PROF_WALL}s vs ${PLAIN_WALL}s)" >&2
    exit 1
  fi
  echo "WARN: profiling overhead exceeds 10% (guard disabled)" >&2
fi
echo "checkpoint overhead guard: plain ${PLAIN_WALL}s, checkpointed ${CKPT_WALL}s"
if ! awk -v c="$CKPT_WALL" -v b="$PLAIN_WALL" 'BEGIN{exit !(c <= b * 1.05)}'; then
  if [ -z "${BENCH_NO_GUARD:-}" ]; then
    echo "FAIL: checkpointing overhead exceeds 5% (${CKPT_WALL}s vs ${PLAIN_WALL}s)" >&2
    exit 1
  fi
  echo "WARN: checkpointing overhead exceeds 5% (guard disabled)" >&2
fi

python3 - "$OUT" "$TMP_MICRO" "$TMP_SWEEPS" <<'EOF'
import datetime, json, os, sys

out, micro_path, sweeps_path = sys.argv[1:4]

def jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

records = jsonl(sweeps_path)
doc = {
    "date": datetime.date.today().isoformat(),
    "threads": int(os.environ.get("WMN_THREADS") or os.cpu_count() or 1),
    "host_cores": os.cpu_count() or 1,
    "micro": jsonl(micro_path),
    "sweeps": [r for r in records if r.get("kind") != "parallel"],
    # Sharded-engine wall-clocks per (nodes, threads) cell: the single- vs
    # multi-thread comparison on this host (flat on a single-core machine).
    "parallel": [r for r in records if r.get("kind") == "parallel"],
}
ref_path = os.path.join("scripts", "bench_reference.json")
if os.path.exists(ref_path):
    with open(ref_path) as f:
        doc["reference"] = json.load(f)
    ref_sweeps = {s["name"]: s["wall_s"] for s in doc["reference"].get("sweeps", [])}
    for s in doc["sweeps"]:
        base = ref_sweeps.get(s["name"])
        if base and s["wall_s"] > 0:
            s["speedup_vs_reference"] = round(base / s["wall_s"], 2)
    ref_micro = {m["name"]: m["ns_per_iter"] for m in doc["reference"].get("micro", [])}
    for m in doc["micro"]:
        base = ref_micro.get(m["name"])
        if base and m["ns_per_iter"] > 0:
            m["speedup_vs_reference"] = round(base / m["ns_per_iter"], 2)

with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out}")

# Disabled-telemetry hot-path guard (>10 % regression fails the run).
GUARDED = "scenario/small_5x5_10s"
ref_micro = {m["name"]: m["ns_per_iter"] for m in doc.get("reference", {}).get("micro", [])}
now_micro = {m["name"]: m["ns_per_iter"] for m in doc["micro"]}
if GUARDED in ref_micro and GUARDED in now_micro:
    base, now = ref_micro[GUARDED], now_micro[GUARDED]
    ratio = now / base
    print(f"guard: {GUARDED} {now:.0f} ns/iter vs reference {base:.0f} ({ratio:.3f}x)")
    if ratio > 1.10 and not os.environ.get("BENCH_NO_GUARD"):
        print(f"FAIL: disabled-telemetry bench regressed >10% ({ratio:.3f}x)", file=sys.stderr)
        sys.exit(1)
EOF
