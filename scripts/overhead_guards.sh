#!/usr/bin/env bash
# Overhead guards: the shard profiler must stay within 10 % and
# epoch-barrier checkpointing at the default 1 s cadence within 5 % of the
# plain run — snapshots happen at barriers where every region is already
# quiesced, so anything above that means serialization crept onto the
# critical path. One run of each variant per round, interleaved so host
# drift hits every variant equally; the best wall per variant is the
# least-noisy estimate (the CSV line's last field is wall seconds).
# The cell is sized for a plain wall of about 2 s (1k nodes, 1000 flows,
# 100 s of simulated time): a 5 % ceiling on the former 50 ms cell was
# 2.5 ms, which is host jitter, not a measurement. It runs on one worker:
# the plain run then never waits at a barrier, so the instrumentation's
# share of the wall is at its largest, and the reading does not depend on
# how many cores the host can spare (two workers on two shared vCPUs swing
# the plain wall by 2x from run to run).
#
# Needs only `wmn-sim --csv`. Everything else the old snapshot script
# measured is gated per PR by the repo benchmark (benchmark/run.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

one_wall() {
  ./target/release/wmn-sim --parmesh --nodes 1000 --flows 1000 \
    --duration 100 --warmup 2 --seed 3 --threads 1 --csv "$@" 2>/dev/null \
    | tail -1 | awk -F, '{print $NF}'
}
best_of() { awk -v a="$1" -v b="$2" 'BEGIN{print (b == "" || a < b) ? a : b}'; }
# Every checkpointed run writes into an empty directory of its own, as a
# fresh run does, instead of renaming its checkpoints over the files the
# previous round left behind.
CKPT_ROOT=$(mktemp -d)
trap 'rm -rf "$CKPT_ROOT"' EXIT
PLAIN_WALL=""; PROF_WALL=""; CKPT_WALL=""
for round in 1 2 3 4 5; do
  PLAIN_WALL=$(best_of "$(one_wall)" "$PLAIN_WALL")
  PROF_WALL=$(best_of "$(one_wall --profile-out /dev/null)" "$PROF_WALL")
  CKPT_DIR=$(mktemp -d "$CKPT_ROOT/run$round.XXXX")
  CKPT_WALL=$(best_of "$(one_wall --checkpoint-dir "$CKPT_DIR")" "$CKPT_WALL")
  rm -rf "$CKPT_DIR"
done
echo "profiling overhead guard: plain ${PLAIN_WALL}s, profiled ${PROF_WALL}s"
if ! awk -v p="$PROF_WALL" -v b="$PLAIN_WALL" 'BEGIN{exit !(p <= b * 1.10)}'; then
  echo "FAIL: profiling overhead exceeds 10% (${PROF_WALL}s vs ${PLAIN_WALL}s)" >&2
  exit 1
fi
echo "checkpoint overhead guard: plain ${PLAIN_WALL}s, checkpointed ${CKPT_WALL}s"
if ! awk -v c="$CKPT_WALL" -v b="$PLAIN_WALL" 'BEGIN{exit !(c <= b * 1.05)}'; then
  echo "FAIL: checkpointing overhead exceeds 5% (${CKPT_WALL}s vs ${PLAIN_WALL}s)" >&2
  exit 1
fi
