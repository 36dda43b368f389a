#!/usr/bin/env bash
# Regenerate every reconstructed table/figure. QUICK=1 for a fast pass.
#
# Each figure that succeeds is stamped with the git revision that produced
# it (results/.<bin>.ok); a rerun skips figures whose stamp matches the
# current revision so a failed sweep can be retried without redoing
# finished figures. With uncommitted changes under crates/, src/ or
# Cargo.*, the revision is HEAD plus "-dirty-" and a hash of those changes,
# so a rerun after any source edit reruns every figure. FORCE=1 reruns
# everything. Failures don't stop the sweep — every remaining figure still
# runs, and the script reports the failed set and exits non-zero.
#
# A figure's stdout (the tables EXPERIMENTS.md quotes, deterministic) is
# kept in results/<bin>.log; its stderr (progress, thread counts, socket
# paths) goes to the terminal and to the untracked results/.<bin>.err.
#
# --served: route every figure whose --help offers --served through a
# wmn-served daemon instead of in-process sweeps. They write every CSV,
# byte-identical either way: each panel reads the job's result record,
# which an in-process sweep builds too. The daemon's prefix-dedup and warm
# link-budget-cache counters are recorded in EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

served=""
if [ "${1:-}" = "--served" ]; then
  served=1
  shift
fi
if [ "$#" -gt 0 ]; then
  echo "usage: $0 [--served]" >&2
  exit 2
fi

# load_sweep writes Figs. 3, 4, 5, 6 and 9: five views of one sweep.
bins=(tab1_params fig1_overhead_size fig2_reachability load_sweep fig7_mobility \
      fig8_hello_ablation fig10_gateway fig11_churn tab2_summary)
mkdir -p results
rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
src=(crates src Cargo.toml Cargo.lock)
if [ -n "$(git status --porcelain -- "${src[@]}" 2>/dev/null)" ]; then
  rev="$rev-dirty-$({ git diff HEAD -- "${src[@]}"
                      git ls-files -oz --exclude-standard -- "${src[@]}" | xargs -0r cat
                    } | sha1sum | cut -c1-8)"
fi

daemon=""
sock=""
if [ -n "$served" ]; then
  echo "=== starting wmn-served daemon ==="
  cargo build --release -q -p wmn-served -p wmn-bench
  sock="${TMPDIR:-/tmp}/wmn_served_$$.sock"
  ./target/release/wmn-served --socket "$sock" --workers "${WMN_THREADS:-$(nproc)}" &
  daemon=$!
  trap '[ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do
    ./target/release/wmn-submit --socket "$sock" --ping >/dev/null 2>&1 && break
    sleep 0.1
  done
  ./target/release/wmn-submit --socket "$sock" --ping >/dev/null
fi

failed=()
for b in "${bins[@]}"; do
  stamp="results/.${b}.ok"
  if [ -z "${FORCE:-}" ] && [ -f "$stamp" ] && [ "$(cat "$stamp")" = "$rev" ]; then
    echo "=== $b: results current for $rev, skipping (FORCE=1 reruns) ==="
    continue
  fi
  args=()
  if [ -n "$served" ] && [[ "$("./target/release/$b" --help)" == *--served* ]]; then
    args=(-- --served "$sock")
    echo "=== $b (via wmn-served) ==="
  else
    echo "=== $b ==="
  fi
  if cargo run --release -q -p wmn-bench --bin "$b" "${args[@]}" \
       2> >(tee "results/.${b}.err" >&2) | tee "results/${b}.log"; then
    echo "$rev" > "$stamp"
  else
    echo "!!! $b FAILED (stderr: results/.${b}.err)" >&2
    failed+=("$b")
  fi
done

if [ -n "$served" ]; then
  # Record the batch's dedup economics before draining the daemon: the
  # summary lines of `wmn-trace jobs`, up to its first blank line.
  status=$(./target/release/wmn-trace jobs "$sock" | sed '/^$/,$d')
  echo "$status"
  manifest_facts=""
  for m in results/*_served_manifest.json; do
    if [ -f "$m" ]; then
      facts=$(grep -o '"prefix_reused_jobs": "[^"]*"\|"warm_cache_import_jobs": "[^"]*"\|"link_cache_hits": "[^"]*"' "$m" \
                | tr -d '"' | sed ':a;N;$!ba;s/\n/; /g')
      manifest_facts="${manifest_facts}* \`$(basename "$m")\`: ${facts}
"
    fi
  done
  sed -i '/^<!-- served-begin -->$/,/^<!-- served-end -->$/d' EXPERIMENTS.md
  cat >> EXPERIMENTS.md <<EOF
<!-- served-begin -->
## Served mode — batch dedup economics

\`./scripts/run_all_experiments.sh --served\` routed fig1, fig2, the
offered-load sweep (fig3, fig4, fig5, fig6, fig9), fig7, fig8 and fig11
through a \`wmn-served\` daemon (rev ${rev}, QUICK=${QUICK:-0}); every CSV
they wrote is byte-identical to the in-process runs. Daemon counters at
end of batch:

\`\`\`
${status}
\`\`\`

${manifest_facts}
Jobs differing only in scheme/replication share one built topology
(prefix hits) and chain a warm link-budget cache (imports); both are
pure perf wins — bit-identity is proptested in
\`crates/served/tests/dedup_properties.rs\`.
<!-- served-end -->
EOF
  echo "=== draining wmn-served daemon ==="
  ./target/release/wmn-submit --socket "$sock" --shutdown
  wait "$daemon"
  daemon=""
fi

if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED figures: ${failed[*]}" >&2
  echo "rerun ./scripts/run_all_experiments.sh — finished figures are skipped" >&2
  exit 1
fi
echo "ALL EXPERIMENTS DONE"
