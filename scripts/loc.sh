#!/usr/bin/env bash
# Rust lines under crates/ and src/, per crate and in total, split into
# non-test and test: a file under a tests/ directory is all test, any other
# file is test from its first column-0 `#[cfg(test)]` line on.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = FILENAME ~ /\/tests\//; crate = FILENAME
             if (sub(/^crates\//, "", crate)) sub(/\/.*/, "", crate); else crate = "wmn" }
  /^#\[cfg\(test\)\]/ { test = 1 }
  { n[crate, test]++; seen[crate]; total[test]++ }
  END { fmt = "%-12s %9s %9s %9s\n"
        printf fmt, "crate", "non-test", "test", "all"
        for (c in seen) printf fmt, c, n[c, 0] + 0, n[c, 1] + 0, n[c, 0] + n[c, 1] | "sort"
        close("sort")
        printf fmt, "TOTAL", total[0], total[1], total[0] + total[1] }'
