#!/usr/bin/env bash
# First-party Rust lines above each file's first `#[cfg(test)]`, per
# crate and in total: the figure ROADMAP's "lines no higher than found"
# rule is read against. vendor/ shims, tests/, examples/ and bench/ are
# not counted. Last, the bytes of committed JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

find src crates/*/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests {
    crate = FILENAME
    sub(/\/src\/.*/, "", crate)
    sub(/^src\/.*/, "src", crate)
    lines[crate]++
    total++
  }
  END {
    for (crate in lines) printf "%7d %s\n", lines[crate], crate | "sort -k2"
    close("sort -k2")
    printf "%7d total\n", total
  }'

git ls-files -z '*.json' | xargs -0 -r cat | wc -c | awk '{ printf "%7d bytes of committed *.json\n", $1 }'
