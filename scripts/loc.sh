#!/usr/bin/env bash
# First-party Rust lines above each file's first test module (a `mod`
# gated by `#[cfg(test)]`), per crate and in total: the figure ROADMAP's
# "lines no higher than found" rule is read against. A `#[cfg(test)]` on
# any other item (a test-only fn or impl) does not end the count. The
# vendor/ shims are counted the same way but printed as one row of their
# own, outside the total, so a deleted shim shows. tests/, examples/ and
# bench/ are not counted. Last, the bytes of committed JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

# With `-v shims=1` it prints only the sum, as the vendor/ row.
count_lines='
  function count(n) {
    crate = FILENAME
    sub(/\/src\/.*/, "", crate)
    sub(/^src\/.*/, "src", crate)
    lines[crate] += n
    total += n
  }
  FNR == 1 { in_tests = 0; held = 0 }
  in_tests { next }
  # `#[cfg(test)]` and the attributes and comments after it are held
  # until the item they gate shows: a `mod` opens the test region and
  # drops them, anything else counts them with itself.
  /^[[:space:]]*#\[cfg\(test\)\]/ { held++; next }
  held && /^[[:space:]]*(#\[|\/\/)/ { held++; next }
  held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { in_tests = 1; next }
  { count(held + 1); held = 0 }
  END {
    if (shims) {
      printf "%7d vendor/ shims (not in the total)\n", total
      exit
    }
    for (crate in lines) printf "%7d %s\n", lines[crate], crate | "sort -k2"
    close("sort -k2")
    printf "%7d total\n", total
  }'

find src crates/*/src -name '*.rs' | sort | xargs awk "$count_lines"
find vendor -name '*.rs' | sort | xargs awk -v shims=1 "$count_lines"

git ls-files -z '*.json' | xargs -0 -r cat | wc -c | awk '{ printf "%7d bytes of committed *.json\n", $1 }'
