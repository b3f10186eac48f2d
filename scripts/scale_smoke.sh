#!/usr/bin/env bash
# Million-edge smoke for the out-of-core slab path.
#
# Exercises the full disk pipeline end to end at >=1M edges:
#   1. stream-generate a slab (raw spill, then a counting sort per row
#      block: bounded memory, no in-RAM edge list) and validate it with
#      `louvain info`,
#   2. run it p=2 two ways through the CLI — mmap-backed slab and
#      per-rank byte-range slab loads — and require bit-identical
#      community assignments,
#   3. run tests/storage.rs's ignored million-edge test, which checks
#      the in-memory scatter, mmap and byte-range paths on the same
#      graph for equal assignments and bit-equal modularity.
#
# CI runs this behind the LOUVAIN_SCALE_GATE repository variable.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace

SCRATCH=target/scale
mkdir -p "$SCRATCH"

# RMAT scale 18 (262144 vertices, ~1.9M edges after dedup), streamed
# straight to a slab.
./target/release/louvain generate --kind rmat --n 262144 --seed 5 \
  --out "$SCRATCH/rmat_s18.slab"
./target/release/louvain info "$SCRATCH/rmat_s18.slab"

echo "==> p=2 bit-identity: mmap vs byte-range"
# Each arm must say it ran on 2 ranks: an ignored rank flag would compare
# two default-rank runs and still print "bit-identical" below.
run_p2() { # <assignment-out> <louvain run args...>
  local out="$1"
  shift
  ./target/release/louvain run "$@" --ranks 2 --assignment "$out" >"$out.log"
  grep -q ' on 2 ranks ' "$out.log" \
    || { cat "$out.log"; echo "FAIL: $out was not a 2-rank run" >&2; exit 1; }
}
run_p2 "$SCRATCH/mapped.comm" "$SCRATCH/rmat_s18.slab"
run_p2 "$SCRATCH/ranged.comm" "$SCRATCH/rmat_s18.slab" --ranged
cmp "$SCRATCH/mapped.comm" "$SCRATCH/ranged.comm"
echo "p=2 mmap and byte-range assignments are bit-identical"

echo "==> p=2 bit-identity: in-memory vs mmap vs byte-range (tests/storage.rs)"
cargo test --release --test storage -- --ignored --nocapture

echo "scale_smoke: OK"
