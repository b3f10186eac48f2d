#!/usr/bin/env bash
# Tier-1 verification: build, test, format and lint the workspace.
#
# The vendor/ shims (rand, proptest) are API stand-ins with
# intentionally minimal surfaces; they are built and tested as workspace
# members but excluded from the style gates.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages (everything except vendor/ shims).
PACKAGES=(
  distributed-louvain
  louvain-obs
  louvain-comm
  louvain-graph
  louvain-resil
  louvain-dist
  grappolo
  louvain-bench
  louvain-lens
  louvain-serve
  louvain-store
)

pkg_flags=()
for p in "${PACKAGES[@]}"; do
  pkg_flags+=(-p "$p")
done

# Run a command that must be refused: non-zero exit, stderr containing
# NEEDLE, and no panic.
must_refuse() {
  local needle=$1 err=target/refused.err
  shift
  if "$@" 2> "$err"; then
    echo "verify: '$*' must exit non-zero" >&2
    exit 1
  fi
  cat "$err"
  grep -qF -- "$needle" "$err"
  if grep -q panicked "$err"; then
    echo "verify: '$*' panicked" >&2
    exit 1
  fi
}

# The α-β time model lives in crates/bench/src/model.rs alone: a run,
# its report and the CLI carry measured time only. Any model identifier
# in a product crate's code (comments aside) fails here.
echo "==> no modeled time in the product crates"
model_names='modeled|Modeled|CostModel|EDGE_COST|parallel_speedup'
if grep -rnE "$model_names" crates/{core,comm,obs,lens,serve,resil,store,graph}/src src |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "verify: a time-model identifier is back in a product crate" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

# Twice: an order-dependent test (shared temp dir, global flag) can pass
# under one schedule and fail under the other. --no-fail-fast so one red
# binary does not hide the ones after it.
echo "==> cargo test (default threads)"
cargo test -q --workspace --no-fail-fast
echo "==> cargo test (--test-threads=1)"
cargo test -q --workspace --no-fail-fast -- --test-threads=1

# The ladder measures the release build and the tests above the debug
# one; a kernel full of debug_assert!s must hold its pins in both, the
# CSR and slab builders their bit-identity tests, and the phase its
# bit-identity tests across row orders, thread counts and refresh
# flavours, with the tracked-Σe_in check its unit tests keep on; the
# three RSS guards (detection, streamed ingest, ranged load) bound the
# build whose peak_rss_mib the ladder reads.
echo "==> cargo test --release (parity pins, RSS guards, louvain-graph, louvain-store, louvain-dist)"
cargo test --release -q --test parity --test detect_rss --test storage_rss --test load_rss
cargo test --release -q -p louvain-graph -p louvain-store -p louvain-dist

# bench/ is its own workspace, invisible to --workspace: an API change
# that breaks the ladder must fail here, not in the benchmark driver.
echo "==> cargo test (bench/ ladder)"
cargo test -q --offline --manifest-path bench/Cargo.toml

echo "==> cargo fmt --check (first-party crates)"
fmt_paths=(src crates/*/src tests)
fmt_files=()
while IFS= read -r f; do
  fmt_files+=("$f")
done < <(find "${fmt_paths[@]}" -name '*.rs' | sort)
rustfmt --edition 2021 --check "${fmt_files[@]}"

echo "==> cargo clippy -D warnings (first-party crates)"
cargo clippy -q "${pkg_flags[@]}" --all-targets -- -D warnings

# The product end to end: a traced 2-rank run writes the artifact and
# the Perfetto trace CI uploads, `lens crit` walks the slowest-rank
# chain of its phase profile and must exit 0 with a straggler blame,
# the artifact diffed against itself must decode and show no changed
# row, `--ranks 0` and a deleted option must be usage errors naming the
# flag and not panics, so must the deleted `relaxed` sweep mode, a colored
# 2-rank run prints the same result at one and two threads per rank and
# as `auto` at two, and fig3 prints the modeled 128->4096-rank tail past
# its last measured rank count.
echo "==> louvain generate | run --artifact-out | lens show | lens crit | lens diff | run --ranks 0 | run --sweep relaxed | colored run t=1 = t=2 = auto t=2 | run <deleted option> | fig3"
./target/release/louvain generate --kind lfr --n 3000 --seed 7 --out target/verify_lfr.slab
./target/release/louvain run target/verify_lfr.slab --ranks 2 --variant et:0.25 \
  --artifact-out target/run_artifact.json --trace-out target/trace.json
./target/release/lens show target/run_artifact.json
./target/release/lens crit target/run_artifact.json > target/crit_report.txt
cat target/crit_report.txt
grep -q "^  straggler blame: rank " target/crit_report.txt
# Every `a→b` cell of the self-diff must have a = b, on exactly one row.
./target/release/lens diff target/run_artifact.json target/run_artifact.json | tee target/self_diff.txt
grep -q "^diff: 1 matched, 0 only-baseline, 0 only-current" target/self_diff.txt
awk '{ for (i = 1; i <= NF; i++) if (split($i, ab, "→") == 2 && ab[1] != ab[2]) changed++ }
     END { exit changed > 0 }' target/self_diff.txt
must_refuse --ranks ./target/release/louvain run target/verify_lfr.slab --ranks 0
must_refuse relaxed ./target/release/louvain run target/verify_lfr.slab --sweep relaxed
# The colored schedule's coloring crosses the rank boundary through the
# ghost layer; its result must not depend on the thread count, and `auto`
# above one thread is that schedule.
for run in colored:1 colored:2 auto:2; do
  ./target/release/louvain run target/verify_lfr.slab --ranks 2 --sweep "${run%:*}" \
    --threads-per-rank "${run#*:}" | grep -E '^(modularity|communities|iterations|traffic)' \
    > "target/${run%:*}_t${run#*:}.txt"
done
cat target/colored_t1.txt
test "$(wc -l < target/colored_t1.txt)" -eq 4
cmp target/colored_t1.txt target/colored_t2.txt
cmp target/colored_t1.txt target/auto_t2.txt
# The quotes split the deleted name so that it appears nowhere in the code.
gone=--report-"out"
must_refuse "unknown option $gone" \
  ./target/release/louvain run target/verify_lfr.slab "$gone" target/gone.json
# Message faults are not modelled (MPI delivers reliably and in order):
# each kind is refused by name, and the backoff knob went with them.
must_refuse 'fault kind "drop"' \
  ./target/release/louvain run target/verify_lfr.slab --fault-plan 'drop:prob=0.1'
must_refuse 'fault kind "corrupt-payload"' \
  ./target/release/louvain run target/verify_lfr.slab --fault-plan 'corrupt-payload:prob=0.1'
gone=--backoff-"base-ms"
must_refuse "unknown option $gone" \
  ./target/release/louvain run target/verify_lfr.slab "$gone" 1
# -c, not -q: grep must drain the pipe or fig3 dies writing to it.
LOUVAIN_SCALE=quick ./target/release/fig3 channel 2>/dev/null | grep -cw modeled

# The slab builder keeps its open files bounded however many row blocks
# it cuts: ≥1911 blocks of ≤500 arcs must build under 256 descriptors, and
# to the same bytes as the default block size. The slab is format v3
# with four sections and 4-byte targets; a copy whose version byte (file
# offset 0) says 1 or 2 is refused by `info` and `run`, by version and
# without a panic.
echo "==> slab v3: generate --chunk-edges 500 under ulimit -n 256 | cmp against the default chunk | info (targets 4 B per arc) | v1 and v2 copies refused by info and run | a 4-byte targets id past n refused by run --ranged, and with its checksum re-stamped by the mapped run and info | a re-stamped non-monotone offsets word refused by run | the retired --slab switch, convert and an LVGRBPH1 file refused"
(
  ulimit -n 256
  ./target/release/louvain generate --kind rmat --n 65536 --seed 3 --chunk-edges 500 \
    --out target/verify_small_blocks.slab
)
./target/release/louvain generate --kind rmat --n 65536 --seed 3 \
  --out target/verify_default_blocks.slab
cmp target/verify_small_blocks.slab target/verify_default_blocks.slab
./target/release/louvain info target/verify_default_blocks.slab | tee target/slab_info.txt
grep -q "slab v3" target/slab_info.txt
test "$(grep -c '^section:' target/slab_info.txt)" -eq 4
arcs=$(awk '$1 == "arcs:" { print $2 }' target/slab_info.txt)
test "$(awk '$2 == "targets" { print $6 }' target/slab_info.txt)" -eq $((arcs * 4))
for version in 1 2; do
  cp target/verify_default_blocks.slab target/verify_old.slab
  printf "$version" | dd of=target/verify_old.slab bs=1 count=1 conv=notrunc status=none
  must_refuse "slab format version '$version'" ./target/release/louvain info target/verify_old.slab
  must_refuse "slab format version '$version'" ./target/release/louvain run target/verify_old.slab
done
# `run --ranged` reads `targets` without its checksum: a destination id
# past the vertex count (here u32::MAX, a 4-byte word, in the first arc)
# is the store's corrupt-slab error naming the rank and arc, not a rank
# panic.
cp target/verify_default_blocks.slab target/verify_bad_target.slab
targets_at=$(awk '$2 == "targets" { print $4 }' target/slab_info.txt)
printf '\377\377\377\377' |
  dd of=target/verify_bad_target.slab bs=1 seek="$targets_at" count=4 conv=notrunc status=none
must_refuse "targets word of rank 0 at arc 0" \
  ./target/release/louvain run target/verify_bad_target.slab --ranks 2 --ranged
# With the section's checksum re-stamped, only the word checks stand
# between that id and a rank: the mapped run and `info` refuse it too,
# and the mapped run refuses an `offsets` word out of order.
restamp() { # FILE SECTION: header word 8 + 3·SECTION := FNV-1a of its 8-byte words
  local file=$1 at=$((8 * (6 + 3 * $2))) h=-3750763034362895579 w off len hex
  off=$(od -An -t u8 -j "$at" -N 8 "$file" | tr -d ' ')
  len=$(od -An -t u8 -j $((at + 8)) -N 8 "$file" | tr -d ' ')
  for w in $(od -An -v -t x8 -j "$off" -N "$len" "$file"); do
    h=$(((h ^ 16#$w) * 1099511628211))
  done
  hex=$(printf '%016x' "$h" | sed -E 's/(..)(..)(..)(..)(..)(..)(..)(..)/\\x\8\\x\7\\x\6\\x\5\\x\4\\x\3\\x\2\\x\1/')
  printf "$hex" | dd of="$file" bs=1 seek=$((at + 16)) count=8 conv=notrunc status=none
}
restamp target/verify_bad_target.slab 1
must_refuse "targets word at arc 0 " ./target/release/louvain run target/verify_bad_target.slab
must_refuse "targets word at arc 0 " ./target/release/louvain info target/verify_bad_target.slab
cp target/verify_default_blocks.slab target/verify_bad_offsets.slab
offsets_at=$(awk '$2 == "offsets" { print $4 }' target/slab_info.txt)
printf '\377\377\377\377\377\377\377\377' |
  dd of=target/verify_bad_offsets.slab bs=1 seek=$((offsets_at + 8)) count=8 conv=notrunc status=none
restamp target/verify_bad_offsets.slab 0
must_refuse "offsets are not a monotone run" ./target/release/louvain run target/verify_bad_offsets.slab
# The slab is the only graph file: the switch that chose it, the command
# that wrote the binary edge list, and a file with that format's magic
# (its 8-byte header, "LVGRBPH1" read as a big-endian word) are each
# refused by name. The quotes split the deleted names so that they appear
# nowhere in the code.
must_refuse "unknown option --slab" ./target/release/louvain generate --kind rmat --n 1024 \
  --out target/verify_gone.slab --"slab"
must_refuse "unknown command \`convert\`" ./target/release/louvain con"vert" target/verify_gone.txt \
  --out target/verify_gone.slab
printf '1HPBRGVL' > target/verify_retired.bin
must_refuse LVGRBPH1 ./target/release/louvain run target/verify_retired.bin
must_refuse LVGRBPH1 ./target/release/louvain info target/verify_retired.bin
must_refuse LVGRBPH1 ./target/release/louvain ingest target/verify_retired.bin \
  --out target/verify_gone.slab

# Not a gate: the figures a PR quotes against ROADMAP's "lines no higher
# than found" rule.
echo "==> first-party lines above the test modules, committed JSON bytes (scripts/loc.sh)"
scripts/loc.sh

echo "verify: OK"
