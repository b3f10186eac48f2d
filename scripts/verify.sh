#!/usr/bin/env bash
# Tier-1 verification: build, test, format and lint the workspace.
#
# The vendor/ shims (rand, rayon, proptest, ...) are API stand-ins with
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
# flavours, with the tracked-Σe_in check its unit tests keep on; the two
# RSS guards bound the build whose peak_rss_mib the ladder reads.
echo "==> cargo test --release (parity pins, RSS guards, louvain-graph, louvain-store, louvain-dist)"
cargo test --release -q --test parity --test detect_rss --test storage_rss
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
# as `auto` at two, fig3 prints the modeled 128->4096-rank tail past
# its last measured rank count, and ablations prints its pruning table.
echo "==> louvain generate | run --artifact-out | lens show | lens crit | lens diff | run --ranks 0 | run --sweep relaxed | colored run t=1 = t=2 = auto t=2 | run <deleted option> | fig3 | ablations"
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
# The ablation binary keeps one study, ghost pruning: its table must print.
LOUVAIN_SCALE=quick ./target/release/ablations 2>/dev/null |
  grep -c '^== Ablation 5: inactive-ghost pruning'

# The slab builder keeps its open files bounded however many row blocks
# it cuts: ≥1911 blocks of ≤500 arcs must build under 256 descriptors, and
# to the same bytes as the default block size. The slab is format v2
# with four sections; a copy whose version byte (file offset 0) says 1
# is refused by `info` and `run`, by version and without a panic.
echo "==> slab v2: generate --chunk-edges 500 under ulimit -n 256 | cmp against the default chunk | info | v1 copy refused by info and run | run --ranged refuses a targets id past n | the retired --slab switch, convert and an LVGRBPH1 file refused"
(
  ulimit -n 256
  ./target/release/louvain generate --kind rmat --n 65536 --seed 3 --chunk-edges 500 \
    --out target/verify_small_blocks.slab
)
./target/release/louvain generate --kind rmat --n 65536 --seed 3 \
  --out target/verify_default_blocks.slab
cmp target/verify_small_blocks.slab target/verify_default_blocks.slab
./target/release/louvain info target/verify_default_blocks.slab | tee target/slab_info.txt
grep -q "slab v2" target/slab_info.txt
test "$(grep -c '^section:' target/slab_info.txt)" -eq 4
cp target/verify_default_blocks.slab target/verify_v1.slab
printf 1 | dd of=target/verify_v1.slab bs=1 count=1 conv=notrunc status=none
must_refuse "slab format version '1'" ./target/release/louvain info target/verify_v1.slab
must_refuse "slab format version '1'" ./target/release/louvain run target/verify_v1.slab
# `run --ranged` reads `targets` without its checksum: a destination id
# past the vertex count (here u64::MAX in the first arc) is the store's
# corrupt-slab error naming the rank and arc, not a rank panic.
cp target/verify_default_blocks.slab target/verify_bad_target.slab
targets_at=$(awk '$2 == "targets" { print $4 }' target/slab_info.txt)
printf '\377\377\377\377\377\377\377\377' |
  dd of=target/verify_bad_target.slab bs=1 seek="$targets_at" count=8 conv=notrunc status=none
must_refuse "targets word of rank 0 at arc 0" \
  ./target/release/louvain run target/verify_bad_target.slab --ranks 2 --ranged
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
