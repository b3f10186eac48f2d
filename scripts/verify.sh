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
# one; a kernel full of debug_assert!s must hold its pins in both.
echo "==> cargo test --release --test parity"
cargo test --release -q --test parity

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

# Perf/quality regression gate: regenerate the bench artifact and gate
# it against the committed baseline at the default lens tolerances.
# Byte counters, modularity and iteration counts are deterministic (and
# the α-β times derived from them); bench_smoke itself asserts the colored sweep
# bit-identical across the thread axis before the artifact is written.
# The fresh artifact lands at target/run_artifact.json for CI upload.
echo "==> bench run artifact + lens gate vs BENCH_PR7.json"
./target/release/bench_smoke \
  --threads 1,2,4 \
  --artifact-out target/run_artifact.json \
  --trace-out target/trace.json 2>/dev/null
./target/release/lens gate --baseline BENCH_PR7.json target/run_artifact.json

# Causal critical-path gate: reconstruct the cross-rank happens-before
# DAG from the fresh artifact's message edges, check byte-exact
# agreement between the traced edges and the p2p counters, and that
# the wait fraction has not regressed past the committed baseline's
# plus the tolerance. The report lands at target/crit_report.txt and the
# Perfetto trace at target/trace.json for CI upload.
echo "==> lens crit (critical path + wait-fraction gate vs BENCH_PR7.json)"
./target/release/lens crit target/run_artifact.json \
  --baseline BENCH_PR7.json | tee target/crit_report.txt

# Serving gate: run the in-process louvaind bench (fresh job, cache
# hit, crash-injected kill-and-resume, single-rank job — the bench
# errors out unless the cache hit and the checkpoint resume actually
# happened) and gate the per-job rows against the committed
# BENCH_PR9.json. Modularity/bytes/iterations are deterministic; job
# wall times are machine-local latencies, hence the wide --wall-tol.
# The summary row must render the job-latency percentiles in lens show.
echo "==> louvaind bench + lens gate vs BENCH_PR9.json"
./target/release/louvaind bench --out target/serve_artifact.json 2>/dev/null
./target/release/lens gate --baseline BENCH_PR9.json target/serve_artifact.json \
  --wall-tol 4.0
./target/release/lens show BENCH_PR9.json | grep -q "job latency" \
  || { echo "FAIL: BENCH_PR9.json has no job-latency row"; exit 1; }

# Million-edge weak-scaling gate over the out-of-core slab path: opt-in
# via LOUVAIN_SCALE_GATE=1 because it spends tens of seconds on >=1M-edge
# runs. Regenerates the weak-scaling artifact (which itself asserts the
# p=2 byte-range load bit-identical to the shared mapping) and gates
# the deterministic modeled 64->4096-rank rows against the committed
# BENCH_PR8.json; measured weak/ rows carry machine-local wall times
# and are excluded with --skip-label. The fresh artifact lands at
# target/scale_artifact.json for CI upload.
if [[ "${LOUVAIN_SCALE_GATE:-0}" == "1" ]]; then
  echo "==> weak-scaling artifact + lens gate vs BENCH_PR8.json (LOUVAIN_SCALE_GATE=1)"
  ./target/release/bench_smoke --scale-out target/scale_artifact.json
  ./target/release/lens gate --baseline BENCH_PR8.json target/scale_artifact.json \
    --skip-label weak/
else
  echo "==> weak-scaling gate skipped (set LOUVAIN_SCALE_GATE=1 to enable)"
fi

# Not a gate: the figure a PR quotes against ROADMAP's "lines no higher
# than found" rule.
echo "==> first-party lines above the test modules (scripts/loc.sh)"
scripts/loc.sh

echo "verify: OK"
