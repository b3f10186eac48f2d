#!/bin/sh
# A-A check: two alternating sets of RUNS (default 5) full runs of this
# checkout, run i of both sets on seed 5+i. Prints, per workload/metric,
# both medians, their gap, each set's spread over the seeds and the
# bound from BENCHMARK.json; exits non-zero if a gap or a spread exceeds
# its bound or any run fails a check. About 3.5 min per run of a set.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --aa "${1:-5}"
