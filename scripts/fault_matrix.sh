#!/usr/bin/env bash
# Fault-matrix smoke: exercise the checkpoint/restart subsystem end to end
# through the CLI and assert that recovery is exact.
#
#   A. clean reference run (no faults, no checkpoints);
#   B. checkpointed run with an injected crash at phase 1 and a recovery
#      budget of 0 — must FAIL, leaving a complete checkpoint behind;
#   C. --resume from that checkpoint — must succeed and reproduce the
#      clean assignment and modularity bit-for-bit;
#   D. the same crash with the default recovery budget — must recover
#      automatically inside a single invocation, again bit-identically;
#   F. a hang: a rank goes silent mid-phase, the rank-health watchdog
#      must declare it hung within the deadline ladder and recover from
#      the newest checkpoint, bit-identically;
#   G. a straggler: a rank stalls past the deadline but keeps
#      heartbeating — the watchdog must extend (no hang declaration, no
#      recovery) and the result must not change.
#
# There is no message-loss scenario: MPI delivers every message
# reliably and in order, so `--fault-plan` refuses drop / delay /
# duplicate / truncate / flaky-burst / corrupt-payload by name.
#
# Everything runs on the simulated communicator: deterministic, offline,
# a few seconds total.
#
# Environment knobs:
#   RANKS=<P>         rank count (default 2)
#   EXTRA_FLAGS="..." extra `louvain run` flags appended to every run,
#                     e.g. "--threads-per-rank 4 --sweep colored" to
#                     exercise the matrix under the parallel sweep
#   ONLY_CLEAN=1      stop after scenario A (the clean reference run) —
#                     used by the CI threads=4 job as a fast smoke
set -euo pipefail
cd "$(dirname "$0")/.."

RANKS="${RANKS:-2}"
EXTRA_FLAGS="${EXTRA_FLAGS:-}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/louvain-fault-matrix.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "==> build"
cargo build -q --release --bin louvain --bin lens
BIN=target/release/louvain
BIN2=target/release/lens

echo "==> generate graph"
"$BIN" generate --kind lfr --n 900 --seed 11 --out "$WORK/g.slab"

run_q() { # <logfile> — extract the modularity line
  awk '/^modularity:/ {print $2}' "$1"
}

echo "==> A: clean reference run"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
"$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
  --assignment "$WORK/clean.comm" | tee "$WORK/clean.log"

if [ "${ONLY_CLEAN:-0}" = "1" ]; then
  grep -q '^modularity:' "$WORK/clean.log" \
    || { echo "FAIL: clean run printed no modularity" >&2; exit 1; }
  echo "fault-matrix: OK (ONLY_CLEAN: scenario A only)"
  exit 0
fi

echo "==> B: crash at phase 1, recovery budget 0 (must fail)"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
if "$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
    --checkpoint-dir "$WORK/ckpt" \
    --fault-plan 'crash:rank=0,phase=1,op=0' \
    --max-recoveries 0 >"$WORK/crash.log" 2>&1; then
  echo "FAIL: crashed run exited 0" >&2
  exit 1
fi
test -f "$WORK/ckpt/LATEST" || { echo "FAIL: no checkpoint written" >&2; exit 1; }

echo "==> C: resume from the checkpoint"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
"$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
  --checkpoint-dir "$WORK/ckpt" --resume \
  --artifact-out "$WORK/resumed.artifact.json" \
  --assignment "$WORK/resumed.comm" | tee "$WORK/resumed.log"
grep -q '^resumed from phase' "$WORK/resumed.log" \
  || { echo "FAIL: resume did not restore a checkpoint" >&2; exit 1; }
# The run artifact must carry the resume provenance: a crash-resumed
# run is distinguishable from a clean one in the unified schema.
grep -q '"resumed_from_phase": [0-9]' "$WORK/resumed.artifact.json" \
  || { echo "FAIL: run artifact lost resumed_from_phase" >&2; exit 1; }
"$BIN2" show "$WORK/resumed.artifact.json" | grep -q 'resumed_from_phase=' \
  || { echo "FAIL: lens show does not surface the resume provenance" >&2; exit 1; }

echo "==> D: same crash, automatic in-run recovery"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
"$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
  --checkpoint-dir "$WORK/ckpt2" \
  --fault-plan 'crash:rank=0,phase=1,op=0' \
  --assignment "$WORK/recovered.comm" | tee "$WORK/recovered.log"
grep -q '^recoveries:' "$WORK/recovered.log" \
  || { echo "FAIL: no recovery happened" >&2; exit 1; }

echo "==> F: hang at phase 1, watchdog declares + recovers from checkpoint"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
"$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
  --checkpoint-dir "$WORK/ckpt3" \
  --fault-plan 'hang:rank=1,phase=1,op=0' \
  --comm-timeout-ms 100 --max-retries 2 \
  --assignment "$WORK/hang.comm" | tee "$WORK/hang.log"
grep -q '^hung rank:' "$WORK/hang.log" \
  || { echo "FAIL: no hung-rank declaration" >&2; exit 1; }
grep -q '(0 crash, 1 hang)' "$WORK/hang.log" \
  || { echo "FAIL: hang not recovered as a hang" >&2; exit 1; }

echo "==> G: stall straggler — extended, not declared hung, blamed by crit"
# shellcheck disable=SC2086  # EXTRA_FLAGS is a flag list
"$BIN" run "$WORK/g.slab" --ranks "$RANKS" $EXTRA_FLAGS \
  --fault-plan 'seed=2;stall:rank=1,ms=150,prob=0.05' \
  --comm-timeout-ms 60 \
  --artifact-out "$WORK/stall.artifact.json" \
  --assignment "$WORK/stall.comm" | tee "$WORK/stall.log"
if grep -q '^recoveries:' "$WORK/stall.log"; then
  echo "FAIL: straggler was escalated to a recovery" >&2
  exit 1
fi
grep -Eq '^watchdog:.* [1-9][0-9]* straggler extensions' "$WORK/stall.log" \
  || { echo "FAIL: no straggler extension recorded" >&2; exit 1; }
# The phase profile must pin the injected straggler: rank 1 is the one
# stalling, so crit's self-time blame has to land there.
"$BIN2" crit "$WORK/stall.artifact.json" | tee "$WORK/stall.crit.txt"
grep -q 'straggler blame: rank 1 ' "$WORK/stall.crit.txt" \
  || { echo "FAIL: lens crit did not blame the stalled rank 1" >&2; exit 1; }

echo "==> parity checks"
for variant in resumed recovered hang stall; do
  cmp -s "$WORK/clean.comm" "$WORK/$variant.comm" \
    || { echo "FAIL: $variant assignment differs from clean run" >&2; exit 1; }
  q_clean="$(run_q "$WORK/clean.log")"
  q_other="$(run_q "$WORK/$variant.log")"
  [ "$q_clean" = "$q_other" ] \
    || { echo "FAIL: $variant modularity $q_other != clean $q_clean" >&2; exit 1; }
done

echo "fault-matrix: OK (clean == resumed == recovered == hang == stall)"
