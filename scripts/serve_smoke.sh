#!/usr/bin/env bash
# Serving smoke: exercise the louvaind daemon end to end over TCP.
#
#   A. start the daemon on an ephemeral port with a 1-job crash budget;
#   B. submit a clean job — must finish `done`;
#   C. resubmit the identical job — must be answered `"cached":true`
#      from the result cache without re-running;
#   S. the same for a second slab (SSCA#2): a fresh job, then a
#      resubmission answered from the cache on the slab's header key;
#   D. submit a job with an injected mid-run crash — the per-job
#      recovery budget absorbs it and the run resumes from its
#      phase-boundary checkpoint (`resumed_from_phase` non-null), with
#      the daemon unharmed;
#   E. query the finished job's dendrogram;
#   G. scrape Prometheus metrics mid-job — the daemon must report at
#      least one running job while one is in flight;
#   H. watch a job: per-(phase, iteration) progress lines stream until
#      the terminal result line;
#   I. lens top (live TCP + saved file) and lens tail over the event
#      log, with a kind filter;
#   J. on-demand flight dump, then kill -9 — the dump must be
#      well-formed and its last_seq must equal the event-log tail's
#      sequence number (the log is flushed per event);
#   K. fresh daemon, SIGTERM — it must drain, dump the flight recorder,
#      and exit cleanly (status 0).
#
# Everything runs on the simulated communicator: deterministic, offline,
# a few seconds total.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/louvain-serve-smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> build"
cargo build -q --release --bin louvain --bin louvaind --bin lens
LOUVAIN=target/release/louvain
LOUVAIND=target/release/louvaind
LENS=target/release/lens

echo "==> generate graphs"
"$LOUVAIN" generate --kind lfr --n 900 --seed 11 --out "$WORK/g.slab"
"$LOUVAIN" generate --kind ssca2 --n 2000 --seed 5 --out "$WORK/s.slab"
# A bigger graph keeps a job in flight long enough to scrape mid-run.
"$LOUVAIN" generate --kind lfr --n 30000 --seed 13 --out "$WORK/big.slab"

echo "==> start daemon"
"$LOUVAIND" serve --listen 127.0.0.1:0 --workers 2 \
    --ckpt-root "$WORK/ckpt" \
    --event-log "$WORK/events.jsonl" \
    --flight-dir "$WORK/flight" >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^louvaind listening on //p' "$WORK/daemon.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.log"; echo "FAIL: daemon died on startup"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$WORK/daemon.log"; echo "FAIL: daemon never announced its address"; exit 1; }
echo "    listening on $ADDR"

echo "==> B. clean job"
"$LOUVAIND" submit --addr "$ADDR" --job-id clean --graph "$WORK/g.slab" \
    --ranks 2 | tee "$WORK/clean.out"
grep -q '"outcome":"done"' "$WORK/clean.out" || { echo "FAIL: clean job did not finish"; exit 1; }
grep -q '"cached":false' "$WORK/clean.out" || { echo "FAIL: first run cannot be cached"; exit 1; }

echo "==> C. identical resubmission (cache hit)"
"$LOUVAIND" submit --addr "$ADDR" --job-id clean-again --graph "$WORK/g.slab" \
    --ranks 2 | tee "$WORK/cached.out"
grep -q '"cached":true' "$WORK/cached.out" || { echo "FAIL: resubmission was not served from the cache"; exit 1; }

echo "==> S. second slab job, then its resubmission (cache hit on the header key)"
"$LOUVAIND" submit --addr "$ADDR" --job-id slab --graph "$WORK/s.slab" \
    --ranks 2 | tee "$WORK/slab.out"
grep -q '"cached":false' "$WORK/slab.out" || { echo "FAIL: first slab job did not run"; exit 1; }
"$LOUVAIND" submit --addr "$ADDR" --job-id slab-again --graph "$WORK/s.slab" \
    --ranks 2 | tee "$WORK/slab-cached.out"
grep -q '"cached":true' "$WORK/slab-cached.out" || { echo "FAIL: slab resubmission was not served from the cache"; exit 1; }

echo "==> D. crash-injected job (kill-and-resume inside its budget)"
"$LOUVAIND" submit --addr "$ADDR" --job-id crashy --graph "$WORK/g.slab" \
    --ranks 2 --variant et:0.25 --fault "crash:rank=0,phase=1,op=0" \
    --crash-budget 1 | tee "$WORK/crash.out"
grep -q '"outcome":"done"' "$WORK/crash.out" || { echo "FAIL: crash-injected job did not finish"; exit 1; }
grep -q '"crash_recoveries":1' "$WORK/crash.out" || { echo "FAIL: the injected crash was not recovered"; exit 1; }
grep -q '"resumed_from_phase":1' "$WORK/crash.out" || { echo "FAIL: recovery did not resume from the phase checkpoint"; exit 1; }

echo "==> E. query the dendrogram"
"$LOUVAIND" query --addr "$ADDR" --job-id crashy >"$WORK/query.out"
grep -q '"type":"hierarchy"' "$WORK/query.out" || { echo "FAIL: query returned no hierarchy"; exit 1; }
grep -q '"levels":\[\[' "$WORK/query.out" || { echo "FAIL: hierarchy has no levels"; exit 1; }

echo "==> G. mid-job metrics scrape"
"$LOUVAIND" submit --addr "$ADDR" --job-id long --graph "$WORK/big.slab" \
    --ranks 2 >"$WORK/long.out" 2>&1 &
SUBMIT_PID=$!
RUNNING=""
for _ in $(seq 1 100); do
    "$LOUVAIND" metrics --addr "$ADDR" >"$WORK/metrics.txt" 2>/dev/null || true
    if grep -Eq '^serve_jobs_running [1-9]' "$WORK/metrics.txt"; then RUNNING=1; break; fi
    kill -0 "$SUBMIT_PID" 2>/dev/null || break
    sleep 0.1
done
[ -n "$RUNNING" ] || { cat "$WORK/metrics.txt"; echo "FAIL: never saw a running job in the metrics"; exit 1; }
grep -q '^serve_queue_depth ' "$WORK/metrics.txt" || { echo "FAIL: exposition is missing the queue-depth gauge"; exit 1; }
grep -q '^# TYPE serve_jobs_accepted_total counter' "$WORK/metrics.txt" || { echo "FAIL: exposition is missing TYPE lines"; exit 1; }

echo "==> H. watch the in-flight job to completion"
"$LOUVAIND" watch --addr "$ADDR" --job-id long | tee "$WORK/watch.out" >/dev/null
grep -q '"type":"progress"' "$WORK/watch.out" || { cat "$WORK/watch.out"; echo "FAIL: watch streamed no progress rows"; exit 1; }
grep -q '"outcome":"done"' "$WORK/watch.out" || { cat "$WORK/watch.out"; echo "FAIL: watch did not close with the job's result"; exit 1; }
wait "$SUBMIT_PID" || { cat "$WORK/long.out"; echo "FAIL: background submission failed"; exit 1; }

echo "==> I. lens top and lens tail"
"$LENS" top "$ADDR" | tee "$WORK/top.out"
grep -q '^queue depth' "$WORK/top.out" || { echo "FAIL: lens top printed no dashboard"; exit 1; }
grep -q 'jobs: accepted' "$WORK/top.out" || { echo "FAIL: lens top printed no job counters"; exit 1; }
"$LENS" top "$WORK/metrics.txt" >/dev/null || { echo "FAIL: lens top cannot read saved exposition text"; exit 1; }
"$LENS" tail "$WORK/events.jsonl" >"$WORK/tail.out"
grep -q 'job_accepted' "$WORK/tail.out" || { cat "$WORK/tail.out"; echo "FAIL: lens tail shows no admissions"; exit 1; }
"$LENS" tail "$WORK/events.jsonl" --kind job_done | grep -q 'job_done' || { echo "FAIL: lens tail kind filter found no completions"; exit 1; }

echo "==> J. on-demand flight dump, then kill -9"
"$LOUVAIND" dump --addr "$ADDR" >"$WORK/dump.out"
cat "$WORK/dump.out"
FLIGHT="$(sed -n 's/.*"path":"\([^"]*\)".*/\1/p' "$WORK/dump.out")"
[ -n "$FLIGHT" ] && [ -f "$FLIGHT" ] || { echo "FAIL: dump verb returned no flight file"; exit 1; }
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
grep -q '"magic": "LVFR"' "$FLIGHT" || { echo "FAIL: flight dump has no magic"; exit 1; }
DUMP_SEQ="$(sed -n 's/.*"last_seq": \([0-9]*\).*/\1/p' "$FLIGHT" | head -1)"
LOG_SEQ="$(grep -o '"seq":[0-9]*' "$WORK/events.jsonl" | tail -1 | cut -d: -f2)"
[ -n "$DUMP_SEQ" ] && [ "$DUMP_SEQ" = "$LOG_SEQ" ] || {
    echo "FAIL: flight dump last_seq ($DUMP_SEQ) != event-log tail seq ($LOG_SEQ)"; exit 1; }
"$LENS" tail "$WORK/events.jsonl" | grep -q 'flight_dump' || { echo "FAIL: event log after kill -9 is unreadable or missing the dump event"; exit 1; }
echo "    flight dump and event log agree at seq $DUMP_SEQ"

echo "==> K. fresh daemon, SIGTERM drain"
"$LOUVAIND" serve --listen 127.0.0.1:0 --workers 2 \
    --ckpt-root "$WORK/ckpt2" \
    --flight-dir "$WORK/flight2" >"$WORK/daemon2.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
    grep -q '^louvaind listening on ' "$WORK/daemon2.log" && break
    sleep 0.1
done
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
    cat "$WORK/daemon2.log"
    echo "FAIL: daemon did not exit after SIGTERM"
    exit 1
fi
wait "$DAEMON_PID" && STATUS=0 || STATUS=$?
DAEMON_PID=""
[ "$STATUS" -eq 0 ] || { cat "$WORK/daemon2.log"; echo "FAIL: daemon exited with status $STATUS"; exit 1; }
grep -q "louvaind drained, exiting" "$WORK/daemon2.log" || { cat "$WORK/daemon2.log"; echo "FAIL: daemon did not drain before exit"; exit 1; }
grep -q "flight recorder dumped to" "$WORK/daemon2.log" || { cat "$WORK/daemon2.log"; echo "FAIL: SIGTERM drain did not dump the flight recorder"; exit 1; }
ls "$WORK/flight2"/flight-*.json >/dev/null 2>&1 || { echo "FAIL: no flight dump on disk after SIGTERM"; exit 1; }

echo "serve smoke: OK (cache hit, slab cache hit, kill-and-resume, mid-job scrape, watch stream, flight/event-log parity, clean SIGTERM drain)"
