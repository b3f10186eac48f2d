//! Trace exporter: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`).
//!
//! Mapping: each rank becomes one `pid` (with a `process_name` metadata
//! record so Perfetto labels the track "rank N"), each recording thread
//! one `tid`. Span events use phase `"X"` (complete), markers `"i"`
//! (instant). Timestamps and durations are microseconds, as the format
//! requires.

use crate::collector::TraceData;
use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::json::Json;

fn arg_to_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::U64(n) => Json::Num(*n as f64),
        ArgValue::I64(n) => Json::Num(*n as f64),
        ArgValue::F64(n) => Json::Num(*n),
        ArgValue::Bool(b) => Json::Bool(*b),
        ArgValue::Str(s) => Json::str(*s),
    }
}

fn event_args(ev: &TraceEvent) -> Json {
    Json::Obj(
        ev.args
            .iter()
            .map(|(k, v)| (k.to_string(), arg_to_json(v)))
            .collect(),
    )
}

fn event_record(rank: usize, ev: &TraceEvent) -> Json {
    let mut members = vec![
        ("name".to_string(), Json::str(ev.name)),
        ("cat".to_string(), Json::str(ev.cat)),
        ("pid".to_string(), Json::Num(rank as f64)),
        ("tid".to_string(), Json::Num(ev.tid as f64)),
        ("ts".to_string(), Json::Num(ev.ts_ns as f64 / 1e3)),
    ];
    match ev.kind {
        EventKind::Complete { dur_ns } => {
            members.insert(1, ("ph".to_string(), Json::str("X")));
            members.push(("dur".to_string(), Json::Num(dur_ns as f64 / 1e3)));
        }
        EventKind::Instant => {
            members.insert(1, ("ph".to_string(), Json::str("i")));
            members.push(("s".to_string(), Json::str("t")));
        }
    }
    if ev.attempt > 0 {
        members.push(("attempt".to_string(), Json::Num(ev.attempt as f64)));
    }
    members.push(("args".to_string(), event_args(ev)));
    Json::Obj(members)
}

fn metadata_record(rank: usize) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::str("process_name")),
        ("ph".to_string(), Json::str("M")),
        ("pid".to_string(), Json::Num(rank as f64)),
        ("tid".to_string(), Json::Num(0.0)),
        (
            "args".to_string(),
            Json::Obj(vec![(
                "name".to_string(),
                Json::str(format!("rank {rank}")),
            )]),
        ),
    ])
}

/// Per-(rank, tid) thread metadata: resilient runs record each recovery
/// attempt on a fresh thread (hence a fresh tid), so labeling the track
/// with its attempt keeps pre-crash and resumed events distinguishable
/// in the Perfetto UI.
fn thread_metadata_record(rank: usize, tid: u32, attempt: u32) -> Json {
    let label = if attempt > 0 {
        format!("rank {rank} attempt {attempt}")
    } else {
        format!("rank {rank}")
    };
    Json::Obj(vec![
        ("name".to_string(), Json::str("thread_name")),
        ("ph".to_string(), Json::str("M")),
        ("pid".to_string(), Json::Num(rank as f64)),
        ("tid".to_string(), Json::Num(tid as f64)),
        (
            "args".to_string(),
            Json::Obj(vec![
                ("name".to_string(), Json::str(label)),
                ("attempt".to_string(), Json::Num(attempt as f64)),
            ]),
        ),
    ])
}

/// Build the Chrome trace-event document as a [`Json`] value
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`). Events are
/// emitted globally sorted by timestamp.
pub fn chrome_trace(data: &TraceData) -> Json {
    let mut records: Vec<Json> = data.ranks.iter().map(|r| metadata_record(r.rank)).collect();
    // Thread tracks, labeled with the execution attempt that recorded
    // on them (first-seen attempt wins; a tid never spans attempts).
    for rank in &data.ranks {
        let mut seen: Vec<u32> = Vec::new();
        for ev in &rank.events {
            if !seen.contains(&ev.tid) {
                seen.push(ev.tid);
                records.push(thread_metadata_record(rank.rank, ev.tid, ev.attempt));
            }
        }
    }
    // Per-rank event lists are already time-sorted; k-way merge them so
    // the whole stream is monotonic.
    let mut cursors = vec![0usize; data.ranks.len()];
    loop {
        let mut best: Option<(u64, usize)> = None; // (ts, rank index)
        for (ci, rank) in data.ranks.iter().enumerate() {
            if let Some(ev) = rank.events.get(cursors[ci]) {
                if best.is_none_or(|(ts, _)| ev.ts_ns < ts) {
                    best = Some((ev.ts_ns, ci));
                }
            }
        }
        let Some((_, ci)) = best else { break };
        let rank = &data.ranks[ci];
        records.push(event_record(rank.rank, &rank.events[cursors[ci]]));
        cursors[ci] += 1;
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(records)),
        ("displayTimeUnit".to_string(), Json::str("ms")),
    ])
}

/// Serialize the Chrome trace-event document to a JSON string.
pub fn chrome_trace_json(data: &TraceData) -> String {
    chrome_trace(data).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RankTrace;
    use crate::metrics::MetricsSnapshot;

    fn ev(name: &'static str, ts_ns: u64, dur_ns: u64, tid: u32) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            kind: if dur_ns == 0 {
                EventKind::Instant
            } else {
                EventKind::Complete { dur_ns }
            },
            ts_ns,
            tid,
            attempt: 0,
            args: vec![("k", ArgValue::U64(7))],
        }
    }

    fn sample() -> TraceData {
        TraceData {
            ranks: vec![
                RankTrace {
                    rank: 0,
                    events: vec![ev("a", 1_000, 5_000, 1), ev("b", 4_000, 0, 1)],
                    dropped: 0,
                    metrics: MetricsSnapshot::default(),
                    telemetry: Vec::new(),
                },
                RankTrace {
                    rank: 1,
                    events: vec![ev("c", 2_000, 3_000, 2)],
                    dropped: 0,
                    metrics: MetricsSnapshot::default(),
                    telemetry: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_round_trips_and_is_monotonic() {
        let text = chrome_trace_json(&sample());
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 2 process metadata + 2 thread metadata (tids 1, 2) + 3 events.
        assert_eq!(events.len(), 7);
        let mut last_ts = f64::NEG_INFINITY;
        let mut pids = std::collections::BTreeSet::new();
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            pids.insert(e.get("pid").and_then(Json::as_u64).unwrap());
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last_ts, "timestamps must be monotonic");
            last_ts = ts;
        }
        assert_eq!(
            pids.into_iter().collect::<Vec<_>>(),
            vec![0, 1],
            "one pid per rank"
        );
        // Spot-check the complete event: µs conversion + args.
        let a = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("a"))
            .unwrap();
        assert_eq!(a.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(a.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(a.get("dur").and_then(Json::as_f64), Some(5.0));
        let args = a.get("args").unwrap();
        assert_eq!(args.get("k").and_then(Json::as_u64), Some(7));
        // Instant event carries scope.
        let b = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("b"))
            .unwrap();
        assert_eq!(b.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(b.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn metadata_names_rank_tracks() {
        let doc = chrome_trace(&sample());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 4, "2 process_name + 2 thread_name records");
        assert_eq!(
            meta[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("rank 0")
        );
        let threads: Vec<&&Json> = meta
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .collect();
        assert_eq!(threads.len(), 2);
        assert_eq!(
            threads[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("rank 0")
        );
        assert_eq!(
            threads[0]
                .get("args")
                .and_then(|a| a.get("attempt"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn resumed_attempts_get_labeled_tracks_and_attempt_fields() {
        let mut data = sample();
        // Rank 0's second event came from a resumed attempt on a new tid.
        data.ranks[0].events[1] = TraceEvent {
            attempt: 1,
            ..ev("b", 4_000, 0, 9)
        };
        let doc = chrome_trace(&data);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let resumed_thread = events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Json::as_u64) == Some(9)
            })
            .expect("thread metadata for the resumed attempt's tid");
        assert_eq!(
            resumed_thread
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("rank 0 attempt 1")
        );
        let b = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("b"))
            .unwrap();
        assert_eq!(b.get("attempt").and_then(Json::as_u64), Some(1));
        // The merged stream stays monotonic across the attempt boundary.
        let mut last_ts = f64::NEG_INFINITY;
        for e in events {
            if e.get("ph").and_then(Json::as_str) == Some("M") {
                continue;
            }
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last_ts);
            last_ts = ts;
        }
    }
}
