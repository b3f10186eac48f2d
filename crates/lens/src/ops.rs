//! Live-daemon views: the `lens top` dashboard over Prometheus
//! exposition text and the `lens tail` pretty-printer over the
//! daemon's JSONL event log.
//!
//! Both renderers are pure functions over already-fetched text, so the
//! binary owns all I/O (TCP fetch, file read, `--watch` polling) and
//! the rendering stays deterministic and unit-testable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use louvain_obs::{Json, OpEvent};

/// One metric from parsed exposition text; series with labels (the
/// histogram buckets) keep their label set in the key.
pub type PromMetrics = BTreeMap<String, f64>;

fn get(m: &PromMetrics, name: &str) -> Option<f64> {
    m.get(name).copied()
}

fn count(m: &PromMetrics, name: &str) -> u64 {
    get(m, name).unwrap_or(0.0) as u64
}

/// Render the `lens top` dashboard from parsed Prometheus text (the
/// output of [`louvain_obs::parse_prometheus_text`] over a
/// `metrics-text` response, a `GET /metrics` body, or a saved file).
pub fn render_top(m: &PromMetrics) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "queue depth {:>4}   running {:>4}",
        count(m, "serve_queue_depth"),
        count(m, "serve_jobs_running"),
    );
    let _ = writeln!(
        out,
        "jobs: accepted {}  completed {}  rejected {}  cancelled {}  \
         quarantined {}  resumed {}",
        count(m, "serve_jobs_accepted_total"),
        count(m, "serve_jobs_completed_total"),
        count(m, "serve_jobs_rejected_total"),
        count(m, "serve_jobs_cancelled_total"),
        count(m, "serve_jobs_quarantined_total"),
        count(m, "serve_jobs_resumed_total"),
    );
    let hits = count(m, "serve_cache_hits_total");
    let misses = count(m, "serve_cache_misses_total");
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "cache: hits {}  misses {}  hit rate {:.1}%",
            hits,
            misses,
            100.0 * hits as f64 / (hits + misses) as f64,
        );
    }
    if let Some(n) = get(m, "serve_job_latency_ms_count").filter(|&n| n > 0.0) {
        let _ = writeln!(
            out,
            "job latency (ms): p50<={} p95<={} p99<={}  over {} jobs",
            count(m, "serve_job_latency_ms_p50"),
            count(m, "serve_job_latency_ms_p95"),
            count(m, "serve_job_latency_ms_p99"),
            n as u64,
        );
    }
    // Anything beyond the serve plane rides along summarised, so `top`
    // against a full-snapshot daemon shows how much else is live.
    let other = m
        .keys()
        .filter(|k| !k.starts_with("serve_") && !k.contains('{'))
        .count();
    if other > 0 {
        let _ = writeln!(out, "({other} non-serve series exported)");
    }
    out
}

/// Parse a JSONL event log (or any prefix of one) into typed events.
/// A torn final line — unterminated, the one a `kill -9` can leave — is
/// tolerated; any other malformed line, a newline-terminated last one
/// included, is an error with its line number.
pub fn parse_event_log(text: &str) -> Result<Vec<OpEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.split_inclusive('\n').enumerate() {
        // The daemon appends each event as `line + '\n'` and flushes, so
        // only an unterminated last line can be mid-write.
        let torn = !line.ends_with('\n');
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = Json::parse(line)
            .map_err(|e| format!("line {}: {e:?}", i + 1))
            .and_then(|doc| OpEvent::from_json(&doc).map_err(|e| format!("line {}: {e}", i + 1)));
        match parsed {
            Ok(ev) => events.push(ev),
            Err(_) if torn => {}
            Err(e) => return Err(e),
        }
    }
    Ok(events)
}

/// Render one event as an aligned human line:
/// `   seq  unix_ms  kind            job       key=value ...`.
pub fn render_event(ev: &OpEvent) -> String {
    let mut line = format!(
        "{:>6}  {:>13}  {:<15} {:<12}",
        ev.seq,
        ev.unix_ms,
        ev.kind.as_str(),
        ev.job.as_deref().unwrap_or("-"),
    );
    for (k, v) in &ev.fields {
        let v = match v {
            Json::Str(s) => s.clone(),
            other => other.to_string_compact(),
        };
        let _ = write!(line, " {k}={v}");
    }
    line
}

/// The `lens tail` body: every event passing the optional kind/job
/// filters, one rendered line each. Filters use the snake_case wire
/// names ([`louvain_obs::OpKind::as_str`]).
pub fn render_tail(events: &[OpEvent], kind: Option<&str>, job: Option<&str>) -> String {
    let mut out = String::new();
    for ev in events {
        if kind.is_some_and(|k| ev.kind.as_str() != k) {
            continue;
        }
        if job.is_some_and(|j| ev.job.as_deref() != Some(j)) {
            continue;
        }
        out.push_str(&render_event(ev));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_obs::OpKind;

    fn ev(seq: u64, kind: OpKind, job: Option<&str>) -> OpEvent {
        OpEvent {
            seq,
            unix_ms: 1000 + seq,
            kind,
            job: job.map(str::to_string),
            fields: vec![("reason".to_string(), Json::str("queue_full"))],
        }
    }

    #[test]
    fn top_renders_counts_and_hit_rate() {
        let mut m = PromMetrics::new();
        m.insert("serve_queue_depth".into(), 3.0);
        m.insert("serve_jobs_running".into(), 2.0);
        m.insert("serve_jobs_accepted_total".into(), 10.0);
        m.insert("serve_jobs_completed_total".into(), 7.0);
        m.insert("serve_cache_hits_total".into(), 3.0);
        m.insert("serve_cache_misses_total".into(), 1.0);
        m.insert("serve_job_latency_ms_count".into(), 7.0);
        m.insert("serve_job_latency_ms_p50".into(), 511.0);
        m.insert("serve_job_latency_ms_p95".into(), 2047.0);
        m.insert("serve_job_latency_ms_p99".into(), 2047.0);
        let text = render_top(&m);
        assert!(text.contains("queue depth    3   running    2"), "{text}");
        assert!(text.contains("hit rate 75.0%"), "{text}");
        assert!(text.contains("p50<=511 p95<=2047 p99<=2047"), "{text}");
        // Deterministic: same map, byte-identical render.
        assert_eq!(text, render_top(&m));
    }

    #[test]
    fn tail_round_trips_and_filters() {
        let events = vec![
            ev(1, OpKind::JobAccepted, Some("a")),
            ev(2, OpKind::JobShed, Some("b")),
            ev(3, OpKind::DrainBegin, None),
        ];
        let log: String = events
            .iter()
            .map(|e| e.to_json().to_string_compact() + "\n")
            .collect();
        let parsed = parse_event_log(&log).unwrap();
        assert_eq!(parsed, events);

        let all = render_tail(&parsed, None, None);
        assert_eq!(all.lines().count(), 3);
        assert!(all.contains("job_shed"), "{all}");
        assert!(all.contains("reason=queue_full"), "{all}");

        let shed_only = render_tail(&parsed, Some("job_shed"), None);
        assert_eq!(shed_only.lines().count(), 1);
        let job_a = render_tail(&parsed, None, Some("a"));
        assert_eq!(job_a.lines().count(), 1);
        assert!(job_a.contains("job_accepted"), "{job_a}");
    }

    #[test]
    fn torn_final_line_is_tolerated_but_interior_garbage_is_not() {
        let good = ev(1, OpKind::JobAccepted, Some("a"))
            .to_json()
            .to_string_compact();
        let torn = format!("{good}\n{{\"seq\":2,\"unix_m");
        assert_eq!(parse_event_log(&torn).unwrap().len(), 1);
        let interior = format!("not json\n{good}\n");
        assert!(parse_event_log(&interior).is_err());
        // A terminated line was written whole: garbage there is not a
        // torn write, even when it is the last line.
        let terminated = format!("{good}\nnot json\n");
        let err = parse_event_log(&terminated).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
