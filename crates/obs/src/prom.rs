//! Zero-dependency Prometheus text-format exposition.
//!
//! Renders a [`MetricsSnapshot`] into the Prometheus text format
//! (version 0.0.4): counters become `<name>_total`, gauges expose their
//! last set value, and log2 histograms become native Prometheus
//! histograms with cumulative `le` buckets plus `_sum`/`_count`, with
//! the artifact-standard p50/p95/p99 upper bounds exported alongside as
//! gauges. Every exported name must be present in
//! [`crate::METRIC_REGISTRY`] — an unregistered name is a hard error,
//! so exposition can never drift from the registry the way ad-hoc call
//! sites could.
//!
//! Rendering is deterministic: snapshots are `BTreeMap`s, bucket edges
//! are fixed, and floats print via Rust's shortest-roundtrip `Display`.
//! Two snapshots with equal contents render byte-identically.

use std::collections::BTreeMap;

use crate::metrics::{Histogram, MetricsSnapshot};
use crate::{unregistered_metrics, METRIC_REGISTRY};

/// Map a registry metric name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and dashes become underscores.
pub fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c == '.' || c == '-' { '_' } else { c })
        .collect()
}

fn help_text(name: &str) -> &'static str {
    METRIC_REGISTRY
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, h)| *h)
        .unwrap_or("")
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral gauges print without a fraction so the output is
        // stable and diff-friendly.
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render `snap` as Prometheus exposition text. Fails (listing the
/// offending names) if the snapshot contains any metric missing from
/// [`crate::METRIC_REGISTRY`].
pub fn prometheus_text(snap: &MetricsSnapshot) -> Result<String, String> {
    let drift = unregistered_metrics(snap);
    if !drift.is_empty() {
        return Err(format!(
            "refusing to export unregistered metrics: {}",
            drift.join(", ")
        ));
    }
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p}_total {}\n", help_text(name)));
        out.push_str(&format!("# TYPE {p}_total counter\n"));
        out.push_str(&format!("{p}_total {value}\n"));
    }
    for (name, g) in &snap.gauges {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} {}\n", help_text(name)));
        out.push_str(&format!("# TYPE {p} gauge\n"));
        out.push_str(&format!("{p} {}\n", fmt_f64(g.last)));
    }
    for (name, h) in &snap.histograms {
        let p = prometheus_name(name);
        out.push_str(&format!("# HELP {p} {}\n", help_text(name)));
        out.push_str(&format!("# TYPE {p} histogram\n"));
        let top = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, &b) in h.buckets[..top].iter().enumerate() {
            cumulative += b;
            out.push_str(&format!(
                "{p}_bucket{{le=\"{}\"}} {cumulative}\n",
                Histogram::bucket_upper_edge(i)
            ));
        }
        out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{p}_sum {}\n", h.sum));
        out.push_str(&format!("{p}_count {}\n", h.count));
        let (p50, p95, p99) = h.quantile_summary();
        for (q, v) in [("p50", p50), ("p95", p95), ("p99", p99)] {
            out.push_str(&format!("# TYPE {p}_{q} gauge\n{p}_{q} {v}\n"));
        }
    }
    Ok(out)
}

/// Parse Prometheus exposition text into a flat `sample key → value`
/// map; the key includes the label set verbatim (e.g.
/// `serve_job_latency_ms_bucket{le="+Inf"}`). Comment and blank lines
/// are skipped. This is the subset `lens top` needs to read either a
/// scraped `metrics-text` response or a metrics file from disk.
pub fn parse_prometheus_text(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`; labels may hold spaces
        // inside quotes, so split at the last space.
        let Some(split) = line.rfind(' ') else {
            return Err(format!("line {}: no value in `{line}`", lineno + 1));
        };
        let (key, value) = line.split_at(split);
        let value = value.trim();
        let v: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .map_err(|_| format!("line {}: bad value `{value}`", lineno + 1))?
        };
        out.insert(key.trim().to_string(), v);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter_add("serve.jobs_accepted", 3);
        r.counter_add("serve.cache_hits", 1);
        r.gauge_set("serve.queue_depth", 2.0);
        r.gauge_set("mem.csr_bytes", 0.4375);
        for v in [12u64, 900, 900, 15_000] {
            r.hist_observe("serve.job_latency_ms", v);
        }
        r.snapshot()
    }

    #[test]
    fn renders_counters_gauges_and_cumulative_histograms() {
        let text = prometheus_text(&sample_snapshot()).unwrap();
        assert!(text.contains("# TYPE serve_jobs_accepted_total counter\n"));
        assert!(text.contains("serve_jobs_accepted_total 3\n"));
        assert!(text.contains("serve_queue_depth 2\n"));
        assert!(text.contains("mem_csr_bytes 0.4375\n"));
        // Buckets are cumulative: 12 → bucket 3 (le=15), two 900s →
        // bucket 9 (le=1023), 15000 → bucket 13 (le=16383).
        assert!(text.contains("serve_job_latency_ms_bucket{le=\"15\"} 1\n"));
        assert!(text.contains("serve_job_latency_ms_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("serve_job_latency_ms_bucket{le=\"16383\"} 4\n"));
        assert!(text.contains("serve_job_latency_ms_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("serve_job_latency_ms_sum 16812\n"));
        assert!(text.contains("serve_job_latency_ms_count 4\n"));
        assert!(text.contains("serve_job_latency_ms_p50 1023\n"));
        assert!(text.contains("serve_job_latency_ms_p99 16383\n"));
        // Help text rides along from the registry.
        assert!(text.contains("# HELP serve_queue_depth admission queue depth"));
    }

    #[test]
    fn unregistered_names_are_a_hard_error() {
        let r = MetricsRegistry::new();
        r.counter_add("serve.jobs_accepted", 1);
        r.counter_add("serve.bogus", 1);
        let err = prometheus_text(&r.snapshot()).unwrap_err();
        assert!(err.contains("serve.bogus"), "{err}");
        assert!(!err.contains("serve.jobs_accepted"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = prometheus_text(&sample_snapshot()).unwrap();
        let b = prometheus_text(&sample_snapshot()).unwrap();
        assert_eq!(a, b, "equal snapshots must render byte-identically");
    }

    #[test]
    fn parser_round_trips_rendered_samples() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap).unwrap();
        let samples = parse_prometheus_text(&text).unwrap();
        assert_eq!(samples["serve_jobs_accepted_total"], 3.0);
        assert_eq!(samples["serve_cache_hits_total"], 1.0);
        assert_eq!(samples["serve_queue_depth"], 2.0);
        assert_eq!(samples["mem_csr_bytes"], 0.4375);
        assert_eq!(samples["serve_job_latency_ms_count"], 4.0);
        assert_eq!(samples["serve_job_latency_ms_bucket{le=\"1023\"}"], 3.0);
        assert_eq!(samples["serve_job_latency_ms_p95"], 16383.0);
    }

    #[test]
    fn parser_rejects_garbage_and_skips_comments() {
        assert!(parse_prometheus_text("# just a comment\n\n")
            .unwrap()
            .is_empty());
        assert!(parse_prometheus_text("lonely_name\n").is_err());
        assert!(parse_prometheus_text("name not_a_number\n").is_err());
    }

    #[test]
    fn names_map_onto_prometheus_grammar() {
        assert_eq!(prometheus_name("serve.queue_depth"), "serve_queue_depth");
        assert_eq!(prometheus_name("sweep.colors"), "sweep_colors");
        assert_eq!(
            prometheus_name("ghost.delta.refreshes"),
            "ghost_delta_refreshes"
        );
    }
}
