//! # louvain-obs — rank-aware tracing, metrics, and run reports
//!
//! A lightweight, zero-dependency observability layer for the
//! distributed Louvain workspace. It reproduces, as a first-class
//! artifact, the kind of evidence the source paper gathers with
//! HPCToolkit (Section V-A: ~98% of time in the iteration body, split
//! across community communication / modularity reduction / compute).
//!
//! Pieces:
//!
//! - **Spans** ([`span!`], [`span`], [`SpanGuard`]): RAII scopes that
//!   record wall-clock duration into the record the rank thread's
//!   observer owns (no lock; the earliest 65 536 events per rank are
//!   kept, later ones counted). One relaxed atomic load when disabled.
//! - **Collector** ([`Collector`]): installs one observer per rank
//!   thread, a shared epoch so rank timelines align, and a harvest step
//!   producing [`TraceData`]. [`observing`] says whether this thread has
//!   one.
//! - **Exporter** ([`chrome_trace_json`]): Chrome trace-event JSON
//!   (open in Perfetto / `chrome://tracing`; one `pid` per rank).
//! - **Metrics** ([`MetricsSnapshot`], [`counter_add`], [`gauge_set`],
//!   the server's [`MetricsRegistry`]): counters, gauges, log2
//!   histograms under the names of [`METRIC_REGISTRY`]; snapshots merge
//!   commutatively across ranks.
//! - **The counter table** ([`StatsSnapshot`], [`CommStep`]): every
//!   always-on per-rank counter, named once. `louvain-comm` records
//!   into it; everything else walks it.
//! - **Run reports** ([`RunReport`]): the end-of-run JSON artifact: the
//!   run's [`StatsSnapshot`]s as they are, the measured wall, merged
//!   metrics, and span rollups.
//!
//! This crate sits below `louvain-comm` in the dependency graph so the
//! communicator can auto-span its own steps and record into the table;
//! what needs the communicator itself (filling a report from a finished
//! run) lives above, in `louvain-dist`.

#![deny(unsafe_code)]

mod artifact;
mod chrome;
mod collector;
mod event;
mod json;
mod metrics;
mod ops;
mod progress;
mod prom;
mod report;
mod span;
mod stats;
mod telemetry;

pub use artifact::{run_label, RunArtifact, RunEntry, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use chrome::{chrome_trace, chrome_trace_json};
pub use collector::{Collector, InstallGuard, RankTrace, SpanRollup, TraceData};
pub use event::{ArgValue, EventKind, TraceEvent};
pub use json::{Json, JsonError};
pub use metrics::{
    counter_add, gauge_set, peak_rss_bytes, GaugeStat, Histogram, MetricsRegistry, MetricsSnapshot,
    HIST_BUCKETS,
};
pub use ops::{
    parse_flight_dump, unix_ms_now, OpEvent, OpKind, OpsPlane, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_MAGIC, FLIGHT_VERSION,
};
pub use progress::{ProgressMerger, ProgressSink};
pub use prom::{parse_prometheus_text, prometheus_name, prometheus_text};
pub use report::{
    HealthTotals, PhaseProfileRow, RankHung, RankTotals, RunReport, RUN_REPORT_VERSION,
};
pub use span::{complete_span, enabled, observing, set_enabled, span, span_cat, SpanGuard};
pub use stats::{CommStep, StatsSnapshot, NUM_COMM_STEPS};
pub use telemetry::{merge_ranks, record_iteration, IterationRecord, TelemetryRow};

// ---------------------------------------------------------------------------
// Metric-name registry
// ---------------------------------------------------------------------------

/// Kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// The one table of every metric name the workspace records, in
/// namespace order. Recording sites across the crates must use names
/// from this table — `tests/observability.rs` asserts a traced run
/// emits no stranger and records every non-`serve.*` name — so
/// dashboards and `lens` can rely on the namespace without grepping
/// call sites.
///
/// A name earns its line by having a reader, named in its description.
/// A value the run already holds (the counter table [`StatsSnapshot`],
/// per-phase and per-iteration stats, the outcome's recovery records)
/// is read from there and not recorded here a second time.
///
/// Namespaces: `mem.*` (memory footprint gauges, recorded on rank
/// threads of a traced run), `ghost.*` (ghost refreshes, split
/// full/delta), `sweep.colors`, and `serve.*` (the job server's own
/// registry, exported as Prometheus text).
pub const METRIC_REGISTRY: &[(&str, MetricKind, &str)] = &[
    (
        "ghost.delta.refreshes",
        MetricKind::Counter,
        "delta ghost refreshes; read by tests/resilience.rs",
    ),
    (
        "ghost.full.refreshes",
        MetricKind::Counter,
        "full ghost refreshes; read by tests/resilience.rs",
    ),
    (
        "mem.csr_bytes",
        MetricKind::Gauge,
        "bytes of the CSR a rank loads, set once per rank at load: its \
         offsets, plus its rows unless they are mapped slab pages (those \
         are mem.mapped_bytes); read by `lens show` and tests/storage.rs",
    ),
    (
        "mem.ghost_bytes",
        MetricKind::Gauge,
        "ghost-layer footprint (bytes, per phase: arc targets, their \
         slot → arc reverse index, request and serve tables); read by \
         tests/observability.rs",
    ),
    (
        "mem.mapped_bytes",
        MetricKind::Gauge,
        "slab bytes mapped (the whole file) or range-read from the store; \
         a mapped run's rows are counted here and not in mem.csr_bytes; \
         read by `lens show` and tests/storage.rs",
    ),
    (
        "mem.peak_rss_bytes",
        MetricKind::Gauge,
        "process peak RSS (VmHWM, bytes; 0 where unavailable); read by \
         `lens show` and tests/storage.rs",
    ),
    (
        "mem.scratch_bytes",
        MetricKind::Gauge,
        "iteration scratch-arena high-water mark (bytes); read by \
         tests/observability.rs",
    ),
    (
        "mem.wire_bytes",
        MetricKind::Gauge,
        "wire-buffer (outgoing message staging) high-water mark (bytes); \
         read by tests/observability.rs",
    ),
    (
        "serve.cache_evictions",
        MetricKind::Counter,
        "cached job results evicted by the LRU capacity bound; read by \
         the Prometheus exposition",
    ),
    (
        "serve.cache_hits",
        MetricKind::Counter,
        "jobs answered from the fingerprint-keyed result cache; read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.cache_misses",
        MetricKind::Counter,
        "jobs that had to run because no cached result matched; read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.job_latency_ms",
        MetricKind::Histogram,
        "submit-to-result latency per served job (milliseconds); read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.jobs_accepted",
        MetricKind::Counter,
        "jobs admitted past the bounded queue; read by `lens top` and \
         tests/serve.rs",
    ),
    (
        "serve.jobs_cancelled",
        MetricKind::Counter,
        "jobs drained to a phase-boundary checkpoint by shutdown; read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.jobs_completed",
        MetricKind::Counter,
        "jobs that finished with a result (fresh or cached); read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.jobs_quarantined",
        MetricKind::Counter,
        "jobs quarantined by the poisoned-job ladder; read by `lens top` \
         and tests/serve.rs",
    ),
    (
        "serve.jobs_rejected",
        MetricKind::Counter,
        "submissions shed with queue_full by admission control; read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "serve.jobs_resumed",
        MetricKind::Counter,
        "jobs that restarted from a checkpoint instead of from scratch; \
         read by `lens top` and tests/serve.rs",
    ),
    (
        "serve.jobs_running",
        MetricKind::Gauge,
        "jobs currently executing on worker threads; read by `lens top` \
         and tests/serve.rs",
    ),
    (
        "serve.queue_depth",
        MetricKind::Gauge,
        "admission queue depth (jobs waiting for a worker); read by \
         `lens top` and tests/serve.rs",
    ),
    (
        "sweep.colors",
        MetricKind::Counter,
        "color classes of the per-phase distance-1 coloring; read by \
         tests/observability.rs",
    ),
];

/// Whether `name` is in [`METRIC_REGISTRY`] with the given kind.
pub fn metric_registered(name: &str, kind: MetricKind) -> bool {
    METRIC_REGISTRY
        .iter()
        .any(|(n, k, _)| *n == name && *k == kind)
}

/// Names in `snapshot` that are missing from [`METRIC_REGISTRY`] (or
/// registered under a different kind), sorted. Empty means the snapshot
/// is drift-free.
pub fn unregistered_metrics(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    for name in snapshot.counters.keys() {
        if !metric_registered(name, MetricKind::Counter) {
            out.push(name.clone());
        }
    }
    for name in snapshot.gauges.keys() {
        if !metric_registered(name, MetricKind::Gauge) {
            out.push(name.clone());
        }
    }
    for name in snapshot.histograms.keys() {
        if !metric_registered(name, MetricKind::Histogram) {
            out.push(name.clone());
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_duplicate_free() {
        for w in METRIC_REGISTRY.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn unregistered_names_are_reported() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sweep.colors", 1);
        reg.counter_add("sweep.bogus", 1);
        reg.gauge_set("mem.csr_bytes", 0.5);
        reg.counter_add("serve.job_latency_ms", 3); // right name, wrong kind
        let drift = unregistered_metrics(&reg.snapshot());
        assert_eq!(
            drift,
            vec![
                "serve.job_latency_ms".to_string(),
                "sweep.bogus".to_string()
            ]
        );
        assert!(metric_registered(
            "serve.job_latency_ms",
            MetricKind::Histogram
        ));
        assert!(!metric_registered("watchdog.timeouts", MetricKind::Counter));
    }
}
