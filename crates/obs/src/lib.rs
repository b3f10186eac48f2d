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
//!   record wall-clock duration into a per-rank lock-free
//!   [`EventRing`]. One relaxed atomic load when disabled.
//! - **Collector** ([`Collector`]): one ring + metrics registry per
//!   rank, a shared epoch so rank timelines align, and a harvest step
//!   producing [`TraceData`].
//! - **Exporters** ([`chrome_trace_json`], [`jsonl`]): Chrome
//!   trace-event JSON (open in Perfetto / `chrome://tracing`; one `pid`
//!   per rank) and line-delimited JSON.
//! - **Metrics** ([`MetricsRegistry`], [`counter_add`], [`gauge_set`],
//!   [`hist_observe`]): counters, gauges, log2 histograms; snapshots
//!   merge commutatively across ranks.
//! - **The counter table** ([`StatsSnapshot`], [`CommStep`]): every
//!   always-on per-rank counter, named once. `louvain-comm` records
//!   into it; everything else walks it.
//! - **Run reports** ([`RunReport`]): the end-of-run JSON artifact: the
//!   run's [`StatsSnapshot`]s as they are, the α-β model's time
//!   breakdown, merged metrics, and span rollups.
//!
//! This crate sits below `louvain-comm` in the dependency graph so the
//! communicator can auto-span its own steps and record into the table;
//! what needs the communicator itself (filling a report from a finished
//! run) lives above, in `louvain-dist`.

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
mod ring;
mod span;
mod stats;
mod telemetry;

pub use artifact::{run_label, RunArtifact, RunEntry, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use chrome::{chrome_trace, chrome_trace_json, jsonl};
pub use collector::{
    Collector, InstallGuard, RankTrace, SpanRollup, TraceData, DEFAULT_EVENTS_PER_RANK,
};
pub use event::{ArgValue, EventKind, TraceEvent};
pub use json::{Json, JsonError};
pub use metrics::{
    counter_add, gauge_set, hist_observe, peak_rss_bytes, GaugeStat, Histogram, MetricsRegistry,
    MetricsSnapshot, HIST_BUCKETS,
};
pub use ops::{
    parse_flight_dump, unix_ms_now, OpEvent, OpKind, OpsPlane, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_MAGIC, FLIGHT_VERSION,
};
pub use progress::{ProgressMerger, ProgressScope, ProgressSink};
pub use prom::{parse_prometheus_text, prometheus_name, prometheus_text};
pub use report::{
    HealthTotals, MessageEdge, ModeledBreakdown, PhaseProfileRow, RankHung, RankTotals, RunReport,
    RUN_REPORT_VERSION,
};
pub use ring::EventRing;
pub use span::{
    complete_span, enabled, init_from_env, instant, set_enabled, span, span_cat, telemetry_enabled,
    SpanGuard,
};
pub use stats::{CommStep, StatsSnapshot, NUM_COMM_STEPS};
pub use telemetry::{merge_ranks, record_iteration, IterationRecord, TelemetryLog, TelemetryRow};

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
/// emits no stranger — so dashboards and `lens` can rely on the
/// namespace without grepping call sites.
///
/// Namespaces: `sweep.*` (move sweep work), `ghost.*` (ghost refresh,
/// split full/delta), `ingest.*` (edge-list ingestion), `wd_backoff_us`
/// (the watchdog's backoff distribution; its event counts, like the
/// checksum rejects, are in the counter table [`StatsSnapshot`] and
/// nowhere else), `checkpoint.*`
/// (checkpoint/restart), `resil.*` (recovery driver), `rank.*`
/// (per-rank imbalance histograms attached at report build), plus the
/// `modularity` gauge.
pub const METRIC_REGISTRY: &[(&str, MetricKind, &str)] = &[
    (
        "checkpoint.bytes",
        MetricKind::Counter,
        "checkpoint bytes written",
    ),
    (
        "checkpoint.restores",
        MetricKind::Counter,
        "checkpoint restores (resume or in-run recovery)",
    ),
    (
        "checkpoint.writes",
        MetricKind::Counter,
        "checkpoint snapshots written",
    ),
    (
        "ghost.delta.changed",
        MetricKind::Counter,
        "ghost slots actually changed in delta refreshes",
    ),
    (
        "ghost.delta.refreshes",
        MetricKind::Counter,
        "delta ghost refreshes",
    ),
    (
        "ghost.delta.slots",
        MetricKind::Counter,
        "ghost slots shipped by delta refreshes",
    ),
    (
        "ghost.full.refreshes",
        MetricKind::Counter,
        "full ghost refreshes",
    ),
    (
        "ghost.full.slots",
        MetricKind::Counter,
        "ghost slots shipped by full refreshes",
    ),
    (
        "ingest.duplicates_merged",
        MetricKind::Counter,
        "duplicate edges merged at ingest",
    ),
    (
        "ingest.edges_kept",
        MetricKind::Counter,
        "edges kept at ingest",
    ),
    (
        "ingest.self_loops_dropped",
        MetricKind::Counter,
        "self loops dropped at ingest",
    ),
    (
        "mem.csr_bytes",
        MetricKind::Gauge,
        "local CSR graph footprint (heap bytes only, per phase; \
         mapped slab bytes are reported under mem.mapped_bytes)",
    ),
    (
        "mem.ghost_bytes",
        MetricKind::Gauge,
        "ghost-layer footprint (bytes, per phase)",
    ),
    (
        "mem.mapped_bytes",
        MetricKind::Gauge,
        "slab bytes mapped or range-read from the store (not heap; \
         disjoint from mem.csr_bytes, which counts heap copies only)",
    ),
    (
        "mem.peak_rss_bytes",
        MetricKind::Gauge,
        "process peak RSS (VmHWM, bytes; 0 where unavailable)",
    ),
    (
        "mem.scratch_bytes",
        MetricKind::Gauge,
        "iteration scratch-arena high-water mark (bytes)",
    ),
    (
        "mem.wire_bytes",
        MetricKind::Gauge,
        "wire-buffer (outgoing message staging) high-water mark (bytes)",
    ),
    (
        "modularity",
        MetricKind::Gauge,
        "per-iteration global modularity",
    ),
    (
        "rank.total_bytes",
        MetricKind::Histogram,
        "per-rank total traffic (one observation per rank)",
    ),
    (
        "resil.hang_recoveries",
        MetricKind::Counter,
        "recoveries triggered by hung-rank declarations",
    ),
    (
        "serve.cache_evictions",
        MetricKind::Counter,
        "cached job results evicted by the LRU capacity bound",
    ),
    (
        "serve.cache_hits",
        MetricKind::Counter,
        "jobs answered from the fingerprint-keyed result cache",
    ),
    (
        "serve.cache_misses",
        MetricKind::Counter,
        "jobs that had to run because no cached result matched",
    ),
    (
        "serve.job_latency_ms",
        MetricKind::Histogram,
        "submit-to-result latency per served job (milliseconds)",
    ),
    (
        "serve.jobs_accepted",
        MetricKind::Counter,
        "jobs admitted past the bounded queue",
    ),
    (
        "serve.jobs_cancelled",
        MetricKind::Counter,
        "jobs drained to a phase-boundary checkpoint by shutdown",
    ),
    (
        "serve.jobs_completed",
        MetricKind::Counter,
        "jobs that finished with a result (fresh or cached)",
    ),
    (
        "serve.jobs_quarantined",
        MetricKind::Counter,
        "jobs quarantined by the poisoned-job ladder",
    ),
    (
        "serve.jobs_rejected",
        MetricKind::Counter,
        "submissions shed with queue_full by admission control",
    ),
    (
        "serve.jobs_resumed",
        MetricKind::Counter,
        "jobs that restarted from a checkpoint instead of from scratch",
    ),
    (
        "serve.jobs_running",
        MetricKind::Gauge,
        "jobs currently executing on worker threads",
    ),
    (
        "serve.queue_depth",
        MetricKind::Gauge,
        "admission queue depth (jobs waiting for a worker)",
    ),
    (
        "sweep.batch_moves",
        MetricKind::Counter,
        "vertices moved by colored conflict-free batches",
    ),
    (
        "sweep.colors",
        MetricKind::Counter,
        "color classes of the per-phase distance-1 coloring",
    ),
    (
        "sweep.edges",
        MetricKind::Counter,
        "edges scanned by move sweeps",
    ),
    ("sweep.moves", MetricKind::Counter, "vertices moved"),
    (
        "sweep.vertices",
        MetricKind::Counter,
        "vertices visited by move sweeps",
    ),
    (
        "vf.collapsed",
        MetricKind::Counter,
        "vertices collapsed into their anchor by vertex following",
    ),
    (
        "wait.collective_ns",
        MetricKind::Counter,
        "idle nanoseconds blocked in collective fill-waits",
    ),
    (
        "wait.recv_ns",
        MetricKind::Counter,
        "idle nanoseconds blocked in point-to-point receives",
    ),
    (
        "wd_backoff_us",
        MetricKind::Histogram,
        "watchdog retry backoff (microseconds)",
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
        reg.counter_add("sweep.moves", 1);
        reg.counter_add("sweep.bogus", 1);
        reg.gauge_set("modularity", 0.5);
        reg.counter_add("wd_backoff_us", 3); // right name, wrong kind
        let drift = unregistered_metrics(&reg.snapshot());
        assert_eq!(
            drift,
            vec!["sweep.bogus".to_string(), "wd_backoff_us".to_string()]
        );
        assert!(metric_registered("wd_backoff_us", MetricKind::Histogram));
        assert!(!metric_registered("watchdog.timeouts", MetricKind::Counter));
    }
}
