//! # louvain-lens — run-artifact analytics
//!
//! Turns [`RunArtifact`]s into human summaries, deterministic diffs,
//! critical paths, and ops views. It reads artifacts; it gates nothing
//! (perf is gated by the `bench/` ladder, determinism by the
//! `tests/parity.rs` pins):
//!
//! - [`show`]: per-run summary plus a sparkline convergence table when
//!   the run carries telemetry.
//! - [`diff`]: match runs by label across two artifacts and tabulate
//!   wall / bytes / modularity / iterations-to-converge, a→b.
//! - [`crit`]: cross-rank critical-path analysis over a traced run's
//!   phase profile — per-phase wall attribution along the slowest-rank
//!   chain and straggler blame by self time (see [`crit`]).
//! - [`render_top`] / [`render_tail`]: a daemon's metrics dashboard and
//!   event log.
//!
//! Every rendering path is deterministic — fixed float precision, label
//! ordering via `BTreeMap`, no clocks — so diffing the same two
//! artifacts twice is byte-identical (asserted in tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use louvain_obs::{RunArtifact, RunEntry, TelemetryRow};

mod crit;
pub use crit::{crit, ChainStep, CritReport, RunCrit};
mod ops;
pub use ops::{parse_event_log, render_event, render_tail, render_top, PromMetrics};

// ---------------------------------------------------------------------------
// show
// ---------------------------------------------------------------------------

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Map a series onto sparkline glyphs (min → `▁`, max → `█`).
fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            if hi > lo {
                let t = (v - lo) / (hi - lo);
                SPARKS[((t * 7.0).round() as usize).min(7)]
            } else {
                SPARKS[3]
            }
        })
        .collect()
}

fn convergence_table(rows: &[TelemetryRow]) -> String {
    let mut out = String::new();
    let qs: Vec<f64> = rows.iter().map(|r| r.modularity).collect();
    let _ = writeln!(
        out,
        "  convergence: {}  (modularity per iteration)",
        sparkline(&qs)
    );
    let _ = writeln!(
        out,
        "  {:>5} {:>4} {:>12} {:>12} {:>8} {:>7} {:>7} {:>10}",
        "phase", "iter", "q", "dq", "moves", "active", "comms", "ghost B"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:>5} {:>4} {:>12.6} {:>12.6} {:>8} {:>6.1}% {:>7} {:>10}",
            r.phase,
            r.iteration,
            r.modularity,
            r.delta_q,
            r.moves,
            100.0 * r.active_fraction(),
            r.communities,
            r.ghost_bytes_total(),
        );
    }
    out
}

/// Storage-footprint line built from the `mem.*` gauges of a traced
/// run. CSR bytes and slab bytes are summed across ranks
/// (`GaugeStat::sum` — each rank sets both once per run, at load; a
/// mapped run's rows are slab bytes only, so the two never overlap);
/// peak RSS is process-wide, so ranks all observe the same value and
/// `max` is the honest aggregate.
fn memory_line(r: &louvain_obs::RunReport) -> Option<String> {
    let csr = r.metrics.gauges.get("mem.csr_bytes");
    let mapped = r.metrics.gauges.get("mem.mapped_bytes");
    let rss = r.metrics.gauges.get("mem.peak_rss_bytes");
    if csr.is_none() && mapped.is_none() && rss.is_none() {
        return None;
    }
    let csr_b = csr.map(|g| g.sum).unwrap_or(0.0);
    let mapped_b = mapped.map(|g| g.sum).unwrap_or(0.0);
    let mut line = format!(
        "memory: csr={} B  mapped={} B",
        csr_b as u64, mapped_b as u64
    );
    if r.edges > 0 {
        let _ = write!(
            line,
            "  bytes/edge={:.1}",
            (csr_b + mapped_b) / r.edges as f64
        );
    }
    if let Some(g) = rss {
        let _ = write!(line, "  peak_rss={:.1} MiB", g.max / (1024.0 * 1024.0));
    }
    Some(line)
}

/// Rank-imbalance line: exact min, median (lower, for even rank counts)
/// and max of the ranks' total traffic.
fn imbalance_line(r: &louvain_obs::RunReport) -> Option<String> {
    let mut bytes: Vec<u64> = r.per_rank_traffic.iter().map(|s| s.total_bytes()).collect();
    bytes.sort_unstable();
    let (min, max) = (*bytes.first()?, *bytes.last()?);
    let median = bytes[(bytes.len() - 1) / 2];
    Some(format!(
        "rank imbalance (total bytes): min={min} median={median} max={max}"
    ))
}

/// Human summary of an artifact: one block per run, with a sparkline
/// convergence table for traced runs.
pub fn show(artifact: &RunArtifact) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "artifact: {} ({} runs)",
        artifact.name,
        artifact.runs.len()
    );
    if !artifact.description.is_empty() {
        let _ = writeln!(out, "  {}", artifact.description);
    }
    for entry in &artifact.runs {
        let r = &entry.report;
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{}  [{}]  q={:.6}  phases={} iters={}  wall={:.1}ms  bytes={}",
            entry.label,
            r.variant,
            r.modularity,
            r.phases,
            r.iterations,
            r.wall_seconds * 1000.0,
            r.traffic.total_bytes(),
        );
        if r.recoveries > 0 || r.resumed_from_phase.is_some() {
            let _ = writeln!(
                out,
                "  resilience: recoveries={} resumed_from_phase={}",
                r.recoveries,
                r.resumed_from_phase
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        // Did the watchdog or an injected fault do anything at all?
        let t = &r.traffic;
        let hung = r.health.hung_events.len() as u64;
        let events = [
            t.fault_stalls,
            t.wd_timeouts,
            t.wd_retries,
            t.wd_stragglers,
            hung,
        ];
        if events.iter().any(|&n| n > 0) {
            let _ = writeln!(
                out,
                "  health: fault_stalls={} wd_timeouts={} wd_retries={} wd_stragglers={} hung_events={hung}",
                t.fault_stalls, t.wd_timeouts, t.wd_retries, t.wd_stragglers,
            );
        }
        if let Some(mem) = memory_line(r) {
            let _ = writeln!(out, "  {mem}");
        }
        if let Some(line) = imbalance_line(r) {
            let _ = writeln!(out, "  {line}");
        }
        if !entry.telemetry.is_empty() {
            out.push_str(&convergence_table(&entry.telemetry));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Deltas for one label present in both artifacts.
#[derive(Debug, Clone)]
pub struct RunDelta {
    pub label: String,
    pub wall_a: f64,
    pub wall_b: f64,
    pub bytes_a: u64,
    pub bytes_b: u64,
    pub modularity_a: f64,
    pub modularity_b: f64,
    pub iters_a: u64,
    pub iters_b: u64,
}

/// The full diff of two artifacts.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub matched: Vec<RunDelta>,
    /// Labels only in the first (baseline) artifact.
    pub only_a: Vec<String>,
    /// Labels only in the second artifact.
    pub only_b: Vec<String>,
}

impl DiffReport {
    /// Deterministic human rendering (byte-identical across
    /// invocations on the same inputs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diff: {} matched, {} only-baseline, {} only-current",
            self.matched.len(),
            self.only_a.len(),
            self.only_b.len()
        );
        let _ = writeln!(
            out,
            "{:<28} {:>16} {:>20} {:>20} {:>12}",
            "label", "wall ms", "bytes", "modularity", "iters"
        );
        for d in &self.matched {
            let _ = writeln!(
                out,
                "{:<28} {:>7.1}→{:<8.1} {:>9}→{:<10} {:>9.6}→{:<10.6} {:>5}→{:<6}",
                d.label,
                d.wall_a * 1000.0,
                d.wall_b * 1000.0,
                d.bytes_a,
                d.bytes_b,
                d.modularity_a,
                d.modularity_b,
                d.iters_a,
                d.iters_b,
            );
        }
        for l in &self.only_a {
            let _ = writeln!(out, "only in baseline: {l}");
        }
        for l in &self.only_b {
            let _ = writeln!(out, "only in current:  {l}");
        }
        out
    }
}

fn by_label(a: &RunArtifact) -> BTreeMap<String, RunEntry> {
    // First entry wins on duplicate labels.
    let mut map = BTreeMap::new();
    for e in &a.runs {
        map.entry(e.label.clone()).or_insert_with(|| e.clone());
    }
    map
}

/// Diff `current` against `baseline`, matching runs by label.
pub fn diff(baseline: &RunArtifact, current: &RunArtifact) -> DiffReport {
    let a = by_label(baseline);
    let b = by_label(current);
    let mut report = DiffReport::default();
    for (label, ea) in &a {
        let Some(eb) = b.get(label) else {
            report.only_a.push(label.clone());
            continue;
        };
        let (ra, rb) = (&ea.report, &eb.report);
        report.matched.push(RunDelta {
            label: label.clone(),
            wall_a: ra.wall_seconds,
            wall_b: rb.wall_seconds,
            bytes_a: ra.traffic.total_bytes(),
            bytes_b: rb.traffic.total_bytes(),
            modularity_a: ra.modularity,
            modularity_b: rb.modularity,
            iters_a: ra.iterations,
            iters_b: rb.iterations,
        });
    }
    for label in b.keys() {
        if !a.contains_key(label) {
            report.only_b.push(label.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_obs::{RunReport, StatsSnapshot};

    fn entry(label: &str, wall: f64, bytes: u64, q: f64, iters: u64) -> RunEntry {
        RunEntry {
            label: label.into(),
            report: RunReport {
                graph: label.split('/').next().unwrap_or("g").into(),
                ranks: 2,
                variant: "delta".into(),
                modularity: q,
                iterations: iters,
                wall_seconds: wall,
                traffic: StatsSnapshot {
                    p2p_bytes: bytes,
                    ..Default::default()
                },
                ..Default::default()
            },
            telemetry: Vec::new(),
        }
    }

    fn artifact(entries: Vec<RunEntry>) -> RunArtifact {
        RunArtifact {
            name: "test".into(),
            description: String::new(),
            runs: entries,
        }
    }

    #[test]
    fn diff_render_is_deterministic() {
        let base = artifact(vec![
            entry("g/p2/delta", 0.2, 10_000, 0.8, 12),
            entry("g/p4/full", 0.1, 20_000, 0.81, 14),
        ]);
        let cur = artifact(vec![entry("g/p2/delta", 0.5, 9_000, 0.8, 12)]);
        let r1 = diff(&base, &cur).render();
        let r2 = diff(&base, &cur).render();
        assert_eq!(r1, r2, "diff rendering must be byte-identical");
        assert!(r1.contains("only in baseline: g/p4/full"));
        // A 2.5x wall and a byte drop are tabulated, not judged.
        assert!(r1.contains("200.0→500.0"), "{r1}");
        assert!(r1.contains("10000→9000"), "{r1}");
        assert!(!r1.contains("REGRESSION"), "{r1}");
    }

    #[test]
    fn show_renders_memory_line_from_gauges() {
        use louvain_obs::MetricsRegistry;
        let mut e = entry("g/p2/delta", 0.2, 10_000, 0.8, 12);
        e.report.edges = 1_000;
        let reg = MetricsRegistry::default();
        reg.gauge_set("mem.csr_bytes", 48_000.0);
        reg.gauge_set("mem.mapped_bytes", 16_000.0);
        reg.gauge_set("mem.peak_rss_bytes", 8.0 * 1024.0 * 1024.0);
        e.report.metrics = reg.snapshot();
        let text = show(&artifact(vec![e]));
        assert!(
            text.contains("memory: csr=48000 B  mapped=16000 B"),
            "{text}"
        );
        assert!(text.contains("bytes/edge=64.0"), "{text}");
        assert!(text.contains("peak_rss=8.0 MiB"), "{text}");

        // Artifacts without the gauges (pre-PR7) render no memory line.
        let plain = show(&artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 12)]));
        assert!(!plain.contains("memory:"), "{plain}");
    }

    #[test]
    fn show_prints_exact_rank_imbalance() {
        let mut e = entry("g/p3/delta", 0.2, 10_000, 0.8, 12);
        e.report.per_rank_traffic = [700, 100, 4_000_000]
            .map(|b| StatsSnapshot {
                p2p_bytes: b,
                ..Default::default()
            })
            .to_vec();
        let text = show(&artifact(vec![e]));
        assert!(
            text.contains("rank imbalance (total bytes): min=100 median=700 max=4000000"),
            "{text}"
        );
        // No per-rank table, no line.
        let plain = show(&artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 12)]));
        assert!(!plain.contains("rank imbalance"), "{plain}");
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(sparkline(&[0.3, 0.3]), "▄▄");
    }

    #[test]
    fn show_includes_convergence_table_when_traced() {
        let mut e = entry("g/p2/delta", 0.2, 10_000, 0.8, 2);
        e.telemetry = vec![
            TelemetryRow {
                phase: 0,
                iteration: 0,
                modularity: 0.4,
                delta_q: 0.0,
                moves: 100,
                active: 200,
                vertices: 200,
                communities: 150,
                community_sizes: Default::default(),
                ghost_bytes_per_rank: vec![64, 32],
            },
            TelemetryRow {
                phase: 0,
                iteration: 1,
                modularity: 0.6,
                delta_q: 0.2,
                moves: 10,
                active: 50,
                vertices: 200,
                communities: 60,
                community_sizes: Default::default(),
                ghost_bytes_per_rank: vec![8, 8],
            },
        ];
        let text = show(&artifact(vec![e]));
        assert!(text.contains("convergence: ▁█"));
        assert!(text.contains("25.0%"), "{text}");
        assert!(text.contains("96"), "ghost byte total:\n{text}");
    }
}
