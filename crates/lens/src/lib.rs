//! # louvain-lens — run-artifact analytics
//!
//! Turns [`RunArtifact`]s into human summaries, deterministic diffs, and
//! a regression verdict:
//!
//! - [`show`]: per-run summary plus a sparkline convergence table when
//!   the run carries telemetry.
//! - [`diff`]: match runs by label across two artifacts and compute
//!   wall / bytes / modularity / iterations-to-converge deltas, with
//!   noise thresholds separating signal (deterministic byte and
//!   modularity counts) from jitter (wall time).
//! - [`gate`]: the pass / fail verdict over [`diff`], for two artifacts
//!   of the caller's own.
//! - [`crit`]: cross-rank critical-path analysis over the causal
//!   profiling sections (phase profiles + Lamport-matched message
//!   edges) — per-phase wall attribution, straggler blame, and a
//!   wait-fraction regression gate (see [`crit`]).
//!
//! Every rendering path is deterministic — fixed float precision, label
//! ordering via `BTreeMap`, no clocks — so diffing the same two
//! artifacts twice is byte-identical (asserted in tests).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use louvain_obs::{RunArtifact, RunEntry, TelemetryRow};

mod crit;
pub use crit::{crit, ChainStep, CritReport, RunCrit, DEFAULT_WAIT_TOL};
mod ops;
pub use ops::{parse_event_log, render_event, render_tail, render_top, PromMetrics};

/// Noise thresholds separating regression signal from run-to-run
/// jitter. Wall time on a shared CI box is noisy, so it gets both a
/// generous relative tolerance and an absolute floor; byte counts and
/// modularity are deterministic for a fixed seed, so their tolerances
/// only allow for intentional drift.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Relative wall-time growth allowed (0.75 = fail above 1.75x).
    pub wall_tol: f64,
    /// Absolute wall-time growth (seconds) below which wall deltas are
    /// never flagged, whatever the ratio.
    pub wall_floor_seconds: f64,
    /// Relative total-byte growth allowed.
    pub bytes_tol: f64,
    /// Absolute modularity drop allowed.
    pub modularity_drop: f64,
    /// Relative growth allowed in iterations-to-converge (plus a fixed
    /// slack of 2 iterations).
    pub iters_tol: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            wall_tol: 0.75,
            wall_floor_seconds: 0.005,
            bytes_tol: 0.10,
            modularity_drop: 0.01,
            iters_tol: 0.50,
        }
    }
}

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
/// run. Heap CSR bytes and mmap-resident bytes are summed across ranks
/// (`GaugeStat::sum` — each rank sets both once per run: its starting
/// CSR, its slab load); peak RSS is process-wide, so ranks all observe
/// the same value and `max` is the honest aggregate.
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
        // Did the watchdog or the fault protocol do anything at all?
        let t = &r.traffic;
        let hung = r.health.hung_events.len() as u64;
        let events = [
            t.fault_stalls,
            t.fault_bursts,
            t.fault_corruptions,
            t.checksum_rejects,
            t.wd_timeouts,
            t.wd_retries,
            t.wd_stragglers,
            hung,
        ];
        if events.iter().any(|&n| n > 0) {
            let _ = writeln!(
                out,
                "  health: wd_timeouts={} wd_stragglers={} checksum_rejects={} hung_events={hung}",
                t.wd_timeouts, t.wd_stragglers, t.checksum_rejects,
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
    /// Threshold-crossing regressions for this run (empty = within
    /// noise).
    pub regressions: Vec<String>,
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
    /// All regressions, prefixed with their run label.
    pub fn regressions(&self) -> Vec<String> {
        self.matched
            .iter()
            .flat_map(|d| d.regressions.iter().map(|r| format!("{}: {r}", d.label)))
            .collect()
    }

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
            for r in &d.regressions {
                let _ = writeln!(out, "  REGRESSION: {r}");
            }
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
pub fn diff(baseline: &RunArtifact, current: &RunArtifact, t: &Thresholds) -> DiffReport {
    let a = by_label(baseline);
    let b = by_label(current);
    let mut report = DiffReport::default();
    for (label, ea) in &a {
        let Some(eb) = b.get(label) else {
            report.only_a.push(label.clone());
            continue;
        };
        let (ra, rb) = (&ea.report, &eb.report);
        let mut regressions = Vec::new();
        let wall_grew = rb.wall_seconds - ra.wall_seconds;
        if rb.wall_seconds > ra.wall_seconds * (1.0 + t.wall_tol)
            && wall_grew > t.wall_floor_seconds
        {
            regressions.push(format!(
                "wall {:.1}ms → {:.1}ms exceeds {:.0}% tolerance",
                ra.wall_seconds * 1000.0,
                rb.wall_seconds * 1000.0,
                t.wall_tol * 100.0
            ));
        }
        let (bytes_a, bytes_b) = (ra.traffic.total_bytes(), rb.traffic.total_bytes());
        if bytes_a > 0 && bytes_b as f64 > bytes_a as f64 * (1.0 + t.bytes_tol) {
            regressions.push(format!(
                "total bytes {bytes_a} → {bytes_b} exceeds {:.0}% tolerance",
                t.bytes_tol * 100.0
            ));
        }
        if rb.modularity < ra.modularity - t.modularity_drop {
            regressions.push(format!(
                "modularity {:.6} → {:.6} drops more than {:.3}",
                ra.modularity, rb.modularity, t.modularity_drop
            ));
        }
        if ra.iterations > 0
            && rb.iterations as f64 > ra.iterations as f64 * (1.0 + t.iters_tol) + 2.0
        {
            regressions.push(format!(
                "iterations to converge {} → {} exceeds {:.0}% tolerance",
                ra.iterations,
                rb.iterations,
                t.iters_tol * 100.0
            ));
        }
        report.matched.push(RunDelta {
            label: label.clone(),
            wall_a: ra.wall_seconds,
            wall_b: rb.wall_seconds,
            bytes_a,
            bytes_b,
            modularity_a: ra.modularity,
            modularity_b: rb.modularity,
            iters_a: ra.iterations,
            iters_b: rb.iterations,
            regressions,
        });
    }
    for label in b.keys() {
        if !a.contains_key(label) {
            report.only_b.push(label.clone());
        }
    }
    report
}

// ---------------------------------------------------------------------------
// gate
// ---------------------------------------------------------------------------

/// CI verdict: every baseline run must match within thresholds, and no
/// baseline run may silently disappear from the current artifact.
#[derive(Debug, Clone)]
pub struct GateResult {
    pub checked: usize,
    pub failures: Vec<String>,
}

impl GateResult {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            let _ = writeln!(out, "gate: PASS ({} runs within thresholds)", self.checked);
        } else {
            let _ = writeln!(
                out,
                "gate: FAIL ({} regressions across {} runs)",
                self.failures.len(),
                self.checked
            );
            for f in &self.failures {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }
}

/// Gate `current` against `baseline`: regressions and missing baseline
/// runs fail; runs only in `current` are allowed (new coverage).
pub fn gate(baseline: &RunArtifact, current: &RunArtifact, t: &Thresholds) -> GateResult {
    let d = diff(baseline, current, t);
    let mut failures = d.regressions();
    for l in &d.only_a {
        failures.push(format!("{l}: present in baseline but missing from current"));
    }
    GateResult {
        checked: d.matched.len(),
        failures,
    }
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
    fn identical_artifacts_pass_the_gate() {
        let a = artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 12)]);
        let g = gate(&a, &a, &Thresholds::default());
        assert!(g.passed(), "{:?}", g.failures);
        assert_eq!(g.checked, 1);
    }

    #[test]
    fn two_x_wall_regression_fails_the_gate() {
        let base = artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 12)]);
        let cur = artifact(vec![entry("g/p2/delta", 0.4, 10_000, 0.8, 12)]);
        let g = gate(&base, &cur, &Thresholds::default());
        assert!(!g.passed());
        assert!(g.failures[0].contains("wall"), "{:?}", g.failures);
    }

    #[test]
    fn wall_floor_suppresses_tiny_absolute_jitter() {
        // 3ms → 7ms is >2x but under the absolute floor: noise, not signal.
        let base = artifact(vec![entry("g/p2/delta", 0.003, 10_000, 0.8, 12)]);
        let cur = artifact(vec![entry("g/p2/delta", 0.007, 10_000, 0.8, 12)]);
        assert!(gate(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn byte_modularity_and_iteration_regressions_fail() {
        let base = artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 12)]);
        let bytes = artifact(vec![entry("g/p2/delta", 0.2, 12_000, 0.8, 12)]);
        let quality = artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.77, 12)]);
        let iters = artifact(vec![entry("g/p2/delta", 0.2, 10_000, 0.8, 25)]);
        let t = Thresholds::default();
        assert!(gate(&base, &bytes, &t).failures[0].contains("bytes"));
        assert!(gate(&base, &quality, &t).failures[0].contains("modularity"));
        assert!(gate(&base, &iters, &t).failures[0].contains("iterations"));
    }

    #[test]
    fn missing_baseline_run_fails_new_runs_allowed() {
        let base = artifact(vec![
            entry("g/p2/delta", 0.2, 10_000, 0.8, 12),
            entry("g/p4/delta", 0.2, 10_000, 0.8, 12),
        ]);
        let cur = artifact(vec![
            entry("g/p2/delta", 0.2, 10_000, 0.8, 12),
            entry("g/p8/delta", 0.2, 10_000, 0.8, 12),
        ]);
        let g = gate(&base, &cur, &Thresholds::default());
        assert_eq!(g.failures.len(), 1);
        assert!(g.failures[0].contains("missing from current"));
    }

    #[test]
    fn diff_render_is_deterministic() {
        let base = artifact(vec![
            entry("g/p2/delta", 0.2, 10_000, 0.8, 12),
            entry("g/p4/full", 0.1, 20_000, 0.81, 14),
        ]);
        let cur = artifact(vec![entry("g/p2/delta", 0.5, 9_000, 0.8, 12)]);
        let r1 = diff(&base, &cur, &Thresholds::default()).render();
        let r2 = diff(&base, &cur, &Thresholds::default()).render();
        assert_eq!(r1, r2, "diff rendering must be byte-identical");
        assert!(r1.contains("only in baseline: g/p4/full"));
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
