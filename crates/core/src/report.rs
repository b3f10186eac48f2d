//! Build a [`louvain_obs::RunReport`] from a finished distributed run.
//!
//! The report glues together two independent data sources:
//!
//! * the communication counters every rank carries in its
//!   [`louvain_comm::StatsSnapshot`] (always on, no tracing required), and
//! * the optional span/metric trace harvested by the
//!   [`louvain_obs::Collector`] when tracing was enabled for the run.
//!
//! The report carries the snapshots themselves (`traffic`,
//! `per_rank_traffic`), so there is nothing to keep in step with
//! `louvain_comm::stats`; what is computed here is what is not a
//! counter: the trace sections.

use louvain_comm::CommStep;
use louvain_obs::{
    ArgValue, EventKind, HealthTotals, PhaseProfileRow, RankTotals, RunReport, TraceData,
    TraceEvent,
};

use crate::api::DistOutcome;

fn arg_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            ArgValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
}

fn is_comm_step_span(ev: &TraceEvent) -> bool {
    ev.cat == "comm" && CommStep::ALL.iter().any(|s| s.label() == ev.name)
}

/// Per-(rank, phase) wall attribution derived from the trace: the
/// `phase` span is the window, comm-step spans inside it are wall spent
/// in communication (split into `wait` — the blocked sub-spans — and
/// `transfer`, the remainder), `rebuild` spans minus their nested comm
/// are graph reconstruction, and `compute` is the residual. The four
/// buckets sum to the window by construction (up to clamping when a
/// nested span leaks past its parent's edge). `end_ns` is the latest
/// phase span's end, which `lens crit` lines up across ranks.
fn build_phase_profile(trace: &TraceData) -> Vec<PhaseProfileRow> {
    let mut rows: std::collections::BTreeMap<(usize, u64), PhaseProfileRow> =
        std::collections::BTreeMap::new();
    for rt in &trace.ranks {
        for ev in &rt.events {
            let EventKind::Complete { dur_ns } = ev.kind else {
                continue;
            };
            if ev.name != "phase" {
                continue;
            }
            let Some(phase) = arg_u64(ev, "phase") else {
                continue;
            };
            let (start, end) = (ev.ts_ns, ev.ts_ns + dur_ns);
            let within =
                |e: &TraceEvent| e.attempt == ev.attempt && e.ts_ns >= start && e.ts_ns < end;
            let mut comm_wall = 0u64;
            let mut wait = 0u64;
            let mut rebuild_wall = 0u64;
            let mut rebuild_windows: Vec<(u64, u64)> = Vec::new();
            for e in rt.events.iter().filter(|e| within(e)) {
                if e.name == "rebuild" {
                    let d = e.dur_ns();
                    rebuild_wall += d;
                    rebuild_windows.push((e.ts_ns, e.ts_ns + d));
                }
            }
            let mut comm_in_rebuild = 0u64;
            for e in rt.events.iter().filter(|e| within(e)) {
                if e.name == "wait" && e.cat == "comm" {
                    wait += e.dur_ns();
                } else if is_comm_step_span(e) {
                    comm_wall += e.dur_ns();
                    if rebuild_windows
                        .iter()
                        .any(|&(s, t)| e.ts_ns >= s && e.ts_ns < t)
                    {
                        comm_in_rebuild += e.dur_ns();
                    }
                }
            }
            let rebuild_ns = rebuild_wall.saturating_sub(comm_in_rebuild);
            let row = rows.entry((rt.rank, phase)).or_insert(PhaseProfileRow {
                rank: rt.rank,
                phase,
                ..Default::default()
            });
            row.total_ns += dur_ns;
            row.end_ns = row.end_ns.max(end);
            row.wait_ns += wait.min(comm_wall);
            row.transfer_ns += comm_wall.saturating_sub(wait);
            row.rebuild_ns += rebuild_ns;
            row.compute_ns += dur_ns.saturating_sub(comm_wall + rebuild_ns);
        }
    }
    rows.into_values().collect()
}

/// Run identity that the [`DistOutcome`] itself does not know: what
/// graph was run, under which variant label, with how many software
/// threads per rank.
#[derive(Debug, Clone, Default)]
pub struct ReportMeta {
    /// Human-readable graph name (e.g. `"ssca2-8k"`).
    pub graph: String,
    /// Vertex count of the input graph.
    pub vertices: u64,
    /// Undirected edge count of the input graph.
    pub edges: u64,
    /// Variant label (e.g. `"baseline"`, `"etc-0.25"`).
    pub variant: String,
    /// Software threads used inside each rank's sweep.
    pub threads_per_rank: usize,
}

impl ReportMeta {
    pub fn new(graph: impl Into<String>, vertices: u64, edges: u64) -> Self {
        Self {
            graph: graph.into(),
            vertices,
            edges,
            variant: "baseline".to_string(),
            threads_per_rank: 1,
        }
    }

    pub fn variant(mut self, label: impl Into<String>) -> Self {
        self.variant = label.into();
        self
    }

    pub fn threads_per_rank(mut self, t: usize) -> Self {
        self.threads_per_rank = t;
        self
    }
}

/// Assemble the aggregated run report for `outcome`.
///
/// Works with or without tracing: the outcome's
/// [`louvain_comm::StatsSnapshot`]s are always there; the `metrics`,
/// `spans` and `phase_profile` sections are filled only when the
/// outcome carries a harvested trace.
pub fn build_run_report(outcome: &DistOutcome, meta: &ReportMeta) -> RunReport {
    let ranks = outcome.per_rank_traffic.len();
    let per_rank: Vec<RankTotals> = (0..ranks)
        .map(|rank| {
            let traced = outcome.trace.as_ref().and_then(|t| t.ranks.get(rank));
            RankTotals {
                rank,
                events_recorded: traced.map_or(0, |r| r.events.len() as u64),
                events_dropped: traced.map_or(0, |r| r.dropped),
            }
        })
        .collect();

    let (metrics, spans, phase_profile) = match &outcome.trace {
        Some(t) => (t.merged_metrics(), t.span_rollup(), build_phase_profile(t)),
        None => (Default::default(), Vec::new(), Vec::new()),
    };

    RunReport {
        graph: meta.graph.clone(),
        vertices: meta.vertices,
        edges: meta.edges,
        ranks,
        variant: meta.variant.clone(),
        threads_per_rank: meta.threads_per_rank,
        modularity: outcome.modularity,
        num_communities: outcome.num_communities as u64,
        phases: outcome.phases as u64,
        iterations: outcome.total_iterations as u64,
        wall_seconds: outcome.wall.as_secs_f64(),
        resumed_from_phase: outcome.resumed_from_phase,
        recoveries: outcome.recoveries,
        traffic: outcome.traffic,
        per_rank_traffic: outcome.per_rank_traffic.clone(),
        health: HealthTotals {
            hung_events: outcome.hung_events.clone(),
        },
        per_rank,
        metrics,
        spans,
        phase_profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistConfig;
    use louvain_graph::gen::{ssca2, Ssca2Params};

    #[test]
    fn report_step_totals_match_traffic_snapshot() {
        let gen = ssca2(Ssca2Params {
            n: 600,
            max_clique_size: 12,
            inter_clique_prob: 0.05,
            seed: 9,
        });
        let out = crate::api::run_distributed(&gen.graph, 3, &DistConfig::baseline());
        let meta = ReportMeta::new("ssca2-600", 600, gen.graph.num_edges() as u64);
        let report = build_run_report(&out, &meta);

        assert_eq!(report.ranks, 3);
        assert_eq!(report.per_rank.len(), 3);
        assert!(report.traffic.words().eq(out.traffic.words()));
        // Conservation: the per-step decomposition covers all traffic,
        // and the per-rank snapshots sum to the merged one.
        let total = report.traffic.total_bytes();
        assert_eq!(report.traffic.step_bytes.iter().sum::<u64>(), total);
        let mut summed = louvain_comm::StatsSnapshot::default();
        for s in &report.per_rank_traffic {
            summed.merge(s);
        }
        assert!(summed.words().eq(report.traffic.words()));
        assert!(report.health.hung_events.is_empty());

        // Round-trips through JSON without loss.
        let back = RunReport::from_json_str(&report.to_json_string()).unwrap();
        assert!(back.traffic.words().eq(report.traffic.words()));
        assert_eq!(back, report);

        // Untraced: nothing is recorded into the metrics section.
        assert!(report.metrics.is_empty());
    }

    fn sample_report_text() -> String {
        let gen = ssca2(Ssca2Params {
            n: 400,
            max_clique_size: 10,
            inter_clique_prob: 0.05,
            seed: 4,
        });
        let out = crate::api::run_distributed(&gen.graph, 2, &DistConfig::baseline());
        let meta = ReportMeta::new("ssca2-400", 400, gen.graph.num_edges() as u64);
        build_run_report(&out, &meta).to_json_string()
    }

    #[test]
    fn report_with_unknown_fields_parses() {
        let text = sample_report_text();
        let mut doc = louvain_obs::Json::parse(&text).unwrap();
        if let louvain_obs::Json::Obj(members) = &mut doc {
            members.push(("future_field".into(), louvain_obs::Json::Num(7.0)));
            members.push((
                "future_section".into(),
                louvain_obs::Json::Obj(vec![("x".into(), louvain_obs::Json::Bool(true))]),
            ));
        }
        let back = RunReport::from_json(&doc).expect("unknown fields are ignored");
        assert_eq!(back.graph, "ssca2-400");
    }

    #[test]
    fn truncated_report_json_is_an_error_not_a_panic() {
        let text = sample_report_text();
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 2] {
            assert!(
                RunReport::from_json_str(&text[..cut]).is_err(),
                "truncation at {cut} must fail cleanly"
            );
        }
    }
}
