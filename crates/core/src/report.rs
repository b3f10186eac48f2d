//! Build a [`louvain_obs::RunReport`] from a finished distributed run.
//!
//! The report glues together two independent data sources:
//!
//! * the communication counters every rank carries in its
//!   [`louvain_comm::StatsSnapshot`] (always on, no tracing required), and
//! * the optional span/metric trace harvested by the
//!   [`louvain_obs::Collector`] when tracing was enabled for the run.
//!
//! Per-step byte and message totals in the report are copied verbatim
//! from the merged snapshot, so they match `louvain_comm::stats` exactly
//! — `tests/observability.rs` asserts this invariant across rank counts.

use louvain_comm::CommStep;
use louvain_obs::{
    ArgValue, EventKind, HealthTotals, HungEvent, MessageEdge, ModeledBreakdown, PhaseProfileRow,
    RankHealth, RankTotals, RunReport, StepTotal, TraceData, TraceEvent,
};

use crate::api::DistOutcome;
use crate::model::comm_seconds;

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

fn arg_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Str(s) => Some(*s),
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
/// nested span leaks past its parent's edge).
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
            row.wait_ns += wait.min(comm_wall);
            row.transfer_ns += comm_wall.saturating_sub(wait);
            row.rebuild_ns += rebuild_ns;
            row.compute_ns += dur_ns.saturating_sub(comm_wall + rebuild_ns);
        }
    }
    rows.into_values().collect()
}

/// Matched cross-rank message edges: every `msg_send` instant paired
/// with the `msg_recv` recorded by the destination rank. The Lamport
/// stamp is unique per (sender, attempt), so `(src, lamport, attempt)`
/// is the join key; sends whose delivery was never observed (e.g. the
/// receiver crashed first) are dropped.
fn build_message_edges(trace: &TraceData) -> Vec<MessageEdge> {
    let mut recvs: std::collections::BTreeMap<(u64, u64, u32), u64> =
        std::collections::BTreeMap::new();
    for rt in &trace.ranks {
        for ev in &rt.events {
            if ev.name != "msg_recv" {
                continue;
            }
            if let (Some(src), Some(lamport)) = (arg_u64(ev, "src"), arg_u64(ev, "lamport")) {
                recvs.insert((src, lamport, ev.attempt), ev.ts_ns);
            }
        }
    }
    let mut edges = Vec::new();
    for rt in &trace.ranks {
        for ev in &rt.events {
            if ev.name != "msg_send" {
                continue;
            }
            let (Some(src), Some(dst), Some(lamport)) = (
                arg_u64(ev, "src"),
                arg_u64(ev, "dst"),
                arg_u64(ev, "lamport"),
            ) else {
                continue;
            };
            let Some(&recv_ts) = recvs.get(&(src, lamport, ev.attempt)) else {
                continue;
            };
            edges.push(MessageEdge {
                src: src as usize,
                dst: dst as usize,
                step: arg_str(ev, "step").unwrap_or("other").to_string(),
                lamport,
                bytes: arg_u64(ev, "bytes").unwrap_or(0),
                send_ts_ns: ev.ts_ns,
                recv_ts_ns: recv_ts,
            });
        }
    }
    edges.sort_by_key(|e| (e.src, e.lamport));
    edges
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
/// Works with or without tracing: the communication section is always
/// populated from the per-rank [`louvain_comm::StatsSnapshot`]s; the
/// `metrics` and `spans` sections are filled only when the outcome
/// carries a harvested trace.
pub fn build_run_report(outcome: &DistOutcome, meta: &ReportMeta) -> RunReport {
    let traffic = &outcome.traffic;
    let ranks = outcome.per_rank_traffic.len();

    let step_totals: Vec<StepTotal> = CommStep::ALL
        .iter()
        .map(|&step| StepTotal {
            step: step.label().to_string(),
            bytes: traffic.step_bytes_for(step),
            messages: traffic.step_messages_for(step),
            wait_ns: traffic.step_wait_nanos_for(step),
        })
        .collect();

    let per_rank: Vec<RankTotals> = outcome
        .per_rank_traffic
        .iter()
        .enumerate()
        .map(|(rank, s)| {
            let (events_recorded, events_dropped) = outcome
                .trace
                .as_ref()
                .and_then(|t| t.ranks.get(rank))
                .map(|r| (r.events.len() as u64, r.dropped))
                .unwrap_or((0, 0));
            RankTotals {
                rank,
                p2p_messages: s.p2p_messages,
                p2p_bytes: s.p2p_bytes,
                collective_calls: s.collective_calls,
                collective_bytes: s.collective_bytes,
                modeled_comm_seconds: comm_seconds(s, ranks),
                step_messages: s.step_messages.to_vec(),
                step_bytes: s.step_bytes.to_vec(),
                wait_ns: s.wait_nanos_total(),
                events_recorded,
                events_dropped,
            }
        })
        .collect();

    // Slowest-rank attribution: the rank with the largest modeled
    // communication time carried the job's critical path.
    let slowest = per_rank
        .iter()
        .max_by(|a, b| a.modeled_comm_seconds.total_cmp(&b.modeled_comm_seconds))
        .map(|r| (r.rank, r.modeled_comm_seconds));
    let health = HealthTotals {
        stalls: traffic.fault_stalls,
        bursts: traffic.fault_bursts,
        corruptions: traffic.fault_corruptions,
        checksum_rejects: traffic.checksum_rejects,
        wd_timeouts: traffic.wd_timeouts,
        wd_retries: traffic.wd_retries,
        wd_stragglers: traffic.wd_stragglers,
        backoff_seconds: traffic.backoff_nanos as f64 * 1e-9,
        slowest_rank: slowest.map(|(rank, _)| rank),
        slowest_rank_seconds: slowest.map_or(0.0, |(_, secs)| secs),
        per_rank: outcome
            .per_rank_traffic
            .iter()
            .enumerate()
            .map(|(rank, s)| RankHealth {
                rank,
                retries: s.fault_retries,
                wd_timeouts: s.wd_timeouts,
                wd_retries: s.wd_retries,
                wd_stragglers: s.wd_stragglers,
                backoff_seconds: s.backoff_nanos as f64 * 1e-9,
                checksum_rejects: s.checksum_rejects,
                step_retries: s.step_retries.to_vec(),
            })
            .collect(),
        hung_events: outcome
            .hung_events
            .iter()
            .map(|h| HungEvent {
                rank: h.rank,
                detector: h.detector,
                phase: h.phase,
                op: h.op,
                step: h.step.label().to_string(),
                waited_ms: h.waited_ms,
            })
            .collect(),
    };

    let (compute, comm, reduce, rebuild) = outcome.modeled_breakdown();

    let (mut metrics, spans, phase_profile, messages) = match &outcome.trace {
        Some(t) => (
            t.merged_metrics(),
            t.span_rollup(),
            build_phase_profile(t),
            build_message_edges(t),
        ),
        None => (Default::default(), Vec::new(), Vec::new(), Vec::new()),
    };

    // Per-rank imbalance row: one observation per rank of its total
    // traffic, so the artifact's p50/p95/p99 expose load skew without
    // re-deriving it from the per-rank table.
    if !outcome.per_rank_traffic.is_empty() {
        let mut rank_bytes = louvain_obs::Histogram::default();
        for s in &outcome.per_rank_traffic {
            rank_bytes.observe(s.p2p_bytes + s.collective_bytes);
        }
        metrics
            .histograms
            .insert("rank.total_bytes".into(), rank_bytes);
    }

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
        faults: {
            let (drops, delays, duplicates, truncations, retries) = (
                traffic.fault_drops,
                traffic.fault_delays,
                traffic.fault_duplicates,
                traffic.fault_truncations,
                traffic.fault_retries,
            );
            louvain_obs::FaultTotals {
                drops,
                delays,
                duplicates,
                truncations,
                retries,
            }
        },
        health,
        modeled: ModeledBreakdown {
            compute,
            comm,
            reduce,
            rebuild,
        },
        step_totals,
        total_bytes: traffic.p2p_bytes + traffic.collective_bytes,
        total_messages: traffic.p2p_messages + traffic.collective_calls,
        per_rank,
        metrics,
        spans,
        phase_profile,
        messages,
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
        let total_from_steps: u64 = report.step_totals.iter().map(|s| s.bytes).sum();
        assert_eq!(total_from_steps, out.traffic.step_bytes.iter().sum::<u64>());
        assert_eq!(
            report.total_bytes,
            out.traffic.p2p_bytes + out.traffic.collective_bytes
        );
        // Conservation: per-step decomposition covers all traffic.
        assert_eq!(total_from_steps, report.total_bytes);
        // Per-rank snapshots sum to the merged totals.
        let per_rank_bytes: u64 = report
            .per_rank
            .iter()
            .map(|r| r.p2p_bytes + r.collective_bytes)
            .sum();
        assert_eq!(per_rank_bytes, report.total_bytes);

        // Round-trips through JSON without loss.
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back.total_bytes, report.total_bytes);
        assert_eq!(back.step_totals, report.step_totals);
        assert_eq!(back.per_rank, report.per_rank);

        // The imbalance histogram has one observation per rank and its
        // percentiles are monotone.
        let h = &report.metrics.histograms["rank.total_bytes"];
        assert_eq!(h.count, 3);
        let (p50, p95, p99) = h.quantile_summary();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 > 0);
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

    // Lenient-parse coverage: reports written by older builds (or by
    // hand) must load as long as the core fields are intact.

    #[test]
    fn report_without_health_section_parses() {
        let text = sample_report_text();
        let mut doc = louvain_obs::Json::parse(&text).unwrap();
        if let louvain_obs::Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "health");
        }
        let back = RunReport::from_json(&doc).expect("missing health is lenient");
        assert_eq!(back.health, HealthTotals::default());
        assert!(!back.health.any());
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

    #[test]
    fn legacy_health_counter_sets_parse_with_zero_defaults() {
        // Reports written before checkpoint format v2 carried a health
        // section without the wd_* ladder counters; those fields must
        // default to zero instead of failing the parse.
        let text = sample_report_text();
        let mut doc = louvain_obs::Json::parse(&text).unwrap();
        if let louvain_obs::Json::Obj(members) = &mut doc {
            for (key, value) in members.iter_mut() {
                if key != "health" {
                    continue;
                }
                let louvain_obs::Json::Obj(health) = value else {
                    continue;
                };
                health.retain(|(k, _)| !k.starts_with("wd_") && k != "backoff_seconds");
                for (k, v) in health.iter_mut() {
                    if k != "per_rank" {
                        continue;
                    }
                    let louvain_obs::Json::Arr(rows) = v else {
                        continue;
                    };
                    for row in rows {
                        if let louvain_obs::Json::Obj(fields) = row {
                            fields.retain(|(k, _)| !k.starts_with("wd_") && k != "step_retries");
                        }
                    }
                }
            }
        }
        let back = RunReport::from_json(&doc).expect("pre-v2 counter set is lenient");
        assert_eq!(back.health.wd_timeouts, 0);
        assert_eq!(back.health.backoff_seconds, 0.0);
        assert!(!back.health.per_rank.is_empty());
        assert!(back.health.per_rank[0].step_retries.is_empty());
    }
}
