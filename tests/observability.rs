//! End-to-end tests for the rank-aware tracing subsystem: cross-rank
//! counter conservation, RunReport/comm-stats agreement, and
//! Chrome-trace validity.
//!
//! Tracing is controlled by a process-global flag, and the cargo test
//! harness runs tests of one binary concurrently — so every assertion
//! that needs the flag ON lives in the single test function
//! [`tracing_enabled_end_to_end`]. The other tests run with tracing in
//! its default (off) state and only touch always-on machinery.

use std::sync::Mutex;

use distributed_louvain::comm::{CommStep, StatsSnapshot};
use distributed_louvain::dist::{build_run_report, run_distributed, DistConfig, ReportMeta};
use distributed_louvain::graph::gen::{lfr, LfrParams};
use distributed_louvain::obs;

/// Serializes the tests that read or write the global tracing flag.
static TRACE_FLAG: Mutex<()> = Mutex::new(());

/// The report's snapshots are the `louvain_comm::stats` ones, word for
/// word, and reconcile with each other for every rank count
/// (acceptance criterion).
#[test]
fn report_step_bytes_match_comm_snapshots_across_rank_counts() {
    let g = lfr(LfrParams::small(1_200, 17)).graph;
    for p in [1usize, 2, 8] {
        let out = run_distributed(&g, p, &DistConfig::baseline());
        let meta = ReportMeta::new("lfr-1200", 1_200, g.num_edges() as u64);
        let report = build_run_report(&out, &meta);

        assert_eq!(report.ranks, p);
        assert_eq!(report.per_rank.len(), p);
        assert_eq!(report.per_rank_traffic.len(), p);

        // The merged snapshot is the outcome's, wait column included.
        assert!(report.traffic.words().eq(out.traffic.words()), "p={p}");
        for (mine, theirs) in report.per_rank_traffic.iter().zip(&out.per_rank_traffic) {
            assert!(mine.words().eq(theirs.words()), "p={p}");
        }

        // Conservation: the per-step decomposition covers all traffic,
        // and the merged snapshot equals the sum of the per-rank ones,
        // step by step.
        let step_sum: u64 = report.traffic.step_bytes.iter().sum();
        assert_eq!(step_sum, report.traffic.total_bytes(), "p={p}");
        for step in CommStep::ALL {
            let per_rank_sum = |of: fn(&StatsSnapshot, CommStep) -> u64| -> u64 {
                report.per_rank_traffic.iter().map(|r| of(r, step)).sum()
            };
            assert_eq!(
                per_rank_sum(StatsSnapshot::step_bytes_for),
                report.traffic.step_bytes_for(step),
                "p={p} step={}",
                step.label()
            );
            assert_eq!(
                per_rank_sum(StatsSnapshot::step_messages_for),
                report.traffic.step_messages_for(step),
                "p={p} step={}",
                step.label()
            );
        }
    }
}

/// Identical work on identical input: the byte counters (unlike wall
/// times) are fully deterministic, so two runs must agree.
#[test]
fn step_byte_totals_are_deterministic() {
    let g = lfr(LfrParams::small(900, 23)).graph;
    let a = run_distributed(&g, 4, &DistConfig::baseline());
    let b = run_distributed(&g, 4, &DistConfig::baseline());
    assert_eq!(a.traffic.step_bytes, b.traffic.step_bytes);
    assert_eq!(a.traffic.step_messages, b.traffic.step_messages);
    assert_eq!(a.traffic.p2p_bytes, b.traffic.p2p_bytes);
    assert_eq!(a.traffic.collective_bytes, b.traffic.collective_bytes);
}

/// Everything that needs the global tracing flag ON, in one test.
#[test]
fn tracing_enabled_end_to_end() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(1_000, 11)).graph;
    obs::set_enabled(true);
    let out = run_distributed(&g, 3, &DistConfig::baseline());
    obs::set_enabled(false);

    // --- Trace harvested, one rank track each, events present.
    let trace = out.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.ranks.len(), 3);
    for r in &trace.ranks {
        assert!(!r.events.is_empty(), "rank {} recorded no events", r.rank);
    }
    assert!(
        trace.total_dropped() == 0,
        "events were dropped in a small run"
    );

    // Expected span names from the instrumented phase loop.
    let rollup = trace.span_rollup();
    for expected in ["phase", "iteration", "sweep", "ghost_refresh", "reduction"] {
        assert!(
            rollup.iter().any(|s| s.name == expected),
            "span {expected:?} missing from rollup {:?}",
            rollup.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
    let ghost = rollup.iter().find(|s| s.name == "ghost_refresh").unwrap();
    assert!(ghost.count > 0 && ghost.wall_seconds >= 0.0);

    // --- Sweep work, from the iteration traces the run already holds:
    // `moves` is global, `local_edges` is the rank's own.
    let traces = |rank: usize| {
        out.per_rank_stats[rank]
            .iter()
            .flat_map(|ph| &ph.iteration_traces)
    };
    assert!(traces(0).map(|t| t.moves).sum::<u64>() > 0);
    for rank in 0..3 {
        assert!(traces(rank).map(|t| t.local_edges).sum::<u64>() > 0);
    }

    // --- Chrome trace: valid JSON, pid per rank, globally monotonic ts.
    let text = obs::chrome_trace_json(trace);
    let doc = obs::Json::parse(&text).expect("exporter must emit valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let mut pids = std::collections::BTreeSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut metadata = 0usize;
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        if ph == "M" {
            metadata += 1;
            continue;
        }
        pids.insert(ev.get("pid").unwrap().as_u64().unwrap());
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        assert!(ts >= last_ts, "timestamps must be globally monotonic");
        last_ts = ts;
        assert!(ev.get("dur").is_none() || ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }
    assert_eq!(pids.len(), 3, "one Chrome process track per rank");
    assert!(metadata >= 3, "process_name metadata per rank");
    assert_eq!(
        events.len() - metadata,
        trace.total_events(),
        "every recorded event is exported"
    );

    // --- RunReport with trace sections populated + JSON round-trip.
    let meta = ReportMeta::new("lfr-1000", 1_000, g.num_edges() as u64).variant("baseline");
    let report = build_run_report(&out, &meta);
    assert!(!report.spans.is_empty());
    let events_total: u64 = report.per_rank.iter().map(|r| r.events_recorded).sum();
    assert_eq!(events_total, trace.total_events() as u64);
    let back = obs::RunReport::from_json_str(&report.to_json_string()).unwrap();
    assert!(back.traffic.words().eq(report.traffic.words()));
    assert_eq!(back.per_rank_traffic, report.per_rank_traffic);
    assert_eq!(back.per_rank, report.per_rank);
    assert_eq!(back.spans.len(), report.spans.len());
}

/// Telemetry and the metric-name registry, end to end: a traced run
/// must record only registered metric names, and its merged telemetry
/// must be a dense, ordered, internally consistent convergence table.
#[test]
fn telemetry_rows_and_metric_names_are_consistent() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(1_000, 11)).graph;
    obs::set_enabled(true);
    let out = run_distributed(&g, 3, &DistConfig::baseline());
    obs::set_enabled(false);
    let trace = out.trace.as_ref().expect("tracing was enabled");

    // Counter-name drift gate: every name recorded anywhere in the run
    // must appear in the documented registry (obs::METRIC_REGISTRY).
    let merged = trace.merged_metrics();
    assert_eq!(
        obs::unregistered_metrics(&merged),
        Vec::<String>::new(),
        "recorded metric names must be declared in obs::METRIC_REGISTRY"
    );

    let rows = trace.merged_telemetry();
    assert!(!rows.is_empty(), "a traced run must produce telemetry");
    let mut prev: Option<(u64, u64)> = None;
    let mut prev_q: Option<f64> = None;
    for r in &rows {
        // Strictly ordered by (phase, iteration) with no duplicates.
        if let Some(p) = prev {
            assert!((r.phase, r.iteration) > p, "rows out of order at {p:?}");
            // delta_q is exactly the step from the previous iteration
            // of the same phase, and 0.0 on each phase's first row.
            if p.0 == r.phase {
                assert_eq!(
                    r.delta_q.to_bits(),
                    (r.modularity - prev_q.unwrap()).to_bits()
                );
            } else {
                assert_eq!(r.delta_q, 0.0);
            }
        }
        prev = Some((r.phase, r.iteration));
        prev_q = Some(r.modularity);
        // Per-rank ghost bytes are dense (one slot per rank).
        assert_eq!(r.ghost_bytes_per_rank.len(), 3);
        assert!(r.active <= r.vertices);
        assert!(r.communities <= r.vertices);
        // The size histogram observes each non-empty community once.
        assert_eq!(r.community_sizes.count, r.communities);
        assert_eq!(r.community_sizes.sum, r.vertices);
    }
    // Every vertex is active entering a phase; the run ends converged.
    assert_eq!(rows[0].active, rows[0].vertices);
    let last = rows.last().unwrap();
    assert_eq!(last.moves, 0, "the final iteration must be a fixed point");
    assert_eq!(last.communities, out.num_communities as u64);
    assert_eq!(last.modularity.to_bits(), out.modularity.to_bits());
}

/// Acceptance criterion: per-iteration telemetry for a 2-rank SSCA2 run
/// matches the serial reference (1 rank = the serial algorithm, see
/// tests/parity.rs) trajectory bit-exactly. SSCA2's planted cliques
/// make the greedy decisions partition-invariant, so the full move /
/// community-census trajectory must agree exactly. The recorded
/// modularity is the algorithm's own convergence measure, which is
/// computed against ghost views one exchange stale: on rows that moved
/// vertices it is a lagged *estimate*, and the exact serial value
/// appears one exchange later. Every settled row (`moves == 0` — the
/// measurement the convergence decision actually uses, including each
/// phase's last iteration) must therefore be bit-exact, and estimate
/// rows must agree within lag error.
#[test]
fn ssca2_telemetry_trajectory_matches_serial_reference_bit_exactly() {
    use distributed_louvain::graph::gen::{ssca2, Ssca2Params};
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = ssca2(Ssca2Params {
        n: 1_000,
        max_clique_size: 50,
        inter_clique_prob: 0.05,
        seed: 9,
    })
    .graph;
    obs::set_enabled(true);
    let serial = run_distributed(&g, 1, &DistConfig::baseline());
    let dist = run_distributed(&g, 2, &DistConfig::baseline());
    obs::set_enabled(false);

    let reference = serial.trace.as_ref().unwrap().merged_telemetry();
    let observed = dist.trace.as_ref().unwrap().merged_telemetry();
    assert!(!reference.is_empty());
    assert_eq!(
        reference.len(),
        observed.len(),
        "iteration counts diverged between 1 and 2 ranks"
    );
    let mut settled = 0usize;
    for (a, b) in reference.iter().zip(&observed) {
        assert_eq!((a.phase, a.iteration), (b.phase, b.iteration));
        assert_eq!(
            a.moves, b.moves,
            "phase {} iteration {}",
            a.phase, a.iteration
        );
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.vertices, b.vertices);
        if b.moves == 0 {
            assert_eq!(
                a.modularity.to_bits(),
                b.modularity.to_bits(),
                "settled modularity diverged at phase {} iteration {}",
                a.phase,
                a.iteration
            );
            settled += 1;
        } else {
            assert!(
                (a.modularity - b.modularity).abs() < 0.05,
                "lagged estimate too far off at phase {} iteration {}: {} vs {}",
                a.phase,
                a.iteration,
                a.modularity,
                b.modularity
            );
        }
    }
    assert!(settled >= 2, "each phase must end on a settled measurement");
    assert_eq!(serial.modularity.to_bits(), dist.modularity.to_bits());
    assert_eq!(serial.assignment, dist.assignment);
}

/// ET activity tracking under the colored parallel sweep: the per-color
/// work queues skip settled vertices, and the existing `active_fraction`
/// telemetry rows must still populate correctly — a decaying active set
/// with the same guarantees the sequential sweep provides, plus the new
/// colored-schedule counters.
#[test]
fn et_active_fraction_rows_populate_under_colored_parallel_sweep() {
    use distributed_louvain::dist::{SweepMode, Variant};
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(1_200, 13)).graph;
    let cfg = DistConfig {
        sweep: SweepMode::Colored,
        threads_per_rank: 4,
        ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
    };
    obs::set_enabled(true);
    let out = run_distributed(&g, 2, &cfg);
    obs::set_enabled(false);
    let trace = out.trace.as_ref().expect("tracing was enabled");

    let rows = trace.merged_telemetry();
    assert!(!rows.is_empty(), "a traced run must produce telemetry");
    for r in &rows {
        assert!(r.vertices > 0);
        assert!(r.active <= r.vertices, "active set can never exceed n");
        let f = r.active_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
    // Every vertex is active entering the run, and ET must actually
    // deactivate some vertices as the phase converges.
    assert_eq!(rows[0].active, rows[0].vertices);
    assert!(
        rows.iter().any(|r| r.active < r.vertices),
        "ET never froze a vertex: the activity filter is not wired in"
    );
    // The colored schedule's own records ride the same trace: a
    // coloring was computed, and every move went through a color batch.
    assert!(
        trace.merged_metrics().counter("sweep.colors") > 0,
        "coloring was never computed"
    );
    assert_eq!(trace.total_dropped(), 0);
    let batch_moves: u64 = trace
        .ranks
        .iter()
        .flat_map(|r| &r.events)
        .filter(|ev| ev.name == "sweep.batch")
        .map(|ev| arg_u64(ev, "moves").expect("batch spans carry moves"))
        .sum();
    let moves: u64 = out.per_rank_stats[0]
        .iter()
        .flat_map(|ph| &ph.iteration_traces)
        .map(|t| t.moves)
        .sum();
    assert!(moves > 0);
    assert_eq!(
        batch_moves, moves,
        "every move must be attributed to a conflict-free color batch"
    );
}

/// With tracing off (the default), runs carry no trace and pay no
/// recording cost — and the report builder still works from the
/// always-on comm counters.
#[test]
fn disabled_tracing_yields_reports_without_trace_sections() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(700, 5)).graph;
    let out = run_distributed(&g, 2, &DistConfig::baseline());
    assert!(out.trace.is_none());
    let report = build_run_report(&out, &ReportMeta::new("lfr-700", 700, g.num_edges() as u64));
    assert!(report.spans.is_empty());
    assert!(report.metrics.is_empty(), "nothing is recorded untraced");
    assert_eq!(report.per_rank_traffic.len(), 2);
    assert!(report.traffic.total_bytes() > 0);
}

fn arg_u64(ev: &obs::TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find_map(|(k, v)| {
        if *k != key {
            return None;
        }
        match v {
            obs::ArgValue::U64(n) => Some(*n),
            obs::ArgValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    })
}

fn arg_str<'a>(ev: &'a obs::TraceEvent, key: &str) -> Option<&'a str> {
    ev.args.iter().find_map(|(k, v)| match v {
        obs::ArgValue::Str(s) if *k == key => Some(*s),
        _ => None,
    })
}

/// Satellite: counter/span reconciliation. For every rank count, the
/// bytes carried by the comm-step spans must agree byte-exactly with
/// the per-step comm counters, and the `wait` sub-span durations must
/// agree with the per-step blocked-wait counters. Memory gauges ride the
/// same traced run and must be registered.
#[test]
fn step_span_bytes_reconcile_with_step_counters_across_rank_counts() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(1_000, 19)).graph;
    for p in [1usize, 2, 8] {
        obs::set_enabled(true);
        let out = run_distributed(&g, p, &DistConfig::baseline());
        obs::set_enabled(false);
        let trace = out.trace.as_ref().expect("tracing was enabled");

        let mut span_bytes = std::collections::BTreeMap::new();
        let mut wait_ns = std::collections::BTreeMap::new();
        for r in &trace.ranks {
            for ev in &r.events {
                if ev.cat != "comm" {
                    continue;
                }
                if ev.name == "wait" {
                    let step = arg_str(ev, "step").expect("wait sub-spans name their step");
                    *wait_ns.entry(step).or_insert(0u64) += ev.dur_ns();
                } else if CommStep::from_label(ev.name).is_some() {
                    *span_bytes.entry(ev.name).or_insert(0u64) +=
                        arg_u64(ev, "bytes").expect("step spans carry bytes");
                }
            }
        }
        for step in CommStep::ALL {
            assert_eq!(
                span_bytes.get(step.label()).copied().unwrap_or(0),
                out.traffic.step_bytes_for(step),
                "p={p} step={}: step span bytes must equal the step counter",
                step.label()
            );
            assert_eq!(
                wait_ns.get(step.label()).copied().unwrap_or(0),
                out.traffic.step_wait_nanos_for(step),
                "p={p} step={}: wait sub-span time must equal the step wait counter",
                step.label()
            );
        }

        // Memory gauges are recorded on traced runs and registered.
        let metrics = trace.merged_metrics();
        for gauge in [
            "mem.csr_bytes",
            "mem.ghost_bytes",
            "mem.peak_rss_bytes",
            "mem.scratch_bytes",
            "mem.wire_bytes",
        ] {
            assert!(
                metrics.gauges.contains_key(gauge),
                "p={p}: gauge {gauge} missing from a traced run"
            );
        }
        #[cfg(target_os = "linux")]
        assert!(
            metrics.gauges["mem.peak_rss_bytes"].last > 0.0,
            "VmHWM must be readable on linux"
        );
        assert!(metrics.gauges["mem.csr_bytes"].last > 0.0);
        assert_eq!(
            obs::unregistered_metrics(&metrics),
            Vec::<String>::new(),
            "p={p}: every recorded mem.* name must be in METRIC_REGISTRY"
        );
    }
}

/// Every phase-profile row's four buckets sum to its total, every rank
/// has a row for every phase, and the trace behind it holds spans only.
#[test]
fn phase_profile_is_consistent_on_a_traced_run() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(1_000, 19)).graph;
    obs::set_enabled(true);
    let out = run_distributed(&g, 4, &DistConfig::baseline());
    obs::set_enabled(false);

    let meta = ReportMeta::new("lfr-1000", 1_000, g.num_edges() as u64);
    let report = build_run_report(&out, &meta);
    let trace = out.trace.as_ref().expect("tracing was enabled");
    assert!(
        trace
            .ranks
            .iter()
            .flat_map(|r| &r.events)
            .all(|e| matches!(e.kind, obs::EventKind::Complete { .. })),
        "the send path records no per-message events"
    );

    assert!(!report.phase_profile.is_empty());
    for row in &report.phase_profile {
        assert_eq!(
            row.compute_ns + row.transfer_ns + row.wait_ns + row.rebuild_ns,
            row.total_ns,
            "rank {} phase {}: buckets must sum to the phase wall",
            row.rank,
            row.phase
        );
    }
    // One row per (rank, phase) cell, every rank in every phase.
    let mut cells = std::collections::BTreeSet::new();
    for row in &report.phase_profile {
        assert!(cells.insert((row.rank, row.phase)), "duplicate cell");
    }
    let phases: std::collections::BTreeSet<u64> = cells.iter().map(|&(_, ph)| ph).collect();
    assert_eq!(cells.len(), 4 * phases.len(), "a rank is missing a phase");

    // Round-trip: the phase profile survives JSON.
    let back = obs::RunReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(back.phase_profile, report.phase_profile);
}

/// Satellite: Chrome-trace export under the resilient driver. A
/// crash-recovered run tags every event with its attempt, the exporter
/// names per-attempt tracks, and the k-way merged stream stays
/// monotonic across the attempt boundary.
#[test]
fn chrome_trace_tags_attempts_under_resilient_recovery() {
    use distributed_louvain::comm::{FaultPlan, RunConfig};
    use distributed_louvain::dist::{
        run_distributed_resilient_source, CheckpointOptions, GraphSource, ResilOptions,
    };
    use std::sync::Arc;

    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(900, 11)).graph;
    let dir = std::env::temp_dir().join(format!("louvain-obs-attempt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::parse("crash:rank=0,phase=1,op=0").unwrap();
    obs::set_enabled(true);
    let out = run_distributed_resilient_source(
        GraphSource::Memory(&g),
        2,
        &DistConfig::baseline(),
        RunConfig {
            fault: Some(Arc::new(plan)),
            ..RunConfig::default()
        },
        &ResilOptions {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            resume: false,
            crash_budget: 1,
            hang_budget: 1,
            ..ResilOptions::none()
        },
    )
    .expect("crash within recovery budget");
    obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(out.recoveries, 1);
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let attempts: std::collections::BTreeSet<u32> = trace
        .ranks
        .iter()
        .flat_map(|r| r.events.iter().map(|e| e.attempt))
        .collect();
    assert!(
        attempts.contains(&0) && attempts.contains(&1),
        "both the crashed and the recovered attempt must be traced, got {attempts:?}"
    );

    let text = obs::chrome_trace_json(trace);
    let doc = obs::Json::parse(&text).expect("exporter must emit valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut last_ts = f64::NEG_INFINITY;
    let mut attempt_tracks = 0usize;
    for ev in events {
        if ev.get("ph").unwrap().as_str().unwrap() == "M" {
            if let Some(name) = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(obs::Json::as_str)
            {
                if name.contains("attempt 1") {
                    attempt_tracks += 1;
                }
            }
            continue;
        }
        let ts = ev.get("ts").unwrap().as_f64().unwrap();
        assert!(
            ts >= last_ts,
            "k-way merge must stay monotonic across the attempt boundary"
        );
        last_ts = ts;
    }
    assert!(
        attempt_tracks > 0,
        "metadata must name the recovered attempt's tracks"
    );
}

/// Stats hygiene across a crash/restart: checkpointed counters are
/// re-absorbed on resume, so the recovered run's cumulative per-step
/// traffic reconciles exactly with an uninterrupted run's — for every
/// step except the `checkpoint` step itself — and the run report
/// carries the recovery bookkeeping.
#[test]
fn resumed_run_counters_reconcile_with_uninterrupted_run() {
    use distributed_louvain::comm::{FaultPlan, RunConfig};
    use distributed_louvain::dist::{
        run_distributed_resilient_source, CheckpointOptions, GraphSource, ResilOptions,
    };
    use std::sync::Arc;

    let g = lfr(LfrParams::small(900, 11)).graph;
    let cfg = DistConfig::baseline();
    let p = 2;
    let clean = run_distributed(&g, p, &cfg);

    let dir = std::env::temp_dir().join(format!("louvain-obs-reconcile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::parse("crash:rank=0,phase=1,op=0").unwrap();
    let resumed = run_distributed_resilient_source(
        GraphSource::Memory(&g),
        p,
        &cfg,
        RunConfig {
            fault: Some(Arc::new(plan)),
            ..RunConfig::default()
        },
        &ResilOptions {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            resume: false,
            crash_budget: 1,
            hang_budget: 1,
            ..ResilOptions::none()
        },
    )
    .expect("crash within recovery budget");
    assert_eq!(resumed.recoveries, 1);
    assert_eq!(resumed.resumed_from_phase, Some(1));
    assert_eq!(resumed.assignment, clean.assignment);

    // Cumulative totals reconcile exactly: the checkpoint cut is
    // snapshotted before the checkpoint gather, and the crashed
    // attempt's post-cut traffic dies with it.
    for step in CommStep::ALL {
        if step == CommStep::Checkpoint {
            assert!(
                resumed.traffic.step_bytes_for(step) > 0,
                "checkpoint traffic must land in its own step"
            );
            continue;
        }
        assert_eq!(
            resumed.traffic.step_bytes_for(step),
            clean.traffic.step_bytes_for(step),
            "step {} does not reconcile",
            step.label()
        );
        assert_eq!(
            resumed.traffic.step_messages_for(step),
            clean.traffic.step_messages_for(step),
            "step {} messages do not reconcile",
            step.label()
        );
    }

    // The report mirrors the recovery bookkeeping and round-trips.
    let meta = ReportMeta::new("lfr-900", 900, g.num_edges() as u64);
    let report = build_run_report(&resumed, &meta);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.resumed_from_phase, Some(1));
    let t = &report.traffic;
    assert_eq!(
        t.fault_stalls + t.wd_retries,
        0,
        "a crash is neither a stall nor a hang"
    );
    let back = obs::RunReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(back.recoveries, 1);
    assert_eq!(back.resumed_from_phase, Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Registered ⇒ recorded: one traced run that takes every instrumented
/// path (colored t=2 sweep, delta refresh, mapped slab) records every
/// non-`serve.*` name of the registry, so a name whose recording site
/// is gone cannot stay registered. (`serve.*` is the job server's own
/// registry; `tests/serve.rs` reads it.)
#[test]
fn every_registered_run_metric_is_recorded_by_one_traced_run() {
    use distributed_louvain::comm::RunConfig;
    use distributed_louvain::dist::{
        run_distributed_resilient_source, GraphSource, ResilOptions, SweepMode,
    };
    use distributed_louvain::graph::gen::lfr_stream;
    use distributed_louvain::store::{Slab, SlabBuilder, SlabOptions};

    let _guard = TRACE_FLAG.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("louvain-obs-registry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lfr.slab");
    let params = LfrParams::small(1_000, 11);
    let mut b = SlabBuilder::new(1_000, SlabOptions::default());
    lfr_stream(params, &mut b).unwrap();
    b.finish(&path).unwrap();
    let slab = Slab::open(&path).unwrap();
    let cfg = DistConfig {
        sweep: SweepMode::Colored,
        threads_per_rank: 2,
        delta_ghost_refresh: true,
        ..DistConfig::baseline()
    };
    obs::set_enabled(true);
    let out = run_distributed_resilient_source(
        GraphSource::SlabMapped(&slab),
        2,
        &cfg,
        RunConfig::default(),
        &ResilOptions::none(),
    )
    .expect("slab run");
    obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = out.trace.as_ref().expect("traced").merged_metrics();
    let recorded = |name: &str| {
        metrics.counters.contains_key(name)
            || metrics.gauges.contains_key(name)
            || metrics.histograms.contains_key(name)
    };
    let unrecorded: Vec<&str> = obs::METRIC_REGISTRY
        .iter()
        .map(|(name, _, _)| *name)
        .filter(|name| !name.starts_with("serve.") && !recorded(name))
        .collect();
    assert_eq!(
        unrecorded,
        Vec::<&str>::new(),
        "registered names no traced run records: delete them or their reader's gone"
    );
    assert_eq!(obs::unregistered_metrics(&metrics), Vec::<String>::new());
}

/// `lens show`'s memory line on a multi-phase p=2 run: `mem.csr_bytes`
/// is set once per rank, so its sum is the two starting CSRs —
/// (n + p) offsets and one `u32` dest plus one `f64` weight per arc —
/// not that plus every coarse phase's.
#[test]
fn memory_line_counts_each_ranks_starting_csr_once() {
    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(2_000, 7)).graph;
    let p = 2;
    obs::set_enabled(true);
    let out = run_distributed(&g, p, &DistConfig::baseline());
    obs::set_enabled(false);
    assert!(out.phases >= 2, "needs a coarse phase to over-count");

    let report = build_run_report(
        &out,
        &ReportMeta::new("lfr-2000", 2_000, g.num_edges() as u64),
    );
    let csr = report.metrics.gauges["mem.csr_bytes"];
    assert_eq!(csr.count, p as u64, "one sample per rank");
    let expected = (g.num_vertices() + p) * 8 + g.num_arcs() * 12;
    assert_eq!(csr.sum, expected as f64);

    let text = louvain_lens::show(&obs::RunArtifact {
        name: "memory".into(),
        description: String::new(),
        runs: vec![obs::RunEntry {
            label: "lfr-2000/p2".into(),
            report,
            telemetry: Vec::new(),
        }],
    });
    assert!(text.contains(&format!("csr={expected} B")), "{text}");
}

/// A served job runs with tracing off and a progress sink. Its live rows
/// must be the traced run's, field for field: each row's ghost bytes are
/// that iteration's refresh traffic, not the rank's running total.
#[test]
fn progress_rows_are_equal_with_tracing_off_and_on() {
    use distributed_louvain::comm::RunConfig;
    use distributed_louvain::dist::{
        run_distributed_resilient_source, GraphSource, ResilOptions, Variant,
    };
    use std::sync::Arc;

    let _guard = TRACE_FLAG.lock().unwrap();
    let g = lfr(LfrParams::small(3_000, 7)).graph;
    let cfg = DistConfig::with_variant(Variant::Et { alpha: 0.25 });
    let watch = |traced: bool| {
        let rows = Arc::new(Mutex::new(Vec::<obs::TelemetryRow>::new()));
        let sink = Arc::clone(&rows);
        obs::set_enabled(traced);
        let out = run_distributed_resilient_source(
            GraphSource::Memory(&g),
            2,
            &cfg,
            RunConfig::default(),
            &ResilOptions {
                progress: Some(Arc::new(move |row: &obs::TelemetryRow| {
                    sink.lock().unwrap().push(row.clone())
                })),
                ..ResilOptions::none()
            },
        )
        .expect("fault-free run");
        obs::set_enabled(false);
        assert_eq!(out.trace.is_some(), traced);
        let mut rows = Arc::try_unwrap(rows).unwrap().into_inner().unwrap();
        rows.sort_by_key(|r| (r.phase, r.iteration));
        (rows, out)
    };
    let (untraced, _) = watch(false);
    let (traced, out) = watch(true);
    assert!(untraced.len() > 1);
    assert_eq!(traced, out.trace.unwrap().merged_telemetry());
    for (a, b) in untraced.iter().zip(&traced) {
        assert_eq!(a, b, "phase {} iteration {}", a.phase, a.iteration);
    }
    assert_eq!(untraced.len(), traced.len());
}
