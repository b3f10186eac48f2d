//! Acceptance tests for the `lens` analytics over an artifact built here
//! from the live code: `diff` and `crit` render deterministically
//! (byte-identical output), `gate` passes an artifact against itself
//! and fails a synthetic 2x wall-time regression, the critical path is
//! bounded by the wall and bounds every single rank's own phase time,
//! the per-phase attribution fractions sum to 1 within 1%, the traced
//! message-edge bytes agree byte-exactly with the p2p counters of
//! today's send path, and artifacts without message events degrade with
//! a clear error and a nonzero CLI exit instead of an empty report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use distributed_louvain::dist::{build_run_report, ReportMeta, SweepMode};
use distributed_louvain::obs::{self, run_label, RunArtifact, RunEntry};
use distributed_louvain::prelude::*;
use louvain_lens::{crit, diff, gate, show, Thresholds, DEFAULT_WAIT_TOL};

/// Per pin graph of `tests/parity.rs`, ET(0.25) at p=2: the full and the
/// delta ghost refresh and one Colored t=2 run untraced, then the delta
/// run again with tracing on — labeled `…/p2/delta+traced` and carrying
/// telemetry, the causal phase profile and the message edges. Tracing is
/// a process-wide flag, so it is on only in here: every test waits on
/// this initialiser and none runs the algorithm itself.
fn fixture() -> &'static RunArtifact {
    static FIXTURE: OnceLock<RunArtifact> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graphs: [(&str, Csr); 3] = [
            ("rmat_s11_ef8", rmat(RmatParams::social(11, 8, 5)).graph),
            (
                "ssca2_4k",
                ssca2(Ssca2Params {
                    n: 4_000,
                    max_clique_size: 50,
                    inter_clique_prob: 0.05,
                    seed: 9,
                })
                .graph,
            ),
            ("lfr_3k", lfr(LfrParams::small(3_000, 7)).graph),
        ];
        let et = |delta: bool| DistConfig {
            delta_ghost_refresh: delta,
            ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
        };
        let colored = DistConfig {
            sweep: SweepMode::Colored,
            threads_per_rank: 2,
            ..et(true)
        };
        let mut runs = Vec::new();
        for (name, g) in &graphs {
            let mut entry = |mode: &str, cfg: &DistConfig| {
                let out = run_distributed(g, 2, cfg);
                let meta = ReportMeta::new(*name, g.num_vertices() as u64, g.num_edges() as u64)
                    .variant(format!("ET(0.25)+{mode}"))
                    .threads_per_rank(cfg.threads_per_rank);
                let telemetry = out.trace.as_ref().map(|t| t.merged_telemetry());
                runs.push(RunEntry {
                    label: run_label(name, 2, mode),
                    report: build_run_report(&out, &meta),
                    telemetry: telemetry.unwrap_or_default(),
                });
            };
            entry("full", &et(false));
            entry("delta", &et(true));
            entry("t2/colored", &colored);
            obs::set_enabled(true);
            entry("delta+traced", &et(true));
            obs::set_enabled(false);
        }
        RunArtifact {
            name: "LENS_FIXTURE".into(),
            description: "ET(0.25) at p=2 on the three pin graphs, one traced run each".into(),
            runs,
        }
    })
}

/// What an artifact written before the causal profiling layer looks
/// like: the same runs with no phase profile and no message edges.
fn pre_causal() -> RunArtifact {
    let mut a = fixture().clone();
    a.name = "BENCH_PRE_CAUSAL".into();
    for e in &mut a.runs {
        e.report.phase_profile.clear();
        e.report.messages.clear();
    }
    a
}

/// The fixture without its colored runs.
fn before_thread_axis() -> RunArtifact {
    let mut a = fixture().clone();
    a.runs.retain(|e| !e.label.ends_with("/colored"));
    a
}

/// `artifact` as a file the `lens` binary can read; removed by the caller.
fn on_disk(artifact: &RunArtifact, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("louvain-lens-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, artifact.to_json_string()).expect("write artifact");
    path
}

/// Two invocations on the same artifact render byte-identical reports:
/// no clocks, no hash-order dependence, fixed float precision.
#[test]
fn crit_on_committed_artifact_is_deterministic() {
    let a = fixture();
    let r1 = crit(a, Some(a), DEFAULT_WAIT_TOL).unwrap().render();
    let r2 = crit(a, Some(a), DEFAULT_WAIT_TOL).unwrap().render();
    assert_eq!(r1, r2, "crit render must be byte-identical");
    assert!(
        r1.contains("crit gate: PASS"),
        "self-baseline must pass:\n{r1}"
    );
}

/// The critical path of each causally traced run sits between the
/// per-rank phase sums (lower bound: the path picks the slowest rank per
/// phase, so it dominates any single rank's own run) and the whole-run
/// wall (upper bound).
#[test]
fn critical_path_is_bounded_by_wall_and_bounds_every_rank() {
    let a = fixture();
    let report = crit(a, None, DEFAULT_WAIT_TOL).unwrap();
    assert_eq!(report.runs.len(), 3, "one traced run per graph");
    let reports: BTreeMap<&str, _> = a
        .runs
        .iter()
        .map(|e| (e.label.as_str(), &e.report))
        .collect();
    for r in &report.runs {
        assert!(r.critical_path_ns > 0, "{}: empty critical path", r.label);
        assert!(
            r.critical_path_ns <= r.wall_ns,
            "{}: path {} exceeds wall {}",
            r.label,
            r.critical_path_ns,
            r.wall_ns
        );
        let rep = reports[r.label.as_str()];
        let mut per_rank: BTreeMap<usize, u64> = BTreeMap::new();
        for row in &rep.phase_profile {
            *per_rank.entry(row.rank).or_insert(0) += row.total_ns;
        }
        for (rank, total) in per_rank {
            assert!(
                r.critical_path_ns >= total,
                "{}: path {} below rank {}'s own phase time {}",
                r.label,
                r.critical_path_ns,
                rank,
                total
            );
        }
    }
}

/// Per-phase wall attribution along the path sums to the path total
/// within 1% and the traced message-edge bytes reconcile byte-exactly
/// with the p2p counters.
#[test]
fn attribution_and_bytes_meet_the_acceptance_bars() {
    let report = crit(fixture(), None, DEFAULT_WAIT_TOL).unwrap();
    let rendered = report.render();
    for r in &report.runs {
        let sum: f64 = r.path_fractions().iter().sum();
        assert!(
            (sum - 1.0).abs() < 0.01,
            "{}: fractions sum {sum}, off by more than 1%",
            r.label
        );
        assert_eq!(
            r.edge_bytes, r.p2p_bytes,
            "{}: traced edge bytes disagree with p2p counters",
            r.label
        );
    }
    assert!(rendered.contains("exact match"));
    assert!(!rendered.contains("MISMATCH"));
}

/// An artifact that predates the causal profiling layer: `crit` must
/// refuse it with a message that says why, not return an empty report.
#[test]
fn legacy_artifact_degrades_with_a_clear_error() {
    let a = pre_causal();
    let err = crit(&a, None, DEFAULT_WAIT_TOL).unwrap_err();
    assert!(
        err.contains("no runs with message events"),
        "unhelpful error: {err}"
    );
    assert!(
        err.contains("BENCH_PRE_CAUSAL"),
        "error must name the artifact: {err}"
    );
}

/// The CLI surfaces that refusal as a nonzero exit with the error on
/// stderr, so scripted pipelines fail loudly on pre-causal artifacts.
#[test]
fn cli_exits_nonzero_on_legacy_artifact() {
    let path = on_disk(&pre_causal(), "pre-causal");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lens"))
        .arg("crit")
        .arg(&path)
        .output()
        .expect("spawn lens");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success(), "legacy artifact must fail the CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no runs with message events"),
        "stderr: {stderr}"
    );
}

/// And the happy path through the same CLI: crit on the traced artifact
/// gated against itself passes with a zero exit.
#[test]
fn cli_passes_on_committed_artifact_with_self_baseline() {
    let path = on_disk(fixture(), "self-baseline");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lens"))
        .arg("crit")
        .arg(&path)
        .arg("--baseline")
        .arg(&path)
        .output()
        .expect("spawn lens");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    assert!(stdout.contains("crit gate: PASS"));
    assert!(stdout.contains("exact match"));
}

/// `lens diff` of two artifacts is deterministic — two independent
/// diff+render passes produce byte-identical output.
#[test]
fn diff_of_committed_artifacts_is_deterministic() {
    let t = Thresholds::default();
    let r1 = diff(&before_thread_axis(), fixture(), &t).render();
    let r2 = diff(&before_thread_axis(), fixture(), &t).render();
    assert_eq!(r1, r2, "diff rendering must be byte-identical");
    // Per graph the two share the full, delta and traced entries; the
    // fixture adds the colored one.
    assert!(
        r1.starts_with("diff: 9 matched, 0 only-baseline, 3 only-current"),
        "{r1}"
    );
}

/// The gate passes on an artifact diffed against itself with default
/// thresholds.
#[test]
fn gate_passes_on_committed_baseline() {
    let base = fixture();
    let g = gate(base, base, &Thresholds::default());
    assert!(g.passed(), "failures: {:?}", g.failures);
    assert_eq!(g.checked, base.runs.len());
}

/// A synthetic 2x wall-time regression on every run fails the gate with
/// default thresholds.
#[test]
fn gate_fails_on_synthetic_two_x_wall_regression() {
    let base = fixture();
    let mut cur = base.clone();
    for e in &mut cur.runs {
        e.report.wall_seconds *= 2.0;
    }
    let g = gate(base, &cur, &Thresholds::default());
    assert!(!g.passed(), "2x wall regression must fail the gate");
    assert!(
        g.failures.iter().any(|f| f.contains("wall")),
        "failures: {:?}",
        g.failures
    );
}

/// The traced entries carry telemetry, and `lens show` renders their
/// convergence tables.
#[test]
fn committed_baseline_has_telemetry_and_shows_convergence() {
    let base = fixture();
    let traced: Vec<_> = base
        .runs
        .iter()
        .filter(|e| !e.telemetry.is_empty())
        .collect();
    assert_eq!(traced.len(), 3, "one traced entry per graph");
    for e in &traced {
        assert!(e.label.ends_with("delta+traced"), "{}", e.label);
        // Rows are ordered and end converged.
        let last = e.telemetry.last().unwrap();
        assert_eq!(last.moves, 0);
        assert_eq!(
            last.modularity.to_bits(),
            e.report.modularity.to_bits(),
            "{}: final telemetry row must agree with the report",
            e.label
        );
        for r in &e.telemetry {
            assert_eq!(r.ghost_bytes_per_rank.len(), e.report.ranks);
        }
    }
    let text = show(base);
    assert!(text.contains("convergence:"));
    assert!(text.contains("rank imbalance"));
}
