//! Acceptance tests for the `lens` analytics over artifacts built here
//! from the live code: `diff` and `crit` render deterministically
//! (byte-identical output), the critical path is bounded by the wall
//! and bounds every single rank's own phase time, the per-phase
//! attribution fractions sum to 1 within 1%, crit's self-time blame
//! names the rank a fault plan stalls, and artifacts without a phase
//! profile degrade with a clear error and a nonzero CLI exit instead of
//! an empty report.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use distributed_louvain::comm::FaultPlan;
use distributed_louvain::dist::{build_run_report, ReportMeta, SweepMode};
use distributed_louvain::obs::{self, run_label, RunArtifact, RunEntry};
use distributed_louvain::prelude::*;
use louvain_lens::{crit, diff, show};

/// Every run this file analyses. Tracing is a process-wide flag, so it
/// is on only in here: every test waits on this initialiser and none
/// runs the algorithm itself.
struct Fixture {
    /// Per pin graph of `tests/parity.rs`, ET(0.25) at p=2: the full and
    /// the delta ghost refresh and one Colored t=2 run untraced, then the
    /// delta run again with tracing on — labeled `…/p2/delta+traced` and
    /// carrying telemetry and the phase profile.
    pins: RunArtifact,
    /// One traced run with a real straggler: scenario G of
    /// `scripts/fault_matrix.sh` (LFR 900 seed 11, p=2, plan seed 2,
    /// rank 1 stalled with probability 0.05 per comm op) with 20 ms
    /// stalls instead of 150.
    straggler: RunArtifact,
}

fn fixtures() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture {
        pins: pin_runs(),
        straggler: stalled_run(),
    })
}

fn fixture() -> &'static RunArtifact {
    &fixtures().pins
}

fn pin_runs() -> RunArtifact {
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
}

fn stalled_run() -> RunArtifact {
    let g = lfr(LfrParams::small(900, 11)).graph;
    let plan = FaultPlan::parse("seed=2;stall:rank=1,ms=20,prob=0.05").expect("fault spec");
    let runcfg = RunConfig {
        fault: Some(std::sync::Arc::new(plan)),
        ..RunConfig::default()
    };
    let cfg = DistConfig::baseline();
    obs::set_enabled(true);
    let out = run_distributed_source(GraphSource::Memory(&g), 2, &cfg, runcfg).expect("stall run");
    obs::set_enabled(false);
    let meta = ReportMeta::new("lfr_900", g.num_vertices() as u64, g.num_edges() as u64);
    RunArtifact {
        name: "STRAGGLER".into(),
        description: "rank 1 stalled by a fault plan".into(),
        runs: vec![RunEntry {
            label: run_label("lfr_900", 2, "stall"),
            report: build_run_report(&out, &meta),
            telemetry: Vec::new(),
        }],
    }
}

/// What an artifact of untraced runs looks like: the same runs with no
/// phase profile.
fn untraced() -> RunArtifact {
    let mut a = fixture().clone();
    a.name = "UNTRACED".into();
    for e in &mut a.runs {
        e.report.phase_profile.clear();
    }
    a
}

/// The fixture without its colored runs.
fn before_thread_axis() -> RunArtifact {
    let mut a = fixture().clone();
    a.runs.retain(|e| !e.label.ends_with("/colored"));
    a
}

/// The `lens` binary on `args`, with `artifact` written to a temporary
/// file passed as the first positional after the subcommand.
fn lens_cli(artifact: &RunArtifact, tag: &str, args: &[&str]) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("louvain-lens-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, artifact.to_json_string()).expect("write artifact");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lens"))
        .arg(args[0])
        .arg(&path)
        .args(&args[1..])
        .output()
        .expect("spawn lens");
    let _ = std::fs::remove_file(&path);
    out
}

/// Two invocations on the same artifact render byte-identical reports:
/// no clocks, no hash-order dependence, fixed float precision.
#[test]
fn crit_on_committed_artifact_is_deterministic() {
    let a = fixture();
    let r1 = crit(a).unwrap().render();
    let r2 = crit(a).unwrap().render();
    assert_eq!(r1, r2, "crit render must be byte-identical");
}

/// The critical path of each traced run sits between the
/// per-rank phase sums (lower bound: the path picks the slowest rank per
/// phase, so it dominates any single rank's own run) and the whole-run
/// wall (upper bound).
#[test]
fn critical_path_is_bounded_by_wall_and_bounds_every_rank() {
    let a = fixture();
    let report = crit(a).unwrap();
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
/// within 1%, and the byte account of every run closes: its per-step
/// byte counters sum to its p2p plus collective bytes.
#[test]
fn attribution_and_bytes_meet_the_acceptance_bars() {
    let a = fixture();
    for r in &crit(a).unwrap().runs {
        let sum: f64 = r.path_fractions().iter().sum();
        assert!(
            (sum - 1.0).abs() < 0.01,
            "{}: fractions sum {sum}, off by more than 1%",
            r.label
        );
    }
    for e in &a.runs {
        let t = &e.report.traffic;
        assert!(t.p2p_bytes > 0, "{}: a p=2 run moves bytes", e.label);
        assert_eq!(
            t.step_bytes.iter().sum::<u64>(),
            t.p2p_bytes + t.collective_bytes,
            "{}: per-step bytes do not close",
            e.label
        );
    }
}

/// A real straggler, not a hand-built profile: the stall rule must have
/// fired on rank 1 and only there (else this passes vacuously), and
/// crit's self-time blame must name rank 1 — rank 0's time spent waiting
/// on it is victim time.
#[test]
fn crit_blames_the_rank_a_fault_plan_stalls() {
    let a = &fixtures().straggler;
    let report = &a.runs[0].report;
    assert!(
        report.traffic.fault_stalls > 0,
        "the stall rule never fired"
    );
    assert_eq!(report.per_rank_traffic[0].fault_stalls, 0);
    let c = crit(a).unwrap();
    assert_eq!(c.runs[0].blame_rank, 1, "{}", c.render());
}

/// An untraced artifact: `crit` must refuse it with a message that says
/// why, not return an empty report.
#[test]
fn legacy_artifact_degrades_with_a_clear_error() {
    let err = crit(&untraced()).unwrap_err();
    assert!(
        err.contains("no runs with a phase profile"),
        "unhelpful error: {err}"
    );
    assert!(
        err.contains("UNTRACED"),
        "error must name the artifact: {err}"
    );
}

/// The CLI surfaces that refusal as a nonzero exit with the error on
/// stderr, so scripted pipelines fail loudly on untraced artifacts.
#[test]
fn cli_exits_nonzero_on_legacy_artifact() {
    let out = lens_cli(&untraced(), "untraced", &["crit"]);
    assert!(!out.status.success(), "legacy artifact must fail the CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no runs with a phase profile"),
        "stderr: {stderr}"
    );
}

/// And the happy path through the same CLI: crit on the traced artifact
/// exits zero and prints one straggler blame line per traced run.
#[test]
fn cli_passes_on_committed_artifact() {
    let out = lens_cli(fixture(), "crit", &["crit"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    assert_eq!(
        stdout.matches("  straggler blame: rank ").count(),
        3,
        "{stdout}"
    );
}

/// `lens gate` is gone: an unknown command, a nonzero exit. (That its
/// threshold flags and crit's `--baseline` are refused by name is
/// tested on the subcommands in `src/bin/lens.rs`.)
#[test]
fn cli_has_no_gate_command() {
    let out = lens_cli(fixture(), "gate", &["gate", "--baseline", "x.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("unknown command `gate`"), "{stderr}");
}

/// `lens diff` of two artifacts is deterministic — two independent
/// diff+render passes produce byte-identical output.
#[test]
fn diff_of_committed_artifacts_is_deterministic() {
    let r1 = diff(&before_thread_axis(), fixture()).render();
    let r2 = diff(&before_thread_axis(), fixture()).render();
    assert_eq!(r1, r2, "diff rendering must be byte-identical");
    // Per graph the two share the full, delta and traced entries; the
    // fixture adds the colored one.
    assert!(
        r1.starts_with("diff: 9 matched, 0 only-baseline, 3 only-current"),
        "{r1}"
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
