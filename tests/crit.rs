//! Acceptance tests for `lens crit` over the committed bench
//! artifacts: the causal analysis of BENCH_PR7.json is deterministic
//! (byte-identical renders), the critical path is bounded by the wall
//! and bounds every single rank's own phase time, the per-phase
//! attribution fractions sum to 1 within 1%, the traced message-edge
//! bytes agree byte-exactly with the p2p counters, and legacy artifacts
//! without message events degrade with a clear error and a nonzero CLI
//! exit instead of an empty report.

use std::collections::BTreeMap;

use distributed_louvain::obs::RunArtifact;
use louvain_lens::{crit, DEFAULT_WAIT_TOL};

fn load(rel: &str) -> RunArtifact {
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    RunArtifact::from_any_json_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// What an artifact written before the causal profiling layer looks
/// like: the committed runs with no phase profile and no message edges.
fn pre_causal() -> RunArtifact {
    let mut a = load("BENCH_PR7.json");
    a.name = "BENCH_PRE_CAUSAL".into();
    for e in &mut a.runs {
        e.report.phase_profile.clear();
        e.report.messages.clear();
    }
    a
}

/// Two invocations on the same committed artifact render byte-identical
/// reports: no clocks, no hash-order dependence, fixed float precision.
#[test]
fn crit_on_committed_artifact_is_deterministic() {
    let a = load("BENCH_PR7.json");
    let r1 = crit(&a, Some(&a), DEFAULT_WAIT_TOL).unwrap().render();
    let r2 = crit(&a, Some(&a), DEFAULT_WAIT_TOL).unwrap().render();
    assert_eq!(r1, r2, "crit render must be byte-identical");
    assert!(
        r1.contains("crit gate: PASS"),
        "self-baseline must pass:\n{r1}"
    );
}

/// The committed artifact carries causally-traced runs and the critical
/// path of each sits between the per-rank phase sums (lower bound: the
/// path picks the slowest rank per phase, so it dominates any single
/// rank's own run) and the whole-run wall (upper bound).
#[test]
fn critical_path_is_bounded_by_wall_and_bounds_every_rank() {
    let a = load("BENCH_PR7.json");
    let report = crit(&a, None, DEFAULT_WAIT_TOL).unwrap();
    assert!(!report.runs.is_empty(), "BENCH_PR7 must carry traced runs");
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
    let a = load("BENCH_PR7.json");
    let report = crit(&a, None, DEFAULT_WAIT_TOL).unwrap();
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
    let path = std::env::temp_dir().join(format!(
        "louvain-crit-pre-causal-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, pre_causal().to_json_string()).expect("write pre-causal artifact");
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

/// And the happy path through the same CLI: crit on the committed
/// artifact gated against itself passes with a zero exit.
#[test]
fn cli_passes_on_committed_artifact_with_self_baseline() {
    let path = format!("{}/BENCH_PR7.json", env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lens"))
        .args(["crit", &path, "--baseline", &path])
        .output()
        .expect("spawn lens");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    assert!(stdout.contains("crit gate: PASS"));
    assert!(stdout.contains("exact match"));
}
