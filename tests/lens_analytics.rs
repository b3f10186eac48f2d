//! Acceptance tests for the `lens` analytics over the committed
//! artifacts: they load through the one entry point, diffing them is
//! deterministic (byte-identical output), and the CI gate passes on the
//! committed baseline while failing on a synthetic 2x wall-time
//! regression.

use distributed_louvain::obs::RunArtifact;
use louvain_lens::{diff, gate, show, Thresholds};

fn load(rel: &str) -> RunArtifact {
    let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    RunArtifact::from_any_json_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed sweep as it was before the colored thread axis was
/// added to it: the 18 sweep labels and the 3 traced entries.
fn before_thread_axis() -> RunArtifact {
    let mut a = load("BENCH_PR7.json");
    a.runs.retain(|e| !e.label.ends_with("/colored"));
    a
}

/// The committed gate baselines load through the single
/// `from_any_json_str` entry point.
#[test]
fn committed_artifacts_all_parse() {
    for rel in ["BENCH_PR7.json", "BENCH_PR8.json", "BENCH_PR9.json"] {
        let a = load(rel);
        assert!(!a.runs.is_empty(), "{rel}: no runs");
        for e in &a.runs {
            assert!(!e.label.is_empty(), "{rel}: entry without a label");
        }
    }
}

/// Acceptance criterion: `lens diff` of two artifacts is
/// deterministic — two independent load+diff+render passes produce
/// byte-identical output.
#[test]
fn diff_of_committed_artifacts_is_deterministic() {
    let t = Thresholds::default();
    let r1 = diff(&before_thread_axis(), &load("BENCH_PR7.json"), &t).render();
    let r2 = diff(&before_thread_axis(), &load("BENCH_PR7.json"), &t).render();
    assert_eq!(r1, r2, "diff rendering must be byte-identical");
    // The two sweeps share the 18 sweep labels and the 3 traced
    // entries; the committed one adds the thread axis.
    assert!(r1.starts_with("diff: 21 matched"), "{r1}");
}

/// Acceptance criterion: the gate passes on the committed baseline
/// (diffed against itself) with default thresholds.
#[test]
fn gate_passes_on_committed_baseline() {
    let base = load("BENCH_PR7.json");
    let g = gate(&base, &base, &Thresholds::default());
    assert!(g.passed(), "failures: {:?}", g.failures);
    assert_eq!(g.checked, base.runs.len());
}

/// Acceptance criterion: a synthetic 2x wall-time regression on every
/// run fails the gate with default thresholds.
#[test]
fn gate_fails_on_synthetic_two_x_wall_regression() {
    let base = load("BENCH_PR7.json");
    let mut cur = base.clone();
    for e in &mut cur.runs {
        e.report.wall_seconds *= 2.0;
    }
    let g = gate(&base, &cur, &Thresholds::default());
    assert!(!g.passed(), "2x wall regression must fail the gate");
    assert!(
        g.failures.iter().any(|f| f.contains("wall")),
        "failures: {:?}",
        g.failures
    );
}

/// The committed baseline carries telemetry for the traced entries, and
/// `lens show` renders their convergence tables.
#[test]
fn committed_baseline_has_telemetry_and_shows_convergence() {
    let base = load("BENCH_PR7.json");
    let traced: Vec<_> = base
        .runs
        .iter()
        .filter(|e| !e.telemetry.is_empty())
        .collect();
    assert_eq!(traced.len(), 3, "one traced entry per bench graph");
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
    let text = show(&base);
    assert!(text.contains("convergence:"));
    assert!(text.contains("rank imbalance"));
}
