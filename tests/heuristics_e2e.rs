//! End-to-end behaviour of the Section IV-B heuristics: ET reduces work,
//! ETC exits phases on the global inactive count, threshold cycling uses
//! the Fig 2 schedule and still accepts only at the minimum τ.

use distributed_louvain::dist::{run_distributed, DistConfig, Variant};
use distributed_louvain::prelude::*;

fn test_graph() -> Csr {
    // Mesh-like structure: the class where ET pays off the most
    // (Table I: 58x on Channel).
    grid3d(Grid3dParams::cube(4_000, 77)).graph
}

#[test]
fn et_reduces_processed_work() {
    let g = test_graph();
    let base = run_distributed(&g, 2, &DistConfig::baseline());
    let et = run_distributed(
        &g,
        2,
        &DistConfig::with_variant(Variant::Et { alpha: 0.75 }),
    );
    let work = |o: &distributed_louvain::dist::DistOutcome| -> u64 {
        o.per_rank_stats
            .iter()
            .flat_map(|r| r.iter())
            .map(|s| s.compute.vertices_processed)
            .sum()
    };
    assert!(
        work(&et) < work(&base),
        "ET processed {} vertices vs baseline {}",
        work(&et),
        work(&base)
    );
    // Paper: "negligible loss in quality" (we allow a modest margin at
    // this scale).
    assert!(et.modularity > base.modularity - 0.1);
}

#[test]
fn etc_records_inactive_counts_and_can_exit_early() {
    let g = test_graph();
    let out = run_distributed(
        &g,
        2,
        &DistConfig::with_variant(Variant::Etc { alpha: 0.75 }),
    );
    // Inactive counts must be recorded and grow within phases.
    let traces: Vec<_> = out.per_rank_stats[0]
        .iter()
        .flat_map(|p| p.iteration_traces.iter())
        .collect();
    assert!(
        traces.iter().any(|t| t.inactive > 0),
        "no inactive vertices recorded"
    );
}

#[test]
fn etc_exit_flag_set_when_threshold_reached() {
    // α = 1 deactivates immediately, so some phase reaches the paper's
    // 90 % inactive and flags the ETC exit.
    let g = test_graph();
    let cfg = DistConfig::with_variant(Variant::Etc { alpha: 1.0 });
    let out = run_distributed(&g, 2, &cfg);
    let any_etc_exit = out.per_rank_stats[0].iter().any(|p| p.etc_exit);
    assert!(any_etc_exit, "ETC exit never fired with alpha 1.0");
}

#[test]
fn threshold_cycling_uses_larger_taus_in_early_phases() {
    let g = weblike(WeblikeParams::web(6_000, 13)).graph;
    let out = run_distributed(&g, 2, &DistConfig::with_variant(Variant::ThresholdCycling));
    let taus: Vec<f64> = out.per_rank_stats[0].iter().map(|p| p.tau).collect();
    assert!(
        taus[0] > 1e-4,
        "first phase tau should be cycled up, got {}",
        taus[0]
    );
    // The accepted (final) phase must run at the minimum threshold —
    // "always forces Louvain iteration to run once more with the lowest
    // threshold".
    let last = *taus.last().unwrap();
    assert!(
        last <= 1e-6 * 1.001,
        "final phase tau {last} is not the minimum"
    );
}

#[test]
fn et_alpha_zero_equals_baseline_exactly() {
    // α = 0 never decays probabilities: ET(0) must follow the baseline
    // trajectory exactly (same seeds, same sweep order).
    let g = lfr(LfrParams::small(1_500, 14)).graph;
    let base = run_distributed(&g, 2, &DistConfig::baseline());
    let et0 = run_distributed(&g, 2, &DistConfig::with_variant(Variant::Et { alpha: 0.0 }));
    assert_eq!(base.assignment, et0.assignment);
    assert!((base.modularity - et0.modularity).abs() < 1e-12);
    assert_eq!(base.total_iterations, et0.total_iterations);
}

#[test]
fn et_plus_cycling_combination_works() {
    let g = test_graph();
    let combo = run_distributed(
        &g,
        2,
        &DistConfig::with_variant(Variant::EtPlusCycling { alpha: 0.25 }),
    );
    assert!(combo.modularity > 0.4, "q = {}", combo.modularity);
    // Cycling engaged: some phase uses a raised τ.
    assert!(combo.per_rank_stats[0].iter().any(|p| p.tau > 1e-5));
}

#[test]
fn variants_report_etc_exit_only_for_etc() {
    let g = test_graph();
    for variant in [Variant::Baseline, Variant::Et { alpha: 0.75 }] {
        let out = run_distributed(&g, 2, &DistConfig::with_variant(variant));
        assert!(
            out.per_rank_stats[0].iter().all(|p| !p.etc_exit),
            "{} should never set etc_exit",
            variant.label()
        );
    }
}
