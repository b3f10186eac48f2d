//! End-to-end coverage of the future-work extensions (colored sweeps,
//! the delta refresh) and the hybrid MPI+OpenMP mode at the full
//! multi-phase level.

use distributed_louvain::dist::{nmi, run_distributed, DistConfig, SweepMode, Variant};
use distributed_louvain::graph::modularity;
use distributed_louvain::prelude::*;

fn lfr_graph(seed: u64) -> Csr {
    lfr(LfrParams::small(2_000, seed)).graph
}

#[test]
fn colored_sweeps_full_run_quality() {
    // Distance-1 coloring (paper §VI) as the colored schedule's batches:
    // a whole multi-phase run keeps the sequential sweep's quality.
    let g = lfr_graph(83);
    let base = run_distributed(&g, 4, &DistConfig::baseline());
    let colored = run_distributed(
        &g,
        4,
        &DistConfig {
            sweep: SweepMode::Colored,
            ..DistConfig::baseline()
        },
    );
    assert!(
        colored.modularity > base.modularity - 0.05,
        "colored {} vs base {}",
        colored.modularity,
        base.modularity
    );
    let q_check = modularity(&g, &colored.assignment);
    assert!((colored.modularity - q_check).abs() < 1e-9);
}

#[test]
fn hybrid_mpi_openmp_run_is_sane() {
    let g = lfr_graph(84);
    let base = run_distributed(&g, 4, &DistConfig::baseline());
    let hybrid = run_distributed(
        &g,
        2,
        &DistConfig {
            threads_per_rank: 2,
            ..DistConfig::baseline()
        },
    );
    assert!(
        hybrid.modularity > base.modularity - 0.1,
        "hybrid {} vs base {}",
        hybrid.modularity,
        base.modularity
    );
    let q_check = modularity(&g, &hybrid.assignment);
    assert!((hybrid.modularity - q_check).abs() < 1e-9);
    // Every phase of every rank records the thread count it swept with.
    for rank in &hybrid.per_rank_stats {
        assert!(rank.iter().all(|ph| ph.threads_per_rank == 2));
    }
}

#[test]
fn extensions_compose() {
    // Everything at once: ETC + delta refresh + colored t=2 on 4 ranks.
    let g = grid3d(Grid3dParams::cube(3_000, 9)).graph;
    let cfg = DistConfig {
        delta_ghost_refresh: true,
        sweep: SweepMode::Colored,
        threads_per_rank: 2,
        ..DistConfig::with_variant(Variant::Etc { alpha: 0.25 })
    };
    let out = run_distributed(&g, 4, &cfg);
    assert!(out.modularity > 0.5, "q = {}", out.modularity);
    let q_check = modularity(&g, &out.assignment);
    assert!((out.modularity - q_check).abs() < 1e-9);
}

#[test]
fn quality_metric_suite_agrees_on_good_clusterings() {
    let gen = lfr(LfrParams::small(2_000, 86));
    let truth = gen.ground_truth.as_ref().unwrap();
    let out = run_distributed(&gen.graph, 4, &DistConfig::baseline());
    let f = distributed_louvain::dist::f_score(truth, &out.assignment);
    let v_nmi = nmi(truth, &out.assignment);
    let v_ari = distributed_louvain::dist::adjusted_rand_index(truth, &out.assignment);
    assert!(f.f_score > 0.85, "F = {}", f.f_score);
    assert!(v_nmi > 0.85, "NMI = {v_nmi}");
    assert!(v_ari > 0.6, "ARI = {v_ari}");
    // Structural metrics: the found partition covers most edge weight.
    let m = distributed_louvain::graph::metrics::partition_metrics(&gen.graph, &out.assignment);
    assert!(m.coverage > 0.8, "coverage = {}", m.coverage);
    assert!(
        m.mean_conductance < 0.3,
        "conductance = {}",
        m.mean_conductance
    );
}
