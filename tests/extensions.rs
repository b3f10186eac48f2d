//! End-to-end coverage of the future-work extensions and the hybrid
//! MPI+OpenMP mode at the full multi-phase level.

use distributed_louvain::dist::{nmi, run_distributed, DistConfig, SweepMode, Variant};
use distributed_louvain::graph::modularity;
use distributed_louvain::prelude::*;

fn lfr_graph(seed: u64) -> Csr {
    lfr(LfrParams::small(2_000, seed)).graph
}

#[test]
fn ghost_pruning_keeps_quality_and_cuts_refresh_bytes() {
    let g = grid3d(Grid3dParams::cube(4_000, 7)).graph;
    let et_cfg = DistConfig::with_variant(Variant::Et { alpha: 0.75 });
    let base = run_distributed(&g, 4, &et_cfg);
    let pruned = run_distributed(
        &g,
        4,
        &DistConfig {
            prune_inactive_ghosts: true,
            ..et_cfg
        },
    );
    // Pruning must not change what ET converges to by much — frozen
    // vertices were not going to move anyway.
    assert!(
        (pruned.modularity - base.modularity).abs() < 0.05,
        "pruned {} vs base {}",
        pruned.modularity,
        base.modularity
    );
    let q_check = modularity(&g, &pruned.assignment);
    assert!((pruned.modularity - q_check).abs() < 1e-9);
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
    // The modeled compute time accounts for the intra-rank threads.
    assert!(hybrid.modeled_seconds > 0.0);
}

#[test]
fn vertex_following_full_run_preserves_quality() {
    let g = lfr_graph(85);
    let base = run_distributed(&g, 3, &DistConfig::baseline());
    let vf = run_distributed(
        &g,
        3,
        &DistConfig {
            vertex_following: true,
            ..DistConfig::baseline()
        },
    );
    assert!(
        vf.modularity > base.modularity - 0.05,
        "vf {} vs base {}",
        vf.modularity,
        base.modularity
    );
    // The clusterings should be largely the same communities.
    assert!(nmi(&base.assignment, &vf.assignment) > 0.7);
}

#[test]
fn extensions_compose() {
    // Everything at once: ETC + pruning + VF on 4 ranks.
    let g = grid3d(Grid3dParams::cube(3_000, 9)).graph;
    let cfg = DistConfig {
        prune_inactive_ghosts: true,
        vertex_following: true,
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
