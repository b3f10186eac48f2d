//! Full-pipeline integration: generated graph → edge-balanced
//! distribution → distributed Louvain → quality report, plus determinism
//! guarantees. The file → per-rank range read → run path is
//! `tests/storage.rs`'s load-path matrix.

use distributed_louvain::dist::{f_score, run_distributed, DistConfig};
use distributed_louvain::graph::modularity;
use distributed_louvain::prelude::*;

#[test]
fn quality_report_on_planted_graph_is_high() {
    let generated = ssca2(Ssca2Params {
        n: 1_500,
        max_clique_size: 25,
        inter_clique_prob: 0.02,
        seed: 9,
    });
    let out = run_distributed(&generated.graph, 3, &DistConfig::baseline());
    let report = f_score(generated.ground_truth.as_ref().unwrap(), &out.assignment);
    assert!(report.recall > 0.95, "recall {}", report.recall);
    assert!(report.f_score > 0.9, "F {}", report.f_score);
}

#[test]
fn runs_are_deterministic_for_fixed_seed_and_ranks() {
    let g = weblike(WeblikeParams::web(1_500, 66)).graph;
    let cfg = DistConfig::with_variant(Variant::Etc { alpha: 0.25 });
    let a = run_distributed(&g, 3, &cfg);
    let b = run_distributed(&g, 3, &cfg);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.modularity, b.modularity);
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.phases, b.phases);
}

#[test]
fn traffic_accounting_is_plausible() {
    let g = lfr(LfrParams::small(1_000, 77)).graph;
    let p2 = run_distributed(&g, 2, &DistConfig::baseline());
    let p6 = run_distributed(&g, 6, &DistConfig::baseline());
    // More ranks → more point-to-point traffic (more ghost boundaries).
    assert!(
        p6.traffic.p2p_messages > p2.traffic.p2p_messages,
        "p2p at 6 ranks {} vs 2 ranks {}",
        p6.traffic.p2p_messages,
        p2.traffic.p2p_messages
    );
    // Single rank → no point-to-point bytes at all.
    let p1 = run_distributed(&g, 1, &DistConfig::baseline());
    assert_eq!(p1.traffic.p2p_bytes, 0);
}

#[test]
fn isolated_vertices_and_self_loops_survive_the_pipeline() {
    // A graph with an isolated vertex, a self loop, and two communities.
    let mut el = EdgeList::new(8);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)] {
        el.push(u, v, 1.0);
    }
    el.push(3, 3, 2.0); // self-loop island
                        // vertex 7 isolated entirely
    let g = Csr::from_edge_list(el);
    for p in [1, 2, 4] {
        let out = run_distributed(&g, p, &DistConfig::baseline());
        assert_eq!(out.assignment.len(), 8, "p={p}");
        // Triangles grouped.
        assert_eq!(out.assignment[0], out.assignment[1]);
        assert_eq!(out.assignment[4], out.assignment[5]);
        assert_ne!(out.assignment[0], out.assignment[4]);
        let q = modularity(&g, &out.assignment);
        assert!((out.modularity - q).abs() < 1e-9, "p={p}");
    }
}

#[test]
fn more_ranks_than_meaningful_work_is_safe() {
    // 12 vertices across 8 ranks: some ranks own 1-2 vertices.
    let mut el = EdgeList::new(12);
    for v in 0..11 {
        el.push(v, v + 1, 1.0);
    }
    let g = Csr::from_edge_list(el);
    let out = run_distributed(&g, 8, &DistConfig::baseline());
    assert_eq!(out.assignment.len(), 12);
    assert!(out.num_communities >= 1);
}
