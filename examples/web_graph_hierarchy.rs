//! Web-graph clustering with threshold cycling — mirrors the paper's
//! uk-2007 / arabic-2005 workloads: host-structured web crawls where the
//! Louvain hierarchy is deep and early phases dominate runtime.
//!
//! Shows the per-phase view: how the graph compresses phase by phase,
//! the τ used by the cycling schedule, and the modularity trajectory.
//!
//! ```sh
//! cargo run --release --example web_graph_hierarchy
//! ```

use distributed_louvain::prelude::*;

fn main() {
    let generated = weblike(WeblikeParams::web(30_000, 11));
    let graph = generated.graph;
    println!(
        "web graph: {} pages, {} links",
        graph.num_vertices(),
        graph.num_edges()
    );

    for variant in [Variant::Baseline, Variant::ThresholdCycling] {
        let out = run_distributed(&graph, 8, &DistConfig::with_variant(variant));
        println!(
            "\n{} — Q = {:.4}, {} communities, wall {:.2} ms",
            variant.label(),
            out.modularity,
            out.num_communities,
            out.wall.as_secs_f64() * 1e3
        );
        println!(
            "{:>5} {:>10} {:>8} {:>8} {:>10}",
            "phase", "vertices", "tau", "iters", "Q"
        );
        for stats in &out.per_rank_stats[0] {
            println!(
                "{:>5} {:>10} {:>8.0e} {:>8} {:>10.4}",
                stats.phase,
                stats.num_vertices,
                stats.tau,
                stats.iteration_traces.len(),
                stats.modularity
            );
        }
    }

    // Quality vs the planted host structure.
    let truth = generated.ground_truth.unwrap();
    let out = run_distributed(&graph, 8, &DistConfig::baseline());
    let report = distributed_louvain::dist::f_score(&truth, &out.assignment);
    println!(
        "\nvs planted hosts: precision {:.3}, recall {:.3}, F-score {:.3}",
        report.precision, report.recall, report.f_score
    );
}
