//! Quickstart: generate a graph with planted communities, run the
//! distributed Louvain algorithm on four simulated ranks, and compare
//! against the serial reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distributed_louvain::dist::serial_louvain;
use distributed_louvain::prelude::*;

fn main() {
    // An LFR benchmark graph: power-law degrees, power-law community
    // sizes, 10% of each vertex's edges leaving its community.
    let generated = lfr(LfrParams::small(5_000, 42));
    let graph = generated.graph;
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Distributed Louvain on 4 simulated ranks (Baseline variant of the
    // IPDPS 2018 paper: no heuristics).
    let outcome = run_distributed(&graph, 4, &DistConfig::baseline());
    println!(
        "distributed (4 ranks): Q = {:.4}, {} communities, {} phases, {} iterations",
        outcome.modularity, outcome.num_communities, outcome.phases, outcome.total_iterations
    );
    println!("  wall = {:.2} ms", outcome.wall.as_secs_f64() * 1e3);
    println!(
        "  traffic: {} p2p messages, {} KiB, {} collectives",
        outcome.traffic.p2p_messages,
        outcome.traffic.p2p_bytes / 1024,
        outcome.traffic.collective_calls
    );

    // The serial reference (Algorithm 1 of the paper).
    let serial = serial_louvain(&graph, 1e-6);
    println!(
        "serial reference:      Q = {:.4}, {} phases, {} iterations",
        serial.modularity, serial.phases, serial.total_iterations
    );

    // The heuristic variants of Section IV-B.
    for variant in [
        Variant::ThresholdCycling,
        Variant::Et { alpha: 0.25 },
        Variant::Etc { alpha: 0.75 },
    ] {
        let out = run_distributed(&graph, 4, &DistConfig::with_variant(variant));
        println!(
            "{:<22} Q = {:.4}, wall {:.2} ms, {} iterations",
            variant.label(),
            out.modularity,
            out.wall.as_secs_f64() * 1e3,
            out.total_iterations
        );
    }
}
