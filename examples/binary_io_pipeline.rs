//! The paper's full input pipeline: convert a graph to the binary
//! edge-list format, have every rank read only its slice of the file
//! (standing in for MPI I/O), redistribute edges so each rank owns
//! roughly the same number ("no clever graph partitioning"), and run
//! distributed Louvain on the result.
//!
//! ```sh
//! cargo run --release --example binary_io_pipeline
//! ```

use distributed_louvain::comm::{run as run_ranks, ReduceOp};
use distributed_louvain::dist::runner::run_on_rank;
use distributed_louvain::dist::DistConfig;
use distributed_louvain::graph::dist::build_distributed;
use distributed_louvain::graph::{binio, LocalGraph};
use distributed_louvain::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("louvain-binary-io-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("web.graph");

    // 1. Convert a generated web graph to the binary edge-list format.
    let generated = weblike(WeblikeParams::web(10_000, 3));
    let edge_list = generated.graph.to_edge_list();
    binio::write_edge_list(&path, &edge_list).unwrap();
    let header = binio::read_header(&path).unwrap();
    println!(
        "wrote {} ({} vertices, {} edge records, {} KiB)",
        path.display(),
        header.num_vertices,
        header.num_edges,
        std::fs::metadata(&path).unwrap().len() / 1024
    );

    // 2. Distributed load + community detection: each rank reads its own
    //    record range, edges are redistributed edge-balanced, Louvain runs.
    let p = 4;
    let cfg = DistConfig::baseline();
    let outcomes = run_ranks(p, |comm| {
        let (lo, hi) = binio::rank_record_range(header.num_edges, comm.rank(), comm.size());
        let my_edges = binio::read_edge_range(&path, lo, hi).unwrap();
        println!(
            "rank {} read records {lo}..{hi} ({} edges)",
            comm.rank(),
            my_edges.len()
        );
        let lg: LocalGraph = build_distributed(comm, header.num_vertices, my_edges);
        let local_arcs = lg.num_local_arcs() as u64;
        let max_arcs = comm.all_reduce(local_arcs, ReduceOp::Max);
        let min_arcs = comm.all_reduce(local_arcs, ReduceOp::Min);
        if comm.rank() == 0 {
            println!(
                "edge balance after redistribution: min {min_arcs} / max {max_arcs} arcs per rank"
            );
        }
        run_on_rank(comm, lg, &cfg, &ResilOptions::none())
    });

    // 3. Merge and report.
    let assignment: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.assignment.iter().copied())
        .collect();
    let q_check = distributed_louvain::graph::modularity(&generated.graph, &assignment);
    println!(
        "distributed Louvain from file: Q = {:.4} (recomputed {:.4}), {} phases",
        outcomes[0].modularity, q_check, outcomes[0].phases
    );

    std::fs::remove_file(&path).ok();
}
