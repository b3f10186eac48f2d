//! A tour of the paper's future-work extensions, implemented in this
//! library and toggled through `DistConfig` flags: inactive-ghost
//! pruning, vertex following, and the MPI+OpenMP hybrid mode with its
//! distance-1 colored batches. (The fourth, neighborhood collectives for
//! the ghost refresh, is not a flag: every refresh uses them.)
//!
//! ```sh
//! cargo run --release --example extensions_tour
//! ```

use distributed_louvain::prelude::*;

fn show(name: &str, out: &DistOutcome) {
    println!(
        "{name:<28} Q={:.4}  iters={:<3} modeled={:>8.2}ms  p2p={:>6} msgs / {:>6} KiB",
        out.modularity,
        out.total_iterations,
        out.modeled_seconds * 1e3,
        out.traffic.p2p_messages,
        out.traffic.p2p_bytes / 1024,
    );
}

fn main() {
    let ranks = 8;
    let g = grid3d(Grid3dParams::cube(10_000, 3)).graph;
    println!(
        "mesh graph: {} vertices, {} edges, {} ranks\n",
        g.num_vertices(),
        g.num_edges(),
        ranks
    );

    let base = run_distributed(&g, ranks, &DistConfig::baseline());
    show("Baseline (paper Alg. 2)", &base);

    // Vertex following: pendants pre-merged before the first sweep.
    let out = run_distributed(
        &g,
        ranks,
        &DistConfig {
            vertex_following: true,
            ..DistConfig::baseline()
        },
    );
    show("+ vertex following", &out);

    // Hybrid MPI+OpenMP: half the ranks, two threads each, sweeping in
    // distance-1 colored batches.
    let out = run_distributed(
        &g,
        ranks / 2,
        &DistConfig {
            threads_per_rank: 2,
            ..DistConfig::baseline()
        },
    );
    show("hybrid p/2 x 2 threads", &out);

    // ET with and without inactive-ghost pruning.
    println!();
    let et = DistConfig::with_variant(Variant::Et { alpha: 0.75 });
    let out = run_distributed(&g, ranks, &et);
    show("ET(0.75)", &out);
    let out = run_distributed(
        &g,
        ranks,
        &DistConfig {
            prune_inactive_ghosts: true,
            ..et
        },
    );
    show("ET(0.75) + ghost pruning", &out);
}
