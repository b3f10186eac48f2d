//! A tour of the paper's future-work extensions, implemented in this
//! library: the MPI+OpenMP hybrid mode with its distance-1 colored
//! batches, and the delta ghost refresh, which stops sending the ghosts
//! that did not change — under ET, the frozen ones. (Neighborhood
//! collectives for the ghost refresh are not a flag: every refresh uses
//! them.)
//!
//! ```sh
//! cargo run --release --example extensions_tour
//! ```

use distributed_louvain::prelude::*;

fn show(name: &str, out: &DistOutcome) {
    println!(
        "{name:<28} Q={:.4}  iters={:<3} wall={:>8.2}ms  p2p={:>6} msgs / {:>6} KiB",
        out.modularity,
        out.total_iterations,
        out.wall.as_secs_f64() * 1e3,
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

    // ET with the full and the delta ghost refresh: the same result, and
    // the delta refresh never re-sends a vertex ET has frozen.
    println!();
    let et = DistConfig::with_variant(Variant::Et { alpha: 0.75 });
    let out = run_distributed(&g, ranks, &et);
    show("ET(0.75)", &out);
    let out = run_distributed(
        &g,
        ranks,
        &DistConfig {
            delta_ghost_refresh: true,
            ..et
        },
    );
    show("ET(0.75) + delta refresh", &out);
}
