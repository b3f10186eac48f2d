//! Table III — distributed vs shared memory on a single node for
//! soc-friendster, 4–64 threads.
//!
//! The shared-memory column is the Grappolo baseline on a `WorkerPool` of
//! the given size (wall time). The distributed column runs the same
//! thread budget as simulated ranks and reports the modeled job time
//! (wall time on an oversubscribed host is not meaningful — see
//! DESIGN.md §2).
//!
//! Expected shape (paper): shared memory wins at equal thread counts
//! (~2.3× at 32 threads), but the distributed version *scales better*
//! with thread count (~4× from 4→64 threads vs ~2.2× for shared memory).

use grappolo::GrappoloConfig;
use louvain_bench::datasets::{dataset_by_name, Scale};
use louvain_bench::{harness, Table};
use louvain_dist::Variant;

fn main() {
    let scale = Scale::from_env();
    let ds = dataset_by_name("soc-friendster").unwrap();
    let gen = ds.generate(scale);
    eprintln!(
        "# soc-friendster stand-in: |V|={} |E|={}",
        gen.graph.num_vertices(),
        gen.graph.num_edges()
    );

    let mut table = Table::new(
        "Table III: distributed vs shared memory, single node, soc-friendster stand-in",
        &[
            "threads",
            "dist(p=T,t=1)_s",
            "dist(pxt, t=4)_s",
            "dist_Q",
            "shared_wall_s",
            "shared_Q",
        ],
    );

    for threads in [4usize, 8, 16, 32, 64] {
        // Pure MPI: one rank per thread.
        let dist = harness::run_dist_once("soc-friendster", &gen.graph, threads, Variant::Baseline);
        // Hybrid MPI+OpenMP, the paper's configuration ("we set either 2
        // or 4 threads per process"): T/4 ranks × 4 threads each.
        let hybrid_cfg = louvain_dist::DistConfig {
            threads_per_rank: 4,
            ..louvain_dist::DistConfig::baseline()
        };
        let hybrid = harness::run_dist_cfg(
            "soc-friendster",
            &gen.graph,
            (threads / 4).max(1),
            &hybrid_cfg,
        );
        let shared = harness::run_shared_once(
            "soc-friendster",
            &gen.graph,
            &GrappoloConfig {
                threads,
                ..Default::default()
            },
        );
        table.add_row(vec![
            threads.to_string(),
            format!("{:.4}", dist.modeled()),
            format!("{:.4}", hybrid.modeled()),
            format!("{:.4}", dist.modularity),
            format!("{:.4}", shared.wall_seconds),
            format!("{:.4}", shared.modularity),
        ]);
        eprintln!("# threads={threads} done");
    }

    table.print();
    let path = table.write_tsv_named("table3_single_node").unwrap();
    println!("wrote {}", path.display());
}
