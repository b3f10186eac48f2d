//! Section V-A profile — the HPCToolkit-style time breakdown of a
//! Baseline run: fraction of time in the Louvain iteration body vs graph
//! rebuild, and within the iteration body the split between community
//! communication, the modularity reduction, and compute.
//!
//! Expected shape (paper, soc-friendster on 256 ranks): ~98% iteration
//! body (34% communication, 40% reduction, 22% compute), ~1% rebuild,
//! ~1% input I/O. The paper's comm-heavy split is a *scale* phenomenon:
//! per-rank compute shrinks ~linearly with ranks while per-message
//! latency does not — so this binary sweeps rank counts to show the
//! communication share rising toward the paper's regime.

use louvain_bench::datasets::{dataset_by_name, Scale};
use louvain_bench::{harness, model, Table};
use louvain_dist::DistConfig;

fn main() {
    let scale = Scale::from_env();
    let rank_counts: Vec<usize> = match scale {
        Scale::Quick => vec![4, 16],
        _ => vec![4, 16, 64, 128],
    };
    let ds = dataset_by_name("soc-friendster").unwrap();
    let gen = ds.generate(scale);
    eprintln!(
        "# soc-friendster stand-in: |V|={} |E|={}",
        gen.graph.num_vertices(),
        gen.graph.num_edges()
    );

    let mut table = Table::new(
        "Time breakdown (modeled critical path), Baseline",
        &[
            "ranks",
            "compute_%",
            "comm_%",
            "reduce_%",
            "rebuild_%",
            "iter_body_%",
            "total_s",
        ],
    );

    for &ranks in &rank_counts {
        let out = harness::run_dist_full(&gen.graph, ranks, &DistConfig::baseline());
        let (compute, comm, reduce, rebuild) = model::breakdown(&out.per_rank_stats, out.phases);
        let total = compute + comm + reduce + rebuild;
        let pct = |x: f64| format!("{:.1}%", 100.0 * x / total);
        table.add_row(vec![
            ranks.to_string(),
            pct(compute),
            pct(comm),
            pct(reduce),
            pct(rebuild),
            pct(compute + comm + reduce),
            format!("{total:.4}"),
        ]);
        eprintln!("# ranks={ranks} done");
    }

    table.print();
    println!(
        "paper (256 ranks): iteration body ~98% (34% comm, 40% reduce, 22% compute), rebuild ~1%"
    );
    let path = table.write_tsv_named("breakdown_profile").unwrap();
    println!("wrote {}", path.display());
}
