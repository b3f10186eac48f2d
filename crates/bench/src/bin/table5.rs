//! Table V — the GTgraph SSCA#2 weak-scaling suite: graph dimensions,
//! modularity, and the process count each graph runs on (work per rank
//! held constant). Paper: 5M→150M vertices on 1→512 processes with
//! modularity 0.99998+ throughout.

use louvain_bench::datasets::Scale;
use louvain_bench::{harness, Table};
use louvain_dist::Variant;
use louvain_graph::gen::{ssca2, Ssca2Params};

/// The weak-scaling series: ~`BASE_N` vertices of SSCA#2 work per rank.
pub fn series(scale: Scale) -> Vec<(u64, usize)> {
    let base: u64 = match scale {
        Scale::Quick => 2_000,
        Scale::Default => 6_000,
        Scale::Full => 24_000,
    };
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| (base * p as u64, p))
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let mut table = Table::new(
        "Table V: SSCA#2 weak-scaling graphs (max clique 25, low inter-clique prob)",
        &[
            "name",
            "vertices",
            "edges",
            "modularity",
            "ranks",
            "modeled_s",
        ],
    );

    let mut tsv = String::from("name\tvertices\tedges\tmodularity\tranks\tmodeled_s\n");
    for (i, (n, p)) in series(scale).into_iter().enumerate() {
        let gen = ssca2(Ssca2Params {
            n,
            max_clique_size: 25,
            inter_clique_prob: 0.02,
            seed: 500 + i as u64,
        });
        let r = harness::run_dist_once(
            &format!("Graph#{}", i + 1),
            &gen.graph,
            p,
            Variant::Baseline,
        );
        table.add_row(vec![
            format!("Graph#{}", i + 1),
            gen.graph.num_vertices().to_string(),
            gen.graph.num_edges().to_string(),
            format!("{:.6}", r.modularity),
            p.to_string(),
            format!("{:.4}", r.modeled()),
        ]);
        tsv.push_str(&format!(
            "Graph#{}\t{}\t{}\t{:.6}\t{}\t{:.6}\n",
            i + 1,
            gen.graph.num_vertices(),
            gen.graph.num_edges(),
            r.modularity,
            p,
            r.modeled()
        ));
        eprintln!("# Graph#{} done ({} ranks)", i + 1, p);
    }

    table.print();
    let path = louvain_bench::write_tsv("table5_weak_scaling", &tsv).unwrap();
    println!("wrote {}", path.display());
}
