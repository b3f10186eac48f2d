//! Figure 4 — weak scaling of the Baseline distributed implementation on
//! SSCA#2 graphs: with work per rank fixed, execution time should stay
//! nearly constant as graphs and rank counts grow together.

use louvain_bench::datasets::Scale;
use louvain_bench::{harness, Table};
use louvain_dist::Variant;
use louvain_graph::gen::{ssca2, Ssca2Params};

fn main() {
    let scale = Scale::from_env();
    let base: u64 = match scale {
        Scale::Quick => 2_000,
        Scale::Default => 6_000,
        Scale::Full => 24_000,
    };

    let mut table = Table::new(
        "Fig 4: weak scaling (Baseline), SSCA#2, fixed work per rank",
        &[
            "ranks",
            "vertices",
            "modeled_s",
            "modularity",
            "flatness_vs_p1",
        ],
    );

    let mut first_time = None;
    let mut tsv = String::from("ranks\tvertices\tmodeled_s\tmodularity\n");
    for (i, p) in [1usize, 2, 4, 8, 16].into_iter().enumerate() {
        let n = base * p as u64;
        let gen = ssca2(Ssca2Params {
            n,
            max_clique_size: 25,
            inter_clique_prob: 0.02,
            seed: 600 + i as u64,
        });
        let r = harness::run_dist_once("ssca2", &gen.graph, p, Variant::Baseline);
        let t1 = *first_time.get_or_insert(r.modeled());
        table.add_row(vec![
            p.to_string(),
            n.to_string(),
            format!("{:.4}", r.modeled()),
            format!("{:.6}", r.modularity),
            format!("{:.2}x", r.modeled() / t1),
        ]);
        tsv.push_str(&format!(
            "{p}\t{n}\t{:.6}\t{:.6}\n",
            r.modeled(),
            r.modularity
        ));
        eprintln!("# ranks={p} done");
    }

    table.print();
    let path = louvain_bench::write_tsv("fig4_weak_scaling", &tsv).unwrap();
    println!("wrote {}", path.display());
}
