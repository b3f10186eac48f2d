//! Table VI — ET(0.25) combined with Threshold Cycling vs plain
//! ET(0.25) on the soc-friendster stand-in over a sweep of rank counts.
//!
//! Expected shape (paper): the combination wins by a consistent ~10–12%
//! at every process count.

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

    let ranks = match scale {
        Scale::Quick => vec![2usize, 4, 8],
        _ => vec![4usize, 8, 16, 32, 64],
    };

    let mut table = Table::new(
        "Table VI: ET(0.25) vs ET(0.25)+Threshold Cycling, soc-friendster stand-in",
        &[
            "ranks",
            "ET(0.25)_s",
            "ET+Cycling_s",
            "gain_%",
            "Q_et",
            "Q_combo",
        ],
    );

    for p in ranks {
        let et =
            harness::run_dist_once("soc-friendster", &gen.graph, p, Variant::Et { alpha: 0.25 });
        let combo = harness::run_dist_once(
            "soc-friendster",
            &gen.graph,
            p,
            Variant::EtPlusCycling { alpha: 0.25 },
        );
        let gain = 100.0 * (et.modeled() - combo.modeled()) / et.modeled();
        table.add_row(vec![
            p.to_string(),
            format!("{:.4}", et.modeled()),
            format!("{:.4}", combo.modeled()),
            format!("{gain:.0}%"),
            format!("{:.3}", et.modularity),
            format!("{:.3}", combo.modularity),
        ]);
        eprintln!("# ranks={p} done");
    }

    table.print();
    let path = table.write_tsv_named("table6_et_plus_cycling").unwrap();
    println!("wrote {}", path.display());
}
