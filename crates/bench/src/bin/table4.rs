//! Table IV — best speedup over the Baseline version and which variant
//! achieves it, per input graph.
//!
//! The paper computes "speedup as the ratio between the Baseline
//! execution time on 16–128 processes and the execution time for the
//! fastest running version observed for a particular input". We sweep
//! the heuristic variants at a fixed rank count and report
//! `baseline_time / fastest_variant_time` and the winning variant.
//!
//! Expected shape (paper Table IV): ET/ETC wins on most inputs; mesh-like
//! graphs see the largest factors (channel: 46×), web graphs the
//! smallest (sk-2005: 1.8×); Threshold Cycling wins where the run has
//! only a few phases (soc-sinaweibo, nlpkkt240).

use louvain_bench::datasets::{registry, Scale};
use louvain_bench::{harness, Table};
use louvain_dist::{DistConfig, Variant};

fn main() {
    let scale = Scale::from_env();
    let ranks = match scale {
        Scale::Quick => 4,
        _ => 16,
    };

    let mut table = Table::new(
        format!("Table IV: best speedup over Baseline ({ranks} ranks)"),
        &["graph", "best_speedup", "version", "baseline_Q", "best_Q"],
    );

    for ds in registry() {
        let gen = ds.generate(scale);
        let base = harness::run_dist_once(ds.name, &gen.graph, ranks, Variant::Baseline);
        let mut best: Option<louvain_bench::RunRecord> = None;
        for variant in DistConfig::paper_variants() {
            if variant == Variant::Baseline {
                continue;
            }
            let r = harness::run_dist_once(ds.name, &gen.graph, ranks, variant);
            if best.as_ref().is_none_or(|b| r.modeled() < b.modeled()) {
                best = Some(r);
            }
        }
        let best = best.unwrap();
        table.add_row(vec![
            ds.name.to_string(),
            format!("{:.2}x", base.modeled() / best.modeled()),
            best.variant.clone(),
            format!("{:.3}", base.modularity),
            format!("{:.3}", best.modularity),
        ]);
        eprintln!("# {} done (winner {})", ds.name, best.variant);
    }

    table.print();
    let path = table.write_tsv_named("table4_best_speedup").unwrap();
    println!("wrote {}", path.display());
}
