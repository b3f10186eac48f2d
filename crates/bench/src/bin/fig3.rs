//! Figure 3 — strong scaling of the distributed Louvain implementation:
//! execution time for every Table II graph over a sweep of process
//! counts, for all six variants (Baseline, Threshold Cycling,
//! ET/ETC × α∈{0.25, 0.75}).
//!
//! Times are the modeled job times (α-β communication + work-counter
//! compute on the critical path); the paper's wall times on Cori cannot
//! be reproduced on a laptop, but the *shape* — which variant wins, where
//! scaling flattens — can. Past the largest rank count the host runs,
//! each variant's curve continues to 4096 ranks as `modeled` rows:
//! [`louvain_dist::model::extrapolate`] off that run's counters. Run with
//! `cargo run --release -p louvain-bench --bin fig3 [graph ...]` to
//! restrict the graph set, and `LOUVAIN_SCALE=quick` for a fast pass.

use louvain_bench::datasets::{registry, Scale};
use louvain_bench::{harness, Table};
use louvain_dist::{model, DistConfig, DistOutcome};

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let datasets: Vec<_> = if args.is_empty() {
        registry()
    } else {
        registry()
            .into_iter()
            .filter(|d| args.iter().any(|a| a.eq_ignore_ascii_case(d.name)))
            .collect()
    };
    let ranks = match scale {
        Scale::Quick => vec![1usize, 2, 4, 8],
        _ => vec![1usize, 2, 4, 8, 16, 32, 64],
    };
    let variants = DistConfig::paper_variants();

    let mut tsv = String::from(
        "graph\tvariant\tranks\tmodeled_s\twall_s\tmodularity\tphases\titerations\tsource\n",
    );
    for ds in &datasets {
        let gen = ds.generate(scale);
        let mut table = Table::new(
            format!(
                "Fig 3: strong scaling, {} (|V|={}, |E|={})",
                ds.name,
                gen.graph.num_vertices(),
                gen.graph.num_edges()
            ),
            &[
                "variant",
                "ranks",
                "modeled_s",
                "modularity",
                "phases",
                "iters",
                "source",
            ],
        );
        for &variant in &variants {
            let mut row =
                |p: usize, modeled_s: f64, wall_s: f64, out: &DistOutcome, source: &str| {
                    table.add_row(vec![
                        variant.label(),
                        p.to_string(),
                        format!("{modeled_s:.4}"),
                        format!("{:.4}", out.modularity),
                        out.phases.to_string(),
                        out.total_iterations.to_string(),
                        source.to_string(),
                    ]);
                    tsv.push_str(&format!(
                        "{}\t{}\t{p}\t{modeled_s:.6}\t{wall_s:.6}\t{:.6}\t{}\t{}\t{source}\n",
                        ds.name,
                        variant.label(),
                        out.modularity,
                        out.phases,
                        out.total_iterations
                    ));
                };
            let cfg = DistConfig::with_variant(variant);
            let mut last = None;
            for &p in &ranks {
                let out = harness::run_dist_full(&gen.graph, p, &cfg);
                row(
                    p,
                    out.modeled_seconds,
                    out.wall.as_secs_f64(),
                    &out,
                    "measured",
                );
                last = Some((p, out));
            }
            // The tail no host runs: 1/P compute and the 1D-cut α-β comm
            // off the largest measured run.
            let (from, out) = last.expect("at least one rank count");
            let (measured_compute, ..) = out.modeled_breakdown();
            let iterations = out.total_iterations;
            for to in [128usize, 256, 512, 1024, 2048, 4096] {
                let (compute, comm) =
                    model::extrapolate(&out.traffic, measured_compute, iterations, from, to);
                row(to, compute + comm, f64::NAN, &out, "modeled");
            }
            eprintln!("# {} / {} done", ds.name, variant.label());
        }
        table.print();
    }

    let path = louvain_bench::write_tsv("fig3_strong_scaling", &tsv).unwrap();
    println!("wrote {}", path.display());
}
