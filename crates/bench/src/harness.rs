//! Single-run helpers shared by all experiment binaries.

use grappolo::{GrappoloConfig, ParallelLouvain};
use louvain_dist::{run_distributed, DistConfig, DistOutcome, Variant};
use louvain_graph::Csr;

/// One experiment run, flattened for table output.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub graph: String,
    pub variant: String,
    pub ranks: usize,
    pub wall_seconds: f64,
    /// Modeled job time ([`crate::model::job_seconds`]: critical path
    /// through the α-β cost model plus work-counter compute; the number
    /// comparable across rank counts). `None` for a shared-memory run,
    /// which has no message counters to price.
    pub modeled_seconds: Option<f64>,
    pub modularity: f64,
    pub phases: usize,
    pub iterations: usize,
}

impl RunRecord {
    /// The modeled job time of a distributed run.
    pub fn modeled(&self) -> f64 {
        self.modeled_seconds.expect("a distributed record")
    }
}

/// Run the distributed algorithm once and flatten the outcome.
pub fn run_dist_once(graph_name: &str, g: &Csr, ranks: usize, variant: Variant) -> RunRecord {
    let cfg = DistConfig::with_variant(variant);
    let out = run_distributed(g, ranks, &cfg);
    record_from(graph_name, variant.label(), ranks, &out)
}

/// Same, with an explicit config (custom τ etc.).
pub fn run_dist_cfg(graph_name: &str, g: &Csr, ranks: usize, cfg: &DistConfig) -> RunRecord {
    let out = run_distributed(g, ranks, cfg);
    record_from(graph_name, cfg.variant.label(), ranks, &out)
}

fn record_from(graph: &str, variant: String, ranks: usize, out: &DistOutcome) -> RunRecord {
    RunRecord {
        graph: graph.to_string(),
        variant,
        ranks,
        wall_seconds: out.wall.as_secs_f64(),
        modeled_seconds: Some(crate::model::job_seconds(&out.per_rank_stats, out.phases)),
        modularity: out.modularity,
        phases: out.phases,
        iterations: out.total_iterations,
    }
}

/// Run the shared-memory (Grappolo) baseline once.
pub fn run_shared_once(graph_name: &str, g: &Csr, cfg: &GrappoloConfig) -> RunRecord {
    let started = std::time::Instant::now();
    let result = ParallelLouvain::new(*cfg).run(g);
    let wall = started.elapsed().as_secs_f64();
    RunRecord {
        graph: graph_name.to_string(),
        variant: format!("grappolo({}t)", cfg.threads),
        ranks: 1,
        wall_seconds: wall,
        modeled_seconds: None,
        modularity: result.modularity,
        phases: result.phases,
        iterations: result.total_iterations,
    }
}

/// Access the full distributed outcome when the record is not enough
/// (convergence traces, breakdowns).
pub fn run_dist_full(g: &Csr, ranks: usize, cfg: &DistConfig) -> DistOutcome {
    run_distributed(g, ranks, cfg)
}

/// Shared driver for the Fig 5 / Fig 6 convergence studies: run Baseline
/// and the four ET/ETC variants on the named dataset, print per-phase
/// modularity and iteration traces, and write a TSV.
pub fn convergence_figure(graph: &str, figure: &str) {
    use crate::datasets::{dataset_by_name, Scale};
    use crate::Table;

    let scale = Scale::from_env();
    let ranks = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    let ds = dataset_by_name(graph).unwrap_or_else(|| panic!("unknown dataset {graph}"));
    let gen = ds.generate(scale);
    eprintln!(
        "# {graph}: |V|={} |E|={} on {ranks} ranks",
        gen.graph.num_vertices(),
        gen.graph.num_edges()
    );

    let variants = [
        Variant::Baseline,
        Variant::Et { alpha: 0.25 },
        Variant::Et { alpha: 0.75 },
        Variant::Etc { alpha: 0.25 },
        Variant::Etc { alpha: 0.75 },
    ];

    let mut tsv = String::from("variant\tphase\tmodularity\titerations\tcumulative_iterations\n");
    let mut summary = Table::new(
        format!("{figure}: convergence of {graph} on {ranks} ranks"),
        &["variant", "phases", "total_iters", "final_Q"],
    );
    for variant in variants {
        let out = run_dist_full(&gen.graph, ranks, &DistConfig::with_variant(variant));
        let mut cumulative = 0usize;
        let mut table = Table::new(
            format!("{figure}: {} per-phase trace", variant.label()),
            &["phase", "modularity", "iterations", "cumulative_iters"],
        );
        for (phase, stats) in out.per_rank_stats[0].iter().enumerate() {
            let iterations = stats.iteration_traces.len();
            cumulative += iterations;
            table.add_row(vec![
                phase.to_string(),
                format!("{:.4}", stats.modularity),
                iterations.to_string(),
                cumulative.to_string(),
            ]);
            tsv.push_str(&format!(
                "{}\t{}\t{:.6}\t{}\t{}\n",
                variant.label(),
                phase,
                stats.modularity,
                iterations,
                cumulative
            ));
        }
        table.print();
        summary.add_row(vec![
            variant.label(),
            out.phases.to_string(),
            out.total_iterations.to_string(),
            format!("{:.4}", out.modularity),
        ]);
        eprintln!("# {} done", variant.label());
    }

    summary.print();
    let path = crate::write_tsv(&format!("{figure}_convergence_{graph}"), &tsv).unwrap();
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::gen::{lfr, LfrParams};

    #[test]
    fn dist_record_is_populated() {
        let g = lfr(LfrParams::small(600, 3)).graph;
        let r = run_dist_once("test", &g, 2, Variant::Baseline);
        assert_eq!(r.graph, "test");
        assert_eq!(r.variant, "Baseline");
        assert_eq!(r.ranks, 2);
        assert!(r.modularity > 0.4);
        assert!(r.modeled() > 0.0);
        assert!(r.phases >= 1 && r.iterations >= 1);
    }

    #[test]
    fn shared_record_is_populated() {
        let g = lfr(LfrParams::small(600, 4)).graph;
        let r = run_shared_once("test", &g, &GrappoloConfig::default());
        assert!(r.modularity > 0.4);
        assert!(r.wall_seconds > 0.0);
        assert_eq!(r.modeled_seconds, None);
    }
}
