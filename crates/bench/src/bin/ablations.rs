//! Ablation of inactive-ghost pruning under ET (the paper's §IV-B
//! refinement): ET(0.75) with and without pruning on the mesh graph.
//! It keeps the number 5 of EXPERIMENTS.md "Ablations", whose rows 1–4
//! measured the switches that were deleted once each had one right
//! value (singleton-swap guard, sweep order, input distribution, ghost
//! refresh transport).

use louvain_bench::datasets::{dataset_by_name, Scale};
use louvain_bench::Table;
use louvain_dist::{run_distributed, DistConfig, Variant};

fn main() {
    let scale = Scale::from_env();
    let ranks = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    let mesh = dataset_by_name("nlpkkt240").unwrap().generate(scale).graph;
    eprintln!("# input: mesh |V|={}", mesh.num_vertices());

    let mut t = Table::new(
        format!("Ablation 5: inactive-ghost pruning with ET(0.75) (mesh graph) ({ranks} ranks)"),
        &[
            "config",
            "Q",
            "iters",
            "phases",
            "modeled_s",
            "p2p_msgs",
            "p2p_KiB",
        ],
    );
    let et = DistConfig::with_variant(Variant::Et { alpha: 0.75 });
    let pruned = DistConfig {
        prune_inactive_ghosts: true,
        ..et.clone()
    };
    for (name, cfg) in [("ET(0.75)", et), ("ET(0.75) + pruning", pruned)] {
        let out = run_distributed(&mesh, ranks, &cfg);
        t.add_row(vec![
            name.to_string(),
            format!("{:.4}", out.modularity),
            out.total_iterations.to_string(),
            out.phases.to_string(),
            format!("{:.4}", out.modeled_seconds),
            out.traffic.p2p_messages.to_string(),
            (out.traffic.p2p_bytes / 1024).to_string(),
        ]);
    }
    t.print();
    t.write_tsv_named("ablation5_ghost_pruning").unwrap();
}
