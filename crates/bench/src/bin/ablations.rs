//! Ablation studies for the design choices called out in DESIGN.md and
//! for the paper's future-work extensions:
//!
//! 1. **singleton-swap guard** on/off — the Vite/Grappolo minimum-label
//!    rule that prevents cross-rank swap oscillation,
//! 2. **sweep order** — seeded shuffle vs raw index order,
//! 3. **input distribution** — edge-balanced (the paper's) vs naive
//!    vertex-balanced,
//! 4. **neighborhood collectives** vs full all-to-all for the ghost
//!    refresh (paper future work),
//! 5. **inactive-ghost pruning** under ET (paper §IV-B refinement).

use louvain_bench::datasets::{dataset_by_name, Scale};
use louvain_bench::Table;
use louvain_comm::RunConfig;
use louvain_dist::{
    run_distributed, run_distributed_partitioned, DistConfig, PartitionStrategy, Variant,
};
use louvain_graph::Csr;

fn row(t: &mut Table, name: &str, out: &louvain_dist::DistOutcome) {
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

fn ablate(title: &str, g: &Csr, ranks: usize, configs: &[(&str, DistConfig)]) -> Table {
    let mut t = Table::new(
        format!("{title} ({ranks} ranks)"),
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
    for (name, cfg) in configs {
        let out = run_distributed(g, ranks, cfg);
        row(&mut t, name, &out);
    }
    t
}

fn main() {
    let scale = Scale::from_env();
    let ranks = match scale {
        Scale::Quick => 4,
        _ => 8,
    };
    let social = dataset_by_name("soc-friendster")
        .unwrap()
        .generate(scale)
        .graph;
    let mesh = dataset_by_name("nlpkkt240").unwrap().generate(scale).graph;
    let web = dataset_by_name("uk-2007").unwrap().generate(scale).graph;
    eprintln!(
        "# inputs: social |V|={}, mesh |V|={}, web |V|={}",
        social.num_vertices(),
        mesh.num_vertices(),
        web.num_vertices()
    );

    // 1. Singleton-swap guard.
    let t = ablate(
        "Ablation 1: singleton-swap guard (social graph)",
        &social,
        ranks,
        &[
            ("guard on (default)", DistConfig::baseline()),
            (
                "guard off",
                DistConfig {
                    disable_singleton_guard: true,
                    ..DistConfig::baseline()
                },
            ),
        ],
    );
    t.print();
    t.write_tsv_named("ablation1_singleton_guard").unwrap();

    // 2. Sweep order (mesh graphs are where index order hurts).
    let t = ablate(
        "Ablation 2: sweep order (mesh graph)",
        &mesh,
        ranks,
        &[
            ("shuffled (default)", DistConfig::baseline()),
            (
                "index order",
                DistConfig {
                    index_order_sweep: true,
                    ..DistConfig::baseline()
                },
            ),
        ],
    );
    t.print();
    t.write_tsv_named("ablation2_sweep_order").unwrap();

    // 3. Partitioning strategy (skewed-degree web graph).
    {
        let mut t = Table::new(
            format!("Ablation 3: input distribution (web graph, {ranks} ranks)"),
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
        for (name, strategy) in [
            ("edge-balanced (paper)", PartitionStrategy::EdgeBalanced),
            ("vertex-balanced", PartitionStrategy::VertexBalanced),
        ] {
            let out = run_distributed_partitioned(
                &web,
                ranks,
                &DistConfig::baseline(),
                RunConfig::default(),
                strategy,
            );
            row(&mut t, name, &out);
        }
        t.print();
        t.write_tsv_named("ablation3_partitioning").unwrap();
    }

    // 4. Neighborhood collectives for the ghost refresh.
    let t = ablate(
        "Ablation 4: ghost refresh collective (web graph)",
        &web,
        ranks,
        &[
            ("all-to-all (paper)", DistConfig::baseline()),
            (
                "MPI-3 neighborhood",
                DistConfig {
                    neighborhood_collectives: true,
                    ..DistConfig::baseline()
                },
            ),
        ],
    );
    t.print();
    t.write_tsv_named("ablation4_neighborhood").unwrap();

    // 5. Inactive-ghost pruning under ET.
    let t = ablate(
        "Ablation 5: inactive-ghost pruning with ET(0.75) (mesh graph)",
        &mesh,
        ranks,
        &[
            (
                "ET(0.75)",
                DistConfig::with_variant(Variant::Et { alpha: 0.75 }),
            ),
            (
                "ET(0.75) + pruning",
                DistConfig {
                    prune_inactive_ghosts: true,
                    ..DistConfig::with_variant(Variant::Et { alpha: 0.75 })
                },
            ),
        ],
    );
    t.print();
    t.write_tsv_named("ablation5_ghost_pruning").unwrap();
}
