//! Cross-implementation parity: the serial reference (Algorithm 1), the
//! shared-memory Grappolo baseline, and the distributed algorithm must
//! agree on solution quality across graph families, and the distributed
//! answer must be self-consistent at every rank count.

use distributed_louvain::dist::{run_distributed, serial_louvain, DistConfig};
use distributed_louvain::graph::modularity;
use distributed_louvain::prelude::*;

fn families(seed: u64) -> Vec<(&'static str, Csr)> {
    vec![
        ("lfr", lfr(LfrParams::small(2_000, seed)).graph),
        (
            "ssca2",
            ssca2(Ssca2Params {
                n: 2_000,
                max_clique_size: 25,
                inter_clique_prob: 0.03,
                seed,
            })
            .graph,
        ),
        ("weblike", weblike(WeblikeParams::web(2_000, seed)).graph),
        ("grid3d", grid3d(Grid3dParams::cube(2_000, seed)).graph),
    ]
}

#[test]
fn distributed_matches_serial_quality_across_families() {
    for (name, g) in families(31) {
        let serial = serial_louvain(&g, 1e-6);
        for p in [1, 2, 4] {
            let dist = run_distributed(&g, p, &DistConfig::baseline());
            assert!(
                dist.modularity > serial.modularity - 0.06,
                "{name} p={p}: dist {} vs serial {}",
                dist.modularity,
                serial.modularity
            );
        }
    }
}

#[test]
fn grappolo_matches_serial_quality_across_families() {
    for (name, g) in families(32) {
        let serial = serial_louvain(&g, 1e-6);
        let shared = ParallelLouvain::new(GrappoloConfig::default()).run(&g);
        assert!(
            shared.modularity > serial.modularity - 0.06,
            "{name}: shared {} vs serial {}",
            shared.modularity,
            serial.modularity
        );
    }
}

#[test]
fn reported_modularity_always_matches_recomputation() {
    for (name, g) in families(33) {
        for p in [1, 3] {
            let dist = run_distributed(&g, p, &DistConfig::baseline());
            let q = modularity(&g, &dist.assignment);
            assert!(
                (dist.modularity - q).abs() < 1e-9,
                "{name} p={p}: reported {} vs recomputed {q}",
                dist.modularity
            );
        }
        let shared = ParallelLouvain::new(GrappoloConfig::default()).run(&g);
        let q = modularity(&g, &shared.assignment);
        assert!(
            (shared.modularity - q).abs() < 1e-9,
            "{name}: grappolo reported {} vs recomputed {q}",
            shared.modularity
        );
    }
}

#[test]
fn single_rank_distributed_equals_serial_exactly() {
    // With one rank there are no ghosts and no lag: the distributed sweep
    // is the serial algorithm (same gain formula, same shuffled order
    // discipline up to seeds), so quality must agree very tightly.
    for (name, g) in families(34) {
        let serial = serial_louvain(&g, 1e-6);
        let dist = run_distributed(&g, 1, &DistConfig::baseline());
        assert!(
            (dist.modularity - serial.modularity).abs() < 0.05,
            "{name}: dist(1) {} vs serial {}",
            dist.modularity,
            serial.modularity
        );
    }
}

#[test]
fn weighted_graphs_agree_across_implementations() {
    // Coarse graphs are weighted by construction, but the INPUT can be
    // weighted too: scale every edge of a planted graph by a
    // deterministic non-uniform factor and check all three
    // implementations still find the structure.
    let gen = lfr(LfrParams::small(1_500, 40));
    let mut el = EdgeList::new(gen.graph.num_vertices() as u64);
    for u in 0..gen.graph.num_vertices() as u64 {
        for (v, w) in gen.graph.neighbors(u) {
            if u <= v {
                let scale = 0.5 + ((u * 7 + v * 13) % 10) as f64 / 4.0;
                el.push(u, v, w * scale);
            }
        }
    }
    let g = Csr::from_edge_list(el);
    let serial = serial_louvain(&g, 1e-6);
    let shared = ParallelLouvain::new(GrappoloConfig::default()).run(&g);
    let dist = run_distributed(&g, 3, &DistConfig::baseline());
    assert!(serial.modularity > 0.5);
    assert!(shared.modularity > serial.modularity - 0.06);
    assert!(dist.modularity > serial.modularity - 0.06);
    // Reported values must be exact for the returned assignments.
    assert!((modularity(&g, &dist.assignment) - dist.modularity).abs() < 1e-9);
    assert!((modularity(&g, &shared.assignment) - shared.modularity).abs() < 1e-9);
}

#[test]
fn modularity_is_stable_across_rank_counts() {
    let g = lfr(LfrParams::small(3_000, 35)).graph;
    let qs: Vec<f64> = [1usize, 2, 3, 4, 6, 8]
        .iter()
        .map(|&p| run_distributed(&g, p, &DistConfig::baseline()).modularity)
        .collect();
    let max = qs.iter().cloned().fold(f64::MIN, f64::max);
    let min = qs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.05, "rank-count spread too wide: {qs:?}");
}

#[test]
fn paper_claim_quality_comparable_to_shared_memory() {
    // "Modularities obtained by the different versions of our parallel
    // algorithm are in most cases comparable to the best modularities
    // obtained by a state-of-the-art multithreaded Louvain implementation."
    let g = lfr(LfrParams::small(4_000, 36)).graph;
    let shared = ParallelLouvain::new(GrappoloConfig::default()).run(&g);
    for variant in DistConfig::paper_variants() {
        let dist = run_distributed(&g, 4, &DistConfig::with_variant(variant));
        // Tolerance per variant: the paper reports <1% difference for the
        // Baseline, <3% for Threshold Cycling, and up to ~4% for
        // aggressive ET on billion-edge graphs. Heuristic losses amplify
        // on graphs five orders of magnitude smaller, so the α-variants
        // get wider (but still bounded) margins.
        let tolerance = match variant.alpha() {
            None => 0.03,
            Some(a) if a <= 0.5 => 0.06,
            Some(_) => 0.15,
        };
        assert!(
            dist.modularity > shared.modularity - tolerance,
            "{}: {} vs shared {} (tolerance {tolerance})",
            variant.label(),
            dist.modularity,
            shared.modularity
        );
    }
}

/// The move kernel's trajectories, recorded on the commit before the
/// sequential, relaxed and colored drivers were put on one scoring
/// function: FNV-1a of the assignment, modularity bits and total
/// iterations per graph and schedule. The full and delta ghost refresh
/// share a pin, as do colored t=1 and t=2. A change to scan order,
/// tie-breaking, accumulation order or the refresh policy moves at
/// least one of them.
#[test]
fn kernel_trajectories_are_pinned() {
    use distributed_louvain::dist::{SweepMode, Variant};
    use distributed_louvain::resil::fnv1a64;

    let graphs: [(&str, Csr); 3] = [
        ("lfr_3k", lfr(LfrParams::small(3_000, 7)).graph),
        (
            "ssca2_4k",
            ssca2(Ssca2Params {
                n: 4_000,
                max_clique_size: 50,
                inter_clique_prob: 0.05,
                seed: 9,
            })
            .graph,
        ),
        ("rmat_s11_ef8", rmat(RmatParams::social(11, 8, 5)).graph),
    ];
    let delta = |on: bool| DistConfig {
        delta_ghost_refresh: on,
        ..DistConfig::baseline()
    };
    let colored = |t: usize| DistConfig {
        sweep: SweepMode::Colored,
        threads_per_rank: t,
        ..DistConfig::baseline()
    };
    let et = DistConfig::with_variant(Variant::Et { alpha: 0.25 });
    // (ranks, configs sharing one pin), in the column order of `PINS`.
    let schedules: [(usize, Vec<DistConfig>); 4] = [
        (1, vec![delta(false), delta(true)]),
        (2, vec![delta(false), delta(true)]),
        (2, vec![colored(1), colored(2)]),
        (2, vec![et]),
    ];
    type Pin = (u64, u64, usize);
    const SSCA2: Pin = (0x5cf794233b67ae6c, 0x3fefa1cf2a17de82, 5);
    const PINS: [[Pin; 4]; 3] = [
        [
            (0x91b493afb0440030, 0x3febc46363789377, 11),
            (0x457c8ed1fa4cd0e7, 0x3febc49fff7576e3, 24),
            (0xbcb0fc3bec4df4ed, 0x3febc1cec596d024, 20),
            (0x03866925d665d206, 0x3febc0b7741c8bc1, 26),
        ],
        [SSCA2; 4],
        [
            (0xcaf35d301dd13681, 0x3fc2a45ec2c42988, 14),
            (0xbb12f380177a22c6, 0x3fc2091db8d6098a, 15),
            (0xa6a4722d9cef3845, 0x3fc234df86e2695e, 15),
            (0xf18e02107d158fd3, 0x3fc1ffa4ddc352fe, 17),
        ],
    ];
    for ((gname, g), pins) in graphs.iter().zip(PINS) {
        for ((p, cfgs), pin) in schedules.iter().zip(pins) {
            for cfg in cfgs {
                let out = run_distributed(g, *p, cfg);
                let bytes: Vec<u8> = out
                    .assignment
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .collect();
                let got = (
                    fnv1a64(&bytes),
                    out.modularity.to_bits(),
                    out.total_iterations,
                );
                assert_eq!(
                    got,
                    pin,
                    "{gname} p={p} {:?} t={} delta={} {}: got {got:#x?}",
                    cfg.sweep,
                    cfg.threads_per_rank,
                    cfg.delta_ghost_refresh,
                    cfg.variant.label()
                );
            }
        }
    }
}
