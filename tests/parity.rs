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

/// The graphs and configs the pins below are recorded on: per graph,
/// five schedule columns of `(ranks, configs sharing one pin)`.
#[allow(clippy::type_complexity)]
fn pin_matrix() -> ([(&'static str, Csr); 3], [(usize, Vec<DistConfig>); 5]) {
    use distributed_louvain::dist::{SweepMode, Variant};

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
    let everything = DistConfig {
        vertex_following: true,
        neighborhood_collectives: true,
        prune_inactive_ghosts: true,
        color_sweeps: true,
        ..DistConfig::with_variant(Variant::Etc { alpha: 0.25 })
    };
    // In the column order of `PINS`.
    let schedules: [(usize, Vec<DistConfig>); 5] = [
        (1, vec![delta(false), delta(true)]),
        (2, vec![delta(false), delta(true)]),
        (2, vec![colored(1), colored(2)]),
        (2, vec![et]),
        (2, vec![everything]),
    ];
    (graphs, schedules)
}

/// The move kernel's trajectories, recorded on the commit before the
/// sequential, relaxed and colored drivers were put on one scoring
/// function: FNV-1a of the assignment, modularity bits and total
/// iterations per graph and schedule. The full and delta ghost refresh
/// share a pin, as do colored t=1 and t=2. A change to scan order,
/// tie-breaking, accumulation order or the refresh policy moves at
/// least one of them.
///
/// The last column (every extension at once: ETC + vertex following +
/// neighbourhood collectives + ghost pruning + colour sub-rounds) and
/// the `TRAFFIC` table were recorded on aa63baf, the commit before the
/// replica reads, refreshes and owner pulls/pushes moved into
/// `ghost.rs`. `TRAFFIC` holds, per config, two figures: FNV-1a over
/// the job's per-step byte totals *except* `CommStep::Other`, per-step
/// message totals and collective call count — the same bytes on the
/// wire, not just the same answer — and the `Other`-step byte total
/// itself (ghost discovery, the rebuild's renumbering and its edge
/// redistribution), in the clear so a change to the rebuild's wire
/// format shows as a number that went up or down. Full and delta
/// refresh differ in the hash; colored t=1 and t=2 must not. (The split
/// was recorded on 707a9a1, where the unsplit hashes of aa63baf still
/// held.)
///
/// One cell is not the parent's: rmat × every-extension. The coloring
/// exchange now follows `neighborhood_collectives`, and in rmat's late
/// coarse phases the two ranks share no edge, so a refresh there sends
/// nothing where the full all-to-all sent an empty message: 784
/// `other`-step messages instead of 850 (hash 0x4d2587947b42fa99 on
/// aa63baf), every byte total and every other count equal.
#[test]
fn kernel_trajectories_are_pinned() {
    use distributed_louvain::comm::CommStep;
    use distributed_louvain::resil::fnv1a64;

    let (graphs, schedules) = pin_matrix();
    type Pin = (u64, u64, usize);
    const SSCA2: Pin = (0x5cf794233b67ae6c, 0x3fefa1cf2a17de82, 5);
    const PINS: [[Pin; 5]; 3] = [
        [
            (0x91b493afb0440030, 0x3febc46363789377, 11),
            (0x457c8ed1fa4cd0e7, 0x3febc49fff7576e3, 24),
            (0xbcb0fc3bec4df4ed, 0x3febc1cec596d024, 20),
            (0x03866925d665d206, 0x3febc0b7741c8bc1, 26),
            (0x457c8ed1fa4cd0e7, 0x3febc49fff7576e3, 22),
        ],
        [SSCA2; 5],
        [
            (0xcaf35d301dd13681, 0x3fc2a45ec2c42988, 14),
            (0xbb12f380177a22c6, 0x3fc2091db8d6098a, 15),
            (0xa6a4722d9cef3845, 0x3fc234df86e2695e, 15),
            (0xf18e02107d158fd3, 0x3fc1ffa4ddc352fe, 17),
            (0x1a749cfe15e7f7d3, 0x3fc26acdbad72df2, 23),
        ],
    ];
    // Per config of each schedule column: (hash of everything but the
    // `Other` step's bytes, the `Other` step's bytes).
    const TRAFFIC: [[&[(u64, u64)]; 5]; 3] = [
        [
            &[(0xaecf04b7211e060c, 56), (0xaecf04b7211e060c, 56)],
            &[(0x986beb6876f6d5f1, 485_400), (0xeffc9ef990a40207, 485_400)],
            &[
                (0xc1c00221c620ef60, 1_309_208),
                (0xc1c00221c620ef60, 1_309_208),
            ],
            &[(0x4e95cb6e8acb07aa, 511_104)],
            &[(0xadb9b70fb32dd72e, 1_398_400)],
        ],
        [
            &[(0x0b57ff71a3e0fc03, 56), (0x0b57ff71a3e0fc03, 56)],
            &[(0xb7505f6bd91cf62d, 23_936), (0x54e85763abc6a893, 23_936)],
            &[(0x0f7f7e8d9a64b55a, 46_176), (0x0f7f7e8d9a64b55a, 46_176)],
            &[(0x7d25c1f52384024d, 23_936)],
            &[(0x815aad9be25637e2, 48_800)],
        ],
        [
            &[(0x8ff601acc1dd7c5e, 80), (0x8ff601acc1dd7c5e, 80)],
            &[(0x78ba3f5438f65f32, 336_712), (0x9bad041fb1f2a747, 336_712)],
            &[
                (0x022cb28896fa7eea, 1_272_736),
                (0x022cb28896fa7eea, 1_272_736),
            ],
            &[(0x9e81431fbae51011, 334_416)],
            &[(0xd6b9bac7efa6ea29, 1_381_808)],
        ],
    ];
    for (((gname, g), pins), traffic) in graphs.iter().zip(PINS).zip(TRAFFIC) {
        for (((p, cfgs), pin), wire) in schedules.iter().zip(pins).zip(traffic) {
            for (cfg, &wire) in cfgs.iter().zip(wire) {
                let out = run_distributed(g, *p, cfg);
                let bytes: Vec<u8> = out
                    .assignment
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .collect();
                let t = &out.traffic;
                let other = CommStep::Other.index();
                let steps = t.step_bytes.iter().enumerate();
                let counters: Vec<u8> = (steps.filter(|&(i, _)| i != other).map(|(_, b)| b))
                    .chain(&t.step_messages)
                    .chain([&t.collective_calls])
                    .flat_map(|c| c.to_le_bytes())
                    .collect();
                let got = (
                    fnv1a64(&bytes),
                    out.modularity.to_bits(),
                    out.total_iterations,
                    fnv1a64(&counters),
                    t.step_bytes[other],
                );
                assert_eq!(
                    got,
                    (pin.0, pin.1, pin.2, wire.0, wire.1),
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

/// `DistOutcome::modeled_seconds` and `modeled_breakdown()` of every row
/// of the pin matrix, recorded on c24fe15 — the last commit where the
/// α-β seconds were accumulated call by call on the send path and the
/// per-phase shares were bracketed in the iteration loop. Evaluating the
/// model from the counters at report time must give the same figures;
/// only the order of the floating-point sums differs.
///
/// Columns: total, compute, comm, reduce, rebuild. The every-extension
/// rows pin `comm + reduce`: their inactive-count all-reduce was always
/// counted under the reduction step but its seconds were bracketed into
/// `comm`; read from the counters it lands in `reduce`.
#[test]
fn modeled_seconds_match_the_send_path_clock() {
    const MODEL: [[&[[f64; 5]]; 5]; 3] = [
        [
            &[
                [
                    0.028507618222222218,
                    0.024917399999999996,
                    5.203555555555563e-6,
                    5.073466666666668e-5,
                    0.0024688799999999997,
                ],
                [
                    0.028507618222222218,
                    0.024917399999999996,
                    5.203555555555563e-6,
                    5.073466666666668e-5,
                    0.0024688799999999997,
                ],
            ],
            &[
                [
                    0.034367485777777776,
                    0.03141818999999999,
                    0.00021154088888888895,
                    0.00015339933333333175,
                    0.0012534699999999998,
                ],
                [
                    0.03434813822222222,
                    0.03141818999999999,
                    0.00019218800000000015,
                    0.0001533993333333317,
                    0.0012534699999999998,
                ],
            ],
            &[
                [
                    0.022964495111111115,
                    0.019916639999999996,
                    0.0006975920000000026,
                    0.00012725044444444753,
                    0.0013803499999999996,
                ],
                [
                    0.013309486446957435,
                    0.01067306310744442,
                    0.0006975920000000026,
                    0.00010924749075033144,
                    0.0013803499999999996,
                ],
            ],
            &[[
                0.01968278288888889,
                0.017450219999999995,
                0.0002327199999999996,
                0.0003410164444444459,
                0.0013707399999999996,
            ]],
            &[[
                0.020686244666666697,
                0.016110599999999996,
                0.002609984444444486,
                0.000339205777777776,
                0.0013352799999999999,
            ]],
        ],
        [
            &[
                [
                    0.03153446222222222,
                    0.023300729999999995,
                    5.203555555555553e-6,
                    2.7318666666666666e-5,
                    0.007777609999999999,
                ],
                [
                    0.03153446222222222,
                    0.023300729999999995,
                    5.203555555555553e-6,
                    2.7318666666666666e-5,
                    0.007777609999999999,
                ],
            ],
            &[
                [
                    0.015864349555555553,
                    0.011650364999999998,
                    4.826444444444445e-5,
                    3.582366666666756e-5,
                    0.0039203699999999985,
                ],
                [
                    0.015864316666666663,
                    0.011650364999999998,
                    4.823955555555555e-5,
                    3.582366666666756e-5,
                    0.0039203699999999985,
                ],
            ],
            &[
                [
                    0.016010085111111107,
                    0.011650364999999998,
                    0.00019359999999999994,
                    3.58236666666673e-5,
                    0.0039203699999999985,
                ],
                [
                    0.010500633627056775,
                    0.00624327601793082,
                    0.00019359999999999994,
                    3.187638331610212e-5,
                    0.0039203699999999985,
                ],
            ],
            &[[
                0.015825776888888886,
                0.011612354999999998,
                4.826355555555556e-5,
                3.711366666666719e-5,
                0.0039203699999999985,
            ]],
            &[[
                0.016534067999999992,
                0.011611964999999998,
                0.0007557084444444393,
                3.7323666666667144e-5,
                0.003920319999999999,
            ]],
        ],
        [
            &[
                [
                    0.017810599777777776,
                    0.015087779999999999,
                    7.805333333333338e-6,
                    6.504444444444449e-5,
                    0.0017962699999999998,
                ],
                [
                    0.017810599777777776,
                    0.015087779999999999,
                    7.805333333333338e-6,
                    6.504444444444449e-5,
                    0.0017962699999999998,
                ],
            ],
            &[
                [
                    0.010945276,
                    0.008593335,
                    0.00015491111111111123,
                    0.0006515621111111105,
                    0.0013309899999999998,
                ],
                [
                    0.010944618222222223,
                    0.008593335,
                    0.0001531324444444445,
                    0.0006515621111111105,
                    0.0013309899999999998,
                ],
            ],
            &[
                [
                    0.011285325555555557,
                    0.008554860000000001,
                    0.0006106480000000014,
                    0.0006092171111111114,
                    0.00134924,
                ],
                [
                    0.006946409505437144,
                    0.0045844359618566165,
                    0.0006106480000000014,
                    0.00035847063541335307,
                    0.00134924,
                ],
            ],
            &[[
                0.010498710444444444,
                0.008171025,
                0.00016764533333333336,
                0.000736767444444443,
                0.0013521199999999998,
            ]],
            &[[
                0.016556955333333387,
                0.009538755000000001,
                0.004194976888888948,
                0.0015910034444444386,
                0.0015207199999999997,
            ]],
        ],
    ];
    let (graphs, schedules) = pin_matrix();
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    for ((gname, g), model) in graphs.iter().zip(MODEL) {
        for (col, ((p, cfgs), rows)) in schedules.iter().zip(model).enumerate() {
            for (cfg, &[total, compute, comm, reduce, rebuild]) in cfgs.iter().zip(rows) {
                let out = run_distributed(g, *p, cfg);
                let got = out.modeled_breakdown();
                let shares_agree = if col == 4 {
                    close(got.1 + got.2, comm + reduce)
                } else {
                    close(got.1, comm) && close(got.2, reduce)
                };
                assert!(
                    close(out.modeled_seconds, total)
                        && close(got.0, compute)
                        && shares_agree
                        && close(got.3, rebuild),
                    "{gname} p={p} col={col} t={} delta={}: total {:?}, breakdown {got:?}",
                    cfg.threads_per_rank,
                    cfg.delta_ghost_refresh,
                    out.modeled_seconds
                );
            }
        }
    }
}
