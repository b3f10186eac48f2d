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

/// Phase 0 of the baseline on `p` ranks, then the distributed rebuild:
/// the final assignment and the assembled coarse graph.
fn phase_zero_then_rebuild(g: &Csr, p: usize) -> (Vec<VertexId>, Csr) {
    use distributed_louvain::dist::ghost::GhostLayer;
    use distributed_louvain::dist::iteration::{louvain_phase, PhaseContext};
    use distributed_louvain::dist::rebuild::rebuild;
    use distributed_louvain::graph::{LocalGraph, VertexPartition};

    let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
    let parts = LocalGraph::scatter(g, &part);
    let cfg = DistConfig::baseline();
    let outs = run_ranks(p, |c| {
        let lg = &parts[c.rank()];
        let mut ghosts = GhostLayer::build(c, lg);
        let ctx = PhaseContext {
            comm: c,
            lg,
            two_m: g.two_m(),
        };
        let r = louvain_phase(&ctx, &mut ghosts, &cfg, 0, cfg.threshold);
        let coarse = rebuild(c, lg, &ghosts, &r.comm_of_local, &r.ghost_comm);
        (r.comm_of_local, coarse.new_lg)
    });
    let (assignment, pieces): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    (assignment.concat(), LocalGraph::assemble(&pieces))
}

/// `coarsen`'s graph under the distributed numbering: communities in
/// ascending id order, where `coarsen` numbers them as they appear.
fn coarsen_by_id(g: &Csr, assignment: &[VertexId]) -> Csr {
    let (coarse, dense) = distributed_louvain::graph::community::coarsen(g, assignment);
    let mut ids = assignment.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let mut by_id = vec![0; ids.len()];
    for (v, c) in assignment.iter().enumerate() {
        by_id[dense[v] as usize] = ids.binary_search(c).unwrap() as VertexId;
    }
    let arcs = (0..coarse.num_vertices() as VertexId).flat_map(|a| {
        let row = coarse.neighbors(a);
        row.map(|(b, w)| (by_id[a as usize], by_id[b as usize], w))
            .collect::<Vec<_>>()
    });
    let arcs: Vec<_> = arcs.collect();
    Csr::from_arcs(ids.len(), || arcs.iter().copied())
}

#[test]
fn distributed_rebuild_equals_shared_memory_coarsening() {
    let bits = |g: &Csr| g.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    let mut graphs = families(37);
    graphs.push(("rmat", rmat(RmatParams::social(11, 8, 5)).graph));
    for (name, g) in &graphs {
        for p in [1, 2, 3] {
            // Integer weights: every sum is exact, whoever adds it.
            let (assignment, coarse) = phase_zero_then_rebuild(g, p);
            let want = coarsen_by_id(g, &assignment);
            assert!(coarse.num_vertices() < g.num_vertices(), "{name} p={p}");
            assert_eq!(coarse.offsets(), want.offsets(), "{name} p={p}");
            assert_eq!(coarse.dests(), want.dests(), "{name} p={p}");
            assert_eq!(bits(&coarse), bits(&want), "{name} p={p}");
        }
    }
    // Arbitrary weights: one rank adds a pair's arcs in `coarsen`'s
    // order; several add one partial sum per sender.
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(38);
    let base = &graphs[0].1;
    let mut el = EdgeList::new(base.num_vertices() as u64);
    for u in 0..base.num_vertices() as u64 {
        for (v, _) in base.neighbors(u).filter(|&(v, _)| u <= v) {
            el.push(u, v, rng.random::<f64>() * 3.0 + 1e-3);
        }
    }
    let g = Csr::from_edge_list(el);
    for p in [1, 2, 3] {
        let (assignment, coarse) = phase_zero_then_rebuild(&g, p);
        let want = coarsen_by_id(&g, &assignment);
        assert_eq!(coarse.offsets(), want.offsets(), "p={p}");
        assert_eq!(coarse.dests(), want.dests(), "p={p}");
        if p == 1 {
            assert_eq!(bits(&coarse), bits(&want));
        }
        for (got, want) in coarse.weights().iter().zip(want.weights()) {
            assert!((got - want).abs() <= 1e-12 * want, "p={p}: {got} vs {want}");
        }
        let two_m = g.two_m();
        assert!((coarse.two_m() - two_m).abs() <= 1e-12 * two_m, "p={p}");
    }
}

/// The graphs and configs the pins below are recorded on: per graph,
/// six schedule columns of `(ranks, configs sharing one pin)`.
#[allow(clippy::type_complexity)]
fn pin_matrix() -> ([(&'static str, Csr); 3], [(usize, Vec<DistConfig>); 6]) {
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
    let et_full_and_delta = vec![
        et.clone(),
        DistConfig {
            delta_ghost_refresh: true,
            ..et.clone()
        },
    ];
    let everything = DistConfig {
        vertex_following: true,
        prune_inactive_ghosts: true,
        ..DistConfig::with_variant(Variant::Etc { alpha: 0.25 })
    };
    // In the column order of `PINS`.
    let schedules: [(usize, Vec<DistConfig>); 6] = [
        (1, vec![delta(false), delta(true)]),
        (2, vec![delta(false), delta(true)]),
        (2, vec![colored(1), colored(2)]),
        (2, vec![et]),
        (2, vec![everything]),
        (8, et_full_and_delta),
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
/// The `TRAFFIC` table was recorded on aa63baf, the commit before the
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
/// The fifth column is every extension at once at p=2: ETC(0.25) +
/// vertex following + ghost pruning. Its
/// `PINS`, `TRAFFIC` and `MODEL` cells were re-recorded on 2b9d4f2,
/// when the colour sub-rounds left it.
///
/// The sixth column — ET(0.25) at p=8, full and delta refresh sharing
/// one pin — and its `TRAFFIC` and `MODEL` rows were recorded on
/// d066b9f, before the perf sweep that used to compare these rows
/// against a committed JSON at 10 % was deleted.
///
/// Every column refreshes the ghosts over the neighbour topology (the
/// fifth column always did).
/// When the other five columns moved onto it on 64398e7 no `PINS` cell
/// and no `Other` byte count moved. The `TRAFFIC` hashes of the cells
/// where some phase leaves a rank with fewer than `p − 1` topology
/// neighbours — SSCA#2 and RMAT at p=8, RMAT's p=2 columns 2–4 — were
/// re-recorded there, each for fewer messages.
#[test]
fn kernel_trajectories_are_pinned() {
    use distributed_louvain::comm::CommStep;
    use distributed_louvain::resil::fnv1a64;

    let (graphs, schedules) = pin_matrix();
    type Pin = (u64, u64, usize);
    const SSCA2: Pin = (0x5cf794233b67ae6c, 0x3fefa1cf2a17de82, 5);
    const PINS: [[Pin; 6]; 3] = [
        [
            (0x91b493afb0440030, 0x3febc46363789377, 11),
            (0x457c8ed1fa4cd0e7, 0x3febc49fff7576e3, 24),
            (0xbcb0fc3bec4df4ed, 0x3febc1cec596d024, 20),
            (0x03866925d665d206, 0x3febc0b7741c8bc1, 26),
            (0x03866925d665d206, 0x3febc0b7741c8bc1, 26),
            (0x85fce419487c4b80, 0x3febc3164f58c880, 28),
        ],
        [
            SSCA2,
            SSCA2,
            SSCA2,
            SSCA2,
            SSCA2,
            (0x5cf794233b67ae6c, 0x3fefa1cf2a17de82, 6),
        ],
        [
            (0xcaf35d301dd13681, 0x3fc2a45ec2c42988, 14),
            (0xbb12f380177a22c6, 0x3fc2091db8d6098a, 15),
            (0xa6a4722d9cef3845, 0x3fc234df86e2695e, 15),
            (0xf18e02107d158fd3, 0x3fc1ffa4ddc352fe, 17),
            (0xceca73efb574cb50, 0x3fc2572f17cd401b, 19),
            (0x10499ffecf2632fd, 0x3fbfdf2aef6697ea, 16),
        ],
    ];
    // Per config of each schedule column: (hash of everything but the
    // `Other` step's bytes, the `Other` step's bytes). The first column
    // is p=1, where a rank's own buffer is not traffic.
    const TRAFFIC: [[&[(u64, u64)]; 6]; 3] = [
        [
            &[(0xaecf04b7211e060c, 56), (0xaecf04b7211e060c, 56)],
            &[(0x986beb6876f6d5f1, 87_264), (0xeffc9ef990a40207, 87_264)],
            &[(0xc1c00221c620ef60, 922_112), (0xc1c00221c620ef60, 922_112)],
            &[(0x4e95cb6e8acb07aa, 118_584)],
            &[(0xddcfb0b689e56e07, 178_016)],
            &[(0x6d08035f10b1f85c, 491_704), (0x9f9df50266594640, 491_704)],
        ],
        [
            &[(0x0b57ff71a3e0fc03, 56), (0x0b57ff71a3e0fc03, 56)],
            &[(0xb7505f6bd91cf62d, 920), (0x54e85763abc6a893, 920)],
            &[(0x0f7f7e8d9a64b55a, 23_160), (0x0f7f7e8d9a64b55a, 23_160)],
            &[(0x7d25c1f52384024d, 920)],
            &[(0xc4a52688c763c61d, 3_544)],
            &[(0xaf37c173c155203b, 4_960), (0x806f891de243bc5a, 4_960)],
        ],
        [
            &[(0x8ff601acc1dd7c5e, 80), (0x8ff601acc1dd7c5e, 80)],
            &[(0x8f9d617191175cc8, 78_088), (0xb56c0fe79ea298fd, 78_088)],
            &[
                (0x39772e5b6e50831c, 1_016_728),
                (0x39772e5b6e50831c, 1_016_728),
            ],
            &[(0x1b2671756663f465, 82_968)],
            &[(0xb08d21cfefc3d0c6, 167_520)],
            &[(0x214e22366dc37e1d, 364_464), (0xf228ee3aad9c1778, 364_464)],
        ],
    ];
    // The p=2 cells' `Other` bytes while the rebuild sent one tuple per
    // arc (707a9a1), in `TRAFFIC`'s order: sending one summed entry per
    // distinct (community, community) pair must stay below them.
    const OTHER_PER_ARC: [[&[u64]; 4]; 3] = [
        [
            &[485_400, 485_400],
            &[1_309_208, 1_309_208],
            &[511_104],
            &[1_398_400],
        ],
        [&[23_936, 23_936], &[46_176, 46_176], &[23_936], &[48_800]],
        [
            &[336_712, 336_712],
            &[1_272_736, 1_272_736],
            &[334_416],
            &[1_381_808],
        ],
    ];
    for (traffic, per_arc) in TRAFFIC.iter().zip(OTHER_PER_ARC) {
        for (now, before) in traffic[1..].iter().zip(per_arc) {
            let now: Vec<u64> = now.iter().map(|cell| cell.1).collect();
            assert!(
                now.iter().zip(before).all(|(n, b)| n < b),
                "{now:?} vs {before:?}"
            );
        }
    }
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

/// `louvain_bench::model::job_seconds` and `breakdown` over the counters
/// of every row of the pin matrix, recorded on c24fe15 — the last commit where the
/// α-β seconds were accumulated call by call on the send path and the
/// per-phase shares were bracketed in the iteration loop. Evaluating the
/// model from the counters at report time must give the same figures;
/// only the order of the floating-point sums differs.
///
/// Columns: total, compute, comm, reduce, rebuild. The fifth column's
/// rows (every extension) were re-recorded from the counters on 2b9d4f2;
/// see `kernel_trajectories_are_pinned`.
///
/// `rebuild`, `comm` at p=2 and with them `total` were re-recorded when
/// the rebuild began to sum each (community, community) pair before
/// sending it: the rebuild then counts one received entry per distinct
/// pair per sender instead of one per arc, and ships as many fewer
/// bytes. Every re-recorded figure is below the one it replaced.
///
/// `compute`, `total` and, at p≥2, `reduce` were re-recorded once more
/// when the phase began to carry `Σ e_in` through the moves: the work
/// counter then stopped charging every arc once per iteration for the
/// from-scratch pass, and Step 2's unread arcs at p=1, and began to
/// count the second read of a mover's row when it has ghost arcs, and
/// the arcs into the ghost slots a refresh changed. `reduce` holds the
/// iterations' arc imbalance between ranks (`model::breakdown`), so it
/// moves with the count: down in the eight RMAT rows at p≥2, up in the
/// sixteen LFR and SSCA#2 ones, where one rank's movers touch ghosts
/// more than another's. `BEFORE` holds the replaced `total` and
/// `compute`; every new one is below it.
///
/// `comm` and `total` of the rows whose `TRAFFIC` hash moved to the
/// neighbour topology were re-recorded on 64398e7; each fell.
///
/// `compute`, `reduce` and `total` of every row at p≥2 were re-recorded
/// when Step 2 began to find its key set by target instead of walking
/// every arc of every active row: it then counts only the arcs it
/// probes. `reduce` rose in LFR's three ET columns, where the probes
/// fall less on some ranks than on others, and fell everywhere else.
/// `BEFORE` holds each replaced `total` and `compute`; every new one is
/// below it.
#[test]
fn modeled_seconds_match_the_send_path_clock() {
    use louvain_bench::model;

    const MODEL: [[&[[f64; 5]]; 6]; 3] = [
        [
            &[
                [
                    0.010843198222222222,
                    0.008305799999999999,
                    5.203555555555563e-6,
                    5.073466666666668e-5,
                    0.0014160599999999998,
                ],
                [
                    0.010843198222222222,
                    0.008305799999999999,
                    5.203555555555563e-6,
                    5.073466666666668e-5,
                    0.0014160599999999998,
                ],
            ],
            &[
                [
                    0.014497659333333331,
                    0.012069705,
                    0.00018865288888888888,
                    0.00039809433333333325,
                    0.00072286,
                ],
                [
                    0.014478669999999997,
                    0.012069705,
                    0.0001693,
                    0.00039809433333333325,
                    0.00072286,
                ],
            ],
            &[
                [
                    0.010724217777777776,
                    0.008271240000000001,
                    0.0006737813333333334,
                    0.0003787704444444433,
                    0.00080783,
                ],
                [
                    0.006471970239462351,
                    0.004432447767134344,
                    0.0006737813333333334,
                    0.00024403372139890033,
                    0.00080783,
                ],
            ],
            &[[
                0.007723317333333332,
                0.005825234999999998,
                0.00021147555555555556,
                0.0004937314444444445,
                0.0008404599999999999,
            ]],
            &[[
                0.007802358666666666,
                0.005825234999999998,
                0.0002567328888888889,
                0.0005275545555555555,
                0.0008404599999999999,
            ]],
            &[
                [
                    0.004617006666666665,
                    0.0024157162500000003,
                    0.001266608888888889,
                    0.0006999390833333331,
                    0.00024166999999999998,
                ],
                [
                    0.00459717111111111,
                    0.0024157162500000003,
                    0.0012461902222222223,
                    0.0006999390833333331,
                    0.00024166999999999998,
                ],
            ],
        ],
        [
            &[
                [
                    0.012130012222222224,
                    0.007766909999999999,
                    5.203555555555553e-6,
                    2.7318666666666666e-5,
                    0.00390698,
                ],
                [
                    0.012130012222222224,
                    0.007766909999999999,
                    5.203555555555553e-6,
                    2.7318666666666666e-5,
                    0.00390698,
                ],
            ],
            &[
                [
                    0.006186649555555555,
                    0.003937979999999999,
                    4.574355555555556e-5,
                    3.601866666666769e-5,
                    0.00195486,
                ],
                [
                    0.006186616666666665,
                    0.003937979999999999,
                    4.571066666666666e-5,
                    3.601866666666769e-5,
                    0.00195486,
                ],
            ],
            &[
                [
                    0.006332385111111111,
                    0.003937979999999999,
                    0.00019147911111111113,
                    3.601866666666769e-5,
                    0.00195486,
                ],
                [
                    0.00440226333703789,
                    0.0021103112299993357,
                    0.00019147911111111113,
                    3.198088122869937e-5,
                    0.00195486,
                ],
            ],
            &[[
                0.0061664368888888895,
                0.003918974999999999,
                4.574266666666667e-5,
                3.666366666666664e-5,
                0.00195486,
            ]],
            &[[
                0.006200130222222222,
                0.003918825,
                7.320977777777778e-5,
                4.32281111111109e-5,
                0.0019547199999999996,
            ]],
            &[
                [
                    0.002351248222222222,
                    0.00138985125,
                    0.00027480755555555557,
                    0.0001731527499999997,
                    0.0004897699999999999,
                ],
                [
                    0.002351176222222222,
                    0.00138985125,
                    0.00027468222222222223,
                    0.0001731527499999997,
                    0.0004897699999999999,
                ],
            ],
        ],
        [
            &[
                [
                    0.0069931697777777775,
                    0.005029259999999999,
                    7.805333333333338e-6,
                    6.504444444444449e-5,
                    0.00103736,
                ],
                [
                    0.0069931697777777775,
                    0.005029259999999999,
                    7.805333333333338e-6,
                    6.504444444444449e-5,
                    0.00103736,
                ],
            ],
            &[
                [
                    0.005711686888888889,
                    0.00419316,
                    0.00011974977777777779,
                    0.00043350711111111117,
                    0.0005991999999999999,
                ],
                [
                    0.005709902000000001,
                    0.00419316,
                    0.00011796488888888888,
                    0.00043350711111111117,
                    0.0005991999999999999,
                ],
            ],
            &[
                [
                    0.006110818444444443,
                    0.0041965349999999995,
                    0.0005422013333333333,
                    0.0003941621111111106,
                    0.00062006,
                ],
                [
                    0.003807298981145698,
                    0.0022488674238023715,
                    0.0005422013333333333,
                    0.00024322551442048116,
                    0.00062006,
                ],
            ],
            &[[
                0.005165460444444444,
                0.0038267849999999988,
                0.0001320328888888889,
                0.00046736744444444544,
                0.0006230599999999999,
            ]],
            &[[
                0.004500684222222222,
                0.0029216249999999997,
                0.00019127955555555556,
                0.00045125966666666607,
                0.0006945499999999999,
            ]],
            &[
                [
                    0.003044622666666666,
                    0.00109798125,
                    0.000735808,
                    0.0008215434166666665,
                    0.0004418199999999999,
                ],
                [
                    0.0030442511111111108,
                    0.00109798125,
                    0.0007354364444444445,
                    0.0008215434166666665,
                    0.0004418199999999999,
                ],
            ],
        ],
    ];
    // `total` and `compute` of every row before Step 2 probed by target
    // (at p=1, where it never runs: before `Σ e_in` was tracked).
    const BEFORE: [[&[[f64; 2]]; 6]; 3] = [
        [
            &[
                [0.02745479822222222, 0.024917399999999996],
                [0.02745479822222222, 0.024917399999999996],
            ],
            &[
                [0.02490069933333333, 0.022473795],
                [0.024881709999999998, 0.022473795],
            ],
            &[
                [0.01729106777777778, 0.014838315],
                [0.00999105802069058, 0.007951656122877107],
            ],
            &[[0.011151103555555555, 0.009395984999999997]],
            &[[0.011230144888888887, 0.009395984999999997]],
            &[
                [0.005029753999999999, 0.0028318874999999997],
                [0.005009769111111111, 0.0028318874999999997],
            ],
        ],
        [
            &[
                [0.027663832222222216, 0.023300729999999995],
                [0.027663832222222216, 0.023300729999999995],
            ],
            &[
                [0.010072039555555554, 0.007820399999999998],
                [0.010072006666666666, 0.007820399999999998],
            ],
            &[
                [0.01021777511111111, 0.007820399999999998],
                [0.006484392283839835, 0.004190848593209413],
            ],
            &[[0.010033466888888887, 0.007782389999999999]],
            &[[0.010067070222222224, 0.007782089999999999]],
            &[
                [0.003694928222222222, 0.0027158887499999997],
                [0.003694856222222222, 0.0027158887499999997],
            ],
        ],
        [
            &[
                [0.017051689777777775, 0.015087779999999999],
                [0.017051689777777775, 0.015087779999999999],
            ],
            &[
                [0.008720146888888888, 0.00701742],
                [0.008718361999999999, 0.00701742],
            ],
            &[
                [0.009083998444444446, 0.007002164999999999],
                [0.005400586692817526, 0.003752367313650221],
            ],
            &[[0.007545690444444444, 0.006039584999999999]],
            &[[0.006635154222222223, 0.004773944999999999]],
            &[
                [0.0038164595555555555, 0.0015403574999999997],
                [0.003816088, 0.0015403574999999997],
            ],
        ],
    ];
    for (model, before) in MODEL.iter().zip(BEFORE) {
        for (rows, before) in model.iter().zip(before) {
            for (row, &[total, compute]) in rows.iter().zip(before) {
                assert!(row[0] < total && row[1] < compute, "{row:?} vs {before:?}");
            }
        }
    }
    let (graphs, schedules) = pin_matrix();
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    for ((gname, g), model) in graphs.iter().zip(MODEL) {
        for (col, ((p, cfgs), rows)) in schedules.iter().zip(model).enumerate() {
            for (cfg, &[total, compute, comm, reduce, rebuild]) in cfgs.iter().zip(rows) {
                let out = run_distributed(g, *p, cfg);
                let job = model::job_seconds(&out.per_rank_stats, out.phases);
                let got = model::breakdown(&out.per_rank_stats, out.phases);
                assert!(
                    close(job, total)
                        && close(got.0, compute)
                        && close(got.1, comm)
                        && close(got.2, reduce)
                        && close(got.3, rebuild),
                    "{gname} p={p} col={col} t={} delta={}: total {:?}, breakdown {got:?}",
                    cfg.threads_per_rank,
                    cfg.delta_ghost_refresh,
                    job
                );
            }
        }
    }
}
