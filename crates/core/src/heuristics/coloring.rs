//! Distributed distance-1 coloring (Jones–Plassmann by wait counts).
//!
//! The paper's future-work item: "the use of distance-1 coloring to
//! ensure that the set of vertices that are processed in parallel for
//! community assignments are mutually non-adjacent and hence independent.
//! This may lead to faster convergence."
//!
//! A vertex's priority is a hash of its global id, and it takes the
//! smallest color unused by its higher-priority neighbours. Each local
//! vertex counts its arcs to those; a round colors the vertices at 0 and
//! decrements their lower-priority local neighbours for the next round,
//! and a ghost slot the round's refresh first shows colored decrements
//! along the arcs into it. A count reaches 0 in exactly the round in which
//! round-by-round JP colors the vertex, so colors, rounds and traffic are
//! JP's (DESIGN §11). Cost: O(arcs + ghost arcs), plus one refresh and one
//! all-reduce per round.

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::hash::mix64;
use louvain_graph::{LocalGraph, VertexId};

use crate::ghost::GhostLayer;
use crate::prefetch_rows;

/// Sentinel for "not colored yet" on the wire.
const UNCOLORED: u64 = u64::MAX;

/// Priority of a vertex — any rank can compute any vertex's priority.
/// [`mix64`] is a bijection, so no two vertices tie.
#[inline]
fn priority(seed: u64, v: VertexId) -> u64 {
    mix64(seed ^ mix64(v))
}

/// Color the distributed graph; returns `(color_of_local, num_colors)`.
/// Collective. The coloring is proper: no two adjacent vertices (across
/// ranks included) share a color.
pub fn distributed_coloring(
    comm: &Comm,
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    seed: u64,
) -> (Vec<u32>, u32) {
    let nlocal = lg.num_local();
    let (offsets, targets) = (lg.csr_parts().0, ghosts.targets());
    let row = |l: usize| &targets[offsets[l]..offsets[l + 1]];
    let prio: Vec<u64> = (0..nlocal)
        .map(|l| priority(seed, lg.to_global(l)))
        .collect();
    let ghost_prio: Vec<u64> = ghosts.slot_ids().map(|g| priority(seed, g)).collect();
    let prio_of = |t: u32| ghosts.value_of(t, |u| prio[u], &ghost_prio);
    // `wait[l]`: arcs from `l` to higher-priority neighbours not yet
    // colored. Rows are duplicate-free and the arc set symmetric, so the
    // arcs a neighbour's coloring walks back to `l` are the ones counted.
    let mut wait: Vec<u32> = (0..nlocal)
        .map(|l| row(l).iter().filter(|&&t| prio_of(t) > prio[l]).count() as u32)
        .collect();
    // Every vertex enters `queue` once, when its count reaches 0; a round
    // colors the entries queued before it started.
    let mut queue = Vec::with_capacity(nlocal);
    queue.extend((0..nlocal as u32).filter(|&l| wait[l as usize] == 0));
    let mut release = |l: usize, queue: &mut Vec<u32>| {
        wait[l] -= 1;
        if wait[l] == 0 {
            queue.push(l as u32);
        }
    };
    let mut head = 0;
    let mut pending: Vec<usize> = (0..ghost_prio.len()).collect();

    let mut color: Vec<u64> = vec![UNCOLORED; nlocal];
    let mut ghost_color: Vec<VertexId> = Vec::new();
    // `taken[c] == stamp`: a neighbour of the vertex being colored has `c`.
    let (mut taken, mut stamp) = (Vec::<u32>::new(), 0u32);

    loop {
        comm.with_step(CommStep::Other, || {
            ghosts.refresh(comm, &color, &mut ghost_color)
        });
        pending.retain(|&s| {
            if ghost_color[s] == UNCOLORED {
                return true;
            }
            for &(l, _) in ghosts.arcs_into(s) {
                if ghost_prio[s] > prio[l as usize] {
                    release(l as usize, &mut queue);
                }
            }
            false
        });
        let end = queue.len();
        for i in head..end {
            let round = |j| (j < end).then(|| queue[j] as usize);
            prefetch_rows(round, i, (offsets, targets, &[]));
            let l = queue[i] as usize;
            let r = row(l);
            taken.resize(taken.len().max(r.len() + 1), 0);
            stamp += 1;
            for &t in r {
                let tp = prio_of(t);
                if tp > prio[l] {
                    // k neighbours up leave a color <= k free.
                    let c = ghosts.value_of(t, |u| color[u], &ghost_color);
                    if let Some(m) = taken.get_mut(c as usize) {
                        *m = stamp;
                    }
                } else if tp < prio[l] && ghosts.slot(t).is_none() {
                    release(t as usize, &mut queue);
                }
            }
            let free = taken.iter().position(|&m| m != stamp);
            color[l] = free.expect("k arcs leave one of colors 0..=k free") as u64;
        }
        head = end;
        let remaining = comm.with_step(CommStep::Other, || {
            comm.all_reduce((nlocal - head) as u64, ReduceOp::Sum)
        });
        if remaining == 0 {
            break;
        }
    }

    let local_max = color.iter().copied().max().unwrap_or(0);
    let global_max = comm.with_step(CommStep::Other, || {
        comm.all_reduce(if nlocal == 0 { 0 } else { local_max }, ReduceOp::Max)
    });
    // Every count is 0 now; its buffer carries the result.
    for (w, &c) in wait.iter_mut().zip(&color) {
        *w = c as u32;
    }
    (wait, global_max as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_comm::StatsSnapshot;
    use louvain_graph::community::coarsen;
    use louvain_graph::gen::{
        erdos_renyi, lfr, rmat, ssca2, ErdosRenyiParams, LfrParams, RmatParams, Ssca2Params,
    };
    use louvain_graph::{Csr, VertexPartition};

    /// Round-by-round Jones–Plassmann, as the colored schedule ran it
    /// before the wait counts: every round re-tests every uncolored vertex
    /// against a snapshot of the colors. The oracle of the differential test.
    fn jones_plassmann_reference(
        comm: &Comm,
        lg: &LocalGraph,
        ghosts: &GhostLayer,
        seed: u64,
    ) -> (Vec<u32>, u32) {
        let nlocal = lg.num_local();
        let mut color: Vec<u64> = vec![UNCOLORED; nlocal];
        let mut ghost_color: Vec<VertexId> = Vec::new();
        let mut uncolored = nlocal as u64;
        let mut forbidden: Vec<u64> = Vec::new();

        loop {
            comm.with_step(CommStep::Other, || {
                ghosts.refresh(comm, &color, &mut ghost_color)
            });
            let mut colored_this_round = 0u64;
            // Decisions are made against the round-start snapshot so every
            // rank sees a consistent frontier.
            let snapshot = color.clone();
            for l in 0..nlocal {
                if snapshot[l] != UNCOLORED {
                    continue;
                }
                let v = lg.to_global(l);
                let vp = priority(seed, v);
                let mut is_max = true;
                forbidden.clear();
                for (t, u, _) in ghosts.neighbors(lg, l) {
                    if u == v {
                        continue;
                    }
                    let cu = ghosts.value_of(t, |i| snapshot[i], &ghost_color);
                    if cu == UNCOLORED {
                        let up = priority(seed, u);
                        // Deterministic total order: priority, then id.
                        if up > vp || (up == vp && u > v) {
                            is_max = false;
                            break;
                        }
                    } else {
                        forbidden.push(cu);
                    }
                }
                if !is_max {
                    continue;
                }
                forbidden.sort_unstable();
                let mut c = 0u64;
                for &f in &forbidden {
                    match f.cmp(&c) {
                        std::cmp::Ordering::Less => {}
                        std::cmp::Ordering::Equal => c += 1,
                        std::cmp::Ordering::Greater => break,
                    }
                }
                color[l] = c;
                colored_this_round += 1;
            }
            uncolored -= colored_this_round;
            let remaining = comm.with_step(CommStep::Other, || {
                comm.all_reduce(uncolored, ReduceOp::Sum)
            });
            if remaining == 0 {
                break;
            }
        }

        let local_max = color.iter().copied().max().unwrap_or(0);
        let global_max = comm.with_step(CommStep::Other, || {
            comm.all_reduce(if nlocal == 0 { 0 } else { local_max }, ReduceOp::Max)
        });
        (
            color.into_iter().map(|c| c as u32).collect(),
            global_max as u32 + 1,
        )
    }

    fn color_distributed(g: &Csr, p: usize) -> (Vec<u32>, u32) {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let outs = run(p, |c| {
            let lg = parts[c.rank()].clone();
            let ghosts = GhostLayer::build(c, &lg);
            distributed_coloring(c, &lg, &ghosts, 42)
        });
        let ncolors = outs[0].1;
        let mut colors = Vec::new();
        for (cs, nc) in outs {
            assert_eq!(nc, ncolors, "ranks disagree on color count");
            colors.extend(cs);
        }
        (colors, ncolors)
    }

    #[test]
    fn coloring_is_proper_across_ranks() {
        let g = erdos_renyi(ErdosRenyiParams {
            n: 400,
            avg_degree: 8.0,
            seed: 3,
        })
        .graph;
        for p in [1, 2, 4] {
            let (colors, ncolors) = color_distributed(&g, p);
            assert_eq!(colors.len(), g.num_vertices());
            for v in 0..g.num_vertices() as u64 {
                for (u, _) in g.neighbors(v) {
                    if u != v {
                        assert_ne!(
                            colors[v as usize], colors[u as usize],
                            "edge {v}-{u} (p={p})"
                        );
                    }
                }
            }
            let max_deg = (0..g.num_vertices())
                .map(|v| g.degree(v as u64))
                .max()
                .unwrap();
            assert!(ncolors as usize <= max_deg + 1);
        }
    }

    #[test]
    fn coloring_is_rank_count_invariant() {
        // Priorities depend only on (seed, global id), so the JP coloring
        // is identical no matter how the graph is partitioned.
        let g = erdos_renyi(ErdosRenyiParams {
            n: 300,
            avg_degree: 6.0,
            seed: 5,
        })
        .graph;
        let (c1, n1) = color_distributed(&g, 1);
        let (c3, n3) = color_distributed(&g, 3);
        assert_eq!(c1, c3);
        assert_eq!(n1, n3);
    }

    #[test]
    fn edgeless_graph_gets_one_color() {
        let g = Csr::from_edge_list(louvain_graph::EdgeList::new(10));
        let (colors, ncolors) = color_distributed(&g, 2);
        assert_eq!(ncolors, 1);
        assert!(colors.iter().all(|&c| c == 0));
    }

    /// The coloring traffic between two snapshots: `Other` bytes and
    /// messages, and collective calls.
    fn traffic(a: &StatsSnapshot, b: &StatsSnapshot) -> [u64; 3] {
        let other = CommStep::Other.index();
        [
            b.step_bytes[other] - a.step_bytes[other],
            b.step_messages[other] - a.step_messages[other],
            b.collective_calls - a.collective_calls,
        ]
    }

    #[test]
    fn wait_counts_match_round_by_round_jones_plassmann() {
        let lfr_g = lfr(LfrParams::small(600, 11));
        let truth = lfr_g.ground_truth.clone().unwrap();
        // A phase-1 graph: each planted community cut in four, so the
        // coarse graph has self-loops and non-unit weights.
        let split: Vec<VertexId> = (truth.iter().enumerate())
            .map(|(v, &c)| c * 4 + v as u64 % 4)
            .collect();
        let rebuilt = coarsen(&lfr_g.graph, &split).0;
        let coarse = 0..rebuilt.num_vertices() as VertexId;
        assert!(coarse.clone().any(|v| rebuilt.self_loop(v) > 0.0));
        assert!(coarse
            .clone()
            .any(|v| rebuilt.neighbors(v).any(|(u, w)| u != v && w > 1.0)));
        let graphs = [
            (
                "er",
                erdos_renyi(ErdosRenyiParams {
                    n: 400,
                    avg_degree: 8.0,
                    seed: 3,
                })
                .graph,
            ),
            ("rmat", rmat(RmatParams::social(9, 8, 5)).graph),
            ("lfr", lfr_g.graph),
            ("ssca2", ssca2(Ssca2Params::paper(500, 2)).graph),
            ("rebuilt", rebuilt),
        ];
        for (name, g) in &graphs {
            for p in [1, 2, 3, 8] {
                let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
                let parts = LocalGraph::scatter(g, &part);
                let outs = run(p, |c| {
                    let lg = parts[c.rank()].clone();
                    let ghosts = GhostLayer::build(c, &lg);
                    let s0 = c.stats().snapshot();
                    let want = jones_plassmann_reference(c, &lg, &ghosts, 0xC0105);
                    let s1 = c.stats().snapshot();
                    let got = distributed_coloring(c, &lg, &ghosts, 0xC0105);
                    let s2 = c.stats().snapshot();
                    (want, got, traffic(&s0, &s1), traffic(&s1, &s2))
                });
                for (r, (want, got, want_t, got_t)) in outs.into_iter().enumerate() {
                    assert_eq!(got, want, "{name} p={p} rank {r}: colors");
                    assert_eq!(got_t, want_t, "{name} p={p} rank {r}: traffic");
                }
            }
        }
    }

    /// splitmix64's finalizer inverted step by step: a round trip
    /// through it is the identity, so `priority` never ties two vertices.
    #[test]
    fn mix64_is_a_bijection() {
        fn unxorshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / s {
                x = y ^ (x >> s);
            }
            x
        }
        fn inverse(odd: u64) -> u64 {
            // Newton's iteration doubles the correct low bits each step.
            let mut inv = odd;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
            }
            inv
        }
        let unmix = |y: u64| {
            let x = unxorshift(y, 31);
            let x = unxorshift(x.wrapping_mul(inverse(0x94d0_49bb_1331_11eb)), 27);
            let x = unxorshift(x.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)), 30);
            x.wrapping_sub(0x9e37_79b9_7f4a_7c15)
        };
        let mut x = 0x1234_5678_9abc_def0u64;
        for v in [0, 1, u64::MAX, 1 << 63] {
            assert_eq!(unmix(mix64(v)), v);
        }
        for _ in 0..10_000 {
            x = mix64(x);
            assert_eq!(unmix(mix64(x)), x, "{x:#x}");
        }
    }
}
