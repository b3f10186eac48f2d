//! Distributed distance-1 coloring (Jones–Plassmann).
//!
//! The paper's future-work item: "the use of distance-1 coloring to
//! ensure that the set of vertices that are processed in parallel for
//! community assignments are mutually non-adjacent and hence independent.
//! This may lead to faster convergence."
//!
//! Jones–Plassmann over the distributed graph: every vertex gets a random
//! priority derived from its global id (so all ranks agree without
//! communication); in each round, an uncolored vertex whose uncolored
//! neighbors all have lower priority picks the smallest color unused by
//! its already-colored neighbors; ghost colors are exchanged between
//! rounds through the phase's [`GhostLayer`].

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::hash::mix64;
use louvain_graph::{LocalGraph, VertexId};

use crate::ghost::GhostLayer;

/// Sentinel for "not colored yet" on the wire.
const UNCOLORED: u64 = u64::MAX;

/// Priority of a vertex — any rank can compute any vertex's priority.
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

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::gen::{erdos_renyi, ErdosRenyiParams};
    use louvain_graph::{Csr, VertexPartition};

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
}
