//! Distributed graph reconstruction (Section IV-A(b), Fig 1).
//!
//! The seven steps of the paper:
//! 1. count unique local clusters,
//! 2. drop owned community ids no longer used by anyone,
//! 3. renumber surviving clusters globally with a parallel prefix sum,
//! 4. communicate the new global community ids to the ranks that use
//!    them,
//! 5. build partial new edge lists (same-community neighbors become a
//!    self-loop),
//! 6. redistribute edges so every rank owns an equal number of the new
//!    vertices,
//! 7. rebuild the CSR arrays of the coarse graph.

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::hash::{fast_map, fast_set, FastMap};
use louvain_graph::{LocalGraph, VertexId, VertexPartition, Weight};

use crate::ghost::{pull_from_owners, GhostLayer, PullBufs};
use crate::stats::WorkCounter;

/// Output of one distributed rebuild on one rank.
#[derive(Debug)]
pub struct RebuildOutput {
    /// The rank's piece of the coarse graph.
    pub new_lg: LocalGraph,
    /// For each OLD local vertex: its vertex id in the coarse graph
    /// (i.e. the renumbered id of its final community).
    pub vertex_new_id: Vec<VertexId>,
    /// Number of vertices of the coarse graph.
    pub new_num_vertices: u64,
    pub work: WorkCounter,
}

/// New id of an owned community nobody is a member of.
const DROPPED: VertexId = VertexId::MAX;

/// Execute the distributed rebuild. Collective.
///
/// `comm_of_local` / `ghost_comm` are the final (exchanged) community
/// assignments from the phase's last iteration. Owned communities are
/// looked up by `c - first` in flat arrays, remote ones hashed once per
/// vertex or ghost that is in one; the arc loop of step 5 only indexes.
pub fn rebuild(
    comm: &Comm,
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    comm_of_local: &[VertexId],
    ghost_comm: &[VertexId],
) -> RebuildOutput {
    let p = comm.size();
    let part = lg.partition();
    let first = lg.first_vertex();
    let nlocal = lg.num_local();
    let owned = |c: VertexId| Some(c.wrapping_sub(first) as usize).filter(|&i| i < nlocal);
    let mut work = WorkCounter::default();

    // -- Steps 1–2: report used communities to their owners. -------------
    // Each community that has at least one member must survive; members
    // report to the community's owner. (A community id owned here that no
    // vertex uses anymore is thereby dropped — step 2.) The remote ones
    // are also the first of the communities step 4 asks about.
    let mut report_sets: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    let mut referenced: Vec<VertexId> = Vec::new();
    let mut seen_remote = fast_set::<VertexId>();
    {
        let mut seen_owned = vec![false; nlocal];
        for &c in comm_of_local {
            let here = owned(c);
            let first_sight = match here {
                Some(i) => !std::mem::replace(&mut seen_owned[i], true),
                None => seen_remote.insert(c),
            };
            if first_sight {
                report_sets[part.owner_of(c)].push(c);
                if here.is_none() {
                    referenced.push(c);
                }
            }
        }
    }
    let reports = comm.with_step(CommStep::Other, || comm.all_to_all_v(report_sets));
    // Mark the survivors; step 3 numbers them in id order.
    let mut owned_new_id = vec![DROPPED; nlocal];
    for &c in reports.iter().flatten() {
        owned_new_id[owned(c).expect("reported community not owned here")] = 0;
    }
    let k_local = owned_new_id.iter().filter(|&&id| id != DROPPED).count() as u64;
    work.vertices_processed += k_local;

    // -- Step 3: global renumbering via exclusive prefix sum. -------------
    let (base, new_num_vertices) = comm.with_step(CommStep::Other, || {
        (
            comm.exscan_sum(k_local),
            comm.all_reduce(k_local, ReduceOp::Sum),
        )
    });
    let survivors = owned_new_id.iter_mut().filter(|id| **id != DROPPED);
    for (rank, id) in survivors.enumerate() {
        *id = base + rank as u64;
    }

    // -- Step 4: query the new ids of every community we reference. -------
    // Referenced = final communities of local vertices and of ghosts
    // (needed to relabel edge destinations).
    referenced.extend(
        (ghost_comm.iter().copied()).filter(|&c| owned(c).is_none() && seen_remote.insert(c)),
    );
    let mut remote_new_id: FastMap<VertexId, VertexId> = fast_map();
    pull_from_owners(
        comm,
        part,
        CommStep::Other,
        referenced,
        &mut PullBufs::default(),
        |c| {
            let id = owned_new_id[(c - first) as usize];
            assert_ne!(id, DROPPED, "queried community {c} has no member anywhere");
            id
        },
        |c, id| {
            remote_new_id.insert(c, id);
        },
    );
    let new_id = |c: &VertexId| match owned(*c) {
        Some(i) => owned_new_id[i],
        None => remote_new_id[c],
    };

    // -- Step 5: partial new edge lists. -----------------------------------
    // A row goes to the owner of its source's new id, found once per row;
    // the buffers are sized exactly by a pass over the row lengths.
    let vertex_new_id: Vec<VertexId> = comm_of_local.iter().map(new_id).collect();
    let ghost_new_id: Vec<VertexId> = ghost_comm.iter().map(new_id).collect();
    let new_part = VertexPartition::balanced_vertices(new_num_vertices, p);
    let (offsets, _, weights) = lg.csr_parts();
    let targets = ghosts.targets();
    let mut lens = vec![0usize; p];
    for (l, &src) in vertex_new_id.iter().enumerate() {
        lens[new_part.owner_of(src)] += offsets[l + 1] - offsets[l];
    }
    let mut outgoing: Vec<Vec<(VertexId, VertexId, Weight)>> =
        lens.into_iter().map(Vec::with_capacity).collect();
    for (l, &src) in vertex_new_id.iter().enumerate() {
        let row = offsets[l]..offsets[l + 1];
        work.edges_scanned += row.len() as u64;
        let arcs = targets[row.clone()].iter().zip(&weights[row]);
        outgoing[new_part.owner_of(src)].extend(arcs.map(|(&t, &w)| {
            let dst = ghosts.value_of(t, |i| vertex_new_id[i], &ghost_new_id);
            (src, dst, w)
        }));
    }

    // -- Step 6: redistribute. ---------------------------------------------
    let received = comm.with_step(CommStep::Other, || comm.all_to_all_v(outgoing));
    work.edges_scanned += received.iter().map(|arcs| arcs.len() as u64).sum::<u64>();

    // -- Step 7: rebuild the CSR (duplicate arcs merged inside from_arcs).
    let new_lg = LocalGraph::from_arcs(new_part, comm.rank(), received);

    RebuildOutput {
        new_lg,
        vertex_new_id,
        new_num_vertices,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::community::{modularity, singleton_assignment};
    use louvain_graph::{Csr, EdgeList};

    fn two_triangles() -> Csr {
        Csr::from_edge_list(EdgeList::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 1.0),
            ],
        ))
    }

    /// Rebuild with an explicit global assignment, return the assembled
    /// coarse graph.
    fn rebuild_with(g: &Csr, p: usize, assignment: &[VertexId]) -> Csr {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let assignment = assignment.to_vec();
        let outs = run(p, |c| {
            let lg = parts[c.rank()].clone();
            let ghosts = GhostLayer::build(c, &lg);
            let range = lg.partition().range(c.rank());
            let local: Vec<VertexId> = range.map(|v| assignment[v as usize]).collect();
            // Ghost communities straight from the global assignment
            // (slots follow the flattened request lists).
            let ghost_comm: Vec<VertexId> = (ghosts.requests().iter().flatten())
                .map(|&gid| assignment[gid as usize])
                .collect();
            let out = rebuild(c, &lg, &ghosts, &local, &ghost_comm);
            out.new_lg
        });
        LocalGraph::assemble(&outs)
    }

    #[test]
    fn distributed_rebuild_matches_shared_memory_coarsen() {
        let g = two_triangles();
        let assignment = vec![0u64, 0, 0, 3, 3, 3];
        let (expected, _) = louvain_graph::community::coarsen(&g, &assignment);
        for p in [1, 2, 3] {
            let coarse = rebuild_with(&g, p, &assignment);
            assert_eq!(coarse.num_vertices(), 2, "p={p}");
            assert_eq!(coarse.two_m(), expected.two_m(), "p={p}");
            assert_eq!(coarse.self_loop(0), 6.0, "p={p}");
            assert_eq!(coarse.self_loop(1), 6.0, "p={p}");
            // Modularity invariance through distributed coarsening.
            let q_fine = modularity(&g, &assignment);
            let q_coarse = modularity(&coarse, &singleton_assignment(2));
            assert!((q_fine - q_coarse).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn identity_assignment_keeps_graph_shape() {
        let g = two_triangles();
        let assignment = singleton_assignment(6);
        let coarse = rebuild_with(&g, 2, &assignment);
        assert_eq!(coarse.num_vertices(), 6);
        assert_eq!(coarse.two_m(), g.two_m());
        assert_eq!(coarse.num_arcs(), g.num_arcs());
    }

    #[test]
    fn remote_community_assignment_renumbers_densely() {
        // All vertices join community 5 (owned by the last rank).
        let g = two_triangles();
        let assignment = vec![5u64; 6];
        let coarse = rebuild_with(&g, 3, &assignment);
        assert_eq!(coarse.num_vertices(), 1);
        assert_eq!(coarse.self_loop(0), g.two_m());
    }

    #[test]
    fn larger_graph_rebuild_preserves_modularity_invariance() {
        let gen = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(500, 3));
        let g = gen.graph;
        let assignment = gen.ground_truth.unwrap();
        let coarse = rebuild_with(&g, 4, &assignment);
        let q_fine = modularity(&g, &assignment);
        let q_coarse = modularity(&coarse, &singleton_assignment(coarse.num_vertices()));
        assert!((q_fine - q_coarse).abs() < 1e-9);
        assert_eq!(coarse.two_m(), g.two_m());
    }
}
