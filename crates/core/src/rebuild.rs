//! Distributed graph reconstruction (Section IV-A(b), Fig 1).
//!
//! The seven steps of the paper:
//! 1. count unique local clusters,
//! 2. drop owned community ids no longer used by anyone,
//! 3. renumber surviving clusters globally with a parallel prefix sum,
//! 4. communicate the new global community ids to the ranks that use
//!    them,
//! 5. build partial coarse rows (same-community neighbors become a
//!    self-loop), summed as they are built — Sahu's grouped aggregation
//!    (PAPERS.md): vertices grouped by new id, each group's arcs folded
//!    through one collision-free table into one entry per distinct pair
//!    this rank saw; nothing per arc is buffered or hashed. A row this
//!    rank owns in the coarse graph is written straight into its CSR
//!    arrays (Sahu's CSR aggregation); any other row becomes `(src, dst,
//!    w)` entries for its owner,
//! 6. redistribute those entries, one message per peer, so every rank
//!    owns an equal number of the new vertices (at p=1 nothing is sent),
//! 7. merge into each owned row the sorted duplicate-free run each other
//!    rank sent for it, in sender order with this rank's own at its rank
//!    (`csr::build_rows`); a rank that received nothing, as at p=1, keeps
//!    its rows as written.
//!
//! DESIGN §11 states the order a coarse weight is summed in and what that
//! means for its bits at p=1 and p>1.

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::csr::build_rows;
use louvain_graph::{DenseMap, LocalGraph, VertexId, VertexPartition, Weight};

use crate::ghost::{pull_from_owners, CommunityIndex, GhostLayer, PullBufs};
use crate::prefetch_rows;
use crate::stats::WorkCounter;

/// Output of one distributed rebuild on one rank.
#[derive(Debug)]
pub struct RebuildOutput {
    /// The rank's piece of the coarse graph.
    pub new_lg: LocalGraph<'static>,
    /// For each OLD local vertex: its vertex id in the coarse graph
    /// (i.e. the renumbered id of its final community).
    pub vertex_new_id: Vec<VertexId>,
    /// Number of vertices of the coarse graph.
    pub new_num_vertices: u64,
    /// `vertices_processed`: owned communities that survive.
    /// `edges_scanned`: arcs this rank read in step 5 plus the summed
    /// entries of its owned rows before step 7 (one per distinct pair per
    /// contributing rank, not one per arc).
    pub work: WorkCounter,
}

/// New id of an owned community nobody is a member of.
const DROPPED: VertexId = VertexId::MAX;

/// Execute the distributed rebuild. Collective.
///
/// `comm_of_local` / `ghost_comm` are the final (exchanged) community
/// assignments from the phase's last iteration.
pub fn rebuild(
    comm: &Comm,
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    comm_of_local: &[VertexId],
    ghost_comm: &[VertexId],
) -> RebuildOutput {
    let p = comm.size();
    let part = lg.partition();
    let nlocal = lg.num_local();

    // Key the communities of this rank's vertices, then of its ghosts,
    // the way the phase numbers them: an owned `c` is `c - first`, a
    // remote one gets the next key, hashed once per vertex or ghost that
    // is in it. Step 5 then only indexes.
    let mut index = CommunityIndex::new(lg);
    let local_key: Vec<u32> = comm_of_local.iter().map(|&c| index.dense(c)).collect();
    // Remote communities a vertex of this rank is in: the first `joined`.
    let joined = index.num_remote();
    let ghost_key: Vec<u32> = ghost_comm.iter().map(|&c| index.dense(c)).collect();
    let remote: Vec<VertexId> = (0..index.num_remote() as u32)
        .map(|r| index.remote_global(r))
        .collect();

    // -- Steps 1–2: report used communities to their owners. -------------
    // Each community that has at least one member must survive; members
    // report to the community's owner — here by marking it. (A community
    // id owned here that no vertex uses anymore is thereby dropped —
    // step 2.)
    let mut report_sets: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    for &c in &remote[..joined] {
        report_sets[part.owner_of(c)].push(c);
    }
    let reports = comm.with_step(CommStep::Other, || comm.all_to_all_v(report_sets));
    // New id by key; the owned keys first. Step 3 numbers the survivors
    // in id order.
    let mut new_id = vec![DROPPED; nlocal];
    let reported = reports.iter().flatten().map(|&c| lg.to_local(c));
    let own = local_key.iter().map(|&k| k as usize);
    for i in reported.chain(own.filter(|&k| k < nlocal)) {
        new_id[i] = 0;
    }
    let k_local = new_id.iter().filter(|&&id| id != DROPPED).count() as u64;

    // -- Step 3: global renumbering via exclusive prefix sum. -------------
    let (base, new_num_vertices) = comm.with_step(CommStep::Other, || {
        (
            comm.exscan_sum(k_local),
            comm.all_reduce(k_local, ReduceOp::Sum),
        )
    });
    let survivors = new_id.iter_mut().filter(|id| **id != DROPPED);
    for (rank, id) in survivors.enumerate() {
        *id = base + rank as u64;
    }

    // -- Step 4: query the new ids of the remote communities we reference
    // (those of ghosts included, to relabel edge destinations). -----------
    let mut remote_new_id = vec![DROPPED; remote.len()];
    pull_from_owners(
        comm,
        part,
        CommStep::Other,
        remote,
        &mut PullBufs::default(),
        |c| {
            let id = new_id[lg.to_local(c)];
            assert_ne!(id, DROPPED, "queried community {c} has no member anywhere");
            id
        },
        |c, id| remote_new_id[index.dense(c) as usize - nlocal] = id,
    );
    new_id.extend(remote_new_id);

    // -- Steps 5–7. ----------------------------------------------------------
    let (rank, new_part) = (
        comm.rank(),
        VertexPartition::balanced_vertices(new_num_vertices, p),
    );
    let (own, outgoing) = combine(lg, ghosts, &new_id, &local_key, &ghost_key, &new_part, rank);
    let received = match p {
        1 => Vec::new(),
        _ => comm.with_step(CommStep::Other, || comm.all_to_all_v(outgoing)),
    };
    let entries = own.num_local_arcs() + received.iter().map(Vec::len).sum::<usize>();
    let new_lg = if received.iter().all(Vec::is_empty) {
        own
    } else {
        // This rank's rows join the runs the others sent at its own rank,
        // so `build_rows` sums each coarse weight in sender order.
        let (first, (before, after)) = (own.first_vertex(), received.split_at(rank));
        let mine = |l: usize| own.neighbors(l).map(move |(v, w)| (first + l as u64, v, w));
        let (offsets, rows) = build_rows(first, own.num_local(), || {
            let [before, after] = [before, after].map(|runs| runs.iter().flatten().copied());
            before
                .chain((0..own.num_local()).flat_map(mine))
                .chain(after)
        });
        drop((own, received)); // before the split below allocates
        let (dests, weights): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        LocalGraph::from_csr_parts(new_part, rank, offsets, dests, weights)
    };

    RebuildOutput {
        new_lg,
        vertex_new_id: local_key.iter().map(|&k| new_id[k as usize]).collect(),
        new_num_vertices,
        work: WorkCounter {
            edges_scanned: (lg.num_local_arcs() + entries) as u64,
            vertices_processed: k_local,
        },
    }
}

/// Step 5: this rank's partial coarse rows, one summed entry per
/// distinct `(src, dst)` pair among the rank's arcs, sorted by `dst`.
/// The rows `me` owns under `new_part` come back as its piece of the
/// coarse graph, the others as one buffer of `(src, dst, w)` per owner.
/// `local_key` / `ghost_key` give the key of each vertex's and each
/// ghost slot's community, `new_id` the new id behind each key that has
/// one.
#[allow(clippy::type_complexity)]
fn combine(
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    new_id: &[VertexId],
    local_key: &[u32],
    ghost_key: &[u32],
    new_part: &VertexPartition,
    me: usize,
) -> (LocalGraph<'static>, Vec<Vec<(VertexId, VertexId, Weight)>>) {
    // Group the vertices by new id with a stable counting sort (Sahu's
    // "community vertices" CSR): the groups follow each other in
    // `members` in new-id order, so the owned rows are written in row
    // order; group `k` ends at `at[k]`, its vertices ascending.
    let mut at = vec![0usize; new_id.len()];
    for &k in local_key {
        at[k as usize] += 1;
    }
    let mut order: Vec<usize> = (0..at.len()).filter(|&k| at[k] > 0).collect();
    order.sort_unstable_by_key(|&k| new_id[k]);
    let mut end = 0;
    for &k in &order {
        (at[k], end) = (end, end + at[k]);
    }
    let mut members = vec![0usize; local_key.len()];
    for (l, &k) in local_key.iter().enumerate() {
        members[at[k as usize]] = l;
        at[k as usize] += 1;
    }

    let ((offsets, _, weights), targets) = (lg.csr_parts(), ghosts.targets());
    let first = new_part.first(me);
    let (mut own_offsets, mut own_dests, mut own_weights) = (vec![0], Vec::new(), Vec::new());
    let mut outgoing = vec![Vec::new(); new_part.num_ranks()];
    // Weight toward each destination key from the group being folded.
    let mut table: DenseMap<Weight> = DenseMap::default();
    table.cover(new_id.len());
    let (mut row, mut start) = (Vec::new(), 0);
    for &k in &order {
        debug_assert!(table.is_clear(), "a group left the table dirty");
        // The walk runs through the groups back to back, so the rows it
        // reads next are known across group boundaries too.
        for i in start..at[k] {
            prefetch_rows(|j| members.get(j).copied(), i, (offsets, targets, weights));
            let arcs = offsets[members[i]]..offsets[members[i] + 1];
            for (&t, &w) in targets[arcs.clone()].iter().zip(&weights[arcs]) {
                *table.entry(ghosts.value_of(t, |i| local_key[i], ghost_key)) += w;
            }
        }
        start = at[k];
        let entries = table.entries().iter();
        row.extend(entries.map(|&(dst, w)| (new_id[dst as usize], w)));
        row.sort_unstable_by_key(|&(dst, _)| dst);
        let src = new_id[k];
        match new_part.owner_of(src) {
            owner if owner == me => {
                // Rows this rank holds no arc of are empty; new ids are
                // below the old vertex count, so they fit `u32`.
                own_offsets.resize((src - first) as usize + 1, own_dests.len());
                own_dests.extend(row.iter().map(|&(dst, _)| dst as u32));
                own_weights.extend(row.iter().map(|&(_, w)| w));
                own_offsets.push(own_dests.len());
            }
            owner => outgoing[owner].extend(row.iter().map(|&(dst, w)| (src, dst, w))),
        }
        row.clear();
        table.clear();
    }
    own_offsets.resize(new_part.num_local(me) + 1, own_dests.len());
    let own = LocalGraph::from_csr_parts(new_part.clone(), me, own_offsets, own_dests, own_weights);
    (own, outgoing)
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

    /// This rank's communities under an explicit global assignment: of
    /// its vertices and of its ghosts (slots follow the flattened request
    /// lists), the rebuild's inputs beside its piece and ghost layer.
    fn communities(
        c: &Comm,
        part: &VertexPartition,
        ghosts: &GhostLayer,
        assignment: &[VertexId],
    ) -> (Vec<VertexId>, Vec<VertexId>) {
        let of = |v: VertexId| assignment[v as usize];
        let local = part.range(c.rank()).map(of).collect();
        let ghost_comm = (ghosts.requests().iter().flatten().copied().map(of)).collect();
        (local, ghost_comm)
    }

    /// Rebuild along `part` with an explicit global assignment, return
    /// the assembled coarse graph.
    fn rebuild_on(g: &Csr, part: &VertexPartition, assignment: &[VertexId]) -> Csr {
        let outs = run(part.num_ranks(), |c| {
            let lg = LocalGraph::scatter(g, part).swap_remove(c.rank());
            let ghosts = GhostLayer::build(c, &lg);
            let (local, ghost_comm) = communities(c, part, &ghosts, assignment);
            rebuild(c, &lg, &ghosts, &local, &ghost_comm).new_lg
        });
        LocalGraph::assemble(&outs)
    }

    fn rebuild_with(g: &Csr, p: usize, assignment: &[VertexId]) -> Csr {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        rebuild_on(g, &part, assignment)
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

    #[test]
    fn step_five_hands_over_one_entry_per_distinct_pair() {
        use std::collections::BTreeSet;
        let lfr = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 11));
        let rmat = louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(9, 8, 3)).graph;
        let folded: Vec<VertexId> = (0..rmat.num_vertices() as u64).map(|v| v % 61).collect();
        for (g, assignment) in [(lfr.graph, lfr.ground_truth.unwrap()), (rmat, folded)] {
            for p in [1, 2, 3] {
                let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
                let mut ids = assignment.clone();
                ids.sort_unstable();
                ids.dedup();
                let outs = run(p, |c| {
                    let lg = LocalGraph::scatter(&g, &part).swap_remove(c.rank());
                    let ghosts = GhostLayer::build(c, &lg);
                    let (local, ghost_comm) = communities(c, &part, &ghosts, &assignment);
                    // Any numbering will do for step 5; here a key is its
                    // community's rank among all ids, and so is its new id.
                    let key = |c: &VertexId| ids.binary_search(c).unwrap() as u32;
                    let local_key: Vec<u32> = local.iter().map(key).collect();
                    let ghost_key: Vec<u32> = ghost_comm.iter().map(key).collect();
                    let new_id: Vec<VertexId> = (0..ids.len() as u64).collect();
                    let new_part = VertexPartition::balanced_vertices(ids.len() as u64, p);
                    let (own, outgoing) = combine(
                        &lg,
                        &ghosts,
                        &new_id,
                        &local_key,
                        &ghost_key,
                        &new_part,
                        c.rank(),
                    );
                    // Every row this rank owns is written in place, each
                    // of strictly increasing dst.
                    let (offsets, dests, weights) = own.csr_parts();
                    assert_eq!(offsets.len(), new_part.num_local(c.rank()) + 1);
                    for row in offsets.windows(2) {
                        assert!(dests[row[0]..row[1]].windows(2).all(|w| w[0] < w[1]));
                    }
                    assert_eq!(dests.len(), weights.len());
                    for (owner, buf) in outgoing.iter().enumerate() {
                        // To the owner of the source, never to this rank,
                        // each source's entries in one run of strictly
                        // increasing dst.
                        assert!(owner != c.rank() || buf.is_empty());
                        assert!(buf.iter().all(|e| new_part.owner_of(e.0) == owner));
                        let mut closed = BTreeSet::new();
                        for run in buf.chunk_by(|a, b| a.0 == b.0) {
                            assert!(closed.insert(run[0].0), "source {} split", run[0].0);
                            assert!(run.windows(2).all(|w| w[0].1 < w[1].1));
                        }
                    }
                    dests.len() + outgoing.iter().map(Vec::len).sum::<usize>()
                });
                for (rank, sent) in outs.iter().enumerate() {
                    let mut arcs = 0;
                    let mut pairs = BTreeSet::new();
                    for u in part.range(rank) {
                        for (v, _) in g.neighbors(u) {
                            arcs += 1;
                            pairs.insert((assignment[u as usize], assignment[v as usize]));
                        }
                    }
                    assert_eq!(*sent, pairs.len(), "p={p} rank {rank}");
                    assert!(*sent <= arcs, "p={p} rank {rank}");
                }
            }
        }
    }

    /// The rebuild as it was before owned rows were written in place:
    /// step 5 makes one summed `(src, dst, w)` entry per distinct pair, the
    /// groups in key order, step 6 sends every entry, this rank's to
    /// itself, and step 7 merges them in `LocalGraph::from_arcs`. The
    /// oracle of [`in_place_rows_equal_the_tuple_path_bit_for_bit`].
    fn rebuild_by_tuples(
        comm: &Comm,
        lg: &LocalGraph,
        ghosts: &GhostLayer,
        comm_of_local: &[VertexId],
        ghost_comm: &[VertexId],
    ) -> RebuildOutput {
        let p = comm.size();
        let part = lg.partition();
        let nlocal = lg.num_local();

        // Key the communities of this rank's vertices, then of its ghosts,
        // the way the phase numbers them: an owned `c` is `c - first`, a
        // remote one gets the next key, hashed once per vertex or ghost that
        // is in it. Step 5 then only indexes.
        let mut index = CommunityIndex::new(lg);
        let local_key: Vec<u32> = comm_of_local.iter().map(|&c| index.dense(c)).collect();
        // Remote communities a vertex of this rank is in: the first `joined`.
        let joined = index.num_remote();
        let ghost_key: Vec<u32> = ghost_comm.iter().map(|&c| index.dense(c)).collect();
        let remote: Vec<VertexId> = (0..index.num_remote() as u32)
            .map(|r| index.remote_global(r))
            .collect();

        // -- Steps 1–2: report used communities to their owners. -------------
        // Each community that has at least one member must survive; members
        // report to the community's owner — here by marking it. (A community
        // id owned here that no vertex uses anymore is thereby dropped —
        // step 2.)
        let mut report_sets: Vec<Vec<VertexId>> = vec![Vec::new(); p];
        for &c in &remote[..joined] {
            report_sets[part.owner_of(c)].push(c);
        }
        let reports = comm.with_step(CommStep::Other, || comm.all_to_all_v(report_sets));
        // New id by key; the owned keys first. Step 3 numbers the survivors
        // in id order.
        let mut new_id = vec![DROPPED; nlocal];
        let reported = reports.iter().flatten().map(|&c| lg.to_local(c));
        let own = local_key.iter().map(|&k| k as usize);
        for i in reported.chain(own.filter(|&k| k < nlocal)) {
            new_id[i] = 0;
        }
        let k_local = new_id.iter().filter(|&&id| id != DROPPED).count() as u64;

        // -- Step 3: global renumbering via exclusive prefix sum. -------------
        let (base, new_num_vertices) = comm.with_step(CommStep::Other, || {
            (
                comm.exscan_sum(k_local),
                comm.all_reduce(k_local, ReduceOp::Sum),
            )
        });
        let survivors = new_id.iter_mut().filter(|id| **id != DROPPED);
        for (rank, id) in survivors.enumerate() {
            *id = base + rank as u64;
        }

        // -- Step 4: query the new ids of the remote communities we reference
        // (those of ghosts included, to relabel edge destinations). -----------
        let mut remote_new_id = vec![DROPPED; remote.len()];
        pull_from_owners(
            comm,
            part,
            CommStep::Other,
            remote,
            &mut PullBufs::default(),
            |c| {
                let id = new_id[lg.to_local(c)];
                assert_ne!(id, DROPPED, "queried community {c} has no member anywhere");
                id
            },
            |c, id| remote_new_id[index.dense(c) as usize - nlocal] = id,
        );
        new_id.extend(remote_new_id);

        // -- Steps 5–7. ----------------------------------------------------------
        let new_part = VertexPartition::balanced_vertices(new_num_vertices, p);
        let outgoing = combine_tuples(lg, ghosts, &new_id, &local_key, &ghost_key, &new_part);
        let received = comm.with_step(CommStep::Other, || comm.all_to_all_v(outgoing));
        let entries: usize = received.iter().map(Vec::len).sum();
        // Each row's per-sender runs are merged and equal destinations
        // summed inside from_arcs.
        let new_lg = LocalGraph::from_arcs(new_part, comm.rank(), received);

        RebuildOutput {
            new_lg,
            vertex_new_id: local_key.iter().map(|&k| new_id[k as usize]).collect(),
            new_num_vertices,
            work: WorkCounter {
                edges_scanned: (lg.num_local_arcs() + entries) as u64,
                vertices_processed: k_local,
            },
        }
    }

    /// Step 5 of [`rebuild_by_tuples`]: this rank's partial edge lists, one buffer per owner under
    /// `new_part`, one summed entry per distinct `(src, dst)` pair among the
    /// rank's arcs, each source's entries together and sorted by `dst`.
    /// `local_key` / `ghost_key` give the key of each vertex's and each
    /// ghost slot's community, `new_id` the new id behind each key that has
    /// one.
    fn combine_tuples(
        lg: &LocalGraph,
        ghosts: &GhostLayer,
        new_id: &[VertexId],
        local_key: &[u32],
        ghost_key: &[u32],
        new_part: &VertexPartition,
    ) -> Vec<Vec<(VertexId, VertexId, Weight)>> {
        let nkeys = new_id.len();
        // Group the vertices by source key with a stable counting sort
        // (Sahu's "community vertices" CSR): members[starts[k]..starts[k+1]]
        // are the local vertices of key k in ascending order.
        let mut starts = vec![0usize; nkeys + 1];
        for &k in local_key {
            starts[k as usize + 1] += 1;
        }
        for k in 0..nkeys {
            starts[k + 1] += starts[k];
        }
        let mut cursor = starts[..nkeys].to_vec();
        let mut members = vec![0usize; local_key.len()];
        for (l, &k) in local_key.iter().enumerate() {
            members[cursor[k as usize]] = l;
            cursor[k as usize] += 1;
        }

        let (offsets, _, weights) = lg.csr_parts();
        let targets = ghosts.targets();
        let mut outgoing = vec![Vec::new(); new_part.num_ranks()];
        // Weight toward each destination key from the group being folded.
        let mut table: DenseMap<Weight> = DenseMap::default();
        table.cover(nkeys);
        for (k, &src) in new_id.iter().enumerate() {
            let group = &members[starts[k]..starts[k + 1]];
            if group.is_empty() {
                continue;
            }
            debug_assert!(table.is_clear(), "a group left the table dirty");
            for &l in group {
                let row = offsets[l]..offsets[l + 1];
                for (&t, &w) in targets[row.clone()].iter().zip(&weights[row]) {
                    *table.entry(ghosts.value_of(t, |i| local_key[i], ghost_key)) += w;
                }
            }
            let out: &mut Vec<_> = &mut outgoing[new_part.owner_of(src)];
            let at = out.len();
            let row = table.entries().iter();
            out.extend(row.map(|&(dst, w)| (src, new_id[dst as usize], w)));
            out[at..].sort_unstable_by_key(|&(_, dst, _)| dst);
            table.clear();
        }
        outgoing
    }

    /// `g` with every edge's weight replaced by a non-integer one drawn
    /// from a hash of its endpoints, so the coarse weights' bits depend on
    /// the order they are summed in.
    fn reweighted(g: &Csr, seed: u64) -> Csr {
        use louvain_graph::hash::mix64;
        let n = g.num_vertices() as u64;
        let weight = |u: VertexId, v: VertexId| {
            let h = mix64(seed ^ mix64(u.min(v) * n + u.max(v)));
            (h >> 11) as f64 / (1u64 << 53) as f64 * 3.0 + 1e-3
        };
        Csr::from_arcs(n as usize, || {
            (0..n).flat_map(move |u| g.neighbors(u).map(move |(v, _)| (u, v, weight(u, v))))
        })
    }

    #[test]
    fn in_place_rows_equal_the_tuple_path_bit_for_bit() {
        use louvain_graph::gen::{lfr, rmat, ssca2, LfrParams, RmatParams, Ssca2Params};
        let lfr = lfr(LfrParams::small(800, 7));
        let ssca2 = ssca2(Ssca2Params::paper(600, 3));
        let rmat = rmat(RmatParams::social(10, 8, 5)).graph;
        // RMAT has no planted truth: fold its ids onto a few communities,
        // most of them owned by another rank than their members.
        let folded: Vec<VertexId> = (0..rmat.num_vertices() as u64)
            .map(|v| v * 7 % 97)
            .collect();
        let cases = [
            ("lfr", lfr.graph, lfr.ground_truth.unwrap()),
            ("ssca2", ssca2.graph, ssca2.ground_truth.unwrap()),
            ("rmat", rmat, folded),
        ];
        let bits = |w: &[Weight]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        // The counts between two snapshots (not the wait times).
        let traffic = |a: &louvain_comm::StatsSnapshot, b: &louvain_comm::StatsSnapshot| {
            let words = |s: &louvain_comm::StatsSnapshot| {
                let scalars = [
                    s.p2p_messages,
                    s.p2p_bytes,
                    s.collective_calls,
                    s.collective_bytes,
                ];
                (scalars
                    .into_iter()
                    .chain(s.step_messages)
                    .chain(s.step_bytes))
                .collect::<Vec<_>>()
            };
            let (a, b) = (words(a), words(b));
            b.iter().zip(&a).map(|(b, a)| b - a).collect::<Vec<_>>()
        };
        for (name, g, assignment) in cases {
            for (weights, g) in [("integer", g.clone()), ("random", reweighted(&g, 17))] {
                for p in [1, 2, 3, 8] {
                    let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
                    let outs = run(p, |c| {
                        let lg = LocalGraph::scatter(&g, &part).swap_remove(c.rank());
                        let ghosts = GhostLayer::build(c, &lg);
                        let (local, ghost_comm) = communities(c, &part, &ghosts, &assignment);
                        let s0 = c.stats().snapshot();
                        let want = rebuild_by_tuples(c, &lg, &ghosts, &local, &ghost_comm);
                        let s1 = c.stats().snapshot();
                        let got = rebuild(c, &lg, &ghosts, &local, &ghost_comm);
                        let s2 = c.stats().snapshot();
                        (want, got, traffic(&s0, &s1), traffic(&s1, &s2))
                    });
                    for (r, (want, got, want_t, got_t)) in outs.into_iter().enumerate() {
                        let case = format!("{name} {weights} p={p} rank {r}");
                        let (wo, wd, ww) = want.new_lg.csr_parts();
                        let (go, gd, gw) = got.new_lg.csr_parts();
                        assert_eq!((go, gd), (wo, wd), "{case}: rows");
                        assert_eq!(bits(gw), bits(ww), "{case}: weight bits");
                        assert_eq!(got.vertex_new_id, want.vertex_new_id, "{case}");
                        assert_eq!(got.new_num_vertices, want.new_num_vertices, "{case}");
                        assert_eq!(got.work.edges_scanned, want.work.edges_scanned, "{case}");
                        let processed = (got.work.vertices_processed, want.work.vertices_processed);
                        assert_eq!(processed.0, processed.1, "{case}");
                        assert_eq!(got_t, want_t, "{case}: traffic");
                    }
                }
            }
        }
    }

    #[test]
    fn a_rank_without_vertices_takes_part() {
        // Rank 1 owns nothing: it reports nothing, is asked nothing and
        // still makes every collective call.
        let mut el = EdgeList::new(12);
        for v in 0..12u64 {
            el.push(v, (v + 1) % 12, 1.0 + v as f64);
            el.push(v, (v + 5) % 12, 2.0);
        }
        let g = Csr::from_edge_list(el);
        let part = VertexPartition::from_starts(vec![0, 5, 5, 12]);
        // Ids first appear in ascending order, which makes `coarsen`'s
        // numbering the distributed one.
        let assignment = vec![2u64, 2, 7, 7, 9, 9, 2, 7, 11, 9, 11, 11];
        let (want, _) = louvain_graph::community::coarsen(&g, &assignment);
        assert_eq!(rebuild_on(&g, &part, &assignment), want);
    }

    #[test]
    fn a_zero_weight_arc_is_still_an_arc() {
        // The table's presence is exact: the pair (0, 1) exists in the
        // coarse graph although its weight sums to zero.
        let g = Csr::from_edge_list(EdgeList::from_edges(
            4,
            [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.0)],
        ));
        let assignment = vec![0u64, 0, 3, 3];
        for p in [1, 2] {
            let coarse = rebuild_with(&g, p, &assignment);
            let (want, _) = louvain_graph::community::coarsen(&g, &assignment);
            assert_eq!(coarse, want, "p={p}");
            assert_eq!(
                coarse.neighbors(0).collect::<Vec<_>>(),
                [(0, 2.0), (1, 0.0)]
            );
        }
    }

    #[test]
    fn a_group_with_only_internal_arcs_is_one_self_loop() {
        let g = Csr::from_edge_list(EdgeList::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        ));
        let assignment = vec![1u64, 1, 1, 4, 4, 4];
        for p in [1, 2, 3] {
            let coarse = rebuild_with(&g, p, &assignment);
            assert_eq!(coarse.num_arcs(), 2, "p={p}");
            assert_eq!(
                (coarse.self_loop(0), coarse.self_loop(1)),
                (6.0, 4.0),
                "p={p}"
            );
        }
    }
}
