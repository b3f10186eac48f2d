//! Community assignments, modularity (Eq. 2 of the paper), and
//! shared-memory coarsening.

use crate::csr::Csr;
use crate::hash::fast_map;
use crate::{VertexId, Weight};

/// A community id per vertex. Ids are arbitrary `u64`s — in the Louvain
/// algorithm they originate from vertex ids ("community IDs originate from
/// vertex IDs", Fig 1 of the paper) and become dense only after
/// [`renumber`].
pub type CommunityAssignment = Vec<VertexId>;

/// Assignment with every vertex in its own community (the Louvain start
/// state).
pub fn singleton_assignment(n: usize) -> CommunityAssignment {
    (0..n as VertexId).collect()
}

/// Modularity per Eq. 2 of the paper:
/// `Q = Σ_c [ e_in(c)/2m − (a_c/2m)² ]`
/// where `e_in(c)` is the total weight of arcs internal to `c` (self-loops
/// once) and `a_c` the summed weighted degree of its members.
pub fn modularity(g: &Csr, comm: &[VertexId]) -> f64 {
    assert_eq!(g.num_vertices(), comm.len());
    let two_m = g.two_m();
    if two_m == 0.0 {
        return 0.0;
    }
    let mut e_in = fast_map::<VertexId, Weight>();
    let mut a = fast_map::<VertexId, Weight>();
    for u in 0..g.num_vertices() as VertexId {
        let cu = comm[u as usize];
        *a.entry(cu).or_insert(0.0) += g.weighted_degree(u);
        for (v, w) in g.neighbors(u) {
            if comm[v as usize] == cu {
                *e_in.entry(cu).or_insert(0.0) += w;
            }
        }
    }
    let mut q = 0.0;
    for (c, &ac) in &a {
        let ein = e_in.get(c).copied().unwrap_or(0.0);
        q += ein / two_m - (ac / two_m) * (ac / two_m);
    }
    q
}

/// Renumber community ids to dense `0..k`; returns the dense assignment
/// and `k`. Order of first appearance (deterministic). The ids index a
/// table of `max id + 1` slots, so they must be small: every caller
/// passes vertex ids below the vertex count.
pub fn renumber(comm: &[VertexId]) -> (CommunityAssignment, usize) {
    let mut dense_of = vec![VertexId::MAX; comm.iter().max().map_or(0, |&m| m as usize + 1)];
    let mut next: VertexId = 0;
    let dense = comm
        .iter()
        .map(|&c| {
            let slot = &mut dense_of[c as usize];
            if *slot == VertexId::MAX {
                *slot = next;
                next += 1;
            }
            *slot
        })
        .collect();
    (dense, next as usize)
}

/// Sizes of each community under a dense assignment.
pub fn community_sizes(dense: &[VertexId], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &c in dense {
        sizes[c as usize] += 1;
    }
    sizes
}

/// Number of distinct communities in an (arbitrary-id) assignment.
pub fn count_communities(comm: &[VertexId]) -> usize {
    let mut set = crate::hash::fast_set();
    set.extend(comm.iter().copied());
    set.len()
}

/// Collapse each community into one vertex (the phase transition of the
/// Louvain method). Weights between communities are summed; internal arcs
/// become self-loop weight. Returns the coarse graph and the dense
/// vertex→coarse-vertex map.
///
/// With the arc-storage convention, modularity is *exactly* preserved:
/// `modularity(coarse, singleton) == modularity(g, comm)`.
pub fn coarsen(g: &Csr, comm: &[VertexId]) -> (Csr, CommunityAssignment) {
    assert_eq!(g.num_vertices(), comm.len());
    let (dense, k) = renumber(comm);
    // Every arc lands on (c_u, c_v), summed per pair by the builder:
    // off-diagonal entries appear from both orientations already; the
    // diagonal accumulates every internal arc (2× per undirected internal edge
    // + 1× per loop), exactly the self-loop weight keeping a_c, e_in invariant.
    let dense_of = |v: VertexId| dense[v as usize];
    let coarse = Csr::from_arcs(k, || {
        (0..g.num_vertices() as VertexId).flat_map(|u| {
            g.neighbors(u)
                .map(move |(v, w)| (dense_of(u), dense_of(v), w))
        })
    });
    (coarse, dense)
}

/// Map a fine-graph assignment through a coarse-graph assignment:
/// `result[v] = coarse_comm[fine_to_coarse[v]]`. Used to flatten the
/// multi-phase Louvain hierarchy back onto original vertices.
pub fn project(fine_to_coarse: &[VertexId], coarse_comm: &[VertexId]) -> CommunityAssignment {
    fine_to_coarse
        .iter()
        .map(|&cv| coarse_comm[cv as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    /// Two triangles joined by one edge — the classic two-community graph.
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

    #[test]
    fn modularity_of_good_split_is_positive() {
        let g = two_triangles();
        let comm = vec![0, 0, 0, 1, 1, 1];
        let q = modularity(&g, &comm);
        // Known value: e_in per triangle = 6 (3 edges × 2 arcs), 2m = 14,
        // a_c = 7 → Q = 2·(6/14 − (7/14)²) = 2·(0.42857 − 0.25) ≈ 0.35714.
        assert!((q - 0.357142857).abs() < 1e-8, "q = {q}");
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = two_triangles();
        let comm = vec![0; 6];
        let q = modularity(&g, &comm);
        assert!(q.abs() < 1e-12, "q = {q}");
    }

    #[test]
    fn modularity_of_singletons_is_negative() {
        let g = two_triangles();
        let q = modularity(&g, &singleton_assignment(6));
        assert!(q < 0.0, "q = {q}");
    }

    #[test]
    fn renumber_is_dense_and_stable() {
        let (dense, k) = renumber(&[42, 7, 42, 9, 7]);
        assert_eq!(dense, vec![0, 1, 0, 2, 1]);
        assert_eq!(k, 3);
    }

    /// The hash-map `renumber` the dense table replaced: the oracle.
    fn renumber_hashed(comm: &[VertexId]) -> (CommunityAssignment, usize) {
        let mut map = crate::hash::fast_map_with_capacity::<VertexId, VertexId>(comm.len());
        let mut next: VertexId = 0;
        let dense = comm
            .iter()
            .map(|&c| {
                *map.entry(c).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        (dense, next as usize)
    }

    #[test]
    fn dense_renumber_matches_the_hashed_one() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(44);
        assert_eq!(renumber(&[]), renumber_hashed(&[]));
        for case in 0..400 {
            let len = rng.random_range(1..300usize);
            // Ids below the length, up to 40× above it, and one lone
            // id far above every other.
            let span = match case % 3 {
                0 => len as u64,
                _ => rng.random_range(1..40 * len as u64),
            };
            let mut comm: Vec<VertexId> = (0..len).map(|_| rng.random_range(0..span)).collect();
            if case % 3 == 2 {
                let at = rng.random_range(0..len);
                comm[at] = 1_000_000 + rng.random_range(0..1000u64);
            }
            assert_eq!(renumber(&comm), renumber_hashed(&comm), "case {case}");
        }
    }

    #[test]
    fn sizes_and_counts() {
        let (dense, k) = renumber(&[5, 5, 8, 5]);
        assert_eq!(community_sizes(&dense, k), vec![3, 1]);
        assert_eq!(count_communities(&[5, 5, 8, 5]), 2);
    }

    #[test]
    fn coarsen_preserves_modularity_exactly() {
        let g = two_triangles();
        let comm = vec![0, 0, 0, 1, 1, 1];
        let q_fine = modularity(&g, &comm);
        let (coarse, _map) = coarsen(&g, &comm);
        assert_eq!(coarse.num_vertices(), 2);
        let q_coarse = modularity(&coarse, &singleton_assignment(2));
        assert!((q_fine - q_coarse).abs() < 1e-12);
    }

    #[test]
    fn coarsen_weights_are_correct() {
        let g = two_triangles();
        let (coarse, map) = coarsen(&g, &[0, 0, 0, 1, 1, 1]);
        assert_eq!(map, vec![0, 0, 0, 1, 1, 1]);
        // Each triangle: 3 internal undirected edges → self-loop weight 6.
        assert_eq!(coarse.self_loop(0), 6.0);
        assert_eq!(coarse.self_loop(1), 6.0);
        // The bridge keeps weight 1 in both directions.
        let w01: f64 = coarse
            .neighbors(0)
            .filter(|&(v, _)| v == 1)
            .map(|(_, w)| w)
            .sum();
        assert_eq!(w01, 1.0);
        assert_eq!(coarse.two_m(), g.two_m());
    }

    #[test]
    fn project_composes_assignments() {
        let fine_to_coarse = vec![0, 0, 1, 1, 2];
        let coarse_comm = vec![7, 7, 9];
        assert_eq!(project(&fine_to_coarse, &coarse_comm), vec![7, 7, 7, 7, 9]);
    }

    #[test]
    fn modularity_empty_graph_is_zero() {
        let g = Csr::from_edge_list(EdgeList::new(3));
        assert_eq!(modularity(&g, &singleton_assignment(3)), 0.0);
    }
}
