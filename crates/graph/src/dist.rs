//! Per-rank pieces of a distributed graph.
//!
//! Mirrors the paper's layout (Fig 1): the index array uses local offsets,
//! the edge array holds **global** destination ids (as `u32`, below
//! [`crate::VERTEX_LIMIT`]); each rank also knows the full ownership
//! table ([`VertexPartition`]).

use std::borrow::Cow;

use crate::csr::{build_rows, Csr};
use crate::partition::VertexPartition;
use crate::{assert_vertex_count, VertexId, Weight};

/// The portion of a distributed graph owned by one rank: a CSR over the
/// rank's contiguous vertex range, with global destination ids. The
/// rebased offsets are its own; the rows are borrowed from a resident
/// [`Csr`] or a mapped slab, and owned when built or read for this rank.
#[derive(Debug, Clone)]
pub struct LocalGraph<'a> {
    part: VertexPartition,
    rank: usize,
    offsets: Vec<usize>,
    dests: Cow<'a, [u32]>,
    weights: Cow<'a, [Weight]>,
}

impl<'a> LocalGraph<'a> {
    /// Build from arcs whose sources are all owned by `rank`, as they
    /// arrive from an edge redistribution: one vector per sending rank.
    /// Duplicate `(src, dst)` arcs are merged, weights summed in arrival order.
    pub fn from_arcs(
        part: VertexPartition,
        rank: usize,
        arcs: Vec<Vec<(VertexId, VertexId, Weight)>>,
    ) -> Self {
        let (offsets, rows) = build_rows(part.first(rank), part.num_local(rank), || {
            arcs.iter().flatten().copied()
        });
        drop(arcs); // before the split below allocates: it was the peak at p=2
        let (dests, weights): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        Self::from_csr_parts(part, rank, offsets, dests, weights)
    }

    /// Split a whole graph into per-rank pieces along `part` (sequential
    /// construction used by tests and by harnesses that generate the input
    /// in one place). Each piece borrows its rows from `g`.
    pub fn scatter(g: &'a Csr, part: &VertexPartition) -> Vec<Self> {
        assert_eq!(g.num_vertices() as u64, part.num_vertices());
        (0..part.num_ranks())
            .map(|rank| {
                let range = part.range(rank);
                let first = range.start;
                let lo = g.offsets()[first as usize];
                let hi = g.offsets()[range.end as usize];
                let offsets = g.offsets()[first as usize..=range.end as usize]
                    .iter()
                    .map(|&o| o - lo)
                    .collect();
                LocalGraph {
                    part: part.clone(),
                    rank,
                    offsets,
                    dests: Cow::Borrowed(&g.dests()[lo..hi]),
                    weights: Cow::Borrowed(&g.weights()[lo..hi]),
                }
            })
            .collect()
    }

    /// Build from raw CSR storage, owning `Vec` rows and borrowing slices.
    /// Panics if the parts are not a well-formed CSR for `rank`'s range.
    pub fn from_csr_parts(
        part: VertexPartition,
        rank: usize,
        offsets: Vec<usize>,
        dests: impl Into<Cow<'a, [u32]>>,
        weights: impl Into<Cow<'a, [Weight]>>,
    ) -> Self {
        assert_vertex_count(part.num_vertices());
        let (dests, weights) = (dests.into(), weights.into());
        assert!(rank < part.num_ranks(), "rank {rank} out of range");
        assert_eq!(
            offsets.len(),
            part.num_local(rank) + 1,
            "offsets length does not match the rank's vertex count"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be nondecreasing"
        );
        assert_eq!(*offsets.last().unwrap(), dests.len());
        assert_eq!(dests.len(), weights.len());
        Self {
            part,
            rank,
            offsets,
            dests,
            weights,
        }
    }

    /// Ownership table shared by all ranks.
    pub fn partition(&self) -> &VertexPartition {
        &self.part
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Global id of the first owned vertex.
    pub fn first_vertex(&self) -> VertexId {
        self.part.first(self.rank)
    }

    /// Number of owned vertices.
    pub fn num_local(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total vertices in the global graph.
    pub fn num_global(&self) -> u64 {
        self.part.num_vertices()
    }

    /// Number of locally stored arcs.
    pub fn num_local_arcs(&self) -> usize {
        self.dests.len()
    }

    /// The raw CSR storage of this rank's slab, `(offsets, dests,
    /// weights)` — the exact state a checkpoint must persist.
    /// [`LocalGraph::from_csr_parts`] is the inverse.
    pub fn csr_parts(&self) -> (&[usize], &[u32], &[Weight]) {
        (&self.offsets, &self.dests, &self.weights)
    }

    /// Convert a global id of an owned vertex to its local index.
    #[inline]
    pub fn to_local(&self, v: VertexId) -> usize {
        debug_assert_eq!(self.part.owner_of(v), self.rank);
        (v - self.first_vertex()) as usize
    }

    /// Convert a local index to the global id.
    #[inline]
    pub fn to_global(&self, l: usize) -> VertexId {
        self.first_vertex() + l as VertexId
    }

    /// Neighbors (global ids) of the local vertex `l`.
    #[inline]
    pub fn neighbors(&self, l: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[l]..self.offsets[l + 1];
        self.dests[range.clone()]
            .iter()
            .map(|&d| VertexId::from(d))
            .zip(self.weights[range].iter().copied())
    }

    /// Weighted degree of local vertex `l` (self-loop counts once).
    pub fn weighted_degree(&self, l: usize) -> Weight {
        self.weights[self.offsets[l]..self.offsets[l + 1]]
            .iter()
            .sum()
    }

    /// Sum of all local arc weights (this rank's contribution to `2m`).
    pub fn local_arc_weight(&self) -> Weight {
        self.weights.iter().sum()
    }

    /// Reassemble a full CSR from all pieces (testing / root-side quality
    /// checks only).
    pub fn assemble(parts: &[LocalGraph<'_>]) -> Csr {
        assert!(!parts.is_empty());
        Csr::from_arcs(parts[0].num_global() as usize, || {
            parts.iter().flat_map(|p| {
                (0..p.num_local())
                    .flat_map(move |l| p.neighbors(l).map(move |(v, w)| (p.to_global(l), v, w)))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::hash::fast_map_with_capacity;

    fn path_graph(n: u64) -> Csr {
        let mut el = EdgeList::new(n);
        for v in 0..n - 1 {
            el.push(v, v + 1, 1.0);
        }
        Csr::from_edge_list(el)
    }

    #[test]
    fn scatter_partitions_all_arcs() {
        let g = path_graph(10);
        let part = VertexPartition::balanced_vertices(10, 3);
        let parts = LocalGraph::scatter(&g, &part);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.num_local_arcs()).sum();
        assert_eq!(total, g.num_arcs());
        for p in &parts {
            assert_eq!(p.num_local(), part.num_local(p.rank()));
        }
    }

    #[test]
    fn scatter_then_assemble_roundtrips() {
        let g = path_graph(17);
        let part = VertexPartition::balanced_edges(&g, 4);
        let parts = LocalGraph::scatter(&g, &part);
        let g2 = LocalGraph::assemble(&parts);
        assert_eq!(g, g2);
    }

    /// True when `inner`'s memory is a sub-range of `outer`'s.
    fn lies_within<T>(inner: &[T], outer: &[T]) -> bool {
        let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
        o.start <= i.start && i.end <= o.end
    }

    #[test]
    fn scatter_borrows_the_rows_of_the_csr() {
        let g = path_graph(10);
        let part = VertexPartition::balanced_vertices(10, 3);
        for lg in LocalGraph::scatter(&g, &part) {
            let (_, dests, weights) = lg.csr_parts();
            assert!(!dests.is_empty(), "rank {}", lg.rank());
            assert!(lies_within(dests, g.dests()), "rank {}", lg.rank());
            assert!(lies_within(weights, g.weights()), "rank {}", lg.rank());
            assert!(matches!(
                (&lg.dests, &lg.weights),
                (Cow::Borrowed(_), Cow::Borrowed(_))
            ));
        }
    }

    #[test]
    fn from_arcs_and_from_csr_parts_own_their_rows() {
        let part = VertexPartition::balanced_vertices(4, 2);
        let built = LocalGraph::from_arcs(part.clone(), 0, vec![vec![(0, 1, 1.0), (1, 3, 1.0)]]);
        let restored = LocalGraph::from_csr_parts(part, 0, vec![0, 1, 2], vec![1, 3], vec![1.0; 2]);
        for lg in [built, restored] {
            assert!(matches!(
                (&lg.dests, &lg.weights),
                (Cow::Owned(_), Cow::Owned(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 4294967296")]
    fn a_piece_of_a_graph_past_the_vertex_limit_is_refused() {
        let part = VertexPartition::from_starts(vec![0, 1, 1 << 32]);
        LocalGraph::from_csr_parts(part, 0, vec![0, 0], Vec::new(), Vec::new());
    }

    #[test]
    fn local_global_id_mapping() {
        let g = path_graph(10);
        let part = VertexPartition::balanced_vertices(10, 3);
        let parts = LocalGraph::scatter(&g, &part);
        let p1 = &parts[1];
        assert_eq!(p1.first_vertex(), 4);
        assert_eq!(p1.to_local(5), 1);
        assert_eq!(p1.to_global(1), 5);
    }

    #[test]
    fn neighbors_use_global_ids() {
        let g = path_graph(10);
        let part = VertexPartition::balanced_vertices(10, 3);
        let parts = LocalGraph::scatter(&g, &part);
        // Vertex 4 (local 0 of rank 1) has neighbors 3 (remote) and 5 (local).
        let n: Vec<_> = parts[1].neighbors(0).map(|(v, _)| v).collect();
        assert_eq!(n, vec![3, 5]);
    }

    #[test]
    fn from_arcs_merges_duplicates() {
        let part = VertexPartition::balanced_vertices(4, 2);
        let lg = LocalGraph::from_arcs(
            part,
            0,
            vec![vec![(0, 1, 1.0), (0, 1, 2.0), (1, 3, 1.0), (0, 0, 0.5)]],
        );
        assert_eq!(lg.num_local_arcs(), 3);
        let w01: f64 = lg
            .neighbors(0)
            .filter(|&(v, _)| v == 1)
            .map(|(_, w)| w)
            .sum();
        assert_eq!(w01, 3.0);
        assert_eq!(lg.weighted_degree(0), 3.5);
    }

    /// The hash-merge `from_arcs` used before the bucket/sort/fold one,
    /// kept as its reference: sum duplicates in a map in arrival order,
    /// then sort the unique arcs.
    fn from_arcs_by_hash_merge(
        part: &VertexPartition,
        rank: usize,
        arcs: &[(VertexId, VertexId, Weight)],
    ) -> (Vec<usize>, Vec<u32>, Vec<Weight>) {
        let first = part.first(rank);
        let nlocal = part.num_local(rank);
        let mut merged = fast_map_with_capacity::<(VertexId, VertexId), Weight>(arcs.len());
        for &(u, v, w) in arcs {
            *merged.entry((u, v)).or_insert(0.0) += w;
        }
        let mut sorted: Vec<_> = merged.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        sorted.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut offsets = vec![0usize; nlocal + 1];
        for &(u, _, _) in &sorted {
            offsets[(u - first) as usize + 1] += 1;
        }
        for i in 0..nlocal {
            offsets[i + 1] += offsets[i];
        }
        (
            offsets,
            sorted.iter().map(|&(_, v, _)| v as u32).collect(),
            sorted.iter().map(|&(_, _, w)| w).collect(),
        )
    }

    #[test]
    fn from_arcs_matches_the_hash_merge_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Rank 1 owns nothing; ranks 0 and 2 own 5 and 7 vertices.
        let part = VertexPartition::from_starts(vec![0, 5, 5, 12]);
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            for rank in 0..3 {
                let rows = part.range(rank);
                // Arcs arrive from four peers; some rows get none.
                let mut chunks: Vec<Vec<(VertexId, VertexId, Weight)>> = vec![Vec::new(); 4];
                let mut pool: Vec<(VertexId, VertexId)> = Vec::new();
                for u in rows.clone().filter(|u| (u + seed) % 3 != 0) {
                    pool.push((u, u));
                    for _ in 0..rng.random_range(0..6usize) {
                        pool.push((u, rng.random_range(0..12u64)));
                    }
                }
                for _ in 0..4 * pool.len() {
                    let (u, v) = pool[rng.random_range(0..pool.len())];
                    let chunk = &mut chunks[rng.random_range(0..4usize)];
                    // A run of the same arc, each with its own weight.
                    for _ in 0..rng.random_range(1..4usize) {
                        chunk.push((u, v, rng.random::<f64>() * 3.0 + 1e-3));
                    }
                }
                let flat: Vec<_> = chunks.iter().flatten().copied().collect();
                let want = from_arcs_by_hash_merge(&part, rank, &flat);
                let lg = LocalGraph::from_arcs(part.clone(), rank, chunks);
                let (offsets, dests, weights) = lg.csr_parts();
                let bits = |w: &[Weight]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(offsets, want.0, "seed {seed} rank {rank}");
                assert_eq!(dests, want.1, "seed {seed} rank {rank}");
                assert_eq!(bits(weights), bits(&want.2), "seed {seed} rank {rank}");
                assert_eq!(lg.num_local(), rows.count());
            }
        }
    }

    #[test]
    fn csr_parts_roundtrip() {
        let g = path_graph(12);
        let part = VertexPartition::balanced_vertices(12, 3);
        let parts = LocalGraph::scatter(&g, &part);
        for lg in &parts {
            let (offsets, dests, weights) = lg.csr_parts();
            let back = LocalGraph::from_csr_parts(
                lg.partition().clone(),
                lg.rank(),
                offsets.to_vec(),
                dests.to_vec(),
                weights.to_vec(),
            );
            assert_eq!(back.num_local(), lg.num_local());
            assert_eq!(back.num_local_arcs(), lg.num_local_arcs());
            for l in 0..lg.num_local() {
                assert!(back.neighbors(l).eq(lg.neighbors(l)));
            }
        }
    }

    #[test]
    fn local_arc_weight_sums_to_two_m() {
        let g = path_graph(12);
        let part = VertexPartition::balanced_vertices(12, 4);
        let parts = LocalGraph::scatter(&g, &part);
        let total: f64 = parts.iter().map(|p| p.local_arc_weight()).sum();
        assert_eq!(total, g.two_m());
    }
}
