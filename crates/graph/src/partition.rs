//! 1D vertex partitioning across ranks.
//!
//! The paper distributes "the input vertices and their edge lists evenly
//! across available processes, such that each process receives roughly the
//! same number of edges; no clever graph partitioning is performed."
//! Partitions are contiguous vertex ranges, so ownership lookup is a
//! binary search over `p+1` boundaries and every rank knows every other
//! rank's interval (static knowledge, as in the paper).

use crate::csr::Csr;
use crate::VertexId;

/// Contiguous vertex ranges: rank `i` owns `starts[i]..starts[i+1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPartition {
    starts: Vec<VertexId>,
}

impl VertexPartition {
    /// Build from explicit boundaries (must be monotone, first 0).
    pub fn from_starts(starts: Vec<VertexId>) -> Self {
        assert!(starts.len() >= 2, "need at least one rank");
        assert_eq!(starts[0], 0);
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "non-monotone boundaries"
        );
        Self { starts }
    }

    /// Equal vertex counts (±1). Used for the re-balanced coarse graphs
    /// ("new partitions are generated so that every process owns an equal
    /// number of vertices", rebuild step 6).
    pub fn balanced_vertices(n: u64, p: usize) -> Self {
        let base = n / p as u64;
        let extra = (n % p as u64) as usize;
        let mut starts = Vec::with_capacity(p + 1);
        let mut acc = 0u64;
        starts.push(0);
        for r in 0..p {
            acc += base + u64::from(r < extra);
            starts.push(acc);
        }
        Self { starts }
    }

    /// Boundaries chosen so each rank holds roughly the same number of
    /// arcs (the paper's input distribution).
    pub fn balanced_edges(g: &Csr, p: usize) -> Self {
        Self::balanced_offsets(g.offsets(), p)
    }

    /// [`VertexPartition::balanced_edges`] over any CSR offsets array
    /// (`n + 1` entries, monotone from 0, `usize` in memory or `u64` in a
    /// slab): boundary `r` is the first vertex whose offset reaches
    /// `total·r/p` arcs; with no arcs, vertex counts are balanced instead.
    pub fn balanced_offsets<O: Copy + TryInto<u64>>(offsets: &[O], p: usize) -> Self {
        assert!(p > 0);
        let arcs = |o: O| o.try_into().unwrap_or(u64::MAX);
        let n = offsets.len() as u64 - 1;
        let total = arcs(offsets[n as usize]);
        if total == 0 {
            return Self::balanced_vertices(n, p);
        }
        let mut starts = Vec::with_capacity(p + 1);
        starts.push(0);
        for r in 1..p as u64 {
            let target = total * r / p as u64;
            starts.push(offsets.partition_point(|&o| arcs(o) < target) as VertexId);
        }
        starts.push(n);
        Self { starts }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> u64 {
        *self.starts.last().unwrap()
    }

    /// Owning rank of vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        debug_assert!(v < self.num_vertices(), "vertex {v} out of range");
        // partition_point returns the first start > v; its predecessor owns v.
        self.starts.partition_point(|&s| s <= v) - 1
    }

    /// The vertex range owned by `rank`.
    pub fn range(&self, rank: usize) -> std::ops::Range<VertexId> {
        self.starts[rank]..self.starts[rank + 1]
    }

    /// Number of vertices owned by `rank`.
    pub fn num_local(&self, rank: usize) -> usize {
        (self.starts[rank + 1] - self.starts[rank]) as usize
    }

    /// First vertex of `rank`.
    pub fn first(&self, rank: usize) -> VertexId {
        self.starts[rank]
    }

    /// Raw boundaries (length `p+1`).
    pub fn starts(&self) -> &[VertexId] {
        &self.starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::gen::{lfr, rmat, ssca2, LfrParams, RmatParams, Ssca2Params};

    /// Reference rule for `balanced_edges`: walk the degrees one vertex at
    /// a time until the arcs passed reach `total·r/p`.
    fn degree_walk(g: &Csr, p: usize) -> VertexPartition {
        let n = g.num_vertices() as u64;
        let total = g.num_arcs() as u64;
        if total == 0 {
            return VertexPartition::balanced_vertices(n, p);
        }
        let mut starts = vec![0];
        let (mut acc, mut v) = (0u64, 0u64);
        for r in 1..p as u64 {
            let target = total * r / p as u64;
            while v < n && acc < target {
                acc += g.degree(v) as u64;
                v += 1;
            }
            starts.push(v);
        }
        starts.push(n);
        VertexPartition::from_starts(starts)
    }

    #[test]
    fn balanced_edges_equals_the_degree_walk_on_the_ladder_generators() {
        let graphs = [
            ("rmat", rmat(RmatParams::social(10, 8, 5)).graph),
            ("lfr", lfr(LfrParams::small(1_000, 5)).graph),
            ("ssca2", ssca2(Ssca2Params::paper(1_000, 5)).graph),
        ];
        for (name, g) in &graphs {
            for p in [1, 2, 3, 8, 64] {
                assert_eq!(
                    VertexPartition::balanced_edges(g, p),
                    degree_walk(g, p),
                    "{name} p={p}"
                );
            }
        }
    }

    #[test]
    fn balanced_vertices_covers_everything() {
        let p = VertexPartition::balanced_vertices(10, 3);
        assert_eq!(p.starts(), &[0, 4, 7, 10]);
        assert_eq!(p.num_ranks(), 3);
        assert_eq!(p.num_vertices(), 10);
        assert_eq!(p.num_local(0), 4);
        assert_eq!(p.num_local(2), 3);
    }

    #[test]
    fn owner_lookup_matches_ranges() {
        let p = VertexPartition::balanced_vertices(10, 3);
        for r in 0..3 {
            for v in p.range(r) {
                assert_eq!(p.owner_of(v), r, "vertex {v}");
            }
        }
    }

    #[test]
    fn owner_lookup_with_empty_ranks() {
        // Rank 1 owns nothing.
        let p = VertexPartition::from_starts(vec![0, 5, 5, 8]);
        assert_eq!(p.owner_of(4), 0);
        assert_eq!(p.owner_of(5), 2);
        assert_eq!(p.num_local(1), 0);
    }

    #[test]
    fn balanced_edges_evens_out_arc_counts() {
        // Star graph: vertex 0 has degree 9, others degree 1 — an
        // edge-balanced split puts vertex 0 alone on rank 0.
        let mut el = EdgeList::new(10);
        for v in 1..10 {
            el.push(0, v, 1.0);
        }
        let g = crate::csr::Csr::from_edge_list(el);
        let p = VertexPartition::balanced_edges(&g, 2);
        assert_eq!(p.num_ranks(), 2);
        let arcs_rank0: usize = p.range(0).map(|v| g.degree(v)).sum();
        let arcs_rank1: usize = p.range(1).map(|v| g.degree(v)).sum();
        assert!(
            arcs_rank0.abs_diff(arcs_rank1) <= 9,
            "{arcs_rank0} vs {arcs_rank1}"
        );
    }

    #[test]
    fn balanced_edges_zero_degree_falls_back() {
        let g = crate::csr::Csr::from_edge_list(EdgeList::new(4));
        let p = VertexPartition::balanced_edges(&g, 2);
        assert_eq!(p.starts(), &[0, 2, 4]);
    }

    #[test]
    fn more_ranks_than_vertices() {
        let p = VertexPartition::balanced_vertices(2, 4);
        assert_eq!(p.num_vertices(), 2);
        assert_eq!(p.num_ranks(), 4);
        let total: usize = (0..4).map(|r| p.num_local(r)).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn bad_boundaries_rejected() {
        VertexPartition::from_starts(vec![0, 5, 3]);
    }
}
