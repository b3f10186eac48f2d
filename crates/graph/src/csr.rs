//! Compressed-sparse-row storage for weighted undirected graphs.
//!
//! A `Csr` stores *directed arcs*: each undirected edge appears in both
//! rows, a self-loop appears once in its row. This is the storage layout
//! of the paper (Section IV, Fig 1) and makes the weighted degree of a
//! vertex exactly the sum of its row.

use crate::edgelist::EdgeList;
use crate::{assert_vertex_count, VertexId, Weight};

/// Weighted CSR graph over vertices `0..num_vertices()`, fewer than
/// [`crate::VERTEX_LIMIT`], so each destination is a `u32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    dests: Vec<u32>,
    weights: Vec<Weight>,
}

/// The one CSR row builder, behind [`Csr::from_edge_list`],
/// [`Csr::from_arcs`], `LocalGraph::from_arcs` and, one row block at a
/// time, `louvain_store::SlabBuilder::finish`: a counting sort by row
/// (`src - first`), then per row a stable sort by destination and a fold
/// of each run of equal destinations into one arc. `arcs` is called twice
/// (count, scatter) and must replay the same `(src, dst, w)` sequence; the
/// weights of one `(src, dst)` are summed left to right from 0.0 in that
/// order, which every bit-identity claim in this workspace (slab bytes,
/// rebuild against coarsen) is stated against. The rows come back as
/// `(dst, w)` pairs, so a caller can drop its source before splitting them;
/// every `dst` is below [`crate::VERTEX_LIMIT`], which the caller checked.
pub fn build_rows<I>(
    first: VertexId,
    nrows: usize,
    arcs: impl Fn() -> I,
) -> (Vec<usize>, Vec<(u32, Weight)>)
where
    I: Iterator<Item = (VertexId, VertexId, Weight)>,
{
    let mut offsets = vec![0usize; nrows + 1];
    arcs().for_each(|(u, _, _)| offsets[(u - first) as usize + 1] += 1);
    for i in 0..nrows {
        offsets[i + 1] += offsets[i];
    }
    // Bucket by row, keeping arrival order inside a row.
    let mut cursor = offsets[..nrows].to_vec();
    let mut rows: Vec<(u32, Weight)> = vec![(0, 0.0); offsets[nrows]];
    arcs().for_each(|(u, v, w)| {
        debug_assert!(v < crate::VERTEX_LIMIT);
        let at = &mut cursor[(u - first) as usize];
        rows[*at] = (v as u32, w);
        *at += 1;
    });
    // A row that arrives sorted — one sender's pre-merged row — is left
    // alone; one made of a sorted run per sender is what the run-adaptive
    // stable sort merges fastest. Runs fold toward the front of `rows`.
    let mut merged = 0;
    for i in 0..nrows {
        let (lo, hi) = (offsets[i], offsets[i + 1]);
        if !rows[lo..hi].is_sorted_by_key(|&(v, _)| v) {
            rows[lo..hi].sort_by_key(|&(v, _)| v);
        }
        offsets[i] = merged;
        for next in lo..hi {
            let (v, w) = rows[next];
            if merged > offsets[i] && rows[merged - 1].0 == v {
                rows[merged - 1].1 += w;
            } else {
                rows[merged] = (v, 0.0 + w);
                merged += 1;
            }
        }
    }
    offsets[nrows] = merged;
    rows.truncate(merged);
    (offsets, rows)
}

impl Csr {
    /// Build from an undirected edge list: both orientations of a
    /// non-loop, a loop once. Duplicate pairs (in either orientation) are
    /// merged, their weights summed in list order.
    pub fn from_edge_list(list: EdgeList) -> Self {
        assert_vertex_count(list.num_vertices());
        let (offsets, rows) = build_rows(0, list.num_vertices() as usize, || {
            list.edges().iter().flat_map(|e| {
                let back = (e.u != e.v).then_some((e.v, e.u, e.w));
                std::iter::once((e.u, e.v, e.w)).chain(back)
            })
        });
        drop(list); // before the split below allocates: it was the set-up peak
        Self::from_rows(offsets, rows)
    }

    /// Build from directed `(src, dst, w)` arcs, yielded twice in the same
    /// order; duplicate `(src, dst)` arcs are merged, their weights summed
    /// in that order. The caller guarantees symmetry (both orientations
    /// present for non-loops); this is checked in debug mode.
    pub fn from_arcs<I>(n: usize, arcs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId, Weight)>,
    {
        assert_vertex_count(n as u64);
        let (offsets, rows) = build_rows(0, n, arcs);
        Self::from_rows(offsets, rows)
    }

    /// Split `build_rows` output into the two arc arrays.
    fn from_rows(offsets: Vec<usize>, rows: Vec<(u32, Weight)>) -> Self {
        let (dests, weights) = rows.into_iter().unzip();
        let csr = Self {
            offsets,
            dests,
            weights,
        };
        debug_assert!(csr.is_symmetric(), "CSR built from asymmetric arc set");
        csr
    }

    /// Build from raw CSR storage (the slab-store load path). Panics if
    /// the parts are not a well-formed CSR; symmetry is checked in debug
    /// mode like every other constructor.
    pub fn from_raw_parts(offsets: Vec<usize>, dests: Vec<u32>, weights: Vec<Weight>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_vertex_count(offsets.len() as u64 - 1);
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be nondecreasing"
        );
        assert_eq!(*offsets.last().unwrap(), dests.len());
        assert_eq!(dests.len(), weights.len());
        let csr = Self {
            offsets,
            dests,
            weights,
        };
        debug_assert!(csr.is_symmetric(), "CSR built from asymmetric raw parts");
        csr
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (2·|undirected non-loop edges| + |loops|).
    pub fn num_arcs(&self) -> usize {
        self.dests.len()
    }

    /// Number of undirected edges (self-loops count once).
    pub fn num_edges(&self) -> usize {
        let loops = (0..self.num_vertices())
            .flat_map(|u| {
                self.neighbors(u as VertexId)
                    .filter(move |&(v, _)| v == u as VertexId)
            })
            .count();
        (self.num_arcs() - loops) / 2 + loops
    }

    /// Out-degree of `v` in arcs.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterator over `(neighbor, weight)` of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let v = v as usize;
        let range = self.offsets[v]..self.offsets[v + 1];
        self.dests[range.clone()]
            .iter()
            .map(|&d| VertexId::from(d))
            .zip(self.weights[range].iter().copied())
    }

    /// Weighted degree `k_v` = sum of the row's arc weights (self-loop
    /// counts once, matching the coarsening-invariant convention).
    pub fn weighted_degree(&self, v: VertexId) -> Weight {
        let v = v as usize;
        self.weights[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .sum()
    }

    /// All weighted degrees at once (one pass).
    pub fn weighted_degrees(&self) -> Vec<Weight> {
        (0..self.num_vertices())
            .map(|v| self.weighted_degree(v as VertexId))
            .collect()
    }

    /// `2m` in the modularity formula: the sum of all arc weights.
    pub fn two_m(&self) -> Weight {
        self.weights.iter().sum()
    }

    /// Self-loop weight of `v` (0 if none).
    pub fn self_loop(&self, v: VertexId) -> Weight {
        self.neighbors(v)
            .filter(|&(u, _)| u == v)
            .map(|(_, w)| w)
            .sum()
    }

    /// True if every non-loop arc has its reverse with equal weight.
    pub fn is_symmetric(&self) -> bool {
        for u in 0..self.num_vertices() as VertexId {
            for (v, w) in self.neighbors(u) {
                if v == u {
                    continue;
                }
                let back: Weight = self
                    .neighbors(v)
                    .filter(|&(x, _)| x == u)
                    .map(|(_, w)| w)
                    .sum();
                if (back - w).abs() > 1e-9 * w.abs().max(1.0) {
                    return false;
                }
            }
        }
        true
    }

    /// Raw offsets (length `n+1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw destination array.
    pub fn dests(&self) -> &[u32] {
        &self.dests
    }

    /// Raw weight array (parallel to [`Csr::dests`]).
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Export as an undirected edge list (each non-loop pair emitted once).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::new(self.num_vertices() as u64);
        for u in 0..self.num_vertices() as VertexId {
            for (v, w) in self.neighbors(u) {
                if u <= v {
                    el.push(u, v, w);
                }
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_loop() -> Csr {
        // Triangle 0-1-2 plus a self-loop on 2.
        Csr::from_edge_list(EdgeList::from_edges(
            3,
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 2, 4.0)],
        ))
    }

    #[test]
    fn basic_shape() {
        let g = triangle_with_loop();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 7); // 3 edges * 2 + 1 loop
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn weighted_degrees_and_two_m() {
        let g = triangle_with_loop();
        assert_eq!(g.weighted_degree(0), 4.0); // 1 + 3
        assert_eq!(g.weighted_degree(1), 3.0); // 1 + 2
        assert_eq!(g.weighted_degree(2), 9.0); // 2 + 3 + 4
        assert_eq!(g.two_m(), 16.0);
        let degs = g.weighted_degrees();
        assert_eq!(degs, vec![4.0, 3.0, 9.0]);
    }

    #[test]
    fn self_loop_weight() {
        let g = triangle_with_loop();
        assert_eq!(g.self_loop(2), 4.0);
        assert_eq!(g.self_loop(0), 0.0);
    }

    #[test]
    fn symmetry_detected() {
        let g = triangle_with_loop();
        assert!(g.is_symmetric());
        let bad = Csr {
            offsets: vec![0, 1, 1],
            dests: vec![1],
            weights: vec![1.0],
        };
        assert!(!bad.is_symmetric());
    }

    #[test]
    fn neighbors_sorted_by_destination() {
        let g = triangle_with_loop();
        let n2: Vec<_> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(n2, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Csr::from_edge_list(EdgeList::from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)]));
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.weighted_degree(0), 2.0);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = triangle_with_loop();
        let g2 = Csr::from_edge_list(g.to_edge_list());
        assert_eq!(g, g2);
    }

    /// `from_edge_list` as it was before `build_rows`, kept as its
    /// reference: sum each `(min, max)` pair in a hash map in list order,
    /// sort the pairs, expand to arcs, sort the arcs. Also returns the
    /// deduplicated edges, which `EdgeList::dedup_sum` must still equal.
    fn from_edge_list_by_hash_dedup(list: &EdgeList) -> (Csr, Vec<(VertexId, VertexId, u64)>) {
        let mut acc = crate::hash::fast_map::<(VertexId, VertexId), Weight>();
        for e in list.edges() {
            *acc.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0.0) += e.w;
        }
        let mut edges: Vec<_> = acc.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut arcs = Vec::new();
        for &(u, v, w) in &edges {
            arcs.push((u, v, w));
            if u != v {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let n = list.num_vertices() as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let csr = Csr {
            offsets,
            dests: arcs.iter().map(|&(_, v, _)| v as u32).collect(),
            weights: arcs.iter().map(|&(_, _, w)| w).collect(),
        };
        let edges = edges.iter().map(|&(u, v, w)| (u, v, w.to_bits()));
        (csr, edges.collect())
    }

    fn assert_matches_the_hash_dedup(list: EdgeList, what: &str) {
        let bits = |w: &[Weight]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let (want, want_edges) = from_edge_list_by_hash_dedup(&list);
        let mut deduped = list.clone();
        deduped.dedup_sum();
        let got_edges = deduped.edges().iter().map(|e| (e.u, e.v, e.w.to_bits()));
        assert_eq!(got_edges.collect::<Vec<_>>(), want_edges, "{what}");
        let got = Csr::from_edge_list(list);
        assert_eq!(got.offsets, want.offsets, "{what}");
        assert_eq!(got.dests, want.dests, "{what}");
        assert_eq!(bits(&got.weights), bits(&want.weights), "{what}");
    }

    #[test]
    fn from_edge_list_matches_the_hash_dedup_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        assert_matches_the_hash_dedup(EdgeList::new(0), "no vertices");
        assert_matches_the_hash_dedup(EdgeList::new(7), "no edges");
        let signed_zero = EdgeList::from_edges(2, [(0, 1, -0.0), (1, 1, -0.0)]);
        assert_matches_the_hash_dedup(signed_zero, "a lone -0.0 sums to 0.0");
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Vertices 20.. stay isolated; few enough pairs that most
            // repeat, in both orientations, and loops repeat too.
            let mut list = EdgeList::new(24);
            for _ in 0..rng.random_range(1..400usize) {
                let (u, v) = (rng.random_range(0..20u64), rng.random_range(0..20u64));
                let u = if rng.random_bool(0.1) { v } else { u };
                list.push(u, v, rng.random::<f64>() * 3.0 + 1e-3);
            }
            assert_matches_the_hash_dedup(list, &format!("seed {seed}"));
        }
        let mut list = EdgeList::new(1 << 14);
        let p = crate::gen::RmatParams::social(14, 8, 3);
        crate::gen::rmat_stream(p, &mut list).unwrap();
        assert_matches_the_hash_dedup(list, "rmat scale 14");
    }

    #[test]
    #[should_panic(expected = "fewer than 4294967296")]
    fn a_graph_past_the_vertex_limit_is_refused_before_its_rows() {
        // Asserted before `build_rows` sizes anything by n.
        Csr::from_arcs(1 << 32, std::iter::empty);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = Csr::from_edge_list(EdgeList::from_edges(5, [(0, 1, 1.0)]));
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.weighted_degree(3), 0.0);
    }
}
