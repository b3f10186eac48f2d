//! Community-quality metrics beyond modularity.
//!
//! Modularity is the objective the Louvain method optimizes (and has a
//! known resolution limit — the paper cites Fortunato & Barthélemy); a
//! credible library also reports the standard complements: per-community
//! conductance, partition coverage, and the graph's clustering
//! coefficient.

use crate::csr::Csr;
use crate::hash::{fast_map, fast_set, FastMap};
use crate::{VertexId, Weight};

/// Per-partition summary produced by [`partition_metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Number of communities.
    pub num_communities: usize,
    /// Fraction of edge weight that is intra-community
    /// (`coverage = Σ_in / 2m`, 1.0 when everything is internal).
    pub coverage: f64,
    /// Weighted mean conductance over communities (0 = perfectly
    /// separated, 1 = all boundary).
    pub mean_conductance: f64,
    /// Largest / median community size.
    pub max_community: usize,
    pub median_community: usize,
}

/// Conductance of one community: `cut / min(vol, 2m − vol)` where `cut`
/// is the weight of boundary arcs and `vol` the community's total arc
/// weight. 0 for a disconnected perfect community; define 0 for
/// degenerate (empty or full-graph) communities.
pub fn conductance(g: &Csr, comm: &[VertexId], community: VertexId) -> f64 {
    let two_m = g.two_m();
    let mut cut = 0.0;
    let mut vol = 0.0;
    for v in 0..g.num_vertices() {
        if comm[v] != community {
            continue;
        }
        for (u, w) in g.neighbors(v as VertexId) {
            vol += w;
            if comm[u as usize] != community {
                cut += w;
            }
        }
    }
    let denom = vol.min(two_m - vol);
    if denom <= 0.0 {
        0.0
    } else {
        cut / denom
    }
}

/// Coverage: fraction of arc weight internal to communities.
pub fn coverage(g: &Csr, comm: &[VertexId]) -> f64 {
    let two_m = g.two_m();
    if two_m == 0.0 {
        return 1.0;
    }
    let mut internal = 0.0;
    for v in 0..g.num_vertices() {
        let cv = comm[v];
        for (u, w) in g.neighbors(v as VertexId) {
            if comm[u as usize] == cv {
                internal += w;
            }
        }
    }
    internal / two_m
}

/// Global clustering coefficient (transitivity): `3·triangles / wedges`,
/// unweighted. High for the paper's web/mesh graphs, low for random ones.
///
/// Triangles are counted once each over the edges oriented toward the
/// endpoint of higher `(degree, id)`: every vertex then has at most
/// `√(2m)` out-neighbours, so a hub's wedges are never enumerated and
/// the count is O(m·√m). A stamped marker array holds
/// the out-neighbours of the vertex being closed.
pub fn clustering_coefficient(g: &Csr) -> f64 {
    let n = g.num_vertices();
    let others = |v: usize| {
        g.neighbors(v as VertexId)
            .filter(move |&(u, _)| u != v as VertexId)
    };
    let degree: Vec<u64> = (0..n).map(|v| others(v).count() as u64).collect();
    let wedges: u64 = degree.iter().map(|&d| d * d.saturating_sub(1) / 2).sum();
    if wedges == 0 {
        return 0.0;
    }
    let higher = |v: usize, u: usize| (degree[v], v) < (degree[u], u);
    let mut starts = Vec::with_capacity(n + 1);
    let mut out: Vec<usize> = Vec::new();
    starts.push(0);
    for v in 0..n {
        out.extend(others(v).map(|(u, _)| u as usize).filter(|&u| higher(v, u)));
        starts.push(out.len());
    }
    let mut mark = vec![usize::MAX; n];
    let mut triangles = 0u64;
    for v in 0..n {
        let out_v = &out[starts[v]..starts[v + 1]];
        for &u in out_v {
            mark[u] = v;
        }
        for &u in out_v {
            let closed = out[starts[u]..starts[u + 1]]
                .iter()
                .filter(|&&w| mark[w] == v);
            triangles += closed.count() as u64;
        }
    }
    (3 * triangles) as f64 / wedges as f64
}

/// Full summary of a partition.
pub fn partition_metrics(g: &Csr, comm: &[VertexId]) -> PartitionMetrics {
    assert_eq!(g.num_vertices(), comm.len());
    let two_m = g.two_m();
    // One pass: per-community volume, cut, size.
    let mut vol: FastMap<VertexId, Weight> = fast_map();
    let mut cut: FastMap<VertexId, Weight> = fast_map();
    let mut size: FastMap<VertexId, usize> = fast_map();
    for v in 0..g.num_vertices() {
        let cv = comm[v];
        *size.entry(cv).or_insert(0) += 1;
        for (u, w) in g.neighbors(v as VertexId) {
            *vol.entry(cv).or_insert(0.0) += w;
            if comm[u as usize] != cv {
                *cut.entry(cv).or_insert(0.0) += w;
            }
        }
    }
    let ids: crate::hash::FastSet<VertexId> = {
        let mut s = fast_set();
        s.extend(comm.iter().copied());
        s
    };
    let num_communities = ids.len();
    let total_cut: f64 = cut.values().sum();
    let coverage = if two_m > 0.0 {
        1.0 - total_cut / two_m
    } else {
        1.0
    };
    // Size-weighted mean conductance.
    let n = g.num_vertices() as f64;
    let mut mean_conductance = 0.0;
    for &c in &ids {
        let v = vol.get(&c).copied().unwrap_or(0.0);
        let k = cut.get(&c).copied().unwrap_or(0.0);
        let denom = v.min(two_m - v);
        let phi = if denom <= 0.0 { 0.0 } else { k / denom };
        mean_conductance += phi * size[&c] as f64 / n;
    }
    let mut sizes: Vec<usize> = size.values().copied().collect();
    sizes.sort_unstable();
    PartitionMetrics {
        num_communities,
        coverage,
        mean_conductance,
        max_community: sizes.last().copied().unwrap_or(0),
        median_community: sizes.get(sizes.len() / 2).copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

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
    fn conductance_of_good_communities_is_low() {
        let g = two_triangles();
        let comm = vec![0, 0, 0, 1, 1, 1];
        // Each triangle: vol = 7 arcs weight, cut = 1.
        let phi = conductance(&g, &comm, 0);
        assert!((phi - 1.0 / 7.0).abs() < 1e-12, "phi = {phi}");
    }

    #[test]
    fn conductance_of_whole_graph_is_zero() {
        let g = two_triangles();
        assert_eq!(conductance(&g, &[0; 6], 0), 0.0);
    }

    #[test]
    fn coverage_counts_internal_fraction() {
        let g = two_triangles();
        let comm = vec![0, 0, 0, 1, 1, 1];
        // 12 of 14 arcs internal.
        assert!((coverage(&g, &comm) - 12.0 / 14.0).abs() < 1e-12);
        assert_eq!(coverage(&g, &[0; 6]), 1.0);
    }

    #[test]
    fn clustering_coefficient_of_triangle_is_one() {
        let g = Csr::from_edge_list(EdgeList::from_edges(
            3,
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
        ));
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    /// The per-wedge definition the counting replaced: each wedge
    /// `(a, b)` at each apex is closed if `b` is in `a`'s row (a linear
    /// scan). The oracle of `clustering_coefficient`.
    fn clustering_coefficient_by_wedges(g: &Csr) -> f64 {
        let n = g.num_vertices();
        let mut triangles = 0u64;
        let mut wedges = 0u64;
        for v in 0..n as VertexId {
            let nbrs: Vec<VertexId> = g.neighbors(v).map(|(u, _)| u).filter(|&u| u != v).collect();
            let d = nbrs.len() as u64;
            wedges += d.saturating_sub(1) * d / 2;
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    // Count each triangle once per apex.
                    if a < b && g.neighbors(a).any(|(x, _)| x == b) {
                        triangles += 1;
                    }
                }
            }
        }
        if wedges == 0 {
            0.0
        } else {
            triangles as f64 / wedges as f64
        }
    }

    #[test]
    fn clustering_coefficient_equals_the_per_wedge_scan() {
        use crate::gen::*;
        let mut graphs = Vec::new();
        for seed in [1, 2] {
            graphs.extend([
                lfr(LfrParams::small(400, seed)).graph,
                ssca2(Ssca2Params {
                    n: 400,
                    max_clique_size: 12,
                    inter_clique_prob: 0.05,
                    seed,
                })
                .graph,
                rmat(RmatParams::social(8, 8, seed)).graph,
                weblike(WeblikeParams::web(400, seed)).graph,
                grid3d(Grid3dParams::cube(343, seed)).graph,
                banded(BandedParams::channel_like(400, seed)).graph,
                erdos_renyi(ErdosRenyiParams {
                    n: 300,
                    avg_degree: 8.0,
                    seed,
                })
                .graph,
                barabasi_albert(BarabasiAlbertParams { n: 300, m: 4, seed }).graph,
                watts_strogatz(WattsStrogatzParams {
                    n: 300,
                    k: 6,
                    beta: 0.1,
                    seed,
                })
                .graph,
            ]);
        }
        // A star of 200 leaves whose hub is also in a 12-clique, and a
        // self-loop on a leaf.
        let mut el = EdgeList::new(212);
        for leaf in 12..212 {
            el.push(0, leaf, 1.0);
        }
        for a in 0..12 {
            for b in a + 1..12 {
                el.push(a, b, 1.0);
            }
        }
        el.push(20, 20, 1.0);
        graphs.push(Csr::from_edge_list(el));
        for (i, g) in graphs.iter().enumerate() {
            let (got, want) = (
                clustering_coefficient(g),
                clustering_coefficient_by_wedges(g),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "graph {i}: {got} vs {want}");
        }
        assert!(clustering_coefficient(graphs.last().unwrap()) > 0.0);
    }

    #[test]
    fn clustering_coefficient_of_star_is_zero() {
        let g = Csr::from_edge_list(EdgeList::from_edges(
            4,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
        ));
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn partition_metrics_summary() {
        let g = two_triangles();
        let m = partition_metrics(&g, &[0, 0, 0, 1, 1, 1]);
        assert_eq!(m.num_communities, 2);
        assert!((m.coverage - 12.0 / 14.0).abs() < 1e-12);
        assert!((m.mean_conductance - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.max_community, 3);
        assert_eq!(m.median_community, 3);
    }

    #[test]
    fn metrics_track_partition_quality_ordering() {
        let gen = crate::gen::lfr(crate::gen::LfrParams::small(1_000, 3));
        let good = partition_metrics(&gen.graph, gen.ground_truth.as_ref().unwrap());
        let singletons: Vec<u64> = (0..1_000).collect();
        let bad = partition_metrics(&gen.graph, &singletons);
        assert!(good.coverage > bad.coverage);
        assert!(good.mean_conductance < bad.mean_conductance);
    }
}
