//! RMAT (recursive matrix) generator — the standard model for scale-free
//! social networks. Stand-in for com-orkut / twitter-2010 / soc-friendster /
//! soc-sinaweibo in the paper's Table II: heavy-tailed degrees and weak
//! community structure (Louvain modularity around 0.4–0.5).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::Generated;
use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::ingest::IngestError;
use crate::sink::EdgeSink;

/// Parameters for [`rmat`].
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// `n = 2^scale` vertices.
    pub scale: u32,
    /// `m = n · edge_factor` undirected edges sampled.
    pub edge_factor: u32,
    /// Quadrant probabilities; must sum to ~1. Graph500 uses
    /// (0.57, 0.19, 0.19, 0.05).
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub seed: u64,
}

impl RmatParams {
    /// Graph500-style socials: a=0.57 b=0.19 c=0.19 d=0.05.
    pub fn social(scale: u32, edge_factor: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }
}

/// Generate an RMAT graph. Duplicate edges are merged, self-loops skipped.
pub fn rmat(p: RmatParams) -> Generated {
    let mut el = EdgeList::new(1 << p.scale);
    rmat_stream(p, &mut el).expect("in-memory sink is infallible");
    Generated {
        graph: Csr::from_edge_list(el),
        ground_truth: None,
    }
}

/// One level of the descent: the `(u, v)` bits of the quadrant `r` falls
/// in, for thresholds `a ≤ ab ≤ abc` — `(0, 0)` below `a`, then `(0, 1)`,
/// `(1, 0)`, and `(1, 1)` from `abc` up. Comparisons summed, not branched
/// on: a branch on a uniform draw is mispredicted nearly half the time.
fn quadrant(r: f64, a: f64, ab: f64, abc: f64) -> (u64, u64) {
    let u = (r >= ab) as u64;
    (u, (r >= a) as u64 - u + (r >= abc) as u64)
}

/// Emit the RMAT edge stream into `sink` in bounded memory: O(1) state
/// beyond the quadrant descent. [`rmat`] is this loop collected into an
/// [`EdgeList`], so both paths see the identical edge sequence.
pub fn rmat_stream(p: RmatParams, sink: &mut impl EdgeSink) -> Result<(), IngestError> {
    let n: u64 = 1 << p.scale;
    let m = n * p.edge_factor as u64;
    let (ab, abc) = (p.a + p.b, p.a + p.b + p.c);
    // `1 - a - b - c` rounds below zero when d is 0: (0.05, 0.45, 0.50).
    assert!(
        p.a >= 0.0 && p.b >= 0.0 && p.c >= 0.0 && abc <= 1.0 + 1e-9,
        "quadrant probabilities negative or exceed 1"
    );
    let mut rng = SmallRng::seed_from_u64(p.seed);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for level in (0..p.scale).rev() {
            let (ubit, vbit) = quadrant(rng.random(), p.a, ab, abc);
            u |= ubit << level;
            v |= vbit << level;
        }
        if u != v {
            sink.edge(u, v, 1.0)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_as_requested() {
        let g = rmat(RmatParams::social(10, 8, 5)).graph;
        assert_eq!(g.num_vertices(), 1024);
        // Some duplicates collapse; expect most of the 8192 sampled edges.
        assert!(g.num_edges() > 4000, "edges = {}", g.num_edges());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = rmat(RmatParams::social(12, 8, 9)).graph;
        let mut degs: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v as u64)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // The top vertex should have degree far above the average.
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(degs[0] as f64 > 10.0 * avg, "max={} avg={avg}", degs[0]);
    }

    /// The descent as it branched before [`quadrant`], kept as its
    /// reference: one draw per level, three-way `if`.
    fn rmat_edges_by_branching(p: RmatParams) -> Vec<(u64, u64)> {
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let mut edges = Vec::new();
        for _ in 0..(p.edge_factor as u64) << p.scale {
            let (mut u, mut v) = (0u64, 0u64);
            for level in (0..p.scale).rev() {
                let r: f64 = rng.random();
                let bit = 1u64 << level;
                if r < p.a {
                    // top-left: no bits
                } else if r < p.a + p.b {
                    v |= bit;
                } else if r < p.a + p.b + p.c {
                    u |= bit;
                } else {
                    u |= bit;
                    v |= bit;
                }
            }
            if u != v {
                edges.push((u, v));
            }
        }
        edges
    }

    #[test]
    fn branch_free_descent_emits_the_branching_sequence() {
        for (a, b, c) in [(0.57, 0.19, 0.19), (0.05, 0.45, 0.50)] {
            for scale in [1, 7, 12] {
                for seed in [0, 5, 77] {
                    let p = RmatParams {
                        a,
                        b,
                        c,
                        ..RmatParams::social(scale, 4, seed)
                    };
                    let mut el = EdgeList::new(1 << scale);
                    rmat_stream(p, &mut el).unwrap();
                    let got: Vec<_> = el.edges().iter().map(|e| (e.u, e.v)).collect();
                    assert_eq!(got, rmat_edges_by_branching(p), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn a_draw_on_a_threshold_falls_in_the_upper_quadrant() {
        let (a, ab, abc) = (0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19);
        assert_eq!(quadrant(0.0, a, ab, abc), (0, 0));
        assert_eq!(quadrant(a, a, ab, abc), (0, 1));
        assert_eq!(quadrant(ab, a, ab, abc), (1, 0));
        assert_eq!(quadrant(abc, a, ab, abc), (1, 1));
        // Empty quadrants (equal thresholds) are skipped, not summed twice.
        assert_eq!(quadrant(0.5, 0.5, 0.5, 1.0), (1, 0));
        assert_eq!(quadrant(0.5, 0.5, 0.5, 0.5), (1, 1));
        assert_eq!(quadrant(0.5, 0.0, 1.0, 1.0), (0, 1));
    }

    #[test]
    fn every_grid_triple_summing_to_one_is_accepted() {
        // 5 % grid, d = 0: `1 - a - b - c` rounds below zero on 70 of these 231.
        let mut el = EdgeList::new(8);
        for i in 0..=20u32 {
            for j in 0..=20 - i {
                let [a, b, c] = [i, j, 20 - i - j].map(|k| k as f64 / 20.0);
                let p = RmatParams {
                    a,
                    b,
                    c,
                    ..RmatParams::social(3, 1, 1)
                };
                rmat_stream(p, &mut el).unwrap();
            }
        }
        assert!(!el.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn quadrants_summing_past_one_are_refused() {
        let p = RmatParams {
            a: 0.7,
            ..RmatParams::social(3, 1, 1)
        };
        rmat_stream(p, &mut EdgeList::new(8)).unwrap();
    }

    #[test]
    fn deterministic() {
        let p = RmatParams::social(9, 4, 77);
        assert_eq!(rmat(p).graph, rmat(p).graph);
    }
}
