//! Multi-phase driver: run phases, coarsen between them, flatten the
//! hierarchy back onto the original vertices.

use std::time::Duration;

use louvain_graph::community::{coarsen, project, singleton_assignment};
use louvain_graph::{Csr, VertexId};

use crate::config::GrappoloConfig;
use crate::phase::{run_phase, PhaseOutcome};
use crate::vf::vertex_following_assignment;

/// Per-phase record for convergence analysis.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    pub iterations: usize,
    pub modularity: f64,
    pub num_vertices: usize,
    pub curve: Vec<f64>,
}

/// Final result of a shared-memory Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Community id per original vertex (dense in `0..num_communities`).
    pub assignment: Vec<VertexId>,
    /// Final modularity.
    pub modularity: f64,
    pub num_communities: usize,
    pub phases: usize,
    pub total_iterations: usize,
    pub phase_traces: Vec<PhaseTrace>,
    pub elapsed: Duration,
}

/// The shared-memory multithreaded Louvain algorithm.
#[derive(Debug, Clone)]
pub struct ParallelLouvain {
    cfg: GrappoloConfig,
}

impl ParallelLouvain {
    pub fn new(cfg: GrappoloConfig) -> Self {
        Self { cfg }
    }

    pub fn config(&self) -> &GrappoloConfig {
        &self.cfg
    }

    /// Run to convergence on `g`, on one pool of `threads` threads.
    pub fn run(&self, g: &Csr) -> LouvainResult {
        let started = std::time::Instant::now();
        let cfg = &self.cfg;
        let pool = cfg.pool();
        let n0 = g.num_vertices();

        let mut owned: Option<Csr> = None;
        // original vertex -> vertex of the current (coarse) graph
        let mut flat: Vec<VertexId> = (0..n0 as VertexId).collect();
        let mut traces: Vec<PhaseTrace> = Vec::new();
        let mut prev_q = f64::NEG_INFINITY;
        let mut total_iterations = 0;

        for phase_idx in 0..cfg.max_phases {
            let cur: &Csr = owned.as_ref().unwrap_or(g);
            let n = cur.num_vertices();
            let init = if phase_idx == 0 && cfg.vertex_following {
                vertex_following_assignment(cur)
            } else {
                singleton_assignment(n)
            };
            let out: PhaseOutcome = run_phase(cur, &init, cfg, phase_idx, &pool);
            total_iterations += out.iterations;
            traces.push(PhaseTrace {
                iterations: out.iterations,
                modularity: out.modularity,
                num_vertices: n,
                curve: out.curve.clone(),
            });

            let gain = out.modularity - prev_q;
            let converged = prev_q.is_finite() && gain <= cfg.threshold;
            prev_q = prev_q.max(out.modularity);
            if converged {
                break;
            }

            let (coarse, dense) = coarsen(cur, &out.assignment);
            flat = project(&flat, &dense);
            let compressed = coarse.num_vertices() < n;
            owned = Some(coarse);
            if !compressed {
                break;
            }
        }

        let (dense_flat, num_communities) = louvain_graph::community::renumber(&flat);
        LouvainResult {
            assignment: dense_flat,
            modularity: prev_q.max(0.0f64.min(prev_q)),
            num_communities,
            phases: traces.len(),
            total_iterations,
            phase_traces: traces,
            elapsed: started.elapsed(),
        }
    }
}

impl Default for ParallelLouvain {
    fn default() -> Self {
        Self::new(GrappoloConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::community::modularity;
    use louvain_graph::gen::{lfr, ssca2, LfrParams, Ssca2Params};
    use louvain_graph::EdgeList;

    #[test]
    fn finds_planted_lfr_communities() {
        let gen = lfr(LfrParams::small(2_000, 11));
        let result = ParallelLouvain::default().run(&gen.graph);
        let q_truth = modularity(&gen.graph, gen.ground_truth.as_ref().unwrap());
        assert!(
            result.modularity > q_truth - 0.05,
            "found {} vs truth {}",
            result.modularity,
            q_truth
        );
        // Reported modularity must match recomputation on the flattened
        // assignment.
        let q_check = modularity(&gen.graph, &result.assignment);
        assert!((result.modularity - q_check).abs() < 1e-9);
    }

    #[test]
    fn ssca2_reaches_near_one() {
        let gen = ssca2(Ssca2Params {
            n: 3_000,
            max_clique_size: 30,
            inter_clique_prob: 0.02,
            seed: 5,
        });
        let result = ParallelLouvain::default().run(&gen.graph);
        assert!(result.modularity > 0.95, "q = {}", result.modularity);
    }

    #[test]
    fn assignment_is_dense() {
        let gen = lfr(LfrParams::small(1_000, 2));
        let result = ParallelLouvain::default().run(&gen.graph);
        let max = *result.assignment.iter().max().unwrap() as usize;
        assert_eq!(max + 1, result.num_communities);
    }

    #[test]
    fn multiple_phases_occur_on_structured_input() {
        let gen = lfr(LfrParams::small(2_000, 4));
        let result = ParallelLouvain::default().run(&gen.graph);
        assert!(result.phases >= 2, "phases = {}", result.phases);
        assert_eq!(result.phases, result.phase_traces.len());
        assert!(result.total_iterations >= result.phases);
    }

    #[test]
    fn vertex_following_preserves_quality() {
        let gen = lfr(LfrParams::small(1_500, 6));
        let base = ParallelLouvain::default().run(&gen.graph);
        let vf = ParallelLouvain::new(GrappoloConfig {
            vertex_following: true,
            ..Default::default()
        })
        .run(&gen.graph);
        assert!(vf.modularity > base.modularity - 0.05);
    }

    #[test]
    fn coloring_preserves_quality() {
        let gen = lfr(LfrParams::small(1_500, 8));
        let base = ParallelLouvain::default().run(&gen.graph);
        let col = ParallelLouvain::new(GrappoloConfig {
            coloring: true,
            ..Default::default()
        })
        .run(&gen.graph);
        assert!(col.modularity > base.modularity - 0.05);
    }

    #[test]
    fn single_community_graph_handled() {
        // A single triangle cannot be split.
        let g = louvain_graph::Csr::from_edge_list(EdgeList::from_edges(
            3,
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
        ));
        let result = ParallelLouvain::default().run(&g);
        assert_eq!(result.num_communities, 1);
        assert!(result.modularity.abs() < 1e-9);
    }

    #[test]
    fn et_runs_faster_in_iterations_with_similar_quality() {
        let gen = ssca2(Ssca2Params {
            n: 4_000,
            max_clique_size: 40,
            inter_clique_prob: 0.05,
            seed: 9,
        });
        let base = ParallelLouvain::default().run(&gen.graph);
        let et = ParallelLouvain::new(GrappoloConfig::with_et(1.0)).run(&gen.graph);
        assert!(et.modularity > base.modularity - 0.02);
    }
}
