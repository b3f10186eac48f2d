//! Per-phase and per-iteration instrumentation: counters only. The
//! experiment harness (`louvain_bench::model`) prices them in seconds
//! after the run.

use louvain_comm::StatsSnapshot;

/// Deterministic compute-work counter.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WorkCounter {
    /// Arcs the iterations read; a phase's once-only passes (its `Σ e_in`
    /// seed, the exact Q after the last exchange) are not counted.
    pub edges_scanned: u64,
    pub vertices_processed: u64,
}

/// One iteration's record (drives the Fig 5/6 convergence plots and the
/// imbalance-aware time breakdown).
#[derive(Debug, Clone, Copy)]
pub struct IterationTrace {
    pub modularity: f64,
    /// Local vertices that changed community this iteration (global sum).
    pub moves: u64,
    /// Globally inactive vertices (ETC bookkeeping; 0 when ET is off).
    pub inactive: u64,
    /// Edges THIS RANK scanned during the iteration — per-rank, unlike
    /// the global fields above. The spread across ranks is the load
    /// imbalance the bulk-synchronous reduction absorbs as wait time
    /// (HPCToolkit attributes that wait to MPI_Allreduce, which is how
    /// the paper's 40%-in-reduction figure arises).
    pub local_edges: u64,
}

/// One phase's record.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub phase: usize,
    /// Vertices of the phase's (coarsened) graph.
    pub num_vertices: u64,
    pub iterations: usize,
    /// Modularity at phase end.
    pub modularity: f64,
    /// τ used for this phase.
    pub tau: f64,
    pub iteration_traces: Vec<IterationTrace>,
    /// Compute work in the iteration body.
    pub compute: WorkCounter,
    /// Compute work in graph reconstruction.
    pub rebuild: WorkCounter,
    /// What this rank's communicator counted during the phase's
    /// iteration loop and rebuild.
    pub traffic: StatsSnapshot,
    /// True if ETC's 90%-inactive exit fired.
    pub etc_exit: bool,
    /// Intra-rank threads used by the compute sweep.
    pub threads_per_rank: usize,
}
