//! # distributed-louvain
//!
//! Umbrella crate for the IPDPS 2018 "Distributed Louvain Algorithm for
//! Graph Community Detection" reproduction. It re-exports the public API of
//! the workspace crates so that examples and downstream users need a single
//! dependency:
//!
//! * [`comm`] — simulated MPI runtime (ranks as threads, collectives,
//!   traffic accounting, α-β cost model),
//! * [`graph`] — CSR graphs, partitioning, distributed graphs with ghosts,
//!   synthetic generators (LFR, SSCA#2, RMAT, …), modularity,
//! * [`grappolo`] — the shared-memory multithreaded Louvain baseline,
//! * [`dist`] — the distributed Louvain algorithm with threshold cycling
//!   and early-termination heuristics,
//! * [`obs`] — rank-aware tracing: spans, Chrome-trace export,
//!   metrics, aggregated run reports,
//! * [`resil`] — checkpoint/restart: versioned per-rank phase-boundary
//!   checkpoints, atomic manifests, deterministic crash recovery,
//! * [`serve`] — the `louvaind` job server: admission-controlled worker
//!   pool, per-job recovery budgets, kill-and-resume serving, and a
//!   fingerprint-keyed result cache,
//! * [`store`] — out-of-core slab storage: checksummed on-disk CSR built
//!   by a bounded-memory counting sort per row block, memory-mapped or
//!   per-rank byte-range loading (the paper's MPI-I/O pattern).
//!
//! ## Quickstart
//!
//! ```
//! use distributed_louvain::prelude::*;
//!
//! // Generate a small graph with planted communities …
//! let graph = lfr(LfrParams::small(2_000, 7)).graph;
//! // … and run distributed Louvain on 4 simulated ranks.
//! let outcome = run_distributed(&graph, 4, &DistConfig::baseline());
//! assert!(outcome.modularity > 0.5);
//! ```

pub mod cli;

pub use grappolo;
pub use louvain_comm as comm;
pub use louvain_dist as dist;
pub use louvain_graph as graph;
pub use louvain_obs as obs;
pub use louvain_resil as resil;
pub use louvain_serve as serve;
pub use louvain_store as store;

/// Convenience re-exports for examples and quick experiments.
pub mod prelude {
    pub use crate::comm::{run as run_ranks, CostModel, ReduceOp, RunConfig};
    pub use crate::dist::{
        adjusted_rand_index, f_score, nmi, run_distributed, run_distributed_resilient_source,
        run_distributed_source, CheckpointOptions, DistConfig, DistOutcome, GraphSource,
        ResilOptions, Variant,
    };
    pub use crate::graph::gen::{
        banded, barabasi_albert, erdos_renyi, grid3d, lfr, rmat, ssca2, watts_strogatz, weblike,
        BandedParams, BarabasiAlbertParams, ErdosRenyiParams, Grid3dParams, LfrParams, RmatParams,
        Ssca2Params, WattsStrogatzParams, WeblikeParams,
    };
    pub use crate::graph::metrics::{clustering_coefficient, partition_metrics};
    pub use crate::graph::{Csr, EdgeList, VertexId};
    pub use crate::grappolo::{GrappoloConfig, ParallelLouvain};
}
