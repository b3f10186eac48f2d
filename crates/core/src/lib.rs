//! # louvain-dist — distributed-memory parallel Louvain
//!
//! The primary contribution of Ghosh et al., *Distributed Louvain
//! Algorithm for Graph Community Detection* (IPDPS 2018), reproduced on
//! top of the [`louvain_comm`] simulated-MPI runtime:
//!
//! * **Algorithm 2** — the phase loop with distributed graph
//!   reconstruction between phases ([`runner`], [`rebuild`]),
//! * **Algorithm 3** — the Louvain iteration with its four communication
//!   steps per iteration: ghost-vertex community refresh, ghost-community
//!   weight pull, community-delta push to owners, and the global
//!   modularity all-reduce ([`iteration`]),
//! * **Algorithm 4** — one-time-per-phase ghost discovery ([`ghost`]),
//! * the **threshold cycling** and **early termination (ET/ETC)**
//!   heuristics of Section IV-B ([`heuristics`]),
//! * the ground-truth **quality assessment** (precision / recall /
//!   F-score) of Section V-D ([`quality`]),
//! * a **serial reference** implementation of Algorithm 1 ([`serial`]).
//!
//! ## Example
//!
//! ```
//! use louvain_dist::{run_distributed, DistConfig};
//! use louvain_graph::gen::{lfr, LfrParams};
//!
//! let g = lfr(LfrParams::small(1_000, 3)).graph;
//! let outcome = run_distributed(&g, 4, &DistConfig::baseline());
//! assert!(outcome.modularity > 0.5);
//! ```

// The one `unsafe` block is `Sweep::prefetch_row`'s prefetch hint.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod api;
pub mod config;
pub mod ghost;
pub mod heuristics;
pub mod iteration;
pub mod quality;
pub mod rebuild;
pub mod report;
pub mod resume;
pub mod runner;
pub mod scratch;
pub mod serial;
pub mod stats;

pub use api::{
    run_distributed, run_distributed_resilient_source, run_distributed_source, DistOutcome,
    GraphSource,
};
pub use config::{DistConfig, SweepMode, Variant};
pub use quality::{adjusted_rand_index, f_score, nmi, QualityReport};
pub use report::{build_run_report, ReportMeta};
pub use resume::{
    config_fingerprint, CheckpointOptions, JobCancelled, ResilOptions, CANCELLED_AT_PHASE,
    CRASH_BUDGET_EXHAUSTED, HANG_BUDGET_EXHAUSTED,
};
pub use runner::{run_on_rank, RankOutcome};
pub use serial::serial_louvain;
pub use stats::{IterationTrace, PhaseStats, WorkCounter};
