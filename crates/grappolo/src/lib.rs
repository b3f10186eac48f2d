//! # grappolo — shared-memory multithreaded Louvain
//!
//! A Rust reproduction of the Grappolo package (Lu, Halappanavar,
//! Kalyanaraman, *Parallel heuristics for scalable community detection*,
//! Parallel Computing 47, 2015) — the state-of-the-art shared-memory
//! comparator used throughout the IPDPS 2018 distributed Louvain paper
//! (Tables I and III).
//!
//! Features reproduced:
//!
//! * multithreaded Louvain sweeps with relaxed (stale-tolerant) community
//!   state, minimum-label tie-breaking for convergence,
//! * optional **distance-1 coloring**: vertices are processed color class
//!   by color class so concurrently moved vertices are never adjacent,
//! * optional **vertex following**: degree-1 vertices are pre-merged into
//!   their unique neighbor's community,
//! * the paper's **early termination** heuristic (Eq. 3) retrofitted into
//!   the multithreaded code, as done for Table I of the IPDPS paper.
//!
//! ## Example
//!
//! ```
//! use grappolo::{GrappoloConfig, ParallelLouvain};
//! use louvain_graph::gen::{lfr, LfrParams};
//!
//! let g = lfr(LfrParams::small(1_000, 3)).graph;
//! let result = ParallelLouvain::new(GrappoloConfig::default()).run(&g);
//! assert!(result.modularity > 0.5);
//! ```

// The public entry points below (coloring, VF, ET) are shared
// infrastructure for the distributed path as well as the local runner;
// deny dead code so unused drift is caught at build time instead of
// silently accumulating.
#![deny(dead_code)]
// The one `unsafe` block is `WorkerPool::run`'s lifetime erasure.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod atomicf64;
mod coloring;
mod config;
mod et;
mod phase;
mod pool;
mod runner;
mod vf;

pub use atomicf64::AtomicF64;
pub use coloring::greedy_coloring;
pub use config::{EtMode, GrappoloConfig};
pub use et::{EtState, INACTIVE_CUTOFF};
pub use phase::PhaseOutcome;
pub use pool::WorkerPool;
pub use runner::{LouvainResult, ParallelLouvain, PhaseTrace};
pub use vf::vertex_following_assignment;
