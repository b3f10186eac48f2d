//! # louvain-comm — an in-process message-passing runtime
//!
//! This crate simulates the MPI surface that the distributed Louvain
//! algorithm of Ghosh et al. (IPDPS 2018) requires, using one OS thread per
//! "rank" inside a single process:
//!
//! * the collectives used by the paper's Algorithms 2–4:
//!   [`Comm::barrier`], [`Comm::all_reduce`], [`Comm::exscan_sum`],
//!   [`Comm::all_to_all_v`], [`Comm::neighbor_all_to_all_v`] and
//!   [`Comm::gather_to_root`], all carried by one transport: typed
//!   messages in per-rank mailboxes, whose one blocking receive runs
//!   under the rank-health watchdog ([`health`]),
//! * exact per-rank traffic accounting ([`CommStats`]): the counts an
//!   α-β (latency/bandwidth) model prices after the run (in the
//!   experiment harness, `louvain-bench`), so that scaling *shape* can
//!   be studied on a machine with far fewer cores than ranks.
//!
//! The simulation preserves the property that makes distributed Louvain
//! semantically different from shared-memory Louvain: between two
//! synchronization points a rank only sees remote state from the most recent
//! exchange (the "community update lag" of Section III-B of the paper).
//!
//! ## Example
//!
//! ```
//! use louvain_comm::{run, ReduceOp};
//!
//! // Four ranks compute the sum of their ranks with an all-reduce.
//! let results = run(4, |comm| comm.all_reduce(comm.rank() as u64, ReduceOp::Sum));
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

mod comm;
mod envelope;
mod fault;
pub mod health;
mod reduce;
mod runtime;
mod stats;

pub use comm::Comm;
pub use fault::{CrashRule, FaultPlan, HangRule, RankCrashed, StallRule};
pub use health::{HealthBoard, HealthConfig, RankHung};
pub use reduce::{ReduceOp, Reducible};
pub use runtime::{run, run_with, RunConfig};
pub use stats::{CommStats, CommStep, StatsSnapshot, NUM_COMM_STEPS};
