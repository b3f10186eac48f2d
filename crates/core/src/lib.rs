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

// The one `unsafe` block is the prefetch hint of [`prefetch`].
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
// No function over the `too-many-lines-threshold` of the root clippy.toml.
#![warn(clippy::too_many_lines)]

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

/// How far ahead a walk prefetches a row (8 and 16 measured the same).
const PREFETCH_AHEAD: usize = 4;

/// Prefetch for a walk at position `i` of a vertex order, `at(j)` being
/// the vertex at position `j` (`None` past the end): the first lines of
/// the row [`PREFETCH_AHEAD`] positions ahead in `targets` and `weights`,
/// and the `offsets` entry twice as far. The sweep, the rebuild's fold
/// and the coloring walk rows in an order the data sets.
#[inline(always)]
pub(crate) fn prefetch_rows(
    at: impl Fn(usize) -> Option<usize>,
    i: usize,
    (offsets, targets, weights): (&[usize], &[u32], &[f64]),
) {
    if let Some(l) = at(i + PREFETCH_AHEAD) {
        prefetch(targets, offsets[l]);
        prefetch(weights, offsets[l]);
    }
    if let Some(l) = at(i + 2 * PREFETCH_AHEAD) {
        prefetch(offsets, l);
    }
}

/// Ask for the cache line that holds `slice[i]`: a hint, so an index at
/// or past the end, and any target but x86-64, does nothing.
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(x) = slice.get(i) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch never dereferences its address or faults,
        // and this one is of a live element of `slice`.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

#[cfg(test)]
mod tests {
    use super::{prefetch, prefetch_rows};

    #[test]
    fn prefetch_is_a_no_op_past_the_end() {
        let rows = [1u32, 2, 3];
        for i in [0, 2, 3, 4, usize::MAX] {
            prefetch(&rows, i);
        }
        prefetch::<f64>(&[], 0);
        prefetch::<f64>(&[], usize::MAX);
        assert_eq!(rows, [1, 2, 3]);
        // A walk near its end, and one with no weights, as the coloring's.
        let (offsets, order) = ([0, 2, 3, 3], [2, 0, 1]);
        for i in 0..order.len() + 9 {
            prefetch_rows(|j| order.get(j).copied(), i, (&offsets, &rows, &[1.0; 3]));
            prefetch_rows(|j| order.get(j).copied(), i, (&offsets, &rows, &[]));
        }
    }
}
