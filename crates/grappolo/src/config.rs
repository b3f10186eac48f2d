//! Configuration for the shared-memory Louvain runner.

use crate::pool::WorkerPool;

/// Early-termination behaviour (Eq. 3 of the IPDPS paper, retrofitted into
/// the multithreaded implementation for Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EtMode {
    /// No early termination (α = 0 behaviour).
    Off,
    /// Probabilistic per-vertex deactivation with decay rate `alpha`.
    On { alpha: f64 },
}

/// Tunables of [`crate::ParallelLouvain`].
#[derive(Debug, Clone, Copy)]
pub struct GrappoloConfig {
    /// Modularity-gain threshold τ ending a phase and the whole run.
    pub threshold: f64,
    /// Safety cap on phases.
    pub max_phases: usize,
    /// Safety cap on iterations within one phase.
    pub max_iterations: usize,
    /// Threads of the run's [`WorkerPool`], the caller included
    /// (0 = `std::thread::available_parallelism()`).
    pub threads: usize,
    /// Process vertices color class by color class (distance-1 coloring).
    pub coloring: bool,
    /// Pre-merge degree-1 vertices into their neighbor's community.
    pub vertex_following: bool,
    /// Early termination heuristic.
    pub early_termination: EtMode,
    /// Seed for the deterministic ET coin flips.
    pub seed: u64,
}

impl Default for GrappoloConfig {
    fn default() -> Self {
        Self {
            threshold: 1e-6,
            max_phases: 40,
            max_iterations: 300,
            threads: 0,
            coloring: false,
            vertex_following: false,
            early_termination: EtMode::Off,
            seed: 0xC0FFEE,
        }
    }
}

impl GrappoloConfig {
    /// The pool a run sweeps on, of [`Self::threads`] threads.
    pub(crate) fn pool(&self) -> WorkerPool {
        WorkerPool::new(match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        })
    }

    /// The configuration used for the paper's Table I sweep: fixed τ,
    /// early termination with the given α.
    pub fn with_et(alpha: f64) -> Self {
        Self {
            early_termination: EtMode::On { alpha },
            ..Self::default()
        }
    }

    /// Single-threaded ("serial Grappolo", the reference for Table II
    /// modularities).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// The VFC composition of Lu et al.: **V**ertex **F**ollowing to
    /// collapse degree-1 fringes before phase 1, plus distance-1
    /// **C**oloring so each sweep processes conflict-free classes — the
    /// pairing the 15-418 exemplar and §4 of the Grappolo paper show
    /// gives multi-x speedups at negligible quality cost.
    pub fn vfc(threads: usize) -> Self {
        Self {
            threads,
            coloring: true,
            vertex_following: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = GrappoloConfig::default();
        assert_eq!(c.threshold, 1e-6);
        assert_eq!(c.early_termination, EtMode::Off);
    }

    #[test]
    fn with_et_sets_alpha() {
        let c = GrappoloConfig::with_et(0.25);
        assert_eq!(c.early_termination, EtMode::On { alpha: 0.25 });
    }

    #[test]
    fn zero_threads_means_every_available_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(GrappoloConfig::default().pool().threads(), cores);
        assert_eq!(GrappoloConfig::serial().pool().threads(), 1);
    }

    #[test]
    fn vfc_enables_both_heuristics() {
        let c = GrappoloConfig::vfc(4);
        assert!(c.coloring);
        assert!(c.vertex_following);
        assert_eq!(c.threads, 4);
    }
}
