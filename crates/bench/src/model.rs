//! The analytical time model: the one place counters become seconds.
//!
//! The paper times itself on Cori (Cray Aries, dragonfly) and profiles
//! the iteration body with HPCToolkit (Section V-A): 98% of time in the
//! iteration body, of which ~34% community communication, ~40% the
//! modularity reduction, ~22% compute. This host can do neither, so a
//! run carries counters only — visited edges/vertices ([`WorkCounter`],
//! robust against core oversubscription when many ranks share few cores)
//! and exact per-rank message/byte counts ([`StatsSnapshot`]) — and the
//! functions here price them after the fact: compute with fixed per-unit
//! costs, communication with the α-β [`CostModel`]. Every constant of
//! the model is in this file.
//!
//! Only the experiment binaries of this crate print modeled seconds:
//! the paper's tables and figures, and the 64→4096-rank tail of Fig 3
//! that no host here can run. A run itself (`DistOutcome`, the
//! `RunReport`) carries no modeled figure; its time is the measured wall.

use louvain_comm::{CommStep, StatsSnapshot};
use louvain_dist::stats::{PhaseStats, WorkCounter};

/// Cost of scanning one adjacency entry in the ΔQ loop (dense-table
/// accumulate + gain evaluation), in seconds.
pub const EDGE_COST: f64 = 3.0e-8;
/// Fixed cost per processed vertex, in seconds.
pub const VERTEX_COST: f64 = 5.0e-8;

/// Analytical model: a point-to-point message of `n` bytes costs
/// `alpha + beta * n`; a collective over `p` ranks costs
/// `ceil(log2 p) * (alpha + beta * n_per_stage)` (binomial-tree shaped).
/// Both are linear in the message and byte counts, so a batch is priced
/// from its totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Per-byte transfer time in seconds (inverse bandwidth).
    pub beta: f64,
}

impl CostModel {
    /// Cray-Aries-like constants: ~1.3 µs latency, ~9 GB/s effective
    /// per-rank bandwidth.
    pub const fn aries() -> Self {
        Self {
            alpha: 1.3e-6,
            beta: 1.0 / 9.0e9,
        }
    }

    /// Cost of `nmsgs` point-to-point messages carrying `bytes` bytes in
    /// total (the sends inside the irregular all-to-alls included: the
    /// sum of the individual sends is the dominant term for the sparse
    /// exchanges in distributed Louvain).
    pub fn p2p(&self, nmsgs: u64, bytes: u64) -> f64 {
        nmsgs as f64 * self.alpha + self.beta * bytes as f64
    }

    /// Cost of `calls` tree-shaped collectives over `p` ranks moving
    /// `bytes` bytes per stage in total (e.g. all-reduces of a scalar,
    /// or broadcasts).
    pub fn collective(&self, p: usize, calls: u64, bytes: u64) -> f64 {
        let stages = (usize::BITS - p.saturating_sub(1).leading_zeros()).max(1) as f64;
        stages * self.p2p(calls, bytes)
    }
}

/// Speedup of the intra-rank ("OpenMP") compute sweep on `t` threads:
/// sublinear (`t^0.9`) to account for the memory-bound inner loop,
/// matching the paper's observed ~4× on 16× threads shape for the
/// distributed code.
pub fn parallel_speedup(threads: usize) -> f64 {
    (threads.max(1) as f64).powf(0.9)
}

/// Single-thread compute seconds for this much counted work.
pub fn work_seconds(work: &WorkCounter) -> f64 {
    work.edges_scanned as f64 * EDGE_COST + work.vertices_processed as f64 * VERTEX_COST
}

/// Sweep compute seconds of one rank's phase at its thread count.
pub fn compute_seconds(phase: &PhaseStats) -> f64 {
    work_seconds(&phase.compute) / parallel_speedup(phase.threads_per_rank)
}

/// α-β seconds of `traffic` on a job of `ranks` ranks, split into
/// `(exchange, reduce)`: `reduce` is the [`CommStep::Reduction`] step
/// (the modularity all-reduces and the counts reduced with them — it
/// carries collectives only), `exchange` everything else.
pub fn comm_split(traffic: &StatsSnapshot, ranks: usize) -> (f64, f64) {
    let model = CostModel::aries();
    let reduce_calls = traffic.step_messages_for(CommStep::Reduction);
    let reduce_bytes = traffic.step_bytes_for(CommStep::Reduction);
    let exchange = model.p2p(traffic.p2p_messages, traffic.p2p_bytes)
        + model.collective(
            ranks,
            traffic.collective_calls - reduce_calls,
            traffic.collective_bytes - reduce_bytes,
        );
    (
        exchange,
        model.collective(ranks, reduce_calls, reduce_bytes),
    )
}

/// α-β seconds of all of `traffic` on a job of `ranks` ranks.
pub fn comm_seconds(traffic: &StatsSnapshot, ranks: usize) -> f64 {
    let (exchange, reduce) = comm_split(traffic, ranks);
    exchange + reduce
}

/// Seconds of one rank's phase: sweep + rebuild compute + communication.
pub fn phase_seconds(phase: &PhaseStats, ranks: usize) -> f64 {
    compute_seconds(phase) + work_seconds(&phase.rebuild) + comm_seconds(&phase.traffic, ranks)
}

/// Job time of `per_rank[rank][phase]`: Σ over phases of the slowest
/// rank's phase time (the bulk-synchronous critical path).
pub fn job_seconds(per_rank: &[Vec<PhaseStats>], phases: usize) -> f64 {
    (0..phases)
        .map(|phase| {
            per_rank
                .iter()
                .filter_map(|rank| rank.get(phase))
                .map(|s| phase_seconds(s, per_rank.len()))
                .fold(0.0_f64, f64::max)
        })
        .sum()
}

/// Time breakdown of `per_rank[rank][phase]` over the whole run:
/// `(compute, comm, reduce, rebuild)` seconds, HPCToolkit-style.
///
/// The iterations are bulk-synchronous: the rank that finishes its
/// sweep early waits at the modularity all-reduce for the slowest
/// rank. HPCToolkit (and hence the paper's §V-A numbers) attributes
/// that wait to the reduction, so this function does too: per
/// iteration, `compute` gets the *mean* rank's sweep time and the
/// `reduce` bucket gets the wire time plus the imbalance wait
/// (`max − mean`).
pub fn breakdown(per_rank: &[Vec<PhaseStats>], phases: usize) -> (f64, f64, f64, f64) {
    let ranks = per_rank.len();
    let mut compute = 0.0;
    let mut comm = 0.0;
    let mut reduce = 0.0;
    let mut rebuild = 0.0;
    for phase in 0..phases {
        let cells = || per_rank.iter().filter_map(move |rank| rank.get(phase));
        let mut exchange_max = 0.0_f64;
        let mut reduce_wire = 0.0_f64;
        let mut rebuild_max = 0.0_f64;
        let mut speedup = 1.0_f64;
        let mut max_iters = 0;
        for s in cells() {
            let (exchange, wire) = comm_split(&s.traffic, ranks);
            exchange_max = exchange_max.max(exchange);
            reduce_wire = reduce_wire.max(wire);
            rebuild_max = rebuild_max.max(work_seconds(&s.rebuild));
            speedup = parallel_speedup(s.threads_per_rank);
            max_iters = max_iters.max(s.iteration_traces.len());
        }
        // Per-iteration imbalance: mean vs slowest rank's sweep.
        let mut mean_compute = 0.0;
        let mut critical_compute = 0.0;
        for it in 0..max_iters {
            let edges: Vec<f64> = cells()
                .filter_map(|s| s.iteration_traces.get(it))
                .map(|t| t.local_edges as f64)
                .collect();
            if edges.is_empty() {
                continue;
            }
            let max = edges.iter().cloned().fold(0.0, f64::max);
            let mean = edges.iter().sum::<f64>() / edges.len() as f64;
            critical_compute += max * EDGE_COST / speedup;
            mean_compute += mean * EDGE_COST / speedup;
        }
        compute += mean_compute;
        comm += exchange_max;
        reduce += reduce_wire + (critical_compute - mean_compute);
        rebuild += rebuild_max;
    }
    (compute, comm, reduce, rebuild)
}

/// `(compute, comm)` seconds of a run measured on `from_ranks` ≥ 2 ranks,
/// modeled at a rank count this host cannot run: the 64→4096-rank tail
/// of a strong-scaling curve. Compute shrinks as 1/P off the measured
/// `compute_seconds`. The bytes exchanged over the 1D cut grow as
/// `C·(1 − 1/P)`, with `C` calibrated on the measured ghost-refresh,
/// community-pull, delta-push and reduction bytes of `traffic`, and are
/// shared by P ranks; each of the `iterations` supersteps also pays
/// `α·(P − 1)` per rank for the ghost exchange — the term that flattens
/// the paper's Fig 3 curves at high rank counts.
pub fn extrapolate(
    traffic: &StatsSnapshot,
    compute_seconds: f64,
    iterations: usize,
    from_ranks: usize,
    to_ranks: usize,
) -> (f64, f64) {
    assert!(from_ranks >= 2, "one rank has no cut to calibrate on");
    let CostModel { alpha, beta } = CostModel::aries();
    let cut_steps = [
        CommStep::GhostRefresh,
        CommStep::CommunityPull,
        CommStep::DeltaPush,
        CommStep::Reduction,
    ];
    let measured: u64 = cut_steps.iter().map(|&s| traffic.step_bytes_for(s)).sum();
    let (from, to) = (from_ranks as f64, to_ranks as f64);
    let cut_c = measured as f64 / (1.0 - 1.0 / from);
    let bytes = cut_c * (1.0 - 1.0 / to);
    let comm = iterations as f64 * alpha * (to - 1.0) + beta * bytes / to;
    (compute_seconds * from / to, comm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_converts_to_seconds() {
        let w = WorkCounter {
            edges_scanned: 1_000_000,
            vertices_processed: 100_000,
        };
        assert!((work_seconds(&w) - (1e6 * EDGE_COST + 1e5 * VERTEX_COST)).abs() < 1e-12);
    }

    #[test]
    fn parallel_speedup_is_sublinear() {
        assert_eq!(parallel_speedup(1), 1.0);
        assert!(parallel_speedup(4) > 3.0 && parallel_speedup(4) < 4.0);
        assert!(parallel_speedup(16) > 10.0 && parallel_speedup(16) < 16.0);
    }

    /// 3 sends of 100 bytes in all, 5 collectives of 40 bytes in all, 2
    /// of them (16 bytes) under the reduction step.
    fn traffic() -> StatsSnapshot {
        let mut t = StatsSnapshot {
            p2p_messages: 3,
            p2p_bytes: 100,
            collective_calls: 5,
            collective_bytes: 40,
            ..Default::default()
        };
        t.step_messages[CommStep::Reduction.index()] = 2;
        t.step_bytes[CommStep::Reduction.index()] = 16;
        t
    }

    #[test]
    fn comm_is_linear_in_the_four_counters_and_splits_at_the_reduction() {
        let CostModel { alpha, beta } = CostModel::aries();
        // 8 ranks: three tree stages per collective.
        let (exchange, reduce) = comm_split(&traffic(), 8);
        let want_reduce = 3.0 * (2.0 * alpha + 16.0 * beta);
        let want_exchange = 3.0 * alpha + 100.0 * beta + 3.0 * (3.0 * alpha + 24.0 * beta);
        assert!((reduce - want_reduce).abs() < 1e-18);
        assert!((exchange - want_exchange).abs() < 1e-18);
        assert!((comm_seconds(&traffic(), 8) - (want_exchange + want_reduce)).abs() < 1e-18);
        // Twice the traffic costs twice the time.
        let mut twice = traffic();
        twice.merge(&traffic());
        assert!((comm_seconds(&twice, 8) - 2.0 * comm_seconds(&traffic(), 8)).abs() < 1e-18);
    }

    #[test]
    fn phase_time_sums_components_and_threads_shrink_only_the_sweep() {
        let p = PhaseStats {
            phase: 0,
            num_vertices: 10,
            modularity: 0.5,
            tau: 1e-6,
            iteration_traces: vec![],
            compute: WorkCounter {
                edges_scanned: 100,
                vertices_processed: 10,
            },
            rebuild: WorkCounter {
                edges_scanned: 50,
                vertices_processed: 5,
            },
            traffic: traffic(),
            etc_exit: false,
            threads_per_rank: 1,
        };
        let wire = comm_seconds(&traffic(), 2);
        let expected = 150.0 * EDGE_COST + 15.0 * VERTEX_COST + wire;
        assert!((phase_seconds(&p, 2) - expected).abs() < 1e-12);
        let p4 = PhaseStats {
            threads_per_rank: 4,
            ..p.clone()
        };
        let expected4 = (100.0 * EDGE_COST + 10.0 * VERTEX_COST) / parallel_speedup(4)
            + 50.0 * EDGE_COST
            + 5.0 * VERTEX_COST
            + wire;
        assert!((phase_seconds(&p4, 2) - expected4).abs() < 1e-12);
        // One rank, one phase: the job is that phase.
        assert_eq!(job_seconds(&[vec![p.clone()]], 1), phase_seconds(&p, 1));
    }

    #[test]
    fn extrapolation_has_the_closed_form_and_a_minimum() {
        let CostModel { alpha, beta } = CostModel::aries();
        // 7000 bytes over the cut at p=8, 900 rebuild bytes that must
        // not count; C = 7000 / (7/8) = 8000.
        let mut t = StatsSnapshot::default();
        t.step_bytes[CommStep::GhostRefresh.index()] = 4_000;
        t.step_bytes[CommStep::CommunityPull.index()] = 1_500;
        t.step_bytes[CommStep::DeltaPush.index()] = 1_000;
        t.step_bytes[CommStep::Reduction.index()] = 500;
        t.step_bytes[CommStep::Other.index()] = 900;
        let at = |p: usize| extrapolate(&t, 0.4, 20, 8, p);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want;
        for p in [64usize, 4096] {
            let pf = p as f64;
            let (compute, comm) = at(p);
            assert!(close(compute, 0.4 * 8.0 / pf));
            let want = 20.0 * alpha * (pf - 1.0) + beta * 8_000.0 * (1.0 - 1.0 / pf) / pf;
            assert!(close(comm, want), "p={p}: {comm} vs {want}");
        }
        // At the measured rank count the split is the inputs' own.
        let (compute, comm) = at(8);
        assert_eq!(compute, 0.4);
        assert!(close(comm, 20.0 * alpha * 7.0 + beta * 7_000.0 / 8.0));
        // Compute falls and the latency term — all that is left of comm
        // when no bytes cross the cut — rises with every doubling, so the
        // total turns up again: 3.2/P against 26e-6·P bottoms out near 350.
        let latency = |p: usize| extrapolate(&StatsSnapshot::default(), 0.4, 20, 8, p).1;
        let ranks: Vec<usize> = (6..=12).map(|k| 1 << k).collect();
        for w in ranks.windows(2) {
            assert!(at(w[1]).0 < at(w[0]).0);
            assert!(latency(w[1]) > latency(w[0]));
        }
        let total = |p: usize| at(p).0 + at(p).1;
        assert!(total(256) < total(64) && total(256) < total(4096));
    }

    #[test]
    fn p2p_cost_is_affine_and_batches_by_totals() {
        let m = CostModel {
            alpha: 1.0,
            beta: 0.5,
        };
        assert_eq!(m.p2p(1, 0), 1.0);
        assert_eq!(m.p2p(1, 10), 6.0);
        assert_eq!(m.p2p(3, 30), 3.0 * m.p2p(1, 10));
    }

    #[test]
    fn collective_scales_logarithmically() {
        let m = CostModel {
            alpha: 1.0,
            beta: 0.0,
        };
        assert_eq!(m.collective(1, 1, 0), 1.0);
        assert_eq!(m.collective(2, 1, 0), 1.0);
        assert_eq!(m.collective(4, 1, 0), 2.0);
        assert_eq!(m.collective(8, 1, 0), 3.0);
        assert_eq!(m.collective(5, 1, 0), 3.0); // rounded up to 8
        assert_eq!(m.collective(8, 7, 0), 21.0);
    }

    #[test]
    fn aries_defaults_are_sane() {
        let m = CostModel::aries();
        // One MB transfer should take on the order of 100 µs.
        let t = m.p2p(1, 1 << 20);
        assert!(t > 1e-5 && t < 1e-3, "t = {t}");
    }

    /// A real run prices to a positive time in every share the paper
    /// splits the iteration body into.
    #[test]
    fn a_distributed_run_prices_every_share() {
        use louvain_dist::{run_distributed, DistConfig};
        use louvain_graph::gen::{weblike, WeblikeParams};

        let g = weblike(WeblikeParams::web(1_000, 5)).graph;
        let out = run_distributed(&g, 2, &DistConfig::baseline());
        assert!(job_seconds(&out.per_rank_stats, out.phases) > 0.0);
        let (compute, comm, reduce, rebuild) = breakdown(&out.per_rank_stats, out.phases);
        assert!(compute > 0.0 && comm > 0.0 && reduce > 0.0);
        assert!(rebuild >= 0.0);
    }

    /// The colored schedule's counters do not depend on the thread count,
    /// so the modeled wire and rebuild shares do not either; the sweep
    /// share shrinks by exactly `parallel_speedup`.
    #[test]
    fn threads_change_only_the_modeled_sweep() {
        use louvain_dist::{run_distributed, DistConfig, SweepMode};
        use louvain_graph::gen::{lfr, LfrParams};

        let g = lfr(LfrParams::small(600, 3)).graph;
        let priced = |threads| {
            let cfg = DistConfig {
                sweep: SweepMode::Colored,
                threads_per_rank: threads,
                ..DistConfig::baseline()
            };
            let out = run_distributed(&g, 2, &cfg);
            breakdown(&out.per_rank_stats, out.phases)
        };
        let (c1, m1, _, b1) = priced(1);
        let (c2, m2, _, b2) = priced(2);
        assert_eq!((m1, b1), (m2, b2));
        assert!((c1 / c2 - parallel_speedup(2)).abs() < 1e-9, "{c1} vs {c2}");
    }
}
