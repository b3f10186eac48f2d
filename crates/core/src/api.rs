//! One-call entry points: scatter a graph over `p` simulated ranks, run
//! the distributed algorithm, gather and merge the results.

use std::time::Duration;

use louvain_comm::{run_with, FaultPlan, RankCrashed, RankHung, RunConfig, StatsSnapshot};
use louvain_graph::{Csr, LocalGraph, VertexId, VertexPartition};
use parking_lot_free::TakeSlots;

use crate::config::DistConfig;
use crate::resume::{
    abort, JobCancelled, ResilAbort, ResilOptions, CANCELLED_AT_PHASE, CRASH_BUDGET_EXHAUSTED,
    HANG_BUDGET_EXHAUSTED,
};
use crate::runner::{run_on_rank, RankOutcome};
use crate::stats::PhaseStats;

/// Tiny helper: hand each rank exactly one pre-built value from a shared
/// vector (the scattered graph pieces) without cloning.
mod parking_lot_free {
    use std::sync::Mutex;

    pub struct TakeSlots<T>(Mutex<Vec<Option<T>>>);

    impl<T> TakeSlots<T> {
        pub fn new(items: Vec<T>) -> Self {
            Self(Mutex::new(items.into_iter().map(Some).collect()))
        }

        pub fn take(&self, i: usize) -> T {
            self.0.lock().unwrap()[i]
                .take()
                .expect("slot already taken")
        }
    }
}

/// Merged result of a distributed run.
#[derive(Debug)]
pub struct DistOutcome {
    /// Final community id per original vertex (dense `0..num_communities`).
    pub assignment: Vec<VertexId>,
    pub modularity: f64,
    pub num_communities: usize,
    pub phases: usize,
    pub total_iterations: usize,
    /// Phase statistics of every rank: `per_rank_stats[rank][phase]`.
    pub per_rank_stats: Vec<Vec<PhaseStats>>,
    /// Aggregate communication counters (summed over ranks).
    pub traffic: StatsSnapshot,
    /// Each rank's own communication counters (index = rank). `traffic`
    /// is their merge; kept separately so run reports can show per-rank
    /// imbalance.
    pub per_rank_traffic: Vec<StatsSnapshot>,
    /// Real wall time of the simulated job (all ranks share the host).
    pub wall: Duration,
    /// Harvested trace events/metrics, present when tracing was enabled
    /// (`louvain_obs::set_enabled(true)`) for the run.
    pub trace: Option<louvain_obs::TraceData>,
    /// Phase the final (successful) attempt resumed from, when it was
    /// restored off a checkpoint.
    pub resumed_from_phase: Option<u64>,
    /// Rank failures absorbed by [`run_distributed_resilient_source`] on
    /// the way to this outcome (always 0 under [`ResilOptions::none`]).
    /// Counts both crash and hung-rank recoveries.
    pub recoveries: u64,
    /// Crash-kind recoveries only (`recoveries` minus the hang
    /// recoveries). Tagged separately so serving-layer quarantine
    /// decisions can tell a poisoned job (recurring crashes) from a
    /// flaky network (hang declarations).
    pub crash_recoveries: u64,
    /// Hung-rank declarations absorbed on the way to this outcome, in
    /// the order the watchdog raised them (empty under
    /// [`ResilOptions::none`]).
    pub hung_events: Vec<RankHung>,
    /// The dendrogram: for each executed phase, the community (coarse
    /// vertex) of every original vertex after that phase. Populated only
    /// under [`ResilOptions::record_levels`]; each level is densely
    /// renumbered, and the last equals `assignment`.
    pub levels: Vec<Vec<VertexId>>,
}

impl DistOutcome {
    /// Hang-kind recoveries (the watchdog's `RankHung` declarations
    /// absorbed on the way to this outcome).
    pub fn hang_recoveries(&self) -> u64 {
        self.hung_events.len() as u64
    }

    /// Modularity after each phase (from rank 0's trace).
    pub fn modularity_per_phase(&self) -> Vec<f64> {
        self.per_rank_stats[0]
            .iter()
            .map(|p| p.modularity)
            .collect()
    }
}

/// Where the input graph comes from — the scatter step's counterpart to
/// the paper's MPI-I/O loading modes.
#[derive(Debug, Clone, Copy)]
pub enum GraphSource<'a> {
    /// A resident [`Csr`]: partition, then each rank borrows its rows
    /// ([`LocalGraph::scatter`]).
    Memory(&'a Csr),
    /// A fully validated memory-mapped slab, shared and zero-copy: each
    /// rank borrows its rows from the mapping (`Slab::local_graph`) and
    /// holds only its rebased offsets.
    SlabMapped(&'a louvain_store::Slab),
    /// A slab file loaded by per-rank byte-range reads
    /// ([`louvain_store::load_rank`]): each rank opens the file itself
    /// and reads only its own offsets and arc extents, besides the header,
    /// the `pindex` section and one `offsets` window per partition
    /// boundary — nothing Θ(n) — like the paper's per-process
    /// `MPI_File_read_at` pattern.
    SlabRanged(&'a std::path::Path),
}

/// Per-rank graph dispenser for [`GraphSource`]. Slab modes defer the
/// load into the rank closure so the I/O (and the `mem.mapped_bytes`
/// gauge) happens in rank context; a failed load aborts the job through
/// the typed [`ResilAbort`] panic the resilient loop already understands.
enum RankFeed<'a> {
    Slots(TakeSlots<LocalGraph<'a>>),
    Mapped {
        slab: &'a louvain_store::Slab,
        part: VertexPartition,
    },
    Ranged {
        path: &'a std::path::Path,
        ranks: usize,
    },
}

impl<'a> RankFeed<'a> {
    /// The paper's input distribution: "each process receives roughly
    /// the same number of edges" (edge-balanced 1D blocks).
    fn make(src: &GraphSource<'a>, p: usize) -> Self {
        match *src {
            GraphSource::Memory(g) => {
                let part = VertexPartition::balanced_edges(g, p);
                RankFeed::Slots(TakeSlots::new(LocalGraph::scatter(g, &part)))
            }
            GraphSource::SlabMapped(slab) => RankFeed::Mapped {
                slab,
                part: slab.partition(p),
            },
            GraphSource::SlabRanged(path) => RankFeed::Ranged { path, ranks: p },
        }
    }

    /// This rank's piece, and its `mem.csr_bytes`: the offsets, plus the
    /// rows unless they are mapped pages (`mem.mapped_bytes` counts those).
    fn get(&self, rank: usize) -> LocalGraph<'a> {
        let (lg, rows_mapped) = match self {
            RankFeed::Slots(slots) => (slots.take(rank), false),
            RankFeed::Mapped { slab, part } => {
                louvain_obs::gauge_set("mem.mapped_bytes", slab.mapped_bytes() as f64);
                (slab.local_graph(part, rank), true)
            }
            RankFeed::Ranged { path, ranks } => {
                match louvain_store::load_rank(path, rank, *ranks) {
                    Ok(slice) => {
                        louvain_obs::gauge_set("mem.mapped_bytes", slice.bytes_read as f64);
                        (slice.local, false)
                    }
                    Err(e) => abort(format!("slab load failed on rank {rank}: {e}")),
                }
            }
        };
        let (offsets, dests, weights) = lg.csr_parts();
        let rows = size_of_val(dests) + size_of_val(weights);
        let held = size_of_val(offsets) + if rows_mapped { 0 } else { rows };
        louvain_obs::gauge_set("mem.csr_bytes", held as f64);
        lg
    }
}

/// Run distributed Louvain on `p` simulated ranks with the paper's input
/// distribution (edge-balanced 1D).
pub fn run_distributed(g: &Csr, p: usize, cfg: &DistConfig) -> DistOutcome {
    run_distributed_source(GraphSource::Memory(g), p, cfg, RunConfig::default())
        .expect("an in-memory run without injected faults cannot fail")
}

/// Run distributed Louvain from any [`GraphSource`] (resident CSR,
/// mapped slab, or per-rank byte-range slab reads). Slab load failures
/// come back as `Err` instead of panicking.
pub fn run_distributed_source(
    src: GraphSource<'_>,
    p: usize,
    cfg: &DistConfig,
    runcfg: RunConfig,
) -> Result<DistOutcome, String> {
    run_distributed_resilient_source(src, p, cfg, runcfg, &ResilOptions::none())
}

/// Run distributed Louvain from any [`GraphSource`] with checkpointing,
/// resume, and crash/hang recovery — the general entry point; every
/// other `run_distributed*` is this one under [`ResilOptions::none`].
///
/// Runs the job, and whenever a rank failure surfaces as a typed panic
/// — [`RankCrashed`] from an injected (or, in principle, real) crash,
/// or [`RankHung`] from the communication watchdog declaring a silent
/// rank dead — restarts all ranks from the newest complete checkpoint.
/// Each failure kind has its own budget ([`ResilOptions::crash_budget`]
/// and [`ResilOptions::hang_budget`], both defaulting to
/// `max_recoveries`), so a flaky network cannot burn the budget a
/// genuinely crashing job needs and vice versa; exhausting either gives
/// up with an `Err` tagged by kind. Because phase boundaries are consistent
/// cuts and the trajectory is deterministic, the recovered outcome is
/// bit-identical to an uninterrupted run's.
///
/// Every attempt re-loads the graph from the source — for slab sources
/// that means re-slicing the mapping or re-issuing the per-rank
/// byte-range reads, exactly like a restarted MPI job re-reading its
/// input file.
///
/// Unrecoverable conditions (corrupt/incompatible checkpoints, I/O
/// failures, exhausted recovery budget) come back as `Err`; panics that
/// are neither crashes nor checkpoint failures propagate unchanged.
pub fn run_distributed_resilient_source(
    src: GraphSource<'_>,
    p: usize,
    cfg: &DistConfig,
    runcfg: RunConfig,
    resil: &ResilOptions,
) -> Result<DistOutcome, String> {
    run_attempts(src, p, cfg, runcfg, resil)
}

/// The attempt loop behind every entry point.
fn run_attempts(
    src: GraphSource<'_>,
    p: usize,
    cfg: &DistConfig,
    runcfg: RunConfig,
    resil: &ResilOptions,
) -> Result<DistOutcome, String> {
    let base_fault: Option<std::sync::Arc<FaultPlan>> = runcfg.fault.clone();

    // One collector across attempts: a crashed attempt's records are
    // handed to it as its rank threads unwind, so the final trace shows
    // the recovery story end to end. A live progress sink also needs the
    // collector (its merger rides on the installed observers), but does
    // not by itself enable tracing — a progress-only run produces no
    // trace sections.
    let tracing = louvain_obs::enabled();
    let collector = (tracing || resil.progress.is_some()).then(|| {
        let mut col = louvain_obs::Collector::new(p);
        if let Some(sink) = &resil.progress {
            col.set_progress(std::sync::Arc::clone(sink));
        }
        col
    });
    let started = std::time::Instant::now();

    let mut crash_recoveries = 0usize;
    let mut hung_events: Vec<RankHung> = Vec::new();
    loop {
        let recoveries = crash_recoveries as u64 + hung_events.len() as u64;
        let feed = RankFeed::make(&src, p);
        let attempt_runcfg = RunConfig {
            // Each absorbed crash consumes one crash rule and each
            // absorbed hang one hang rule, so the next attempt gets
            // past them deterministically.
            fault: base_fault.as_ref().map(|f| {
                std::sync::Arc::new(
                    f.with_crashes_skipped(crash_recoveries)
                        .with_hangs_skipped(hung_events.len()),
                )
            }),
            ..runcfg.clone()
        };
        let attempt_resil = ResilOptions {
            resume: resil.resume || recoveries > 0,
            ..resil.clone()
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(p, attempt_runcfg, |c| {
                // Tag every event of this attempt so the trace keeps
                // recovered attempts on separate, labeled tracks.
                let _obs = collector
                    .as_ref()
                    .map(|col| col.install_attempt(c.rank(), recoveries as u32));
                let lg = feed.get(c.rank());
                let outcome = run_on_rank(c, lg, cfg, &attempt_resil);
                let stats = c.stats().snapshot();
                (outcome, stats)
            })
        }));
        match attempt {
            Ok(results) => {
                let wall = started.elapsed();
                // `finish` also emits the partial progress rows.
                let trace = collector
                    .map(louvain_obs::Collector::finish)
                    .filter(|_| tracing);
                let mut out = merge(results, wall, trace);
                out.recoveries = recoveries;
                out.crash_recoveries = crash_recoveries as u64;
                out.hung_events = hung_events;
                return Ok(out);
            }
            Err(payload) => {
                if let Some(aborted) = payload.downcast_ref::<ResilAbort>() {
                    return Err(aborted.0.clone());
                }
                if let Some(cancelled) = payload.downcast_ref::<JobCancelled>() {
                    return Err(format!("{CANCELLED_AT_PHASE}{}", cancelled.phase));
                }
                if let Some(crash) = payload.downcast_ref::<RankCrashed>() {
                    if crash_recoveries >= resil.crash_budget() {
                        return Err(format!(
                            "{crash}; {CRASH_BUDGET_EXHAUSTED} of {} exhausted \
                             ({crash_recoveries} crash + {} hang recoveries consumed)",
                            resil.crash_budget(),
                            hung_events.len(),
                        ));
                    }
                    crash_recoveries += 1;
                    continue;
                }
                if let Some(hung) = payload.downcast_ref::<RankHung>() {
                    if hung_events.len() >= resil.hang_budget() {
                        return Err(format!(
                            "{hung}; {HANG_BUDGET_EXHAUSTED} of {} exhausted \
                             ({crash_recoveries} crash + {} hang recoveries consumed)",
                            resil.hang_budget(),
                            hung_events.len(),
                        ));
                    }
                    hung_events.push(*hung);
                    continue;
                }
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Merge per-rank outcomes into a [`DistOutcome`].
fn merge(
    results: Vec<(RankOutcome, StatsSnapshot)>,
    wall: Duration,
    trace: Option<louvain_obs::TraceData>,
) -> DistOutcome {
    let modularity = results[0].0.modularity;
    let phases = results.iter().map(|(o, _)| o.phases).max().unwrap_or(0);
    let total_iterations = results[0].0.total_iterations;
    let resumed_from_phase = results[0].0.resumed_from_phase;

    let mut assignment: Vec<VertexId> = Vec::new();
    let mut traffic = StatsSnapshot::default();
    let mut per_rank_traffic = Vec::with_capacity(results.len());
    let mut per_rank_stats = Vec::with_capacity(results.len());
    for (o, s) in &results {
        assignment.extend(o.assignment.iter().copied());
        traffic.merge(s);
        per_rank_traffic.push(*s);
    }
    // Dendrogram levels (recorded only under `record_levels`): the phase
    // loop is collective, so every rank recorded the same level count;
    // concatenate rank slices in rank order and renumber densely like
    // the final assignment.
    let num_levels = results
        .iter()
        .map(|(o, _)| o.levels.len())
        .max()
        .unwrap_or(0);
    let mut levels: Vec<Vec<VertexId>> = Vec::with_capacity(num_levels);
    for li in 0..num_levels {
        let mut level: Vec<VertexId> = Vec::with_capacity(assignment.len());
        for (o, _) in &results {
            level.extend(o.levels.get(li).into_iter().flatten().copied());
        }
        let (dense, _) = louvain_graph::community::renumber(&level);
        levels.push(dense);
    }
    for (o, _) in results {
        per_rank_stats.push(o.phase_stats);
    }

    let (dense, num_communities) = louvain_graph::community::renumber(&assignment);
    DistOutcome {
        assignment: dense,
        modularity,
        num_communities,
        phases,
        total_iterations,
        per_rank_stats,
        traffic,
        per_rank_traffic,
        wall,
        trace,
        resumed_from_phase,
        recoveries: 0,
        crash_recoveries: 0,
        hung_events: Vec::new(),
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use louvain_comm::CommStep;
    use louvain_graph::community::modularity;
    use louvain_graph::gen::{lfr, ssca2, weblike, LfrParams, Ssca2Params, WeblikeParams};

    #[test]
    fn lfr_quality_is_rank_count_invariant_within_tolerance() {
        let gen = lfr(LfrParams::small(1_500, 21));
        let truth_q = modularity(&gen.graph, gen.ground_truth.as_ref().unwrap());
        for p in [1, 2, 4] {
            let out = run_distributed(&gen.graph, p, &DistConfig::baseline());
            assert!(
                out.modularity > truth_q - 0.08,
                "p={p}: {} vs truth {}",
                out.modularity,
                truth_q
            );
            let q_ref = modularity(&gen.graph, &out.assignment);
            assert!((out.modularity - q_ref).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn assignment_is_dense_and_complete() {
        let gen = ssca2(Ssca2Params {
            n: 800,
            max_clique_size: 20,
            inter_clique_prob: 0.05,
            seed: 3,
        });
        let out = run_distributed(&gen.graph, 3, &DistConfig::baseline());
        assert_eq!(out.assignment.len(), 800);
        let max = *out.assignment.iter().max().unwrap() as usize;
        assert_eq!(max + 1, out.num_communities);
    }

    #[test]
    fn stats_are_populated() {
        let gen = weblike(WeblikeParams::web(1_000, 5));
        let out = run_distributed(&gen.graph, 2, &DistConfig::baseline());
        assert!(out.traffic.collective_calls > 0);
        assert_eq!(out.per_rank_stats.len(), 2);
        assert!(out.phases >= 1);
        assert_eq!(
            out.modularity_per_phase().len(),
            out.per_rank_stats[0].len()
        );
        // Every rank counted sweep work, and the job moved point-to-point
        // bytes and reduced the modularity.
        for rank in &out.per_rank_stats {
            assert!(rank[0].compute.edges_scanned > 0);
        }
        assert!(out.traffic.p2p_bytes > 0);
        assert!(out.traffic.step_messages_for(CommStep::Reduction) > 0);
    }

    #[test]
    fn all_variants_converge_with_comparable_quality() {
        let gen = lfr(LfrParams::small(1_200, 33));
        let base = run_distributed(&gen.graph, 2, &DistConfig::baseline());
        for v in DistConfig::paper_variants() {
            if v == Variant::Baseline {
                continue;
            }
            let out = run_distributed(&gen.graph, 2, &DistConfig::with_variant(v));
            // Aggressive ET trades quality for speed; give it more room
            // at this tiny scale (see tests/parity.rs for the calibrated
            // tolerances).
            let tolerance = match v.alpha() {
                Some(a) if a > 0.5 => 0.15,
                _ => 0.1,
            };
            assert!(
                out.modularity > base.modularity - tolerance,
                "{}: {} vs baseline {}",
                v.label(),
                out.modularity,
                base.modularity
            );
        }
    }
}
