//! The phase loop (Algorithm 2) executed on every rank.
//!
//! [`run_on_rank`] carries one `RankState` from phase to phase: the
//! rank's piece of the current graph, the projection of its original
//! vertices and the loop's scalars, which is what a phase-boundary
//! checkpoint stores (`RankState::from_checkpoint` and
//! `RankState::to_checkpoint`). Each phase, in order: `check_cancel` at
//! the boundary; `detect`, which discovers the ghosts (Algorithm 4) and
//! runs the phase's Louvain iterations (Algorithm 3,
//! [`louvain_phase`]); the acceptance test; [`rebuild`] of the coarse
//! graph (Fig 1); `RankState::project` of the original vertices onto it;
//! and `write_checkpoint`.

use std::time::Duration;

use louvain_comm::{Comm, CommStep, ReduceOp, StatsSnapshot};
use louvain_graph::hash::{fast_map, FastMap, FastSet};
use louvain_graph::{LocalGraph, VertexId, VertexPartition};
use louvain_resil::{CheckpointStore, RankCheckpoint, ResilError};

use crate::config::DistConfig;
use crate::ghost::{pull_from_owners, GhostLayer, PullBufs};
use crate::heuristics::ThresholdSchedule;
use crate::iteration::{louvain_phase, PhaseContext, PhaseResult};
use crate::rebuild::rebuild;
use crate::resume::{abort, config_fingerprint, JobCancelled, ResilOptions};
use crate::stats::PhaseStats;

/// What one rank returns from a full distributed Louvain run.
#[derive(Debug)]
pub struct RankOutcome {
    /// Final community id (a coarse-graph vertex id, globally consistent)
    /// for each of this rank's ORIGINAL vertices, in global-id order.
    pub assignment: Vec<VertexId>,
    /// Final modularity (identical on every rank).
    pub modularity: f64,
    pub phases: usize,
    pub total_iterations: usize,
    pub phase_stats: Vec<PhaseStats>,
    /// Wall time of the whole run on this rank.
    pub wall: Duration,
    /// The phase this run restarted from when it was restored off a
    /// checkpoint (`None` for uninterrupted runs). `phase_stats` then
    /// covers only the re-executed phases, while `phases`,
    /// `total_iterations`, and the comm counters are cumulative over the
    /// whole logical run.
    pub resumed_from_phase: Option<u64>,
    /// Per-phase projections of this rank's ORIGINAL vertices onto the
    /// coarse graph after each executed phase — the rank's slice of the
    /// dendrogram. Populated only under
    /// [`ResilOptions::record_levels`]; on resumed runs it covers the
    /// re-executed phases only. The last entry equals `assignment`.
    pub levels: Vec<Vec<VertexId>>,
}

/// Fetch `local_vals[key - owner_first]` from the owner of every `key`.
/// Used to project assignments through the distributed coarse hierarchy.
/// Owned keys are answered in place; only remote keys are deduplicated,
/// pulled and held in the reply map. Collective.
fn pull_values(
    comm: &Comm,
    part: &VertexPartition,
    keys: &[VertexId],
    local_vals: &[VertexId],
    first: VertexId,
) -> Vec<VertexId> {
    let local = |k: VertexId| local_vals.get(k.wrapping_sub(first) as usize).copied();
    let remote: FastSet<_> = keys
        .iter()
        .copied()
        .filter(|&k| local(k).is_none())
        .collect();
    // `Other` is the default attribution; the explicit scope exists so
    // the projection traffic gets a step span and wait sub-span like
    // every other collective. Every rank enters it, remote keys or not:
    // self-sends are never counted, so the counter totals are unchanged.
    let mut map: FastMap<VertexId, VertexId> = fast_map();
    pull_from_owners(
        comm,
        part,
        CommStep::Other,
        remote.iter().copied(),
        &mut PullBufs::default(),
        |k| local_vals[(k - first) as usize],
        |k, v| {
            map.insert(k, v);
        },
    );
    keys.iter()
        .map(|k| local(*k).unwrap_or_else(|| map[k]))
        .collect()
}

/// What the phase loop carries from one phase to the next on this rank:
/// what a phase-boundary checkpoint holds, bar the comm counters.
struct RankState<'g> {
    /// This rank's piece of the current (coarse) graph.
    lg: LocalGraph<'g>,
    /// Original vertex (this rank's range) → vertex of the current coarse
    /// graph.
    cur_of_orig: Vec<VertexId>,
    /// The next phase to run.
    phase: usize,
    /// A phase converged at a cycled τ, so the rest run at the lowest.
    force_min_tau: bool,
    /// The best phase modularity so far (−∞ before the first phase).
    prev_q: f64,
    /// The last phase's modularity.
    final_q: f64,
    total_iterations: usize,
}

impl<'g> RankState<'g> {
    /// Phase 0 of `lg`, every original vertex mapped to itself.
    fn new(comm: &Comm, lg: LocalGraph<'g>) -> Self {
        Self {
            cur_of_orig: lg.partition().range(comm.rank()).collect(),
            lg,
            phase: 0,
            force_min_tau: false,
            prev_q: f64::NEG_INFINITY,
            final_q: 0.0,
            total_iterations: 0,
        }
    }

    /// The state a decoded checkpoint holds. `decode` has checked the
    /// ownership table and the CSR; what is left is that `cur_of_orig`
    /// covers the `owned` original vertices of the rank.
    fn from_checkpoint(
        ckpt: RankCheckpoint,
        owned: usize,
    ) -> Result<RankState<'static>, ResilError> {
        if ckpt.cur_of_orig.len() != owned {
            return Err(ResilError::Corrupt(format!(
                "cur_of_orig covers {} original vertices, rank {} owns {owned}",
                ckpt.cur_of_orig.len(),
                ckpt.rank
            )));
        }
        let part = VertexPartition::from_starts(ckpt.part_starts);
        let offsets: Vec<usize> = ckpt.offsets.iter().map(|&o| o as usize).collect();
        Ok(RankState {
            lg: LocalGraph::from_csr_parts(part, ckpt.rank, offsets, ckpt.dests, ckpt.weights),
            cur_of_orig: ckpt.cur_of_orig,
            phase: ckpt.phase as usize,
            force_min_tau: ckpt.force_min_tau,
            prev_q: ckpt.prev_q,
            final_q: ckpt.final_q,
            total_iterations: ckpt.total_iterations as usize,
        })
    }

    /// This state as `comm`'s rank's checkpoint under the config
    /// `fingerprint`, with the comm counters as they stand.
    fn to_checkpoint(&self, comm: &Comm, fingerprint: u64) -> RankCheckpoint {
        let (offsets, dests, weights) = self.lg.csr_parts();
        RankCheckpoint {
            rank: comm.rank(),
            ranks: comm.size(),
            phase: self.phase as u64,
            force_min_tau: self.force_min_tau,
            prev_q: self.prev_q,
            final_q: self.final_q,
            total_iterations: self.total_iterations as u64,
            config_fingerprint: fingerprint,
            part_starts: self.lg.partition().starts().to_vec(),
            offsets: offsets.iter().map(|&o| o as u64).collect(),
            dests: dests.to_vec(),
            weights: weights.to_vec(),
            cur_of_orig: self.cur_of_orig.clone(),
            stats: comm.stats().snapshot(),
        }
    }

    /// Map each original vertex on through the current graph: to
    /// `values[v - first]` of the vertex `v` it maps to now, which `v`'s
    /// owner holds. Collective.
    fn project(&mut self, comm: &Comm, values: &[VertexId], phase: usize) {
        let _s = louvain_obs::span!("project", phase = phase);
        let (part, first) = (self.lg.partition(), self.lg.first_vertex());
        self.cur_of_orig = pull_values(comm, part, &self.cur_of_orig, values, first);
    }
}

/// Load and validate this rank's slab from the newest complete
/// checkpoint, or `None` when the store holds no checkpoint yet (a
/// fresh start is then the correct resume). `owned` is how many
/// original vertices the rank holds, which `cur_of_orig` must cover.
/// Unrecoverable problems (corruption, wrong config, wrong rank count,
/// I/O) abort the run with a typed payload rather than silently
/// diverging.
fn restore_rank(
    comm: &Comm,
    store: &CheckpointStore,
    fingerprint: u64,
    owned: usize,
) -> Option<RankState<'static>> {
    let latest = store
        .latest()
        .unwrap_or_else(|e| abort(format!("cannot resume: {e}")))?;
    let _s = louvain_obs::span!("checkpoint_restore", phase = latest);
    fn fail(latest: u64, e: ResilError) -> ! {
        abort(format!("cannot resume from phase {latest}: {e}"))
    }
    let manifest = store.manifest(latest).unwrap_or_else(|e| fail(latest, e));
    manifest
        .validate(comm.size(), fingerprint)
        .unwrap_or_else(|e| fail(latest, e));
    let mut ckpt = (store.load_rank(&manifest, comm.rank())).unwrap_or_else(|e| fail(latest, e));
    let stats = std::mem::take(&mut ckpt.stats);
    let restored = RankState::from_checkpoint(ckpt, owned).unwrap_or_else(|e| fail(latest, e));
    // Re-absorb the checkpointed counters so the resumed run's
    // cumulative traffic matches an uninterrupted run's.
    comm.stats().absorb(&stats);
    Some(restored)
}

/// Cooperative cancellation, checked once per phase boundary — i.e.
/// right after the boundary checkpoint (if any) went durable at the end
/// of the previous phase. The tiny agreement all-reduce makes the
/// decision collective: either every rank stops here or none does, so
/// no peer is ever left blocked mid-collective by a unilateral exit.
fn check_cancel(comm: &Comm, resil: &ResilOptions, phase: usize) {
    let Some(token) = resil.cancel.as_ref() else {
        return;
    };
    let local = token.load(std::sync::atomic::Ordering::SeqCst) as u64;
    let agreed = comm.with_step(CommStep::Other, || comm.all_reduce(local, ReduceOp::Max));
    if agreed > 0 {
        std::panic::panic_any(JobCancelled {
            phase: phase as u64,
        });
    }
}

/// One phase's Louvain iterations on `lg` at threshold `tau`: discover
/// the ghosts (Algorithm 4), all-reduce `2m`, then run Algorithm 3.
/// Returns the phase's result, the ghost layer rebuild reads, and the
/// traffic of the iterations.
fn detect<'g>(
    comm: &Comm,
    lg: &'g LocalGraph,
    cfg: &DistConfig,
    phase: usize,
    tau: f64,
) -> (PhaseResult, GhostLayer<'g>, StatsSnapshot) {
    let mut ghosts = {
        let _s = louvain_obs::span!("ghost_build", phase = phase);
        // Scoped under `Other` (its default attribution) so the
        // slot-map exchange gets a step span and wait sub-span.
        comm.with_step(CommStep::Other, || GhostLayer::build(comm, lg))
    };
    // Both at full size for the phase; `mem.csr_bytes` is set at load.
    if louvain_obs::enabled() {
        louvain_obs::gauge_set("mem.ghost_bytes", ghosts.approx_bytes() as f64);
        louvain_obs::gauge_set("mem.peak_rss_bytes", louvain_obs::peak_rss_bytes() as f64);
    }
    let two_m = comm.with_step(CommStep::Other, || {
        comm.all_reduce(lg.local_arc_weight(), ReduceOp::Sum)
    });
    let ctx = PhaseContext { comm, lg, two_m };
    let before_phase = comm.stats().snapshot();
    let result = louvain_phase(&ctx, &mut ghosts, cfg, phase, tau);
    (result, ghosts, comm.stats().snapshot().since(&before_phase))
}

/// The phase-boundary checkpoint of `run`, which is about to start
/// phase `run.phase`: all collectives have quiesced, the coarse graph
/// was just rebuilt, and the projection is current — a consistent cut
/// of the whole distributed state. Collective.
fn write_checkpoint(comm: &Comm, store: &CheckpointStore, run: &RankState, fingerprint: u64) {
    let next_phase = run.phase as u64;
    let mut span = louvain_obs::span!("checkpoint_write", phase = next_phase);
    // The stats cut is snapshotted BEFORE the checkpoint-step gather
    // below, so the stored counters exclude the checkpointing traffic
    // itself: a resumed run then reproduces an uninterrupted run's
    // per-step totals exactly for every step but `checkpoint`.
    let ckpt = run.to_checkpoint(comm, fingerprint);
    let bytes = comm.with_step(CommStep::Checkpoint, || {
        // Slab serialization + fsync is the longest stretch a rank spends
        // away from any comm op; bracket it with heartbeats so peer
        // watchdogs see a straggler, not a hang, when the disk is slow.
        comm.heartbeat();
        let entry = store.write_rank(&ckpt).unwrap_or_else(|e| {
            abort(format!(
                "checkpoint write failed at phase {next_phase}: {e}"
            ))
        });
        comm.heartbeat();
        let bytes = entry.bytes;
        if let Some(entries) = comm.gather_to_root(0, vec![entry]) {
            let all: Vec<_> = entries.into_iter().flatten().collect();
            store
                .commit_phase(next_phase, comm.size(), fingerprint, all)
                .unwrap_or_else(|e| {
                    abort(format!(
                        "checkpoint commit failed at phase {next_phase}: {e}"
                    ))
                });
        }
        // No rank proceeds before the manifest is durable — otherwise a
        // crash early in the next phase could strand slabs with no
        // committed manifest behind them.
        comm.barrier();
        bytes
    });
    span.arg("bytes", bytes);
}

/// Run the distributed Louvain algorithm on this rank's piece of the
/// graph, with phase-boundary checkpointing and resume as `resil` asks
/// ([`ResilOptions::none`] for neither). Collective — all ranks call it
/// with their own [`LocalGraph`].
///
/// Phase boundaries are consistent cuts: the four per-iteration
/// communication steps have quiesced, the coarse graph was just rebuilt,
/// and the per-phase heuristic state (ET tracker, delta-refresh
/// baseline) is recreated from scratch at each phase entry, so the cut
/// carries none of it. Together with the sweep order being seeded from
/// the *absolute* phase index, a run resumed from the phase-`k`
/// checkpoint replays phases `k..` bit-identically to an uninterrupted
/// run — same assignments, same modularity.
pub fn run_on_rank(
    comm: &Comm,
    lg0: LocalGraph<'_>,
    cfg: &DistConfig,
    resil: &ResilOptions,
) -> RankOutcome {
    let started = std::time::Instant::now();
    let schedule = if cfg.variant.uses_cycling() {
        ThresholdSchedule::paper_cycle(cfg.threshold)
    } else {
        ThresholdSchedule::fixed(cfg.threshold)
    };
    let min_tau = schedule.min_tau();
    let fingerprint = config_fingerprint(cfg);

    let store = resil.checkpoint.as_ref().map(|c| {
        CheckpointStore::new(&c.dir).unwrap_or_else(|e| {
            abort(format!(
                "cannot open checkpoint directory {}: {e}",
                c.dir.display()
            ))
        })
    });

    let mut run = RankState::new(comm, lg0);
    let mut resumed_from_phase = None;
    if resil.resume {
        let store = store
            .as_ref()
            .unwrap_or_else(|| abort("resume requested without a checkpoint directory".into()));
        if let Some(restored) = restore_rank(comm, store, fingerprint, run.cur_of_orig.len()) {
            resumed_from_phase = Some(restored.phase as u64);
            run = restored;
        }
    }
    let start_phase = run.phase;
    let mut phase_stats: Vec<PhaseStats> = Vec::new();
    let mut levels: Vec<Vec<VertexId>> = Vec::new();

    for phase_idx in start_phase..cfg.max_phases {
        comm.advance_fault_epoch(phase_idx as u64);
        check_cancel(comm, resil, phase_idx);
        let tau = if run.force_min_tau {
            min_tau
        } else {
            schedule.tau_for_phase(phase_idx)
        };
        let mut phase_span = louvain_obs::span!(
            "phase",
            phase = phase_idx,
            tau = tau,
            vertices = run.lg.num_global()
        );
        let (result, ghosts, traffic) = detect(comm, &run.lg, cfg, phase_idx, tau);
        let iterations = result.traces.len();
        run.total_iterations += iterations;
        run.final_q = result.modularity;
        phase_span.arg("iterations", iterations);
        phase_span.arg("q", result.modularity);

        let converged = run.prev_q.is_finite() && result.modularity - run.prev_q <= tau;
        // "our distributed implementation always forces Louvain iteration
        // to run once more with the lowest threshold, to ensure acceptable
        // modularity" — convergence at a cycled (higher) τ only schedules
        // a final min-τ phase.
        let accept = converged && (tau <= min_tau * (1.0 + 1e-12) || run.force_min_tau);
        run.prev_q = run.prev_q.max(result.modularity);
        run.force_min_tau |= converged;

        let mut stats = PhaseStats {
            phase: phase_idx,
            num_vertices: run.lg.num_global(),
            modularity: result.modularity,
            tau,
            iteration_traces: result.traces,
            compute: result.compute,
            rebuild: Default::default(),
            traffic,
            etc_exit: result.etc_exit,
            threads_per_rank: cfg.threads_per_rank.max(1),
        };

        // Unless the phase is accepted, rebuild the coarse graph, which
        // also yields each old vertex's new id.
        let coarse = (!accept).then(|| {
            let before_rebuild = comm.stats().snapshot();
            let _s = louvain_obs::span!("rebuild", phase = phase_idx);
            let (comm_of_local, ghost_comm) = (&result.comm_of_local, &result.ghost_comm);
            let out = rebuild(comm, &run.lg, &ghosts, comm_of_local, ghost_comm);
            stats.rebuild = out.work;
            (stats.traffic).merge(&comm.stats().snapshot().since(&before_rebuild));
            out
        });
        phase_stats.push(stats);
        // Project the original vertices onto the new coarse graph, or onto
        // their final communities: the final community of orig v is
        // comm_of_local[cur_of_orig[v]], held by the owner of that vertex.
        let new_ids = coarse
            .as_ref()
            .map_or(&result.comm_of_local, |c| &c.vertex_new_id);
        run.project(comm, new_ids, phase_idx);
        if resil.record_levels {
            levels.push(run.cur_of_orig.clone());
        }
        let Some(out) = coarse else {
            break;
        };
        let compressed = out.new_num_vertices < run.lg.num_global();
        run.lg = out.new_lg;
        // Without compression one more phase cannot improve, and the
        // coarse vertices are the final (identity) communities; so they
        // are when the phase budget is spent.
        if !compressed || phase_idx + 1 == cfg.max_phases {
            break;
        }
        run.phase = phase_idx + 1;
        if let Some(store) = store.as_ref() {
            write_checkpoint(comm, store, &run, fingerprint);
        }
    }

    RankOutcome {
        assignment: run.cur_of_orig,
        modularity: run.final_q,
        phases: start_phase + phase_stats.len(),
        total_iterations: run.total_iterations,
        phase_stats,
        wall: started.elapsed(),
        resumed_from_phase,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::{Csr, EdgeList};

    fn scatter(g: &Csr, p: usize) -> Vec<LocalGraph<'_>> {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        LocalGraph::scatter(g, &part)
    }

    #[test]
    fn hostile_checkpoints_are_errors_never_panics() {
        use louvain_resil::{decode, encode, fnv1a64};
        // Rank 1 of 2 owns vertices 3..7 of the coarse graph and five
        // original vertices.
        let ckpt = RankCheckpoint {
            rank: 1,
            ranks: 2,
            phase: 2,
            force_min_tau: false,
            prev_q: 0.25,
            final_q: 0.3,
            total_iterations: 9,
            config_fingerprint: 0xF00D,
            part_starts: vec![0, 3, 7],
            offsets: vec![0, 2, 3, 5, 6],
            dests: vec![0, 4, 3, 5, 6, 1],
            weights: vec![1.0, 2.0, 2.0, 1.0, 0.5, 3.0],
            cur_of_orig: vec![3, 3, 4, 6, 0],
            stats: StatsSnapshot::default(),
        };
        let owned = ckpt.cur_of_orig.len();
        let clean = encode(&ckpt);
        let restore =
            |bytes: &[u8]| decode(bytes).and_then(|c| RankState::from_checkpoint(c, owned));
        assert!(restore(&clean).is_ok());
        let body = clean.len() - 8;
        let (mut refused, mut restored) = (0, 0);
        // Every 4-byte step reaches each u32 header field and both
        // halves of every u64 word, lengths included.
        for at in (0..=body - 8).step_by(4) {
            let word = u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
            let mutants = [
                0,
                1,
                2,
                3,
                4,
                5,
                6,
                7,
                8,
                word.wrapping_add(1),
                word.wrapping_sub(1),
                word ^ (1 << 63),
                1 << 32,
                u64::MAX,
                f64::NAN.to_bits(),
                (-1.0f64).to_bits(),
                f64::INFINITY.to_bits(),
            ];
            for m in mutants {
                let mut bytes = clean.clone();
                bytes[at..at + 8].copy_from_slice(&m.to_le_bytes());
                let hash = fnv1a64(&bytes[..body]);
                bytes[body..].copy_from_slice(&hash.to_le_bytes());
                match restore(&bytes) {
                    Ok(_) => restored += 1,
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(
            refused > 500 && restored > 100,
            "{refused} refused, {restored} restored"
        );

        // Fields `tests/resilience.rs` does not break on a real resume
        // are refused by name too.
        let refuse = |field: &str, edit: &dyn Fn(&mut RankCheckpoint)| {
            let mut bad = ckpt.clone();
            edit(&mut bad);
            match restore(&encode(&bad)) {
                Err(ResilError::Corrupt(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                Err(e) => panic!("{field}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{field}: a malformed checkpoint restored"),
            }
        };
        refuse("part_starts", &|c| c.part_starts = vec![1, 3, 7]);
        refuse("weights", &|c| c.weights[0] = f64::NAN);
        refuse("offsets", &|c| {
            // A rank owning u64::MAX vertices: its offsets length must not
            // overflow on the way to the comparison.
            c.rank = 0;
            c.part_starts = vec![0, u64::MAX, u64::MAX];
            c.offsets.clear();
        });
        refuse("cur_of_orig", &|c| c.cur_of_orig[1] = 99);
    }

    #[test]
    fn two_triangles_converge_on_any_rank_count() {
        let g = Csr::from_edge_list(EdgeList::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 1.0),
            ],
        ));
        for p in [1, 2, 3] {
            let parts = scatter(&g, p);
            let cfg = DistConfig::baseline();
            let outs = run(p, |c| {
                run_on_rank(c, parts[c.rank()].clone(), &cfg, &ResilOptions::none())
            });
            let mut assignment = Vec::new();
            for o in &outs {
                assignment.extend(o.assignment.iter().copied());
                assert!((o.modularity - outs[0].modularity).abs() < 1e-12);
            }
            assert_eq!(assignment[0], assignment[1]);
            assert_eq!(assignment[1], assignment[2]);
            assert_eq!(assignment[3], assignment[5]);
            assert_ne!(assignment[0], assignment[3]);
            let q_ref = louvain_graph::community::modularity(&g, &assignment);
            assert!(
                (outs[0].modularity - q_ref).abs() < 1e-9,
                "p={p}: {} vs {}",
                outs[0].modularity,
                q_ref
            );
        }
    }

    #[test]
    fn delta_refresh_full_run_matches_baseline_exactly() {
        // Multi-phase end-to-end parity: the delta ghost refresh must not
        // change a single assignment across the whole coarsening
        // hierarchy, and must cut ghost-refresh bytes.
        use louvain_comm::CommStep;
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(800, 5)).graph;
        for p in [2, 4] {
            let parts = scatter(&g, p);
            let collect = |cfg: &DistConfig| {
                let outs = run(p, |c| {
                    let o = run_on_rank(c, parts[c.rank()].clone(), cfg, &ResilOptions::none());
                    let refresh_bytes = c.stats().snapshot().step_bytes_for(CommStep::GhostRefresh);
                    (o, refresh_bytes)
                });
                let mut assignment = Vec::new();
                let mut bytes = 0u64;
                for (o, b) in &outs {
                    assignment.extend(o.assignment.iter().copied());
                    bytes += b;
                }
                (assignment, outs[0].0.modularity, bytes)
            };
            let base = collect(&DistConfig::baseline());
            let cfg = DistConfig {
                delta_ghost_refresh: true,
                ..DistConfig::baseline()
            };
            let delta = collect(&cfg);
            assert_eq!(base.0, delta.0, "p={p}: assignments differ");
            assert_eq!(base.1, delta.1, "p={p}: modularity differs");
            assert!(
                delta.2 < base.2,
                "p={p}: delta refresh sent {} bytes vs full {}",
                delta.2,
                base.2
            );
        }
    }

    #[test]
    fn max_phases_budget_is_respected() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(800, 3)).graph;
        let parts = scatter(&g, 2);
        let cfg = DistConfig {
            max_phases: 1,
            ..DistConfig::baseline()
        };
        let outs = run(2, |c| {
            run_on_rank(c, parts[c.rank()].clone(), &cfg, &ResilOptions::none())
        });
        for o in &outs {
            assert_eq!(o.phases, 1);
            // Output is still a complete, valid assignment for the
            // original vertices.
            assert!(!o.assignment.is_empty());
        }
        let total: usize = outs.iter().map(|o| o.assignment.len()).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn per_phase_modularity_is_nondecreasing_at_acceptance() {
        let g = louvain_graph::gen::weblike(louvain_graph::gen::WeblikeParams::web(1_200, 4)).graph;
        let parts = scatter(&g, 2);
        let cfg = DistConfig::baseline();
        let outs = run(2, |c| {
            run_on_rank(c, parts[c.rank()].clone(), &cfg, &ResilOptions::none())
        });
        let qs: Vec<f64> = outs[0].phase_stats.iter().map(|p| p.modularity).collect();
        // Phases must improve until the last (which may only tie within τ).
        for w in qs.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "phase modularity regressed: {qs:?}");
        }
    }

    /// The parent `pull_values`, which hashed every key, owned or not:
    /// the oracle for the one that answers owned keys in place.
    fn pull_values_hashed(
        comm: &Comm,
        part: &VertexPartition,
        keys: &[VertexId],
        local_vals: &[VertexId],
        first: VertexId,
    ) -> Vec<VertexId> {
        let mut unique = louvain_graph::hash::fast_set::<VertexId>();
        for &k in keys {
            unique.insert(k);
        }
        let mut map: FastMap<VertexId, VertexId> = fast_map();
        pull_from_owners(
            comm,
            part,
            CommStep::Other,
            unique.iter().copied(),
            &mut PullBufs::default(),
            |k| local_vals[(k - first) as usize],
            |k, v| {
                map.insert(k, v);
            },
        );
        keys.iter().map(|k| map[k]).collect()
    }

    #[test]
    fn pull_values_matches_the_hashed_oracle_in_values_and_traffic() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let n = 60u64;
        for p in [1usize, 2, 3, 8] {
            // Uneven blocks, and at p = 8 one rank that owns nothing.
            let mut starts: Vec<u64> = (0..p as u64).map(|r| r * r * n / (p * p) as u64).collect();
            if p == 8 {
                starts[2] = starts[1];
            }
            starts.push(n);
            let part = VertexPartition::from_starts(starts);
            // 0: keys anywhere, with duplicates; 1: owned keys only;
            // 2: remote keys only; 3: no keys on odd ranks.
            for case in 0..4u64 {
                let outs = run(p, |c| {
                    let mut rng = SmallRng::seed_from_u64(case * 100 + c.rank() as u64);
                    let (first, owned) = (part.first(c.rank()), part.range(c.rank()));
                    let local_vals: Vec<u64> = owned.clone().map(|v| 1000 + 7 * v).collect();
                    let keys: Vec<u64> = (0..rng.random_range(0..3 * n))
                        .map(|_| rng.random_range(0..n))
                        .filter(|k| match case {
                            1 => owned.contains(k),
                            2 => !owned.contains(k),
                            3 => c.rank() % 2 == 0,
                            _ => true,
                        })
                        .collect();
                    let before = c.stats().snapshot();
                    let got = pull_values(c, &part, &keys, &local_vals, first);
                    let mid = c.stats().snapshot();
                    let want = pull_values_hashed(c, &part, &keys, &local_vals, first);
                    let after = c.stats().snapshot();
                    assert!(keys.iter().zip(&want).all(|(k, v)| *v == 1000 + 7 * k));
                    (got == want, mid.since(&before) == after.since(&mid))
                });
                for (rank, (values, traffic)) in outs.into_iter().enumerate() {
                    assert!(values, "p={p} case {case} rank {rank}: values differ");
                    assert!(traffic, "p={p} case {case} rank {rank}: traffic differs");
                }
            }
        }
    }

    #[test]
    fn pull_values_fetches_owner_state() {
        let outs = run(3, |c| {
            let part = VertexPartition::balanced_vertices(9, 3);
            let first = part.first(c.rank());
            // Owner stores value = 10 * global id for each owned vertex.
            let local_vals: Vec<u64> = part.range(c.rank()).map(|v| v * 10).collect();
            // Every rank asks about vertices it does not own.
            let keys: Vec<u64> = (0..9).filter(|v| part.owner_of(*v) != c.rank()).collect();
            let vals = pull_values(c, &part, &keys, &local_vals, first);
            keys.into_iter().zip(vals).all(|(k, v)| v == k * 10)
        });
        assert!(outs.into_iter().all(|b| b));
    }
}
