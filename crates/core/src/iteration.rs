//! The Louvain iterations of one phase (Algorithm 3).
//!
//! [`louvain_phase`] builds one `PhaseState`, this rank's arrays for the
//! phase, and runs `PhaseState::iterate` until `PhaseState::exit` ends
//! the phase. An iteration is the paper's four communication steps, one
//! method each, in the paper's order:
//!
//! 1. `exchange_ghosts`: owners push the latest community of every
//!    ghosted vertex (lines 4–5);
//! 2. `pull_remote_communities`: `key_remote_communities` finds the
//!    remote communities the active vertices might join, and
//!    [`pull_from_owners`] fetches their weights `a_c` and sizes (the
//!    "ghost community" information);
//! 3. `sweep`, the local compute step (lines 6–9), then `push_deltas`:
//!    weight deltas for remotely-owned communities go to their owners
//!    (lines 10–11);
//! 4. `reduce_modularity`: modularity by global reductions (lines
//!    12–13).
//!
//! `PhaseState::exit` is the one exit test: ETC's 90 %-inactive rule,
//! then no move or a gain of at most τ. `PhaseState::finish` refreshes
//! the ghosts once more and reduces the phase's exact modularity.
//!
//! Ranks see remote state only as of the most recent exchange — the
//! "community update lag" that distinguishes the distributed algorithm
//! from its shared-memory counterpart (Section III-B).
//!
//! Step 4's `Σ e_in` is carried through the phase, not recomputed by an
//! arc pass: it starts at the self-loop weight, each move adds
//! `Sweep::e_in_change` and each ghost slot a refresh changes adds the
//! change over the arcs into it. DESIGN.md §11, "Σ e_in through the
//! moves", argues it is exact.
//!
//! The compute sweep is MPI+OpenMP-shaped like the original. One move
//! kernel (`Sweep::best_move` scores, `Sweep::apply_move` writes) is
//! driven by two schedules (see [`crate::SweepMode`]): the seed's
//! sequential sweep on one thread, and a *colored* schedule in which a
//! distance-1 coloring over local+ghost adjacency partitions each sweep
//! into conflict-free batches — moves inside a batch are *decided* in
//! parallel against the frozen batch-start state by a persistent worker
//! pool and *applied* sequentially in a fixed order, so results are
//! bit-identical at any thread count. Both are deterministic, and the
//! community state is plain arrays: decisions borrow it shared, applies
//! borrow it mutably. See DESIGN.md §11 for the parity argument.
//!
//! Inside a phase every vertex and community is a dense `u32` index
//! (arc targets from [`GhostLayer::build`], communities from
//! [`CommunityIndex`]), so the per-arc loops index arrays; global ids
//! appear only where a value crosses the wire.
//!
//! Paper future-work extensions: the ghost refresh is always an
//! MPI-3-style neighborhood collective ([`GhostLayer`]), and distance-1
//! coloring is the colored schedule's batching.

use grappolo::{EtState, WorkerPool};

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::{DenseMap, LocalGraph, VertexId, Weight};

use crate::config::{DistConfig, SweepMode};
use crate::ghost::{pull_from_owners, push_to_owners, CommunityIndex, GhostLayer};
use crate::heuristics::distributed_coloring;
use crate::prefetch_rows;
use crate::scratch::{lock_worker, IterScratch, RemoteTable, SweepAcc, SweepWorker};
use crate::stats::{IterationTrace, WorkCounter};

/// Outcome of one phase's iteration loop on one rank.
#[derive(Debug)]
pub struct PhaseResult {
    /// Final community (global id) of each local vertex.
    pub comm_of_local: Vec<VertexId>,
    /// Final communities of the ghost vertices (freshly exchanged after
    /// the last iteration, so rebuild sees a consistent state).
    pub ghost_comm: Vec<VertexId>,
    pub modularity: f64,
    /// One trace per iteration run.
    pub traces: Vec<IterationTrace>,
    pub compute: WorkCounter,
    /// True if the ETC 90%-inactive exit ended the phase.
    pub etc_exit: bool,
}

/// Immutable phase inputs shared by the iteration loop.
pub struct PhaseContext<'a> {
    pub comm: &'a Comm,
    pub lg: &'a LocalGraph<'a>,
    /// Global `2m` (all-reduced once per phase by the caller).
    pub two_m: f64,
}

/// Per-rank community state. The sweep's decisions read it through `&`,
/// its applies write it through `&mut`, so no decision can run while a
/// move is applied.
struct SweepState {
    /// Community of each local vertex (dense index, see
    /// [`CommunityIndex`]).
    comm: Vec<u32>,
    /// Weight of each owned community (`a_c`, by dense index).
    a: Vec<Weight>,
    /// Size of each owned community.
    size: Vec<u64>,
    /// The remote communities: this iteration's pull and the deltas of
    /// the moves applied since.
    remote: RemoteTable,
    /// Per-vertex move flags for this iteration.
    moved: Vec<bool>,
}

impl SweepState {
    /// Every vertex in its own community, whose dense index is the
    /// vertex's local index ([`CommunityIndex::new`] has checked that the
    /// local indices fit).
    fn new(k_local: &[Weight]) -> Self {
        let nlocal = k_local.len();
        Self {
            comm: (0..nlocal as u32).collect(),
            a: k_local.to_vec(),
            size: vec![1; nlocal],
            remote: RemoteTable::default(),
            moved: vec![false; nlocal],
        }
    }
}

/// Read-only inputs of one compute sweep, shared by both schedules. The
/// community state is passed beside it: `&` to decide, `&mut` to apply
/// ([`Sweep::apply_move`] is its only sweep-time writer).
struct Sweep<'a> {
    /// Row bounds and weights of the local CSR, and the dense target of
    /// every arc.
    offsets: &'a [usize],
    arc_weights: &'a [Weight],
    targets: &'a [u32],
    ghosts: &'a GhostLayer<'a>,
    ghost_comm: &'a [u32],
    index: &'a CommunityIndex,
    k_local: &'a [Weight],
    two_m: f64,
}

impl Sweep<'_> {
    /// The local-move rule (Algorithm 3, lines 6–9) for local vertex `l`:
    /// gather the edge weight toward every neighboring community into
    /// `weights`, score each candidate, and return the community `l`
    /// should move to, if any, beside what the move does to this rank's
    /// `Σ e_in` ([`Sweep::e_in_change`]). Nothing is written but the
    /// scratch, which is handed back clear.
    ///
    /// Per-community weights accumulate in neighbour order and candidates
    /// are scored in order of first touch. A candidate wins by more than
    /// 1e-12, or within 1e-12 by the smaller *global* id (Lu et al.'s
    /// minimum labelling), so the order matters only when three scores
    /// chain inside that tolerance — never on integer weights, where two
    /// scores are equal or at least 1/2m apart (DESIGN.md §11).
    ///
    /// Remote community info is the iteration-start pull adjusted by the
    /// remote-community changes of the moves `state` has applied since
    /// ([`RemoteTable::view`]) — without this "local view", every vertex
    /// of the rank sees the same stale (small) a_c of an attractive
    /// remote community and they all pile in, overshooting badly on
    /// mesh-like graphs.
    #[inline]
    fn best_move(
        &self,
        state: &SweepState,
        l: usize,
        weights: &mut DenseMap<Weight>,
        edges: &mut u64,
    ) -> Option<(u32, Weight)> {
        debug_assert!(
            weights.entries().is_empty(),
            "scratch not handed back clear"
        );
        let row = self.offsets[l]..self.offsets[l + 1];
        *edges += row.len() as u64;
        for (&t, &w) in self.targets[row.clone()].iter().zip(&self.arc_weights[row]) {
            // A self-loop: the only arc of `l` whose target is `l`.
            if t as usize == l {
                continue;
            }
            let c = (self.ghosts).value_of(t, |i| state.comm[i], self.ghost_comm);
            *weights.entry(c) += w;
        }
        let best = (self.score(state, l, weights))
            .map(|c| (c, self.e_in_change(state, l, c, weights, edges)));
        weights.clear();
        best
    }

    /// What moving `l` to `best` does to this rank's `Σ e_in`, from the
    /// gathered `weights`: `l`'s row changes by `e_best − e_cu`, the
    /// reverse arcs of its local neighbours by the same sums over local
    /// arcs only (a ghost's owner sees `l` through a stale replica), so
    /// a mover with ghost arcs reads its row once more for them.
    fn e_in_change(
        &self,
        state: &SweepState,
        l: usize,
        best: u32,
        weights: &DenseMap<Weight>,
        edges: &mut u64,
    ) -> Weight {
        let cu = state.comm[l];
        let e = |c| weights.get(c).unwrap_or(0.0);
        let own_row = e(best) - e(cu);
        if !self.ghosts.has_ghost_arcs(l) {
            return 2.0 * own_row;
        }
        let row = self.offsets[l]..self.offsets[l + 1];
        *edges += row.len() as u64;
        let mut ghost_arcs = 0.0;
        for (&t, &w) in self.targets[row.clone()].iter().zip(&self.arc_weights[row]) {
            if let Some(s) = self.ghosts.slot(t) {
                if self.ghost_comm[s] == best {
                    ghost_arcs += w;
                } else if self.ghost_comm[s] == cu {
                    ghost_arcs -= w;
                }
            }
        }
        2.0 * own_row - ghost_arcs
    }

    /// Score the gathered candidates of `l`; see [`Sweep::best_move`].
    #[inline]
    fn score(&self, state: &SweepState, l: usize, weights: &DenseMap<Weight>) -> Option<u32> {
        let index = self.index;
        if weights.entries().is_empty() {
            return None;
        }
        let cu = state.comm[l];
        let kv = self.k_local[l];
        // Remote community info: one table entry, this iteration's pull
        // plus the applied moves' deltas.
        let a_of = |c: u32| match index.remote_slot(c) {
            None => state.a[c as usize],
            Some(r) => state.remote.view(r).0,
        };
        // Read for two communities per vertex, not for every candidate.
        let size_of = |c: u32| match index.remote_slot(c) {
            None => state.size[c as usize],
            Some(r) => state.remote.view(r).1,
        };
        let id = |c: u32| index.global(c);
        let e_cu = weights.get(cu).unwrap_or(0.0);
        let stay = e_cu - kv * (a_of(cu) - kv) / self.two_m;
        let mut best_c = cu;
        let mut best_score = f64::NEG_INFINITY;
        for &(c, e_vc) in weights.entries() {
            if c == cu {
                continue;
            }
            let score = e_vc - kv * a_of(c) / self.two_m;
            if score > best_score + 1e-12
                || ((score - best_score).abs() <= 1e-12 && id(c) < id(best_c))
            {
                best_score = score;
                best_c = c;
            }
        }
        let profitable = best_c != cu
            && (best_score > stay + 1e-12
                || ((best_score - stay).abs() <= 1e-12 && id(best_c) < id(cu)));
        // Singleton-swap guard (Vite / Lu et al. minimum labeling): two
        // singleton vertices evaluating each other concurrently would swap
        // communities forever; only the one moving toward the smaller
        // community id proceeds.
        let swap = profitable && id(best_c) > id(cu) && size_of(cu) == 1 && size_of(best_c) == 1;
        (profitable && !swap).then_some(best_c)
    }

    /// Move local vertex `l` to `best_c` (and `Σ e_in` by `e_in_change`):
    /// the only sweep-time writer of the community state. Owned
    /// communities are updated in place; changes to remote ones
    /// accumulate in `state.remote` for the owner push, whose message
    /// order follows the first-apply order here.
    fn apply_move(
        &self,
        state: &mut SweepState,
        l: usize,
        (best_c, e_in_change): (u32, Weight),
        acc: &mut SweepAcc,
    ) {
        let index = self.index;
        let cu = state.comm[l];
        let kv = self.k_local[l];
        state.comm[l] = best_c;
        state.moved[l] = true;
        acc.moves += 1;
        acc.e_in += e_in_change;
        // Leave cu.
        match index.remote_slot(cu) {
            None => {
                state.a[cu as usize] -= kv;
                state.size[cu as usize] -= 1;
            }
            Some(r) => state.remote.apply(r, -kv, -1),
        }
        // Join best_c.
        match index.remote_slot(best_c) {
            None => {
                state.a[best_c as usize] += kv;
                state.size[best_c as usize] += 1;
            }
            Some(r) => state.remote.apply(r, kv, 1),
        }
    }

    /// This sweep's rows, for [`prefetch_rows`] ahead of the vertex being scored.
    fn rows(&self) -> (&[usize], &[u32], &[Weight]) {
        (self.offsets, self.targets, self.arc_weights)
    }

    /// Gauss-Seidel driver of the sequential schedule: each vertex of
    /// `vertices` is scored against the live state (with the remote
    /// deltas so far) and moved at once.
    fn sweep_in_place(&self, state: &mut SweepState, vertices: &[usize], worker: &mut SweepWorker) {
        let SweepWorker { weights, acc, .. } = worker;
        for (i, &l) in vertices.iter().enumerate() {
            prefetch_rows(|j| vertices.get(j).copied(), i, self.rows());
            acc.vertices += 1;
            if let Some(mv) = self.best_move(state, l, weights, &mut acc.edges) {
                self.apply_move(state, l, mv, acc);
            }
        }
    }

    /// Driver of the colored deterministic schedule over
    /// `scratch.sweep_vertices`.
    ///
    /// Vertices are grouped into conflict-free batches by color class (the
    /// distance-1 coloring guarantees no two batch members are adjacent,
    /// so no decision can read a community membership another batch member
    /// is about to change). Each batch's moves are *decided* in parallel
    /// by the worker pool against the frozen batch-start state — with the
    /// remote deltas of *previous* batches, read-only — then *applied*
    /// sequentially in batch order on the calling thread into
    /// `scratch.acc`. A decision is a function of the vertex and the
    /// frozen state alone (each worker's table is clear between
    /// vertices), and the workers'
    /// moves are applied in worker order, which is range order, so the
    /// applied sequence is a function of the coloring alone — results at
    /// any `threads_per_rank` are bit-identical for a fixed coloring (and
    /// the coloring seed never depends on the thread count). The pool's
    /// decisions share-borrow `state` and the applies after it returns
    /// borrow it mutably, so the frozen-batch rule is the borrow
    /// checker's. The parity argument is spelled out in DESIGN.md §11.
    /// The same independence keeps the `Σ e_in` change a decision
    /// carries exact when applied.
    fn sweep_colored(
        &self,
        state: &mut SweepState,
        pool: &WorkerPool,
        (color, nc): &(Vec<u32>, u32),
        scratch: &mut IterScratch,
        iter: usize,
    ) {
        let IterScratch {
            sweep_vertices: vertices,
            batches,
            workers,
            acc,
            ..
        } = scratch;
        let nc = *nc as usize;
        if batches.len() < nc {
            batches.resize_with(nc, Vec::new);
        }
        for b in batches.iter_mut() {
            b.clear();
        }
        // `vertices` is already in sweep order, so each batch inherits the
        // deterministic order of its members.
        for &l in vertices.iter() {
            batches[color[l] as usize].push(l);
        }
        for (batch_color, batch) in batches.iter().enumerate().take(nc) {
            if batch.is_empty() {
                continue;
            }
            let mut batch_span =
                louvain_obs::span!("sweep.batch", iter = iter, color = batch_color);
            let batch_start = &*state;
            pool.run(batch.len(), |w, r| {
                let mut worker = lock_worker(&workers[w]);
                let SweepWorker {
                    weights,
                    moves,
                    acc,
                } = &mut *worker;
                let mine = &batch[r];
                acc.vertices += mine.len() as u64;
                for (i, &l) in mine.iter().enumerate() {
                    prefetch_rows(|j| mine.get(j).copied(), i, self.rows());
                    if let Some((c, e_in_change)) =
                        self.best_move(batch_start, l, weights, &mut acc.edges)
                    {
                        // `l` < nlocal, which `CommunityIndex::new` bounds.
                        moves.push((l as u32, c, e_in_change));
                    }
                }
            });
            let mut batch_moves = 0u64;
            for worker in workers.iter() {
                for (l, c, e_in_change) in lock_worker(worker).moves.drain(..) {
                    self.apply_move(state, l as usize, (c, e_in_change), acc);
                    batch_moves += 1;
                }
            }
            batch_span.arg("moves", batch_moves);
        }
    }
}

/// One rank's state for one phase: its inputs, the per-phase arrays
/// Algorithm 3 reads and writes, and the tracked `Σ e_in`. It is built
/// at phase entry and dropped at phase end, so a phase boundary carries
/// none of it.
struct PhaseState<'a, 'g> {
    ctx: &'a PhaseContext<'a>,
    /// Each exchange leaves its delta baseline here.
    ghosts: &'a mut GhostLayer<'g>,
    cfg: &'a DistConfig,
    phase: usize,
    k_local: Vec<Weight>,
    index: CommunityIndex,
    state: SweepState,
    /// The ghost vertices' communities, one per ghost slot: as refreshed
    /// (global ids — the wire's and rebuild's view) and as the sweep reads
    /// them (dense).
    ghost_global: Vec<VertexId>,
    ghost_dense: Vec<u32>,
    /// Every buffer of the four-step loop, allocated once here and
    /// recycled across iterations.
    scratch: IterScratch,
    /// Early termination (Section IV-B(b)): coins keyed by global id, so
    /// a vertex flips the same coin on whichever rank hosts it.
    et: Option<EtState>,
    /// The local vertices in the order this phase sweeps them.
    sweep_order: Vec<usize>,
    /// Distance-1 coloring, present exactly when the colored batch
    /// schedule runs.
    coloring: Option<(Vec<u32>, u32)>,
    /// The colored schedule dispatches each color batch through one pool
    /// kept alive for the whole phase; at one thread it spawns nothing
    /// and runs inline. Worker `w` owns `scratch.workers[w]`.
    pool: WorkerPool,
    /// This rank's `Σ e_in` (module doc).
    e_in: Weight,
    compute: WorkCounter,
}

impl<'a, 'g> PhaseState<'a, 'g> {
    /// Every vertex alone, at phase `phase`. Collective under the colored
    /// schedule, which colors the graph here.
    fn new(
        ctx: &'a PhaseContext<'a>,
        ghosts: &'a mut GhostLayer<'g>,
        cfg: &'a DistConfig,
        phase: usize,
    ) -> Self {
        let lg = ctx.lg;
        let (nlocal, first) = (lg.num_local(), lg.first_vertex());
        let threads = cfg.threads_per_rank.max(1);
        let k_local: Vec<Weight> = (0..nlocal).map(|l| lg.weighted_degree(l)).collect();
        Self {
            sweep_order: louvain_graph::hash::shuffled_order(
                nlocal,
                cfg.seed ^ (phase as u64).wrapping_mul(0x9e37) ^ first,
            ),
            // Computed once per phase with a thread-count-independent
            // seed, so the coloring — and with it every colored-schedule
            // trajectory — is fixed across `threads_per_rank` settings.
            coloring: (cfg.sweep == SweepMode::Colored || threads > 1).then(|| {
                let res = distributed_coloring(ctx.comm, lg, ghosts, cfg.seed ^ 0xC0105);
                louvain_obs::counter_add("sweep.colors", res.1 as u64);
                res
            }),
            index: CommunityIndex::new(lg),
            state: SweepState::new(&k_local),
            ghost_global: Vec::new(),
            ghost_dense: Vec::new(),
            scratch: IterScratch::new(nlocal, threads),
            et: (cfg.variant.alpha())
                .map(|alpha| EtState::with_offset(nlocal, first, alpha, cfg.seed)),
            pool: WorkerPool::new(threads),
            e_in: self_loop_weight(lg, ghosts),
            compute: WorkCounter::default(),
            k_local,
            ctx,
            ghosts,
            cfg,
            phase,
        }
    }

    /// Algorithm 3's iterations at threshold `tau` until the exit test
    /// ends the phase, at most `cfg.max_iterations` of them: their traces.
    fn iterations(&mut self, tau: f64) -> Vec<IterationTrace> {
        let mut traces: Vec<IterationTrace> = Vec::new();
        while traces.len() < self.cfg.max_iterations {
            let trace = self.iterate(traces.len() + 1, traces.last());
            let exit = self.exit(&trace, traces.last(), tau);
            traces.push(trace);
            if exit {
                break;
            }
        }
        traces
    }

    /// Iteration `iter` (from 1): the four steps in the paper's order,
    /// the ET bookkeeping and the iteration's trace, `prev` being the last
    /// iteration's.
    fn iterate(&mut self, iter: usize, prev: Option<&IterationTrace>) -> IterationTrace {
        let comm = self.ctx.comm;
        let mut iter_span = louvain_obs::span!("iteration", phase = self.phase, iter = iter);
        let edges_at_start = self.compute.edges_scanned;
        // A collector is listening (tracing, a progress sink, or both):
        // the telemetry's ghost-traffic baseline, behind the record's gate.
        let ghost_bytes = || (comm.stats().snapshot()).step_bytes_for(CommStep::GhostRefresh);
        let ghost_bytes_at_start = louvain_obs::observing().then(ghost_bytes);
        let (et, phase) = (&self.et, self.phase);
        self.scratch.active.clear();
        (self.scratch.active).extend((0..self.k_local.len()).map(|l| match et {
            Some(t) => t.is_active(phase, iter, l),
            None => true,
        }));
        self.state.moved.fill(false);

        self.exchange_ghosts(prev, true);
        self.pull_remote_communities();
        let local_moves = self.sweep(iter);
        self.push_deltas();
        let (q, moves) = self.reduce_modularity(iter, local_moves);

        let trace = IterationTrace {
            modularity: q,
            moves,
            inactive: self.update_et(),
            local_edges: self.compute.edges_scanned - edges_at_start,
        };
        iter_span.arg("moves", moves);
        iter_span.arg("q", q);
        if let Some(at_start) = ghost_bytes_at_start {
            // Convergence telemetry: the global fields (q, delta-Q, moves)
            // are all-reduced and identical on every rank; the per-rank
            // fields sum exactly across ranks because each vertex and each
            // community has exactly one owner.
            let mut community_sizes = louvain_obs::Histogram::default();
            for &sz in self.state.size.iter().filter(|&&sz| sz > 0) {
                community_sizes.observe(sz);
            }
            louvain_obs::record_iteration(louvain_obs::IterationRecord {
                phase: self.phase as u64,
                iteration: (iter - 1) as u64,
                modularity: q,
                delta_q: prev.map_or(0.0, |p| q - p.modularity),
                moves,
                active: self.scratch.sweep_vertices.len() as u64,
                vertices: self.k_local.len() as u64,
                communities: community_sizes.count,
                community_sizes,
                ghost_bytes: ghost_bytes() - at_start,
            });
        }
        trace
    }

    /// Step 1, the ghost refresh: snapshot the local communities into the
    /// scratch arena, let the layer refresh the ghost communities from the
    /// owners' snapshots, and renumber the slots that changed. A delta
    /// refresh is allowed after an iteration `prev` in which fewer than a
    /// quarter of the global vertices moved: a count every rank has
    /// all-reduced alike (see [`GhostLayer::exchange`]).
    ///
    /// With `track_e_in`, also adds to `Σ e_in` what the changed slots did
    /// against the (frozen) local communities, and the arcs read for it
    /// to the work.
    fn exchange_ghosts(&mut self, prev: Option<&IterationTrace>, track_e_in: bool) {
        let (comm, lg) = (self.ctx.comm, self.ctx.lg);
        let few_moved = prev.is_some_and(|t| t.moves.saturating_mul(4) < lg.num_global());
        let allow_delta = self.cfg.delta_ghost_refresh && few_moved;
        comm.with_step(CommStep::GhostRefresh, || {
            let snapshot = &mut self.scratch.comm_snapshot;
            snapshot.clear();
            snapshot.extend(self.state.comm.iter().map(|&c| self.index.global(c)));
            (self.ghosts).exchange(comm, snapshot, &mut self.ghost_global, allow_delta);
        });
        let arc_weights = track_e_in.then(|| lg.csr_parts().2);
        let (mut e_in_change, mut arcs) = (0.0, 0);
        self.index
            .translate(&self.ghost_global, &mut self.ghost_dense, |s, old, new| {
                let Some(arc_weights) = arc_weights else {
                    return;
                };
                let into = self.ghosts.arcs_into(s);
                arcs += into.len() as u64;
                for &(l, a) in into {
                    let c = self.state.comm[l as usize];
                    if c == new {
                        e_in_change += arc_weights[a as usize];
                    } else if c == old {
                        e_in_change -= arc_weights[a as usize];
                    }
                }
            });
        self.compute.edges_scanned += arcs;
        self.e_in += e_in_change;
    }

    /// Step 2, the `a_c` pull: key the remote communities of the active
    /// vertices and of their neighbours
    /// ([`PhaseState::key_remote_communities`]), then pull their weights
    /// and sizes from their owners. A rank that knows no remote community
    /// (always so on one rank) has nothing to find and skips the search.
    fn pull_remote_communities(&mut self) {
        // New remote communities enter only through the exchange, so the
        // tables are sized here.
        self.scratch.cover(self.index.num_dense());
        self.state.remote.cover(self.index.num_remote());
        self.state.remote.clear_keys();
        if self.index.num_remote() > 0 {
            self.compute.edges_scanned += self.key_remote_communities();
        }
        let (index, needed) = (&mut self.index, &mut self.scratch.needed);
        let SweepState {
            a, size, remote, ..
        } = &mut self.state;
        needed.clear();
        needed.extend(remote.keyed().iter().map(|&r| index.remote_global(r)));
        let first = self.ctx.lg.first_vertex();
        pull_from_owners(
            self.ctx.comm,
            self.ctx.lg.partition(),
            CommStep::CommunityPull,
            needed.iter().copied(),
            &mut self.scratch.pull,
            |c| {
                let i = (c - first) as usize;
                (a[i], size[i])
            },
            |c, info| {
                let d = index.dense(c);
                let r = index.remote_slot(d).expect("pulled an owned community");
                remote.set_pulled(r, info);
            },
        );
    }

    /// Step 2's key set: key in `state.remote` the remote communities of
    /// the active vertices and of their neighbours, and return the arcs
    /// read.
    ///
    /// It asks each target once, not each arc. An active local vertex
    /// keys its own community, and a local vertex or ghost slot whose
    /// community is owned or already keyed costs nothing. Arcs are stored
    /// in both directions, so any other target is some active vertex's
    /// neighbour exactly when an active local vertex is among its own
    /// arcs: a ghost slot's [`GhostLayer::arcs_into`], a local target's
    /// row. That scan stops at the first active one. The local vertices'
    /// scans wait in `scratch.deferred` until every active vertex and
    /// ghost slot has keyed what it can, so that fewer of them run
    /// (DESIGN.md §11, "Step 2 by target").
    fn key_remote_communities(&mut self) -> u64 {
        let (offsets, targets) = (self.ctx.lg.csr_parts().0, self.ghosts.targets());
        let (index, comm, remote) = (&self.index, &self.state.comm, &mut self.state.remote);
        let (active, deferred) = (&self.scratch.active, &mut self.scratch.deferred);
        let mut probes = 0u64;
        deferred.clear();
        for (t, &c) in comm.iter().enumerate() {
            let Some(r) = index.remote_slot(c) else {
                continue;
            };
            if active[t] {
                remote.key(r);
            } else if !remote.is_keyed(r) {
                // `t` < nlocal, which `CommunityIndex::new` bounds.
                deferred.push(t as u32);
            }
        }
        for (s, &c) in self.ghost_dense.iter().enumerate() {
            let Some(r) = index.remote_slot(c) else {
                continue;
            };
            let into = self.ghosts.arcs_into(s);
            if !remote.is_keyed(r) && any(into, |&(l, _)| active[l as usize], &mut probes) {
                remote.key(r);
            }
        }
        // A ghost target is not an active local vertex.
        let active_local = |&u: &u32| active.get(u as usize) == Some(&true);
        for &t in deferred.iter() {
            let t = t as usize;
            let r = index
                .remote_slot(comm[t])
                .expect("deferred for a remote community");
            let row = &targets[offsets[t]..offsets[t + 1]];
            if !remote.is_keyed(r) && any(row, active_local, &mut probes) {
                remote.key(r);
            }
        }
        probes
    }

    /// Step 3, the compute sweep (lines 6–9) over the active vertices in
    /// sweep order: colored batches, or in place on this thread (the
    /// seed's sequential sweep, which runs only at threads_per_rank ==
    /// 1). Returns this rank's moves.
    fn sweep(&mut self, iter: usize) -> u64 {
        let scratch = &mut self.scratch;
        scratch.sweep_vertices.clear();
        let active = &scratch.active;
        (scratch.sweep_vertices).extend(self.sweep_order.iter().copied().filter(|&l| active[l]));
        {
            let _sweep_span = louvain_obs::span!("sweep", iter = iter);
            let (offsets, _, arc_weights) = self.ctx.lg.csr_parts();
            let sweep = Sweep {
                offsets,
                arc_weights,
                targets: self.ghosts.targets(),
                ghosts: self.ghosts,
                ghost_comm: &self.ghost_dense,
                index: &self.index,
                k_local: &self.k_local,
                two_m: self.ctx.two_m,
            };
            if let Some(coloring) = &self.coloring {
                sweep.sweep_colored(&mut self.state, &self.pool, coloring, scratch, iter);
            } else {
                let worker = &mut lock_worker(&scratch.workers[0]);
                sweep.sweep_in_place(&mut self.state, &scratch.sweep_vertices, worker);
            }
            for worker in &scratch.workers {
                scratch.acc.absorb(&mut lock_worker(worker).acc);
            }
        }
        let acc = std::mem::take(&mut scratch.acc);
        self.compute.edges_scanned += acc.edges;
        self.compute.vertices_processed += acc.vertices;
        self.e_in += acc.e_in;
        acc.moves
    }

    /// Step 3b, the delta push (lines 10–11): the applied moves' changes
    /// to remote communities go to their owners, which fold each
    /// `(Δa_c, Δsize)` into their own.
    fn push_deltas(&mut self) {
        let (lg, index) = (self.ctx.lg, &self.index);
        let first = lg.first_vertex();
        let SweepState {
            a, size, remote, ..
        } = &mut self.state;
        push_to_owners(
            self.ctx.comm,
            lg.partition(),
            CommStep::DeltaPush,
            (remote.deltas()).map(|(r, da, ds)| (index.remote_global(r), da, ds)),
            &mut self.scratch.delta_msgs,
            |c, da, ds| {
                let i = (c - first) as usize;
                a[i] += da;
                size[i] = (size[i] as i64 + ds) as u64;
            },
        );
        remote.clear_deltas();
    }

    /// Step 4 (lines 12–13): the modularity of iteration `iter` from the
    /// tracked `Σ e_in`, and the global move count, by all-reduce. Debug
    /// builds and tests first hold the tracked `Σ e_in` to the
    /// from-scratch pass.
    fn reduce_modularity(&mut self, iter: usize, local_moves: u64) -> (f64, u64) {
        if cfg!(any(debug_assertions, test)) {
            // Bit for bit on integer weights (every partial sum exact).
            let (e_in, scratch) = (self.e_in, self.e_in_from_scratch());
            let integer_weights = self.ctx.lg.csr_parts().2.iter().all(|w| w.fract() == 0.0);
            let agree = if integer_weights {
                e_in.to_bits() == scratch.to_bits()
            } else {
                (e_in - scratch).abs() <= 1e-9 * scratch.abs().max(e_in.abs())
            };
            let at = format!("phase {}, iteration {iter}", self.phase);
            assert!(agree, "{at}: tracked Σe_in {e_in}, {scratch} from scratch");
        }
        let comm = self.ctx.comm;
        comm.with_step(CommStep::Reduction, || {
            (
                self.modularity(self.e_in),
                comm.all_reduce(local_moves, ReduceOp::Sum),
            )
        })
    }

    /// Global modularity (Eq. 2) from this rank's `Σ e_in` and the
    /// weights of its owned communities: two sum-reductions, to be called
    /// inside a `Reduction` step scope.
    fn modularity(&self, e_in_local: f64) -> f64 {
        let (comm, two_m) = (self.ctx.comm, self.ctx.two_m);
        let a2_local: f64 = self.state.a.iter().map(|a| a * a).sum();
        let e_in = comm.all_reduce(e_in_local, ReduceOp::Sum);
        let a2 = comm.all_reduce(a2_local, ReduceOp::Sum);
        if two_m > 0.0 {
            e_in / two_m - a2 / (two_m * two_m)
        } else {
            0.0
        }
    }

    /// ET bookkeeping: each vertex's move flag updates its activity, and
    /// under ETC the inactive vertices are counted over all ranks for the
    /// exit test. Returns that count (0 without ETC).
    fn update_et(&mut self) -> u64 {
        let Some(t) = &mut self.et else {
            return 0;
        };
        for (l, &m) in self.state.moved.iter().enumerate() {
            t.update(l, m);
        }
        if !self.cfg.variant.uses_etc_exit() {
            return 0;
        }
        let comm = self.ctx.comm;
        comm.with_step(CommStep::Reduction, || {
            comm.all_reduce(t.num_inactive() as u64, ReduceOp::Sum)
        })
    }

    /// ETC's exit rule: the paper's 90 % of all vertices are inactive
    /// after the iteration of `trace`.
    fn etc_exit(&self, trace: &IterationTrace) -> bool {
        const ETC_EXIT_FRACTION: f64 = 0.9;
        let n_global = self.ctx.lg.num_global() as f64;
        self.cfg.variant.uses_etc_exit() && trace.inactive as f64 >= ETC_EXIT_FRACTION * n_global
    }

    /// The exit test after the iteration of `trace`, `prev` being the one
    /// before it: ETC's rule, or no vertex moved, or Q gained at most τ.
    fn exit(&self, trace: &IterationTrace, prev: Option<&IterationTrace>, tau: f64) -> bool {
        let converged = prev.is_some_and(|p| trace.modularity - p.modularity <= tau);
        self.etc_exit(trace) || trace.moves == 0 || converged
    }

    /// End the phase: a final refresh so rebuild observes the final state
    /// of the ghosts, then modularity once more WITHOUT lag: the
    /// per-iteration values drive convergence exactly as in the paper
    /// (stale ghost state), but the reported phase modularity must be
    /// exact. This `Σ e_in` is recomputed from scratch, once a phase.
    fn finish(&mut self, traces: Vec<IterationTrace>) -> PhaseResult {
        self.exchange_ghosts(traces.last(), false);
        let comm_of_local = std::mem::take(&mut self.scratch.comm_snapshot);
        let e_in = self.e_in_from_scratch();
        let comm = self.ctx.comm;
        let modularity = comm.with_step(CommStep::Reduction, || self.modularity(e_in));

        // Memory gauges at phase end: buffer capacities are monotone
        // within a phase, so this samples the arena's and wire pools'
        // high-water marks (min/max land in the gauge stats across phases).
        if louvain_obs::enabled() {
            let bytes = self.scratch.approx_bytes() + self.state.remote.approx_bytes();
            louvain_obs::gauge_set("mem.scratch_bytes", bytes as f64);
            louvain_obs::gauge_set("mem.wire_bytes", self.ghosts.wire_bytes() as f64);
        }

        PhaseResult {
            etc_exit: traces.last().is_some_and(|t| self.etc_exit(t)),
            comm_of_local,
            ghost_comm: std::mem::take(&mut self.ghost_global),
            modularity,
            traces,
            compute: self.compute,
        }
    }

    /// This rank's `Σ e_in` (Eq. 2) from scratch: one pass over its arcs.
    fn e_in_from_scratch(&self) -> f64 {
        let (offsets, _, arc_weights) = self.ctx.lg.csr_parts();
        let (ghosts, comm) = (&*self.ghosts, &self.state.comm);
        let targets = ghosts.targets();
        let mut e_in_local = 0.0;
        for (l, &cv) in comm.iter().enumerate() {
            let row = offsets[l]..offsets[l + 1];
            for (&t, &w) in targets[row.clone()].iter().zip(&arc_weights[row]) {
                if ghosts.value_of(t, |i| comm[i], &self.ghost_dense) == cv {
                    e_in_local += w;
                }
            }
        }
        e_in_local
    }
}

/// Run the iteration loop of one phase with threshold `tau`: Algorithm
/// 3's iterations until the exit test ends the phase, at most
/// `cfg.max_iterations` of them. `ghosts` is taken mutably: each
/// exchange leaves its delta baseline there.
pub fn louvain_phase(
    ctx: &PhaseContext<'_>,
    ghosts: &mut GhostLayer,
    cfg: &DistConfig,
    phase_idx: usize,
    tau: f64,
) -> PhaseResult {
    let mut phase = PhaseState::new(ctx, ghosts, cfg, phase_idx);
    let traces = phase.iterations(tau);
    phase.finish(traces)
}

/// Some item of `items` is `hit`: read up to the first that is, and add
/// the items read to `probes`.
#[inline]
fn any<T>(items: &[T], hit: impl Fn(&T) -> bool, probes: &mut u64) -> bool {
    let found = items.iter().position(hit);
    *probes += found.map_or(items.len(), |i| i + 1) as u64;
    found.is_some()
}

/// `Σ e_in` after a phase's first exchange: every vertex alone and every
/// ghost at its own id leave the self-loops.
fn self_loop_weight(lg: &LocalGraph, ghosts: &GhostLayer) -> f64 {
    let (offsets, _, arc_weights) = lg.csr_parts();
    let targets = ghosts.targets();
    let self_loops = (0..lg.num_local())
        .flat_map(|l| (offsets[l]..offsets[l + 1]).filter(move |&a| targets[a] as usize == l));
    self_loops.fold(0.0, |e_in, a| e_in + arc_weights[a])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistConfig;
    use louvain_comm::run;
    use louvain_graph::community::modularity;
    use louvain_graph::{Csr, EdgeList, VertexPartition};

    fn two_triangles() -> Csr {
        Csr::from_edge_list(EdgeList::from_edges(
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
        ))
    }

    /// Run one phase on `p` ranks; return (global assignment, modularity).
    fn run_one_phase(g: &Csr, p: usize, cfg: &DistConfig) -> (Vec<VertexId>, f64) {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let two_m = g.two_m();
        let outs = run(p, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m,
            };
            let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
            (r.comm_of_local, r.modularity)
        });
        let mut assignment = Vec::new();
        let q = outs[0].1;
        for (a, q_r) in outs {
            assert!((q_r - q).abs() < 1e-12, "ranks disagree on modularity");
            assignment.extend(a);
        }
        (assignment, q)
    }

    #[test]
    fn single_rank_phase_finds_triangles() {
        let g = two_triangles();
        let (assignment, q) = run_one_phase(&g, 1, &DistConfig::baseline());
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_ne!(assignment[0], assignment[3]);
        assert!(q > 0.3);
    }

    #[test]
    fn distributed_phase_matches_reference_modularity() {
        let g = two_triangles();
        for p in [1, 2, 3] {
            let (assignment, q) = run_one_phase(&g, p, &DistConfig::baseline());
            let q_ref = modularity(&g, &assignment);
            assert!(
                (q - q_ref).abs() < 1e-9,
                "p={p}: reported {q} vs reference {q_ref}"
            );
        }
    }

    #[test]
    fn phase_on_lfr_improves_modularity_on_many_ranks() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 5)).graph;
        let (assignment, q) = run_one_phase(&g, 4, &DistConfig::baseline());
        assert!(q > 0.4, "q = {q}");
        assert_eq!(assignment.len(), 600);
        let q_ref = modularity(&g, &assignment);
        assert!((q - q_ref).abs() < 1e-9);
    }

    #[test]
    fn multithreaded_sweep_reaches_comparable_quality() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(1_000, 9)).graph;
        let base = run_one_phase(&g, 2, &DistConfig::baseline());
        let cfg = DistConfig {
            threads_per_rank: 4,
            ..DistConfig::baseline()
        };
        let threaded = run_one_phase(&g, 2, &cfg);
        // The colored schedule's trajectory differs from the sequential
        // one but not its quality ballpark; the reported Q must still be
        // exact for the returned assignment.
        assert!(
            threaded.1 > base.1 - 0.1,
            "threaded {} vs sequential {}",
            threaded.1,
            base.1
        );
        let q_ref = modularity(&g, &threaded.0);
        assert!((threaded.1 - q_ref).abs() < 1e-9);
    }

    #[test]
    fn delta_ghost_refresh_gives_identical_results() {
        // The delta refresh promises a *bit-identical* trajectory, so the
        // comparison is exact equality (not a tolerance) on three
        // generator families at 1, 2 and 8 ranks — including the p=1
        // degenerate case where there are no ghosts at all.
        let graphs = [
            louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 6)).graph,
            louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
                n: 500,
                max_clique_size: 12,
                inter_clique_prob: 0.05,
                seed: 7,
            })
            .graph,
            louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(9, 8, 11)).graph,
        ];
        let delta_cfg = DistConfig {
            delta_ghost_refresh: true,
            ..DistConfig::baseline()
        };
        for (gi, g) in graphs.iter().enumerate() {
            for p in [1, 2, 8] {
                let base = run_one_phase(g, p, &DistConfig::baseline());
                let delta = run_one_phase(g, p, &delta_cfg);
                assert_eq!(base.0, delta.0, "graph {gi}, p={p}: assignments differ");
                assert_eq!(base.1, delta.1, "graph {gi}, p={p}: modularity differs");
            }
        }
    }

    #[test]
    fn modularity_traces_are_deterministic_and_delta_invariant() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(500, 3)).graph;
        let part = VertexPartition::balanced_vertices(500, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let two_m = g.two_m();
        let run_traces = |cfg: &DistConfig| -> Vec<Vec<(f64, u64)>> {
            run(2, |c| {
                let lg = parts[c.rank()].clone();
                let mut ghosts = GhostLayer::build(c, &lg);
                let ctx = PhaseContext {
                    comm: c,
                    lg: &lg,
                    two_m,
                };
                let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
                r.traces.iter().map(|t| (t.modularity, t.moves)).collect()
            })
        };
        let base = run_traces(&DistConfig::baseline());
        let again = run_traces(&DistConfig::baseline());
        assert_eq!(
            base, again,
            "single-threaded sweeps must be bit-reproducible"
        );
        let delta_cfg = DistConfig {
            delta_ghost_refresh: true,
            ..DistConfig::baseline()
        };
        let delta = run_traces(&delta_cfg);
        assert_eq!(base, delta, "delta refresh must not perturb the trajectory");
    }

    #[test]
    fn etc_variant_terminates_and_reports_inactive() {
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 2,
        })
        .graph;
        let cfg = DistConfig::with_variant(crate::Variant::Etc { alpha: 0.75 });
        let part = VertexPartition::balanced_vertices(600, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let two_m = g.two_m();
        let outs = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m,
            };
            let r = louvain_phase(&ctx, &mut ghosts, &cfg, 0, cfg.threshold);
            (r.traces.len(), r.traces.last().unwrap().inactive)
        });
        // Both ranks agree on iteration count (bulk synchronous).
        assert_eq!(outs[0].0, outs[1].0);
    }

    fn parity_graphs() -> Vec<Csr> {
        vec![
            louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 6)).graph,
            louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
                n: 500,
                max_clique_size: 12,
                inter_clique_prob: 0.05,
                seed: 7,
            })
            .graph,
            louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(9, 8, 11)).graph,
        ]
    }

    /// `lg` with the arcs of every row reversed or shuffled in place.
    fn with_row_order(lg: &LocalGraph<'_>, order: &str) -> LocalGraph<'static> {
        let (offsets, dests, weights) = lg.csr_parts();
        let (mut d, mut w) = (dests.to_vec(), weights.to_vec());
        for l in 0..lg.num_local() {
            let row = offsets[l]..offsets[l + 1];
            let from: Vec<usize> = match order {
                "forward" => continue,
                "reversed" => row.clone().rev().collect(),
                "shuffled" => louvain_graph::hash::shuffled_order(row.len(), 0x5eed ^ l as u64)
                    .into_iter()
                    .map(|i| row.start + i)
                    .collect(),
                other => panic!("unknown row order {other}"),
            };
            for (to, from) in row.zip(from) {
                (d[to], w[to]) = (dests[from], weights[from]);
            }
        }
        LocalGraph::from_csr_parts(lg.partition().clone(), lg.rank(), offsets.to_vec(), d, w)
    }

    #[test]
    fn arc_order_within_a_row_never_changes_a_decision() {
        // What makes first-touch candidate order safe: on integer weights
        // two candidate scores are equal or at least 1/2m apart, so the
        // 1e-12 / smallest-id rule picks the same target whatever order
        // the candidates are met in. If every decision is the same, so is
        // the whole phase — asserted bit for bit, under both drivers.
        let graphs = [
            louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(3_000, 7)).graph,
            louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(11, 8, 5)).graph,
        ];
        let threaded = |sweep| DistConfig {
            sweep,
            threads_per_rank: 2,
            ..DistConfig::baseline()
        };
        for (gi, g) in graphs.iter().enumerate() {
            let cases = [
                ("sequential", g, vec![1, 2], DistConfig::baseline()),
                (
                    "colored",
                    g,
                    vec![1, 2],
                    threaded(crate::SweepMode::Colored),
                ),
            ];
            for (driver, g, ranks, cfg) in cases {
                for p in ranks {
                    let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
                    let parts = LocalGraph::scatter(g, &part);
                    let phase = |order: &str| {
                        run(p, |c| {
                            let lg = with_row_order(&parts[c.rank()], order);
                            let mut ghosts = GhostLayer::build(c, &lg);
                            let ctx = PhaseContext {
                                comm: c,
                                lg: &lg,
                                two_m: g.two_m(),
                            };
                            let r = louvain_phase(&ctx, &mut ghosts, &cfg, 0, cfg.threshold);
                            (r.comm_of_local, r.modularity.to_bits(), r.traces.len())
                        })
                    };
                    let forward = phase("forward");
                    for order in ["reversed", "shuffled"] {
                        assert_eq!(
                            forward,
                            phase(order),
                            "graph {gi}, {driver}, p={p}: {order}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_scores_chained_inside_the_tolerance_depend_on_candidate_order() {
        // Vertex 3 next to the singletons 0, 1, 2, all with the same a_c,
        // so its three scores differ by exactly the edge weights. Met as
        // 0, 1, 2, candidate 2 beats 0 outright; met as 2, 1, 0, each next
        // one ties with its predecessor and wins on the smaller id. "Within
        // 1e-12" is not transitive — that, and nothing else, is where the
        // order of the candidates can show.
        let decide = |w: [Weight; 3], order: [usize; 3]| -> Option<VertexId> {
            let part = VertexPartition::balanced_vertices(4, 1);
            let dests: Vec<u32> = [3, 3, 3]
                .into_iter()
                .chain(order.map(|i| i as u32))
                .collect();
            let weights: Vec<Weight> = w.into_iter().chain(order.map(|i| w[i])).collect();
            let lg = LocalGraph::from_csr_parts(part, 0, vec![0, 1, 2, 3, 6], dests, weights);
            run(1, |c| {
                let ghosts = GhostLayer::build(c, &lg);
                let index = CommunityIndex::new(&lg);
                let k_local: Vec<Weight> = (0..4).map(|l| lg.weighted_degree(l)).collect();
                let mut state = SweepState::new(&k_local);
                state.a[..3].fill(1.0);
                let (offsets, _, arc_weights) = lg.csr_parts();
                let sweep = Sweep {
                    offsets,
                    arc_weights,
                    targets: ghosts.targets(),
                    ghosts: &ghosts,
                    ghost_comm: &[],
                    index: &index,
                    k_local: &k_local,
                    two_m: lg.local_arc_weight(),
                };
                let mut table = DenseMap::default();
                table.cover(index.num_dense());
                let best = sweep.best_move(&state, 3, &mut table, &mut 0);
                assert!(table.is_clear());
                best.map(|(c, _)| index.global(c))
            })[0]
        };
        let chained = [1.0, 1.0 + 0.8e-12, 1.0 + 1.6e-12];
        assert_eq!(decide(chained, [0, 1, 2]), Some(2));
        assert_eq!(decide(chained, [2, 1, 0]), Some(0));
        // Integer weights: scores are equal (smallest id) or far apart
        // (largest score), in either order.
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            assert_eq!(decide([1.0, 1.0, 1.0], order), Some(0));
            assert_eq!(decide([1.0, 2.0, 1.0], order), Some(1));
        }
    }

    #[test]
    fn phase_boundary_invariants_hold_for_every_schedule() {
        // The oracle the pins cannot be: whatever trajectory a schedule
        // takes, what it hands to rebuild must be consistent.
        let threaded = |sweep| DistConfig {
            sweep,
            threads_per_rank: 2,
            ..DistConfig::baseline()
        };
        let schedules = [
            ("sequential", DistConfig::baseline()),
            ("colored", threaded(crate::SweepMode::Colored)),
        ];
        for (gi, g) in parity_graphs().iter().enumerate() {
            let n = g.num_vertices();
            let two_m = g.two_m();
            for p in [1, 2, 3] {
                for (name, cfg) in &schedules {
                    let at = format!("graph {gi}, p={p}, {name}");
                    let part = VertexPartition::balanced_vertices(n as u64, p);
                    let parts = LocalGraph::scatter(g, &part);
                    let outs = run(p, |c| {
                        let lg = parts[c.rank()].clone();
                        let mut ghosts = GhostLayer::build(c, &lg);
                        let ctx = PhaseContext {
                            comm: c,
                            lg: &lg,
                            two_m,
                        };
                        // `louvain_phase`, keeping the tracked owned a_c
                        // and sizes it drops.
                        let mut phase = PhaseState::new(&ctx, &mut ghosts, cfg, 0);
                        let traces = phase.iterations(cfg.threshold);
                        let r = phase.finish(traces);
                        let owned = (phase.state.a, phase.state.size);
                        let ghost_ids: Vec<VertexId> =
                            ghosts.requests().iter().flatten().copied().collect();
                        let coarse = crate::rebuild::rebuild(
                            c,
                            &lg,
                            &ghosts,
                            &r.comm_of_local,
                            &r.ghost_comm,
                        );
                        (r, owned, ghost_ids, coarse.new_lg)
                    });
                    let assignment: Vec<VertexId> =
                        (outs.iter().flat_map(|o| o.0.comm_of_local.iter().copied())).collect();
                    // The incrementally tracked a_c and sizes are the ones
                    // recomputed from the final assignment.
                    let mut a = vec![0.0; n];
                    let mut size = vec![0u64; n];
                    for (v, &c) in assignment.iter().enumerate() {
                        a[c as usize] += g.weighted_degree(v as u64);
                        size[c as usize] += 1;
                    }
                    let owned_a: Vec<Weight> =
                        outs.iter().flat_map(|o| o.1 .0.iter().copied()).collect();
                    let owned_size: Vec<u64> =
                        (outs.iter().flat_map(|o| o.1 .1.iter().copied())).collect();
                    assert_eq!(owned_size, size, "{at}: community sizes");
                    assert_eq!(owned_size.iter().sum::<u64>(), n as u64, "{at}");
                    for (c, (got, want)) in owned_a.iter().zip(&a).enumerate() {
                        assert!((got - want).abs() < 1e-9, "{at}: a[{c}] {got} vs {want}");
                    }
                    assert!((owned_a.iter().sum::<f64>() - two_m).abs() < 1e-9, "{at}");
                    // Every ghost slot holds its owner's final value.
                    for (r, _, ghost_ids, _) in &outs {
                        assert_eq!(r.ghost_comm.len(), ghost_ids.len(), "{at}");
                        for (&c, &v) in r.ghost_comm.iter().zip(ghost_ids) {
                            assert_eq!(c, assignment[v as usize], "{at}: ghost {v}");
                        }
                    }
                    // Reported Q is Q from scratch, and rebuild keeps it.
                    let q = outs[0].0.modularity;
                    assert!((q - modularity(g, &assignment)).abs() < 1e-9, "{at}");
                    let pieces: Vec<LocalGraph> = outs.into_iter().map(|o| o.3).collect();
                    let coarse = LocalGraph::assemble(&pieces);
                    assert!((coarse.two_m() - two_m).abs() < 1e-9, "{at}: arc weight");
                    let singletons =
                        louvain_graph::community::singleton_assignment(coarse.num_vertices());
                    assert!((modularity(&coarse, &singletons) - q).abs() < 1e-9, "{at}");
                }
            }
        }
    }

    #[test]
    fn colored_schedule_is_bit_identical_across_thread_counts() {
        // The tentpole determinism claim: for a fixed coloring (the
        // coloring seed never depends on the thread count), the colored
        // schedule produces byte-identical assignments and bit-identical
        // modularity at threads ∈ {1, 2, 4}, across {1, 2, 8} ranks and
        // all three bench generator families.
        for (gi, g) in parity_graphs().iter().enumerate() {
            for p in [1, 2, 8] {
                let runs: Vec<(Vec<VertexId>, f64)> = [1usize, 2, 4]
                    .iter()
                    .map(|&t| {
                        let cfg = DistConfig {
                            sweep: crate::SweepMode::Colored,
                            threads_per_rank: t,
                            ..DistConfig::baseline()
                        };
                        run_one_phase(g, p, &cfg)
                    })
                    .collect();
                for (i, r) in runs.iter().enumerate().skip(1) {
                    assert_eq!(
                        runs[0].0,
                        r.0,
                        "graph {gi}, p={p}: threads=1 vs threads={} assignments differ",
                        [1, 2, 4][i]
                    );
                    assert_eq!(
                        runs[0].1.to_bits(),
                        r.1.to_bits(),
                        "graph {gi}, p={p}: modularity differs"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_mode_keeps_seed_behavior_on_one_thread() {
        // Auto at threads=1 is the seed's sequential sweep, which `PINS`
        // in tests/parity.rs holds bit for bit; Auto at threads>1 must
        // equal Colored at the same thread count (same coloring, same
        // frozen-batch schedule).
        let g = parity_graphs().remove(0);
        for p in [1, 3] {
            let auto4 = run_one_phase(
                &g,
                p,
                &DistConfig {
                    threads_per_rank: 4,
                    ..DistConfig::baseline()
                },
            );
            let colored4 = run_one_phase(
                &g,
                p,
                &DistConfig {
                    sweep: crate::SweepMode::Colored,
                    threads_per_rank: 4,
                    ..DistConfig::baseline()
                },
            );
            assert_eq!(auto4.0, colored4.0, "p={p}");
            assert_eq!(auto4.1.to_bits(), colored4.1.to_bits(), "p={p}");
        }
    }

    #[test]
    fn colored_schedule_quality_parity_with_sequential() {
        // Quality parity across {1, 2, 8} ranks × 3 generators: the
        // colored frozen-batch trajectory differs from the sequential one
        // (Jacobi- vs Gauss-Seidel-style updates within a batch), but the
        // final modularity stays within the documented tolerance, and the
        // reported value is exact for the reported assignment.
        for (gi, g) in parity_graphs().iter().enumerate() {
            for p in [1, 2, 8] {
                let base = run_one_phase(g, p, &DistConfig::baseline());
                let colored = run_one_phase(
                    g,
                    p,
                    &DistConfig {
                        sweep: crate::SweepMode::Colored,
                        threads_per_rank: 4,
                        ..DistConfig::baseline()
                    },
                );
                assert!(
                    colored.1 > base.1 - 0.1,
                    "graph {gi}, p={p}: colored {} vs sequential {}",
                    colored.1,
                    base.1
                );
                let q_ref = modularity(g, &colored.0);
                assert!((colored.1 - q_ref).abs() < 1e-9, "graph {gi}, p={p}");
            }
        }
    }

    #[test]
    fn colored_schedule_composes_with_et() {
        // Thread-count bit-identity must survive composition with the ET
        // activity filter (settled vertices skipped per batch).
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 3,
        })
        .graph;
        let at = |threads_per_rank| {
            run_one_phase(
                &g,
                2,
                &DistConfig {
                    sweep: crate::SweepMode::Colored,
                    threads_per_rank,
                    ..DistConfig::with_variant(crate::Variant::Et { alpha: 0.25 })
                },
            )
        };
        let (t1, t4) = (at(1), at(4));
        assert_eq!(t1.0, t4.0);
        assert_eq!(t1.1.to_bits(), t4.1.to_bits());
    }

    /// `g` with every weight replaced by a random `f64` in [0.001, 3.001).
    fn with_random_weights(g: &Csr, seed: u64) -> Csr {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut el = EdgeList::new(g.num_vertices() as u64);
        for e in g.to_edge_list().edges() {
            el.push(e.u, e.v, rng.random::<f64>() * 3.0 + 1e-3);
        }
        Csr::from_edge_list(el)
    }

    /// One phase on `p` ranks: the global assignment and rank 0's traces.
    fn phase_traces(g: &Csr, p: usize, cfg: &DistConfig) -> (Vec<VertexId>, Vec<IterationTrace>) {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let outs = run(p, |c| {
            let lg = &parts[c.rank()];
            let mut ghosts = GhostLayer::build(c, lg);
            let ctx = PhaseContext {
                comm: c,
                lg,
                two_m: g.two_m(),
            };
            let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
            (r.comm_of_local, r.traces)
        });
        let traces = outs[0].1.clone();
        (outs.into_iter().flat_map(|o| o.0).collect(), traces)
    }

    #[test]
    fn tracked_e_in_matches_from_scratch_every_iteration() {
        // `louvain_phase` checks its tracked Σe_in against the
        // from-scratch pass at every iteration in debug builds and in
        // these tests (`assert_tracked_e_in`): bit for bit on the
        // integer-weight generators, within 1e-9 relative on random f64
        // weights. Both schedules, none exempt, at p ∈ {1, 2, 3}, with and
        // without ET and the delta refresh, which change which vertices
        // move and which ghost slots are refreshed.
        let mut graphs = parity_graphs();
        graphs.push(with_random_weights(&graphs[0], 41));
        let colored = |threads_per_rank| DistConfig {
            sweep: crate::SweepMode::Colored,
            threads_per_rank,
            ..DistConfig::baseline()
        };
        let schedules = [
            ("sequential", DistConfig::baseline()),
            ("colored t=1", colored(1)),
            ("colored t=2", colored(2)),
        ];
        let extensions = |base: &DistConfig| {
            [
                ("baseline", base.clone()),
                (
                    "ET(0.25) + delta refresh",
                    DistConfig {
                        variant: crate::Variant::Et { alpha: 0.25 },
                        delta_ghost_refresh: true,
                        ..base.clone()
                    },
                ),
            ]
        };
        for (gi, g) in graphs.iter().enumerate() {
            for (schedule, base) in &schedules {
                for (extension, cfg) in extensions(base) {
                    for p in [2, 3] {
                        phase_traces(g, p, &cfg);
                    }
                    // One rank sees no lag: iteration k's Q is the Q of
                    // the assignment it leaves, from scratch.
                    let iterations = phase_traces(g, 1, &cfg).1.len();
                    for k in 1..=iterations {
                        let capped = DistConfig {
                            max_iterations: k,
                            ..cfg.clone()
                        };
                        let (assignment, traces) = phase_traces(g, 1, &capped);
                        let q = traces[k - 1].modularity;
                        let q_ref = modularity(g, &assignment);
                        assert!(
                            (q - q_ref).abs() <= 1e-12,
                            "graph {gi}, {schedule}, {extension}, iteration {k}: {q} vs {q_ref}"
                        );
                    }
                }
            }
        }
    }

    /// `g` with a self-loop on every seventh vertex and `extra` isolated
    /// vertices after the last.
    fn with_loops_and_isolated(g: &Csr, extra: u64) -> Csr {
        let n = g.num_vertices() as u64;
        let mut el = EdgeList::new(n + extra);
        for e in g.to_edge_list().edges() {
            el.push(e.u, e.v, e.w);
        }
        for v in (0..n).step_by(7) {
            el.push(v, v, 2.0);
        }
        Csr::from_edge_list(el)
    }

    /// Step 2's key set as a walk over every arc of every active row
    /// computes it, as sorted remote slots: the reference
    /// `key_remote_communities` must equal.
    fn arc_walk_keys(phase: &PhaseState) -> Vec<u32> {
        let (offsets, ghosts) = (phase.ctx.lg.csr_parts().0, &*phase.ghosts);
        let (comm, ghost_comm) = (&phase.state.comm, &phase.ghost_dense);
        let (active, targets) = (&phase.scratch.active, ghosts.targets());
        let mut keys = Vec::new();
        for l in (0..active.len()).filter(|&l| active[l]) {
            let row = targets[offsets[l]..offsets[l + 1]].iter();
            let comms = row.map(|&t| ghosts.value_of(t, |i| comm[i], ghost_comm));
            let all = std::iter::once(comm[l]).chain(comms);
            keys.extend(all.filter_map(|c| phase.index.remote_slot(c)));
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Key `phase`'s Step 2 set on its communities under each of
    /// `masks`, reusing one table, and hold it to the arc walk: each of
    /// its slots keyed once, no other.
    fn check_keys_under_masks(phase: &mut PhaseState, masks: Vec<Vec<bool>>, at: &str) {
        phase.state.remote = RemoteTable::default();
        phase.state.remote.cover(phase.index.num_remote());
        let arcs = phase.ghosts.targets().len() as u64;
        for (mi, active) in masks.into_iter().enumerate() {
            phase.scratch.active = active;
            phase.state.remote.clear_keys();
            let probes = phase.key_remote_communities();
            // Each row and each slot's arcs are read at most once.
            assert!(probes <= 2 * arcs, "{at}, mask {mi}");
            let mut got = phase.state.remote.keyed().to_vec();
            got.sort_unstable();
            let keyed = got.len();
            got.dedup();
            assert_eq!(got.len(), keyed, "{at}, mask {mi}: a slot keyed twice");
            let want = arc_walk_keys(phase);
            assert_eq!(got, want, "{at}, mask {mi}: Step 2's key set");
        }
    }

    /// All, none, one vertex, and two random densities.
    fn masks(nlocal: usize, rng: &mut rand::rngs::SmallRng) -> Vec<Vec<bool>> {
        use rand::Rng;
        let one = rng.random_range(0..nlocal.max(1));
        let mut masks = vec![
            vec![true; nlocal],
            vec![false; nlocal],
            (0..nlocal).map(|l| l == one).collect(),
        ];
        for density in [0.1, rng.random::<f64>()] {
            masks.push((0..nlocal).map(|_| rng.random::<f64>() < density).collect());
        }
        masks
    }

    #[test]
    fn step_two_keys_by_target_equal_the_arc_walk() {
        // Seeded random states: every community is any vertex id (owned
        // here or not) or one of a few shared ones, so slots repeat, on
        // graphs with self-loops and isolated vertices.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for (gi, g) in parity_graphs().iter().enumerate() {
            let g = with_loops_and_isolated(g, 9);
            let n = g.num_vertices() as u64;
            for p in [2, 3, 8] {
                let part = VertexPartition::balanced_vertices(n, p);
                let parts = LocalGraph::scatter(&g, &part);
                run(p, |c| {
                    let lg = &parts[c.rank()];
                    let mut ghosts = GhostLayer::build(c, lg);
                    let num_ghosts = ghosts.num_ghosts();
                    let (cfg, two_m) = (DistConfig::baseline(), g.two_m());
                    let ctx = PhaseContext { comm: c, lg, two_m };
                    let mut phase = PhaseState::new(&ctx, &mut ghosts, &cfg, 0);
                    let seed = (gi * 64 + p * 8 + c.rank()) as u64;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for trial in 0..6 {
                        let mut index = CommunityIndex::new(lg);
                        let mut pick = |rng: &mut SmallRng| match rng.random_range(0..3u32) {
                            0 => index.dense(rng.random_range(0..4u64)),
                            _ => index.dense(rng.random_range(0..n)),
                        };
                        phase.state.comm = (0..lg.num_local()).map(|_| pick(&mut rng)).collect();
                        phase.ghost_dense = (0..num_ghosts).map(|_| pick(&mut rng)).collect();
                        phase.index = index;
                        check_keys_under_masks(
                            &mut phase,
                            masks(lg.num_local(), &mut rng),
                            &format!("graph {gi}, p={p}, rank {}, trial {trial}", c.rank()),
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn step_two_keys_equal_the_arc_walk_on_the_states_runs_leave() {
        // The state a real phase leaves: 20 iterations of ET(0.75) with
        // the delta refresh, by which a vertex that stays put three times
        // is frozen and its ghost slots are no longer sent.
        use rand::{rngs::SmallRng, SeedableRng};
        let cfg = DistConfig {
            delta_ghost_refresh: true,
            max_iterations: 20,
            ..DistConfig::with_variant(crate::Variant::Et { alpha: 0.75 })
        };
        for (gi, g) in parity_graphs().iter().enumerate() {
            let g = with_loops_and_isolated(g, 5);
            for p in [2, 3, 8] {
                let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
                let parts = LocalGraph::scatter(&g, &part);
                run(p, |c| {
                    let lg = &parts[c.rank()];
                    let mut ghosts = GhostLayer::build(c, lg);
                    let ctx = PhaseContext {
                        comm: c,
                        lg,
                        two_m: g.two_m(),
                    };
                    let r = louvain_phase(&ctx, &mut ghosts, &cfg, 0, 0.0);
                    let mut phase = PhaseState::new(&ctx, &mut ghosts, &cfg, 0);
                    let index = &mut phase.index;
                    phase.state.comm = r.comm_of_local.iter().map(|&c| index.dense(c)).collect();
                    phase.ghost_dense = r.ghost_comm.iter().map(|&c| index.dense(c)).collect();
                    let mut rng = SmallRng::seed_from_u64((gi * 64 + p) as u64);
                    check_keys_under_masks(
                        &mut phase,
                        masks(lg.num_local(), &mut rng),
                        &format!("graph {gi}, p={p}, rank {}", c.rank()),
                    );
                });
            }
        }
    }

    /// Iteration 1 of a phase at p=2 up to the sweep (exchange, Step 2
    /// and its pull), then a colored sweep on `threads` in vertex order,
    /// with `bias` first added to every remote slot's `a_c` as an applied
    /// delta. Per rank: the communities and the deltas the push would
    /// send.
    #[allow(clippy::type_complexity)]
    fn colored_sweep_at_p2(
        g: &Csr,
        threads: usize,
        bias: Weight,
    ) -> Vec<(Vec<u32>, Vec<(u32, u64, i64)>)> {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, 2);
        let parts = LocalGraph::scatter(g, &part);
        let cfg = DistConfig {
            sweep: crate::SweepMode::Colored,
            threads_per_rank: threads,
            seed: 0,
            ..DistConfig::baseline()
        };
        run(2, |c| {
            let lg = &parts[c.rank()];
            let mut ghosts = GhostLayer::build(c, lg);
            let ctx = PhaseContext {
                comm: c,
                lg,
                two_m: g.two_m(),
            };
            let mut phase = PhaseState::new(&ctx, &mut ghosts, &cfg, 0);
            phase.sweep_order = (0..lg.num_local()).collect();
            phase.scratch.active = vec![true; lg.num_local()];
            phase.exchange_ghosts(None, false);
            phase.pull_remote_communities();
            for r in 0..phase.index.num_remote() as u32 {
                phase.state.remote.apply(r, bias, 0);
            }
            phase.sweep(1);
            let state = &phase.state;
            let deltas = (state.remote.deltas()).map(|(r, da, ds)| (r, da.to_bits(), ds));
            (state.comm.clone(), deltas.collect())
        })
    }

    #[test]
    fn colored_remote_view_is_bit_identical_across_thread_counts() {
        // At p=2 a colored sweep scores remote candidates through the
        // table's view: the pull plus the applied deltas, which here
        // start with a bias on every remote slot and grow with every
        // batch's applies. The view is reached (the bias changes
        // decisions), and t=2, deciding on two threads against the
        // frozen view, equals t=1 bit for bit.
        for (gi, g) in parity_graphs().iter().enumerate() {
            let plain = colored_sweep_at_p2(g, 1, 0.0);
            let biased = colored_sweep_at_p2(g, 1, g.two_m());
            let moves = |run: &[(Vec<u32>, _)]| run.iter().map(|r| r.0.clone()).collect::<Vec<_>>();
            let reached = moves(&plain) != moves(&biased);
            assert!(reached, "graph {gi}: the remote view was not reached");
            assert_eq!(
                biased,
                colored_sweep_at_p2(g, 2, g.two_m()),
                "graph {gi}: t=1 vs t=2"
            );
            assert_eq!(
                plain,
                colored_sweep_at_p2(g, 2, 0.0),
                "graph {gi}: t=1 vs t=2"
            );
        }
    }

    #[test]
    fn work_and_traffic_of_every_step_are_counted() {
        let g = two_triangles();
        let part = VertexPartition::balanced_vertices(6, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let outs = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m: g.two_m(),
            };
            let before = c.stats().snapshot();
            let r = louvain_phase(&ctx, &mut ghosts, &DistConfig::baseline(), 0, 1e-6);
            (r.compute, c.stats().snapshot().since(&before))
        });
        for (w, traffic) in outs {
            assert!(w.edges_scanned > 0);
            assert!(w.vertices_processed > 0);
            assert!(traffic.step_messages_for(CommStep::GhostRefresh) > 0);
            assert!(traffic.step_messages_for(CommStep::Reduction) > 0);
        }
    }
}
