//! The Louvain iterations of one phase (Algorithm 3).
//!
//! Each iteration performs the paper's four communication steps:
//!
//! 1. owners push the latest community of every ghosted vertex
//!    (lines 4–5),
//! 2. ranks pull the weights `a_c` (and sizes) of remote communities
//!    their vertices might join (the "ghost community" information),
//! 3. after the local compute step (lines 6–9), weight deltas for
//!    remotely-owned communities are pushed to their owners
//!    (lines 10–11),
//! 4. modularity is computed with global reductions (lines 12–13).
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

use std::sync::Mutex;

use grappolo::EtState;
use rayon::WorkerPool;

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
    /// Weight `a_c` of every *owned* community (indexed by `c - first`).
    pub owned_a: Vec<Weight>,
    /// Member count of every owned community, same indexing.
    pub owned_size: Vec<u64>,
    pub modularity: f64,
    pub iterations: usize,
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

/// Owner side of the delta push: fold a peer's `(Δa_c, Δsize)` into
/// owned community `i` of the weights `a` and sizes `size`.
fn absorb(a: &mut [Weight], size: &mut [u64], i: usize, da: Weight, ds: i64) {
    a[i] += da;
    size[i] = (size[i] as i64 + ds) as u64;
}

/// The ghost vertices' communities, one per ghost slot: as refreshed
/// (global ids — the wire's and rebuild's view) and as the sweep reads
/// them (dense).
#[derive(Default)]
struct GhostComms {
    global: Vec<VertexId>,
    dense: Vec<u32>,
}

/// One ghost community exchange (Step 1): snapshot the local
/// communities into the scratch arena, let the layer refresh the ghost
/// communities from the owners' snapshots, and renumber the slots that
/// changed. `allow_delta` must be uniform across ranks (see
/// [`GhostLayer::exchange`]).
///
/// Given the arc weights, also returns what the changed slots did to
/// this rank's `Σ e_in` against the (frozen) local communities, and the
/// arcs read for it.
#[allow(clippy::too_many_arguments)]
fn exchange_ghosts(
    comm: &Comm,
    ghosts: &mut GhostLayer,
    index: &mut CommunityIndex,
    state: &SweepState,
    scratch: &mut IterScratch,
    ghost_comm: &mut GhostComms,
    allow_delta: bool,
    track_e_in: Option<&[Weight]>,
) -> (Weight, u64) {
    comm.with_step(CommStep::GhostRefresh, || {
        scratch.comm_snapshot.clear();
        scratch
            .comm_snapshot
            .extend(state.comm.iter().map(|&c| index.global(c)));
        ghosts.exchange(
            comm,
            &scratch.comm_snapshot,
            &mut ghost_comm.global,
            allow_delta,
        );
    });
    let (mut e_in_change, mut arcs) = (0.0, 0);
    index.translate(&ghost_comm.global, &mut ghost_comm.dense, |s, old, new| {
        let Some(arc_weights) = track_e_in else {
            return;
        };
        let into = ghosts.arcs_into(s);
        arcs += into.len() as u64;
        for &(l, a) in into {
            let c = state.comm[l as usize];
            if c == new {
                e_in_change += arc_weights[a as usize];
            } else if c == old {
                e_in_change -= arc_weights[a as usize];
            }
        }
    });
    (e_in_change, arcs)
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

    /// Driver of the colored deterministic schedule over `vertices`.
    ///
    /// Vertices are grouped into conflict-free batches by color class (the
    /// distance-1 coloring guarantees no two batch members are adjacent,
    /// so no decision can read a community membership another batch member
    /// is about to change). Each batch's moves are *decided* in parallel
    /// by the worker pool against the frozen batch-start state — with the
    /// remote deltas of *previous* batches, read-only — then *applied*
    /// sequentially in batch order on the calling thread into `acc`. A
    /// decision is a function of the vertex and the frozen state alone
    /// (each worker's table is clear between vertices), and the workers'
    /// moves are applied in worker order, which is range order, so the
    /// applied sequence is a function of the coloring alone — results at
    /// any `threads_per_rank` are bit-identical for a fixed coloring (and
    /// the coloring seed never depends on the thread count). The pool's
    /// decisions share-borrow `state` and the applies after it returns
    /// borrow it mutably, so the frozen-batch rule is the borrow
    /// checker's. The parity argument is spelled out in DESIGN.md §11.
    /// The same independence keeps the `Σ e_in` change a decision
    /// carries exact when applied.
    #[allow(clippy::too_many_arguments)]
    fn sweep_colored(
        &self,
        state: &mut SweepState,
        pool: &WorkerPool,
        coloring: &(Vec<u32>, u32),
        vertices: &[usize],
        workers: &[Mutex<SweepWorker>],
        batches: &mut Vec<Vec<usize>>,
        acc: &mut SweepAcc,
        iter: usize,
    ) {
        let (color, nc) = coloring;
        let nc = *nc as usize;
        if batches.len() < nc {
            batches.resize_with(nc, Vec::new);
        }
        for b in batches.iter_mut() {
            b.clear();
        }
        // `vertices` is already in sweep order, so each batch inherits the
        // deterministic order of its members.
        for &l in vertices {
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
            for worker in workers {
                for (l, c, e_in_change) in lock_worker(worker).moves.drain(..) {
                    self.apply_move(state, l as usize, (c, e_in_change), acc);
                    batch_moves += 1;
                }
            }
            batch_span.arg("moves", batch_moves);
        }
    }
}

/// Global modularity (Eq. 2) from this rank's `Σ e_in` and the weights
/// `a` of its owned communities: two sum-reductions, to be called inside
/// a `Reduction` step scope.
fn reduce_modularity(comm: &Comm, e_in_local: f64, a: &[Weight], two_m: f64) -> f64 {
    let a2_local: f64 = a.iter().map(|a| a * a).sum();
    let e_in = comm.all_reduce(e_in_local, ReduceOp::Sum);
    let a2 = comm.all_reduce(a2_local, ReduceOp::Sum);
    if two_m > 0.0 {
        e_in / two_m - a2 / (two_m * two_m)
    } else {
        0.0
    }
}

/// Run the iteration loop of one phase with threshold `tau`.
/// `ghosts` is taken mutably: each exchange leaves its delta baseline
/// there.
pub fn louvain_phase(
    ctx: &PhaseContext<'_>,
    ghosts: &mut GhostLayer,
    cfg: &DistConfig,
    phase_idx: usize,
    tau: f64,
) -> PhaseResult {
    let comm = ctx.comm;
    let lg = ctx.lg;
    let part = lg.partition();
    let nlocal = lg.num_local();
    let first = lg.first_vertex();
    let n_global = lg.num_global();
    let threads = cfg.threads_per_rank.max(1);
    // Hoisted copy: the parallel sweep closure must not capture `ctx`
    // (it holds the non-Sync communicator).
    let two_m = ctx.two_m;
    let (offsets, _, arc_weights) = lg.csr_parts();

    let k_local: Vec<Weight> = (0..nlocal).map(|l| lg.weighted_degree(l)).collect();
    let mut index = CommunityIndex::new(lg);
    let mut state = SweepState::new(&k_local);
    let mut ghost_comm = GhostComms::default();

    // Early termination (Section IV-B(b)): coins keyed by global id, so a
    // vertex flips the same coin on whichever rank hosts it.
    let mut et: Option<EtState> = cfg
        .variant
        .alpha()
        .map(|alpha| EtState::with_offset(nlocal, first, alpha, cfg.seed));
    let sweep_order = louvain_graph::hash::shuffled_order(
        nlocal,
        cfg.seed ^ (phase_idx as u64).wrapping_mul(0x9e37) ^ first,
    );

    let mut compute = WorkCounter::default();

    // Distance-1 coloring, present exactly when the colored
    // deterministic batch schedule runs. Computed once per phase with a
    // thread-count-independent seed, so the coloring — and with it every
    // colored-schedule trajectory — is fixed across `threads_per_rank`
    // settings.
    let colored_batches = cfg.sweep == SweepMode::Colored || threads > 1;
    let coloring: Option<(Vec<u32>, u32)> = colored_batches.then(|| {
        let res = distributed_coloring(comm, lg, ghosts, cfg.seed ^ 0xC0105);
        louvain_obs::counter_add("sweep.colors", res.1 as u64);
        res
    });
    // The colored schedule dispatches each color batch through one pool
    // kept alive for the whole phase; at one thread it spawns nothing and
    // runs inline. Worker `w` owns `scratch.workers[w]`.
    let pool = WorkerPool::new(threads);

    // Per-phase scratch arena: every buffer of the four-step loop is
    // allocated once here and recycled across iterations.
    let mut scratch = IterScratch::new(nlocal, threads);
    // Delta-refresh policy input: fewer than a quarter of the global
    // vertices moved in the previous iteration. The move count is
    // all-reduced, so every rank picks the same refresh flavour each
    // time.
    let mut few_moved = false;

    // This rank's Σ e_in (module doc).
    let mut e_in = self_loop_weight(lg, ghosts);
    let check_e_in = cfg!(any(debug_assertions, test));
    let integer_weights = check_e_in && arc_weights.iter().all(|w| w.fract() == 0.0);

    let mut traces: Vec<IterationTrace> = Vec::new();
    let mut prev_q = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut etc_exit = false;

    // A collector is listening (tracing, a progress sink, or both).
    let observed = louvain_obs::observing();
    while iterations < cfg.max_iterations {
        iterations += 1;
        let mut iter_span = louvain_obs::span!("iteration", phase = phase_idx, iter = iterations);
        let edges_at_iter_start = compute.edges_scanned;
        // Telemetry baseline for this iteration's ghost-traffic delta,
        // behind the same gate as the record below.
        let ghost_bytes_at_start = if observed {
            comm.stats()
                .snapshot()
                .step_bytes_for(CommStep::GhostRefresh)
        } else {
            0
        };
        scratch.active.clear();
        scratch.active.extend((0..nlocal).map(|l| match &et {
            Some(t) => t.is_active(phase_idx, iterations, l),
            None => true,
        }));
        state.moved.fill(false);
        // -- Step 1: receive the latest ghost vertex communities. ---------
        let (ghost_e_in_change, arcs) = exchange_ghosts(
            comm,
            ghosts,
            &mut index,
            &state,
            &mut scratch,
            &mut ghost_comm,
            cfg.delta_ghost_refresh && few_moved,
            Some(arc_weights),
        );
        compute.edges_scanned += arcs;
        e_in += ghost_e_in_change;
        // New remote communities enter only through the exchange, so the
        // tables are sized here.
        scratch.cover(index.num_dense());
        state.remote.cover(index.num_remote());
        let targets = ghosts.targets();

        // -- Step 2: pull a_c for remote communities we may join. ----------
        // The communities of the active vertices and of their neighbours.
        // A rank that knows no remote community (always so on one rank)
        // has nothing to find and skips the search.
        state.remote.clear_keys();
        if index.num_remote() > 0 {
            compute.edges_scanned += key_remote_communities(
                offsets,
                targets,
                ghosts,
                &index,
                &state.comm,
                &ghost_comm.dense,
                &scratch.active,
                &mut state.remote,
                &mut scratch.deferred,
            );
        }
        scratch.needed.clear();
        (scratch.needed).extend(state.remote.keyed().iter().map(|&r| index.remote_global(r)));
        {
            let SweepState {
                a, size, remote, ..
            } = &mut state;
            pull_from_owners(
                comm,
                part,
                CommStep::CommunityPull,
                scratch.needed.iter().copied(),
                &mut scratch.pull,
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

        // -- Step 3: the compute sweep (lines 6–9). ------------------------
        // Colored batches, or in place over the active vertices in sweep
        // order on this thread (the seed's sequential sweep, which runs
        // only at threads_per_rank == 1).
        scratch.sweep_vertices.clear();
        {
            let active = &scratch.active;
            (scratch.sweep_vertices).extend(sweep_order.iter().copied().filter(|&l| active[l]));
        }
        {
            let _sweep_span = louvain_obs::span!("sweep", iter = iterations);
            let IterScratch {
                sweep_vertices,
                batches,
                workers,
                acc,
                ..
            } = &mut scratch;
            let sweep = Sweep {
                offsets,
                arc_weights,
                targets,
                ghosts: &*ghosts,
                ghost_comm: &ghost_comm.dense,
                index: &index,
                k_local: &k_local,
                two_m,
            };
            if let Some(coloring) = &coloring {
                sweep.sweep_colored(
                    &mut state,
                    &pool,
                    coloring,
                    sweep_vertices,
                    workers,
                    batches,
                    acc,
                    iterations,
                );
            } else {
                sweep.sweep_in_place(&mut state, sweep_vertices, &mut lock_worker(&workers[0]));
            }
            for worker in workers.iter() {
                acc.absorb(&mut lock_worker(worker).acc);
            }
        }
        let acc = &mut scratch.acc;
        let local_moves = acc.moves;
        compute.edges_scanned += acc.edges;
        compute.vertices_processed += acc.vertices;
        e_in += acc.e_in;

        // -- Step 3b: push deltas to community owners (lines 10–11). ------
        {
            let SweepState {
                a, size, remote, ..
            } = &mut state;
            push_to_owners(
                comm,
                part,
                CommStep::DeltaPush,
                (remote.deltas()).map(|(r, da, ds)| (index.remote_global(r), da, ds)),
                &mut scratch.delta_msgs,
                |c, da, ds| absorb(a, size, (c - first) as usize, da, ds),
            );
            remote.clear_deltas();
        }
        acc.clear();

        // -- Step 4: global modularity (lines 12–13). ----------------------
        // Σ e_in is at hand (tracked).
        if check_e_in {
            // Bit for bit on integer weights (every partial sum exact).
            let scratch = local_e_in(lg, ghosts, &state, &ghost_comm.dense);
            let agree = if integer_weights {
                e_in.to_bits() == scratch.to_bits()
            } else {
                (e_in - scratch).abs() <= 1e-9 * scratch.abs().max(e_in.abs())
            };
            let at = format!("phase {phase_idx}, iteration {iterations}");
            assert!(agree, "{at}: tracked Σe_in {e_in}, {scratch} from scratch");
        }
        let (q, moves_global) = comm.with_step(CommStep::Reduction, || {
            (
                reduce_modularity(comm, e_in, &state.a, two_m),
                comm.all_reduce(local_moves, ReduceOp::Sum),
            )
        });
        few_moved = moves_global.saturating_mul(4) < n_global;

        // -- ET bookkeeping / ETC exit. ------------------------------------
        let mut inactive_global = 0u64;
        if let Some(t) = &mut et {
            for (l, &m) in state.moved.iter().enumerate() {
                t.update(l, m);
            }
            if cfg.variant.uses_etc_exit() {
                inactive_global = comm.with_step(CommStep::Reduction, || {
                    comm.all_reduce(t.num_inactive() as u64, ReduceOp::Sum)
                });
            }
        }
        traces.push(IterationTrace {
            modularity: q,
            moves: moves_global,
            inactive: inactive_global,
            local_edges: compute.edges_scanned - edges_at_iter_start,
        });
        iter_span.arg("moves", moves_global);
        iter_span.arg("q", q);
        if observed {
            // Convergence telemetry: the global fields (q, delta-Q,
            // moves) are all-reduced and identical on every rank; the
            // per-rank fields sum exactly across ranks because each
            // vertex and each community has exactly one owner.
            let mut community_sizes = louvain_obs::Histogram::default();
            let mut communities = 0u64;
            for &sz in &state.size {
                if sz > 0 {
                    communities += 1;
                    community_sizes.observe(sz);
                }
            }
            louvain_obs::record_iteration(louvain_obs::IterationRecord {
                phase: phase_idx as u64,
                iteration: (iterations - 1) as u64,
                modularity: q,
                delta_q: if prev_q.is_finite() { q - prev_q } else { 0.0 },
                moves: moves_global,
                active: scratch.active.iter().filter(|&&a| a).count() as u64,
                vertices: nlocal as u64,
                communities,
                community_sizes,
                ghost_bytes: comm
                    .stats()
                    .snapshot()
                    .step_bytes_for(CommStep::GhostRefresh)
                    - ghost_bytes_at_start,
            });
        }

        // ETC leaves the phase once the paper's 90 % of all vertices are
        // inactive.
        const ETC_EXIT_FRACTION: f64 = 0.9;
        if cfg.variant.uses_etc_exit()
            && inactive_global as f64 >= ETC_EXIT_FRACTION * n_global as f64
        {
            etc_exit = true;
            break;
        }
        if moves_global == 0 || (prev_q.is_finite() && q - prev_q <= tau) {
            break;
        }
        prev_q = q;
    }

    // Final refresh so rebuild observes the final state of the ghosts,
    // then recompute modularity once WITHOUT lag: the per-iteration values
    // above drive convergence exactly as in the paper (stale ghost state),
    // but the reported phase modularity must be exact. This Σ e_in is
    // recomputed from scratch, once a phase.
    exchange_ghosts(
        comm,
        ghosts,
        &mut index,
        &state,
        &mut scratch,
        &mut ghost_comm,
        cfg.delta_ghost_refresh && few_moved,
        None,
    );
    let comm_of_local = std::mem::take(&mut scratch.comm_snapshot);
    let final_e_in = local_e_in(lg, ghosts, &state, &ghost_comm.dense);
    let final_q = comm.with_step(CommStep::Reduction, || {
        reduce_modularity(comm, final_e_in, &state.a, two_m)
    });

    // Memory gauges at phase end: buffer capacities are monotone within
    // a phase, so this samples the arena's and wire pools' high-water
    // marks (min/max land in the gauge stats across phases).
    if louvain_obs::enabled() {
        let bytes = scratch.approx_bytes() + state.remote.approx_bytes();
        louvain_obs::gauge_set("mem.scratch_bytes", bytes as f64);
        louvain_obs::gauge_set("mem.wire_bytes", ghosts.wire_bytes() as f64);
    }

    PhaseResult {
        comm_of_local,
        ghost_comm: ghost_comm.global,
        owned_a: state.a,
        owned_size: state.size,
        modularity: final_q,
        iterations,
        traces,
        compute,
        etc_exit,
    }
}

/// Step 2's key set: key in `remote` the remote communities of the
/// active vertices and of their neighbours, and return the arcs read.
///
/// It asks each target once, not each arc. An active local vertex keys
/// its own community, and a local vertex or ghost slot whose community
/// is owned or already keyed costs nothing. Arcs are stored in both
/// directions, so any other target is some active vertex's neighbour
/// exactly when an active local vertex is among its own arcs: a ghost
/// slot's [`GhostLayer::arcs_into`], a local target's row. That scan
/// stops at the first active one. The local vertices' scans wait in
/// `deferred` until every active vertex and ghost slot has keyed what
/// it can, so that fewer of them run (DESIGN.md §11, "Step 2 by
/// target").
#[allow(clippy::too_many_arguments)]
fn key_remote_communities(
    offsets: &[usize],
    targets: &[u32],
    ghosts: &GhostLayer,
    index: &CommunityIndex,
    comm: &[u32],
    ghost_comm: &[u32],
    active: &[bool],
    remote: &mut RemoteTable,
    deferred: &mut Vec<u32>,
) -> u64 {
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
    for (s, &c) in ghost_comm.iter().enumerate() {
        let Some(r) = index.remote_slot(c) else {
            continue;
        };
        let into = ghosts.arcs_into(s);
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

/// Some item of `items` is `hit`: read up to the first that is, and add
/// the items read to `probes`.
#[inline]
fn any<T>(items: &[T], hit: impl Fn(&T) -> bool, probes: &mut u64) -> bool {
    let found = items.iter().position(hit);
    *probes += found.map_or(items.len(), |i| i + 1) as u64;
    found.is_some()
}

/// This rank's `Σ e_in` (Eq. 2) from scratch: one pass over its arcs.
fn local_e_in(lg: &LocalGraph, ghosts: &GhostLayer, state: &SweepState, ghost_comm: &[u32]) -> f64 {
    let (offsets, _, arc_weights) = lg.csr_parts();
    let targets = ghosts.targets();
    let mut e_in_local = 0.0;
    for l in 0..lg.num_local() {
        let cv = state.comm[l];
        let row = offsets[l]..offsets[l + 1];
        for (&t, &w) in targets[row.clone()].iter().zip(&arc_weights[row]) {
            if ghosts.value_of(t, |i| state.comm[i], ghost_comm) == cv {
                e_in_local += w;
            }
        }
    }
    e_in_local
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
    use crate::ghost::PullBufs;
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
            (r.iterations, r.traces.last().unwrap().inactive)
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
                            (r.comm_of_local, r.modularity.to_bits(), r.iterations)
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
                        let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
                        let ghost_ids: Vec<VertexId> =
                            ghosts.requests().iter().flatten().copied().collect();
                        let coarse = crate::rebuild::rebuild(
                            c,
                            &lg,
                            &ghosts,
                            &r.comm_of_local,
                            &r.ghost_comm,
                        );
                        (r, ghost_ids, coarse.new_lg)
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
                    let owned_a: Vec<Weight> = outs
                        .iter()
                        .flat_map(|o| o.0.owned_a.iter().copied())
                        .collect();
                    let owned_size: Vec<u64> =
                        (outs.iter().flat_map(|o| o.0.owned_size.iter().copied())).collect();
                    assert_eq!(owned_size, size, "{at}: community sizes");
                    assert_eq!(owned_size.iter().sum::<u64>(), n as u64, "{at}");
                    for (c, (got, want)) in owned_a.iter().zip(&a).enumerate() {
                        assert!((got - want).abs() < 1e-9, "{at}: a[{c}] {got} vs {want}");
                    }
                    assert!((owned_a.iter().sum::<f64>() - two_m).abs() < 1e-9, "{at}");
                    // Every ghost slot holds its owner's final value.
                    for (r, ghost_ids, _) in &outs {
                        assert_eq!(r.ghost_comm.len(), ghost_ids.len(), "{at}");
                        for (&c, &v) in r.ghost_comm.iter().zip(ghost_ids) {
                            assert_eq!(c, assignment[v as usize], "{at}: ghost {v}");
                        }
                    }
                    // Reported Q is Q from scratch, and rebuild keeps it.
                    let q = outs[0].0.modularity;
                    assert!((q - modularity(g, &assignment)).abs() < 1e-9, "{at}");
                    let pieces: Vec<LocalGraph> = outs.into_iter().map(|o| o.2).collect();
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

    /// A rank's graph as Step 2 reads it: row offsets, arc targets, the
    /// ghost layer and the community numbering.
    type KeyGraph<'a> = (
        &'a [usize],
        &'a [u32],
        &'a GhostLayer<'a>,
        &'a CommunityIndex,
    );

    /// Step 2's key set as a walk over every arc of every active row
    /// computes it, as sorted remote slots: the reference
    /// `key_remote_communities` must equal.
    fn arc_walk_keys(
        (offsets, targets, ghosts, index): KeyGraph,
        (comm, ghost_comm): (&[u32], &[u32]),
        active: &[bool],
    ) -> Vec<u32> {
        let mut keys = Vec::new();
        for l in (0..active.len()).filter(|&l| active[l]) {
            let row = targets[offsets[l]..offsets[l + 1]].iter();
            let comms = row.map(|&t| ghosts.value_of(t, |i| comm[i], ghost_comm));
            let all = std::iter::once(comm[l]).chain(comms);
            keys.extend(all.filter_map(|c| index.remote_slot(c)));
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Key a rank's Step 2 set on `comms` (local, ghost slots) under
    /// each of `masks`, reusing one table, and hold it to the arc walk:
    /// each of its slots keyed once, no other.
    fn check_keys_under_masks(
        graph: KeyGraph,
        comms: (&[u32], &[u32]),
        masks: &[Vec<bool>],
        at: &str,
    ) {
        let (offsets, targets, ghosts, index) = graph;
        let (mut table, mut deferred) = (RemoteTable::default(), Vec::new());
        table.cover(index.num_remote());
        for (mi, active) in masks.iter().enumerate() {
            table.clear_keys();
            let (comm, ghost_comm) = comms;
            let probes = key_remote_communities(
                offsets,
                targets,
                ghosts,
                index,
                comm,
                ghost_comm,
                active,
                &mut table,
                &mut deferred,
            );
            // Each row and each slot's arcs are read at most once.
            assert!(probes <= 2 * targets.len() as u64, "{at}, mask {mi}");
            let mut got = table.keyed().to_vec();
            got.sort_unstable();
            let keyed = got.len();
            got.dedup();
            assert_eq!(got.len(), keyed, "{at}, mask {mi}: a slot keyed twice");
            let want = arc_walk_keys(graph, comms, active);
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
                    let ghosts = GhostLayer::build(c, lg);
                    let offsets = lg.csr_parts().0;
                    let seed = (gi * 64 + p * 8 + c.rank()) as u64;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    for trial in 0..6 {
                        let mut index = CommunityIndex::new(lg);
                        let mut pick = |rng: &mut SmallRng| match rng.random_range(0..3u32) {
                            0 => index.dense(rng.random_range(0..4u64)),
                            _ => index.dense(rng.random_range(0..n)),
                        };
                        let comm: Vec<u32> = (0..lg.num_local()).map(|_| pick(&mut rng)).collect();
                        let ghost_comm: Vec<u32> =
                            (0..ghosts.num_ghosts()).map(|_| pick(&mut rng)).collect();
                        check_keys_under_masks(
                            (offsets, ghosts.targets(), &ghosts, &index),
                            (&comm, &ghost_comm),
                            &masks(lg.num_local(), &mut rng),
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
                    let mut index = CommunityIndex::new(lg);
                    let comm: Vec<u32> = r.comm_of_local.iter().map(|&c| index.dense(c)).collect();
                    let ghost_comm: Vec<u32> =
                        r.ghost_comm.iter().map(|&c| index.dense(c)).collect();
                    let mut rng = SmallRng::seed_from_u64((gi * 64 + p) as u64);
                    check_keys_under_masks(
                        (lg.csr_parts().0, ghosts.targets(), &ghosts, &index),
                        (&comm, &ghost_comm),
                        &masks(lg.num_local(), &mut rng),
                        &format!("graph {gi}, p={p}, rank {}", c.rank()),
                    );
                });
            }
        }
    }

    /// Iteration 1 of a phase at p=2 up to the sweep (exchange, Step 2
    /// and its pull), then a colored sweep on `threads`, with `bias`
    /// first added to every remote slot's `a_c` as an applied delta.
    /// Per rank: the communities and the deltas the push would send.
    #[allow(clippy::type_complexity)]
    fn colored_sweep_at_p2(
        g: &Csr,
        threads: usize,
        bias: Weight,
    ) -> Vec<(Vec<u32>, Vec<(u32, u64, i64)>)> {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, 2);
        let parts = LocalGraph::scatter(g, &part);
        run(2, |c| {
            let lg = &parts[c.rank()];
            let (nlocal, first) = (lg.num_local(), lg.first_vertex());
            let mut ghosts = GhostLayer::build(c, lg);
            let k_local: Vec<Weight> = (0..nlocal).map(|l| lg.weighted_degree(l)).collect();
            let mut index = CommunityIndex::new(lg);
            let mut state = SweepState::new(&k_local);
            let mut scratch = IterScratch::new(nlocal, threads);
            let mut ghost_comm = GhostComms::default();
            let gc = &mut ghost_comm;
            exchange_ghosts(
                c,
                &mut ghosts,
                &mut index,
                &state,
                &mut scratch,
                gc,
                false,
                None,
            );
            scratch.cover(index.num_dense());
            state.remote.cover(index.num_remote());
            let (offsets, _, arc_weights) = lg.csr_parts();
            let active = vec![true; nlocal];
            let SweepState {
                comm,
                a,
                size,
                remote,
                ..
            } = &mut state;
            let ghost_dense = &ghost_comm.dense;
            key_remote_communities(
                offsets,
                ghosts.targets(),
                &ghosts,
                &index,
                comm,
                ghost_dense,
                &active,
                remote,
                &mut Vec::new(),
            );
            let needed: Vec<VertexId> = remote
                .keyed()
                .iter()
                .map(|&r| index.remote_global(r))
                .collect();
            pull_from_owners(
                c,
                lg.partition(),
                CommStep::CommunityPull,
                needed,
                &mut PullBufs::default(),
                |c| (a[(c - first) as usize], size[(c - first) as usize]),
                |c, info| {
                    let d = index.dense(c);
                    let r = index.remote_slot(d).unwrap();
                    remote.set_pulled(r, info);
                },
            );
            for r in 0..index.num_remote() as u32 {
                remote.apply(r, bias, 0);
            }
            let coloring = distributed_coloring(c, lg, &ghosts, 0xC0105);
            let order: Vec<usize> = (0..nlocal).collect();
            let sweep = Sweep {
                offsets,
                arc_weights,
                targets: ghosts.targets(),
                ghosts: &ghosts,
                ghost_comm: &ghost_comm.dense,
                index: &index,
                k_local: &k_local,
                two_m: g.two_m(),
            };
            let IterScratch {
                batches,
                workers,
                acc,
                ..
            } = &mut scratch;
            let pool = WorkerPool::new(threads);
            sweep.sweep_colored(
                &mut state, &pool, &coloring, &order, workers, batches, acc, 1,
            );
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
