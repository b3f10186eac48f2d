//! The halo: everything a rank knows about state it does not own.
//!
//! The paper keeps remote state in two replicas. *Ghost vertices*
//! (Algorithm 4): once per phase every rank scans its edge lists for
//! destinations owned elsewhere, sends each owner the list of vertices it
//! needs, and the owner remembers which of its vertices to serve to whom;
//! every iteration then starts with the owners *pushing* the latest value
//! of those vertices (Algorithm 3 lines 4–5). *Ghost communities*: ranks
//! *pull* `a_c` of the remote communities their vertices may join and
//! *push* weight deltas back to the owners (lines 10–11).
//!
//! No other module knows how either replica is laid out or exchanged:
//! [`GhostLayer::value_of`] is the one read of a neighbour's value,
//! [`GhostLayer::exchange`] and the two refresh flavours under it the one
//! refresh, and [`pull_from_owners`] / [`push_to_owners`] the one owner
//! exchange.
//!
//! The layout is dense, so the per-arc paths index arrays and never hash.
//! [`GhostLayer::build`] relabels every arc destination once per phase
//! into a `u32` *target* (`0..nlocal` an owned vertex, `nlocal..` a ghost
//! slot; at p = 1 that is the destination, so the layer borrows the
//! rows), and [`CommunityIndex`] numbers the communities a rank meets
//! during the phase the same way (`0..nlocal` owned, `nlocal..` remote in
//! order of first sight). Global ids are translated only where a value
//! crosses the wire.
//!
//! Two refinements from the paper's discussion are implemented here:
//!
//! * **neighborhood transport** — the ghost topology is fixed for the
//!   whole phase and symmetric, so every refresh is an MPI-3-style
//!   neighborhood collective over it, whose per-message cost scales with
//!   the topology degree instead of `p−1` (the discovery exchange in
//!   [`GhostLayer::build`] and the owner pulls/pushes still go over the
//!   full communicator);
//! * **delta refresh** ([`GhostLayer::refresh_delta`]) — after the first
//!   iterations most vertices stop moving, so owners push `(index, value)`
//!   pairs only for vertices whose community changed since the last
//!   exchange instead of re-sending every ghost value. Ghost slots not
//!   mentioned keep their previous value, which is exactly the owner's
//!   current value — so a delta refresh leaves the ghost array
//!   byte-identical to what a full [`GhostLayer::refresh`] would produce.
//!   It is also how the paper's "any communication that relates to
//!   inactive vertices can be prevented" (Section IV-B) is met: a vertex
//!   early termination has frozen never changes, so it is never sent.
//!
//! Refresh rounds run in the per-iteration hot path, so all send/receive
//! buffers cycle through a small pool ([`GhostLayer`] keeps the vectors
//! returned by one collective and reuses their capacity as the next
//! round's send buffers) and per-owner slot offsets are precomputed once
//! at build time; the owner exchanges [`reclaim`] caller-held buffers.

use std::borrow::Cow;
use std::sync::Mutex;

use louvain_comm::{Comm, CommStep};
use louvain_graph::hash::{fast_map, FastMap};
use louvain_graph::{LocalGraph, VertexId, VertexPartition, Weight};

use crate::scratch::reclaim;

/// Wire entry of a delta refresh: (position in the receiver's request
/// list for this owner, new value).
pub type DeltaEntry = (u32, VertexId);

// Owned vertices plus ghosts, and owned plus remote communities, are
// at most n < 2^32 (`VERTEX_LIMIT`), so their dense indices are `u32`.
const ARC_LIMIT: &str = "the ghost arc index is u32: a rank with ghosts holds < 2^32 arcs";

/// Grab-and-put vector pool: `take` pops a cleared buffer (or makes a
/// fresh one), `put_back` returns buffers so their capacity is reused.
#[derive(Debug, Default)]
struct BufPool<T> {
    free: Mutex<Vec<Vec<T>>>,
}

impl<T> BufPool<T> {
    fn free(&self) -> std::sync::MutexGuard<'_, Vec<Vec<T>>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn take(&self) -> Vec<T> {
        let mut buf = self.free().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    fn put_back(&self, bufs: impl IntoIterator<Item = Vec<T>>) {
        self.free().extend(bufs);
    }

    /// Bytes held by the pooled buffers (capacities).
    fn pooled_bytes(&self) -> u64 {
        (self.free().iter())
            .map(|b| (b.capacity() * std::mem::size_of::<T>()) as u64)
            .sum()
    }
}

/// Per-phase ghost bookkeeping for one rank, over the graph `'g`.
#[derive(Debug)]
pub struct GhostLayer<'g> {
    /// Owned vertex count: targets below it are read from the caller's
    /// local array, all others from ghost slot `target - nlocal`.
    nlocal: usize,
    /// Dense target of every arc, aligned with `lg.csr_parts().1`: that
    /// array itself where the rank owns every vertex.
    targets: Cow<'g, [u32]>,
    /// The arcs into ghost slot `s` are `arcs_into[into_start[s]..
    /// into_start[s + 1]]`, as `(local source, arc index)` in arc order;
    /// `has_ghost_arcs[l]` flags the rows with one. Empty without ghosts.
    into_start: Vec<u32>,
    arcs_into: Vec<(u32, u32)>,
    has_ghost_arcs: Vec<bool>,
    /// Ghost ids this rank needs, grouped by owner, sorted (fixed order —
    /// the wire format of every refresh).
    requests: Vec<Vec<VertexId>>,
    /// For each peer rank: the local indices of our vertices it ghosts,
    /// aligned with that peer's request order.
    serve: Vec<Vec<usize>>,
    /// Ranks this rank actually exchanges ghosts with (symmetric): the
    /// topology every refresh is sent over.
    neighbors: Vec<usize>,
    /// `base[owner]` — slot offset of `requests[owner][0]` in the flat
    /// ghost value array (precomputed; refreshes fill from it).
    base: Vec<usize>,
    num_ghosts: usize,
    /// Local values as of the last [`GhostLayer::exchange`] — the
    /// baseline its delta flavour diffs against.
    last_pushed: Vec<VertexId>,
    /// An exchange has happened, so `last_pushed` is a valid baseline
    /// (it is also empty on a rank without vertices).
    have_baseline: bool,
    /// `changed[l]`: local `l` differs from `last_pushed`; rebuilt before
    /// every delta exchange.
    changed: Vec<bool>,
    /// Recycled value buffers for full refreshes.
    val_pool: BufPool<VertexId>,
    /// Recycled `(index, value)` buffers for delta refreshes.
    delta_pool: BufPool<DeltaEntry>,
}

impl<'g> GhostLayer<'g> {
    /// Run Algorithm 4: discover ghosts and exchange request lists.
    /// Collective — every rank must call it.
    pub fn build(comm: &Comm, lg: &'g LocalGraph) -> Self {
        let p = comm.size();
        let part = lg.partition();
        let first = lg.first_vertex();
        let nlocal = lg.num_local();
        let dests = lg.csr_parts().1;
        let mut seen = fast_map::<u32, u32>();
        let mut requests: Vec<Vec<VertexId>> = vec![Vec::new(); p];
        // Where the rank owns every vertex, a destination is its target.
        // Elsewhere one walk over the arcs discovers the ghosts and
        // relabels every destination; ghosts are numbered in order of
        // first sight here and renumbered to their slots once the request
        // lists are sorted.
        let mut targets = Cow::Borrowed(dests);
        if nlocal as u64 != lg.num_global() {
            let walked = dests.iter().map(|&u| {
                let l = u.wrapping_sub(first as u32);
                if (l as usize) < nlocal {
                    l
                } else {
                    let next = (nlocal + seen.len()) as u32;
                    *seen.entry(u).or_insert_with(|| {
                        requests[part.owner_of(u.into())].push(u.into());
                        next
                    })
                }
            });
            targets = Cow::Owned(walked.collect());
        }
        for r in requests.iter_mut() {
            r.sort_unstable();
        }
        // Assign slots in (owner, position-in-request) order.
        let mut slot_of_seen = vec![0u32; seen.len()];
        let mut base = Vec::new();
        let mut next = 0usize;
        for r in &requests {
            base.push(next);
            for g in r {
                slot_of_seen[seen[&(*g as u32)] as usize - nlocal] = (nlocal + next) as u32;
                next += 1;
            }
        }
        // Renumbering also flags the rows with a ghost arc and counts the
        // arcs into each slot: the first step of `arcs_into`'s counting sort.
        let offsets = lg.csr_parts().0;
        let (mut into_start, mut has_ghost_arcs) = (Vec::new(), Vec::new());
        if next > 0 {
            u32::try_from(targets.len()).expect(ARC_LIMIT);
            into_start = vec![0u32; next + 1];
            has_ghost_arcs = vec![false; nlocal];
            let targets = targets.to_mut();
            for l in 0..nlocal {
                for t in &mut targets[offsets[l]..offsets[l + 1]] {
                    if let Some(s) = (*t as usize).checked_sub(nlocal) {
                        *t = slot_of_seen[s];
                        into_start[*t as usize - nlocal] += 1;
                        has_ghost_arcs[l] = true;
                    }
                }
            }
        }
        let arcs_into = place_ghost_arcs(offsets, &targets, &has_ghost_arcs, &mut into_start);
        // Tell each owner what we need; learn what others need from us.
        // The request lists stay behind as the wire-format reference for
        // every later refresh, so a copy goes on the wire (once a phase).
        let received = comm.all_to_all_v(requests.clone());
        let serve: Vec<Vec<usize>> = received
            .into_iter()
            .map(|ids| ids.into_iter().map(|g| lg.to_local(g)).collect())
            .collect();
        // The ghost relation is symmetric (arcs are stored in both
        // directions), so requests[j] and serve[j] are non-empty together.
        let neighbors: Vec<usize> = (0..p)
            .filter(|&j| j != comm.rank() && (!requests[j].is_empty() || !serve[j].is_empty()))
            .collect();
        Self {
            nlocal,
            targets,
            into_start,
            arcs_into,
            has_ghost_arcs,
            requests,
            serve,
            neighbors,
            base,
            num_ghosts: next,
            last_pushed: Vec::new(),
            have_baseline: false,
            changed: Vec::new(),
            val_pool: BufPool::default(),
            delta_pool: BufPool::default(),
        }
    }

    /// Number of distinct ghost vertices held by this rank.
    pub fn num_ghosts(&self) -> usize {
        self.num_ghosts
    }

    /// Ranks this rank exchanges ghosts with (symmetric topology).
    pub fn neighbor_ranks(&self) -> &[usize] {
        &self.neighbors
    }

    /// Dense target of every arc, aligned with `lg.csr_parts().1`:
    /// `t < nlocal` is owned vertex `t`, anything else ghost slot
    /// `t - nlocal` of the value array filled by [`GhostLayer::refresh`]
    /// (slots follow the flattened request lists).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Neighbours of local vertex `l` as `(target, global id, weight)`.
    /// `lg` must be the graph the layer was built on.
    pub fn neighbors<'a>(
        &'a self,
        lg: &'a LocalGraph,
        l: usize,
    ) -> impl Iterator<Item = (u32, VertexId, Weight)> + 'a {
        let offsets = lg.csr_parts().0;
        debug_assert_eq!(self.targets.len(), lg.num_local_arcs());
        let row = &self.targets[offsets[l]..offsets[l + 1]];
        (row.iter().zip(lg.neighbors(l))).map(|(&t, (u, w))| (t, u, w))
    }

    /// The ghost slot behind target `t`, `None` for an owned vertex.
    #[inline]
    pub(crate) fn slot(&self, t: u32) -> Option<usize> {
        (t as usize).checked_sub(self.nlocal)
    }

    /// Value of the vertex behind target `t` as this rank sees it:
    /// `local(t)` for an owned vertex, otherwise its replica in
    /// `ghost_vals` (an array filled by [`GhostLayer::refresh`]).
    #[inline]
    pub fn value_of<V: Copy>(&self, t: u32, local: impl FnOnce(usize) -> V, ghost_vals: &[V]) -> V {
        match self.slot(t) {
            None => local(t as usize),
            Some(slot) => ghost_vals[slot],
        }
    }

    /// The local arcs whose target is ghost slot `slot`, as `(local
    /// source vertex, arc index)` in arc order.
    #[inline]
    pub(crate) fn arcs_into(&self, slot: usize) -> &[(u32, u32)] {
        &self.arcs_into[self.into_start[slot] as usize..self.into_start[slot + 1] as usize]
    }

    /// Global ids of the ghost slots, in slot order.
    pub(crate) fn slot_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.requests.iter().flatten().copied()
    }

    /// Some arc of local vertex `l` targets a ghost slot.
    #[inline]
    pub(crate) fn has_ghost_arcs(&self, l: usize) -> bool {
        self.has_ghost_arcs.get(l).copied().unwrap_or(false)
    }

    /// One round over the neighbour topology: `send(j)` fills a pooled
    /// buffer for neighbour `j`, `fill(owner, entries)` consumes what
    /// `owner` sent; the received buffers go back to `pool`.
    fn round<T: Send + 'static>(
        &self,
        comm: &Comm,
        pool: &BufPool<T>,
        send: impl Fn(usize, &mut Vec<T>),
        mut fill: impl FnMut(usize, &[T]),
    ) {
        // The i-th buffer goes to (and comes from) the i-th neighbour.
        let sends = (self.neighbors.iter())
            .map(|&j| {
                let mut buf = pool.take();
                send(j, &mut buf);
                buf
            })
            .collect();
        let received = comm.neighbor_all_to_all_v(&self.neighbors, sends);
        for (&owner, entries) in self.neighbors.iter().zip(&received) {
            fill(owner, entries);
        }
        pool.put_back(received);
    }

    /// One refresh round: every owner pushes the `local_vals` entries of
    /// the vertices each peer ghosts, and `out` is overwritten in slot
    /// order. Collective.
    pub fn refresh(&self, comm: &Comm, local_vals: &[VertexId], out: &mut Vec<VertexId>) {
        out.resize(self.num_ghosts, 0);
        self.round(
            comm,
            &self.val_pool,
            |j, buf| buf.extend(self.serve[j].iter().map(|&l| local_vals[l])),
            |owner, values| {
                let base = self.base[owner];
                out[base..base + self.requests[owner].len()].copy_from_slice(values);
            },
        );
    }

    /// Delta refresh: owners push `(index, value)` pairs only for the
    /// serve entries whose local vertex is marked in `changed` (indexed
    /// by local vertex); only the mentioned slots change. `out` must
    /// already hold the values of a previous full refresh of this phase
    /// with every un-`changed` vertex at its current value — then the
    /// result is byte-identical to a full [`GhostLayer::refresh`].
    /// Collective; all ranks must take the delta path in the same round.
    pub fn refresh_delta(
        &self,
        comm: &Comm,
        local_vals: &[VertexId],
        changed: &[bool],
        out: &mut [VertexId],
    ) {
        debug_assert_eq!(
            out.len(),
            self.num_ghosts,
            "delta refresh needs a full refresh first"
        );
        self.round(
            comm,
            &self.delta_pool,
            |j, buf| {
                let entries = self.serve[j].iter().enumerate();
                buf.extend(
                    entries
                        .filter(|&(_, &l)| changed[l])
                        .map(|(i, &l)| (i as u32, local_vals[l])),
                );
            },
            |owner, pairs| {
                for &(i, v) in pairs {
                    out[self.base[owner] + i as usize] = v;
                }
            },
        );
    }

    /// One refresh of the same `out` array round after round, full or
    /// delta flavour, remembering `local_vals` as the next round's delta
    /// baseline.
    ///
    /// The flavour must be decided *uniformly* across ranks (it changes
    /// the collective's payload type): `allow_delta` must be the same on
    /// every rank, and whether a baseline exists advances in lockstep
    /// because exchanges are collective.
    ///
    /// The changed bits diff against the exact last-pushed values rather
    /// than any per-iteration move flag, so an exchange carries every
    /// change since the last one, whoever made it. The phase loop
    /// exchanges once per iteration and once after the last one.
    pub fn exchange(
        &mut self,
        comm: &Comm,
        local_vals: &[VertexId],
        out: &mut Vec<VertexId>,
        allow_delta: bool,
    ) {
        let use_delta = allow_delta && self.have_baseline;
        if use_delta {
            debug_assert_eq!(self.last_pushed.len(), local_vals.len());
            self.changed.clear();
            self.changed.extend(
                local_vals
                    .iter()
                    .zip(&self.last_pushed)
                    .map(|(a, b)| a != b),
            );
            self.refresh_delta(comm, local_vals, &self.changed, out);
        } else {
            self.refresh(comm, local_vals, out);
        }
        self.last_pushed.clear();
        self.last_pushed.extend_from_slice(local_vals);
        self.have_baseline = true;
        louvain_obs::counter_add(
            if use_delta {
                "ghost.delta.refreshes"
            } else {
                "ghost.full.refreshes"
            },
            1,
        );
    }

    /// The request lists (per owner) — used by tests and by rebuild to
    /// enumerate ghost ids.
    pub fn requests(&self) -> &[Vec<VertexId>] {
        &self.requests
    }

    /// Approximate resident bytes of the ghost bookkeeping (arc targets
    /// unless borrowed from the graph, their reverse index, request and
    /// serve tables) — the `mem.ghost_bytes` gauge.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn nested<T>(v: &[Vec<T>]) -> u64 {
            v.iter()
                .map(|b| (b.capacity() * size_of::<T>()) as u64)
                .sum()
        }
        nested(&self.requests)
            + nested(&self.serve)
            + match &self.targets {
                Cow::Owned(targets) => (targets.capacity() * size_of::<u32>()) as u64,
                Cow::Borrowed(_) => 0,
            }
            + (self.into_start.capacity() * size_of::<u32>()) as u64
            + (self.arcs_into.capacity() * size_of::<(u32, u32)>()) as u64
            + self.has_ghost_arcs.capacity() as u64
            + (self.neighbors.capacity() * size_of::<usize>()) as u64
            + (self.base.capacity() * size_of::<usize>()) as u64
    }

    /// Bytes the layer holds for its refresh rounds at the moment of the
    /// call: the recycled wire-buffer pools and the delta baseline — the
    /// `mem.wire_bytes` gauge.
    pub fn wire_bytes(&self) -> u64 {
        self.val_pool.pooled_bytes()
            + self.delta_pool.pooled_bytes()
            + (self.last_pushed.capacity() * std::mem::size_of::<VertexId>()) as u64
            + self.changed.capacity() as u64
    }
}

/// The rest of the slot → arc counting sort, given each slot's arc
/// count in `start` (plus a trailing 0): prefix-sum to each slot's end,
/// then place the arcs of the flagged rows walking backwards, so each
/// slot's arcs stay in arc order and its end becomes its start.
fn place_ghost_arcs(
    offsets: &[usize],
    targets: &[u32],
    has_ghost_arcs: &[bool],
    start: &mut [u32],
) -> Vec<(u32, u32)> {
    let Some(num_ghosts) = start.len().checked_sub(1) else {
        return Vec::new();
    };
    for s in 1..=num_ghosts {
        start[s] += start[s - 1];
    }
    let nlocal = has_ghost_arcs.len();
    let mut arcs = vec![(0, 0); start[num_ghosts] as usize];
    for l in (0..nlocal).rev().filter(|&l| has_ghost_arcs[l]) {
        for a in (offsets[l]..offsets[l + 1]).rev() {
            if let Some(s) = (targets[a] as usize).checked_sub(nlocal) {
                start[s] -= 1;
                arcs[start[s] as usize] = (l as u32, a as u32);
            }
        }
    }
    arcs
}

/// The phase's dense community numbering on one rank. An owned community
/// `c` is `c - first` (`0..nlocal`, the index of its `a_c` and size at
/// the owner); a remote one gets the next index `nlocal..` the first
/// time the rank sees it — in a refreshed ghost slot or as a vertex
/// following anchor — and keeps it for the phase.
#[derive(Debug)]
pub struct CommunityIndex {
    first: VertexId,
    nlocal: u32,
    /// Remote slot → global id.
    remote_ids: Vec<VertexId>,
    /// Global id → dense index of the remote communities seen so far.
    remote: FastMap<VertexId, u32>,
}

impl CommunityIndex {
    pub fn new(lg: &LocalGraph) -> Self {
        Self {
            first: lg.first_vertex(),
            nlocal: lg.num_local() as u32,
            remote_ids: Vec::new(),
            remote: fast_map(),
        }
    }

    /// Dense indices in use: `0..num_dense()`.
    pub fn num_dense(&self) -> usize {
        self.nlocal as usize + self.remote_ids.len()
    }

    /// Remote communities seen so far: remote slots `0..num_remote()`.
    pub fn num_remote(&self) -> usize {
        self.remote_ids.len()
    }

    /// Position of dense index `d` among the remote communities, `None`
    /// for an owned one.
    #[inline]
    pub fn remote_slot(&self, d: u32) -> Option<u32> {
        d.checked_sub(self.nlocal)
    }

    /// Global id of the remote community in remote slot `r`.
    #[inline]
    pub fn remote_global(&self, r: u32) -> VertexId {
        self.remote_ids[r as usize]
    }

    /// Global id of dense index `d`.
    #[inline]
    pub fn global(&self, d: u32) -> VertexId {
        match self.remote_slot(d) {
            None => self.first + VertexId::from(d),
            Some(r) => self.remote_global(r),
        }
    }

    /// Dense index of global community `c`, numbering it on first sight.
    pub fn dense(&mut self, c: VertexId) -> u32 {
        let l = c.wrapping_sub(self.first);
        if l < VertexId::from(self.nlocal) {
            return l as u32;
        }
        let next = self.num_dense() as u32;
        *self.remote.entry(c).or_insert_with(|| {
            self.remote_ids.push(c);
            next
        })
    }

    /// Bring `dense` (one index per ghost slot) up to date with the
    /// refreshed global values: one array compare per slot, one hash
    /// probe per slot whose community changed, reported to
    /// `changed(slot, old, new)` in dense indices. The first call fills
    /// `dense` and reports nothing.
    pub fn translate(
        &mut self,
        ghost_vals: &[VertexId],
        dense: &mut Vec<u32>,
        mut changed: impl FnMut(usize, u32, u32),
    ) {
        if dense.len() != ghost_vals.len() {
            dense.clear();
            dense.extend(ghost_vals.iter().map(|&c| self.dense(c)));
            return;
        }
        for (s, (d, &c)) in dense.iter_mut().zip(ghost_vals).enumerate() {
            if self.global(*d) != c {
                let old = *d;
                *d = self.dense(c);
                changed(s, old, *d);
            }
        }
    }
}

/// Reusable send/receive buffers of [`pull_from_owners`]: per-rank
/// request lists and keyed reply lists.
#[derive(Default)]
pub struct PullBufs<V> {
    pub requests: Vec<Vec<VertexId>>,
    pub replies: Vec<Vec<(VertexId, V)>>,
}

/// Keyed pull: fetch `answer(k)` from the owner (under `part`) of every
/// key in `keys` and hand each `(k, value)` reply to `store`. Sends
/// exactly the keys it is given, in the order given (dedupe is the
/// caller's business). Owners reply keyed, so the requests need not be
/// retained to decode positional replies, and both receive sides are
/// reclaimed into `bufs` as the next call's send buffers — a caller that
/// keeps `bufs` across calls allocates nothing in steady state. Both
/// exchanges are charged to `step`. Collective.
///
/// Not `#[inline]`: forced into `louvain_phase` it (with
/// [`push_to_owners`]) cost the phase loop's sweep ~6 % on the ladder.
pub fn pull_from_owners<V: Copy + Send + 'static>(
    comm: &Comm,
    part: &VertexPartition,
    step: CommStep,
    keys: impl IntoIterator<Item = VertexId>,
    bufs: &mut PullBufs<V>,
    answer: impl Fn(VertexId) -> V,
    mut store: impl FnMut(VertexId, V),
) {
    let PullBufs { requests, replies } = bufs;
    requests.resize_with(comm.size(), Vec::new);
    replies.resize_with(comm.size(), Vec::new);
    for k in keys {
        requests[part.owner_of(k)].push(k);
    }
    let answers = comm.with_step(step, || {
        let incoming = comm.all_to_all_v(std::mem::take(requests));
        for (reply, asked) in replies.iter_mut().zip(&incoming) {
            reply.extend(asked.iter().map(|&k| (k, answer(k))));
        }
        reclaim(requests, incoming);
        comm.all_to_all_v(std::mem::take(replies))
    });
    for &(k, v) in answers.iter().flatten() {
        store(k, v);
    }
    reclaim(replies, answers);
}

/// Wire entry of [`push_to_owners`]: `(community, Δa_c, Δsize)`.
pub type CommunityDelta = (VertexId, Weight, i64);

/// Push per-community `(Δa_c, Δsize)` to the community owners (Algorithm
/// 3, lines 10–11) and hand every delta received here to `apply`.
/// Messages carry `deltas` (at most one per community) in the order
/// given and are applied in (source rank, message) order —
/// floating-point accumulation at the owner follows it. `bufs` is
/// reclaimed like [`PullBufs`]. Collective.
pub fn push_to_owners(
    comm: &Comm,
    part: &VertexPartition,
    step: CommStep,
    deltas: impl IntoIterator<Item = CommunityDelta>,
    bufs: &mut Vec<Vec<CommunityDelta>>,
    mut apply: impl FnMut(VertexId, Weight, i64),
) {
    bufs.resize_with(comm.size(), Vec::new);
    for delta in deltas {
        bufs[part.owner_of(delta.0)].push(delta);
    }
    let received = comm.with_step(step, || comm.all_to_all_v(std::mem::take(bufs)));
    for &(c, da, ds) in received.iter().flatten() {
        apply(c, da, ds);
    }
    reclaim(bufs, received);
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::{Csr, EdgeList, VertexPartition};

    fn ring(n: u64) -> Csr {
        let mut el = EdgeList::new(n);
        for v in 0..n {
            el.push(v, (v + 1) % n, 1.0);
        }
        Csr::from_edge_list(el)
    }

    fn scatter_for(p: usize, g: &Csr) -> Vec<LocalGraph<'_>> {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        LocalGraph::scatter(g, &part)
    }

    #[test]
    fn ring_ghosts_are_the_boundary_vertices() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            (layer.num_ghosts(), layer.neighbor_ranks().to_vec())
        });
        // Each rank's range is contiguous on a ring: exactly 2 ghosts
        // (one on each side), and both other ranks are topology neighbors.
        for (rank, (ghosts, neighbors)) in out.into_iter().enumerate() {
            assert_eq!(ghosts, 2);
            let expected: Vec<usize> = (0..3).filter(|&j| j != rank).collect();
            assert_eq!(neighbors, expected);
        }
    }

    #[test]
    fn reverse_index_lists_every_ghost_arc_once_in_arc_order() {
        let g = louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(8, 6, 3)).graph;
        for p in [2, 3] {
            let parts = scatter_for(p, &g);
            run(p, |c| {
                let lg = &parts[c.rank()];
                let layer = GhostLayer::build(c, lg);
                let offsets = lg.csr_parts().0;
                let mut want: Vec<Vec<(u32, u32)>> = vec![Vec::new(); layer.num_ghosts()];
                for l in 0..lg.num_local() {
                    for a in offsets[l]..offsets[l + 1] {
                        if let Some(s) = layer.slot(layer.targets()[a]) {
                            want[s].push((l as u32, a as u32));
                        }
                    }
                }
                for (s, arcs) in want.iter().enumerate() {
                    assert_eq!(layer.arcs_into(s), &arcs[..], "p={p} slot {s}");
                }
                for l in 0..lg.num_local() {
                    let ghost_row = want.iter().flatten().any(|&(src, _)| src as usize == l);
                    assert_eq!(layer.has_ghost_arcs(l), ghost_row, "p={p} row {l}");
                }
                // The gauge counts the index: 8 B per ghost arc, a 4 B
                // start per slot plus the end, and a flag per row.
                let ghost_arcs = want.iter().map(Vec::len).sum::<usize>();
                let index_bytes = 8 * ghost_arcs + 4 * (layer.num_ghosts() + 1) + lg.num_local();
                assert_eq!(reverse_index_bytes(layer), index_bytes as u64);
            });
        }
    }

    #[test]
    fn refresh_delivers_owner_values() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            // Every rank publishes value = 1000 + global id for each of
            // its local vertices.
            let local_vals: Vec<u64> = (0..lg.num_local())
                .map(|l| 1000 + lg.to_global(l))
                .collect();
            let mut ghost_vals = Vec::new();
            layer.refresh(c, &local_vals, &mut ghost_vals);
            // Check all ghosts carry their owner's value (slots follow
            // the flattened request lists) and every arc's target reads
            // its destination's value.
            let slots = layer.requests().iter().flatten();
            let slots_ok = slots.zip(&ghost_vals).all(|(&gid, &v)| v == 1000 + gid);
            let arcs_ok = (0..lg.num_local()).all(|l| {
                layer
                    .neighbors(&lg, l)
                    .all(|(t, u, _)| layer.value_of(t, |i| local_vals[i], &ghost_vals) == 1000 + u)
            });
            slots_ok && arcs_ok
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn refresh_messages_go_to_the_topology_only() {
        // A 32-ring on 8 ranks: two topology neighbours each, seven peers.
        let g = ring(32);
        let parts = scatter_for(8, &g);
        let out = run(8, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let sent = || {
                let t = c.stats().snapshot();
                t.step_messages_for(CommStep::GhostRefresh)
            };
            let vals = |k: u64| -> Vec<u64> {
                (0..lg.num_local())
                    .map(|l| k * 1000 + lg.to_global(l))
                    .collect()
            };
            // Every slot holds its owner's value `k * 1000 + id`.
            let owners = |k: u64, got: &[u64]| {
                let want = layer.slot_ids().map(|u| k * 1000 + u);
                want.eq(got.iter().copied())
            };
            let mut ghost_vals = Vec::new();
            let m0 = sent();
            c.with_step(CommStep::GhostRefresh, || {
                layer.refresh(c, &vals(1), &mut ghost_vals)
            });
            let (m1, full_ok) = (sent(), owners(1, &ghost_vals));
            let changed = vec![true; lg.num_local()];
            c.with_step(CommStep::GhostRefresh, || {
                layer.refresh_delta(c, &vals(2), &changed, &mut ghost_vals)
            });
            let delta_ok = owners(2, &ghost_vals);
            let msgs = (m1 - m0, sent() - m1);
            let degree = layer.neighbor_ranks().len() as u64;
            (degree, msgs, full_ok && delta_ok)
        });
        for (rank, (degree, (full, delta), owners_values)) in out.into_iter().enumerate() {
            assert_eq!(degree, 2, "rank {rank}");
            assert_eq!((full, delta), (degree, degree), "rank {rank}");
            assert!(owners_values, "rank {rank}");
        }
    }

    #[test]
    fn delta_refresh_matches_full_refresh() {
        let g = ring(16);
        let parts = scatter_for(4, &g);
        let out = run(4, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            // Round 1: full refresh establishes the baseline.
            let vals1: Vec<u64> = (0..lg.num_local()).map(|l| 10 + lg.to_global(l)).collect();
            let mut baseline = Vec::new();
            layer.refresh(c, &vals1, &mut baseline);
            // Round 2: only even-id vertices change.
            let vals2: Vec<u64> = (0..lg.num_local())
                .map(|l| {
                    let gid = lg.to_global(l);
                    if gid.is_multiple_of(2) {
                        900 + gid
                    } else {
                        10 + gid
                    }
                })
                .collect();
            let changed: Vec<bool> = (0..lg.num_local())
                .map(|l| lg.to_global(l).is_multiple_of(2))
                .collect();
            let mut full = baseline.clone();
            layer.refresh(c, &vals2, &mut full);
            let mut delta = baseline.clone();
            layer.refresh_delta(c, &vals2, &changed, &mut delta);
            // Round 3 (no changes at all): the delta exchange is empty and
            // must leave the array untouched.
            let no_change = vec![false; lg.num_local()];
            let mut delta3 = delta.clone();
            layer.refresh_delta(c, &vals2, &no_change, &mut delta3);
            (full == delta, delta3 == delta)
        });
        assert!(out.into_iter().all(|(a, b)| a && b));
    }

    #[test]
    fn community_index_numbers_remote_communities_on_first_sight() {
        // Rank 1 of 3 on a 12-ring owns 4..8.
        let g = ring(12);
        let lg = scatter_for(3, &g).swap_remove(1);
        let mut index = CommunityIndex::new(&lg);
        assert_eq!((index.dense(4), index.dense(7)), (0, 3));
        assert_eq!(
            (index.dense(11), index.dense(2), index.dense(11)),
            (4, 5, 4)
        );
        assert_eq!((index.num_dense(), index.num_remote()), (6, 2));
        for (d, c) in [(0, 4), (3, 7), (4, 11), (5, 2)] {
            assert_eq!(index.global(d), c);
            assert_eq!(index.remote_slot(d), d.checked_sub(4));
        }
        // Translating refreshed slots renumbers exactly those that
        // changed, and reports them; the first fill reports nothing.
        let mut dense = Vec::new();
        let mut changed = Vec::new();
        index.translate(&[11, 5, 2], &mut dense, |s, old, new| {
            changed.push((s, old, new))
        });
        assert_eq!(dense, [4, 1, 5]);
        assert!(changed.is_empty());
        index.translate(&[11, 9, 6], &mut dense, |s, old, new| {
            changed.push((s, old, new))
        });
        assert_eq!(dense, [4, 6, 2]);
        assert_eq!(changed, [(1, 1, 6), (2, 5, 2)]);
        assert_eq!(index.remote_global(2), 9);
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let g = ring(8);
        let parts = scatter_for(1, &g);
        let out = run(1, |c| {
            let layer = GhostLayer::build(c, &parts[0]);
            let mut vals = vec![7u64; 3];
            layer.refresh(c, &[0u64; 8], &mut vals);
            let shape = (layer.num_ghosts(), vals.len(), layer.neighbor_ranks().len());
            // The slot → arc index holds nothing, not even a start array,
            // and no row is flagged.
            (shape, reverse_index_bytes(layer))
        });
        assert_eq!(out[0], ((0, 0, 0), 0));
    }

    /// At p = 1 a vertex's local index is its id: the layer's targets
    /// are the graph's own destination array, not a copy, and its gauge
    /// does not grow with the arc count. At p = 2 each rank relabels.
    #[test]
    fn a_single_rank_borrows_the_graphs_rows_as_its_targets() {
        let n = 64;
        let mut dense = EdgeList::new(n);
        for v in 0..n {
            for k in 1..=16 {
                dense.push(v, (v + k) % n, 1.0);
            }
        }
        let (sparse, dense) = (ring(n), Csr::from_edge_list(dense));
        assert!(dense.num_arcs() >= 16 * sparse.num_arcs());
        let bytes: Vec<u64> = [&sparse, &dense]
            .into_iter()
            .map(|g| {
                let parts = scatter_for(1, g);
                run(1, |c| {
                    let layer = GhostLayer::build(c, &parts[0]);
                    let dests = parts[0].csr_parts().1;
                    assert!(std::ptr::eq(layer.targets(), dests));
                    assert!(std::ptr::eq(dests, g.dests()));
                    layer.approx_bytes()
                })[0]
            })
            .collect();
        assert_eq!(bytes[0], bytes[1]);
        assert!(bytes[0] < sparse.num_arcs() as u64, "{bytes:?}");
        let parts = scatter_for(2, &dense);
        run(2, |c| {
            let layer = GhostLayer::build(c, &parts[c.rank()]);
            assert!(!std::ptr::eq(
                layer.targets(),
                parts[c.rank()].csr_parts().1
            ));
        });
    }

    /// What the slot → arc index and the ghost-row flags add to the
    /// `mem.ghost_bytes` gauge.
    fn reverse_index_bytes(mut layer: GhostLayer) -> u64 {
        let with = layer.approx_bytes();
        layer.into_start = Vec::new();
        layer.arcs_into = Vec::new();
        layer.has_ghost_arcs = Vec::new();
        with - layer.approx_bytes()
    }

    #[test]
    fn repeated_refreshes_track_changing_values() {
        let g = ring(8);
        let parts = scatter_for(2, &g);
        let out = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let mut results = Vec::new();
            let mut ghost_vals = Vec::new();
            for round in 0..3u64 {
                let local_vals: Vec<u64> = (0..lg.num_local())
                    .map(|l| round * 100 + lg.to_global(l))
                    .collect();
                layer.refresh(c, &local_vals, &mut ghost_vals);
                results.push(ghost_vals.clone());
            }
            results
        });
        // Rank 0 on an 8-ring owns 0..4, ghosts are 7 and 4.
        let r0 = &out[0];
        for round in 0..3u64 {
            assert!(r0[round as usize].contains(&(round * 100 + 7)));
            assert!(r0[round as usize].contains(&(round * 100 + 4)));
        }
    }
}
