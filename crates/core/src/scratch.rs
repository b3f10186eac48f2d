//! Reusable per-phase scratch buffers for the iteration hot loop.
//!
//! [`louvain_phase`](crate::iteration::louvain_phase) runs the paper's
//! four communication steps dozens of times per phase. The seed
//! implementation allocated every intermediate — the community snapshot,
//! the request/reply vectors of the a_c pull, the delta message buffers,
//! the per-thread neighbor-weight maps — from scratch on every iteration.
//! [`IterScratch`] owns all of them for the lifetime of a phase: buffers
//! are cleared between uses (which keeps their capacity) instead of
//! reallocated, and vectors that cross the simulated wire are reclaimed
//! from the receive side of the same collective (see [`reclaim`]), so
//! after the first iteration the steady state performs no allocation at
//! all on the exchange path.
//!
//! Everything keyed by a community is indexed by the phase's dense
//! community numbering ([`crate::ghost::CommunityIndex`]): the sweep and
//! the steps around it index arrays, they never hash. A vertex's gather
//! is a [`DenseMap`], which lives in `louvain-graph` so Grappolo's
//! gather shares it; its first touch is branch-free, because about half
//! the arcs a gather reads touch a new community and a branch on it
//! would mispredict on every other arc. The remote communities' pulled
//! and moved state is one [`RemoteTable`] by remote slot, so a remote
//! candidate costs one read (DESIGN.md §11, "Dense per-phase layout").

use std::sync::{Mutex, MutexGuard};

use louvain_graph::{DenseMap, VertexId, Weight};

use crate::ghost::{CommunityDelta, PullBufs};

/// One remote community's entry in [`RemoteTable`]: `a_c` and size as of
/// this iteration's pull, and what this rank's applied moves have added
/// to them since.
#[derive(Debug, Clone, Copy, Default)]
struct RemoteCommunity {
    a: Weight,
    size: u64,
    da: Weight,
    ds: i64,
}

/// Slot flags of [`RemoteTable`].
const KEYED: u8 = 1;
const TOUCHED: u8 = 2;

/// The phase's remote-community state, one entry per remote slot
/// ([`crate::ghost::CommunityIndex::remote_slot`]): Step 2 keys the
/// slots to pull and fills them, the sweep's applies add their
/// `(±k_v, ±1)` to them, and a score reads the sum from one entry. A
/// slot not keyed this iteration reads `(0, 0)` plus its deltas.
#[derive(Debug, Default)]
pub struct RemoteTable {
    slots: Vec<RemoteCommunity>,
    /// `KEYED` and `TOUCHED` bits of each slot.
    flags: Vec<u8>,
    /// Slots keyed this iteration, in key order: the pull's requests.
    keyed: Vec<u32>,
    /// Slots a move applied to since the last push, in first-apply
    /// order: the push's messages.
    touched: Vec<u32>,
}

impl RemoteTable {
    /// Accept remote slots `0..remote`; the table only grows.
    pub fn cover(&mut self, remote: usize) {
        if self.slots.len() < remote {
            self.slots.resize(remote, RemoteCommunity::default());
            self.flags.resize(remote, 0);
        }
    }

    /// Forget the last pull: every keyed slot reads `(0, 0)` again.
    pub fn clear_keys(&mut self) {
        for &r in &self.keyed {
            let s = &mut self.slots[r as usize];
            (s.a, s.size) = (0.0, 0);
            self.flags[r as usize] &= !KEYED;
        }
        self.keyed.clear();
    }

    #[inline]
    pub fn is_keyed(&self, r: u32) -> bool {
        self.flags[r as usize] & KEYED != 0
    }

    /// Add slot `r` to this iteration's pull, once.
    #[inline]
    pub fn key(&mut self, r: u32) {
        let f = &mut self.flags[r as usize];
        if *f & KEYED == 0 {
            *f |= KEYED;
            self.keyed.push(r);
        }
    }

    /// The slots keyed this iteration, in key order.
    pub fn keyed(&self) -> &[u32] {
        &self.keyed
    }

    /// Store the pulled `(a_c, size)` of keyed slot `r`.
    pub fn set_pulled(&mut self, r: u32, (a, size): (Weight, u64)) {
        debug_assert!(self.is_keyed(r), "pulled slot {r} was not keyed");
        let s = &mut self.slots[r as usize];
        (s.a, s.size) = (a, size);
    }

    /// `a_c` and size of slot `r` as this rank sees them: the pull plus
    /// its own applied moves.
    #[inline]
    pub fn view(&self, r: u32) -> (Weight, u64) {
        let s = &self.slots[r as usize];
        (s.a + s.da, (s.size as i64 + s.ds).max(0) as u64)
    }

    /// One applied move's change to slot `r`.
    #[inline]
    pub fn apply(&mut self, r: u32, da: Weight, ds: i64) {
        let s = &mut self.slots[r as usize];
        s.da += da;
        s.ds += ds;
        let f = &mut self.flags[r as usize];
        if *f & TOUCHED == 0 {
            *f |= TOUCHED;
            self.touched.push(r);
        }
    }

    /// `(slot, Δa_c, Δsize)` of every touched slot, in first-apply order.
    pub fn deltas(&self) -> impl Iterator<Item = (u32, Weight, i64)> + '_ {
        (self.touched.iter()).map(|&r| (r, self.slots[r as usize].da, self.slots[r as usize].ds))
    }

    /// Zero the deltas once they are pushed.
    pub fn clear_deltas(&mut self) {
        for &r in &self.touched {
            let s = &mut self.slots[r as usize];
            (s.da, s.ds) = (0.0, 0);
            self.flags[r as usize] &= !TOUCHED;
        }
        self.touched.clear();
    }

    /// Bytes held, from capacities.
    pub fn approx_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<RemoteCommunity>()
            + self.flags.capacity()
            + (self.keyed.capacity() + self.touched.capacity()) * 4) as u64
    }
}

/// What one sweep driver accumulated, merged into the iteration's total
/// after the sweep.
#[derive(Debug, Default)]
pub struct SweepAcc {
    /// Change to this rank's Σe_in the applied moves made, summed in
    /// apply order.
    pub e_in: Weight,
    pub moves: u64,
    pub edges: u64,
    pub vertices: u64,
}

impl SweepAcc {
    /// Fold `other` into `self`, leaving `other` empty for the next sweep.
    pub fn absorb(&mut self, other: &mut SweepAcc) {
        self.e_in += other.e_in;
        self.moves += other.moves;
        self.edges += other.edges;
        self.vertices += other.vertices;
        other.clear();
    }

    pub fn clear(&mut self) {
        self.e_in = 0.0;
        (self.moves, self.edges, self.vertices) = (0, 0, 0);
    }
}

/// One sweep worker's private state, alive for the whole phase: worker
/// `w` of the pool is the only thread that ever locks slot `w`.
#[derive(Debug, Default)]
pub struct SweepWorker {
    /// Edge weight from the vertex being scored toward each neighbouring
    /// community (dense index); clear between vertices.
    pub weights: DenseMap<Weight>,
    /// Moves `(local vertex, target community, Σe_in change)` this
    /// worker decided in the current colour batch, drained by the apply
    /// step.
    pub moves: Vec<(u32, u32, Weight)>,
    pub acc: SweepAcc,
}

/// Per-phase arena of reusable iteration buffers.
pub struct IterScratch {
    /// Community snapshot (global ids) taken immediately before each
    /// ghost exchange.
    pub comm_snapshot: Vec<VertexId>,
    /// Per-vertex ET activity flags for the current iteration.
    pub active: Vec<bool>,
    /// Global ids of the remote communities whose `a_c` is pulled this
    /// iteration, in [`RemoteTable::keyed`] order, as they go on the wire.
    pub needed: Vec<VertexId>,
    /// Step 2's inactive local vertices whose remote community was not
    /// yet keyed when its first pass met them: their rows are scanned
    /// last.
    pub deferred: Vec<u32>,
    /// Request and keyed `(community, (a_c, size))` reply buffers of the
    /// a_c pull.
    pub pull: PullBufs<(Weight, u64)>,
    /// The vertex ids swept in the current iteration, in sweep order.
    pub sweep_vertices: Vec<usize>,
    /// Per-destination-rank delta messages for the owner push.
    pub delta_msgs: Vec<Vec<CommunityDelta>>,
    /// Per-color conflict-free batches of the colored sweep schedule,
    /// rebuilt (cleared, capacities kept) every iteration it runs.
    pub batches: Vec<Vec<usize>>,
    /// One slot per pool worker.
    pub workers: Vec<Mutex<SweepWorker>>,
    /// The current iteration's merged sweep result.
    pub acc: SweepAcc,
}

impl IterScratch {
    /// Arena for a rank with `nlocal` vertices swept by `workers` threads.
    pub fn new(nlocal: usize, workers: usize) -> Self {
        Self {
            comm_snapshot: Vec::with_capacity(nlocal),
            active: Vec::with_capacity(nlocal),
            needed: Vec::new(),
            deferred: Vec::new(),
            pull: PullBufs::default(),
            sweep_vertices: Vec::with_capacity(nlocal),
            delta_msgs: Vec::new(),
            batches: Vec::new(),
            workers: (0..workers).map(|_| Mutex::default()).collect(),
            acc: SweepAcc::default(),
        }
    }

    /// Size every worker's gather for `communities` dense indices.
    /// Called once per iteration, before the sweep; a no-op unless the
    /// rank saw a new remote community since.
    pub fn cover(&mut self, communities: usize) {
        for w in &mut self.workers {
            let w = w.get_mut().expect("a sweep worker panicked");
            debug_assert!(w.weights.is_clear(), "a sweep left its table dirty");
            w.weights.cover(communities);
        }
    }

    /// Approximate resident bytes of the arena, from buffer *capacities*
    /// (not lengths): buffers only grow within a phase, so sampling at
    /// phase end yields the arena's high-water mark for the
    /// `mem.scratch_bytes` gauge.
    pub fn approx_bytes(&self) -> u64 {
        fn nested<T>(v: &[Vec<T>]) -> u64 {
            v.iter().map(flat_bytes).sum()
        }
        let workers: u64 = (self.workers.iter())
            .map(|w| {
                let w = lock_worker(w);
                w.weights.approx_bytes() + flat_bytes(&w.moves)
            })
            .sum();
        flat_bytes(&self.comm_snapshot)
            + flat_bytes(&self.active)
            + flat_bytes(&self.needed)
            + flat_bytes(&self.deferred)
            + nested(&self.pull.requests)
            + nested(&self.pull.replies)
            + flat_bytes(&self.sweep_vertices)
            + nested(&self.delta_msgs)
            + nested(&self.batches)
            + workers
    }
}

fn flat_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// Lock a worker slot. Uncontended by construction; poisoned only if a
/// sweep worker panicked, which has already failed the run.
pub fn lock_worker(w: &Mutex<SweepWorker>) -> MutexGuard<'_, SweepWorker> {
    w.lock().expect("a sweep worker panicked")
}

/// Reclaim the vectors received from one collective as the send buffers
/// of the next: `dst` takes ownership of `used`'s (cleared) allocations.
/// Exchange patterns are near-symmetric round over round, so the
/// capacities stay warm.
pub fn reclaim<T>(dst: &mut Vec<Vec<T>>, mut used: Vec<Vec<T>>) {
    for b in &mut used {
        b.clear();
    }
    *dst = used;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_map_keeps_first_touch_order_and_clears_by_its_entries() {
        let mut m: DenseMap<Weight> = DenseMap::default();
        m.cover(8);
        assert!(m.is_clear());
        *m.entry(5) += 1.5;
        *m.entry(2) += 1.0;
        *m.entry(5) += 0.25;
        // Presence is exact: a zero sum is still an entry.
        *m.entry(7) += 0.0;
        assert_eq!(m.entries(), &[(5, 1.75), (2, 1.0), (7, 0.0)]);
        assert_eq!(m.get(7), Some(0.0));
        assert_eq!(m.get(0), None);
        m.clear();
        assert!(m.is_clear());
        // Growing keeps what is there and zero-fills the tail.
        *m.entry(1) += 2.0;
        m.cover(16);
        assert_eq!(m.get(1), Some(2.0));
        assert_eq!(m.get(15), None);
    }

    /// Seeded random `entry` / `get` / `clear` / `cover` sequences against
    /// a model (first-touch key list plus a `HashMap`), each from an empty
    /// table so the buffer's cold grow runs several times.
    #[test]
    fn dense_map_matches_a_reference_model() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::collections::HashMap;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut keys = rng.random_range(1..64u32);
            let mut m: DenseMap<Weight> = DenseMap::default();
            m.cover(keys as usize);
            let (mut order, mut sums) = (Vec::new(), HashMap::new());
            for _ in 0..600 {
                match rng.random_range(0..100u32) {
                    0..=69 => {
                        // Repeats, the last key of the range, `+= 0.0`.
                        let k = match rng.random_range(0..4u32) {
                            0 => keys - 1,
                            1 => order.last().copied().unwrap_or(0),
                            _ => rng.random_range(0..keys),
                        };
                        let w = [0.0, 1.0, 0.5, -2.25][rng.random_range(0..4usize)];
                        *m.entry(k) += w;
                        *sums.entry(k).or_insert_with(|| {
                            order.push(k);
                            0.0
                        }) += w;
                    }
                    70..=89 => {
                        let k = rng.random_range(0..keys);
                        assert_eq!(m.get(k), sums.get(&k).copied(), "seed {seed} key {k}");
                    }
                    90..=95 => {
                        m.clear();
                        (order, sums) = (Vec::new(), HashMap::new());
                        assert!(m.is_clear(), "seed {seed}");
                    }
                    _ => {
                        keys += rng.random_range(0..32u32);
                        m.cover(keys as usize);
                    }
                }
                let model: Vec<(u32, Weight)> = order.iter().map(|k| (*k, sums[k])).collect();
                assert_eq!(m.entries(), &model[..], "seed {seed}");
            }
        }
    }

    #[test]
    fn absorb_merges_and_empties_the_source() {
        let mut total = SweepAcc::default();
        let mut part = SweepAcc {
            e_in: 4.0,
            moves: 2,
            edges: 10,
            vertices: 3,
        };
        total.e_in = -1.0;
        total.absorb(&mut part);
        assert_eq!(total.e_in, 3.0);
        assert_eq!((total.moves, total.edges, total.vertices), (2, 10, 3));
        assert_eq!(part.e_in, 0.0);
        assert_eq!((part.moves, part.edges, part.vertices), (0, 0, 0));
    }

    #[test]
    fn remote_table_views_the_pull_plus_the_applies() {
        let mut t = RemoteTable::default();
        t.cover(4);
        t.key(2);
        t.key(0);
        t.key(2);
        assert_eq!(t.keyed(), &[2, 0]);
        assert!(t.is_keyed(0) && !t.is_keyed(1));
        t.set_pulled(2, (5.0, 3));
        t.set_pulled(0, (1.0, 1));
        // Leave 0, join 3 (not keyed: it reads (0, 0) plus its deltas),
        // then leave 2 twice.
        t.apply(0, -1.0, -1);
        t.apply(3, 1.0, 1);
        t.apply(2, -2.0, -1);
        t.apply(2, -0.5, -1);
        assert_eq!(t.view(0), (0.0, 0));
        assert_eq!(t.view(1), (0.0, 0));
        assert_eq!(t.view(2), (2.5, 1));
        assert_eq!(t.view(3), (1.0, 1));
        // A size that the lagged pull puts below zero reads as zero.
        t.apply(1, 0.0, -1);
        assert_eq!(t.view(1), (0.0, 0));
        let pushed: Vec<_> = t.deltas().collect();
        assert_eq!(
            pushed,
            [(0, -1.0, -1), (3, 1.0, 1), (2, -2.5, -2), (1, 0.0, -1)]
        );
        t.clear_deltas();
        assert_eq!(t.deltas().count(), 0);
        assert_eq!(t.view(2), (5.0, 3));
        t.clear_keys();
        assert!(t.keyed().is_empty() && !t.is_keyed(2));
        assert_eq!(t.view(2), (0.0, 0));
        // Growing keeps what is there.
        t.key(1);
        t.set_pulled(1, (7.0, 2));
        t.cover(64);
        assert_eq!(t.view(1), (7.0, 2));
        assert_eq!(t.view(63), (0.0, 0));
    }

    #[test]
    fn approx_bytes_counts_the_worker_tables() {
        let mut s = IterScratch::new(8, 2);
        let before = s.approx_bytes();
        s.cover(1000);
        // Two weight tables over 1000 communities.
        assert!(s.approx_bytes() >= before + 2 * 4000);
        let mut t = RemoteTable::default();
        t.cover(100);
        assert!(t.approx_bytes() >= 100 * 33);
    }

    #[test]
    fn reclaim_clears_and_keeps_allocations() {
        let mut dst: Vec<Vec<u64>> = vec![Vec::new(); 2];
        let used = vec![vec![1, 2, 3], vec![4]];
        reclaim(&mut dst, used);
        assert_eq!(dst.len(), 2);
        assert!(dst.iter().all(|b| b.is_empty()));
        assert!(dst[0].capacity() >= 3);
    }
}
