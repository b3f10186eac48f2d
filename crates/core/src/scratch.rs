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
//! Everything keyed by a community is a [`DenseMap`] over the phase's
//! dense community numbering ([`crate::ghost::CommunityIndex`]): the
//! sweep and the steps around it index arrays, they never hash. The
//! table lives in `louvain-graph` so Grappolo's gather shares it, and
//! its first touch is branch-free: about half the arcs a gather reads
//! touch a new community, so a branch on it would mispredict on every
//! other arc (DESIGN.md §11, "Dense per-phase layout").

use std::sync::{Mutex, MutexGuard};

use louvain_graph::{DenseMap, VertexId, Weight};

use crate::ghost::{CommunityDelta, PullBufs};

/// What one sweep driver accumulated, merged into the iteration's total
/// after the sweep.
#[derive(Debug, Default)]
pub struct SweepAcc {
    /// `(Δa_c, Δsize)` of remote communities, keyed by
    /// [`crate::ghost::CommunityIndex::remote_slot`]; the owner push
    /// sends them in first-touch order.
    pub deltas: DenseMap<(Weight, i64)>,
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
        for &(c, (da, ds)) in other.deltas.entries() {
            let e = self.deltas.entry(c);
            e.0 += da;
            e.1 += ds;
        }
        self.e_in += other.e_in;
        self.moves += other.moves;
        self.edges += other.edges;
        self.vertices += other.vertices;
        other.clear();
    }

    pub fn clear(&mut self) {
        self.deltas.clear();
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
    /// iteration: the keys of `remote_a`, as they go on the wire.
    pub needed: Vec<VertexId>,
    /// Request and keyed `(community, (a_c, size))` reply buffers of the
    /// a_c pull.
    pub pull: PullBufs<(Weight, u64)>,
    /// `a_c` and size of remote communities (by remote slot), rebuilt
    /// every iteration.
    pub remote_a: DenseMap<(Weight, u64)>,
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
            pull: PullBufs::default(),
            remote_a: DenseMap::default(),
            sweep_vertices: Vec::with_capacity(nlocal),
            delta_msgs: Vec::new(),
            batches: Vec::new(),
            workers: (0..workers).map(|_| Mutex::default()).collect(),
            acc: SweepAcc::default(),
        }
    }

    /// Size every community-keyed table for `communities` dense indices,
    /// `remote` of them remote. Called once per iteration, before the
    /// sweep; a no-op unless the rank saw a new remote community since.
    pub fn cover(&mut self, communities: usize, remote: usize) {
        self.remote_a.cover(remote);
        self.acc.deltas.cover(remote);
        for w in &mut self.workers {
            let w = w.get_mut().expect("a sweep worker panicked");
            debug_assert!(w.weights.is_clear(), "a sweep left its table dirty");
            w.weights.cover(communities);
            w.acc.deltas.cover(remote);
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
                w.weights.approx_bytes() + flat_bytes(&w.moves) + w.acc.deltas.approx_bytes()
            })
            .sum();
        flat_bytes(&self.comm_snapshot)
            + flat_bytes(&self.active)
            + flat_bytes(&self.needed)
            + nested(&self.pull.requests)
            + nested(&self.pull.replies)
            + self.remote_a.approx_bytes()
            + flat_bytes(&self.sweep_vertices)
            + nested(&self.delta_msgs)
            + nested(&self.batches)
            + workers
            + self.acc.deltas.approx_bytes()
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
        let mut part = SweepAcc::default();
        total.deltas.cover(4);
        part.deltas.cover(4);
        *total.deltas.entry(1) = (1.0, 1);
        *part.deltas.entry(3) = (2.0, -1);
        *part.deltas.entry(1) = (0.5, 1);
        part.e_in = 4.0;
        part.moves = 2;
        part.edges = 10;
        part.vertices = 3;
        total.e_in = -1.0;
        total.absorb(&mut part);
        assert_eq!(total.deltas.entries(), &[(1, (1.5, 2)), (3, (2.0, -1))]);
        assert_eq!(total.e_in, 3.0);
        assert_eq!((total.moves, total.edges, total.vertices), (2, 10, 3));
        assert!(part.deltas.is_clear());
        assert_eq!(part.e_in, 0.0);
        assert_eq!((part.moves, part.edges, part.vertices), (0, 0, 0));
    }

    #[test]
    fn approx_bytes_counts_the_worker_tables() {
        let mut s = IterScratch::new(8, 2);
        let before = s.approx_bytes();
        s.cover(1000, 100);
        // Two weight tables over 1000 communities, four remote tables
        // over 100 (remote_a, the round's deltas, one per worker).
        assert!(s.approx_bytes() >= before + 2 * 4000 + 4 * 400);
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
