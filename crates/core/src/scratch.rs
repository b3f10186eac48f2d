//! Reusable per-phase scratch buffers for the iteration hot loop.
//!
//! [`louvain_phase`](crate::iteration::louvain_phase) runs the paper's
//! four communication steps dozens of times per phase. The seed
//! implementation allocated every intermediate — the community snapshot,
//! the request/reply vectors of the a_c pull, the delta message buffers,
//! the per-thread neighbor-weight maps — from scratch on every round.
//! [`IterScratch`] owns all of them for the lifetime of a phase: buffers
//! are cleared between uses (which keeps their capacity) instead of
//! reallocated, and vectors that cross the simulated wire are reclaimed
//! from the receive side of the same collective (see [`reclaim`]), so
//! after the first iteration the steady state performs no allocation at
//! all on the exchange path.

use std::sync::Mutex;

use louvain_graph::hash::{FastMap, FastSet};
use louvain_graph::{VertexId, Weight};

use crate::ghost::{CommunityDelta, PullBufs};

/// Per-phase arena of reusable iteration buffers. `Sync` so the parallel
/// compute sweep can check neighbor-weight maps out of the shared pool.
pub struct IterScratch {
    /// Community snapshot taken immediately before each ghost exchange.
    pub comm_snapshot: Vec<VertexId>,
    /// Per-vertex ET activity flags for the current iteration.
    pub active: Vec<bool>,
    /// Remote communities whose `a_c` must be pulled this round.
    pub needed: FastSet<VertexId>,
    /// Request and keyed `(community, (a_c, size))` reply buffers of the
    /// a_c pull.
    pub pull: PullBufs<(Weight, u64)>,
    /// `a_c` and size of remote communities, rebuilt every round.
    pub remote_a: FastMap<VertexId, (Weight, u64)>,
    /// The vertex ids swept in the current (sub-)round.
    pub round_vertices: Vec<usize>,
    /// Per-destination-rank delta messages for the owner push.
    pub delta_msgs: Vec<Vec<CommunityDelta>>,
    /// Per-color conflict-free batches of the colored sweep schedule,
    /// rebuilt (cleared, capacities kept) every round it runs.
    pub batches: Vec<Vec<usize>>,
    /// Neighbor-weight maps checked out by sweep workers (sequential or
    /// one per rayon chunk) and returned after the sweep.
    weights: Mutex<Vec<FastMap<VertexId, Weight>>>,
}

impl IterScratch {
    /// Arena for a rank with `nlocal` vertices.
    pub fn new(nlocal: usize) -> Self {
        Self {
            comm_snapshot: Vec::with_capacity(nlocal),
            active: Vec::with_capacity(nlocal),
            needed: FastSet::default(),
            pull: PullBufs::default(),
            remote_a: FastMap::default(),
            round_vertices: Vec::with_capacity(nlocal),
            delta_msgs: Vec::new(),
            batches: Vec::new(),
            weights: Mutex::new(Vec::new()),
        }
    }

    /// Check a cleared neighbor-weight map out of the pool (allocating
    /// only if the pool is dry — i.e. the first sweep of the phase).
    pub fn take_weights(&self) -> FastMap<VertexId, Weight> {
        let mut m = self
            .weights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        m.clear();
        m
    }

    /// Return a neighbor-weight map to the pool for the next sweep.
    pub fn put_weights(&self, m: FastMap<VertexId, Weight>) {
        self.weights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(m);
    }

    /// Approximate resident bytes of the arena, from buffer *capacities*
    /// (not lengths): buffers only grow within a phase, so sampling at
    /// phase end yields the arena's high-water mark for the
    /// `mem.scratch_bytes` gauge.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn flat<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        fn nested<T>(v: &[Vec<T>]) -> u64 {
            v.iter()
                .map(|b| (b.capacity() * size_of::<T>()) as u64)
                .sum()
        }
        let weights = self.weights.lock().unwrap_or_else(|e| e.into_inner());
        flat(&self.comm_snapshot)
            + flat(&self.active)
            + (self.needed.capacity() * size_of::<VertexId>()) as u64
            + nested(&self.pull.requests)
            + nested(&self.pull.replies)
            + (self.remote_a.capacity() * size_of::<(VertexId, (Weight, u64))>()) as u64
            + flat(&self.round_vertices)
            + nested(&self.delta_msgs)
            + nested(&self.batches)
            + weights
                .iter()
                .map(|m| (m.capacity() * size_of::<(VertexId, Weight)>()) as u64)
                .sum::<u64>()
    }
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
    fn weights_pool_recycles_maps() {
        let s = IterScratch::new(8);
        let mut m = s.take_weights();
        m.insert(1, 2.0);
        let cap_hint = m.capacity();
        s.put_weights(m);
        let m2 = s.take_weights();
        assert!(m2.is_empty(), "pooled map must come back cleared");
        assert!(m2.capacity() >= cap_hint.min(1));
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
