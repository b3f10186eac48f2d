//! The per-rank communicator handle.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::envelope::{Envelope, Mailbox, Senders};
use crate::fault::{FaultPlan, RankCrashed};
use crate::health::{HealthBoard, HealthConfig, RankHung, WaitCtx};
use crate::reduce::{ReduceOp, Reducible};
use crate::runtime::poisoned;
use crate::stats::{CommStats, CommStep, StatsSnapshot};

/// One rank's endpoint into the simulated job.
///
/// A `Comm` is owned by exactly one rank (thread); it is `Send` but not
/// `Sync`. All methods take `&self` — internal mutability covers the
/// mailbox and statistics.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Senders,
    mailbox: RefCell<Mailbox>,
    stats: CommStats,
    fault: Option<Arc<FaultPlan>>,
    health: HealthConfig,
    board: Arc<HealthBoard>,
    poison: Arc<AtomicBool>,
    /// Current fault epoch (the Louvain phase index, set by the runner).
    epoch: Cell<u64>,
    /// Communication operations issued so far in the current epoch.
    ops_in_epoch: Cell<u64>,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Senders,
        mailbox: Mailbox,
        fault: Option<Arc<FaultPlan>>,
        health: HealthConfig,
        board: Arc<HealthBoard>,
        poison: Arc<AtomicBool>,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            mailbox: RefCell::new(mailbox),
            stats: CommStats::default(),
            fault,
            health,
            board,
            poison,
            epoch: Cell::new(0),
            ops_in_epoch: Cell::new(0),
        }
    }

    /// Enter fault epoch `epoch` (the runner calls this with the Louvain
    /// phase index at each phase start, so crash/hang rules can address
    /// "phase k, comm op n" and [`RankHung`] reports carry the phase).
    pub fn advance_fault_epoch(&self, epoch: u64) {
        self.epoch.set(epoch);
        self.ops_in_epoch.set(0);
    }

    /// Stamp this rank's heartbeat without counting a comm op. Long
    /// local sections between comm calls (checkpoint serialization and
    /// fsync, big rebuilds) should call this so peer watchdogs keep
    /// classifying the rank as a straggler rather than hung.
    pub fn heartbeat(&self) {
        self.board.beat(self.rank);
    }

    /// Wait identity for the comm op currently in flight (ops are
    /// counted at op entry, so "current" is the last counted one).
    fn wait_ctx(&self) -> WaitCtx<'_> {
        WaitCtx {
            cfg: &self.health,
            board: &self.board,
            stats: &self.stats,
            rank: self.rank,
            phase: self.epoch.get(),
            op: self.ops_in_epoch.get().saturating_sub(1),
        }
    }

    /// Count one communication operation, heartbeat the health board,
    /// and serve any [`crate::fault::CrashRule`]/[`crate::fault::
    /// HangRule`]/stall addressed to it. Called at the top of every
    /// public comm method; two cheap stores plus an `Option` check in
    /// clean runs.
    fn fault_op_tick(&self) {
        let op = self.ops_in_epoch.get();
        self.ops_in_epoch.set(op + 1);
        self.board.beat(self.rank);
        let Some(plan) = &self.fault else { return };
        let phase = self.epoch.get();
        if plan.should_crash(self.rank, phase, op) {
            std::panic::panic_any(RankCrashed {
                rank: self.rank,
                phase,
                op,
            });
        }
        if plan.should_hang(self.rank, phase, op) {
            self.hang_injected(phase, op);
        }
        if let Some(stall) = plan.decide_stall(self.rank, self.stats.current_step(), phase, op) {
            self.stall_injected(stall);
        }
    }

    /// Serve an injected hang: go silent (no heartbeats, no messages)
    /// until a peer's watchdog declares this rank hung and poisons the
    /// job, or — in single-rank jobs, where there is no peer to notice —
    /// until the self-timeout fires, simulating an external supervisor
    /// kill. Either way the thread unwinds and the resilient driver
    /// recovers from the newest checkpoint.
    fn hang_injected(&self, phase: u64, op: u64) -> ! {
        let started = Instant::now();
        let limit = self.health.hang_self_timeout();
        loop {
            std::thread::sleep(Duration::from_millis(2));
            if self.poison.load(Ordering::Relaxed) {
                poisoned();
            }
            if started.elapsed() >= limit {
                std::panic::panic_any(RankHung {
                    rank: self.rank,
                    detector: self.rank,
                    phase,
                    op,
                    step: self.stats.current_step(),
                    waited_ms: started.elapsed().as_millis() as u64,
                });
            }
        }
    }

    /// Serve an injected stall: sleep the configured duration while
    /// *continuing to heartbeat*, so peers classify this rank as a
    /// straggler (deadline extensions), never as hung.
    fn stall_injected(&self, dur: Duration) {
        self.stats.count(|t, _| t.fault_stalls += 1);
        let started = Instant::now();
        let slice = Duration::from_millis(2).min(dur);
        while started.elapsed() < dur {
            self.board.beat(self.rank);
            if self.poison.load(Ordering::Relaxed) {
                poisoned();
            }
            std::thread::sleep(slice);
        }
        self.board.beat(self.rank);
    }

    /// Put one message in `dst`'s mailbox, heartbeating this rank's
    /// slot of the job's shared health board.
    fn deliver<T: Send + 'static>(&self, dst: usize, data: T) {
        self.board.beat(self.rank);
        let env = Envelope {
            src: self.rank,
            payload: Box::new(data),
        };
        if self.senders[dst].send(env).is_err() {
            // A failed peer drops its mailbox after poisoning the job.
            if self.poison.load(Ordering::Relaxed) {
                poisoned();
            }
            panic!("peer mailbox closed");
        }
    }

    /// Block for the next message from `src`. Every rank issues the same
    /// sequence of operations and each sender's messages arrive in send
    /// order, so the next one from `src` belongs to the current
    /// operation; a payload of another type means the ranks disagree on
    /// that sequence, a programming error.
    fn receive<T: Send + 'static>(&self, src: usize) -> T {
        let ctx = self.wait_ctx();
        let env = self.mailbox.borrow_mut().recv_matching(src, &ctx);
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src}: expected {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters recorded so far by this rank.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Attribute all traffic recorded inside `f` to the given
    /// algorithmic step, restoring the previous attribution afterwards.
    ///
    /// The restore runs from a drop guard, so a panicking closure cannot
    /// leave later traffic misattributed to `step`. When tracing is
    /// enabled the scope also records a span named after the step
    /// (category `comm`) carrying the bytes/messages/watchdog extensions
    /// charged inside it — the span args are recorded from the same drop
    /// guard, so traffic and watchdog activity that happened before a
    /// panic (e.g. a crash injected mid-collective) still lands on the
    /// span instead of being lost with the unwind.
    ///
    /// The guard also records the step's idle time as a `wait`
    /// sub-span: wall time spent blocked in a mailbox receive
    /// (straggler-bound). The step span's own `bytes` arg is
    /// the step's byte delta, so trace totals reconcile with the
    /// `CommStats` counters byte-for-byte.
    pub fn with_step<R>(&self, step: CommStep, f: impl FnOnce() -> R) -> R {
        struct Restore<'a> {
            stats: &'a CommStats,
            prev: CommStep,
            step: CommStep,
            span: louvain_obs::SpanGuard,
            before: StatsSnapshot,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                let i = self.step.index();
                let during = self.stats.snapshot().since(&self.before);
                let wait_ns = during.step_wait_nanos[i];
                self.span.arg("bytes", during.step_bytes[i]);
                self.span.arg("messages", during.step_messages[i]);
                self.span.arg("retries", during.step_retries[i]);
                self.span.arg("wait_ns", wait_ns);
                louvain_obs::complete_span(
                    "wait",
                    "comm",
                    wait_ns,
                    vec![("step", louvain_obs::ArgValue::from(self.step.label()))],
                );
                self.stats.set_step(self.prev);
            }
        }
        let prev = self.stats.set_step(step);
        let _restore = Restore {
            stats: &self.stats,
            prev,
            step,
            span: louvain_obs::span_cat(step.label(), "comm", Vec::new()),
            before: self.stats.snapshot(),
        };
        f()
    }

    // ---------------------------------------------------------------
    // Collectives
    // ---------------------------------------------------------------

    /// One scalar collective: count the op, charge `bytes` to the
    /// current step, send `value` to every peer and return every rank's
    /// contribution in rank order (this rank's own in its slot).
    fn collective<T: Clone + Send + 'static>(&self, bytes: u64, value: T) -> Vec<T> {
        self.fault_op_tick();
        self.stats.record_collective(bytes);
        for dst in (0..self.size).filter(|&dst| dst != self.rank) {
            self.deliver(dst, value.clone());
        }
        self.receive_all(value)
    }

    /// Receive one message from every peer in rank order; the result
    /// holds them by source rank, with `mine` in this rank's slot.
    fn receive_all<T: Send + 'static>(&self, mine: T) -> Vec<T> {
        let mut all: Vec<T> = (0..self.size)
            .filter(|&src| src != self.rank)
            .map(|src| self.receive(src))
            .collect();
        all.insert(self.rank, mine);
        all
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.collective(0, ());
    }

    /// Global reduction; every rank receives the combined value, folded
    /// in rank order (so every rank gets the same f64 bits).
    pub fn all_reduce<T: Reducible>(&self, value: T, op: ReduceOp) -> T {
        self.collective(T::wire_bytes(), value)
            .into_iter()
            .reduce(|a, b| T::combine(op, a, b))
            .expect("non-empty job")
    }

    /// Exclusive prefix sum: rank `i` receives the sum of the values
    /// contributed by ranks `0..i` (zero on rank 0). This is the primitive
    /// behind the global renumbering step of graph reconstruction.
    pub fn exscan_sum<T: Reducible>(&self, value: T) -> T {
        self.collective(T::wire_bytes(), value)[..self.rank]
            .iter()
            .fold(T::zero(), |a, &b| T::combine(ReduceOp::Sum, a, b))
    }

    /// Gather variable-length buffers to `root`. Returns `Some(bufs)` on
    /// the root (indexed by source rank) and `None` elsewhere.
    pub fn gather_to_root<T: Send + 'static>(
        &self,
        root: usize,
        data: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size);
        self.fault_op_tick();
        self.stats
            .record_collective((data.len() * std::mem::size_of::<T>()) as u64);
        if self.rank != root {
            self.deliver(root, data);
            return None;
        }
        Some(self.receive_all(data))
    }

    /// Irregular all-to-all: `bufs[j]` is sent to rank `j`; the result's
    /// entry `i` holds what rank `i` sent here. `bufs` must have length
    /// `size`. The self-buffer is moved, not copied through a channel.
    pub fn all_to_all_v<T: Send + 'static>(&self, mut bufs: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            bufs.len(),
            self.size,
            "all_to_all_v needs one buffer per rank"
        );
        self.fault_op_tick();
        let mine = std::mem::take(&mut bufs[self.rank]);
        let mut nmsgs = 0u64;
        let mut sent = 0u64;
        for (dst, buf) in bufs.into_iter().enumerate() {
            if dst == self.rank {
                continue;
            }
            nmsgs += 1;
            sent += (buf.len() * std::mem::size_of::<T>()) as u64;
            self.deliver(dst, buf);
        }
        self.stats.record_p2p(nmsgs, sent);
        self.receive_all(mine)
    }

    /// MPI-3-style neighborhood all-to-all (`MPI_Neighbor_alltoallv`):
    /// exchange only with a fixed, **symmetric** set of topology
    /// neighbors. `bufs[i]` goes to `neighbors[i]`; the result is aligned
    /// with `neighbors`. Every rank must call this with a consistent
    /// topology (if A lists B, B lists A) — the paper's future-work
    /// optimization for the ghost exchange, where the communication graph
    /// is fixed per phase and much sparser than all-to-all.
    ///
    /// Compared to [`Comm::all_to_all_v`], the α (per-message) cost scales
    /// with the neighbor count instead of `p−1`.
    pub fn neighbor_all_to_all_v<T: Send + 'static>(
        &self,
        neighbors: &[usize],
        bufs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        assert_eq!(
            bufs.len(),
            neighbors.len(),
            "one buffer per topology neighbor"
        );
        self.fault_op_tick();
        let mut nmsgs = 0u64;
        let mut sent = 0u64;
        for (&dst, buf) in neighbors.iter().zip(bufs) {
            assert!(dst < self.size && dst != self.rank, "bad neighbor {dst}");
            nmsgs += 1;
            sent += (buf.len() * std::mem::size_of::<T>()) as u64;
            self.deliver(dst, buf);
        }
        self.stats.record_p2p(nmsgs, sent);
        neighbors.iter().map(|&src| self.receive(src)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn with_step_restores_attribution_on_panic() {
        run(2, |comm| {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                comm.with_step(CommStep::GhostRefresh, || {
                    comm.all_reduce(1u64, ReduceOp::Sum);
                    panic!("boom inside step");
                })
            }));
            assert!(unwound.is_err());
            // The drop guard must have restored the default attribution…
            assert_eq!(comm.stats().current_step(), CommStep::Other);
            // …so traffic after the unwind lands on `Other`, not the
            // panicked step.
            let before = comm.stats().snapshot();
            comm.all_reduce(2u64, ReduceOp::Sum);
            let during = comm.stats().snapshot().since(&before);
            assert_eq!(during.step_bytes_for(CommStep::GhostRefresh), 0);
            assert!(during.step_bytes_for(CommStep::Other) > 0);
        });
    }

    #[test]
    fn with_step_nests_and_restores() {
        run(1, |comm| {
            comm.with_step(CommStep::Reduction, || {
                assert_eq!(comm.stats().current_step(), CommStep::Reduction);
                comm.with_step(CommStep::DeltaPush, || {
                    assert_eq!(comm.stats().current_step(), CommStep::DeltaPush);
                });
                assert_eq!(comm.stats().current_step(), CommStep::Reduction);
            });
            assert_eq!(comm.stats().current_step(), CommStep::Other);
        });
    }

    #[test]
    fn all_to_all_bytes_sum_across_ranks() {
        let locals = run(4, |comm| {
            // Rank r sends r+1 eight-byte values to every peer.
            let bufs: Vec<Vec<u64>> = (0..comm.size())
                .map(|_| vec![0u64; comm.rank() + 1])
                .collect();
            comm.with_step(CommStep::DeltaPush, || comm.all_to_all_v(bufs));
            comm.stats().snapshot()
        });
        let mut total = StatsSnapshot::default();
        for l in &locals {
            total.merge(l);
        }
        assert_eq!(total.p2p_messages, 4 * 3);
        // 4 ranks × 3 peers × (rank+1) u64s = 3·(1+2+3+4)·8 bytes.
        assert_eq!(total.p2p_bytes, 3 * 10 * 8);
        assert_eq!(total.step_bytes_for(CommStep::DeltaPush), 3 * 10 * 8);
    }
}
