//! Per-rank communication accounting.
//!
//! Every `Comm` method updates these counters; experiment harnesses read
//! them to report communication volume, and the α-β [`crate::CostModel`]
//! is evaluated over them at report time (the HPCToolkit-style breakdown
//! of Section V-A of the paper is derived from exactly these numbers).
//!
//! The counters are named once, in the [`counter_table!`] invocation
//! below. A snapshot can be walked word by word in that order, and
//! everything that treats the counters alike — summing across ranks,
//! re-absorbing a checkpoint, phase deltas, equality, the checkpoint
//! stats block — is written against the walk.

use std::cell::{Cell, RefCell};

/// The algorithmic step traffic is attributed to. The distributed
/// Louvain iteration has four communication steps per sweep (ghost
/// community refresh, remote-community a_c pull, delta push to owners,
/// and the modularity reduction); checkpoint manifest gathers land in
/// `Checkpoint`; everything else (setup, graph rebuild, result
/// gathering) lands in `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommStep {
    GhostRefresh,
    CommunityPull,
    DeltaPush,
    Reduction,
    Checkpoint,
    #[default]
    Other,
}

/// Number of [`CommStep`] variants (array-indexed counters).
pub const NUM_COMM_STEPS: usize = 6;

impl CommStep {
    pub const ALL: [CommStep; NUM_COMM_STEPS] = [
        CommStep::GhostRefresh,
        CommStep::CommunityPull,
        CommStep::DeltaPush,
        CommStep::Reduction,
        CommStep::Checkpoint,
        CommStep::Other,
    ];

    /// Position in [`CommStep::ALL`] and in every per-step array.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            CommStep::GhostRefresh => "ghost_refresh",
            CommStep::CommunityPull => "community_pull",
            CommStep::DeltaPush => "delta_push",
            CommStep::Reduction => "reduction",
            CommStep::Checkpoint => "checkpoint",
            CommStep::Other => "other",
        }
    }

    /// Inverse of [`CommStep::label`] (used by the fault-plan DSL).
    pub fn from_label(label: &str) -> Option<CommStep> {
        CommStep::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// Declares [`StatsSnapshot`] from the one list of counters: scalars,
/// then per-[`CommStep`] arrays. Every field is a `u64` that sums.
macro_rules! counter_table {
    (
        scalars { $($(#[$sdoc:meta])* $s:ident,)* }
        per_step { $($(#[$adoc:meta])* $a:ident,)* }
    ) => {
        /// One rank's counters as plain data, summable across ranks.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct StatsSnapshot {
            $($(#[$sdoc])* pub $s: u64,)*
            $($(#[$adoc])* pub $a: [u64; NUM_COMM_STEPS],)*
        }

        impl StatsSnapshot {
            /// Every counter in table order (arrays in step order).
            pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
                std::iter::empty()$(.chain([self.$s]))*$(.chain(self.$a))*
            }

            /// The same walk, writable.
            pub fn words_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                std::iter::empty()$(.chain([&mut self.$s]))*$(.chain(&mut self.$a))*
            }
        }
    };
}

counter_table! {
    scalars {
        p2p_messages,
        p2p_bytes,
        collective_calls,
        collective_bytes,
        /// Injected-fault events on this sender (zero in clean runs).
        fault_drops,
        fault_delays,
        fault_duplicates,
        fault_truncations,
        /// Retransmissions performed to survive drops/truncations.
        fault_retries,
        /// Injected stalls (straggler simulation) served by this rank.
        fault_stalls,
        /// Flaky-burst drops (consecutive-failure windows) on this sender.
        fault_bursts,
        /// Payload corruptions injected on this sender.
        fault_corruptions,
        /// Envelopes this rank rejected at intake on a checksum mismatch.
        checksum_rejects,
        /// Watchdog ladder events on this rank's blocked waits.
        wd_timeouts,
        wd_retries,
        wd_stragglers,
        /// Total time this rank slept in retry/watchdog backoff.
        backoff_nanos,
    }
    per_step {
        /// Messages/calls per step, indexed by `CommStep::index()`.
        step_messages,
        /// Bytes per step.
        step_bytes,
        /// Retries (retransmissions + watchdog deadline extensions) per
        /// step, charged when the retry happens so a panic mid-step
        /// cannot lose them (the contract of `Comm::with_step`).
        step_retries,
        /// Idle wall nanoseconds blocked in receives and collective
        /// fill-waits per step. Excluded from equality.
        step_wait_nanos,
    }
}

/// Equality over the *deterministic* counters only. `step_wait_nanos`
/// is wall-clock derived — two bit-identical runs block for different
/// real durations — and the determinism/parity tests compare snapshots
/// wholesale.
impl PartialEq for StatsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        let timeless = |s: &Self| Self {
            step_wait_nanos: [0; NUM_COMM_STEPS],
            ..*s
        };
        timeless(self).words().eq(timeless(other).words())
    }
}

impl StatsSnapshot {
    /// Add every counter of `other` (another rank, or an earlier leg of
    /// the same run).
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.words_mut().zip(other.words()) {
            *mine += theirs;
        }
    }

    /// What was counted after `earlier`, a previous snapshot of the
    /// same rank.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut delta = *self;
        for (mine, theirs) in delta.words_mut().zip(earlier.words()) {
            *mine -= theirs;
        }
        delta
    }

    /// Bytes attributed to one algorithmic step.
    pub fn step_bytes_for(&self, step: CommStep) -> u64 {
        self.step_bytes[step.index()]
    }

    /// Messages/calls attributed to one algorithmic step.
    pub fn step_messages_for(&self, step: CommStep) -> u64 {
        self.step_messages[step.index()]
    }

    /// Idle blocked nanoseconds attributed to one algorithmic step.
    pub fn step_wait_nanos_for(&self, step: CommStep) -> u64 {
        self.step_wait_nanos[step.index()]
    }

    /// Total idle blocked nanoseconds across all steps.
    pub fn wait_nanos_total(&self) -> u64 {
        self.step_wait_nanos.iter().sum()
    }
}

/// Live per-rank counters. Each rank owns its `CommStats` exclusively
/// (interior mutability keeps the `Comm` API `&self`).
#[derive(Debug, Default)]
pub struct CommStats {
    table: RefCell<StatsSnapshot>,
    /// Which algorithmic step subsequent traffic is attributed to.
    step: Cell<CommStep>,
    /// This rank's Lamport clock: gives every sent envelope a
    /// per-src-unique stamp for matching send/recv trace events into
    /// cross-rank happens-before edges. A clock, not a counter, so not
    /// in the table.
    lamport: Cell<u64>,
}

impl CommStats {
    /// Set the step label that subsequent traffic is attributed to;
    /// returns the previous label so callers can scope and restore.
    pub fn set_step(&self, step: CommStep) -> CommStep {
        self.step.replace(step)
    }

    /// The step currently being attributed.
    pub fn current_step(&self) -> CommStep {
        self.step.get()
    }

    /// Copy of the counters (for aggregation across ranks).
    pub fn snapshot(&self) -> StatsSnapshot {
        *self.table.borrow()
    }

    /// Fold a checkpointed snapshot back into the live counters, so a
    /// resumed run's totals are cumulative (pre-crash + post-resume)
    /// and per-step byte sums still reconcile.
    pub fn absorb(&self, base: &StatsSnapshot) {
        self.table.borrow_mut().merge(base);
    }

    /// Update the table, given the current step's slot in the per-step
    /// arrays.
    pub(crate) fn count(&self, f: impl FnOnce(&mut StatsSnapshot, usize)) {
        f(&mut self.table.borrow_mut(), self.step.get().index());
    }

    pub(crate) fn record_p2p(&self, nmsgs: u64, bytes: u64) {
        self.count(|t, step| {
            t.p2p_messages += nmsgs;
            t.p2p_bytes += bytes;
            t.step_messages[step] += nmsgs;
            t.step_bytes[step] += bytes;
        });
    }

    pub(crate) fn record_collective(&self, bytes: u64) {
        self.count(|t, step| {
            t.collective_calls += 1;
            t.collective_bytes += bytes;
            t.step_messages[step] += 1;
            t.step_bytes[step] += bytes;
        });
    }

    pub(crate) fn record_fault(&self, kind: crate::fault::FaultKind) {
        use crate::fault::FaultKind;
        self.count(|t, _| {
            *match kind {
                FaultKind::Drop => &mut t.fault_drops,
                FaultKind::Delay => &mut t.fault_delays,
                FaultKind::Duplicate => &mut t.fault_duplicates,
                FaultKind::Truncate => &mut t.fault_truncations,
                FaultKind::Stall => &mut t.fault_stalls,
                FaultKind::FlakyBurst => &mut t.fault_bursts,
                FaultKind::CorruptPayload => &mut t.fault_corruptions,
            } += 1;
        });
    }

    pub(crate) fn record_retry(&self) {
        self.count(|t, step| {
            t.fault_retries += 1;
            t.step_retries[step] += 1;
        });
    }

    /// Advance the Lamport clock for a send; returns the envelope stamp.
    pub(crate) fn tick_lamport(&self) -> u64 {
        let next = self.lamport.get() + 1;
        self.lamport.set(next);
        next
    }

    /// Fold a received stamp into the clock (`max(local, remote) + 1`).
    pub(crate) fn fold_lamport(&self, remote: u64) {
        self.lamport.set(self.lamport.get().max(remote) + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::default();
        s.record_p2p(1, 100);
        s.record_p2p(1, 50);
        s.record_collective(8);
        let snap = s.snapshot();
        assert_eq!(snap.p2p_messages, 2);
        assert_eq!(snap.p2p_bytes, 150);
        assert_eq!(snap.collective_calls, 1);
        assert_eq!(snap.collective_bytes, 8);
    }

    #[test]
    fn step_attribution_follows_set_step() {
        let s = CommStats::default();
        s.record_p2p(1, 100);
        let prev = s.set_step(CommStep::GhostRefresh);
        assert_eq!(prev, CommStep::Other);
        s.record_p2p(3, 300);
        s.set_step(CommStep::Reduction);
        s.record_collective(8);
        s.set_step(prev);
        let snap = s.snapshot();
        assert_eq!(snap.step_bytes_for(CommStep::Other), 100);
        assert_eq!(snap.step_bytes_for(CommStep::GhostRefresh), 300);
        assert_eq!(snap.step_messages_for(CommStep::GhostRefresh), 3);
        assert_eq!(snap.step_bytes_for(CommStep::Reduction), 8);
        assert_eq!(
            snap.step_bytes.iter().sum::<u64>(),
            snap.p2p_bytes + snap.collective_bytes
        );
    }

    /// A snapshot whose every word differs: a walker that skips or
    /// repeats a field cannot preserve it.
    fn distinct() -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (i, w) in s.words_mut().enumerate() {
            *w = 1_000 + i as u64;
        }
        s
    }

    #[test]
    fn every_field_survives_the_walk_absorb_merge_and_since() {
        let full = distinct();
        let words: Vec<u64> = full.words().collect();
        assert_eq!(
            words,
            (1_000..1_000 + words.len() as u64).collect::<Vec<_>>()
        );
        // The walk starts at the table's first field and covers the
        // whole struct, so a field added to the table is walked too.
        assert_eq!(full.p2p_messages, 1_000);
        assert_eq!(
            words.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<StatsSnapshot>()
        );

        let live = CommStats::default();
        live.absorb(&full);
        assert!(live.snapshot().words().eq(full.words()));

        let mut twice = full;
        twice.merge(&full);
        assert!(twice.words().eq(words.iter().map(|w| 2 * w)));
        assert!(twice.since(&full).words().eq(full.words()));
    }

    #[test]
    fn equality_ignores_only_the_wall_clock_wait_field() {
        let full = distinct();
        let mut other = full;
        other.step_wait_nanos = [0; NUM_COMM_STEPS];
        assert_eq!(full, other);
        for i in 0..full.words().count() {
            let mut bumped = full;
            *bumped.words_mut().nth(i).unwrap() += 1;
            let only_wait_differs = bumped.step_wait_nanos != full.step_wait_nanos;
            assert_eq!(full == bumped, only_wait_differs, "word {i}");
        }
    }

    #[test]
    fn lamport_clock_ticks_and_folds() {
        let s = CommStats::default();
        assert_eq!(s.tick_lamport(), 1);
        assert_eq!(s.tick_lamport(), 2);
        // Receiving a stamp from the future jumps past it.
        s.fold_lamport(10);
        assert_eq!(s.tick_lamport(), 12);
        // Receiving a stale stamp still advances.
        s.fold_lamport(3);
        assert_eq!(s.tick_lamport(), 14);
    }

    #[test]
    fn absorb_restores_cumulative_totals() {
        // A "crashed" attempt's counters...
        let before = CommStats::default();
        before.set_step(CommStep::GhostRefresh);
        before.record_p2p(1, 100);
        before.count(|t, step| t.step_wait_nanos[step] += 500);
        before.set_step(CommStep::Checkpoint);
        before.record_collective(8);
        let cut = before.snapshot();

        // ...absorbed by the resumed attempt after its own traffic.
        let s = CommStats::default();
        s.set_step(CommStep::Reduction);
        s.record_collective(16);
        s.set_step(CommStep::GhostRefresh);
        s.count(|t, step| t.step_wait_nanos[step] += 100);
        s.absorb(&cut);
        let after = s.snapshot();
        assert_eq!(after.p2p_bytes, 100);
        assert_eq!(after.collective_bytes, 24);
        assert_eq!(after.step_bytes_for(CommStep::GhostRefresh), 100);
        assert_eq!(after.step_bytes_for(CommStep::Checkpoint), 8);
        assert_eq!(after.step_bytes_for(CommStep::Reduction), 16);
        assert_eq!(after.step_wait_nanos_for(CommStep::GhostRefresh), 600);
        assert_eq!(after.wait_nanos_total(), 600);
        assert_eq!(
            after.step_bytes.iter().sum::<u64>(),
            after.p2p_bytes + after.collective_bytes
        );
    }
}
