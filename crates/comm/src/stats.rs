//! Per-rank communication accounting.
//!
//! Every `Comm` method updates these counters; experiment harnesses read
//! them to report communication volume, and the α-β [`crate::CostModel`]
//! is evaluated over them at report time.
//!
//! The counters themselves — [`StatsSnapshot`], its one `counter_table!`
//! and [`CommStep`] — are plain data and live in `louvain-obs`, beside
//! the report that carries them; this module re-exports them and keeps
//! the live recorder.

use std::cell::{Cell, RefCell};

pub use louvain_obs::{CommStep, StatsSnapshot, NUM_COMM_STEPS};

/// Live per-rank counters. Each rank owns its `CommStats` exclusively
/// (interior mutability keeps the `Comm` API `&self`).
#[derive(Debug, Default)]
pub struct CommStats {
    table: RefCell<StatsSnapshot>,
    /// Which algorithmic step subsequent traffic is attributed to.
    step: Cell<CommStep>,
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

    #[test]
    fn absorb_adds_every_word_of_the_table() {
        let mut full = StatsSnapshot::default();
        for (i, w) in full.words_mut().enumerate() {
            *w = 1_000 + i as u64;
        }
        let live = CommStats::default();
        live.absorb(&full);
        assert!(live.snapshot().words().eq(full.words()));
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
