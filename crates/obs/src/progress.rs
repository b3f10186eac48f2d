//! Live per-iteration progress streaming.
//!
//! A [`ProgressSink`] subscribes to globally-merged [`TelemetryRow`]s
//! *while the job runs*, fed by the same [`IterationRecord`]s the sweep
//! loop already produces — no extra communication. The fan-in point is
//! [`ProgressMerger`]: every rank offers its record for a
//! `(phase, iteration)` key, and once all ranks have contributed the
//! merged row (identical, field for field, to what
//! [`crate::merge_ranks`] would produce post-hoc) is pushed to the sink.
//!
//! Because the globally-reduced fields (modularity, delta-Q, moves) are
//! all-reduced before any rank records them, they are bit-identical on
//! every rank; the per-rank fields sum over exactly-once owners. A live
//! row is therefore bit-for-bit equal to the post-hoc merged row, which
//! is what the serve layer's bit-for-bit acceptance test pins.
//!
//! The merger rides on the observers a [`crate::Collector`] installs,
//! so a job without a subscriber, and a thread without an observer, pays
//! nothing for it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::telemetry::{IterationRecord, TelemetryRow};

/// Receiver of live merged telemetry rows. Implementations must be cheap
/// and non-blocking — they run on the rank thread that completed a row.
pub trait ProgressSink: Send + Sync {
    fn on_row(&self, row: &TelemetryRow);
}

impl<F: Fn(&TelemetryRow) + Send + Sync> ProgressSink for F {
    fn on_row(&self, row: &TelemetryRow) {
        self(row)
    }
}

// ---------------------------------------------------------------------------
// Rank fan-in
// ---------------------------------------------------------------------------

struct MergeState {
    /// Current execution attempt; contributions from older attempts are
    /// stale and dropped, a newer attempt clears the partial rows the
    /// crashed attempt left behind.
    attempt: u32,
    /// Rows still waiting for contributions: key → (ranks seen, partial
    /// merged row).
    pending: BTreeMap<(u64, u64), (usize, TelemetryRow)>,
    /// Keys already pushed to the sink. Recovery replays iterations
    /// bit-identically, so re-offered rows for emitted keys are skipped
    /// rather than duplicated.
    emitted: BTreeSet<(u64, u64)>,
}

/// Merges per-rank [`IterationRecord`]s into global [`TelemetryRow`]s
/// as they arrive and emits each row exactly once, as soon as every
/// rank has contributed. Shared by all rank threads of one job.
pub struct ProgressMerger {
    num_ranks: usize,
    sink: Arc<dyn ProgressSink>,
    state: Mutex<MergeState>,
}

impl ProgressMerger {
    pub fn new(num_ranks: usize, sink: Arc<dyn ProgressSink>) -> Self {
        ProgressMerger {
            num_ranks,
            sink,
            state: Mutex::new(MergeState {
                attempt: 0,
                pending: BTreeMap::new(),
                emitted: BTreeSet::new(),
            }),
        }
    }

    /// Offer one rank's record for `(rec.phase, rec.iteration)`, folded
    /// in by the same [`TelemetryRow::new`] / [`TelemetryRow::absorb`]
    /// as [`crate::merge_ranks`]. The sink runs outside the lock.
    pub fn offer(&self, rank: usize, attempt: u32, rec: &IterationRecord) {
        let key = (rec.phase, rec.iteration);
        let complete = {
            let mut st = self.state.lock().unwrap();
            if attempt > st.attempt {
                st.pending.clear();
                st.attempt = attempt;
            } else if attempt < st.attempt {
                return;
            }
            if st.emitted.contains(&key) {
                return;
            }
            let (seen, row) = st
                .pending
                .entry(key)
                .or_insert_with(|| (0, TelemetryRow::new(self.num_ranks, rec)));
            row.absorb(rank, rec);
            *seen += 1;
            if *seen == self.num_ranks {
                let (_, row) = st.pending.remove(&key).unwrap();
                st.emitted.insert(key);
                Some(row)
            } else {
                None
            }
        };
        if let Some(row) = complete {
            self.sink.on_row(&row);
        }
    }

    /// Emit every still-pending partial row, in `(phase, iteration)`
    /// order. Called once after the run completes: ranks that
    /// early-terminated out of an iteration contribute nothing to it,
    /// so such rows never reach `num_ranks` contributions — exactly the
    /// partial sums [`crate::merge_ranks`] produces for them.
    pub fn flush(&self) {
        let rows: Vec<TelemetryRow> = {
            let mut st = self.state.lock().unwrap();
            let pending = std::mem::take(&mut st.pending);
            pending
                .into_iter()
                .map(|(key, (_, row))| {
                    st.emitted.insert(key);
                    row
                })
                .collect()
        };
        for row in &rows {
            self.sink.on_row(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::telemetry::merge_ranks;

    fn rec(phase: u64, iteration: u64, active: u64, ghost: u64) -> IterationRecord {
        let mut sizes = Histogram::default();
        sizes.observe(4);
        sizes.observe(ghost.max(1));
        IterationRecord {
            phase,
            iteration,
            modularity: 0.5 + phase as f64 / 10.0 + iteration as f64 / 100.0,
            delta_q: 0.01 * (iteration as f64 + 1.0),
            moves: 7 + iteration,
            active,
            vertices: 100,
            communities: 10,
            community_sizes: sizes,
            ghost_bytes: ghost,
        }
    }

    #[derive(Default)]
    struct Capture(Mutex<Vec<TelemetryRow>>);

    impl ProgressSink for Capture {
        fn on_row(&self, row: &TelemetryRow) {
            self.0.lock().unwrap().push(row.clone());
        }
    }

    #[test]
    fn live_rows_match_post_hoc_merge_bit_for_bit() {
        let per_rank = vec![
            vec![rec(0, 0, 80, 128), rec(0, 1, 40, 64), rec(1, 0, 30, 32)],
            vec![rec(0, 0, 90, 256), rec(0, 1, 45, 96), rec(1, 0, 35, 16)],
        ];
        let cap = Arc::new(Capture::default());
        let merger = ProgressMerger::new(2, cap.clone());
        // Interleave ranks out of order, as real threads would.
        merger.offer(0, 0, &per_rank[0][0]);
        merger.offer(1, 0, &per_rank[1][0]);
        merger.offer(1, 0, &per_rank[1][1]);
        merger.offer(0, 0, &per_rank[0][2]);
        merger.offer(0, 0, &per_rank[0][1]);
        merger.offer(1, 0, &per_rank[1][2]);
        merger.flush();
        let mut live = cap.0.lock().unwrap().clone();
        live.sort_by_key(|r| (r.phase, r.iteration));
        let post_hoc = merge_ranks(&per_rank);
        assert_eq!(live.len(), post_hoc.len());
        for (a, b) in live.iter().zip(post_hoc.iter()) {
            assert_eq!(a, b);
            assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
            assert_eq!(a.delta_q.to_bits(), b.delta_q.to_bits());
        }
    }

    #[test]
    fn flush_emits_partial_rows_for_early_terminated_ranks() {
        let per_rank = vec![
            vec![rec(0, 0, 80, 128), rec(0, 1, 40, 64)],
            vec![rec(0, 0, 90, 256)],
        ];
        let cap = Arc::new(Capture::default());
        let merger = ProgressMerger::new(2, cap.clone());
        for (rank, recs) in per_rank.iter().enumerate() {
            for r in recs {
                merger.offer(rank, 0, r);
            }
        }
        assert_eq!(cap.0.lock().unwrap().len(), 1, "only (0,0) is complete");
        merger.flush();
        let mut live = cap.0.lock().unwrap().clone();
        live.sort_by_key(|r| (r.phase, r.iteration));
        assert_eq!(live, merge_ranks(&per_rank));
        // Flushing twice is a no-op.
        merger.flush();
        assert_eq!(cap.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn recovery_attempts_replay_without_duplicate_rows() {
        let cap = Arc::new(Capture::default());
        let merger = ProgressMerger::new(2, cap.clone());
        // Attempt 0: iteration 0 completes, iteration 1 is half done
        // when rank 1 crashes.
        merger.offer(0, 0, &rec(0, 0, 80, 128));
        merger.offer(1, 0, &rec(0, 0, 90, 256));
        merger.offer(0, 0, &rec(0, 1, 40, 64));
        // Attempt 1 replays both iterations bit-identically.
        merger.offer(0, 1, &rec(0, 0, 80, 128));
        merger.offer(1, 1, &rec(0, 0, 90, 256));
        merger.offer(0, 1, &rec(0, 1, 40, 64));
        merger.offer(1, 1, &rec(0, 1, 45, 96));
        // A straggler thread from the dead attempt is ignored.
        merger.offer(1, 0, &rec(0, 1, 45, 96));
        merger.flush();
        let live = cap.0.lock().unwrap().clone();
        assert_eq!(live.len(), 2, "each (phase, iteration) emitted once");
        let expected = merge_ranks(&[
            vec![rec(0, 0, 80, 128), rec(0, 1, 40, 64)],
            vec![rec(0, 0, 90, 256), rec(0, 1, 45, 96)],
        ]);
        assert_eq!(live, expected);
    }
}
