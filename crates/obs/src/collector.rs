//! The per-job collector: one record slot per rank, all stamped against
//! a single shared epoch so rank timelines align.
//!
//! Usage: build one [`Collector`] before spawning rank threads, share it
//! by reference with each rank closure, call [`Collector::install`] at
//! rank start (holding the returned guard for the rank's lifetime), and
//! call [`Collector::finish`] after all ranks joined to harvest a
//! [`TraceData`] for export. The rank thread's observer owns what it
//! records; the guard hands it to the rank's slot when it drops.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::event::TraceEvent;
use crate::metrics::MetricsSnapshot;
use crate::progress::{ProgressMerger, ProgressSink};
use crate::span::{swap_observer, RankRecord, ThreadObserver};
use crate::telemetry::{self, IterationRecord, TelemetryRow};

/// Per-job trace/metrics collector (see module docs).
pub struct Collector {
    epoch: Instant,
    /// What each rank's finished attempts recorded, in attempt order.
    ranks: Vec<Mutex<RankRecord>>,
    progress: Option<Arc<ProgressMerger>>,
}

impl Collector {
    pub fn new(num_ranks: usize) -> Self {
        Collector {
            epoch: Instant::now(),
            ranks: (0..num_ranks).map(|_| Mutex::default()).collect(),
            progress: None,
        }
    }

    /// Attach a live progress subscriber: every rank installed after
    /// this call offers its iteration records to a shared
    /// [`ProgressMerger`] that emits globally-merged rows to `sink` as
    /// soon as all ranks have contributed. Call before spawning rank
    /// threads.
    pub fn set_progress(&mut self, sink: Arc<dyn ProgressSink>) {
        self.progress = Some(Arc::new(ProgressMerger::new(self.ranks.len(), sink)));
    }

    /// Install this collector as the calling thread's observer, recording
    /// for `rank`. The returned guard hands the record to `rank`'s slot
    /// and restores the previous observer when dropped; hold it for the
    /// rank's lifetime.
    ///
    /// Panics if `rank` is out of range.
    pub fn install(&self, rank: usize) -> InstallGuard<'_> {
        self.install_attempt(rank, 0)
    }

    /// Like [`Collector::install`], but stamping every event recorded by
    /// this thread with the given execution `attempt`. Resilient runs
    /// reinstall a rank's observer after each crash/hang recovery with an
    /// incremented attempt so pre-crash events stay distinguishable from
    /// the resumed attempt's in the merged trace.
    pub fn install_attempt(&self, rank: usize, attempt: u32) -> InstallGuard<'_> {
        assert!(rank < self.ranks.len(), "rank {rank} out of range");
        let prev = swap_observer(Some(ThreadObserver {
            epoch: self.epoch,
            rank,
            attempt,
            progress: self.progress.clone(),
            record: RankRecord::default(),
        }));
        InstallGuard {
            collector: self,
            rank,
            prev,
            _not_send: PhantomData,
        }
    }

    /// End the run: emit the progress rows still pending, then harvest
    /// all recorded data. Every [`InstallGuard`] borrows the collector,
    /// so they have all dropped by now.
    pub fn finish(self) -> TraceData {
        // Rows whose iterations some ranks early-terminated out of never
        // reach a full rank count in the merger; watchers still see them.
        if let Some(merger) = &self.progress {
            merger.flush();
        }
        let ranks = self
            .ranks
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                let RankRecord {
                    mut events,
                    dropped,
                    metrics,
                    telemetry,
                } = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                // Each attempt's events are in program order; sort so
                // the rank's track is globally time-ordered for exporters.
                events.sort_by_key(|e| (e.ts_ns, e.tid));
                RankTrace {
                    rank,
                    events,
                    dropped,
                    metrics,
                    telemetry,
                }
            })
            .collect();
        TraceData { ranks }
    }
}

/// Hands the thread's record to its rank's slot and restores the
/// previous observer on drop, also while a crashed attempt unwinds. Not
/// `Send`: it must be dropped on the thread that called
/// [`Collector::install`].
pub struct InstallGuard<'a> {
    collector: &'a Collector,
    rank: usize,
    prev: Option<ThreadObserver>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard<'_> {
    fn drop(&mut self) {
        if let Some(mine) = swap_observer(self.prev.take()) {
            // `absorb` leaves the slot valid at every step, so a slot
            // poisoned by a panic elsewhere is still sound to extend.
            let mut slot = self.collector.ranks[self.rank]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.absorb(mine.record);
        }
    }
}

/// Everything one rank recorded.
#[derive(Debug)]
pub struct RankTrace {
    pub rank: usize,
    /// Events sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events past the per-rank cap, not kept.
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
    /// Per-iteration algorithm telemetry this rank recorded.
    pub telemetry: Vec<IterationRecord>,
}

/// Harvested per-rank traces for a whole job.
#[derive(Debug)]
pub struct TraceData {
    pub ranks: Vec<RankTrace>,
}

/// Aggregate wall time for one span name across all ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRollup {
    pub name: String,
    pub count: u64,
    pub wall_seconds: f64,
}

impl TraceData {
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped).sum()
    }

    /// Per-rank telemetry merged into global `(phase, iteration)` rows.
    pub fn merged_telemetry(&self) -> Vec<TelemetryRow> {
        let per_rank: Vec<Vec<IterationRecord>> =
            self.ranks.iter().map(|r| r.telemetry.clone()).collect();
        telemetry::merge_ranks(&per_rank)
    }

    /// All rank metrics merged into one snapshot.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for r in &self.ranks {
            out.merge(&r.metrics);
        }
        out
    }

    /// Sum wall time per span name across ranks, sorted by
    /// descending wall time. Only complete (duration-bearing) events
    /// contribute.
    pub fn span_rollup(&self) -> Vec<SpanRollup> {
        let mut by_name: std::collections::BTreeMap<&str, SpanRollup> =
            std::collections::BTreeMap::new();
        for rank in &self.ranks {
            for ev in &rank.events {
                let dur = ev.dur_ns();
                if dur == 0 && matches!(ev.kind, crate::event::EventKind::Instant) {
                    continue;
                }
                let e = by_name.entry(ev.name).or_insert_with(|| SpanRollup {
                    name: ev.name.to_string(),
                    count: 0,
                    wall_seconds: 0.0,
                });
                e.count += 1;
                e.wall_seconds += dur as f64 * 1e-9;
            }
        }
        let mut out: Vec<SpanRollup> = by_name.into_values().collect();
        out.sort_by(|a, b| b.wall_seconds.total_cmp(&a.wall_seconds));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::ENABLE_LOCK;
    use crate::{complete_span, set_enabled, span};

    #[test]
    fn collector_gathers_events_from_rank_threads() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let collector = Collector::new(2);
        std::thread::scope(|s| {
            for rank in 0..2 {
                let c = &collector;
                s.spawn(move || {
                    let _g = c.install(rank);
                    {
                        let mut s = span!("work", rank = rank);
                        s.arg("done", true);
                    }
                    complete_span("wait", "test", 10, vec![]);
                    crate::counter_add("moves", (rank + 1) as u64);
                });
            }
        });
        set_enabled(false);
        let data = collector.finish();
        assert_eq!(data.ranks.len(), 2);
        for r in &data.ranks {
            assert_eq!(
                r.events.len(),
                2,
                "rank {}: span + retroactive span",
                r.rank
            );
            assert_eq!(r.dropped, 0);
            assert!(r.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        }
        assert_eq!(data.total_events(), 4);
        assert_eq!(data.merged_metrics().counter("moves"), 3);
        let rollup = data.span_rollup();
        assert_eq!(rollup.len(), 2);
        let work = rollup
            .iter()
            .find(|r| r.name == "work")
            .expect("work rollup");
        assert_eq!(work.count, 2);
        assert!(work.wall_seconds > 0.0);
        let wait = rollup
            .iter()
            .find(|r| r.name == "wait")
            .expect("wait rollup");
        assert_eq!(wait.count, 2);
    }

    #[test]
    fn install_guard_restores_previous_observer() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let outer = Collector::new(1);
        let inner = Collector::new(1);
        let _og = outer.install(0);
        {
            let _ig = inner.install(0);
            drop(span!("inner"));
        }
        drop(span!("outer"));
        drop(_og);
        set_enabled(false);
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(inner.ranks[0].events.len(), 1);
        assert_eq!(inner.ranks[0].events[0].name, "inner");
        assert_eq!(outer.ranks[0].events.len(), 1);
        assert_eq!(outer.ranks[0].events[0].name, "outer");
    }

    fn iteration(phase: u64) -> IterationRecord {
        IterationRecord {
            phase,
            iteration: 0,
            modularity: 0.5,
            delta_q: 0.0,
            moves: 1,
            active: 1,
            vertices: 1,
            communities: 1,
            community_sizes: crate::Histogram::default(),
            ghost_bytes: 0,
        }
    }

    #[test]
    fn a_crashed_attempt_hands_over_its_record_while_unwinding() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let collector = Collector::new(1);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = collector.install_attempt(0, 0);
            drop(span!("before_crash"));
            crate::counter_add("ghost.full.refreshes", 1);
            panic!("rank crashed");
        }));
        assert!(crashed.is_err());
        assert!(!crate::observing(), "the guard uninstalled while unwinding");
        {
            let _g = collector.install_attempt(0, 1);
            drop(span!("recovered"));
            crate::counter_add("ghost.full.refreshes", 2);
        }
        set_enabled(false);
        let data = collector.finish();
        let rank = &data.ranks[0];
        let seen: Vec<_> = rank.events.iter().map(|e| (e.name, e.attempt)).collect();
        assert_eq!(seen, vec![("before_crash", 0), ("recovered", 1)]);
        assert_eq!(rank.metrics.counter("ghost.full.refreshes"), 3);
    }

    /// A progress sink without tracing: the observer feeds the sink and
    /// keeps nothing, so the run has no trace sections to show.
    #[test]
    fn progress_only_observer_streams_rows_and_records_nothing() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        let rows = Arc::new(Mutex::new(Vec::new()));
        let mut collector = Collector::new(1);
        let sink = Arc::clone(&rows);
        collector.set_progress(Arc::new(move |row: &TelemetryRow| {
            sink.lock().unwrap().push(row.phase)
        }));
        assert!(!crate::observing());
        {
            let _g = collector.install(0);
            assert!(crate::observing());
            drop(span!("phase"));
            complete_span("wait", "test", 10, vec![]);
            crate::counter_add("sweep.colors", 1);
            crate::gauge_set("mem.ghost_bytes", 1.0);
            crate::record_iteration(iteration(0));
            crate::record_iteration(iteration(1));
        }
        assert!(!crate::observing());
        assert_eq!(*rows.lock().unwrap(), vec![0, 1]);
        let data = collector.finish();
        let rank = &data.ranks[0];
        assert!(rank.events.is_empty() && rank.telemetry.is_empty());
        assert!(rank.metrics.is_empty());
        assert_eq!(rank.dropped, 0);
    }

    /// The sink runs on the rank thread with no borrow of its observer
    /// held, so it may record as well; what it records is the rank's.
    #[test]
    fn a_progress_sink_may_record_on_the_rank_thread() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let mut collector = Collector::new(1);
        collector.set_progress(Arc::new(|_: &TelemetryRow| {
            crate::counter_add("sweep.colors", 1);
            drop(span!("on_row"));
        }));
        {
            let _g = collector.install(0);
            crate::record_iteration(iteration(0));
        }
        set_enabled(false);
        let data = collector.finish();
        let rank = &data.ranks[0];
        assert_eq!(rank.metrics.counter("sweep.colors"), 1);
        assert_eq!(rank.events.len(), 1);
        assert_eq!(rank.events[0].name, "on_row");
        assert_eq!(rank.telemetry, vec![iteration(0)]);
    }
}
