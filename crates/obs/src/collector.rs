//! The per-job collector: one event ring and metrics registry per rank,
//! all stamped against a single shared epoch so rank timelines align.
//!
//! Usage: build one [`Collector`] before spawning rank threads, clone it
//! (via `Arc`) into each rank closure, call [`Collector::install`] at
//! rank start (holding the returned guard for the rank's lifetime), and
//! call [`Collector::finish`] after all ranks joined to harvest a
//! [`TraceData`] for export.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use crate::event::TraceEvent;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::progress::{ProgressMerger, ProgressSink};
use crate::ring::EventRing;
use crate::span::{install_observer, uninstall_observer, ThreadObserver};
use crate::telemetry::{self, IterationRecord, TelemetryLog, TelemetryRow};

/// Per-rank event capacity (events beyond this are dropped and counted,
/// never reallocated — see [`EventRing`]).
const DEFAULT_EVENTS_PER_RANK: usize = 1 << 16;

struct RankSlot {
    ring: Arc<EventRing>,
    metrics: Arc<MetricsRegistry>,
    telemetry: Arc<TelemetryLog>,
}

/// Per-job trace/metrics collector (see module docs).
pub struct Collector {
    epoch: Instant,
    ranks: Vec<RankSlot>,
    progress: Option<Arc<ProgressMerger>>,
}

impl Collector {
    pub fn new(num_ranks: usize) -> Self {
        Collector {
            epoch: Instant::now(),
            ranks: (0..num_ranks)
                .map(|_| RankSlot {
                    ring: Arc::new(EventRing::with_capacity(DEFAULT_EVENTS_PER_RANK)),
                    metrics: Arc::new(MetricsRegistry::new()),
                    telemetry: Arc::new(TelemetryLog::default()),
                })
                .collect(),
            progress: None,
        }
    }

    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Attach a live progress subscriber: every rank installed after
    /// this call offers its iteration records to a shared
    /// [`ProgressMerger`] that emits globally-merged rows to `sink` as
    /// soon as all ranks have contributed. Call before spawning rank
    /// threads.
    pub fn set_progress(&mut self, sink: Arc<dyn ProgressSink>) {
        self.progress = Some(Arc::new(ProgressMerger::new(self.ranks.len(), sink)));
    }

    /// The attached progress merger, if any (e.g. to flush partial rows
    /// after the run completes).
    pub fn progress_merger(&self) -> Option<Arc<ProgressMerger>> {
        self.progress.clone()
    }

    /// Install this collector as the calling thread's observer, recording
    /// into `rank`'s ring/registry. The returned guard restores the
    /// previous observer when dropped; hold it for the rank's lifetime.
    ///
    /// Panics if `rank` is out of range.
    pub fn install(&self, rank: usize) -> InstallGuard {
        self.install_attempt(rank, 0)
    }

    /// Like [`Collector::install`], but stamping every event recorded by
    /// this thread with the given execution `attempt`. Resilient runs
    /// reinstall a rank's observer after each crash/hang recovery with an
    /// incremented attempt so pre-crash events stay distinguishable from
    /// the resumed attempt's in the merged trace.
    pub fn install_attempt(&self, rank: usize, attempt: u32) -> InstallGuard {
        let slot = &self.ranks[rank];
        let prev = install_observer(ThreadObserver {
            ring: Arc::clone(&slot.ring),
            epoch: self.epoch,
            metrics: Arc::clone(&slot.metrics),
            telemetry: Arc::clone(&slot.telemetry),
            rank,
            attempt,
            progress: self.progress.clone(),
        });
        InstallGuard {
            prev: Some(prev),
            _not_send: PhantomData,
        }
    }

    /// Harvest all recorded data. Call after every [`InstallGuard`] has
    /// been dropped (i.e. after rank threads joined); panics if a ring is
    /// still shared.
    pub fn finish(self) -> TraceData {
        let ranks = self
            .ranks
            .into_iter()
            .enumerate()
            .map(|(rank, slot)| {
                let mut ring = Arc::try_unwrap(slot.ring)
                    .expect("Collector::finish called while an InstallGuard is still alive");
                let dropped = ring.dropped();
                let mut events = ring.drain();
                // Claim order is per-thread program order; sort so each
                // rank's track is globally time-ordered for exporters.
                events.sort_by_key(|e| (e.ts_ns, e.tid));
                let metrics = slot.metrics.snapshot();
                let telemetry = slot.telemetry.drain();
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

/// Restores the thread's previous observer on drop. Not `Send`: it must
/// be dropped on the thread that called [`Collector::install`].
pub struct InstallGuard {
    prev: Option<Option<ThreadObserver>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            uninstall_observer(prev);
        }
    }
}

/// Everything one rank recorded.
#[derive(Debug)]
pub struct RankTrace {
    pub rank: usize,
    /// Events sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
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
        let collector = Arc::new(Collector::new(2));
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let c = Arc::clone(&collector);
                std::thread::spawn(move || {
                    let _g = c.install(rank);
                    {
                        let mut s = span!("work", rank = rank);
                        s.arg("done", true);
                    }
                    complete_span("wait", "test", 10, vec![]);
                    crate::counter_add("moves", (rank + 1) as u64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let data = Arc::try_unwrap(collector)
            .ok()
            .expect("ranks joined")
            .finish();
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
}
