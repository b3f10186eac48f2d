//! RAII spans, retroactive spans, and the thread-local observer state.
//!
//! Spans and metrics check one process-global switch, [`enabled`] (a
//! single relaxed atomic load: the ≤2% disabled-overhead budget), then
//! the thread-local observer that [`crate::Collector::install`] puts on
//! a rank thread. The observer owns that rank's [`RankRecord`]: events,
//! metrics and iteration telemetry are pushed into it without a lock and
//! handed to the collector when the install guard drops. A span records
//! its wall-clock duration.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::metrics::MetricsSnapshot;
use crate::progress::ProgressMerger;
use crate::telemetry::IterationRecord;

// ---------------------------------------------------------------------------
// Global enable flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn tracing on or off process-wide. Spans opened while disabled are
/// no-ops even if tracing is enabled before they close.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled. This is the only cost a span
/// site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local observer
// ---------------------------------------------------------------------------

/// Events one rank keeps; later ones are counted in
/// [`RankRecord::dropped`], so the earliest events are the ones kept.
pub(crate) const DEFAULT_EVENTS_PER_RANK: usize = 1 << 16;

/// Everything one rank thread records while observed. Its buffers grow
/// on demand, so a rank that records nothing allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct RankRecord {
    pub events: Vec<TraceEvent>,
    /// Events past [`DEFAULT_EVENTS_PER_RANK`], not kept.
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
    pub telemetry: Vec<IterationRecord>,
}

impl RankRecord {
    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() < DEFAULT_EVENTS_PER_RANK {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Append a later attempt's record, keeping the cap on events.
    pub fn absorb(&mut self, later: RankRecord) {
        let room = DEFAULT_EVENTS_PER_RANK - self.events.len();
        let kept = later.events.len().min(room);
        self.dropped += later.dropped + (later.events.len() - kept) as u64;
        self.events.extend(later.events.into_iter().take(kept));
        self.metrics.merge(&later.metrics);
        self.telemetry.extend(later.telemetry);
    }
}

/// Per-thread recording state, installed by the collector.
pub(crate) struct ThreadObserver {
    /// Shared job epoch: all ranks timestamp against the same `Instant`,
    /// so their events land on one timeline.
    pub epoch: Instant,
    /// Rank this observer records for.
    pub rank: usize,
    /// Execution attempt of the rank this observer records for (0 on
    /// the first attempt, bumped after each crash/hang recovery).
    pub attempt: u32,
    /// Live progress fan-in, present when a subscriber is watching the
    /// job this observer belongs to.
    pub progress: Option<Arc<ProgressMerger>>,
    pub record: RankRecord,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static OBSERVER: RefCell<Option<ThreadObserver>> = const { RefCell::new(None) };
    /// Small process-wide id for this thread (Chrome `tid`).
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Put `obs` on this thread; returns the observer it displaced.
pub(crate) fn swap_observer(obs: Option<ThreadObserver>) -> Option<ThreadObserver> {
    OBSERVER.with(|o| std::mem::replace(&mut *o.borrow_mut(), obs))
}

/// Whether this thread has an observer installed: a collector is
/// listening (for a trace, a progress sink, or both).
pub fn observing() -> bool {
    OBSERVER.with(|o| o.borrow().is_some())
}

fn current_tid() -> u32 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Run `f` on this thread's observer, if any. `f` must not call back
/// into recording: the observer stays borrowed while it runs.
pub(crate) fn with_observer<R>(f: impl FnOnce(&mut ThreadObserver) -> R) -> Option<R> {
    OBSERVER.with(|o| o.borrow_mut().as_mut().map(f))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct SpanInner {
    name: &'static str,
    cat: &'static str,
    start: Instant,
    start_ts_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard for an open span; the event is recorded on drop. Obtained
/// from [`span`], [`span_cat`], or the [`span!`](crate::span!) macro.
/// When tracing is disabled or no observer is installed the guard is
/// inert and free.
#[must_use = "a span records its duration when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard(Option<SpanInner>);

impl SpanGuard {
    /// A guard that records nothing (disabled fast path).
    pub const fn noop() -> Self {
        SpanGuard(None)
    }

    /// Attach an argument after the span opened (e.g. a result computed
    /// inside the span, like the number of moves in a sweep).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        with_observer(|obs| {
            obs.record.push_event(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                kind: EventKind::Complete { dur_ns },
                ts_ns: inner.start_ts_ns,
                tid: current_tid(),
                attempt: obs.attempt,
                args: inner.args,
            });
        });
    }
}

/// Open a span in the default category. See [`span_cat`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "louvain", Vec::new())
}

/// Open a span with an explicit category and initial arguments. Returns
/// an inert guard unless tracing is enabled *and* an observer is
/// installed on this thread.
pub fn span_cat(
    name: &'static str,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    let Some(start_ts_ns) = with_observer(|obs| obs.epoch.elapsed().as_nanos() as u64) else {
        return SpanGuard::noop();
    };
    SpanGuard(Some(SpanInner {
        name,
        cat,
        start: Instant::now(),
        start_ts_ns,
        args,
    }))
}

/// Record a completed span retroactively: the span ends *now* and lasted
/// `dur_ns`. Used for sub-spans whose extent is known only after the
/// fact — e.g. the `wait` share of a comm step, where the idle time is
/// accumulated by the blocking receive loops and only totalled when the
/// step closes.
pub fn complete_span(
    name: &'static str,
    cat: &'static str,
    dur_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    with_observer(|obs| {
        let now_ns = obs.epoch.elapsed().as_nanos() as u64;
        obs.record.push_event(TraceEvent {
            name,
            cat,
            kind: EventKind::Complete { dur_ns },
            ts_ns: now_ns.saturating_sub(dur_ns),
            tid: current_tid(),
            attempt: obs.attempt,
            args,
        });
    });
}

/// Open a span: `span!("phase")`, `span!("phase", phase = 2, tau = 0.01)`,
/// or with a category `span!(cat "comm", "ghost_refresh", bytes = n)`.
/// Binds to an RAII [`SpanGuard`]; the span closes when the guard drops.
#[macro_export]
macro_rules! span {
    (cat $cat:literal, $name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::span_cat($name, $cat, vec![$((stringify!($k), $crate::ArgValue::from($v))),*])
    };
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::span_cat($name, "louvain", vec![$((stringify!($k), $crate::ArgValue::from($v))),*])
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The enable flag is process-global and `cargo test` threads share
    // it, so every test that flips it runs under this lock.
    pub(crate) static ENABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `f` under a fresh observer; return what it recorded.
    fn recorded(f: impl FnOnce()) -> RankRecord {
        let prev = swap_observer(Some(ThreadObserver {
            epoch: Instant::now(),
            rank: 0,
            attempt: 0,
            progress: None,
            record: RankRecord::default(),
        }));
        f();
        swap_observer(prev).expect("still installed").record
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        let events = recorded(|| {
            let mut g = span!("phase", phase = 1);
            g.arg("x", 3u64);
            drop(g);
            complete_span("marker", "t", 5, vec![]);
        })
        .events;
        assert!(events.is_empty());
    }

    #[test]
    fn enabled_spans_record_complete_events_with_args() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let events = recorded(|| {
            let mut g = span!(cat "comm", "ghost_refresh", bytes = 128u64);
            g.arg("round", 2u64);
            drop(g);
            complete_span("wait", "comm", 40, vec![("rank", ArgValue::U64(3))]);
        })
        .events;
        set_enabled(false);
        assert_eq!(events.len(), 2);
        let span_ev = &events[0];
        assert_eq!(span_ev.name, "ghost_refresh");
        assert_eq!(span_ev.cat, "comm");
        assert!(matches!(span_ev.kind, EventKind::Complete { .. }));
        assert_eq!(
            span_ev.args,
            vec![("bytes", ArgValue::U64(128)), ("round", ArgValue::U64(2))]
        );
        assert_eq!(events[1].name, "wait");
        assert_eq!(events[1].kind, EventKind::Complete { dur_ns: 40 });
        assert_eq!(events[1].args, vec![("rank", ArgValue::U64(3))]);
    }

    #[test]
    fn spans_without_observer_are_inert() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        // No observer installed on this thread: must not panic or leak.
        let g = span!("orphan", n = 1u64);
        drop(g);
        complete_span("orphan", "t", 5, vec![]);
        set_enabled(false);
    }

    #[test]
    fn nested_spans_close_in_lifo_order() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let events = recorded(|| {
            let outer = span!("outer");
            {
                let _inner = span!("inner");
            }
            drop(outer);
        })
        .events;
        set_enabled(false);
        // Inner closes (and records) first.
        assert_eq!(
            events.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["inner", "outer"]
        );
        assert!(
            events[0].ts_ns >= events[1].ts_ns,
            "inner starts after outer"
        );
    }

    #[test]
    fn events_past_the_cap_are_dropped_and_counted() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let record = recorded(|| {
            for i in 0..DEFAULT_EVENTS_PER_RANK as u64 + 2 {
                complete_span("e", "t", 0, vec![("i", ArgValue::U64(i))]);
            }
        });
        set_enabled(false);
        assert_eq!(record.events.len(), DEFAULT_EVENTS_PER_RANK);
        assert_eq!(record.dropped, 2);
        // The earliest events are the ones kept.
        assert_eq!(record.events[0].args, vec![("i", ArgValue::U64(0))]);
        let last = DEFAULT_EVENTS_PER_RANK as u64 - 1;
        assert_eq!(
            record.events[last as usize].args,
            vec![("i", ArgValue::U64(last))]
        );
    }

    #[test]
    fn absorbing_a_later_attempt_keeps_the_cap() {
        let ev = |i: u64| TraceEvent {
            name: "e",
            cat: "t",
            kind: EventKind::Instant,
            ts_ns: i,
            tid: 0,
            attempt: 0,
            args: vec![],
        };
        let mut first = RankRecord::default();
        for i in 0..DEFAULT_EVENTS_PER_RANK as u64 - 1 {
            first.push_event(ev(i));
        }
        let mut later = RankRecord::default();
        for i in 0..3 {
            later.push_event(ev(1 << 20 | i));
        }
        later.dropped = 4;
        first.absorb(later);
        assert_eq!(first.events.len(), DEFAULT_EVENTS_PER_RANK);
        assert_eq!(first.events.last().unwrap().ts_ns, 1 << 20);
        assert_eq!(first.dropped, 4 + 2);
    }
}
