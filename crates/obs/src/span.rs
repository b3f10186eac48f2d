//! RAII spans, retroactive spans, and the thread-local observer state.
//!
//! Recording is a two-switch design: a process-global enable flag (one
//! relaxed atomic load on the fast path — the ≤2% disabled-overhead
//! budget) and a thread-local observer installed per rank thread by
//! [`crate::Collector::install`]. A span records its wall-clock duration.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::metrics::MetricsRegistry;
use crate::progress::ProgressMerger;
use crate::ring::EventRing;
use crate::telemetry::TelemetryLog;

// ---------------------------------------------------------------------------
// Global enable flags
// ---------------------------------------------------------------------------

/// Bit set in [`FLAGS`] while tracing is enabled.
pub(crate) const FLAG_TRACE: u32 = 1 << 0;
/// Bit set in [`FLAGS`] while at least one live progress subscriber
/// exists (see [`crate::progress::ProgressScope`]).
pub(crate) const FLAG_PROGRESS: u32 = 1 << 1;

/// One word holds every recording switch so the disabled fast path stays
/// a single relaxed atomic load even with multiple consumers (tracing,
/// live progress streaming).
static FLAGS: AtomicU32 = AtomicU32::new(0);

/// Turn tracing on or off process-wide. Spans opened while disabled are
/// no-ops even if tracing is enabled before they close. Leaves the
/// progress-subscriber bit untouched.
pub fn set_enabled(on: bool) {
    if on {
        FLAGS.fetch_or(FLAG_TRACE, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!FLAG_TRACE, Ordering::Relaxed);
    }
}

/// Whether tracing is currently enabled. This is the only cost a span
/// site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & FLAG_TRACE != 0
}

/// All recording flags in one load; `0` means every consumer is off and
/// recording sites return immediately.
#[inline]
pub(crate) fn recording_flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

/// Whether *any* recording consumer (tracing or a live progress
/// subscriber) is on. Sites that prepare an [`crate::IterationRecord`]
/// gate on this — still a single relaxed load when everything is off —
/// so the record reaches progress watchers even when tracing is
/// disabled.
#[inline]
pub fn telemetry_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

pub(crate) fn set_flag(bit: u32, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Thread-local observer
// ---------------------------------------------------------------------------

/// Per-thread recording state, installed by the collector.
#[derive(Clone)]
pub(crate) struct ThreadObserver {
    pub ring: Arc<EventRing>,
    /// Shared job epoch: all ranks timestamp against the same `Instant`,
    /// so their events land on one timeline.
    pub epoch: Instant,
    pub metrics: Arc<MetricsRegistry>,
    pub telemetry: Arc<TelemetryLog>,
    /// Rank this observer records for.
    pub rank: usize,
    /// Execution attempt of the rank this observer records for (0 on
    /// the first attempt, bumped after each crash/hang recovery).
    pub attempt: u32,
    /// Live progress fan-in, present when a subscriber is watching the
    /// job this observer belongs to.
    pub progress: Option<Arc<ProgressMerger>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static OBSERVER: RefCell<Option<ThreadObserver>> = const { RefCell::new(None) };
    /// Small process-wide id for this thread (Chrome `tid`).
    static TID: Cell<u32> = const { Cell::new(0) };
}

pub(crate) fn install_observer(obs: ThreadObserver) -> Option<ThreadObserver> {
    OBSERVER.with(|o| o.borrow_mut().replace(obs))
}

pub(crate) fn uninstall_observer(prev: Option<ThreadObserver>) {
    OBSERVER.with(|o| *o.borrow_mut() = prev);
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

pub(crate) fn with_observer<R>(f: impl FnOnce(&ThreadObserver) -> R) -> Option<R> {
    OBSERVER.with(|o| o.borrow().as_ref().map(f))
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
            obs.ring.push(TraceEvent {
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
        obs.ring.push(TraceEvent {
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

    fn with_ring<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
        let ring = Arc::new(EventRing::with_capacity(64));
        let prev = install_observer(ThreadObserver {
            ring: Arc::clone(&ring),
            epoch: Instant::now(),
            metrics: Arc::new(MetricsRegistry::new()),
            telemetry: Arc::new(TelemetryLog::default()),
            rank: 0,
            attempt: 0,
            progress: None,
        });
        let out = f();
        uninstall_observer(prev);
        let mut ring = Arc::try_unwrap(ring).expect("sole owner");
        (out, ring.drain())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        let ((), events) = with_ring(|| {
            let mut g = span!("phase", phase = 1);
            g.arg("x", 3u64);
            drop(g);
            complete_span("marker", "t", 5, vec![]);
        });
        assert!(events.is_empty());
    }

    #[test]
    fn enabled_spans_record_complete_events_with_args() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(true);
        let ((), events) = with_ring(|| {
            let mut g = span!(cat "comm", "ghost_refresh", bytes = 128u64);
            g.arg("round", 2u64);
            drop(g);
            complete_span("wait", "comm", 40, vec![("rank", ArgValue::U64(3))]);
        });
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
    fn progress_flag_does_not_enable_tracing() {
        let _l = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        set_flag(FLAG_PROGRESS, true);
        assert!(!enabled(), "progress subscribers must not enable tracing");
        assert_eq!(recording_flags(), FLAG_PROGRESS);
        // Spans stay inert: only telemetry sites consult the progress bit.
        let ((), events) = with_ring(|| {
            let _g = span!("phase", phase = 1);
            complete_span("marker", "t", 5, vec![]);
        });
        assert!(events.is_empty());
        set_flag(FLAG_PROGRESS, false);
        assert_eq!(recording_flags(), 0);
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
        let ((), events) = with_ring(|| {
            let outer = span!("outer");
            {
                let _inner = span!("inner");
            }
            drop(outer);
        });
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
}
