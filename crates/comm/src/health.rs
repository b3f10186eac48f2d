//! Rank-health watchdog: deadline-aware waits and heartbeat-based hang
//! detection.
//!
//! The communicator's one blocking wait, a mailbox receive, runs under
//! a `Watchdog` that escalates through a ladder: *deadline expires* →
//! *consult heartbeats* → *extend the deadline* (`max_retries` more
//! windows for a silent rank) → *declare the silent rank hung* by
//! panicking with a [`RankHung`] payload. The resilient driver in
//! `louvain-dist` catches that payload exactly like a
//! [`crate::RankCrashed`] and restores from the newest checkpoint.
//!
//! Heartbeats are cheap: every rank stamps a shared [`HealthBoard`]
//! slot (one relaxed atomic store) at every communication operation and
//! on every poll tick while blocked. A rank that is merely *slow*
//! (stalled in compute, or waiting on a third rank) keeps beating and is
//! recorded as a straggler — only a rank whose heartbeat goes stale past
//! the deadline is declared hung.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{CommStats, CommStep, NUM_COMM_STEPS};

/// The hung-rank declaration this module raises as a panic payload; the
/// plain data lives beside the report that lists it.
pub use louvain_obs::RankHung;

/// Hard liveness ceiling, in deadlines: a wait longer than `deadline ×
/// LIVENESS_FACTOR` is declared hung even if the suspects are still
/// heartbeating (catches application-level deadlocks where every rank
/// is alive but none can progress).
const LIVENESS_FACTOR: u32 = 8;

/// Tuning for the rank-health watchdog, carried by
/// [`crate::RunConfig`].
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// How long one blocked wait may go without progress before the
    /// watchdog escalates (the per-window deadline of the ladder).
    pub deadline: Duration,
    /// Deadline extensions granted to a silent peer before it is
    /// declared hung.
    pub max_retries: u32,
    /// Per-[`CommStep`] overrides of `max_retries` (index =
    /// `CommStep::index()`); `None` = use the global cap.
    pub step_max_retries: [Option<u32>; NUM_COMM_STEPS],
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(30),
            max_retries: 3,
            step_max_retries: [None; NUM_COMM_STEPS],
        }
    }
}

impl HealthConfig {
    /// The retry cap in effect for `step`.
    pub fn retries_for(&self, step: CommStep) -> u32 {
        self.step_max_retries[step.index()].unwrap_or(self.max_retries)
    }

    /// How long an *injected* hang sleeps before the hung rank declares
    /// itself dead (simulating an external supervisor kill). Longer
    /// than the peers' full detection ladder so that in multi-rank jobs
    /// a peer normally wins; in single-rank jobs this is the only
    /// detector.
    pub fn hang_self_timeout(&self) -> Duration {
        self.deadline * (self.max_retries + 2)
    }
}

/// Shared per-rank heartbeat stamps (nanoseconds since job start, via
/// one relaxed atomic per rank). Ranks stamp their own slot on every
/// comm op and every blocked poll tick.
pub struct HealthBoard {
    origin: Instant,
    beats: Vec<AtomicU64>,
}

impl HealthBoard {
    pub fn new(p: usize) -> Self {
        let board = Self {
            origin: Instant::now(),
            beats: (0..p).map(|_| AtomicU64::new(0)).collect(),
        };
        for r in 0..p {
            board.beat(r);
        }
        board
    }

    fn now_nanos(&self) -> u64 {
        // +1 so a stamp of 0 can only mean "never" (and new() stamps
        // every slot anyway).
        (self.origin.elapsed().as_nanos() as u64).saturating_add(1)
    }

    /// Stamp `rank`'s slot with "now".
    pub fn beat(&self, rank: usize) {
        self.beats[rank].fetch_max(self.now_nanos(), Ordering::Relaxed);
    }

    /// Time since `rank` last heartbeat.
    pub fn age(&self, rank: usize) -> Duration {
        let last = self.beats[rank].load(Ordering::Relaxed);
        let now = self.now_nanos();
        Duration::from_nanos(now.saturating_sub(last))
    }
}

/// Identity of one blocked wait, for watchdog bookkeeping and the
/// [`RankHung`] payload.
pub(crate) struct WaitCtx<'a> {
    pub cfg: &'a HealthConfig,
    pub board: &'a HealthBoard,
    pub stats: &'a CommStats,
    pub rank: usize,
    pub phase: u64,
    pub op: u64,
}

/// The escalation ladder of one blocked wait: `deadline → (straggler
/// extension | silent-rank extension) → RankHung`. Created per wait;
/// callers invoke [`Watchdog::alive`] every poll tick and
/// [`Watchdog::observe`] with the awaited rank once [`Watchdog::due`]
/// reports the window expired.
pub(crate) struct Watchdog<'a, 'c> {
    ctx: &'c WaitCtx<'a>,
    started: Instant,
    window: Instant,
    extensions: u32,
}

impl<'a, 'c> Watchdog<'a, 'c> {
    pub fn new(ctx: &'c WaitCtx<'a>) -> Self {
        let now = Instant::now();
        Self {
            ctx,
            started: now,
            window: now,
            extensions: 0,
        }
    }

    /// Poll interval for the underlying timed wait: fine-grained enough
    /// to resolve small deadlines, never coarser than 50 ms.
    pub fn tick(&self) -> Duration {
        (self.ctx.cfg.deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(50))
    }

    /// Heartbeat this rank's own slot (blocked-but-alive ≠ hung).
    pub fn alive(&self) {
        self.ctx.board.beat(self.ctx.rank);
    }

    /// Whether the current deadline window has expired and
    /// [`Watchdog::observe`] should be consulted.
    pub fn due(&self) -> bool {
        self.window.elapsed() >= self.ctx.cfg.deadline
    }

    /// Escalate one expired window. `suspect` is the rank this wait is
    /// blocked on; if its heartbeat is stale past the deadline it is a
    /// candidate for a hung declaration. Panics with [`RankHung`] when
    /// the ladder is exhausted; otherwise extends the window (recording
    /// a straggler or a silent-rank extension) and returns.
    pub fn observe(&mut self, suspect: usize) {
        let cfg = self.ctx.cfg;
        let waited = self.started.elapsed();
        let step = self.ctx.stats.current_step();
        self.ctx.stats.count(|t, _| t.wd_timeouts += 1);
        let hang = || RankHung {
            rank: suspect,
            detector: self.ctx.rank,
            phase: self.ctx.phase,
            op: self.ctx.op,
            step,
            waited_ms: waited.as_millis() as u64,
        };
        if self.ctx.board.age(suspect) > cfg.deadline {
            if self.extensions >= cfg.retries_for(step) {
                std::panic::panic_any(hang());
            }
            self.extensions += 1;
            self.ctx.stats.count(|t, slot| {
                t.wd_retries += 1;
                t.step_retries[slot] += 1;
            });
        } else {
            // The awaited rank is still heartbeating: straggler, not
            // hang. Extend the window for free, but never beyond the
            // liveness ceiling (live-but-deadlocked ranks must not wedge
            // the job forever).
            self.ctx.stats.count(|t, _| t.wd_stragglers += 1);
            if waited > cfg.deadline * LIVENESS_FACTOR {
                std::panic::panic_any(hang());
            }
        }
        self.window = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_board_tracks_freshness() {
        let b = HealthBoard::new(2);
        assert!(b.age(0) < Duration::from_millis(100));
        std::thread::sleep(Duration::from_millis(20));
        b.beat(1);
        assert!(b.age(1) < Duration::from_millis(10));
        assert!(b.age(0) >= Duration::from_millis(20));
    }

    #[test]
    fn per_step_retry_caps_override_the_global_cap() {
        let mut cfg = HealthConfig {
            max_retries: 5,
            ..HealthConfig::default()
        };
        cfg.step_max_retries[CommStep::Reduction.index()] = Some(1);
        assert_eq!(cfg.retries_for(CommStep::Reduction), 1);
        assert_eq!(cfg.retries_for(CommStep::GhostRefresh), 5);
    }
}
