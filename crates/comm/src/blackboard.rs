//! A reusable all-gather rendezvous shared by all ranks of a job.
//!
//! Every collective except `all_to_all_v` is built on one primitive: each
//! rank deposits a value, waits until all `p` values are present, reads the
//! full board, and the last reader resets the board for the next round.
//! A generation counter plus a single condvar make the board safely
//! reusable back-to-back (a fast rank cannot start round `g+1` while a slow
//! rank is still reading round `g`).

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::health::{WaitCtx, Watchdog};
use crate::runtime::poisoned;

struct State {
    generation: u64,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    filled: usize,
    read: usize,
}

/// Shared rendezvous board; one per job, `Arc`-shared across ranks.
pub(crate) struct Blackboard {
    state: Mutex<State>,
    cv: Condvar,
    poison: Arc<AtomicBool>,
    p: usize,
}

impl Blackboard {
    pub fn new(p: usize, poison: Arc<AtomicBool>) -> Self {
        Self {
            state: Mutex::new(State {
                generation: 0,
                slots: (0..p).map(|_| None).collect(),
                filled: 0,
                read: 0,
            }),
            cv: Condvar::new(),
            poison,
            p,
        }
    }

    fn check_poison(&self) {
        if self.poison.load(Ordering::Relaxed) {
            poisoned();
        }
    }

    /// Deposit `value` for `rank`, wait for all ranks, then map the complete
    /// board through `read`. Returns `read`'s result once every rank of the
    /// current generation has deposited.
    #[cfg(test)]
    pub fn exchange<T, R, F>(&self, rank: usize, value: T, read: F) -> R
    where
        T: Send + 'static,
        F: FnOnce(&mut [Option<Box<dyn Any + Send>>]) -> R,
    {
        self.exchange_watched(rank, value, read, None)
    }

    /// [`Blackboard::exchange`] under the rank-health watchdog: while
    /// blocked waiting for the board to fill, the deadline ladder runs
    /// against the ranks that have not deposited yet (`watch = None`
    /// falls back to plain 50 ms poison-check polling).
    pub fn exchange_watched<T, R, F>(
        &self,
        rank: usize,
        value: T,
        read: F,
        watch: Option<&WaitCtx<'_>>,
    ) -> R
    where
        T: Send + 'static,
        F: FnOnce(&mut [Option<Box<dyn Any + Send>>]) -> R,
    {
        let mut dog = watch.map(Watchdog::new);
        let tick = dog
            .as_ref()
            .map_or(Duration::from_millis(50), Watchdog::tick);
        let mut s = self.state.lock();
        // Wait out the read phase of the previous round. Rare and
        // short (peers are inside `read`, not hung), so the watchdog
        // only heartbeats here; escalation happens in the fill wait.
        while s.filled == self.p {
            self.cv.wait_for(&mut s, tick);
            self.check_poison();
            if let Some(d) = &dog {
                d.alive();
            }
        }
        debug_assert!(s.slots[rank].is_none(), "rank {rank} double deposit");
        s.slots[rank] = Some(Box::new(value));
        s.filled += 1;
        let gen = s.generation;
        if s.filled == self.p {
            self.cv.notify_all();
        }
        // Everything from here until the board fills is *wait* (idle,
        // blocked on slower ranks), charged to the current comm step.
        // Timed only when actually entered: the last depositor of a
        // round never blocks and records zero wait.
        let fill_wait = (s.generation == gen && s.filled < self.p).then(std::time::Instant::now);
        while s.generation == gen && s.filled < self.p {
            self.cv.wait_for(&mut s, tick);
            self.check_poison();
            if let Some(d) = &mut dog {
                d.alive();
                if d.due() && s.generation == gen && s.filled < self.p {
                    // The ranks still missing from this round are the
                    // suspects; stale heartbeats among them get the
                    // ladder, live ones count as stragglers.
                    let missing: Vec<usize> = s
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, slot)| slot.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    d.observe(&missing);
                }
            }
        }
        if let (Some(start), Some(ctx)) = (fill_wait, watch) {
            let waited = start.elapsed().as_nanos() as u64;
            ctx.stats.count(|t, step| t.step_wait_nanos[step] += waited);
        }
        let out = read(&mut s.slots);
        s.read += 1;
        if s.read == self.p {
            for slot in s.slots.iter_mut() {
                *slot = None;
            }
            s.filled = 0;
            s.read = 0;
            s.generation += 1;
            self.cv.notify_all();
        }
        out
    }

    /// Wake all waiters so they observe the poison flag.
    pub fn poison_notify(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exchange_sums_across_threads() {
        let p = 4;
        let bb = Arc::new(Blackboard::new(p, Arc::new(AtomicBool::new(false))));
        let handles: Vec<_> = (0..p)
            .map(|r| {
                let bb = Arc::clone(&bb);
                std::thread::spawn(move || {
                    let mut total = 0u64;
                    for round in 0..100u64 {
                        total += bb.exchange(r, r as u64 + round, |slots| {
                            slots
                                .iter()
                                .map(|s| *s.as_ref().unwrap().downcast_ref::<u64>().unwrap())
                                .sum::<u64>()
                        });
                    }
                    total
                })
            })
            .collect();
        let results: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every round the board holds 0+1+2+3 + 4*round.
        let expected: u64 = (0..100).map(|round| 6 + 4 * round).sum();
        for r in results {
            assert_eq!(r, expected);
        }
    }
}
