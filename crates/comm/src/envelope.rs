//! The job's one transport: typed envelopes delivered through per-rank
//! mailboxes. Every collective and all-to-all of [`crate::Comm`] rides
//! it.
//!
//! Each rank owns one [`Mailbox`] (a `std::sync::mpsc` receiver plus a queue
//! of messages that arrived before anyone asked for them). Arrival across
//! senders is in any order, so a receive matches on the source rank.
//!
//! Delivery is reliable and in order per sender, as under MPI, and every
//! rank issues the same sequence of operations, so the next message from
//! a source is the one the current operation expects: the mailbox needs
//! no tags, sequence numbers, dedup or checksums.
//!
//! A blocked receive is the runtime's only wait. It runs under the
//! rank-health [`Watchdog`]: the configured deadline, deadline
//! extensions, and finally a [`crate::RankHung`] declaration against the
//! silent sender; at every tick it also unwinds if a peer has panicked.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

use crate::health::{WaitCtx, Watchdog};
use crate::runtime::poisoned;

/// A single in-flight message: source rank and payload. (Byte
/// accounting happens on the send side, in `CommStats`.)
pub(crate) struct Envelope {
    pub src: usize,
    pub payload: Box<dyn Any + Send>,
}

/// Receiving side of a rank's channel plus the "unexpected message queue".
pub(crate) struct Mailbox {
    rx: Receiver<Envelope>,
    /// Messages received from the channel that did not come from the
    /// source a caller was waiting for.
    pending: Vec<Envelope>,
    /// Set when any rank in the job panicked; blocked receives abort.
    poison: Arc<AtomicBool>,
}

impl Mailbox {
    pub fn new(rx: Receiver<Envelope>, poison: Arc<AtomicBool>) -> Self {
        Self {
            rx,
            pending: Vec::new(),
            poison,
        }
    }

    /// Blocking receive of the next envelope from `src`, under the
    /// watchdog ladder described in the module docs.
    ///
    /// Panics if the job is poisoned (another rank panicked), or with a
    /// typed [`crate::RankHung`] once the ladder declares the sender
    /// hung.
    pub fn recv_matching(&mut self, src: usize, ctx: &WaitCtx<'_>) -> Envelope {
        if let Some(pos) = self.pending.iter().position(|e| e.src == src) {
            // `remove`, not `swap_remove`: two buffered messages from the
            // same source must be delivered in arrival order, or
            // consecutive collectives would get swapped.
            // Buffered = already arrived = zero blocked wait.
            return self.pending.remove(pos);
        }
        // From here the caller is genuinely blocked: everything until
        // the matching envelope arrives is *wait* (idle, straggler-
        // bound), charged to the current step's wait counter.
        let wait_start = std::time::Instant::now();
        let mut dog = Watchdog::new(ctx);
        loop {
            dog.alive();
            match self.rx.recv_timeout(dog.tick()) {
                Ok(env) => {
                    if env.src == src {
                        let waited = wait_start.elapsed().as_nanos() as u64;
                        ctx.stats.count(|t, step| t.step_wait_nanos[step] += waited);
                        return env;
                    }
                    self.pending.push(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.poison.load(Ordering::Relaxed) {
                        poisoned();
                    }
                    if dog.due() {
                        dog.observe(src);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("communicator channel disconnected while waiting for rank {src}");
                }
            }
        }
    }
}

/// Sending endpoints to every rank in the job (index = destination rank).
pub(crate) type Senders = Arc<Vec<Sender<Envelope>>>;
