//! Point-to-point transport: tagged, typed envelopes delivered through
//! per-rank mailboxes.
//!
//! Each rank owns one [`Mailbox`] (a crossbeam channel receiver plus a queue
//! of messages that arrived before anyone asked for them). Out-of-order
//! arrival is expected — MPI matches on `(source, tag)` and so do we.
//!
//! The mailbox also implements the receiver half of the fault-tolerance
//! protocol: envelopes carry a per-sender sequence number (`seq == 0`
//! means "clean run, no protocol"), a header checksum (payload
//! corruptions injected by a [`crate::FaultPlan`] are detected by the
//! mismatch and discarded), and a piggybacked heartbeat stamp that
//! feeds the [`crate::health::HealthBoard`]. Corrupt copies injected by
//! a truncation are discarded at intake, and stale duplicates (sequence
//! numbers at or below the last accepted one) are dropped, so
//! retransmissions and duplications are invisible to callers.
//!
//! Blocked receives run under the rank-health [`Watchdog`]: the
//! configured deadline, deadline extensions with adaptive backoff, and
//! finally a [`crate::RankHung`] declaration against the silent sender.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::fault::mix64;
use crate::health::{WaitCtx, Watchdog};

/// A single in-flight message: source rank, user tag, and payload.
/// (Byte accounting happens on the send side, in `CommStats`.)
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u32,
    /// Per-sender physical sequence number; `0` = clean transmission
    /// outside the fault protocol (never deduplicated).
    pub seq: u64,
    /// Set on copies mangled by an injected truncation; discarded at
    /// intake before matching.
    pub corrupt: bool,
    /// Header checksum over `(src, tag, seq)`; `0` outside the fault
    /// protocol. An injected payload corruption flips bits here and the
    /// receiver discards the copy on the mismatch.
    pub checksum: u64,
    /// Sender's latest heartbeat stamp, piggybacked for the health
    /// board (`0` = no stamp).
    pub beat: u64,
    pub payload: Box<dyn Any + Send>,
}

/// The checksum a well-formed protocol envelope must carry.
pub(crate) fn expected_checksum(src: usize, tag: u32, seq: u64) -> u64 {
    mix64(seq ^ ((src as u64) << 32) ^ ((tag as u64) << 1) ^ 0x5EED_C0DE_F00D_CAFE)
}

impl Envelope {
    /// A clean envelope outside the fault protocol.
    pub fn clean(src: usize, tag: u32, payload: Box<dyn Any + Send>) -> Self {
        Self {
            src,
            tag,
            seq: 0,
            corrupt: false,
            checksum: 0,
            beat: 0,
            payload,
        }
    }
}

/// Receiving side of a rank's channel plus the "unexpected message queue".
pub(crate) struct Mailbox {
    rx: Receiver<Envelope>,
    /// Messages received from the channel that did not match the
    /// `(src, tag)` a caller was waiting for.
    pending: Vec<Envelope>,
    /// Set when any rank in the job panicked; blocked receives abort.
    poison: Arc<AtomicBool>,
    /// Highest accepted sequence number per sender (fault protocol).
    last_seq: Vec<u64>,
}

impl Mailbox {
    pub fn new(rx: Receiver<Envelope>, poison: Arc<AtomicBool>, p: usize) -> Self {
        Self {
            rx,
            pending: Vec::new(),
            poison,
            last_seq: vec![0; p],
        }
    }

    /// Intake filter: fold in the piggybacked heartbeat, then discard
    /// corrupt copies (truncation flag or checksum mismatch) and stale
    /// duplicates.
    fn admit(&mut self, env: Envelope, ctx: &WaitCtx<'_>) -> Option<Envelope> {
        ctx.board.observe(env.src, env.beat);
        if env.seq != 0 {
            if env.checksum != expected_checksum(env.src, env.tag, env.seq) {
                ctx.stats.count(|t, _| t.checksum_rejects += 1);
                return None;
            }
            if env.corrupt || env.seq <= self.last_seq[env.src] {
                return None;
            }
            self.last_seq[env.src] = env.seq;
        }
        Some(env)
    }

    /// Blocking receive of the next envelope matching `(src, tag)`,
    /// under the watchdog ladder described in the module docs.
    ///
    /// Panics if the job is poisoned (another rank panicked), or with a
    /// typed [`crate::RankHung`] once the ladder declares the sender
    /// hung.
    pub fn recv_matching(&mut self, src: usize, tag: u32, ctx: &WaitCtx<'_>) -> Envelope {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            // `remove`, not `swap_remove`: two buffered messages from the
            // same (src, tag) stream must be delivered in arrival order,
            // or consecutive all_to_all_v rounds would get swapped.
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
                    let Some(env) = self.admit(env, ctx) else {
                        continue;
                    };
                    if env.src == src && env.tag == tag {
                        let waited = wait_start.elapsed().as_nanos() as u64;
                        ctx.stats.count(|t, step| t.step_wait_nanos[step] += waited);
                        return env;
                    }
                    self.pending.push(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.poison.load(Ordering::Relaxed) {
                        panic!("communicator poisoned: a peer rank panicked");
                    }
                    if dog.due() {
                        dog.observe(&[src]);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!(
                        "communicator channel disconnected while waiting for rank {src} tag {tag}"
                    );
                }
            }
        }
    }
}

/// Sending endpoints to every rank in the job (index = destination rank).
pub(crate) type Senders = Arc<Vec<Sender<Envelope>>>;
