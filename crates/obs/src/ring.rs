//! A bounded, lock-free, multi-producer event ring (Vyukov-style bounded
//! queue, write-only during a run, drained once at job end).
//!
//! Each rank owns one ring; the rank thread is the usual producer, but
//! the protocol tolerates concurrent producers (e.g. helper threads)
//! without locks. When the ring is full, new events are counted as
//! dropped rather than blocking or reallocating — tracing must never
//! perturb the hot path it observes.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::event::TraceEvent;

struct Slot {
    /// Sequence protocol: `seq == index` means free, `seq == index + 1`
    /// means the value at this slot is fully written.
    seq: AtomicUsize,
    value: UnsafeCell<Option<TraceEvent>>,
}

pub struct EventRing {
    mask: usize,
    slots: Box<[Slot]>,
    /// Next claim position; never exceeds capacity (full rings drop).
    head: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slot values are only written by the producer that won the
// `head` CAS for that position, and only read by `drain(&mut self)`
// (exclusive access); the `seq` acquire/release pair orders the writes.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("len", &self.head.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventRing {
    /// Create a ring holding up to `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(None),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            mask: cap - 1,
            slots,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded so far (successful pushes).
    pub fn len(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event. Returns false (and counts a drop) if full.
    pub fn push(&self, ev: TraceEvent) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives this thread sole
                        // write access to the slot until seq is bumped.
                        unsafe { *slot.value.get() = Some(ev) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq < pos {
                // The slot one lap behind is still occupied: ring full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Take all recorded events in claim order. Exclusive access (`&mut`)
    /// guarantees no concurrent producers remain.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let n = self.len().min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for pos in 0..n {
            let slot = &mut self.slots[pos & self.mask];
            debug_assert_eq!(
                slot.seq.load(Ordering::Acquire),
                pos + 1,
                "unfinished slot write"
            );
            if let Some(ev) = slot.value.get_mut().take() {
                out.push(ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            name: "e",
            cat: "t",
            kind: EventKind::Instant,
            ts_ns: ts,
            tid: 0,
            attempt: 0,
            args: vec![],
        }
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut r = EventRing::with_capacity(16);
        for i in 0..10 {
            assert!(r.push(ev(i)));
        }
        let out = r.drain();
        assert_eq!(out.len(), 10);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.ts_ns, i as u64);
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_new_events_and_counts_them() {
        let mut r = EventRing::with_capacity(8);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        assert!(!r.push(ev(99)));
        assert!(!r.push(ev(100)));
        assert_eq!(r.dropped(), 2);
        let out = r.drain();
        assert_eq!(out.len(), 8);
        // The earliest events are the ones kept.
        assert_eq!(out[0].ts_ns, 0);
        assert_eq!(out[7].ts_ns, 7);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(0).capacity(), 8);
        assert_eq!(EventRing::with_capacity(9).capacity(), 16);
        assert_eq!(EventRing::with_capacity(1024).capacity(), 1024);
    }

    #[test]
    fn concurrent_producers_never_lose_claimed_events() {
        let ring = std::sync::Arc::new(EventRing::with_capacity(1 << 12));
        let threads = 4;
        let per_thread = 2_000u64; // 8000 pushes > 4096 slots: some drop
        let mut handles = Vec::new();
        for t in 0..threads {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..per_thread {
                    if ring.push(ev(t as u64 * per_thread + i)) {
                        pushed += 1;
                    }
                }
                pushed
            }));
        }
        let pushed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut ring = std::sync::Arc::try_unwrap(ring).expect("sole owner");
        let drained = ring.drain();
        assert_eq!(drained.len() as u64, pushed);
        assert_eq!(pushed + ring.dropped(), threads as u64 * per_thread);
        assert_eq!(pushed, ring.capacity() as u64);
        // No duplicates.
        let mut ids: Vec<u64> = drained.iter().map(|e| e.ts_ns).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), drained.len());
    }
}
