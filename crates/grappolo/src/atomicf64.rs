//! Atomic `f64` built on `AtomicU64` bit transmutation with a CAS loop —
//! the standard technique for concurrent floating-point accumulators
//! (community degree sums updated by many threads at once), as the
//! racing shared-memory sweep needs them.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` supporting relaxed atomic load/store and `fetch_add`.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    pub fn new(v: f64) -> Self {
        Self {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    #[inline]
    pub fn store(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `delta`; returns the previous value.
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let a = Arc::new(AtomicF64::new(0.0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        a.fetch_add(0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.load(), 4.0 * 10_000.0 * 0.5);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AtomicF64::default().load(), 0.0);
    }
}
