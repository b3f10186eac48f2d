//! The persistent worker pool both thread-parallel sweeps run on:
//! Grappolo's loops and `louvain-dist`'s colored schedule.

use std::ops::Range;

/// Type-erased job the pool workers execute: called once per worker with
/// the worker index. `'static` here is a lie upheld by [`WorkerPool::run`];
/// see the safety comment there.
type Job = &'static (dyn Fn(usize) + Sync);

struct PoolShared {
    /// Released by the publisher once `job` is set; every worker (and the
    /// publisher itself, acting as worker 0) passes through it per run.
    start: std::sync::Barrier,
    /// Passed by all participants after the job completes; the publisher
    /// does not return from `run` until it has crossed this barrier, which
    /// is what makes the `'static` transmute in `run` sound.
    end: std::sync::Barrier,
    job: std::sync::Mutex<Option<Job>>,
    shutdown: std::sync::atomic::AtomicBool,
}

/// A fixed-size pool of OS threads that stays alive across calls, so a
/// tight per-batch dispatch (many small parallel regions per second)
/// pays no thread spawn per region.
///
/// `run(len, work)` invokes `work` with one contiguous sub-range of
/// `0..len` per participating thread, `len.div_ceil(threads)` long, and
/// returns the results in range order, so output ordering is
/// deterministic and independent of scheduling.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Build a pool with `threads` total participants. The calling thread
    /// is participant 0 during `run`, so only `threads - 1` OS threads
    /// are spawned; `threads <= 1` spawns nothing and `run` executes
    /// inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            start: std::sync::Barrier::new(threads),
            end: std::sync::Barrier::new(threads),
            job: std::sync::Mutex::new(None),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|idx| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    shared.start.wait();
                    if shared.shutdown.load(std::sync::atomic::Ordering::Acquire) {
                        return;
                    }
                    let job = shared
                        .job
                        .lock()
                        .expect("worker pool mutex poisoned")
                        .expect("worker released without a job");
                    job(idx);
                    shared.end.wait();
                })
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total participants (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `work` over `0..len` split into one contiguous range per
    /// participant; results are returned in range order. Sub-ranges and
    /// their order depend only on `len` and the pool size, never on
    /// scheduling. `work` also receives the participant's index
    /// (`0..threads`, ascending with the ranges), so a caller can keep
    /// one piece of state per participant across calls.
    #[allow(unsafe_code)]
    pub fn run<A, F>(&self, len: usize, work: F) -> Vec<A>
    where
        A: Send,
        F: Fn(usize, Range<usize>) -> A + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let parts = self.threads.min(len);
        if parts == 1 || self.workers.is_empty() {
            return vec![work(0, 0..len)];
        }
        let chunk = len.div_ceil(parts);
        let slots: Vec<std::sync::Mutex<Option<A>>> =
            (0..parts).map(|_| std::sync::Mutex::new(None)).collect();
        let slots_ref = &slots;
        let work_ref = &work;
        let call = move |idx: usize| {
            // Workers beyond `parts` get an empty range when len < threads.
            let lo = (idx * chunk).min(len);
            let hi = ((idx + 1) * chunk).min(len);
            if lo < hi {
                *slots_ref[idx].lock().expect("worker pool slot poisoned") =
                    Some(work_ref(idx, lo..hi));
            }
        };
        {
            let erased: &(dyn Fn(usize) + Sync) = &call;
            // SAFETY: the job pointer is only dereferenced by workers
            // between the start barrier below and the end barrier at the
            // bottom of this block. The publisher participates in both
            // barriers, so it cannot leave this scope — and `call`,
            // `slots`, `work` cannot be dropped — until every worker has
            // finished executing the job. The transmute only erases the
            // lifetime for storage in the shared slot.
            let job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(erased) };
            *self.shared.job.lock().expect("worker pool mutex poisoned") = Some(job);
            self.shared.start.wait();
            call(0);
            self.shared.end.wait();
            *self.shared.job.lock().expect("worker pool mutex poisoned") = None;
        }
        slots
            .into_iter()
            .filter_map(|s| s.into_inner().expect("worker pool slot poisoned"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        if !self.workers.is_empty() {
            self.shared.start.wait();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_pool_matches_split_run_partitioning() {
        let pool = WorkerPool::new(4);
        for len in [0usize, 1, 3, 4, 5, 97, 1000] {
            let ranges = pool.run(len, |_, r| r);
            let reference = split_run_ranges(len, 4);
            assert_eq!(ranges, reference, "len = {len}");
        }
    }

    fn split_run_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let parts = threads.min(len).max(1);
        let chunk = len.div_ceil(parts);
        (0..parts)
            .map(|t| (t * chunk).min(len)..((t + 1) * chunk).min(len))
            .filter(|r| !r.is_empty())
            .collect()
    }

    #[test]
    fn worker_pool_reuses_threads_across_many_calls() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            let partials = pool.run(30, |_, r| {
                hits.fetch_add(r.len(), Ordering::Relaxed);
                r.len()
            });
            assert_eq!(partials.iter().sum::<usize>(), 30);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200 * 30);
    }

    #[test]
    fn worker_pool_single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.run(10, |_, r| r.sum::<usize>());
        assert_eq!(out, vec![45]);
    }

    #[test]
    fn worker_pool_results_preserve_range_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(8, |w, r| (w, r.start));
        assert_eq!(out, vec![(0, 0), (1, 2), (2, 4), (3, 6)]);
    }
}
