//! Job launcher: spawns one thread per rank and hands each a [`Comm`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use crate::comm::Comm;
use crate::envelope::Mailbox;
use crate::fault::FaultPlan;
use crate::health::{HealthBoard, HealthConfig};

/// Stack size of a rank thread in bytes (graph workloads recurse little,
/// but the per-rank CSR builders can use deep temporary structures).
const STACK_SIZE: usize = 8 << 20;

/// Launch-time options for a simulated job.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Deterministic fault-injection schedule applied to every rank.
    /// `None` (the default) is a clean run with zero fault-path work.
    pub fault: Option<Arc<FaultPlan>>,
    /// Rank-health watchdog tuning: wait deadlines, extension caps,
    /// and hang-declaration ladder (see [`HealthConfig`]).
    pub health: HealthConfig,
}

/// Run `f` on `p` simulated ranks and return the per-rank results in rank
/// order. Panics (with the original message) if any rank panics; peer ranks
/// blocked in communication calls unwind at their next watchdog tick
/// (≤ 50 ms) instead of hanging.
pub fn run<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    run_with(p, RunConfig::default(), f)
}

/// Unwind a rank blocked on a job a peer has already failed. It skips the
/// panic hook: the job reports the first rank's payload, not these.
pub(crate) fn poisoned() -> ! {
    std::panic::resume_unwind(Box::new("communicator poisoned: a peer rank panicked"))
}

/// [`run`] with explicit configuration.
pub fn run_with<R, F>(p: usize, config: RunConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert!(p > 0, "need at least one rank");
    let poison = Arc::new(AtomicBool::new(false));
    // The payload of the rank that panicked FIRST; secondary "poisoned"
    // panics from blocked peers are discarded in its favour.
    let first_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let board = Arc::new(HealthBoard::new(p));
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
    let senders = Arc::new(senders);

    let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, (rx, slot)) in receivers.into_iter().zip(results.iter_mut()).enumerate() {
            let senders = Arc::clone(&senders);
            let board = Arc::clone(&board);
            let poison = Arc::clone(&poison);
            let fault = config.fault.clone();
            let health = config.health.clone();
            let first_payload_ref = &first_payload;
            let builder = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(STACK_SIZE);
            let handle = builder
                .spawn_scoped(scope, move || {
                    let mailbox = Mailbox::new(rx, Arc::clone(&poison));
                    let comm = Comm::new(
                        rank,
                        p,
                        senders,
                        mailbox,
                        fault,
                        health,
                        board,
                        Arc::clone(&poison),
                    );
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    match out {
                        Ok(r) => {
                            *slot = Some(r);
                            Ok(())
                        }
                        Err(payload) => {
                            let was_first = !poison.swap(true, Ordering::SeqCst);
                            if was_first {
                                *first_payload_ref
                                    .lock()
                                    .expect("no rank panics holding the payload lock") =
                                    Some(payload);
                            }
                            Err(())
                        }
                    }
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        let mut any_failed = false;
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                _ => any_failed = true,
            }
        }
        if any_failed {
            let payload = first_payload
                .lock()
                .expect("no rank panics holding the payload lock")
                .take()
                .unwrap_or_else(|| Box::new("rank thread failed without recorded payload"));
            std::panic::resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("rank finished without result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOp;

    #[test]
    fn ranks_are_numbered_and_sized() {
        let out = run(3, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn single_rank_job_works() {
        let out = run(1, |c| c.all_reduce(42u64, ReduceOp::Sum));
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn collectives_match_by_source_out_of_order() {
        // Rank 0 comes late, so rank 2's contributions reach rank 1
        // first and wait in `pending` until rank 1 has heard from 0.
        let out = run(3, |c| {
            if c.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            let sum = c.all_reduce(c.rank() as u64 + 1, ReduceOp::Sum);
            c.barrier();
            let scan = c.exscan_sum(10 * (c.rank() as u64 + 1));
            (sum, scan)
        });
        assert_eq!(out, vec![(6, 0), (6, 10), (6, 30)]);
    }

    #[test]
    fn all_reduce_sum_min_max() {
        let out = run(4, |c| {
            let v = c.rank() as u64 + 1; // 1..=4
            (
                c.all_reduce(v, ReduceOp::Sum),
                c.all_reduce(v, ReduceOp::Min),
                c.all_reduce(v, ReduceOp::Max),
            )
        });
        for r in out {
            assert_eq!(r, (10, 1, 4));
        }
    }

    #[test]
    fn all_reduce_f64() {
        let out = run(3, |c| {
            c.all_reduce(0.5 * (c.rank() as f64 + 1.0), ReduceOp::Sum)
        });
        for r in out {
            assert!((r - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exscan_is_exclusive_prefix() {
        let out = run(4, |c| c.exscan_sum((c.rank() as u64 + 1) * 10));
        assert_eq!(out, vec![0, 10, 30, 60]);
    }

    #[test]
    fn all_reduce_folds_in_rank_order() {
        // f64 addition is not associative: only a rank-order left fold
        // gives these bits, on every rank.
        let vals = [1e16, 1.0, -1e16, 1.0];
        let out = run(4, |c| c.all_reduce(vals[c.rank()], ReduceOp::Sum));
        let folded = vals.iter().copied().reduce(|a, b| a + b).unwrap();
        assert_eq!(folded, 1.0);
        for r in out {
            assert_eq!(r.to_bits(), folded.to_bits());
        }
    }

    #[test]
    fn gather_to_root_only_root_receives() {
        let out = run(3, |c| {
            c.gather_to_root(0, vec![c.rank() as u64; c.rank() + 1])
        });
        assert_eq!(out[0], Some(vec![vec![0], vec![1, 1], vec![2, 2, 2]]));
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
    }

    #[test]
    fn all_to_all_v_routes_buffers() {
        let p = 4;
        let out = run(p, |c| {
            let bufs: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(c.rank() * 100 + dst) as u64])
                .collect();
            c.all_to_all_v(bufs)
        });
        for (rank, received) in out.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &vec![(src * 100 + rank) as u64]);
            }
        }
    }

    #[test]
    fn all_to_all_v_handles_empty_buffers() {
        let p = 3;
        let out = run(p, |c| {
            // Only rank 0 sends anything, and only to rank 2.
            let mut bufs: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
            if c.rank() == 0 {
                bufs[2] = vec![5, 6];
            }
            c.all_to_all_v(bufs)
        });
        assert_eq!(out[2][0], vec![5, 6]);
        assert!(out[1].iter().all(|b| b.is_empty()));
    }

    #[test]
    fn repeated_collectives_do_not_cross_rounds() {
        let out = run(4, |c| {
            let mut acc = 0u64;
            for i in 0..50u64 {
                acc = acc.wrapping_add(c.all_reduce(i + c.rank() as u64, ReduceOp::Sum));
                c.barrier();
            }
            acc
        });
        let expected: u64 = (0..50u64).map(|i| 4 * i + 6).sum();
        assert_eq!(out, vec![expected; 4]);
    }

    #[test]
    fn stats_count_traffic() {
        // A collective charges one call plus its bytes, however many
        // mailbox messages carry it; an all-to-all charges p−1 messages.
        let out = run(3, |c| {
            let mut bufs: Vec<Vec<u64>> = vec![Vec::new(); 3];
            if c.rank() == 0 {
                bufs[1] = vec![1, 2, 3];
            }
            c.all_to_all_v(bufs);
            c.barrier();
            c.all_reduce(1.0f64, ReduceOp::Sum);
            c.gather_to_root(0, vec![0u32; c.rank()]);
            c.stats().snapshot()
        });
        assert_eq!(out[0].p2p_messages, 2);
        assert_eq!(out[0].p2p_bytes, 24);
        assert_eq!(out[1].p2p_messages, 2);
        assert_eq!(out[1].p2p_bytes, 0);
        for (rank, snap) in out.iter().enumerate() {
            assert_eq!(snap.collective_calls, 3);
            assert_eq!(snap.collective_bytes, 8 + 4 * rank as u64);
        }
    }

    #[test]
    #[should_panic(expected = "deliberate rank failure")]
    fn rank_panic_propagates_without_deadlock() {
        run(3, |c| {
            if c.rank() == 1 {
                panic!("deliberate rank failure");
            }
            // Other ranks block in a barrier rank 1 never reaches; they must
            // be released by poisoning rather than hanging forever.
            c.barrier();
        });
    }

    #[test]
    fn concurrent_jobs_are_isolated() {
        // Two simulated jobs running at once must not cross wires.
        let h1 = std::thread::spawn(|| run(3, |c| c.all_reduce(c.rank() as u64, ReduceOp::Sum)));
        let h2 = std::thread::spawn(|| run(4, |c| c.all_reduce(1u64, ReduceOp::Sum)));
        assert_eq!(h1.join().unwrap(), vec![3, 3, 3]);
        assert_eq!(h2.join().unwrap(), vec![4, 4, 4, 4]);
    }

    #[test]
    fn gather_to_root_of_heterogeneous_struct() {
        #[derive(Debug, PartialEq)]
        struct Info {
            rank: usize,
            label: String,
        }
        let out = run(3, |c| {
            let info = Info {
                rank: c.rank(),
                label: format!("r{}", c.rank()),
            };
            c.gather_to_root(2, vec![info])
        });
        let gathered = out[2].as_ref().expect("rank 2 is the root");
        assert_eq!(gathered.len(), 3);
        assert_eq!(
            gathered[1],
            vec![Info {
                rank: 1,
                label: "r1".into()
            }]
        );
    }

    #[test]
    fn exscan_f64() {
        let out = run(3, |c| c.exscan_sum(0.5 * (c.rank() as f64 + 1.0)));
        assert_eq!(out, vec![0.0, 0.5, 1.5]);
    }

    #[test]
    fn large_payload_roundtrip() {
        let out = run(2, |c| {
            let mut bufs = vec![Vec::new(), Vec::new()];
            if c.rank() == 0 {
                bufs[1] = (0..100_000u64).collect();
            }
            c.all_to_all_v(bufs)[0].iter().sum::<u64>()
        });
        assert_eq!(out[1], (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn neighbor_all_to_all_on_a_ring() {
        let p = 4;
        let out = run(p, |c| {
            let left = (c.rank() + p - 1) % p;
            let right = (c.rank() + 1) % p;
            let neighbors = vec![left, right];
            let bufs = vec![vec![c.rank() as u64 * 10], vec![c.rank() as u64 * 10 + 1]];
            c.neighbor_all_to_all_v(&neighbors, bufs)
        });
        // Rank 1 hears from 0 (its right-buffer: 0*10+1) and 2 (left: 20).
        assert_eq!(out[1], vec![vec![1], vec![20]]);
        assert_eq!(out[0], vec![vec![31], vec![10]]);
    }

    #[test]
    fn neighbor_all_to_all_with_empty_topology() {
        let out = run(3, |c| c.neighbor_all_to_all_v::<u64>(&[], Vec::new()));
        assert!(out.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn neighbor_exchange_charges_fewer_messages_than_full() {
        let p = 4;
        let out = run(p, |c| {
            // Full all-to-all…
            let full: Vec<Vec<u64>> = (0..p).map(|_| vec![1]).collect();
            let _ = c.all_to_all_v(full);
            let after_full = c.stats().snapshot().p2p_messages;
            // …vs a single-neighbor exchange.
            let nbr = [(c.rank() + 1) % p, (c.rank() + p - 1) % p];
            let _ = c.neighbor_all_to_all_v(&nbr, vec![vec![1u64], vec![2u64]]);
            let after_nbr = c.stats().snapshot().p2p_messages;
            (after_full, after_nbr - after_full)
        });
        for (full, nbr) in out {
            assert_eq!(full, 3);
            assert_eq!(nbr, 2);
        }
    }

    #[test]
    fn buffered_same_stream_messages_keep_arrival_order() {
        // Regression: a non-root returns from `gather_to_root` at once, so
        // rank 0 floods root 1 with back-to-back gathers of alternating
        // types; rank 2 starts only after the whole burst is sent, so
        // root 1, stuck on rank 2 in the first gather, buffers the burst
        // in `pending`, and must take it in send order.
        let burst_sent = std::sync::Barrier::new(2);
        let out = run(3, |c| {
            if c.rank() == 2 {
                burst_sent.wait();
            }
            let mut vals = Vec::new();
            for i in 0..50u64 {
                let ints = c.gather_to_root(1, vec![i]);
                let floats = c.gather_to_root(1, vec![i as f64]);
                if let (Some(ints), Some(floats)) = (ints, floats) {
                    assert_eq!(floats[0], vec![i as f64]);
                    vals.push(ints[0][0]);
                }
            }
            if c.rank() == 0 {
                burst_sent.wait();
            }
            vals
        });
        assert_eq!(out[1], (0..50u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_hang_on_a_later_source_is_declared_against_it() {
        use crate::fault::FaultPlan;
        use crate::health::{HealthConfig, RankHung};
        // Rank 3 goes silent at its second all-reduce; its peers hear
        // from ranks 0..3 first, then wait on it.
        let plan = Arc::new(FaultPlan::parse("hang:rank=3,phase=0,op=1").unwrap());
        let health = HealthConfig {
            deadline: std::time::Duration::from_millis(50),
            max_retries: 1,
            ..HealthConfig::default()
        };
        let res = std::panic::catch_unwind(|| {
            run_with(
                4,
                RunConfig {
                    fault: Some(plan),
                    health,
                },
                |c| {
                    for _ in 0..3 {
                        c.all_reduce(c.rank() as u64, ReduceOp::Sum);
                    }
                },
            )
        });
        let payload = res.unwrap_err();
        let hung = payload
            .downcast_ref::<RankHung>()
            .expect("hang payload must survive propagation");
        assert_eq!(hung.rank, 3, "the silent rank is the one declared hung");
        assert_ne!(hung.detector, 3);
        assert_eq!((hung.phase, hung.op), (0, 1));
    }

    #[test]
    fn injected_crash_propagates_typed_payload() {
        use crate::fault::{FaultPlan, RankCrashed};
        let plan = Arc::new(FaultPlan::parse("crash:rank=1,phase=0,op=2").unwrap());
        let res = std::panic::catch_unwind(|| {
            run_with(
                2,
                RunConfig {
                    fault: Some(plan),
                    ..Default::default()
                },
                |c| {
                    for _ in 0..4 {
                        c.barrier();
                    }
                },
            )
        });
        let payload = res.unwrap_err();
        let crash = payload
            .downcast_ref::<RankCrashed>()
            .expect("crash payload must survive propagation");
        assert_eq!((crash.rank, crash.phase, crash.op), (1, 0, 2));
    }

    #[test]
    fn injected_hang_is_declared_hung_by_a_peer() {
        use crate::fault::FaultPlan;
        use crate::health::{HealthConfig, RankHung};
        let plan = Arc::new(FaultPlan::parse("hang:rank=1,phase=0,op=2").unwrap());
        let health = HealthConfig {
            deadline: std::time::Duration::from_millis(50),
            max_retries: 1,
            ..HealthConfig::default()
        };
        let res = std::panic::catch_unwind(|| {
            run_with(
                2,
                RunConfig {
                    fault: Some(plan),
                    health,
                },
                |c| {
                    for _ in 0..4 {
                        c.barrier();
                    }
                },
            )
        });
        let payload = res.unwrap_err();
        let hung = payload
            .downcast_ref::<RankHung>()
            .expect("hang payload must survive propagation");
        assert_eq!(hung.rank, 1, "the injected rank is the one declared hung");
        assert_eq!((hung.phase, hung.op), (0, 2));
    }

    #[test]
    fn injected_hang_self_reports_in_single_rank_job() {
        use crate::fault::FaultPlan;
        use crate::health::{HealthConfig, RankHung};
        let plan = Arc::new(FaultPlan::parse("hang:rank=0,phase=0,op=1").unwrap());
        let health = HealthConfig {
            deadline: std::time::Duration::from_millis(30),
            max_retries: 1,
            ..HealthConfig::default()
        };
        let res = std::panic::catch_unwind(|| {
            run_with(
                1,
                RunConfig {
                    fault: Some(plan),
                    health,
                },
                |c| {
                    c.barrier();
                    c.barrier();
                },
            )
        });
        let payload = res.unwrap_err();
        let hung = payload
            .downcast_ref::<RankHung>()
            .expect("self-timeout must produce a typed RankHung");
        // No peer exists; the hung rank declares itself.
        assert_eq!((hung.rank, hung.detector), (0, 0));
    }

    #[test]
    fn stall_is_survived_as_a_straggler_not_a_hang() {
        use crate::fault::FaultPlan;
        use crate::health::HealthConfig;
        let work = |c: &Comm| {
            let mut acc = 0u64;
            for i in 0..3u64 {
                acc += c.all_reduce(i + c.rank() as u64, ReduceOp::Sum);
            }
            acc
        };
        let clean = run(2, work);
        // Rank 1 stalls 150 ms before every op while the peer's deadline
        // is 40 ms: the watchdog must classify it as a live straggler
        // (heartbeats keep flowing) and extend, never declare it hung.
        let plan = Arc::new(FaultPlan::parse("stall:rank=1,ms=150,prob=1").unwrap());
        let health = HealthConfig {
            deadline: std::time::Duration::from_millis(40),
            max_retries: 1,
            ..HealthConfig::default()
        };
        let out = run_with(
            2,
            RunConfig {
                fault: Some(plan),
                health,
            },
            |c| {
                let acc = work(c);
                (acc, c.stats().snapshot())
            },
        );
        assert_eq!(vec![out[0].0, out[1].0], clean);
        let stalls: u64 = out.iter().map(|(_, s)| s.fault_stalls).sum();
        let stragglers: u64 = out.iter().map(|(_, s)| s.wd_stragglers).sum();
        assert!(stalls > 0, "the stall rule should have fired");
        assert!(
            stragglers > 0,
            "the peer's watchdog should have recorded straggler extensions"
        );
    }

    #[test]
    fn mixed_p2p_and_collectives() {
        let p = 4;
        let out = run(p, |c| {
            // Shift a token around the ring, then verify with an all-reduce.
            let next = (c.rank() + 1) % p;
            let prev = (c.rank() + p - 1) % p;
            let mut token = c.rank() as u64;
            for _ in 0..p {
                let got = c.neighbor_all_to_all_v(&[prev, next], vec![vec![], vec![token]]);
                token = got[0][0];
            }
            assert_eq!(token, c.rank() as u64);
            c.all_reduce(token, ReduceOp::Sum)
        });
        assert_eq!(out, vec![6; 4]);
    }
}
