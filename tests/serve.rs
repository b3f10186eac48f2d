//! End-to-end guarantees of the `louvaind` serving layer: concurrent
//! jobs on a bounded pool, the fingerprint-keyed result cache,
//! kill-and-resume with bit-identical results, the poisoned-job
//! quarantine ladder, deterministic cancellation, and admission-control
//! backpressure.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use distributed_louvain::serve::{JobSpec, JobStatus, ServeConfig, Server, SubmitError};
use distributed_louvain::store::layout::SEC_WEIGHTS;
use distributed_louvain::store::{peek_header, SlabBuilder, SlabOptions};
use louvain_dist::{run_distributed, DistConfig, Variant};
use louvain_graph::gen::{lfr, LfrParams};
use louvain_graph::{Csr, EdgeSink};
use proptest::prelude::*;

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("louvain-serve-it-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic test graph as a slab, beside the in-memory graph a
/// direct run is checked against.
fn graph_file(dir: &Path, n: u64, seed: u64) -> (PathBuf, Csr) {
    let path = slab_file(dir, n, seed, 0.0);
    (path, lfr(LfrParams::small(n, seed)).graph)
}

/// The same LFR graph ingested to a slab, with the first edge's weight
/// raised by `bump` (0.0 leaves the graph as generated).
fn slab_file(dir: &Path, n: u64, seed: u64, bump: f64) -> PathBuf {
    let el = lfr(LfrParams::small(n, seed)).graph.to_edge_list();
    let path = dir.join(format!("lfr_{n}_{seed}_{bump}.slab"));
    let mut b = SlabBuilder::new(el.num_vertices(), SlabOptions::default());
    for (i, e) in el.edges().iter().enumerate() {
        let w = if i == 0 { e.w + bump } else { e.w };
        b.edge(e.u, e.v, w).unwrap();
    }
    b.finish(&path).unwrap();
    path
}

/// Flip one bit in the middle of the slab's `weights` section, leaving
/// the header (and so the job key) intact.
fn corrupt_weights(path: &Path) {
    let s = peek_header(path).unwrap().sections[SEC_WEIGHTS];
    let mut bytes = std::fs::read(path).unwrap();
    bytes[(s.offset + s.len / 2) as usize] ^= 0x04;
    std::fs::write(path, bytes).unwrap();
}

fn spec(job_id: &str, graph: &Path, ranks: usize, cfg: DistConfig) -> JobSpec {
    JobSpec {
        job_id: job_id.to_string(),
        graph: graph.to_path_buf(),
        ranks,
        cfg,
        fault_plan: None,
        max_crash_recoveries: None,
        max_hang_recoveries: None,
    }
}

fn server(dir: &Path, workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        checkpoint_root: dir.join("ckpt"),
        ..ServeConfig::default()
    })
}

fn done(status: &JobStatus) -> &JobStatus {
    assert!(
        matches!(status, JobStatus::Done { .. }),
        "expected Done, got {status:?}"
    );
    status
}

#[test]
fn concurrent_jobs_on_two_workers_match_direct_runs() {
    let dir = work_dir("concurrent");
    let (path_a, g_a) = graph_file(&dir, 400, 3);
    let (path_b, g_b) = graph_file(&dir, 500, 4);
    let srv = server(&dir, 2);

    // Distinct graphs and configs, all in flight together on the
    // 2-worker pool.
    let jobs = [
        ("a", &path_a, 2, DistConfig::baseline()),
        (
            "b",
            &path_b,
            2,
            DistConfig::with_variant(Variant::Et { alpha: 0.25 }),
        ),
        ("c", &path_a, 4, DistConfig::baseline()),
        ("d", &path_b, 1, DistConfig::baseline()),
    ];
    let seqs: Vec<u64> = jobs
        .iter()
        .map(|(id, path, ranks, cfg)| srv.submit(spec(id, path, *ranks, cfg.clone())).unwrap())
        .collect();
    for ((id, path, ranks, cfg), seq) in jobs.iter().zip(&seqs) {
        let status = srv
            .wait_timeout(*seq, Duration::from_secs(120))
            .unwrap_or_else(|| panic!("job {id} timed out"));
        let JobStatus::Done { result, .. } = done(&status) else {
            unreachable!()
        };
        let reference = run_distributed(if *path == &path_a { &g_a } else { &g_b }, *ranks, cfg);
        assert_eq!(
            result.assignment, reference.assignment,
            "job {id}: served assignment differs from a direct run"
        );
        assert_eq!(result.modularity.to_bits(), reference.modularity.to_bits());
        assert_eq!(
            *result.levels.last().unwrap(),
            result.assignment,
            "job {id}: last dendrogram level must equal the final assignment"
        );
    }
    srv.drain();
}

#[test]
fn identical_resubmission_is_a_cache_hit() {
    let dir = work_dir("cache");
    let (path, _) = graph_file(&dir, 300, 9);
    let srv = server(&dir, 1);

    let s1 = srv
        .submit(spec("first", &path, 2, DistConfig::baseline()))
        .unwrap();
    let first = srv.wait(s1).unwrap();
    let JobStatus::Done {
        cached: false,
        result: r1,
        ..
    } = done(&first)
    else {
        unreachable!()
    };

    // Different job id, same (graph, config, ranks) key.
    let s2 = srv
        .submit(spec("second", &path, 2, DistConfig::baseline()))
        .unwrap();
    let second = srv.wait(s2).unwrap();
    let JobStatus::Done {
        cached: true,
        result: r2,
        ..
    } = done(&second)
    else {
        panic!("resubmission must be served from the cache: {second:?}");
    };
    assert!(Arc::ptr_eq(r1, r2), "cache hit returns the same result");

    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.cache_hits"), Some(&1));
    assert_eq!(snap.counters.get("serve.cache_misses"), Some(&1));
    assert_eq!(snap.counters.get("serve.jobs_completed"), Some(&2));

    // A different ranks count is a different key: miss, not hit.
    let s3 = srv
        .submit(spec("third", &path, 4, DistConfig::baseline()))
        .unwrap();
    done(&srv.wait(s3).unwrap());
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.cache_hits"), Some(&1));
    assert_eq!(snap.counters.get("serve.cache_misses"), Some(&2));
    srv.drain();
}

/// Only slabs are served. A retired `LVGRBPH1` binary edge list and a
/// text edge list are each refused from the magic sniff: the job ends
/// `Failed`, the error says to run `louvain ingest`, and the daemon goes
/// on serving.
#[test]
fn non_slab_graphs_fail_naming_ingest() {
    let dir = work_dir("non-slab");
    let retired = dir.join("g.bin");
    std::fs::write(&retired, 0x4C56_4752_4250_4831u64.to_le_bytes()).unwrap();
    let text = dir.join("g.txt");
    std::fs::write(&text, "0 1\n1 2\n2 0\n").unwrap();
    let srv = server(&dir, 1);
    for (job, path, names) in [
        ("retired", &retired, "LVGRBPH1"),
        ("text", &text, "not a slab"),
    ] {
        let seq = srv
            .submit(spec(job, path, 2, DistConfig::baseline()))
            .unwrap();
        let status = srv.wait(seq).unwrap();
        let JobStatus::Failed { error, attempts: 0 } = &status else {
            panic!("{job}: expected Failed before any attempt, got {status:?}");
        };
        assert!(
            error.contains(names) && error.contains("louvain ingest"),
            "{job}: {error}"
        );
    }
    let (path, _) = graph_file(&dir, 300, 43);
    let seq = srv
        .submit(spec("slab", &path, 2, DistConfig::baseline()))
        .unwrap();
    done(&srv.wait(seq).unwrap());
    srv.drain();
}

#[test]
fn slab_resubmission_is_a_cache_hit() {
    let dir = work_dir("slab-cache");
    let path = slab_file(&dir, 400, 47, 0.0);
    let srv = server(&dir, 1);
    let s1 = srv
        .submit(spec("first", &path, 2, DistConfig::baseline()))
        .unwrap();
    let first = srv.wait(s1).unwrap();
    let JobStatus::Done {
        cached: false,
        result: r1,
        ..
    } = done(&first)
    else {
        panic!("first slab submission must run: {first:?}");
    };
    let s2 = srv
        .submit(spec("second", &path, 2, DistConfig::baseline()))
        .unwrap();
    let second = srv.wait(s2).unwrap();
    let JobStatus::Done {
        cached: true,
        result: r2,
        ..
    } = done(&second)
    else {
        panic!("slab resubmission must be served from the cache: {second:?}");
    };
    assert!(Arc::ptr_eq(r1, r2), "cache hit returns the same result");
    srv.drain();
}

#[test]
fn slab_with_corrupt_body_fails_its_checksum_on_a_miss() {
    let dir = work_dir("slab-corrupt-miss");
    let path = slab_file(&dir, 400, 53, 0.0);
    corrupt_weights(&path);
    let srv = server(&dir, 1);
    let s1 = srv
        .submit(spec("corrupt", &path, 2, DistConfig::baseline()))
        .unwrap();
    let status = srv.wait(s1).unwrap();
    let JobStatus::Failed { error, attempts } = &status else {
        panic!("a corrupt slab body must never be run: {status:?}");
    };
    assert!(
        error.contains("checksum mismatch in section weights"),
        "{error}"
    );
    assert_eq!(
        *attempts, 1,
        "a refused body counts on the quarantine ladder"
    );
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.jobs_completed"), None);
    srv.drain();
}

#[test]
fn slab_with_one_weight_changed_is_a_different_key() {
    let dir = work_dir("slab-rekey");
    let path = slab_file(&dir, 400, 59, 0.0);
    let heavier = slab_file(&dir, 400, 59, 1.0);
    let srv = server(&dir, 1);
    let mut keys = Vec::new();
    for (id, graph) in [("plain", &path), ("heavier", &heavier)] {
        let seq = srv
            .submit(spec(id, graph, 2, DistConfig::baseline()))
            .unwrap();
        let status = srv.wait(seq).unwrap();
        let JobStatus::Done {
            cached: false,
            result,
            ..
        } = done(&status)
        else {
            panic!("job {id} must miss: {status:?}");
        };
        keys.push(result.key.graph_fp);
    }
    assert_ne!(keys[0], keys[1], "the header key must see the weight");
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.cache_hits"), None);
    assert_eq!(snap.counters.get("serve.cache_misses"), Some(&2));
    srv.drain();
}

/// The documented limit of header keying: once a header's result is
/// cached, a body corrupted under that intact header is a hit — and is
/// answered with the result for the content the header declares.
#[test]
fn slab_with_corrupt_body_under_a_cached_header_is_a_hit() {
    let dir = work_dir("slab-corrupt-hit");
    let path = slab_file(&dir, 400, 61, 0.0);
    let srv = server(&dir, 1);
    let s1 = srv
        .submit(spec("good", &path, 2, DistConfig::baseline()))
        .unwrap();
    let JobStatus::Done { result: r1, .. } = done(&srv.wait(s1).unwrap()).clone() else {
        unreachable!()
    };
    corrupt_weights(&path);
    let s2 = srv
        .submit(spec("after", &path, 2, DistConfig::baseline()))
        .unwrap();
    let second = srv.wait(s2).unwrap();
    let JobStatus::Done {
        cached: true,
        result: r2,
        ..
    } = &second
    else {
        panic!("an intact header with a cached result is a hit: {second:?}");
    };
    assert!(Arc::ptr_eq(&r1, r2));
    srv.drain();
}

#[test]
fn killed_job_resumes_from_checkpoint_bit_identically() {
    let dir = work_dir("resume");
    let (path, g) = graph_file(&dir, 500, 11);
    let cfg = DistConfig::baseline();
    let reference = run_distributed(&g, 2, &cfg);
    let srv = server(&dir, 1);

    // Attempt 1: injected crash past its budget (0) kills the job after
    // phase 1's checkpoint committed.
    let killed = JobSpec {
        fault_plan: Some("crash:rank=0,phase=1,op=0".into()),
        max_crash_recoveries: Some(0),
        ..spec("job", &path, 2, cfg.clone())
    };
    let s1 = srv.submit(killed).unwrap();
    let failed = srv.wait(s1).unwrap();
    let JobStatus::Failed { error, attempts } = &failed else {
        panic!("budget-0 crash must fail the job: {failed:?}");
    };
    assert!(error.contains("crash recovery budget"), "{error}");
    assert_eq!(*attempts, 1);

    // Attempt 2: same key, no fault. Must resume off the dead
    // attempt's newest manifest, not start from scratch, and match the
    // uninterrupted run bit for bit.
    let s2 = srv.submit(spec("job", &path, 2, cfg)).unwrap();
    let second = srv.wait(s2).unwrap();
    let JobStatus::Done {
        cached: false,
        resumed_from_phase,
        result,
        ..
    } = done(&second)
    else {
        unreachable!()
    };
    assert!(
        resumed_from_phase.is_some(),
        "resubmission must resume from the killed attempt's checkpoint"
    );
    assert_eq!(result.assignment, reference.assignment);
    assert_eq!(result.modularity.to_bits(), reference.modularity.to_bits());
    assert_eq!(result.phases, reference.phases);

    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.jobs_resumed"), Some(&1));
    srv.drain();
}

#[test]
fn poisoned_job_is_quarantined_and_daemon_survives() {
    let dir = work_dir("quarantine");
    let (path, _) = graph_file(&dir, 300, 13);
    let srv = Server::start(ServeConfig {
        workers: 1,
        quarantine_after: 2,
        checkpoint_root: dir.join("ckpt"),
        ..ServeConfig::default()
    });

    // A phase-0 crash with budget 0 fails before any checkpoint exists,
    // so every retry fails the same way.
    let poisoned = || JobSpec {
        fault_plan: Some("crash:rank=0,phase=0,op=0".into()),
        max_crash_recoveries: Some(0),
        ..spec("poison", &path, 2, DistConfig::baseline())
    };
    let s1 = srv.submit(poisoned()).unwrap();
    assert!(matches!(
        srv.wait(s1).unwrap(),
        JobStatus::Failed { attempts: 1, .. }
    ));
    let s2 = srv.submit(poisoned()).unwrap();
    assert!(
        matches!(
            srv.wait(s2).unwrap(),
            JobStatus::Quarantined { attempts: 2, .. }
        ),
        "the ladder trips at quarantine_after"
    );
    // Third submission short-circuits without running.
    let s3 = srv.submit(poisoned()).unwrap();
    assert!(matches!(
        srv.wait(s3).unwrap(),
        JobStatus::Quarantined { .. }
    ));
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.jobs_quarantined"), Some(&2));

    // The daemon is alive and well: an unrelated clean job (different
    // key — the quarantine is per job key, and the fault plan is not
    // part of the key) still runs.
    let s4 = srv
        .submit(spec("clean", &path, 4, DistConfig::baseline()))
        .unwrap();
    done(&srv.wait(s4).unwrap());
    srv.drain();
}

/// A transport fault is not a fault this system models: admission sheds
/// the job as invalid, naming the kind, and nothing runs.
#[test]
fn transport_fault_plan_is_shed_as_invalid() {
    let dir = work_dir("transport-fault");
    let (path, _) = graph_file(&dir, 300, 23);
    let srv = server(&dir, 1);
    let err = srv
        .submit(JobSpec {
            fault_plan: Some("drop:prob=0.1".into()),
            ..spec("lossy", &path, 2, DistConfig::baseline())
        })
        .unwrap_err();
    let SubmitError::Invalid(msg) = err else {
        panic!("expected Invalid, got {err:?}");
    };
    assert!(msg.contains("\"drop\""), "{msg}");
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.jobs_accepted"), None);
    assert_eq!(snap.counters.get("serve.cache_misses"), None);
    srv.drain();
}

#[test]
fn queued_job_cancels_deterministically_and_resubmits_clean() {
    let dir = work_dir("cancel");
    let (path, _) = graph_file(&dir, 300, 17);
    // workers = 0: submissions stay queued, so cancellation is
    // deterministic (the job can never have started).
    let srv = server(&dir, 0);
    let s1 = srv
        .submit(spec("victim", &path, 2, DistConfig::baseline()))
        .unwrap();
    assert!(matches!(srv.status(s1), Some(JobStatus::Queued)));
    assert!(srv.cancel_job(s1));
    assert!(matches!(
        srv.status(s1),
        Some(JobStatus::Cancelled { at_phase: None })
    ));
    assert!(!srv.cancel_job(s1), "already terminal");
    let snap = srv.metrics_snapshot();
    assert_eq!(snap.counters.get("serve.jobs_cancelled"), Some(&1));
    srv.drain();

    // A fresh server with workers runs the same spec to completion.
    let srv = server(&dir, 1);
    let s2 = srv
        .submit(spec("victim", &path, 2, DistConfig::baseline()))
        .unwrap();
    done(&srv.wait(s2).unwrap());
    srv.drain();
}

#[test]
fn drain_sheds_queued_jobs_and_refuses_new_work() {
    let dir = work_dir("drain");
    let (path, _) = graph_file(&dir, 300, 19);
    let srv = server(&dir, 0);
    let seqs: Vec<u64> = (0..3)
        .map(|i| {
            srv.submit(spec(&format!("q{i}"), &path, 2, DistConfig::baseline()))
                .unwrap()
        })
        .collect();
    srv.drain();
    for seq in seqs {
        assert!(matches!(
            srv.status(seq),
            Some(JobStatus::Cancelled { at_phase: None })
        ));
    }
    assert_eq!(
        srv.submit(spec("late", &path, 2, DistConfig::baseline())),
        Err(SubmitError::ShuttingDown)
    );
}

/// Regression for the drain-while-shedding race: submitters hammering a
/// full queue while another thread drains must leave the
/// `serve.queue_depth` gauge consistent — never negative at any point
/// (`min >= 0`) and exactly zero once the drain finished. The gauge has
/// a single writer (`sync_queue_depth`, always under the state lock,
/// always recomputing from the queue's actual length), which is the
/// invariant this test pins.
#[test]
fn queue_depth_gauge_survives_drain_while_shedding() {
    let dir = work_dir("drain-shed-race");
    let (path, _) = graph_file(&dir, 300, 29);
    let srv = Server::start(ServeConfig {
        workers: 0,
        queue_depth: 4,
        checkpoint_root: dir.join("ckpt"),
        ..ServeConfig::default()
    });
    // Fill the queue, then race shedding submitters and cancels against
    // the drain.
    let seqs: Vec<u64> = (0..4)
        .map(|i| {
            srv.submit(spec(&format!("q{i}"), &path, 2, DistConfig::baseline()))
                .unwrap()
        })
        .collect();
    let submitters: Vec<_> = (0..3)
        .map(|t| {
            let srv = srv.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                for i in 0..20 {
                    let _ = srv.submit(spec(
                        &format!("shed-{t}-{i}"),
                        &path,
                        2,
                        DistConfig::baseline(),
                    ));
                }
            })
        })
        .collect();
    let canceller = {
        let srv = srv.clone();
        std::thread::spawn(move || {
            for seq in seqs {
                let _ = srv.cancel_job(seq);
            }
        })
    };
    srv.drain();
    for h in submitters {
        h.join().unwrap();
    }
    canceller.join().unwrap();

    let gauge = srv.metrics_snapshot().gauges["serve.queue_depth"];
    assert!(gauge.min >= 0.0, "queue depth went negative: {gauge:?}");
    assert_eq!(gauge.last, 0.0, "drained server has an empty queue");
    assert!(
        gauge.max <= 4.0,
        "gauge exceeded the queue bound: {gauge:?}"
    );
}

/// Satellite for the metric-name registry: every name a *live* daemon
/// snapshot carries — taken both mid-job and after a full bench-style
/// job mix — must render through the Prometheus exposition path, which
/// hard-errors on any name missing from `METRIC_REGISTRY`. A metric
/// added to the serving layer without registering it fails here, not in
/// production scrapes.
#[test]
fn live_daemon_snapshot_is_registry_clean() {
    let dir = work_dir("registry-clean");
    let (path, _) = graph_file(&dir, 400, 31);
    let srv = server(&dir, 2);

    let s1 = srv
        .submit(spec("r1", &path, 2, DistConfig::baseline()))
        .unwrap();
    // Mid-job scrape: must render cleanly while work is in flight.
    let mid = louvain_obs::prometheus_text(&srv.metrics_snapshot())
        .expect("mid-job snapshot renders without unregistered names");
    assert!(mid.contains("serve_queue_depth"), "{mid}");
    done(&srv.wait(s1).unwrap());

    // A cache hit and a second config broaden the exercised counters.
    let s2 = srv
        .submit(spec("r2", &path, 2, DistConfig::baseline()))
        .unwrap();
    let s3 = srv
        .submit(spec(
            "r3",
            &path,
            1,
            DistConfig::with_variant(Variant::Et { alpha: 0.25 }),
        ))
        .unwrap();
    done(&srv.wait(s2).unwrap());
    done(&srv.wait(s3).unwrap());

    let text = louvain_obs::prometheus_text(&srv.metrics_snapshot())
        .expect("full live snapshot renders without unregistered names");
    for series in [
        "serve_jobs_accepted_total",
        "serve_jobs_completed_total",
        "serve_jobs_running",
        "serve_cache_hits_total",
        "serve_job_latency_ms_bucket",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    // Round-trip: the renderer's output parses back.
    let parsed = louvain_obs::parse_prometheus_text(&text).unwrap();
    assert_eq!(parsed.get("serve_jobs_completed_total"), Some(&3.0));
    srv.drain();
}

/// The `watch` acceptance bit: the progress rows a watcher receives are
/// bit-for-bit the telemetry the finished job's artifact carries — same
/// rows, same order, identical float bits — because both come from the
/// same merged per-iteration records.
#[test]
fn watch_stream_matches_artifact_telemetry_bit_for_bit() {
    let dir = work_dir("watch-parity");
    let (path, _) = graph_file(&dir, 400, 37);
    let srv = server(&dir, 1);
    let seq = srv
        .submit(spec("w", &path, 2, DistConfig::baseline()))
        .unwrap();
    // Subscribe immediately: replay covers anything already emitted,
    // the channel covers the rest.
    let (replay, rx) = srv.watch(seq).expect("job exists");
    let status = done(&srv.wait(seq).unwrap()).clone();
    let mut streamed = replay;
    while let Ok(row) = rx.try_recv() {
        streamed.push(row);
    }
    streamed.sort_by_key(|r| (r.phase, r.iteration));

    let JobStatus::Done { result, .. } = status else {
        unreachable!()
    };
    let telemetry: Vec<_> = result
        .artifact
        .runs
        .iter()
        .flat_map(|run| run.telemetry.iter().cloned())
        .collect();
    assert!(!telemetry.is_empty(), "served artifact carries telemetry");
    assert_eq!(streamed.len(), telemetry.len());
    for (s, t) in streamed.iter().zip(&telemetry) {
        assert_eq!((s.phase, s.iteration), (t.phase, t.iteration));
        assert_eq!(s.modularity.to_bits(), t.modularity.to_bits());
        assert_eq!(s.delta_q.to_bits(), t.delta_q.to_bits());
        assert_eq!(s.moves, t.moves);
        assert_eq!(s.active, t.active);
        assert_eq!(s.vertices, t.vertices);
        assert_eq!(s.communities, t.communities);
    }
    srv.drain();
}

/// Flight-recorder consistency: a `dump` while the event log is enabled
/// produces a parseable document whose `last_seq` equals the sequence
/// number of the event-log tail — the exact invariant a post-crash
/// investigation leans on.
#[test]
fn flight_dump_last_seq_matches_event_log_tail() {
    let dir = work_dir("flight-parity");
    let (path, _) = graph_file(&dir, 300, 41);
    let log_path = dir.join("events.jsonl");
    let srv = Server::start(ServeConfig {
        workers: 1,
        checkpoint_root: dir.join("ckpt"),
        event_log: Some(log_path.clone()),
        ..ServeConfig::default()
    });
    let seq = srv
        .submit(spec("f", &path, 2, DistConfig::baseline()))
        .unwrap();
    done(&srv.wait(seq).unwrap());

    let dump_path = srv.dump_flight("test").unwrap();
    let (reason, last_seq, events) =
        louvain_obs::parse_flight_dump(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
    assert_eq!(reason, "test");
    assert_eq!(events.last().unwrap().seq, last_seq);
    assert!(
        events
            .iter()
            .any(|e| e.kind == louvain_obs::OpKind::JobDone),
        "ring holds the job lifecycle"
    );

    let log_tail_seq = std::fs::read_to_string(&log_path)
        .unwrap()
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .map(|l| {
            louvain_obs::OpEvent::from_json(&louvain_obs::Json::parse(l).unwrap())
                .unwrap()
                .seq
        })
        .unwrap();
    assert_eq!(
        last_seq, log_tail_seq,
        "flight dump and event log disagree about the newest event"
    );
    srv.drain();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Admission control backpressure: with a pool that never drains
    /// (workers = 0), exactly the first `queue_depth` submissions are
    /// accepted in order, every later one is shed with `QueueFull`
    /// without blocking, and the server still drains cleanly.
    #[test]
    fn backpressure_sheds_exactly_past_queue_depth(
        queue_depth in 1usize..6,
        extra in 0usize..5,
    ) {
        let dir = work_dir(&format!("backpressure-{queue_depth}-{extra}"));
        let (path, _) = graph_file(&dir, 300, 23);
        let srv = Server::start(ServeConfig {
            workers: 0,
            queue_depth,
            checkpoint_root: dir.join("ckpt"),
            ..ServeConfig::default()
        });
        let start = std::time::Instant::now();
        let mut accepted = Vec::new();
        for i in 0..queue_depth + extra {
            match srv.submit(spec(&format!("j{i}"), &path, 2, DistConfig::baseline())) {
                Ok(seq) => accepted.push((i, seq)),
                Err(e) => {
                    prop_assert_eq!(e, SubmitError::QueueFull);
                    prop_assert!(i >= queue_depth, "premature shed at {}", i);
                }
            }
        }
        // Deterministic accepted set and order: the first queue_depth
        // submissions, with monotonically increasing seqs.
        prop_assert_eq!(accepted.len(), queue_depth);
        for (k, (i, _)) in accepted.iter().enumerate() {
            prop_assert_eq!(*i, k);
        }
        for w in accepted.windows(2) {
            prop_assert!(w[0].1 < w[1].1);
        }
        // The listener never blocked: rejections are immediate.
        prop_assert!(
            start.elapsed() < Duration::from_secs(10),
            "admission control must not block"
        );
        let snap = srv.metrics_snapshot();
        prop_assert_eq!(
            snap.counters.get("serve.jobs_rejected").copied().unwrap_or(0),
            extra as u64
        );
        srv.drain();
    }
}
