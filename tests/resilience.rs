//! Tier-1 resilience guarantees: a run killed at any phase and resumed
//! from its newest checkpoint produces **bit-identical** final
//! membership and modularity to an uninterrupted run, hung ranks are
//! declared and recovered from the same way, stalled ranks are carried
//! as stragglers without changing any result, and fault injection is
//! fully deterministic from its seed.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use louvain_comm::{FaultPlan, RunConfig};
use louvain_dist::{
    run_distributed, run_distributed_resilient_source, CheckpointOptions, DistConfig, DistOutcome,
    GraphSource, ResilOptions, Variant,
};
use louvain_graph::gen::{lfr, rmat, ssca2, LfrParams, RmatParams, Ssca2Params};
use louvain_graph::Csr;

/// Tracing toggles are process-global; tests that flip them serialize.
static TRACE_FLAG: Mutex<()> = Mutex::new(());

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("louvain-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The resilient engine on a resident graph, as every test here runs it.
fn run_resilient(
    g: &Csr,
    p: usize,
    cfg: &DistConfig,
    runcfg: RunConfig,
    resil: &ResilOptions,
) -> Result<DistOutcome, String> {
    run_distributed_resilient_source(GraphSource::Memory(g), p, cfg, runcfg, resil)
}

fn with_plan(spec: &str) -> RunConfig {
    RunConfig {
        fault: Some(Arc::new(FaultPlan::parse(spec).expect("fault spec"))),
        ..RunConfig::default()
    }
}

fn assert_bit_identical(a: &DistOutcome, b: &DistOutcome, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignments differ");
    assert_eq!(
        a.modularity.to_bits(),
        b.modularity.to_bits(),
        "{what}: modularity differs ({} vs {})",
        a.modularity,
        b.modularity
    );
    assert_eq!(a.num_communities, b.num_communities, "{what}");
    assert_eq!(a.phases, b.phases, "{what}: phase counts differ");
}

/// The paper's three benchmark families, sized for test time.
fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        (
            "ssca2",
            ssca2(Ssca2Params {
                n: 700,
                max_clique_size: 14,
                inter_clique_prob: 0.05,
                seed: 5,
            })
            .graph,
        ),
        ("lfr", lfr(LfrParams::small(900, 11)).graph),
        ("rmat", rmat(RmatParams::social(9, 6, 3)).graph),
    ]
}

/// The tentpole guarantee: for every rank count, every graph family,
/// and a kill at EVERY phase of the run, crash + restore from the
/// newest checkpoint reproduces the uninterrupted run bit for bit.
#[test]
fn kill_and_resume_is_bit_identical_for_every_phase() {
    let cfg = DistConfig::baseline();
    for (name, g) in graphs() {
        for p in [1, 2, 8] {
            let clean = run_distributed(&g, p, &cfg);
            assert!(clean.phases >= 2, "{name}: want a multi-phase run");
            for kill_phase in 0..clean.phases {
                let label = format!("{name} p={p} kill at phase {kill_phase}");
                let dir = tmp_dir(&format!("kill-{name}-p{p}-k{kill_phase}"));
                let resil = ResilOptions {
                    checkpoint: Some(CheckpointOptions::new(&dir)),
                    resume: false,
                    crash_budget: 1,
                    hang_budget: 1,
                    ..ResilOptions::none()
                };
                let out = run_resilient(
                    &g,
                    p,
                    &cfg,
                    with_plan(&format!("crash:rank=0,phase={kill_phase},op=0")),
                    &resil,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(out.recoveries, 1, "{label}");
                // The kill lands on the first comm op of phase k, so the
                // newest complete checkpoint is the phase-k boundary
                // (none at all for k=0: clean restart).
                let expected_resume = (kill_phase > 0).then_some(kill_phase as u64);
                assert_eq!(out.resumed_from_phase, expected_resume, "{label}");
                assert_bit_identical(&out, &clean, &label);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Checkpoint/resume under the colored parallel sweep: a crash landing
/// mid-phase (on a comm op in the middle of an iteration's exchange
/// sequence) while ranks sweep with 4 worker threads must restore and
/// replay to results bit-identical to the uninterrupted parallel run —
/// and to the 1-thread run, since the colored schedule is thread-count
/// deterministic.
#[test]
fn parallel_sweep_crash_mid_phase_resumes_bit_identically() {
    let cfg = DistConfig {
        sweep: louvain_dist::SweepMode::Colored,
        threads_per_rank: 4,
        ..DistConfig::baseline()
    };
    let serial_cfg = DistConfig {
        sweep: louvain_dist::SweepMode::Colored,
        threads_per_rank: 1,
        ..DistConfig::baseline()
    };
    for (name, g) in graphs() {
        for p in [2, 4] {
            let clean = run_distributed(&g, p, &cfg);
            assert!(clean.phases >= 2, "{name}: want a multi-phase run");
            assert_bit_identical(
                &clean,
                &run_distributed(&g, p, &serial_cfg),
                &format!("{name} p={p} threads 4 vs 1"),
            );
            // op=2 lands inside an iteration's 4-step comm sequence, so
            // the recovery replays a partially swept phase.
            for (kill_phase, op) in [(1usize, 2usize), (clean.phases - 1, 2)] {
                let label = format!("{name} p={p} kill at phase {kill_phase} op {op}");
                let dir = tmp_dir(&format!("par-kill-{name}-p{p}-k{kill_phase}"));
                let resil = ResilOptions {
                    checkpoint: Some(CheckpointOptions::new(&dir)),
                    resume: false,
                    crash_budget: 1,
                    hang_budget: 1,
                    ..ResilOptions::none()
                };
                let out = run_resilient(
                    &g,
                    p,
                    &cfg,
                    with_plan(&format!("crash:rank=0,phase={kill_phase},op={op}")),
                    &resil,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(out.recoveries, 1, "{label}");
                assert_bit_identical(&out, &clean, &label);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Several crashes in one run: each recovery consumes one crash rule
/// and restarts from the newest checkpoint at that moment.
#[test]
fn repeated_crashes_are_each_recovered_from_the_newest_checkpoint() {
    let g = lfr(LfrParams::small(900, 11)).graph;
    let cfg = DistConfig::baseline();
    let p = 2;
    let clean = run_distributed(&g, p, &cfg);
    let last = clean.phases - 1;
    let dir = tmp_dir("repeated-crashes");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
        crash_budget: 2,
        hang_budget: 2,
        ..ResilOptions::none()
    };
    let spec = format!("crash:rank=1,phase=1,op=0;crash:rank=0,phase={last},op=1");
    let out =
        run_resilient(&g, p, &cfg, with_plan(&spec), &resil).expect("two crashes within budget");
    assert_eq!(out.recoveries, 2);
    assert_eq!(out.resumed_from_phase, Some(last as u64));
    assert_bit_identical(&out, &clean, "two-crash recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exhausted recovery budget surfaces as a descriptive `Err`, not a
/// panic — the CLI turns this into a nonzero exit.
#[test]
fn exhausted_recovery_budget_is_an_error() {
    let g = ssca2(Ssca2Params {
        n: 400,
        max_clique_size: 10,
        inter_clique_prob: 0.05,
        seed: 2,
    })
    .graph;
    let cfg = DistConfig::baseline();
    let dir = tmp_dir("no-budget");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
        crash_budget: 0,
        hang_budget: 0,
        ..ResilOptions::none()
    };
    let err = run_resilient(&g, 2, &cfg, with_plan("crash:rank=0,phase=1,op=0"), &resil)
        .expect_err("budget 0 cannot absorb a crash");
    assert!(
        err.contains("rank 0") && err.contains("budget"),
        "unhelpful error: {err}"
    );
    // The checkpoint the crashed run left behind resumes cleanly.
    let resumed = run_resilient(
        &g,
        2,
        &cfg,
        RunConfig::default(),
        &ResilOptions {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            resume: true,
            crash_budget: 0,
            hang_budget: 0,
            ..ResilOptions::none()
        },
    )
    .expect("resume after external restart");
    assert_eq!(resumed.resumed_from_phase, Some(1));
    let clean = run_distributed(&g, 2, &cfg);
    assert_bit_identical(&resumed, &clean, "resume-after-error");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming under a different configuration must refuse loudly instead
/// of silently diverging; so must resuming without a checkpoint dir.
#[test]
fn resume_validation_refuses_incompatible_state() {
    let g = lfr(LfrParams::small(600, 7)).graph;
    let cfg = DistConfig::baseline();
    let dir = tmp_dir("validation");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
        crash_budget: 0,
        hang_budget: 0,
        ..ResilOptions::none()
    };
    run_resilient(&g, 2, &cfg, RunConfig::default(), &resil).expect("checkpointed run");

    let mut other = cfg.clone();
    other.seed ^= 1;
    let err = run_resilient(
        &g,
        2,
        &other,
        RunConfig::default(),
        &ResilOptions {
            resume: true,
            ..resil.clone()
        },
    )
    .expect_err("different config must not resume");
    assert!(err.contains("configuration"), "unhelpful error: {err}");

    let err = run_resilient(
        &g,
        3,
        &cfg,
        RunConfig::default(),
        &ResilOptions {
            resume: true,
            ..resil.clone()
        },
    )
    .expect_err("different rank count must not resume");
    assert!(err.contains("rank"), "unhelpful error: {err}");

    let err = run_resilient(
        &g,
        2,
        &cfg,
        RunConfig::default(),
        &ResilOptions {
            checkpoint: None,
            resume: true,
            crash_budget: 0,
            hang_budget: 0,
            ..ResilOptions::none()
        },
    )
    .expect_err("resume without a checkpoint dir");
    assert!(err.contains("checkpoint"), "unhelpful error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose content hash is valid but one field is malformed
/// must fail the resume with a typed error naming the field, not panic
/// a rank on the graph constructors' asserts.
#[test]
fn malformed_checkpoint_fields_are_refused_on_resume() {
    use louvain_resil::{CheckpointStore, RankCheckpoint};
    let g = lfr(LfrParams::small(600, 7)).graph;
    let cfg = DistConfig::baseline();
    let dir = tmp_dir("malformed");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        ..ResilOptions::none()
    };
    run_resilient(&g, 2, &cfg, RunConfig::default(), &resil).expect("checkpointed run");
    let store = CheckpointStore::new(&dir).unwrap();
    let manifest = store.latest_manifest().unwrap().expect("a committed phase");
    let clean = store.load_rank(&manifest, 1).unwrap();
    type Edit = fn(&mut RankCheckpoint);
    let edits: [(&str, Edit); 5] = [
        ("part_starts", |c| c.part_starts[1] = u64::MAX),
        ("offsets", |c| {
            c.offsets.pop();
        }),
        ("offsets", |c| c.offsets[1] = u64::MAX),
        ("dests", |c| c.dests[0] = u32::MAX),
        ("cur_of_orig", |c| {
            c.cur_of_orig.pop();
        }),
    ];
    for (field, edit) in edits {
        let mut bad = clean.clone();
        edit(&mut bad);
        let mut files = manifest.files.clone();
        files[1] = store.write_rank(&bad).unwrap();
        store
            .commit_phase(manifest.phase, 2, manifest.config_fingerprint, files)
            .unwrap();
        let resume = ResilOptions {
            resume: true,
            ..resil.clone()
        };
        let err = run_resilient(&g, 2, &cfg, RunConfig::default(), &resume)
            .expect_err("a malformed checkpoint must not resume");
        assert!(
            err.contains("corrupt") && err.contains(field),
            "{field}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash while another rank stalls: the recovery driver skips the
/// consumed crash rule, the stall rule keeps firing on every attempt,
/// the peer's watchdog carries the stalled rank as a straggler, and
/// the result is the clean one.
#[test]
fn crash_recovery_survives_concurrent_transient_faults() {
    let g = rmat(RmatParams::social(9, 6, 3)).graph;
    let cfg = DistConfig::baseline();
    let p = 2;
    let clean = run_distributed(&g, p, &cfg);
    let dir = tmp_dir("crash-plus-stall");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
        crash_budget: 1,
        hang_budget: 1,
        ..ResilOptions::none()
    };
    let spec = "seed=13;stall:rank=0,ms=100,prob=0.04;crash:rank=1,phase=1,op=2";
    let out = run_resilient(
        &g,
        p,
        &cfg,
        with_plan_and_health(spec, fast_health()),
        &resil,
    )
    .expect("one crash within budget");
    assert_eq!(out.recoveries, 1);
    assert!(
        out.hung_events.is_empty(),
        "a stalled rank was declared hung"
    );
    assert_bit_identical(&out, &clean, "crash + stalls");
    assert!(out.traffic.fault_stalls > 0, "the stall rule never fired");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: the delta ghost refresh must keep working across a
/// resume. Each phase's first exchange is always full (no baseline
/// yet); any *additional* full exchange post-resume can only come from
/// the >¼-moved fallback inside the delta policy — so seeing more fulls
/// than ranks×phases proves the fallback fired after restore, and the
/// bit-identical outcome proves it (and the delta path, which must also
/// appear) stayed correct.
#[test]
fn delta_ghost_refresh_falls_back_to_full_after_resume() {
    use louvain_graph::gen::{grid3d, Grid3dParams};
    let _serial = TRACE_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    // A 3-D grid coarsens through many phases with heavy churn at every
    // scale, so the >¼-moved condition reliably holds post-resume.
    let g = grid3d(Grid3dParams {
        nx: 12,
        ny: 12,
        nz: 8,
        seed: 1,
        diagonals: false,
        fill: 1.0,
    })
    .graph;
    let cfg = DistConfig {
        delta_ghost_refresh: true,
        ..DistConfig::baseline()
    };
    let p = 2;
    let clean = run_distributed(&g, p, &cfg);
    let dir = tmp_dir("delta-fallback");
    let checkpoint = Some(CheckpointOptions::new(&dir));

    // Stage 1: crash at phase 1 with no recovery budget (tracing off).
    let crashed = run_resilient(
        &g,
        p,
        &cfg,
        with_plan("crash:rank=0,phase=1,op=0"),
        &ResilOptions {
            checkpoint: checkpoint.clone(),
            resume: false,
            crash_budget: 0,
            hang_budget: 0,
            ..ResilOptions::none()
        },
    );
    assert!(crashed.is_err());

    // Stage 2: resume with tracing on, so the harvested counters cover
    // exactly the post-resume phases.
    louvain_obs::set_enabled(true);
    let out = run_resilient(
        &g,
        p,
        &cfg,
        RunConfig::default(),
        &ResilOptions {
            checkpoint,
            resume: true,
            crash_budget: 0,
            hang_budget: 0,
            ..ResilOptions::none()
        },
    );
    louvain_obs::set_enabled(false);
    let out = out.expect("resume");
    assert_eq!(out.resumed_from_phase, Some(1));
    assert_bit_identical(&out, &clean, "delta refresh across resume");

    let metrics = out.trace.as_ref().expect("traced run").merged_metrics();
    let full = metrics
        .counters
        .get("ghost.full.refreshes")
        .copied()
        .unwrap_or(0);
    let delta = metrics
        .counters
        .get("ghost.delta.refreshes")
        .copied()
        .unwrap_or(0);
    let post_resume_phases = (out.phases - 1) as u64;
    assert!(delta >= 1, "delta refresh never ran post-resume");
    assert!(
        full > p as u64 * post_resume_phases,
        "no >¼-moved fallback fired post-resume (full={full}, delta={delta}, \
         post-resume phases={post_resume_phases})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpointing must not perturb the trajectory: checkpoint-on and
/// checkpoint-off runs are bit-identical, and all checkpoint traffic is
/// attributed to the dedicated `checkpoint` comm step.
#[test]
fn checkpointing_never_changes_results_and_is_step_attributed() {
    use louvain_comm::CommStep;
    let g = ssca2(Ssca2Params {
        n: 700,
        max_clique_size: 14,
        inter_clique_prob: 0.05,
        seed: 5,
    })
    .graph;
    let cfg = DistConfig::baseline();
    for p in [1, 4] {
        let clean = run_distributed(&g, p, &cfg);
        let dir = tmp_dir(&format!("overhead-p{p}"));
        let resil = ResilOptions {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            resume: false,
            crash_budget: 0,
            hang_budget: 0,
            ..ResilOptions::none()
        };
        let ckpt =
            run_resilient(&g, p, &cfg, RunConfig::default(), &resil).expect("checkpointed run");
        assert_bit_identical(&ckpt, &clean, "checkpoint-on vs off");
        assert_eq!(ckpt.recoveries, 0);
        assert_eq!(ckpt.resumed_from_phase, None);
        // All non-checkpoint steps carry exactly the clean run's bytes.
        for step in CommStep::ALL {
            if step == CommStep::Checkpoint {
                continue;
            }
            assert_eq!(
                ckpt.traffic.step_bytes_for(step),
                clean.traffic.step_bytes_for(step),
                "p={p}: step {} perturbed by checkpointing",
                step.label()
            );
        }
        // Slabs really hit the disk, under a committed manifest.
        assert!(dir.join("LATEST").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Rank-health watchdog: hang detection and recovery
// ---------------------------------------------------------------------------

use louvain_comm::{CommStep, HealthConfig};
use std::time::Duration;

/// A watchdog tuned for test time: short deadline, few extensions.
/// Detection of a hang lands within a few hundred ms.
/// The checkpoint step gets a higher retry cap (the per-step override
/// surface): slab serialization + fsync can keep a healthy rank away
/// from its heartbeat for longer than the tight test deadline.
fn fast_health() -> HealthConfig {
    let mut cfg = HealthConfig {
        deadline: Duration::from_millis(60),
        max_retries: 2,
        ..HealthConfig::default()
    };
    // fsync storms on a loaded box can keep a rank from beating for
    // hundreds of ms; the deep cap keeps checkpoint I/O from being
    // misread as a hang while every other step stays snappy.
    cfg.step_max_retries[CommStep::Checkpoint.index()] = Some(30);
    cfg
}

fn with_plan_and_health(spec: &str, health: HealthConfig) -> RunConfig {
    RunConfig {
        fault: Some(Arc::new(FaultPlan::parse(spec).expect("fault spec"))),
        health,
    }
}

/// The watchdog ladder (deadline-aware waits, heartbeats, deadline
/// extensions) arms every blocked wait, and must cost a
/// healthy run nothing but bookkeeping: not one watchdog event. The
/// `PINS` of `tests/parity.rs` hold the armed trajectories.
#[test]
fn armed_watchdog_never_changes_a_fault_free_run() {
    let cfg = DistConfig {
        delta_ghost_refresh: true,
        ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
    };
    for (name, g) in graphs() {
        let out = run_resilient(&g, 4, &cfg, RunConfig::default(), &ResilOptions::none())
            .expect("fault-free run");
        let t = &out.traffic;
        assert_eq!(
            (t.wd_timeouts, t.wd_retries, t.wd_stragglers),
            (0, 0, 0),
            "{name}: a healthy run must not trip the watchdog"
        );
    }
}

/// The watchdog counterpart of the kill-and-resume tentpole: a rank
/// that goes silent (hangs) at EVERY phase, for every rank count and
/// graph family, is detected within the configured deadline ladder,
/// declared hung, and recovered from the newest checkpoint — with a
/// final result bit-identical to the uninterrupted run.
#[test]
fn hang_recovery_is_bit_identical_for_every_phase() {
    let cfg = DistConfig::baseline();
    for (name, g) in graphs() {
        for p in [1, 2, 8] {
            let clean = run_distributed(&g, p, &cfg);
            assert!(clean.phases >= 2, "{name}: want a multi-phase run");
            // The hung rank: last rank when p > 1 (so rank 0, which owns
            // the gathers, does the detecting), itself at p = 1 (the
            // self-timeout path — no peer exists to notice).
            let victim = p - 1;
            for hang_phase in 0..clean.phases {
                let label = format!("{name} p={p} hang at phase {hang_phase}");
                let dir = tmp_dir(&format!("hang-{name}-p{p}-h{hang_phase}"));
                let resil = ResilOptions {
                    checkpoint: Some(CheckpointOptions::new(&dir)),
                    resume: false,
                    crash_budget: 1,
                    hang_budget: 1,
                    ..ResilOptions::none()
                };
                let out = run_resilient(
                    &g,
                    p,
                    &cfg,
                    with_plan_and_health(
                        &format!("hang:rank={victim},phase={hang_phase},op=0"),
                        fast_health(),
                    ),
                    &resil,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(out.recoveries, 1, "{label}");
                assert_eq!(out.hung_events.len(), 1, "{label}");
                let hung = &out.hung_events[0];
                assert_eq!(hung.rank, victim, "{label}: wrong rank declared");
                assert_eq!(hung.phase, hang_phase as u64, "{label}");
                // Who wins the detection race is timing-dependent: a
                // peer's ladder normally lands first (~2× deadline vs
                // the 3× self-timeout), but on a loaded machine the
                // self-timeout may fire before the peer's final window
                // expires. Either detector is a valid detection; only
                // the declared rank and phase are deterministic.
                assert!(hung.detector < p, "{label}: detector out of range");
                if p == 1 {
                    assert_eq!(hung.detector, 0, "{label}: must self-declare");
                }
                let expected_resume = (hang_phase > 0).then_some(hang_phase as u64);
                assert_eq!(out.resumed_from_phase, expected_resume, "{label}");
                assert_bit_identical(&out, &clean, &label);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A slow rank (stalling longer than the deadline, but heartbeating)
/// must be carried as a straggler — deadline extensions, no hang
/// declaration, no recovery — and the result must not change.
#[test]
fn stall_straggler_is_extended_not_declared_hung() {
    let g = lfr(LfrParams::small(700, 5)).graph;
    let cfg = DistConfig::baseline();
    let p = 2;
    let clean = run_distributed(&g, p, &cfg);
    // 150 ms stalls against a 60 ms deadline. The stall decision is
    // op-keyed (phase-independent), so under this seed op 10 of every
    // epoch stalls — roughly one straggler episode per phase.
    let spec = "seed=2;stall:rank=1,ms=150,prob=0.05";
    let out = run_resilient(
        &g,
        p,
        &cfg,
        with_plan_and_health(spec, fast_health()),
        &ResilOptions::none(),
    )
    .expect("stalls must not consume the recovery budget");
    assert_eq!(out.recoveries, 0);
    assert!(out.hung_events.is_empty(), "straggler misdeclared as hung");
    assert_bit_identical(&out, &clean, "stall straggler");
    let t = &out.traffic;
    assert!(t.fault_stalls > 0, "the stall rule never fired");
    assert!(
        t.wd_stragglers > 0,
        "no straggler extension recorded (stalls={}, timeouts={})",
        t.fault_stalls,
        t.wd_timeouts
    );
}

/// The run report surfaces the health story: hung-rank events with
/// phase/op attribution, per-rank watchdog counters, and slowest-rank
/// attribution — and it round-trips through JSON.
#[test]
fn run_report_carries_health_section_and_hung_events() {
    use louvain_dist::{build_run_report, ReportMeta};
    use louvain_obs::{RunReport, StatsSnapshot};
    let g = lfr(LfrParams::small(700, 9)).graph;
    let cfg = DistConfig::baseline();
    let p = 2;
    let dir = tmp_dir("report-health");
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
        crash_budget: 1,
        hang_budget: 1,
        ..ResilOptions::none()
    };
    let out = run_resilient(
        &g,
        p,
        &cfg,
        with_plan_and_health("hang:rank=1,phase=1,op=0", fast_health()),
        &resil,
    )
    .expect("hang within budget");
    let meta = ReportMeta::new("lfr-700", 700, g.num_edges() as u64);
    let report = build_run_report(&out, &meta);
    assert_eq!(report.health.hung_events.len(), 1);
    assert_eq!(report.health.hung_events[0].rank, 1);
    assert_eq!(report.health.hung_events[0].phase, 1);
    assert_eq!(report.health.hung_events, out.hung_events);
    // Per-rank watchdog counters: one snapshot per rank, summing to the
    // merged one.
    assert_eq!(report.per_rank_traffic.len(), p);
    let per_rank =
        |of: fn(&StatsSnapshot) -> u64| -> u64 { report.per_rank_traffic.iter().map(of).sum() };
    assert_eq!(report.traffic.wd_timeouts, per_rank(|s| s.wd_timeouts));
    assert_eq!(report.traffic.wd_retries, per_rank(|s| s.wd_retries));
    assert_eq!(report.recoveries, 1);
    let back = RunReport::from_json_str(&report.to_json_string()).expect("round-trip");
    assert_eq!(back.health, report.health);
    assert!(back.traffic.words().eq(report.traffic.words()));
    assert_eq!(back.per_rank_traffic, report.per_rank_traffic);
    let _ = std::fs::remove_dir_all(&dir);
}
