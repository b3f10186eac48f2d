//! Seeded, deterministic fault injection for the simulated communicator.
//!
//! A [`FaultPlan`] describes the failures of the paper's setting: a rank
//! that crashes (panics at a chosen communication operation of a chosen
//! phase), one that hangs there (goes silent), and one that stalls
//! (sleeps before an operation while still heartbeating). Message loss,
//! duplication and corruption are not modelled: Algorithm 3 runs on MPI,
//! which delivers every message reliably, in order and intact, so
//! [`FaultPlan::parse`] refuses those kinds by name. Every stall decision
//! is a pure function of `(plan seed, rule, rank, op index)`, so the same
//! plan on the same program produces the same faults and the same
//! recovery trace — the property the fault matrix tests rely on.
//!
//! Crashes unwind the rank thread with a [`RankCrashed`] payload, which
//! the resilient driver in `louvain-dist` catches and turns into a
//! checkpoint restore. Injected hangs likewise unwind — but indirectly,
//! via the rank-health watchdog declaring the silent rank hung (see
//! [`crate::health`]).

use crate::stats::CommStep;

/// Message-fault kinds that MPI's reliable, ordered delivery rules out;
/// [`FaultPlan::parse`] refuses each by name.
const TRANSPORT_FAULTS: [&str; 6] = [
    "drop",
    "delay",
    "duplicate",
    "truncate",
    "flaky-burst",
    "corrupt-payload",
];

/// One stall rule: before each comm op matching the filters, the rank
/// sleeps `ms` with probability `prob` — a straggler, not a hang.
#[derive(Debug, Clone)]
pub struct StallRule {
    /// Restrict to one comm step (`None` = any step).
    pub step: Option<CommStep>,
    /// Restrict to one rank (`None` = any rank).
    pub rank: Option<usize>,
    /// Restrict to one fault epoch / Louvain phase (`None` = any).
    pub phase: Option<u64>,
    /// Per-op injection probability in `[0, 1]`.
    pub prob: f64,
    /// How long the stall sleeps.
    pub ms: u64,
}

/// A hard-crash rule: `rank` panics with [`RankCrashed`] when it reaches
/// communication operation `op` (0-based) of fault epoch `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRule {
    pub rank: usize,
    pub phase: u64,
    pub op: u64,
}

/// A hang rule: `rank` stops responding (no heartbeats, no messages)
/// when it reaches communication operation `op` of fault epoch `phase`.
/// The watchdog on a peer rank — or the hung rank's own self-timeout in
/// single-rank jobs — eventually declares it hung via
/// [`crate::RankHung`], which the resilient driver recovers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangRule {
    pub rank: usize,
    pub phase: u64,
    pub op: u64,
}

/// A deterministic fault schedule, shared (immutably) by all ranks.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub stalls: Vec<StallRule>,
    pub crashes: Vec<CrashRule>,
    pub hangs: Vec<HangRule>,
}

/// Panic payload carried out of a rank thread by an injected crash. The
/// resilient driver downcasts the propagated payload to decide whether
/// the failure is recoverable.
#[derive(Debug, Clone, Copy)]
pub struct RankCrashed {
    pub rank: usize,
    pub phase: u64,
    pub op: u64,
}

impl std::fmt::Display for RankCrashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected crash: rank {} at comm op {} of phase {}",
            self.rank, self.op, self.phase
        )
    }
}

/// splitmix64 finalizer — the per-decision hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Parse the CLI fault-plan DSL: `;`-separated segments, each either
    /// `seed=N` or `<kind>[:key=value,...]`.
    ///
    /// Kinds: `stall` (keys `prob`, `step`, `rank`, `phase`, `ms`) and
    /// the op-addressed `crash` / `hang` (keys `rank` — required —
    /// `phase`, `op`). Step names are the [`CommStep`] labels. A
    /// transport fault (`drop`, `delay`, `duplicate`, `truncate`,
    /// `flaky-burst`, `corrupt-payload`) is an error naming the kind.
    /// Example:
    ///
    /// `seed=42;stall:rank=0,ms=80,prob=0.1;hang:rank=1,phase=1`
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for seg in spec.split(';') {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            if let Some(v) = seg.strip_prefix("seed=") {
                plan.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                continue;
            }
            let (head, tail) = match seg.split_once(':') {
                Some((h, t)) => (h, t),
                None => (seg, ""),
            };
            let kv = |key: &str| -> Result<Option<&str>, String> {
                for pair in tail.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
                    if k == key {
                        return Ok(Some(v));
                    }
                }
                Ok(None)
            };
            let parse_u64 = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
            match head {
                "crash" | "hang" => {
                    let rank = kv("rank")?
                        .ok_or_else(|| format!("{head} rule {seg:?} needs rank=N"))?
                        .parse::<usize>()
                        .map_err(|_| format!("bad rank in {seg:?}"))?;
                    let phase = kv("phase")?.map(parse_u64).transpose()?.unwrap_or(0);
                    let op = kv("op")?.map(parse_u64).transpose()?.unwrap_or(0);
                    if head == "crash" {
                        plan.crashes.push(CrashRule { rank, phase, op });
                    } else {
                        plan.hangs.push(HangRule { rank, phase, op });
                    }
                }
                "stall" => {
                    let step = match kv("step")? {
                        Some(s) => Some(
                            CommStep::from_label(s)
                                .ok_or_else(|| format!("unknown comm step {s:?} in {seg:?}"))?,
                        ),
                        None => None,
                    };
                    let rank = kv("rank")?
                        .map(|v| v.parse::<usize>().map_err(|_| format!("bad rank {v:?}")))
                        .transpose()?;
                    let phase = kv("phase")?.map(parse_u64).transpose()?;
                    let prob = match kv("prob")? {
                        Some(v) => {
                            let p: f64 = v.parse().map_err(|_| format!("bad prob {v:?}"))?;
                            if !(0.0..=1.0).contains(&p) {
                                return Err(format!("prob {p} outside [0, 1]"));
                            }
                            p
                        }
                        None => 1.0,
                    };
                    let ms = kv("ms")?.map(parse_u64).transpose()?.unwrap_or(100);
                    plan.stalls.push(StallRule {
                        step,
                        rank,
                        phase,
                        prob,
                        ms,
                    });
                }
                kind if TRANSPORT_FAULTS.contains(&kind) => {
                    return Err(format!(
                        "fault kind {kind:?} is a transport fault, and transport faults are \
                         not modelled (MPI delivers every message reliably and in order); \
                         kinds: stall, crash, hang"
                    ));
                }
                _ => return Err(format!("unknown fault kind {head:?} in {seg:?}")),
            }
        }
        Ok(plan)
    }

    /// A copy of the plan with the first `n` crash rules removed — what
    /// the resilient driver runs on recovery attempt `n`, so that each
    /// injected crash fires exactly once across the whole recovery
    /// sequence.
    pub fn with_crashes_skipped(&self, n: usize) -> FaultPlan {
        FaultPlan {
            crashes: self.crashes.iter().skip(n).copied().collect(),
            ..self.clone()
        }
    }

    /// A copy with the first `n` hang rules removed — the hang
    /// counterpart of [`FaultPlan::with_crashes_skipped`], applied by
    /// the resilient driver after each [`crate::RankHung`] recovery so
    /// every injected hang fires exactly once.
    pub fn with_hangs_skipped(&self, n: usize) -> FaultPlan {
        FaultPlan {
            hangs: self.hangs.iter().skip(n).copied().collect(),
            ..self.clone()
        }
    }

    /// The injected stall (if any) before comm op `op` of `phase` on
    /// `rank`, keyed on the op index. Deterministic: depends only on the
    /// plan and the arguments. Returns the stall duration.
    pub fn decide_stall(
        &self,
        rank: usize,
        step: CommStep,
        phase: u64,
        op: u64,
    ) -> Option<std::time::Duration> {
        for (i, r) in self.stalls.iter().enumerate() {
            if r.rank.is_some_and(|x| x != rank) {
                continue;
            }
            if r.step.is_some_and(|s| s != step) {
                continue;
            }
            if r.phase.is_some_and(|p| p != phase) {
                continue;
            }
            let h = mix64(
                self.seed
                    ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (rank as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                    ^ op.wrapping_mul(0x1656_67B1_9E37_79F9),
            );
            if u01(h) < r.prob {
                return Some(std::time::Duration::from_millis(r.ms));
            }
        }
        None
    }

    /// Whether `rank` should crash at comm op `op` of fault epoch `phase`.
    pub fn should_crash(&self, rank: usize, phase: u64, op: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.rank == rank && c.phase == phase && c.op == op)
    }

    /// Whether `rank` should hang at comm op `op` of fault epoch `phase`.
    pub fn should_hang(&self, rank: usize, phase: u64, op: u64) -> bool {
        self.hangs
            .iter()
            .any(|h| h.rank == rank && h.phase == phase && h.op == op)
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.crashes.is_empty() && self.hangs.is_empty()
    }

    /// One-line human summary of what the plan injects — used by the job
    /// server to log the fault shape of a submitted job next to its
    /// recovery budgets (e.g. `"2 stall rules, 1 crash, 0 hangs"`).
    pub fn summary(&self) -> String {
        format!(
            "{} stall rule{}, {} crash{}, {} hang{}",
            self.stalls.len(),
            if self.stalls.len() == 1 { "" } else { "s" },
            self.crashes.len(),
            if self.crashes.len() == 1 { "" } else { "es" },
            self.hangs.len(),
            if self.hangs.len() == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_by_kind() {
        let plan = FaultPlan::parse("stall:prob=0.1;crash:rank=0,phase=1,op=0").unwrap();
        assert_eq!(plan.summary(), "1 stall rule, 1 crash, 0 hangs");
        let plan = FaultPlan::parse("hang:rank=1,phase=0,op=2").unwrap();
        assert_eq!(plan.summary(), "0 stall rules, 0 crashes, 1 hang");
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42;stall:step=ghost_refresh,prob=0.2;stall:rank=1,prob=0.5,ms=80;crash:rank=1,phase=2,op=3;hang:rank=2,phase=1,op=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.stalls.len(), 2);
        assert_eq!(plan.stalls[0].step, Some(CommStep::GhostRefresh));
        assert_eq!(plan.stalls[0].prob, 0.2);
        assert_eq!(plan.stalls[0].ms, 100, "ms defaults to 100");
        assert_eq!(plan.stalls[1].rank, Some(1));
        assert_eq!(plan.stalls[1].ms, 80);
        assert_eq!(
            plan.crashes,
            vec![CrashRule {
                rank: 1,
                phase: 2,
                op: 3
            }]
        );
        assert_eq!(
            plan.hangs,
            vec![HangRule {
                rank: 2,
                phase: 1,
                op: 3
            }]
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode:prob=1").is_err());
        assert!(FaultPlan::parse("stall:step=warp_drive").is_err());
        assert!(FaultPlan::parse("stall:prob=1.5").is_err());
        assert!(FaultPlan::parse("stall:ms=soon").is_err());
        assert!(FaultPlan::parse("crash:phase=1").is_err());
        assert!(FaultPlan::parse("hang:phase=1").is_err());
        assert!(FaultPlan::parse("seed=xyzzy").is_err());
    }

    #[test]
    fn transport_faults_are_refused_by_name() {
        for kind in TRANSPORT_FAULTS {
            for spec in [kind.to_string(), format!("seed=3;{kind}:prob=0.1")] {
                let err = FaultPlan::parse(&spec).unwrap_err();
                assert!(err.contains(&format!("{kind:?}")), "{spec}: {err}");
                assert!(err.contains("not modelled"), "{spec}: {err}");
            }
        }
    }

    #[test]
    fn hang_skipping_mirrors_crash_skipping() {
        let plan = FaultPlan::parse("hang:rank=0,phase=1;hang:rank=1,phase=3").unwrap();
        assert!(plan.should_hang(0, 1, 0));
        let after_one = plan.with_hangs_skipped(1);
        assert!(!after_one.should_hang(0, 1, 0));
        assert!(after_one.should_hang(1, 3, 0));
        assert!(plan.with_hangs_skipped(2).hangs.is_empty());
        // Crash skipping leaves hang rules alone and vice versa.
        let mixed = FaultPlan::parse("crash:rank=0,phase=0;hang:rank=1,phase=1").unwrap();
        assert!(mixed.with_crashes_skipped(1).should_hang(1, 1, 0));
        assert!(mixed.with_hangs_skipped(1).should_crash(0, 0, 0));
    }

    #[test]
    fn stall_decisions_are_op_level_and_deterministic() {
        let plan = FaultPlan::parse("seed=11;stall:rank=1,ms=40,prob=0.5").unwrap();
        let hits = (0..1000u64)
            .filter(|&op| plan.decide_stall(1, CommStep::Other, 0, op).is_some())
            .count();
        assert!((300..700).contains(&hits), "prob=0.5 hit {hits}/1000");
        assert_eq!(
            plan.decide_stall(1, CommStep::Other, 0, 7),
            plan.decide_stall(1, CommStep::Other, 0, 7)
        );
        assert_eq!(plan.decide_stall(0, CommStep::Other, 0, 7), None);
        if let Some(d) = plan.decide_stall(1, CommStep::Other, 0, 3) {
            assert_eq!(d, std::time::Duration::from_millis(40));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_filtered() {
        let plan =
            FaultPlan::parse("seed=7;stall:step=delta_push,rank=2,phase=1,prob=0.5").unwrap();
        for op in 0..200u64 {
            let a = plan.decide_stall(2, CommStep::DeltaPush, 1, op);
            let b = plan.decide_stall(2, CommStep::DeltaPush, 1, op);
            assert_eq!(a, b, "same inputs must give the same decision");
            assert_eq!(plan.decide_stall(1, CommStep::DeltaPush, 1, op), None);
            assert_eq!(plan.decide_stall(2, CommStep::GhostRefresh, 1, op), None);
            assert_eq!(plan.decide_stall(2, CommStep::DeltaPush, 0, op), None);
        }
        let hits = (0..1000u64)
            .filter(|&op| plan.decide_stall(2, CommStep::DeltaPush, 1, op).is_some())
            .count();
        assert!((300..700).contains(&hits), "prob=0.5 hit {hits}/1000");
    }

    #[test]
    fn crash_skipping_removes_rules_in_order() {
        let plan = FaultPlan::parse("crash:rank=0,phase=1;crash:rank=1,phase=3").unwrap();
        assert!(plan.should_crash(0, 1, 0));
        let after_one = plan.with_crashes_skipped(1);
        assert!(!after_one.should_crash(0, 1, 0));
        assert!(after_one.should_crash(1, 3, 0));
        assert!(plan.with_crashes_skipped(2).crashes.is_empty());
    }
}
