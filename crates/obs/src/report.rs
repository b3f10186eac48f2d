//! The machine-readable run artifact: everything one distributed run
//! produced — configuration, quality, wall/modeled time, per-step and
//! per-rank traffic totals, merged metrics, and span rollups — in one
//! JSON-serializable struct.
//!
//! This crate is dependency-free, so the report holds plain data; the
//! glue that lifts `louvain_comm::StatsSnapshot` values into these
//! fields lives in `louvain-dist` (which sees both crates).

use crate::collector::SpanRollup;
use crate::json::{Json, JsonError};
use crate::metrics::{GaugeStat, Histogram, MetricsSnapshot, HIST_BUCKETS};

/// Report schema version (bump on breaking field changes).
pub const RUN_REPORT_VERSION: u32 = 1;

/// Traffic attributed to one algorithmic communication step, summed
/// across ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTotal {
    /// Step label (`ghost_refresh`, `community_pull`, `delta_push`,
    /// `reduction`, `other`).
    pub step: String,
    pub bytes: u64,
    pub messages: u64,
    /// Idle wall nanoseconds ranks spent blocked inside this step
    /// (summed across ranks; 0 in pre-wait-split artifacts).
    pub wait_ns: u64,
}

/// One rank's traffic totals plus its trace bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTotals {
    pub rank: usize,
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub collective_calls: u64,
    pub collective_bytes: u64,
    /// Modeled (α-β) communication seconds on this rank.
    pub modeled_comm_seconds: f64,
    /// Per-step message counts, indexed like `CommStep::index()`.
    pub step_messages: Vec<u64>,
    /// Per-step byte counts, indexed like `CommStep::index()`.
    pub step_bytes: Vec<u64>,
    /// Idle wall nanoseconds this rank spent blocked in receives and
    /// collective fill-waits (0 in pre-wait-split artifacts).
    pub wait_ns: u64,
    pub events_recorded: u64,
    pub events_dropped: u64,
}

/// Wall-clock attribution for one (rank, phase) cell, derived from the
/// traced span tree: the phase span is the window, comm-step spans
/// within it split into wait (blocked) and transfer (bytes moving)
/// portions, rebuild spans are explicit, and compute is the residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseProfileRow {
    pub rank: usize,
    pub phase: u64,
    pub compute_ns: u64,
    pub transfer_ns: u64,
    pub wait_ns: u64,
    pub rebuild_ns: u64,
    /// Wall duration of the phase span; the four categories above sum
    /// to exactly this value by construction.
    pub total_ns: u64,
}

/// One matched send/recv edge of the cross-rank happens-before graph:
/// a Lamport-stamped envelope observed at both endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageEdge {
    pub src: usize,
    pub dst: usize,
    /// Communication step label the sender charged the bytes to.
    pub step: String,
    /// Sender's Lamport clock at send time (unique per src).
    pub lamport: u64,
    pub bytes: u64,
    pub send_ts_ns: u64,
    pub recv_ts_ns: u64,
}

/// Modeled-seconds breakdown in the paper's Section V-A categories.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeledBreakdown {
    pub compute: f64,
    pub comm: f64,
    pub reduce: f64,
    pub rebuild: f64,
}

impl ModeledBreakdown {
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.reduce + self.rebuild
    }

    /// (compute, comm, reduce, rebuild) as fractions of the total — the
    /// numbers to diff against the paper's ~22/34/40 split.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (
                self.compute / t,
                self.comm / t,
                self.reduce / t,
                self.rebuild / t,
            )
        }
    }
}

/// Injected-fault totals summed across ranks (all zero on clean runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTotals {
    pub drops: u64,
    pub delays: u64,
    pub duplicates: u64,
    pub truncations: u64,
    pub retries: u64,
}

impl FaultTotals {
    pub fn any(&self) -> bool {
        self.drops + self.delays + self.duplicates + self.truncations + self.retries > 0
    }
}

/// One hung-rank declaration absorbed by the resilient driver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HungEvent {
    /// Rank declared hung.
    pub rank: usize,
    /// Rank whose watchdog raised the declaration (equal to `rank` for
    /// a self-declaration).
    pub detector: usize,
    /// Fault epoch (phase) and operation index at the declaration.
    pub phase: u64,
    pub op: u64,
    /// Communication step the detector was blocked in.
    pub step: String,
    /// How long the detector had been waiting, in milliseconds.
    pub waited_ms: u64,
}

/// One rank's health counters (watchdog ladder + fault protocol).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankHealth {
    pub rank: usize,
    /// Retransmissions of injected message faults on this rank.
    pub retries: u64,
    /// Watchdog deadline expiries while this rank was blocked.
    pub wd_timeouts: u64,
    /// Deadline extensions this rank granted to stale peers.
    pub wd_retries: u64,
    /// Extensions granted to live-but-slow peers (stragglers).
    pub wd_stragglers: u64,
    /// Total time this rank spent in backoff sleeps.
    pub backoff_seconds: f64,
    /// Envelopes this rank discarded on a checksum mismatch.
    pub checksum_rejects: u64,
    /// Retransmissions per communication step, indexed like
    /// `CommStep::index()` (the per-step retry histogram).
    pub step_retries: Vec<u64>,
}

/// Rank-health section of the report: watchdog activity, hung-rank
/// events, and slowest-rank attribution (all zero/empty on healthy
/// runs with the watchdog idle).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthTotals {
    /// Injected stall events across ranks.
    pub stalls: u64,
    /// Injected flaky-burst drops across ranks.
    pub bursts: u64,
    /// Injected payload corruptions across ranks.
    pub corruptions: u64,
    /// Corrupted envelopes caught by the receiver checksum.
    pub checksum_rejects: u64,
    pub wd_timeouts: u64,
    pub wd_retries: u64,
    pub wd_stragglers: u64,
    pub backoff_seconds: f64,
    /// Rank with the largest modeled communication time (straggler
    /// attribution); `None` when the run had no ranks.
    pub slowest_rank: Option<usize>,
    /// That rank's modeled communication seconds.
    pub slowest_rank_seconds: f64,
    pub per_rank: Vec<RankHealth>,
    /// Hung-rank declarations, in the order they were raised.
    pub hung_events: Vec<HungEvent>,
}

impl HealthTotals {
    /// Did the watchdog or the fault protocol do anything at all?
    pub fn any(&self) -> bool {
        self.stalls
            + self.bursts
            + self.corruptions
            + self.checksum_rejects
            + self.wd_timeouts
            + self.wd_retries
            + self.wd_stragglers
            + self.hung_events.len() as u64
            > 0
    }
}

/// The complete run artifact. See module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    pub graph: String,
    pub vertices: u64,
    pub edges: u64,
    pub ranks: usize,
    /// Algorithm variant label (e.g. `full`, `delta`, `delta+et(0.25)`).
    pub variant: String,
    pub threads_per_rank: usize,
    pub modularity: f64,
    pub num_communities: u64,
    pub phases: u64,
    pub iterations: u64,
    pub wall_seconds: f64,
    /// Phase index the run resumed from when restarted off a checkpoint
    /// (`None` on uninterrupted runs). The cumulative totals above cover
    /// the whole logical run: checkpointed counters are re-absorbed on
    /// resume, so a recovered run reports the same per-step traffic as
    /// an uninterrupted one (modulo the `checkpoint` step itself).
    pub resumed_from_phase: Option<u64>,
    /// Crash recoveries the resilient driver performed (0 = clean run).
    pub recoveries: u64,
    /// Injected-fault totals summed across ranks.
    pub faults: FaultTotals,
    /// Rank-health section (watchdog, hung events, slowest rank).
    pub health: HealthTotals,
    pub modeled: ModeledBreakdown,
    /// Cross-rank traffic per communication step.
    pub step_totals: Vec<StepTotal>,
    pub total_bytes: u64,
    pub total_messages: u64,
    pub per_rank: Vec<RankTotals>,
    /// Metrics merged across all ranks.
    pub metrics: MetricsSnapshot,
    /// Wall rollup per span name (descending wall time).
    pub spans: Vec<SpanRollup>,
    /// Per-(rank, phase) wall attribution (empty on untraced runs and
    /// pre-causal-profiling artifacts).
    pub phase_profile: Vec<PhaseProfileRow>,
    /// Matched cross-rank message edges (empty on untraced runs and
    /// pre-causal-profiling artifacts).
    pub messages: Vec<MessageEdge>,
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

pub(crate) fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::uint(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                m.gauges
                    .iter()
                    .map(|(k, g)| {
                        (
                            k.clone(),
                            Json::obj(vec![
                                ("last", Json::Num(g.last)),
                                ("min", Json::Num(g.min)),
                                ("max", Json::Num(g.max)),
                                ("sum", Json::Num(g.sum)),
                                ("count", Json::uint(g.count)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| {
                        let top = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
                        let (p50, p95, p99) = h.quantile_summary();
                        (
                            k.clone(),
                            Json::obj(vec![
                                ("count", Json::uint(h.count)),
                                ("sum", Json::uint(h.sum)),
                                // Derived on encode (bucket upper edges);
                                // from_json rebuilds them from the buckets.
                                ("p50", Json::uint(p50)),
                                ("p95", Json::uint(p95)),
                                ("p99", Json::uint(p99)),
                                (
                                    "log2_buckets",
                                    Json::Arr(
                                        h.buckets[..top].iter().map(|&b| Json::uint(b)).collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("run_report_version", Json::uint(RUN_REPORT_VERSION as u64)),
            ("graph", Json::str(self.graph.clone())),
            ("vertices", Json::uint(self.vertices)),
            ("edges", Json::uint(self.edges)),
            ("ranks", Json::uint(self.ranks as u64)),
            ("variant", Json::str(self.variant.clone())),
            ("threads_per_rank", Json::uint(self.threads_per_rank as u64)),
            ("modularity", Json::Num(self.modularity)),
            ("num_communities", Json::uint(self.num_communities)),
            ("phases", Json::uint(self.phases)),
            ("iterations", Json::uint(self.iterations)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            (
                "resumed_from_phase",
                match self.resumed_from_phase {
                    Some(p) => Json::uint(p),
                    None => Json::Null,
                },
            ),
            ("recoveries", Json::uint(self.recoveries)),
            (
                "faults",
                Json::obj(vec![
                    ("drops", Json::uint(self.faults.drops)),
                    ("delays", Json::uint(self.faults.delays)),
                    ("duplicates", Json::uint(self.faults.duplicates)),
                    ("truncations", Json::uint(self.faults.truncations)),
                    ("retries", Json::uint(self.faults.retries)),
                ]),
            ),
            (
                "health",
                Json::obj(vec![
                    ("stalls", Json::uint(self.health.stalls)),
                    ("bursts", Json::uint(self.health.bursts)),
                    ("corruptions", Json::uint(self.health.corruptions)),
                    ("checksum_rejects", Json::uint(self.health.checksum_rejects)),
                    ("wd_timeouts", Json::uint(self.health.wd_timeouts)),
                    ("wd_retries", Json::uint(self.health.wd_retries)),
                    ("wd_stragglers", Json::uint(self.health.wd_stragglers)),
                    ("backoff_seconds", Json::Num(self.health.backoff_seconds)),
                    (
                        "slowest_rank",
                        match self.health.slowest_rank {
                            Some(r) => Json::uint(r as u64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "slowest_rank_seconds",
                        Json::Num(self.health.slowest_rank_seconds),
                    ),
                    (
                        "per_rank",
                        Json::Arr(
                            self.health
                                .per_rank
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("rank", Json::uint(r.rank as u64)),
                                        ("retries", Json::uint(r.retries)),
                                        ("wd_timeouts", Json::uint(r.wd_timeouts)),
                                        ("wd_retries", Json::uint(r.wd_retries)),
                                        ("wd_stragglers", Json::uint(r.wd_stragglers)),
                                        ("backoff_seconds", Json::Num(r.backoff_seconds)),
                                        ("checksum_rejects", Json::uint(r.checksum_rejects)),
                                        (
                                            "step_retries",
                                            Json::Arr(
                                                r.step_retries
                                                    .iter()
                                                    .map(|&v| Json::uint(v))
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "hung_events",
                        Json::Arr(
                            self.health
                                .hung_events
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("rank", Json::uint(e.rank as u64)),
                                        ("detector", Json::uint(e.detector as u64)),
                                        ("phase", Json::uint(e.phase)),
                                        ("op", Json::uint(e.op)),
                                        ("step", Json::str(e.step.clone())),
                                        ("waited_ms", Json::uint(e.waited_ms)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("modeled", {
                let (fc, fm, fr, fb) = self.modeled.fractions();
                Json::obj(vec![
                    ("compute_seconds", Json::Num(self.modeled.compute)),
                    ("comm_seconds", Json::Num(self.modeled.comm)),
                    ("reduce_seconds", Json::Num(self.modeled.reduce)),
                    ("rebuild_seconds", Json::Num(self.modeled.rebuild)),
                    ("total_seconds", Json::Num(self.modeled.total())),
                    ("compute_fraction", Json::Num(fc)),
                    ("comm_fraction", Json::Num(fm)),
                    ("reduce_fraction", Json::Num(fr)),
                    ("rebuild_fraction", Json::Num(fb)),
                ])
            }),
            (
                "step_totals",
                Json::Arr(
                    self.step_totals
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("step", Json::str(s.step.clone())),
                                ("bytes", Json::uint(s.bytes)),
                                ("messages", Json::uint(s.messages)),
                                ("wait_ns", Json::uint(s.wait_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_bytes", Json::uint(self.total_bytes)),
            ("total_messages", Json::uint(self.total_messages)),
            (
                "per_rank",
                Json::Arr(
                    self.per_rank
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("rank", Json::uint(r.rank as u64)),
                                ("p2p_messages", Json::uint(r.p2p_messages)),
                                ("p2p_bytes", Json::uint(r.p2p_bytes)),
                                ("collective_calls", Json::uint(r.collective_calls)),
                                ("collective_bytes", Json::uint(r.collective_bytes)),
                                ("modeled_comm_seconds", Json::Num(r.modeled_comm_seconds)),
                                (
                                    "step_messages",
                                    Json::Arr(
                                        r.step_messages.iter().map(|&v| Json::uint(v)).collect(),
                                    ),
                                ),
                                (
                                    "step_bytes",
                                    Json::Arr(
                                        r.step_bytes.iter().map(|&v| Json::uint(v)).collect(),
                                    ),
                                ),
                                ("wait_ns", Json::uint(r.wait_ns)),
                                ("events_recorded", Json::uint(r.events_recorded)),
                                ("events_dropped", Json::uint(r.events_dropped)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics_to_json(&self.metrics)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name.clone())),
                                ("count", Json::uint(s.count)),
                                ("wall_seconds", Json::Num(s.wall_seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "phase_profile",
                Json::Arr(
                    self.phase_profile
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("rank", Json::uint(p.rank as u64)),
                                ("phase", Json::uint(p.phase)),
                                ("compute_ns", Json::uint(p.compute_ns)),
                                ("transfer_ns", Json::uint(p.transfer_ns)),
                                ("wait_ns", Json::uint(p.wait_ns)),
                                ("rebuild_ns", Json::uint(p.rebuild_ns)),
                                ("total_ns", Json::uint(p.total_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "messages",
                Json::Arr(
                    self.messages
                        .iter()
                        .map(|m| {
                            Json::obj(vec![
                                ("src", Json::uint(m.src as u64)),
                                ("dst", Json::uint(m.dst as u64)),
                                ("step", Json::str(m.step.clone())),
                                ("lamport", Json::uint(m.lamport)),
                                ("bytes", Json::uint(m.bytes)),
                                ("send_ts_ns", Json::uint(m.send_ts_ns)),
                                ("recv_ts_ns", Json::uint(m.recv_ts_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON document (the on-disk artifact format).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parse a report back from its JSON text (round-trip testing, and
    /// diffing committed artifacts).
    pub fn from_json_str(text: &str) -> Result<RunReport, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Self::from_json(&doc)
    }

    pub fn from_json(doc: &Json) -> Result<RunReport, String> {
        fn u_arr(doc: &Json, key: &str) -> Result<Vec<u64>, String> {
            doc.field(key)?
                .as_arr()
                .ok_or_else(|| format!("field `{key}` is not an array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| format!("`{key}` element is not a u64"))
                })
                .collect()
        }

        let version = doc.field_u64("run_report_version")?;
        if version != RUN_REPORT_VERSION as u64 {
            return Err(format!("unsupported run_report_version {version}"));
        }
        let modeled_doc = doc.field("modeled")?;
        let metrics_doc = doc.field("metrics")?;

        let mut metrics = MetricsSnapshot::default();
        for (k, v) in metrics_doc.field("counters")?.as_obj().unwrap_or(&[]) {
            metrics.counters.insert(
                k.clone(),
                v.as_u64().ok_or_else(|| format!("counter `{k}` not u64"))?,
            );
        }
        for (k, v) in metrics_doc.field("gauges")?.as_obj().unwrap_or(&[]) {
            metrics.gauges.insert(
                k.clone(),
                GaugeStat {
                    last: v.field_f64("last")?,
                    min: v.field_f64("min")?,
                    max: v.field_f64("max")?,
                    sum: v.field_f64("sum")?,
                    count: v.field_u64("count")?,
                },
            );
        }
        for (k, v) in metrics_doc.field("histograms")?.as_obj().unwrap_or(&[]) {
            let mut h = Histogram {
                count: v.field_u64("count")?,
                sum: v.field_u64("sum")?,
                ..Default::default()
            };
            for (i, b) in u_arr(v, "log2_buckets")?.into_iter().enumerate() {
                if i < HIST_BUCKETS {
                    h.buckets[i] = b;
                }
            }
            metrics.histograms.insert(k.clone(), h);
        }

        Ok(RunReport {
            graph: doc.field_str("graph")?.to_string(),
            vertices: doc.field_u64("vertices")?,
            edges: doc.field_u64("edges")?,
            ranks: doc.field_u64("ranks")? as usize,
            variant: doc.field_str("variant")?.to_string(),
            threads_per_rank: doc.field_u64("threads_per_rank")? as usize,
            modularity: doc.field_f64("modularity")?,
            num_communities: doc.field_u64("num_communities")?,
            phases: doc.field_u64("phases")?,
            iterations: doc.field_u64("iterations")?,
            wall_seconds: doc.field_f64("wall_seconds")?,
            // Resilience fields arrived after version 1 shipped; parse
            // them leniently so pre-resilience artifacts still load.
            resumed_from_phase: doc.get("resumed_from_phase").and_then(Json::as_u64),
            recoveries: doc.get("recoveries").and_then(Json::as_u64).unwrap_or(0),
            faults: match doc.get("faults") {
                Some(fd) => FaultTotals {
                    drops: fd.field_u64("drops")?,
                    delays: fd.field_u64("delays")?,
                    duplicates: fd.field_u64("duplicates")?,
                    truncations: fd.field_u64("truncations")?,
                    retries: fd.field_u64("retries")?,
                },
                None => FaultTotals::default(),
            },
            // The health section also arrived after version 1, and its
            // counter set has grown since (the wd_* ladder landed with
            // checkpoint format v2). Parse every field leniently so a
            // report from any intermediate build still loads: a missing
            // counter means the build that wrote it had nothing to count.
            health: match doc.get("health") {
                Some(hd) => {
                    let lu = |d: &Json, key: &str| d.get(key).and_then(Json::as_u64).unwrap_or(0);
                    let lf = |d: &Json, key: &str| d.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    HealthTotals {
                        stalls: lu(hd, "stalls"),
                        bursts: lu(hd, "bursts"),
                        corruptions: lu(hd, "corruptions"),
                        checksum_rejects: lu(hd, "checksum_rejects"),
                        wd_timeouts: lu(hd, "wd_timeouts"),
                        wd_retries: lu(hd, "wd_retries"),
                        wd_stragglers: lu(hd, "wd_stragglers"),
                        backoff_seconds: lf(hd, "backoff_seconds"),
                        slowest_rank: hd
                            .get("slowest_rank")
                            .and_then(Json::as_u64)
                            .map(|r| r as usize),
                        slowest_rank_seconds: lf(hd, "slowest_rank_seconds"),
                        per_rank: hd
                            .get("per_rank")
                            .and_then(Json::as_arr)
                            .unwrap_or(&[])
                            .iter()
                            .map(|r| RankHealth {
                                rank: lu(r, "rank") as usize,
                                retries: lu(r, "retries"),
                                wd_timeouts: lu(r, "wd_timeouts"),
                                wd_retries: lu(r, "wd_retries"),
                                wd_stragglers: lu(r, "wd_stragglers"),
                                backoff_seconds: lf(r, "backoff_seconds"),
                                checksum_rejects: lu(r, "checksum_rejects"),
                                step_retries: r
                                    .get("step_retries")
                                    .and_then(Json::as_arr)
                                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                                    .unwrap_or_default(),
                            })
                            .collect(),
                        hung_events: hd
                            .get("hung_events")
                            .and_then(Json::as_arr)
                            .unwrap_or(&[])
                            .iter()
                            .map(|e| {
                                Ok(HungEvent {
                                    rank: lu(e, "rank") as usize,
                                    detector: lu(e, "detector") as usize,
                                    phase: lu(e, "phase"),
                                    op: lu(e, "op"),
                                    step: e.field_str("step")?.to_string(),
                                    waited_ms: lu(e, "waited_ms"),
                                })
                            })
                            .collect::<Result<_, String>>()?,
                    }
                }
                None => HealthTotals::default(),
            },
            modeled: ModeledBreakdown {
                compute: modeled_doc.field_f64("compute_seconds")?,
                comm: modeled_doc.field_f64("comm_seconds")?,
                reduce: modeled_doc.field_f64("reduce_seconds")?,
                rebuild: modeled_doc.field_f64("rebuild_seconds")?,
            },
            step_totals: doc
                .field("step_totals")?
                .as_arr()
                .ok_or("`step_totals` is not an array")?
                .iter()
                .map(|t| {
                    Ok(StepTotal {
                        step: t.field_str("step")?.to_string(),
                        bytes: t.field_u64("bytes")?,
                        messages: t.field_u64("messages")?,
                        // Lenient: pre-wait-split artifacts lack it.
                        wait_ns: t.get("wait_ns").and_then(Json::as_u64).unwrap_or(0),
                    })
                })
                .collect::<Result<_, String>>()?,
            total_bytes: doc.field_u64("total_bytes")?,
            total_messages: doc.field_u64("total_messages")?,
            per_rank: doc
                .field("per_rank")?
                .as_arr()
                .ok_or("`per_rank` is not an array")?
                .iter()
                .map(|r| {
                    Ok(RankTotals {
                        rank: r.field_u64("rank")? as usize,
                        p2p_messages: r.field_u64("p2p_messages")?,
                        p2p_bytes: r.field_u64("p2p_bytes")?,
                        collective_calls: r.field_u64("collective_calls")?,
                        collective_bytes: r.field_u64("collective_bytes")?,
                        modeled_comm_seconds: r.field_f64("modeled_comm_seconds")?,
                        step_messages: u_arr(r, "step_messages")?,
                        step_bytes: u_arr(r, "step_bytes")?,
                        wait_ns: r.get("wait_ns").and_then(Json::as_u64).unwrap_or(0),
                        events_recorded: r.field_u64("events_recorded")?,
                        events_dropped: r.field_u64("events_dropped")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            metrics,
            spans: doc
                .field("spans")?
                .as_arr()
                .ok_or("`spans` is not an array")?
                .iter()
                .map(|sp| {
                    Ok(SpanRollup {
                        name: sp.field_str("name")?.to_string(),
                        count: sp.field_u64("count")?,
                        wall_seconds: sp.field_f64("wall_seconds")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            // Causal-profiling sections arrived after version 1 shipped;
            // parse them leniently so earlier artifacts still load (an
            // absent section means the build that wrote the report could
            // not have recorded message edges or phase profiles).
            phase_profile: doc
                .get("phase_profile")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|p| {
                    let lu = |d: &Json, key: &str| d.get(key).and_then(Json::as_u64).unwrap_or(0);
                    PhaseProfileRow {
                        rank: lu(p, "rank") as usize,
                        phase: lu(p, "phase"),
                        compute_ns: lu(p, "compute_ns"),
                        transfer_ns: lu(p, "transfer_ns"),
                        wait_ns: lu(p, "wait_ns"),
                        rebuild_ns: lu(p, "rebuild_ns"),
                        total_ns: lu(p, "total_ns"),
                    }
                })
                .collect(),
            messages: doc
                .get("messages")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let lu = |d: &Json, key: &str| d.get(key).and_then(Json::as_u64).unwrap_or(0);
                    Ok(MessageEdge {
                        src: lu(m, "src") as usize,
                        dst: lu(m, "dst") as usize,
                        step: m.field_str("step")?.to_string(),
                        lamport: lu(m, "lamport"),
                        bytes: lu(m, "bytes"),
                        send_ts_ns: lu(m, "send_ts_ns"),
                        recv_ts_ns: lu(m, "recv_ts_ns"),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("sweep.moves".into(), 42);
        metrics.gauges.insert(
            "modularity".into(),
            GaugeStat {
                last: 0.41,
                min: 0.1,
                max: 0.41,
                sum: 0.92,
                count: 3,
            },
        );
        let mut h = Histogram::default();
        h.observe(100);
        h.observe(4096);
        metrics.histograms.insert("msg_bytes".into(), h);
        RunReport {
            graph: "ssca2-1e4".into(),
            vertices: 10_000,
            edges: 62_000,
            ranks: 8,
            variant: "delta+et(0.25)".into(),
            threads_per_rank: 1,
            modularity: 0.412345,
            num_communities: 97,
            phases: 3,
            iterations: 14,
            wall_seconds: 1.25,
            resumed_from_phase: Some(2),
            recoveries: 1,
            faults: FaultTotals {
                drops: 3,
                delays: 1,
                duplicates: 0,
                truncations: 2,
                retries: 5,
            },
            health: HealthTotals {
                stalls: 2,
                bursts: 4,
                corruptions: 1,
                checksum_rejects: 1,
                wd_timeouts: 3,
                wd_retries: 2,
                wd_stragglers: 2,
                backoff_seconds: 0.004,
                slowest_rank: Some(5),
                slowest_rank_seconds: 0.5,
                per_rank: vec![RankHealth {
                    rank: 0,
                    retries: 5,
                    wd_timeouts: 3,
                    wd_retries: 2,
                    wd_stragglers: 2,
                    backoff_seconds: 0.004,
                    checksum_rejects: 1,
                    step_retries: vec![3, 0, 0, 2, 0],
                }],
                hung_events: vec![HungEvent {
                    rank: 3,
                    detector: 0,
                    phase: 2,
                    op: 7,
                    step: "ghost_refresh".into(),
                    waited_ms: 480,
                }],
            },
            modeled: ModeledBreakdown {
                compute: 2.2,
                comm: 3.4,
                reduce: 4.0,
                rebuild: 0.4,
            },
            step_totals: vec![
                StepTotal {
                    step: "ghost_refresh".into(),
                    bytes: 1_000,
                    messages: 24,
                    wait_ns: 1_200,
                },
                StepTotal {
                    step: "reduction".into(),
                    bytes: 640,
                    messages: 80,
                    wait_ns: 300,
                },
            ],
            total_bytes: 1_640,
            total_messages: 104,
            per_rank: vec![RankTotals {
                rank: 0,
                p2p_messages: 12,
                p2p_bytes: 500,
                collective_calls: 10,
                collective_bytes: 80,
                modeled_comm_seconds: 0.42,
                step_messages: vec![12, 0, 0, 10, 0],
                step_bytes: vec![500, 0, 0, 80, 0],
                wait_ns: 1_500,
                events_recorded: 321,
                events_dropped: 0,
            }],
            metrics,
            spans: vec![SpanRollup {
                name: "phase".into(),
                count: 3,
                wall_seconds: 1.1,
            }],
            phase_profile: vec![PhaseProfileRow {
                rank: 0,
                phase: 0,
                compute_ns: 700,
                transfer_ns: 200,
                wait_ns: 80,
                rebuild_ns: 20,
                total_ns: 1_000,
            }],
            messages: vec![MessageEdge {
                src: 0,
                dst: 1,
                step: "ghost_refresh".into(),
                lamport: 7,
                bytes: 128,
                send_ts_ns: 10_000,
                recv_ts_ns: 12_000,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let text = r.to_json_string();
        let back = RunReport::from_json_str(&text).expect("parse back");
        assert_eq!(back, r);
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = ModeledBreakdown {
            compute: 2.2,
            comm: 3.4,
            reduce: 4.0,
            rebuild: 0.4,
        };
        let (c, o, r, b) = m.fractions();
        assert!((c + o + r + b - 1.0).abs() < 1e-12);
        assert!((c - 0.22).abs() < 1e-12);
        assert!((o - 0.34).abs() < 1e-12);
        assert!((r - 0.40).abs() < 1e-12);
    }

    #[test]
    fn zero_breakdown_has_zero_fractions() {
        assert_eq!(
            ModeledBreakdown::default().fractions(),
            (0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn resilience_fields_parse_leniently_when_absent() {
        // Reports written before the resilience subsystem carry neither
        // `resumed_from_phase` nor `recoveries` nor `faults`; they must
        // still load, defaulting to a clean uninterrupted run.
        let mut doc = sample().to_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| {
                k != "resumed_from_phase" && k != "recoveries" && k != "faults" && k != "health"
            });
        }
        let back = RunReport::from_json(&doc).expect("lenient parse");
        assert_eq!(back.resumed_from_phase, None);
        assert_eq!(back.recoveries, 0);
        assert_eq!(back.faults, FaultTotals::default());
        assert!(!back.faults.any());
        assert_eq!(back.health, HealthTotals::default());
        assert!(!back.health.any());
    }

    #[test]
    fn causal_sections_parse_leniently_when_absent() {
        // Pre-causal-profiling artifacts lack wait_ns / phase_profile /
        // messages; they must load as zero-wait, section-free reports.
        let mut doc = sample().to_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "phase_profile" && k != "messages");
            for (k, v) in members.iter_mut() {
                if k == "step_totals" || k == "per_rank" {
                    if let Json::Arr(rows) = v {
                        for row in rows {
                            if let Json::Obj(fields) = row {
                                fields.retain(|(f, _)| f != "wait_ns");
                            }
                        }
                    }
                }
            }
        }
        let back = RunReport::from_json(&doc).expect("lenient parse");
        assert!(back.phase_profile.is_empty());
        assert!(back.messages.is_empty());
        assert!(back.step_totals.iter().all(|s| s.wait_ns == 0));
        assert!(back.per_rank.iter().all(|r| r.wait_ns == 0));
    }

    #[test]
    fn health_section_round_trips_with_hung_events() {
        let r = sample();
        assert!(r.health.any());
        let back = RunReport::from_json_str(&r.to_json_string()).expect("parse back");
        assert_eq!(back.health, r.health);
        assert_eq!(back.health.hung_events[0].rank, 3);
        assert_eq!(back.health.slowest_rank, Some(5));
    }

    #[test]
    fn from_json_rejects_missing_fields_and_bad_versions() {
        assert!(RunReport::from_json_str("{}").is_err());
        let mut r = sample().to_json();
        if let Json::Obj(members) = &mut r {
            members[0].1 = Json::Num(999.0);
        }
        assert!(RunReport::from_json(&r).unwrap_err().contains("version"));
    }
}
