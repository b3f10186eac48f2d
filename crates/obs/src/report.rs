//! The machine-readable run report: everything one distributed run
//! produced — configuration, quality, wall/modeled time, traffic,
//! merged metrics, and span rollups — in one JSON-serializable struct.
//!
//! Traffic is the counter table itself: the report holds the run's
//! merged [`StatsSnapshot`] and one per rank, typed, and encodes them
//! by walking [`StatsSnapshot::names`]. No counter is named in this
//! file, so a counter added to the table appears in the report, and
//! round-trips, with no edit here. Beside the snapshots sits only what
//! is not a counter: run identity, the modeled seconds, the hung-rank
//! events, and the trace-derived sections.
//!
//! There is one schema version, [`RUN_REPORT_VERSION`]; `from_json`
//! accepts exactly it and requires every section.

use std::collections::BTreeMap;

use crate::collector::SpanRollup;
use crate::json::{Json, JsonError};
use crate::metrics::{GaugeStat, Histogram, MetricsSnapshot};
use crate::stats::{CommStep, StatsSnapshot};

/// Report schema version (bump on breaking field changes).
pub const RUN_REPORT_VERSION: u32 = 4;

/// What is known of one rank besides its counters (those are
/// `RunReport::per_rank_traffic[rank]`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankTotals {
    pub rank: usize,
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
    /// When the cell's (latest) phase span ended, in nanoseconds since
    /// the trace epoch — one clock for every rank, so `lens crit` can
    /// place the phase boundaries of different ranks on one line.
    pub end_ns: u64,
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

/// One hung-rank declaration. `louvain-comm` carries it out of a rank
/// thread as the panic payload when the watchdog (or an injected hang's
/// self-timeout) declares a rank hung; the resilient driver downcasts
/// it, recovers as from a crash, and the report lists it as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankHung {
    /// The rank declared hung.
    pub rank: usize,
    /// The rank that made the declaration (== `rank` for an injected
    /// hang's self-timeout).
    pub detector: usize,
    /// Fault epoch (Louvain phase) the detector was in.
    pub phase: u64,
    /// Comm-op index the detector was blocked at.
    pub op: u64,
    /// Step attribution of the blocked wait.
    pub step: CommStep,
    /// Total time the detector had been blocked.
    pub waited_ms: u64,
}

impl std::fmt::Display for RankHung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} declared hung by rank {} after {} ms blocked in {} (comm op {} of phase {})",
            self.rank,
            self.detector,
            self.waited_ms,
            self.step.label(),
            self.op,
            self.phase
        )
    }
}

/// Rank-health facts that are not counters. The watchdog and fault
/// counts are in `RunReport::traffic`; the measured straggler is `lens
/// crit`'s self-time blame over `RunReport::phase_profile`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthTotals {
    /// Hung-rank declarations, in the order they were raised.
    pub hung_events: Vec<RankHung>,
}

/// The complete run report. See module docs.
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
    /// (`None` on uninterrupted runs). The cumulative totals below cover
    /// the whole logical run: checkpointed counters are re-absorbed on
    /// resume, so a recovered run reports the same per-step traffic as
    /// an uninterrupted one (modulo the `checkpoint` step itself).
    pub resumed_from_phase: Option<u64>,
    /// Crash recoveries the resilient driver performed (0 = clean run).
    pub recoveries: u64,
    /// Every counter of the table, summed across ranks.
    pub traffic: StatsSnapshot,
    /// The same counters per rank, indexed by rank.
    pub per_rank_traffic: Vec<StatsSnapshot>,
    pub health: HealthTotals,
    pub modeled: ModeledBreakdown,
    pub per_rank: Vec<RankTotals>,
    /// Metrics merged across all ranks.
    pub metrics: MetricsSnapshot,
    /// Wall rollup per span name (descending wall time).
    pub spans: Vec<SpanRollup>,
    /// Per-(rank, phase) wall attribution (empty on untraced runs).
    pub phase_profile: Vec<PhaseProfileRow>,
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn opt_uint(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::uint)
}

/// A required member that is `null` or a u64.
fn field_opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.field(key)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` is neither null nor a u64")),
    }
}

fn rows_to_json<T>(rows: &[T], row: impl Fn(&T) -> Json) -> Json {
    Json::Arr(rows.iter().map(row).collect())
}

/// Decode the required member `key` with `read`; an error names it.
fn section<T>(
    doc: &Json,
    key: &str,
    read: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    read(doc.field(key)?).map_err(|e| format!("`{key}`: {e}"))
}

/// A required array member, each element decoded by `row`.
pub(crate) fn rows_from_json<T>(
    doc: &Json,
    key: &str,
    row: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    section(doc, key, |v| {
        v.as_arr().ok_or("not an array")?.iter().map(row).collect()
    })
}

/// A required `u64` element.
pub(crate) fn u64_from_json(v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| "not a u64".to_string())
}

fn map_to_json<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> Json) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// A required object member keyed by whatever was recorded, each value
/// decoded by `value`.
fn map_from_json<V>(
    doc: &Json,
    key: &str,
    value: impl Fn(&Json) -> Result<V, String>,
) -> Result<BTreeMap<String, V>, String> {
    section(doc, key, |v| {
        let entries = v.as_obj().ok_or("not an object")?.iter();
        entries
            .map(|(k, v)| Ok((k.clone(), value(v).map_err(|e| format!("`{k}`: {e}"))?)))
            .collect()
    })
}

pub(crate) fn hist_to_json(h: &Histogram) -> Json {
    let top = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
    let (p50, p95, p99) = h.quantile_summary();
    Json::obj(vec![
        ("count", Json::uint(h.count)),
        ("sum", Json::uint(h.sum)),
        // Derived on encode (bucket upper edges); decoding rebuilds
        // them from the buckets.
        ("p50", Json::uint(p50)),
        ("p95", Json::uint(p95)),
        ("p99", Json::uint(p99)),
        (
            "log2_buckets",
            rows_to_json(&h.buckets[..top], |&b| Json::uint(b)),
        ),
    ])
}

pub(crate) fn hist_from_json(doc: &Json) -> Result<Histogram, String> {
    let mut h = Histogram {
        count: doc.field_u64("count")?,
        sum: doc.field_u64("sum")?,
        ..Default::default()
    };
    let buckets = rows_from_json(doc, "log2_buckets", u64_from_json)?;
    for (slot, b) in h.buckets.iter_mut().zip(buckets) {
        *slot = b;
    }
    Ok(h)
}

pub(crate) fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    let gauge = |g: &GaugeStat| {
        Json::obj(vec![
            ("last", Json::Num(g.last)),
            ("min", Json::Num(g.min)),
            ("max", Json::Num(g.max)),
            ("sum", Json::Num(g.sum)),
            ("count", Json::uint(g.count)),
        ])
    };
    Json::obj(vec![
        ("counters", map_to_json(&m.counters, |&v| Json::uint(v))),
        ("gauges", map_to_json(&m.gauges, gauge)),
        ("histograms", map_to_json(&m.histograms, hist_to_json)),
    ])
}

fn metrics_from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
    let gauge = |v: &Json| {
        Ok(GaugeStat {
            last: v.field_f64("last")?,
            min: v.field_f64("min")?,
            max: v.field_f64("max")?,
            sum: v.field_f64("sum")?,
            count: v.field_u64("count")?,
        })
    };
    Ok(MetricsSnapshot {
        counters: map_from_json(doc, "counters", u64_from_json)?,
        gauges: map_from_json(doc, "gauges", gauge)?,
        histograms: map_from_json(doc, "histograms", hist_from_json)?,
    })
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
            ("resumed_from_phase", opt_uint(self.resumed_from_phase)),
            ("recoveries", Json::uint(self.recoveries)),
            ("traffic", self.traffic.to_json()),
            (
                "per_rank_traffic",
                rows_to_json(&self.per_rank_traffic, StatsSnapshot::to_json),
            ),
            (
                "health",
                Json::obj(vec![(
                    "hung_events",
                    rows_to_json(&self.health.hung_events, |e| {
                        Json::obj(vec![
                            ("rank", Json::uint(e.rank as u64)),
                            ("detector", Json::uint(e.detector as u64)),
                            ("phase", Json::uint(e.phase)),
                            ("op", Json::uint(e.op)),
                            ("step", Json::str(e.step.label())),
                            ("waited_ms", Json::uint(e.waited_ms)),
                        ])
                    }),
                )]),
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
                "per_rank",
                rows_to_json(&self.per_rank, |r| {
                    Json::obj(vec![
                        ("rank", Json::uint(r.rank as u64)),
                        ("events_recorded", Json::uint(r.events_recorded)),
                        ("events_dropped", Json::uint(r.events_dropped)),
                    ])
                }),
            ),
            ("metrics", metrics_to_json(&self.metrics)),
            (
                "spans",
                rows_to_json(&self.spans, |s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name.clone())),
                        ("count", Json::uint(s.count)),
                        ("wall_seconds", Json::Num(s.wall_seconds)),
                    ])
                }),
            ),
            (
                "phase_profile",
                rows_to_json(&self.phase_profile, |p| {
                    Json::obj(vec![
                        ("rank", Json::uint(p.rank as u64)),
                        ("phase", Json::uint(p.phase)),
                        ("compute_ns", Json::uint(p.compute_ns)),
                        ("transfer_ns", Json::uint(p.transfer_ns)),
                        ("wait_ns", Json::uint(p.wait_ns)),
                        ("rebuild_ns", Json::uint(p.rebuild_ns)),
                        ("total_ns", Json::uint(p.total_ns)),
                        ("end_ns", Json::uint(p.end_ns)),
                    ])
                }),
            ),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parse a report back from its JSON text.
    pub fn from_json_str(text: &str) -> Result<RunReport, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Strict: exactly [`RUN_REPORT_VERSION`], every section present and
    /// well typed (an error names the section); unknown keys are ignored.
    pub fn from_json(doc: &Json) -> Result<RunReport, String> {
        let version = doc.field_u64("run_report_version")?;
        if version != RUN_REPORT_VERSION as u64 {
            return Err(format!(
                "unsupported run_report_version {version} (this build reads {RUN_REPORT_VERSION})"
            ));
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
            resumed_from_phase: field_opt_u64(doc, "resumed_from_phase")?,
            recoveries: doc.field_u64("recoveries")?,
            traffic: section(doc, "traffic", StatsSnapshot::from_json)?,
            per_rank_traffic: rows_from_json(doc, "per_rank_traffic", StatsSnapshot::from_json)?,
            health: section(doc, "health", |health| {
                Ok(HealthTotals {
                    hung_events: rows_from_json(health, "hung_events", |e| {
                        Ok(RankHung {
                            rank: e.field_u64("rank")? as usize,
                            detector: e.field_u64("detector")? as usize,
                            phase: e.field_u64("phase")?,
                            op: e.field_u64("op")?,
                            step: CommStep::from_label(e.field_str("step")?)
                                .ok_or("`step` names no comm step")?,
                            waited_ms: e.field_u64("waited_ms")?,
                        })
                    })?,
                })
            })?,
            modeled: section(doc, "modeled", |modeled| {
                Ok(ModeledBreakdown {
                    compute: modeled.field_f64("compute_seconds")?,
                    comm: modeled.field_f64("comm_seconds")?,
                    reduce: modeled.field_f64("reduce_seconds")?,
                    rebuild: modeled.field_f64("rebuild_seconds")?,
                })
            })?,
            per_rank: rows_from_json(doc, "per_rank", |r| {
                Ok(RankTotals {
                    rank: r.field_u64("rank")? as usize,
                    events_recorded: r.field_u64("events_recorded")?,
                    events_dropped: r.field_u64("events_dropped")?,
                })
            })?,
            metrics: section(doc, "metrics", metrics_from_json)?,
            spans: rows_from_json(doc, "spans", |sp| {
                Ok(SpanRollup {
                    name: sp.field_str("name")?.to_string(),
                    count: sp.field_u64("count")?,
                    wall_seconds: sp.field_f64("wall_seconds")?,
                })
            })?,
            phase_profile: rows_from_json(doc, "phase_profile", |p| {
                Ok(PhaseProfileRow {
                    rank: p.field_u64("rank")? as usize,
                    phase: p.field_u64("phase")?,
                    compute_ns: p.field_u64("compute_ns")?,
                    transfer_ns: p.field_u64("transfer_ns")?,
                    wait_ns: p.field_u64("wait_ns")?,
                    rebuild_ns: p.field_u64("rebuild_ns")?,
                    total_ns: p.field_u64("total_ns")?,
                    end_ns: p.field_u64("end_ns")?,
                })
            })?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A snapshot whose words are `base`, `base + 1`, … in table order.
    fn numbered(base: u64) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for (i, w) in s.words_mut().enumerate() {
            *w = base + i as u64;
        }
        s
    }

    /// A p=3 report with every section populated and a distinct value
    /// in every counter word.
    pub(crate) fn sample() -> RunReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("sweep.colors".into(), 42);
        metrics.gauges.insert(
            "mem.csr_bytes".into(),
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
            ranks: 3,
            variant: "delta+et(0.25)".into(),
            threads_per_rank: 1,
            modularity: 0.412345,
            num_communities: 97,
            phases: 3,
            iterations: 14,
            wall_seconds: 1.25,
            resumed_from_phase: Some(2),
            recoveries: 1,
            traffic: numbered(1_000),
            per_rank_traffic: vec![numbered(2_000), numbered(3_000), numbered(4_000)],
            health: HealthTotals {
                hung_events: vec![RankHung {
                    rank: 1,
                    detector: 0,
                    phase: 2,
                    op: 7,
                    step: CommStep::GhostRefresh,
                    waited_ms: 480,
                }],
            },
            modeled: ModeledBreakdown {
                compute: 2.2,
                comm: 3.4,
                reduce: 4.0,
                rebuild: 0.4,
            },
            per_rank: (0..3)
                .map(|rank| RankTotals {
                    rank,
                    events_recorded: 321 + rank as u64,
                    events_dropped: rank as u64,
                })
                .collect(),
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
                end_ns: 1_250,
            }],
        }
    }

    /// [`sample`] cut to one rank: every section still populated, a
    /// third of the text (the truncation walk is quadratic in it).
    pub(crate) fn small() -> RunReport {
        let mut r = sample();
        r.ranks = 1;
        r.per_rank_traffic.truncate(1);
        r.per_rank.truncate(1);
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let back = RunReport::from_json_str(&r.to_json_string()).expect("parse back");
        assert_eq!(back, r);
        // `==` on a snapshot skips the wall-derived wait column, so a
        // lost `step_wait_nanos` needs the walk to be seen.
        assert!(back.traffic.words().eq(r.traffic.words()));
        assert_eq!(back.per_rank_traffic.len(), 3);
        for (b, a) in back.per_rank_traffic.iter().zip(&r.per_rank_traffic) {
            assert!(b.words().eq(a.words()));
        }
    }

    #[test]
    fn health_section_round_trips_with_hung_events() {
        let r = sample();
        let back = RunReport::from_json_str(&r.to_json_string()).expect("parse back");
        assert_eq!(back.health, r.health);
        assert_eq!(back.health.hung_events[0].rank, 1);
    }

    /// "One table line is enough": whatever the table names is in the
    /// encoded report, merged and per rank, with no name spelled here.
    #[test]
    fn encoded_report_names_every_counter_of_the_table() {
        let doc = sample().to_json();
        let mut snapshots = vec![doc.get("traffic").unwrap()];
        snapshots.extend(doc.get("per_rank_traffic").unwrap().as_arr().unwrap());
        assert_eq!(snapshots.len(), 4);
        for (s, snap) in snapshots.into_iter().enumerate() {
            let words = StatsSnapshot::names().map(|(name, step)| {
                let member = snap.get(name).unwrap_or_else(|| panic!("no `{name}`"));
                step.map_or(member, |st: CommStep| member.get(st.label()).unwrap())
                    .as_u64()
                    .unwrap()
            });
            assert!(words.eq(numbered(1_000 * (s as u64 + 1)).words()));
        }
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

    // ---- hostile input (ROADMAP 1(c), this decoder's slice) ----

    /// Members written for readers of the JSON and rebuilt, not read,
    /// on decode: no mutation of one can make a document incomplete.
    fn derived(key: &str) -> bool {
        matches!(key, "p50" | "p95" | "p99" | "total_seconds") || key.ends_with("_fraction")
    }

    /// The three metric maps are keyed by whatever was recorded, so an
    /// entry of one may be absent (but not ill-typed).
    fn open_map(key: Option<&str>) -> bool {
        matches!(key, Some("counters" | "gauges" | "histograms"))
    }

    fn node_mut<'a>(doc: &'a mut Json, path: &[usize]) -> &'a mut Json {
        path.iter().fold(doc, |node, &i| match node {
            Json::Obj(members) => &mut members[i].1,
            Json::Arr(items) => &mut items[i],
            _ => unreachable!("path descends through containers"),
        })
    }

    /// One node below the root: its child indices from the root, its
    /// key (`None` for an array element), and its parent's key.
    struct Site<'a> {
        path: Vec<usize>,
        key: Option<&'a str>,
        map: Option<&'a str>,
    }

    fn sites<'a>(
        node: &'a Json,
        key: Option<&'a str>,
        here: &mut Vec<usize>,
        out: &mut Vec<Site<'a>>,
    ) {
        let children: Vec<(Option<&str>, &Json)> = match node {
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            _ => Vec::new(),
        };
        for (i, (child_key, child)) in children.into_iter().enumerate() {
            here.push(i);
            out.push(Site {
                path: here.clone(),
                key: child_key,
                map: key,
            });
            sites(child, child_key, here, out);
            here.pop();
        }
    }

    /// At every node of `doc` — every section, every row, every leaf —
    /// a value of the wrong type, and for object members the member
    /// gone, must each be refused by `decode`. Returns how many
    /// documents were tried.
    pub(crate) fn assert_mutants_are_refused<T>(
        doc: &Json,
        decode: impl Fn(&Json) -> Result<T, String>,
    ) -> usize {
        assert!(decode(doc).is_ok(), "the unmutated document must decode");
        let mut all = Vec::new();
        sites(doc, None, &mut Vec::new(), &mut all);
        let mut tried = 0;
        for Site { path, key, map } in &all {
            if key.is_some_and(derived) {
                continue;
            }
            if let Some(key) = key.filter(|_| !open_map(*map)) {
                let (&last, parent) = path.split_last().unwrap();
                let mut without = doc.clone();
                if let Json::Obj(members) = node_mut(&mut without, parent) {
                    members.remove(last);
                }
                assert!(decode(&without).is_err(), "accepted without `{key}`");
                tried += 1;
            }
            let mut retyped = doc.clone();
            let node = node_mut(&mut retyped, path);
            *node = match node {
                Json::Str(_) => Json::Num(1.0),
                _ => Json::str("x"),
            };
            let err = decode(&retyped).err();
            assert!(err.is_some(), "accepted a wrong type at {key:?} {path:?}");
            tried += 1;
        }
        tried
    }

    pub(crate) fn assert_every_truncation_is_refused<T>(
        text: &str,
        decode: impl Fn(&str) -> Result<T, String>,
    ) {
        assert!(decode(text).is_ok());
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            assert!(decode(&text[..cut]).is_err(), "accepted a cut at {cut}");
        }
    }

    #[test]
    fn hostile_reports_are_errors_never_panics() {
        let doc = sample().to_json();
        assert!(assert_mutants_are_refused(&doc, RunReport::from_json) > 400);
        assert_every_truncation_is_refused(
            &small().to_json().to_string_compact(),
            RunReport::from_json_str,
        );

        // A missing section is named.
        for key in ["traffic", "per_rank_traffic", "health", "phase_profile"] {
            let mut without = doc.clone();
            if let Json::Obj(members) = &mut without {
                members.retain(|(k, _)| k != key);
            }
            let err = RunReport::from_json(&without).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn from_json_rejects_missing_fields_and_bad_versions() {
        assert!(RunReport::from_json_str("{}").is_err());
        // One version: the shapes that called themselves 1, 2 (with
        // `messages` and the modeled straggler) and 3 (with the
        // message-fault counters, and no phase end times) are not read.
        for old in [1, 2, 3] {
            let mut doc = sample().to_json();
            if let Json::Obj(members) = &mut doc {
                assert_eq!(members[0].0, "run_report_version");
                members[0].1 = Json::uint(old);
            }
            let err = RunReport::from_json(&doc).unwrap_err();
            assert!(err.contains(&format!("run_report_version {old}")), "{err}");
        }
    }
}
