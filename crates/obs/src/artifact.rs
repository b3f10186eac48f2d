//! The unified, versioned run artifact: a magic-tagged JSON envelope
//! (like the checkpoint header) holding any number of labeled runs,
//! each a full [`RunReport`] plus its per-iteration telemetry rows.
//!
//! `lens` reads only artifacts: a bare `RunReport` document is refused
//! for its missing `magic`.

use crate::json::{Json, JsonError};
use crate::report::{hist_from_json, hist_to_json, rows_from_json, u64_from_json, RunReport};
use crate::telemetry::TelemetryRow;

/// First bytes of every artifact (the `magic` field).
pub const ARTIFACT_MAGIC: &str = "LVRA";
/// Artifact schema version (bump on breaking changes).
pub const ARTIFACT_VERSION: u32 = 1;

/// One labeled run inside an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// Stable key used to match runs across artifacts when diffing;
    /// by convention `<graph>/p<ranks>/<mode>`.
    pub label: String,
    pub report: RunReport,
    /// Per-(phase, iteration) convergence rows; empty when the run was
    /// not traced.
    pub telemetry: Vec<TelemetryRow>,
}

/// A versioned collection of runs — the one on-disk analytics format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunArtifact {
    pub name: String,
    pub description: String,
    pub runs: Vec<RunEntry>,
}

/// The conventional entry label: `<graph>/p<ranks>/<mode>`.
pub fn run_label(graph: &str, ranks: usize, mode: &str) -> String {
    format!("{graph}/p{ranks}/{mode}")
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn telemetry_to_json(row: &TelemetryRow) -> Json {
    Json::obj(vec![
        ("phase", Json::uint(row.phase)),
        ("iteration", Json::uint(row.iteration)),
        ("modularity", Json::Num(row.modularity)),
        ("delta_q", Json::Num(row.delta_q)),
        ("moves", Json::uint(row.moves)),
        ("active", Json::uint(row.active)),
        ("vertices", Json::uint(row.vertices)),
        ("communities", Json::uint(row.communities)),
        ("community_sizes", hist_to_json(&row.community_sizes)),
        (
            "ghost_bytes_per_rank",
            Json::Arr(
                row.ghost_bytes_per_rank
                    .iter()
                    .map(|&b| Json::uint(b))
                    .collect(),
            ),
        ),
    ])
}

fn telemetry_from_json(doc: &Json) -> Result<TelemetryRow, String> {
    Ok(TelemetryRow {
        phase: doc.field_u64("phase")?,
        iteration: doc.field_u64("iteration")?,
        modularity: doc.field_f64("modularity")?,
        delta_q: doc.field_f64("delta_q")?,
        moves: doc.field_u64("moves")?,
        active: doc.field_u64("active")?,
        vertices: doc.field_u64("vertices")?,
        communities: doc.field_u64("communities")?,
        community_sizes: hist_from_json(doc.field("community_sizes")?)?,
        ghost_bytes_per_rank: rows_from_json(doc, "ghost_bytes_per_rank", u64_from_json)?,
    })
}

impl RunArtifact {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("magic", Json::str(ARTIFACT_MAGIC)),
            ("artifact_version", Json::uint(ARTIFACT_VERSION as u64)),
            ("name", Json::str(self.name.clone())),
            ("description", Json::str(self.description.clone())),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("label", Json::str(r.label.clone())),
                                ("report", r.report.to_json()),
                                (
                                    "telemetry",
                                    Json::Arr(r.telemetry.iter().map(telemetry_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON document (the on-disk format).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Strict parse of an `LVRA` document.
    pub fn from_json(doc: &Json) -> Result<RunArtifact, String> {
        let magic = doc.field_str("magic")?.to_string();
        if magic != ARTIFACT_MAGIC {
            return Err(format!("bad artifact magic `{magic}`"));
        }
        let version = doc.field_u64("artifact_version")?;
        if version != ARTIFACT_VERSION as u64 {
            return Err(format!("unsupported artifact_version {version}"));
        }
        Ok(RunArtifact {
            name: doc.field_str("name")?.to_string(),
            description: doc.field_str("description")?.to_string(),
            runs: rows_from_json(doc, "runs", |r| {
                Ok(RunEntry {
                    label: r.field_str("label")?.to_string(),
                    report: RunReport::from_json(r.field("report")?)?,
                    telemetry: rows_from_json(r, "telemetry", telemetry_from_json)?,
                })
            })?,
        })
    }

    pub fn from_json_str(text: &str) -> Result<RunArtifact, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Self::from_json(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;
    use crate::report::tests as report_tests;

    fn sample() -> RunArtifact {
        let mut sizes = Histogram::default();
        sizes.observe(3);
        sizes.observe(40);
        RunArtifact {
            name: "BENCH_TEST".into(),
            description: "sample".into(),
            runs: vec![RunEntry {
                label: run_label("lfr_3k", 2, "delta"),
                report: RunReport {
                    graph: "lfr_3k".into(),
                    vertices: 3000,
                    edges: 18000,
                    ranks: 2,
                    variant: "ET(0.25)+delta".into(),
                    threads_per_rank: 1,
                    modularity: 0.86,
                    phases: 4,
                    iterations: 12,
                    wall_seconds: 0.034,
                    ..Default::default()
                },
                telemetry: vec![TelemetryRow {
                    phase: 0,
                    iteration: 0,
                    modularity: 0.41,
                    delta_q: 0.0,
                    moves: 2210,
                    active: 3000,
                    vertices: 3000,
                    communities: 1800,
                    community_sizes: sizes,
                    ghost_bytes_per_rank: vec![1024, 980],
                }],
            }],
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let a = sample();
        let text = a.to_json_string();
        let back = RunArtifact::from_json_str(&text).expect("parse back");
        assert_eq!(back, a);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut doc = sample().to_json();
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::str("NOPE");
        }
        assert!(RunArtifact::from_json(&doc).unwrap_err().contains("magic"));
        let mut doc = sample().to_json();
        if let Json::Obj(members) = &mut doc {
            members[1].1 = Json::Num(99.0);
        }
        assert!(RunArtifact::from_json(&doc)
            .unwrap_err()
            .contains("artifact_version"));
    }

    #[test]
    fn hostile_artifacts_are_errors_never_panics() {
        let mut a = sample();
        a.runs[0].report = report_tests::sample();
        let doc = a.to_json();
        report_tests::assert_mutants_are_refused(&doc, RunArtifact::from_json);
        a.runs[0].report = report_tests::small();
        report_tests::assert_every_truncation_is_refused(
            &a.to_json().to_string_compact(),
            RunArtifact::from_json_str,
        );
        // The report inside is held to its one version too: a v3 report
        // (with the message-fault counters) is refused.
        let v3 = doc
            .to_string_compact()
            .replace("\"run_report_version\":4", "\"run_report_version\":3");
        let err = RunArtifact::from_json_str(&v3).unwrap_err();
        assert!(err.contains("run_report_version 3"), "{err}");
    }

    #[test]
    fn unknown_shapes_are_rejected() {
        // Neither the pre-artifact bench files (`{"bench": ..., "runs":
        // [...]}`) nor a bare RunReport is lifted into an artifact.
        let legacy = r#"{"bench": "PR3_SWEEP", "description": "sweep",
          "runs": [{"graph": "ssca2_4k", "ranks": 2, "mode": "delta", "modularity": 0.98}]}"#;
        let report = sample().runs.remove(0).report.to_json_string();
        for doc in [legacy, &report, "{\"x\": 1}"] {
            let err = RunArtifact::from_json_str(doc).unwrap_err();
            assert!(err.contains("missing field `magic`"), "{err}");
        }
        assert!(RunArtifact::from_json_str("not json").is_err());
    }
}
