//! Job specifications: what a client submits.

use std::path::PathBuf;

use louvain_dist::{DistConfig, SweepMode, Variant};
use louvain_obs::Json;

/// One submitted job: a graph snapshot on disk plus a full
/// [`DistConfig`] and the rank count to run it on. The optional fault
/// plan and per-kind budget overrides exist for testing the recovery
/// path — production submissions leave them out.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen identifier echoed back in every response.
    pub job_id: String,
    /// Path to an ingested snapshot (slab or binary edge list).
    pub graph: PathBuf,
    pub ranks: usize,
    pub cfg: DistConfig,
    /// Optional fault-plan DSL string (see `louvain_comm::FaultPlan`),
    /// injected into the run for kill-and-resume testing.
    pub fault_plan: Option<String>,
    /// Per-job override of the server's crash-recovery budget.
    pub max_crash_recoveries: Option<usize>,
    /// Per-job override of the server's hang-recovery budget.
    pub max_hang_recoveries: Option<usize>,
}

/// Most simulated ranks one job may ask for. Every rank is an OS thread
/// with an 8 MiB stack, all alive at once and blocking in each other's
/// collectives, so the count is bounded before any is spawned.
pub const MAX_RANKS: usize = 256;
/// Most sweep worker threads one rank may ask for.
pub const MAX_THREADS_PER_RANK: usize = 64;

fn opt_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|u| Some(u as usize))
            .ok_or_else(|| format!("`{key}` is not an unsigned integer")),
    }
}

fn opt_bool(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("`{key}` is not a bool")),
    }
}

impl JobSpec {
    /// Refuse no ranks, no phases, or a rank or thread count past its
    /// bound, naming the field. [`JobSpec::from_json`] checks what came
    /// off the wire and `Server::submit` checks a hand-built spec, so
    /// nothing reaches `run_with` unchecked.
    pub fn validate(&self) -> Result<(), String> {
        let (ranks, threads) = (self.ranks, self.cfg.threads_per_rank);
        if !(1..=MAX_RANKS).contains(&ranks) {
            return Err(format!("`ranks` must be in 1..={MAX_RANKS}, got {ranks}"));
        }
        if threads > MAX_THREADS_PER_RANK {
            return Err(format!(
                "`config.threads_per_rank` must be at most {MAX_THREADS_PER_RANK}, got {threads}"
            ));
        }
        // `DistConfig` names its fields bare; a submit nests them in `config`.
        self.cfg
            .validate()
            .map_err(|e| e.replacen('`', "`config.", 1))
    }

    /// Parse a submit request body. Required fields: `job_id`, `graph`.
    /// `ranks` defaults to 2; the optional `config` subobject overrides
    /// individual [`DistConfig`] fields on top of the baseline defaults.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let job_id = doc
            .get("job_id")
            .and_then(Json::as_str)
            .ok_or("submit is missing string field `job_id`")?
            .to_string();
        if job_id.is_empty() {
            return Err("`job_id` must be non-empty".into());
        }
        let graph = doc
            .get("graph")
            .and_then(Json::as_str)
            .ok_or("submit is missing string field `graph`")?;
        let ranks = opt_usize(doc, "ranks")?.unwrap_or(2);

        let mut cfg = DistConfig::baseline();
        if let Some(c) = doc.get("config") {
            // Walk the keys rather than probe known names: a misspelt key
            // must fail, not run (and cache) the baseline in its place.
            let members = c.as_obj().ok_or("`config` is not an object")?;
            for (key, v) in members {
                match key.as_str() {
                    "variant" => {
                        let spec = v.as_str().ok_or("`config.variant` is not a string")?;
                        cfg.variant = Variant::parse(spec)?;
                    }
                    "threshold" => {
                        cfg.threshold = v.as_f64().ok_or("`config.threshold` is not a number")?;
                    }
                    "seed" => cfg.seed = v.as_u64().ok_or("`config.seed` is not a u64")?,
                    "sweep" => {
                        let spec = v.as_str().ok_or("`config.sweep` is not a string")?;
                        cfg.sweep = SweepMode::parse(spec)?;
                    }
                    // A `null` count or switch leaves the default in place.
                    "max_phases" => cfg.max_phases = opt_usize(c, key)?.unwrap_or(cfg.max_phases),
                    "max_iterations" => {
                        cfg.max_iterations = opt_usize(c, key)?.unwrap_or(cfg.max_iterations)
                    }
                    "threads_per_rank" => {
                        cfg.threads_per_rank =
                            opt_usize(c, key)?.map_or(cfg.threads_per_rank, |t| t.max(1))
                    }
                    "delta_ghost_refresh" => {
                        cfg.delta_ghost_refresh =
                            opt_bool(c, key)?.unwrap_or(cfg.delta_ghost_refresh)
                    }
                    unknown => return Err(format!("unknown `config` key `{unknown}`")),
                }
            }
        }

        let fault_plan = match doc.get("fault_plan") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("`fault_plan` is not a string")?
                    .to_string(),
            ),
        };

        let spec = JobSpec {
            job_id,
            graph: PathBuf::from(graph),
            ranks,
            cfg,
            fault_plan,
            max_crash_recoveries: opt_usize(doc, "max_crash_recoveries")?,
            max_hang_recoveries: opt_usize(doc, "max_hang_recoveries")?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_submit_gets_baseline_defaults() {
        let doc = Json::parse(r#"{"job_id": "j1", "graph": "/tmp/g.slab"}"#).unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.job_id, "j1");
        assert_eq!(spec.ranks, 2);
        assert_eq!(spec.cfg.variant, Variant::Baseline);
        assert_eq!(spec.cfg.seed, DistConfig::baseline().seed);
        assert!(spec.fault_plan.is_none());
        assert!(spec.max_crash_recoveries.is_none());
    }

    #[test]
    fn config_overrides_apply_on_top_of_baseline() {
        let doc = Json::parse(
            r#"{"job_id": "j2", "graph": "g.slab", "ranks": 4,
                "config": {"variant": "et:0.25", "threshold": 0.001,
                           "seed": 42, "max_phases": 5, "sweep": "colored",
                           "delta_ghost_refresh": true},
                "fault_plan": "crash:rank=0,phase=1,op=0",
                "max_crash_recoveries": 1}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.ranks, 4);
        assert_eq!(spec.cfg.variant, Variant::Et { alpha: 0.25 });
        assert_eq!(spec.cfg.threshold, 0.001);
        assert_eq!(spec.cfg.seed, 42);
        assert_eq!(spec.cfg.max_phases, 5);
        assert_eq!(spec.cfg.sweep, SweepMode::Colored);
        assert!(spec.cfg.delta_ghost_refresh);
        assert_eq!(
            spec.fault_plan.as_deref(),
            Some("crash:rank=0,phase=1,op=0")
        );
        assert_eq!(spec.max_crash_recoveries, Some(1));
    }

    #[test]
    fn counts_at_their_bounds_are_accepted() {
        let doc = Json::parse(&format!(
            r#"{{"job_id": "j", "graph": "g", "ranks": {MAX_RANKS},
                "config": {{"threads_per_rank": {MAX_THREADS_PER_RANK}}}}}"#
        ))
        .unwrap();
        let spec = JobSpec::from_json(&doc).unwrap();
        assert_eq!(spec.ranks, MAX_RANKS);
        assert_eq!(spec.cfg.threads_per_rank, MAX_THREADS_PER_RANK);
    }

    #[test]
    fn bad_submits_are_rejected_with_field_names() {
        let cases = [
            (r#"{"graph": "g"}"#, "job_id"),
            (r#"{"job_id": "j", "graph": "g", "ranks": 0}"#, "ranks"),
            (r#"{"job_id": "j", "graph": "g", "ranks": 257}"#, "`ranks`"),
            (r#"{"job_id": "j", "graph": "g", "ranks": 1e6}"#, "`ranks`"),
            (
                r#"{"job_id": "j", "graph": "g", "config": {"threads_per_rank": 65}}"#,
                "`config.threads_per_rank`",
            ),
            // Run, it would report the identity assignment with modularity
            // 0.0, which is not that partition's Q.
            (
                r#"{"job_id": "j", "graph": "g", "config": {"max_phases": 0}}"#,
                "`config.max_phases` must be at least 1",
            ),
            (
                r#"{"job_id": "j", "graph": "g", "config": {"variant": "bogus"}}"#,
                "variant",
            ),
            (
                r#"{"job_id": "j", "graph": "g", "config": {"sweep": "fast"}}"#,
                "sweep",
            ),
            // The racing schedule is deleted: its name is refused too.
            (
                r#"{"job_id": "j", "graph": "g", "config": {"sweep": "relaxed"}}"#,
                "\"relaxed\" (expected auto|colored)",
            ),
            (
                r#"{"job_id": "j", "graph": "g", "config": {"varient": "et:0.25"}}"#,
                "varient",
            ),
            // A deleted setting is an unknown key like any other. The names
            // are spelt in two pieces so that they appear nowhere in the code.
            (
                concat!(
                    r#"{"job_id": "j", "graph": "g", "config": {"color"#,
                    r#"_sweeps": true}}"#
                ),
                concat!("`color", "_sweeps`"),
            ),
            (
                concat!(
                    r#"{"job_id": "j", "graph": "g", "config": {"neighborhood"#,
                    r#"_collectives": true}}"#
                ),
                concat!("unknown `config` key `neighborhood", "_collectives`"),
            ),
            (
                concat!(
                    r#"{"job_id": "j", "graph": "g", "config": {"vertex"#,
                    r#"_following": true}}"#
                ),
                concat!("unknown `config` key `vertex", "_following`"),
            ),
            (
                concat!(
                    r#"{"job_id": "j", "graph": "g", "config": {"prune_inactive"#,
                    r#"_ghosts": false}}"#
                ),
                concat!("unknown `config` key `prune_inactive", "_ghosts`"),
            ),
        ];
        for (text, needle) in cases {
            let doc = Json::parse(text).unwrap();
            let err = JobSpec::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }
}
