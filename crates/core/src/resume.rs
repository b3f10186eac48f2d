//! Resilience options for the distributed runner, plus the
//! [`DistConfig`] fingerprint that ties a checkpoint to the exact
//! configuration that produced it.
//!
//! The phase trajectory is a deterministic function of the input graph,
//! the rank count, and every field of [`DistConfig`] (sweep order is
//! seeded from `seed` and the absolute phase index, ET coin flips from
//! `seed`, τ from the variant/threshold). Resuming under a different
//! configuration would silently diverge from the run that wrote the
//! checkpoint, so the fingerprint covers *all* fields and the restore
//! path refuses on mismatch.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::config::{DistConfig, Variant};

/// Where to write phase-boundary checkpoints: one at every boundary.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Checkpoint directory (created on first use).
    pub dir: PathBuf,
}

impl CheckpointOptions {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }
}

/// Checkpoint/resume/recovery behaviour of a distributed run. The
/// default is fully inert: no checkpoints, no resume, no recovery —
/// and no cost on the hot path.
#[derive(Clone, Default)]
pub struct ResilOptions {
    /// Write checkpoints when set.
    pub checkpoint: Option<CheckpointOptions>,
    /// Start from the newest complete checkpoint in `checkpoint.dir`
    /// instead of from scratch (falls back to a fresh start when the
    /// directory holds no complete checkpoint yet).
    pub resume: bool,
    /// How many rank crashes [`crate::api::run_distributed_resilient_source`]
    /// absorbs by restarting from the newest checkpoint before giving
    /// up. Split from `hang_budget` so a serving layer can tell a
    /// poisoned job (crashes keep recurring) from a flaky network (hang
    /// declarations) instead of burning one shared count across
    /// unrelated failure kinds.
    pub crash_budget: usize,
    /// How many hung-rank declarations are absorbed the same way.
    pub hang_budget: usize,
    /// Cooperative cancellation token, checked once per phase boundary
    /// (after the boundary checkpoint is durable). When it flips to
    /// `true`, all ranks agree on the decision via a collective and the
    /// run aborts with a typed [`JobCancelled`] payload that the
    /// resilient driver maps to an `Err` starting with
    /// [`CANCELLED_AT_PHASE`] — the job can later resume from the
    /// checkpoint it drained to.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Record the per-original-vertex assignment after every accepted
    /// phase (`RankOutcome::levels` / `DistOutcome::levels`), giving the
    /// full dendrogram instead of only the final communities. Off by
    /// default: it clones one `Vec<VertexId>` per phase.
    pub record_levels: bool,
    /// Live progress subscriber: receives globally-merged per-iteration
    /// telemetry rows *while the run executes*, sourced from the same
    /// records tracing collects (no extra communication). Attaching a
    /// sink does not enable tracing; a run with a sink but tracing off
    /// still produces no trace sections.
    pub progress: Option<Arc<dyn louvain_obs::ProgressSink>>,
}

impl std::fmt::Debug for ResilOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilOptions")
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("crash_budget", &self.crash_budget)
            .field("hang_budget", &self.hang_budget)
            .field("cancel", &self.cancel.is_some())
            .field("record_levels", &self.record_levels)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl ResilOptions {
    /// Checkpointing, resume, and recovery all off.
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_none(&self) -> bool {
        self.checkpoint.is_none() && !self.resume
    }
}

/// Stable `Err` prefixes the resilient driver uses for budget
/// exhaustion and cancellation, so callers (the CLI, the job server's
/// quarantine ladder) can classify failures without a typed error enum.
pub const CRASH_BUDGET_EXHAUSTED: &str = "crash recovery budget";
/// See [`CRASH_BUDGET_EXHAUSTED`].
pub const HANG_BUDGET_EXHAUSTED: &str = "hang recovery budget";
/// Prefix of the `Err` produced when a run stops at a phase boundary
/// because its [`ResilOptions::cancel`] token was set; the digits after
/// it are the phase the run stopped before (its newest checkpoint, when
/// checkpointing is on, covers exactly the phases executed so far).
pub const CANCELLED_AT_PHASE: &str = "job cancelled at phase boundary ";

/// Panic payload raised by every rank when the cancellation token is
/// observed set at a phase boundary. The agreement collective guarantees
/// all ranks raise it at the same boundary, so the unwind is clean (no
/// peer is left blocked mid-collective).
#[derive(Debug, Clone, Copy)]
pub struct JobCancelled {
    /// Phase boundary the run stopped at (phases `0..phase` ran).
    pub phase: u64,
}

/// Panic payload for unrecoverable checkpoint/restore failures inside a
/// rank (I/O error, corrupt or incompatible checkpoint). The resilient
/// driver downcasts it back into an `Err` for the caller; it is *not* a
/// recoverable crash, so it never consumes recovery budget.
#[derive(Debug)]
pub struct ResilAbort(pub String);

/// Abort the run from inside a rank with a typed payload. It skips the
/// panic hook: the attempt loop returns the message as the run's `Err`.
pub(crate) fn abort(msg: String) -> ! {
    std::panic::resume_unwind(Box::new(ResilAbort(msg)))
}

/// FNV-1a fingerprint over a canonical rendering of every `DistConfig`
/// field. Floats are hashed by bit pattern so `-0.0` vs `0.0` and NaN
/// payloads are distinguished exactly like the runner distinguishes
/// them.
///
/// The config is destructured without `..`: a field added to
/// `DistConfig` does not compile until it is named here, and is an
/// unused binding until it is hashed. A forgotten field would mean a
/// silent resume — and a served cache hit — under the wrong
/// configuration.
pub fn config_fingerprint(cfg: &DistConfig) -> u64 {
    let DistConfig {
        variant,
        threshold,
        max_phases,
        max_iterations,
        seed,
        threads_per_rank,
        delta_ghost_refresh,
        sweep,
    } = cfg;
    let variant = match variant {
        Variant::Baseline => "baseline".to_string(),
        Variant::ThresholdCycling => "cycling".to_string(),
        Variant::Et { alpha } => format!("et:{:016x}", alpha.to_bits()),
        Variant::Etc { alpha } => format!("etc:{:016x}", alpha.to_bits()),
        Variant::EtPlusCycling { alpha } => format!("et+cycling:{:016x}", alpha.to_bits()),
    };
    // The five deleted switches (refresh over the full communicator,
    // inactive-ghost pruning, no singleton-swap guard, index-order sweeps,
    // vertex following) stay in the text at their default: every run that
    // left them off keeps its trajectory, so checkpoint directories and
    // served job keys written before the deletion still match. Their names
    // are spelt in pieces so that they appear nowhere else in the code.
    let text = format!(
        "variant={variant};threshold={:016x};max_phases={max_phases};\
         max_iterations={max_iterations};seed={seed:016x};{}{}{}\
         threads_per_rank={threads_per_rank};{}\
         delta_ghost_refresh={delta_ghost_refresh};sweep={}",
        threshold.to_bits(),
        concat!("neighborhood", "_collectives=false;"),
        concat!("prune_inactive", "_ghosts=false;"),
        concat!(
            "disable_singleton",
            "_guard=false;index_order",
            "_sweep=false;"
        ),
        concat!("vertex", "_following=false;"),
        sweep.label(),
    );
    louvain_resil::fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let base = DistConfig::baseline;
        assert_eq!(config_fingerprint(&base()), config_fingerprint(&base()));

        // Every one of the 8 fields, flipped alone, must move the
        // fingerprint — and no two flips may land on the same one.
        let flips: [fn(&mut DistConfig); 9] = [
            |c| c.variant = Variant::Et { alpha: 0.25 },
            |c| c.variant = Variant::Et { alpha: 0.75 },
            |c| c.threshold *= 2.0,
            |c| c.max_phases += 1,
            |c| c.max_iterations += 1,
            |c| c.seed ^= 1,
            |c| c.threads_per_rank += 1,
            |c| c.delta_ghost_refresh ^= true,
            |c| c.sweep = crate::SweepMode::Colored,
        ];
        let mut seen = std::collections::HashSet::from([config_fingerprint(&base())]);
        for (i, flip) in flips.iter().enumerate() {
            let mut cfg = base();
            flip(&mut cfg);
            assert!(
                seen.insert(config_fingerprint(&cfg)),
                "flip {i} is not hashed"
            );
        }
    }

    #[test]
    fn fingerprints_of_the_remaining_schedules_are_pinned() {
        // Recorded before the racing schedule was deleted: checkpoint
        // directories and served job keys written then still match.
        let colored_t2 = DistConfig {
            sweep: crate::SweepMode::Colored,
            threads_per_rank: 2,
            ..DistConfig::baseline()
        };
        assert_eq!(
            config_fingerprint(&DistConfig::baseline()),
            0xf53e_75b2_3ba8_99bd
        );
        assert_eq!(config_fingerprint(&colored_t2), 0x108f_76db_f734_5b3b);
    }

    #[test]
    fn fingerprint_of_the_ladder_et_delta_config_is_pinned() {
        // The bench ladder's `rmat_et_p2` config, recorded while the
        // ablation switches still existed: its checkpoint directories and
        // served job keys match across their deletion.
        let et_delta = DistConfig {
            delta_ghost_refresh: true,
            max_iterations: 6,
            ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
        };
        assert_eq!(config_fingerprint(&et_delta), 0x32ce_102f_f4e9_7329);
    }
}
