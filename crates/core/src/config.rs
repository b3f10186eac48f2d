//! Configuration for the distributed Louvain algorithm.

/// The algorithm variants evaluated in the paper (Section V legend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Algorithm 2 without Section IV-B heuristics.
    Baseline,
    /// τ modulated cyclically across phases (Fig 2).
    ThresholdCycling,
    /// Adaptive early termination with decay rate α (Eq. 3).
    Et { alpha: f64 },
    /// ET plus the extra global reduction of the inactive-vertex count;
    /// the phase exits once ≥ 90 % of vertices are globally inactive.
    Etc { alpha: f64 },
    /// ET(α) combined with threshold cycling (Table VI).
    EtPlusCycling { alpha: f64 },
}

impl Variant {
    /// Display label matching the paper's figures ("ET(0.25)" etc.).
    pub fn label(&self) -> String {
        match self {
            Variant::Baseline => "Baseline".into(),
            Variant::ThresholdCycling => "Threshold Cycling".into(),
            Variant::Et { alpha } => format!("ET({alpha})"),
            Variant::Etc { alpha } => format!("ETC({alpha})"),
            Variant::EtPlusCycling { alpha } => format!("ET({alpha})+Cycling"),
        }
    }

    /// Parse a variant spec: `baseline`, `cycling`, `et:0.25`, `etc:0.75`,
    /// `et+cycling:0.25` — the grammar shared by the CLI `--variant`
    /// flag and the job server's `"variant"` field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, alpha) = match spec.split_once(':') {
            Some((n, a)) => {
                let alpha: f64 = a.parse().map_err(|_| format!("bad alpha in `{spec}`"))?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(format!("alpha must be in [0,1], got {alpha}"));
                }
                (n, Some(alpha))
            }
            None => (spec, None),
        };
        match (name, alpha) {
            ("baseline", None) => Ok(Variant::Baseline),
            ("cycling", None) => Ok(Variant::ThresholdCycling),
            ("et", Some(a)) => Ok(Variant::Et { alpha: a }),
            ("etc", Some(a)) => Ok(Variant::Etc { alpha: a }),
            ("et+cycling", Some(a)) => Ok(Variant::EtPlusCycling { alpha: a }),
            _ => Err(format!(
                "unknown variant `{spec}` (expected baseline | cycling | et:<a> | etc:<a> | et+cycling:<a>)"
            )),
        }
    }

    /// The α of any ET-family variant.
    pub fn alpha(&self) -> Option<f64> {
        match *self {
            Variant::Et { alpha } | Variant::Etc { alpha } | Variant::EtPlusCycling { alpha } => {
                Some(alpha)
            }
            _ => None,
        }
    }

    pub fn uses_cycling(&self) -> bool {
        matches!(
            self,
            Variant::ThresholdCycling | Variant::EtPlusCycling { .. }
        )
    }

    pub fn uses_etc_exit(&self) -> bool {
        matches!(self, Variant::Etc { .. })
    }
}

/// How the intra-rank compute sweep schedules its vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Sequential when `threads_per_rank <= 1` (the seed behaviour,
    /// bit-reproducible); the colored deterministic schedule otherwise.
    Auto,
    /// Always use the colored schedule, even on one thread. Results are
    /// bit-identical across thread counts for a fixed coloring (the
    /// coloring seed does not depend on the thread count, so they always
    /// are) — this is the mode the determinism tests pin.
    Colored,
}

impl SweepMode {
    /// Stable label used in fingerprints and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMode::Auto => "auto",
            SweepMode::Colored => "colored",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SweepMode::Auto),
            "colored" => Ok(SweepMode::Colored),
            other => Err(format!(
                "unknown sweep mode {other:?} (expected auto|colored)"
            )),
        }
    }
}

/// Tunables of the distributed runner.
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub variant: Variant,
    /// Final (minimum) threshold τ; the paper's default is 1e-6.
    pub threshold: f64,
    /// Safety cap on phases.
    pub max_phases: usize,
    /// Safety cap on iterations per phase.
    pub max_iterations: usize,
    /// Seed for deterministic ET coin flips.
    pub seed: u64,
    /// Intra-rank ("OpenMP") threads for the compute sweep — the paper is
    /// MPI+OpenMP and runs "either 2 or 4 threads per process". With more
    /// than one, the colored schedule decides each conflict-free batch's
    /// moves in parallel and applies them in a fixed order, so results
    /// are bit-identical at any thread count (see [`SweepMode`]).
    pub threads_per_rank: usize,
    /// Delta ghost refresh: after the first iteration of a phase, owners
    /// push `(index, community)` pairs only for vertices whose community
    /// changed since the last exchange, instead of re-sending every ghost
    /// value. Bit-identical trajectory to the full refresh (ghost slots
    /// not mentioned already hold the owner's current value); the rounds
    /// where most vertices are stable shrink to near-zero refresh bytes.
    /// When more than a quarter of the global vertices moved in the
    /// previous iteration, ranks fall back to a full refresh for that
    /// round: the pair encoding is twice as wide as a plain value, and
    /// heavily-ghosted hub vertices churn more often than the global
    /// average, so the conservative threshold keeps delta mode from ever
    /// costing more than full. The decision is made uniformly from the
    /// all-reduced move count so every rank picks the same flavour.
    pub delta_ghost_refresh: bool,
    /// Intra-rank sweep schedule (see [`SweepMode`]). `Auto` keeps the
    /// seed's sequential sweep on one thread and switches to the colored
    /// deterministic schedule when `threads_per_rank > 1`.
    pub sweep: SweepMode,
}

impl DistConfig {
    pub fn baseline() -> Self {
        Self::with_variant(Variant::Baseline)
    }

    pub fn with_variant(variant: Variant) -> Self {
        Self {
            variant,
            threshold: 1e-6,
            max_phases: 40,
            max_iterations: 200,
            seed: 0xD157,
            threads_per_rank: 1,
            delta_ghost_refresh: false,
            sweep: SweepMode::Auto,
        }
    }

    /// Refuse a config no run can honour, naming the field: with
    /// `max_phases == 0` no phase runs and the reported Q would be 0.0,
    /// not the identity partition's.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_phases == 0 {
            return Err("`max_phases` must be at least 1, got 0".into());
        }
        Ok(())
    }

    /// All six variants the paper evaluates in Fig 3 / Table IV.
    pub fn paper_variants() -> Vec<Variant> {
        vec![
            Variant::Baseline,
            Variant::ThresholdCycling,
            Variant::Et { alpha: 0.25 },
            Variant::Et { alpha: 0.75 },
            Variant::Etc { alpha: 0.25 },
            Variant::Etc { alpha: 0.75 },
        ]
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Variant::Baseline.label(), "Baseline");
        assert_eq!(Variant::Et { alpha: 0.25 }.label(), "ET(0.25)");
        assert_eq!(Variant::Etc { alpha: 0.75 }.label(), "ETC(0.75)");
        assert_eq!(Variant::ThresholdCycling.label(), "Threshold Cycling");

        // The spec grammar names every paper variant, and round-trips.
        let spec = |v: &Variant| match *v {
            Variant::Baseline => "baseline".to_string(),
            Variant::ThresholdCycling => "cycling".to_string(),
            Variant::Et { alpha } => format!("et:{alpha}"),
            Variant::Etc { alpha } => format!("etc:{alpha}"),
            Variant::EtPlusCycling { alpha } => format!("et+cycling:{alpha}"),
        };
        let combined = Variant::EtPlusCycling { alpha: 0.5 };
        for v in DistConfig::paper_variants().iter().chain([&combined]) {
            assert_eq!(Variant::parse(&spec(v)), Ok(*v), "{}", v.label());
        }
        for (bad, why) in [
            ("et:2.0", "alpha must be in [0,1]"),
            ("etc:-0.1", "alpha must be in [0,1]"),
            ("et:x", "bad alpha"),
            ("et", "unknown variant"),
            ("baseline:0.5", "unknown variant"),
            ("bogus", "unknown variant"),
        ] {
            let err = Variant::parse(bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn variant_predicates() {
        assert!(Variant::ThresholdCycling.uses_cycling());
        assert!(Variant::EtPlusCycling { alpha: 0.25 }.uses_cycling());
        assert!(!Variant::Et { alpha: 0.5 }.uses_cycling());
        assert!(Variant::Etc { alpha: 0.5 }.uses_etc_exit());
        assert!(!Variant::Et { alpha: 0.5 }.uses_etc_exit());
        assert_eq!(Variant::Et { alpha: 0.5 }.alpha(), Some(0.5));
        assert_eq!(Variant::Baseline.alpha(), None);
    }

    #[test]
    fn paper_variant_set_is_complete() {
        assert_eq!(DistConfig::paper_variants().len(), 6);
    }

    #[test]
    fn sweep_mode_labels_round_trip() {
        for mode in [SweepMode::Auto, SweepMode::Colored] {
            assert_eq!(SweepMode::parse(mode.label()), Ok(mode));
        }
        // The racing schedule is deleted: its name is refused like any other.
        for bad in ["frobnicate", "relaxed"] {
            let err = SweepMode::parse(bad).unwrap_err();
            assert!(err.contains(bad) && err.contains("auto|colored)"), "{err}");
        }
    }
}
