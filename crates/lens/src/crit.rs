//! `lens crit` — cross-rank critical-path analysis over the phase
//! profile of a [`RunArtifact`].
//!
//! A traced run carries `phase_profile` in its [`RunReport`]:
//! per-(rank, phase) wall attribution derived from the span tree
//! (compute / transfer / wait / rebuild, summing to the phase-span wall
//! by construction).
//!
//! From it we reconstruct the happens-before DAG. Nodes are (rank,
//! phase) cells; within a rank, phase `k` happens-before phase `k+1`;
//! across ranks, the end-of-phase reduction is an all-to-all barrier,
//! so every rank's phase `k` happens-before every rank's phase `k+1`.
//! The longest path through that DAG is computed by dynamic
//! programming: because each frontier is all-to-all, `longest(k) =
//! longest(k-1) + max_rank(total_ns[k])`, and backtracking the
//! per-phase argmax yields the slowest-rank chain.
//!
//! On top of the path we report:
//!
//! - per-phase wall attribution along the critical path and its
//!   aggregate compute/transfer/wait/rebuild fractions (they sum to 1
//!   because each cell's buckets sum to its total), and
//! - straggler blame: the rank spending the most *self* time (compute +
//!   transfer + rebuild, excluding blocked wait — wait is victim time: a
//!   rank stalled behind a straggler must not inherit the blame).
//!
//! Rendering is deterministic (fixed float precision, `BTreeMap`
//! ordering, no clocks): same artifact in, byte-identical report out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use louvain_obs::{PhaseProfileRow, RunArtifact, RunReport};

/// One step of the slowest-rank chain: the cell that carried phase
/// `phase` on the critical path.
#[derive(Debug, Clone, Copy)]
pub struct ChainStep {
    pub phase: u64,
    pub rank: usize,
    pub cell: PhaseProfileRow,
}

/// Crit analysis of one traced run.
#[derive(Debug, Clone)]
pub struct RunCrit {
    pub label: String,
    pub ranks: usize,
    /// Slowest-rank chain, one entry per phase in phase order.
    pub chain: Vec<ChainStep>,
    /// Critical-path length: sum of the chain cells' totals.
    pub critical_path_ns: u64,
    /// Whole-run wall from the report, for the path/wall ratio.
    pub wall_ns: u64,
    /// (compute, transfer, wait, rebuild) sums along the chain.
    pub path_breakdown_ns: [u64; 4],
    /// Rank with the most self time (compute + transfer + rebuild,
    /// excluding blocked wait) and its share of all-rank self time.
    /// Wait is victim time: a rank blocked behind a straggler must not
    /// inherit the blame, so the straggler is whoever spends the most
    /// non-wait wall.
    pub blame_rank: usize,
    pub blame_share: f64,
}

impl RunCrit {
    /// (compute, transfer, wait, rebuild) as fractions of the critical
    /// path. Sums to 1 whenever the path is non-empty, because each
    /// cell's four buckets sum to its total by construction.
    pub fn path_fractions(&self) -> [f64; 4] {
        let t = self.critical_path_ns;
        if t == 0 {
            return [0.0; 4];
        }
        self.path_breakdown_ns.map(|v| v as f64 / t as f64)
    }
}

/// The full crit report: analyzed runs plus the labels skipped for
/// lacking a phase profile.
#[derive(Debug, Clone)]
pub struct CritReport {
    pub artifact: String,
    pub runs: Vec<RunCrit>,
    /// Labels present in the artifact but not analyzable (no phase
    /// profile: run untraced).
    pub skipped: Vec<String>,
}

impl CritReport {
    /// Deterministic human rendering (byte-identical across invocations
    /// on the same inputs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "crit: {} ({} analyzed, {} skipped)",
            self.artifact,
            self.runs.len(),
            self.skipped.len()
        );
        for label in &self.skipped {
            let _ = writeln!(out, "  skipped {label}: no phase profile");
        }
        for r in &self.runs {
            let _ = writeln!(out);
            let _ = writeln!(out, "{}  ranks={}", r.label, r.ranks);
            let ratio = if r.wall_ns > 0 {
                100.0 * r.critical_path_ns as f64 / r.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  critical path: {:.3}ms of {:.3}ms wall ({:.1}%)",
                r.critical_path_ns as f64 / 1e6,
                r.wall_ns as f64 / 1e6,
                ratio
            );
            let [fc, ft, fw, fb] = r.path_fractions();
            let _ = writeln!(
                out,
                "  attribution: compute {:.1}% transfer {:.1}% wait {:.1}% rebuild {:.1}%",
                100.0 * fc,
                100.0 * ft,
                100.0 * fw,
                100.0 * fb
            );
            let _ = writeln!(out, "  slowest-rank chain:");
            for s in &r.chain {
                let _ = writeln!(
                    out,
                    "    phase {:>2}: rank {:>2}  total {:>10.3}ms  compute {:.3} transfer {:.3} wait {:.3} rebuild {:.3}",
                    s.phase,
                    s.rank,
                    s.cell.total_ns as f64 / 1e6,
                    s.cell.compute_ns as f64 / 1e6,
                    s.cell.transfer_ns as f64 / 1e6,
                    s.cell.wait_ns as f64 / 1e6,
                    s.cell.rebuild_ns as f64 / 1e6,
                );
            }
            let _ = writeln!(
                out,
                "  straggler blame: rank {} ({:.1}% of self time)",
                r.blame_rank,
                100.0 * r.blame_share
            );
        }
        out
    }
}

/// Longest path through the barrier-coupled phase DAG: pick the slowest
/// rank per phase, in phase order.
fn slowest_chain(rows: &[PhaseProfileRow]) -> Vec<ChainStep> {
    let mut by_phase: BTreeMap<u64, ChainStep> = BTreeMap::new();
    for row in rows {
        let step = ChainStep {
            phase: row.phase,
            rank: row.rank,
            cell: *row,
        };
        by_phase
            .entry(row.phase)
            .and_modify(|cur| {
                // Ties break toward the lower rank for determinism.
                if row.total_ns > cur.cell.total_ns
                    || (row.total_ns == cur.cell.total_ns && row.rank < cur.rank)
                {
                    *cur = step;
                }
            })
            .or_insert(step);
    }
    by_phase.into_values().collect()
}

fn analyze_run(label: &str, report: &RunReport) -> RunCrit {
    let chain = slowest_chain(&report.phase_profile);
    let critical_path_ns: u64 = chain.iter().map(|s| s.cell.total_ns).sum();
    let mut path_breakdown_ns = [0u64; 4];
    for s in &chain {
        path_breakdown_ns[0] += s.cell.compute_ns;
        path_breakdown_ns[1] += s.cell.transfer_ns;
        path_breakdown_ns[2] += s.cell.wait_ns;
        path_breakdown_ns[3] += s.cell.rebuild_ns;
    }
    // Straggler blame goes by *self* time across every cell, not chain
    // membership: a rank blocked waiting on the straggler can carry the
    // longest per-phase wall (its wait absorbs the stall) and would
    // steal the blame if wait counted.
    let mut per_rank_self: BTreeMap<usize, u64> = BTreeMap::new();
    let mut total_self: u64 = 0;
    for row in &report.phase_profile {
        let self_ns = row.compute_ns + row.transfer_ns + row.rebuild_ns;
        *per_rank_self.entry(row.rank).or_insert(0) += self_ns;
        total_self += self_ns;
    }
    let (blame_rank, blame_ns) = per_rank_self
        .into_iter()
        .max_by_key(|&(rank, ns)| (ns, usize::MAX - rank))
        .unwrap_or((0, 0));
    let blame_share = if total_self > 0 {
        blame_ns as f64 / total_self as f64
    } else {
        0.0
    };
    RunCrit {
        label: label.to_string(),
        ranks: report.ranks,
        chain,
        critical_path_ns,
        wall_ns: (report.wall_seconds * 1e9) as u64,
        path_breakdown_ns,
        blame_rank,
        blame_share,
    }
}

/// Analyze every run of `artifact` that carries a phase profile.
///
/// Errors when **no** run does — an untraced artifact degrades with a
/// clear message instead of an empty report.
pub fn crit(artifact: &RunArtifact) -> Result<CritReport, String> {
    let mut runs = Vec::new();
    let mut skipped = Vec::new();
    for entry in &artifact.runs {
        if entry.report.phase_profile.is_empty() {
            skipped.push(entry.label.clone());
        } else {
            runs.push(analyze_run(&entry.label, &entry.report));
        }
    }
    if runs.is_empty() {
        return Err(format!(
            "artifact `{}` has no runs with a phase profile: it was run untraced \
             (`louvain run --trace-out` produces the phase_profile section)",
            artifact.name
        ));
    }
    Ok(CritReport {
        artifact: artifact.name.clone(),
        runs,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_obs::RunEntry;

    fn cell(rank: usize, phase: u64, c: u64, t: u64, w: u64, b: u64) -> PhaseProfileRow {
        PhaseProfileRow {
            rank,
            phase,
            compute_ns: c,
            transfer_ns: t,
            wait_ns: w,
            rebuild_ns: b,
            total_ns: c + t + w + b,
        }
    }

    fn traced_entry(label: &str) -> RunEntry {
        let phase_profile = vec![
            cell(0, 0, 700, 100, 50, 150),
            cell(1, 0, 900, 100, 200, 100), // slowest in phase 0
            cell(0, 1, 400, 50, 25, 25),    // slowest in phase 1
            cell(1, 1, 300, 50, 25, 25),
        ];
        RunEntry {
            label: label.into(),
            report: RunReport {
                graph: "g".into(),
                ranks: 2,
                variant: "delta".into(),
                wall_seconds: 2.0e-6,
                phase_profile,
                ..Default::default()
            },
            telemetry: Vec::new(),
        }
    }

    fn traced_artifact() -> RunArtifact {
        RunArtifact {
            name: "crit-test".into(),
            description: String::new(),
            runs: vec![traced_entry("g/p2/delta")],
        }
    }

    #[test]
    fn critical_path_sums_slowest_rank_per_phase() {
        let report = crit(&traced_artifact()).unwrap();
        let r = &report.runs[0];
        // phase 0: rank 1 (1300ns) + phase 1: rank 0 (500ns)
        assert_eq!(r.critical_path_ns, 1_300 + 500);
        assert_eq!(r.chain.len(), 2);
        assert_eq!(r.chain[0].rank, 1);
        assert_eq!(r.chain[1].rank, 0);
        // The chain total must be at least every rank's own phase time.
        for row in &traced_entry("x").report.phase_profile {
            assert!(r.critical_path_ns >= row.total_ns);
        }
        // Critical path cannot exceed wall (2.0e-6 s = 2000ns > 1800ns).
        assert!(r.critical_path_ns <= r.wall_ns);
    }

    #[test]
    fn path_fractions_sum_to_one() {
        let report = crit(&traced_artifact()).unwrap();
        let sum: f64 = report.runs[0].path_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
    }

    #[test]
    fn blame_prefers_rank_with_most_self_time() {
        let report = crit(&traced_artifact()).unwrap();
        let r = &report.runs[0];
        // Self time excludes wait: rank 0 = 700+100+150 + 400+50+25 =
        // 1425ns, rank 1 = 900+100+100 + 300+50+25 = 1475ns.
        assert_eq!(r.blame_rank, 1, "rank 1 carries 1475 of 2900ns self");
        assert!((r.blame_share - 1475.0 / 2900.0).abs() < 1e-9);
        assert!(report
            .render()
            .contains("straggler blame: rank 1 (50.9% of self time)"));
    }

    #[test]
    fn blame_ignores_victim_wait_time() {
        // Rank 0 waits out a straggling rank 1: rank 0's wall dominates
        // every phase (so it owns the whole chain), but all of it is
        // blocked wait — the blame must land on rank 1, whose transfer
        // time is where the stall actually lives.
        let mut a = traced_artifact();
        a.runs[0].report.phase_profile = vec![
            cell(0, 0, 100, 50, 9_000, 0),
            cell(1, 0, 200, 5_000, 100, 0),
            cell(0, 1, 50, 25, 4_000, 0),
            cell(1, 1, 100, 2_000, 50, 0),
        ];
        let report = crit(&a).unwrap();
        let r = &report.runs[0];
        assert!(r.chain.iter().all(|s| s.rank == 0), "rank 0 owns the chain");
        assert_eq!(r.blame_rank, 1, "blame must skip rank 0's victim wait");
    }

    #[test]
    fn artifact_without_a_phase_profile_errors() {
        let mut a = traced_artifact();
        a.runs[0].report.phase_profile.clear();
        let err = crit(&a).unwrap_err();
        assert!(err.contains("no runs with a phase profile"), "{err}");
    }

    #[test]
    fn untraced_runs_are_skipped_not_fatal() {
        let mut a = traced_artifact();
        let mut legacy = traced_entry("g/p4/legacy");
        legacy.report.phase_profile.clear();
        a.runs.push(legacy);
        let report = crit(&a).unwrap();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.skipped, vec!["g/p4/legacy".to_string()]);
        assert!(report.render().contains("skipped g/p4/legacy"));
    }

    #[test]
    fn render_is_deterministic() {
        let a = traced_artifact();
        let r1 = crit(&a).unwrap().render();
        let r2 = crit(&a).unwrap().render();
        assert_eq!(r1, r2, "crit rendering must be byte-identical");
    }
}
