//! `lens crit` — cross-rank critical-path analysis over the phase
//! profile of a [`RunArtifact`].
//!
//! A traced run carries `phase_profile` in its [`RunReport`]:
//! per-(rank, phase) wall attribution derived from the span tree
//! (compute / transfer / wait / rebuild, summing to the phase-span wall
//! by construction) and the time each cell's phase span ended, on the
//! trace's one clock.
//!
//! The end-of-phase reduction is an all-to-all barrier, so phase `k` is
//! over only when its last rank leaves it. Each phase's extent on the
//! critical path is therefore the latest phase-`k` end over ranks minus
//! the latest phase-`(k−1)` end (the first phase starts at its earliest
//! start). The extents telescope to the span from the first phase's
//! start to the last phase's end, so the path can never exceed the wall.
//! Summing each phase's slowest *duration* instead would count a rank's
//! exit skew at a phase's last collective twice: once in its own phase
//! `k`, and again in the peer's phase `k+1`, which opens with the wait
//! for it.
//!
//! On top of the path we report:
//!
//! - the slowest rank of each phase (the longest phase span) and its
//!   compute/transfer/wait/rebuild split, scaled to the phase's extent,
//!   and the split's aggregate fractions along the path (they sum to 1
//!   because each scaled split sums to its extent), and
//! - straggler blame: the rank spending the most *self* time (compute +
//!   transfer + rebuild, excluding blocked wait — wait is victim time: a
//!   rank stalled behind a straggler must not inherit the blame).
//!
//! Rendering is deterministic (fixed float precision, `BTreeMap`
//! ordering, no clocks): same artifact in, byte-identical report out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use louvain_obs::{PhaseProfileRow, RunArtifact, RunReport};

/// One step of the slowest-rank chain: phase `phase`'s extent on the
/// critical path and the cell of its slowest rank.
#[derive(Debug, Clone, Copy)]
pub struct ChainStep {
    pub phase: u64,
    pub rank: usize,
    pub cell: PhaseProfileRow,
    /// Latest end of this phase over ranks minus the latest end of the
    /// previous one (the earliest start, for the first phase).
    pub extent_ns: u64,
    /// `cell`'s (compute, transfer, wait, rebuild), scaled to sum to
    /// `extent_ns`.
    pub split_ns: [u64; 4],
}

/// Crit analysis of one traced run.
#[derive(Debug, Clone)]
pub struct RunCrit {
    pub label: String,
    pub ranks: usize,
    /// Slowest-rank chain, one entry per phase in phase order.
    pub chain: Vec<ChainStep>,
    /// Critical-path length: sum of the chain's phase extents.
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
    /// step's scaled split sums to its extent.
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
                let [c, t, w, b] = s.split_ns.map(|v| v as f64 / 1e6);
                let _ = writeln!(
                    out,
                    "    phase {:>2}: rank {:>2}  extent {:>10.3}ms  compute {c:.3} transfer {t:.3} wait {w:.3} rebuild {b:.3}",
                    s.phase,
                    s.rank,
                    s.extent_ns as f64 / 1e6,
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

/// `cell`'s four buckets scaled to sum to exactly `extent` (the
/// rounding remainder lands on compute). Scaled by the buckets' own sum:
/// when a nested span leaks past the phase span, clamping leaves
/// `total_ns` below it.
fn scale_split(cell: &PhaseProfileRow, extent: u64) -> [u64; 4] {
    let buckets = [
        cell.compute_ns,
        cell.transfer_ns,
        cell.wait_ns,
        cell.rebuild_ns,
    ];
    let sum: u128 = buckets.iter().map(|&v| v as u128).sum();
    if sum == 0 {
        return [extent, 0, 0, 0];
    }
    let mut split = buckets.map(|v| (v as u128 * extent as u128 / sum) as u64);
    split[0] += extent - split.iter().sum::<u64>();
    split
}

/// The critical path through the barrier-coupled phases, in phase
/// order: each phase's extent between the latest ends of it and of its
/// predecessor, attributed to its slowest rank.
fn slowest_chain(rows: &[PhaseProfileRow]) -> Vec<ChainStep> {
    // phase -> (slowest cell, latest end, earliest start)
    let mut by_phase: BTreeMap<u64, (PhaseProfileRow, u64, u64)> = BTreeMap::new();
    for row in rows {
        let start = row.end_ns.saturating_sub(row.total_ns);
        by_phase
            .entry(row.phase)
            .and_modify(|(slow, end, first)| {
                // Ties break toward the lower rank for determinism.
                if row.total_ns > slow.total_ns
                    || (row.total_ns == slow.total_ns && row.rank < slow.rank)
                {
                    *slow = *row;
                }
                *end = (*end).max(row.end_ns);
                *first = (*first).min(start);
            })
            .or_insert((*row, row.end_ns, start));
    }
    let mut prev_end: Option<u64> = None;
    by_phase
        .into_values()
        .map(|(cell, end, first)| {
            let from = prev_end.unwrap_or(first);
            let end = end.max(from);
            prev_end = Some(end);
            let extent_ns = end - from;
            ChainStep {
                phase: cell.phase,
                rank: cell.rank,
                cell,
                extent_ns,
                split_ns: scale_split(&cell, extent_ns),
            }
        })
        .collect()
}

fn analyze_run(label: &str, report: &RunReport) -> RunCrit {
    let chain = slowest_chain(&report.phase_profile);
    let critical_path_ns: u64 = chain.iter().map(|s| s.extent_ns).sum();
    let mut path_breakdown_ns = [0u64; 4];
    for s in &chain {
        for (sum, v) in path_breakdown_ns.iter_mut().zip(s.split_ns) {
            *sum += v;
        }
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

    /// A cell whose phase span ended at `end` (its buckets: compute,
    /// transfer, wait, rebuild).
    fn cell(rank: usize, phase: u64, [c, t, w, b]: [u64; 4], end: u64) -> PhaseProfileRow {
        PhaseProfileRow {
            rank,
            phase,
            compute_ns: c,
            transfer_ns: t,
            wait_ns: w,
            rebuild_ns: b,
            total_ns: c + t + w + b,
            end_ns: end,
        }
    }

    /// Two ranks leaving each phase together (no exit skew).
    fn traced_entry(label: &str) -> RunEntry {
        let phase_profile = vec![
            cell(0, 0, [700, 100, 50, 150], 1_300),
            cell(1, 0, [900, 100, 200, 100], 1_300), // slowest in phase 0
            cell(0, 1, [400, 50, 25, 25], 1_800),    // slowest in phase 1
            cell(1, 1, [300, 50, 25, 25], 1_800),
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
        // Without exit skew each extent is the slowest rank's span:
        // phase 0: rank 1 (1300ns) + phase 1: rank 0 (500ns).
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

    /// Exit skew at a phase's last collective: rank 1 is descheduled
    /// there and leaves phase 0 300 ns after rank 0, whose phase 1 then
    /// opens with 300 ns of waiting for it. Summing each phase's slowest
    /// total counts those 300 ns twice (1300 + 1000 ns against a 2100 ns
    /// wall); the phase extents count them once.
    #[test]
    fn exit_skew_is_counted_once() {
        let mut a = traced_artifact();
        a.runs[0].report.wall_seconds = 2.1e-6;
        a.runs[0].report.phase_profile = vec![
            cell(0, 0, [900, 50, 50, 0], 1_000),
            cell(1, 0, [1_000, 50, 250, 0], 1_300),
            cell(0, 1, [600, 50, 350, 0], 2_000),
            cell(1, 1, [600, 50, 50, 0], 2_000),
        ];
        let r = &crit(&a).unwrap().runs[0];
        assert_eq!(r.critical_path_ns, 2_000, "1300 + 700, not 1300 + 1000");
        assert!(r.critical_path_ns <= r.wall_ns, "path exceeds wall");
        // Both ranks spent 2000 ns in phases; the path bounds each.
        for rank in 0..2 {
            let own: u64 = a.runs[0]
                .report
                .phase_profile
                .iter()
                .filter(|row| row.rank == rank)
                .map(|row| row.total_ns)
                .sum();
            assert!(r.critical_path_ns >= own, "rank {rank}: {own}");
        }
        let extents: Vec<_> = r.chain.iter().map(|s| (s.rank, s.extent_ns)).collect();
        assert_eq!(extents, vec![(1, 1_300), (0, 700)]);
        // Phase 1's slowest rank is rank 0; its 600/50/350/0 split is
        // scaled from its 1000 ns span to the 700 ns extent.
        assert_eq!(r.chain[1].split_ns, [420, 35, 245, 0]);
        assert_eq!(r.path_breakdown_ns.iter().sum::<u64>(), r.critical_path_ns);
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
            cell(0, 0, [100, 50, 9_000, 0], 9_150),
            cell(1, 0, [200, 5_000, 100, 0], 9_150),
            cell(0, 1, [50, 25, 4_000, 0], 13_225),
            cell(1, 1, [100, 2_000, 50, 0], 13_225),
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
