//! Per-(phase, iteration) algorithm telemetry.
//!
//! Spans and metrics answer "where did the time go"; telemetry answers
//! "what did the algorithm do": the modularity trajectory, how many
//! vertices moved, how fast the ET/ETC active set decays, how the
//! community structure coarsens, and how much ghost traffic each
//! iteration cost. One [`IterationRecord`] is appended per rank per
//! iteration by the sweep loop in `louvain-dist` while the rank thread
//! is observed ([`crate::observing`]): kept in the rank's record when
//! tracing is on, and offered to the live progress merger when a
//! subscriber is attached.
//!
//! Rank records merge into global [`TelemetryRow`]s keyed by
//! `(phase, iteration)`: globally-reduced fields (modularity, delta-Q,
//! moves) are identical on every rank and taken from the lowest one;
//! per-rank fields (active/owned-vertex counts, owned-community counts
//! and size histograms, ghost bytes) sum — each vertex and each
//! community is owned by exactly one rank, so the sums and merged
//! histograms are exact global values, not estimates.

use crate::metrics::Histogram;

/// What one rank recorded for one sweep iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Phase index (0-based) within the run.
    pub phase: u64,
    /// Iteration index (0-based) within the phase.
    pub iteration: u64,
    /// Global modularity after this iteration (lagged reduction; the
    /// all-reduce makes it identical on every rank).
    pub modularity: f64,
    /// `modularity - previous iteration's modularity` within the phase;
    /// `0.0` on the first iteration of a phase.
    pub delta_q: f64,
    /// Globally all-reduced moved-vertex count for this iteration.
    pub moves: u64,
    /// Vertices this rank actually swept (the ET/ETC active set).
    pub active: u64,
    /// Vertices this rank owns.
    pub vertices: u64,
    /// Non-empty communities this rank owns after the iteration.
    pub communities: u64,
    /// log2 histogram of this rank's owned non-empty community sizes.
    pub community_sizes: Histogram,
    /// Ghost-refresh bytes this rank sent during this iteration.
    pub ghost_bytes: u64,
}

/// Record one iteration on the current rank: kept in its record when
/// tracing is on, and offered to the live progress merger if one is
/// attached. No-op when no observer is installed. The observer is
/// released before the merger runs the sink, so a sink may record too.
pub fn record_iteration(rec: IterationRecord) {
    let tracing = crate::enabled();
    let Some((merger, rank, attempt)) = crate::span::with_observer(|o| {
        if tracing {
            o.record.telemetry.push(rec.clone());
        }
        (o.progress.clone(), o.rank, o.attempt)
    }) else {
        return;
    };
    if let Some(merger) = merger {
        merger.offer(rank, attempt, &rec);
    }
}

/// One globally-merged telemetry row: per-rank fields summed, histograms
/// merged, ghost bytes kept per rank as well so imbalance stays visible.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRow {
    pub phase: u64,
    pub iteration: u64,
    pub modularity: f64,
    pub delta_q: f64,
    pub moves: u64,
    /// Global active-vertex count (sum over ranks).
    pub active: u64,
    /// Global vertex count at this phase's coarsening level.
    pub vertices: u64,
    /// Global non-empty community count (exact: one owner per community).
    pub communities: u64,
    /// Global community-size log2 histogram.
    pub community_sizes: Histogram,
    /// Ghost-refresh bytes per rank for this iteration, indexed by rank.
    pub ghost_bytes_per_rank: Vec<u64>,
}

impl TelemetryRow {
    /// An empty row for `rec`'s `(phase, iteration)` in a `num_ranks`
    /// job. The globally-reduced fields are taken from `rec` (identical
    /// on every rank); [`TelemetryRow::absorb`] adds the per-rank ones.
    pub fn new(num_ranks: usize, rec: &IterationRecord) -> Self {
        TelemetryRow {
            phase: rec.phase,
            iteration: rec.iteration,
            modularity: rec.modularity,
            delta_q: rec.delta_q,
            moves: rec.moves,
            active: 0,
            vertices: 0,
            communities: 0,
            community_sizes: Histogram::default(),
            ghost_bytes_per_rank: vec![0; num_ranks],
        }
    }

    /// Add `rank`'s per-rank fields of `rec`.
    pub fn absorb(&mut self, rank: usize, rec: &IterationRecord) {
        self.active += rec.active;
        self.vertices += rec.vertices;
        self.communities += rec.communities;
        self.community_sizes.merge(&rec.community_sizes);
        self.ghost_bytes_per_rank[rank] += rec.ghost_bytes;
    }

    /// Fraction of vertices the ET/ETC heuristics kept active.
    pub fn active_fraction(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.active as f64 / self.vertices as f64
        }
    }

    pub fn ghost_bytes_total(&self) -> u64 {
        self.ghost_bytes_per_rank.iter().sum()
    }
}

/// Merge per-rank iteration records (outer index = rank) into global
/// rows sorted by `(phase, iteration)`. Ranks that early-terminated out
/// of an iteration simply contribute nothing to it.
pub fn merge_ranks(per_rank: &[Vec<IterationRecord>]) -> Vec<TelemetryRow> {
    let mut rows: std::collections::BTreeMap<(u64, u64), TelemetryRow> =
        std::collections::BTreeMap::new();
    let num_ranks = per_rank.len();
    for (rank, recs) in per_rank.iter().enumerate() {
        for r in recs {
            rows.entry((r.phase, r.iteration))
                .or_insert_with(|| TelemetryRow::new(num_ranks, r))
                .absorb(rank, r);
        }
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(phase: u64, iteration: u64, active: u64, ghost: u64) -> IterationRecord {
        let mut sizes = Histogram::default();
        sizes.observe(4);
        IterationRecord {
            phase,
            iteration,
            modularity: 0.5 + phase as f64 / 10.0,
            delta_q: 0.01,
            moves: 7,
            active,
            vertices: 100,
            communities: 10,
            community_sizes: sizes,
            ghost_bytes: ghost,
        }
    }

    #[test]
    fn merge_sums_rank_fields_and_keeps_global_ones() {
        let per_rank = vec![
            vec![rec(0, 0, 80, 128), rec(0, 1, 40, 64)],
            vec![rec(0, 0, 90, 256)],
        ];
        let rows = merge_ranks(&per_rank);
        assert_eq!(rows.len(), 2);
        let first = &rows[0];
        assert_eq!((first.phase, first.iteration), (0, 0));
        assert_eq!(first.active, 170);
        assert_eq!(first.vertices, 200);
        assert_eq!(first.communities, 20);
        assert_eq!(first.community_sizes.count, 2);
        assert_eq!(first.ghost_bytes_per_rank, vec![128, 256]);
        assert_eq!(first.ghost_bytes_total(), 384);
        assert_eq!(first.moves, 7);
        assert!((first.active_fraction() - 0.85).abs() < 1e-12);
        // Rank 1 terminated before iteration 1: the row still merges.
        let second = &rows[1];
        assert_eq!(second.active, 40);
        assert_eq!(second.ghost_bytes_per_rank, vec![64, 0]);
    }

    #[test]
    fn record_iteration_is_inert_without_observer() {
        let _l = crate::span::tests::ENABLE_LOCK.lock().unwrap();
        crate::set_enabled(true);
        record_iteration(rec(0, 0, 1, 0)); // no observer installed: no-op
        crate::set_enabled(false);
    }
}
