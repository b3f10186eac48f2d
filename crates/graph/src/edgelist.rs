//! Weighted undirected edge lists — the interchange format between
//! generators, binary I/O, and CSR construction.

use crate::ingest::{check_weight, IngestError, RepairStats};
use crate::{VertexId, Weight};

/// One undirected edge. `u == v` denotes a self-loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub u: VertexId,
    pub v: VertexId,
    pub w: Weight,
}

/// A bag of undirected edges over vertices `0..num_vertices`.
///
/// Invariants maintained by the constructors: no duplicate undirected
/// pairs after [`EdgeList::dedup_sum`], endpoints `< num_vertices`.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    num_vertices: u64,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Empty list over `n` vertices.
    pub fn new(num_vertices: u64) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Build from raw `(u, v, w)` triples.
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(
        num_vertices: u64,
        triples: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut list = Self::new(num_vertices);
        for (u, v, w) in triples {
            list.push(u, v, w);
        }
        list
    }

    /// Build from raw triples with a typed error surface instead of
    /// panics: out-of-range endpoints and NaN/negative/infinite weights
    /// are reported as [`IngestError`]s (the ingestion path; generators
    /// keep the infallible [`EdgeList::from_edges`]).
    pub fn try_from_edges(
        num_vertices: u64,
        triples: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Result<Self, IngestError> {
        let mut list = Self::new(num_vertices);
        for (u, v, w) in triples {
            list.try_push(u, v, w)?;
        }
        Ok(list)
    }

    /// Append one undirected edge.
    pub fn push(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            u < self.num_vertices && v < self.num_vertices,
            "edge ({u},{v}) out of range (n={})",
            self.num_vertices
        );
        self.edges.push(Edge { u, v, w });
    }

    /// [`EdgeList::push`] with validation errors instead of panics.
    pub fn try_push(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), IngestError> {
        if u >= self.num_vertices || v >= self.num_vertices {
            return Err(IngestError::OutOfRange {
                u,
                v,
                num_vertices: self.num_vertices,
            });
        }
        check_weight(w, 0)?;
        self.edges.push(Edge { u, v, w });
        Ok(())
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of undirected edges currently stored (self-loops count once).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sum of all edge weights (undirected; self-loops count once).
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Merge duplicate undirected pairs by summing their weights in list
    /// order. `(u,v)` and `(v,u)` are the same pair; the result holds each
    /// pair once as `(min, max)`, sorted.
    pub fn dedup_sum(&mut self) {
        for e in &mut self.edges {
            if e.u > e.v {
                std::mem::swap(&mut e.u, &mut e.v);
            }
            // As in `csr::build_rows`, every sum starts from 0.0: -0.0 + 0.0 is 0.0.
            e.w += 0.0;
        }
        self.edges.sort_by_key(|e| (e.u, e.v));
        self.edges.dedup_by(|next, kept| {
            let same = (next.u, next.v) == (kept.u, kept.v);
            if same {
                kept.w += next.w;
            }
            same
        });
    }

    /// Repair pass over an already-built list: merge duplicate
    /// undirected pairs (summing weights) and drop self-loops,
    /// reporting what changed. Publishes nothing itself — call
    /// [`RepairStats::publish`] to emit the obs counters.
    pub fn repair(&mut self) -> RepairStats {
        let before = self.edges.len();
        let loops = self.edges.iter().filter(|e| e.u == e.v).count();
        self.edges.retain(|e| e.u != e.v);
        self.dedup_sum();
        RepairStats {
            duplicates_merged: (before - loops - self.edges.len()) as u64,
            self_loops_dropped: loops as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut el = EdgeList::new(4);
        el.push(0, 1, 1.0);
        el.push(2, 3, 2.0);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.total_weight(), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut el = EdgeList::new(2);
        el.push(0, 2, 1.0);
    }

    #[test]
    fn dedup_sums_both_orientations() {
        let mut el = EdgeList::from_edges(3, [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 0.5), (2, 2, 1.0)]);
        el.dedup_sum();
        assert_eq!(el.num_edges(), 2);
        let e01 = el.edges().iter().find(|e| e.u == 0 && e.v == 1).unwrap();
        assert_eq!(e01.w, 3.5);
        let loop2 = el.edges().iter().find(|e| e.u == 2 && e.v == 2).unwrap();
        assert_eq!(loop2.w, 1.0);
    }

    #[test]
    fn try_push_reports_typed_errors() {
        let mut el = EdgeList::new(2);
        assert!(el.try_push(0, 1, 1.0).is_ok());
        assert!(matches!(
            el.try_push(0, 2, 1.0),
            Err(IngestError::OutOfRange { .. })
        ));
        assert!(matches!(
            el.try_push(0, 1, f64::NAN),
            Err(IngestError::BadWeight { .. })
        ));
        assert!(matches!(
            el.try_push(0, 1, -2.0),
            Err(IngestError::BadWeight { .. })
        ));
        assert_eq!(el.num_edges(), 1, "failed pushes must not append");
        assert!(EdgeList::try_from_edges(2, [(0, 1, f64::INFINITY)]).is_err());
    }

    #[test]
    fn repair_merges_duplicates_and_drops_loops() {
        let mut el = EdgeList::from_edges(
            3,
            [
                (0, 1, 1.0),
                (1, 0, 2.0),
                (0, 1, 0.5),
                (2, 2, 1.0),
                (1, 2, 1.0),
            ],
        );
        let stats = el.repair();
        assert_eq!(stats.duplicates_merged, 2);
        assert_eq!(stats.self_loops_dropped, 1);
        assert!(stats.any());
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.total_weight(), 4.5);
        // A second pass finds nothing.
        assert!(!el.repair().any());
    }

    #[test]
    fn empty_list() {
        let el = EdgeList::new(5);
        assert!(el.is_empty());
        assert_eq!(el.total_weight(), 0.0);
    }
}
