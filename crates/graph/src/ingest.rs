//! Typed ingestion errors and input repair.
//!
//! Real-world edge lists (SNAP, UFL, Network Repository dumps) arrive
//! with NaN or negative weights, duplicate pairs, self-loops, and
//! endpoints beyond the declared vertex count. The library-level
//! constructors historically panicked on the worst of these; this
//! module gives ingestion a typed error surface ([`IngestError`]) and a
//! repair mode that normalizes recoverable defects (duplicate merging,
//! self-loop dropping) and counts what it touched in [`RepairStats`],
//! which the caller gets back with the graph (`louvain convert` and
//! `ingest` print it).

use std::fmt;
use std::io;

use crate::VertexId;

/// Why a weight was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightFault {
    /// `NaN` — poisons every modularity sum it touches.
    NotANumber,
    /// Negative — modularity is undefined for negative weights.
    Negative,
    /// `±inf` on input, or a running total that overflowed to `inf`.
    Overflow,
}

impl fmt::Display for WeightFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WeightFault::NotANumber => "not a number",
            WeightFault::Negative => "negative",
            WeightFault::Overflow => "overflows f64",
        })
    }
}

/// A defect found while ingesting a graph. `line` fields are 1-based
/// text-input line numbers; 0 means "not from a text file".
#[derive(Debug)]
pub enum IngestError {
    /// A weight failed validation (always an error, even under repair:
    /// there is no principled fix for a NaN).
    BadWeight {
        line: usize,
        value: f64,
        fault: WeightFault,
    },
    /// The same undirected pair appeared twice in strict mode.
    DuplicateEdge {
        u: u64,
        v: u64,
        line: usize,
    },
    /// A `u == v` edge in strict mode.
    SelfLoop {
        v: u64,
        line: usize,
    },
    /// An endpoint at or past the declared vertex count.
    OutOfRange {
        u: VertexId,
        v: VertexId,
        num_vertices: u64,
    },
    /// A graph of [`crate::VERTEX_LIMIT`] or more vertices.
    TooManyVertices {
        num_vertices: u64,
    },
    /// Malformed text (missing column, unparsable id).
    Parse {
        line: usize,
        msg: String,
    },
    Io(io::Error),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadWeight { line, value, fault } => {
                write!(f, "line {line}: weight {value} is {fault}")
            }
            IngestError::DuplicateEdge { u, v, line } => {
                write!(f, "line {line}: duplicate undirected edge ({u},{v})")
            }
            IngestError::SelfLoop { v, line } => {
                write!(f, "line {line}: self-loop on vertex {v}")
            }
            IngestError::OutOfRange { u, v, num_vertices } => {
                write!(f, "edge ({u},{v}) out of range for {num_vertices} vertices")
            }
            IngestError::TooManyVertices { num_vertices } => {
                write!(f, "{num_vertices} vertices, not fewer than 4294967296")
            }
            IngestError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            IngestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<IngestError> for io::Error {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// How ingestion treats recoverable defects (duplicate pairs and
/// self-loops). Weight and endpoint defects are errors in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Keep duplicates and self-loops as written (legacy behaviour; the
    /// CSR builder later merges parallel arcs implicitly).
    #[default]
    Lenient,
    /// Reject duplicates and self-loops with a typed error.
    Strict,
    /// Merge duplicate pairs (summing weights) and drop self-loops,
    /// counting both in [`RepairStats`].
    Repair,
}

/// What a repair pass changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Extra copies of an undirected pair merged away (3 copies of one
    /// pair count as 2).
    pub duplicates_merged: u64,
    pub self_loops_dropped: u64,
}

impl RepairStats {
    pub fn any(&self) -> bool {
        self.duplicates_merged + self.self_loops_dropped > 0
    }
}

/// Refuse a graph of `n` vertices unless it fits [`crate::VERTEX_LIMIT`].
pub fn check_vertex_count(n: u64) -> Result<(), IngestError> {
    let too_many = IngestError::TooManyVertices { num_vertices: n };
    (n < crate::VERTEX_LIMIT).then_some(()).ok_or(too_many)
}

/// Validate one weight; `line` is threaded into the error.
pub fn check_weight(w: f64, line: usize) -> Result<(), IngestError> {
    let fault = if w.is_nan() {
        WeightFault::NotANumber
    } else if w < 0.0 {
        WeightFault::Negative
    } else if w.is_infinite() {
        WeightFault::Overflow
    } else {
        return Ok(());
    };
    Err(IngestError::BadWeight {
        line,
        value: w,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_validation_catches_each_fault() {
        assert!(check_weight(1.5, 1).is_ok());
        assert!(check_weight(0.0, 1).is_ok());
        let nan = check_weight(f64::NAN, 3).unwrap_err();
        assert!(nan.to_string().contains("not a number"), "{nan}");
        let neg = check_weight(-1.0, 4).unwrap_err();
        assert!(neg.to_string().contains("negative"), "{neg}");
        let inf = check_weight(f64::INFINITY, 5).unwrap_err();
        assert!(inf.to_string().contains("overflows"), "{inf}");
    }

    #[test]
    fn the_vertex_limit_is_two_to_the_32() {
        assert!(check_vertex_count(0).is_ok());
        assert!(check_vertex_count(u32::MAX as u64).is_ok());
        let e = check_vertex_count(1 << 32).unwrap_err();
        assert!(
            matches!(e, IngestError::TooManyVertices { num_vertices } if num_vertices == 1 << 32)
        );
        assert!(e.to_string().contains("fewer than 4294967296"), "{e}");
        assert!(check_vertex_count(u64::MAX).is_err());
    }

    #[test]
    fn errors_convert_to_io_invalid_data() {
        let e: io::Error = IngestError::SelfLoop { v: 7, line: 2 }.into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn repair_stats_any() {
        let s = RepairStats {
            duplicates_merged: 2,
            self_loops_dropped: 1,
        };
        assert!(s.any());
        assert!(!RepairStats::default().any());
    }
}
