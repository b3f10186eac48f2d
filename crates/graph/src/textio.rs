//! Text edge-list import (SNAP / Matrix-Market-adjacent format).
//!
//! The paper's inputs come "in their native formats from four sources:
//! UFL sparse matrix collection, Network repository, SNAP and LAW", which
//! the authors convert to their binary format (here, a slab: `louvain
//! ingest` streams a text file into one). This module reads the common
//! text form: one edge per line, `src dst [weight]`, `#` or `%`
//! comments, arbitrary (non-contiguous) `u64` vertex ids remapped densely
//! (fewer than [`crate::VERTEX_LIMIT`] distinct ones).

use std::io::{self, BufRead};
use std::path::Path;

use crate::hash::{fast_map, FastMap};
use crate::ingest::{check_vertex_count, check_weight, IngestError};
use crate::VertexId;

/// The dense id of the file's id `raw`, numbering it next on first sight.
fn dense_id(
    raw: u64,
    remap: &mut FastMap<u64, VertexId>,
    original_ids: &mut Vec<u64>,
) -> Result<VertexId, IngestError> {
    use std::collections::hash_map::Entry;
    match remap.entry(raw) {
        Entry::Occupied(e) => Ok(*e.get()),
        Entry::Vacant(e) => {
            let id = original_ids.len() as VertexId;
            check_vertex_count(id + 1)?;
            original_ids.push(raw);
            Ok(*e.insert(id))
        }
    }
}

/// Split one non-comment line into `(src, dst, weight)`.
fn split_line(t: &str, lineno: usize) -> Result<(u64, u64, f64), IngestError> {
    let mut it = t.split_whitespace();
    let bad = |what: &str| IngestError::Parse {
        line: lineno,
        msg: format!("{what}: {t}"),
    };
    let u: u64 = it
        .next()
        .ok_or_else(|| bad("missing source"))?
        .parse()
        .map_err(|_| bad("bad source id"))?;
    let v: u64 = it
        .next()
        .ok_or_else(|| bad("missing destination"))?
        .parse()
        .map_err(|_| bad("bad destination id"))?;
    let w: f64 = match it.next() {
        None => 1.0,
        Some(s) => s.parse().map_err(|_| bad("bad weight"))?,
    };
    Ok((u, v, w))
}

/// Run `f` over every data line of `path` (comments and blanks skipped),
/// with 1-based line numbers.
fn for_each_data_line(
    path: &Path,
    mut f: impl FnMut(usize, &str) -> Result<(), IngestError>,
) -> Result<(), IngestError> {
    let file = std::fs::File::open(path)?;
    for (lineno, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        f(lineno + 1, t)?;
    }
    Ok(())
}

/// Streaming two-pass text import: pass 1 scans the file to size the
/// dense id space (`O(distinct vertices)` memory, full line validation
/// with line numbers), pass 2 re-reads it and feeds remapped edges
/// straight into the sink `make_sink(num_vertices)` returns — no
/// RAM-resident [`crate::EdgeList`]. Weights are validated (NaN /
/// negative / running-total overflow) with line numbers;
/// self-loop and duplicate policy is whatever the *sink* enforces (the
/// slab builder's `IngestPolicy`), which means strict-policy duplicate
/// errors surface at the sink without text line numbers — the price of
/// never materializing the edges. Returns the sink and the
/// `original_id[dense_id]` table. Edges reach the sink in file order, so
/// a slab built this way is bit-identical to `Csr::from_edge_list` over
/// the same file streamed into an `EdgeList`.
pub fn stream_text_edge_list<S: crate::sink::EdgeSink>(
    path: &Path,
    make_sink: impl FnOnce(u64) -> S,
) -> Result<(S, Vec<u64>), IngestError> {
    let mut remap: FastMap<u64, VertexId> = fast_map();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut total_weight = 0.0f64;
    for_each_data_line(path, |lineno, t| {
        let (u, v, w) = split_line(t, lineno)?;
        check_weight(w, lineno)?;
        total_weight += w;
        if total_weight.is_infinite() {
            return Err(IngestError::BadWeight {
                line: lineno,
                value: w,
                fault: crate::ingest::WeightFault::Overflow,
            });
        }
        dense_id(u, &mut remap, &mut original_ids)?;
        dense_id(v, &mut remap, &mut original_ids)?;
        Ok(())
    })?;
    let changed = |line: usize| IngestError::Parse {
        line,
        msg: "file changed between scan and stream passes".into(),
    };
    let mut sink = make_sink(original_ids.len() as u64);
    for_each_data_line(path, |lineno, t| {
        let (u, v, w) = split_line(t, lineno)?;
        let du = *remap.get(&u).ok_or_else(|| changed(lineno))?;
        let dv = *remap.get(&v).ok_or_else(|| changed(lineno))?;
        sink.edge(du, dv, w)
    })?;
    Ok((sink, original_ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::ingest::{IngestPolicy, RepairStats};
    use crate::Weight;
    use std::io::BufRead;

    /// Result of a text import: the edge list plus the mapping from original
    /// (file) ids to the dense ids used in the graph.
    #[derive(Debug)]
    struct TextImport {
        edges: EdgeList,
        /// `original_id[dense_id]` — the file's id for each dense vertex.
        original_ids: Vec<u64>,
        /// What [`IngestPolicy::Repair`] changed (zero under other
        /// policies).
        repairs: RepairStats,
    }

    /// Parse a text edge list from a reader under a defect policy. Lines:
    /// `src dst [weight]`, separated by whitespace; `#`/`%`-prefixed lines
    /// are comments. Vertex ids are remapped to `0..n` in order of first
    /// appearance. NaN/negative/infinite weights are rejected in every
    /// policy. The in-memory oracle of [`stream_text_edge_list`].
    fn parse_edge_list_policy<R: BufRead>(
        reader: R,
        policy: IngestPolicy,
    ) -> Result<TextImport, IngestError> {
        let mut remap: FastMap<u64, VertexId> = fast_map();
        let mut original_ids: Vec<u64> = Vec::new();
        let mut triples: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        // Normalized pair -> index into `triples`, for duplicate detection
        // under the strict/repair policies.
        let mut seen: FastMap<(VertexId, VertexId), usize> = fast_map();
        let mut repairs = RepairStats::default();
        let mut total_weight = 0.0f64;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let lineno = lineno + 1;
            let (u, v, w) = split_line(t, lineno)?;
            check_weight(w, lineno)?;
            total_weight += w;
            if total_weight.is_infinite() {
                return Err(IngestError::BadWeight {
                    line: lineno,
                    value: w,
                    fault: crate::ingest::WeightFault::Overflow,
                });
            }
            let du = dense_id(u, &mut remap, &mut original_ids)?;
            let dv = dense_id(v, &mut remap, &mut original_ids)?;
            if policy != IngestPolicy::Lenient {
                if du == dv {
                    if policy == IngestPolicy::Strict {
                        return Err(IngestError::SelfLoop { v: u, line: lineno });
                    }
                    repairs.self_loops_dropped += 1;
                    continue;
                }
                let key = if du <= dv { (du, dv) } else { (dv, du) };
                if let Some(&at) = seen.get(&key) {
                    if policy == IngestPolicy::Strict {
                        return Err(IngestError::DuplicateEdge { u, v, line: lineno });
                    }
                    triples[at].2 += w;
                    repairs.duplicates_merged += 1;
                    continue;
                }
                seen.insert(key, triples.len());
            }
            triples.push((du, dv, w));
        }
        let n = original_ids.len() as u64;
        Ok(TextImport {
            edges: EdgeList::try_from_edges(n, triples)?,
            original_ids,
            repairs,
        })
    }

    fn parse(s: &str) -> TextImport {
        parse_edge_list_policy(s.as_bytes(), IngestPolicy::Lenient).unwrap()
    }

    #[test]
    fn parses_basic_edges_with_comments() {
        let t = parse("# a comment\n% another\n0 1\n1 2 2.5\n\n2 0\n");
        assert_eq!(t.edges.num_vertices(), 3);
        assert_eq!(t.edges.num_edges(), 3);
        assert_eq!(t.edges.total_weight(), 4.5);
    }

    #[test]
    fn remaps_sparse_ids_densely() {
        let t = parse("1000 42\n42 7\n");
        assert_eq!(t.edges.num_vertices(), 3);
        assert_eq!(t.original_ids, vec![1000, 42, 7]);
        // First edge became (0, 1) after remapping.
        assert_eq!(t.edges.edges()[0].u, 0);
        assert_eq!(t.edges.edges()[0].v, 1);
    }

    #[test]
    fn ids_past_32_bits_are_remapped_and_an_id_past_64_is_refused() {
        // The file's ids are labels: 2^32 and u64::MAX become dense ids.
        let t = parse("4294967296 18446744073709551615\n");
        assert_eq!(t.edges.num_vertices(), 2);
        assert_eq!(t.original_ids, vec![1 << 32, u64::MAX]);
        let r =
            parse_edge_list_policy("0 18446744073709551616\n".as_bytes(), IngestPolicy::Lenient);
        assert!(matches!(r, Err(IngestError::Parse { line: 1, .. })));
    }

    #[test]
    fn rejects_garbage() {
        let r = parse_edge_list_policy("0 x\n".as_bytes(), IngestPolicy::Lenient);
        assert!(r.is_err());
        let r = parse_edge_list_policy("17\n".as_bytes(), IngestPolicy::Lenient);
        assert!(r.is_err());
    }

    #[test]
    fn weight_defaults_to_one() {
        let t = parse("5 6\n");
        assert_eq!(t.edges.edges()[0].w, 1.0);
    }

    #[test]
    fn bad_weights_are_typed_errors_in_every_policy() {
        for policy in [
            IngestPolicy::Lenient,
            IngestPolicy::Strict,
            IngestPolicy::Repair,
        ] {
            for text in ["0 1 nan\n", "0 1 -2.5\n", "0 1 inf\n"] {
                let r = parse_edge_list_policy(io::BufReader::new(text.as_bytes()), policy);
                assert!(
                    matches!(r, Err(IngestError::BadWeight { line: 1, .. })),
                    "{policy:?} must reject {text:?}"
                );
            }
        }
        // Overflow of the running total, not of any single weight:
        // each addend is finite, the sum saturates at line 2.
        let big = "0 1 1e308\n1 2 1e308\n2 3 1e308\n";
        let r = parse_edge_list_policy(io::BufReader::new(big.as_bytes()), IngestPolicy::Lenient);
        assert!(matches!(r, Err(IngestError::BadWeight { line: 2, .. })));
    }

    #[test]
    fn strict_rejects_duplicates_and_self_loops() {
        let dup = parse_edge_list_policy(
            io::BufReader::new("7 8\n8 7 2.0\n".as_bytes()),
            IngestPolicy::Strict,
        );
        assert!(matches!(
            dup,
            Err(IngestError::DuplicateEdge {
                u: 8,
                v: 7,
                line: 2
            })
        ));
        let lp =
            parse_edge_list_policy(io::BufReader::new("3 3\n".as_bytes()), IngestPolicy::Strict);
        assert!(matches!(lp, Err(IngestError::SelfLoop { v: 3, line: 1 })));
    }

    #[test]
    fn streamed_import_matches_in_memory_parse() {
        let dir = std::env::temp_dir().join("louvain-textio-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.txt");
        std::fs::write(
            &path,
            "# sparse ids, duplicates, a self-loop\n1000 42\n42 7 2.5\n7 1000\n1000 42 0.5\n7 7\n",
        )
        .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let in_mem =
            parse_edge_list_policy(io::BufReader::new(file), IngestPolicy::Lenient).unwrap();
        let (el, original_ids) = stream_text_edge_list(&path, EdgeList::new).unwrap();
        assert_eq!(el.edges(), in_mem.edges.edges());
        assert_eq!(el.num_vertices(), in_mem.edges.num_vertices());
        assert_eq!(original_ids, in_mem.original_ids);
    }

    #[test]
    fn streamed_import_reports_weight_errors_with_line_numbers() {
        let dir = std::env::temp_dir().join("louvain-textio-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream-bad.txt");
        std::fs::write(&path, "0 1\n1 2 nan\n").unwrap();
        let r = stream_text_edge_list(&path, EdgeList::new);
        assert!(matches!(r, Err(IngestError::BadWeight { line: 2, .. })));
    }

    #[test]
    fn repair_merges_duplicates_and_drops_self_loops() {
        let t = parse_edge_list_policy(
            io::BufReader::new("0 1\n1 0 2.0\n0 1 0.5\n2 2\n1 2\n".as_bytes()),
            IngestPolicy::Repair,
        )
        .unwrap();
        assert_eq!(t.repairs.duplicates_merged, 2);
        assert_eq!(t.repairs.self_loops_dropped, 1);
        assert_eq!(t.edges.num_edges(), 2);
        assert_eq!(t.edges.total_weight(), 4.5);
        // Lenient keeps everything, as before.
        let lenient = parse("0 1\n1 0 2.0\n0 1 0.5\n2 2\n1 2\n");
        assert_eq!(lenient.edges.num_edges(), 5);
        assert!(!lenient.repairs.any());
    }
}
