//! `louvain-store`: out-of-core slab storage for distributed Louvain.
//!
//! A *slab* is a versioned, checksummed on-disk CSR (see [`layout`] for
//! the byte-exact format). It decouples graph size from RAM in both
//! directions:
//!
//! * **Writing** — [`SlabBuilder`] is an `EdgeSink`; the streamed
//!   generator paths (`rmat_stream`, `ssca2_stream`, ...) and file
//!   parsers emit edges into it with `O(n + chunk)` peak memory. It
//!   spills them raw and builds the CSR one row block at a time with
//!   the counting sort behind `Csr::from_edge_list`, so the result is
//!   **bit-identical** to it over the same stream.
//! * **Reading** — [`Slab::open`] memory-maps the whole file with
//!   zero-copy section views; [`load_rank`] reads only one rank's byte
//!   ranges (the paper's MPI-I/O pattern), reconstructing the exact
//!   `LocalGraph` that `LocalGraph::scatter` would have produced.

pub mod builder;
pub mod err;
pub mod layout;
mod mmap;
pub mod slab;

pub use builder::{SlabBuilder, SlabOptions, SlabSummary};
pub use err::StoreError;
pub use layout::{
    sniff_kind, FileKind, SectionDesc, SlabHeader, DEFAULT_INDEX_STRIDE, FORMAT_VERSION,
    HEADER_BYTES, MAGIC, MAGIC_SIGNATURE, SECTION_ALIGN, SECTION_NAMES,
};
pub use slab::{load_rank, peek_header, verify, RankSlice, Slab};

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::csr::Csr;
    use louvain_graph::dist::LocalGraph;
    use louvain_graph::edgelist::EdgeList;
    use louvain_graph::gen::{
        lfr, lfr_stream, rmat, rmat_stream, ssca2, ssca2_stream, LfrParams, RmatParams, Ssca2Params,
    };
    use louvain_graph::ingest::{IngestError, IngestPolicy};
    use louvain_graph::partition::VertexPartition;
    use louvain_graph::sink::EdgeSink;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_ID: AtomicU64 = AtomicU64::new(0);

    /// A unique temp path, removed by `TempPath::drop`.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            Self(std::env::temp_dir().join(format!(
                "louvain-store-test-{}-{}-{tag}.slab",
                std::process::id(),
                TEST_ID.fetch_add(1, Ordering::Relaxed)
            )))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn small_opts() -> SlabOptions {
        SlabOptions {
            // Tiny row blocks force many blocks in every test.
            chunk_edges: 64,
            index_stride: 8,
            ..SlabOptions::default()
        }
    }

    fn build_slab(
        n: u64,
        stream: impl FnOnce(&mut SlabBuilder) -> Result<(), IngestError>,
        opts: SlabOptions,
        path: &TempPath,
    ) -> SlabSummary {
        let mut b = SlabBuilder::new(n, opts);
        stream(&mut b).unwrap();
        b.finish(&path.0).unwrap()
    }

    #[test]
    fn rmat_slab_is_bit_identical_to_in_memory_csr() {
        let p = RmatParams::social(10, 8, 42);
        let expected = rmat(p).graph;
        let path = TempPath::new("rmat");
        let summary = build_slab(
            expected.num_vertices() as u64,
            |b| rmat_stream(p, b),
            small_opts(),
            &path,
        );
        let slab = Slab::open(&path.0).unwrap();
        assert_eq!(slab.num_vertices() as usize, expected.num_vertices());
        assert_eq!(slab.num_arcs() as usize, expected.num_arcs());
        assert_eq!(slab.num_edges() as usize, expected.num_edges());
        assert_eq!(summary.num_arcs as usize, expected.num_arcs());
        let roundtrip = slab.to_csr();
        // PartialEq would accept -0.0 == 0.0; compare bit patterns too.
        assert_eq!(roundtrip, expected);
        assert!(roundtrip
            .weights()
            .iter()
            .zip(expected.weights())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn ssca2_slab_round_trips() {
        let p = Ssca2Params::paper(2_000, 5);
        let expected = ssca2(p).graph;
        let path = TempPath::new("ssca2");
        build_slab(
            expected.num_vertices() as u64,
            |b| ssca2_stream(p, b).map(|_| ()),
            small_opts(),
            &path,
        );
        assert_eq!(Slab::open(&path.0).unwrap().to_csr(), expected);
    }

    /// Build the same LFR stream once per `chunk_edges` and assert every
    /// file equals the first, byte for byte.
    fn assert_chunk_sizes_build_identical_files(chunks: &[usize]) {
        let p = LfrParams::small(600, 3);
        let files: Vec<Vec<u8>> = chunks
            .iter()
            .map(|&chunk_edges| {
                let path = TempPath::new(&format!("chunk-{chunk_edges}"));
                let opts = SlabOptions {
                    chunk_edges,
                    ..small_opts()
                };
                build_slab(600, |b| lfr_stream(p, b).map(|_| ()), opts, &path);
                std::fs::read(&path.0).unwrap()
            })
            .collect();
        for (chunk, file) in chunks.iter().zip(&files) {
            assert!(file == &files[0], "chunk_edges {chunk} vs {}", chunks[0]);
        }
    }

    #[test]
    fn single_chunk_and_multi_chunk_builds_are_identical_files() {
        // One block, blocks of 64 raw arcs, and one block per non-empty
        // row — more blocks than one distribution round holds.
        assert_chunk_sizes_build_identical_files(&[1 << 20, 64, 1]);
    }

    #[test]
    fn star_hub_heavier_than_a_block_matches_in_memory_csr() {
        // Hub 0's row alone exceeds `chunk_edges`: a block of its own.
        // Repeats in both orientations make the fold order matter, and a
        // lone -0.0 weight must sum to 0.0 as in `build_rows`.
        let mut el = EdgeList::new(301);
        for k in 1..=300u64 {
            el.push(0, k, 0.1 * k as f64);
        }
        for k in (1..=300u64).step_by(3) {
            el.push(k, 0, 1.0 / k as f64);
        }
        el.push(0, 0, 2.5);
        el.push(7, 8, -0.0);
        let path = TempPath::new("star");
        build_slab(
            301,
            |b| el.edges().iter().try_for_each(|e| b.edge(e.u, e.v, e.w)),
            small_opts(),
            &path,
        );
        let expected = Csr::from_edge_list(el);
        let slab = Slab::open(&path.0).unwrap();
        let bits = |w: &[f64]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(slab.to_csr(), expected);
        assert_eq!(bits(slab.weights()), bits(expected.weights()));
    }

    #[test]
    fn strict_names_the_smaller_duplicate_across_blocks() {
        // chunk_edges 2 puts rows 3 and 8 in different blocks; the later
        // block's duplicate is emitted first.
        let opts = SlabOptions {
            chunk_edges: 2,
            policy: IngestPolicy::Strict,
            ..small_opts()
        };
        let path = TempPath::new("strict-blocks");
        let mut b = SlabBuilder::new(10, opts);
        for (u, v) in [(0, 1), (9, 8), (8, 9), (5, 3), (2, 4), (3, 5)] {
            b.edge(u, v, 1.0).unwrap();
        }
        let err = b.finish(&path.0).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Ingest(IngestError::DuplicateEdge { u: 3, v: 5, .. })
            ),
            "{err}"
        );
        assert!(!path.0.exists(), "a failed build leaves no slab behind");
    }

    #[test]
    fn repair_counts_the_merges_dedup_sum_makes() {
        let p = RmatParams::social(10, 8, 42);
        let mut el = EdgeList::new(1 << 10);
        rmat_stream(p, &mut el).unwrap();
        let path = TempPath::new("repair-rmat");
        let opts = SlabOptions {
            policy: IngestPolicy::Repair,
            ..small_opts()
        };
        let summary = build_slab(1 << 10, |b| rmat_stream(p, b), opts, &path);
        let expected = el.repair();
        assert!(expected.duplicates_merged > 0, "RMAT repeats pairs");
        assert_eq!(summary.repair, expected);
        assert_eq!(summary.num_edges, el.num_edges() as u64);
        assert_eq!(
            Slab::open(&path.0).unwrap().to_csr(),
            Csr::from_edge_list(el)
        );
    }

    #[test]
    fn builder_temp_dir_is_gone_after_finish_and_after_a_strict_error() {
        let dir = std::env::temp_dir().join(format!(
            "louvain-store-test-{}-{}-tmpdir",
            std::process::id(),
            TEST_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SlabOptions {
            tmp_dir: Some(dir.clone()),
            ..small_opts()
        };
        let is_empty = |dir: &PathBuf| std::fs::read_dir(dir).unwrap().next().is_none();

        let path = TempPath::new("tmpdir-ok");
        let p = RmatParams::social(8, 8, 1);
        build_slab(1 << 8, |b| rmat_stream(p, b), opts.clone(), &path);
        assert!(is_empty(&dir), "spill or buckets left after finish");

        let mut b = SlabBuilder::new(
            4,
            SlabOptions {
                policy: IngestPolicy::Strict,
                ..opts
            },
        );
        b.edge(0, 1, 1.0).unwrap();
        b.edge(1, 0, 1.0).unwrap();
        b.finish(&TempPath::new("tmpdir-strict").0).unwrap_err();
        assert!(is_empty(&dir), "spill or buckets left after a Strict error");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn partition_matches_balanced_edges() {
        let p = RmatParams::social(9, 6, 7);
        let g = rmat(p).graph;
        let path = TempPath::new("partition");
        build_slab(
            g.num_vertices() as u64,
            |b| rmat_stream(p, b),
            small_opts(),
            &path,
        );
        let slab = Slab::open(&path.0).unwrap();
        for ranks in [1, 2, 3, 8, 17] {
            assert_eq!(
                slab.partition(ranks),
                VertexPartition::balanced_edges(&g, ranks),
                "p={ranks}"
            );
        }
    }

    #[test]
    fn mapped_local_graphs_match_scatter() {
        let p = LfrParams::small(500, 9);
        let g = lfr(p).graph;
        let path = TempPath::new("scatter");
        build_slab(500, |b| lfr_stream(p, b).map(|_| ()), small_opts(), &path);
        let slab = Slab::open(&path.0).unwrap();
        for ranks in [1, 2, 8] {
            let part = slab.partition(ranks);
            let scattered = LocalGraph::scatter(&g, &part);
            for (rank, expected) in scattered.iter().enumerate() {
                let got = slab.local_graph(&part, rank);
                assert_eq!(
                    got.csr_parts(),
                    expected.csr_parts(),
                    "p={ranks} rank {rank}"
                );
            }
        }
    }

    /// True when `inner`'s memory is a sub-range of `outer`'s.
    fn lies_within<T>(inner: &[T], outer: &[T]) -> bool {
        let (i, o) = (inner.as_ptr_range(), outer.as_ptr_range());
        o.start <= i.start && i.end <= o.end
    }

    #[test]
    fn mapped_pieces_borrow_the_mapping_and_ranged_pieces_own_their_rows() {
        let p = LfrParams::small(300, 4);
        let path = TempPath::new("borrow");
        build_slab(300, |b| lfr_stream(p, b).map(|_| ()), small_opts(), &path);
        let slab = Slab::open(&path.0).unwrap();
        let part = slab.partition(2);
        for rank in 0..2 {
            let mapped = slab.local_graph(&part, rank);
            let (_, dests, weights) = mapped.csr_parts();
            assert!(!dests.is_empty(), "rank {rank}");
            assert!(lies_within(dests, slab.targets()), "rank {rank}");
            assert!(lies_within(weights, slab.weights()), "rank {rank}");

            let ranged = load_rank(&path.0, rank, 2).unwrap().local;
            let (_, dests, weights) = ranged.csr_parts();
            assert!(!lies_within(dests, slab.targets()), "rank {rank}");
            assert!(!lies_within(weights, slab.weights()), "rank {rank}");
        }
    }

    #[test]
    fn ranged_loads_match_scatter_and_read_less() {
        let p = RmatParams::social(9, 8, 3);
        let g = rmat(p).graph;
        let path = TempPath::new("ranged");
        build_slab(
            g.num_vertices() as u64,
            |b| rmat_stream(p, b),
            small_opts(),
            &path,
        );
        let slab = Slab::open(&path.0).unwrap();
        for ranks in [1, 2, 8] {
            let part = slab.partition(ranks);
            let scattered = LocalGraph::scatter(&g, &part);
            for (rank, expected) in scattered.iter().enumerate() {
                let slice = load_rank(&path.0, rank, ranks).unwrap();
                assert_eq!(slice.local.partition(), &part, "p={ranks} rank {rank}");
                assert_eq!(
                    slice.local.csr_parts(),
                    expected.csr_parts(),
                    "p={ranks} rank {rank}"
                );
                if ranks > 1 {
                    assert!(
                        slice.bytes_read < slab.mapped_bytes(),
                        "p={ranks} rank {rank}: ranged load read the whole file"
                    );
                }
            }
        }
    }

    /// What a ranged load of `rank` must read and nothing more: the
    /// header, the `pindex` section, one `offsets` window per partition
    /// boundary, the rank's own offsets, and 12 B per local arc (a `u32`
    /// target and an `f64` weight).
    fn ranged_load_bytes(slab: &Slab, rank: usize, p: usize) -> u64 {
        let (n, stride) = (slab.num_vertices(), slab.index_stride());
        let pindex = slab.pindex();
        let windows: u64 = (1..p as u64)
            .map(|r| {
                let target = slab.num_arcs() * r / p as u64;
                let i = pindex.partition_point(|&s| s < target) as u64;
                (i * stride).min(n) - i.saturating_sub(1) * stride + 1
            })
            .sum();
        let range = slab.partition(p).range(rank);
        let local_arcs = slab.offsets()[range.end as usize] - slab.offsets()[range.start as usize];
        HEADER_BYTES
            + pindex.len() as u64 * 8
            + windows * 8
            + (range.end - range.start + 1) * 8
            + local_arcs * 12
    }

    #[test]
    fn ranged_load_reads_exactly_its_windows_and_extents() {
        let rmat_p = RmatParams::social(10, 8, 3);
        let lfr_p = LfrParams::small(700, 6);
        let rmat_path = TempPath::new("bytes-rmat");
        let lfr_path = TempPath::new("bytes-lfr");
        build_slab(
            1 << 10,
            |b| rmat_stream(rmat_p, b),
            small_opts(),
            &rmat_path,
        );
        build_slab(
            700,
            |b| lfr_stream(lfr_p, b).map(|_| ()),
            small_opts(),
            &lfr_path,
        );
        for path in [&rmat_path, &lfr_path] {
            let slab = Slab::open(&path.0).unwrap();
            for p in [1, 2, 3, 8] {
                for rank in 0..p {
                    assert_eq!(
                        load_rank(&path.0, rank, p).unwrap().bytes_read,
                        ranged_load_bytes(&slab, rank, p),
                        "{} p={p} rank {rank}",
                        path.0.display()
                    );
                }
            }
        }
    }

    /// Ranged loads whose arc extents span several read chunks: every
    /// rank's rows equal the mapped piece's bit for bit, it reads exactly
    /// its windows and extents, and a bad 4-byte `targets` or 8-byte
    /// `weights` word at the first word of a later chunk of its section,
    /// or at the extent's last word, is refused with a message naming the
    /// rank and the arc.
    #[test]
    fn ranged_loads_across_read_chunks_match_the_mapping_and_name_bad_arcs() {
        let chunk_words = slab::READ_CHUNK_BYTES as u64 / 8;
        let p = RmatParams::social(12, 8, 11);
        let path = TempPath::new("chunks");
        let bad_path = TempPath::new("chunks-bad");
        for stride in [8, DEFAULT_INDEX_STRIDE] {
            let opts = SlabOptions {
                index_stride: stride,
                ..small_opts()
            };
            build_slab(1 << 12, |b| rmat_stream(p, b), opts, &path);
            let slab = Slab::open(&path.0).unwrap();
            assert!(
                slab.num_arcs() > 4 * chunk_words,
                "{} arcs",
                slab.num_arcs()
            );
            let pristine = std::fs::read(&path.0).unwrap();
            let header = SlabHeader::decode(&pristine).unwrap();
            for ranks in [1, 2, 3, 8] {
                let part = slab.partition(ranks);
                for rank in 0..ranks {
                    let case = format!("stride {stride} p={ranks} rank {rank}");
                    let slice = load_rank(&path.0, rank, ranks).unwrap();
                    let mapped = slab.local_graph(&part, rank);
                    let ((o, d, w), (mo, md, mw)) = (slice.local.csr_parts(), mapped.csr_parts());
                    assert_eq!((o, d), (mo, md), "{case}");
                    assert!(w
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(mw.iter().map(|x| x.to_bits())));
                    assert_eq!(
                        slice.bytes_read,
                        ranged_load_bytes(&slab, rank, ranks),
                        "{case}"
                    );

                    let range = part.range(rank);
                    let lo = slab.offsets()[range.start as usize];
                    let hi = slab.offsets()[range.end as usize];
                    let n = slab.num_vertices();
                    let plants: [(usize, Vec<u8>, String); 4] = [
                        (
                            layout::SEC_TARGETS,
                            (n as u32).to_le_bytes().into(),
                            format!("is {n}, not below the {n} vertices"),
                        ),
                        (
                            layout::SEC_TARGETS,
                            u32::MAX.to_le_bytes().into(),
                            format!("is {}, not below the {n} vertices", u32::MAX),
                        ),
                        (
                            layout::SEC_WEIGHTS,
                            f64::NAN.to_le_bytes().into(),
                            "is NaN, not a finite weight ≥ 0".into(),
                        ),
                        (
                            layout::SEC_WEIGHTS,
                            (-1.0f64).to_le_bytes().into(),
                            "is -1, not a finite weight ≥ 0".into(),
                        ),
                    ];
                    for (section, word, tail) in plants {
                        let later = lo + (slab::READ_CHUNK_BYTES / word.len()) as u64;
                        let later_chunk = (later < hi).then_some(later);
                        for arc in later_chunk.into_iter().chain([hi - 1]) {
                            let mut bytes = pristine.clone();
                            let width = word.len() as u64;
                            let at = (header.sections[section].offset + width * arc) as usize;
                            bytes[at..at + word.len()].copy_from_slice(&word);
                            std::fs::write(&bad_path.0, &bytes).unwrap();
                            let name = SECTION_NAMES[section];
                            let want = format!("{name} word of rank {rank} at arc {arc} {tail}");
                            match load_rank(&bad_path.0, rank, ranks) {
                                Err(StoreError::Corrupt { what }) => {
                                    assert_eq!(what, want, "{case}")
                                }
                                other => panic!("{case}: {name}[{arc}] planted, got {other:?}"),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph_slab() {
        let path = TempPath::new("empty");
        let summary = build_slab(5, |_| Ok(()), small_opts(), &path);
        assert_eq!(summary.num_edges, 0);
        let slab = Slab::open(&path.0).unwrap();
        assert_eq!(slab.num_arcs(), 0);
        assert_eq!(slab.offsets(), &[0; 6]);
        assert_eq!(slab.partition(2), VertexPartition::balanced_vertices(5, 2));
        let g = slab.to_csr();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        let slice = load_rank(&path.0, 1, 2).unwrap();
        assert_eq!(slice.local.num_local_arcs(), 0);
    }

    #[test]
    fn self_loops_and_duplicates_follow_lenient_semantics() {
        // Same stream the EdgeList / `Csr::from_edge_list` path would see.
        let mut el = EdgeList::new(4);
        let edges = [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 3.0), (1, 3, 0.5)];
        let path = TempPath::new("lenient");
        let summary = build_slab(
            4,
            |b| {
                for &(u, v, w) in &edges {
                    b.edge(u, v, w)?;
                }
                Ok(())
            },
            small_opts(),
            &path,
        );
        for &(u, v, w) in &edges {
            el.push(u, v, w);
        }
        let expected = Csr::from_edge_list(el);
        assert_eq!(Slab::open(&path.0).unwrap().to_csr(), expected);
        assert_eq!(summary.num_edges, 3);
        assert_eq!(summary.edges_in, 4);
        assert!(!summary.repair.any());
    }

    #[test]
    fn strict_policy_rejects_loops_and_duplicates() {
        let opts = SlabOptions {
            policy: IngestPolicy::Strict,
            ..small_opts()
        };
        let mut b = SlabBuilder::new(4, opts.clone());
        assert!(matches!(
            b.edge(2, 2, 1.0),
            Err(IngestError::SelfLoop { v: 2, .. })
        ));
        drop(b);

        let path = TempPath::new("strict-dup");
        let mut b = SlabBuilder::new(4, opts);
        b.edge(0, 1, 1.0).unwrap();
        b.edge(1, 0, 1.0).unwrap(); // same undirected pair
        let err = b.finish(&path.0).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Ingest(IngestError::DuplicateEdge { u: 0, v: 1, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn repair_policy_merges_and_drops_with_stats() {
        let path = TempPath::new("repair");
        let summary = build_slab(
            4,
            |b| {
                b.edge(0, 1, 1.0)?;
                b.edge(1, 0, 2.0)?;
                b.edge(0, 1, 0.5)?;
                b.edge(2, 2, 9.0)?;
                b.edge(1, 3, 1.0)?;
                Ok(())
            },
            SlabOptions {
                policy: IngestPolicy::Repair,
                ..small_opts()
            },
            &path,
        );
        assert_eq!(summary.repair.duplicates_merged, 2);
        assert_eq!(summary.repair.self_loops_dropped, 1);
        assert_eq!(summary.num_edges, 2);
        let g = Slab::open(&path.0).unwrap().to_csr();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.self_loop(2), 0.0);
        let w01: f64 = g.neighbors(0).map(|(_, w)| w).sum();
        assert_eq!(w01, 3.5);
    }

    #[test]
    fn out_of_range_and_bad_weights_are_typed_errors() {
        let mut b = SlabBuilder::new(3, small_opts());
        assert!(matches!(
            b.edge(0, 3, 1.0),
            Err(IngestError::OutOfRange { .. })
        ));
        assert!(matches!(
            b.edge(0, 1, f64::NAN),
            Err(IngestError::BadWeight { .. })
        ));
    }

    // --- corruption coverage: every defect is its own typed error ---

    fn valid_slab_bytes(path: &TempPath) -> Vec<u8> {
        let p = LfrParams::small(120, 1);
        build_slab(120, |b| lfr_stream(p, b).map(|_| ()), small_opts(), path);
        std::fs::read(&path.0).unwrap()
    }

    #[test]
    fn truncated_file_is_truncated_error() {
        let path = TempPath::new("trunc");
        let bytes = valid_slab_bytes(&path);
        std::fs::write(&path.0, &bytes[..100]).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::Truncated { what: "header", .. })
        ));
        std::fs::write(&path.0, &bytes[..bytes.len() - 16]).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            load_rank(&path.0, 0, 2),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_is_bad_magic_error() {
        let path = TempPath::new("magic");
        let mut bytes = valid_slab_bytes(&path);
        bytes[..8].copy_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        std::fs::write(&path.0, &bytes).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            load_rank(&path.0, 0, 2),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn a_version_1_slab_is_bad_version_on_every_reader() {
        let path = TempPath::new("version");
        let pristine = valid_slab_bytes(&path);
        // Version 2 held 8-byte targets, version 1 a `halo` section too.
        for version in [b'1', b'2'] {
            let mut bytes = pristine.clone();
            bytes[0] = version;
            std::fs::write(&path.0, &bytes).unwrap();
            let named = |e: StoreError| {
                let says = format!("version {:?}", version as char);
                matches!(e, StoreError::BadVersion { found } if found == version)
                    && e.to_string().contains(&says)
            };
            assert!(named(Slab::open(&path.0).unwrap_err()));
            assert!(named(load_rank(&path.0, 0, 2).unwrap_err()));
            assert!(named(peek_header(&path.0).unwrap_err()));
            assert!(named(verify(&path.0).unwrap_err()));
        }
    }

    #[test]
    fn a_builder_past_the_vertex_limit_refuses_its_edges_without_sizing_by_n() {
        let path = TempPath::new("too-many");
        largest_alloc_since_last_call();
        let mut b = SlabBuilder::new(1 << 32, small_opts());
        let too_many = |e: &IngestError| matches!(e, IngestError::TooManyVertices { .. });
        assert!(too_many(&b.edge(0, 1, 1.0).unwrap_err()));
        match b.finish(&path.0) {
            Err(StoreError::Ingest(e)) => assert!(too_many(&e), "{e}"),
            other => panic!("finish gave {other:?}"),
        }
        assert!(largest_alloc_since_last_call() < 1 << 20);
        assert!(!path.0.exists());
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let path = TempPath::new("checksum");
        let mut bytes = valid_slab_bytes(&path);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path.0, &bytes).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_pindex_fails_ranged_load_too() {
        let path = TempPath::new("pindex-checksum");
        let mut bytes = valid_slab_bytes(&path);
        let header = layout::SlabHeader::decode(&bytes).unwrap();
        let pindex = &header.sections[layout::SEC_PINDEX];
        bytes[(pindex.offset + pindex.len / 2) as usize] ^= 0x01;
        std::fs::write(&path.0, &bytes).unwrap();
        assert!(matches!(
            load_rank(&path.0, 0, 2),
            Err(StoreError::ChecksumMismatch {
                section: "pindex",
                ..
            })
        ));
    }

    /// Run `verify` and `Slab::open` on the same bytes, assert they agree
    /// on `Ok` / the error variant, and return what `verify` said.
    fn verify_agrees_with_open(path: &TempPath, bytes: &[u8]) -> Result<SlabHeader, StoreError> {
        std::fs::write(&path.0, bytes).unwrap();
        let verified = verify(&path.0);
        let opened = Slab::open(&path.0);
        let kind = |r: Result<(), &StoreError>| r.map_err(std::mem::discriminant);
        assert_eq!(
            kind(verified.as_ref().map(drop)),
            kind(opened.as_ref().map(drop)),
            "verify {verified:?} vs open {:?}",
            opened.as_ref().map(drop)
        );
        verified
    }

    #[test]
    fn verify_accepts_a_good_slab_and_returns_its_header() {
        let path = TempPath::new("verify-ok");
        let bytes = valid_slab_bytes(&path);
        let header = verify_agrees_with_open(&path, &bytes).unwrap();
        assert_eq!(header, peek_header(&path.0).unwrap());
    }

    #[test]
    fn verify_names_the_section_whose_bit_flipped() {
        let started = std::time::Instant::now();
        let path = TempPath::new("verify-flip");
        let bytes = valid_slab_bytes(&path);
        let header = SlabHeader::decode(&bytes).unwrap();
        for (name, s) in SECTION_NAMES.iter().zip(&header.sections) {
            let mut bad = bytes.clone();
            bad[(s.offset + s.len / 2) as usize] ^= 0x10;
            match verify_agrees_with_open(&path, &bad) {
                Err(StoreError::ChecksumMismatch { section, .. }) => assert_eq!(section, *name),
                other => panic!("flip in {name}: {other:?}"),
            }
        }
        assert!(started.elapsed().as_secs_f64() < 5.0);
    }

    #[test]
    fn verify_reports_truncation_at_every_section_boundary() {
        let path = TempPath::new("verify-trunc");
        let bytes = valid_slab_bytes(&path);
        let header = SlabHeader::decode(&bytes).unwrap();
        let mut cuts = vec![0, HEADER_BYTES as usize - 1];
        for s in &header.sections {
            cuts.push(s.offset as usize);
            cuts.push((s.offset + s.len) as usize - 8);
        }
        for cut in cuts {
            assert!(
                matches!(
                    verify_agrees_with_open(&path, &bytes[..cut]),
                    Err(StoreError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn verify_matches_open_on_header_defects() {
        let path = TempPath::new("verify-header");
        let bytes = valid_slab_bytes(&path);
        // Bad magic, wrong version, a misaligned and an over-long section.
        let edits: [(usize, u64); 4] = [
            (0, 0x1122_3344_5566_7788),
            (0, layout::MAGIC_SIGNATURE | b'1' as u64),
            (0x30 + 24, header_word(&bytes, 0x30 + 24) + 8),
            (0x30 + 8, header_word(&bytes, 0x30 + 8) + 8),
        ];
        for (pos, word) in edits {
            let mut bad = bytes.clone();
            bad[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
            assert!(
                verify_agrees_with_open(&path, &bad).is_err(),
                "edit at {pos:#x}"
            );
        }
    }

    fn header_word(bytes: &[u8], pos: usize) -> u64 {
        u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
    }

    #[test]
    fn misaligned_section_is_misaligned_error() {
        let path = TempPath::new("misaligned");
        let mut bytes = valid_slab_bytes(&path);
        // Section table starts at 0x30; nudge section 1's offset by 8.
        let off_pos = 0x30 + 24; // section 1's offset field
        let old = u64::from_le_bytes(bytes[off_pos..off_pos + 8].try_into().unwrap());
        bytes[off_pos..off_pos + 8].copy_from_slice(&(old + 8).to_le_bytes());
        std::fs::write(&path.0, &bytes).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::MisalignedSection {
                section: "targets",
                ..
            })
        ));
    }

    #[test]
    fn inconsistent_section_length_is_corrupt() {
        let path = TempPath::new("badlen");
        let mut bytes = valid_slab_bytes(&path);
        let len_pos = 0x30 + 8; // section 0's len field
        let old = u64::from_le_bytes(bytes[len_pos..len_pos + 8].try_into().unwrap());
        bytes[len_pos..len_pos + 8].copy_from_slice(&(old + 8).to_le_bytes());
        std::fs::write(&path.0, &bytes).unwrap();
        assert!(matches!(
            Slab::open(&path.0),
            Err(StoreError::Corrupt { .. })
        ));
    }

    // ---- hostile input: mutation fuzzing of the header and table ----

    /// Counts, per thread, the largest single heap request made since the
    /// last [`largest_alloc_since_last_call`]: the fuzz test's bound on
    /// what a corrupt length field can make a reader allocate.
    struct LargestAlloc;

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn note_alloc(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    }

    fn largest_alloc_since_last_call() -> usize {
        LARGEST.with(|c| c.replace(0))
    }

    // SAFETY: every method forwards to `System` unchanged; the only
    // addition is a write to a const-initialised thread-local `Cell`,
    // which neither allocates nor unwinds.
    unsafe impl std::alloc::GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note_alloc(layout.size());
            std::alloc::System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note_alloc(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note_alloc(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: LargestAlloc = LargestAlloc;

    /// What the four readers made of one mutated file.
    struct Verdicts {
        peek: Result<(), StoreError>,
        open: Result<(), StoreError>,
        verify: Result<(), StoreError>,
        /// `load_rank` for every rank of p = 3, the first error if any.
        ranged: Result<(), StoreError>,
    }

    /// Feed `bytes` to every reader. Fails the test, naming `case`, if a
    /// reader panics or any single allocation exceeds the file length.
    fn read_hostile(path: &TempPath, bytes: &[u8], case: &str) -> Verdicts {
        std::fs::write(&path.0, bytes).unwrap();
        let limit = bytes.len();
        let call = |what: &str, f: &dyn Fn() -> Result<(), StoreError>| {
            largest_alloc_since_last_call();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .unwrap_or_else(|_| panic!("{case}: {what} panicked"));
            let largest = largest_alloc_since_last_call();
            assert!(
                largest <= limit,
                "{case}: {what} allocated {largest} bytes at once from a {limit}-byte file"
            );
            r
        };
        Verdicts {
            peek: call("peek_header", &|| peek_header(&path.0).map(drop)),
            open: call("Slab::open", &|| {
                // A slab `open` accepts is one every rank can be cut from.
                Slab::open(&path.0).map(|slab| {
                    for p in [1, 2] {
                        let part = slab.partition(p);
                        (0..p).for_each(|r| drop(slab.local_graph(&part, r)));
                    }
                })
            }),
            verify: call("verify", &|| verify(&path.0).map(drop)),
            ranged: call("load_rank", &|| {
                (0..3).try_for_each(|r| load_rank(&path.0, r, 3).map(drop))
            }),
        }
    }

    /// Header words (by index) whose every change the header's own
    /// cross-checks catch: magic, vertex and arc counts, section count,
    /// each section's offset and length, and the zero padding. Edge
    /// count and stride are checked only for consistency, and the big
    /// sections' checksums only by the readers that hash them.
    fn always_refused(word: usize) -> bool {
        matches!(word, 0 | 1 | 2 | 5)
            || (6..18).contains(&word) && (word - 6) % 3 != 2
            || word >= 18
    }

    /// Check one mutant: nothing panics or over-allocates (in
    /// `read_hostile`), `open` and `verify` agree, and a change to a
    /// checked word, or to any checksum, is refused by every reader that
    /// checks it.
    fn check_mutant(path: &TempPath, pristine: &[u8], bytes: &[u8], case: &str) {
        let v = read_hostile(path, bytes, case);
        let kind = |r: &Result<(), StoreError>| r.as_ref().map_err(std::mem::discriminant).copied();
        assert_eq!(
            kind(&v.open),
            kind(&v.verify),
            "{case}: open {:?} vs verify {:?}",
            v.open,
            v.verify
        );
        let changed = (0..24).filter(|&w| bytes[w * 8..w * 8 + 8] != pristine[w * 8..w * 8 + 8]);
        for w in changed {
            if always_refused(w) {
                for (what, r) in [("peek", &v.peek), ("open", &v.open), ("ranged", &v.ranged)] {
                    assert!(r.is_err(), "{case}: word {w} changed, {what} accepted it");
                }
            }
            if (6..18).contains(&w) && (w - 6) % 3 == 2 {
                assert!(
                    v.open.is_err(),
                    "{case}: checksum word {w} changed, open accepted it"
                );
                if w == 6 + 3 * layout::SEC_PINDEX + 2 {
                    assert!(
                        v.ranged.is_err(),
                        "{case}: pindex checksum changed, load_rank accepted it"
                    );
                }
            }
        }
    }

    /// Seeded byte flips and overwrites of the 192-byte header and its
    /// section table, and truncations at every section boundary, on a
    /// slab whose stride divides it into many samples and on one whose
    /// stride exceeds its vertex count. Every reader returns a typed
    /// error or a value, never panics, and never allocates more than the
    /// file holds.
    #[test]
    fn hostile_slabs_are_errors_never_panics() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let path = TempPath::new("hostile");
        let mut rng = SmallRng::seed_from_u64(24);
        let mut cases = 0usize;
        for stride in [8, DEFAULT_INDEX_STRIDE] {
            let p = LfrParams::small(120, 1);
            let opts = SlabOptions {
                index_stride: stride,
                ..small_opts()
            };
            build_slab(120, |b| lfr_stream(p, b).map(|_| ()), opts, &path);
            let pristine = std::fs::read(&path.0).unwrap();
            let v = read_hostile(&path, &pristine, "pristine");
            assert!(v.peek.is_ok() && v.open.is_ok() && v.verify.is_ok() && v.ranged.is_ok());
            let hdr = HEADER_BYTES as usize;

            // Every single-bit flip of the header.
            for bit in 0..hdr * 8 {
                let mut bytes = pristine.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                check_mutant(
                    &path,
                    &pristine,
                    &bytes,
                    &format!("stride {stride}, bit {bit}"),
                );
                cases += 1;
            }
            // Whole-word overwrites with values that overflow, alias or
            // point past the end, at every header word.
            let len = pristine.len() as u64;
            let nasty = [
                0,
                1,
                7,
                len,
                len + 64,
                u64::MAX,
                u64::MAX / 8,
                1 << 61,
                (1 << 61) - 1,
                1 << 63,
            ];
            for w in 0..hdr / 8 {
                for &value in &nasty {
                    let mut bytes = pristine.clone();
                    bytes[w * 8..w * 8 + 8].copy_from_slice(&value.to_le_bytes());
                    if bytes != pristine {
                        check_mutant(
                            &path,
                            &pristine,
                            &bytes,
                            &format!("stride {stride}, word {w} = {value:#x}"),
                        );
                        cases += 1;
                    }
                }
            }
            // Seeded overwrites of one to four random header bytes.
            for i in 0..1500 {
                let mut bytes = pristine.clone();
                for _ in 0..rng.random_range(1..5usize) {
                    bytes[rng.random_range(0..hdr)] = rng.random::<u64>() as u8;
                }
                if bytes != pristine {
                    check_mutant(
                        &path,
                        &pristine,
                        &bytes,
                        &format!("stride {stride}, random overwrite {i}"),
                    );
                    cases += 1;
                }
            }
            // Seeded overwrites of one `offsets` word: only the ranged
            // load reads that section unchecked, and must still refuse or
            // load without a panic.
            let offsets = SlabHeader::decode(&pristine).unwrap().sections[layout::SEC_OFFSETS];
            for i in 0..300 {
                let mut bytes = pristine.clone();
                let at =
                    offsets.offset as usize + 8 * rng.random_range(0..offsets.len as usize / 8);
                let word = match i % 3 {
                    0 => rng.random::<u64>(),
                    1 => header_word(&bytes, at).wrapping_add(rng.random_range(1..64u64)),
                    _ => header_word(&bytes, at).wrapping_sub(rng.random_range(1..64u64)),
                };
                bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
                read_hostile(
                    &path,
                    &bytes,
                    &format!("stride {stride}, offsets overwrite {i}"),
                );
                cases += 1;
            }
            // A vertex count of 2^32 or more: every reader refuses it by
            // type from the header, before sizing anything by it.
            for value in [1u64 << 32, (1 << 32) + 120, u64::MAX] {
                let mut bytes = pristine.clone();
                bytes[8..16].copy_from_slice(&value.to_le_bytes());
                let case = format!("stride {stride}, num_vertices = {value:#x}");
                let v = read_hostile(&path, &bytes, &case);
                for (what, r) in [
                    ("peek", v.peek),
                    ("open", v.open),
                    ("verify", v.verify),
                    ("ranged", v.ranged),
                ] {
                    assert!(
                        matches!(
                            r,
                            Err(StoreError::Ingest(IngestError::TooManyVertices { .. }))
                        ),
                        "{case}: {what} gave {r:?}"
                    );
                }
                cases += 1;
            }
            // Each 4-byte `targets` word in turn (on the first slab; the
            // first, middle and last on the second) set past the vertex
            // count: the ranged load reads that section unchecked too,
            // and must refuse it as corrupt, naming the arc.
            let header = SlabHeader::decode(&pristine).unwrap();
            let targets = header.sections[layout::SEC_TARGETS];
            let n = header.num_vertices as u32;
            let arcs = targets.len as usize / 4;
            let walked: Vec<usize> = if stride == 8 {
                (0..arcs).collect()
            } else {
                vec![0, arcs / 2, arcs - 1]
            };
            for &arc in &walked {
                for word in [n, n + 1, u32::MAX] {
                    if word != n && arc % 16 != 0 && arc + 1 != arcs {
                        continue;
                    }
                    let mut bytes = pristine.clone();
                    let at = targets.offset as usize + 4 * arc;
                    bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
                    let case = format!("stride {stride}, targets[{arc}] = {word:#x}");
                    let v = read_hostile(&path, &bytes, &case);
                    let named = match &v.ranged {
                        Err(StoreError::Corrupt { what }) => what.contains(&format!("arc {arc} ")),
                        _ => false,
                    };
                    assert!(named, "{case}: load_rank gave {:?}", v.ranged);
                    cases += 1;
                }
            }
            // One `weights` word overwritten to NaN, −1 or +∞ at the
            // first, middle and last arc: unchecked on the ranged path as
            // well, and refused as corrupt naming the rank and the arc.
            let weights = header.sections[layout::SEC_WEIGHTS];
            for arc in [0, arcs / 2, arcs - 1] {
                for w in [f64::NAN, -1.0, f64::INFINITY] {
                    let mut bytes = pristine.clone();
                    let at = weights.offset as usize + 8 * arc;
                    bytes[at..at + 8].copy_from_slice(&w.to_bits().to_le_bytes());
                    let case = format!("stride {stride}, weights[{arc}] = {w}");
                    let v = read_hostile(&path, &bytes, &case);
                    let named = match &v.ranged {
                        Err(StoreError::Corrupt { what }) => {
                            what.contains("rank ") && what.contains(&format!("arc {arc} "))
                        }
                        _ => false,
                    };
                    assert!(named, "{case}: load_rank gave {:?}", v.ranged);
                    cases += 1;
                }
                // −0.0, a subnormal and the largest finite weight are
                // weights: only the checksummed readers refuse the change.
                for w in [-0.0, f64::MIN_POSITIVE / 2.0, f64::MAX] {
                    let mut bytes = pristine.clone();
                    let at = weights.offset as usize + 8 * arc;
                    bytes[at..at + 8].copy_from_slice(&w.to_bits().to_le_bytes());
                    let case = format!("stride {stride}, weights[{arc}] = {w:e}");
                    let v = read_hostile(&path, &bytes, &case);
                    assert!(v.ranged.is_ok(), "{case}: load_rank gave {:?}", v.ranged);
                    cases += 1;
                }
            }
            // The same words, and `offsets` words out of order, with the
            // section's checksum re-stamped: the mapped reader refuses
            // them by their words, naming a bad target's or weight's arc.
            let offsets = header.sections[layout::SEC_OFFSETS];
            let last_offset = offsets.len as usize / 8 - 1;
            let mut restamped = vec![];
            for arc in [0, arcs / 2, arcs - 1] {
                let at = targets.offset as usize + 4 * arc;
                restamped.push((layout::SEC_TARGETS, at, n.to_le_bytes().to_vec(), arc));
                for w in [f64::NAN, -1.0, f64::INFINITY] {
                    let at = weights.offset as usize + 8 * arc;
                    let word = w.to_bits().to_le_bytes().to_vec();
                    restamped.push((layout::SEC_WEIGHTS, at, word, arc));
                }
            }
            for (word, value) in [
                (0, 1),
                (last_offset / 2, 0),
                (last_offset, arcs as u64 - 1),
                (last_offset, arcs as u64 + 1),
            ] {
                let at = offsets.offset as usize + 8 * word;
                restamped.push((
                    layout::SEC_OFFSETS,
                    at,
                    u64::to_le_bytes(value).to_vec(),
                    word,
                ));
            }
            for (section, at, word, index) in restamped {
                let mut bytes = pristine.clone();
                bytes[at..at + word.len()].copy_from_slice(&word);
                let s = header.sections[section];
                let sum =
                    layout::fnv1a_words(&bytes[s.offset as usize..(s.offset + s.len) as usize]);
                let stamp = 8 * (6 + 3 * section + 2);
                bytes[stamp..stamp + 8].copy_from_slice(&sum.to_le_bytes());
                let case = format!(
                    "stride {stride}, {} word {index} re-stamped",
                    SECTION_NAMES[section]
                );
                let v = read_hostile(&path, &bytes, &case);
                let named = match &v.open {
                    Err(StoreError::Corrupt { what }) if section == layout::SEC_OFFSETS => {
                        what.starts_with("offsets")
                    }
                    Err(StoreError::Corrupt { what }) => what.contains(&format!(" {index} is")),
                    _ => false,
                };
                assert!(named, "{case}: open gave {:?}", v.open);
                cases += 1;
            }
            // Truncation at, and a word either side of, every section
            // boundary and inside the header.
            let mut cuts = vec![0, 7, 8, hdr - 8, hdr - 1, hdr];
            for s in &header.sections {
                let (start, end) = (s.offset as usize, (s.offset + s.len) as usize);
                cuts.extend([start - 8, start, start + 8, end - 8, end - 1]);
            }
            for cut in cuts.into_iter().filter(|&c| c < pristine.len()) {
                let case = format!("stride {stride}, cut at {cut}");
                let v = read_hostile(&path, &pristine[..cut], &case);
                for (what, r) in [
                    ("peek", v.peek),
                    ("open", v.open),
                    ("verify", v.verify),
                    ("ranged", v.ranged),
                ] {
                    assert!(
                        matches!(r, Err(StoreError::Truncated { .. })),
                        "{case}: {what} gave {r:?}"
                    );
                }
                cases += 1;
            }
        }
        assert!(cases > 6000, "{cases} cases");
    }
}
