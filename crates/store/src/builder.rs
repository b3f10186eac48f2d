//! Streaming slab construction with bounded memory.
//!
//! [`SlabBuilder`] is an [`EdgeSink`]: generators and file parsers emit
//! edges into it one at a time, it buffers at most `chunk_edges` triples
//! in RAM, and [`SlabBuilder::finish`] performs an external merge sort to
//! produce the on-disk CSR. Peak memory is `O(n + chunk_edges)` — the
//! per-vertex arrays (degree counts, offsets, halo) plus one chunk —
//! never `O(m)`.
//!
//! # Bit-identity with the in-memory path
//!
//! The result is **bit-identical** to `Csr::from_edge_list` over the same
//! edge stream. That hinges on reproducing the f64 fold order of the CSR
//! row builder behind it (`louvain_graph::csr::build_rows`):
//!
//! * The row builder sums the weights of one `(src, dst)` left to right
//!   from 0.0 *in raw emission order*, and an edge reaches both of its
//!   rows in that order, so `(a, b)` and `(b, a)` carry the same sum.
//! * This builder canonicalizes at push, **stably** sorts each chunk (so
//!   equal keys keep emission order within a chunk), spills chunks
//!   chronologically, and k-way merges with the run index as tie-break —
//!   so equal keys pop in global emission order and their weights sum in
//!   the same sequence.
//! * Forward arcs `(a, b)` with `a ≤ b` leave the dedup merge already
//!   sorted by `(src, dst)`; reverse arcs `(b, a)` get their own external
//!   sort (keys are unique after dedup), and the final two-stream merge
//!   emits arcs row by row, each row ascending by destination — the
//!   order the row builder leaves them in.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use louvain_graph::ingest::{check_weight, IngestError, IngestPolicy, RepairStats};
use louvain_graph::sink::EdgeSink;
use louvain_graph::{VertexId, Weight};

use crate::err::StoreError;
use crate::layout::{
    align_up, pindex_samples, Fnv1a, SectionDesc, SlabHeader, DEFAULT_INDEX_STRIDE, HEADER_BYTES,
    SECTION_ALIGN, SECTION_COUNT,
};

/// Tuning knobs for [`SlabBuilder`].
#[derive(Debug, Clone)]
pub struct SlabOptions {
    /// Canonical triples buffered before a sorted run is spilled to disk.
    /// Peak builder RSS scales with this (24 bytes per buffered triple).
    pub chunk_edges: usize,
    /// `pindex` sampling stride (vertices per sample).
    pub index_stride: u64,
    /// How duplicate pairs and self-loops are treated.
    pub policy: IngestPolicy,
    /// Where spill runs live; defaults to `std::env::temp_dir()`.
    pub tmp_dir: Option<PathBuf>,
}

impl Default for SlabOptions {
    fn default() -> Self {
        Self {
            chunk_edges: 1 << 20,
            index_stride: DEFAULT_INDEX_STRIDE,
            policy: IngestPolicy::Lenient,
            tmp_dir: None,
        }
    }
}

/// What [`SlabBuilder::finish`] wrote.
#[derive(Debug, Clone, Copy)]
pub struct SlabSummary {
    pub num_vertices: u64,
    /// Deduplicated undirected edges (self-loops count once).
    pub num_edges: u64,
    /// Directed arcs stored (`2·edges − loops`).
    pub num_arcs: u64,
    /// Raw edges accepted by the sink before dedup.
    pub edges_in: u64,
    /// Total slab file size.
    pub file_bytes: u64,
    /// Non-zero only under [`IngestPolicy::Repair`].
    pub repair: RepairStats,
}

static BUILD_ID: AtomicU64 = AtomicU64::new(0);

const RECORD_BYTES: usize = 24;

/// Streaming, bounded-memory slab writer. See the module docs for the
/// external-sort design and the bit-identity argument.
pub struct SlabBuilder {
    n: u64,
    opts: SlabOptions,
    chunk: Vec<(VertexId, VertexId, Weight)>,
    runs: Vec<PathBuf>,
    tmp: Option<PathBuf>,
    edges_in: u64,
    loops_dropped: u64,
}

impl SlabBuilder {
    pub fn new(num_vertices: u64, opts: SlabOptions) -> Self {
        assert!(opts.chunk_edges > 0, "chunk_edges must be positive");
        assert!(opts.index_stride > 0, "index_stride must be positive");
        Self {
            n: num_vertices,
            opts,
            chunk: Vec::new(),
            runs: Vec::new(),
            tmp: None,
            edges_in: 0,
            loops_dropped: 0,
        }
    }

    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Edges accepted so far.
    pub fn edges_in(&self) -> u64 {
        self.edges_in
    }

    fn tmp_dir(&mut self) -> io::Result<PathBuf> {
        if let Some(dir) = &self.tmp {
            return Ok(dir.clone());
        }
        let base = self.opts.tmp_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "louvain-slab-{}-{}",
            std::process::id(),
            BUILD_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        self.tmp = Some(dir.clone());
        Ok(dir)
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        // Stable sort: equal canonical keys keep their emission order
        // within the chunk (see the bit-identity argument above).
        self.chunk.sort_by_key(|x| (x.0, x.1));
        let dir = self.tmp_dir()?;
        let path = dir.join(format!("run-{:06}.tmp", self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for &(a, b, wt) in &self.chunk {
            write_record(&mut w, a, b, wt)?;
        }
        w.flush()?;
        self.runs.push(path);
        self.chunk.clear();
        Ok(())
    }

    /// Dedup-merge all runs, count arc degrees, and split into a forward
    /// stream (already in `(src, dst)` order) plus externally sorted
    /// reverse runs. Returns `(dedup_path, reverse_runs, counts,
    /// num_edges, num_arcs, dup_extra)`.
    #[allow(clippy::type_complexity)]
    fn dedup_pass(
        &mut self,
    ) -> Result<(PathBuf, Vec<PathBuf>, Vec<u64>, u64, u64, u64), StoreError> {
        let dir = self.tmp_dir()?;
        let dedup_path = dir.join("dedup.tmp");
        let mut out = BufWriter::new(File::create(&dedup_path)?);
        let mut counts = vec![0u64; self.n as usize];
        let mut num_edges = 0u64;
        let mut num_arcs = 0u64;
        let mut dup_extra = 0u64;

        let mut rev_chunk: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut rev_runs: Vec<PathBuf> = Vec::new();
        let spill_rev = |chunk: &mut Vec<(VertexId, VertexId, Weight)>,
                         runs: &mut Vec<PathBuf>|
         -> io::Result<()> {
            if chunk.is_empty() {
                return Ok(());
            }
            // Keys are unique after dedup, so an unstable sort is fine.
            chunk.sort_unstable_by_key(|&(s, d, _)| (s, d));
            let path = dir.join(format!("rev-{:06}.tmp", runs.len()));
            let mut w = BufWriter::new(File::create(&path)?);
            for &(s, d, wt) in chunk.iter() {
                write_record(&mut w, s, d, wt)?;
            }
            w.flush()?;
            runs.push(path);
            chunk.clear();
            Ok(())
        };

        let mut merge = KWayMerge::open(&self.runs)?;
        let mut pending: Option<(VertexId, VertexId, Weight, u64)> = None;
        loop {
            let next = merge.next()?;
            match (&mut pending, next) {
                (Some((pa, pb, pw, copies)), Some((a, b, w))) if *pa == a && *pb == b => {
                    if self.opts.policy == IngestPolicy::Strict {
                        return Err(IngestError::DuplicateEdge {
                            u: a,
                            v: b,
                            line: 0,
                        }
                        .into());
                    }
                    *pw += w;
                    *copies += 1;
                }
                (slot, next) => {
                    if let Some((a, b, w, copies)) = slot.take() {
                        write_record(&mut out, a, b, w)?;
                        counts[a as usize] += 1;
                        num_arcs += 1;
                        if a != b {
                            counts[b as usize] += 1;
                            num_arcs += 1;
                            rev_chunk.push((b, a, w));
                            if rev_chunk.len() >= self.opts.chunk_edges {
                                spill_rev(&mut rev_chunk, &mut rev_runs)?;
                            }
                        }
                        num_edges += 1;
                        dup_extra += copies - 1;
                    }
                    match next {
                        Some((a, b, w)) => pending = Some((a, b, w, 1)),
                        None => break,
                    }
                }
            }
        }
        out.flush()?;
        spill_rev(&mut rev_chunk, &mut rev_runs)?;
        Ok((dedup_path, rev_runs, counts, num_edges, num_arcs, dup_extra))
    }

    /// Run the external merge and write the slab to `path`. Consumes the
    /// builder; spill files are removed on exit (including the error
    /// paths, via `Drop`).
    pub fn finish(mut self, path: &Path) -> Result<SlabSummary, StoreError> {
        self.spill()?;
        let (dedup_path, rev_runs, counts, num_edges, num_arcs, dup_extra) = self.dedup_pass()?;

        // Prefix-sum degrees into CSR offsets.
        let n = self.n as usize;
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + counts[v];
        }
        drop(counts);
        debug_assert_eq!(offsets[n], num_arcs);

        // Packed section layout.
        let stride = self.opts.index_stride;
        let samples = pindex_samples(self.n, stride);
        let lens: [u64; SECTION_COUNT] = [
            (self.n + 1) * 8,
            num_arcs * 8,
            num_arcs * 8,
            self.n * 8,
            samples * 8,
        ];
        let mut sections = [SectionDesc::default(); SECTION_COUNT];
        let mut cursor = HEADER_BYTES;
        for (i, s) in sections.iter_mut().enumerate() {
            s.offset = cursor;
            s.len = lens[i];
            cursor = align_up(cursor + lens[i], SECTION_ALIGN);
        }

        let mut out = SectionedWriter::create(path)?;
        out.write_all(&[0u8; HEADER_BYTES as usize])?; // placeholder header

        // Section 0: offsets.
        out.begin(sections[0].offset)?;
        for chunk in offsets.chunks(8192) {
            let bytes: Vec<u8> = chunk.iter().flat_map(|&o| o.to_le_bytes()).collect();
            out.write_section(&bytes)?;
        }
        sections[0].checksum = out.end();

        // Section 1: targets, streamed from the forward/reverse merge.
        // Weights ride along into a temp file (the weights section starts
        // only after the last target byte), and the halo accumulates in
        // emitted-row order — the same order `Csr::weighted_degree` sums.
        let dir = self.tmp_dir()?;
        let weights_path = dir.join("weights.tmp");
        let mut weights_tmp = BufWriter::new(File::create(&weights_path)?);
        // -0.0 is iterator-Sum's identity for floats, so the halo is
        // bit-identical to `Csr::weighted_degree` even for empty rows.
        let mut halo = vec![-0.0f64; n];
        out.begin(sections[1].offset)?;
        {
            let mut fwd = RunReader::open(&dedup_path)?;
            let mut rev = KWayMerge::open(&rev_runs)?;
            let mut fwd_cur = fwd.next()?;
            let mut rev_cur = rev.next()?;
            let mut written = 0u64;
            loop {
                let take_fwd = match (&fwd_cur, &rev_cur) {
                    (Some(f), Some(r)) => (f.0, f.1) < (r.0, r.1),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let (src, dst, w) = if take_fwd {
                    let rec = fwd_cur.take().unwrap();
                    fwd_cur = fwd.next()?;
                    rec
                } else {
                    let rec = rev_cur.take().unwrap();
                    rev_cur = rev.next()?;
                    rec
                };
                out.write_section(&dst.to_le_bytes())?;
                weights_tmp.write_all(&w.to_le_bytes())?;
                halo[src as usize] += w;
                written += 1;
            }
            debug_assert_eq!(written, num_arcs);
        }
        sections[1].checksum = out.end();
        weights_tmp.flush()?;
        drop(weights_tmp);

        // Section 2: weights, copied from the temp file.
        out.begin(sections[2].offset)?;
        {
            let mut src = BufReader::new(File::open(&weights_path)?);
            let mut buf = [0u8; 64 * 1024];
            loop {
                let got = src.read(&mut buf)?;
                if got == 0 {
                    break;
                }
                out.write_section(&buf[..got])?;
            }
        }
        sections[2].checksum = out.end();

        // Section 3: halo (weighted degrees).
        out.begin(sections[3].offset)?;
        for chunk in halo.chunks(8192) {
            let bytes: Vec<u8> = chunk.iter().flat_map(|&h| h.to_le_bytes()).collect();
            out.write_section(&bytes)?;
        }
        sections[3].checksum = out.end();
        drop(halo);

        // Section 4: pindex (sampled offsets).
        out.begin(sections[4].offset)?;
        {
            let bytes: Vec<u8> = (0..samples)
                .flat_map(|i| offsets[(i * stride) as usize].to_le_bytes())
                .collect();
            out.write_section(&bytes)?;
        }
        sections[4].checksum = out.end();

        // Patch the real header in.
        let header = SlabHeader {
            num_vertices: self.n,
            num_arcs,
            num_edges,
            index_stride: stride,
            sections,
        };
        let file_bytes = out.patch_header(&header.encode())?;

        let repair = if self.opts.policy == IngestPolicy::Repair {
            RepairStats {
                duplicates_merged: dup_extra,
                self_loops_dropped: self.loops_dropped,
            }
        } else {
            RepairStats::default()
        };

        Ok(SlabSummary {
            num_vertices: self.n,
            num_edges,
            num_arcs,
            edges_in: self.edges_in,
            file_bytes,
            repair,
        })
    }
}

impl EdgeSink for SlabBuilder {
    fn edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), IngestError> {
        if u >= self.n || v >= self.n {
            return Err(IngestError::OutOfRange {
                u,
                v,
                num_vertices: self.n,
            });
        }
        check_weight(w, 0)?;
        if u == v {
            match self.opts.policy {
                IngestPolicy::Strict => return Err(IngestError::SelfLoop { v, line: 0 }),
                IngestPolicy::Repair => {
                    self.loops_dropped += 1;
                    return Ok(());
                }
                IngestPolicy::Lenient => {}
            }
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.chunk.push((a, b, w));
        self.edges_in += 1;
        if self.chunk.len() >= self.opts.chunk_edges {
            self.spill()?;
        }
        Ok(())
    }
}

impl Drop for SlabBuilder {
    fn drop(&mut self) {
        if let Some(dir) = &self.tmp {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn write_record(w: &mut impl Write, a: u64, b: u64, wt: f64) -> io::Result<()> {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&a.to_le_bytes());
    rec[8..16].copy_from_slice(&b.to_le_bytes());
    rec[16..24].copy_from_slice(&wt.to_le_bytes());
    w.write_all(&rec)
}

/// Sequential reader over one spill run.
struct RunReader {
    inner: BufReader<File>,
}

impl RunReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            inner: BufReader::new(File::open(path)?),
        })
    }

    fn next(&mut self) -> io::Result<Option<(u64, u64, f64)>> {
        let mut rec = [0u8; RECORD_BYTES];
        match self.inner.read_exact(&mut rec) {
            Ok(()) => Ok(Some((
                u64::from_le_bytes(rec[0..8].try_into().unwrap()),
                u64::from_le_bytes(rec[8..16].try_into().unwrap()),
                f64::from_le_bytes(rec[16..24].try_into().unwrap()),
            ))),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// K-way merge of sorted runs, ordered by `(a, b, run_index)`. The run
/// index is the chronological spill order, so records with equal keys
/// pop in global emission order.
struct KWayMerge {
    readers: Vec<RunReader>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
    cur: Vec<Option<(u64, u64, f64)>>,
}

impl KWayMerge {
    fn open(paths: &[PathBuf]) -> io::Result<Self> {
        let mut readers = Vec::with_capacity(paths.len());
        let mut heap = BinaryHeap::with_capacity(paths.len());
        let mut cur = Vec::with_capacity(paths.len());
        for (i, p) in paths.iter().enumerate() {
            let mut r = RunReader::open(p)?;
            let rec = r.next()?;
            if let Some((a, b, _)) = rec {
                heap.push(std::cmp::Reverse((a, b, i)));
            }
            readers.push(r);
            cur.push(rec);
        }
        Ok(Self { readers, heap, cur })
    }

    fn next(&mut self) -> io::Result<Option<(u64, u64, f64)>> {
        let Some(std::cmp::Reverse((_, _, i))) = self.heap.pop() else {
            return Ok(None);
        };
        let rec = self.cur[i].take().expect("heap entry without a record");
        let refill = self.readers[i].next()?;
        if let Some((a, b, _)) = refill {
            self.heap.push(std::cmp::Reverse((a, b, i)));
        }
        self.cur[i] = refill;
        Ok(Some(rec))
    }
}

/// Sequential slab writer: tracks the absolute position, pads to section
/// offsets, and hashes each section as it streams through.
struct SectionedWriter {
    inner: BufWriter<File>,
    pos: u64,
    hash: Fnv1a,
}

impl SectionedWriter {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            inner: BufWriter::new(File::create(path)?),
            pos: 0,
            hash: Fnv1a::default(),
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Pad with zeros up to `offset` and reset the section hash.
    fn begin(&mut self, offset: u64) -> io::Result<()> {
        debug_assert!(offset >= self.pos, "sections must be written in order");
        let pad = (offset - self.pos) as usize;
        self.write_all(&vec![0u8; pad])?;
        self.hash = Fnv1a::default();
        Ok(())
    }

    fn write_section(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.write_all(bytes)
    }

    fn end(&mut self) -> u64 {
        self.hash.finish()
    }

    /// Flush, rewrite the header at offset 0, and return the file length.
    fn patch_header(mut self, header: &[u8]) -> io::Result<u64> {
        let len = self.pos;
        self.inner.flush()?;
        let mut file = self.inner.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(header)?;
        file.sync_all()?;
        Ok(len)
    }
}
