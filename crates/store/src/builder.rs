//! Streaming slab construction with bounded memory.
//!
//! [`SlabBuilder`] is an [`EdgeSink`]: generators and file parsers emit
//! edges into it one at a time. It appends each raw `(u, v, w)` to one
//! spill file and counts the raw arcs of every row (an edge in both of
//! its rows, a loop once). [`SlabBuilder::finish`] then builds the CSR by
//! counting sort, one block of rows at a time:
//!
//! 1. cut `0..n` into consecutive row blocks of at most `chunk_edges` raw
//!    arcs — a heavier single row is a block of its own;
//! 2. distribute the spill, in emission order, into one bucket file per
//!    block — a record goes to the block of each of its two rows — with
//!    at most 64 buckets open per pass over the spill;
//! 3. build each block's rows from its bucket with
//!    `louvain_graph::csr::build_rows`;
//! 4. stream the rows into the `targets` / `weights` sections and the
//!    row offsets into theirs.
//!
//! Peak memory is `O(n + chunk_edges)` — the per-vertex arrays (raw
//! degrees, offsets) plus one block — never `O(m)`. With 2^32 vertices or
//! more it sizes nothing, and refuses every edge and `finish`.
//!
//! # Bit-identity with the in-memory path
//!
//! The result is **bit-identical** to `Csr::from_edge_list` over the same
//! edge stream because the same row builder makes it. `build_rows` sums
//! the weights of one `(src, dst)` left to right in the order its source
//! yields them. A block's source replays its bucket, in emission order,
//! as `(a, b, w)` when `a` is in the block and `(b, a, w)` when `a != b`
//! and `b` is: the arcs `Csr::from_edge_list` gives those rows, in the
//! same order.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use louvain_graph::csr::build_rows;
use louvain_graph::ingest::{
    check_vertex_count, check_weight, IngestError, IngestPolicy, RepairStats,
};
use louvain_graph::sink::EdgeSink;
use louvain_graph::{VertexId, Weight};

use crate::err::StoreError;
use crate::layout::{
    align_up, fnv1a_words, pindex_samples, Fnv1a, SlabHeader, DEFAULT_INDEX_STRIDE, HEADER_BYTES,
    SECTION_ALIGN,
};

/// Tuning knobs for [`SlabBuilder`].
#[derive(Debug, Clone)]
pub struct SlabOptions {
    /// Raw arcs per row block (a row with more is a block of its own).
    /// A block is built in RAM, so the builder peaks at about
    /// 40 B × `chunk_edges` plus `O(n)` for the per-vertex arrays.
    pub chunk_edges: usize,
    /// `pindex` sampling stride (vertices per sample).
    pub index_stride: u64,
    /// How duplicate pairs and self-loops are treated.
    pub policy: IngestPolicy,
    /// Where the spill and bucket files live; defaults to
    /// `std::env::temp_dir()`.
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

/// Bucket files written at once while distributing: blocks past this many
/// take another pass over the spill, so the builder's open files stay
/// bounded however small `chunk_edges` is.
const MAX_OPEN_BUCKETS: usize = 64;

/// Write buffer per open bucket: 8× `BufWriter`'s default takes a fifth
/// off the distribution pass, and 64 of them hold 4 MiB.
const BUCKET_BUFFER: usize = 1 << 16;

/// Streaming, bounded-memory slab writer. See the module docs for the
/// row-block design and the bit-identity argument.
pub struct SlabBuilder {
    n: u64,
    opts: SlabOptions,
    /// Raw arcs per row: an edge counts in both rows, a loop once.
    degrees: Vec<u64>,
    spill: Option<BufWriter<File>>,
    tmp: Option<PathBuf>,
    edges_in: u64,
    loops_dropped: u64,
}

impl SlabBuilder {
    pub fn new(num_vertices: u64, opts: SlabOptions) -> Self {
        assert!(opts.chunk_edges > 0, "chunk_edges must be positive");
        assert!(opts.index_stride > 0, "index_stride must be positive");
        // Too many vertices are refused by `edge` and `finish`.
        let fits = check_vertex_count(num_vertices).is_ok();
        Self {
            n: num_vertices,
            opts,
            degrees: vec![0; if fits { num_vertices as usize } else { 0 }],
            spill: None,
            tmp: None,
            edges_in: 0,
            loops_dropped: 0,
        }
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

    fn spill(&mut self) -> io::Result<&mut BufWriter<File>> {
        if self.spill.is_none() {
            let path = self.tmp_dir()?.join("spill.tmp");
            self.spill = Some(BufWriter::new(File::create(path)?));
        }
        Ok(self.spill.as_mut().expect("spill opened above"))
    }

    /// Flush the spill (creating it empty if no edge came) and copy each
    /// record, in emission order, into the bucket of every block holding
    /// one of its rows. Returns the bucket paths, block by block.
    fn distribute(&mut self, blocks: &[Range<usize>]) -> io::Result<Vec<PathBuf>> {
        self.spill()?.flush()?;
        self.spill = None;
        let dir = self.tmp_dir()?;
        let spill = dir.join("spill.tmp");
        let buckets: Vec<PathBuf> = (0..blocks.len())
            .map(|b| dir.join(format!("bucket-{b:06}.tmp")))
            .collect();
        let block_of = |row: u64| blocks.partition_point(|r| r.end as u64 <= row);
        for round in (0..blocks.len()).step_by(MAX_OPEN_BUCKETS) {
            let open = round..(round + MAX_OPEN_BUCKETS).min(blocks.len());
            let mut out = buckets[open.clone()]
                .iter()
                .map(|p| File::create(p).map(|f| BufWriter::with_capacity(BUCKET_BUFFER, f)))
                .collect::<io::Result<Vec<_>>>()?;
            for_each_record(&spill, |u, v, w| {
                let (bu, bv) = (block_of(u), block_of(v));
                if open.contains(&bu) {
                    write_record(&mut out[bu - round], u, v, w)?;
                }
                if bv != bu && open.contains(&bv) {
                    write_record(&mut out[bv - round], u, v, w)?;
                }
                Ok(())
            })?;
            for mut w in out {
                w.flush()?;
            }
        }
        std::fs::remove_file(&spill)?;
        Ok(buckets)
    }

    /// Build the slab at `path` block by block. Consumes the builder;
    /// spill and bucket files are removed on exit (including the error
    /// paths, via `Drop`), and so is a slab left half-written by an error.
    pub fn finish(mut self, path: &Path) -> Result<SlabSummary, StoreError> {
        check_vertex_count(self.n)?;
        let blocks = row_blocks(&self.degrees, self.opts.chunk_edges as u64);
        let buckets = self.distribute(&blocks)?;
        let mut out = SectionedWriter::create(path)?;
        let written = self.write(&mut out, &blocks, &buckets);
        if written.is_err() {
            let _ = std::fs::remove_file(path);
        }
        written
    }

    fn write(
        &mut self,
        out: &mut SectionedWriter,
        blocks: &[Range<usize>],
        buckets: &[PathBuf],
    ) -> Result<SlabSummary, StoreError> {
        let n = self.n as usize;
        let mut offsets = vec![0u64; n + 1];
        let mut loops = 0u64;

        // Targets stream straight into their section, whose place depends
        // only on n; the weights section starts after the last target, so
        // weights go through a temp file, and the offsets are patched in
        // at the end.
        let weights_path = self.tmp_dir()?.join("weights.tmp");
        let mut weights_tmp = BufWriter::new(File::create(&weights_path)?);
        let targets_at = align_up(HEADER_BYTES + (self.n + 1) * 8, SECTION_ALIGN);
        out.begin(targets_at)?;
        let mut arcs = 0u64;
        for (rows, bucket) in blocks.iter().zip(buckets) {
            let records = std::fs::read(bucket)?;
            std::fs::remove_file(bucket)?;
            let (first, last) = (rows.start as VertexId, rows.end as VertexId);
            let in_block = |x: VertexId| first <= x && x < last;
            let block_arcs = || {
                records.chunks_exact(RECORD_BYTES).flat_map(|rec| {
                    let (a, b, w) = decode_record(rec);
                    let fwd = in_block(a).then_some((a, b, w));
                    let back = (a != b && in_block(b)).then_some((b, a, w));
                    fwd.into_iter().chain(back)
                })
            };
            let (row_at, built) = build_rows(first, rows.len(), block_arcs);
            if self.opts.policy == IngestPolicy::Strict {
                let short_row = (0..rows.len())
                    .find(|&i| (row_at[i + 1] - row_at[i]) as u64 != self.degrees[rows.start + i]);
                if let Some(i) = short_row {
                    return Err(first_duplicate(first + i as VertexId, block_arcs()).into());
                }
            }
            drop(records);
            for (i, v) in rows.clone().enumerate() {
                let row = &built[row_at[i]..row_at[i + 1]];
                offsets[v] = arcs + row_at[i] as u64;
                loops += row.iter().any(|&(d, _)| d == v as u32) as u64;
            }
            for piece in built.chunks(8192) {
                let dsts: Vec<u8> = piece.iter().flat_map(|&(d, _)| d.to_le_bytes()).collect();
                let ws: Vec<u8> = piece.iter().flat_map(|&(_, w)| w.to_le_bytes()).collect();
                out.write_section(&dsts)?;
                weights_tmp.write_all(&ws)?;
            }
            arcs += built.len() as u64;
        }
        offsets[n] = arcs;
        let num_edges = (arcs - loops) / 2 + loops;

        // Packed section layout.
        let stride = self.opts.index_stride;
        let mut header = SlabHeader {
            num_vertices: self.n,
            num_arcs: arcs,
            num_edges,
            index_stride: stride,
            sections: Default::default(),
        };
        let lens = header.expected_section_lens()?;
        let sections = &mut header.sections;
        let mut cursor = HEADER_BYTES;
        for (s, len) in sections.iter_mut().zip(lens) {
            s.offset = cursor;
            s.len = len;
            cursor = align_up(cursor + len, SECTION_ALIGN);
        }
        assert_eq!(sections[1].offset, targets_at, "targets written off layout");
        sections[1].checksum = out.end();

        // Section 2: weights, copied from the temp file.
        weights_tmp.flush()?;
        drop(weights_tmp);
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

        // Section 3: pindex (sampled offsets).
        out.begin(sections[3].offset)?;
        {
            let bytes: Vec<u8> = (0..pindex_samples(self.n, stride))
                .flat_map(|i| offsets[(i * stride) as usize].to_le_bytes())
                .collect();
            out.write_section(&bytes)?;
        }
        sections[3].checksum = out.end();

        // Section 0: offsets, written in place with the real header.
        let offset_bytes: Vec<u8> = offsets.iter().flat_map(|&o| o.to_le_bytes()).collect();
        drop(offsets);
        sections[0].checksum = fnv1a_words(&offset_bytes);
        let offsets_at = sections[0].offset;
        let file_bytes = out.patch(&[(offsets_at, &offset_bytes), (0, &header.encode())])?;

        let repair = if self.opts.policy == IngestPolicy::Repair {
            RepairStats {
                duplicates_merged: self.edges_in - num_edges,
                self_loops_dropped: self.loops_dropped,
            }
        } else {
            RepairStats::default()
        };

        Ok(SlabSummary {
            num_vertices: self.n,
            num_edges,
            num_arcs: arcs,
            edges_in: self.edges_in,
            file_bytes,
            repair,
        })
    }
}

impl EdgeSink for SlabBuilder {
    fn edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), IngestError> {
        check_vertex_count(self.n)?;
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
        write_record(self.spill()?, u, v, w)?;
        self.degrees[u as usize] += 1;
        if u != v {
            self.degrees[v as usize] += 1;
        }
        self.edges_in += 1;
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

/// Cut `0..degrees.len()` into consecutive row blocks of at most `chunk`
/// raw arcs; a heavier single row is a block of its own.
fn row_blocks(degrees: &[u64], chunk: u64) -> Vec<Range<usize>> {
    let mut blocks = Vec::new();
    let (mut first, mut load) = (0, 0);
    for (row, &d) in degrees.iter().enumerate() {
        if load > 0 && load + d > chunk {
            blocks.push(first..row);
            (first, load) = (row, 0);
        }
        load += d;
    }
    blocks.push(first..degrees.len());
    blocks
}

/// Strict's error for row `u`, the first row whose raw arcs fold into
/// fewer: its smallest repeated destination `v`. Every earlier row is
/// duplicate-free, so `v > u` and `(u, v)` is the smallest canonical
/// duplicate pair.
fn first_duplicate(
    u: VertexId,
    arcs: impl Iterator<Item = (VertexId, VertexId, Weight)>,
) -> IngestError {
    let mut dests: Vec<VertexId> = arcs.filter(|a| a.0 == u).map(|a| a.1).collect();
    dests.sort_unstable();
    let v = dests
        .windows(2)
        .find(|p| p[0] == p[1])
        .expect("a row that folds shorter repeats a destination")[0];
    IngestError::DuplicateEdge { u, v, line: 0 }
}

fn write_record(w: &mut impl Write, a: u64, b: u64, wt: f64) -> io::Result<()> {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&a.to_le_bytes());
    rec[8..16].copy_from_slice(&b.to_le_bytes());
    rec[16..24].copy_from_slice(&wt.to_le_bytes());
    w.write_all(&rec)
}

fn decode_record(rec: &[u8]) -> (u64, u64, f64) {
    let word = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8-byte field"));
    (word(0), word(8), f64::from_bits(word(16)))
}

/// Call `f` on every record of a spill or bucket file, in file order.
fn for_each_record(
    path: &Path,
    mut f: impl FnMut(u64, u64, f64) -> io::Result<()>,
) -> io::Result<()> {
    let mut src = BufReader::with_capacity(1 << 16, File::open(path)?);
    let mut rec = [0u8; RECORD_BYTES];
    loop {
        match src.read_exact(&mut rec) {
            Ok(()) => {
                let (a, b, w) = decode_record(&rec);
                f(a, b, w)?;
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
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

    /// Flush, write each `(offset, bytes)` over what the padding left
    /// there, sync, and return the file length.
    fn patch(&mut self, patches: &[(u64, &[u8])]) -> io::Result<u64> {
        self.inner.flush()?;
        let file = self.inner.get_mut();
        for &(at, bytes) in patches {
            file.seek(SeekFrom::Start(at))?;
            file.write_all(bytes)?;
        }
        file.sync_all()?;
        Ok(self.pos)
    }
}
