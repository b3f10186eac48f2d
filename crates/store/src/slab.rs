//! Reading slabs: whole-file mmap views and per-rank byte-range loads.
//!
//! Two load paths, mirroring the paper's MPI-I/O usage:
//!
//! * [`Slab::open`] maps the entire file read-only and exposes zero-copy
//!   `u64`/`u32`/`f64` views of every section. All four checksums, and
//!   the words a rank walks its rows by, are validated up front.
//! * [`load_rank`] reads only the byte ranges one rank needs: the header,
//!   the small `pindex` section (checksummed), one window of `offsets`
//!   per partition boundary, the rank's own window of `offsets`, and its
//!   `[lo, hi)` extent of `targets` and `weights` — nothing Θ(n). The
//!   big sections are *not* checksummed on this path — a rank reads a
//!   strict subset of their bytes — which is the documented trade-off
//!   for O(local) I/O.
//! * [`verify`] streams every section through the same chunked reader
//!   to check all four checksums, for callers that load by range but
//!   must not run on a corrupt body (the server verifies each fresh run).
//!
//! Both paths produce `LocalGraph`s bit-identical to
//! `LocalGraph::scatter` over the in-memory CSR. A mapped piece borrows
//! its rows from the mapping; a ranged piece owns what it read.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

use louvain_graph::csr::Csr;
use louvain_graph::dist::LocalGraph;
use louvain_graph::partition::VertexPartition;
use louvain_graph::VertexId;

use crate::err::StoreError;
use crate::layout::{
    Fnv1a, SlabHeader, HEADER_BYTES, SECTION_NAMES, SEC_OFFSETS, SEC_PINDEX, SEC_TARGETS,
    SEC_WEIGHTS,
};
use crate::mmap::Mapping;

// The zero-copy section views reinterpret little-endian file bytes
// in place.
#[cfg(target_endian = "big")]
compile_error!("the slab store requires a little-endian target");

/// A fully mapped, fully validated slab file.
#[derive(Debug)]
pub struct Slab {
    map: Mapping,
    header: SlabHeader,
}

impl Slab {
    /// Map `path` and validate the header, section table, **all**
    /// section checksums, and the words a rank walks its rows by, which
    /// are refused as [`load_rank`] refuses them in its ranges.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let map = Mapping::of(&file)?;
        let header = SlabHeader::decode(map.bytes())?;
        header.validate_extents(map.len() as u64)?;
        // Each word is checked in the pass that hashes it (0.1–0.6 ms per
        // RMAT-17 open; a pass of its own measured 3 ms): an offset
        // against the one before, and the largest `targets` half-word and
        // `weights` word (−0.0's as 0), which is +∞'s or above exactly
        // when a weight is NaN, infinite or negative.
        let (mut monotone, mut last, mut top_target, mut top_weight) = (true, 0, 0, 0);
        for (section, s) in header.sections.iter().enumerate() {
            let bytes = &map.bytes()[s.offset as usize..(s.offset + s.len) as usize];
            let mut hash = Fnv1a::default();
            match section {
                SEC_OFFSETS => hash.update_words(bytes, |o| {
                    (monotone, last) = (monotone & (o >= last), o);
                }),
                SEC_TARGETS => hash.update_words(bytes, |w| {
                    top_target = top_target.max(w >> 32).max(w & u64::from(u32::MAX));
                }),
                SEC_WEIGHTS => hash.update_words(bytes, |w| {
                    top_weight = top_weight.max(if w == 1 << 63 { 0 } else { w });
                }),
                _ => hash.update(bytes),
            }
            let found = hash.finish();
            if found != s.checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: SECTION_NAMES[section],
                    expect: s.checksum,
                    found,
                });
            }
        }
        let slab = Self { map, header };
        let (n, targets, weights) = (slab.num_vertices(), slab.targets(), slab.weights());
        // An odd arc count leaves the last target out of the words.
        let top_target = top_target.max(targets.last().map_or(0, |&t| t.into()));
        let what = if !monotone || slab.offsets()[0] != 0 || last != slab.num_arcs() {
            "offsets are not a monotone run from 0 to the arc count".to_string()
        } else if top_target >= n {
            let arc = targets
                .iter()
                .position(|&t| u64::from(t) >= n)
                .expect("a target ≥ n");
            format!(
                "targets word at arc {arc} is {}, not below the {n} vertices",
                targets[arc]
            )
        } else if top_weight >= f64::INFINITY.to_bits() {
            let arc = weights
                .iter()
                .position(|w| !(*w >= 0.0 && w.is_finite()))
                .expect("a weight not finite ≥ 0");
            format!(
                "weights word at arc {arc} is {}, not a finite weight ≥ 0",
                weights[arc]
            )
        } else {
            return Ok(slab);
        };
        Err(StoreError::Corrupt { what })
    }

    pub fn num_vertices(&self) -> u64 {
        self.header.num_vertices
    }

    pub fn num_arcs(&self) -> u64 {
        self.header.num_arcs
    }

    pub fn num_edges(&self) -> u64 {
        self.header.num_edges
    }

    pub fn index_stride(&self) -> u64 {
        self.header.index_stride
    }

    /// Total bytes backed by the mapping (the whole file).
    pub fn mapped_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// A section as a slice of `T`, one of `u64`, `u32` or `f64`: every
    /// bit pattern is a value, and the section is aligned for it.
    fn view<T>(&self, section: usize) -> &[T] {
        let s = &self.header.sections[section];
        let bytes = &self.map.bytes()[s.offset as usize..(s.offset + s.len) as usize];
        let width = std::mem::size_of::<T>();
        debug_assert_eq!(bytes.as_ptr() as usize % width, 0, "misaligned view");
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / width) }
    }

    /// CSR row offsets (`n + 1` entries), zero-copy.
    pub fn offsets(&self) -> &[u64] {
        self.view(SEC_OFFSETS)
    }

    /// Arc destinations (global ids), zero-copy.
    pub fn targets(&self) -> &[u32] {
        self.view(SEC_TARGETS)
    }

    /// Arc weights, zero-copy.
    pub fn weights(&self) -> &[f64] {
        self.view(SEC_WEIGHTS)
    }

    /// Sampled offsets (`offsets[i * stride]`), zero-copy.
    pub fn pindex(&self) -> &[u64] {
        self.view(SEC_PINDEX)
    }

    /// Copy the slab into an in-memory [`Csr`].
    pub fn to_csr(&self) -> Csr {
        Csr::from_raw_parts(
            self.offsets().iter().map(|&o| o as usize).collect(),
            self.targets().to_vec(),
            self.weights().to_vec(),
        )
    }

    /// Edge-balanced partition boundaries: the rule
    /// `VertexPartition::balanced_edges` applies to the in-memory CSR,
    /// applied to the mapped offsets.
    pub fn partition(&self, p: usize) -> VertexPartition {
        VertexPartition::balanced_offsets(self.offsets(), p)
    }

    /// Build one rank's piece from the mapped sections — bit-identical
    /// to `LocalGraph::scatter(&self.to_csr(), part)[rank]`, without the
    /// full-graph copy. The rows borrow the mapping; only the rebased
    /// offsets are new.
    pub fn local_graph(&self, part: &VertexPartition, rank: usize) -> LocalGraph<'_> {
        assert_eq!(part.num_vertices(), self.num_vertices());
        let range = part.range(rank);
        let offsets = self.offsets();
        let lo = offsets[range.start as usize] as usize;
        let hi = offsets[range.end as usize] as usize;
        let local_offsets: Vec<usize> = offsets[range.start as usize..=range.end as usize]
            .iter()
            .map(|&o| o as usize - lo)
            .collect();
        LocalGraph::from_csr_parts(
            part.clone(),
            rank,
            local_offsets,
            &self.targets()[lo..hi],
            &self.weights()[lo..hi],
        )
    }
}

/// Read and validate only the header: magic, version, geometry, and the
/// section table against the file length — without mapping the file or
/// touching any section bytes. This is what `run --ranged` and `info`
/// use to report a slab's shape cheaply; checksums are *not* verified.
pub fn peek_header(path: &Path) -> Result<SlabHeader, StoreError> {
    read_header(&mut File::open(path)?)
}

/// Bytes one read of [`stream`] moves: enough to amortise the syscall,
/// small enough to stay in cache while it is decoded.
pub(crate) const READ_CHUNK_BYTES: usize = 64 << 10;

/// Read the `len` bytes at `offset` in order through one buffer, of
/// [`READ_CHUNK_BYTES`] or `len` if smaller (the header check bounds it
/// by the file length), and hand each chunk to `each`.
fn stream(
    file: &mut File,
    offset: u64,
    len: u64,
    what: &'static str,
    mut each: impl FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut buf = vec![0u8; len.min(READ_CHUNK_BYTES as u64) as usize];
    file.seek(SeekFrom::Start(offset))?;
    let mut left = len;
    while left > 0 {
        let chunk = &mut buf[..left.min(READ_CHUNK_BYTES as u64) as usize];
        read_exact_or_truncated(file, chunk, what)?;
        each(chunk)?;
        left -= chunk.len() as u64;
    }
    Ok(())
}

/// The little-endian `u32` at the start of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

/// The little-endian `u64` at the start of `b`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Stream one whole section, hashing it on the way, and fail with
/// `ChecksumMismatch` if the hash is not the one the header records.
fn stream_checked(
    file: &mut File,
    header: &SlabHeader,
    section: usize,
    mut each: impl FnMut(&[u8]),
) -> Result<(), StoreError> {
    let (s, name) = (&header.sections[section], SECTION_NAMES[section]);
    let mut hash = Fnv1a::default();
    stream(file, s.offset, s.len, name, |chunk| {
        hash.update(chunk);
        each(chunk);
        Ok(())
    })?;
    let found = hash.finish();
    if found != s.checksum {
        return Err(StoreError::ChecksumMismatch {
            section: name,
            expect: s.checksum,
            found,
        });
    }
    Ok(())
}

/// Check the header, section table and all four section checksums, as
/// [`Slab::open`] does, by streaming each section instead of mapping
/// the file (not the words `open` checks: a ranged load checks those it
/// reads). Fails with the same `ChecksumMismatch` /
/// `Truncated` error `Slab::open` would.
pub fn verify(path: &Path) -> Result<SlabHeader, StoreError> {
    let mut file = File::open(path)?;
    let header = read_header(&mut file)?;
    for section in 0..SECTION_NAMES.len() {
        stream_checked(&mut file, &header, section, |_| ())?;
    }
    Ok(header)
}

/// Decode the header at the start of `file` and check the section
/// table against the file's length.
fn read_header(file: &mut File) -> Result<SlabHeader, StoreError> {
    let file_len = file.metadata()?.len();
    if file_len < HEADER_BYTES {
        return Err(StoreError::Truncated {
            what: "header",
            need: HEADER_BYTES,
            have: file_len,
        });
    }
    let mut head = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut head)?;
    let header = SlabHeader::decode(&head)?;
    header.validate_extents(file_len)?;
    Ok(header)
}

/// One rank's worth of a slab, loaded through byte-range reads.
#[derive(Debug)]
pub struct RankSlice {
    /// This rank's CSR piece (global destination ids), with the full
    /// ownership table — exactly what `LocalGraph::scatter` hands out.
    pub local: LocalGraph<'static>,
    /// Bytes actually read from the file for this rank.
    pub bytes_read: u64,
}

/// Byte-range loader used by ranked runs: each rank calls this with its
/// own `(rank, p)` and reads only the extents it owns (plus the small
/// `pindex` section). Partition boundaries come from a windowed binary
/// search over `pindex`, so no rank ever reads the full `offsets`
/// section. Each word is decoded straight into the vector it ends in.
pub fn load_rank(path: &Path, rank: usize, p: usize) -> Result<RankSlice, StoreError> {
    assert!(p > 0 && rank < p, "rank {rank} out of range for p={p}");
    let mut file = File::open(path)?;
    let header = read_header(&mut file)?;
    let mut bytes_read = HEADER_BYTES;
    let n = header.num_vertices;
    let stride = header.index_stride;

    // The small section is read whole and checksummed even on this path.
    let mut pindex = Vec::with_capacity(header.sections[SEC_PINDEX].len as usize / 8);
    stream_checked(&mut file, &header, SEC_PINDEX, |c| {
        pindex.extend(c.chunks_exact(8).map(le_u64))
    })?;
    bytes_read += header.sections[SEC_PINDEX].len;

    // Partition boundaries via windowed binary search: pindex narrows
    // each target to one stride of `offsets`, which is then read from
    // disk. All ranks compute the same table (static knowledge), by the
    // rule `VertexPartition::balanced_offsets` applies to whole offsets.
    let mut read_offsets = |first: u64, count: u64| {
        bytes_read += count * 8;
        let (span, keep) = (first..first + count, |o: &[u8]| (le_u64(o), false));
        read_words::<8, _>(&mut file, &header, SEC_OFFSETS, span, keep, |_, _| {
            unreachable!("no offsets word is flagged")
        })
    };
    let part = if header.num_arcs == 0 {
        VertexPartition::balanced_vertices(n, p)
    } else {
        let mut starts: Vec<VertexId> = Vec::with_capacity(p + 1);
        starts.push(0);
        for r in 1..p as u64 {
            let target = header.num_arcs * r / p as u64;
            // First sample >= target bounds the answer's window.
            let i = pindex.partition_point(|&s| s < target) as u64;
            let win_first = i.saturating_sub(1) * stride;
            let win_last = (i * stride).min(n); // inclusive
            let window = read_offsets(win_first, win_last - win_first + 1)?;
            starts.push(win_first + window.partition_point(|&o| o < target) as u64);
        }
        starts.push(n);
        VertexPartition::from_starts(starts)
    };

    // This rank's offset window, rebased to local.
    let range = part.range(rank);
    let window = read_offsets(range.start, range.end - range.start + 1)?;
    let lo = window[0];
    let hi = *window.last().unwrap();
    // `offsets` is not checksummed on this path: a corrupt window is an
    // error here, not a wrapped length below.
    if window.windows(2).any(|w| w[0] > w[1]) || hi > header.num_arcs {
        return Err(StoreError::Corrupt {
            what: format!("offsets of rank {rank} are not a monotone window of the arcs"),
        });
    }
    // Same-sized elements: the rebase reuses the window's allocation.
    let local_offsets: Vec<usize> = window.into_iter().map(|o| (o - lo) as usize).collect();

    // The [lo, hi) extents of targets and weights, not checksummed on
    // this path either: an id past the vertex count is refused before
    // any owner lookup, and so is a NaN, infinite or negative weight,
    // by 32-bit compares (x86-64's baseline vectorises no 64-bit one): a
    // weight is finite and ≥ 0 exactly when its high half is below +∞'s
    // or the whole word is −0.0's.
    let n32 = n as u32;
    let target = |b: &[u8]| (le_u32(b), le_u32(b) >= n32);
    let dests = read_words::<4, _>(&mut file, &header, SEC_TARGETS, lo..hi, target, |arc, d| {
        format!("targets word of rank {rank} at arc {arc} is {d}, not below the {n} vertices")
    })?;
    let weight = |b: &[u8]| {
        let (low, high) = (le_u32(b), le_u32(&b[4..]));
        let bad = (high >= 0x7FF0_0000) & ((high != 0x8000_0000) | (low != 0));
        (f64::from_bits(le_u64(b)), bad)
    };
    let weights = read_words::<8, _>(&mut file, &header, SEC_WEIGHTS, lo..hi, weight, |arc, w| {
        format!("weights word of rank {rank} at arc {arc} is {w}, not a finite weight ≥ 0")
    })?;
    bytes_read += (hi - lo) * (4 + 8);

    let local = LocalGraph::from_csr_parts(part, rank, local_offsets, dests, weights);
    Ok(RankSlice { local, bytes_read })
}

/// Stream the `span` of one section's `W`-byte words through [`stream`],
/// decoding each chunk straight into the returned vector. `decode` also
/// flags a bad word: the first is refused as corrupt, with the message
/// `refuse` makes of its index and value.
fn read_words<const W: usize, T: Copy>(
    file: &mut File,
    header: &SlabHeader,
    section: usize,
    span: Range<u64>,
    decode: impl Fn(&[u8]) -> (T, bool),
    refuse: impl Fn(u64, T) -> String,
) -> Result<Vec<T>, StoreError> {
    let at = header.sections[section].offset + span.start * W as u64;
    let len = (span.end - span.start) * W as u64;
    let mut out = Vec::with_capacity((span.end - span.start) as usize);
    stream(file, at, len, SECTION_NAMES[section], |chunk| {
        let start = out.len();
        let words = chunk.chunks_exact(W);
        out.extend(words.clone().map(|w| decode(w).0));
        // A pass of its own over the cached chunk: folded into the decode,
        // the test kept it from compiling to a plain copy, and stopping at
        // the first hit measured slower than this branch-free loop, which
        // did not vectorise over `[u8; W]` arrays.
        let mut any = 0u32;
        for w in words.clone() {
            any |= decode(w).1 as u32;
        }
        if any == 0 {
            return Ok(());
        }
        let i = words.clone().position(|w| decode(w).1).expect("a bad word");
        let (arc, value) = (span.start + (start + i) as u64, out[start + i]);
        Err(StoreError::Corrupt {
            what: refuse(arc, value),
        })
    })?;
    Ok(out)
}

fn read_exact_or_truncated(
    file: &mut File,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), StoreError> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                what,
                need: buf.len() as u64,
                have: 0,
            }
        } else {
            StoreError::Io(e)
        }
    })
}
