//! Byte-exact slab layout: header, section table, alignment, checksums.
//!
//! A slab file is a fixed 192-byte header followed by four sections, each
//! aligned to [`SECTION_ALIGN`] bytes and individually checksummed:
//!
//! | # | section   | contents                                   | bytes        |
//! |---|-----------|--------------------------------------------|--------------|
//! | 0 | `offsets` | CSR row offsets, `u64`                     | `(n+1) * 8`  |
//! | 1 | `targets` | arc destinations (global ids), `u32`       | `arcs * 4`   |
//! | 2 | `weights` | arc weights, `f64`                         | `arcs * 8`   |
//! | 3 | `pindex`  | `offsets` sampled every `index_stride`     | `samples * 8`|
//!
//! All integers and floats are little-endian. The header decode refuses
//! 2^32 vertices or more, which 4-byte targets cannot name. The header is
//!
//! ```text
//! 0x00  magic            u64   signature + version byte (low byte)
//! 0x08  num_vertices     u64
//! 0x10  num_arcs         u64   directed arcs (2·edges − loops)
//! 0x18  num_edges        u64   undirected edges (loops count once)
//! 0x20  index_stride     u64   pindex sampling stride
//! 0x28  section_count    u64   always 4
//! 0x30  4 × (offset u64, len u64, checksum u64)   section table
//! 0x90  zero padding to 192 bytes
//! ```
//!
//! The `pindex` section lets a rank locate edge-balanced partition boundaries
//! with a windowed binary search instead of reading the whole `offsets`
//! section (see `slab::load_rank`).

use louvain_graph::ingest::check_vertex_count;

use crate::err::StoreError;

/// File magic: 7-byte signature `LVSLABC` plus the version byte `'3'`.
pub const MAGIC: u64 = 0x4C56_534C_4142_4333;
/// Signature part of the magic (version byte masked off).
pub const MAGIC_SIGNATURE: u64 = MAGIC & !0xFF;
/// Current format version byte (the low byte of [`MAGIC`]).
pub const FORMAT_VERSION: u8 = (MAGIC & 0xFF) as u8;

/// Signature (version byte masked off) of the retired `LVGRBPH1` binary
/// edge list. Nothing reads that format; [`sniff_kind`] names it so the
/// caller learns what to do instead of reading "bad magic".
const RETIRED_EDGE_LIST_SIGNATURE: u64 = 0x4C56_4752_4250_4800;

/// What a graph file holds, by its first eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Slab,
    /// Not a slab (or too short to hold a magic): a text edge list, or
    /// nothing this workspace reads — the text parser reports which.
    Text,
}

/// Sniff the magic of `path`. A slab of another version still sniffs as
/// a slab, so its reader refuses the version by name; the retired
/// binary edge list is refused here, by name.
pub fn sniff_kind(path: &std::path::Path) -> Result<FileKind, StoreError> {
    use std::io::Read;
    let mut head = [0u8; 8];
    if std::fs::File::open(path)?.read_exact(&mut head).is_err() {
        return Ok(FileKind::Text);
    }
    match u64::from_le_bytes(head) & !0xFF {
        MAGIC_SIGNATURE => Ok(FileKind::Slab),
        RETIRED_EDGE_LIST_SIGNATURE => Err(StoreError::RetiredFormat),
        _ => Ok(FileKind::Text),
    }
}
/// Every section offset is a multiple of this (and of the page-aligned
/// mmap base), so zero-copy `u32`/`u64`/`f64` views are always aligned.
pub const SECTION_ALIGN: u64 = 64;
/// Fixed header size — itself a multiple of [`SECTION_ALIGN`].
pub const HEADER_BYTES: u64 = 192;
/// Number of sections in format version 3.
pub const SECTION_COUNT: usize = 4;
/// Default `pindex` sampling stride (vertices per sample).
pub const DEFAULT_INDEX_STRIDE: u64 = 4096;

/// Section names, in file order (also the section-table order).
pub const SECTION_NAMES: [&str; SECTION_COUNT] = ["offsets", "targets", "weights", "pindex"];

pub const SEC_OFFSETS: usize = 0;
pub const SEC_TARGETS: usize = 1;
pub const SEC_WEIGHTS: usize = 2;
pub const SEC_PINDEX: usize = 3;

/// One section-table entry: where the section lives and what it hashes to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionDesc {
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

/// Decoded slab header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabHeader {
    pub num_vertices: u64,
    pub num_arcs: u64,
    pub num_edges: u64,
    pub index_stride: u64,
    pub sections: [SectionDesc; SECTION_COUNT],
}

impl SlabHeader {
    /// Serialize to the fixed 192-byte on-disk form.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut buf = [0u8; HEADER_BYTES as usize];
        let mut pos = 0usize;
        let mut put = |buf: &mut [u8], v: u64| {
            buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
            pos += 8;
        };
        put(&mut buf, MAGIC);
        put(&mut buf, self.num_vertices);
        put(&mut buf, self.num_arcs);
        put(&mut buf, self.num_edges);
        put(&mut buf, self.index_stride);
        put(&mut buf, SECTION_COUNT as u64);
        for s in &self.sections {
            put(&mut buf, s.offset);
            put(&mut buf, s.len);
            put(&mut buf, s.checksum);
        }
        buf
    }

    /// Parse and validate the fixed-size prefix of a slab file. Checks
    /// magic, version, section count, and alignment — but not bounds or
    /// checksums, which need the rest of the file.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if (bytes.len() as u64) < HEADER_BYTES {
            return Err(StoreError::Truncated {
                what: "header",
                need: HEADER_BYTES,
                have: bytes.len() as u64,
            });
        }
        let mut pos = 0usize;
        let mut get = || {
            let v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            pos += 8;
            v
        };
        let magic = get();
        if magic & !0xFF != MAGIC_SIGNATURE {
            return Err(StoreError::BadMagic { found: magic });
        }
        if magic != MAGIC {
            return Err(StoreError::BadVersion {
                found: (magic & 0xFF) as u8,
            });
        }
        let num_vertices = get();
        check_vertex_count(num_vertices)?;
        let num_arcs = get();
        let num_edges = get();
        let index_stride = get();
        let section_count = get();
        if section_count != SECTION_COUNT as u64 {
            return Err(StoreError::Corrupt {
                what: format!("section count {section_count}, expected {SECTION_COUNT}"),
            });
        }
        if index_stride == 0 {
            return Err(StoreError::Corrupt {
                what: "index stride is zero".into(),
            });
        }
        // arcs = 2·edges − loops, with 0 ≤ loops ≤ edges.
        if num_edges > num_arcs || num_arcs - num_edges > num_edges {
            return Err(StoreError::Corrupt {
                what: format!("{num_arcs} arcs cannot hold {num_edges} edges"),
            });
        }
        let mut sections = [SectionDesc::default(); SECTION_COUNT];
        for (i, s) in sections.iter_mut().enumerate() {
            s.offset = get();
            s.len = get();
            s.checksum = get();
            if s.offset % SECTION_ALIGN != 0 {
                return Err(StoreError::MisalignedSection {
                    section: SECTION_NAMES[i],
                    offset: s.offset,
                });
            }
        }
        if bytes[pos..HEADER_BYTES as usize].iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt {
                what: "header padding is not zero".into(),
            });
        }
        Ok(Self {
            num_vertices,
            num_arcs,
            num_edges,
            index_stride,
            sections,
        })
    }

    /// The expected byte length of each section given the header counts,
    /// or `Corrupt` if a count is too large for any file to hold.
    pub fn expected_section_lens(&self) -> Result<[u64; SECTION_COUNT], StoreError> {
        let words = |count: Option<u64>, width: u64| {
            count
                .and_then(|c| c.checked_mul(width))
                .ok_or_else(|| StoreError::Corrupt {
                    what: format!(
                        "header counts ({} vertices, {} arcs) overflow a section length",
                        self.num_vertices, self.num_arcs
                    ),
                })
        };
        let samples = pindex_samples(self.num_vertices, self.index_stride);
        Ok([
            words(self.num_vertices.checked_add(1), 8)?,
            words(Some(self.num_arcs), 4)?,
            words(Some(self.num_arcs), 8)?,
            words(Some(samples), 8)?,
        ])
    }

    /// Cross-check the section table against the counts and the file
    /// length: expected lengths, in-bounds extents, and the canonical
    /// packed layout (each section directly after the previous, aligned).
    pub fn validate_extents(&self, file_len: u64) -> Result<(), StoreError> {
        let expected = self.expected_section_lens()?;
        let mut cursor = HEADER_BYTES;
        for i in 0..SECTION_COUNT {
            let s = &self.sections[i];
            if s.len != expected[i] {
                return Err(StoreError::Corrupt {
                    what: format!(
                        "section {} has length {}, expected {} from the header counts",
                        SECTION_NAMES[i], s.len, expected[i]
                    ),
                });
            }
            if s.offset != cursor {
                return Err(StoreError::Corrupt {
                    what: format!(
                        "section {} at offset {}, expected {} (packed layout)",
                        SECTION_NAMES[i], s.offset, cursor
                    ),
                });
            }
            let end = s.offset.checked_add(s.len).ok_or(StoreError::Corrupt {
                what: format!("section {} extent overflows", SECTION_NAMES[i]),
            })?;
            if end > file_len {
                return Err(StoreError::Truncated {
                    what: SECTION_NAMES[i],
                    need: end,
                    have: file_len,
                });
            }
            cursor = align_up(end, SECTION_ALIGN);
        }
        Ok(())
    }
}

/// Number of `pindex` samples: `offsets[i * stride]` for every sample
/// index with `i * stride <= n` (the final offset `offsets[n]` is also in
/// the header as `num_arcs`).
pub fn pindex_samples(num_vertices: u64, stride: u64) -> u64 {
    num_vertices / stride + 1
}

/// Round `v` up to the next multiple of `align` (a power of two).
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

/// FNV-1a over little-endian 64-bit words, ~8x cheaper than over bytes
/// on the multi-hundred-megabyte sections of large slabs. A `targets`
/// section of an odd arc count ends in half a word, hashed as that word
/// zero-extended.
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// Streaming form of [`fnv1a_words`]: pieces of any length hash as
/// their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    hash: u64,
    /// The first `filled` bytes of the next word; the rest are zero.
    pending: [u8; 8],
    filled: usize,
}

impl Default for Fnv1a {
    fn default() -> Self {
        let (pending, filled) = ([0; 8], 0);
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            pending,
            filled,
        }
    }
}

fn fnv_mix(hash: u64, word: [u8; 8]) -> u64 {
    (hash ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        self.update_words(bytes, |_| ());
    }

    /// [`Fnv1a::update`], handing each word that lies whole in `bytes`
    /// to `each` as it is hashed, so a check of the words rides the
    /// hash's pass (its multiply chain leaves the core idle enough).
    pub fn update_words(&mut self, bytes: &[u8], mut each: impl FnMut(u64)) {
        let (head, rest) = bytes.split_at(bytes.len().min((8 - self.filled) % 8));
        self.pending[self.filled..self.filled + head.len()].copy_from_slice(head);
        self.filled += head.len();
        if self.filled == 8 {
            (self.hash, self.pending, self.filled) = (fnv_mix(self.hash, self.pending), [0; 8], 0);
        }
        let words = rest.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            let word = word.try_into().unwrap();
            self.hash = fnv_mix(self.hash, word);
            each(u64::from_le_bytes(word));
        }
        self.pending[self.filled..self.filled + tail.len()].copy_from_slice(tail);
        self.filled += tail.len();
    }

    pub fn finish(&self) -> u64 {
        match self.filled {
            0 => self.hash,
            _ => fnv_mix(self.hash, self.pending),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SlabHeader {
        let mut h = SlabHeader {
            num_vertices: 10,
            num_arcs: 40,
            num_edges: 21,
            index_stride: DEFAULT_INDEX_STRIDE,
            sections: [SectionDesc::default(); SECTION_COUNT],
        };
        let lens = h.expected_section_lens().unwrap();
        let mut cursor = HEADER_BYTES;
        for (i, &len) in lens.iter().enumerate() {
            h.sections[i] = SectionDesc {
                offset: cursor,
                len,
                checksum: 0x1111 * i as u64,
            };
            cursor = align_up(cursor + len, SECTION_ALIGN);
        }
        h
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = header();
        let decoded = SlabHeader::decode(&h.encode()).unwrap();
        assert_eq!(h, decoded);
    }

    #[test]
    fn magic_split_is_consistent() {
        assert_eq!(MAGIC_SIGNATURE | FORMAT_VERSION as u64, MAGIC);
        assert_eq!(FORMAT_VERSION, b'3');
    }

    #[test]
    fn short_header_is_truncated() {
        assert!(matches!(
            SlabHeader::decode(&[0u8; 16]),
            Err(StoreError::Truncated { what: "header", .. })
        ));
    }

    #[test]
    fn foreign_magic_is_bad_magic() {
        let mut bytes = header().encode();
        bytes[..8].copy_from_slice(&0xdead_beefu64.to_le_bytes());
        assert!(matches!(
            SlabHeader::decode(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn same_signature_other_version_is_bad_version() {
        let mut bytes = header().encode();
        bytes[..8].copy_from_slice(&(MAGIC_SIGNATURE | b'1' as u64).to_le_bytes());
        assert!(matches!(
            SlabHeader::decode(&bytes),
            Err(StoreError::BadVersion { found: b'1' })
        ));
    }

    #[test]
    fn a_vertex_count_past_32_bits_is_refused_by_the_header() {
        use louvain_graph::ingest::IngestError;
        let mut h = header();
        h.num_vertices = 1 << 32;
        assert!(matches!(
            SlabHeader::decode(&h.encode()),
            Err(StoreError::Ingest(IngestError::TooManyVertices { num_vertices })) if num_vertices == 1 << 32
        ));
    }

    #[test]
    fn targets_are_four_bytes_an_arc() {
        assert_eq!(
            header().expected_section_lens().unwrap()[SEC_TARGETS],
            40 * 4
        );
    }

    #[test]
    fn unaligned_section_offset_rejected() {
        let mut h = header();
        h.sections[2].offset += 8;
        assert!(matches!(
            SlabHeader::decode(&h.encode()),
            Err(StoreError::MisalignedSection {
                section: "weights",
                ..
            })
        ));
    }

    #[test]
    fn extent_validation_catches_truncation_and_drift() {
        let h = header();
        let full = h.sections[SECTION_COUNT - 1].offset + h.sections[SECTION_COUNT - 1].len;
        assert!(h.validate_extents(full).is_ok());
        assert!(matches!(
            h.validate_extents(full - 8),
            Err(StoreError::Truncated { .. })
        ));
        let mut drifted = h.clone();
        drifted.sections[1].len += 8;
        assert!(matches!(
            drifted.validate_extents(full + 64),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
    }

    #[test]
    fn streaming_hash_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
        let mut h = Fnv1a::default();
        for chunk in data.chunks(40) {
            h.update(chunk);
        }
        // 4096 % 40 != 0 — chunks(40) yields a 16-byte tail, still a
        // multiple of 8.
        assert_eq!(h.finish(), fnv1a_words(&data));
    }

    #[test]
    fn pieces_of_any_length_hash_as_their_concatenation() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1004).collect();
        for piece in [1, 3, 4, 12, 1004] {
            let mut h = Fnv1a::default();
            data.chunks(piece).for_each(|c| h.update(c));
            assert_eq!(h.finish(), fnv1a_words(&data), "pieces of {piece}");
        }
        // A half word hashes as the word zero-extended.
        let mut padded = data[..1004].to_vec();
        padded.extend([0; 4]);
        assert_eq!(fnv1a_words(&data), fnv1a_words(&padded));
    }

    #[test]
    fn pindex_sample_count() {
        assert_eq!(pindex_samples(0, 4096), 1);
        assert_eq!(pindex_samples(4095, 4096), 1);
        assert_eq!(pindex_samples(4096, 4096), 2);
        assert_eq!(pindex_samples(10_000, 4096), 3);
    }
}
