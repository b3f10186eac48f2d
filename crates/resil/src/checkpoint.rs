//! The per-rank checkpoint slab: binary encoding and atomic writes.
//!
//! Layout (little endian, following the slab's conventions of magic +
//! format version + fixed-width fields):
//!
//! ```text
//! magic    u64  = "LVRSCKPT"
//! version  u32  = CHECKPOINT_VERSION
//! rank     u32
//! ranks    u32
//! flags    u32  (bit 0: force_min_tau)
//! phase    u64  (the next phase the resumed run executes)
//! prev_q   f64
//! final_q  f64
//! total_iterations   u64
//! config_fingerprint u64
//! part_starts  [len u64, len × u64]   ownership table
//! offsets      [len u64, len × u64]   CSR row offsets
//! dests        [len u64, len × u32]   CSR destinations (global ids)
//! weights      [len u64, len × f64]   CSR weights
//! cur_of_orig  [len u64, len × u64]   community of each original vertex
//! stats        [len u64, len × u64]   StatsSnapshot counters, table order
//! hash     u64  FNV-1a over every preceding byte
//! ```
//!
//! The graph has fewer than `louvain_graph::VERTEX_LIMIT` (2^32)
//! vertices, so a destination is 4 bytes; a `part_starts` that says
//! otherwise is refused as corrupt.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use louvain_comm::StatsSnapshot;

use crate::error::ResilError;

const MAGIC: u64 = u64::from_le_bytes(*b"LVRSCKPT");
/// Current checkpoint format version. Version 2 extends the stats
/// block with the rank-health counters (stalls, bursts, corruptions,
/// checksum rejects, watchdog ladder, backoff time, per-step retries).
/// Version 3 appends the per-step blocked-wait nanoseconds, so wait
/// attribution stays cumulative across a crash/restart. Version 4 stores
/// the stats block as one counted run of words in the counter table's
/// order ([`StatsSnapshot::words`]) and drops the α-β seconds, which the
/// experiment harness prices from the counters after the run. Version 5 carries the
/// shorter table left once message faults stopped being modelled: eight
/// scalars (no drop / delay / duplicate / truncate / burst / corruption
/// / retransmission counts, checksum rejects or backoff time). Version 6
/// stores `dests` as `u32`.
pub const CHECKPOINT_VERSION: u32 = 6;

/// Everything one rank needs to rejoin the phase loop at a phase
/// boundary. `phase` is the next phase to execute; the ET probabilities
/// and delta-refresh baselines are per-phase state re-created at phase
/// start, so a phase-boundary cut needs none of them — the
/// threshold-cycle position is fully determined by `phase` and
/// `force_min_tau`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCheckpoint {
    pub rank: usize,
    pub ranks: usize,
    pub phase: u64,
    pub force_min_tau: bool,
    pub prev_q: f64,
    pub final_q: f64,
    pub total_iterations: u64,
    pub config_fingerprint: u64,
    /// `VertexPartition::starts()` of the coarse graph.
    pub part_starts: Vec<u64>,
    pub offsets: Vec<u64>,
    pub dests: Vec<u32>,
    pub weights: Vec<f64>,
    /// Community of each original vertex owned by this rank (the
    /// dendrogram-so-far, projected).
    pub cur_of_orig: Vec<u64>,
    /// Comm counters at the cut, so a resumed run reports cumulative
    /// totals.
    pub stats: StatsSnapshot,
}

/// FNV-1a over a byte slice — the content hash of checkpoint files and
/// manifest entries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put<const W: usize>(buf: &mut Vec<u8>, bytes: [u8; W]) {
    buf.extend_from_slice(&bytes);
}

/// A counted run: its length as a `u64`, then each value's bytes.
fn put_run<T: Copy, const W: usize>(buf: &mut Vec<u8>, vs: &[T], bytes: fn(T) -> [u8; W]) {
    put(buf, (vs.len() as u64).to_le_bytes());
    vs.iter().for_each(|&v| put(buf, bytes(v)));
}

/// Bounded-length binary reader over the encoded buffer.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ResilError> {
        if self.pos + n > self.buf.len() {
            return Err(ResilError::Corrupt(format!(
                "truncated checkpoint: wanted {n} bytes at offset {}, file holds {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn word<const W: usize>(&mut self) -> Result<[u8; W], ResilError> {
        Ok(self.take(W)?.try_into().unwrap())
    }

    fn u64(&mut self) -> Result<u64, ResilError> {
        self.word().map(u64::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, ResilError> {
        self.word().map(u32::from_le_bytes)
    }

    /// A counted run written by [`put_run`].
    fn run<T, const W: usize>(&mut self, value: fn([u8; W]) -> T) -> Result<Vec<T>, ResilError> {
        let len = self.u64()? as usize;
        (0..len).map(|_| self.word().map(value)).collect()
    }
}

/// Serialize a checkpoint, appending the trailing content hash.
pub fn encode(ckpt: &RankCheckpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        128 + 4 * ckpt.dests.len()
            + 8 * (ckpt.part_starts.len()
                + ckpt.offsets.len()
                + ckpt.weights.len()
                + ckpt.cur_of_orig.len()),
    );
    put(&mut buf, MAGIC.to_le_bytes());
    put(&mut buf, CHECKPOINT_VERSION.to_le_bytes());
    put(&mut buf, (ckpt.rank as u32).to_le_bytes());
    put(&mut buf, (ckpt.ranks as u32).to_le_bytes());
    put(&mut buf, u32::from(ckpt.force_min_tau).to_le_bytes());
    put(&mut buf, ckpt.phase.to_le_bytes());
    put(&mut buf, ckpt.prev_q.to_le_bytes());
    put(&mut buf, ckpt.final_q.to_le_bytes());
    put(&mut buf, ckpt.total_iterations.to_le_bytes());
    put(&mut buf, ckpt.config_fingerprint.to_le_bytes());
    put_run(&mut buf, &ckpt.part_starts, u64::to_le_bytes);
    put_run(&mut buf, &ckpt.offsets, u64::to_le_bytes);
    put_run(&mut buf, &ckpt.dests, u32::to_le_bytes);
    put_run(&mut buf, &ckpt.weights, f64::to_le_bytes);
    put_run(&mut buf, &ckpt.cur_of_orig, u64::to_le_bytes);
    put_run(
        &mut buf,
        &ckpt.stats.words().collect::<Vec<_>>(),
        u64::to_le_bytes,
    );
    let hash = fnv1a64(&buf);
    put(&mut buf, hash.to_le_bytes());
    buf
}

/// Check that the decoded fields describe a rank's piece of a graph:
/// an ownership table of `ranks + 1` nondecreasing starts from 0, a CSR
/// whose offsets cover exactly the rank's range and its arcs, and
/// destinations and communities that name vertices of the graph. The
/// restorer builds a `VertexPartition` and a `LocalGraph` from these,
/// and those panic on a malformed shape.
fn check_shape(c: &RankCheckpoint) -> Result<(), String> {
    let starts = &c.part_starts;
    if c.ranks == 0 || c.rank >= c.ranks {
        return Err(format!("rank {} of a {}-rank job", c.rank, c.ranks));
    }
    if starts.len() != c.ranks + 1 || starts[0] != 0 {
        return Err(format!(
            "part_starts has {} entries starting at {:?} (a {}-rank table starts at 0)",
            starts.len(),
            starts.first(),
            c.ranks
        ));
    }
    if let Some(i) = starts.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("part_starts falls at entry {}", i + 1));
    }
    let n = starts[c.ranks];
    let owned = starts[c.rank + 1] - starts[c.rank];
    let offsets = &c.offsets;
    if (offsets.len() as u64).checked_sub(1) != Some(owned) || offsets[0] != 0 {
        return Err(format!(
            "offsets has {} entries starting at {:?} (the rank owns {owned} vertices)",
            offsets.len(),
            offsets.first()
        ));
    }
    if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("offsets falls at entry {}", i + 1));
    }
    if offsets[offsets.len() - 1] != c.dests.len() as u64 || c.dests.len() != c.weights.len() {
        return Err(format!(
            "offsets end at {}, with {} dests and {} weights",
            offsets[offsets.len() - 1],
            c.dests.len(),
            c.weights.len()
        ));
    }
    if let Some(i) = c.weights.iter().position(|w| !(w.is_finite() && *w >= 0.0)) {
        return Err(format!(
            "weights[{i}] = {} is not a finite weight ≥ 0",
            c.weights[i]
        ));
    }
    if n >= louvain_graph::VERTEX_LIMIT {
        return Err(format!(
            "part_starts ends at n = {n}, not below the vertex limit {}",
            louvain_graph::VERTEX_LIMIT
        ));
    }
    fn named<T: Copy + Into<u64>>(field: &str, ids: &[T], n: u64) -> Result<(), String> {
        match ids.iter().position(|&v| v.into() >= n) {
            Some(i) => Err(format!(
                "{field}[{i}] = {} is not below n = {n}",
                ids[i].into()
            )),
            None => Ok(()),
        }
    }
    named("dests", &c.dests, n)?;
    named("cur_of_orig", &c.cur_of_orig, n)
}

/// Parse and validate an encoded checkpoint (magic, version, content
/// hash, field shapes). How many original vertices `cur_of_orig` must
/// cover is not in the file: the restorer checks its length.
pub fn decode(bytes: &[u8]) -> Result<RankCheckpoint, ResilError> {
    if bytes.len() < 8 + 8 {
        return Err(ResilError::Corrupt(format!(
            "file of {} bytes cannot hold a checkpoint",
            bytes.len()
        )));
    }
    let (body, hash_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(hash_bytes.try_into().unwrap());
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(ResilError::HashMismatch {
            expected: stored,
            actual,
        });
    }
    let mut c = Cur { buf: body, pos: 0 };
    let magic = c.u64()?;
    if magic != MAGIC {
        return Err(ResilError::Corrupt(format!(
            "bad magic {magic:#018x} (expected {MAGIC:#018x})"
        )));
    }
    let version = c.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(ResilError::UnsupportedVersion {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let rank = c.u32()? as usize;
    let ranks = c.u32()? as usize;
    let flags = c.u32()?;
    let phase = c.u64()?;
    let prev_q = c.word().map(f64::from_le_bytes)?;
    let final_q = c.word().map(f64::from_le_bytes)?;
    let total_iterations = c.u64()?;
    let config_fingerprint = c.u64()?;
    let part_starts = c.run(u64::from_le_bytes)?;
    let offsets = c.run(u64::from_le_bytes)?;
    let dests = c.run(u32::from_le_bytes)?;
    let weights = c.run(f64::from_le_bytes)?;
    let cur_of_orig = c.run(u64::from_le_bytes)?;
    let words = c.run(u64::from_le_bytes)?;
    let mut stats = StatsSnapshot::default();
    let expected = stats.words().count();
    if words.len() != expected {
        return Err(ResilError::Corrupt(format!(
            "stats block has {} counters, this build expects {expected}",
            words.len()
        )));
    }
    for (slot, word) in stats.words_mut().zip(words) {
        *slot = word;
    }
    if c.pos != body.len() {
        return Err(ResilError::Corrupt(format!(
            "{} trailing bytes after the stats block",
            body.len() - c.pos
        )));
    }
    let ckpt = RankCheckpoint {
        rank,
        ranks,
        phase,
        force_min_tau: flags & 1 != 0,
        prev_q,
        final_q,
        total_iterations,
        config_fingerprint,
        part_starts,
        offsets,
        dests,
        weights,
        cur_of_orig,
        stats,
    };
    check_shape(&ckpt).map_err(ResilError::Corrupt)?;
    Ok(ckpt)
}

/// Write `bytes` to `path` atomically: a sibling tmp file is written,
/// fsynced, then renamed over the target, so a crash mid-write never
/// leaves a half-written checkpoint under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("checkpoint path {} has no parent", path.display()),
        )
    })?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = dir.join(format!(".{file_name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankCheckpoint {
        RankCheckpoint {
            rank: 1,
            ranks: 3,
            phase: 3,
            force_min_tau: true,
            prev_q: f64::NEG_INFINITY,
            final_q: 0.4312,
            total_iterations: 17,
            config_fingerprint: 0xDEAD_BEEF_0123_4567,
            part_starts: vec![0, 10, 12, 30],
            offsets: vec![0, 2, 5],
            dests: vec![11, 12, 13, 14, 15],
            weights: vec![1.0, 0.5, 2.0, 0.25, 3.0],
            cur_of_orig: vec![7, 7, 9],
            stats: {
                // Every counter distinct: a field the stats block
                // dropped or reordered would not round-trip.
                let mut stats = StatsSnapshot::default();
                for (i, w) in stats.words_mut().enumerate() {
                    *w = 5 + 3 * i as u64;
                }
                stats
            },
        }
    }

    #[test]
    fn roundtrip_including_neg_infinity() {
        let ckpt = sample();
        let bytes = encode(&ckpt);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert!(back.prev_q == f64::NEG_INFINITY);
        // StatsSnapshot's PartialEq deliberately ignores the wall-clock
        // wait array, so compare the whole walk.
        assert!(back.stats.words().eq(ckpt.stats.words()));
    }

    #[test]
    fn flipped_byte_fails_the_hash() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match decode(&bytes) {
            Err(ResilError::HashMismatch { .. }) => {}
            other => panic!("expected HashMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&sample());
        assert!(decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(decode(&bytes[..4]).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] ^= 0xFF;
        // Re-seal the hash so the magic check (not the hash) fires.
        let n = bytes.len();
        let h = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&h.to_le_bytes());
        match decode(&bytes) {
            Err(ResilError::Corrupt(msg)) => assert!(msg.contains("bad magic"), "{msg}"),
            other => panic!("expected Corrupt(bad magic), got {other:?}"),
        }
    }

    #[test]
    fn other_versions_are_refused_by_name() {
        // 5 is the previous format (its dests were 64-bit, so it is not
        // read as this one); 99 is one this build has never heard of.
        for version in [CHECKPOINT_VERSION - 1, 99] {
            let mut bytes = encode(&sample());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let n = bytes.len();
            let h = fnv1a64(&bytes[..n - 8]);
            bytes[n - 8..].copy_from_slice(&h.to_le_bytes());
            match decode(&bytes) {
                Err(ResilError::UnsupportedVersion { found, expected }) => {
                    assert_eq!((found, expected), (version, CHECKPOINT_VERSION));
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_graph_past_the_vertex_limit_is_refused() {
        let mut ckpt = sample();
        ckpt.part_starts[3] = 1 << 32;
        match decode(&encode(&ckpt)) {
            Err(ResilError::Corrupt(msg)) => {
                assert!(msg.contains("part_starts ends at n = 4294967296"), "{msg}")
            }
            other => panic!("expected Corrupt(part_starts), got {other:?}"),
        }
    }

    #[test]
    fn stats_block_of_another_table_is_refused() {
        // Same version, one counter short: a build whose table differs.
        let ckpt = sample();
        let mut bytes = encode(&ckpt);
        let words = ckpt.stats.words().count();
        let n = bytes.len();
        let len_at = n - 8 - 8 * (words + 1);
        bytes[len_at..len_at + 8].copy_from_slice(&(words as u64 - 1).to_le_bytes());
        bytes.drain(n - 16..n - 8);
        let n = bytes.len();
        let h = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&h.to_le_bytes());
        match decode(&bytes) {
            Err(ResilError::Corrupt(msg)) => assert!(msg.contains("counters"), "{msg}"),
            other => panic!("expected Corrupt(stats block), got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_roundtrips_and_leaves_no_tmp() {
        let dir =
            std::env::temp_dir().join(format!("louvain-resil-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rank-0.ckpt");
        let bytes = encode(&sample());
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        assert!(
            std::fs::read_dir(&dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".tmp")),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
