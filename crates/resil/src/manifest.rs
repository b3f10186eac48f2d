//! Per-phase manifests and the on-disk checkpoint store.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/phase-<k>/rank-<r>.ckpt   one slab per rank
//! <dir>/phase-<k>/MANIFEST.json   written after every slab is durable
//! <dir>/LATEST                    newest phase with a complete manifest
//! ```
//!
//! Every file is written atomically (tmp + fsync + rename), and the
//! manifest is only committed after all rank slabs of the phase exist —
//! so `LATEST` always names a phase that can actually be restored, no
//! matter where a crash lands.

use std::path::{Path, PathBuf};

use louvain_obs::Json;

use crate::checkpoint::{decode, encode, fnv1a64, write_atomic, RankCheckpoint};
use crate::error::ResilError;

/// Manifest schema version.
const MANIFEST_VERSION: u64 = 1;

/// One rank's entry in a phase manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub rank: usize,
    pub file: String,
    pub bytes: u64,
    /// FNV-1a over the whole checkpoint file.
    pub hash: u64,
}

/// The record committed once a phase's checkpoints are all durable.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub phase: u64,
    pub ranks: usize,
    pub config_fingerprint: u64,
    pub files: Vec<ManifestEntry>,
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn parse_hex(s: &str) -> Result<u64, String> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad hex value {s:?}"))
}

impl Manifest {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Num(MANIFEST_VERSION as f64)),
            ("phase".into(), Json::Num(self.phase as f64)),
            ("ranks".into(), Json::Num(self.ranks as f64)),
            (
                "config_fingerprint".into(),
                Json::str(hex(self.config_fingerprint)),
            ),
            (
                "files".into(),
                Json::Arr(
                    self.files
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("rank".into(), Json::Num(e.rank as f64)),
                                ("file".into(), Json::str(e.file.clone())),
                                ("bytes".into(), Json::Num(e.bytes as f64)),
                                ("hash".into(), Json::str(hex(e.hash))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every failure is a [`ResilError::Manifest`] carrying the message.
    fn from_json(doc: &Json) -> Result<Manifest, String> {
        let version = doc.field_u64("version")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "manifest version {version} unsupported (expected {MANIFEST_VERSION})"
            ));
        }
        let files = doc
            .field("files")?
            .as_arr()
            .ok_or("files is not an array")?
            .iter()
            .map(|f| {
                Ok(ManifestEntry {
                    rank: f.field_u64("rank")? as usize,
                    file: f.field_str("file")?.to_string(),
                    bytes: f.field_u64("bytes")?,
                    hash: parse_hex(f.field_str("hash")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            phase: doc.field_u64("phase")?,
            ranks: doc.field_u64("ranks")? as usize,
            config_fingerprint: parse_hex(doc.field_str("config_fingerprint")?)?,
            files,
        })
    }

    /// Check that this manifest belongs to the job trying to resume.
    pub fn validate(&self, ranks: usize, config_fingerprint: u64) -> Result<(), ResilError> {
        if self.ranks != ranks {
            return Err(ResilError::RankCountMismatch {
                expected: ranks,
                actual: self.ranks,
            });
        }
        if self.config_fingerprint != config_fingerprint {
            return Err(ResilError::ConfigMismatch {
                expected: config_fingerprint,
                actual: self.config_fingerprint,
            });
        }
        if self.files.len() != self.ranks {
            return Err(ResilError::Manifest(format!(
                "manifest lists {} files for {} ranks",
                self.files.len(),
                self.ranks
            )));
        }
        Ok(())
    }
}

/// The checkpoint directory: path layout, atomic commits, validated loads.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn phase_dir(&self, phase: u64) -> PathBuf {
        self.dir.join(format!("phase-{phase}"))
    }

    fn rank_file(phase_dir: &Path, rank: usize) -> PathBuf {
        phase_dir.join(format!("rank-{rank}.ckpt"))
    }

    /// Serialize and atomically write one rank's slab for its phase.
    /// Returns the manifest entry to gather at the manifest writer.
    pub fn write_rank(&self, ckpt: &RankCheckpoint) -> std::io::Result<ManifestEntry> {
        let phase_dir = self.phase_dir(ckpt.phase);
        std::fs::create_dir_all(&phase_dir)?;
        let bytes = encode(ckpt);
        let path = Self::rank_file(&phase_dir, ckpt.rank);
        write_atomic(&path, &bytes)?;
        Ok(ManifestEntry {
            rank: ckpt.rank,
            file: path.file_name().unwrap().to_string_lossy().into_owned(),
            bytes: bytes.len() as u64,
            hash: fnv1a64(&bytes),
        })
    }

    /// Commit a phase: write its manifest (atomically), then advance the
    /// `LATEST` pointer. Call only after every rank's `write_rank`
    /// returned — the caller's gather/barrier provides that ordering.
    pub fn commit_phase(
        &self,
        phase: u64,
        ranks: usize,
        config_fingerprint: u64,
        mut files: Vec<ManifestEntry>,
    ) -> std::io::Result<()> {
        files.sort_by_key(|e| e.rank);
        let manifest = Manifest {
            phase,
            ranks,
            config_fingerprint,
            files,
        };
        let text = manifest.to_json().to_string_pretty();
        write_atomic(
            &self.phase_dir(phase).join("MANIFEST.json"),
            text.as_bytes(),
        )?;
        write_atomic(&self.dir.join("LATEST"), format!("{phase}\n").as_bytes())
    }

    /// The newest phase with a committed manifest, or `None` when the
    /// store has no complete checkpoint yet.
    pub fn latest(&self) -> Result<Option<u64>, ResilError> {
        let path = self.dir.join("LATEST");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        text.trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ResilError::Manifest(format!("LATEST holds {:?}", text.trim())))
    }

    /// Resume-latest helper: the parsed manifest of the newest committed
    /// phase, or `None` when the store holds no complete checkpoint yet.
    pub fn latest_manifest(&self) -> Result<Option<Manifest>, ResilError> {
        match self.latest()? {
            Some(phase) => self.manifest(phase).map(Some),
            None => Ok(None),
        }
    }

    /// Retention: remove every `phase-<k>` directory superseded by the
    /// newest committed phase, keeping that phase's slabs + manifest and
    /// the `LATEST` pointer (so a later resume still works). Returns the
    /// number of phase directories pruned. A store with no committed
    /// checkpoint is left untouched — half-written phase directories may
    /// be one commit away from becoming the newest.
    pub fn prune_superseded(&self) -> Result<usize, ResilError> {
        let Some(latest) = self.latest()? else {
            return Ok(0);
        };
        let mut pruned = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(phase) = name
                .to_str()
                .and_then(|n| n.strip_prefix("phase-"))
                .and_then(|k| k.parse::<u64>().ok())
            else {
                continue;
            };
            if phase < latest {
                std::fs::remove_dir_all(entry.path())?;
                pruned += 1;
            }
        }
        Ok(pruned)
    }

    /// Load and parse the manifest of one phase.
    pub fn manifest(&self, phase: u64) -> Result<Manifest, ResilError> {
        let path = self.phase_dir(phase).join("MANIFEST.json");
        let text = std::fs::read_to_string(&path)?;
        let doc = Json::parse(&text)
            .map_err(|e| ResilError::Manifest(format!("{}: {e:?}", path.display())))?;
        let manifest = Manifest::from_json(&doc).map_err(ResilError::Manifest)?;
        if manifest.phase != phase {
            return Err(ResilError::Manifest(format!(
                "manifest in phase-{phase}/ claims phase {}",
                manifest.phase
            )));
        }
        Ok(manifest)
    }

    /// Load one rank's slab, checking the manifest checksum, the
    /// embedded content hash, and that the slab belongs to `rank`.
    pub fn load_rank(
        &self,
        manifest: &Manifest,
        rank: usize,
    ) -> Result<RankCheckpoint, ResilError> {
        let entry = manifest
            .files
            .iter()
            .find(|e| e.rank == rank)
            .ok_or_else(|| ResilError::Manifest(format!("no manifest entry for rank {rank}")))?;
        let path = self.phase_dir(manifest.phase).join(&entry.file);
        let bytes = std::fs::read(&path)?;
        if bytes.len() as u64 != entry.bytes {
            return Err(ResilError::Corrupt(format!(
                "{}: {} bytes on disk, manifest records {}",
                path.display(),
                bytes.len(),
                entry.bytes
            )));
        }
        let actual = fnv1a64(&bytes);
        if actual != entry.hash {
            return Err(ResilError::HashMismatch {
                expected: entry.hash,
                actual,
            });
        }
        let ckpt = decode(&bytes)?;
        if ckpt.rank != rank || ckpt.ranks != manifest.ranks || ckpt.phase != manifest.phase {
            return Err(ResilError::Corrupt(format!(
                "{} holds rank {} of {} phase {} (expected rank {rank} of {} phase {})",
                path.display(),
                ckpt.rank,
                ckpt.ranks,
                ckpt.phase,
                manifest.ranks,
                manifest.phase
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::StatsSnapshot;

    fn tmp_store(name: &str) -> CheckpointStore {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("louvain-resil-store-tests-{pid}-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn ckpt(rank: usize, phase: u64) -> RankCheckpoint {
        RankCheckpoint {
            rank,
            ranks: 2,
            phase,
            force_min_tau: false,
            prev_q: 0.25,
            final_q: 0.25,
            total_iterations: 4,
            config_fingerprint: 0xABCD,
            part_starts: vec![0, 3, 6],
            offsets: vec![0, 1, 2, 3],
            dests: vec![1, 2, 3],
            weights: vec![1.0, 1.0, 1.0],
            cur_of_orig: vec![0, 0, 1],
            stats: StatsSnapshot::default(),
        }
    }

    fn commit(store: &CheckpointStore, phase: u64) {
        let entries: Vec<_> = (0..2)
            .map(|r| store.write_rank(&ckpt(r, phase)).unwrap())
            .collect();
        store.commit_phase(phase, 2, 0xABCD, entries).unwrap();
    }

    #[test]
    fn store_roundtrip_with_latest_pointer() {
        let store = tmp_store("roundtrip");
        assert_eq!(store.latest().unwrap(), None);
        commit(&store, 1);
        commit(&store, 2);
        assert_eq!(store.latest().unwrap(), Some(2));
        let manifest = store.manifest(2).unwrap();
        manifest.validate(2, 0xABCD).unwrap();
        for r in 0..2 {
            let back = store.load_rank(&manifest, r).unwrap();
            assert_eq!(back, ckpt(r, 2));
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn validation_rejects_wrong_job() {
        let store = tmp_store("validate");
        commit(&store, 1);
        let manifest = store.manifest(1).unwrap();
        assert!(matches!(
            manifest.validate(3, 0xABCD),
            Err(ResilError::RankCountMismatch { .. })
        ));
        assert!(matches!(
            manifest.validate(2, 0x1234),
            Err(ResilError::ConfigMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_rank_file_is_caught_by_manifest_hash() {
        let store = tmp_store("corrupt");
        commit(&store, 1);
        let path = store.phase_dir(1).join("rank-0.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let manifest = store.manifest(1).unwrap();
        assert!(matches!(
            store.load_rank(&manifest, 0),
            Err(ResilError::HashMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_manifest_reads_as_error_not_panic() {
        let store = tmp_store("missing");
        assert!(matches!(store.manifest(7), Err(ResilError::Io(_))));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_manifest_resolves_newest_committed_phase() {
        let store = tmp_store("latest-manifest");
        assert!(store.latest_manifest().unwrap().is_none());
        commit(&store, 1);
        commit(&store, 3);
        let m = store.latest_manifest().unwrap().unwrap();
        assert_eq!(m.phase, 3);
        m.validate(2, 0xABCD).unwrap();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_superseded_keeps_latest_restorable() {
        let store = tmp_store("prune");
        // Nothing committed yet: nothing pruned, even with a stray
        // half-written phase dir on disk.
        let _ = store.write_rank(&ckpt(0, 1)).unwrap();
        assert_eq!(store.prune_superseded().unwrap(), 0);
        assert!(store.phase_dir(1).exists());

        commit(&store, 1);
        commit(&store, 2);
        commit(&store, 4);
        assert_eq!(store.prune_superseded().unwrap(), 2);
        assert!(!store.phase_dir(1).exists());
        assert!(!store.phase_dir(2).exists());
        // The survivor still restores end to end.
        assert_eq!(store.latest().unwrap(), Some(4));
        let m = store.latest_manifest().unwrap().unwrap();
        for r in 0..2 {
            assert_eq!(store.load_rank(&m, r).unwrap(), ckpt(r, 4));
        }
        // Idempotent.
        assert_eq!(store.prune_superseded().unwrap(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
