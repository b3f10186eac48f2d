//! Fingerprint-keyed result cache and the graph keys it is keyed on.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use louvain_graph::VertexId;
use louvain_obs::RunArtifact;
use louvain_store::layout::fnv1a_words;
use louvain_store::{peek_header, StoreError};

/// Cache key of a job: what graph, under what configuration, on how
/// many ranks. Two submissions with the same key are guaranteed the
/// same result (the trajectory is deterministic in exactly these
/// inputs), so the key also names the job's checkpoint directory — a
/// resubmission finds the manifests its killed predecessor left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// [`graph_key`] of the slab: FNV-1a over its 192-byte header
    /// (which carries every section's checksum).
    pub graph_fp: u64,
    /// [`louvain_dist::config_fingerprint`] of the `DistConfig`.
    pub config_fp: u64,
    pub ranks: usize,
}

impl JobKey {
    /// Directory name of the per-job checkpoint store under the
    /// daemon's checkpoint root.
    pub fn dir_name(&self) -> String {
        format!(
            "job-{:016x}-{:016x}-p{}",
            self.graph_fp, self.config_fp, self.ranks
        )
    }
}

/// The graph half of a [`JobKey`]: FNV-1a over a slab's 192-byte
/// header. The header names the slab's content — counts, geometry and
/// the four section checksums — so a slab is keyed on one small read;
/// equal headers declare equal content, and the server verifies that
/// content before it computes on it (a miss).
pub fn graph_key(path: &Path) -> Result<u64, StoreError> {
    Ok(fnv1a_words(&peek_header(path)?.encode()))
}

/// Streamed FNV-1a over a graph file's bytes — same function as
/// [`louvain_resil::fnv1a64`], but constant-memory over arbitrarily
/// large files. No job is keyed on it ([`graph_key`] reads only the
/// slab header); the bench ladder's `serve.fingerprint_mib_per_s` row
/// still measures it.
pub fn graph_fingerprint(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hash);
        }
        for &b in &buf[..n] {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A finished job's full result: the artifact handed back on cache
/// hits, plus the dendrogram the `query` request type serves.
#[derive(Debug)]
pub struct CachedResult {
    pub key: JobKey,
    pub modularity: f64,
    pub num_communities: usize,
    pub phases: usize,
    /// Final community per original vertex (dense).
    pub assignment: Vec<VertexId>,
    /// Per-level assignments (the dendrogram): `levels[k][v]` is vertex
    /// `v`'s community after phase `k`, densely renumbered per level.
    /// The last level equals `assignment`.
    pub levels: Vec<Vec<VertexId>>,
    pub artifact: RunArtifact,
}

/// Insertion-plus-access-ordered LRU over [`CachedResult`]s with a
/// fixed capacity. Not thread-safe on its own — the server guards it
/// with its state lock.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    cap: usize,
    map: HashMap<JobKey, Arc<CachedResult>>,
    /// Front = least recently used.
    order: VecDeque<JobKey>,
}

impl ArtifactCache {
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: &JobKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(*key);
    }

    /// Look up a result, refreshing its recency on a hit.
    pub fn get(&mut self, key: &JobKey) -> Option<Arc<CachedResult>> {
        let hit = self.map.get(key).cloned()?;
        self.touch(key);
        Some(hit)
    }

    /// Insert a result, evicting least-recently-used entries past the
    /// capacity bound. Returns how many entries were evicted.
    pub fn insert(&mut self, result: CachedResult) -> usize {
        let key = result.key;
        self.map.insert(key, Arc::new(result));
        self.touch(&key);
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(graph_fp: u64) -> CachedResult {
        CachedResult {
            key: JobKey {
                graph_fp,
                config_fp: 7,
                ranks: 2,
            },
            modularity: 0.5,
            num_communities: 3,
            phases: 2,
            assignment: vec![0, 1, 2],
            levels: vec![vec![0, 1, 2]],
            artifact: RunArtifact::default(),
        }
    }

    #[test]
    fn streamed_fingerprint_matches_fnv1a64() {
        let dir = std::env::temp_dir().join("louvain-serve-fp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let bytes: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            graph_fingerprint(&path).unwrap(),
            louvain_resil::fnv1a64(&bytes)
        );
    }

    #[test]
    fn lru_evicts_oldest_and_hits_refresh_recency() {
        let mut cache = ArtifactCache::new(2);
        assert_eq!(cache.insert(result(1)), 0);
        assert_eq!(cache.insert(result(2)), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&result(1).key).is_some());
        assert_eq!(cache.insert(result(3)), 1);
        assert!(cache.get(&result(2).key).is_none());
        assert!(cache.get(&result(1).key).is_some());
        assert!(cache.get(&result(3).key).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn key_names_a_stable_checkpoint_dir() {
        let key = JobKey {
            graph_fp: 0xAB,
            config_fp: 0xCD,
            ranks: 4,
        };
        assert_eq!(key.dir_name(), "job-00000000000000ab-00000000000000cd-p4");
    }
}
