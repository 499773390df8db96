//! The file namespace: an HDFS-style "namenode" over the chunk store.
//!
//! The paper's diFS "logically partition\[s\]" data "into equally-sized
//! access units (e.g., an HDFS 128 MB block) which are stored
//! redundantly" (§3). [`Namespace`] provides the file abstraction on top:
//! paths map to ordered chunk lists, byte offsets map to chunks, and file
//! health is derived from chunk survival — so device shrinkage surfaces
//! to applications as (recoverable or, at end of life, corrupt) files
//! rather than as raw chunk ids.

use crate::cluster::Cluster;
use crate::store::ChunkStore;
use crate::types::{ChunkId, DifsError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metadata of one file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// Backing chunks, in offset order.
    pub chunks: Vec<ChunkId>,
}

/// File health as judged against the chunk store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FileHealth {
    /// All chunks fully replicated.
    Healthy,
    /// Some chunks below the replication factor (recovery in progress).
    Degraded,
    /// At least one chunk was lost: unreadable.
    Corrupt,
}

/// The namespace. Chunk placement and recovery stay in [`ChunkStore`];
/// this layer owns only path → chunk mappings.
#[derive(Debug, Clone, Default)]
pub struct Namespace {
    files: BTreeMap<String, FileMeta>,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total logical bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.size_bytes).sum()
    }

    /// Create a file of `size_bytes`, allocating replicated chunks.
    /// Allocation is all-or-nothing: on capacity exhaustion every chunk
    /// allocated so far is released and an error returned.
    pub fn create(
        &mut self,
        store: &mut ChunkStore,
        cluster: &mut Cluster,
        path: &str,
        size_bytes: u64,
    ) -> Result<(), NamespaceError> {
        if self.files.contains_key(path) {
            return Err(NamespaceError::AlreadyExists);
        }
        let chunk_bytes = store.config().chunk_bytes;
        let n = size_bytes.div_ceil(chunk_bytes).max(1);
        let mut chunks = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match store.create_chunk(cluster) {
                Ok(c) => chunks.push(c),
                Err(e) => {
                    // Roll back the partial allocation.
                    for c in chunks {
                        let _ = store.delete_chunk(cluster, c);
                    }
                    return Err(NamespaceError::Store(e));
                }
            }
        }
        self.files
            .insert(path.to_string(), FileMeta { size_bytes, chunks });
        Ok(())
    }

    /// Delete a file, releasing its chunks (lost chunks are skipped).
    pub fn delete(
        &mut self,
        store: &mut ChunkStore,
        cluster: &mut Cluster,
        path: &str,
    ) -> Result<(), NamespaceError> {
        let meta = self.files.remove(path).ok_or(NamespaceError::NotFound)?;
        for c in meta.chunks {
            let _ = store.delete_chunk(cluster, c);
        }
        Ok(())
    }

    /// Rename a file.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), NamespaceError> {
        if self.files.contains_key(to) {
            return Err(NamespaceError::AlreadyExists);
        }
        let meta = self.files.remove(from).ok_or(NamespaceError::NotFound)?;
        self.files.insert(to.to_string(), meta);
        Ok(())
    }

    /// File metadata.
    pub fn stat(&self, path: &str) -> Result<&FileMeta, NamespaceError> {
        self.files.get(path).ok_or(NamespaceError::NotFound)
    }

    /// Paths starting with `prefix`, in order.
    pub fn list(&self, prefix: &str) -> Vec<&str> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.as_str())
            .collect()
    }

    /// The chunk serving byte `offset` of `path`.
    pub fn chunk_at(
        &self,
        store: &ChunkStore,
        path: &str,
        offset: u64,
    ) -> Result<ChunkId, NamespaceError> {
        let meta = self.stat(path)?;
        if offset >= meta.size_bytes {
            return Err(NamespaceError::OffsetOutOfRange);
        }
        let idx = (offset / store.config().chunk_bytes) as usize;
        let chunk = meta.chunks[idx];
        if store.contains(chunk) {
            Ok(chunk)
        } else {
            Err(NamespaceError::ChunkLost)
        }
    }

    /// Health of one file against the store's current state.
    pub fn health(&self, store: &ChunkStore, path: &str) -> Result<FileHealth, NamespaceError> {
        let meta = self.stat(path)?;
        let r = store.config().replication as usize;
        let mut degraded = false;
        for &c in &meta.chunks {
            match store.replicas(c) {
                Err(_) => return Ok(FileHealth::Corrupt),
                Ok(reps) if reps.len() < r => degraded = true,
                Ok(_) => {}
            }
        }
        Ok(if degraded {
            FileHealth::Degraded
        } else {
            FileHealth::Healthy
        })
    }

    /// Paths of files that have lost at least one chunk.
    pub fn corrupt_files(&self, store: &ChunkStore) -> Vec<&str> {
        self.files
            .iter()
            .filter(|(_, m)| m.chunks.iter().any(|c| !store.contains(*c)))
            .map(|(p, _)| p.as_str())
            .collect()
    }
}

/// Namespace-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamespaceError {
    /// Path already exists.
    AlreadyExists,
    /// Path does not exist.
    NotFound,
    /// Byte offset beyond the file size.
    OffsetOutOfRange,
    /// The chunk backing this region was lost.
    ChunkLost,
    /// Underlying store error (e.g. insufficient capacity).
    Store(DifsError),
}

impl std::fmt::Display for NamespaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamespaceError::AlreadyExists => f.write_str("path already exists"),
            NamespaceError::NotFound => f.write_str("path not found"),
            NamespaceError::OffsetOutOfRange => f.write_str("offset out of range"),
            NamespaceError::ChunkLost => f.write_str("backing chunk lost"),
            NamespaceError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for NamespaceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DifsConfig;

    fn setup(nodes: u32, cap: u32) -> (Cluster, ChunkStore, Namespace) {
        let mut cluster = Cluster::new();
        for _ in 0..nodes {
            let n = cluster.add_node();
            let d = cluster.add_device(n);
            cluster.add_unit(d, cap);
        }
        (
            cluster,
            ChunkStore::new(DifsConfig::default()),
            Namespace::new(),
        )
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn create_stat_list_delete() {
        let (mut c, mut s, mut ns) = setup(4, 64);
        ns.create(&mut s, &mut c, "/data/a", 3 * MB).unwrap();
        ns.create(&mut s, &mut c, "/data/b", MB / 2).unwrap();
        ns.create(&mut s, &mut c, "/logs/x", 2 * MB).unwrap();
        assert_eq!(ns.file_count(), 3);
        assert_eq!(ns.stat("/data/a").unwrap().chunks.len(), 3);
        assert_eq!(
            ns.stat("/data/b").unwrap().chunks.len(),
            1,
            "sub-chunk file rounds up"
        );
        assert_eq!(ns.list("/data/"), vec!["/data/a", "/data/b"]);
        assert_eq!(ns.total_bytes(), 3 * MB + MB / 2 + 2 * MB);
        let used_before = c.alive_used();
        ns.delete(&mut s, &mut c, "/data/a").unwrap();
        assert_eq!(c.alive_used(), used_before - 3 * 3); // 3 chunks × R=3
        assert_eq!(ns.stat("/data/a"), Err(NamespaceError::NotFound));
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn duplicate_and_missing_paths() {
        let (mut c, mut s, mut ns) = setup(4, 16);
        ns.create(&mut s, &mut c, "/f", MB).unwrap();
        assert_eq!(
            ns.create(&mut s, &mut c, "/f", MB),
            Err(NamespaceError::AlreadyExists)
        );
        assert_eq!(
            ns.delete(&mut s, &mut c, "/nope"),
            Err(NamespaceError::NotFound)
        );
        ns.rename("/f", "/g").unwrap();
        assert!(ns.stat("/g").is_ok());
        assert_eq!(ns.rename("/nope", "/h"), Err(NamespaceError::NotFound));
    }

    #[test]
    fn allocation_rolls_back_on_capacity_exhaustion() {
        // 3 units × 2 chunks = 6 placements = 2 chunks of capacity at R=3.
        let (mut c, mut s, mut ns) = setup(3, 2);
        let used_before = c.alive_used();
        assert!(matches!(
            ns.create(&mut s, &mut c, "/big", 10 * MB),
            Err(NamespaceError::Store(DifsError::InsufficientCapacity))
        ));
        assert_eq!(c.alive_used(), used_before, "partial allocation released");
        assert_eq!(ns.file_count(), 0);
        // A file that fits still works.
        ns.create(&mut s, &mut c, "/small", 2 * MB).unwrap();
    }

    #[test]
    fn offset_to_chunk_mapping() {
        let (mut c, mut s, mut ns) = setup(4, 64);
        ns.create(&mut s, &mut c, "/f", 3 * MB).unwrap();
        let meta = ns.stat("/f").unwrap().clone();
        assert_eq!(ns.chunk_at(&s, "/f", 0).unwrap(), meta.chunks[0]);
        assert_eq!(ns.chunk_at(&s, "/f", MB).unwrap(), meta.chunks[1]);
        assert_eq!(ns.chunk_at(&s, "/f", 3 * MB - 1).unwrap(), meta.chunks[2]);
        assert_eq!(
            ns.chunk_at(&s, "/f", 3 * MB),
            Err(NamespaceError::OffsetOutOfRange)
        );
    }

    #[test]
    fn health_tracks_chunk_state() {
        let (mut c, mut s, mut ns) = setup(3, 16);
        ns.create(&mut s, &mut c, "/f", 2 * MB).unwrap();
        assert_eq!(ns.health(&s, "/f"), Ok(FileHealth::Healthy));
        // Fail one unit: with only 3 devices there is nowhere to repair,
        // so the file degrades.
        let unit = c.alive_units().next().map(|(id, _)| id).unwrap();
        s.fail_unit(&mut c, unit);
        assert_eq!(ns.health(&s, "/f"), Ok(FileHealth::Degraded));
        // Fail everything: the file is corrupt.
        let rest: Vec<_> = c.alive_units().map(|(id, _)| id).collect();
        for u in rest {
            s.fail_unit(&mut c, u);
        }
        assert_eq!(ns.health(&s, "/f"), Ok(FileHealth::Corrupt));
        assert_eq!(ns.corrupt_files(&s), vec!["/f"]);
        assert_eq!(ns.chunk_at(&s, "/f", 0), Err(NamespaceError::ChunkLost));
    }
}
