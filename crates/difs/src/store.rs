//! The replicated chunk store: creation, failure handling, re-replication,
//! and recovery-traffic accounting (§4.3 of the paper).

use crate::cluster::Cluster;
use crate::placement::choose_targets;
use crate::types::{ChunkId, DifsConfig, DifsError, UnitId};
use salamander_obs::cluster::{exposure_bucket, fullness_bucket};
use salamander_obs::{ClusterRollup, Obs, SimTime, TraceEvent, EXPOSURE_BUCKETS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Recovery and durability metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreMetrics {
    /// Bytes re-replicated after failures (the paper's recovery traffic).
    pub recovery_bytes: u64,
    /// Individual replica re-creations.
    pub re_replications: u64,
    /// Chunks currently below the replication factor.
    pub under_replicated: u64,
    /// Chunks whose last replica failed before recovery (data loss).
    pub lost_chunks: u64,
    /// Bytes moved by proactive drains (migration, not failure recovery).
    pub migration_bytes: u64,
    /// Σ over ticks of the under-replicated chunk count: the exposure
    /// integral (chunk-ticks spent below full replication).
    pub exposure_chunk_ticks: u64,
    /// Peak simultaneous under-replication.
    pub max_under_replicated: u64,
}

/// The chunk store. Owns chunk → replica mappings; topology lives in
/// [`Cluster`].
#[derive(Debug, Clone)]
pub struct ChunkStore {
    cfg: DifsConfig,
    next_chunk: u64,
    chunks: BTreeMap<ChunkId, Vec<UnitId>>,
    /// Chunks needing more replicas (retried when capacity appears).
    /// Ordered so retries repair in chunk order — [`Self::retry_pending`]
    /// iterates it, and the repair order is trace-visible (DESIGN.md §9).
    pending: BTreeSet<ChunkId>,
    /// FIFO repair queue when recovery bandwidth is limited.
    repair_queue: std::collections::VecDeque<ChunkId>,
    /// Tick (`now.day`) each under-replicated chunk became exposed —
    /// the open replication-exposure windows (DESIGN.md §16).
    exposed_since: BTreeMap<ChunkId, u32>,
    /// Cumulative closed exposure windows, log2-bucketed by dwell ticks.
    exposure_hist: Vec<u64>,
    /// Cumulative closed exposure windows (Σ of `exposure_hist`).
    exposure_windows: u64,
    metrics: StoreMetrics,
    /// Observability handles (DESIGN.md §9); disabled by default.
    obs: Obs,
    /// Simulated clock for trace stamps, set by the driving harness.
    now: SimTime,
}

impl ChunkStore {
    /// An empty store.
    pub fn new(cfg: DifsConfig) -> Self {
        ChunkStore {
            cfg,
            next_chunk: 0,
            chunks: BTreeMap::new(),
            pending: BTreeSet::new(),
            repair_queue: std::collections::VecDeque::new(),
            exposed_since: BTreeMap::new(),
            exposure_hist: vec![0; EXPOSURE_BUCKETS],
            exposure_windows: 0,
            metrics: StoreMetrics::default(),
            obs: Obs::disabled(),
            now: SimTime::ZERO,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &DifsConfig {
        &self.cfg
    }

    /// Attach (or detach, with a disabled bundle) observability handles.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Set the simulated clock used to stamp trace events. The store has
    /// no clock of its own; the driving harness advances it (e.g. once
    /// per churn round).
    pub fn set_time(&mut self, day: u32) {
        self.now = SimTime::new(day, 0);
    }

    /// Export recovery counters into the attached metrics registry.
    /// Delta-based and idempotent: safe to call repeatedly (e.g. per
    /// round and once at the end of a run).
    pub fn export_metrics(&self) {
        let metrics = &self.obs.metrics;
        if !metrics.is_enabled() {
            return;
        }
        let m = self.metrics();
        for (key, v) in [
            ("salamander_difs_re_replications_total", m.re_replications),
            ("salamander_difs_recovery_bytes_total", m.recovery_bytes),
            ("salamander_difs_lost_chunks_total", m.lost_chunks),
            ("salamander_difs_migration_bytes_total", m.migration_bytes),
            (
                "salamander_difs_exposure_chunk_ticks_total",
                m.exposure_chunk_ticks,
            ),
        ] {
            metrics.inc(key, v.saturating_sub(metrics.counter(key)));
        }
        metrics.set_gauge(
            "salamander_difs_under_replicated",
            m.under_replicated as f64,
        );
        metrics.set_gauge(
            "salamander_difs_max_under_replicated",
            m.max_under_replicated as f64,
        );
        // FIFO repair-queue depth: under throttled recovery this is
        // the backlog still waiting for bandwidth, visible between
        // ticks (always zero in unlimited mode).
        metrics.set_gauge(
            "salamander_difs_pending_repairs",
            self.repair_queue.len() as f64,
        );
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        let mut m = self.metrics;
        m.under_replicated = self.pending.len() as u64;
        m
    }

    /// Depth of the FIFO repair queue (chunks waiting for recovery
    /// bandwidth; always zero in unlimited mode).
    pub fn pending_repairs(&self) -> u64 {
        self.repair_queue.len() as u64
    }

    /// Close the exposure window of `chunk` (repaired, lost, or
    /// deleted): its dwell in ticks joins the cumulative histogram.
    fn close_exposure(&mut self, chunk: ChunkId) {
        if let Some(since) = self.exposed_since.remove(&chunk) {
            let dwell = u64::from(self.now.day.saturating_sub(since));
            self.exposure_hist[exposure_bucket(dwell)] += 1;
            self.exposure_windows += 1;
        }
    }

    /// Snapshot the cluster durability rollup for the current tick
    /// (DESIGN.md §16): replication-state counts and the backlog from
    /// the chunk map, traffic from the cumulative counters, fullness
    /// from the alive units, exposure from the cumulative histogram,
    /// and `data_at_risk` = Σ over exposed chunks of chunk_bytes ×
    /// missing replicas × dwell ticks.
    pub fn cluster_rollup(&self, cluster: &Cluster) -> ClusterRollup {
        let mut r = ClusterRollup::empty(self.now.day);
        let replication = self.cfg.replication as usize;
        for reps in self.chunks.values() {
            match replication.saturating_sub(reps.len()) {
                0 => r.full += 1,
                1 => r.degraded += 1,
                _ => r.critical += 1,
            }
            let missing = replication.saturating_sub(reps.len()) as u64;
            if missing > 0 {
                r.backlog_chunks += 1;
                r.backlog_bytes = r
                    .backlog_bytes
                    .saturating_add(missing.saturating_mul(self.cfg.chunk_bytes));
            }
        }
        r.lost = self.metrics.lost_chunks;
        r.repair_bytes = self.metrics.recovery_bytes;
        r.drain_bytes = self.metrics.migration_bytes;
        for (chunk, since) in &self.exposed_since {
            let Some(reps) = self.chunks.get(chunk) else {
                continue;
            };
            let missing = replication.saturating_sub(reps.len()) as u64;
            let dwell = u64::from(self.now.day.saturating_sub(*since));
            r.data_at_risk = r.data_at_risk.saturating_add(
                self.cfg
                    .chunk_bytes
                    .saturating_mul(missing)
                    .saturating_mul(dwell),
            );
        }
        for (_, unit) in cluster.alive_units() {
            r.fullness[fullness_bucket(u64::from(unit.used), u64::from(unit.capacity))] += 1;
        }
        r.exposure.clone_from(&self.exposure_hist);
        r.exposure_windows = self.exposure_windows;
        r
    }

    /// Number of live chunks.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Replica set of a chunk.
    pub fn replicas(&self, chunk: ChunkId) -> Result<&[UnitId], DifsError> {
        self.chunks
            .get(&chunk)
            .map(|v| v.as_slice())
            .ok_or(DifsError::NoSuchChunk)
    }

    /// Create a fully replicated chunk.
    pub fn create_chunk(&mut self, cluster: &mut Cluster) -> Result<ChunkId, DifsError> {
        let targets = choose_targets(
            cluster,
            self.cfg.replication as usize,
            &HashSet::new(),
            &HashSet::new(),
        );
        if targets.len() < self.cfg.replication as usize {
            return Err(DifsError::InsufficientCapacity);
        }
        let id = ChunkId(self.next_chunk);
        self.next_chunk += 1;
        for &t in &targets {
            cluster.unit_mut(t).expect("placed on known unit").used += 1;
        }
        self.chunks.insert(id, targets);
        Ok(id)
    }

    /// Whether `chunk` still exists (not lost).
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.chunks.contains_key(&chunk)
    }

    /// Delete a chunk, releasing its replicas' space.
    pub fn delete_chunk(&mut self, cluster: &mut Cluster, chunk: ChunkId) -> Result<(), DifsError> {
        let reps = self.chunks.remove(&chunk).ok_or(DifsError::NoSuchChunk)?;
        self.pending.remove(&chunk);
        // Deletion ends any exposure: the data no longer exists to be
        // at risk, and the window closes at its dwell so far.
        self.close_exposure(chunk);
        for u in reps {
            if let Some(unit) = cluster.unit_mut(u) {
                unit.used = unit.used.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Handle a unit failure: drop its replicas and re-replicate each
    /// affected chunk elsewhere. Chunks that cannot be fixed now are left
    /// under-replicated and retried by [`Self::retry_pending`]; chunks
    /// whose last replica vanished are counted lost and removed.
    pub fn fail_unit(&mut self, cluster: &mut Cluster, unit: UnitId) {
        cluster.fail_unit(unit);
        let affected: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, reps)| reps.contains(&unit))
            .map(|(id, _)| *id)
            .collect();
        for chunk in affected {
            let reps = self.chunks.get_mut(&chunk).expect("chunk exists");
            reps.retain(|&u| u != unit);
            if reps.is_empty() {
                self.chunks.remove(&chunk);
                self.pending.remove(&chunk);
                // A loss closes the window too: the dwell it accrued
                // while under-replicated still describes how long the
                // system sat exposed before the last replica went.
                self.close_exposure(chunk);
                self.metrics.lost_chunks += 1;
                self.obs
                    .trace
                    .emit(self.now, TraceEvent::ChunkLost { chunk: chunk.0 });
                continue;
            }
            // The chunk is now under-replicated: open its exposure
            // window (kept open across repeated failures — the clock
            // starts at the first missing replica).
            self.exposed_since.entry(chunk).or_insert(self.now.day);
            if self.cfg.recovery_chunks_per_tick.is_some() {
                // Bandwidth-limited: queue for a later tick.
                if self.pending.insert(chunk) {
                    self.repair_queue.push_back(chunk);
                }
            } else {
                self.repair_chunk(cluster, chunk);
            }
        }
    }

    /// One recovery round under limited bandwidth: repair up to the
    /// configured number of queued chunks, then account the exposure
    /// integral. A no-op for unlimited-bandwidth stores (aside from
    /// exposure accounting, which is then always zero-valued unless
    /// placement is stuck).
    pub fn tick(&mut self, cluster: &mut Cluster) {
        // Account the exposure as it stood over the elapsed interval,
        // before this round's repairs run.
        let exposed = self.pending.len() as u64;
        self.metrics.exposure_chunk_ticks += exposed;
        self.metrics.max_under_replicated = self.metrics.max_under_replicated.max(exposed);
        if let Some(budget) = self.cfg.recovery_chunks_per_tick {
            let mut repaired = 0;
            while repaired < budget {
                let Some(chunk) = self.repair_queue.pop_front() else {
                    break;
                };
                if !self.pending.contains(&chunk) {
                    continue; // already repaired (e.g. by retry_pending)
                }
                self.repair_chunk(cluster, chunk);
                if self.pending.contains(&chunk) {
                    // Could not place yet; keep it queued for later.
                    self.repair_queue.push_back(chunk);
                    break;
                }
                repaired += 1;
            }
        }
    }

    /// Proactively move up to `budget` chunks off `unit` (graceful drain
    /// ahead of a predicted failure): each moved chunk gets a replica
    /// elsewhere first, then releases the at-risk one. Returns how many
    /// chunks were moved; chunks that cannot be placed stay put.
    pub fn drain_unit(&mut self, cluster: &mut Cluster, unit: UnitId, budget: u32) -> u32 {
        let on_unit: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, reps)| reps.contains(&unit))
            .map(|(id, _)| *id)
            .take(budget as usize)
            .collect();
        let mut moved = 0;
        for chunk in on_unit {
            let reps = self.chunks.get(&chunk).expect("chunk exists");
            let exclude_devices: HashSet<_> = reps
                .iter()
                .filter_map(|&u| cluster.unit(u).map(|x| x.device))
                .collect();
            let exclude_nodes: HashSet<_> = reps
                .iter()
                .filter_map(|&u| cluster.unit(u).map(|x| x.node))
                .collect();
            let targets = choose_targets(cluster, 1, &exclude_devices, &exclude_nodes);
            let Some(&target) = targets.first() else {
                continue;
            };
            cluster.unit_mut(target).expect("known unit").used += 1;
            if let Some(u) = cluster.unit_mut(unit) {
                u.used = u.used.saturating_sub(1);
            }
            let reps = self.chunks.get_mut(&chunk).expect("chunk exists");
            reps.retain(|&u| u != unit);
            reps.push(target);
            self.metrics.migration_bytes += self.cfg.chunk_bytes;
            moved += 1;
        }
        moved
    }

    /// Fail every unit of a device (baseline whole-SSD failure).
    pub fn fail_device(&mut self, cluster: &mut Cluster, device: crate::types::DeviceId) {
        let failed = cluster.fail_device(device);
        for u in failed {
            self.fail_unit(cluster, u);
        }
    }

    /// Retry under-replicated chunks (call after adding capacity).
    pub fn retry_pending(&mut self, cluster: &mut Cluster) {
        let pending: Vec<ChunkId> = self.pending.iter().copied().collect();
        for chunk in pending {
            self.repair_chunk(cluster, chunk);
        }
    }

    /// Bring one chunk back to full replication if placement allows.
    fn repair_chunk(&mut self, cluster: &mut Cluster, chunk: ChunkId) {
        let Some(reps) = self.chunks.get(&chunk) else {
            self.pending.remove(&chunk);
            self.exposed_since.remove(&chunk);
            return;
        };
        let missing = (self.cfg.replication as usize).saturating_sub(reps.len());
        if missing == 0 {
            self.pending.remove(&chunk);
            self.close_exposure(chunk);
            return;
        }
        let exclude_devices: HashSet<_> = reps
            .iter()
            .filter_map(|&u| cluster.unit(u).map(|x| x.device))
            .collect();
        let exclude_nodes: HashSet<_> = reps
            .iter()
            .filter_map(|&u| cluster.unit(u).map(|x| x.node))
            .collect();
        let targets = choose_targets(cluster, missing, &exclude_devices, &exclude_nodes);
        let placed = targets.len();
        for &t in &targets {
            cluster.unit_mut(t).expect("placed on known unit").used += 1;
            self.chunks.get_mut(&chunk).expect("chunk exists").push(t);
            self.metrics.re_replications += 1;
            self.metrics.recovery_bytes += self.cfg.chunk_bytes;
        }
        if placed > 0 {
            self.obs.trace.emit(
                self.now,
                TraceEvent::ChunkReReplicated {
                    chunk: chunk.0,
                    bytes: placed as u64 * self.cfg.chunk_bytes,
                },
            );
        }
        if placed < missing {
            self.pending.insert(chunk);
        } else {
            self.pending.remove(&chunk);
            self.close_exposure(chunk);
        }
    }

    /// Build the current tick's [`ClusterRollup`] and emit it on the
    /// trace. Called once per churn round by the driving harness.
    pub fn emit_cluster_rollup(&self, cluster: &Cluster) -> ClusterRollup {
        let r = self.cluster_rollup(cluster);
        self.obs
            .trace
            .emit(self.now, TraceEvent::ClusterRollup(r.clone()));
        r
    }

    /// Consistency check: replica sets are distinct-device, sized ≤ R,
    /// every replica is alive, and unit `used` counters match (tests only).
    pub fn check_invariants(&self, cluster: &Cluster) -> Result<(), String> {
        let mut used: BTreeMap<UnitId, u32> = BTreeMap::new();
        for (chunk, reps) in &self.chunks {
            if reps.len() > self.cfg.replication as usize {
                return Err(format!("{chunk:?} over-replicated"));
            }
            let mut devices = HashSet::new();
            for &u in reps {
                let unit = cluster.unit(u).ok_or(format!("{chunk:?} unknown unit"))?;
                if !unit.alive {
                    return Err(format!("{chunk:?} replica on dead unit {u:?}"));
                }
                if !devices.insert(unit.device) {
                    return Err(format!("{chunk:?} two replicas on one device"));
                }
                *used.entry(u).or_default() += 1;
            }
            if reps.len() < self.cfg.replication as usize && !self.pending.contains(chunk) {
                return Err(format!("{chunk:?} under-replicated but not pending"));
            }
        }
        for (id, unit) in cluster.units() {
            let expect = used.get(&id).copied().unwrap_or(0);
            if unit.alive && unit.used != expect {
                return Err(format!(
                    "{id:?} used={} but {} chunks reference it",
                    unit.used, expect
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;
    use salamander_obs::Rollup;

    /// `nodes × devices_per_node × units_per_device`, each unit `cap` chunks.
    fn build(nodes: u32, devs: u32, units: u32, cap: u32) -> (Cluster, Vec<UnitId>) {
        let mut c = Cluster::new();
        let mut ids = Vec::new();
        for _ in 0..nodes {
            let n = c.add_node();
            for _ in 0..devs {
                let d = c.add_device(n);
                for _ in 0..units {
                    ids.push(c.add_unit(d, cap));
                }
            }
        }
        (c, ids)
    }

    #[test]
    fn create_and_verify() {
        let (mut c, _) = build(4, 1, 2, 8);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..10 {
            s.create_chunk(&mut c).unwrap();
        }
        assert_eq!(s.chunk_count(), 10);
        s.check_invariants(&c).unwrap();
        assert_eq!(c.alive_used(), 30); // 10 chunks × 3 replicas
    }

    #[test]
    fn capacity_exhaustion_rejected() {
        let (mut c, _) = build(3, 1, 1, 2);
        let mut s = ChunkStore::new(DifsConfig::default());
        s.create_chunk(&mut c).unwrap();
        s.create_chunk(&mut c).unwrap();
        assert_eq!(s.create_chunk(&mut c), Err(DifsError::InsufficientCapacity));
    }

    #[test]
    fn failure_triggers_re_replication() {
        let (mut c, units) = build(4, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..5 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let victim_chunks = c.unit(victim).unwrap().used;
        s.fail_unit(&mut c, victim);
        s.check_invariants(&c).unwrap();
        let m = s.metrics();
        assert_eq!(m.re_replications, victim_chunks as u64);
        assert_eq!(
            m.recovery_bytes,
            victim_chunks as u64 * s.config().chunk_bytes
        );
        assert_eq!(m.under_replicated, 0);
        assert_eq!(m.lost_chunks, 0);
    }

    #[test]
    fn under_replication_then_retry() {
        // Exactly 3 devices: losing one leaves nowhere to re-replicate.
        let (mut c, units) = build(3, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        let chunk = s.create_chunk(&mut c).unwrap();
        s.fail_unit(&mut c, units[0]);
        assert_eq!(s.metrics().under_replicated, 1);
        assert_eq!(s.replicas(chunk).unwrap().len(), 2);
        s.check_invariants(&c).unwrap();
        // New capacity arrives (a regenerated minidisk, say).
        let n = c.add_node();
        let d = c.add_device(n);
        c.add_unit(d, 10);
        s.retry_pending(&mut c);
        assert_eq!(s.metrics().under_replicated, 0);
        assert_eq!(s.replicas(chunk).unwrap().len(), 3);
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn simultaneous_total_loss_counted() {
        let (mut c, units) = build(3, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        let chunk = s.create_chunk(&mut c).unwrap();
        for &u in &units {
            s.fail_unit(&mut c, u);
        }
        assert_eq!(s.metrics().lost_chunks, 1);
        assert_eq!(s.replicas(chunk), Err(DifsError::NoSuchChunk));
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn device_failure_fails_all_its_units() {
        let (mut c, _) = build(4, 1, 4, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..8 {
            s.create_chunk(&mut c).unwrap();
        }
        s.fail_device(&mut c, DeviceId(0));
        s.check_invariants(&c).unwrap();
        assert_eq!(c.alive_unit_count(), 12);
        // Everything that lived on device 0 was re-replicated.
        assert_eq!(s.metrics().under_replicated, 0);
    }

    #[test]
    fn bandwidth_limited_recovery_opens_exposure_window() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig {
            replication: 3,
            chunk_bytes: 1 << 20,
            recovery_chunks_per_tick: Some(2),
        });
        for _ in 0..10 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let affected = c.unit(victim).unwrap().used;
        assert!(
            affected > 2,
            "want a backlog bigger than the per-tick budget"
        );
        s.fail_unit(&mut c, victim);
        // Nothing repaired yet: the queue holds everything.
        assert_eq!(s.metrics().under_replicated, affected as u64);
        let mut ticks = 0;
        while s.metrics().under_replicated > 0 {
            s.tick(&mut c);
            ticks += 1;
            assert!(ticks < 100, "recovery must converge");
        }
        let m = s.metrics();
        assert!(ticks >= affected.div_ceil(2), "throttled to 2/tick");
        assert!(m.exposure_chunk_ticks > 0);
        assert_eq!(m.max_under_replicated, affected as u64);
        assert_eq!(m.re_replications, affected as u64);
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn synchronous_mode_has_no_exposure() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..10 {
            s.create_chunk(&mut c).unwrap();
        }
        s.fail_unit(&mut c, units[0]);
        s.tick(&mut c);
        let m = s.metrics();
        assert_eq!(m.exposure_chunk_ticks, 0);
        assert_eq!(m.under_replicated, 0);
    }

    #[test]
    fn drain_unit_moves_chunks_without_exposure() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..8 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let on_victim = c.unit(victim).unwrap().used;
        assert!(on_victim > 0);
        let moved = s.drain_unit(&mut c, victim, 100);
        assert_eq!(moved, on_victim);
        assert_eq!(c.unit(victim).unwrap().used, 0);
        let m = s.metrics();
        assert_eq!(m.migration_bytes, on_victim as u64 * (1 << 20));
        assert_eq!(m.recovery_bytes, 0, "drain is migration, not recovery");
        // Failing the now-empty unit costs nothing.
        s.fail_unit(&mut c, victim);
        assert_eq!(s.metrics().re_replications, 0);
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn drain_respects_budget() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..8 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let before = c.unit(victim).unwrap().used;
        assert!(before >= 2);
        let moved = s.drain_unit(&mut c, victim, 1);
        assert_eq!(moved, 1);
        assert_eq!(c.unit(victim).unwrap().used, before - 1);
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn drain_then_fail_splits_bytes_without_gap_or_double_count() {
        // A unit fails mid-drain: chunks already moved were charged to
        // migration_bytes and cost nothing again; chunks still on the
        // unit are charged to recovery_bytes. Together they account
        // for every byte that was on the unit — exactly once.
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..8 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let on_victim = c.unit(victim).unwrap().used as u64;
        assert!(on_victim >= 3, "need a partial drain to be possible");
        let moved = s.drain_unit(&mut c, victim, 1) as u64;
        assert_eq!(moved, 1);
        s.fail_unit(&mut c, victim);
        s.check_invariants(&c).unwrap();
        let m = s.metrics();
        let chunk = s.config().chunk_bytes;
        assert_eq!(m.migration_bytes, moved * chunk, "drained portion");
        assert_eq!(
            m.recovery_bytes,
            (on_victim - moved) * chunk,
            "failed portion"
        );
        assert_eq!(
            m.migration_bytes + m.recovery_bytes,
            on_victim * chunk,
            "no gap, no double count"
        );
        assert_eq!(m.re_replications, on_victim - moved);
    }

    #[test]
    fn exposure_windows_measure_dwell_ticks() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig {
            replication: 3,
            chunk_bytes: 1 << 20,
            recovery_chunks_per_tick: Some(1),
        });
        for _ in 0..6 {
            s.create_chunk(&mut c).unwrap();
        }
        s.set_time(0);
        let victim = units[0];
        let affected = c.unit(victim).unwrap().used as u64;
        assert!(affected >= 2);
        s.fail_unit(&mut c, victim);
        let mut day = 0;
        while s.metrics().under_replicated > 0 {
            day += 1;
            s.set_time(day);
            s.tick(&mut c);
            assert!(day < 100, "recovery must converge");
        }
        let r = s.cluster_rollup(&c);
        assert_eq!(r.exposure_windows, affected, "every window closed");
        assert_eq!(r.exposure.iter().sum::<u64>(), affected);
        // One chunk per tick: the last repair waited `affected` ticks,
        // so the top percentile clears one tick for sure.
        assert!(r.series_value("exposure_p99").unwrap() > 1);
        assert_eq!(r.backlog_chunks, 0);
        assert_eq!(r.data_at_risk, 0, "nothing exposed once repaired");
    }

    #[test]
    fn rollup_snapshot_classifies_states_and_prices_risk() {
        // Exactly 3 devices: a failure leaves nowhere to repair, so the
        // exposed state (and its dwell pricing) is observable.
        let (mut c, units) = build(3, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        for _ in 0..4 {
            s.create_chunk(&mut c).unwrap();
        }
        s.set_time(0);
        s.fail_unit(&mut c, units[0]);
        let exposed = s.metrics().under_replicated;
        assert_eq!(exposed, 4, "every chunk had a replica on the unit");
        s.set_time(3);
        let r = s.cluster_rollup(&c);
        assert_eq!(r.day, 3);
        assert_eq!(r.full, 0);
        assert_eq!(r.degraded, 4);
        assert_eq!(r.critical, 0);
        assert_eq!(r.lost, 0);
        assert_eq!(r.backlog_chunks, 4);
        let chunk = s.config().chunk_bytes;
        assert_eq!(r.backlog_bytes, 4 * chunk);
        // 4 chunks × 1 missing replica × 3 ticks of dwell.
        assert_eq!(r.data_at_risk, 4 * chunk * 3);
        assert_eq!(r.exposure_windows, 0, "windows still open");
        // Two alive units of 3 remain, and they appear in fullness.
        assert_eq!(r.fullness.iter().sum::<u32>(), 2);
        // Capacity arrives; repairs close the windows at dwell 3→4.
        let n = c.add_node();
        let d = c.add_device(n);
        c.add_unit(d, 10);
        s.set_time(4);
        s.retry_pending(&mut c);
        let r = s.cluster_rollup(&c);
        assert_eq!(r.full, 4);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.exposure_windows, 4);
        assert_eq!(r.data_at_risk, 0);
        s.check_invariants(&c).unwrap();
    }

    #[test]
    fn lost_chunks_close_their_windows() {
        let (mut c, units) = build(3, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig::default());
        s.create_chunk(&mut c).unwrap();
        s.set_time(0);
        s.fail_unit(&mut c, units[0]);
        s.set_time(5);
        s.fail_unit(&mut c, units[1]);
        s.fail_unit(&mut c, units[2]);
        let r = s.cluster_rollup(&c);
        assert_eq!(r.lost, 1);
        assert_eq!(r.exposure_windows, 1, "loss closed the window");
        assert_eq!(r.data_at_risk, 0, "lost data is no longer at risk");
        assert_eq!(r.backlog_chunks, 0);
    }

    #[test]
    fn pending_repairs_gauge_tracks_queue_depth() {
        let (mut c, units) = build(6, 1, 1, 10);
        let mut s = ChunkStore::new(DifsConfig {
            replication: 3,
            chunk_bytes: 1 << 20,
            recovery_chunks_per_tick: Some(2),
        });
        for _ in 0..10 {
            s.create_chunk(&mut c).unwrap();
        }
        let victim = units[0];
        let affected = c.unit(victim).unwrap().used as u64;
        s.fail_unit(&mut c, victim);
        assert_eq!(s.pending_repairs(), affected);
        s.tick(&mut c);
        assert_eq!(s.pending_repairs(), affected - 2);
        assert_eq!(s.metrics().under_replicated, affected - 2);
    }

    #[test]
    fn recovery_traffic_proportional_to_failed_valid_data() {
        // The §4.3 claim: failing N small units costs the same traffic as
        // one big unit holding the same data.
        let run = |units_per_device: u32, cap: u32| {
            let (mut c, _) = build(4, 1, units_per_device, cap);
            let mut s = ChunkStore::new(DifsConfig::default());
            for _ in 0..10 {
                s.create_chunk(&mut c).unwrap();
            }
            let on_device: u64 = c
                .units()
                .filter(|(_, u)| u.device == DeviceId(0))
                .map(|(_, u)| u.used as u64)
                .sum();
            s.fail_device(&mut c, DeviceId(0));
            (
                on_device,
                s.metrics().recovery_bytes,
                s.config().chunk_bytes,
            )
        };
        // Whether the device exposes 1 unit of 16 chunks or 16 units of 1
        // chunk, recovery traffic equals exactly the valid data that was on
        // the failed device.
        for (units, cap) in [(1u32, 16u32), (16, 1)] {
            let (valid, bytes, chunk) = run(units, cap);
            assert!(valid > 0);
            assert_eq!(bytes, valid * chunk, "units={units}");
        }
    }
}
