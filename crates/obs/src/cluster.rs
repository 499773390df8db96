//! Cluster durability rollups (DESIGN.md §16).
//!
//! The diFS layer's fault-tolerance story is quantitative: shrinking is
//! cheap only if the volume of re-replicated data and the windows of
//! reduced redundancy stay small. A [`ClusterRollup`] is one per-tick
//! aggregate of exactly that — chunk counts by replication state,
//! recovery backlog, recovery traffic split by cause (failure repair vs
//! proactive drain), a per-unit fullness-imbalance histogram, and a
//! log2 histogram of closed replication-exposure windows with exact
//! nearest-rank percentiles — plus an MTTDL-style `data_at_risk`
//! figure derived from degraded-chunk dwell times.
//!
//! Determinism follows the [`crate::rollup`] recipe verbatim: every
//! field is a saturating integer, histograms merge element-wise in
//! shard order via [`ClusterKernel`], and percentiles are extracted
//! exactly from bucket edges. Two runs producing the same chunk-store
//! history produce byte-identical rollups at any thread count.

use crate::event::TraceEvent;
use crate::rollup::{nearest_rank, Rollup};
use serde::{Deserialize, Serialize};

/// Buckets in the per-unit fullness histogram: bucket `i` covers the
/// half-open used/capacity range `[i/16, (i+1)/16)`, the last bucket
/// closed at 1.0 by clamping.
pub const FULLNESS_BUCKETS: usize = 16;

/// Buckets in the exposure-window log2 histogram: bucket 0 holds
/// zero-tick windows (failed and repaired within one tick); bucket
/// `i >= 1` holds windows of `[2^(i-1), 2^i)` ticks. 33 buckets cover
/// every u32 tick count; longer windows clamp into the last bucket.
pub const EXPOSURE_BUCKETS: usize = 33;

/// The exposure-window percentiles extracted for tables and series,
/// as (name, permille rank) pairs.
pub const EXPOSURE_STATS: [(&str, u32); 3] = [("p50", 500), ("p90", 900), ("p99", 990)];

/// Scalar series names a [`ClusterRollup`] serves (exposure
/// percentiles come on top as `exposure_p50|p90|p99`).
pub const CLUSTER_SCALARS: [&str; 10] = [
    "full",
    "degraded",
    "critical",
    "lost",
    "backlog_chunks",
    "backlog_bytes",
    "repair_bytes",
    "drain_bytes",
    "data_at_risk",
    "exposure_windows",
];

/// Histogram bucket for an exposure window of `ticks`. Monotone in
/// `ticks`, clamped to the last bucket.
pub fn exposure_bucket(ticks: u64) -> usize {
    if ticks == 0 {
        return 0;
    }
    (64 - ticks.leading_zeros() as usize).min(EXPOSURE_BUCKETS - 1)
}

/// Exclusive upper edge (ticks) of exposure bucket `i` — the value
/// percentiles report. Every window in bucket `i < EXPOSURE_BUCKETS-1`
/// satisfies `ticks < exposure_upper_ticks(i)`.
pub fn exposure_upper_ticks(i: usize) -> u64 {
    1u64 << i
}

/// One per-tick cluster durability aggregate. Counts classify every
/// live chunk by how many of its R replicas are missing: `full` (none),
/// `degraded` (exactly one), `critical` (two or more, at least one
/// left). `lost`, traffic, and the exposure histogram are cumulative
/// over the run, so the final rollup carries the whole story.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterRollup {
    /// Simulation tick (churn round) this rollup describes.
    pub day: u32,
    /// Chunks with every replica in place.
    pub full: u64,
    /// Chunks missing exactly one replica.
    pub degraded: u64,
    /// Chunks missing two or more replicas but not yet lost.
    pub critical: u64,
    /// Cumulative chunks lost (all replicas gone).
    pub lost: u64,
    /// Under-replicated chunks awaiting repair (the recovery backlog).
    pub backlog_chunks: u64,
    /// Missing-replica bytes in the backlog: Σ missing × chunk_bytes.
    pub backlog_bytes: u64,
    /// Cumulative bytes re-replicated repairing unit failures.
    pub repair_bytes: u64,
    /// Cumulative bytes moved by proactive drains (never exposed).
    pub drain_bytes: u64,
    /// MTTDL-style byte·tick exposure integral: Σ over currently
    /// under-replicated chunks of chunk_bytes × missing replicas ×
    /// ticks spent exposed so far. Zero means no data is at risk.
    pub data_at_risk: u64,
    /// Per-unit fullness histogram over alive units:
    /// [`FULLNESS_BUCKETS`] counts of used/capacity.
    pub fullness: Vec<u32>,
    /// Cumulative closed exposure windows, log2-bucketed by dwell
    /// ticks ([`EXPOSURE_BUCKETS`] wide).
    pub exposure: Vec<u64>,
    /// Cumulative closed exposure windows (Σ of `exposure`).
    pub exposure_windows: u64,
}

impl ClusterRollup {
    /// An all-zero rollup for tick `day`.
    pub fn empty(day: u32) -> Self {
        ClusterRollup {
            day,
            full: 0,
            degraded: 0,
            critical: 0,
            lost: 0,
            backlog_chunks: 0,
            backlog_bytes: 0,
            repair_bytes: 0,
            drain_bytes: 0,
            data_at_risk: 0,
            fullness: vec![0; FULLNESS_BUCKETS],
            exposure: vec![0; EXPOSURE_BUCKETS],
            exposure_windows: 0,
        }
    }

    /// Nearest-rank exposure-window percentile (permille), `None` when
    /// no window has closed yet.
    pub fn exposure_percentile(&self, q_permille: u32) -> Option<u64> {
        nearest_rank(&self.exposure, q_permille).map(exposure_upper_ticks)
    }

    /// Element-wise saturating merge (keeps `self.day`). Commutative,
    /// but callers merge in shard order regardless.
    pub fn merge(&mut self, other: &ClusterRollup) {
        self.full = self.full.saturating_add(other.full);
        self.degraded = self.degraded.saturating_add(other.degraded);
        self.critical = self.critical.saturating_add(other.critical);
        self.lost = self.lost.saturating_add(other.lost);
        self.backlog_chunks = self.backlog_chunks.saturating_add(other.backlog_chunks);
        self.backlog_bytes = self.backlog_bytes.saturating_add(other.backlog_bytes);
        self.repair_bytes = self.repair_bytes.saturating_add(other.repair_bytes);
        self.drain_bytes = self.drain_bytes.saturating_add(other.drain_bytes);
        self.data_at_risk = self.data_at_risk.saturating_add(other.data_at_risk);
        for (a, b) in self.fullness.iter_mut().zip(&other.fullness) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.exposure.iter_mut().zip(&other.exposure) {
            *a = a.saturating_add(*b);
        }
        self.exposure_windows = self.exposure_windows.saturating_add(other.exposure_windows);
    }
}

impl Rollup for ClusterRollup {
    fn from_event(event: &TraceEvent) -> Option<&Self> {
        match event {
            TraceEvent::ClusterRollup(r) => Some(r),
            _ => None,
        }
    }

    fn day(&self) -> u32 {
        self.day
    }

    /// One of [`CLUSTER_SCALARS`], or `exposure_p50|p90|p99` (window
    /// upper edge in ticks; `None` before any window has closed).
    fn series_value(&self, metric: &str) -> Option<u64> {
        match metric {
            "full" => return Some(self.full),
            "degraded" => return Some(self.degraded),
            "critical" => return Some(self.critical),
            "lost" => return Some(self.lost),
            "backlog_chunks" => return Some(self.backlog_chunks),
            "backlog_bytes" => return Some(self.backlog_bytes),
            "repair_bytes" => return Some(self.repair_bytes),
            "drain_bytes" => return Some(self.drain_bytes),
            "data_at_risk" => return Some(self.data_at_risk),
            "exposure_windows" => return Some(self.exposure_windows),
            _ => {}
        }
        let stat = metric.strip_prefix("exposure_")?;
        let (_, q) = EXPOSURE_STATS.iter().find(|(name, _)| *name == stat)?;
        self.exposure_percentile(*q)
    }

    fn probe() -> Self {
        let mut probe = ClusterRollup::empty(0);
        probe.exposure[0] = 1;
        probe.exposure_windows = 1;
        probe
    }
}

/// Fullness bucket for `used` chunks of `capacity`. Zero-capacity
/// units land in bucket 0; over-full (clamped) in the last.
pub fn fullness_bucket(used: u64, capacity: u64) -> usize {
    if capacity == 0 {
        return 0;
    }
    ((used.saturating_mul(FULLNESS_BUCKETS as u64) / capacity) as usize).min(FULLNESS_BUCKETS - 1)
}

/// Per-shard cluster accumulator: one [`ClusterRollup`] per tick,
/// folded by saturating merges in shard order — the cluster
/// counterpart of [`crate::rollup::RollupKernel`]. A single-threaded
/// chunk store folds into one kernel; a sharded drill merges kernels
/// element-wise, and the result is byte-identical either way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterKernel {
    rollups: Vec<ClusterRollup>,
}

impl ClusterKernel {
    /// An empty kernel.
    pub fn new() -> Self {
        ClusterKernel::default()
    }

    /// Fold one per-tick rollup. Ticks observed out of order or twice
    /// merge into the slot for that tick index (slots are created in
    /// observation order and keyed by `rollup.day`).
    pub fn observe(&mut self, rollup: &ClusterRollup) {
        if let Some(slot) = self.rollups.iter_mut().find(|r| r.day == rollup.day) {
            slot.merge(rollup);
        } else {
            self.rollups.push(rollup.clone());
        }
    }

    /// Merge another shard's ticks (element-wise saturating per tick;
    /// ticks only one side observed copy over unchanged).
    pub fn merge(&mut self, other: &ClusterKernel) {
        for r in &other.rollups {
            self.observe(r);
        }
    }

    /// The folded per-tick rollups, ascending by tick.
    pub fn rollups(&self) -> Vec<ClusterRollup> {
        let mut out = self.rollups.clone();
        out.sort_by_key(|r| r.day);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_buckets_are_monotone_and_invert() {
        assert_eq!(exposure_bucket(0), 0);
        assert_eq!(exposure_bucket(1), 1);
        assert_eq!(exposure_bucket(2), 2);
        assert_eq!(exposure_bucket(3), 2);
        assert_eq!(exposure_bucket(4), 3);
        assert_eq!(exposure_bucket(u64::MAX), EXPOSURE_BUCKETS - 1);
        let mut last = 0usize;
        for ticks in [0u64, 1, 2, 3, 4, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = exposure_bucket(ticks);
            assert!(b >= last, "bucket order broke at {ticks}");
            last = b;
            if b < EXPOSURE_BUCKETS - 1 {
                assert!(
                    ticks < exposure_upper_ticks(b),
                    "{ticks} outside bucket {b}"
                );
            }
        }
    }

    #[test]
    fn fullness_buckets_clamp() {
        assert_eq!(fullness_bucket(0, 10), 0);
        assert_eq!(fullness_bucket(5, 10), 8);
        assert_eq!(fullness_bucket(10, 10), FULLNESS_BUCKETS - 1);
        assert_eq!(fullness_bucket(99, 10), FULLNESS_BUCKETS - 1);
        assert_eq!(fullness_bucket(3, 0), 0);
    }

    #[test]
    fn series_values_cover_scalars_and_exposure_stats() {
        let mut r = ClusterRollup::empty(9);
        r.full = 100;
        r.degraded = 4;
        r.critical = 1;
        r.lost = 2;
        r.backlog_chunks = 5;
        r.backlog_bytes = 5 << 18;
        r.repair_bytes = 1 << 20;
        r.drain_bytes = 1 << 19;
        r.data_at_risk = 777;
        r.exposure[exposure_bucket(3)] = 10;
        r.exposure_windows = 10;
        assert_eq!(r.series_value("full"), Some(100));
        assert_eq!(r.series_value("degraded"), Some(4));
        assert_eq!(r.series_value("critical"), Some(1));
        assert_eq!(r.series_value("lost"), Some(2));
        assert_eq!(r.series_value("backlog_chunks"), Some(5));
        assert_eq!(r.series_value("backlog_bytes"), Some(5 << 18));
        assert_eq!(r.series_value("repair_bytes"), Some(1 << 20));
        assert_eq!(r.series_value("drain_bytes"), Some(1 << 19));
        assert_eq!(r.series_value("data_at_risk"), Some(777));
        assert_eq!(r.series_value("exposure_windows"), Some(10));
        assert_eq!(r.series_value("exposure_p99"), Some(4));
        assert_eq!(r.series_value("bogus"), None);
        assert_eq!(r.series_value("exposure_p12"), None);
        assert_eq!(
            ClusterRollup::empty(1).series_value("exposure_p50"),
            None,
            "no closed window yet"
        );
    }

    #[test]
    fn merge_saturates_and_keeps_day() {
        let mut a = ClusterRollup::empty(3);
        a.full = u64::MAX - 1;
        a.fullness[0] = u32::MAX;
        a.exposure[1] = 5;
        let mut b = ClusterRollup::empty(7);
        b.full = 10;
        b.fullness[0] = 10;
        b.exposure[1] = 7;
        b.exposure_windows = 7;
        a.merge(&b);
        assert_eq!(a.day, 3);
        assert_eq!(a.full, u64::MAX);
        assert_eq!(a.fullness[0], u32::MAX);
        assert_eq!(a.exposure[1], 12);
        assert_eq!(a.exposure_windows, 7);
    }

    #[test]
    fn kernel_merge_is_order_independent() {
        let mut r0 = ClusterRollup::empty(0);
        r0.full = 7;
        let mut r1 = ClusterRollup::empty(1);
        r1.degraded = 3;
        let mut a = ClusterKernel::new();
        a.observe(&r1);
        let mut b = ClusterKernel::new();
        b.observe(&r0);
        b.observe(&r1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.rollups(), ba.rollups());
        let folded = ab.rollups();
        assert_eq!(folded.len(), 2);
        assert_eq!(folded[0].day, 0);
        assert_eq!(folded[1].degraded, 6, "tick 1 observed twice merges");
    }

    #[test]
    fn rollup_round_trips_through_json() {
        let mut r = ClusterRollup::empty(12);
        r.full = 3;
        r.lost = 1;
        r.fullness[2] = 4;
        r.exposure[5] = 9;
        r.exposure_windows = 9;
        let json = serde_json::to_string(&r).unwrap();
        let back: ClusterRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
