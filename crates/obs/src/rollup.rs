//! The rollup pipeline (DESIGN.md §14) and its fleet family.
//!
//! Three rollup families record the paper's claims as deterministic
//! per-sample aggregates: [`FleetRollup`] (wear and shrink, Fig. 3a/3b),
//! [`crate::LatencyRollup`] (the §4.2 `4/(4−L)` multi-read tax) and
//! [`crate::ClusterRollup`] (§4.3 recovery traffic). Every family
//! implements [`Rollup`], so the shared consumers — the segment
//! extractor and anomaly scan in `salamander-health`, the per-label
//! store and `/…/series` routes in `salamander-telemetry` — are written
//! once, and every family reads its percentiles through the one
//! nearest-rank walk, `nearest_rank`.
//!
//! At warehouse scale (100k–1M devices) per-device trace events are
//! infeasible, and the fleet timeline keeps only a handful of scalars
//! per sample day. A [`FleetRollup`] is the middle ground: one compact
//! record per sampled day carrying population counts plus fixed-bucket
//! integer histograms of the wear / remaining-life / capacity / health
//! distributions across the whole fleet. Percentiles are extracted
//! exactly from the buckets (reported as bucket upper edges), so the
//! record is byte-identical across engines and thread counts by
//! construction: every bin is a saturating integer counter, shards are
//! merged in shard order, and no f64 accumulation ever crosses a merge
//! boundary.
//!
//! The aggregation side lives in [`RollupKernel`]: each parallel shard
//! folds its devices into one kernel, and `salamander_exec::par_map`
//! returns shards in item order, so the fold
//! `kernels.fold(merge)` is deterministic regardless of how many
//! threads raced to produce them.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};

/// A per-sample rollup family: what the shared pipeline code needs of
/// each record, and nothing more.
pub trait Rollup: Sized {
    /// The rollup a trace event carries, if it is of this family.
    fn from_event(event: &TraceEvent) -> Option<&Self>;

    /// The simulated day (or tick) the record describes.
    fn day(&self) -> u32;

    /// A named scalar series value, as served by `/…/series` and read
    /// by the anomaly scans. `None` for unknown names and for stats
    /// the record cannot answer (an empty distribution).
    fn series_value(&self, name: &str) -> Option<u64>;

    /// A record for which every valid series name reads `Some`, so a
    /// name check can never drift from [`Rollup::series_value`].
    fn probe() -> Self;
}

/// Exact nearest-rank percentile over an integer histogram: the index
/// of the bucket holding the rank-th sample, rank
/// `max(1, ceil(q·N/1000))` for `q` in permille and `N` the saturating
/// sample total. Each family maps the index to its own bucket upper
/// edge. `None` on an empty histogram.
pub(crate) fn nearest_rank<B: Copy + Into<u64>>(bins: &[B], q_permille: u32) -> Option<usize> {
    let total = bins.iter().fold(0u64, |a, &b| a.saturating_add(b.into()));
    if total == 0 {
        return None;
    }
    let rank = (u128::from(q_permille) * u128::from(total))
        .div_ceil(1000)
        .max(1) as u64;
    let mut cum = 0u64;
    for (i, &b) in bins.iter().enumerate() {
        cum = cum.saturating_add(b.into());
        if cum >= rank {
            return Some(i);
        }
    }
    // Unreachable: cum reaches `total >= rank` on the last bucket.
    Some(bins.len() - 1)
}

/// Number of fixed-width histogram buckets per distribution. Bucket
/// `i` covers the half-open fraction range `[i/20, (i+1)/20)` (the
/// last bucket is closed at 1.0 via clamping).
pub const DIST_BUCKETS: usize = 20;

/// The percentiles extracted for tables and series queries.
pub const PERCENTILES: [u32; 5] = [1, 10, 50, 90, 99];

/// Distribution names, in the order they appear in a rollup record.
pub const DIST_NAMES: [&str; 4] = ["wear", "pec", "usable", "health"];

/// A device is "dying" once its committed capacity has shrunk to half
/// of what it shipped with.
pub const DYING_CAPACITY_FRAC: f64 = 0.5;

/// One per-day fleet-wide aggregate: population counts, capacity sum,
/// and four 20-bucket integer distributions. All counters are
/// saturating; distributions hold device counts per fraction bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetRollup {
    /// Simulated day this rollup describes.
    pub day: u32,
    /// Devices still in service at end of day.
    pub alive: u32,
    /// Cumulative wear-out deaths so far.
    pub dead_wear: u32,
    /// Cumulative AFR (random-failure) deaths so far.
    pub dead_afr: u32,
    /// Alive devices whose committed capacity has shrunk to
    /// ≤ [`DYING_CAPACITY_FRAC`] of initial.
    pub dying: u32,
    /// Sum of committed oPages across alive devices.
    pub capacity_opages: u64,
    /// Wear fraction (PEC consumed / PEC budget to first tiredness
    /// boundary): alive-device counts per bucket.
    pub wear: Vec<u32>,
    /// PEC fraction consumed of the full endurance budget (to the last
    /// usable tiredness level).
    pub pec: Vec<u32>,
    /// Usable-capacity fraction (usable oPages / geometry total).
    pub usable: Vec<u32>,
    /// Health score (0–100, bucketed by 5): capacity-weighted
    /// composite, see [`health_score`].
    pub health: Vec<u32>,
}

impl FleetRollup {
    /// Total cumulative deaths.
    pub fn dead(&self) -> u32 {
        self.dead_wear.saturating_add(self.dead_afr)
    }

    /// The named distribution, if `name` is one of [`DIST_NAMES`].
    pub fn dist(&self, name: &str) -> Option<&[u32]> {
        match name {
            "wear" => Some(&self.wear),
            "pec" => Some(&self.pec),
            "usable" => Some(&self.usable),
            "health" => Some(&self.health),
            _ => None,
        }
    }
}

impl Rollup for FleetRollup {
    fn from_event(event: &TraceEvent) -> Option<&Self> {
        match event {
            TraceEvent::FleetRollup(r) => Some(r),
            _ => None,
        }
    }

    fn day(&self) -> u32 {
        self.day
    }

    /// `alive`, `dead_wear`, `dead_afr`, `dead`, `dying`, `capacity`,
    /// or `<dist>_p<q>` (e.g. `wear_p50`, permille of the bucket upper
    /// edge).
    fn series_value(&self, metric: &str) -> Option<u64> {
        match metric {
            "alive" => return Some(u64::from(self.alive)),
            "dead_wear" => return Some(u64::from(self.dead_wear)),
            "dead_afr" => return Some(u64::from(self.dead_afr)),
            "dead" => return Some(u64::from(self.dead())),
            "dying" => return Some(u64::from(self.dying)),
            "capacity" => return Some(self.capacity_opages),
            _ => {}
        }
        let (dist, q) = metric.rsplit_once("_p")?;
        let q: u32 = q.parse().ok()?;
        if q == 0 || q > 100 {
            return None;
        }
        percentile_permille(self.dist(dist)?, q).map(u64::from)
    }

    fn probe() -> Self {
        FleetRollup {
            day: 0,
            alive: 0,
            dead_wear: 0,
            dead_afr: 0,
            dying: 0,
            capacity_opages: 0,
            wear: vec![1; DIST_BUCKETS],
            pec: vec![1; DIST_BUCKETS],
            usable: vec![1; DIST_BUCKETS],
            health: vec![1; DIST_BUCKETS],
        }
    }
}

/// Fleet percentile `q` (percent) of a 20-bucket fraction histogram,
/// reported as the `nearest_rank` bucket's upper edge in permille of
/// the fraction range (bucket `i` of 20 reports `(i+1)·50`). `None` on
/// an empty histogram.
pub fn percentile_permille(bins: &[u32], q: u32) -> Option<u32> {
    let i = nearest_rank(bins, q.saturating_mul(10))?;
    Some(((i + 1) * 1000 / bins.len()) as u32)
}

/// Bucket index for a fraction in `[0, 1]`. Out-of-range values clamp
/// to the edge buckets; NaN lands deterministically in bucket 0 (the
/// `as` cast saturates NaN to 0).
pub fn bucket_index(frac: f64) -> usize {
    let i = (frac * DIST_BUCKETS as f64) as isize;
    i.clamp(0, DIST_BUCKETS as isize - 1) as usize
}

/// Composite 0–100 device health score: up to 70 points for retained
/// committed capacity, up to 30 for remaining endurance budget. Pure
/// integer output of two clamped f64 expressions, so any two engines
/// computing the same fractions score identically.
pub fn health_score(cap_frac: f64, pec_frac: f64) -> u32 {
    let capacity = (cap_frac.clamp(0.0, 1.0) * 70.0) as u32;
    let life = ((1.0 - pec_frac).clamp(0.0, 1.0) * 30.0) as u32;
    capacity + life
}

/// Per-shard rollup accumulator: `days` parallel sets of one dying
/// counter plus four [`DIST_BUCKETS`]-wide histograms, all saturating
/// `u32`. Shards observe their own devices, then the caller merges
/// kernels in shard order ([`RollupKernel::merge`] is commutative, but
/// fixed order keeps the story simple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupKernel {
    days: usize,
    /// Dying-device count per grid day.
    pub dying: Vec<u32>,
    /// Wear-fraction histogram, `days × DIST_BUCKETS`, day-major.
    pub wear: Vec<u32>,
    /// PEC-fraction histogram, same layout.
    pub pec: Vec<u32>,
    /// Usable-capacity-fraction histogram, same layout.
    pub usable: Vec<u32>,
    /// Health-score histogram, same layout.
    pub health: Vec<u32>,
}

impl RollupKernel {
    /// An empty kernel over `days` grid days.
    pub fn new(days: usize) -> Self {
        RollupKernel {
            days,
            dying: vec![0; days],
            wear: vec![0; days * DIST_BUCKETS],
            pec: vec![0; days * DIST_BUCKETS],
            usable: vec![0; days * DIST_BUCKETS],
            health: vec![0; days * DIST_BUCKETS],
        }
    }

    /// Number of grid days this kernel covers.
    pub fn days(&self) -> usize {
        self.days
    }

    /// Fold one alive device's state at grid day `gi` into the
    /// histograms. Fractions are f64 but only ever bucketed — no
    /// cross-device float accumulation happens anywhere in a rollup.
    pub fn observe(
        &mut self,
        gi: usize,
        wear_frac: f64,
        pec_frac: f64,
        use_frac: f64,
        cap_frac: f64,
    ) {
        let base = gi * DIST_BUCKETS;
        bump(&mut self.wear[base + bucket_index(wear_frac)]);
        bump(&mut self.pec[base + bucket_index(pec_frac)]);
        bump(&mut self.usable[base + bucket_index(use_frac)]);
        let score = health_score(cap_frac, pec_frac) as usize;
        bump(&mut self.health[base + (score / 5).min(DIST_BUCKETS - 1)]);
        if cap_frac <= DYING_CAPACITY_FRAC {
            bump(&mut self.dying[gi]);
        }
    }

    /// Merge another shard's counts into this one (element-wise
    /// saturating add). Commutative and associative, so the merged
    /// kernel is independent of how devices were sharded.
    pub fn merge(&mut self, other: &RollupKernel) {
        debug_assert_eq!(self.days, other.days);
        for (a, b) in self.dying.iter_mut().zip(&other.dying) {
            *a = a.saturating_add(*b);
        }
        for (dst, src) in [
            (&mut self.wear, &other.wear),
            (&mut self.pec, &other.pec),
            (&mut self.usable, &other.usable),
            (&mut self.health, &other.health),
        ] {
            for (a, b) in dst.iter_mut().zip(src.iter()) {
                *a = a.saturating_add(*b);
            }
        }
    }

    /// The four histograms and dying count for grid day `gi`, as the
    /// distribution slices a [`FleetRollup`] wants.
    pub fn day_slices(&self, gi: usize) -> (u32, &[u32], &[u32], &[u32], &[u32]) {
        let r = gi * DIST_BUCKETS..(gi + 1) * DIST_BUCKETS;
        (
            self.dying[gi],
            &self.wear[r.clone()],
            &self.pec[r.clone()],
            &self.usable[r.clone()],
            &self.health[r],
        )
    }
}

fn bump(slot: &mut u32) {
    *slot = slot.saturating_add(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_pin_down() {
        // Exact lower edges land in their own bucket; 1.0 clamps into
        // the last; out-of-range and NaN are deterministic.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.049), 0);
        assert_eq!(bucket_index(0.05), 1);
        assert_eq!(bucket_index(0.999), 19);
        assert_eq!(bucket_index(1.0), 19);
        assert_eq!(bucket_index(7.5), 19);
        assert_eq!(bucket_index(-0.3), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
    }

    #[test]
    fn nearest_rank_serves_every_bucket_scheme() {
        use crate::cluster::{exposure_upper_ticks, EXPOSURE_BUCKETS};
        use crate::latency::{bucket_upper_ns, lat_bucket, LAT_BUCKETS};
        let fleet_edge = |i: usize| ((i + 1) * 1000 / DIST_BUCKETS) as u64;
        let hist = |len: usize, counts: &[(usize, u64)]| {
            let mut bins = vec![0u64; len];
            for &(i, n) in counts {
                bins[i] = n;
            }
            bins
        };
        let lat = |ns: u64| bucket_upper_ns(lat_bucket(ns));
        // (scheme, edge of bucket i, bins, [(q permille, expected edge)])
        type Row = (
            &'static str,
            fn(usize) -> u64,
            Vec<u64>,
            Vec<(u32, Option<u64>)>,
        );
        let rows: Vec<Row> = vec![
            // 10 devices in bucket 0, 10 in bucket 19: rank(p50) =
            // ceil(500·20/1000) = 10 stays in bucket 0 (edge 50‰),
            // p90's rank 18 lands in bucket 19 (edge 1000‰).
            (
                "fleet permille",
                fleet_edge,
                hist(DIST_BUCKETS, &[(0, 10), (19, 10)]),
                vec![
                    (10, Some(50)),
                    (500, Some(50)),
                    (900, Some(1000)),
                    (1000, Some(1000)),
                ],
            ),
            // A single device: the rank never drops below one, so every
            // percentile reports its bucket.
            (
                "fleet single device",
                fleet_edge,
                hist(DIST_BUCKETS, &[(3, 1)]),
                vec![(10, Some(200)), (500, Some(200)), (990, Some(200))],
            ),
            (
                "fleet empty",
                fleet_edge,
                vec![0; DIST_BUCKETS],
                vec![(500, None)],
            ),
            ("no buckets", fleet_edge, Vec::new(), vec![(500, None)]),
            // 99 cheap samples, 1 expensive: p99 is rank 99 of 100, so
            // only p999 reaches the expensive bucket.
            (
                "latency log2",
                bucket_upper_ns,
                hist(
                    LAT_BUCKETS,
                    &[(lat_bucket(50_000), 99), (lat_bucket(3_000_000), 1)],
                ),
                vec![
                    (500, Some(lat(50_000))),
                    (900, Some(lat(50_000))),
                    (990, Some(lat(50_000))),
                    (999, Some(lat(3_000_000))),
                ],
            ),
            (
                "latency empty",
                bucket_upper_ns,
                vec![0; LAT_BUCKETS],
                vec![(500, None)],
            ),
            // Counts whose total saturates u64: the rank is taken of the
            // saturated total, so p50 stops at the first full bucket.
            (
                "latency saturated",
                bucket_upper_ns,
                hist(LAT_BUCKETS, &[(10, u64::MAX), (20, u64::MAX), (30, 7)]),
                vec![(1, Some(11)), (500, Some(11)), (1000, Some(11))],
            ),
            // 99 one-tick windows and one hundred-tick window.
            (
                "exposure log2 ticks",
                exposure_upper_ticks,
                hist(EXPOSURE_BUCKETS, &[(1, 99), (7, 1)]),
                vec![
                    (500, Some(2)),
                    (900, Some(2)),
                    (990, Some(2)),
                    (999, Some(128)),
                ],
            ),
            (
                "exposure empty",
                exposure_upper_ticks,
                vec![0; EXPOSURE_BUCKETS],
                vec![(500, None)],
            ),
        ];
        for (scheme, edge, bins, cases) in rows {
            for (q, want) in cases {
                assert_eq!(nearest_rank(&bins, q).map(edge), want, "{scheme} q={q}‰");
            }
        }
        // The fleet's u32 counters widen losslessly into the same walk.
        let mut bins = [0u32; DIST_BUCKETS];
        bins[0] = 10;
        bins[19] = 10;
        assert_eq!(percentile_permille(&bins, 50), Some(50));
        assert_eq!(percentile_permille(&bins, 90), Some(1000));
        assert_eq!(percentile_permille(&[], 50), None);
    }

    #[test]
    fn kernel_merge_is_order_independent() {
        let mut a = RollupKernel::new(2);
        let mut b = RollupKernel::new(2);
        a.observe(0, 0.1, 0.2, 0.9, 1.0);
        a.observe(1, 0.5, 0.6, 0.7, 0.4);
        b.observe(0, 0.95, 0.99, 0.2, 0.3);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let (dying, wear, ..) = ab.day_slices(0);
        assert_eq!(dying, 1); // cap_frac 0.3 <= 0.5
        assert_eq!(wear.iter().sum::<u32>(), 2);
    }

    #[test]
    fn health_score_weighs_capacity_then_life() {
        assert_eq!(health_score(1.0, 0.0), 100);
        assert_eq!(health_score(0.0, 1.0), 0);
        assert_eq!(health_score(1.0, 1.0), 70);
        assert_eq!(health_score(0.5, 0.5), 35 + 15);
    }

    #[test]
    fn series_values_cover_counts_and_percentiles() {
        let mut r = FleetRollup {
            day: 30,
            alive: 90,
            dead_wear: 7,
            dead_afr: 3,
            dying: 5,
            capacity_opages: 1_000_000,
            wear: vec![0; DIST_BUCKETS],
            pec: vec![0; DIST_BUCKETS],
            usable: vec![0; DIST_BUCKETS],
            health: vec![0; DIST_BUCKETS],
        };
        r.wear[4] = 90;
        assert_eq!(r.series_value("alive"), Some(90));
        assert_eq!(r.series_value("dead"), Some(10));
        assert_eq!(r.series_value("capacity"), Some(1_000_000));
        assert_eq!(r.series_value("wear_p50"), Some(250));
        assert_eq!(r.series_value("pec_p50"), None); // empty dist
        assert_eq!(r.series_value("bogus"), None);
        assert_eq!(r.series_value("wear_p0"), None);
    }

    #[test]
    fn rollup_round_trips_through_json() {
        let r = FleetRollup {
            day: 60,
            alive: 3,
            dead_wear: 1,
            dead_afr: 0,
            dying: 2,
            capacity_opages: 42,
            wear: vec![1; DIST_BUCKETS],
            pec: vec![2; DIST_BUCKETS],
            usable: vec![0; DIST_BUCKETS],
            health: vec![3; DIST_BUCKETS],
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: FleetRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
