//! Rollup-fed anomaly scans (DESIGN.md §11/§14).
//!
//! The per-device monitors in [`crate::monitor`] watch one device's
//! trace; this module watches whole populations through their rollup
//! series. Every scan is one loop, `scan`, over a table of detector
//! rows: each row names a scalar series of a [`Rollup`] family, how its
//! sample-over-sample delta is taken, and the [`AnomalyKind`] it flags.
//!
//! - [`fleet_scan`] — new deaths per sampled day (a cohort hitting its
//!   wear cliff) and movement of the median wear fraction (`wear_p50`,
//!   a workload shift speeding the fleet toward its endurance budget).
//! - [`latency_scan`] — per op class, the day-over-day p99 delta: the
//!   §4.2 multi-read tax landing, a retry storm, a GC stall pile-up.
//! - [`cluster_scan`] — recovery storms (backlog growth or a repair
//!   byte burst against its own history) and any data loss.
//!
//! Input and output are deterministic artifacts (integer rollups in,
//! milli-scaled [`Anomaly`] records out), so the scans inherit the obs
//! layer's byte-identity across engines and thread counts.

use crate::anomaly::{to_milli, Anomaly, AnomalyKind, RollingZScore};
use salamander_obs::{ClusterRollup, FleetRollup, LatencyRollup, Rollup, SimTime};
use AnomalyKind::{
    DataLoss, FleetDeathSpike, FleetWearAccel, RecoveryStorm, TailLatencyRegression,
};
use Delta::{AnyIncrease, Saturating, Signed};

/// Fleet-wide anomaly subject: there is no single device to blame.
pub const FLEET_SUBJECT: u32 = u32::MAX;

/// How a detector row turns two consecutive series values into the
/// sample it observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delta {
    /// `cur − prev`, floored at zero, through a rolling z-score.
    Saturating,
    /// `cur − prev` as a signed value, through a rolling z-score: a
    /// series falling back enters the window but never flags.
    Signed,
    /// Any increase over the previous value (zero before the first)
    /// flags at once, with no z-gate and no warm-up.
    AnyIncrease,
}

/// One anomaly detector over one scalar series of a rollup family.
#[derive(Debug, Clone, Copy)]
struct Detector {
    /// The series name, as [`Rollup::series_value`] reads it.
    series: &'static str,
    /// How consecutive values become a sample.
    delta: Delta,
    /// What a flag is reported as.
    kind: AnomalyKind,
    /// The flag's subject.
    subject: u32,
}

const fn row(series: &'static str, delta: Delta, kind: AnomalyKind, subject: u32) -> Detector {
    Detector {
        series,
        delta,
        kind,
        subject,
    }
}

/// Fleet rows: death-rate spikes and median-wear acceleration.
const FLEET_DETECTORS: [Detector; 2] = [
    row("dead", Saturating, FleetDeathSpike, FLEET_SUBJECT),
    row("wear_p50", Saturating, FleetWearAccel, FLEET_SUBJECT),
];

/// Latency rows: one signed p99 detector per op class, the subject
/// being the class index into [`salamander_obs::LAT_CLASSES`].
const LATENCY_DETECTORS: [Detector; 5] = [
    row("host_read.p99", Signed, TailLatencyRegression, 0),
    row("host_write.p99", Signed, TailLatencyRegression, 1),
    row("gc.p99", Signed, TailLatencyRegression, 2),
    row("scrub.p99", Signed, TailLatencyRegression, 3),
    row("regen.p99", Signed, TailLatencyRegression, 4),
];

/// Cluster rows: backlog growth and repair-byte bursts as recovery
/// storms, and any increase of the cumulative `lost` count as data
/// loss — data loss is never normal, however early in the run.
const CLUSTER_DETECTORS: [Detector; 3] = [
    row("backlog_chunks", Signed, RecoveryStorm, FLEET_SUBJECT),
    row("repair_bytes", Saturating, RecoveryStorm, FLEET_SUBJECT),
    row("lost", AnyIncrease, DataLoss, FLEET_SUBJECT),
];

/// Run the detector `rows` over a chronological rollup series. The
/// z-gated rows use [`RollingZScore::standard`] (16-sample window, 8
/// warm-up, 3σ, one-sided), so a steady rate — even a high one — never
/// flags; only deviation from the series' own recent history does. A
/// record without a row's series (an empty distribution) is skipped by
/// that row. Floats appear only here, after the integer rollups were
/// merged, so the sorted output inherits their byte-identity.
fn scan<'a, R: Rollup + 'a>(
    rollups: impl IntoIterator<Item = &'a R>,
    rows: &[Detector],
) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let mut dets: Vec<RollingZScore> = rows.iter().map(|_| RollingZScore::standard()).collect();
    let mut prev: Vec<Option<u64>> = vec![None; rows.len()];
    for r in rollups {
        let time = SimTime::new(r.day(), 0);
        for (i, row) in rows.iter().enumerate() {
            let Some(cur) = r.series_value(row.series) else {
                continue;
            };
            let flag = |value: f64, mean: f64, z: f64| Anomaly {
                time,
                kind: row.kind,
                subject: row.subject,
                value_milli: to_milli(value),
                mean_milli: to_milli(mean),
                z_milli: to_milli(z),
            };
            match (row.delta, prev[i]) {
                (AnyIncrease, p) => {
                    let grew = cur.saturating_sub(p.unwrap_or(0));
                    if grew > 0 {
                        out.push(flag(grew as f64, 0.0, 0.0));
                    }
                }
                (Saturating | Signed, Some(p)) => {
                    let delta = match row.delta {
                        Signed => cur as f64 - p as f64,
                        _ => cur.saturating_sub(p) as f64,
                    };
                    if let Some(dev) = dets[i].observe(delta) {
                        out.push(flag(delta, dev.mean, dev.z));
                    }
                }
                (_, None) => {}
            }
            prev[i] = Some(cur);
        }
    }
    out.sort();
    out
}

/// Death-rate spikes and median-wear acceleration over a chronological
/// fleet rollup series (the `FLEET_DETECTORS` rows).
pub fn fleet_scan<'a>(rollups: impl IntoIterator<Item = &'a FleetRollup>) -> Vec<Anomaly> {
    scan(rollups, &FLEET_DETECTORS)
}

/// Per-class p99 regressions over a chronological latency rollup
/// series (the `LATENCY_DETECTORS` rows).
pub fn latency_scan<'a>(rollups: impl IntoIterator<Item = &'a LatencyRollup>) -> Vec<Anomaly> {
    scan(rollups, &LATENCY_DETECTORS)
}

/// Recovery storms and data loss over a chronological cluster rollup
/// series (the `CLUSTER_DETECTORS` rows).
pub fn cluster_scan<'a>(rollups: impl IntoIterator<Item = &'a ClusterRollup>) -> Vec<Anomaly> {
    scan(rollups, &CLUSTER_DETECTORS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use salamander_obs::DIST_BUCKETS;

    fn rollup(day: u32, dead: u32, wear_bucket: usize) -> FleetRollup {
        let mut wear = vec![0u32; DIST_BUCKETS];
        wear[wear_bucket] = 100;
        FleetRollup {
            day,
            alive: 100 - dead,
            dead_wear: dead,
            dead_afr: 0,
            dying: 0,
            capacity_opages: 1000,
            wear,
            pec: vec![0; DIST_BUCKETS],
            usable: vec![0; DIST_BUCKETS],
            health: vec![0; DIST_BUCKETS],
        }
    }

    #[test]
    fn steady_fleet_never_flags() {
        // One death per day; median wear oscillating between two
        // adjacent buckets (steady jitter, not a trend). Neither delta
        // series ever deviates from its own window.
        let series: Vec<FleetRollup> = (0..40)
            .map(|i| rollup(i * 30, i, 5 + (i as usize % 2)))
            .collect();
        assert!(fleet_scan(series.iter()).is_empty());
    }

    #[test]
    fn death_spike_flags_with_day_and_kind() {
        let mut series: Vec<FleetRollup> = (0..20).map(|i| rollup(i * 30, i, 2)).collect();
        // Day 600: 30 devices die at once against a 1/day baseline.
        series.push(rollup(600, 49, 2));
        let anomalies = fleet_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::FleetDeathSpike);
        assert_eq!(a.time.day, 600);
        assert_eq!(a.subject, FLEET_SUBJECT);
        assert_eq!(a.value_milli, 30_000);
        assert!(a.z_milli >= 3000, "{a:?}");
    }

    #[test]
    fn wear_acceleration_flags() {
        // Median wear advances one bucket (50‰) every day, then jumps
        // eight buckets in one sample interval.
        let mut series: Vec<FleetRollup> = (0..15).map(|i| rollup(i * 30, 0, i as usize)).collect();
        series.push(rollup(450, 0, 19));
        let anomalies = fleet_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::FleetWearAccel);
        assert_eq!(anomalies[0].time.day, 450);
    }

    #[test]
    fn empty_and_short_series_are_quiet() {
        assert!(fleet_scan([].iter()).is_empty());
        let short: Vec<FleetRollup> = (0..5).map(|i| rollup(i * 30, i * 10, 1)).collect();
        assert!(fleet_scan(short.iter()).is_empty(), "below warm-up");
    }

    /// A latency rollup whose host-read p99 lands exactly at `ns` (one
    /// sample per rollup: every percentile is that sample's bucket).
    fn lat_rollup(day: u32, host_read_ns: u64) -> LatencyRollup {
        let mut r = LatencyRollup::empty(day);
        r.classes[0].observe(host_read_ns, 1);
        r
    }

    #[test]
    fn steady_tail_never_flags() {
        // p99 jittering between two adjacent buckets: steady noise is
        // not an anomaly (the ±one-bucket deltas are the window's own
        // history), and neither is the flat stretch in between.
        let series: Vec<LatencyRollup> = (0..30)
            .map(|i| lat_rollup(i, if i % 2 == 0 { 70_000 } else { 75_000 }))
            .collect();
        assert!(latency_scan(series.iter()).is_empty());
    }

    #[test]
    fn p99_jump_flags_the_class() {
        let mut series: Vec<LatencyRollup> = (0..20).map(|i| lat_rollup(i, 61_440)).collect();
        // Day 20: host-read p99 jumps 4x against a flat history.
        series.push(lat_rollup(20, 245_760));
        let anomalies = latency_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::TailLatencyRegression);
        assert_eq!(a.time.day, 20);
        assert_eq!(a.subject, 0, "subject is the LAT_CLASSES index");
        assert!(a.z_milli >= 3000, "{a:?}");
    }

    #[test]
    fn latency_improvements_never_flag() {
        let mut series: Vec<LatencyRollup> = (0..20).map(|i| lat_rollup(i, 245_760)).collect();
        series.push(lat_rollup(20, 61_440));
        assert!(latency_scan(series.iter()).is_empty(), "one-sided");
    }

    #[test]
    fn empty_latency_series_is_quiet() {
        assert!(latency_scan([].iter()).is_empty());
        let sparse: Vec<LatencyRollup> = (0..30).map(LatencyRollup::empty).collect();
        assert!(latency_scan(sparse.iter()).is_empty(), "no samples, no p99");
    }

    fn cluster(day: u32, backlog: u64, repair: u64, lost: u64) -> ClusterRollup {
        let mut r = ClusterRollup::empty(day);
        r.backlog_chunks = backlog;
        r.repair_bytes = repair;
        r.lost = lost;
        r
    }

    #[test]
    fn steady_recovery_never_flags() {
        // A constant trickle: backlog flat at 4, repair bytes growing a
        // fixed amount per tick. Neither delta series deviates.
        let series: Vec<ClusterRollup> = (0..30)
            .map(|i| cluster(i, 4, u64::from(i) * 1024, 0))
            .collect();
        assert!(cluster_scan(series.iter()).is_empty());
    }

    #[test]
    fn backlog_growth_spike_flags_recovery_storm() {
        let mut series: Vec<ClusterRollup> = (0..20)
            .map(|i| cluster(i, 4 + u64::from(i % 2), 0, 0))
            .collect();
        // Tick 20: a whole device's chunks land in the backlog at once.
        series.push(cluster(20, 500, 0, 0));
        let anomalies = cluster_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::RecoveryStorm);
        assert_eq!(a.time.day, 20);
        assert_eq!(a.subject, FLEET_SUBJECT);
        assert!(a.z_milli >= 3000, "{a:?}");
    }

    #[test]
    fn repair_byte_spike_flags_recovery_storm() {
        let mut series: Vec<ClusterRollup> = (0..20)
            .map(|i| cluster(i, 0, u64::from(i) * 1024 + u64::from(i % 2) * 256, 0))
            .collect();
        // Tick 20: a repair burst two orders beyond the steady trickle.
        series.push(cluster(20, 0, 20 * 1024 + (1 << 22), 0));
        let anomalies = cluster_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].kind, AnomalyKind::RecoveryStorm);
        assert_eq!(anomalies[0].time.day, 20);
    }

    #[test]
    fn any_loss_flags_immediately_without_warmup() {
        // Two rollups only — far below the z-detectors' warm-up.
        let series = [cluster(0, 0, 0, 0), cluster(1, 0, 0, 2)];
        let anomalies = cluster_scan(series.iter());
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::DataLoss);
        assert_eq!(a.time.day, 1);
        assert_eq!(a.value_milli, 2000, "two chunks lost");
        // And a loss already on the books at the first rollup counts.
        let head = [cluster(5, 0, 0, 1)];
        let anomalies = cluster_scan(head.iter());
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::DataLoss);
        assert_eq!(anomalies[0].time.day, 5);
    }

    #[test]
    fn empty_cluster_series_is_quiet() {
        assert!(cluster_scan([].iter()).is_empty());
        let flat: Vec<ClusterRollup> = (0..30).map(|i| cluster(i, 0, 0, 0)).collect();
        assert!(cluster_scan(flat.iter()).is_empty());
    }
}
