//! Deterministic sim-time I/O latency observability (DESIGN.md §15).
//!
//! The paper's §4.2 performance story — reads slow down as fPages
//! regenerate to lower levels (the `4/(4−L)` multi-read factor),
//! retries and GC steal device time — becomes a first-class observable
//! here. The FTL charges every host op an integer-nanosecond cost from
//! a [`CostModelNs`] quantized once from the flash timing parameters,
//! folds the samples into per-class log2-bucket histograms, and drains
//! one [`LatencyRollup`] per sampled day into the trace. The fleet
//! engines produce the same record statistically via [`LatencyKernel`].
//!
//! Determinism is by construction, exactly like [`crate::rollup`]:
//! costs are integers (no float ever crosses a merge boundary), bins
//! are saturating `u64` counters, shards merge element-wise in device
//! order, and percentiles are extracted exactly from bucket edges with
//! nearest-rank. Two engines or thread counts producing the same
//! samples produce byte-identical rollups.
//!
//! The histogram is HDR-style: values below [`LAT_SUB`] get exact
//! buckets; above that, each power-of-two octave splits into
//! [`LAT_SUB`] linear sub-buckets, so the relative quantization error
//! of any reported edge is at most `1/LAT_SUB` (12.5%).

use crate::event::TraceEvent;
use crate::rollup::{nearest_rank, Rollup};
use serde::{Deserialize, Serialize};

/// Op classes, in rollup record order.
pub const LAT_CLASSES: [&str; 5] = ["host_read", "host_write", "gc", "scrub", "regen"];

/// Percentile stats extracted for tables and series queries, as
/// permille ranks paired with their names.
pub const LAT_STATS: [(&str, u32); 4] = [("p50", 500), ("p90", 900), ("p99", 990), ("p999", 999)];

/// Linear sub-buckets per octave (must be a power of two).
pub const LAT_SUB: usize = 8;

const LAT_SUB_BITS: usize = 3; // log2(LAT_SUB)

/// Histogram width: 8 exact low buckets + 31 octaves × 8 sub-buckets
/// covers 0 ns .. ~17 s with ≤12.5% relative error, clamped above.
pub const LAT_BUCKETS: usize = 256;

/// An op class, doubling as the index into [`LatencyRollup::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LatClass {
    /// Host read (sense + retries + ECC + transfer).
    HostRead = 0,
    /// Host write (program + transfer, charged at submission).
    HostWrite = 1,
    /// One whole GC pass (relocations + erase).
    Gc = 2,
    /// One scrub patrol invocation (sense + refresh transfer).
    Scrub = 3,
    /// One regeneration copy (filling a regenerated minidisk).
    Regen = 4,
}

impl LatClass {
    /// Every class, in record order.
    pub const ALL: [LatClass; 5] = [
        LatClass::HostRead,
        LatClass::HostWrite,
        LatClass::Gc,
        LatClass::Scrub,
        LatClass::Regen,
    ];

    /// The class's name, as used in queries and endpoints.
    pub fn name(self) -> &'static str {
        LAT_CLASSES[self as usize]
    }
}

/// Histogram bucket for a nanosecond value. Values `< LAT_SUB` map to
/// their own exact bucket; above that, bucket
/// `LAT_SUB + octave·LAT_SUB + sub` where `sub` is the next
/// `LAT_SUB_BITS` bits after the leading one. Monotone in `ns`,
/// clamped to the last bucket.
pub fn lat_bucket(ns: u64) -> usize {
    if ns < LAT_SUB as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as usize; // >= LAT_SUB_BITS
    let octave = msb - LAT_SUB_BITS;
    let sub = ((ns >> (msb - LAT_SUB_BITS)) & (LAT_SUB as u64 - 1)) as usize;
    (LAT_SUB + octave * LAT_SUB + sub).min(LAT_BUCKETS - 1)
}

/// Exclusive upper edge (ns) of bucket `i` — the value percentiles
/// report. The inverse of [`lat_bucket`]: every `ns` in bucket `i`
/// satisfies `ns < bucket_upper_ns(i)`.
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i < LAT_SUB {
        return i as u64 + 1;
    }
    let octave = (i - LAT_SUB) / LAT_SUB;
    let sub = ((i - LAT_SUB) % LAT_SUB) as u64;
    (LAT_SUB as u64 + sub + 1) << octave
}

/// Render a nanosecond value as microseconds with fixed precision —
/// the deterministic human form used by `obsctl` tables.
pub fn fmt_ns(ns: u64) -> String {
    format!("{}.{:03}us", ns / 1000, ns % 1000)
}

/// One op class's latency distribution: exact sample count and total
/// (so the mean is exact), plus the bucketed histogram. All counters
/// saturate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassLatency {
    /// Samples observed (weighted).
    pub count: u64,
    /// Sum of sample costs in ns (weighted, saturating).
    pub total_ns: u64,
    /// [`LAT_BUCKETS`]-wide histogram of sample costs.
    pub bins: Vec<u64>,
}

impl Default for ClassLatency {
    fn default() -> Self {
        ClassLatency {
            count: 0,
            total_ns: 0,
            bins: vec![0; LAT_BUCKETS],
        }
    }
}

impl ClassLatency {
    /// Fold `weight` samples of `ns` each into the distribution.
    pub fn observe(&mut self, ns: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.count = self.count.saturating_add(weight);
        self.total_ns = self.total_ns.saturating_add(ns.saturating_mul(weight));
        let i = lat_bucket(ns).min(self.bins.len().saturating_sub(1));
        if let Some(slot) = self.bins.get_mut(i) {
            *slot = slot.saturating_add(weight);
        }
    }

    /// Exact mean cost (integer ns), `None` when empty.
    pub fn mean_ns(&self) -> Option<u64> {
        (self.count > 0).then(|| self.total_ns / self.count)
    }

    /// Nearest-rank percentile (permille), `None` when empty.
    pub fn percentile(&self, q_permille: u32) -> Option<u64> {
        nearest_rank(&self.bins, q_permille).map(bucket_upper_ns)
    }

    /// Element-wise saturating merge.
    pub fn merge(&mut self, other: &ClassLatency) {
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
    }
}

/// One per-sampled-day latency aggregate: a [`ClassLatency`] per
/// [`LAT_CLASSES`] entry, in that order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyRollup {
    /// Simulated day (or sample ordinal, for sims without a day clock).
    pub day: u32,
    /// Per-class distributions, indexed like [`LAT_CLASSES`].
    pub classes: Vec<ClassLatency>,
}

impl LatencyRollup {
    /// An all-zero rollup for `day`.
    pub fn empty(day: u32) -> Self {
        LatencyRollup {
            day,
            classes: (0..LAT_CLASSES.len())
                .map(|_| ClassLatency::default())
                .collect(),
        }
    }

    /// The named class's distribution, if `name` is a [`LAT_CLASSES`]
    /// entry present in this record.
    pub fn class(&self, name: &str) -> Option<&ClassLatency> {
        let i = LAT_CLASSES.iter().position(|&c| c == name)?;
        self.classes.get(i)
    }

    /// True when no class observed any sample.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.count == 0)
    }

    /// A scalar series value for `/latency/series` and `obsctl`:
    /// `stat` is one of `p50|p90|p99|p999|mean|count`. `None` for
    /// unknown names or empty distributions.
    pub fn stat(&self, class: &str, stat: &str) -> Option<u64> {
        let c = self.class(class)?;
        match stat {
            "count" => Some(c.count),
            "mean" => c.mean_ns(),
            _ => {
                let (_, q) = LAT_STATS.iter().find(|(name, _)| *name == stat)?;
                c.percentile(*q)
            }
        }
    }

    /// Element-wise saturating merge (keeps `self.day`).
    pub fn merge(&mut self, other: &LatencyRollup) {
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
    }
}

impl Rollup for LatencyRollup {
    fn from_event(event: &TraceEvent) -> Option<&Self> {
        match event {
            TraceEvent::LatencyRollup(r) => Some(r),
            _ => None,
        }
    }

    fn day(&self) -> u32 {
        self.day
    }

    /// `<class>.<stat>` (e.g. `host_read.p99`), read through
    /// [`LatencyRollup::stat`]. A rollup with no samples at all answers
    /// nothing, so its day is a gap in every series.
    fn series_value(&self, name: &str) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let (class, stat) = name.split_once('.')?;
        self.stat(class, stat)
    }

    fn probe() -> Self {
        let mut probe = LatencyRollup::empty(0);
        for c in probe.classes.iter_mut() {
            c.observe(1, 1);
        }
        probe
    }
}

/// The integer-nanosecond op cost model, quantized once from the flash
/// timing parameters (`flash::timing::TimingModel`) so that no float
/// ever reaches a histogram or a merge. All downstream arithmetic is
/// u64 adds/multiplies and one integer division for the `per/(per−L)`
/// multi-read factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct CostModelNs {
    /// Array read (sense) time, ns.
    pub read_ns: u64,
    /// Array program time, ns.
    pub prog_ns: u64,
    /// Block erase time, ns.
    pub erase_ns: u64,
    /// Extra latency per ECC decode, ns.
    pub ecc_ns: u64,
    /// Channel bandwidth, bytes per µs (integer; 800 = 800 MB/s).
    pub xfer_bytes_per_us: u64,
}

impl Default for CostModelNs {
    /// The quantization of the default mid-generation 3D TLC timing
    /// (tR 50 µs, tPROG 600 µs, tBERS 3 ms, ECC 5 µs, ONFI ~800 MB/s)
    /// — byte-identical to `CostModelNs::from_us` over
    /// `flash::timing::TimingModel::default()`, pinned by a test there.
    fn default() -> Self {
        CostModelNs {
            read_ns: 50_000,
            prog_ns: 600_000,
            erase_ns: 3_000_000,
            ecc_ns: 5_000,
            xfer_bytes_per_us: 800,
        }
    }
}

impl CostModelNs {
    /// Quantize microsecond timing parameters to integer nanoseconds.
    pub fn from_us(
        t_read_us: f64,
        t_prog_us: f64,
        t_erase_us: f64,
        ecc_extra_us: f64,
        xfer_bytes_per_us: f64,
    ) -> Self {
        let ns = |us: f64| (us * 1000.0).round().max(0.0) as u64;
        CostModelNs {
            read_ns: ns(t_read_us),
            prog_ns: ns(t_prog_us),
            erase_ns: ns(t_erase_us),
            ecc_ns: ns(ecc_extra_us),
            xfer_bytes_per_us: (xfer_bytes_per_us.round().max(1.0)) as u64,
        }
    }

    /// Bus transfer time for `bytes`, ns.
    pub fn xfer_ns(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(1000) / self.xfer_bytes_per_us.max(1)
    }

    /// The §4.2 multi-read sense cost: an fPage at tiredness level `L`
    /// yields only `per − L` useful oPages per sense, so serving one
    /// oPage costs `read_ns · per/(per−L)` of array time. Integer
    /// division; a dead level (`level >= per`) clamps to the full
    /// `per` senses.
    pub fn multi_read_ns(&self, per: u32, level: u32) -> u64 {
        let per = per.max(1) as u64;
        let useful = per.saturating_sub(level as u64).max(1);
        self.read_ns.saturating_mul(per) / useful
    }

    /// Full host-read cost for one oPage on a level-`level` page with
    /// `retries` extra senses: multi-read sense + retry senses + one
    /// ECC decode per sense attempt + transfer of the oPage.
    pub fn host_read_ns(&self, per: u32, level: u32, retries: u32, opage_bytes: u64) -> u64 {
        self.multi_read_ns(per, level)
            .saturating_add(self.read_ns.saturating_mul(retries as u64))
            .saturating_add(self.ecc_ns.saturating_mul(retries as u64 + 1))
            .saturating_add(self.xfer_ns(opage_bytes))
    }

    /// Host-write cost for one oPage, charged at submission
    /// (write-through attribution): program + transfer.
    pub fn host_write_ns(&self, opage_bytes: u64) -> u64 {
        self.prog_ns.saturating_add(self.xfer_ns(opage_bytes))
    }

    /// One whole GC pass as a single stall sample: each relocated
    /// oPage costs a sense + a program, plus the victim erase.
    pub fn gc_pass_ns(&self, relocated: u64) -> u64 {
        relocated
            .saturating_mul(self.read_ns.saturating_add(self.prog_ns))
            .saturating_add(self.erase_ns)
    }

    /// One scrub patrol invocation: the patrol sense + decode, plus
    /// transfer of whatever it refreshed (the re-program is charged by
    /// the flush path's writer, not here).
    pub fn scrub_ns(&self, refreshed_opages: u64, opage_bytes: u64) -> u64 {
        self.read_ns
            .saturating_add(self.ecc_ns)
            .saturating_add(self.xfer_ns(refreshed_opages.saturating_mul(opage_bytes)))
    }

    /// One regeneration copy: the host refills a regenerated minidisk
    /// of `msize_opages` oPages (program + transfer each).
    pub fn regen_ns(&self, msize_opages: u64, opage_bytes: u64) -> u64 {
        msize_opages.saturating_mul(self.host_write_ns(opage_bytes))
    }
}

/// Per-run latency accumulator the FTL charges into: one
/// [`ClassLatency`] per class, drained into a [`LatencyRollup`] at
/// every sample boundary. Ephemeral — never part of a snapshot.
#[derive(Debug, Clone, Default)]
pub struct LatencyAcc {
    classes: [ClassLatency; 5],
    any: bool,
}

impl LatencyAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        LatencyAcc {
            classes: Default::default(),
            any: false,
        }
    }

    /// Charge one op.
    pub fn charge(&mut self, class: LatClass, ns: u64) {
        self.classes[class as usize].observe(ns, 1);
        self.any = true;
    }

    /// True if anything was charged since the last drain.
    pub fn is_charged(&self) -> bool {
        self.any
    }

    /// Drain everything charged so far into a rollup for `day`.
    pub fn drain(&mut self, day: u32) -> LatencyRollup {
        let classes = std::mem::take(&mut self.classes);
        self.any = false;
        LatencyRollup {
            day,
            classes: classes.into_iter().collect(),
        }
    }
}

/// Per-shard fleet latency accumulator: `days` parallel sets of one
/// [`ClassLatency`] per class, observed per device per grid day and
/// merged in shard order — the latency counterpart of
/// [`crate::rollup::RollupKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyKernel {
    days: usize,
    /// `days × LAT_CLASSES.len()` distributions, day-major.
    slots: Vec<ClassLatency>,
}

impl LatencyKernel {
    /// An empty kernel over `days` grid days.
    pub fn new(days: usize) -> Self {
        LatencyKernel {
            days,
            slots: (0..days * LAT_CLASSES.len())
                .map(|_| ClassLatency::default())
                .collect(),
        }
    }

    /// Number of grid days this kernel covers.
    pub fn days(&self) -> usize {
        self.days
    }

    /// Fold `weight` samples of cost `ns` into grid day `gi`'s
    /// distribution for `class`.
    pub fn observe(&mut self, gi: usize, class: LatClass, ns: u64, weight: u64) {
        self.slots[gi * LAT_CLASSES.len() + class as usize].observe(ns, weight);
    }

    /// Merge another shard's distributions (element-wise saturating;
    /// commutative, but callers merge in shard order regardless).
    pub fn merge(&mut self, other: &LatencyKernel) {
        debug_assert_eq!(self.days, other.days);
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.merge(b);
        }
    }

    /// Extract grid day `gi` as a [`LatencyRollup`] stamped `day`.
    pub fn day_rollup(&self, gi: usize, day: u32) -> LatencyRollup {
        let base = gi * LAT_CLASSES.len();
        LatencyRollup {
            day,
            classes: self.slots[base..base + LAT_CLASSES.len()].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invert() {
        let mut last = 0usize;
        for ns in [
            0u64,
            1,
            7,
            8,
            9,
            100,
            4096,
            50_000,
            66_666,
            600_000,
            3_000_000,
            u64::MAX,
        ] {
            let b = lat_bucket(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
            if b < LAT_BUCKETS - 1 {
                assert!(ns < bucket_upper_ns(b), "{ns} outside bucket {b}");
            }
        }
        // Exact low buckets.
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(7), 7);
        assert_eq!(bucket_upper_ns(7), 8);
    }

    #[test]
    fn quantization_error_is_bounded() {
        // Reported upper edges stay within 1/LAT_SUB of the sample.
        for ns in [50_000u64, 66_666, 600_000, 3_000_000, 123_456_789] {
            let edge = bucket_upper_ns(lat_bucket(ns));
            assert!(edge > ns);
            assert!(
                (edge - ns) as f64 / ns as f64 <= 1.0 / LAT_SUB as f64 + 1e-12,
                "edge {edge} too far above {ns}"
            );
        }
    }

    #[test]
    fn cost_model_quantizes_the_timing_defaults() {
        // The flash TimingModel defaults, hand-quantized: tR 50 µs,
        // tPROG 600 µs, tBERS 3 ms, ECC 5 µs, 800 B/µs.
        let m = CostModelNs::from_us(50.0, 600.0, 3000.0, 5.0, 800.0);
        assert_eq!(m.read_ns, 50_000);
        assert_eq!(m.prog_ns, 600_000);
        assert_eq!(m.erase_ns, 3_000_000);
        assert_eq!(m.ecc_ns, 5_000);
        assert_eq!(m.xfer_ns(4096), 5120);
        // The §4.2 multi-read factor at 4 oPages/fPage.
        assert_eq!(m.multi_read_ns(4, 0), 50_000);
        assert_eq!(m.multi_read_ns(4, 1), 66_666); // 4/3, integer
        assert_eq!(m.multi_read_ns(4, 2), 100_000); // 4/2
        assert_eq!(m.multi_read_ns(4, 3), 200_000); // 4/1
                                                    // Retries add whole senses plus decodes.
        let base = m.host_read_ns(4, 0, 0, 4096);
        let retried = m.host_read_ns(4, 0, 2, 4096);
        assert_eq!(retried - base, 2 * 50_000 + 2 * 5_000);
    }

    #[test]
    fn acc_drains_and_resets() {
        let mut acc = LatencyAcc::new();
        assert!(!acc.is_charged());
        acc.charge(LatClass::HostRead, 55_120);
        acc.charge(LatClass::Gc, 3_650_000);
        assert!(acc.is_charged());
        let r = acc.drain(7);
        assert_eq!(r.day, 7);
        assert_eq!(r.class("host_read").unwrap().count, 1);
        assert_eq!(r.class("gc").unwrap().count, 1);
        assert_eq!(r.class("scrub").unwrap().count, 0);
        assert!(!acc.is_charged());
        assert!(acc.drain(8).is_empty());
    }

    #[test]
    fn kernel_merge_is_order_independent() {
        let mut a = LatencyKernel::new(2);
        let mut b = LatencyKernel::new(2);
        a.observe(0, LatClass::HostRead, 50_000, 10);
        a.observe(1, LatClass::HostWrite, 605_120, 3);
        b.observe(0, LatClass::HostRead, 66_666, 5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let day0 = ab.day_rollup(0, 100);
        assert_eq!(day0.day, 100);
        assert_eq!(day0.class("host_read").unwrap().count, 15);
        assert_eq!(day0.stat("host_write", "count"), Some(0));
    }

    #[test]
    fn rollup_stats_and_json_round_trip() {
        let mut r = LatencyRollup::empty(42);
        r.classes[0].observe(50_000, 90);
        r.classes[0].observe(66_666, 10);
        assert_eq!(r.stat("host_read", "count"), Some(100));
        assert_eq!(
            r.stat("host_read", "p999"),
            Some(bucket_upper_ns(lat_bucket(66_666)))
        );
        assert_eq!(
            r.stat("host_read", "mean"),
            Some((90 * 50_000 + 10 * 66_666) / 100)
        );
        assert_eq!(r.stat("host_read", "bogus"), None);
        assert_eq!(r.stat("bogus", "p50"), None);
        assert_eq!(r.stat("gc", "p50"), None); // empty class

        // Series names are `<class>.<stat>`; an all-empty rollup is a
        // gap in every series, its zero counts included.
        assert_eq!(
            r.series_value("host_read.p999"),
            r.stat("host_read", "p999")
        );
        assert_eq!(r.series_value("gc.count"), Some(0));
        assert_eq!(r.series_value("host_read_p999"), None);
        assert_eq!(LatencyRollup::empty(43).series_value("gc.count"), None);
        let json = serde_json::to_string(&r).unwrap();
        let back: LatencyRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn fmt_ns_is_fixed_precision() {
        assert_eq!(fmt_ns(55_120), "55.120us");
        assert_eq!(fmt_ns(999), "0.999us");
        assert_eq!(fmt_ns(3_000_000), "3000.000us");
    }
}
