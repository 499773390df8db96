//! The Salamander benchmark: three workloads driven through the
//! layers' public functions, with end-to-end figures from untraced
//! runs and per-layer attribution from a separate traced run.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.

pub mod cluster_churn;
pub mod fleet_aging;
pub mod host;
pub mod report;
pub mod span;
pub mod stats;
pub mod trace_query;

use report::Metric;
use span::{Tracer, ROOT};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed whose output digests are recorded in [`expected_digest`].
pub const DEFAULT_SEED: u64 = 42;

/// Repetitions (set-up plus measurement) every run makes at least, so
/// set-up time is a median and every repetition is checked against
/// the others.
pub const MIN_REPS: usize = 3;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fleet_aging", "cluster_churn", "trace_query"];

/// Input scale: `Full` for measurement, `Tiny` for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred fleet devices, small-geometry devices, a small
    /// trace.
    Tiny,
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (at least [`MIN_REPS`] repetitions are made).
    pub seconds: f64,
    /// Traced run: per-layer figures instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Directory for files the run writes (results, spans, traces).
    pub out_dir: PathBuf,
}

/// Run one workload.
pub fn run(o: &Opts) -> Option<report::Report> {
    Some(match o.workload.as_str() {
        "fleet_aging" => fleet_aging::run(o),
        "cluster_churn" => cluster_churn::run_workload(o),
        "trace_query" => trace_query::run(o),
        _ => return None,
    })
}

/// Output digests of the default seed, per workload and size. A
/// speed-only change to the simulator must leave every one unchanged.
pub fn expected_digest(workload: &str, size: Size) -> u64 {
    match (workload, size) {
        ("fleet_aging", Size::Full) => 0xf507_fb87_2417_07f2,
        ("fleet_aging", Size::Tiny) => 0x65e6_2d19_6015_9cb1,
        ("cluster_churn", Size::Full) => 0x2e0e_c69c_e72f_9d8d,
        ("cluster_churn", Size::Tiny) => 0x4f35_7a09_0596_b84f,
        ("trace_query", Size::Full) => 0x9307_29fa_daaf_a72f,
        ("trace_query", Size::Tiny) => 0xa7be_485f_9312_21f4,
        _ => panic!("no digest recorded for {workload}"),
    }
}

/// The end-to-end figures every workload reports, in `BENCHMARK.json`
/// order: the median set-up time, peak memory, the work rate over the
/// whole measured time, and the 90th percentile of the operation
/// latencies.
///
/// The median operation latency is printed ([`op_median`]) but not
/// declared. On a host whose speed switches between two levels for
/// tens of seconds at a time, the median of one run's repetitions
/// jumps between the levels with the share of time spent in each; the
/// mean (the work rate) moves in proportion to that share, and the
/// 90th percentile stays at the slower level, so both spread less from
/// run to run.
pub fn end_to_end(setup_s: &[f64], work: f64, measured_s: f64, op_ms: &[f64]) -> Vec<Metric> {
    let n = op_ms.len() as u64;
    vec![
        Metric::new("setup_s", stats::median(setup_s), "s", setup_s.len() as u64),
        Metric::new("peak_rss_mib", host::peak_rss_mib(), "MiB", 1),
        Metric::new("work_per_s", work / measured_s, "1/s", n),
        Metric::new("op_p90_ms", stats::percentile(op_ms, 90.0), "ms", n),
    ]
}

/// The median operation latency, printed beside the end-to-end figures.
pub fn op_median(op_ms: &[f64]) -> Metric {
    Metric::new(
        "op_p50_ms",
        stats::percentile(op_ms, 50.0),
        "ms",
        op_ms.len() as u64,
    )
}

/// Every per-layer figure with its unit, in `BENCHMARK.json` order.
/// Each traced run reports all of them; a layer off the workload's path
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.cohort_new_us_per_device", "us"),
    ("fleet.run_s.regen", "s"),
    ("fleet.run_s.shrink", "s"),
    ("fleet.age_devices_s", "s"),
    ("cohort.next_check_step_s", "s"),
    ("cohort.quiet_days_s", "s"),
    ("cohort.afr_prescan_s", "s"),
    ("fleet.unattributed_s", "s"),
    ("fleet.device_days", "count"),
    ("fleet.wear_deaths", "count"),
    ("fleet.afr_deaths", "count"),
    ("fleet.samples", "count"),
    ("exec.speedup_2t", "ratio"),
    ("ftl.write_batch_ns_per_op", "ns"),
    ("ftl.read_ns_per_op", "ns"),
    ("ftl.write_amplification", "ratio"),
    ("ftl.gc_runs", "count"),
    ("ftl.relocated_opages", "count"),
    ("ftl.buffer_hit_ratio", "ratio"),
    ("ftl.mdisks_decommissioned", "count"),
    ("ftl.mdisks_regenerated", "count"),
    ("flash.programs", "count"),
    ("flash.reads", "count"),
    ("flash.erases", "count"),
    ("flash.raw_bit_errors", "count"),
    ("ecc.read_retries_per_read", "ratio"),
    ("ecc.uncorrectable_reads", "count"),
    ("difs.call_s", "s"),
    ("difs.tick_us", "us"),
    ("difs.re_replications", "count"),
    ("difs.recovery_bytes", "bytes"),
    ("difs.lost_chunks", "count"),
    ("cluster.rounds", "count"),
    ("obs.cluster_rollup_us", "us"),
    ("obs.latency_rollup_us", "us"),
    ("obs.strc_open_us", "us"),
    ("obs.strc_decode_mb_per_s", "MB/s"),
    ("obs.chunks_decoded_ratio", "ratio"),
    ("obs.strc_encode_mb_per_s", "MB/s"),
    ("obs.jsonl_parse_mb_per_s", "MB/s"),
    ("health.query_ms.lifecycle", "ms"),
    ("health.query_ms.why", "ms"),
    ("health.query_ms.fleet_rollup", "ms"),
    ("health.query_ms.fleet_timeline", "ms"),
    ("health.query_ms.percentiles", "ms"),
    ("health.query_ms.latency", "ms"),
    ("health.query_ms.cluster", "ms"),
    ("health.query_ms.exposure", "ms"),
    ("health.query_ms.drill", "ms"),
    ("telemetry.request_us.metrics", "us"),
    ("telemetry.request_us.health", "us"),
    ("telemetry.request_us.fleet", "us"),
    ("telemetry.request_us.fleet_series", "us"),
    ("telemetry.request_us.latency_series", "us"),
    ("telemetry.request_us.cluster_series", "us"),
    ("telemetry.response_bytes", "bytes"),
    ("telemetry.publish_ms", "ms"),
    ("fleet.self_s", "s"),
    ("core.self_s", "s"),
    ("ftl.self_s", "s"),
    ("difs.self_s", "s"),
    ("obs.self_s", "s"),
    ("health.self_s", "s"),
    ("telemetry.self_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// Per-layer figures of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// No figures yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one figure.
    pub fn set(&mut self, name: &str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name.to_string(), v);
    }

    /// Add the attribution rows: each layer's self time per traced
    /// repetition, the timed section's unattributed time and share,
    /// and the tracing overhead (traced over untraced time of the same
    /// work, minus one).
    pub fn finish(&mut self, tr: &Tracer, untraced_s: &[f64], traced_s: &[f64]) {
        let reps = traced_s.len().max(1) as f64;
        for (layer, s) in tr.self_by_layer() {
            let name = format!("{layer}.self_s");
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.0.insert(name, s / reps);
            }
        }
        let root = tr.agg(ROOT);
        self.set("unattributed_s", root.self_ns as f64 / 1e9 / reps);
        self.set(
            "unattributed_share",
            root.self_ns as f64 / root.total_ns.max(1) as f64,
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        self.set(
            "trace_overhead_share",
            mean(traced_s) / mean(untraced_s) - 1.0,
        );
    }

    /// Every [`PER_LAYER`] figure, 0 where this workload has none.
    pub fn metrics(&self, samples: u64) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(n, u)| Metric::new(*n, self.0.get(*n).copied().unwrap_or(0.0), u, samples))
            .collect()
    }
}
