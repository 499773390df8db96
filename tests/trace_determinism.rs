//! The DESIGN.md §9 determinism contract, enforced end to end: the
//! JSONL trace, rendered metrics, and health analytics (DESIGN.md §11)
//! of an observed run are byte-identical at any thread count.
//! `scripts/check.sh` runs this test explicitly.

use salamander::config::{Mode, SsdConfig};
use salamander::sim::EnduranceSim;
use salamander_exec::Threads;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim};
use salamander_obs::{trace, MetricsRegistry, Profiler};

/// Render a full compare-modes run (all mode shards merged in mode
/// order) to (JSONL trace, Prometheus text, per-mode health JSON) at a
/// given thread count.
fn endurance_telemetry(threads: Threads) -> (String, String, String) {
    let cfg = SsdConfig::small_test();
    let profiler = Profiler::disabled();
    let observed = EnduranceSim::compare_modes_observed(cfg, threads, true, true, &profiler, None);
    let mut records = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut health = String::new();
    for (o, mode) in observed.into_iter().zip(Mode::ALL) {
        records.extend(o.trace);
        metrics.merge(&o.metrics.relabelled(&format!("mode=\"{}\"", mode.name())));
        health.push_str(&serde_json::to_string(&o.health).expect("health serializes"));
        health.push('\n');
    }
    trace::resequence(&mut records);
    (trace::to_jsonl(&records), metrics.render(), health)
}

#[test]
fn endurance_trace_is_byte_identical_across_thread_counts() {
    let (trace_serial, metrics_serial, health_serial) = endurance_telemetry(Threads::fixed(1));
    let (trace_parallel, metrics_parallel, health_parallel) =
        endurance_telemetry(Threads::fixed(4));
    assert!(!trace_serial.is_empty());
    assert_eq!(
        trace_serial, trace_parallel,
        "trace depends on thread count"
    );
    assert_eq!(
        metrics_serial, metrics_parallel,
        "metrics depend on thread count"
    );
    // The health reports (forecasts, per-minidisk scores, anomalies)
    // are serialized JSON — byte identity covers every float and every
    // anomaly record.
    assert_eq!(
        health_serial, health_parallel,
        "health analytics depend on thread count"
    );
    assert!(
        health_serial.contains("\"mdisks\":[{"),
        "health reports carry per-minidisk detail: {health_serial}"
    );
    // And the JSONL round-trips losslessly.
    let parsed = trace::parse_jsonl(&trace_serial).expect("trace parses");
    assert_eq!(trace::to_jsonl(&parsed), trace_serial);
}

fn fleet_telemetry(threads: Threads, engine: FleetEngine) -> (String, String, String) {
    let sim = FleetSim::new(FleetConfig {
        device: StatDeviceConfig::datacenter(StatMode::Shrink),
        devices: 40,
        dwpd: 5.0,
        dwpd_sigma: 0.25,
        afr: 0.01,
        horizon_days: 1500,
        sample_every_days: 100,
        seed: 42,
    })
    .with_engine(engine);
    let o = sim.run_observed(threads, "fleet=determinism", &Profiler::disabled());
    let health = serde_json::to_string(&o.health).expect("fleet health serializes");
    (trace::to_jsonl(&o.trace), o.metrics.render(), health)
}

#[test]
fn fleet_trace_is_byte_identical_across_thread_counts() {
    let (trace_serial, metrics_serial, health_serial) =
        fleet_telemetry(Threads::fixed(1), FleetEngine::PerDevice);
    let (trace_parallel, metrics_parallel, health_parallel) =
        fleet_telemetry(Threads::fixed(4), FleetEngine::PerDevice);
    assert!(trace_serial.lines().count() > 1, "expected some deaths");
    assert_eq!(trace_serial, trace_parallel);
    assert_eq!(metrics_serial, metrics_parallel);
    assert_eq!(
        health_serial, health_parallel,
        "fleet health (wear-rate outlier scan) depends on thread count"
    );
}

/// ISSUE 7: the per-day fleet rollups (counts + wear/PEC/capacity/health
/// distributions, DESIGN.md §14) obey the same contract: byte-identical
/// JSON across BOTH engines and BOTH thread counts. Integer bins and
/// shard-order merges mean there is no float accumulation to drift.
#[test]
fn fleet_rollups_are_byte_identical_across_engines_and_thread_counts() {
    let rollups = |threads: Threads, engine: FleetEngine| {
        let sim = FleetSim::new(FleetConfig {
            device: StatDeviceConfig::datacenter(StatMode::Shrink),
            devices: 40,
            dwpd: 5.0,
            dwpd_sigma: 0.25,
            afr: 0.01,
            horizon_days: 1500,
            sample_every_days: 100,
            seed: 42,
        })
        .with_engine(engine);
        let o = sim.run_observed(threads, "fleet=determinism", &Profiler::disabled());
        (
            serde_json::to_string(&o.rollups).expect("rollups serialize"),
            o.rollups,
        )
    };
    let (reference, parsed) = rollups(Threads::fixed(1), FleetEngine::PerDevice);
    assert!(!parsed.is_empty(), "expected sampled-day rollups");
    assert!(
        parsed.windows(2).all(|w| w[0].day < w[1].day),
        "rollup days must be strictly increasing"
    );
    for r in &parsed {
        assert_eq!(r.alive + r.dead(), 40, "every device accounted for");
        assert_eq!(
            r.dist("wear").unwrap().iter().sum::<u32>(),
            r.alive,
            "wear histogram bins the survivors exactly"
        );
    }
    // Deaths accumulate over the horizon, so the series is not trivial.
    assert!(
        parsed.last().unwrap().dead() > parsed.first().unwrap().dead(),
        "expected deaths over a 1500-day horizon at 5 DWPD"
    );
    for (threads, engine, what) in [
        (Threads::fixed(4), FleetEngine::PerDevice, "per-device @4"),
        (Threads::fixed(1), FleetEngine::Cohort, "cohort @1"),
        (Threads::fixed(4), FleetEngine::Cohort, "cohort @4"),
    ] {
        assert_eq!(
            rollups(threads, engine).0,
            reference,
            "{what} rollups diverge from the per-device @1 reference"
        );
    }
}

/// ISSUE 9: the per-day latency rollups (integer-ns log2-bucket
/// histograms per op class, DESIGN.md §15) obey the same contract:
/// byte-identical JSON across BOTH engines and BOTH thread counts. A
/// RegenS fleet is used so the host-read distribution actually climbs
/// the multi-read ladder — the hardest case for merge determinism,
/// since every level contributes its own bucket.
#[test]
fn fleet_latency_rollups_are_byte_identical_across_engines_and_thread_counts() {
    use salamander_ecc::profile::Tiredness;
    let latency = |threads: Threads, engine: FleetEngine| {
        let sim = FleetSim::new(FleetConfig {
            device: StatDeviceConfig::datacenter(StatMode::Regen {
                max_level: Tiredness::L1,
            }),
            devices: 40,
            dwpd: 5.0,
            dwpd_sigma: 0.25,
            afr: 0.01,
            horizon_days: 1500,
            sample_every_days: 100,
            seed: 42,
        })
        .with_engine(engine);
        let o = sim.run_observed(threads, "fleet=determinism", &Profiler::disabled());
        (
            serde_json::to_string(&o.latency).expect("latency rollups serialize"),
            o.latency,
        )
    };
    let (reference, parsed) = latency(Threads::fixed(1), FleetEngine::PerDevice);
    assert!(!parsed.is_empty(), "expected sampled-day latency rollups");
    assert!(
        parsed.iter().any(|r| !r.is_empty()),
        "expected populated host read/write distributions"
    );
    // The RegenS multi-read tax must show up as a p99 rise over the
    // horizon (pages climb to L1, so reads cross a bucket edge).
    let p99 = |r: &salamander_obs::LatencyRollup| r.stat("host_read", "p99");
    let first = parsed.iter().find_map(p99).expect("early p99");
    let last = parsed.iter().rev().find_map(p99).expect("late p99");
    assert!(
        last > first,
        "expected the multi-read tax in the tail: first p99 {first}ns, last {last}ns"
    );
    for (threads, engine, what) in [
        (Threads::fixed(4), FleetEngine::PerDevice, "per-device @4"),
        (Threads::fixed(1), FleetEngine::Cohort, "cohort @1"),
        (Threads::fixed(4), FleetEngine::Cohort, "cohort @4"),
    ] {
        assert_eq!(
            latency(threads, engine).0,
            reference,
            "{what} latency rollups diverge from the per-device @1 reference"
        );
    }
}

/// ISSUE 10: the per-tick cluster durability rollups (DESIGN.md §16)
/// obey the same contract. The chunk-store harness is deterministic by
/// construction (integer counters, BTreeMap iteration order), so two
/// identically-seeded runs must produce byte-identical JSONL traces
/// and rollup JSON regardless of the global thread default — and every
/// cluster query must render string-identically over the flat JSONL
/// records and the indexed `.strc` form.
#[test]
fn cluster_rollups_are_byte_identical_and_format_agnostic() {
    use salamander_difs::types::DifsConfig;
    use salamander_fleet::bridge::ClusterHarness;
    use salamander_health::query::{self, Query, TraceSource};
    use salamander_obs::strc::{write_strc, StrcReader};
    use salamander_obs::{Obs, SimTime, TraceEvent};

    let run = || {
        let obs = Obs::recording();
        obs.trace.emit(
            SimTime::ZERO,
            TraceEvent::RunMarker {
                label: "cluster=determinism".to_string(),
            },
        );
        let mut h = ClusterHarness::new(DifsConfig {
            replication: 3,
            chunk_bytes: 256 * 1024,
            // Throttled repair stretches replication-exposure windows,
            // so the dwell histogram is non-trivial.
            recovery_chunks_per_tick: Some(2),
        })
        .with_obs(obs.clone());
        for s in 0..6 {
            h.add_device(SsdConfig::small_test().mode(Mode::Shrink).seed(100 + s));
        }
        h.fill(0.6);
        let mut rounds = 0;
        while h.alive_devices() > 0 && rounds < 60 {
            h.churn(250);
            rounds += 1;
        }
        h.check_invariants().expect("store invariants hold");
        let rollups = h.cluster_rollups();
        (trace::to_jsonl(&obs.trace.take()), rollups)
    };
    let (trace_a, rollups_a) = run();
    let (trace_b, rollups_b) = run();
    assert_eq!(trace_a, trace_b, "cluster trace is not deterministic");
    assert_eq!(
        serde_json::to_string(&rollups_a).expect("rollups serialize"),
        serde_json::to_string(&rollups_b).expect("rollups serialize"),
        "cluster rollup series is not deterministic"
    );
    assert!(rollups_a.len() > 10, "one rollup per churn round");
    let last = rollups_a.last().expect("rollups present");
    assert!(
        last.exposure_windows > 0,
        "throttled recovery must close some exposure windows"
    );
    assert!(
        last.exposure.iter().skip(1).sum::<u64>() > 0,
        "throttled recovery must stretch some windows past zero dwell"
    );
    assert!(last.repair_bytes > 0, "expected repair traffic");

    // Every cluster query renders identically over flat records and
    // the indexed .strc form.
    let records = trace::parse_jsonl(&trace_a).expect("trace parses");
    let path = std::env::temp_dir().join(format!(
        "salamander-cluster-determinism-{}.strc",
        std::process::id()
    ));
    write_strc(&path, &records, 64).expect("strc writes");
    let indexed = |q: Query<'_>| {
        let mut r = StrcReader::open(&path).expect("strc opens");
        q.run(TraceSource::Strc(&mut r)).expect("indexed query")
    };
    assert_eq!(
        query::cluster(&records),
        indexed(Query::Cluster),
        "obsctl cluster diverges between JSONL and .strc"
    );
    assert_eq!(
        query::exposure(&records),
        indexed(Query::Exposure),
        "obsctl exposure diverges between JSONL and .strc"
    );
    let day = last.day;
    assert_eq!(
        query::drill(&records, day),
        indexed(Query::Drill(day)),
        "obsctl drill diverges between JSONL and .strc"
    );
    let _ = std::fs::remove_file(&path);
}

/// ISSUE 6: the cohort engine honors the same determinism contract —
/// its telemetry is byte-identical at any thread count — AND is
/// byte-identical to the legacy per-device engine's, so switching
/// engines never changes any observable output.
#[test]
fn cohort_engine_telemetry_matches_per_device_at_any_thread_count() {
    let reference = fleet_telemetry(Threads::fixed(1), FleetEngine::PerDevice);
    let cohort_serial = fleet_telemetry(Threads::fixed(1), FleetEngine::Cohort);
    let cohort_parallel = fleet_telemetry(Threads::fixed(4), FleetEngine::Cohort);
    assert!(reference.0.lines().count() > 1, "expected some deaths");
    assert_eq!(
        cohort_serial, cohort_parallel,
        "cohort telemetry depends on thread count"
    );
    assert_eq!(
        reference, cohort_serial,
        "cohort engine diverges from the per-device reference"
    );
}
