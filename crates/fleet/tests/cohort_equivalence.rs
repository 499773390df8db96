//! Equivalence gate for the cohort fleet engine against its oracle,
//! the per-device `StatDevice` engine. Over random fleet
//! configurations — device count, write pressure, load imbalance, AFR,
//! horizon, mode, rebirth — the struct-of-arrays
//! [`salamander_fleet::cohort::Cohort`] path produces the *same*
//! `FleetTimeline` as the per-device path, at one thread and at four;
//! on the exact Fig. 3a/3b fleets it reproduces the whole observed run.
//! The unit tests in `crate::cohort` pin day-by-day lockstep on fixed
//! configurations; this file walks the configuration space.

use proptest::prelude::*;
use salamander_ecc::profile::Tiredness;
use salamander_exec::Threads;
use salamander_flash::geometry::FlashGeometry;
use salamander_flash::voltage::CellMode;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim};
use salamander_obs::Profiler;

fn stat_mode() -> impl Strategy<Value = StatMode> {
    prop_oneof![
        Just(StatMode::Baseline),
        Just(StatMode::Shrink),
        Just(StatMode::Regen {
            max_level: Tiredness::L1
        }),
        Just(StatMode::Regen {
            max_level: Tiredness::L3
        }),
    ]
}

fn rebirth() -> impl Strategy<Value = Option<CellMode>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(CellMode::Slc)),
        1 => Just(Some(CellMode::Mlc)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timeline equality across engines and thread counts. Samples are
    /// compared with `==` (exact integers and exact float bits): the
    /// engines must agree to the last committed oPage on every sampled
    /// day, for every death day, under every mode.
    #[test]
    fn cohort_engine_matches_per_device_reference(
        devices in 1u32..=12,
        dwpd in 0.5f64..8.0,
        sigma in prop_oneof![Just(0.0f64), Just(0.25f64)],
        afr in 0.0f64..0.05,
        horizon in 50u32..=800,
        sample_every in prop_oneof![Just(7u32), Just(30u32), Just(100u32)],
        seed in any::<u64>(),
        mode in stat_mode(),
        rebirth in rebirth(),
    ) {
        let cfg = FleetConfig {
            device: StatDeviceConfig {
                geometry: FlashGeometry::small_test(),
                rebirth,
                ..StatDeviceConfig::datacenter(mode)
            },
            devices,
            dwpd,
            dwpd_sigma: sigma,
            afr,
            horizon_days: horizon,
            sample_every_days: sample_every,
            seed,
        };
        let reference = FleetSim::new(cfg)
            .with_engine(FleetEngine::PerDevice)
            .run_threads(Threads::fixed(1));
        for threads in [1, 4] {
            let cohort = FleetSim::new(cfg)
                .with_engine(FleetEngine::Cohort)
                .run_threads(Threads::fixed(threads));
            prop_assert_eq!(
                &reference,
                &cohort,
                "cohort engine diverged at {} thread(s)",
                threads
            );
        }
    }
}

/// The fleets `fig3a` and `fig3b` publish — datacenter Baseline,
/// ShrinkS and RegenS (cap L1) devices, 100 of them at 5 DWPD, σ 0.25,
/// 1% AFR, ten years sampled every 30 days, seed 42 — observed on the
/// per-device oracle at 1 and 4 threads and on the cohort engine at 4
/// and 1: timeline, trace, metrics text and both rollup families are
/// identical.
#[test]
fn fig3_fleets_match_the_per_device_oracle() {
    for (name, mode) in [
        ("Baseline", StatMode::Baseline),
        ("ShrinkS", StatMode::Shrink),
        (
            "RegenS",
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
        ),
    ] {
        let sim = FleetSim::new(FleetConfig {
            device: StatDeviceConfig::datacenter(mode),
            devices: 100,
            dwpd: 5.0,
            dwpd_sigma: 0.25,
            afr: 0.01,
            horizon_days: 3650,
            sample_every_days: 30,
            seed: 42,
        });
        let label = format!("fleet={name}");
        let run = |engine: FleetEngine, threads: usize| {
            sim.clone().with_engine(engine).run_observed(
                Threads::fixed(threads),
                &label,
                &Profiler::disabled(),
            )
        };
        let oracle = run(FleetEngine::PerDevice, 1);
        for (engine, threads) in [
            (FleetEngine::PerDevice, 4),
            (FleetEngine::Cohort, 4),
            (FleetEngine::Cohort, 1),
        ] {
            let got = run(engine, threads);
            let at = format!("{name}: {engine:?} @{threads}");
            assert_eq!(got.timeline, oracle.timeline, "timeline, {at}");
            assert_eq!(got.trace, oracle.trace, "trace, {at}");
            assert_eq!(
                got.metrics.render(),
                oracle.metrics.render(),
                "metrics, {at}"
            );
            assert_eq!(got.rollups, oracle.rollups, "rollups, {at}");
            assert_eq!(got.latency, oracle.latency, "latency rollups, {at}");
        }
    }
}
