//! `fleet_aging`: the paper's fleet figure path (Fig. 3a/3b). Two
//! cohort-engine fleets per repetition, fanned out over two threads:
//! RegenS-L3 at 1 DWPD, where devices live long and per-day aging
//! dominates, and ShrinkS at 5 DWPD, where devices die early and
//! `Cohort::new` (seeded variance draws plus a sort) dominates. It is
//! the only workload that uses the `exec` fan-out, and it bypasses the
//! FTL, diFS, `.strc`, health and telemetry layers entirely.

use crate::report::{Metric, Report};
use crate::span::{Tracer, ROOT};
use crate::stats::{median, Fnv};
use crate::{end_to_end, expected_digest, op_median, Layers, Opts, Size, DEFAULT_SEED, MIN_REPS};
use salamander_ecc::profile::Tiredness;
use salamander_exec::Threads;
use salamander_flash::geometry::FlashGeometry;
use salamander_fleet::cohort::Cohort;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSample, FleetSim, FleetTimeline};
use salamander_obs::Profiler;
use std::time::{Duration, Instant};

/// Fleet sizes (devices) of one repetition.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    regen: u32,
    shrink: u32,
    warmup: u32,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes {
            regen: 16_000,
            shrink: 16_000,
            warmup: 1_024,
        },
        Size::Tiny => Sizes {
            regen: 300,
            shrink: 300,
            warmup: 16,
        },
    }
}

impl Sizes {
    /// The warm-up pair's sizes.
    fn warmup(self) -> Sizes {
        Sizes {
            regen: self.warmup,
            shrink: self.warmup,
            warmup: self.warmup,
        }
    }
}

/// Small-geometry devices over five simulated years, sampled monthly.
fn config(mode: StatMode, dwpd: f64, devices: u32, seed: u64) -> FleetConfig {
    FleetConfig {
        device: StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(mode)
        },
        devices,
        dwpd,
        dwpd_sigma: 0.25,
        afr: 0.01,
        horizon_days: 1825,
        sample_every_days: 30,
        seed,
    }
}

fn regen(devices: u32, seed: u64) -> FleetConfig {
    let mode = StatMode::Regen {
        max_level: Tiredness::L3,
    };
    config(mode, 1.0, devices, seed)
}

fn shrink(devices: u32, seed: u64) -> FleetConfig {
    config(StatMode::Shrink, 5.0, devices, seed)
}

/// Device-days simulated: alive devices integrated over the sampling
/// grid.
fn device_days(t: &FleetTimeline) -> f64 {
    t.samples
        .windows(2)
        .map(|w| w[0].alive as f64 * (w[1].day - w[0].day) as f64)
        .sum()
}

/// One repetition: both fleets, timed separately.
struct Pair {
    regen: FleetTimeline,
    shrink: FleetTimeline,
    regen_s: f64,
    shrink_s: f64,
}

impl Pair {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.debug(&self.regen.samples);
        h.debug(&self.shrink.samples);
        h.finish()
    }
}

fn run_pair(s: Sizes, seed: u64, threads: usize, tr: &mut Tracer) -> Pair {
    let threads = Threads::fixed(threads);
    let sim = |cfg| FleetSim::new(cfg).with_engine(FleetEngine::Cohort);
    let (r, s_) = (sim(regen(s.regen, seed)), sim(shrink(s.shrink, seed)));
    let t = Instant::now();
    let regen = tr.span("fleet.run_regen", || r.run_threads(threads));
    let regen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shrink = tr.span("fleet.run_shrink", || s_.run_threads(threads));
    let shrink_s = t.elapsed().as_secs_f64();
    Pair {
        regen,
        shrink,
        regen_s,
        shrink_s,
    }
}

/// The whole-repetition digest for `seed` at full or tiny size.
pub fn digest(size: Size, seed: u64) -> u64 {
    run_pair(sizes(size), seed, 2, &mut Tracer::off()).digest()
}

/// Run the workload.
pub fn run(o: &Opts) -> Report {
    let s = sizes(o.size);
    let mut rep = Report::default();
    let mut want = (o.seed == DEFAULT_SEED).then(|| expected_digest("fleet_aging", o.size));
    let mut setup = Vec::new();
    let (mut pair_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut regen_dd, mut shrink_dd) = (0.0, 0.0);
    let (mut regen_s, mut shrink_s) = (Vec::new(), Vec::new());
    let mut tr = Tracer::on();
    while pair_s.len() < MIN_REPS || pair_s.iter().sum::<f64>() < o.seconds {
        // Set-up: a small warm-up pair, so the timed pairs find the
        // process-wide wear tables and the allocator already warm.
        let t = Instant::now();
        std::hint::black_box(run_pair(
            s.warmup(),
            o.seed ^ 0x5741_524d,
            2,
            &mut Tracer::off(),
        ));
        setup.push(t.elapsed().as_secs_f64());

        let p = run_pair(s, o.seed, 2, &mut Tracer::off());
        pair_s.push(p.regen_s + p.shrink_s);
        regen_dd = device_days(&p.regen);
        shrink_dd = device_days(&p.shrink);
        regen_s.push(p.regen_s);
        shrink_s.push(p.shrink_s);
        rep.check_against(&mut want, "fleet pair (2 threads)", 2, p.digest());
        if o.trace {
            tr.enter(ROOT);
            let p = run_pair(s, o.seed, 2, &mut tr);
            tr.exit();
            traced_s.push(p.regen_s + p.shrink_s);
            rep.check_against(&mut want, "fleet pair (2 threads, traced)", 2, p.digest());
        }
    }
    rep.rep_s = pair_s.clone();
    if o.seed != DEFAULT_SEED || o.trace {
        // Thread-count invariance: the same pair on one thread must
        // produce the same timelines (and, traced, prices the fan-out).
        let p = run_pair(s, o.seed, 1, &mut Tracer::off());
        rep.check_against(&mut want, "fleet pair (1 thread)", 2, p.digest());
        if o.trace {
            let t = Timings {
                untraced: pair_s,
                traced: traced_s,
                one_thread: p.regen_s + p.shrink_s,
            };
            return traced(o, s, rep, &mut tr, &t, want);
        }
    }
    // An operation is a million simulated device-days, timed per pair:
    // a pair's length in device-days depends on the seed's draws.
    let dd = regen_dd + shrink_dd;
    let op_ms: Vec<f64> = pair_s.iter().map(|s| s * 1e9 / dd).collect();
    let reps = pair_s.len() as f64;
    rep.metrics = end_to_end(&setup, dd * reps, pair_s.iter().sum(), &op_ms);
    let rate = |dd: f64, s: &[f64]| dd * reps / s.iter().sum::<f64>();
    rep.detail = vec![
        Metric::new(
            "regen_device_days_per_s",
            rate(regen_dd, &regen_s),
            "device-days/s",
            pair_s.len() as u64,
        ),
        Metric::new(
            "shrink_device_days_per_s",
            rate(shrink_dd, &shrink_s),
            "device-days/s",
            pair_s.len() as u64,
        ),
        op_median(&op_ms),
    ];
    rep
}

/// Pair times of a traced run.
struct Timings {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// The pair on one thread.
    one_thread: f64,
}

/// The traced run's per-layer figures.
fn traced(
    o: &Opts,
    s: Sizes,
    mut rep: Report,
    tr: &mut Tracer,
    t: &Timings,
    mut want: Option<u64>,
) -> Report {
    let mut l = Layers::new();
    let reps = t.traced.len() as f64;
    let (run_r, run_s) = (tr.agg("fleet.run_regen"), tr.agg("fleet.run_shrink"));
    l.set("fleet.run_s.regen", run_r.total_ns as f64 / 1e9 / reps);
    l.set("fleet.run_s.shrink", run_s.total_ns as f64 / 1e9 / reps);
    l.set("exec.speedup_2t", t.one_thread / median(&t.untraced));

    // Cohort construction on the workload's own device seeds.
    let mut cohort_s = 0.0;
    for cfg in [regen(s.regen, o.seed), shrink(s.shrink, o.seed)] {
        let seeds: Vec<u64> = (0..cfg.devices)
            .map(|i| cfg.seed.wrapping_add(1 + i as u64))
            .collect();
        let start = Instant::now();
        std::hint::black_box(Cohort::new(cfg.device, &seeds).len());
        cohort_s += start.elapsed().as_secs_f64();
    }
    l.set(
        "fleet.cohort_new_us_per_device",
        cohort_s * 1e6 / (s.regen + s.shrink) as f64,
    );

    // The engine's own phase timers, from one observed run per fleet,
    // folded in as children of the run span.
    let mut phases = Tracer::on();
    let mut observed = Vec::new();
    for cfg in [regen(s.regen, o.seed), shrink(s.shrink, o.seed)] {
        let profiler = Profiler::enabled();
        let sim = FleetSim::new(cfg).with_engine(FleetEngine::Cohort);
        let run = phases.span("fleet.run_observed", || {
            sim.run_observed(Threads::fixed(2), "", &profiler)
        });
        observed.push(run.timeline);
        let stat = |name: &str| {
            profiler
                .stats()
                .into_iter()
                .find(|(n, _)| n == name)
                .map_or((0, Duration::ZERO), |(_, st)| (st.calls, st.total))
        };
        let age = stat("fleet/age_devices");
        phases.fold_child("fleet.run_observed", "fleet.age_devices", age.0, age.1);
        // Cohort phases are summed over the worker threads; divide by
        // the thread count to put them on the wall-clock axis.
        for (name, key) in [
            ("cohort/next_check_step", "cohort.next_check_step"),
            ("cohort/quiet_days", "cohort.quiet_days"),
            ("cohort/afr_prescan", "cohort.afr_prescan"),
        ] {
            let (calls, total) = stat(name);
            phases.fold_child("fleet.age_devices", key, calls, total / 2);
        }
    }
    let secs = |tr: &Tracer, n: &str| tr.agg(n).total_ns as f64 / 1e9;
    l.set("fleet.age_devices_s", secs(&phases, "fleet.age_devices"));
    l.set(
        "cohort.next_check_step_s",
        secs(&phases, "cohort.next_check_step"),
    );
    l.set("cohort.quiet_days_s", secs(&phases, "cohort.quiet_days"));
    l.set("cohort.afr_prescan_s", secs(&phases, "cohort.afr_prescan"));
    l.set(
        "fleet.unattributed_s",
        phases.agg("fleet.age_devices").self_ns as f64 / 1e9,
    );
    let mut h = Fnv::default();
    h.debug(&observed[0].samples);
    h.debug(&observed[1].samples);
    rep.check_against(&mut want, "observed fleet pair", 2, h.finish());

    // Exact simulated counts, per repetition.
    let (r, sh) = (&observed[0], &observed[1]);
    let last = |t: &FleetTimeline| t.samples.last().copied();
    let deaths = |f: fn(&FleetSample) -> u32| {
        [r, sh]
            .iter()
            .filter_map(|t| last(t))
            .map(|x| f(&x) as f64)
            .sum::<f64>()
    };
    l.set("fleet.device_days", device_days(r) + device_days(sh));
    l.set("fleet.wear_deaths", deaths(|x| x.wear_deaths));
    l.set("fleet.afr_deaths", deaths(|x| x.afr_deaths));
    l.set("fleet.samples", (r.samples.len() + sh.samples.len()) as f64);

    l.finish(tr, &t.untraced, &t.traced);
    rep.metrics = l.metrics(t.traced.len() as u64);
    rep.spans = Some(tr.render() + &phases.render());
    rep
}
