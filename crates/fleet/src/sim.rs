//! Fleet simulation: the Fig. 3a/3b time series.
//!
//! A batch of devices is deployed at day 0 and aged under a DWPD write
//! budget plus random annual failures (AFR). No replacements are modeled —
//! Fig. 3 tracks how the *original batch* decays, which is what
//! differentiates a bricking baseline (devices vanish whole) from
//! Salamander (devices shed capacity gradually and live longer).

use crate::cohort::Cohort;
use crate::device::{StatDevice, StatDeviceConfig};
use rand::distributions::{Bernoulli, Distribution};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use salamander_exec::{derive_seed, Threads};
use salamander_health::{to_milli, zscores, Anomaly, AnomalyKind};
use salamander_obs::{
    CostModelNs, FleetRollup, LatClass, LatencyKernel, LatencyRollup, LiveObs, MetricsRegistry,
    Profiler, ProgressHandle, RollupKernel, SimTime, TraceEvent, TraceHandle, TraceRecord,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Fleet simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Device model.
    pub device: StatDeviceConfig,
    /// Number of devices in the batch.
    pub devices: u32,
    /// Drive writes per day applied to each device (relative to its
    /// *initial* capacity, the vendor's DWPD definition).
    pub dwpd: f64,
    /// Lognormal sigma of per-device write-rate imbalance (real fleets
    /// never load devices identically; 0 disables).
    pub dwpd_sigma: f64,
    /// Annual failure rate from non-wear causes (field studies report
    /// ~1–3%; §4.1).
    pub afr: f64,
    /// Simulation horizon in days.
    pub horizon_days: u32,
    /// Sampling interval in days.
    pub sample_every_days: u32,
    /// RNG seed (device variance and AFR draws).
    pub seed: u64,
}

impl FleetConfig {
    /// A 100-device fleet at 1 DWPD for ten simulated years.
    pub fn standard(device: StatDeviceConfig, seed: u64) -> Self {
        FleetConfig {
            device,
            devices: 100,
            dwpd: 1.0,
            dwpd_sigma: 0.25,
            afr: 0.01,
            horizon_days: 3650,
            sample_every_days: 30,
            seed,
        }
    }
}

/// One sampled fleet state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSample {
    /// Simulated day.
    pub day: u32,
    /// Devices still functioning.
    pub alive: u32,
    /// Total committed capacity across the fleet, in oPages.
    pub capacity_opages: u64,
    /// Cumulative wear-caused device deaths.
    pub wear_deaths: u32,
    /// Cumulative AFR-caused device deaths.
    pub afr_deaths: u32,
}

/// The full time series of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTimeline {
    /// Samples in time order.
    pub samples: Vec<FleetSample>,
}

impl FleetTimeline {
    /// Day by which at least half the fleet has died, if within the
    /// horizon.
    ///
    /// "Half dead" means `dead >= ceil(n/2)` — written as `2·dead >= n`
    /// to stay exact for odd fleet sizes (a fleet of 5 reaches
    /// half-dead at the 3rd death, not the 2nd).
    ///
    /// An empty timeline, or one that starts with zero devices, has no
    /// meaningful half-life and returns `None`.
    pub fn half_fleet_dead_day(&self) -> Option<u32> {
        let n = u64::from(self.samples.first()?.alive);
        if n == 0 {
            return None;
        }
        // u64 arithmetic: `2 * dead` overflows u32 for fleets past 2^31,
        // and a malformed (growing) timeline must clamp, not underflow.
        self.samples
            .iter()
            .find(|s| 2 * n.saturating_sub(u64::from(s.alive)) >= n)
            .map(|s| s.day)
    }

    /// Capacity remaining at `day` as a fraction of initial.
    ///
    /// Answers with the most recent sample at or before `day`. Days
    /// past the final sample are outside the simulated range and
    /// return `None` — the run ended (horizon or fleet death) and the
    /// timeline has nothing to say about them.
    ///
    /// A timeline that starts at zero capacity (an empty or born-dead
    /// fleet) has no meaningful fraction and returns `None` rather
    /// than `0/0 = NaN`.
    pub fn capacity_fraction_at(&self, day: u32) -> Option<f64> {
        let first = self.samples.first()?.capacity_opages;
        if first == 0 || day > self.samples.last()?.day {
            return None;
        }
        self.samples
            .iter()
            .rev()
            .find(|s| s.day <= day)
            .map(|s| s.capacity_opages as f64 / first as f64)
    }
}

/// Fleet-level health analytics: per-device capacity-loss rates
/// z-scored across the population, outliers flagged as typed
/// anomalies. Derived from the merged per-device tracks in device
/// order, so it is thread-invariant by construction.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Mean capacity-loss rate across devices (oPages/day ×1000).
    pub mean_rate_milli: i64,
    /// Population standard deviation of the rate (oPages/day ×1000).
    pub std_rate_milli: i64,
    /// Devices whose loss rate is a ≥3σ outlier against the fleet
    /// ([`AnomalyKind::WearRateOutlier`], `subject` = device index,
    /// `time` = death day or horizon), ascending by device.
    pub anomalies: Vec<Anomaly>,
}

/// A [`FleetSim::run_observed`] outcome: the timeline plus its derived
/// trace, metrics, and fleet health.
#[derive(Debug)]
pub struct ObservedFleetRun {
    /// The fleet time series, identical to [`FleetSim::run_threads`]'s.
    pub timeline: FleetTimeline,
    /// Death events in (day, device) order.
    pub trace: Vec<TraceRecord>,
    /// Death counters and per-sample capacity gauges.
    pub metrics: MetricsRegistry,
    /// Wear-rate outlier scan over the fleet.
    pub health: FleetHealth,
    /// One deterministic distribution rollup per sampled day
    /// (DESIGN.md §14), byte-identical across engines and thread
    /// counts. Also interleaved into `trace` as
    /// [`TraceEvent::FleetRollup`] records.
    pub rollups: Vec<FleetRollup>,
    /// One deterministic tail-latency rollup per sampled day
    /// (DESIGN.md §15): the statistical read/write sweep distributions,
    /// byte-identical across engines and thread counts. Interleaved
    /// into `trace` as [`TraceEvent::LatencyRollup`] records right
    /// after each day's fleet rollup.
    pub latency: Vec<LatencyRollup>,
}

/// Run `f`, charging its wall time to `acc` when `timing` — the cohort
/// loop's per-mechanism accumulator, deposited into the profiler once
/// per shard (see [`FleetSim::age_cohort`]). A disabled profiler pays
/// one branch.
fn timed<R>(timing: bool, acc: &mut (u64, Duration), f: impl FnOnce() -> R) -> R {
    if !timing {
        return f();
    }
    let start = Instant::now();
    let r = f();
    acc.0 += 1;
    acc.1 += start.elapsed();
    r
}

/// What ended one device's service life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeathCause {
    /// Flash wear-out (brick or fully shrunk).
    Wear,
    /// Random (non-wear) failure from the AFR model.
    Afr,
}

/// One device's whole-horizon trajectory, reduced to the sampling grid.
///
/// Each device is aged on its own derived RNG stream, so trajectories
/// are mutually independent and can be computed in any order (or in
/// parallel) with bit-identical results.
struct DeviceTrack {
    /// Committed capacity (oPages) at each grid day; 0 after death.
    caps: Vec<u64>,
    /// Death day and cause, if the device died within the horizon.
    death: Option<(u32, DeathCause)>,
    /// Initial committed capacity.
    initial: u64,
}

/// Rollup metric normalizers, derived from the configuration alone so
/// both engines — whose internal wear state is private and laid out
/// differently — bucket through the identical expressions.
///
/// A device's raw wear is erase cycles; the rollup wants fractions.
/// The denominators come from the analytic PEC inverse of the RBER
/// model: `l0_pec` is where a median-variance page crosses the first
/// tiredness threshold (the onset of shrinking), `max_pec` where it
/// exhausts the last usable level (end of endurance budget). Under
/// Baseline/Shrink the two coincide (max level is 0).
struct RollupNorms {
    /// PEC at which a median page crosses the first tiredness level.
    l0_pec: f64,
    /// PEC at which a median page exhausts the last usable level.
    max_pec: f64,
    /// Raw physical capacity of the geometry, in oPages.
    total_opages: f64,
    /// Integer op cost model (DESIGN.md §15) — the same quantization of
    /// the flash timing defaults the functional FTL pins, so the fleet
    /// and per-device simulators price an op identically.
    cost: CostModelNs,
    /// oPages per fresh fPage.
    per: u32,
    /// oPage payload size in bytes.
    opage_bytes: u64,
    /// Usable tiredness levels (`max_level + 1`).
    levels: u32,
}

impl RollupNorms {
    fn new(cfg: &FleetConfig) -> Self {
        let d = &cfg.device;
        let thresholds = d.ecc.thresholds();
        let max_level = crate::device::max_level_for(d.mode, thresholds.len()) as usize;
        let t = salamander_flash::timing::TimingModel::default();
        RollupNorms {
            l0_pec: d.rber.pec_at_rber(thresholds[0] / d.safety).max(1) as f64,
            max_pec: d.rber.pec_at_rber(thresholds[max_level] / d.safety).max(1) as f64,
            total_opages: d.geometry.total_opages().max(1) as f64,
            cost: CostModelNs::from_us(
                t.t_read_us,
                t.t_prog_us,
                t.t_erase_us,
                t.ecc_extra_us,
                t.xfer_bytes_per_us,
            ),
            per: d.geometry.opages_per_fpage(),
            opage_bytes: u64::from(d.geometry.opage_bytes),
            levels: max_level as u32 + 1,
        }
    }

    /// Fold one alive device's *statistical* latency profile at grid
    /// day `gi` into `lat`: a uniform read sweep over the device's
    /// regular capacity — each of the `pages(j)` level-`j` fPages
    /// serves `per − j` oPages at the §4.2 multi-read cost — plus the
    /// level-independent write cost weighted by the same oPage total.
    /// The statistical engines have no discrete GC/scrub/regen events,
    /// so those classes stay empty on the fleet path (DESIGN.md §15);
    /// reborn capacity serves at a different density and is likewise
    /// outside the sweep. Integer costs and weights only, so the fold
    /// merges byte-identically across engines and thread counts.
    fn observe_latency(&self, lat: &mut LatencyKernel, gi: usize, pages: impl Fn(u32) -> u64) {
        let mut total = 0u64;
        for j in 0..self.levels {
            let w = pages(j).saturating_mul(u64::from(self.per.saturating_sub(j)));
            if w > 0 {
                lat.observe(
                    gi,
                    LatClass::HostRead,
                    self.cost.host_read_ns(self.per, j, 0, self.opage_bytes),
                    w,
                );
            }
            total = total.saturating_add(w);
        }
        if total > 0 {
            lat.observe(
                gi,
                LatClass::HostWrite,
                self.cost.host_write_ns(self.opage_bytes),
                total,
            );
        }
    }

    /// Fold one alive device's state at grid index `gi` into `kernel`.
    /// Every input is identical across engines at any thread count
    /// (the equivalence contract of `crate::cohort`), and the kernel
    /// only buckets — no cross-device float accumulation.
    fn observe(
        &self,
        kernel: &mut RollupKernel,
        gi: usize,
        wear: f64,
        usable: u64,
        committed: u64,
        initial: u64,
    ) {
        let cap_frac = if initial == 0 {
            0.0
        } else {
            committed as f64 / initial as f64
        };
        kernel.observe(
            gi,
            wear / self.l0_pec,
            wear / self.max_pec,
            usable as f64 / self.total_opages,
            cap_frac,
        );
    }
}

/// Which implementation ages the fleet.
///
/// Both engines implement the identical statistical model from
/// identical per-device seed streams, so they produce byte-identical
/// timelines, traces, metrics and rollups (enforced by
/// `tests/cohort_equivalence.rs` and `tests/trace_determinism.rs`).
/// Every run uses the cohort engine; the per-device engine is the
/// executable specification it is checked against, not a run option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEngine {
    /// One [`StatDevice`] per device — the reference path, selected
    /// only by the equivalence tests and the `perf` 10k reference
    /// entry that prices the cohort speedup.
    PerDevice,
    /// Struct-of-arrays [`Cohort`] sharding (DESIGN.md §13).
    Cohort,
}

/// The fleet simulator.
#[derive(Debug, Clone)]
pub struct FleetSim {
    cfg: FleetConfig,
    engine: FleetEngine,
}

impl FleetSim {
    /// Build a simulator on the cohort engine.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetSim {
            cfg,
            engine: FleetEngine::Cohort,
        }
    }

    /// Override the aging engine (equivalence tests, the perf
    /// reference pair).
    pub fn with_engine(mut self, engine: FleetEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Run to the horizon (or total fleet death) and return the timeline.
    ///
    /// Devices fan out over the [`salamander_exec`] engine; see
    /// [`Self::run_threads`] for the determinism contract.
    pub fn run(&self) -> FleetTimeline {
        self.run_threads(Threads::Auto)
    }

    /// [`Self::run`] with an explicit thread-count override.
    ///
    /// Every device draws its load jitter and daily AFR coin flips
    /// from a private ChaCha8 stream seeded with
    /// `derive_seed(cfg.seed, device_index)`, so the timeline is a
    /// pure function of the configuration — bit-identical at any
    /// thread count.
    pub fn run_threads(&self, threads: Threads) -> FleetTimeline {
        let (grid, tracks, _, _) =
            self.age_fleet(threads, &ProgressHandle::disabled(), &Profiler::disabled());
        self.reduce(&grid, &tracks)
    }

    /// [`Self::run_threads`] with observability: the timeline comes
    /// back with a deterministic trace ([`TraceEvent::FleetDeviceDied`]
    /// per death, chronological) and a metrics registry (death
    /// counters, per-sample capacity/alive gauges). The trace is
    /// derived from the merged per-device tracks *after* the parallel
    /// fan-out, so it is bit-identical at any thread count by
    /// construction. A non-empty `label` opens the trace with a
    /// `RunMarker`.
    pub fn run_observed(
        &self,
        threads: Threads,
        label: &str,
        profiler: &Profiler,
    ) -> ObservedFleetRun {
        self.run_observed_live(threads, label, profiler, None)
    }

    /// [`Self::run_observed`] with an optional live mirror: progress
    /// counters advance per simulated device-day while the fan-out
    /// runs, and the derived trace/metrics are pushed into the mirror
    /// once merged. The returned artifacts are the same with or
    /// without `live` — the mirror is never read back.
    pub fn run_observed_live(
        &self,
        threads: Threads,
        label: &str,
        profiler: &Profiler,
        live: Option<&LiveObs>,
    ) -> ObservedFleetRun {
        let progress = live
            .map(|l| {
                if label.is_empty() {
                    l.progress.clone()
                } else {
                    l.progress.for_mode(label)
                }
            })
            .unwrap_or_default();
        progress.set_total_days(self.cfg.horizon_days as u64);
        progress.add_devices(self.cfg.devices as u64);
        let (grid, tracks, kernel, lat_kernel) = {
            let _phase = profiler.phase("fleet/age_devices");
            self.age_fleet(threads, &progress, profiler)
        };
        let timeline = self.reduce(&grid, &tracks);
        let rollups = Self::build_rollups(&kernel, &timeline);
        let latency = Self::build_latency_rollups(&lat_kernel, &timeline);

        let trace = TraceHandle::recording();
        if !label.is_empty() {
            trace.emit(
                SimTime::ZERO,
                TraceEvent::RunMarker {
                    label: label.to_string(),
                },
            );
        }
        let mut deaths: Vec<(u32, u32, DeathCause)> = tracks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.death.map(|(day, cause)| (day, i as u32, cause)))
            .collect();
        deaths.sort_unstable_by_key(|&(day, device, _)| (day, device));
        let mut metrics = MetricsRegistry::new();
        let mut emit_death = |day: u32, device: u32, cause: DeathCause| {
            trace.emit(
                SimTime::new(day, 0),
                TraceEvent::FleetDeviceDied {
                    device,
                    cause: match cause {
                        DeathCause::Wear => salamander_obs::DeathCause::Wear,
                        DeathCause::Afr => salamander_obs::DeathCause::Afr,
                    },
                },
            );
            match cause {
                DeathCause::Wear => metrics.inc("salamander_fleet_wear_deaths_total", 1),
                DeathCause::Afr => metrics.inc("salamander_fleet_afr_deaths_total", 1),
            }
        };
        // Two-pointer chronological interleave: each sampled day's
        // rollup follows every death up to and including that day, so
        // the trace stream stays sorted by stamp and a reader sees the
        // rollup as the end-of-day state. The day's latency rollup
        // (when populated) follows its fleet rollup at the same stamp.
        let mut di = 0;
        for (r, l) in rollups.iter().zip(&latency) {
            while di < deaths.len() && deaths[di].0 <= r.day {
                let (day, device, cause) = deaths[di];
                emit_death(day, device, cause);
                di += 1;
            }
            trace.emit(SimTime::new(r.day, 0), TraceEvent::FleetRollup(r.clone()));
            if !l.is_empty() {
                trace.emit(SimTime::new(l.day, 0), TraceEvent::LatencyRollup(l.clone()));
            }
        }
        while di < deaths.len() {
            let (day, device, cause) = deaths[di];
            emit_death(day, device, cause);
            di += 1;
        }
        for s in &timeline.samples {
            metrics.set_gauge(
                &format!("salamander_fleet_capacity_opages{{day=\"{}\"}}", s.day),
                s.capacity_opages as f64,
            );
            metrics.set_gauge(
                &format!("salamander_fleet_alive_devices{{day=\"{}\"}}", s.day),
                s.alive as f64,
            );
        }
        let health = Self::fleet_health(&tracks, self.cfg.horizon_days);
        metrics.set_gauge(
            "salamander_fleet_health_wear_rate_mean_milli",
            health.mean_rate_milli as f64,
        );
        metrics.set_gauge(
            "salamander_fleet_health_wear_rate_std_milli",
            health.std_rate_milli as f64,
        );
        for a in &health.anomalies {
            metrics.inc(
                &format!(
                    "salamander_health_anomalies_total{{kind=\"{}\"}}",
                    a.kind.name()
                ),
                1,
            );
        }
        let trace = trace.take();
        if let Some(live) = live {
            for rec in &trace {
                live.trace.push(rec);
            }
            live.merge_metrics(&metrics);
        }
        ObservedFleetRun {
            timeline,
            trace,
            metrics,
            health,
            rollups,
            latency,
        }
    }

    /// Assemble per-day [`FleetRollup`] records from the merged kernel
    /// and the reduced timeline. Sample `i + 1` of the timeline (day 0
    /// has no kernel slot) pairs with kernel grid index `i`; a
    /// timeline cut short by total fleet death simply yields fewer
    /// rollups.
    fn build_rollups(kernel: &RollupKernel, timeline: &FleetTimeline) -> Vec<FleetRollup> {
        timeline
            .samples
            .iter()
            .skip(1)
            .take(kernel.days())
            .enumerate()
            .map(|(gi, s)| {
                let (dying, wear, pec, usable, health) = kernel.day_slices(gi);
                FleetRollup {
                    day: s.day,
                    alive: s.alive,
                    dead_wear: s.wear_deaths,
                    dead_afr: s.afr_deaths,
                    dying,
                    capacity_opages: s.capacity_opages,
                    wear: wear.to_vec(),
                    pec: pec.to_vec(),
                    usable: usable.to_vec(),
                    health: health.to_vec(),
                }
            })
            .collect()
    }

    /// Assemble per-day [`LatencyRollup`] records from the merged
    /// latency kernel, paired with timeline samples exactly like
    /// [`Self::build_rollups`] (sample `i + 1` ↔ grid index `i`).
    fn build_latency_rollups(
        kernel: &LatencyKernel,
        timeline: &FleetTimeline,
    ) -> Vec<LatencyRollup> {
        timeline
            .samples
            .iter()
            .skip(1)
            .take(kernel.days())
            .enumerate()
            .map(|(gi, s)| kernel.day_rollup(gi, s.day))
            .collect()
    }

    /// Population scan over the merged device tracks: each device's
    /// capacity-loss rate (initial → final capacity over its observed
    /// days), z-scored across the fleet; ≥3σ fast-wearers become
    /// [`AnomalyKind::WearRateOutlier`] anomalies. One-sided — a device
    /// wearing *slower* than its peers is not a problem.
    fn fleet_health(tracks: &[DeviceTrack], horizon_days: u32) -> FleetHealth {
        let rates: Vec<f64> = tracks
            .iter()
            .map(|t| {
                let end_day = t.death.map_or(horizon_days, |(d, _)| d).max(1);
                let lost = t
                    .initial
                    .saturating_sub(*t.caps.last().unwrap_or(&t.initial));
                lost as f64 / end_day as f64
            })
            .collect();
        let (mean, std, z) = zscores(&rates);
        let anomalies = tracks
            .iter()
            .enumerate()
            .filter(|&(i, _)| z[i] >= 3.0)
            .map(|(i, t)| Anomaly {
                time: SimTime::new(t.death.map_or(horizon_days, |(d, _)| d), 0),
                kind: AnomalyKind::WearRateOutlier,
                subject: i as u32,
                value_milli: to_milli(rates[i]),
                mean_milli: to_milli(mean),
                z_milli: to_milli(z[i]),
            })
            .collect();
        FleetHealth {
            mean_rate_milli: to_milli(mean),
            std_rate_milli: to_milli(std),
            anomalies,
        }
    }

    /// Sampling grid: every `sample_every_days`, plus the horizon. A
    /// zero interval means "sample every day" rather than dividing by
    /// zero.
    fn sample_grid(cfg: &FleetConfig) -> Vec<u32> {
        let every = cfg.sample_every_days.max(1);
        (1..=cfg.horizon_days)
            .filter(|d| d % every == 0 || *d == cfg.horizon_days)
            .collect()
    }

    /// Fan the device aging out over the execution engine via the
    /// selected [`FleetEngine`]. `progress` is bumped per simulated
    /// device-day (monotone watermarks and adds, so any task
    /// interleave reports the same totals); pass a disabled handle
    /// when nothing watches.
    ///
    /// Both engines also fold every alive device's state at every grid
    /// day into a per-shard [`RollupKernel`]; the shards merge in item
    /// order (`par_map` preserves it), so the returned kernel is
    /// byte-identical across engines and thread counts. The fold is
    /// unconditional — it is integer bucketing on state the loop
    /// already has in hand, and keeping it on the plain path is what
    /// lets the committed `fleet_scale` bench gate price it honestly.
    fn age_fleet(
        &self,
        threads: Threads,
        progress: &ProgressHandle,
        profiler: &Profiler,
    ) -> (Vec<u32>, Vec<DeviceTrack>, RollupKernel, LatencyKernel) {
        let cfg = &self.cfg;
        let grid = Self::sample_grid(cfg);
        let norms = RollupNorms::new(cfg);
        let shard = Self::cohort_shard(cfg) as u32;
        let ranges: Vec<(u32, u32)> = (0..cfg.devices)
            .step_by(shard as usize)
            .map(|start| (start, (cfg.devices - start).min(shard)))
            .collect();
        let shards: Vec<(Vec<DeviceTrack>, RollupKernel, LatencyKernel)> = match self.engine {
            FleetEngine::PerDevice => {
                salamander_exec::par_map(threads, &ranges, |_, &(start, len)| {
                    let mut kernel = RollupKernel::new(grid.len());
                    let mut lat = LatencyKernel::new(grid.len());
                    let tracks = (start..start + len)
                        .map(|i| {
                            Self::age_device(cfg, i, &grid, progress, &norms, &mut kernel, &mut lat)
                        })
                        .collect();
                    (tracks, kernel, lat)
                })
            }
            FleetEngine::Cohort => {
                salamander_exec::par_map(threads, &ranges, |_, &(start, len)| {
                    Self::age_cohort(cfg, start, len, &grid, progress, &norms, profiler)
                })
            }
        };
        let mut tracks = Vec::with_capacity(cfg.devices as usize);
        let mut kernel = RollupKernel::new(grid.len());
        let mut lat = LatencyKernel::new(grid.len());
        for (shard_tracks, shard_kernel, shard_lat) in shards {
            tracks.extend(shard_tracks);
            kernel.merge(&shard_kernel);
            lat.merge(&shard_lat);
        }
        (grid, tracks, kernel, lat)
    }

    /// Devices per cohort shard: bounded by a ~4 MiB variance-slab
    /// budget (so in-flight memory stays at `workers × slab` even for
    /// million-device fleets) and floored at 64 so the shared-LUT
    /// amortization survives large-geometry devices.
    fn cohort_shard(cfg: &FleetConfig) -> usize {
        let bytes_per_device = (cfg.device.geometry.total_fpages() as usize * 8).max(1);
        ((4 << 20) / bytes_per_device).clamp(64, 4096)
    }

    /// Age the device range `[start, start + len)` as one columnar
    /// [`Cohort`], producing exactly the tracks
    /// [`Self::age_device`] produces for those indices: seeds, RNG
    /// streams, and every arithmetic expression match the reference
    /// path (see `crate::cohort` for the equivalence argument).
    fn age_cohort(
        cfg: &FleetConfig,
        start: u32,
        len: u32,
        grid: &[u32],
        progress: &ProgressHandle,
        norms: &RollupNorms,
        profiler: &Profiler,
    ) -> (Vec<DeviceTrack>, RollupKernel, LatencyKernel) {
        let n = len as usize;
        let glen = grid.len();
        let mut kernel = RollupKernel::new(glen);
        let mut lat = LatencyKernel::new(glen);
        // Per-mechanism wall-clock accumulators for the engine's three
        // speed mechanisms, deposited into the profiler once per shard
        // so the hot loop never takes the store lock.
        let timing = profiler.is_enabled();
        let mut t_scan = (0u64, Duration::ZERO);
        let mut t_step = (0u64, Duration::ZERO);
        let mut t_quiet = (0u64, Duration::ZERO);
        let horizon = cfg.horizon_days;
        let seeds: Vec<u64> = (0..len)
            .map(|i| cfg.seed.wrapping_add(1 + (start + i) as u64))
            .collect();
        let mut cohort = Cohort::new(cfg.device, &seeds);
        let initial = cohort.initial_opages();
        let daily_afr = 1.0 - (1.0 - cfg.afr).powf(1.0 / 365.0);
        // Same draw stream as `gen_bool(daily_afr)`, threshold hoisted
        // out of the scan loop (the fleet makes horizon × devices of
        // these draws).
        let afr_draw = Bernoulli::new(daily_afr);

        // How far ahead a device's private AFR stream is scanned at a
        // time. Scanning ahead is output-identical — the stream feeds
        // nothing but the daily kill draw, and a device that dies of
        // wear first simply never reads the surplus — and it is what
        // lets the quiet-day fast path below jump whole windows
        // instead of consulting the rng day by day. Chunking bounds
        // the surplus draws for short-lived devices.
        const AFR_SCAN_AHEAD: u32 = 255;

        let mut caps = vec![0u64; n * glen];
        let mut deaths: Vec<Option<(u32, DeathCause)>> = vec![None; n];
        for d in 0..n {
            let mut rng =
                ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, (start + d as u32) as u64));
            // Per-device load imbalance: lognormal with median 1.
            let jitter = if cfg.dwpd_sigma > 0.0 {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (cfg.dwpd_sigma * z).exp()
            } else {
                1.0
            };
            cohort.set_daily_writes(d, (cfg.dwpd * jitter * initial as f64) as u64);

            // First day the AFR draw fires (u32::MAX = not in the
            // scanned prefix), and how many daily draws are consumed.
            let mut afr_day = u32::MAX;
            let mut scanned = 0u32;
            let mut death = None;
            let mut ops = 0u64;
            let mut gi = 0usize;
            let mut day = 1u32;
            while day <= horizon {
                if afr_day == u32::MAX && scanned < day {
                    timed(timing, &mut t_scan, || {
                        let upto = day.saturating_add(AFR_SCAN_AHEAD).min(horizon);
                        while scanned < upto {
                            scanned += 1;
                            if afr_draw.sample(&mut rng) {
                                afr_day = scanned;
                                break;
                            }
                        }
                    });
                }
                timed(timing, &mut t_step, || cohort.step(d));
                ops += 1;
                if cohort.is_dead(d) {
                    death = Some((day, DeathCause::Wear));
                } else if day == afr_day {
                    cohort.kill(d);
                    death = Some((day, DeathCause::Afr));
                }
                if gi < glen && grid[gi] == day {
                    caps[d * glen + gi] = cohort.committed_opages(d);
                    if death.is_none() {
                        norms.observe(
                            &mut kernel,
                            gi,
                            cohort.wear(d),
                            cohort.usable_opages(d),
                            cohort.committed_opages(d),
                            initial,
                        );
                        norms.observe_latency(&mut lat, gi, |j| cohort.pages_at_level(d, j));
                    }
                    gi += 1;
                    // Progress is a fleet-wide day watermark; bumping
                    // at sample granularity keeps the hot loop cheap.
                    progress.set_day(day as u64);
                }
                if death.is_some() {
                    break;
                }
                // Quiet fast-forward: days that provably change
                // nothing but wear. The window must end before the
                // next known AFR kill (or the scan frontier when none
                // is known yet), before the horizon, and before the
                // next sample-grid day — the rollup kernel observes
                // materialized wear there, so the grid day itself must
                // run through `step`. Splitting a quiet window is
                // bit-identical (see [`Cohort::run_quiet_days`]): the
                // remaining days re-add the same increment to the same
                // wear bits on the cheap path.
                let afr_bound = if afr_day == u32::MAX {
                    scanned
                } else {
                    afr_day - 1
                };
                let grid_bound = if gi < glen { grid[gi] - 1 } else { horizon };
                let quiet_cap = (horizon - day)
                    .min(afr_bound.saturating_sub(day))
                    .min(grid_bound.saturating_sub(day));
                let q = timed(timing, &mut t_quiet, || cohort.run_quiet_days(d, quiet_cap));
                if q > 0 {
                    ops += u64::from(q);
                    day += q;
                }
                day += 1;
            }
            deaths[d] = death;
            progress.add_ops(ops);
            progress.device_done();
        }
        // Slots past a death day stay zero — a dead device has zero
        // committed capacity, matching the reference path's tail fill.
        let tracks = (0..n)
            .map(|d| DeviceTrack {
                caps: caps[d * glen..(d + 1) * glen].to_vec(),
                death: deaths[d],
                initial,
            })
            .collect();
        profiler.record("cohort/afr_prescan", t_scan.0, t_scan.1);
        profiler.record("cohort/next_check_step", t_step.0, t_step.1);
        profiler.record("cohort/quiet_days", t_quiet.0, t_quiet.1);
        (tracks, kernel, lat)
    }

    /// Reduce per-device tracks to the fleet time series.
    fn reduce(&self, grid: &[u32], tracks: &[DeviceTrack]) -> FleetTimeline {
        let cfg = &self.cfg;
        let mut samples = Vec::with_capacity(grid.len() + 1);
        samples.push(FleetSample {
            day: 0,
            alive: cfg.devices,
            capacity_opages: tracks.iter().map(|t| t.initial).sum(),
            wear_deaths: 0,
            afr_deaths: 0,
        });
        for (gi, &day) in grid.iter().enumerate() {
            let mut alive = 0u32;
            let mut capacity = 0u64;
            let mut wear_deaths = 0u32;
            let mut afr_deaths = 0u32;
            for t in tracks {
                capacity += t.caps[gi];
                match t.death {
                    Some((d, cause)) if d <= day => match cause {
                        DeathCause::Wear => wear_deaths += 1,
                        DeathCause::Afr => afr_deaths += 1,
                    },
                    _ => alive += 1,
                }
            }
            samples.push(FleetSample {
                day,
                alive,
                capacity_opages: capacity,
                wear_deaths,
                afr_deaths,
            });
            if alive == 0 {
                break;
            }
        }
        FleetTimeline { samples }
    }

    /// Age one device to the horizon on its private RNG stream,
    /// folding its state at each grid day into the shard's `kernel`.
    fn age_device(
        cfg: &FleetConfig,
        index: u32,
        grid: &[u32],
        progress: &ProgressHandle,
        norms: &RollupNorms,
        kernel: &mut RollupKernel,
        lat: &mut LatencyKernel,
    ) -> DeviceTrack {
        let mut dev = StatDevice::new(cfg.device, cfg.seed.wrapping_add(1 + index as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, index as u64));
        // Per-device load imbalance: lognormal with median 1.
        let jitter = if cfg.dwpd_sigma > 0.0 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (cfg.dwpd_sigma * z).exp()
        } else {
            1.0
        };
        let daily_writes = (cfg.dwpd * jitter * dev.initial_opages() as f64) as u64;
        let daily_afr = 1.0 - (1.0 - cfg.afr).powf(1.0 / 365.0);

        let initial = dev.committed_opages();
        let mut caps = Vec::with_capacity(grid.len());
        let mut death = None;
        let mut gi = 0;
        for day in 1..=cfg.horizon_days {
            dev.apply_writes(daily_writes);
            progress.add_ops(1);
            if dev.is_dead() {
                death = Some((day, DeathCause::Wear));
            } else if rng.gen_bool(daily_afr) {
                dev.kill();
                death = Some((day, DeathCause::Afr));
            }
            if gi < grid.len() && grid[gi] == day {
                caps.push(dev.committed_opages());
                if death.is_none() {
                    norms.observe(
                        kernel,
                        gi,
                        dev.wear(),
                        dev.usable_opages(),
                        dev.committed_opages(),
                        initial,
                    );
                    norms.observe_latency(lat, gi, |j| dev.pages_at_level(j));
                }
                gi += 1;
                // Progress is a fleet-wide day watermark; bumping at
                // sample granularity keeps the hot loop branch-cheap.
                progress.set_day(day as u64);
            }
            if dev.is_dead() {
                break;
            }
        }
        progress.device_done();
        // A dead device stays at zero capacity for the rest of the grid.
        caps.resize(grid.len(), dev.committed_opages());
        DeviceTrack {
            caps,
            death,
            initial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StatMode;
    use salamander_ecc::profile::Tiredness;
    use salamander_flash::geometry::FlashGeometry;

    fn quick_sim(mode: StatMode, seed: u64) -> FleetSim {
        let device = StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(mode)
        };
        FleetSim::new(FleetConfig {
            devices: 30,
            dwpd: 20.0, // aggressive so devices die within the horizon
            dwpd_sigma: 0.25,
            afr: 0.01,
            horizon_days: 2000,
            sample_every_days: 10,
            seed,
            device,
        })
    }

    fn quick(mode: StatMode, seed: u64) -> FleetTimeline {
        quick_sim(mode, seed).run()
    }

    /// Hand-build a timeline from `(day, alive, capacity)` points.
    fn tl(points: &[(u32, u32, u64)]) -> FleetTimeline {
        FleetTimeline {
            samples: points
                .iter()
                .map(|&(day, alive, capacity_opages)| FleetSample {
                    day,
                    alive,
                    capacity_opages,
                    wear_deaths: 0,
                    afr_deaths: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn fleet_decays_to_zero() {
        let t = quick(StatMode::Baseline, 1);
        assert_eq!(t.samples[0].alive, 30);
        let last = t.samples.last().unwrap();
        assert!(last.alive < 30);
        assert!(last.wear_deaths + last.afr_deaths + last.alive == 30);
    }

    #[test]
    fn fig3a_salamander_outlives_baseline() {
        let base = quick(StatMode::Baseline, 2);
        let regen = quick(
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
            2,
        );
        let b = base.half_fleet_dead_day().expect("baseline half-life");
        // `None` would be even better: never reached half-dead in horizon.
        if let Some(r) = regen.half_fleet_dead_day() {
            assert!(r as f64 > b as f64 * 1.2, "regen {r} vs base {b}");
        }
    }

    #[test]
    fn fig3b_capacity_declines_gradually_for_salamander() {
        let base = quick(StatMode::Baseline, 3);
        let shrink = quick(StatMode::Shrink, 3);
        // A baseline device is all-or-nothing: fleet capacity is always
        // exactly (alive devices) × (full device capacity).
        let per_device = base.samples[0].capacity_opages / base.samples[0].alive as u64;
        for s in &base.samples {
            assert_eq!(
                s.capacity_opages,
                s.alive as u64 * per_device,
                "baseline devices fail whole, day {}",
                s.day
            );
        }
        // ShrinkS devices spend time alive at *partial* capacity.
        let partial = shrink
            .samples
            .iter()
            .any(|s| s.alive > 0 && s.capacity_opages < s.alive as u64 * per_device);
        assert!(
            partial,
            "shrinking fleet should show partial-capacity devices"
        );
    }

    #[test]
    fn capacity_fraction_interpolates() {
        let t = quick(StatMode::Shrink, 4);
        assert_eq!(t.capacity_fraction_at(0), Some(1.0));
        let end = t.samples.last().unwrap().day;
        assert!(t.capacity_fraction_at(end).unwrap() < 1.0);
    }

    #[test]
    fn deterministic() {
        let a = quick(StatMode::Shrink, 5);
        let b = quick(StatMode::Shrink, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let sim = quick_sim(StatMode::Shrink, 5);
        let serial = sim.run_threads(Threads::fixed(1));
        for n in [2, 4, 8] {
            assert_eq!(sim.run_threads(Threads::fixed(n)), serial, "threads={n}");
        }
    }

    #[test]
    fn observed_run_matches_plain_and_is_thread_invariant() {
        let sim = quick_sim(StatMode::Shrink, 7);
        let plain = sim.run_threads(Threads::fixed(1));
        let a = sim.run_observed(Threads::fixed(1), "fleet=shrink", &Profiler::disabled());
        let b = sim.run_observed(Threads::fixed(4), "fleet=shrink", &Profiler::disabled());
        assert_eq!(a.timeline, plain);
        assert_eq!(a.trace, b.trace, "trace must be thread-invariant");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.health, b.health, "fleet health must be thread-invariant");
        // Every death in the timeline shows up as a trace event.
        let last = plain.samples.last().unwrap();
        let deaths = a
            .trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::FleetDeviceDied { .. }))
            .count() as u32;
        assert_eq!(deaths, last.wear_deaths + last.afr_deaths);
        assert_eq!(
            a.metrics.counter("salamander_fleet_wear_deaths_total") as u32,
            last.wear_deaths
        );
        // Deaths are chronological.
        let days: Vec<u32> = a.trace.iter().map(|r| r.time.day).collect();
        assert!(days.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn half_fleet_dead_day_handles_odd_fleets() {
        // n = 5: "half dead" needs ceil(5/2) = 3 deaths; 2 dead (alive
        // 3) must NOT trigger.
        let t = tl(&[(0, 5, 500), (10, 3, 300), (20, 2, 200), (30, 0, 0)]);
        assert_eq!(t.half_fleet_dead_day(), Some(20));
        // n = 1: the only death is half the fleet.
        let t = tl(&[(0, 1, 100), (10, 0, 0)]);
        assert_eq!(t.half_fleet_dead_day(), Some(10));
        // Even fleet: exactly half dead triggers.
        let t = tl(&[(0, 4, 400), (10, 3, 300), (20, 2, 200)]);
        assert_eq!(t.half_fleet_dead_day(), Some(20));
        // Never reaches half within the horizon.
        let t = tl(&[(0, 5, 500), (10, 4, 400)]);
        assert_eq!(t.half_fleet_dead_day(), None);
    }

    #[test]
    fn capacity_fraction_past_last_sample_is_none() {
        let t = tl(&[(0, 2, 200), (10, 1, 100)]);
        assert_eq!(t.capacity_fraction_at(0), Some(1.0));
        assert_eq!(t.capacity_fraction_at(5), Some(1.0)); // holds last sample
        assert_eq!(t.capacity_fraction_at(10), Some(0.5));
        assert_eq!(t.capacity_fraction_at(11), None); // beyond simulated range
        assert_eq!(t.capacity_fraction_at(u32::MAX), None);
    }

    #[test]
    fn fleet_health_flags_the_fast_wearer() {
        // 11 devices losing 10 oPages/day, one losing 200: a clear
        // population outlier.
        let track = |rate: u64| DeviceTrack {
            caps: vec![1000 - rate * 10],
            death: None,
            initial: 1000,
        };
        let mut tracks: Vec<DeviceTrack> = (0..11).map(|_| track(1)).collect();
        tracks.push(track(20));
        let health = FleetSim::fleet_health(&tracks, 10);
        assert_eq!(health.anomalies.len(), 1, "{:?}", health.anomalies);
        let a = &health.anomalies[0];
        assert_eq!(a.kind, AnomalyKind::WearRateOutlier);
        assert_eq!(a.subject, 11);
        assert_eq!(a.value_milli, to_milli(20.0), "200 oPages over 10 days");
        assert!(a.z_milli >= 3000);
        // A uniform fleet has no outliers.
        let uniform = FleetSim::fleet_health(&(0..12).map(|_| track(1)).collect::<Vec<_>>(), 10);
        assert!(uniform.anomalies.is_empty());
        assert_eq!(uniform.std_rate_milli, 0);
    }

    #[test]
    fn fleet_health_lands_in_metrics() {
        let sim = quick_sim(StatMode::Shrink, 7);
        let run = sim.run_observed(Threads::fixed(2), "fleet=shrink", &Profiler::disabled());
        assert!(run
            .metrics
            .gauge("salamander_fleet_health_wear_rate_mean_milli")
            .is_some());
        assert_eq!(
            run.metrics
                .counter("salamander_health_anomalies_total{kind=\"wear_rate_outlier\"}"),
            run.health.anomalies.len() as u64
        );
        // Round-trips for artifact use.
        let json = serde_json::to_string(&run.health).unwrap();
        let back: FleetHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(run.health, back);
    }

    #[test]
    fn cohort_engine_matches_per_device_engine() {
        for mode in [
            StatMode::Baseline,
            StatMode::Shrink,
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
        ] {
            let sim = quick_sim(mode, 9);
            let reference = sim
                .clone()
                .with_engine(FleetEngine::PerDevice)
                .run_threads(Threads::fixed(1));
            for threads in [1, 4] {
                let cohort = sim
                    .clone()
                    .with_engine(FleetEngine::Cohort)
                    .run_threads(Threads::fixed(threads));
                assert_eq!(cohort, reference, "{mode:?} threads={threads}");
            }
        }
    }

    #[test]
    fn cohort_engine_matches_per_device_observed() {
        let sim = quick_sim(StatMode::Shrink, 11);
        let a = sim
            .clone()
            .with_engine(FleetEngine::PerDevice)
            .run_observed(Threads::fixed(1), "fleet=eq", &Profiler::disabled());
        let b = sim.clone().with_engine(FleetEngine::Cohort).run_observed(
            Threads::fixed(4),
            "fleet=eq",
            &Profiler::disabled(),
        );
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.trace, b.trace, "traces must match across engines");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.health, b.health);
    }

    #[test]
    fn latency_rollups_match_across_engines_and_show_the_multi_read_tax() {
        let sim = quick_sim(
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
            21,
        );
        let a = sim
            .clone()
            .with_engine(FleetEngine::PerDevice)
            .run_observed(Threads::fixed(1), "fleet=regen", &Profiler::disabled());
        let b = sim.clone().with_engine(FleetEngine::Cohort).run_observed(
            Threads::fixed(4),
            "fleet=regen",
            &Profiler::disabled(),
        );
        assert_eq!(
            a.latency, b.latency,
            "latency rollups must be engine-invariant"
        );
        assert_eq!(a.trace, b.trace, "interleaved trace must match too");
        assert_eq!(a.latency.len(), a.rollups.len(), "one per sampled day");
        // A fresh fleet reads everything at the plain sense cost; once
        // pages regenerate to L1 the §4.2 multi-read tax drags the read
        // tail up while writes stay level-independent.
        let populated: Vec<_> = a.latency.iter().filter(|r| !r.is_empty()).collect();
        assert!(!populated.is_empty(), "regen fleet must record latency");
        let early = populated.first().unwrap();
        let late = populated.last().unwrap();
        let early_p99 = early.stat("host_read", "p99").unwrap();
        let late_p99 = late.stat("host_read", "p99").unwrap();
        assert!(
            late_p99 > early_p99,
            "L1 growth must raise the read tail: {early_p99} -> {late_p99}"
        );
        assert_eq!(
            early.stat("host_write", "p50"),
            late.stat("host_write", "p50"),
            "write cost is level-independent"
        );
        // The statistical engines have no discrete GC/scrub/regen
        // events; those classes stay empty on the fleet path.
        for r in &a.latency {
            for class in ["gc", "scrub", "regen"] {
                assert_eq!(r.stat(class, "count"), Some(0), "day {}: {class}", r.day);
            }
        }
    }

    #[test]
    fn cohort_profiler_reports_speed_mechanism_phases() {
        let sim = quick_sim(StatMode::Shrink, 23).with_engine(FleetEngine::Cohort);
        let prof = Profiler::enabled();
        sim.run_observed(Threads::fixed(1), "fleet=prof", &prof);
        let stats = prof.stats();
        for phase in [
            "cohort/afr_prescan",
            "cohort/next_check_step",
            "cohort/quiet_days",
            "fleet/age_devices",
        ] {
            let stat = stats.iter().find(|(n, _)| n == phase);
            assert!(
                stat.is_some_and(|(_, s)| s.calls > 0),
                "{phase} missing: {stats:?}"
            );
        }
        // The per-device reference path reports no cohort phases.
        let prof2 = Profiler::enabled();
        sim.with_engine(FleetEngine::PerDevice).run_observed(
            Threads::fixed(1),
            "fleet=prof",
            &prof2,
        );
        assert!(prof2.stats().iter().all(|(n, _)| !n.starts_with("cohort/")));
    }

    #[test]
    fn engines_agree_on_a_fleet_of_one() {
        let mut sim = quick_sim(StatMode::Shrink, 13);
        sim.cfg.devices = 1;
        let a = sim
            .clone()
            .with_engine(FleetEngine::PerDevice)
            .run_threads(Threads::fixed(1));
        let b = sim
            .with_engine(FleetEngine::Cohort)
            .run_threads(Threads::fixed(4));
        assert_eq!(a, b);
        assert_eq!(a.samples[0].alive, 1);
    }

    #[test]
    fn engines_agree_with_rebirth_enabled() {
        let mut sim = quick_sim(
            StatMode::Regen {
                max_level: Tiredness::L1,
            },
            15,
        );
        sim.cfg.device.rebirth = Some(salamander_flash::voltage::CellMode::Slc);
        let a = sim
            .clone()
            .with_engine(FleetEngine::PerDevice)
            .run_threads(Threads::fixed(1));
        let b = sim
            .with_engine(FleetEngine::Cohort)
            .run_threads(Threads::fixed(4));
        assert_eq!(a, b);
    }

    #[test]
    fn half_fleet_dead_day_empty_or_zero_fleet_is_none() {
        assert_eq!(tl(&[]).half_fleet_dead_day(), None);
        // A fleet that starts empty has no half-life (used to report
        // its first sample day).
        assert_eq!(tl(&[(0, 0, 0), (10, 0, 0)]).half_fleet_dead_day(), None);
    }

    #[test]
    fn half_fleet_dead_day_survives_giant_fleets() {
        // dead = 2.5e9: `2 * dead` overflows u32 (the old arithmetic
        // wrapped and missed the half-dead crossing entirely).
        let t = tl(&[(0, 4_000_000_000, 100), (10, 1_500_000_000, 50)]);
        assert_eq!(t.half_fleet_dead_day(), Some(10));
    }

    #[test]
    fn capacity_fraction_of_zero_capacity_fleet_is_none() {
        // 0/0 used to surface as Some(NaN).
        let t = tl(&[(0, 0, 0), (10, 0, 0)]);
        assert_eq!(t.capacity_fraction_at(0), None);
        assert_eq!(t.capacity_fraction_at(10), None);
        assert_eq!(tl(&[]).capacity_fraction_at(0), None);
    }

    #[test]
    fn zero_sample_interval_samples_every_day() {
        // sample_every_days == 0 used to panic on `day % 0`.
        let device = StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(StatMode::Shrink)
        };
        let cfg = FleetConfig {
            devices: 2,
            dwpd: 1.0,
            dwpd_sigma: 0.0,
            afr: 0.0,
            horizon_days: 5,
            sample_every_days: 0,
            seed: 1,
            device,
        };
        for engine in [FleetEngine::PerDevice, FleetEngine::Cohort] {
            let t = FleetSim::new(cfg).with_engine(engine).run();
            let days: Vec<u32> = t.samples.iter().map(|s| s.day).collect();
            assert_eq!(days, vec![0, 1, 2, 3, 4, 5], "{engine:?}");
        }
    }

    #[test]
    fn zero_afr_means_wear_deaths_only() {
        let device = StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(StatMode::Baseline)
        };
        let t = FleetSim::new(FleetConfig {
            devices: 10,
            dwpd: 20.0,
            dwpd_sigma: 0.0,
            afr: 0.0,
            horizon_days: 2000,
            sample_every_days: 10,
            seed: 6,
            device,
        })
        .run();
        assert_eq!(t.samples.last().unwrap().afr_deaths, 0);
    }
}
