//! `salamander-obs` — deterministic observability for the Salamander
//! stack (DESIGN.md §9).
//!
//! Three pillars, each individually optional and free when disabled:
//!
//! - [`trace`]: typed lifecycle events ([`TraceEvent`]) stamped with
//!   *simulation* time ([`SimTime`]) — never wall-clock — so serial and
//!   parallel runs of the same seed emit bit-identical traces.
//! - [`metrics`]: counters, gauges, and fixed-bucket histograms with
//!   Prometheus-style text exposition; per-task shards merge
//!   deterministically under `salamander_exec::par_map`.
//! - [`profile`]: scoped wall-clock phase timers, explicitly
//!   non-deterministic and excluded from traces/metrics output.
//!
//! Simulation layers hold one [`Obs`] bundle and emit through it; the
//! default bundle is fully disabled and costs a branch per site. This
//! crate sits at the bottom of the workspace dependency graph (vendored
//! serde only) so every layer — ftl, core, fleet, difs, bench — can
//! emit without cycles.

pub mod cluster;
pub mod event;
pub mod latency;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod rollup;
pub mod strc;
pub mod trace;

pub use cluster::{
    ClusterKernel, ClusterRollup, CLUSTER_SCALARS, EXPOSURE_BUCKETS, EXPOSURE_STATS,
    FULLNESS_BUCKETS,
};
pub use event::{DeathCause, DecommissionCause, SimTime, TraceEvent, TraceRecord};
pub use latency::{
    ClassLatency, CostModelNs, LatClass, LatencyAcc, LatencyKernel, LatencyRollup, LAT_BUCKETS,
    LAT_CLASSES, LAT_STATS,
};
pub use live::{Broadcast, LiveObs, ProgressHandle};
pub use metrics::{Histogram, MetricsHandle, MetricsRegistry};
pub use profile::{PhaseGuard, PhaseStat, Profiler};
pub use rollup::{FleetRollup, Rollup, RollupKernel, DIST_BUCKETS, DIST_NAMES, PERCENTILES};
pub use strc::{ChunkSummary, EventKind, RotatingStrcWriter, StrcError, StrcReader, StrcWriter};
pub use trace::{JsonlSink, NullTracer, ParseError, RingRecorder, TraceHandle, Tracer};

/// The bundle simulation code threads through its layers: a trace
/// handle, a metrics handle, a profiler, and live progress counters,
/// each independently enabled. `Default` is fully disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Structured event trace (deterministic).
    pub trace: TraceHandle,
    /// Metrics registry (deterministic).
    pub metrics: MetricsHandle,
    /// Wall-clock phase timers (non-deterministic, report-only).
    pub profiler: Profiler,
    /// Run-progress counters for a live server (non-deterministic,
    /// served only — see [`live`]).
    pub progress: ProgressHandle,
}

impl Obs {
    /// Everything off — the zero-overhead default.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Unbounded trace recording + live metrics, profiler off. The
    /// usual configuration for observed runs.
    pub fn recording() -> Self {
        Obs {
            trace: TraceHandle::recording(),
            metrics: MetricsHandle::enabled(),
            profiler: Profiler::disabled(),
            progress: ProgressHandle::disabled(),
        }
    }

    /// Attach a [`LiveObs`] mirror: trace events tee into its
    /// broadcast, metric updates into its live registry, and progress
    /// bumps into its counters. Pillars that were disabled stay
    /// output-disabled (tap-only / tee-only), so deterministic output
    /// is unchanged — the mirror only widens what a server can see.
    pub fn with_live(&self, live: &LiveObs) -> Obs {
        let trace = if self.trace.is_enabled() {
            let t = self.trace.clone();
            t.set_tap(live.trace.clone());
            t
        } else {
            TraceHandle::tap_only(live.trace.clone())
        };
        let metrics = if self.metrics.is_enabled() {
            self.metrics.with_tee(live.metrics.clone())
        } else {
            MetricsHandle::tee_only(live.metrics.clone())
        };
        Obs {
            trace,
            metrics,
            profiler: self.profiler.clone(),
            progress: live.progress.clone(),
        }
    }

    /// True if any pillar is live.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled() || self.metrics.is_enabled() || self.profiler.is_enabled()
    }
}

/// `#[serde(with = "salamander_obs::obs_serde")]` support: an [`Obs`]
/// field on a serializable struct (the FTL snapshots itself, handles
/// included) writes a placeholder and restores to disabled. Live
/// tracer/registry state is run-scoped and intentionally not part of a
/// snapshot.
pub mod obs_serde {
    use super::Obs;
    use serde::de::Deserializer;
    use serde::ser::Serializer;

    /// Serialize as `null`.
    pub fn serialize<S: Serializer>(_obs: &Obs, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Value::Null)
    }

    /// Restore a disabled bundle.
    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Obs, D::Error> {
        let _ = deserializer.take_value()?;
        Ok(Obs::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn default_obs_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.trace
            .emit(SimTime::ZERO, TraceEvent::RunMarker { label: "x".into() });
        obs.metrics.inc("c", 1);
        assert!(obs.trace.take().is_empty());
        assert!(obs.metrics.take().is_empty());
    }

    #[derive(Debug, Serialize, Deserialize)]
    struct Holder {
        tag: u32,
        #[serde(with = "crate::obs_serde")]
        obs: Obs,
    }

    #[test]
    fn obs_field_round_trips_as_disabled() {
        let h = Holder {
            tag: 9,
            obs: Obs::recording(),
        };
        h.obs.metrics.inc("will_not_survive", 1);
        let json = serde_json::to_string(&h).unwrap();
        let back: Holder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tag, 9);
        assert!(!back.obs.is_enabled());
    }
}
