//! Deterministic wear forecasting (DESIGN.md §11).
//!
//! The forecaster is a pure fold over SMART samples: exponentially
//! weighted moving averages of the consumption rates (headroom oPages
//! per tick, life fraction per tick, net page flow per tiredness level
//! per tick) and first-order projections of when the next shrink and
//! the device's death land. Everything is simulation-time arithmetic —
//! ticks are whatever clock the driver samples on (ops for
//! `EnduranceSim`, days for `DailySim`) — and every operation happens
//! in a fixed order, so two runs of the same sample stream produce
//! bit-identical forecasts on any machine or thread count.

use serde::{Deserialize, Serialize};

/// EWMA smoothing factor: each new sample contributes 1/4, so the
/// estimate spans roughly the last seven samples. Small enough to damp
/// single-sample noise (GC bursts), large enough to track the
/// super-linear wear curve near end of life.
pub const EWMA_ALPHA: f64 = 0.25;

/// One exponentially weighted moving average, unprimed until the first
/// update.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Ewma {
    value: f64,
    primed: bool,
}

impl Ewma {
    /// Fold in one observation and return the new average. The first
    /// observation seeds the average directly.
    pub fn update(&mut self, x: f64) -> f64 {
        self.value = if self.primed {
            EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.value
        } else {
            x
        };
        self.primed = true;
        self.value
    }

    /// The current average, `None` before any update.
    pub fn get(&self) -> Option<f64> {
        self.primed.then_some(self.value)
    }

    /// The current average, or 0 before any update (for reporting).
    pub fn get_or_zero(&self) -> f64 {
        self.value
    }
}

/// First-order projection: ticks until `remaining` is exhausted at
/// `rate_per_tick`. `None` when the rate is zero, negative, or NaN (no
/// consumption observed — "never", on current evidence). Never
/// negative: both inputs are clamped non-negative and the division of
/// non-negatives rounds up to a non-negative integer.
pub fn project(remaining: f64, rate_per_tick: f64) -> Option<u64> {
    // NaN rates fall into the `None` arm here (NaN compares false).
    if rate_per_tick <= 0.0 || rate_per_tick.is_nan() {
        return None;
    }
    let remaining = remaining.max(0.0);
    // `as u64` saturates on overflow/infinity, so absurd ratios clamp
    // to u64::MAX instead of wrapping.
    Some((remaining / rate_per_tick).ceil() as u64)
}

/// EWMA wear-rate tracker and shrink/death projector for one device.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WearForecaster {
    /// Tick of the last accepted sample.
    last_tick: Option<u64>,
    /// Headroom (oPages) at the last sample.
    headroom: f64,
    /// Life-remaining fraction at the last sample.
    life: f64,
    /// Per-level page counts at the last sample.
    levels: [f64; 5],
    /// EWMA of headroom consumed per tick (clamped non-negative:
    /// regeneration can bounce headroom up, which is not consumption).
    headroom_rate: Ewma,
    /// EWMA of life fraction consumed per tick.
    life_rate: Ewma,
    /// EWMA of *net* page flow per tick per tiredness level (signed:
    /// L0 drains, higher levels fill, the dead level only grows).
    level_rates: [Ewma; 5],
}

impl WearForecaster {
    /// A fresh forecaster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one SMART sample. Samples at a tick at or before the
    /// previous one update the level state but not the rates (dt would
    /// be zero or negative); the sim drivers sample on a monotone
    /// clock, so this only guards the degenerate first/last sample
    /// collisions.
    pub fn observe(
        &mut self,
        tick: u64,
        headroom_opages: u64,
        life_remaining: f64,
        levels: &[u64; 5],
    ) {
        let headroom = headroom_opages as f64;
        let life = life_remaining.clamp(0.0, 1.0);
        if let Some(t0) = self.last_tick {
            if tick > t0 {
                let dt = (tick - t0) as f64;
                self.headroom_rate
                    .update((self.headroom - headroom).max(0.0) / dt);
                self.life_rate.update((self.life - life).max(0.0) / dt);
                for (rate, (prev, now)) in self
                    .level_rates
                    .iter_mut()
                    .zip(self.levels.iter().zip(levels))
                {
                    rate.update((*now as f64 - prev) / dt);
                }
            }
        }
        if self.last_tick.is_none_or(|t0| tick >= t0) {
            self.last_tick = Some(tick);
            self.headroom = headroom;
            self.life = life;
            for (slot, v) in self.levels.iter_mut().zip(levels) {
                *slot = *v as f64;
            }
        }
    }

    /// Ticks until the current headroom is consumed — the projected
    /// next forced minidisk decommission (shrink). `None` when no
    /// consumption has been observed.
    pub fn ticks_to_next_shrink(&self) -> Option<u64> {
        project(self.headroom, self.headroom_rate.get()?)
    }

    /// Ticks until the remaining life fraction is consumed — the
    /// projected device death. `None` when no life consumption has been
    /// observed.
    pub fn ticks_to_death(&self) -> Option<u64> {
        project(self.life, self.life_rate.get()?)
    }

    /// EWMA headroom consumption per tick (0 before priming).
    pub fn headroom_rate(&self) -> f64 {
        self.headroom_rate.get_or_zero()
    }

    /// EWMA life-fraction consumption per tick (0 before priming).
    pub fn life_rate(&self) -> f64 {
        self.life_rate.get_or_zero()
    }

    /// EWMA net page flow per tick for each tiredness level (0 before
    /// priming). Index 4 is the dead level; its rate is the retirement
    /// rate.
    pub fn level_rates(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (o, r) in out.iter_mut().zip(&self.level_rates) {
            *o = r.get_or_zero();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::default();
        assert_eq!(e.get(), None);
        assert_eq!(e.update(8.0), 8.0);
        assert_eq!(e.update(0.0), 6.0); // 0.25·0 + 0.75·8
        assert_eq!(e.get(), Some(6.0));
    }

    #[test]
    fn project_is_never_negative_and_handles_zero_rate() {
        assert_eq!(project(100.0, 0.0), None);
        assert_eq!(project(100.0, -1.0), None);
        assert_eq!(project(100.0, f64::NAN), None);
        assert_eq!(project(0.0, 5.0), Some(0));
        assert_eq!(project(-10.0, 5.0), Some(0));
        assert_eq!(project(100.0, 3.0), Some(34)); // ceil
    }

    /// Feed a linear headroom decline of `rate` per tick.
    fn declining(rate: u64, samples: u64) -> WearForecaster {
        let mut f = WearForecaster::new();
        let start = 10_000u64;
        for i in 0..samples {
            let headroom = start.saturating_sub(rate * i);
            let life = 1.0 - i as f64 / 100.0;
            f.observe(i * 10, headroom, life, &[100 - i, i, 0, 0, 0]);
        }
        f
    }

    #[test]
    fn constant_decline_projects_exactly() {
        let f = declining(50, 5); // 50 oPages per 10 ticks = 5/tick
        assert_eq!(f.headroom_rate(), 5.0);
        // 9800 remaining at 5/tick.
        assert_eq!(f.ticks_to_next_shrink(), Some(1960));
        assert!(f.ticks_to_death().unwrap() > 0);
    }

    #[test]
    fn faster_wear_projects_sooner() {
        let slow = declining(20, 8);
        let fast = declining(80, 8);
        assert!(fast.ticks_to_next_shrink().unwrap() < slow.ticks_to_next_shrink().unwrap());
    }

    #[test]
    fn flat_headroom_projects_never() {
        let mut f = WearForecaster::new();
        for i in 0..5u64 {
            f.observe(i, 1000, 1.0, &[100, 0, 0, 0, 0]);
        }
        assert_eq!(f.ticks_to_next_shrink(), None);
        assert_eq!(f.ticks_to_death(), None);
    }

    #[test]
    fn level_rates_track_net_flow() {
        let mut f = WearForecaster::new();
        f.observe(0, 100, 1.0, &[100, 0, 0, 0, 0]);
        f.observe(10, 100, 1.0, &[80, 20, 0, 0, 0]);
        let rates = f.level_rates();
        assert_eq!(rates[0], -2.0);
        assert_eq!(rates[1], 2.0);
        assert_eq!(rates[4], 0.0);
    }

    #[test]
    fn regeneration_bounce_is_not_consumption() {
        let mut f = WearForecaster::new();
        f.observe(0, 100, 1.0, &[9, 0, 0, 0, 0]);
        f.observe(1, 50, 1.0, &[9, 0, 0, 0, 0]); // consumed 50
        f.observe(2, 90, 1.0, &[9, 0, 0, 0, 0]); // regen bounce: +40
                                                 // The bounce folds in as zero consumption, not negative.
        assert!(f.headroom_rate() > 0.0);
        assert!(f.ticks_to_next_shrink().is_some());
    }

    #[test]
    fn deterministic_fold() {
        let a = declining(37, 12);
        let b = declining(37, 12);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.level_rates().to_vec()).unwrap(),
            serde_json::to_string(&b.level_rates().to_vec()).unwrap()
        );
    }
}
