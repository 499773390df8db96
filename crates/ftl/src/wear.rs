//! Per-page tiredness tracking (§3.1 of the paper).
//!
//! Every fPage has a tiredness level `L(fPage) ∈ {0..4}`: the number of its
//! oPages repurposed for extra ECC. The tracker classifies pages against
//! the ECC thresholds from `salamander_ecc::profile` using the *projected*
//! RBER (mean wear curve × the page's endurance variance), with a safety
//! factor for retention/read-disturb headroom. Levels are monotone: wear
//! never decreases.
//!
//! The paper's `limbo[L_j]` counters (Eq. 1) and the aggregate usable
//! capacity check (Eq. 2) are derived from the per-level counts kept here.

use salamander_ecc::profile::Tiredness;
use serde::{Deserialize, Serialize};

/// Per-page tiredness state for a whole device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WearTracker {
    /// Max tolerable RBER per level (ascending), from the ECC profiles.
    thresholds: Vec<f64>,
    /// Highest level pages may occupy (0 for Baseline/ShrinkS; the RegenS
    /// cap otherwise). Pages past the cap are dead (L4).
    max_level: u32,
    /// Safety factor applied to projected RBER before classification.
    safety: f64,
    /// Current level per fPage.
    levels: Vec<Tiredness>,
    /// Page counts per level index (0..=4; 4 = dead).
    counts: [u64; 5],
    /// oPages per fPage at L0.
    opages_per_fpage: u32,
}

impl WearTracker {
    /// Create a tracker for `total_fpages` pages, all starting at L0.
    ///
    /// `max_level` is clamped to the number of usable thresholds.
    pub fn new(
        thresholds: Vec<f64>,
        max_level: u32,
        safety: f64,
        total_fpages: u32,
        opages_per_fpage: u32,
    ) -> Self {
        let max_level = max_level.min(thresholds.len() as u32 - 1);
        let mut counts = [0u64; 5];
        counts[0] = total_fpages as u64;
        WearTracker {
            thresholds,
            max_level,
            safety,
            levels: vec![Tiredness::L0; total_fpages as usize],
            counts,
            opages_per_fpage,
        }
    }

    /// Classify a projected RBER into a tiredness level, honoring the cap.
    pub fn classify(&self, projected_rber: f64) -> Tiredness {
        let adjusted = projected_rber * self.safety;
        for (j, &th) in self.thresholds.iter().enumerate() {
            if j as u32 > self.max_level {
                break;
            }
            if adjusted <= th {
                return Tiredness::from_index(j as u32);
            }
        }
        Tiredness::L4
    }

    /// Current level of a page.
    pub fn level(&self, fpage: u32) -> Tiredness {
        self.levels[fpage as usize]
    }

    /// Re-classify a page after an erase. Levels only move up. Returns
    /// `(old, new)`.
    pub fn reclassify(&mut self, fpage: u32, projected_rber: f64) -> (Tiredness, Tiredness) {
        let old = self.levels[fpage as usize];
        let proposed = self.classify(projected_rber);
        let new = old.max(proposed);
        if new != old {
            self.counts[old.index() as usize] -= 1;
            self.counts[new.index() as usize] += 1;
            self.levels[fpage as usize] = new;
        }
        (old, new)
    }

    /// Force a page dead (block-granular retirement, baseline brick).
    pub fn kill(&mut self, fpage: u32) {
        let old = self.levels[fpage as usize];
        if old != Tiredness::L4 {
            self.counts[old.index() as usize] -= 1;
            self.counts[4] += 1;
            self.levels[fpage as usize] = Tiredness::L4;
        }
    }

    /// The paper's `limbo[L_j]`: number of pages at level `j`.
    pub fn count(&self, level: Tiredness) -> u64 {
        self.counts[level.index() as usize]
    }

    /// Data oPages one page at `level` can store.
    pub fn data_opages(&self, level: Tiredness) -> u32 {
        self.opages_per_fpage.saturating_sub(level.index())
    }

    /// Eq. 1 summed over levels: total oPages storable on all non-dead
    /// pages, `Σ_j (4−j)·limbo[L_j]`.
    pub fn usable_opages(&self) -> u64 {
        self.counts
            .iter()
            .take(4)
            .enumerate()
            .map(|(j, &c)| (self.opages_per_fpage as u64).saturating_sub(j as u64) * c)
            .sum()
    }

    /// oPage capacity of the `level` pool: `(4−j) · limbo[L_j]` (one term
    /// of Eq. 1).
    pub fn capacity_at(&self, level: Tiredness) -> u64 {
        self.data_opages(level) as u64 * self.count(level)
    }

    /// Number of dead pages.
    pub fn dead_pages(&self) -> u64 {
        self.counts[4]
    }

    /// Highest level pages may occupy.
    pub fn max_level(&self) -> Tiredness {
        Tiredness::from_index(self.max_level)
    }

    /// Threshold (max tolerable raw RBER, after safety) for `level`, if
    /// usable.
    pub fn threshold(&self, level: Tiredness) -> Option<f64> {
        self.thresholds.get(level.index() as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(max_level: u32) -> WearTracker {
        // Thresholds resembling the derived profiles: L0 2.5e-3, L1 1.4e-2,
        // L2 2.7e-2, L3 4.1e-2.
        WearTracker::new(vec![2.5e-3, 1.4e-2, 2.7e-2, 4.1e-2], max_level, 1.0, 100, 4)
    }

    #[test]
    fn classification_bands() {
        let w = tracker(3);
        assert_eq!(w.classify(1e-4), Tiredness::L0);
        assert_eq!(w.classify(2.5e-3), Tiredness::L0);
        assert_eq!(w.classify(5e-3), Tiredness::L1);
        assert_eq!(w.classify(2e-2), Tiredness::L2);
        assert_eq!(w.classify(3e-2), Tiredness::L3);
        assert_eq!(w.classify(9e-2), Tiredness::L4);
    }

    #[test]
    fn cap_limits_levels() {
        let w = tracker(0); // ShrinkS: L0 or dead
        assert_eq!(w.classify(1e-4), Tiredness::L0);
        assert_eq!(w.classify(5e-3), Tiredness::L4);
        let w = tracker(1); // RegenS default cap
        assert_eq!(w.classify(5e-3), Tiredness::L1);
        assert_eq!(w.classify(2e-2), Tiredness::L4);
    }

    #[test]
    fn safety_factor_is_conservative() {
        let strict = WearTracker::new(vec![2.5e-3, 1.4e-2], 1, 2.0, 10, 4);
        // 1.5e-3 × 2.0 = 3e-3 > 2.5e-3 ⇒ already L1 under safety factor.
        assert_eq!(strict.classify(1.5e-3), Tiredness::L1);
    }

    #[test]
    fn levels_monotone() {
        let mut w = tracker(3);
        assert_eq!(w.reclassify(0, 2e-2), (Tiredness::L0, Tiredness::L2));
        // A lower projection later cannot lower the level.
        assert_eq!(w.reclassify(0, 1e-4), (Tiredness::L2, Tiredness::L2));
        assert_eq!(w.reclassify(0, 9e-2), (Tiredness::L2, Tiredness::L4));
    }

    #[test]
    fn counts_and_capacity() {
        let mut w = tracker(3);
        assert_eq!(w.usable_opages(), 400);
        w.reclassify(0, 5e-3); // L1
        w.reclassify(1, 5e-3); // L1
        w.reclassify(2, 9e-2); // dead
        assert_eq!(w.count(Tiredness::L0), 97);
        assert_eq!(w.count(Tiredness::L1), 2);
        assert_eq!(w.dead_pages(), 1);
        // 97×4 + 2×3 + 0 = 394.
        assert_eq!(w.usable_opages(), 394);
    }

    #[test]
    fn kill_is_idempotent() {
        let mut w = tracker(3);
        w.kill(5);
        w.kill(5);
        assert_eq!(w.dead_pages(), 1);
        assert_eq!(w.level(5), Tiredness::L4);
    }

    #[test]
    fn max_level_clamped_to_thresholds() {
        let w = WearTracker::new(vec![1e-3, 1e-2], 7, 1.0, 10, 4);
        assert_eq!(w.max_level(), Tiredness::L1);
    }

    #[test]
    fn data_opages_per_level() {
        let w = tracker(3);
        assert_eq!(w.data_opages(Tiredness::L0), 4);
        assert_eq!(w.data_opages(Tiredness::L1), 3);
        assert_eq!(w.data_opages(Tiredness::L4), 0);
    }
}
