//! Raw bit-error-rate (RBER) model.
//!
//! The paper's lifetime arguments rest on two empirical facts it cites:
//!
//! 1. RBER grows as a power law of the program/erase cycle (PEC) count
//!    (Kim, Choi, Min — FAST '19; Cai et al. — Proc. IEEE '17).
//! 2. Endurance varies widely *between pages of the same block*
//!    (Shim et al. — MICRO '19; Raquibuzzaman et al. — IRPS '22), which is
//!    why Salamander retires fPages individually rather than whole blocks.
//!
//! [`RberModel`] captures both: a deterministic power law in PEC plus a
//! per-page lognormal endurance multiplier, with optional retention and
//! read-disturb terms. The same model is shared by the functional chip
//! simulator ([`crate::chip`]) and by the statistical fleet simulator in
//! `salamander-fleet`, so device-level and fleet-level results are mutually
//! consistent.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;

/// Parameters of the RBER model.
///
/// `rber(page) = (base + scale * pec^exponent) * page_variance
///              + retention_scale * days * pec
///              + disturb_scale * reads_since_erase`
///
/// The default constants are calibrated so that with the paper's example
/// ECC configuration (16 KiB fPage, 2 KiB spare, max correctable RBER
/// ~2.5e-3 at a 1e-15 page UBER target) a median page endures ~3000 PEC —
/// typical of 3D TLC — and so that the code-rate/lifetime trade-off of
/// Fig. 2 lands at the paper's "50% potential lifetime benefit for L1":
/// the L1 code tolerates ~5.6x the RBER of L0, and `5.6^(1/4.3) ≈ 1.5`.
///
/// # Examples
///
/// ```
/// use salamander_flash::rber::RberModel;
///
/// let m = RberModel::default();
/// let fresh = m.mean_rber(0);
/// let worn = m.mean_rber(3000);
/// assert!(worn > 100.0 * fresh);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RberModel {
    /// RBER of a fresh page (manufacturing defects, noise floor).
    pub base: f64,
    /// Scale of the wear-driven power-law term.
    pub scale: f64,
    /// Exponent of the power law. Literature reports ~2–3 for 3D TLC.
    pub exponent: f64,
    /// Sigma of the per-page lognormal endurance multiplier
    /// (0 disables inter-page variance).
    pub page_sigma: f64,
    /// Additional RBER per day of retention per PEC (charge leakage grows
    /// with wear). 0 disables retention errors.
    pub retention_scale: f64,
    /// Additional RBER per read since the last erase (read disturb).
    pub disturb_scale: f64,
}

impl Default for RberModel {
    fn default() -> Self {
        // Calibration: mean_rber(3000) ~ 2.5e-3, the maximum correctable
        // RBER of the native 88% code rate (see `salamander-ecc`), so the
        // median page endures ~3000 cycles.
        RberModel {
            base: 1.0e-8,
            scale: 2.8e-18,
            exponent: 4.3,
            page_sigma: 0.25,
            retention_scale: 0.0,
            disturb_scale: 0.0,
        }
    }
}

impl RberModel {
    /// A model with aggressive wear for fast unit tests: pages die within
    /// tens of cycles instead of thousands.
    pub fn fast_wear() -> Self {
        RberModel {
            base: 1.0e-8,
            scale: 1.3e-10,
            exponent: 4.3,
            page_sigma: 0.25,
            retention_scale: 0.0,
            disturb_scale: 0.0,
        }
    }

    /// A variance-free model (every page identical), useful for tests that
    /// need exact thresholds.
    pub fn no_variance(mut self) -> Self {
        self.page_sigma = 0.0;
        self
    }

    /// Mean RBER (variance multiplier = 1) after `pec` program/erase cycles.
    pub fn mean_rber(&self, pec: u32) -> f64 {
        self.base + self.scale * (pec as f64).powf(self.exponent)
    }

    /// Full RBER for a page with endurance `variance` multiplier, `pec`
    /// cycles, `retention_days` since programming, and `reads` since the
    /// containing block was erased.
    pub fn rber(&self, pec: u32, variance: f64, retention_days: f64, reads: u64) -> f64 {
        self.rber_with_mean(self.mean_rber(pec), pec, variance, retention_days, reads)
    }

    /// [`Self::rber`] with the mean term supplied by the caller —
    /// typically from a [`MeanRberLut`] — so the hot read path skips
    /// the power law. The expression is byte-for-byte the one `rber`
    /// evaluates; passing `mean_rber(pec)` gives bit-identical output.
    pub fn rber_with_mean(
        &self,
        mean: f64,
        pec: u32,
        variance: f64,
        retention_days: f64,
        reads: u64,
    ) -> f64 {
        (mean * variance
            + self.retention_scale * retention_days * pec as f64
            + self.disturb_scale * reads as f64)
            .min(0.5)
    }

    /// Inverse of [`Self::mean_rber`]: the PEC count at which the mean RBER
    /// reaches `target`. Returns `u32::MAX` if the target is below `base`
    /// is never reached (it always is for positive `scale`).
    ///
    /// This is the quantity Fig. 2 plots: the lifetime (in PEC) bought by
    /// tolerating a higher RBER through a lower code rate.
    pub fn pec_at_rber(&self, target: f64) -> u32 {
        if target <= self.base {
            return 0;
        }
        let cycles = ((target - self.base) / self.scale).powf(1.0 / self.exponent);
        if cycles >= u32::MAX as f64 {
            u32::MAX
        } else {
            cycles as u32
        }
    }

    /// Draw a per-page endurance variance multiplier.
    ///
    /// Lognormal with median 1: `exp(sigma * z)` for standard-normal `z`.
    /// A multiplier above 1 means the page is *weaker* (more errors at the
    /// same wear).
    pub fn draw_variance<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.page_sigma == 0.0 {
            return 1.0;
        }
        // Box-Muller transform; avoids a distribution-crate dependency.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.page_sigma * z).exp()
    }

    /// Deterministically draw `n` per-page variance multipliers from `seed`.
    pub fn draw_variances(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.draw_variances_into(seed, &mut out);
        out
    }

    /// [`Self::draw_variances`] into a caller-provided buffer — the
    /// cohort engine draws straight into one column slab instead of
    /// allocating a `Vec` per device. Fills every slot of `out`;
    /// the value sequence is bit-identical to `draw_variances`.
    pub fn draw_variances_into(&self, seed: u64, out: &mut [f64]) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for v in out.iter_mut() {
            *v = self.draw_variance(&mut rng);
        }
    }
}

/// Largest PEC memoized by [`MeanRberLut`]; higher cycle counts fall
/// back to computing the power law directly. Devices in this repo die
/// well under 100k PEC, so the hot path never takes the fallback.
const MEAN_RBER_LUT_MAX_PEC: u32 = 1 << 17;

/// Exact per-PEC memo of [`RberModel::mean_rber`].
///
/// `mean_rber` is a `powf` on every flash read, reclassification, and
/// statistical-device step — the single hottest transcendental in the
/// simulator. The LUT grows on demand and stores, for each integer
/// PEC, the bit-exact result of calling [`RberModel::mean_rber`] at
/// that PEC. There is **no interpolation**: a lookup either returns a
/// value produced by the original expression or (past
/// `MEAN_RBER_LUT_MAX_PEC`) evaluates the original expression
/// directly. That is the exact-match guard the determinism contract
/// needs — a cached read can never differ in even one ULP from the
/// uncached one, so no retirement decision can shift (see DESIGN.md
/// §10).
///
/// Serialization stores only the model; the cache rebuilds lazily
/// after a snapshot restore, which is invisible to callers because
/// every entry is recomputed from the same pure function.
#[derive(Debug, Clone)]
pub struct MeanRberLut {
    model: RberModel,
    /// Memoized `model.mean_rber(pec)` for `pec < values.len()`.
    /// `RefCell` because lookups happen behind `&self` accessors
    /// (e.g. `FlashArray::projected_rber`); the simulator shares
    /// nothing across threads except by moving whole devices.
    values: RefCell<Vec<f64>>,
}

impl MeanRberLut {
    /// An empty memo for `model`.
    pub fn new(model: RberModel) -> Self {
        MeanRberLut {
            model,
            values: RefCell::new(Vec::new()),
        }
    }

    /// The model this memo caches.
    pub fn model(&self) -> &RberModel {
        &self.model
    }

    /// Bit-exact [`RberModel::mean_rber`], memoized per integer PEC.
    pub fn mean_rber(&self, pec: u32) -> f64 {
        if pec > MEAN_RBER_LUT_MAX_PEC {
            return self.model.mean_rber(pec);
        }
        let mut values = self.values.borrow_mut();
        if pec as usize >= values.len() {
            // Grow in chunks so a slowly rising PEC does not recompute
            // the prefix on every new cycle count.
            let target = (pec as usize + 1).next_power_of_two().max(1024);
            for p in values.len()..target {
                values.push(self.model.mean_rber(p as u32));
            }
        }
        values[pec as usize]
    }
}

impl Serialize for MeanRberLut {
    fn to_value(&self) -> Value {
        // The cache is pure derived state: persist only the model.
        self.model.to_value()
    }
}

impl<'de> Deserialize<'de> for MeanRberLut {
    fn from_value(v: &Value) -> Result<Self, serde::de::DeError> {
        Ok(MeanRberLut::new(RberModel::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rber_monotone_in_pec() {
        let m = RberModel::default();
        let mut prev = 0.0;
        for pec in [0u32, 10, 100, 1000, 3000, 10000] {
            let r = m.mean_rber(pec);
            assert!(r >= prev, "rber must be non-decreasing in pec");
            prev = r;
        }
    }

    #[test]
    fn pec_at_rber_inverts_mean_rber() {
        let m = RberModel::default();
        for pec in [100u32, 500, 1000, 3000, 8000] {
            let r = m.mean_rber(pec);
            let back = m.pec_at_rber(r);
            let diff = (back as i64 - pec as i64).abs();
            assert!(diff <= 1, "pec {pec} -> rber -> {back}");
        }
    }

    #[test]
    fn pec_at_rber_below_base_is_zero() {
        let m = RberModel::default();
        assert_eq!(m.pec_at_rber(m.base / 2.0), 0);
    }

    #[test]
    fn variance_median_near_one() {
        let m = RberModel::default();
        let vs = m.draw_variances(10_001, 7);
        let mut sorted = vs.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let median = sorted[5000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        // All positive, with genuine spread.
        assert!(vs.iter().all(|&v| v > 0.0));
        assert!(sorted[100] < 0.8 && sorted[9900] > 1.25);
    }

    #[test]
    fn variance_disabled_gives_one() {
        let m = RberModel::default().no_variance();
        let vs = m.draw_variances(100, 3);
        assert!(vs.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn draw_variances_into_overwrites_whole_buffer() {
        let m = RberModel::default();
        let mut buf = vec![-1.0; 33];
        m.draw_variances_into(5, &mut buf);
        assert!(buf.iter().all(|&v| v > 0.0), "every slot drawn");
        assert_eq!(buf, m.draw_variances(33, 5));
    }

    #[test]
    fn variance_deterministic_per_seed() {
        let m = RberModel::default();
        assert_eq!(m.draw_variances(64, 9), m.draw_variances(64, 9));
        assert_ne!(m.draw_variances(64, 9), m.draw_variances(64, 10));
    }

    #[test]
    fn retention_and_disturb_add_errors() {
        let m = RberModel {
            retention_scale: 1e-9,
            disturb_scale: 1e-10,
            ..RberModel::default()
        };
        let baseline = m.rber(1000, 1.0, 0.0, 0);
        assert!(m.rber(1000, 1.0, 30.0, 0) > baseline);
        assert!(m.rber(1000, 1.0, 0.0, 10_000) > baseline);
    }

    #[test]
    fn rber_saturates_at_half() {
        let m = RberModel::fast_wear();
        assert!(m.rber(u32::MAX, 1e12, 0.0, 0) <= 0.5);
    }

    #[test]
    fn fast_wear_kills_pages_quickly() {
        let m = RberModel::fast_wear();
        // At the native code rate (~2.5e-3 correctable), pages should die
        // within ~100 cycles under the fast-wear model.
        assert!(m.pec_at_rber(2.5e-3) < 100);
    }

    #[test]
    fn lut_is_bit_exact_everywhere() {
        for model in [RberModel::default(), RberModel::fast_wear()] {
            let lut = MeanRberLut::new(model);
            // Probe out of order to exercise growth, including the
            // above-cap fallback path.
            for pec in [3000u32, 0, 1, 7, 4096, 100_000, MEAN_RBER_LUT_MAX_PEC + 5] {
                assert_eq!(
                    lut.mean_rber(pec).to_bits(),
                    model.mean_rber(pec).to_bits(),
                    "pec {pec}"
                );
            }
        }
    }

    #[test]
    fn lut_rber_with_mean_matches_rber() {
        let m = RberModel {
            retention_scale: 1e-9,
            disturb_scale: 1e-10,
            ..RberModel::default()
        };
        let lut = MeanRberLut::new(m);
        for pec in [0u32, 100, 3000] {
            let direct = m.rber(pec, 1.3, 12.0, 456);
            let cached = m.rber_with_mean(lut.mean_rber(pec), pec, 1.3, 12.0, 456);
            assert_eq!(direct.to_bits(), cached.to_bits(), "pec {pec}");
        }
    }

    #[test]
    fn lut_serde_round_trip_rebuilds_cache() {
        let lut = MeanRberLut::new(RberModel::fast_wear());
        let warm = lut.mean_rber(50);
        let restored = MeanRberLut::from_value(&lut.to_value()).unwrap();
        assert_eq!(restored.model(), lut.model());
        assert_eq!(restored.mean_rber(50).to_bits(), warm.to_bits());
    }

    #[test]
    fn default_median_endurance_near_3000() {
        let m = RberModel::default();
        let pec = m.pec_at_rber(2.5e-3);
        assert!((2500..3500).contains(&pec), "median endurance {pec}");
    }
}
