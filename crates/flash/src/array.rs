//! Multi-chip flash array: the device an FTL drives.
//!
//! [`FlashArray`] combines the per-chip functional state
//! ([`crate::chip::FlashChip`]), the wear model ([`crate::rber`]), error
//! injection ([`crate::errors`]), and accounting ([`crate::stats`],
//! [`crate::timing`]) behind device-global addresses.

use crate::chip::{FlashChip, FlashError, PageState};
use crate::errors::BitFlipper;
use crate::geometry::{BlockAddr, FPageAddr, FlashGeometry};
use crate::rber::{MeanRberLut, RberModel};
use crate::stats::FlashStats;
use crate::timing::TimingModel;
use serde::{Deserialize, Serialize};

/// Result of one fPage read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// Number of raw bit errors injected into this read.
    pub raw_bit_errors: u64,
    /// The page's RBER at read time.
    pub rber: f64,
    /// The (possibly corrupted) stored bytes, if the page carried real data.
    pub data: Option<Vec<u8>>,
}

/// A seeded, deterministic flash device composed of multiple chips.
///
/// # Examples
///
/// ```
/// use salamander_flash::{array::FlashArray, geometry::FlashGeometry, rber::RberModel};
///
/// let geom = FlashGeometry::small_test();
/// let mut a = FlashArray::new(geom, RberModel::fast_wear(), 7);
/// let fp = geom.fpage_addr(0, 0, 0);
/// a.program(fp, None).unwrap();
/// // Wear the block and observe errors appear.
/// let blk = geom.block_of(fp);
/// for _ in 0..50 {
///     a.erase(blk).unwrap();
///     a.program(fp, None).unwrap();
/// }
/// let out = a.read(fp).unwrap();
/// assert!(out.rber > 1e-5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashArray {
    geom: FlashGeometry,
    model: RberModel,
    timing: TimingModel,
    chips: Vec<FlashChip>,
    flipper: BitFlipper,
    stats: FlashStats,
    /// Simulated wall clock in days (drives retention errors).
    now_days: f64,
    /// Bit-exact PEC→mean-RBER memo; keeps `powf` off the per-read and
    /// per-classification path (DESIGN.md §10).
    mean_lut: MeanRberLut,
}

impl FlashArray {
    /// Create an array; per-page endurance variance is derived from `seed`.
    pub fn new(geom: FlashGeometry, model: RberModel, seed: u64) -> Self {
        let chips = (0..geom.chips)
            .map(|c| FlashChip::new(geom, &model, seed.wrapping_add(c as u64 * 0x9E37_79B9)))
            .collect();
        FlashArray {
            geom,
            model,
            timing: TimingModel::default(),
            chips,
            flipper: BitFlipper::new(seed ^ 0xF1A5_44E7),
            stats: FlashStats::default(),
            now_days: 0.0,
            mean_lut: MeanRberLut::new(model),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Current simulated time in days.
    pub fn now_days(&self) -> f64 {
        self.now_days
    }

    /// Advance the simulated clock (retention errors accrue with time).
    pub fn advance_days(&mut self, days: f64) {
        self.now_days += days.max(0.0);
    }

    fn split(&self, block: BlockAddr) -> (usize, u32) {
        let chip = (block.index / self.geom.blocks_per_chip) as usize;
        let local = block.index % self.geom.blocks_per_chip;
        (chip, local)
    }

    /// Program an fPage; `data` must be `data + spare` bytes or `None` for
    /// a synthetic (metadata-only) program.
    pub fn program(&mut self, fp: FPageAddr, data: Option<&[u8]>) -> Result<(), FlashError> {
        if fp.index >= self.geom.total_fpages() {
            return Err(FlashError::OutOfRange);
        }
        let block = self.geom.block_of(fp);
        let page = self.geom.page_in_block(fp);
        let (chip, local) = self.split(block);
        self.chips[chip].program(local, page, data, self.now_days)?;
        let bytes = data
            .map(|d| d.len() as u64)
            .unwrap_or((self.geom.fpage_data_bytes + self.geom.fpage_spare_bytes) as u64);
        self.stats.record_program(bytes, &self.timing);
        Ok(())
    }

    /// Read an fPage, injecting raw bit errors per the wear model.
    pub fn read(&mut self, fp: FPageAddr) -> Result<ReadOutcome, FlashError> {
        if fp.index >= self.geom.total_fpages() {
            return Err(FlashError::OutOfRange);
        }
        let block = self.geom.block_of(fp);
        let page = self.geom.page_in_block(fp);
        let (chip, local) = self.split(block);
        let (variance, pec, retention, reads) =
            self.chips[chip].read_wear(local, page, self.now_days)?;
        let rber = self.model.rber_with_mean(
            self.mean_lut.mean_rber(pec),
            pec,
            variance,
            retention,
            reads,
        );
        let total_bytes = (self.geom.fpage_data_bytes + self.geom.fpage_spare_bytes) as u64;
        let bits = total_bytes * 8;
        let raw_bit_errors = self.flipper.draw_error_count(rber, bits);
        let data = match self.chips[chip].stored_data(local, page)? {
            Some(mut d) => {
                self.flipper.corrupt(&mut d, raw_bit_errors);
                Some(d)
            }
            None => None,
        };
        self.stats.record_read(total_bytes, &self.timing);
        self.stats.raw_bit_errors += raw_bit_errors;
        Ok(ReadOutcome {
            raw_bit_errors,
            rber,
            data,
        })
    }

    /// A clean (uncorrupted) copy of a programmed page's stored bytes, if
    /// the program carried real data. Used by FTL relocation and by the
    /// capability-model read path, which represents data the device's ECC
    /// engine fully corrected; it does not count as a device read and
    /// injects no errors.
    pub fn stored_data(&self, fp: FPageAddr) -> Result<Option<Vec<u8>>, FlashError> {
        if fp.index >= self.geom.total_fpages() {
            return Err(FlashError::OutOfRange);
        }
        let block = self.geom.block_of(fp);
        let page = self.geom.page_in_block(fp);
        let (chip, local) = self.split(block);
        self.chips[chip].stored_data(local, page)
    }

    /// Account `n` read-retry passes (the controller re-reads with
    /// adjusted reference voltages; each pass costs one array read).
    pub fn record_retries(&mut self, n: u64) {
        let timing = self.timing;
        self.stats.record_retries(n, &timing);
    }

    /// Erase a block.
    pub fn erase(&mut self, block: BlockAddr) -> Result<(), FlashError> {
        if block.index >= self.geom.total_blocks() {
            return Err(FlashError::OutOfRange);
        }
        let (chip, local) = self.split(block);
        self.chips[chip].erase(local)?;
        self.stats.record_erase(&self.timing);
        Ok(())
    }

    /// Mark a block bad.
    pub fn mark_bad(&mut self, block: BlockAddr) -> Result<(), FlashError> {
        let (chip, local) = self.split(block);
        self.chips[chip].mark_bad(local)
    }

    /// Whether a block is marked bad.
    pub fn is_bad(&self, block: BlockAddr) -> bool {
        let (chip, local) = self.split(block);
        self.chips[chip].is_bad(local)
    }

    /// PEC of a block.
    pub fn pec(&self, block: BlockAddr) -> u32 {
        let (chip, local) = self.split(block);
        self.chips[chip].pec(local)
    }

    /// Endurance variance multiplier of an fPage.
    pub fn variance(&self, fp: FPageAddr) -> f64 {
        let block = self.geom.block_of(fp);
        let page = self.geom.page_in_block(fp);
        let (chip, local) = self.split(block);
        self.chips[chip].variance(local, page)
    }

    /// Current *projected* RBER of a page at its block's PEC — the value an
    /// FTL uses to classify tiredness without issuing a read (no read
    /// disturb or retention term; callers add margins for those).
    pub fn projected_rber(&self, fp: FPageAddr) -> f64 {
        let block = self.geom.block_of(fp);
        self.mean_lut.mean_rber(self.pec(block)) * self.variance(fp)
    }

    /// Lifecycle state of an fPage.
    pub fn page_state(&self, fp: FPageAddr) -> PageState {
        let block = self.geom.block_of(fp);
        let page = self.geom.page_in_block(fp);
        let (chip, local) = self.split(block);
        self.chips[chip].page_state(local, page)
    }

    /// Total bad blocks across all chips.
    pub fn bad_blocks(&self) -> u32 {
        self.chips.iter().map(|c| c.bad_blocks()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> FlashArray {
        FlashArray::new(FlashGeometry::small_test(), RberModel::default(), 11)
    }

    #[test]
    fn fresh_page_reads_cleanly() {
        let mut a = array();
        let fp = a.geometry().fpage_addr(0, 0, 0);
        a.program(fp, None).unwrap();
        let out = a.read(fp).unwrap();
        assert!(out.rber < 1e-6);
        assert_eq!(out.raw_bit_errors, 0);
        assert_eq!(out.data, None);
    }

    #[test]
    fn wear_increases_errors() {
        let geom = FlashGeometry::small_test();
        let mut a = FlashArray::new(geom, RberModel::fast_wear().no_variance(), 3);
        let fp = geom.fpage_addr(0, 0, 0);
        let blk = geom.block_of(fp);
        for _ in 0..200 {
            a.program(fp, None).unwrap();
            a.erase(blk).unwrap();
        }
        a.program(fp, None).unwrap();
        let out = a.read(fp).unwrap();
        assert!(out.rber > 1e-3, "rber {}", out.rber);
        assert!(out.raw_bit_errors > 10);
    }

    #[test]
    fn data_corruption_matches_error_count() {
        let geom = FlashGeometry::small_test();
        let mut a = FlashArray::new(geom, RberModel::fast_wear().no_variance(), 5);
        let fp = geom.fpage_addr(0, 0, 0);
        let blk = geom.block_of(fp);
        let clean = vec![0u8; (geom.fpage_data_bytes + geom.fpage_spare_bytes) as usize];
        for _ in 0..100 {
            a.program(fp, None).unwrap();
            a.erase(blk).unwrap();
        }
        a.program(fp, Some(&clean)).unwrap();
        let out = a.read(fp).unwrap();
        let got = out.data.unwrap();
        let flipped: u64 = clean
            .iter()
            .zip(&got)
            .map(|(x, y)| (x ^ y).count_ones() as u64)
            .sum();
        assert_eq!(flipped, out.raw_bit_errors);
    }

    #[test]
    fn global_addressing_reaches_second_chip() {
        let mut a = array();
        let g = *a.geometry();
        let fp = g.fpage_addr(1, 7, 15);
        // Program pages 0..15 of that block in order.
        let blk = g.block_of(fp);
        for p in g.fpages_in(blk) {
            a.program(p, None).unwrap();
        }
        assert!(a.read(fp).is_ok());
        a.erase(blk).unwrap();
        assert_eq!(a.pec(blk), 1);
    }

    #[test]
    fn stats_track_operations() {
        let mut a = array();
        let g = *a.geometry();
        let fp = g.fpage_addr(0, 0, 0);
        a.program(fp, None).unwrap();
        a.read(fp).unwrap();
        a.erase(g.block_of(fp)).unwrap();
        let s = a.stats();
        assert_eq!((s.programs, s.reads, s.erases), (1, 1, 1));
        assert!(s.busy_us > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let geom = FlashGeometry::small_test();
            let mut a = FlashArray::new(geom, RberModel::fast_wear(), 99);
            let fp = geom.fpage_addr(0, 0, 0);
            let blk = geom.block_of(fp);
            let mut errs = Vec::new();
            for _ in 0..40 {
                a.program(fp, None).unwrap();
                errs.push(a.read(fp).unwrap().raw_bit_errors);
                a.erase(blk).unwrap();
            }
            errs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retention_clock_advances() {
        let mut a = array();
        assert_eq!(a.now_days(), 0.0);
        a.advance_days(3.0);
        a.advance_days(-5.0); // clamped
        assert_eq!(a.now_days(), 3.0);
    }

    #[test]
    fn projected_rber_uses_variance() {
        let a = array();
        let g = *a.geometry();
        let p0 = g.fpage_addr(0, 0, 0);
        let p1 = g.fpage_addr(0, 0, 1);
        // Equal PEC (=0) but distinct variances ⇒ distinct projections.
        assert_ne!(a.projected_rber(p0), a.projected_rber(p1));
    }

    #[test]
    fn bad_block_tracked_globally() {
        let mut a = array();
        let g = *a.geometry();
        a.mark_bad(BlockAddr { index: 9 }).unwrap();
        assert!(a.is_bad(BlockAddr { index: 9 }));
        assert_eq!(a.bad_blocks(), 1);
        assert!(g.total_blocks() > 9);
    }
}
