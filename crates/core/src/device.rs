//! The device handle: minidisk I/O and host notifications.

use crate::config::SsdConfig;
use salamander_ecc::profile::Tiredness;
use salamander_ftl::ftl::{BatchOutcome, Ftl, ReadData};
use salamander_ftl::types::{FtlError, FtlEvent, Lba, MdiskId};
use serde::{Deserialize, Serialize};

pub use salamander_ftl::ftl::BatchStop;

/// Host-facing notification, a thin renaming of the FTL event for API
/// stability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HostEvent {
    /// A minidisk was decommissioned; re-replicate `valid_lbas` LBAs.
    /// When `draining` is set the minidisk stays readable until
    /// [`SalamanderSsd::ack_decommission`] — data can be recovered by
    /// reading it directly instead of from replicas.
    MinidiskFailed {
        /// The failed minidisk.
        id: MdiskId,
        /// LBAs that held live data.
        valid_lbas: u32,
        /// Whether a grace period keeps the data readable.
        draining: bool,
    },
    /// A draining minidisk was purged before acknowledgement (space
    /// pressure); recover from replicas after all.
    MinidiskPurged {
        /// The purged minidisk.
        id: MdiskId,
    },
    /// A regenerated minidisk is available.
    MinidiskCreated {
        /// The new minidisk.
        id: MdiskId,
        /// Tiredness level of its backing capacity.
        level: Tiredness,
    },
    /// The device is gone (brick or fully shrunk).
    DeviceFailed,
    /// A read the device could not correct; recover the LBA from replicas.
    UnrecoverableRead {
        /// Minidisk of the failed read.
        id: MdiskId,
        /// LBA of the failed read.
        lba: u32,
    },
}

impl From<FtlEvent> for HostEvent {
    fn from(e: FtlEvent) -> Self {
        match e {
            FtlEvent::MdiskDecommissioned {
                id,
                valid_lbas,
                draining,
            } => HostEvent::MinidiskFailed {
                id,
                valid_lbas,
                draining,
            },
            FtlEvent::MdiskPurged { id } => HostEvent::MinidiskPurged { id },
            FtlEvent::MdiskCreated { id, level } => HostEvent::MinidiskCreated { id, level },
            FtlEvent::DeviceFailed { .. } => HostEvent::DeviceFailed,
            FtlEvent::UncorrectableRead { id, lba } => {
                HostEvent::UnrecoverableRead { id, lba: lba.0 }
            }
        }
    }
}

/// A Salamander SSD.
///
/// Reads return `Ok(Some(bytes))` for data-carrying writes,
/// `Ok(None)` for synthetic (metadata-only) writes, and errors for
/// unmapped/uncorrectable/unknown targets.
#[derive(Debug)]
pub struct SalamanderSsd {
    ftl: Ftl,
    cfg: SsdConfig,
}

impl SalamanderSsd {
    /// Open (power on) a device.
    pub fn open(cfg: SsdConfig) -> Self {
        SalamanderSsd {
            ftl: Ftl::new(*cfg.ftl_config()),
            cfg,
        }
    }

    /// Open a device with observability handles attached (DESIGN.md §9).
    pub fn open_with_obs(cfg: SsdConfig, obs: salamander_obs::Obs) -> Self {
        let mut ssd = Self::open(cfg);
        ssd.ftl.set_obs(obs);
        ssd
    }

    /// Attach (or detach, with a disabled bundle) observability handles.
    pub fn set_obs(&mut self, obs: salamander_obs::Obs) {
        self.ftl.set_obs(obs);
    }

    /// The configuration the device was opened with.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// oPage size in bytes (the I/O granularity).
    pub fn opage_bytes(&self) -> usize {
        self.cfg.ftl_config().geometry.opage_bytes as usize
    }

    /// Active minidisk ids.
    pub fn minidisks(&self) -> Vec<MdiskId> {
        self.ftl.active_mdisks()
    }

    /// Fill `out` with the active minidisk ids (ascending), reusing its
    /// capacity — for hot loops that cache the set between events.
    pub fn minidisks_into(&self, out: &mut Vec<MdiskId>) {
        self.ftl.active_mdisks_into(out);
    }

    /// Size of one minidisk in LBAs (oPages).
    pub fn minidisk_lbas(&self, id: MdiskId) -> Option<u32> {
        self.ftl.mdisk_lbas(id)
    }

    /// Valid (mapped) LBAs of one minidisk.
    pub fn minidisk_valid_lbas(&self, id: MdiskId) -> Option<u32> {
        self.ftl.mdisk_valid_lbas(id)
    }

    /// Committed logical capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.ftl.committed_lbas() * self.cfg.ftl_config().geometry.opage_bytes as u64
    }

    /// Whether the device has failed.
    pub fn is_dead(&self) -> bool {
        self.ftl.is_dead()
    }

    /// Write one oPage to `(minidisk, lba)`; `None` data is a synthetic
    /// simulation write.
    pub fn write(&mut self, id: MdiskId, lba: u32, data: Option<&[u8]>) -> Result<(), FtlError> {
        self.ftl.write(id, Lba(lba), data)
    }

    /// Issue a batch of synthetic writes through the FTL's batched hot
    /// path: bit-identical to writing one op at a time, but the batch
    /// returns as soon as an op raises host events (so callers can
    /// refresh cached minidisk sets), the device dies, or an op fails
    /// fatally. See [`salamander_ftl::ftl::BatchOutcome`].
    pub fn write_batch(&mut self, ops: &[(MdiskId, Lba)]) -> BatchOutcome {
        self.ftl.write_batch(ops)
    }

    /// Read one oPage.
    pub fn read(&mut self, id: MdiskId, lba: u32) -> Result<Option<Vec<u8>>, FtlError> {
        match self.ftl.read(id, Lba(lba))? {
            ReadData::Synthetic => Ok(None),
            ReadData::Bytes(b) => Ok(Some(b)),
        }
    }

    /// Trim one oPage.
    pub fn trim(&mut self, id: MdiskId, lba: u32) -> Result<(), FtlError> {
        self.ftl.trim(id, Lba(lba))
    }

    /// Run one background-scrub slice over up to `pages` flash pages:
    /// patrol reads that refresh data whose raw errors are approaching the
    /// ECC capability (retention/read-disturb protection). Returns the
    /// number of flash pages refreshed.
    pub fn scrub(&mut self, pages: u32) -> Result<u32, FtlError> {
        self.ftl.scrub(pages)
    }

    /// Acknowledge a draining minidisk (grace-period decommissioning):
    /// its data has been safely re-distributed and may be dropped.
    pub fn ack_decommission(&mut self, id: MdiskId) -> Result<(), FtlError> {
        self.ftl.ack_decommission(id)
    }

    /// Whether notifications are waiting in [`Self::poll_events`].
    /// Allocation-free, for hot loops that only drain on activity.
    pub fn has_pending_events(&self) -> bool {
        self.ftl.pending_events() > 0
    }

    /// Drain host notifications.
    pub fn poll_events(&mut self) -> Vec<HostEvent> {
        self.ftl.drain_events().map(HostEvent::from).collect()
    }

    /// Advance the simulated clock (retention errors accrue with time).
    pub fn advance_days(&mut self, days: f64) {
        self.ftl.advance_days(days);
    }

    /// FTL statistics (write amplification, GC, lifecycle counters).
    pub fn stats(&self) -> &salamander_ftl::stats::FtlStats {
        self.ftl.stats()
    }

    /// Flash statistics (programs, erases, busy time).
    pub fn flash_stats(&self) -> &salamander_flash::stats::FlashStats {
        self.ftl.flash_stats()
    }

    /// The paper's `limbo[L_j]`: fPages currently at `level`.
    pub fn pages_at_level(&self, level: Tiredness) -> u64 {
        self.ftl.pages_at_level(level)
    }

    /// Usable physical capacity in oPages (Eq. 1 aggregate).
    pub fn usable_opages(&self) -> u64 {
        self.ftl.usable_opages()
    }

    /// Direct access to the FTL for advanced instrumentation.
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Drain the latency accumulated since the last drain into a
    /// per-sample rollup stamped with `day` (see DESIGN.md §15).
    pub fn take_latency_rollup(&mut self, day: u32) -> salamander_obs::LatencyRollup {
        self.ftl.take_latency_rollup(day)
    }

    /// SMART-style telemetry snapshot.
    pub fn smart(&self) -> salamander_ftl::smart::SmartReport {
        self.ftl.smart()
    }

    /// Serialize the whole device (flash contents included) as a JSON
    /// power-off image.
    pub fn snapshot_json(&self) -> String {
        self.ftl.snapshot_json()
    }

    /// Power the device back on from a snapshot taken with
    /// [`Self::snapshot_json`]. The configuration is recovered from the
    /// snapshot itself.
    pub fn restore_json(cfg: SsdConfig, json: &str) -> Result<Self, serde_json::Error> {
        Ok(SalamanderSsd {
            ftl: Ftl::restore_json(json)?,
            cfg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;

    #[test]
    fn open_exposes_minidisks() {
        let ssd = SalamanderSsd::open(SsdConfig::small_test().mode(Mode::Shrink));
        assert_eq!(ssd.minidisks().len(), 14);
        assert_eq!(ssd.capacity_bytes(), 14 * 256 * 1024);
        assert!(!ssd.is_dead());
    }

    #[test]
    fn baseline_is_monolithic() {
        let ssd = SalamanderSsd::open(SsdConfig::small_test().mode(Mode::Baseline));
        assert_eq!(ssd.minidisks().len(), 1);
        assert_eq!(ssd.capacity_bytes(), 14 * 256 * 1024);
    }

    #[test]
    fn data_round_trip_and_trim() {
        let mut ssd = SalamanderSsd::open(SsdConfig::small_test().mode(Mode::Regen));
        let m = ssd.minidisks()[0];
        let page = vec![0x42u8; ssd.opage_bytes()];
        ssd.write(m, 5, Some(&page)).unwrap();
        assert_eq!(ssd.read(m, 5).unwrap().as_deref(), Some(&page[..]));
        ssd.trim(m, 5).unwrap();
        assert_eq!(ssd.read(m, 5), Err(FtlError::Unmapped));
    }

    #[test]
    fn synthetic_write_reads_none() {
        let mut ssd = SalamanderSsd::open(SsdConfig::small_test());
        let m = ssd.minidisks()[0];
        ssd.write(m, 0, None).unwrap();
        assert_eq!(ssd.read(m, 0).unwrap(), None);
    }

    #[test]
    fn events_translate() {
        let e: HostEvent = FtlEvent::DeviceFailed {
            bad_block_fraction: 0.03,
        }
        .into();
        assert_eq!(e, HostEvent::DeviceFailed);
        let e: HostEvent = FtlEvent::UncorrectableRead {
            id: MdiskId(1),
            lba: Lba(7),
        }
        .into();
        assert_eq!(
            e,
            HostEvent::UnrecoverableRead {
                id: MdiskId(1),
                lba: 7
            }
        );
    }
}
