//! Logical-to-physical mapping.
//!
//! Salamander's mapping is indexed by `(minidisk, LBA)` rather than a flat
//! device LBA (§3.2): each minidisk owns an independent LBA space whose
//! entries may point anywhere on the device. [`MdiskTable`] maintains the
//! forward map, the reverse map (fPage slot → `(minidisk, LBA)`), and
//! per-block valid-oPage counts for GC victim selection.
//!
//! Hot-path layout (DESIGN.md §10): minidisk ids are allocated
//! sequentially and never reused, so the id → minidisk map is a dense
//! slab (`Vec<Option<Mdisk>>` indexed by id) rather than a `BTreeMap`,
//! and the reverse map is one flat `fpage × slot` array rather than a
//! vector of per-fPage vectors. Ascending-id iteration over the slab
//! visits minidisks in exactly the order the old ordered map did, so
//! every victim/placement decision is unchanged. Each minidisk also
//! carries its valid-LBA count incrementally, making GC victim scoring
//! O(minidisks) instead of O(LBAs).

use crate::types::{Lba, MdiskId, OPageSlot};
use salamander_ecc::profile::Tiredness;
use salamander_flash::geometry::{BlockAddr, FlashGeometry};
use serde::{Deserialize, Serialize, Value};

/// State of one forward-map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapEntry {
    /// Never written (or trimmed).
    Unmapped,
    /// Latest copy lives in the NV write buffer.
    Buffered,
    /// Latest copy lives on flash.
    Flash(OPageSlot),
}

/// One minidisk's mapping state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mdisk {
    /// Forward map, one entry per LBA.
    map: Vec<MapEntry>,
    /// Tiredness level of the capacity pool backing this minidisk (§3.4:
    /// "we assume all oPages in a mDisk have the same tiredness level").
    level: Tiredness,
    /// Decommissioned but kept readable during the grace period (§4.3
    /// future work): no longer counted as committed capacity, rejects
    /// writes, awaits the host's acknowledgement.
    draining: bool,
    /// Cached count of mapped (buffered or flash) LBAs, maintained on
    /// every map transition so victim selection never rescans the map.
    valid: u32,
}

impl Mdisk {
    fn new(lbas: u32, level: Tiredness) -> Self {
        Mdisk {
            map: vec![MapEntry::Unmapped; lbas as usize],
            level,
            draining: false,
            valid: 0,
        }
    }

    /// Number of LBAs currently mapped (buffered or on flash). O(1):
    /// maintained incrementally by [`MdiskTable`].
    pub fn valid_lbas(&self) -> u32 {
        self.valid
    }
}

/// Dense id-indexed minidisk store. Ids are sequential and never
/// reused, so `slots[id]` is the whole lookup; freed ids stay `None`.
/// Serializes as the same ordered `(id, mdisk)` pair sequence the
/// previous `BTreeMap` + `serde_util::pairs` representation produced.
#[derive(Debug, Clone, Default)]
struct MdiskSlab {
    slots: Vec<Option<Mdisk>>,
}

impl MdiskSlab {
    fn get(&self, id: MdiskId) -> Option<&Mdisk> {
        self.slots.get(id.0 as usize).and_then(|m| m.as_ref())
    }

    fn get_mut(&mut self, id: MdiskId) -> Option<&mut Mdisk> {
        self.slots.get_mut(id.0 as usize).and_then(|m| m.as_mut())
    }

    fn insert(&mut self, id: MdiskId, m: Mdisk) {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx] = Some(m);
    }

    fn remove(&mut self, id: MdiskId) -> Option<Mdisk> {
        self.slots.get_mut(id.0 as usize).and_then(|m| m.take())
    }

    /// Live `(id, mdisk)` entries in ascending id order — the exact
    /// iteration order of the ordered map this slab replaced.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (MdiskId, &Mdisk)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (MdiskId(i as u32), m)))
    }
}

impl Serialize for MdiskSlab {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(id, m)| Value::Array(vec![id.to_value(), m.to_value()]))
                .collect(),
        )
    }
}

impl<'de> Deserialize<'de> for MdiskSlab {
    fn from_value(v: &Value) -> Result<Self, serde::de::DeError> {
        let pairs = Vec::<(MdiskId, Mdisk)>::from_value(v)?;
        let mut slab = MdiskSlab::default();
        for (id, m) in pairs {
            slab.insert(id, m);
        }
        Ok(slab)
    }
}

/// The device-wide mapping structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MdiskTable {
    geom: FlashGeometry,
    lbas_per_mdisk: u32,
    next_id: u32,
    mdisks: MdiskSlab,
    /// Reverse map, flattened: `rmap[fpage · slots_per_fpage + slot]`
    /// → owning `(minidisk, LBA)`.
    rmap: Vec<Option<(MdiskId, Lba)>>,
    /// oPage slots per fPage (row stride of `rmap`).
    slots_per_fpage: u32,
    /// Valid oPages per block (GC victim metric).
    block_valid: Vec<u32>,
    /// Cached logical capacity (LBAs) committed per backing level
    /// (index = tiredness level; L4 unused).
    committed: [u64; 5],
    /// LBAs pinned by draining minidisks (their data still occupies
    /// physical space until acknowledged).
    draining_total: u64,
}

impl MdiskTable {
    /// Create an empty table for `geom` with the given minidisk size.
    pub fn new(geom: FlashGeometry, lbas_per_mdisk: u32) -> Self {
        let slots = geom.opages_per_fpage();
        MdiskTable {
            geom,
            lbas_per_mdisk,
            next_id: 0,
            mdisks: MdiskSlab::default(),
            rmap: vec![None; (geom.total_fpages() * slots) as usize],
            slots_per_fpage: slots,
            block_valid: vec![0; geom.total_blocks() as usize],
            committed: [0; 5],
            draining_total: 0,
        }
    }

    /// LBAs per minidisk.
    pub fn lbas_per_mdisk(&self) -> u32 {
        self.lbas_per_mdisk
    }

    /// Flat index of a slot in the reverse map.
    #[inline]
    fn ridx(&self, slot: OPageSlot) -> usize {
        (slot.fpage.index * self.slots_per_fpage + slot.slot as u32) as usize
    }

    /// Create a new minidisk of `lbas` LBAs backed by the `level` capacity
    /// pool, and return its id.
    pub fn create_mdisk(&mut self, lbas: u32, level: Tiredness) -> MdiskId {
        let id = MdiskId(self.next_id);
        self.next_id += 1;
        self.mdisks.insert(id, Mdisk::new(lbas, level));
        self.committed[level.index() as usize] += lbas as u64;
        id
    }

    /// Active (non-draining) minidisk ids, ascending.
    pub fn active_mdisks(&self) -> Vec<MdiskId> {
        let mut out = Vec::new();
        self.active_mdisks_into(&mut out);
        out
    }

    /// Fill `out` with the active minidisk ids, ascending, reusing its
    /// capacity — the hot-loop variant of [`Self::active_mdisks`].
    pub fn active_mdisks_into(&self, out: &mut Vec<MdiskId>) {
        out.clear();
        out.extend(
            self.mdisks
                .iter()
                .filter(|(_, m)| !m.draining)
                .map(|(id, _)| id),
        );
    }

    /// Number of active (non-draining) minidisks.
    pub fn mdisk_count(&self) -> u32 {
        self.mdisks.iter().filter(|(_, m)| !m.draining).count() as u32
    }

    /// Whether `id` is draining (grace period).
    pub fn is_draining(&self, id: MdiskId) -> bool {
        self.mdisks.get(id).map(|m| m.draining).unwrap_or(false)
    }

    /// Draining minidisk ids, ascending (oldest id first).
    pub fn draining_mdisks(&self) -> Vec<MdiskId> {
        self.mdisks
            .iter()
            .filter(|(_, m)| m.draining)
            .map(|(id, _)| id)
            .collect()
    }

    /// Move an active minidisk to the draining state: its capacity leaves
    /// the committed ledger but its data stays mapped and readable.
    /// Returns the number of valid LBAs it holds, or `None` if absent or
    /// already draining.
    pub fn set_draining(&mut self, id: MdiskId) -> Option<u32> {
        let m = self.mdisks.get_mut(id)?;
        if m.draining {
            return None;
        }
        m.draining = true;
        let (level, len, valid) = (m.level, m.map.len() as u64, m.valid_lbas());
        self.committed[level.index() as usize] -= len;
        self.draining_total += len;
        Some(valid)
    }

    /// Whether `id` is a known (active or draining) minidisk.
    pub fn contains(&self, id: MdiskId) -> bool {
        self.mdisks.get(id).is_some()
    }

    /// Size (LBAs) of minidisk `id`, if active.
    pub fn mdisk_lbas(&self, id: MdiskId) -> Option<u32> {
        self.mdisks.get(id).map(|m| m.map.len() as u32)
    }

    /// Valid (mapped) LBAs of minidisk `id`, if active.
    pub fn mdisk_valid_lbas(&self, id: MdiskId) -> Option<u32> {
        self.mdisks.get(id).map(|m| m.valid_lbas())
    }

    /// Total committed logical capacity across active minidisks, in LBAs.
    pub fn committed_lbas(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// LBAs pinned by draining minidisks.
    pub fn draining_lbas(&self) -> u64 {
        self.draining_total
    }

    /// Committed LBAs backed by the `level` pool.
    pub fn committed_at(&self, level: Tiredness) -> u64 {
        self.committed[level.index() as usize]
    }

    /// The active `level`-backed minidisk with the fewest valid LBAs
    /// (decommission victim under
    /// [`crate::types::VictimPolicy::LeastValid`]).
    pub fn least_valid_mdisk_at(&self, level: Tiredness) -> Option<MdiskId> {
        self.mdisks
            .iter()
            .filter(|(_, m)| m.level == level && !m.draining)
            .min_by_key(|(id, m)| (m.valid_lbas(), id.0))
            .map(|(id, _)| id)
    }

    /// The highest-id active minidisk backed by `level`.
    pub fn highest_mdisk_at(&self, level: Tiredness) -> Option<MdiskId> {
        self.mdisks
            .iter()
            .rfind(|(_, m)| m.level == level && !m.draining)
            .map(|(id, _)| id)
    }

    /// Forward-map entry for `(id, lba)`, or `None` if the minidisk does
    /// not exist or the LBA is out of range.
    pub fn lookup(&self, id: MdiskId, lba: Lba) -> Option<MapEntry> {
        self.mdisks
            .get(id)
            .and_then(|m| m.map.get(lba.0 as usize))
            .copied()
    }

    /// Set `(id, lba)` to `Buffered`, invalidating any previous flash slot.
    ///
    /// Returns `false` if the target does not exist.
    pub fn set_buffered(&mut self, id: MdiskId, lba: Lba) -> bool {
        let Some(m) = self.mdisks.get_mut(id) else {
            return false;
        };
        let Some(entry) = m.map.get_mut(lba.0 as usize) else {
            return false;
        };
        let old = std::mem::replace(entry, MapEntry::Buffered);
        match old {
            MapEntry::Unmapped => m.valid += 1,
            MapEntry::Buffered => {}
            MapEntry::Flash(slot) => self.clear_slot(slot),
        }
        true
    }

    /// Bind `(id, lba)` to a flash slot (called at buffer flush). Any
    /// previous flash slot is invalidated.
    ///
    /// Returns `false` if the target no longer exists (e.g. the minidisk
    /// was decommissioned while the write sat in the buffer).
    pub fn set_flash(&mut self, id: MdiskId, lba: Lba, slot: OPageSlot) -> bool {
        let Some(m) = self.mdisks.get_mut(id) else {
            return false;
        };
        let Some(entry) = m.map.get_mut(lba.0 as usize) else {
            return false;
        };
        let old = std::mem::replace(entry, MapEntry::Flash(slot));
        match old {
            MapEntry::Unmapped => m.valid += 1,
            MapEntry::Buffered => {}
            MapEntry::Flash(old_slot) => self.clear_slot(old_slot),
        }
        let idx = self.ridx(slot);
        self.rmap[idx] = Some((id, lba));
        self.block_valid[self.geom.block_of(slot.fpage).index as usize] += 1;
        true
    }

    /// Unmap `(id, lba)` (trim). Returns the freed flash slot, if any.
    pub fn unmap(&mut self, id: MdiskId, lba: Lba) -> Option<OPageSlot> {
        let m = self.mdisks.get_mut(id)?;
        let entry = m.map.get_mut(lba.0 as usize)?;
        let old = std::mem::replace(entry, MapEntry::Unmapped);
        if !matches!(old, MapEntry::Unmapped) {
            m.valid -= 1;
        }
        match old {
            MapEntry::Flash(slot) => {
                self.clear_slot(slot);
                Some(slot)
            }
            _ => None,
        }
    }

    /// Remove a minidisk entirely, invalidating all of its slots.
    ///
    /// Returns the number of LBAs that were valid, or `None` if the
    /// minidisk does not exist.
    pub fn remove_mdisk(&mut self, id: MdiskId) -> Option<u32> {
        let m = self.mdisks.remove(id)?;
        if m.draining {
            self.draining_total -= m.map.len() as u64;
        } else {
            self.committed[m.level.index() as usize] -= m.map.len() as u64;
        }
        for entry in &m.map {
            if let MapEntry::Flash(slot) = entry {
                self.clear_slot(*slot);
            }
        }
        Some(m.valid_lbas())
    }

    /// The owner of a flash slot, if it holds valid data.
    pub fn owner(&self, slot: OPageSlot) -> Option<(MdiskId, Lba)> {
        self.rmap[self.ridx(slot)]
    }

    /// Valid oPages stored in `block`.
    pub fn block_valid(&self, block: BlockAddr) -> u32 {
        self.block_valid[block.index as usize]
    }

    /// All valid `(slot, owner)` pairs within `block`, in address order.
    pub fn valid_in_block(&self, block: BlockAddr) -> Vec<(OPageSlot, (MdiskId, Lba))> {
        let mut out = Vec::new();
        self.valid_in_block_into(block, &mut out);
        out
    }

    /// Fill `out` with the valid `(slot, owner)` pairs of `block` in
    /// address order, reusing its capacity — the GC-path variant of
    /// [`Self::valid_in_block`] (no allocation once the caller's
    /// scratch buffer has grown to one block's worth of slots).
    pub fn valid_in_block_into(
        &self,
        block: BlockAddr,
        out: &mut Vec<(OPageSlot, (MdiskId, Lba))>,
    ) {
        out.clear();
        // A block's fPages are contiguous, so its reverse-map slots are
        // one contiguous row range.
        let first_fp = block.index * self.geom.fpages_per_block;
        let base = (first_fp * self.slots_per_fpage) as usize;
        let len = (self.geom.fpages_per_block * self.slots_per_fpage) as usize;
        for (i, owner) in self.rmap[base..base + len].iter().enumerate() {
            if let Some(o) = owner {
                out.push((
                    OPageSlot {
                        fpage: salamander_flash::geometry::FPageAddr {
                            index: first_fp + (i as u32 / self.slots_per_fpage),
                        },
                        slot: (i as u32 % self.slots_per_fpage) as u8,
                    },
                    *o,
                ));
            }
        }
    }

    /// Valid `(slot, owner)` pairs within a single fPage, in slot
    /// order. Allocation-free; used by scrub, which refreshes one
    /// fPage at a time.
    pub fn owners_in_fpage(
        &self,
        fp: salamander_flash::geometry::FPageAddr,
    ) -> impl Iterator<Item = (OPageSlot, (MdiskId, Lba))> + '_ {
        let base = (fp.index * self.slots_per_fpage) as usize;
        self.rmap[base..base + self.slots_per_fpage as usize]
            .iter()
            .enumerate()
            .filter_map(move |(s, owner)| {
                owner.map(|o| {
                    (
                        OPageSlot {
                            fpage: fp,
                            slot: s as u8,
                        },
                        o,
                    )
                })
            })
    }

    /// Total valid oPages on flash across the device.
    pub fn total_valid(&self) -> u64 {
        self.block_valid.iter().map(|&v| v as u64).sum()
    }

    fn clear_slot(&mut self, slot: OPageSlot) {
        let idx = self.ridx(slot);
        if self.rmap[idx].take().is_some() {
            let b = self.geom.block_of(slot.fpage).index as usize;
            debug_assert!(self.block_valid[b] > 0, "valid-count underflow");
            self.block_valid[b] -= 1;
        }
    }

    /// Debug invariant check: forward and reverse maps agree, per-block
    /// counts match the reverse map, and cached per-minidisk valid
    /// counts match a recount. O(device); test-only.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Every Flash forward entry has a matching reverse entry, and
        // the cached valid count matches the map contents.
        for (id, m) in self.mdisks.iter() {
            let mut recount = 0u32;
            for (lba_idx, entry) in m.map.iter().enumerate() {
                if !matches!(entry, MapEntry::Unmapped) {
                    recount += 1;
                }
                if let MapEntry::Flash(slot) = entry {
                    let back = self.rmap[self.ridx(*slot)];
                    if back != Some((id, Lba(lba_idx as u32))) {
                        return Err(format!(
                            "forward {:?}/{} -> {:?} but reverse says {:?}",
                            id, lba_idx, slot, back
                        ));
                    }
                }
            }
            if recount != m.valid_lbas() {
                return Err(format!(
                    "{:?} cached valid {} but map holds {}",
                    id,
                    m.valid_lbas(),
                    recount
                ));
            }
        }
        // Every reverse entry has a matching forward entry.
        let mut per_block = vec![0u32; self.block_valid.len()];
        for (idx, owner) in self.rmap.iter().enumerate() {
            if let Some((id, lba)) = owner {
                let fp_idx = idx / self.slots_per_fpage as usize;
                let s = idx % self.slots_per_fpage as usize;
                per_block[fp_idx / self.geom.fpages_per_block as usize] += 1;
                match self.lookup(*id, *lba) {
                    Some(MapEntry::Flash(slot))
                        if slot.fpage.index == fp_idx as u32 && slot.slot == s as u8 => {}
                    other => {
                        return Err(format!(
                            "reverse fp{fp_idx}/{s} -> {:?}/{:?} but forward is {:?}",
                            id, lba, other
                        ));
                    }
                }
            }
        }
        if per_block != self.block_valid {
            return Err("block_valid counts out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salamander_flash::geometry::FPageAddr;

    fn table() -> MdiskTable {
        MdiskTable::new(FlashGeometry::small_test(), 64)
    }

    fn slot(fp: u32, s: u8) -> OPageSlot {
        OPageSlot {
            fpage: FPageAddr { index: fp },
            slot: s,
        }
    }

    #[test]
    fn create_and_lookup() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        assert!(t.contains(id));
        assert_eq!(t.mdisk_lbas(id), Some(64));
        assert_eq!(t.lookup(id, Lba(0)), Some(MapEntry::Unmapped));
        assert_eq!(t.lookup(id, Lba(64)), None);
        assert_eq!(t.lookup(MdiskId(99), Lba(0)), None);
    }

    #[test]
    fn ids_never_reused() {
        let mut t = table();
        let a = t.create_mdisk(64, Tiredness::L0);
        t.remove_mdisk(a).unwrap();
        let b = t.create_mdisk(64, Tiredness::L0);
        assert_ne!(a, b);
    }

    #[test]
    fn buffered_then_flash_transition() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        assert!(t.set_buffered(id, Lba(5)));
        assert_eq!(t.lookup(id, Lba(5)), Some(MapEntry::Buffered));
        let s = slot(10, 2);
        assert!(t.set_flash(id, Lba(5), s));
        assert_eq!(t.lookup(id, Lba(5)), Some(MapEntry::Flash(s)));
        assert_eq!(t.owner(s), Some((id, Lba(5))));
        assert_eq!(t.block_valid(BlockAddr { index: 0 }), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_invalidates_old_slot() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        let s1 = slot(3, 0);
        let s2 = slot(100, 1); // a different block
        t.set_buffered(id, Lba(7));
        t.set_flash(id, Lba(7), s1);
        // Rewrite: buffer then a new flash location.
        t.set_buffered(id, Lba(7));
        assert_eq!(t.owner(s1), None, "old slot invalidated on re-buffer");
        t.set_flash(id, Lba(7), s2);
        assert_eq!(t.owner(s2), Some((id, Lba(7))));
        assert_eq!(t.block_valid(BlockAddr { index: 0 }), 0);
        assert_eq!(t.block_valid(BlockAddr { index: 100 / 16 }), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn unmap_frees_slot() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        t.set_buffered(id, Lba(1));
        t.set_flash(id, Lba(1), slot(0, 0));
        assert_eq!(t.unmap(id, Lba(1)), Some(slot(0, 0)));
        assert_eq!(t.lookup(id, Lba(1)), Some(MapEntry::Unmapped));
        assert_eq!(t.total_valid(), 0);
        assert_eq!(t.mdisk_valid_lbas(id), Some(0));
        // Unmapping again is a no-op.
        assert_eq!(t.unmap(id, Lba(1)), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_mdisk_counts_valid_and_clears() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        t.set_buffered(id, Lba(0));
        t.set_flash(id, Lba(0), slot(0, 0));
        t.set_buffered(id, Lba(1));
        t.set_flash(id, Lba(1), slot(0, 1));
        t.set_buffered(id, Lba(2)); // still in buffer
        assert_eq!(t.remove_mdisk(id), Some(3));
        assert!(!t.contains(id));
        assert_eq!(t.total_valid(), 0);
        assert_eq!(t.remove_mdisk(id), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn committed_capacity_tracks_mdisks() {
        let mut t = table();
        let a = t.create_mdisk(64, Tiredness::L0);
        let _b = t.create_mdisk(32, Tiredness::L1);
        assert_eq!(t.committed_lbas(), 96);
        t.remove_mdisk(a);
        assert_eq!(t.committed_lbas(), 32);
    }

    #[test]
    fn valid_in_block_enumerates() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        for (i, s) in [(0u32, 0u8), (0, 3), (5, 1)].iter().enumerate() {
            t.set_buffered(id, Lba(i as u32));
            t.set_flash(id, Lba(i as u32), slot(s.0, s.1));
        }
        let v = t.valid_in_block(BlockAddr { index: 0 });
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].0, slot(0, 0));
        assert_eq!(v[1].0, slot(0, 3));
        assert_eq!(v[2].0, slot(5, 1));
        assert_eq!(v[2].1, (id, Lba(2)));
        // The reused-scratch variant returns the same pairs without
        // growing a warm buffer.
        let mut scratch = Vec::with_capacity(v.len());
        t.valid_in_block_into(BlockAddr { index: 0 }, &mut scratch);
        assert_eq!(scratch, v);
        let cap = scratch.capacity();
        t.valid_in_block_into(BlockAddr { index: 0 }, &mut scratch);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn owners_in_fpage_matches_block_enumeration() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        for (i, s) in [(0u32, 0u8), (0, 3), (5, 1)].iter().enumerate() {
            t.set_buffered(id, Lba(i as u32));
            t.set_flash(id, Lba(i as u32), slot(s.0, s.1));
        }
        let fp0: Vec<_> = t.owners_in_fpage(FPageAddr { index: 0 }).collect();
        assert_eq!(fp0.len(), 2);
        assert_eq!(fp0[0].0, slot(0, 0));
        assert_eq!(fp0[1].0, slot(0, 3));
        assert_eq!(t.owners_in_fpage(FPageAddr { index: 1 }).count(), 0);
    }

    #[test]
    fn active_mdisks_into_reuses_capacity() {
        let mut t = table();
        let a = t.create_mdisk(64, Tiredness::L0);
        let b = t.create_mdisk(64, Tiredness::L0);
        let mut ids = Vec::new();
        t.active_mdisks_into(&mut ids);
        assert_eq!(ids, vec![a, b]);
        t.set_draining(a);
        let cap = ids.capacity();
        t.active_mdisks_into(&mut ids);
        assert_eq!(ids, vec![b]);
        assert_eq!(ids.capacity(), cap);
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let mut t = table();
        let id = t.create_mdisk(64, Tiredness::L0);
        t.set_buffered(id, Lba(0));
        t.set_flash(id, Lba(0), slot(0, 0));
        // Corrupt the reverse map directly.
        t.rmap[0] = Some((id, Lba(9)));
        assert!(t.check_invariants().is_err());
    }
}
