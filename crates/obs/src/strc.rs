//! `.strc` — the indexed binary flight-recorder trace format
//! (DESIGN.md §12).
//!
//! JSONL traces are perfect for small runs and `grep`, but a multi-year
//! fleet simulation emits millions of records and every query pays a
//! full JSON parse of every line. `.strc` stores the same
//! [`TraceRecord`] stream as length-prefixed binary chunks of
//! [`DEFAULT_CHUNK_RECORDS`] records, each fronted by a
//! [`ChunkSummary`] — day range, id bloom, event-kind bitmask, and
//! per-kind counts — collected into a footer index. A query that only
//! cares about, say, decommissions of minidisk 7 reads the footer,
//! decodes the chunks whose summaries can possibly match, and takes
//! aggregate totals straight from the summaries of everything it
//! skipped. Inside a decoded chunk it builds only the records of the
//! kinds it reads; each run of other records folds into a gap summary
//! ([`decode_chunk`]).
//!
//! The format is lossless against JSONL in both directions:
//! [`write_strc`]/[`read_strc`] round-trip exactly the records
//! [`crate::trace::to_jsonl`]/[`crate::trace::parse_jsonl`] carry, and
//! [`convert_file`] translates whole files. Multi-GB fleet traces
//! rotate across `trace.0001.strc`, `trace.0002.strc`, … via
//! [`RotatingStrcWriter`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! file   := magic "STRC" | version u32 | chunk* | footer
//! chunk  := payload_len u32 | record*            (payload_len bytes)
//! footer := count u32 | summary*count | footer_len u32 | magic "XIDX"
//! record := seq u64 | day u32 | op u64 | kind u8 | fields…
//! ```
//!
//! The footer is self-locating from the end of the file (8 trailing
//! bytes give its length), so readers never scan forward and writers
//! never seek back.

use crate::event::{DeathCause, DecommissionCause, SimTime, TraceEvent, TraceRecord};
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic, first four bytes of every `.strc` file.
pub const MAGIC: &[u8; 4] = b"STRC";
/// Footer magic, last four bytes of every `.strc` file.
pub const FOOTER_MAGIC: &[u8; 4] = b"XIDX";
/// Format version this module writes. Readers accept `1..=VERSION`:
/// v2 added the `FleetRollup` event kind (and its per-kind count slot
/// in the footer summaries); v3 added `LatencyRollup` the same way;
/// v4 added `ClusterRollup` and widened the footer kind mask from u16
/// to u32 (kind 16 needs a 17th bit). Older files decode with the
/// missing count slots zero and the mask zero-extended.
pub const VERSION: u32 = 4;
/// Records per chunk unless the writer is told otherwise. ~4K records
/// keeps chunks in the hundreds-of-KB range — big enough to amortize
/// the summary, small enough that skipping matters.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Number of event kinds (one bit each in [`ChunkSummary::kind_mask`]).
pub const EVENT_KINDS: usize = 17;

/// Every event kind: the mask under which [`decode_chunk`] builds all
/// records.
pub const ALL_KINDS: u32 = (1 << EVENT_KINDS) - 1;

/// Event kinds in a version-1 footer (before `FleetRollup`).
const EVENT_KINDS_V1: usize = 14;

/// Event kinds in a version-2 footer (before `LatencyRollup`).
const EVENT_KINDS_V2: usize = 15;

/// Event kinds in a version-3 footer (before `ClusterRollup`).
const EVENT_KINDS_V3: usize = 16;

/// Bytes of the smallest possible record: seq, day, op and the kind
/// tag. Capacities taken from counts in the file are capped at the
/// bytes left divided by this, so a corrupt count cannot allocate more
/// than the file can back.
const MIN_RECORD_BYTES: usize = 21;

/// Bytes of the smallest footer summary (version 1: u16 kind mask and
/// 14 count slots; later versions only add bytes).
const MIN_SUMMARY_BYTES: usize = 222;

/// The wire tag of each [`TraceEvent`] variant. Order is part of the
/// format: renumbering breaks every existing `.strc` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// [`TraceEvent::RunMarker`]
    RunMarker = 0,
    /// [`TraceEvent::PageTired`]
    PageTired = 1,
    /// [`TraceEvent::PageRetired`]
    PageRetired = 2,
    /// [`TraceEvent::MdiskDecommissioned`]
    MdiskDecommissioned = 3,
    /// [`TraceEvent::MdiskPurged`]
    MdiskPurged = 4,
    /// [`TraceEvent::MdiskRegenerated`]
    MdiskRegenerated = 5,
    /// [`TraceEvent::GcPass`]
    GcPass = 6,
    /// [`TraceEvent::ScrubRefresh`]
    ScrubRefresh = 7,
    /// [`TraceEvent::ReadRetry`]
    ReadRetry = 8,
    /// [`TraceEvent::UncorrectableRead`]
    UncorrectableRead = 9,
    /// [`TraceEvent::DeviceDied`]
    DeviceDied = 10,
    /// [`TraceEvent::FleetDeviceDied`]
    FleetDeviceDied = 11,
    /// [`TraceEvent::ChunkReReplicated`]
    ChunkReReplicated = 12,
    /// [`TraceEvent::ChunkLost`]
    ChunkLost = 13,
    /// [`TraceEvent::FleetRollup`] (format v2)
    FleetRollup = 14,
    /// [`TraceEvent::LatencyRollup`] (format v3)
    LatencyRollup = 15,
    /// [`TraceEvent::ClusterRollup`] (format v4)
    ClusterRollup = 16,
}

impl EventKind {
    /// The kind of an event.
    pub fn of(event: &TraceEvent) -> EventKind {
        match event {
            TraceEvent::RunMarker { .. } => EventKind::RunMarker,
            TraceEvent::PageTired { .. } => EventKind::PageTired,
            TraceEvent::PageRetired { .. } => EventKind::PageRetired,
            TraceEvent::MdiskDecommissioned { .. } => EventKind::MdiskDecommissioned,
            TraceEvent::MdiskPurged { .. } => EventKind::MdiskPurged,
            TraceEvent::MdiskRegenerated { .. } => EventKind::MdiskRegenerated,
            TraceEvent::GcPass { .. } => EventKind::GcPass,
            TraceEvent::ScrubRefresh { .. } => EventKind::ScrubRefresh,
            TraceEvent::ReadRetry { .. } => EventKind::ReadRetry,
            TraceEvent::UncorrectableRead { .. } => EventKind::UncorrectableRead,
            TraceEvent::DeviceDied { .. } => EventKind::DeviceDied,
            TraceEvent::FleetDeviceDied { .. } => EventKind::FleetDeviceDied,
            TraceEvent::ChunkReReplicated { .. } => EventKind::ChunkReReplicated,
            TraceEvent::ChunkLost { .. } => EventKind::ChunkLost,
            TraceEvent::FleetRollup(_) => EventKind::FleetRollup,
            TraceEvent::LatencyRollup(_) => EventKind::LatencyRollup,
            TraceEvent::ClusterRollup(_) => EventKind::ClusterRollup,
        }
    }

    /// This kind's bit in a [`ChunkSummary::kind_mask`].
    pub fn bit(self) -> u32 {
        1u32 << (self as u8)
    }

    /// A mask covering several kinds.
    pub fn mask(kinds: &[EventKind]) -> u32 {
        kinds.iter().fold(0, |m, k| m | k.bit())
    }
}

/// The id an event concerns (minidisk, fleet device, or diFS chunk),
/// if it carries one — the input to the per-chunk id bloom filter.
fn event_id(event: &TraceEvent) -> Option<u64> {
    match event {
        TraceEvent::MdiskDecommissioned { id, .. }
        | TraceEvent::MdiskPurged { id }
        | TraceEvent::MdiskRegenerated { id, .. } => Some(*id as u64),
        TraceEvent::ReadRetry { mdisk, .. } | TraceEvent::UncorrectableRead { mdisk, .. } => {
            Some(*mdisk as u64)
        }
        TraceEvent::FleetDeviceDied { device, .. } => Some(*device as u64),
        TraceEvent::ChunkReReplicated { chunk, .. } | TraceEvent::ChunkLost { chunk } => {
            Some(*chunk)
        }
        _ => None,
    }
}

/// What a reader can know about a chunk without decoding it. ~220
/// bytes per ~4K records — the whole index of a million-record trace
/// is a few dozen KB.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkSummary {
    /// Byte offset of the chunk's length prefix from file start.
    pub offset: u64,
    /// Payload length in bytes (not counting the prefix).
    pub byte_len: u32,
    /// Records in the chunk.
    pub records: u32,
    /// Stamp of the first record.
    pub first: SimTime,
    /// Stamp of the last record.
    pub last: SimTime,
    /// OR of [`EventKind::bit`] over every record. On disk this is a
    /// u16 through format v3 and a u32 from v4 (kind 16 overflows 16
    /// bits); in memory it is always the wide form.
    pub kind_mask: u32,
    /// 64-bit bloom of `id % 64` over every id-bearing event. A query
    /// for id `i` may skip any chunk whose bloom lacks bit `i % 64`
    /// (false positives possible, false negatives not).
    pub id_bloom: u64,
    /// Per-kind record counts, indexed by `EventKind as u8`.
    pub counts: [u32; EVENT_KINDS],
    /// `PageTired` transition counts, indexed `from * 5 + to`.
    pub transitions: [u32; 25],
    /// Sum of `GcPass::relocated`.
    pub gc_relocated: u64,
    /// Sum of `ChunkReReplicated::bytes`.
    pub rerep_bytes: u64,
}

impl ChunkSummary {
    /// Fold one record into the summary (offset/byte_len untouched).
    pub fn absorb(&mut self, rec: &TraceRecord) {
        if self.records == 0 {
            self.first = rec.time;
        }
        self.last = rec.time;
        self.records += 1;
        let kind = EventKind::of(&rec.event);
        self.kind_mask |= kind.bit();
        self.counts[kind as u8 as usize] += 1;
        if let Some(id) = event_id(&rec.event) {
            self.id_bloom |= 1u64 << (id % 64);
        }
        match &rec.event {
            TraceEvent::PageTired { from, to, .. } => {
                let from = (*from).min(4) as usize;
                let to = (*to).min(4) as usize;
                self.transitions[from * 5 + to] += 1;
            }
            // Saturating: summaries are advisory aggregates and must
            // never panic on adversarial (or corrupt) magnitudes.
            TraceEvent::GcPass { relocated, .. } => {
                self.gc_relocated = self.gc_relocated.saturating_add(*relocated);
            }
            TraceEvent::ChunkReReplicated { bytes, .. } => {
                self.rerep_bytes = self.rerep_bytes.saturating_add(*bytes);
            }
            _ => {}
        }
    }

    /// Whether the chunk can contain an event of one of `kinds`.
    pub fn may_contain_kinds(&self, kinds_mask: u32) -> bool {
        self.kind_mask & kinds_mask != 0
    }

    /// Whether the chunk can contain an event concerning `id`.
    pub fn may_concern(&self, id: u64) -> bool {
        self.id_bloom & (1u64 << (id % 64)) != 0
    }

    /// Count of one event kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as u8 as usize] as u64
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.byte_len.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.first.day.to_le_bytes());
        out.extend_from_slice(&self.first.op.to_le_bytes());
        out.extend_from_slice(&self.last.day.to_le_bytes());
        out.extend_from_slice(&self.last.op.to_le_bytes());
        out.extend_from_slice(&self.kind_mask.to_le_bytes());
        out.extend_from_slice(&self.id_bloom.to_le_bytes());
        for c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for t in &self.transitions {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&self.gc_relocated.to_le_bytes());
        out.extend_from_slice(&self.rerep_bytes.to_le_bytes());
    }

    fn decode(cur: &mut Cursor<'_>, version: u32) -> Result<ChunkSummary, StrcError> {
        let mut s = ChunkSummary {
            offset: cur.u64()?,
            byte_len: cur.u32()?,
            records: cur.u32()?,
            first: SimTime::new(cur.u32()?, cur.u64()?),
            ..ChunkSummary::default()
        };
        s.last = SimTime::new(cur.u32()?, cur.u64()?);
        // The kind mask widened to u32 in v4 (kind 16 overflows u16);
        // older masks zero-extend, which is exact.
        s.kind_mask = if version >= 4 {
            cur.u32()?
        } else {
            cur.u16()? as u32
        };
        s.id_bloom = cur.u64()?;
        // Older footers carry fewer count slots (v1 predates
        // FleetRollup, v2 predates LatencyRollup, v3 predates
        // ClusterRollup); the missing slots stay zero, which is exact —
        // those files cannot contain the kinds.
        let kinds = match version {
            1 => EVENT_KINDS_V1,
            2 => EVENT_KINDS_V2,
            3 => EVENT_KINDS_V3,
            _ => EVENT_KINDS,
        };
        for c in &mut s.counts[..kinds] {
            *c = cur.u32()?;
        }
        for t in &mut s.transitions {
            *t = cur.u32()?;
        }
        s.gc_relocated = cur.u64()?;
        s.rerep_bytes = cur.u64()?;
        Ok(s)
    }
}

/// Summarize a record slice as one chunk (offset/byte_len zero).
pub fn summarize(records: &[TraceRecord]) -> ChunkSummary {
    let mut s = ChunkSummary::default();
    for r in records {
        s.absorb(r);
    }
    s
}

/// Why a `.strc` operation failed: I/O, a structural problem at a
/// known byte offset, or a record the format cannot hold.
#[derive(Debug)]
pub enum StrcError {
    /// The underlying I/O failed.
    Io(std::io::Error),
    /// The bytes are not a valid `.strc` stream.
    Corrupt {
        /// Byte offset (best effort) of the problem.
        offset: u64,
        /// What the decoder objected to.
        reason: String,
    },
    /// A record field is longer than its u16 length prefix can say;
    /// the writer refuses the record rather than truncate it.
    TooLong {
        /// Which field overflowed.
        field: &'static str,
        /// Its length, in elements (bytes for a label).
        len: usize,
    },
}

impl StrcError {
    fn corrupt(offset: u64, reason: impl Into<String>) -> StrcError {
        StrcError::Corrupt {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrcError::Io(e) => write!(f, "i/o error: {e}"),
            StrcError::Corrupt { offset, reason } => {
                write!(f, "corrupt .strc at byte {offset}: {reason}")
            }
            StrcError::TooLong { field, len } => write!(
                f,
                "cannot encode {field}: length {len} exceeds the format's limit of {}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for StrcError {}

impl From<std::io::Error> for StrcError {
    fn from(e: std::io::Error) -> Self {
        StrcError::Io(e)
    }
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`, for error reporting.
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        Cursor { buf, pos: 0, base }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StrcError> {
        if self.pos + n > self.buf.len() {
            return Err(StrcError::corrupt(
                self.base + self.pos as u64,
                format!(
                    "truncated: wanted {n} bytes, {} left",
                    self.buf.len() - self.pos
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StrcError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StrcError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StrcError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StrcError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Write `field`'s u16 length prefix, refusing a length that does not
/// fit.
fn encode_len(field: &'static str, len: usize, out: &mut Vec<u8>) -> Result<(), StrcError> {
    let n = u16::try_from(len).map_err(|_| StrcError::TooLong { field, len })?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn encode_event(event: &TraceEvent, out: &mut Vec<u8>) -> Result<(), StrcError> {
    out.push(EventKind::of(event) as u8);
    match event {
        TraceEvent::RunMarker { label } => {
            encode_len("RunMarker label", label.len(), out)?;
            out.extend_from_slice(label.as_bytes());
        }
        TraceEvent::PageTired { fpage, from, to } => {
            out.extend_from_slice(&fpage.to_le_bytes());
            out.push(*from);
            out.push(*to);
        }
        TraceEvent::PageRetired { fpage, from } => {
            out.extend_from_slice(&fpage.to_le_bytes());
            out.push(*from);
        }
        TraceEvent::MdiskDecommissioned {
            id,
            valid_lbas,
            draining,
            cause,
        } => {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&valid_lbas.to_le_bytes());
            out.push(u8::from(*draining));
            out.push(match cause {
                DecommissionCause::LevelShortfall => 0,
                DecommissionCause::GcHeadroom => 1,
            });
        }
        TraceEvent::MdiskPurged { id } => out.extend_from_slice(&id.to_le_bytes()),
        TraceEvent::MdiskRegenerated { id, level } => {
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*level);
        }
        TraceEvent::GcPass { block, relocated } => {
            out.extend_from_slice(&block.to_le_bytes());
            out.extend_from_slice(&relocated.to_le_bytes());
        }
        TraceEvent::ScrubRefresh { fpage, opages } => {
            out.extend_from_slice(&fpage.to_le_bytes());
            out.extend_from_slice(&opages.to_le_bytes());
        }
        TraceEvent::ReadRetry { mdisk, retries } => {
            out.extend_from_slice(&mdisk.to_le_bytes());
            out.extend_from_slice(&retries.to_le_bytes());
        }
        TraceEvent::UncorrectableRead { mdisk, lba } => {
            out.extend_from_slice(&mdisk.to_le_bytes());
            out.extend_from_slice(&lba.to_le_bytes());
        }
        TraceEvent::DeviceDied { cause } => out.push(death_code(*cause)),
        TraceEvent::FleetDeviceDied { device, cause } => {
            out.extend_from_slice(&device.to_le_bytes());
            out.push(death_code(*cause));
        }
        TraceEvent::ChunkReReplicated { chunk, bytes } => {
            out.extend_from_slice(&chunk.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        TraceEvent::ChunkLost { chunk } => out.extend_from_slice(&chunk.to_le_bytes()),
        TraceEvent::FleetRollup(r) => {
            out.extend_from_slice(&r.day.to_le_bytes());
            out.extend_from_slice(&r.alive.to_le_bytes());
            out.extend_from_slice(&r.dead_wear.to_le_bytes());
            out.extend_from_slice(&r.dead_afr.to_le_bytes());
            out.extend_from_slice(&r.dying.to_le_bytes());
            out.extend_from_slice(&r.capacity_opages.to_le_bytes());
            for dist in [&r.wear, &r.pec, &r.usable, &r.health] {
                encode_u32_vec(dist, out)?;
            }
        }
        TraceEvent::LatencyRollup(r) => {
            out.extend_from_slice(&r.day.to_le_bytes());
            encode_len("LatencyRollup classes", r.classes.len(), out)?;
            for c in &r.classes {
                out.extend_from_slice(&c.count.to_le_bytes());
                out.extend_from_slice(&c.total_ns.to_le_bytes());
                encode_u64_vec(&c.bins, out)?;
            }
        }
        TraceEvent::ClusterRollup(r) => {
            out.extend_from_slice(&r.day.to_le_bytes());
            for scalar in [
                r.full,
                r.degraded,
                r.critical,
                r.lost,
                r.backlog_chunks,
                r.backlog_bytes,
                r.repair_bytes,
                r.drain_bytes,
                r.data_at_risk,
                r.exposure_windows,
            ] {
                out.extend_from_slice(&scalar.to_le_bytes());
            }
            encode_u32_vec(&r.fullness, out)?;
            encode_u64_vec(&r.exposure, out)?;
        }
    }
    Ok(())
}

fn encode_u32_vec(v: &[u32], out: &mut Vec<u8>) -> Result<(), StrcError> {
    encode_len("histogram", v.len(), out)?;
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Ok(())
}

/// A u16-length vector; with `build` false the bytes are only stepped
/// over and the vector stays empty (no allocation).
fn decode_u32_vec(cur: &mut Cursor<'_>, build: bool) -> Result<Vec<u32>, StrcError> {
    let len = cur.u16()? as usize;
    let bytes = cur.take(len * 4)?;
    Ok(if build {
        bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect()
    } else {
        Vec::new()
    })
}

fn encode_u64_vec(v: &[u64], out: &mut Vec<u8>) -> Result<(), StrcError> {
    encode_len("histogram", v.len(), out)?;
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Ok(())
}

/// [`decode_u32_vec`] for u64 elements.
fn decode_u64_vec(cur: &mut Cursor<'_>, build: bool) -> Result<Vec<u64>, StrcError> {
    let len = cur.u16()? as usize;
    let bytes = cur.take(len * 8)?;
    Ok(if build {
        bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect()
    } else {
        Vec::new()
    })
}

fn death_code(cause: DeathCause) -> u8 {
    match cause {
        DeathCause::Brick => 0,
        DeathCause::FullyShrunk => 1,
        DeathCause::Wear => 2,
        DeathCause::Afr => 3,
    }
}

fn decode_death(code: u8, at: u64) -> Result<DeathCause, StrcError> {
    Ok(match code {
        0 => DeathCause::Brick,
        1 => DeathCause::FullyShrunk,
        2 => DeathCause::Wear,
        3 => DeathCause::Afr,
        n => return Err(StrcError::corrupt(at, format!("bad death cause {n}"))),
    })
}

/// Decode one event. Kinds outside `mask` are validated exactly as
/// strictly but never built in full: their heap payloads (marker
/// label, rollup histograms) stay empty, so stepping over them
/// allocates nothing while every scalar a [`ChunkSummary`] folds —
/// time, kind, id, transition, relocated and re-replicated bytes — is
/// still read.
fn decode_event(cur: &mut Cursor<'_>, mask: u32) -> Result<TraceEvent, StrcError> {
    let at = cur.base + cur.pos as u64;
    let kind = cur.u8()?;
    let build = mask.checked_shr(kind.into()).is_some_and(|m| m & 1 == 1);
    Ok(match kind {
        0 => {
            let len = cur.u16()? as usize;
            let label = std::str::from_utf8(cur.take(len)?)
                .map_err(|e| StrcError::corrupt(at, format!("bad marker label: {e}")))?;
            TraceEvent::RunMarker {
                label: if build {
                    label.to_owned()
                } else {
                    String::new()
                },
            }
        }
        1 => TraceEvent::PageTired {
            fpage: cur.u64()?,
            from: cur.u8()?,
            to: cur.u8()?,
        },
        2 => TraceEvent::PageRetired {
            fpage: cur.u64()?,
            from: cur.u8()?,
        },
        3 => TraceEvent::MdiskDecommissioned {
            id: cur.u32()?,
            valid_lbas: cur.u32()?,
            draining: cur.u8()? != 0,
            cause: match cur.u8()? {
                0 => DecommissionCause::LevelShortfall,
                1 => DecommissionCause::GcHeadroom,
                n => {
                    return Err(StrcError::corrupt(
                        at,
                        format!("bad decommission cause {n}"),
                    ));
                }
            },
        },
        4 => TraceEvent::MdiskPurged { id: cur.u32()? },
        5 => TraceEvent::MdiskRegenerated {
            id: cur.u32()?,
            level: cur.u8()?,
        },
        6 => TraceEvent::GcPass {
            block: cur.u64()?,
            relocated: cur.u64()?,
        },
        7 => TraceEvent::ScrubRefresh {
            fpage: cur.u64()?,
            opages: cur.u32()?,
        },
        8 => TraceEvent::ReadRetry {
            mdisk: cur.u32()?,
            retries: cur.u32()?,
        },
        9 => TraceEvent::UncorrectableRead {
            mdisk: cur.u32()?,
            lba: cur.u32()?,
        },
        10 => TraceEvent::DeviceDied {
            cause: decode_death(cur.u8()?, at)?,
        },
        11 => TraceEvent::FleetDeviceDied {
            device: cur.u32()?,
            cause: decode_death(cur.u8()?, at)?,
        },
        12 => TraceEvent::ChunkReReplicated {
            chunk: cur.u64()?,
            bytes: cur.u64()?,
        },
        13 => TraceEvent::ChunkLost { chunk: cur.u64()? },
        14 => TraceEvent::FleetRollup(crate::rollup::FleetRollup {
            day: cur.u32()?,
            alive: cur.u32()?,
            dead_wear: cur.u32()?,
            dead_afr: cur.u32()?,
            dying: cur.u32()?,
            capacity_opages: cur.u64()?,
            wear: decode_u32_vec(cur, build)?,
            pec: decode_u32_vec(cur, build)?,
            usable: decode_u32_vec(cur, build)?,
            health: decode_u32_vec(cur, build)?,
        }),
        15 => {
            let day = cur.u32()?;
            let classes = cur.u16()? as usize;
            let mut out = Vec::new();
            for _ in 0..classes {
                let class = crate::latency::ClassLatency {
                    count: cur.u64()?,
                    total_ns: cur.u64()?,
                    bins: decode_u64_vec(cur, build)?,
                };
                if build {
                    out.push(class);
                }
            }
            TraceEvent::LatencyRollup(crate::latency::LatencyRollup { day, classes: out })
        }
        16 => TraceEvent::ClusterRollup(crate::cluster::ClusterRollup {
            day: cur.u32()?,
            full: cur.u64()?,
            degraded: cur.u64()?,
            critical: cur.u64()?,
            lost: cur.u64()?,
            backlog_chunks: cur.u64()?,
            backlog_bytes: cur.u64()?,
            repair_bytes: cur.u64()?,
            drain_bytes: cur.u64()?,
            data_at_risk: cur.u64()?,
            exposure_windows: cur.u64()?,
            fullness: decode_u32_vec(cur, build)?,
            exposure: decode_u64_vec(cur, build)?,
        }),
        n => return Err(StrcError::corrupt(at, format!("unknown event kind {n}"))),
    })
}

/// Encode one record onto `out`. A record the format cannot hold is a
/// [`StrcError::TooLong`], with `out` left as it was.
pub fn encode_record(rec: &TraceRecord, out: &mut Vec<u8>) -> Result<(), StrcError> {
    let mark = out.len();
    out.extend_from_slice(&rec.seq.to_le_bytes());
    out.extend_from_slice(&rec.time.day.to_le_bytes());
    out.extend_from_slice(&rec.time.op.to_le_bytes());
    encode_event(&rec.event, out).inspect_err(|_| out.truncate(mark))
}

fn decode_record(cur: &mut Cursor<'_>, mask: u32) -> Result<TraceRecord, StrcError> {
    Ok(TraceRecord {
        seq: cur.u64()?,
        time: SimTime::new(cur.u32()?, cur.u64()?),
        event: decode_event(cur, mask)?,
    })
}

/// A chunk decoded under a kind mask: the records of the mask's kinds,
/// in emission order, and in place of each run of other records one
/// gap summary — exactly [`summarize`] of the run. Derefs to the built
/// records; [`ChunkRecords::parts`] interleaves the gaps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChunkRecords {
    records: Vec<TraceRecord>,
    /// `(i, gap)`: `gap` stands for the records elided just before
    /// `records[i]` (`i == records.len()`: after the last one).
    gaps: Vec<(usize, ChunkSummary)>,
}

/// One piece of a [`ChunkRecords`], in emission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkPart<'a> {
    /// A built record.
    Record(&'a TraceRecord),
    /// A run of records outside the mask, folded into its summary.
    Gap(&'a ChunkSummary),
}

impl ChunkPart<'_> {
    /// Records this part stands for.
    pub fn records(&self) -> u64 {
        match self {
            ChunkPart::Record(_) => 1,
            ChunkPart::Gap(s) => u64::from(s.records),
        }
    }
}

impl ChunkRecords {
    /// Records and gaps interleaved in emission order.
    pub fn parts(&self) -> impl Iterator<Item = ChunkPart<'_>> + '_ {
        let (mut r, mut g) = (0, 0);
        std::iter::from_fn(move || {
            if let Some((at, gap)) = self.gaps.get(g) {
                if *at == r {
                    g += 1;
                    return Some(ChunkPart::Gap(gap));
                }
            }
            let rec = self.records.get(r)?;
            r += 1;
            Some(ChunkPart::Record(rec))
        })
    }

    /// Records the chunk holds: built ones plus those the gaps stand for.
    pub fn record_count(&self) -> u64 {
        let elided: u64 = self.gaps.iter().map(|(_, g)| u64::from(g.records)).sum();
        self.records.len() as u64 + elided
    }

    /// The built records alone.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl std::ops::Deref for ChunkRecords {
    type Target = [TraceRecord];

    fn deref(&self) -> &[TraceRecord] {
        &self.records
    }
}

/// Walk a chunk payload: build the records whose kind is in `mask` and
/// fold each run of other records into one gap summary. Every record is
/// validated alike, so the walk fails exactly when a full decode
/// ([`ALL_KINDS`]) would; nothing is pre-sized from the payload.
pub fn decode_chunk(
    payload: &[u8],
    file_offset: u64,
    mask: u32,
) -> Result<ChunkRecords, StrcError> {
    let mut cur = Cursor::new(payload, file_offset);
    let mut out = ChunkRecords::default();
    let mut gap = ChunkSummary::default();
    while !cur.done() {
        let rec = decode_record(&mut cur, mask)?;
        if EventKind::of(&rec.event).bit() & mask == 0 {
            gap.absorb(&rec);
            continue;
        }
        if gap.records > 0 {
            out.gaps.push((out.records.len(), std::mem::take(&mut gap)));
        }
        out.records.push(rec);
    }
    if gap.records > 0 {
        out.gaps.push((out.records.len(), gap));
    }
    Ok(out)
}

/// Streaming `.strc` writer: push records, get chunking, summaries,
/// and the footer index on [`StrcWriter::finish`]. Each record is
/// encoded as it is pushed, so one the format cannot hold is refused
/// right there and never reaches the file.
pub struct StrcWriter<W: Write> {
    out: W,
    chunk_records: usize,
    /// Summary of the open chunk's records.
    summary: ChunkSummary,
    summaries: Vec<ChunkSummary>,
    /// Bytes written so far (header + finished chunks).
    written: u64,
    /// Encoded payload of the open chunk.
    scratch: Vec<u8>,
}

impl<W: Write> StrcWriter<W> {
    /// Start a `.strc` stream on `out` (writes the header eagerly).
    pub fn new(mut out: W, chunk_records: usize) -> Result<Self, StrcError> {
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(StrcWriter {
            out,
            chunk_records: chunk_records.max(1),
            summary: ChunkSummary::default(),
            summaries: Vec::new(),
            written: 8,
            scratch: Vec::new(),
        })
    }

    /// Append one record. A record with a field the format cannot hold
    /// is refused with [`StrcError::TooLong`] and leaves the stream as
    /// it was.
    pub fn push(&mut self, rec: &TraceRecord) -> Result<(), StrcError> {
        encode_record(rec, &mut self.scratch)?;
        self.summary.absorb(rec);
        if self.summary.records as usize >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Bytes committed to the stream so far (buffered records excluded).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    fn flush_chunk(&mut self) -> Result<(), StrcError> {
        if self.summary.records == 0 {
            return Ok(());
        }
        let mut summary = std::mem::take(&mut self.summary);
        summary.offset = self.written;
        summary.byte_len = self.scratch.len() as u32;
        self.out
            .write_all(&(self.scratch.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.scratch)?;
        self.written += 4 + self.scratch.len() as u64;
        self.summaries.push(summary);
        self.scratch.clear();
        Ok(())
    }

    /// Flush the tail chunk, write the footer index, and return the
    /// underlying writer.
    pub fn finish(mut self) -> Result<W, StrcError> {
        self.flush_chunk()?;
        let mut footer = Vec::new();
        footer.extend_from_slice(&(self.summaries.len() as u32).to_le_bytes());
        for s in &self.summaries {
            s.encode(&mut footer);
        }
        let footer_len = footer.len() as u32;
        self.out.write_all(&footer)?;
        self.out.write_all(&footer_len.to_le_bytes())?;
        self.out.write_all(FOOTER_MAGIC)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Indexed `.strc` reader: the footer summaries up front, chunk
/// decoding on demand, and counters recording how much of the file a
/// query actually touched.
#[derive(Debug)]
pub struct StrcReader {
    file: File,
    summaries: Vec<ChunkSummary>,
    /// Offset of the footer: every chunk must end at or before it.
    data_end: u64,
    /// Payload buffer, reused across chunk reads.
    buf: Vec<u8>,
    /// Chunks decoded so far (queries use this to prove index skips).
    pub chunks_decoded: u64,
}

impl StrcReader {
    /// Open a `.strc` file and parse its footer index.
    pub fn open(path: &Path) -> Result<StrcReader, StrcError> {
        let mut file = File::open(path)?;
        let total = file.seek(SeekFrom::End(0))?;
        if total < 16 {
            return Err(StrcError::corrupt(0, "file too short for header + footer"));
        }
        let mut head = [0u8; 8];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head[..4] != MAGIC {
            return Err(StrcError::corrupt(0, "bad magic (not a .strc file)"));
        }
        let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if version == 0 || version > VERSION {
            return Err(StrcError::corrupt(
                4,
                format!("unsupported version {version}"),
            ));
        }
        let mut tail = [0u8; 8];
        file.seek(SeekFrom::Start(total - 8))?;
        file.read_exact(&mut tail)?;
        if &tail[4..8] != FOOTER_MAGIC {
            return Err(StrcError::corrupt(
                total - 4,
                "bad footer magic (truncated file?)",
            ));
        }
        let footer_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
        if footer_len + 16 > total {
            return Err(StrcError::corrupt(total - 8, "footer length exceeds file"));
        }
        let footer_start = total - 8 - footer_len;
        file.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        let mut cur = Cursor::new(&footer, footer_start);
        let count = cur.u32()? as usize;
        let mut summaries = Vec::with_capacity(count.min(cur.remaining() / MIN_SUMMARY_BYTES));
        for _ in 0..count {
            summaries.push(ChunkSummary::decode(&mut cur, version)?);
        }
        if !cur.done() {
            return Err(StrcError::corrupt(
                footer_start + cur.pos as u64,
                "trailing bytes in footer index",
            ));
        }
        Ok(StrcReader {
            file,
            summaries,
            data_end: footer_start,
            buf: Vec::new(),
            chunks_decoded: 0,
        })
    }

    /// The footer index.
    pub fn summaries(&self) -> &[ChunkSummary] {
        &self.summaries
    }

    /// Number of chunks in the file.
    pub fn chunk_count(&self) -> usize {
        self.summaries.len()
    }

    /// Total records across all chunks (from the index alone).
    pub fn record_count(&self) -> u64 {
        self.summaries.iter().map(|s| s.records as u64).sum()
    }

    /// Decode chunk `i`, building only records whose kind is in `mask`
    /// (see [`decode_chunk`]).
    pub fn read_chunk_kinds(&mut self, i: usize, mask: u32) -> Result<ChunkRecords, StrcError> {
        let (offset, byte_len, records) = {
            let s = &self.summaries[i];
            (s.offset, s.byte_len, s.records)
        };
        if offset.saturating_add(4 + u64::from(byte_len)) > self.data_end {
            return Err(StrcError::corrupt(offset, "chunk extends into the footer"));
        }
        self.file.seek(SeekFrom::Start(offset))?;
        let mut len = [0u8; 4];
        self.file.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if len != byte_len {
            return Err(StrcError::corrupt(
                offset,
                format!("chunk length {len} disagrees with index {byte_len}"),
            ));
        }
        self.buf.resize(len as usize, 0);
        self.file.read_exact(&mut self.buf)?;
        self.chunks_decoded += 1;
        let chunk = decode_chunk(&self.buf, offset + 4, mask)?;
        if chunk.record_count() != u64::from(records) {
            return Err(StrcError::corrupt(
                offset,
                format!(
                    "chunk has {} records, index says {records}",
                    chunk.record_count()
                ),
            ));
        }
        Ok(chunk)
    }

    /// Decode chunk `i` in full.
    pub fn read_chunk(&mut self, i: usize) -> Result<Vec<TraceRecord>, StrcError> {
        Ok(self.read_chunk_kinds(i, ALL_KINDS)?.into_records())
    }

    /// Decode every chunk in order.
    pub fn read_all(&mut self) -> Result<Vec<TraceRecord>, StrcError> {
        let cap = (self.record_count() as usize).min(self.data_end as usize / MIN_RECORD_BYTES);
        let mut out = Vec::with_capacity(cap);
        for i in 0..self.summaries.len() {
            out.extend(self.read_chunk(i)?);
        }
        Ok(out)
    }
}

/// Write `records` to `path` as a single `.strc` file.
pub fn write_strc(
    path: &Path,
    records: &[TraceRecord],
    chunk_records: usize,
) -> Result<(), StrcError> {
    let file = File::create(path)?;
    let mut w = StrcWriter::new(std::io::BufWriter::new(file), chunk_records)?;
    for rec in records {
        w.push(rec)?;
    }
    w.finish()?;
    Ok(())
}

/// Read every record of a `.strc` file.
pub fn read_strc(path: &Path) -> Result<Vec<TraceRecord>, StrcError> {
    StrcReader::open(path)?.read_all()
}

/// Size-rotating `.strc` writer for multi-GB fleet traces: records go
/// to `<stem>.0001.strc`, and whenever a finished chunk pushes the
/// current file past `max_bytes` the writer seals it (footer included)
/// and opens `<stem>.0002.strc`, and so on. Every rotated file is a
/// complete, independently readable `.strc`.
pub struct RotatingStrcWriter {
    stem: PathBuf,
    max_bytes: u64,
    chunk_records: usize,
    current: Option<StrcWriter<std::io::BufWriter<File>>>,
    index: u32,
    paths: Vec<PathBuf>,
}

impl RotatingStrcWriter {
    /// Rotate over `<stem>.NNNN.strc` files of at most ~`max_bytes`
    /// each (the limit is checked at chunk granularity, so files exceed
    /// it by at most one chunk).
    pub fn new(stem: impl Into<PathBuf>, max_bytes: u64, chunk_records: usize) -> Self {
        RotatingStrcWriter {
            stem: stem.into(),
            max_bytes: max_bytes.max(1),
            chunk_records: chunk_records.max(1),
            current: None,
            index: 0,
            paths: Vec::new(),
        }
    }

    fn file_path(&self, index: u32) -> PathBuf {
        let stem = self.stem.display();
        PathBuf::from(format!("{stem}.{index:04}.strc"))
    }

    /// Append one record, rotating first if the current file is full.
    pub fn push(&mut self, rec: &TraceRecord) -> Result<(), StrcError> {
        if let Some(w) = &self.current {
            if w.bytes_written() >= self.max_bytes {
                self.rotate()?;
            }
        }
        if self.current.is_none() {
            self.index += 1;
            let path = self.file_path(self.index);
            let file = File::create(&path)?;
            self.paths.push(path);
            self.current = Some(StrcWriter::new(
                std::io::BufWriter::new(file),
                self.chunk_records,
            )?);
        }
        self.current.as_mut().expect("writer open").push(rec)
    }

    fn rotate(&mut self) -> Result<(), StrcError> {
        if let Some(w) = self.current.take() {
            w.finish()?;
        }
        Ok(())
    }

    /// Seal the current file and return every path written, in order.
    pub fn finish(mut self) -> Result<Vec<PathBuf>, StrcError> {
        self.rotate()?;
        Ok(self.paths)
    }
}

/// Convert between trace formats by file extension: `.strc` ↔ anything
/// else (treated as JSONL). Returns the number of records moved.
pub fn convert_file(input: &Path, output: &Path) -> Result<u64, ConvertError> {
    let in_strc = input.extension().is_some_and(|e| e == "strc");
    let out_strc = output.extension().is_some_and(|e| e == "strc");
    let records = if in_strc {
        read_strc(input).map_err(ConvertError::Strc)?
    } else {
        let text = std::fs::read_to_string(input).map_err(|e| ConvertError::Strc(e.into()))?;
        crate::trace::parse_jsonl(&text).map_err(ConvertError::Jsonl)?
    };
    if out_strc {
        write_strc(output, &records, DEFAULT_CHUNK_RECORDS).map_err(ConvertError::Strc)?;
    } else {
        std::fs::write(output, crate::trace::to_jsonl(&records))
            .map_err(|e| ConvertError::Strc(e.into()))?;
    }
    Ok(records.len() as u64)
}

/// A [`convert_file`] failure: either side's parse/IO error.
#[derive(Debug)]
pub enum ConvertError {
    /// The `.strc` side (or plain I/O) failed.
    Strc(StrcError),
    /// The JSONL side failed to parse.
    Jsonl(crate::trace::ParseError),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Strc(e) => write!(f, "{e}"),
            ConvertError::Jsonl(e) => write!(f, "invalid JSONL trace: {e}"),
        }
    }
}

impl std::error::Error for ConvertError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DeathCause, DecommissionCause};

    fn sample_records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                seq: i,
                time: SimTime::new((i / 10) as u32, i),
                event: match i % 7 {
                    0 => TraceEvent::PageTired {
                        fpage: i,
                        from: (i % 4) as u8,
                        to: (i % 4) as u8 + 1,
                    },
                    1 => TraceEvent::GcPass {
                        block: i,
                        relocated: i * 3,
                    },
                    2 => TraceEvent::ReadRetry {
                        mdisk: (i % 5) as u32,
                        retries: 2,
                    },
                    3 => TraceEvent::ScrubRefresh {
                        fpage: i,
                        opages: 4,
                    },
                    4 => TraceEvent::MdiskDecommissioned {
                        id: (i % 5) as u32,
                        valid_lbas: 10,
                        draining: i % 2 == 0,
                        cause: DecommissionCause::GcHeadroom,
                    },
                    5 => TraceEvent::FleetDeviceDied {
                        device: (i % 9) as u32,
                        cause: DeathCause::Afr,
                    },
                    _ => TraceEvent::ChunkReReplicated {
                        chunk: i,
                        bytes: 4096,
                    },
                },
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("salamander-strc-{}-{name}", std::process::id()))
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty.strc");
        write_strc(&path, &[], 8).unwrap();
        let back = read_strc(&path).unwrap();
        assert!(back.is_empty());
        let r = StrcReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_round_trip_across_chunk_boundaries() {
        // 25 records at 8/chunk: 3 full chunks + 1 single-record chunk.
        let records = sample_records(25);
        let path = tmp("chunks.strc");
        write_strc(&path, &records, 8).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(r.chunk_count(), 4);
        assert_eq!(r.record_count(), 25);
        assert_eq!(r.summaries()[3].records, 1, "tail chunk holds 1 record");
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summaries_describe_their_chunks() {
        let records = sample_records(40);
        let path = tmp("summaries.strc");
        write_strc(&path, &records, 10).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        for i in 0..r.chunk_count() {
            let s = r.summaries()[i].clone();
            let recs = r.read_chunk(i).unwrap();
            let expect = summarize(&recs);
            assert_eq!(s.kind_mask, expect.kind_mask);
            assert_eq!(s.counts, expect.counts);
            assert_eq!(s.transitions, expect.transitions);
            assert_eq!(s.id_bloom, expect.id_bloom);
            assert_eq!(s.first, recs.first().unwrap().time);
            assert_eq!(s.last, recs.last().unwrap().time);
            assert_eq!(s.gc_relocated, expect.gc_relocated);
            assert_eq!(s.rerep_bytes, expect.rerep_bytes);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kind_and_id_filters_never_false_negative() {
        let records = sample_records(64);
        let path = tmp("filters.strc");
        write_strc(&path, &records, 16).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        for i in 0..r.chunk_count() {
            let s = r.summaries()[i].clone();
            for rec in r.read_chunk(i).unwrap() {
                assert!(s.may_contain_kinds(EventKind::of(&rec.event).bit()));
                if let Some(id) = event_id(&rec.event) {
                    assert!(s.may_concern(id));
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_splits_and_each_file_reads_alone() {
        let records = sample_records(200);
        let stem = tmp("rot");
        let mut w = RotatingStrcWriter::new(&stem, 700, 8);
        for rec in &records {
            w.push(rec).unwrap();
        }
        let paths = w.finish().unwrap();
        assert!(paths.len() > 1, "expected rotation, got {paths:?}");
        assert!(paths[0].to_string_lossy().ends_with(".0001.strc"));
        let mut back = Vec::new();
        for p in &paths {
            back.extend(read_strc(p).unwrap());
        }
        assert_eq!(back, records);
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn convert_is_lossless_both_ways() {
        let records = sample_records(33);
        let jsonl = tmp("conv.jsonl");
        let strc = tmp("conv.strc");
        let jsonl2 = tmp("conv2.jsonl");
        std::fs::write(&jsonl, crate::trace::to_jsonl(&records)).unwrap();
        assert_eq!(convert_file(&jsonl, &strc).unwrap(), 33);
        assert_eq!(read_strc(&strc).unwrap(), records);
        assert_eq!(convert_file(&strc, &jsonl2).unwrap(), 33);
        assert_eq!(
            std::fs::read(&jsonl).unwrap(),
            std::fs::read(&jsonl2).unwrap(),
            "JSONL → .strc → JSONL is byte-identical"
        );
        for p in [jsonl, strc, jsonl2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn corrupt_files_fail_with_typed_errors() {
        let path = tmp("corrupt.strc");
        std::fs::write(&path, b"JSONL{not strc}xxxxxxxxxxxxxxxx").unwrap();
        match StrcReader::open(&path) {
            Err(StrcError::Corrupt { reason, .. }) => {
                assert!(reason.contains("magic"), "{reason}")
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
        // Truncate a valid file: footer magic check must catch it.
        write_strc(&path, &sample_records(20), 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            StrcReader::open(&path),
            Err(StrcError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A version-1 footer summary: identical to v2 minus the
    /// `FleetRollup` count slot.
    fn encode_summary_v1(s: &ChunkSummary, out: &mut Vec<u8>) {
        out.extend_from_slice(&s.offset.to_le_bytes());
        out.extend_from_slice(&s.byte_len.to_le_bytes());
        out.extend_from_slice(&s.records.to_le_bytes());
        out.extend_from_slice(&s.first.day.to_le_bytes());
        out.extend_from_slice(&s.first.op.to_le_bytes());
        out.extend_from_slice(&s.last.day.to_le_bytes());
        out.extend_from_slice(&s.last.op.to_le_bytes());
        out.extend_from_slice(&(s.kind_mask as u16).to_le_bytes());
        out.extend_from_slice(&s.id_bloom.to_le_bytes());
        for c in &s.counts[..EVENT_KINDS_V1] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for t in &s.transitions {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&s.gc_relocated.to_le_bytes());
        out.extend_from_slice(&s.rerep_bytes.to_le_bytes());
    }

    #[test]
    fn version1_files_still_open() {
        // Hand-build a v1 file: the record encoding of pre-rollup
        // kinds is unchanged, only the footer summary is narrower.
        let records = sample_records(5);
        let mut payload = Vec::new();
        for r in &records {
            encode_record(r, &mut payload).unwrap();
        }
        let mut s = summarize(&records);
        s.offset = 8;
        s.byte_len = payload.len() as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut footer = Vec::new();
        footer.extend_from_slice(&1u32.to_le_bytes());
        encode_summary_v1(&s, &mut footer);
        bytes.extend_from_slice(&footer);
        bytes.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        let path = tmp("v1.strc");
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(r.summaries()[0].counts, s.counts);
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    /// A version-2 footer summary: identical to v3 minus the
    /// `LatencyRollup` count slot.
    fn encode_summary_v2(s: &ChunkSummary, out: &mut Vec<u8>) {
        out.extend_from_slice(&s.offset.to_le_bytes());
        out.extend_from_slice(&s.byte_len.to_le_bytes());
        out.extend_from_slice(&s.records.to_le_bytes());
        out.extend_from_slice(&s.first.day.to_le_bytes());
        out.extend_from_slice(&s.first.op.to_le_bytes());
        out.extend_from_slice(&s.last.day.to_le_bytes());
        out.extend_from_slice(&s.last.op.to_le_bytes());
        out.extend_from_slice(&(s.kind_mask as u16).to_le_bytes());
        out.extend_from_slice(&s.id_bloom.to_le_bytes());
        for c in &s.counts[..EVENT_KINDS_V2] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for t in &s.transitions {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&s.gc_relocated.to_le_bytes());
        out.extend_from_slice(&s.rerep_bytes.to_le_bytes());
    }

    #[test]
    fn version2_files_still_open() {
        // Hand-build a v2 file: record encoding of pre-latency kinds
        // is unchanged, only the footer summary is narrower.
        let records = sample_records(5);
        let mut payload = Vec::new();
        for r in &records {
            encode_record(r, &mut payload).unwrap();
        }
        let mut s = summarize(&records);
        s.offset = 8;
        s.byte_len = payload.len() as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut footer = Vec::new();
        footer.extend_from_slice(&1u32.to_le_bytes());
        encode_summary_v2(&s, &mut footer);
        bytes.extend_from_slice(&footer);
        bytes.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        let path = tmp("v2.strc");
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(r.summaries()[0].counts, s.counts);
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    /// A version-3 footer summary: u16 kind mask and no
    /// `ClusterRollup` count slot.
    fn encode_summary_v3(s: &ChunkSummary, out: &mut Vec<u8>) {
        out.extend_from_slice(&s.offset.to_le_bytes());
        out.extend_from_slice(&s.byte_len.to_le_bytes());
        out.extend_from_slice(&s.records.to_le_bytes());
        out.extend_from_slice(&s.first.day.to_le_bytes());
        out.extend_from_slice(&s.first.op.to_le_bytes());
        out.extend_from_slice(&s.last.day.to_le_bytes());
        out.extend_from_slice(&s.last.op.to_le_bytes());
        out.extend_from_slice(&(s.kind_mask as u16).to_le_bytes());
        out.extend_from_slice(&s.id_bloom.to_le_bytes());
        for c in &s.counts[..EVENT_KINDS_V3] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for t in &s.transitions {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&s.gc_relocated.to_le_bytes());
        out.extend_from_slice(&s.rerep_bytes.to_le_bytes());
    }

    #[test]
    fn version3_files_still_open() {
        // Hand-build a v3 file: record encoding of pre-cluster kinds
        // is unchanged; the footer summary still has a u16 kind mask
        // and one fewer count slot.
        let records = sample_records(5);
        let mut payload = Vec::new();
        for r in &records {
            encode_record(r, &mut payload).unwrap();
        }
        let mut s = summarize(&records);
        s.offset = 8;
        s.byte_len = payload.len() as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut footer = Vec::new();
        footer.extend_from_slice(&1u32.to_le_bytes());
        encode_summary_v3(&s, &mut footer);
        bytes.extend_from_slice(&footer);
        bytes.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bytes.extend_from_slice(FOOTER_MAGIC);
        let path = tmp("v3.strc");
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(r.summaries()[0].counts, s.counts);
        assert_eq!(r.summaries()[0].kind_mask, s.kind_mask);
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cluster_rollups_round_trip_and_index() {
        let mut rollup = crate::cluster::ClusterRollup::empty(77);
        rollup.full = 1000;
        rollup.degraded = 12;
        rollup.critical = 1;
        rollup.lost = 2;
        rollup.backlog_chunks = 13;
        rollup.backlog_bytes = 13 << 18;
        rollup.repair_bytes = 99 << 18;
        rollup.drain_bytes = 44 << 18;
        rollup.data_at_risk = 123_456;
        rollup.fullness[3] = 7;
        rollup.exposure[2] = 40;
        rollup.exposure_windows = 40;
        let mut records = sample_records(10);
        records.push(TraceRecord {
            seq: 10,
            time: SimTime::new(77, 0),
            event: TraceEvent::ClusterRollup(rollup),
        });
        let path = tmp("cluster.strc");
        write_strc(&path, &records, 4).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        let tail = r.summaries().last().unwrap();
        assert!(tail.may_contain_kinds(EventKind::ClusterRollup.bit()));
        assert_eq!(tail.count(EventKind::ClusterRollup), 1);
        assert!(
            !r.summaries()[0].may_contain_kinds(EventKind::ClusterRollup.bit()),
            "head chunks must be skippable for cluster queries"
        );
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latency_rollups_round_trip_and_index() {
        let mut rollup = crate::latency::LatencyRollup::empty(45);
        rollup.classes[0].observe(55_120, 1000);
        rollup.classes[0].observe(71_786, 37);
        rollup.classes[2].observe(3_650_000, 2);
        let mut records = sample_records(10);
        records.push(TraceRecord {
            seq: 10,
            time: SimTime::new(45, 0),
            event: TraceEvent::LatencyRollup(rollup),
        });
        let path = tmp("latency.strc");
        write_strc(&path, &records, 4).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        let tail = r.summaries().last().unwrap();
        assert!(tail.may_contain_kinds(EventKind::LatencyRollup.bit()));
        assert_eq!(tail.count(EventKind::LatencyRollup), 1);
        assert!(
            !r.summaries()[0].may_contain_kinds(EventKind::LatencyRollup.bit()),
            "head chunks must be skippable for latency queries"
        );
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fleet_rollups_round_trip_and_index() {
        let rollup = crate::rollup::FleetRollup {
            day: 30,
            alive: 97,
            dead_wear: 2,
            dead_afr: 1,
            dying: 4,
            capacity_opages: 123_456_789,
            wear: (0..20).collect(),
            pec: vec![5; 20],
            usable: vec![0; 20],
            health: vec![1; 20],
        };
        let mut records = sample_records(10);
        records.push(TraceRecord {
            seq: 10,
            time: SimTime::new(30, 0),
            event: TraceEvent::FleetRollup(rollup),
        });
        let path = tmp("rollup.strc");
        write_strc(&path, &records, 4).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        let tail = r.summaries().last().unwrap();
        assert!(tail.may_contain_kinds(EventKind::FleetRollup.bit()));
        assert_eq!(tail.count(EventKind::FleetRollup), 1);
        assert_eq!(r.read_all().unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    /// One event of every kind, in [`EventKind`] order, each with a
    /// non-empty heap payload where the kind has one.
    fn one_of_each_kind() -> Vec<TraceEvent> {
        let mut latency = crate::latency::LatencyRollup::empty(3);
        latency.classes[0].observe(55_120, 9);
        let mut cluster = crate::cluster::ClusterRollup::empty(3);
        cluster.fullness[2] = 5;
        cluster.exposure[1] = 4;
        vec![
            TraceEvent::RunMarker {
                label: "mode=δ".into(),
            },
            TraceEvent::PageTired {
                fpage: 9,
                from: 1,
                to: 2,
            },
            TraceEvent::PageRetired { fpage: 9, from: 4 },
            TraceEvent::MdiskDecommissioned {
                id: 7,
                valid_lbas: 11,
                draining: true,
                cause: DecommissionCause::LevelShortfall,
            },
            TraceEvent::MdiskPurged { id: 7 },
            TraceEvent::MdiskRegenerated { id: 8, level: 2 },
            TraceEvent::GcPass {
                block: 3,
                relocated: 40,
            },
            TraceEvent::ScrubRefresh {
                fpage: 5,
                opages: 4,
            },
            TraceEvent::ReadRetry {
                mdisk: 7,
                retries: 3,
            },
            TraceEvent::UncorrectableRead { mdisk: 7, lba: 12 },
            TraceEvent::DeviceDied {
                cause: DeathCause::Wear,
            },
            TraceEvent::FleetDeviceDied {
                device: 70,
                cause: DeathCause::Afr,
            },
            TraceEvent::ChunkReReplicated {
                chunk: 99,
                bytes: 1 << 20,
            },
            TraceEvent::ChunkLost { chunk: 100 },
            TraceEvent::FleetRollup(crate::rollup::FleetRollup {
                day: 3,
                alive: 9,
                dead_wear: 1,
                dead_afr: 0,
                dying: 2,
                capacity_opages: 1234,
                wear: vec![1; 20],
                pec: vec![2; 20],
                usable: vec![3; 20],
                health: vec![4; 20],
            }),
            TraceEvent::LatencyRollup(latency),
            TraceEvent::ClusterRollup(cluster),
        ]
    }

    /// Stepping over a record of `kind` consumes exactly the bytes a
    /// full decode consumes, and folds into a summary exactly as the
    /// built record does.
    fn assert_skip_matches_decode(kind: EventKind) {
        let event = one_of_each_kind().swap_remove(kind as usize);
        assert_eq!(EventKind::of(&event), kind);
        let rec = TraceRecord {
            seq: 4,
            time: SimTime::new(3, 77),
            event,
        };
        let mut bytes = Vec::new();
        encode_record(&rec, &mut bytes).unwrap();
        let len = bytes.len();
        // A trailing record: both walks must stop exactly at its start.
        encode_record(&sample_records(1)[0], &mut bytes).unwrap();
        let mut full = Cursor::new(&bytes, 0);
        let built = decode_record(&mut full, ALL_KINDS).unwrap();
        let mut skip = Cursor::new(&bytes, 0);
        let stepped = decode_record(&mut skip, ALL_KINDS & !kind.bit()).unwrap();
        assert_eq!(built, rec);
        assert_eq!(full.pos, len, "full decode of {kind:?}");
        assert_eq!(skip.pos, len, "skip step of {kind:?}");
        assert_eq!(summarize(&[stepped]), summarize(&[rec]));
    }

    macro_rules! skip_tests {
        ($($name:ident: $kind:ident,)*) => {$(
            #[test]
            fn $name() {
                assert_skip_matches_decode(EventKind::$kind);
            }
        )*};
    }

    skip_tests! {
        skip_run_marker: RunMarker,
        skip_page_tired: PageTired,
        skip_page_retired: PageRetired,
        skip_mdisk_decommissioned: MdiskDecommissioned,
        skip_mdisk_purged: MdiskPurged,
        skip_mdisk_regenerated: MdiskRegenerated,
        skip_gc_pass: GcPass,
        skip_scrub_refresh: ScrubRefresh,
        skip_read_retry: ReadRetry,
        skip_uncorrectable_read: UncorrectableRead,
        skip_device_died: DeviceDied,
        skip_fleet_device_died: FleetDeviceDied,
        skip_chunk_re_replicated: ChunkReReplicated,
        skip_chunk_lost: ChunkLost,
        skip_fleet_rollup: FleetRollup,
        skip_latency_rollup: LatencyRollup,
        skip_cluster_rollup: ClusterRollup,
    }

    #[test]
    fn selective_decode_builds_the_mask_and_folds_the_rest() {
        let events = one_of_each_kind();
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                seq: i as u64,
                time: SimTime::new(i as u32, 0),
                event,
            })
            .collect();
        let mut payload = Vec::new();
        for r in &records {
            encode_record(r, &mut payload).unwrap();
        }
        let mask = EventKind::mask(&[EventKind::PageTired, EventKind::GcPass]);
        let chunk = decode_chunk(&payload, 0, mask).unwrap();
        assert_eq!(&chunk[..], &[records[1].clone(), records[6].clone()]);
        assert_eq!(chunk.record_count(), records.len() as u64);
        let gaps: Vec<ChunkSummary> = chunk
            .parts()
            .filter_map(|p| match p {
                ChunkPart::Gap(s) => Some(s.clone()),
                ChunkPart::Record(_) => None,
            })
            .collect();
        assert_eq!(
            gaps,
            vec![
                summarize(&records[..1]),
                summarize(&records[2..6]),
                summarize(&records[7..]),
            ]
        );
        let all = decode_chunk(&payload, 0, ALL_KINDS).unwrap();
        assert_eq!(all.into_records(), records);
    }

    /// File bytes of a small trace plus the offset of its footer.
    fn written(name: &str) -> (PathBuf, Vec<u8>, usize) {
        let path = tmp(name);
        write_strc(&path, &sample_records(20), 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        let footer_len = u32::from_le_bytes(bytes[n - 8..n - 4].try_into().unwrap()) as usize;
        (path, bytes, n - 8 - footer_len)
    }

    #[test]
    fn corrupt_footer_count_is_a_typed_error() {
        let (path, mut bytes, footer) = written("count.strc");
        for count in [u32::MAX, 0x0F00_0000, 4] {
            bytes[footer..footer + 4].copy_from_slice(&count.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(StrcReader::open(&path), Err(StrcError::Corrupt { .. })),
                "count {count}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_chunk_sizes_are_typed_errors() {
        // First summary: offset u64, byte_len u32, records u32.
        let (path, clean, footer) = written("sizes.strc");
        let mut bytes = clean.clone();
        bytes[footer + 16..footer + 20].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert!(matches!(r.read_all(), Err(StrcError::Corrupt { .. })));
        // A huge length in both the index and the prefix must be
        // refused before anything is allocated for it.
        let mut bytes = clean;
        bytes[footer + 12..footer + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert!(matches!(r.read_chunk(0), Err(StrcError::Corrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn min_summary_bytes_is_the_version1_summary_length() {
        let mut v1 = Vec::new();
        encode_summary_v1(&ChunkSummary::default(), &mut v1);
        assert_eq!(v1.len(), MIN_SUMMARY_BYTES);
        let mut v4 = Vec::new();
        ChunkSummary::default().encode(&mut v4);
        assert!(v4.len() >= MIN_SUMMARY_BYTES);
    }

    #[test]
    fn run_marker_labels_survive() {
        let records = vec![
            TraceRecord {
                seq: 0,
                time: SimTime::ZERO,
                event: TraceEvent::RunMarker {
                    label: "mode=Shrink/δ-test".into(),
                },
            },
            TraceRecord {
                seq: 1,
                time: SimTime::new(1, 2),
                event: TraceEvent::DeviceDied {
                    cause: DeathCause::FullyShrunk,
                },
            },
        ];
        let path = tmp("marker.strc");
        write_strc(&path, &records, 4096).unwrap();
        assert_eq!(read_strc(&path).unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn over_long_fields_are_refused_not_truncated() {
        use crate::latency::{ClassLatency, LatencyRollup};
        use crate::{ClusterRollup, FleetRollup};
        const LONG: usize = 70_000;
        let fleet = FleetRollup {
            day: 1,
            alive: 1,
            dead_wear: 0,
            dead_afr: 0,
            dying: 0,
            capacity_opages: 1,
            wear: vec![1; LONG],
            pec: Vec::new(),
            usable: Vec::new(),
            health: Vec::new(),
        };
        let mut wide = LatencyRollup::empty(1);
        wide.classes[0].bins = vec![1; LONG];
        let many = LatencyRollup {
            day: 1,
            classes: vec![ClassLatency::default(); LONG],
        };
        let mut cluster = ClusterRollup::empty(1);
        cluster.exposure = vec![1; LONG];
        let good = sample_records(3);
        for event in [
            TraceEvent::RunMarker {
                label: "x".repeat(LONG),
            },
            TraceEvent::FleetRollup(fleet),
            TraceEvent::LatencyRollup(wide),
            TraceEvent::LatencyRollup(many),
            TraceEvent::ClusterRollup(cluster),
        ] {
            let bad = TraceRecord {
                seq: 1,
                time: SimTime::new(0, 1),
                event,
            };
            let mut out = vec![7u8];
            assert!(matches!(
                encode_record(&bad, &mut out),
                Err(StrcError::TooLong { len: LONG, .. })
            ));
            assert_eq!(out, [7], "a refused record leaves the buffer as it was");
            // write_strc refuses the trace instead of writing a file
            // that decodes to different records.
            let path = tmp("too-long.strc");
            let records = [good[0].clone(), bad.clone(), good[2].clone()];
            let err = write_strc(&path, &records, 2).unwrap_err();
            assert!(matches!(err, StrcError::TooLong { .. }), "{err}");
            assert!(read_strc(&path).is_err(), "no footer, no readable file");
            // A writer that refused a record stays usable and holds
            // exactly the records it accepted.
            let mut w = StrcWriter::new(Vec::new(), 2).unwrap();
            w.push(&good[0]).unwrap();
            assert!(matches!(w.push(&bad), Err(StrcError::TooLong { .. })));
            w.push(&good[2]).unwrap();
            std::fs::write(&path, w.finish().unwrap()).unwrap();
            assert_eq!(
                read_strc(&path).unwrap(),
                [good[0].clone(), good[2].clone()]
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}
