//! Offline trace queries: the engine behind `obsctl` (DESIGN.md §11).
//!
//! Every query is a [`Query`] value that renders recorded telemetry to
//! a `String` through one deterministic path shared by the CLI, the
//! examples, and the golden tests. [`Query::run`] reads a
//! [`TraceSource`]: a flat record slice (JSONL traces) or an indexed
//! `.strc` reader. In the indexed form, chunks whose
//! [`ChunkSummary`] proves they contain nothing the query would print
//! are *never decoded* — their aggregate counts fold into the totals
//! straight from the footer index. In the chunks that are decoded, only
//! records of the query's kinds are built; each run of other records
//! folds into a gap summary the renderers read like a skipped chunk.

use salamander_obs::cluster::exposure_upper_ticks;
use salamander_obs::latency::fmt_ns;
use salamander_obs::rollup::percentile_permille;
// One unit of query input is an `Item`: a single record, or a skipped
// chunk or gap standing in for its records.
use salamander_obs::strc::{
    ChunkPart as Item, ChunkRecords, ChunkSummary, EventKind, StrcError, StrcReader,
};
use salamander_obs::{
    ClusterRollup, DecommissionCause, FleetRollup, LatencyRollup, Rollup, TraceEvent, TraceRecord,
    DIST_NAMES, EXPOSURE_STATS, LAT_CLASSES, LAT_STATS, PERCENTILES,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What an indexed reader hands a query per chunk: the decoded records
/// when the chunk may matter, or just its summary when the index proves
/// it cannot contain anything the query would print line-by-line.
#[derive(Debug, Clone)]
pub enum TraceChunk {
    /// The records of the query's kinds, in emission order, with every
    /// run of other records folded into a gap summary in place.
    Records(ChunkRecords),
    /// A chunk skipped via the index: aggregate counts only.
    Skipped(Box<ChunkSummary>),
}

/// Flatten a chunk list into query items.
fn chunk_items(chunks: &[TraceChunk]) -> Vec<Item<'_>> {
    let mut out = Vec::new();
    for c in chunks {
        match c {
            TraceChunk::Records(rs) => out.extend(rs.parts()),
            TraceChunk::Skipped(s) => out.push(Item::Gap(s.as_ref())),
        }
    }
    out
}

/// One run segment of a trace: the label of the `RunMarker` that
/// opened it (`"(unlabelled)"` for items before any marker) and the
/// items that follow, markers excluded. Every segmenting query's decode
/// mask includes `RunMarker`, so no skipped chunk or gap holds one:
/// each lies entirely within one segment.
struct Segment<'a> {
    label: String,
    items: Vec<Item<'a>>,
}

fn segments<'a>(items: &[Item<'a>]) -> Vec<Segment<'a>> {
    let mut out: Vec<Segment<'a>> = Vec::new();
    for &it in items {
        if let Item::Record(r) = it {
            if let TraceEvent::RunMarker { label } = &r.event {
                out.push(Segment {
                    label: label.clone(),
                    items: Vec::new(),
                });
                continue;
            }
        }
        if out.is_empty() {
            out.push(Segment {
                label: "(unlabelled)".into(),
                items: Vec::new(),
            });
        }
        out.last_mut().expect("segment exists").items.push(it);
    }
    out
}

/// Read an indexed trace, decoding only chunks that may contain a kind
/// in `decode_mask` — or, with `id_filter = Some((mask, id))`, chunks
/// whose id bloom may hold `id` and that may contain a `mask` kind
/// (false positives decode harmlessly, false negatives cannot happen).
/// A decoded chunk builds records of `decode_mask` kinds, plus the
/// `mask` kinds when its bloom may hold `id`; the rest fold into gaps.
pub fn load_chunks(
    reader: &mut StrcReader,
    decode_mask: u32,
    id_filter: Option<(u32, u64)>,
) -> Result<Vec<TraceChunk>, StrcError> {
    let n = reader.chunk_count();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let s = &reader.summaries()[i];
        let mask = match id_filter {
            Some((mask, id)) if s.may_concern(id) => decode_mask | mask,
            _ => decode_mask,
        };
        out.push(if s.may_contain_kinds(mask) {
            TraceChunk::Records(reader.read_chunk_kinds(i, mask)?)
        } else {
            TraceChunk::Skipped(Box::new(s.clone()))
        });
    }
    Ok(out)
}

/// One offline trace query with its arguments — the value every front
/// end runs: `obsctl`, the record-slice and `*_chunks` functions below,
/// and the tests.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// [`lifecycle`], optionally for one minidisk.
    Lifecycle(Option<u32>),
    /// [`why`], optionally for one minidisk.
    Why(Option<u32>),
    /// [`fleet_rollup`], as CSV when set.
    Fleet(bool),
    /// [`fleet_timeline`].
    FleetTimeline,
    /// [`percentiles`] of one [`DIST_NAMES`] distribution.
    Percentiles(&'a str),
    /// [`latency`], optionally for one [`LAT_CLASSES`] entry.
    Latency(Option<&'a str>),
    /// [`cluster`].
    Cluster,
    /// [`exposure`].
    Exposure,
    /// [`drill`] into one sampled day (or tick).
    Drill(u32),
}

/// Where a [`Query`] reads its trace: a flat record slice (a parsed
/// JSONL trace) or an indexed `.strc` reader.
#[derive(Debug)]
pub enum TraceSource<'a> {
    /// Every record, in emission order.
    Records(&'a [TraceRecord]),
    /// An indexed trace, decoded only where the query needs it.
    Strc(&'a mut StrcReader),
}

impl Query<'_> {
    /// The kinds this query prints or anchors on: over `.strc`, chunks
    /// holding none of them fold in from the index without decoding.
    fn decode_mask(&self) -> u32 {
        match self {
            Query::Lifecycle(_) => lifecycle_decode_mask(),
            Query::Why(_) => why_decode_mask(),
            Query::Fleet(_) => fleet_decode_mask(),
            Query::FleetTimeline | Query::Percentiles(_) => rollup_series_decode_mask(),
            Query::Latency(_) => latency_decode_mask(),
            Query::Cluster | Query::Exposure => cluster_decode_mask(),
            Query::Drill(_) => drill_decode_mask(),
        }
    }

    /// Render the query over `source`. Only a `.strc` read can fail.
    /// [`Query::Why`] reads an indexed trace twice: the lifecycle
    /// anchors first, then — through the id bloom — the read path of
    /// its target minidisk (resolved from the first pass when `mdisk`
    /// is `None`); the bulk wear pressure comes from the index.
    pub fn run(&self, source: TraceSource<'_>) -> Result<String, StrcError> {
        let reader = match source {
            TraceSource::Records(records) => return Ok(self.render(&record_items(records))),
            TraceSource::Strc(reader) => reader,
        };
        let mut chunks = load_chunks(reader, self.decode_mask(), None)?;
        if let Query::Why(mdisk) = *self {
            if let Some(id) = mdisk.or_else(|| first_decommissioned_id(&chunks)) {
                let filter = Some((read_path_mask(), u64::from(id)));
                chunks = load_chunks(reader, self.decode_mask(), filter)?;
            }
        }
        Ok(self.render(&chunk_items(&chunks)))
    }

    fn render(&self, items: &[Item<'_>]) -> String {
        match *self {
            Query::Lifecycle(mdisk) => lifecycle_items(items, mdisk),
            Query::Why(mdisk) => why_items(items, mdisk),
            Query::Fleet(csv) => fleet_rollup_items(items, csv),
            Query::FleetTimeline => fleet_timeline_items(items),
            Query::Percentiles(metric) => percentiles_items(items, metric),
            Query::Latency(class) => latency_items(items, class),
            Query::Cluster => cluster_items(items),
            Query::Exposure => exposure_items(items),
            Query::Drill(day) => drill_items(items, day),
        }
    }
}

/// A record slice as query items.
fn record_items(records: &[TraceRecord]) -> Vec<Item<'_>> {
    records.iter().map(Item::Record).collect()
}

/// Kinds [`lifecycle`] prints as individual lines. Chunks containing
/// any of these must be decoded; all others fold in via summaries.
pub fn lifecycle_decode_mask() -> u32 {
    EventKind::mask(&[
        EventKind::RunMarker,
        EventKind::MdiskDecommissioned,
        EventKind::MdiskPurged,
        EventKind::MdiskRegenerated,
        EventKind::DeviceDied,
        EventKind::FleetDeviceDied,
        EventKind::ChunkLost,
        EventKind::UncorrectableRead,
    ])
}

/// Kinds [`why`] prints or anchors on (the read-path pressure for the
/// target minidisk is pulled in separately via the id bloom).
pub fn why_decode_mask() -> u32 {
    EventKind::mask(&[
        EventKind::RunMarker,
        EventKind::MdiskDecommissioned,
        EventKind::MdiskPurged,
        EventKind::MdiskRegenerated,
        EventKind::DeviceDied,
    ])
}

/// The per-minidisk read-path kinds [`why`] sums for its target.
pub fn read_path_mask() -> u32 {
    EventKind::mask(&[EventKind::ReadRetry, EventKind::UncorrectableRead])
}

/// Kinds [`fleet_rollup`] prints per-event (losses and re-replication
/// volumes are pure counts, served by the index).
pub fn fleet_decode_mask() -> u32 {
    EventKind::mask(&[EventKind::FleetDeviceDied])
}

/// Whether an event concerns minidisk `id` (lifecycle or read path).
fn concerns(event: &TraceEvent, id: u32) -> bool {
    match event {
        TraceEvent::MdiskDecommissioned { id: m, .. }
        | TraceEvent::MdiskPurged { id: m }
        | TraceEvent::MdiskRegenerated { id: m, .. } => *m == id,
        TraceEvent::ReadRetry { mdisk, .. } | TraceEvent::UncorrectableRead { mdisk, .. } => {
            *mdisk == id
        }
        _ => false,
    }
}

/// Render the lifecycle timeline of a trace: per segment, every
/// minidisk decommission/purge/regeneration, device deaths, chunk
/// losses, and totals for the high-volume events. With `mdisk`, only
/// lines concerning that minidisk (totals still cover the segment).
pub fn lifecycle(records: &[TraceRecord], mdisk: Option<u32>) -> String {
    Query::Lifecycle(mdisk).render(&record_items(records))
}

/// [`lifecycle`] over an indexed chunk list (see [`load_chunks`]).
pub fn lifecycle_chunks(chunks: &[TraceChunk], mdisk: Option<u32>) -> String {
    Query::Lifecycle(mdisk).render(&chunk_items(chunks))
}

fn lifecycle_items(items: &[Item<'_>], mdisk: Option<u32>) -> String {
    let mut out = String::new();
    let total: u64 = items.iter().map(Item::records).sum();
    if total == 0 {
        out.push_str("empty trace\n");
        return out;
    }
    let segs = segments(items);
    let _ = writeln!(out, "{total} events, {} run segment(s)", segs.len());
    for seg in &segs {
        let seg_events: u64 = seg.items.iter().map(Item::records).sum();
        let _ = writeln!(out, "\n== {} ({seg_events} events)", seg.label);
        let mut tired = 0u64;
        let mut retired = 0u64;
        let mut gc_passes = 0u64;
        let mut gc_relocated = 0u64;
        let mut scrubs = 0u64;
        let mut retries = 0u64;
        let mut rereplicated = 0u64;
        for it in &seg.items {
            let r = match it {
                Item::Gap(s) => {
                    // A skipped chunk or gap holds only high-volume
                    // events; its summary feeds the totals exactly.
                    tired += s.count(EventKind::PageTired);
                    retired += s.count(EventKind::PageRetired);
                    gc_passes += s.count(EventKind::GcPass);
                    gc_relocated += s.gc_relocated;
                    scrubs += s.count(EventKind::ScrubRefresh);
                    retries += s.count(EventKind::ReadRetry);
                    rereplicated += s.rerep_bytes;
                    continue;
                }
                Item::Record(r) => r,
            };
            let day = r.time.day;
            if let Some(id) = mdisk {
                if !concerns(&r.event, id) && !matches!(r.event, TraceEvent::DeviceDied { .. }) {
                    // Totals below still count the whole segment.
                    match &r.event {
                        TraceEvent::PageTired { .. } => tired += 1,
                        TraceEvent::PageRetired { .. } => retired += 1,
                        TraceEvent::GcPass { relocated, .. } => {
                            gc_passes += 1;
                            gc_relocated += relocated;
                        }
                        TraceEvent::ScrubRefresh { .. } => scrubs += 1,
                        TraceEvent::ReadRetry { .. } => retries += 1,
                        TraceEvent::ChunkReReplicated { bytes, .. } => rereplicated += bytes,
                        _ => {}
                    }
                    continue;
                }
            }
            match &r.event {
                TraceEvent::MdiskDecommissioned {
                    id,
                    valid_lbas,
                    draining,
                    cause,
                } => {
                    let _ = writeln!(
                        out,
                        "  day {day:>5}: minidisk {id} decommissioned \
                         ({valid_lbas} valid LBAs, {}, cause: {cause:?})",
                        if *draining { "draining" } else { "dropped" }
                    );
                }
                TraceEvent::MdiskPurged { id } => {
                    let _ = writeln!(out, "  day {day:>5}: minidisk {id} purged before ack");
                }
                TraceEvent::MdiskRegenerated { id, level } => {
                    let _ = writeln!(out, "  day {day:>5}: minidisk {id} regenerated at L{level}");
                }
                TraceEvent::DeviceDied { cause } => {
                    let _ = writeln!(out, "  day {day:>5}: device died ({cause:?})");
                }
                TraceEvent::FleetDeviceDied { device, cause } => {
                    let _ = writeln!(
                        out,
                        "  day {day:>5}: fleet device {device} died ({cause:?})"
                    );
                }
                TraceEvent::ChunkLost { chunk } => {
                    let _ = writeln!(out, "  day {day:>5}: chunk {chunk} LOST");
                }
                TraceEvent::UncorrectableRead { mdisk, lba } => {
                    let _ = writeln!(
                        out,
                        "  day {day:>5}: uncorrectable read (minidisk {mdisk}, lba {lba})"
                    );
                }
                TraceEvent::PageTired { .. } => tired += 1,
                TraceEvent::PageRetired { .. } => retired += 1,
                TraceEvent::GcPass { relocated, .. } => {
                    gc_passes += 1;
                    gc_relocated += relocated;
                }
                TraceEvent::ScrubRefresh { .. } => scrubs += 1,
                TraceEvent::ReadRetry { .. } => retries += 1,
                TraceEvent::ChunkReReplicated { bytes, .. } => rereplicated += bytes,
                TraceEvent::RunMarker { .. }
                | TraceEvent::FleetRollup(_)
                | TraceEvent::LatencyRollup(_)
                | TraceEvent::ClusterRollup(_) => {}
            }
        }
        let _ = writeln!(
            out,
            "  totals: {tired} level transitions, {retired} page retirements, \
             {gc_passes} GC passes ({gc_relocated} oPages relocated), \
             {scrubs} scrub refreshes, {retries} read retries"
        );
        if rereplicated > 0 {
            let _ = writeln!(
                out,
                "  totals: {rereplicated} bytes re-replicated by the diFS"
            );
        }
    }
    out
}

/// Human text for a decommission cause.
fn cause_text(cause: DecommissionCause) -> &'static str {
    match cause {
        DecommissionCause::LevelShortfall => {
            "a tiredness level's committed ledger exceeded its usable pages \
             (wear transitions shrank the level faster than GC could drain it)"
        }
        DecommissionCause::GcHeadroom => {
            "global GC headroom dropped below the overprovisioning floor \
             (Eq. 1: usable − committed − draining − reserve)"
        }
    }
}

/// Explain *why* a minidisk was decommissioned: its decommission event,
/// the wear pressure recorded before it (level transitions, retirements,
/// GC activity, this minidisk's read retries), and the aftermath (purge,
/// replacement regenerations, device death). With `mdisk = None`, the
/// first decommissioned minidisk in the trace is explained.
pub fn why(records: &[TraceRecord], mdisk: Option<u32>) -> String {
    Query::Why(mdisk).render(&record_items(records))
}

/// [`why`] over an indexed chunk list (see [`load_chunks`]).
pub fn why_chunks(chunks: &[TraceChunk], mdisk: Option<u32>) -> String {
    Query::Why(mdisk).render(&chunk_items(chunks))
}

/// First minidisk decommissioned in a decoded chunk list, if any.
fn first_decommissioned_id(chunks: &[TraceChunk]) -> Option<u32> {
    for c in chunks {
        if let TraceChunk::Records(rs) = c {
            for r in rs.iter() {
                if let TraceEvent::MdiskDecommissioned { id, .. } = &r.event {
                    return Some(*id);
                }
            }
        }
    }
    None
}

fn why_items(items: &[Item<'_>], mdisk: Option<u32>) -> String {
    let mut out = String::new();
    // Locate the decommission record (and its segment).
    let segs = segments(items);
    let mut found: Option<(&Segment<'_>, usize)> = None;
    'outer: for seg in &segs {
        for (i, it) in seg.items.iter().enumerate() {
            if let Item::Record(r) = it {
                if let TraceEvent::MdiskDecommissioned { id, .. } = &r.event {
                    if mdisk.is_none() || mdisk == Some(*id) {
                        found = Some((seg, i));
                        break 'outer;
                    }
                }
            }
        }
    }
    let Some((seg, idx)) = found else {
        match mdisk {
            Some(id) => {
                let _ = writeln!(out, "minidisk {id} was never decommissioned in this trace");
                let mut ids: Vec<u32> = Vec::new();
                for it in items {
                    if let Item::Record(r) = it {
                        if let TraceEvent::MdiskDecommissioned { id, .. } = &r.event {
                            if !ids.contains(id) {
                                ids.push(*id);
                            }
                        }
                    }
                }
                if ids.is_empty() {
                    out.push_str("no minidisk was decommissioned at all\n");
                } else {
                    let _ = writeln!(out, "decommissioned minidisks: {ids:?}");
                }
            }
            None => out.push_str("no minidisk was decommissioned in this trace\n"),
        }
        return out;
    };
    let Item::Record(rec) = seg.items[idx] else {
        unreachable!("found index points at a record");
    };
    let TraceEvent::MdiskDecommissioned {
        id,
        valid_lbas,
        draining,
        cause,
    } = &rec.event
    else {
        unreachable!("found index points at a decommission");
    };
    let _ = writeln!(out, "why: minidisk {id} (segment \"{}\")", seg.label);
    let _ = writeln!(
        out,
        "  day {:>5} op {:>8}: decommissioned, {} valid LBAs, {}",
        rec.time.day,
        rec.time.op,
        valid_lbas,
        if *draining {
            "entered draining grace period"
        } else {
            "dropped immediately"
        }
    );
    let _ = writeln!(out, "  cause: {:?} — {}", cause, cause_text(*cause));

    // Wear pressure recorded before the decommission, within the segment.
    let mut transitions: BTreeMap<(u8, u8), u64> = BTreeMap::new();
    let mut retired = 0u64;
    let mut gc_passes = 0u64;
    let mut gc_relocated = 0u64;
    let mut own_retries = 0u64;
    let mut own_uncorrectable = 0u64;
    for it in &seg.items[..idx] {
        let r = match it {
            Item::Gap(s) => {
                // Skipped chunks and gaps carry the bulk wear pressure
                // in their summaries; the target's read path is never
                // in one (its chunks build it via the id bloom).
                for from in 0u8..5 {
                    for to in 0u8..5 {
                        let n = s.transitions[from as usize * 5 + to as usize] as u64;
                        if n > 0 {
                            *transitions.entry((from, to)).or_insert(0) += n;
                        }
                    }
                }
                retired += s.count(EventKind::PageRetired);
                gc_passes += s.count(EventKind::GcPass);
                gc_relocated += s.gc_relocated;
                continue;
            }
            Item::Record(r) => r,
        };
        match &r.event {
            TraceEvent::PageTired { from, to, .. } => {
                *transitions.entry((*from, *to)).or_insert(0) += 1;
            }
            TraceEvent::PageRetired { .. } => retired += 1,
            TraceEvent::GcPass { relocated, .. } => {
                gc_passes += 1;
                gc_relocated += relocated;
            }
            TraceEvent::ReadRetry { mdisk, retries } if *mdisk == *id => {
                own_retries += *retries as u64;
            }
            TraceEvent::UncorrectableRead { mdisk, .. } if *mdisk == *id => {
                own_uncorrectable += 1;
            }
            _ => {}
        }
    }
    out.push_str("  pressure before the decommission:\n");
    if transitions.is_empty() && retired == 0 {
        out.push_str("    no page wear recorded\n");
    } else {
        if transitions.is_empty() {
            out.push_str("    page level transitions: 0\n");
        } else {
            let flows: Vec<String> = transitions
                .iter()
                .map(|((f, t), n)| format!("L{f}→L{t}: {n}"))
                .collect();
            let _ = writeln!(
                out,
                "    page level transitions: {} ({})",
                transitions.values().sum::<u64>(),
                flows.join(", ")
            );
        }
        let _ = writeln!(out, "    page retirements: {retired}");
    }
    let _ = writeln!(
        out,
        "    GC passes: {gc_passes} ({gc_relocated} oPages relocated)"
    );
    let _ = writeln!(
        out,
        "    this minidisk's read path: {own_retries} retries, \
         {own_uncorrectable} uncorrectable reads"
    );

    // Aftermath: what happened to this minidisk and the device after.
    out.push_str("  aftermath:\n");
    let mut any = false;
    for it in &seg.items[idx + 1..] {
        let Item::Record(r) = it else {
            // Aftermath events are all in the decode set.
            continue;
        };
        let day = r.time.day;
        let op = r.time.op;
        match &r.event {
            TraceEvent::MdiskPurged { id: m } if *m == *id => {
                let _ = writeln!(out, "    day {day:>5} op {op:>8}: purged before ack");
                any = true;
            }
            TraceEvent::MdiskRegenerated { id: m, level } => {
                let _ = writeln!(
                    out,
                    "    day {day:>5} op {op:>8}: minidisk {m} regenerated at L{level} \
                     (replacement capacity)"
                );
                any = true;
            }
            TraceEvent::DeviceDied { cause } => {
                let _ = writeln!(out, "    day {day:>5} op {op:>8}: device died ({cause:?})");
                any = true;
            }
            _ => {}
        }
    }
    if !any {
        out.push_str("    none recorded (still draining at end of trace)\n");
    }
    out
}

/// Fleet rollup: per-device death day and cause plus chunk-durability
/// totals, as an aligned table or CSV (`device,died_day,cause`).
pub fn fleet_rollup(records: &[TraceRecord], csv: bool) -> String {
    Query::Fleet(csv).render(&record_items(records))
}

/// [`fleet_rollup`] over an indexed chunk list (see [`load_chunks`]).
pub fn fleet_rollup_chunks(chunks: &[TraceChunk], csv: bool) -> String {
    Query::Fleet(csv).render(&chunk_items(chunks))
}

fn fleet_rollup_items(items: &[Item<'_>], csv: bool) -> String {
    let mut out = String::new();
    let mut deaths: Vec<(u32, u32, String)> = Vec::new();
    let mut lost = 0u64;
    let mut rereplicated = 0u64;
    for it in items {
        let r = match it {
            Item::Gap(s) => {
                lost += s.count(EventKind::ChunkLost);
                rereplicated += s.rerep_bytes;
                continue;
            }
            Item::Record(r) => r,
        };
        match &r.event {
            TraceEvent::FleetDeviceDied { device, cause } => {
                deaths.push((*device, r.time.day, format!("{cause:?}")));
            }
            TraceEvent::ChunkLost { .. } => lost += 1,
            TraceEvent::ChunkReReplicated { bytes, .. } => rereplicated += bytes,
            _ => {}
        }
    }
    deaths.sort();
    if csv {
        out.push_str("device,died_day,cause\n");
        for (device, day, cause) in &deaths {
            let _ = writeln!(out, "{device},{day},{cause}");
        }
        return out;
    }
    if deaths.is_empty() {
        out.push_str("no fleet device deaths recorded\n");
    } else {
        let _ = writeln!(out, "{:>8} {:>9} {:<6}", "device", "died_day", "cause");
        for (device, day, cause) in &deaths {
            let _ = writeln!(out, "{device:>8} {day:>9} {cause:<6}");
        }
    }
    let _ = writeln!(
        out,
        "totals: {} device deaths, {lost} chunks lost, \
         {rereplicated} bytes re-replicated",
        deaths.len()
    );
    out
}

/// Kinds the rollup-series queries ([`fleet_timeline`], [`percentiles`],
/// [`drill`]) print: run markers and the per-day rollups themselves.
/// Every other chunk — including the high-volume wear/GC noise and the
/// death events — is skipped outright.
pub fn rollup_series_decode_mask() -> u32 {
    EventKind::mask(&[EventKind::RunMarker, EventKind::FleetRollup])
}

/// The rollups of one family in one segment, in emission
/// (chronological) order.
fn seg_rollups<'a, R: Rollup>(seg: &Segment<'a>) -> Vec<&'a R> {
    seg.items
        .iter()
        .filter_map(|&it| match it {
            Item::Record(r) => R::from_event(&r.event),
            Item::Gap(_) => None,
        })
        .collect()
}

/// Render every segment holding rollups of family `R` through
/// `render(out, label, rollups)`, or `none` when no segment holds any.
fn per_segment<R: Rollup>(
    items: &[Item<'_>],
    none: &str,
    mut render: impl FnMut(&mut String, &str, &[&R]),
) -> String {
    let mut out = String::new();
    for seg in &segments(items) {
        let rollups = seg_rollups::<R>(seg);
        if !rollups.is_empty() {
            render(&mut out, &seg.label, &rollups);
        }
    }
    if out.is_empty() {
        out.push_str(none);
    }
    out
}

/// Fleet timeline: one line per sampled day and segment from the
/// recorded [`FleetRollup`] series — population counts, committed
/// capacity, and the wear/health medians (permille bucket upper edge).
pub fn fleet_timeline(records: &[TraceRecord]) -> String {
    Query::FleetTimeline.render(&record_items(records))
}

/// [`fleet_timeline`] over an indexed chunk list (see [`load_chunks`]).
pub fn fleet_timeline_chunks(chunks: &[TraceChunk]) -> String {
    Query::FleetTimeline.render(&chunk_items(chunks))
}

fn fleet_timeline_items(items: &[Item<'_>]) -> String {
    per_segment::<FleetRollup>(
        items,
        "no fleet rollups recorded\n",
        |out, label, rollups| {
            let _ = writeln!(out, "== {} ({} sampled days)", label, rollups.len());
            let _ = writeln!(
                out,
                "  {:>6} {:>8} {:>10} {:>9} {:>7} {:>16} {:>10} {:>12}",
                "day",
                "alive",
                "dead_wear",
                "dead_afr",
                "dying",
                "capacity_opages",
                "wear_p50",
                "health_p50"
            );
            for r in rollups {
                let permille = |metric: &str| match r.series_value(metric) {
                    Some(v) => format!("{v}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  {:>6} {:>8} {:>10} {:>9} {:>7} {:>16} {:>10} {:>12}",
                    r.day,
                    r.alive,
                    r.dead_wear,
                    r.dead_afr,
                    r.dying,
                    r.capacity_opages,
                    permille("wear_p50"),
                    permille("health_p50"),
                );
            }
        },
    )
}

/// Percentile table for one rollup distribution (`wear`, `pec`,
/// `usable`, or `health`): per segment and sampled day, the exact
/// p1/p10/p50/p90/p99 bucket upper edges in permille. Unknown metrics
/// render a help line (the CLI validates before calling).
pub fn percentiles(records: &[TraceRecord], metric: &str) -> String {
    Query::Percentiles(metric).render(&record_items(records))
}

/// [`percentiles`] over an indexed chunk list (see [`load_chunks`]).
pub fn percentiles_chunks(chunks: &[TraceChunk], metric: &str) -> String {
    Query::Percentiles(metric).render(&chunk_items(chunks))
}

fn percentiles_items(items: &[Item<'_>], metric: &str) -> String {
    if !DIST_NAMES.contains(&metric) {
        return format!("unknown distribution '{metric}' (expected one of {DIST_NAMES:?})\n");
    }
    per_segment::<FleetRollup>(
        items,
        "no fleet rollups recorded\n",
        |out, label, rollups| {
            let _ = writeln!(
                out,
                "== {} — {metric} distribution, permille bucket upper edges",
                label
            );
            let _ = write!(out, "  {:>6}", "day");
            for q in PERCENTILES {
                let _ = write!(out, " {:>6}", format!("p{q}"));
            }
            out.push('\n');
            for r in rollups {
                let _ = write!(out, "  {:>6}", r.day);
                let bins = r.dist(metric).unwrap_or(&[]);
                for q in PERCENTILES {
                    match percentile_permille(bins, q) {
                        Some(v) => {
                            let _ = write!(out, " {v:>6}");
                        }
                        None => {
                            let _ = write!(out, " {:>6}", "-");
                        }
                    }
                }
                out.push('\n');
            }
        },
    )
}

/// Kinds the [`latency`] query prints: run markers and the per-day
/// latency rollups; everything else is skipped outright.
pub fn latency_decode_mask() -> u32 {
    EventKind::mask(&[EventKind::RunMarker, EventKind::LatencyRollup])
}

/// Tail-latency tables from the recorded [`LatencyRollup`] series: per
/// segment and op class, one line per sampled day with the exact count,
/// mean, and nearest-rank p50/p90/p99/p999 (log2-bucket upper edges, so
/// values are exact within the ≤12.5% quantization — DESIGN.md §15),
/// followed by the [`crate::fleet::latency_scan`] regression flags.
/// With `class`, only that class's table (validated against
/// [`LAT_CLASSES`]).
pub fn latency(records: &[TraceRecord], class: Option<&str>) -> String {
    Query::Latency(class).render(&record_items(records))
}

/// [`latency`] over an indexed chunk list (see [`load_chunks`]).
pub fn latency_chunks(chunks: &[TraceChunk], class: Option<&str>) -> String {
    Query::Latency(class).render(&chunk_items(chunks))
}

fn latency_items(items: &[Item<'_>], class: Option<&str>) -> String {
    if let Some(c) = class.filter(|c| !LAT_CLASSES.contains(c)) {
        return format!("unknown latency class '{c}' (expected one of {LAT_CLASSES:?})\n");
    }
    per_segment::<LatencyRollup>(
        items,
        "no latency rollups recorded\n",
        |out, label, rollups| {
            let _ = writeln!(out, "== {} ({} sampled days)", label, rollups.len());
            for name in LAT_CLASSES {
                if class.is_some_and(|c| c != name) {
                    continue;
                }
                let populated = rollups
                    .iter()
                    .any(|r| r.class(name).is_some_and(|c| c.count > 0));
                if !populated {
                    // Classes the run never charged (e.g. scrub with patrol
                    // off) stay silent unless explicitly asked for.
                    if class.is_some() {
                        let _ = writeln!(out, "  -- {name}: no samples recorded");
                    }
                    continue;
                }
                let _ = writeln!(out, "  -- {name}");
                let _ = write!(out, "    {:>6} {:>10} {:>12}", "day", "count", "mean");
                for (stat, _) in LAT_STATS {
                    let _ = write!(out, " {stat:>12}");
                }
                out.push('\n');
                for r in rollups {
                    let Some(c) = r.class(name) else { continue };
                    let _ = write!(out, "    {:>6} {:>10}", r.day, c.count);
                    match c.mean_ns() {
                        Some(m) => {
                            let _ = write!(out, " {:>12}", fmt_ns(m));
                        }
                        None => {
                            let _ = write!(out, " {:>12}", "-");
                        }
                    }
                    for (_, q) in LAT_STATS {
                        match c.percentile(q) {
                            Some(v) => {
                                let _ = write!(out, " {:>12}", fmt_ns(v));
                            }
                            None => {
                                let _ = write!(out, " {:>12}", "-");
                            }
                        }
                    }
                    out.push('\n');
                }
            }
            let regressions = crate::fleet::latency_scan(rollups.iter().copied());
            if regressions.is_empty() {
                out.push_str("  no tail-latency regressions flagged\n");
            } else {
                out.push_str("  tail-latency regressions (day-over-day p99 z-scores):\n");
                for a in &regressions {
                    let subject = LAT_CLASSES
                        .get(a.subject as usize)
                        .copied()
                        .unwrap_or("unknown");
                    let _ = writeln!(
                        out,
                        "    day {:>5}: {:<10} p99 delta {} mean {} z {}",
                        a.time.day,
                        subject,
                        milli_text(a.value_milli),
                        milli_text(a.mean_milli),
                        milli_text(a.z_milli),
                    );
                }
            }
        },
    )
}

/// Kinds the [`cluster`] and [`exposure`] queries print: run markers
/// and the per-tick cluster rollups; everything else is skipped
/// outright.
pub fn cluster_decode_mask() -> u32 {
    EventKind::mask(&[EventKind::RunMarker, EventKind::ClusterRollup])
}

/// Cluster durability timeline from the recorded [`ClusterRollup`]
/// series: per segment, one line per sampled tick with the replication
/// state counts, the recovery backlog, and the cumulative recovery
/// traffic split by cause (failure repair vs proactive drain), followed
/// by the [`crate::fleet::cluster_scan`] recovery-storm / data-loss
/// flags.
pub fn cluster(records: &[TraceRecord]) -> String {
    Query::Cluster.render(&record_items(records))
}

/// [`cluster`] over an indexed chunk list (see [`load_chunks`]).
pub fn cluster_chunks(chunks: &[TraceChunk]) -> String {
    Query::Cluster.render(&chunk_items(chunks))
}

fn cluster_items(items: &[Item<'_>]) -> String {
    per_segment::<ClusterRollup>(
        items,
        "no cluster rollups recorded\n",
        |out, label, rollups| {
            let _ = writeln!(out, "== {} ({} sampled ticks)", label, rollups.len());
            let _ = writeln!(
                out,
                "  {:>6} {:>8} {:>9} {:>9} {:>6} {:>9} {:>14} {:>13} {:>12}",
                "tick",
                "full",
                "degraded",
                "critical",
                "lost",
                "backlog",
                "backlog_bytes",
                "repair_bytes",
                "drain_bytes"
            );
            for r in rollups {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>8} {:>9} {:>9} {:>6} {:>9} {:>14} {:>13} {:>12}",
                    r.day,
                    r.full,
                    r.degraded,
                    r.critical,
                    r.lost,
                    r.backlog_chunks,
                    r.backlog_bytes,
                    r.repair_bytes,
                    r.drain_bytes,
                );
            }
            let anomalies = crate::fleet::cluster_scan(rollups.iter().copied());
            if anomalies.is_empty() {
                out.push_str("  no recovery anomalies flagged\n");
            } else {
                out.push_str("  recovery anomalies (tick-over-tick z-scores):\n");
                for a in &anomalies {
                    let _ = writeln!(
                        out,
                        "    tick {:>5}: {:<14} value {} mean {} z {}",
                        a.time.day,
                        a.kind.name(),
                        milli_text(a.value_milli),
                        milli_text(a.mean_milli),
                        milli_text(a.z_milli),
                    );
                }
            }
        },
    )
}

/// Replication-exposure report from the final [`ClusterRollup`] of each
/// segment (the histogram is cumulative, so the last rollup carries the
/// whole run): closed-window count, nearest-rank dwell percentiles,
/// the non-empty log2 buckets, and the data still at risk in open
/// windows at the end of the run.
pub fn exposure(records: &[TraceRecord]) -> String {
    Query::Exposure.render(&record_items(records))
}

/// [`exposure`] over an indexed chunk list (see [`load_chunks`]).
pub fn exposure_chunks(chunks: &[TraceChunk]) -> String {
    Query::Exposure.render(&chunk_items(chunks))
}

fn exposure_items(items: &[Item<'_>]) -> String {
    per_segment::<ClusterRollup>(
        items,
        "no cluster rollups recorded\n",
        |out, label, rollups| {
            let Some(last) = rollups.last() else { return };
            let _ = writeln!(
                out,
                "== {} — replication-exposure windows over {} sampled ticks",
                label,
                rollups.len()
            );
            let _ = writeln!(out, "  windows closed: {}", last.exposure_windows);
            if last.exposure_windows > 0 {
                let _ = write!(out, "  dwell percentiles (ticks, bucket upper edges):");
                for (stat, q) in EXPOSURE_STATS {
                    match last.exposure_percentile(q) {
                        Some(v) => {
                            let _ = write!(out, " {stat}<{v}");
                        }
                        None => {
                            let _ = write!(out, " {stat}=-");
                        }
                    }
                }
                out.push('\n');
                let buckets: Vec<String> = last
                    .exposure
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b > 0)
                    .map(|(i, &b)| format!("<{}:{b}", exposure_upper_ticks(i)))
                    .collect();
                let _ = writeln!(out, "  dwell buckets (ticks): {}", buckets.join(" "));
            }
            let _ = writeln!(
                out,
                "  open at end: {} chunks exposed, data at risk {} byte-ticks",
                last.degraded.saturating_add(last.critical),
                last.data_at_risk
            );
            let _ = writeln!(out, "  lost outright: {}", last.lost);
        },
    )
}

/// Kinds [`drill`] prints: run markers plus all three per-sample rollup
/// families (fleet, latency, cluster).
pub fn drill_decode_mask() -> u32 {
    EventKind::mask(&[
        EventKind::RunMarker,
        EventKind::FleetRollup,
        EventKind::LatencyRollup,
        EventKind::ClusterRollup,
    ])
}

/// Drill into one sampled day: the full rollup record (counts, all
/// four distributions with percentiles and non-empty buckets), the
/// day's tail-latency distributions when recorded, plus the top
/// anomalies flagged by [`crate::fleet::fleet_scan`] and
/// [`crate::fleet::latency_scan`] over the whole segment. Days without
/// a rollup list the sampled days instead of guessing.
pub fn drill(records: &[TraceRecord], day: u32) -> String {
    Query::Drill(day).render(&record_items(records))
}

/// [`drill`] over an indexed chunk list (see [`load_chunks`]).
pub fn drill_chunks(chunks: &[TraceChunk], day: u32) -> String {
    Query::Drill(day).render(&chunk_items(chunks))
}

fn drill_items(items: &[Item<'_>], day: u32) -> String {
    let mut out = String::new();
    let mut any = false;
    for seg in &segments(items) {
        let rollups = seg_rollups::<FleetRollup>(seg);
        let lat_rollups = seg_rollups::<LatencyRollup>(seg);
        let cluster_rollups = seg_rollups::<ClusterRollup>(seg);
        if rollups.is_empty() && lat_rollups.is_empty() && cluster_rollups.is_empty() {
            continue;
        }
        any = true;
        let fleet_day = rollups.iter().find(|r| r.day == day);
        let lat_day = lat_rollups.iter().find(|r| r.day == day);
        let cluster_day = cluster_rollups.iter().find(|r| r.day == day);
        if fleet_day.is_none() && lat_day.is_none() && cluster_day.is_none() {
            let days: Vec<u32> = if !rollups.is_empty() {
                rollups.iter().map(|r| r.day).collect()
            } else if !lat_rollups.is_empty() {
                lat_rollups.iter().map(|r| r.day).collect()
            } else {
                cluster_rollups.iter().map(|r| r.day).collect()
            };
            let _ = writeln!(
                out,
                "== {}: no rollup at day {day} (sampled days: {}..{}, {} samples)",
                seg.label,
                days.first().copied().unwrap_or(0),
                days.last().copied().unwrap_or(0),
                days.len()
            );
            continue;
        }
        let _ = writeln!(out, "== {} — day {day}", seg.label);
        if let Some(r) = fleet_day {
            let _ = writeln!(
                out,
                "  alive {}, dead {} (wear {}, afr {}), dying {}",
                r.alive,
                r.dead(),
                r.dead_wear,
                r.dead_afr,
                r.dying
            );
            let _ = writeln!(out, "  committed capacity: {} oPages", r.capacity_opages);
            for name in DIST_NAMES {
                let bins = r.dist(name).unwrap_or(&[]);
                let _ = write!(out, "  {name:<6}:");
                if bins.iter().all(|&b| b == 0) {
                    out.push_str(" (empty)\n");
                    continue;
                }
                for q in PERCENTILES {
                    if let Some(v) = percentile_permille(bins, q) {
                        let _ = write!(out, " p{q}={v}");
                    }
                }
                let buckets: Vec<String> = bins
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b > 0)
                    .map(|(i, &b)| format!("{i}:{b}"))
                    .collect();
                let _ = writeln!(out, " | buckets {}", buckets.join(" "));
            }
        }
        if let Some(l) = lat_day {
            out.push_str("  latency (log2-bucket upper edges):\n");
            for name in LAT_CLASSES {
                let Some(c) = l.class(name) else { continue };
                if c.count == 0 {
                    continue;
                }
                let _ = write!(out, "    {name:<10}: count {}", c.count);
                if let Some(m) = c.mean_ns() {
                    let _ = write!(out, " mean {}", fmt_ns(m));
                }
                for (stat, q) in LAT_STATS {
                    if let Some(v) = c.percentile(q) {
                        let _ = write!(out, " {stat}={}", fmt_ns(v));
                    }
                }
                out.push('\n');
            }
        }
        if let Some(c) = cluster_day {
            out.push_str("  cluster durability:\n");
            let _ = writeln!(
                out,
                "    chunks: full {}, degraded {}, critical {}, lost {}",
                c.full, c.degraded, c.critical, c.lost
            );
            let _ = writeln!(
                out,
                "    recovery backlog: {} chunks ({} bytes)",
                c.backlog_chunks, c.backlog_bytes
            );
            let _ = writeln!(
                out,
                "    recovery traffic (cumulative): repair {} bytes, drain {} bytes",
                c.repair_bytes, c.drain_bytes
            );
            let _ = writeln!(out, "    data at risk: {} byte-ticks", c.data_at_risk);
            let _ = write!(out, "    exposure windows: {} closed", c.exposure_windows);
            for (stat, q) in EXPOSURE_STATS {
                if let Some(v) = c.exposure_percentile(q) {
                    let _ = write!(out, " {stat}<{v}");
                }
            }
            out.push('\n');
            let buckets: Vec<String> = c
                .fullness
                .iter()
                .enumerate()
                .filter(|(_, &b)| b > 0)
                .map(|(i, &b)| format!("{i}:{b}"))
                .collect();
            if !buckets.is_empty() {
                let _ = writeln!(out, "    unit fullness buckets: {}", buckets.join(" "));
            }
        }
        let mut anomalies = crate::fleet::fleet_scan(rollups.iter().copied());
        anomalies.extend(crate::fleet::latency_scan(lat_rollups.iter().copied()));
        anomalies.extend(crate::fleet::cluster_scan(cluster_rollups.iter().copied()));
        if anomalies.is_empty() {
            out.push_str("  no fleet anomalies flagged in this segment\n");
        } else {
            let mut ranked = anomalies;
            ranked.sort_by_key(|a| (std::cmp::Reverse(a.z_milli.abs()), a.time, a.kind));
            out.push_str("  top fleet anomalies (segment-wide):\n");
            for a in ranked.iter().take(3) {
                let _ = writeln!(
                    out,
                    "    day {:>5}: {:<17} value {} mean {} z {}",
                    a.time.day,
                    a.kind.name(),
                    milli_text(a.value_milli),
                    milli_text(a.mean_milli),
                    milli_text(a.z_milli),
                );
            }
        }
    }
    if !any {
        out.push_str("no fleet rollups recorded\n");
    }
    out
}

/// Render a milli-scaled statistic as fixed-point text (`1500` →
/// `1.500`) without ever round-tripping through floats.
fn milli_text(m: i64) -> String {
    let sign = if m < 0 { "-" } else { "" };
    let abs = m.unsigned_abs();
    format!("{sign}{}.{:03}", abs / 1000, abs % 1000)
}

/// Parse a Prometheus text exposition into `series → value` (comment
/// and `# TYPE` lines skipped; value kept verbatim as text so the diff
/// never reformats numbers).
pub fn parse_prom(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split on the last space: label values may contain spaces.
        if let Some(i) = line.rfind(' ') {
            out.insert(line[..i].to_string(), line[i + 1..].to_string());
        }
    }
    out
}

/// Diff two Prometheus expositions: series only in `a` (`-`), only in
/// `b` (`+`), and changed values (`~ key a -> b`), sorted by series
/// name, followed by a summary line (always present, so "no drift" is
/// still positive evidence).
pub fn diff_prom(a: &str, b: &str) -> String {
    let a = parse_prom(a);
    let b = parse_prom(b);
    let mut out = String::new();
    let mut removed = 0u64;
    let mut added = 0u64;
    let mut changed = 0u64;
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        match (a.get(key), b.get(key)) {
            (Some(va), None) => {
                let _ = writeln!(out, "- {key} {va}");
                removed += 1;
            }
            (None, Some(vb)) => {
                let _ = writeln!(out, "+ {key} {vb}");
                added += 1;
            }
            (Some(va), Some(vb)) if va != vb => {
                let _ = writeln!(out, "~ {key} {va} -> {vb}");
                changed += 1;
            }
            _ => {}
        }
    }
    let _ = writeln!(
        out,
        "{added} series added, {removed} removed, {changed} changed"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use salamander_obs::{DeathCause, SimTime};

    fn rec(seq: u64, day: u32, op: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            time: SimTime::new(day, op),
            event,
        }
    }

    fn sample_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                0,
                TraceEvent::RunMarker {
                    label: "mode=ShrinkS".into(),
                },
            ),
            rec(
                1,
                1,
                100,
                TraceEvent::PageTired {
                    fpage: 5,
                    from: 0,
                    to: 1,
                },
            ),
            rec(
                2,
                1,
                150,
                TraceEvent::PageTired {
                    fpage: 6,
                    from: 0,
                    to: 1,
                },
            ),
            rec(
                3,
                2,
                200,
                TraceEvent::GcPass {
                    block: 1,
                    relocated: 32,
                },
            ),
            rec(
                4,
                2,
                250,
                TraceEvent::ReadRetry {
                    mdisk: 3,
                    retries: 2,
                },
            ),
            rec(
                5,
                3,
                300,
                TraceEvent::MdiskDecommissioned {
                    id: 3,
                    valid_lbas: 120,
                    draining: true,
                    cause: DecommissionCause::LevelShortfall,
                },
            ),
            rec(6, 4, 400, TraceEvent::MdiskPurged { id: 3 }),
            rec(7, 4, 410, TraceEvent::MdiskRegenerated { id: 9, level: 1 }),
            rec(
                8,
                5,
                500,
                TraceEvent::DeviceDied {
                    cause: DeathCause::FullyShrunk,
                },
            ),
        ]
    }

    #[test]
    fn segments_split_on_markers() {
        let trace = sample_trace();
        let segs = segments(&record_items(&trace));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].label, "mode=ShrinkS");
        assert_eq!(segs[0].items.len(), 8);
        assert!(segments(&[]).is_empty());
    }

    #[test]
    fn lifecycle_reports_timeline_and_totals() {
        let text = lifecycle(&sample_trace(), None);
        assert!(text.contains("minidisk 3 decommissioned"), "{text}");
        assert!(text.contains("cause: LevelShortfall"), "{text}");
        assert!(text.contains("minidisk 3 purged"), "{text}");
        assert!(text.contains("minidisk 9 regenerated at L1"), "{text}");
        assert!(text.contains("device died (FullyShrunk)"), "{text}");
        assert!(text.contains("2 level transitions"), "{text}");
        assert!(text.contains("1 GC passes (32 oPages relocated)"), "{text}");
    }

    #[test]
    fn lifecycle_filters_by_mdisk_but_keeps_totals() {
        let text = lifecycle(&sample_trace(), Some(9));
        assert!(text.contains("minidisk 9 regenerated"), "{text}");
        assert!(!text.contains("minidisk 3 decommissioned"), "{text}");
        assert!(
            text.contains("2 level transitions"),
            "totals whole segment: {text}"
        );
    }

    #[test]
    fn why_explains_the_decommission() {
        let text = why(&sample_trace(), Some(3));
        assert!(text.contains("why: minidisk 3"), "{text}");
        assert!(text.contains("LevelShortfall"), "{text}");
        assert!(
            text.contains("page level transitions: 2 (L0→L1: 2)"),
            "{text}"
        );
        assert!(
            text.contains("GC passes: 1 (32 oPages relocated)"),
            "{text}"
        );
        assert!(text.contains("2 retries"), "{text}");
        assert!(text.contains("purged before ack"), "{text}");
        assert!(text.contains("minidisk 9 regenerated at L1"), "{text}");
        assert!(text.contains("device died (FullyShrunk)"), "{text}");
    }

    #[test]
    fn why_defaults_to_first_decommissioned() {
        let text = why(&sample_trace(), None);
        assert!(text.contains("why: minidisk 3"), "{text}");
    }

    #[test]
    fn why_reports_missing_mdisk_gracefully() {
        let text = why(&sample_trace(), Some(42));
        assert!(
            text.contains("minidisk 42 was never decommissioned"),
            "{text}"
        );
        assert!(text.contains("[3]"), "lists candidates: {text}");
        let none = why(&[], None);
        assert!(none.contains("no minidisk was decommissioned"), "{none}");
    }

    #[test]
    fn fleet_rollup_tables_and_csv() {
        let trace = vec![
            rec(
                0,
                10,
                0,
                TraceEvent::FleetDeviceDied {
                    device: 2,
                    cause: DeathCause::Wear,
                },
            ),
            rec(
                1,
                4,
                0,
                TraceEvent::FleetDeviceDied {
                    device: 7,
                    cause: DeathCause::Afr,
                },
            ),
            rec(2, 11, 0, TraceEvent::ChunkLost { chunk: 9 }),
            rec(
                3,
                12,
                0,
                TraceEvent::ChunkReReplicated {
                    chunk: 1,
                    bytes: 4096,
                },
            ),
        ];
        let table = fleet_rollup(&trace, false);
        assert!(table.contains("2 device deaths"), "{table}");
        assert!(table.contains("1 chunks lost"), "{table}");
        assert!(table.contains("4096 bytes re-replicated"), "{table}");
        let csv = fleet_rollup(&trace, true);
        // Sorted by device index, not emission order.
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "device,died_day,cause");
        assert_eq!(lines[1], "2,10,Wear");
        assert_eq!(lines[2], "7,4,Afr");
    }

    /// A trace shaped like a real run: long stretches of high-volume
    /// wear/GC noise with sparse lifecycle anchors, so small chunks
    /// give the index real skipping opportunities.
    fn bulky_trace() -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut push = |out: &mut Vec<TraceRecord>, day: u32, event: TraceEvent| {
            out.push(rec(seq, day, seq * 10, event));
            seq += 1;
        };
        push(
            &mut out,
            0,
            TraceEvent::RunMarker {
                label: "mode=ShrinkS".into(),
            },
        );
        for i in 0..400u64 {
            let day = (i / 10) as u32 + 1;
            push(
                &mut out,
                day,
                TraceEvent::PageTired {
                    fpage: i,
                    from: (i % 4) as u8,
                    to: (i % 4) as u8 + 1,
                },
            );
            if i % 7 == 0 {
                push(
                    &mut out,
                    day,
                    TraceEvent::GcPass {
                        block: i,
                        relocated: 16,
                    },
                );
            }
            if i % 13 == 0 {
                push(
                    &mut out,
                    day,
                    TraceEvent::ReadRetry {
                        mdisk: (i % 5) as u32,
                        retries: 1,
                    },
                );
            }
            if i % 31 == 0 {
                push(&mut out, day, TraceEvent::PageRetired { fpage: i, from: 4 });
            }
        }
        push(
            &mut out,
            41,
            TraceEvent::MdiskDecommissioned {
                id: 3,
                valid_lbas: 99,
                draining: true,
                cause: DecommissionCause::GcHeadroom,
            },
        );
        for i in 400..600u64 {
            push(
                &mut out,
                42,
                TraceEvent::ScrubRefresh {
                    fpage: i,
                    opages: 4,
                },
            );
        }
        push(&mut out, 43, TraceEvent::MdiskPurged { id: 3 });
        push(
            &mut out,
            44,
            TraceEvent::FleetDeviceDied {
                device: 1,
                cause: DeathCause::Wear,
            },
        );
        push(
            &mut out,
            45,
            TraceEvent::ChunkReReplicated {
                chunk: 7,
                bytes: 8192,
            },
        );
        out
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("salamander-query-{}-{name}", std::process::id()))
    }

    #[test]
    fn indexed_queries_match_flat_queries_and_skip_chunks() {
        use salamander_obs::strc::{write_strc, StrcReader};
        let records = bulky_trace();
        let path = tmp("indexed.strc");
        // 32-record chunks: the bulk of the trace is summary-only.
        write_strc(&path, &records, 32).unwrap();

        for mdisk in [None, Some(3), Some(42)] {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Lifecycle(mdisk)
                    .run(TraceSource::Strc(&mut r))
                    .unwrap(),
                lifecycle(&records, mdisk),
                "lifecycle mdisk={mdisk:?}"
            );
            assert!(
                (r.chunks_decoded as usize) < r.chunk_count(),
                "lifecycle decoded every chunk ({} of {})",
                r.chunks_decoded,
                r.chunk_count()
            );

            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Why(mdisk).run(TraceSource::Strc(&mut r)).unwrap(),
                why(&records, mdisk),
                "why mdisk={mdisk:?}"
            );
        }

        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Fleet(false).run(TraceSource::Strc(&mut r)).unwrap(),
            fleet_rollup(&records, false)
        );
        assert!((r.chunks_decoded as usize) < r.chunk_count());
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Fleet(true).run(TraceSource::Strc(&mut r)).unwrap(),
            fleet_rollup(&records, true)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn indexed_queries_handle_empty_traces() {
        use salamander_obs::strc::{write_strc, StrcReader};
        let path = tmp("indexed-empty.strc");
        write_strc(&path, &[], 32).unwrap();
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Lifecycle(None)
                .run(TraceSource::Strc(&mut r))
                .unwrap(),
            lifecycle(&[], None)
        );
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Why(None).run(TraceSource::Strc(&mut r)).unwrap(),
            why(&[], None)
        );
        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Fleet(false).run(TraceSource::Strc(&mut r)).unwrap(),
            fleet_rollup(&[], false)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A two-segment fleet trace: per-day rollups interleaved with
    /// death events and enough noise that small chunks give the index
    /// something to skip.
    fn rollup_trace() -> Vec<TraceRecord> {
        use salamander_obs::DIST_BUCKETS;
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut push = |out: &mut Vec<TraceRecord>, day: u32, event: TraceEvent| {
            out.push(rec(seq, day, 0, event));
            seq += 1;
        };
        for label in ["fleet=Baseline", "fleet=ShrinkS"] {
            push(
                &mut out,
                0,
                TraceEvent::RunMarker {
                    label: label.into(),
                },
            );
            for i in 0..30u32 {
                let day = (i + 1) * 30;
                // Noise the rollup queries never print — enough of it
                // that whole chunks contain no rollup and the decode
                // mask has something to skip.
                for j in 0..40u64 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::GcPass {
                            block: u64::from(i) * 8 + j,
                            relocated: 4,
                        },
                    );
                }
                if i % 5 == 4 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::FleetDeviceDied {
                            device: i,
                            cause: DeathCause::Wear,
                        },
                    );
                }
                let dead = i / 5;
                let mut wear = vec![0u32; DIST_BUCKETS];
                wear[(i as usize / 3).min(19)] = 100 - dead;
                let mut health = vec![0u32; DIST_BUCKETS];
                health[19 - (i as usize / 4).min(19)] = 100 - dead;
                push(
                    &mut out,
                    day,
                    TraceEvent::FleetRollup(salamander_obs::FleetRollup {
                        day,
                        alive: 100 - dead,
                        dead_wear: dead,
                        dead_afr: 0,
                        dying: i / 10,
                        capacity_opages: u64::from(100 - dead) * 5000,
                        wear,
                        pec: vec![0; DIST_BUCKETS],
                        usable: vec![0; DIST_BUCKETS],
                        health,
                    }),
                );
            }
        }
        out
    }

    #[test]
    fn fleet_timeline_renders_per_segment_series() {
        let trace = rollup_trace();
        let text = fleet_timeline(&trace);
        assert!(
            text.contains("== fleet=Baseline (30 sampled days)"),
            "{text}"
        );
        assert!(
            text.contains("== fleet=ShrinkS (30 sampled days)"),
            "{text}"
        );
        // Day 900 (i=29): 5 dead, wear median in bucket 9 -> 500‰.
        let day900: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("900"))
            .collect();
        assert_eq!(day900.len(), 2, "{text}");
        assert!(day900[0].contains("95"), "{text}");
        assert!(day900[0].contains("500"), "{text}");
        assert!(fleet_timeline(&[]).contains("no fleet rollups recorded"));
    }

    #[test]
    fn percentiles_pin_bucket_edges() {
        let trace = rollup_trace();
        let text = percentiles(&trace, "wear");
        assert!(
            text.contains("== fleet=Baseline — wear distribution"),
            "{text}"
        );
        // Every device sits in one bucket, so all percentiles agree:
        // day 30 (i=0) -> bucket 0 -> 50‰ everywhere.
        let day30 = text
            .lines()
            .find(|l| l.trim_start().starts_with("30 "))
            .unwrap();
        assert_eq!(
            day30.split_whitespace().collect::<Vec<_>>(),
            vec!["30", "50", "50", "50", "50", "50"],
            "{text}"
        );
        assert!(percentiles(&trace, "bogus").contains("unknown distribution"),);
        assert!(percentiles(&[], "wear").contains("no fleet rollups recorded"));
    }

    #[test]
    fn drill_reports_day_detail_and_misses_gracefully() {
        let trace = rollup_trace();
        let text = drill(&trace, 900);
        assert!(text.contains("== fleet=Baseline — day 900"), "{text}");
        assert!(
            text.contains("alive 95, dead 5 (wear 5, afr 0), dying 2"),
            "{text}"
        );
        assert!(text.contains("committed capacity: 475000 oPages"), "{text}");
        assert!(text.contains("wear  : p1=500"), "{text}");
        assert!(text.contains("| buckets 9:95"), "{text}");
        // The steady synthetic fleet flags nothing — that is asserted,
        // not ignored, so a future detector change shows up here.
        assert!(text.contains("no fleet anomalies flagged"), "{text}");
        let miss = drill(&trace, 901);
        assert!(
            miss.contains("no rollup at day 901 (sampled days: 30..900, 30 samples)"),
            "{miss}"
        );
    }

    #[test]
    fn rollup_queries_match_indexed_and_skip_chunks() {
        use salamander_obs::strc::{write_strc, StrcReader};
        let records = rollup_trace();
        let path = tmp("rollup-queries.strc");
        write_strc(&path, &records, 16).unwrap();

        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::FleetTimeline.run(TraceSource::Strc(&mut r)).unwrap(),
            fleet_timeline(&records)
        );
        assert!(
            (r.chunks_decoded as usize) < r.chunk_count(),
            "timeline decoded every chunk ({} of {})",
            r.chunks_decoded,
            r.chunk_count()
        );

        for metric in DIST_NAMES {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Percentiles(metric)
                    .run(TraceSource::Strc(&mut r))
                    .unwrap(),
                percentiles(&records, metric),
                "percentiles {metric}"
            );
        }

        for day in [30, 900, 901] {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Drill(day).run(TraceSource::Strc(&mut r)).unwrap(),
                drill(&records, day),
                "drill {day}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A latency-bearing trace: per-sample latency rollups (host reads
    /// drifting from the L0 to the L1 bucket, with a late p99 jump)
    /// buried in enough GC noise that small chunks give the latency
    /// decode mask something to skip.
    fn latency_trace() -> Vec<TraceRecord> {
        use salamander_obs::LatencyRollup;
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut push = |out: &mut Vec<TraceRecord>, day: u32, event: TraceEvent| {
            out.push(rec(seq, day, 0, event));
            seq += 1;
        };
        push(
            &mut out,
            0,
            TraceEvent::RunMarker {
                label: "mode=RegenS".into(),
            },
        );
        for day in 1..=30u32 {
            for j in 0..40u64 {
                push(
                    &mut out,
                    day,
                    TraceEvent::GcPass {
                        block: u64::from(day) * 64 + j,
                        relocated: 4,
                    },
                );
            }
            let mut r = LatencyRollup::empty(day);
            // Reads: mostly the L0 sense cost, an L1 share growing with
            // the day, and on day 30 a 10x tail burst.
            r.classes[0].observe(60_120, 100);
            r.classes[0].observe(76_786, u64::from(day) * 4);
            if day == 30 {
                r.classes[0].observe(600_000, 5);
            }
            r.classes[1].observe(605_120, 50);
            push(&mut out, day, TraceEvent::LatencyRollup(r));
        }
        out
    }

    #[test]
    fn latency_renders_class_tables_and_validates() {
        let trace = latency_trace();
        let text = latency(&trace, None);
        assert!(text.contains("== mode=RegenS (30 sampled days)"), "{text}");
        assert!(text.contains("-- host_read"), "{text}");
        assert!(text.contains("-- host_write"), "{text}");
        // Unpopulated classes are silent unless asked for.
        assert!(!text.contains("-- scrub"), "{text}");
        // Day 1: 100 reads at 60.120us + 4 at 76.786us -> p50 at the
        // L0 bucket edge (61.440us), p99 at the L1 edge (81.920us).
        let day1 = text
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(day1.contains("104"), "{day1}");
        assert!(day1.contains("61.440us"), "{day1}");
        assert!(day1.contains("81.920us"), "{day1}");
        let filtered = latency(&trace, Some("host_write"));
        assert!(filtered.contains("-- host_write"), "{filtered}");
        assert!(!filtered.contains("-- host_read"), "{filtered}");
        let empty_class = latency(&trace, Some("scrub"));
        assert!(
            empty_class.contains("-- scrub: no samples recorded"),
            "{empty_class}"
        );
        assert!(
            latency(&trace, Some("bogus")).contains("unknown latency class 'bogus'"),
            "class names are validated"
        );
        assert!(latency(&[], None).contains("no latency rollups recorded"));
    }

    #[test]
    fn latency_flags_tail_regressions() {
        let text = latency(&latency_trace(), Some("host_read"));
        // The day-30 burst deviates from 29 days of steady history.
        assert!(text.contains("tail-latency regressions"), "{text}");
        assert!(text.contains("day    30: host_read"), "{text}");
    }

    #[test]
    fn latency_and_drill_match_indexed_and_skip_chunks() {
        use salamander_obs::strc::{write_strc, StrcReader};
        let records = latency_trace();
        let path = tmp("latency-queries.strc");
        write_strc(&path, &records, 16).unwrap();

        for class in [None, Some("host_read"), Some("gc")] {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Latency(class)
                    .run(TraceSource::Strc(&mut r))
                    .unwrap(),
                latency(&records, class),
                "latency class={class:?}"
            );
            assert!(
                (r.chunks_decoded as usize) < r.chunk_count(),
                "latency decoded every chunk ({} of {})",
                r.chunks_decoded,
                r.chunk_count()
            );
        }

        // Drill shows the day's latency distributions from the same
        // record, identically over both forms, still skipping chunks.
        for day in [1, 30, 99] {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Drill(day).run(TraceSource::Strc(&mut r)).unwrap(),
                drill(&records, day),
                "drill {day}"
            );
            assert!((r.chunks_decoded as usize) < r.chunk_count());
        }
        let text = drill(&records, 30);
        assert!(text.contains("latency (log2-bucket upper edges)"), "{text}");
        assert!(text.contains("host_read : count 225"), "{text}");
        assert!(text.contains("tail_latency_regression"), "{text}");
        let miss = drill(&records, 99);
        assert!(
            miss.contains("no rollup at day 99 (sampled days: 1..30, 30 samples)"),
            "{miss}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A cluster-bearing trace: per-tick durability rollups — a
    /// failure burst at tick 20 that repair drains over the next four
    /// ticks — buried in GC noise so small chunks give the cluster
    /// decode mask something to skip, plus a short second segment that
    /// loses chunks outright.
    fn cluster_trace() -> Vec<TraceRecord> {
        use salamander_obs::cluster::exposure_bucket;
        use salamander_obs::EXPOSURE_BUCKETS;
        const CHUNK: u64 = 65_536;
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut push = |out: &mut Vec<TraceRecord>, day: u32, event: TraceEvent| {
            out.push(rec(seq, day, 0, event));
            seq += 1;
        };
        push(
            &mut out,
            0,
            TraceEvent::RunMarker {
                label: "cluster=Shrink".into(),
            },
        );
        let mut exposure = vec![0u64; EXPOSURE_BUCKETS];
        let mut windows = 0u64;
        let mut repaired = 0u64;
        for tick in 1..=30u32 {
            for j in 0..40u64 {
                push(
                    &mut out,
                    tick,
                    TraceEvent::GcPass {
                        block: u64::from(tick) * 64 + j,
                        relocated: 4,
                    },
                );
            }
            if (21..=24).contains(&tick) {
                // 10 of the tick-20 casualties repair per tick; their
                // windows close with dwell = tick - 20.
                exposure[exposure_bucket(u64::from(tick - 20))] += 10;
                windows += 10;
                repaired += 10;
            }
            let exposed = if (20..=23).contains(&tick) {
                40 - repaired
            } else {
                0
            };
            let mut r = ClusterRollup::empty(tick);
            r.full = 500 - exposed;
            r.degraded = exposed;
            r.backlog_chunks = exposed;
            r.backlog_bytes = exposed * CHUNK;
            r.repair_bytes = repaired * CHUNK;
            r.drain_bytes = if tick >= 10 { 3 * CHUNK } else { 0 };
            r.data_at_risk = exposed * CHUNK * u64::from(tick.saturating_sub(20));
            r.fullness[8] = 6;
            r.exposure = exposure.clone();
            r.exposure_windows = windows;
            push(&mut out, tick, TraceEvent::ClusterRollup(r));
        }
        push(
            &mut out,
            0,
            TraceEvent::RunMarker {
                label: "cluster=Loss".into(),
            },
        );
        for tick in 1..=12u32 {
            for j in 0..20u64 {
                push(
                    &mut out,
                    tick,
                    TraceEvent::GcPass {
                        block: 10_000 + u64::from(tick) * 32 + j,
                        relocated: 4,
                    },
                );
            }
            let mut r = ClusterRollup::empty(tick);
            r.full = 64;
            if tick >= 10 {
                r.lost = 2;
                r.exposure[exposure_bucket(5)] = 2;
                r.exposure_windows = 2;
            }
            push(&mut out, tick, TraceEvent::ClusterRollup(r));
        }
        out
    }

    #[test]
    fn cluster_renders_timeline_and_flags_storms() {
        let trace = cluster_trace();
        let text = cluster(&trace);
        assert!(
            text.contains("== cluster=Shrink (30 sampled ticks)"),
            "{text}"
        );
        let tick20 = text
            .lines()
            .find(|l| l.trim_start().starts_with("20 "))
            .unwrap();
        let cols: Vec<&str> = tick20.split_whitespace().collect();
        assert_eq!(
            cols,
            vec!["20", "460", "40", "0", "0", "40", "2621440", "0", "196608"],
            "{text}"
        );
        // The tick-20 backlog jump deviates from 19 flat ticks.
        assert!(text.contains("recovery anomalies"), "{text}");
        assert!(text.contains("recovery_storm"), "{text}");
        // The second segment's lost transition flags immediately.
        assert!(
            text.contains("== cluster=Loss (12 sampled ticks)"),
            "{text}"
        );
        assert!(text.contains("data_loss"), "{text}");
        assert!(cluster(&[]).contains("no cluster rollups recorded"));
    }

    #[test]
    fn exposure_reports_dwell_percentiles() {
        let trace = cluster_trace();
        let text = exposure(&trace);
        assert!(
            text.contains("== cluster=Shrink — replication-exposure windows over 30 sampled ticks"),
            "{text}"
        );
        assert!(text.contains("windows closed: 40"), "{text}");
        // 10 windows each of dwell 1,2,3,4 ticks: log2 buckets <2:10
        // <4:20 <8:10, nearest-rank p50 at rank 20 -> <4, p90/p99 -> <8.
        assert!(text.contains("p50<4 p90<8 p99<8"), "{text}");
        assert!(
            text.contains("dwell buckets (ticks): <2:10 <4:20 <8:10"),
            "{text}"
        );
        assert!(
            text.contains("open at end: 0 chunks exposed, data at risk 0 byte-ticks"),
            "{text}"
        );
        assert!(text.contains("lost outright: 2"), "{text}");
        assert!(exposure(&[]).contains("no cluster rollups recorded"));
    }

    #[test]
    fn drill_shows_cluster_section() {
        let trace = cluster_trace();
        let text = drill(&trace, 20);
        assert!(text.contains("== cluster=Shrink — day 20"), "{text}");
        assert!(text.contains("cluster durability:"), "{text}");
        assert!(
            text.contains("chunks: full 460, degraded 40, critical 0, lost 0"),
            "{text}"
        );
        assert!(
            text.contains("recovery backlog: 40 chunks (2621440 bytes)"),
            "{text}"
        );
        assert!(
            text.contains("recovery traffic (cumulative): repair 0 bytes, drain 196608 bytes"),
            "{text}"
        );
        assert!(text.contains("unit fullness buckets: 8:6"), "{text}");
        assert!(text.contains("recovery_storm"), "{text}");
        let miss = drill(&trace, 99);
        assert!(
            miss.contains("no rollup at day 99 (sampled days: 1..30, 30 samples)"),
            "{miss}"
        );
    }

    #[test]
    fn cluster_queries_match_indexed_and_skip_chunks() {
        use salamander_obs::strc::{write_strc, StrcReader};
        let records = cluster_trace();
        let path = tmp("cluster-queries.strc");
        write_strc(&path, &records, 16).unwrap();

        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Cluster.run(TraceSource::Strc(&mut r)).unwrap(),
            cluster(&records)
        );
        assert!(
            (r.chunks_decoded as usize) < r.chunk_count(),
            "cluster decoded every chunk ({} of {})",
            r.chunks_decoded,
            r.chunk_count()
        );

        let mut r = StrcReader::open(&path).unwrap();
        assert_eq!(
            Query::Exposure.run(TraceSource::Strc(&mut r)).unwrap(),
            exposure(&records)
        );
        assert!((r.chunks_decoded as usize) < r.chunk_count());

        for day in [1, 20, 24, 99] {
            let mut r = StrcReader::open(&path).unwrap();
            assert_eq!(
                Query::Drill(day).run(TraceSource::Strc(&mut r)).unwrap(),
                drill(&records, day),
                "drill {day}"
            );
            assert!((r.chunks_decoded as usize) < r.chunk_count());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Two runs densely mixing all 17 event kinds, so most chunks decode
    /// under every query mask and fold the other kinds into gaps; the
    /// second run's `RunMarker` falls in the middle of a chunk.
    fn mixed_trace() -> Vec<TraceRecord> {
        use salamander_obs::{FleetRollup, LatencyRollup, DIST_BUCKETS};
        let mut out = Vec::new();
        let push = |out: &mut Vec<TraceRecord>, day: u32, event: TraceEvent| {
            let seq = out.len() as u64;
            out.push(rec(seq, day, seq, event));
        };
        for (run, label) in ["mode=ShrinkS", "mode=RegenS"].into_iter().enumerate() {
            let label = label.to_string();
            push(&mut out, 0, TraceEvent::RunMarker { label });
            for day in 1..=40u32 {
                let (i, md) = (u64::from(day), day % 7);
                let level = (day % 4) as u8;
                push(
                    &mut out,
                    day,
                    TraceEvent::PageTired {
                        fpage: i,
                        from: level,
                        to: level + 1,
                    },
                );
                push(
                    &mut out,
                    day,
                    TraceEvent::GcPass {
                        block: i,
                        relocated: i * 3,
                    },
                );
                push(
                    &mut out,
                    day,
                    TraceEvent::ReadRetry {
                        mdisk: md,
                        retries: day % 3 + 1,
                    },
                );
                push(
                    &mut out,
                    day,
                    TraceEvent::ScrubRefresh {
                        fpage: i,
                        opages: 4,
                    },
                );
                if day % 3 == 0 {
                    push(&mut out, day, TraceEvent::PageRetired { fpage: i, from: 4 });
                }
                if day % 5 == 0 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::UncorrectableRead {
                            mdisk: md,
                            lba: day,
                        },
                    );
                }
                if day % 4 == 0 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::ChunkReReplicated {
                            chunk: i,
                            bytes: 4096 * i,
                        },
                    );
                }
                if day % 9 == 0 {
                    push(&mut out, day, TraceEvent::ChunkLost { chunk: i });
                }
                if day % 8 == 0 {
                    // Minidisks 1..=5 are decommissioned; 0 and 6 never.
                    push(
                        &mut out,
                        day,
                        TraceEvent::MdiskDecommissioned {
                            id: md,
                            valid_lbas: day,
                            draining: day % 16 == 0,
                            cause: if run == 0 {
                                DecommissionCause::GcHeadroom
                            } else {
                                DecommissionCause::LevelShortfall
                            },
                        },
                    );
                    push(&mut out, day, TraceEvent::MdiskPurged { id: md });
                }
                if day % 11 == 0 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::MdiskRegenerated {
                            id: md + 10,
                            level: 1,
                        },
                    );
                }
                if day % 13 == 0 {
                    push(
                        &mut out,
                        day,
                        TraceEvent::FleetDeviceDied {
                            device: day,
                            cause: DeathCause::Wear,
                        },
                    );
                }
                if day % 10 == 0 {
                    let mut wear = vec![0u32; DIST_BUCKETS];
                    wear[(day / 3) as usize % DIST_BUCKETS] = 90;
                    push(
                        &mut out,
                        day,
                        TraceEvent::FleetRollup(FleetRollup {
                            day,
                            alive: 100 - day,
                            dead_wear: day / 10,
                            dead_afr: 0,
                            dying: 1,
                            capacity_opages: u64::from(100 - day) * 5000,
                            wear,
                            pec: vec![1; DIST_BUCKETS],
                            usable: vec![0; DIST_BUCKETS],
                            health: vec![2; DIST_BUCKETS],
                        }),
                    );
                    let mut lat = LatencyRollup::empty(day);
                    lat.classes[0].observe(60_120, 100 + i);
                    lat.classes[1].observe(605_120, 50);
                    push(&mut out, day, TraceEvent::LatencyRollup(lat));
                    let mut cl = ClusterRollup::empty(day);
                    cl.full = 500 - i;
                    cl.degraded = i;
                    cl.repair_bytes = i << 16;
                    cl.exposure[1] = i;
                    cl.exposure_windows = i;
                    push(&mut out, day, TraceEvent::ClusterRollup(cl));
                }
            }
            push(
                &mut out,
                41,
                TraceEvent::DeviceDied {
                    cause: DeathCause::FullyShrunk,
                },
            );
        }
        out
    }

    #[test]
    fn every_strc_query_matches_the_records_across_gaps() {
        use salamander_obs::strc::{write_strc, StrcReader};
        use salamander_obs::LAT_CLASSES;
        const CHUNK: usize = 16;
        let records = mixed_trace();
        let second_marker = records
            .iter()
            .rposition(|r| matches!(r.event, TraceEvent::RunMarker { .. }))
            .unwrap();
        assert_ne!(second_marker % CHUNK, 0, "marker must sit mid-chunk");
        let path = tmp("mixed.strc");
        write_strc(&path, &records, CHUNK).unwrap();
        let open = || StrcReader::open(&path).unwrap();

        // The lifecycle walk really does fold records into gaps.
        let chunks = load_chunks(&mut open(), lifecycle_decode_mask(), None).unwrap();
        assert!(chunks.iter().any(|c| matches!(
            c,
            TraceChunk::Records(rs) if rs.parts().any(|p| matches!(p, Item::Gap(_)))
        )));

        // Minidisk 3 was decommissioned; 6 never was.
        for mdisk in [None, Some(3), Some(6)] {
            assert_eq!(
                Query::Lifecycle(mdisk)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                lifecycle(&records, mdisk),
                "lifecycle {mdisk:?}"
            );
            assert_eq!(
                Query::Why(mdisk)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                why(&records, mdisk),
                "why {mdisk:?}"
            );
        }
        assert!(why(&records, Some(3)).contains("why: minidisk 3"));
        assert!(why(&records, Some(6)).contains("never decommissioned"));
        for csv in [false, true] {
            assert_eq!(
                Query::Fleet(csv)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                fleet_rollup(&records, csv)
            );
        }
        assert_eq!(
            Query::FleetTimeline
                .run(TraceSource::Strc(&mut open()))
                .unwrap(),
            fleet_timeline(&records)
        );
        for metric in DIST_NAMES {
            assert_eq!(
                Query::Percentiles(metric)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                percentiles(&records, metric),
                "percentiles {metric}"
            );
        }
        for class in std::iter::once(None).chain(LAT_CLASSES.iter().copied().map(Some)) {
            assert_eq!(
                Query::Latency(class)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                latency(&records, class),
                "latency {class:?}"
            );
        }
        assert_eq!(
            Query::Cluster.run(TraceSource::Strc(&mut open())).unwrap(),
            cluster(&records)
        );
        assert_eq!(
            Query::Exposure.run(TraceSource::Strc(&mut open())).unwrap(),
            exposure(&records)
        );
        for day in [10, 20, 40, 99] {
            assert_eq!(
                Query::Drill(day)
                    .run(TraceSource::Strc(&mut open()))
                    .unwrap(),
                drill(&records, day),
                "drill {day}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prom_parse_and_diff() {
        let a = "# TYPE x counter\nx_total 5\ng{day=\"1\"} 2\nonly_a 1\n";
        let b = "# TYPE x counter\nx_total 6\ng{day=\"1\"} 2\nonly_b 3\n";
        let parsed = parse_prom(a);
        assert_eq!(parsed.get("x_total").map(String::as_str), Some("5"));
        assert_eq!(parsed.len(), 3);
        let diff = diff_prom(a, b);
        assert!(diff.contains("~ x_total 5 -> 6"), "{diff}");
        assert!(diff.contains("- only_a 1"), "{diff}");
        assert!(diff.contains("+ only_b 3"), "{diff}");
        assert!(
            diff.contains("1 series added, 1 removed, 1 changed"),
            "{diff}"
        );
        let same = diff_prom(a, a);
        assert_eq!(same, "0 series added, 0 removed, 0 changed\n");
    }
}
