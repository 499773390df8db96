//! Property tests for the indexed binary flight-recorder format:
//! every event the taxonomy can express must survive a JSONL ↔ `.strc`
//! round-trip bit-exactly, at any chunk size (including 1-record
//! chunks and boundary-straddling traces), across rotation, and the
//! footer index must agree with the records it summarizes. A
//! kind-selective walk must build exactly the masked records, fold the
//! rest into exact gap summaries, and fail exactly when a full decode
//! does.

mod common;

use common::{cluster_rollup_strategy, latency_rollup_strategy, record_strategy};
use proptest::prelude::*;
use salamander_obs::event::{SimTime, TraceEvent, TraceRecord};
use salamander_obs::strc::{
    convert_file, decode_chunk, encode_record, read_strc, summarize, write_strc, ChunkPart,
    ChunkRecords, EventKind, RotatingStrcWriter, StrcReader, ALL_KINDS,
};
use salamander_obs::trace::to_jsonl;
use std::path::PathBuf;

/// A per-case temp path; proptest shrinks re-run cases, so the file is
/// removed before each return path.
fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "salamander-prop-strc-{}-{case}-{name}",
        std::process::id()
    ))
}

/// The decode masks the `health::query` entry points use (lifecycle,
/// why, why's read path, fleet, rollup series, latency, cluster, drill).
fn query_masks() -> Vec<u32> {
    use EventKind::*;
    let anchors = [
        RunMarker,
        MdiskDecommissioned,
        MdiskPurged,
        MdiskRegenerated,
        DeviceDied,
    ];
    let lifecycle = [
        &anchors[..],
        &[FleetDeviceDied, ChunkLost, UncorrectableRead],
    ]
    .concat();
    let why_read_path = [&anchors[..], &[ReadRetry, UncorrectableRead]].concat();
    vec![
        EventKind::mask(&lifecycle),
        EventKind::mask(&anchors),
        EventKind::mask(&why_read_path),
        EventKind::mask(&[FleetDeviceDied]),
        EventKind::mask(&[RunMarker, FleetRollup]),
        EventKind::mask(&[RunMarker, LatencyRollup]),
        EventKind::mask(&[RunMarker, ClusterRollup]),
        EventKind::mask(&[RunMarker, FleetRollup, LatencyRollup, ClusterRollup]),
    ]
}

/// Any mask at all, or one a query uses.
fn mask_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (0usize..8).prop_map(|i| query_masks()[i]),
        Just(0u32),
        Just(ALL_KINDS),
    ]
}

/// Check a selective walk against the full records of the same chunk:
/// (a) the built records are the masked ones, in order; (b) each gap is
/// `summarize` of the maximal run of unmasked records it stands for;
/// (c) built plus elided records account for the whole chunk.
fn check_walk(walk: &ChunkRecords, full: &[TraceRecord], mask: u32) -> Result<(), TestCaseError> {
    let masked = |r: &TraceRecord| EventKind::of(&r.event).bit() & mask != 0;
    let wanted: Vec<&TraceRecord> = full.iter().filter(|r| masked(r)).collect();
    prop_assert_eq!(walk.iter().collect::<Vec<_>>(), wanted);
    let mut rest = full;
    let mut last_was_gap = false;
    for part in walk.parts() {
        match part {
            ChunkPart::Record(r) => {
                prop_assert_eq!(r, &rest[0]);
                rest = &rest[1..];
                last_was_gap = false;
            }
            ChunkPart::Gap(g) => {
                prop_assert!(!last_was_gap, "two gaps in a row");
                let run = rest.iter().take_while(|r| !masked(r)).count();
                prop_assert!(run > 0, "empty gap");
                prop_assert_eq!(g, &summarize(&rest[..run]));
                rest = &rest[run..];
                last_was_gap = true;
            }
        }
    }
    prop_assert!(rest.is_empty(), "{} records unaccounted for", rest.len());
    prop_assert_eq!(walk.record_count(), full.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selective_walk_builds_the_mask_and_folds_exact_gaps(
        records in proptest::collection::vec(record_strategy(), 0..60),
        chunk_records in 1usize..12,
        masks in proptest::collection::vec(mask_strategy(), 1..4),
        case in any::<u64>(),
    ) {
        let path = tmp("walk.strc", case);
        write_strc(&path, &records, chunk_records).unwrap();
        let mut reader = StrcReader::open(&path).unwrap();
        let all: Vec<u32> = masks.into_iter().chain(query_masks()).collect();
        for i in 0..reader.chunk_count() {
            let full = reader.read_chunk(i).unwrap();
            for &mask in &all {
                let walk = reader.read_chunk_kinds(i, mask).unwrap();
                check_walk(&walk, &full, mask)?;
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strc_round_trips_at_any_chunk_size(
        records in proptest::collection::vec(record_strategy(), 0..60),
        chunk_records in 1usize..10,
        case in any::<u64>(),
    ) {
        let path = tmp("roundtrip.strc", case);
        write_strc(&path, &records, chunk_records).unwrap();
        let back = read_strc(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn footer_index_matches_the_records(
        records in proptest::collection::vec(record_strategy(), 0..60),
        chunk_records in 1usize..10,
        case in any::<u64>(),
    ) {
        let path = tmp("index.strc", case);
        write_strc(&path, &records, chunk_records).unwrap();
        let mut reader = StrcReader::open(&path).unwrap();
        prop_assert_eq!(reader.record_count(), records.len() as u64);
        let expected_chunks = records.len().div_ceil(chunk_records);
        prop_assert_eq!(reader.chunk_count(), expected_chunks);
        for i in 0..reader.chunk_count() {
            let chunk = reader.read_chunk(i).unwrap();
            prop_assert_eq!(&chunk[..], &records[i * chunk_records..(i * chunk_records + chunk.len())]);
            // The stored summary equals a fresh fold over the decoded
            // records (offsets aside, which only the writer knows).
            let mut fresh = summarize(&chunk);
            let stored = &reader.summaries()[i];
            fresh.offset = stored.offset;
            fresh.byte_len = stored.byte_len;
            prop_assert_eq!(&fresh, stored);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_preserves_records_across_files(
        records in proptest::collection::vec(record_strategy(), 0..80),
        max_kib in 1u64..4,
        case in any::<u64>(),
    ) {
        let stem = tmp("rot", case);
        // Tiny size cap (1–3 KiB) with small chunks: most cases rotate
        // several times, and chunk flushes land on rotation boundaries.
        let mut w = RotatingStrcWriter::new(&stem, max_kib * 1024, 4);
        for r in &records {
            w.push(r).unwrap();
        }
        let paths = w.finish().unwrap();
        let mut back: Vec<TraceRecord> = Vec::new();
        for p in &paths {
            back.extend(read_strc(p).unwrap());
        }
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        prop_assert_eq!(back, records);
    }

    #[test]
    fn latency_rollups_round_trip_at_any_chunk_size(
        rollups in proptest::collection::vec(latency_rollup_strategy(), 0..8),
        chunk_records in 1usize..5,
        case in any::<u64>(),
    ) {
        // ISSUE 9: arbitrary LatencyRollups — any class count, any bin
        // widths, any counter values — survive JSONL ↔ .strc at any
        // chunk size, byte-exactly in both directions.
        let records: Vec<TraceRecord> = rollups
            .into_iter()
            .enumerate()
            .map(|(i, r)| TraceRecord {
                seq: i as u64,
                time: SimTime::new(r.day, i as u64),
                event: TraceEvent::LatencyRollup(r),
            })
            .collect();
        let strc = tmp("lat.strc", case);
        let jsonl = tmp("lat.jsonl", case);
        write_strc(&strc, &records, chunk_records).unwrap();
        let back = read_strc(&strc).unwrap();
        let n = convert_file(&strc, &jsonl).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let _ = std::fs::remove_file(&strc);
        let _ = std::fs::remove_file(&jsonl);
        prop_assert_eq!(n, records.len() as u64);
        prop_assert_eq!(text, to_jsonl(&records));
        prop_assert_eq!(back, records);
    }

    #[test]
    fn cluster_rollups_round_trip_at_any_chunk_size(
        rollups in proptest::collection::vec(cluster_rollup_strategy(), 0..8),
        chunk_records in 1usize..5,
        case in any::<u64>(),
    ) {
        // ISSUE 10: arbitrary ClusterRollups — any counter values, any
        // histogram lengths — survive JSONL ↔ .strc at any chunk size,
        // byte-exactly in both directions.
        let records: Vec<TraceRecord> = rollups
            .into_iter()
            .enumerate()
            .map(|(i, r)| TraceRecord {
                seq: i as u64,
                time: SimTime::new(r.day, i as u64),
                event: TraceEvent::ClusterRollup(r),
            })
            .collect();
        let strc = tmp("cluster.strc", case);
        let jsonl = tmp("cluster.jsonl", case);
        write_strc(&strc, &records, chunk_records).unwrap();
        let back = read_strc(&strc).unwrap();
        let n = convert_file(&strc, &jsonl).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let _ = std::fs::remove_file(&strc);
        let _ = std::fs::remove_file(&jsonl);
        prop_assert_eq!(n, records.len() as u64);
        prop_assert_eq!(text, to_jsonl(&records));
        prop_assert_eq!(back, records);
    }

    #[test]
    fn jsonl_and_strc_converters_are_lossless(
        records in proptest::collection::vec(record_strategy(), 0..40),
        case in any::<u64>(),
    ) {
        let jsonl_in = tmp("conv-in.jsonl", case);
        let strc_mid = tmp("conv-mid.strc", case);
        let jsonl_out = tmp("conv-out.jsonl", case);
        let text = to_jsonl(&records);
        std::fs::write(&jsonl_in, &text).unwrap();
        let n1 = convert_file(&jsonl_in, &strc_mid).unwrap();
        let n2 = convert_file(&strc_mid, &jsonl_out).unwrap();
        let round = std::fs::read_to_string(&jsonl_out).unwrap();
        for p in [&jsonl_in, &strc_mid, &jsonl_out] {
            let _ = std::fs::remove_file(p);
        }
        prop_assert_eq!(n1, records.len() as u64);
        prop_assert_eq!(n2, records.len() as u64);
        // Byte-identical JSONL after a full round trip.
        prop_assert_eq!(round, text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selective_walk_fails_exactly_when_full_decode_fails(
        records in proptest::collection::vec(record_strategy(), 1..24),
        mutations in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..10), 1..4),
        mask in mask_strategy(),
    ) {
        // Seeded damage inside chosen records: a bit flip (0..8), an
        // all-ones byte (8: never valid in a marker label), or a
        // truncation (9).
        let mut payload = Vec::new();
        let mut spans = Vec::new();
        for r in &records {
            let start = payload.len();
            encode_record(r, &mut payload).unwrap();
            spans.push(start..payload.len());
        }
        for (which, offset, how) in mutations {
            let span = &spans[which as usize % spans.len()];
            let at = span.start + offset as usize % span.len();
            if at >= payload.len() {
                continue;
            }
            match how {
                0..=7 => payload[at] ^= 1 << how,
                8 => payload[at] = 0xFF,
                _ => payload.truncate(at),
            }
        }
        let full = decode_chunk(&payload, 0, ALL_KINDS);
        for m in std::iter::once(mask).chain(query_masks()) {
            let walk = decode_chunk(&payload, 0, m);
            prop_assert_eq!(walk.is_err(), full.is_err(), "mask {:#x}", m);
            if let (Ok(walk), Ok(full)) = (&walk, &full) {
                check_walk(walk, full, m)?;
            }
        }
    }
}
