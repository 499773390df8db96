//! `trace_query`: the user-facing diagnosis path. One client in a
//! closed loop sends a fixed, seeded request mix: offline queries over
//! an indexed `.strc` trace (`StrcReader::open`, `query::load_chunks`,
//! `query::*_chunks`), each followed by requests to an in-process
//! telemetry server on 127.0.0.1. Set-up records the trace (device
//! lifecycle and GC events, latency and cluster rollups from a traced
//! `cluster_churn` life; fleet rollups from an observed fleet run),
//! encodes it, publishes the same rollups to the server, and computes
//! every expected answer from the JSONL form of the trace. The timed
//! section runs no simulator code: it is the only workload on the
//! `.strc` decoder, the chunk-skipping index, `health::query` and
//! `telemetry`.

use crate::report::{Metric, Report};
use crate::span::{Tracer, ROOT};
use crate::stats::{fnv, median, percentile, splitmix};
use crate::{cluster_churn, expected_digest, Layers, Opts, Size, DEFAULT_SEED, MIN_REPS};
use salamander_ecc::profile::Tiredness;
use salamander_exec::Threads;
use salamander_flash::geometry::FlashGeometry;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim};
use salamander_health::query::{self, TraceChunk};
use salamander_obs::strc::{write_strc, StrcReader};
use salamander_obs::trace::{parse_jsonl, resequence, to_jsonl};
use salamander_obs::{
    LiveObs, Obs, Profiler, SimTime, TraceEvent, TraceRecord, DIST_NAMES, LAT_CLASSES,
};
use salamander_telemetry::{http_get, TelemetryHub, TelemetryServer};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Telemetry requests sent after each offline query.
const HTTP_PER_QUERY: usize = 8;
/// Seed of the queried trace. The trace is the workload's fixed data
/// set; `--seed` makes the request mix over it.
const TRACE_SEED: u64 = 7;
/// Records per `.strc` chunk (the writer's usual size).
const CHUNK_RECORDS: usize = 4096;

/// An offline query: its kind and argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Query {
    Lifecycle(Option<u32>),
    Why(Option<u32>),
    FleetRollup,
    FleetTimeline,
    Percentiles(&'static str),
    Latency(Option<&'static str>),
    Cluster,
    Exposure,
    Drill(u32),
}

/// One query kind per entry: (span name, per-layer figure name).
const KINDS: [(&str, &str); 9] = [
    ("health.lifecycle", "health.query_ms.lifecycle"),
    ("health.why", "health.query_ms.why"),
    ("health.fleet_rollup", "health.query_ms.fleet_rollup"),
    ("health.fleet_timeline", "health.query_ms.fleet_timeline"),
    ("health.percentiles", "health.query_ms.percentiles"),
    ("health.latency", "health.query_ms.latency"),
    ("health.cluster", "health.query_ms.cluster"),
    ("health.exposure", "health.query_ms.exposure"),
    ("health.drill", "health.query_ms.drill"),
];

/// Telemetry paths: (path prefix, span name, per-layer figure name).
const PATHS: [(&str, &str, &str); 6] = [
    (
        "/metrics",
        "telemetry.metrics",
        "telemetry.request_us.metrics",
    ),
    ("/health", "telemetry.health", "telemetry.request_us.health"),
    ("/fleet", "telemetry.fleet", "telemetry.request_us.fleet"),
    (
        "/fleet/series",
        "telemetry.fleet_series",
        "telemetry.request_us.fleet_series",
    ),
    (
        "/latency/series",
        "telemetry.latency_series",
        "telemetry.request_us.latency_series",
    ),
    (
        "/cluster/series",
        "telemetry.cluster_series",
        "telemetry.request_us.cluster_series",
    ),
];

impl Query {
    fn kind(&self) -> usize {
        match self {
            Query::Lifecycle(_) => 0,
            Query::Why(_) => 1,
            Query::FleetRollup => 2,
            Query::FleetTimeline => 3,
            Query::Percentiles(_) => 4,
            Query::Latency(_) => 5,
            Query::Cluster => 6,
            Query::Exposure => 7,
            Query::Drill(_) => 8,
        }
    }

    /// The reference answer, over records parsed from JSONL.
    fn over_records(&self, r: &[TraceRecord]) -> String {
        match *self {
            Query::Lifecycle(m) => query::lifecycle(r, m),
            Query::Why(m) => query::why(r, m),
            Query::FleetRollup => query::fleet_rollup(r, false),
            Query::FleetTimeline => query::fleet_timeline(r),
            Query::Percentiles(d) => query::percentiles(r, d),
            Query::Latency(c) => query::latency(r, c),
            Query::Cluster => query::cluster(r),
            Query::Exposure => query::exposure(r),
            Query::Drill(day) => query::drill(r, day),
        }
    }

    /// The chunks' decode mask, as the `.strc` query path uses it.
    fn mask(&self) -> u32 {
        match self {
            Query::Lifecycle(_) => query::lifecycle_decode_mask(),
            Query::Why(_) => query::why_decode_mask(),
            Query::FleetRollup => query::fleet_decode_mask(),
            Query::FleetTimeline | Query::Percentiles(_) => query::rollup_series_decode_mask(),
            Query::Latency(_) => query::latency_decode_mask(),
            Query::Cluster | Query::Exposure => query::cluster_decode_mask(),
            Query::Drill(_) => query::drill_decode_mask(),
        }
    }

    fn over_chunks(&self, c: &[TraceChunk]) -> String {
        match *self {
            Query::Lifecycle(m) => query::lifecycle_chunks(c, m),
            Query::Why(m) => query::why_chunks(c, m),
            Query::FleetRollup => query::fleet_rollup_chunks(c, false),
            Query::FleetTimeline => query::fleet_timeline_chunks(c),
            Query::Percentiles(d) => query::percentiles_chunks(c, d),
            Query::Latency(cl) => query::latency_chunks(c, cl),
            Query::Cluster => query::cluster_chunks(c),
            Query::Exposure => query::exposure_chunks(c),
            Query::Drill(day) => query::drill_chunks(c, day),
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
enum Request {
    Query(Query),
    Http(usize, String),
}

/// What set-up hands the timed loop.
struct Prepared {
    strc: PathBuf,
    server: TelemetryServer,
    addr: SocketAddr,
    mix: Vec<Request>,
    /// Expected answer digest per query, from the JSONL reference.
    answers: BTreeMap<Query, u64>,
    /// Expected body digest per request path.
    bodies: BTreeMap<String, u64>,
    trace_digest: u64,
    records: usize,
    strc_bytes: u64,
    encode_s: f64,
    jsonl_bytes: usize,
    parse_s: f64,
    publish_s: f64,
}

fn fleet_config(size: Size, seed: u64) -> FleetConfig {
    FleetConfig {
        device: StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(StatMode::Regen {
                max_level: Tiredness::L3,
            })
        },
        devices: if size == Size::Full { 4_000 } else { 200 },
        dwpd: 3.0,
        dwpd_sigma: 0.25,
        afr: 0.01,
        horizon_days: 1825,
        sample_every_days: 30,
        seed,
    }
}

fn prepare(o: &Opts, rep: usize) -> Prepared {
    // The trace: a traced cluster life, then an observed fleet run.
    let obs = Obs::recording();
    let label = "cluster=churn";
    obs.trace.emit(
        SimTime::ZERO,
        TraceEvent::RunMarker {
            label: label.into(),
        },
    );
    let mut cluster =
        cluster_churn::prepare(cluster_churn::spec(o.size), TRACE_SEED, obs.clone(), None);
    cluster_churn::run(&mut cluster, &mut Tracer::off());
    drop(cluster);
    let mut records = obs.trace.take();
    let prom = obs.metrics.take().render();
    let fleet = FleetSim::new(fleet_config(o.size, TRACE_SEED))
        .with_engine(FleetEngine::Cohort)
        .run_observed(Threads::fixed(2), "fleet=RegenS", &Profiler::disabled());
    records.extend(fleet.trace.iter().cloned());
    resequence(&mut records);

    std::fs::create_dir_all(&o.out_dir).expect("create the output directory");
    let strc = o
        .out_dir
        .join(format!("trace_query-seed{}-rep{rep}.strc", o.seed));
    let t = Instant::now();
    write_strc(&strc, &records, CHUNK_RECORDS).expect("write the .strc trace");
    let encode_s = t.elapsed().as_secs_f64();
    let strc_bytes = std::fs::metadata(&strc).map_or(0, |m| m.len());

    // The reference path: JSONL text, parsed back.
    let text = to_jsonl(&records);
    let t = Instant::now();
    let reference = parse_jsonl(&text).expect("parse the JSONL trace");
    let parse_s = t.elapsed().as_secs_f64();

    // Publish the same rollups to a live server.
    let cluster_rollups: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ClusterRollup(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let cluster_latency: Vec<_> = records
        .iter()
        .take_while(|r| !matches!(&r.event, TraceEvent::RunMarker { label: l } if l != label))
        .filter_map(|r| match &r.event {
            TraceEvent::LatencyRollup(l) => Some(l.clone()),
            _ => None,
        })
        .collect();
    let hub = TelemetryHub::new("perfbench", LiveObs::new());
    let t = Instant::now();
    hub.publish_rollups("fleet=RegenS", fleet.rollups.clone());
    hub.publish_latency("fleet=RegenS", fleet.latency.clone(), "[]".into());
    hub.publish_latency(label, cluster_latency, "[]".into());
    hub.publish_cluster(label, cluster_rollups, "[]".into());
    hub.publish_health(
        "fleet=RegenS",
        serde_json::to_string(&fleet.health).expect("serialize fleet health"),
    );
    hub.mark_done(Some(prom));
    let publish_s = t.elapsed().as_secs_f64();
    let server = TelemetryServer::start("127.0.0.1:0", hub).expect("start the telemetry server");
    let addr = server.addr();

    // The seeded mix: every round sends each query kind once, in a
    // seeded order with seeded arguments, each followed by
    // HTTP_PER_QUERY telemetry requests cycling over every path.
    let mdisks: Vec<u32> = reference
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MdiskDecommissioned { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    let days: Vec<u32> = fleet.rollups.iter().map(|r| r.day).collect();
    let mut state = o.seed ^ 0x7472_6163_6571_7279;
    let mut pick = |n: usize| (splitmix(&mut state) % n.max(1) as u64) as usize;
    let mut mix = Vec::new();
    let mut path = 0;
    for r in 0..64 {
        // Filtered and whole-trace forms alternate by round, so the
        // cost mix is the same for every seed; the seed picks the
        // arguments and the order.
        let filtered = r % 2 == 0;
        let mut round = vec![
            Query::Lifecycle(filtered.then(|| mdisks[pick(mdisks.len())])),
            Query::Why((!filtered).then(|| mdisks[pick(mdisks.len())])),
            Query::FleetRollup,
            Query::FleetTimeline,
            Query::Percentiles(DIST_NAMES[pick(DIST_NAMES.len())]),
            Query::Latency(filtered.then(|| LAT_CLASSES[pick(2)])),
            Query::Cluster,
            Query::Exposure,
            Query::Drill(days[pick(days.len())]),
        ];
        for i in (1..round.len()).rev() {
            round.swap(i, pick(i + 1));
        }
        for q in round {
            mix.push(Request::Query(q));
            for _ in 0..HTTP_PER_QUERY {
                let target = match path % PATHS.len() {
                    3 => format!(
                        "/fleet/series?metric={}",
                        ["alive", "dead", "capacity", "wear_p50"][pick(4)]
                    ),
                    4 => format!(
                        "/latency/series?class={}&stat={}",
                        LAT_CLASSES[pick(2)],
                        ["p50", "p99"][pick(2)]
                    ),
                    5 => format!(
                        "/cluster/series?metric={}",
                        ["degraded", "backlog_chunks", "repair_bytes"][pick(3)]
                    ),
                    i => PATHS[i].0.to_string(),
                };
                mix.push(Request::Http(path % PATHS.len(), target));
                path += 1;
            }
        }
    }
    let mut answers = BTreeMap::new();
    let mut bodies = BTreeMap::new();
    for r in &mix {
        match r {
            Request::Query(q) => {
                answers
                    .entry(q.clone())
                    .or_insert_with(|| fnv(q.over_records(&reference).as_bytes()));
            }
            Request::Http(_, target) => {
                if !bodies.contains_key(target) {
                    let body = match http_get(addr, target) {
                        Ok((200, _, body)) => fnv(body.as_bytes()),
                        _ => 0,
                    };
                    bodies.insert(target.clone(), body);
                }
            }
        }
    }
    Prepared {
        strc,
        server,
        addr,
        mix,
        answers,
        bodies,
        trace_digest: fnv(text.as_bytes()),
        records: records.len(),
        strc_bytes,
        encode_s,
        jsonl_bytes: text.len(),
        parse_s,
        publish_s,
    }
}

/// Latencies and counters of one measured stretch.
#[derive(Default)]
struct Measured {
    query_ms: Vec<f64>,
    http_us: Vec<f64>,
    wall_s: f64,
    decoded_bytes: u64,
    decoded_chunks: u64,
    chunks_seen: u64,
    response_bytes: u64,
}

/// Send requests of the mix (cycling) until `budget_s` has passed, or
/// exactly `count` requests when given.
fn measure(
    p: &Prepared,
    rep: &mut Report,
    tr: &mut Tracer,
    budget_s: f64,
    count: Option<usize>,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    tr.enter(ROOT);
    let mut i = 0;
    loop {
        let done = match count {
            Some(n) => i >= n,
            None => start.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            break;
        }
        match &p.mix[i % p.mix.len()] {
            Request::Query(q) => {
                let t = Instant::now();
                let answer = run_query(p, q, tr, &mut m);
                m.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let got = answer.map_or(0, |a| fnv(a.as_bytes()));
                rep.check_lazy(|| format!("query {q:?}"), 1, got, p.answers[q]);
            }
            Request::Http(k, target) => {
                let t = Instant::now();
                let resp = tr.span(PATHS[*k].1, || http_get(p.addr, target));
                m.http_us.push(t.elapsed().as_secs_f64() * 1e6);
                let got = match resp {
                    Ok((200, _, body)) => {
                        m.response_bytes += body.len() as u64;
                        fnv(body.as_bytes())
                    }
                    _ => 1,
                };
                rep.check_lazy(|| format!("GET {target}"), 1, got, p.bodies[target]);
            }
        }
        i += 1;
    }
    tr.exit();
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

/// Open the trace, decode what the query needs through the index, and
/// render the answer — the steps of the `*_strc` entry points, each
/// under its own span.
fn run_query(p: &Prepared, q: &Query, tr: &mut Tracer, m: &mut Measured) -> Option<String> {
    let mut reader = tr
        .span("obs.strc_open", || StrcReader::open(&p.strc))
        .ok()?;
    let mut load = |tr: &mut Tracer, reader: &mut StrcReader, filter: Option<(u32, u64)>| {
        let chunks = tr
            .span("obs.load_chunks", || {
                query::load_chunks(reader, q.mask(), filter)
            })
            .ok()?;
        for (c, s) in chunks.iter().zip(reader.summaries()) {
            m.chunks_seen += 1;
            if matches!(c, TraceChunk::Records(_)) {
                m.decoded_chunks += 1;
                m.decoded_bytes += u64::from(s.byte_len);
            }
        }
        Some(chunks)
    };
    let mut chunks = load(tr, &mut reader, None)?;
    if let Query::Why(mdisk) = q {
        // `why` decodes twice: anchors first, then the read-path
        // pressure of its target minidisk through the id bloom.
        let target = mdisk.or_else(|| first_decommissioned(&chunks));
        if let Some(id) = target {
            let refined = load(
                tr,
                &mut reader,
                Some((query::read_path_mask(), u64::from(id))),
            )?;
            tr.span("obs.free_chunks", || {
                drop(std::mem::replace(&mut chunks, refined))
            });
        }
    }
    let answer = tr.span(KINDS[q.kind()].0, || q.over_chunks(&chunks));
    // Freeing the decoded records is part of the decode path's cost.
    tr.span("obs.free_chunks", || drop(chunks));
    Some(answer)
}

fn first_decommissioned(chunks: &[TraceChunk]) -> Option<u32> {
    chunks.iter().find_map(|c| match c {
        TraceChunk::Records(rs) => rs.iter().find_map(|r| match r.event {
            TraceEvent::MdiskDecommissioned { id, .. } => Some(id),
            _ => None,
        }),
        TraceChunk::Skipped(_) => None,
    })
}

/// The whole-trace digest for `seed` at full or tiny size; the trace
/// file is written to (and removed from) `out_dir`.
pub fn digest(size: Size, seed: u64, out_dir: &Path) -> u64 {
    let o = Opts {
        workload: "trace_query".into(),
        seed,
        seconds: 0.0,
        trace: false,
        size,
        out_dir: out_dir.to_path_buf(),
    };
    let p = prepare(&o, 0);
    let _ = std::fs::remove_file(&p.strc);
    p.trace_digest
}

/// Run the workload.
pub fn run(o: &Opts) -> Report {
    let mut rep = Report::default();
    let mut want = (o.seed == DEFAULT_SEED).then(|| expected_digest("trace_query", o.size));
    let budget = o.seconds / MIN_REPS as f64;
    let (mut setup, mut encode, mut parse, mut publish) = (vec![], vec![], vec![], vec![]);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tr = Tracer::on();
    let (mut records, mut strc_mb) = (0, 0.0);
    for r in 0..MIN_REPS {
        let t = Instant::now();
        let p = prepare(o, r);
        setup.push(t.elapsed().as_secs_f64());
        rep.check_against(&mut want, "trace", 1, p.trace_digest);
        if p.bodies.values().any(|&b| b == 0) {
            rep.check("set-up telemetry responses", 1, 0, 1);
        }
        encode.push(p.strc_bytes as f64 / 1e6 / p.encode_s);
        parse.push(p.jsonl_bytes as f64 / 1e6 / p.parse_s);
        publish.push(p.publish_s * 1e3);
        (records, strc_mb) = (p.records, p.strc_bytes as f64 / 1e6);
        let m = measure(&p, &mut rep, &mut Tracer::off(), budget, None);
        if o.trace {
            let n = m.query_ms.len() + m.http_us.len();
            traced.push(measure(&p, &mut rep, &mut tr, 0.0, Some(n)));
        }
        untraced.push(m);
        let _ = std::fs::remove_file(&p.strc);
        p.server.shutdown();
    }
    let all = |f: fn(&Measured) -> &Vec<f64>, ms: &[Measured]| -> Vec<f64> {
        ms.iter().flat_map(|m| f(m).iter().copied()).collect()
    };
    rep.rep_s = untraced.iter().map(|m| m.wall_s).collect();
    if o.trace {
        let mut l = Layers::new();
        let sum = |f: fn(&Measured) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let open = tr.agg("obs.strc_open");
        l.set(
            "obs.strc_open_us",
            open.total_ns as f64 / 1e3 / open.calls.max(1) as f64,
        );
        let load_s = tr.agg("obs.load_chunks").total_ns as f64 / 1e9;
        l.set(
            "obs.strc_decode_mb_per_s",
            sum(|m| m.decoded_bytes) / 1e6 / load_s,
        );
        l.set(
            "obs.chunks_decoded_ratio",
            sum(|m| m.decoded_chunks) / sum(|m| m.chunks_seen),
        );
        l.set("obs.strc_encode_mb_per_s", median(&encode));
        l.set("obs.jsonl_parse_mb_per_s", median(&parse));
        for (span, name) in KINDS {
            let a = tr.agg(span);
            l.set(name, a.total_ns as f64 / 1e6 / a.calls.max(1) as f64);
        }
        for (_, span, name) in PATHS {
            let a = tr.agg(span);
            l.set(name, a.total_ns as f64 / 1e3 / a.calls.max(1) as f64);
        }
        let http = traced.iter().map(|m| m.http_us.len()).sum::<usize>().max(1);
        l.set(
            "telemetry.response_bytes",
            sum(|m| m.response_bytes) / http as f64,
        );
        l.set("telemetry.publish_ms", median(&publish));
        let walls = |ms: &[Measured]| ms.iter().map(|m| m.wall_s).collect::<Vec<_>>();
        l.finish(&tr, &walls(&untraced), &walls(&traced));
        rep.metrics = l.metrics(traced.len() as u64);
        rep.spans = Some(tr.render());
        return rep;
    }
    let (q, h) = (
        all(|m| &m.query_ms, &untraced),
        all(|m| &m.http_us, &untraced),
    );
    let wall: f64 = untraced.iter().map(|m| m.wall_s).sum();
    rep.metrics = crate::end_to_end(&setup, (q.len() + h.len()) as f64, wall, &q);
    rep.detail = vec![
        Metric::new("query_p50_ms", percentile(&q, 50.0), "ms", q.len() as u64),
        Metric::new("query_p90_ms", percentile(&q, 90.0), "ms", q.len() as u64),
        Metric::new("http_p50_us", percentile(&h, 50.0), "us", h.len() as u64),
        Metric::new("http_p99_us", percentile(&h, 99.0), "us", h.len() as u64),
        Metric::new("trace_records", records as f64, "count", 1),
        Metric::new("trace_strc_mb", strc_mb, "MB", 1),
    ];
    rep
}
