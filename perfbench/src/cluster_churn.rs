//! `cluster_churn`: the §4.3 recovery scenario. Four fast-wear
//! `SalamanderSsd`s (two RegenS, two ShrinkS), one per node, under a
//! diFS `Cluster` + `ChunkStore` with three replicas of 256 KiB chunks
//! filled to 60%. The benchmark is the host: each round it issues a
//! pre-generated OLTP stream (50% writes, zipfian 0.9) per device
//! through `write_batch`/`read`, routes the devices' events into diFS,
//! ticks the store and takes the durability and latency rollups,
//! until every device is dead. The FTL write, GC and regeneration path
//! does most of the work, with reads beside writes on the same FTL; the
//! cohort engine, `.strc`, health and telemetry are bypassed.

use crate::report::{Metric, Report};
use crate::span::{Tracer, ROOT};
use crate::stats::Fnv;
use crate::{end_to_end, expected_digest, op_median, Layers, Opts, Size, DEFAULT_SEED, MIN_REPS};
use salamander::config::{Mode, SsdConfig};
use salamander::device::{BatchStop, HostEvent, SalamanderSsd};
use salamander_difs::cluster::Cluster;
use salamander_difs::store::ChunkStore;
use salamander_difs::types::{DeviceId, DifsConfig, UnitId};
use salamander_exec::derive_seed;
use salamander_flash::geometry::FlashGeometry;
use salamander_flash::stats::FlashStats;
use salamander_ftl::stats::FtlStats;
use salamander_ftl::types::{Lba, MdiskId};
use salamander_obs::{Obs, SimTime, TraceEvent};
use salamander_workload::{OpKind, Profile, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ops handed to the FTL per slice of a device's round stream: the
/// slice's writes go down as one batch, then its reads.
const SLICE: usize = 128;

/// Seed of the devices' manufacturing variance.
const DEVICE_SEED: u64 = 0x5A1A_3A4D;

/// Device modes, one device per node.
const MODES: [Mode; 4] = [Mode::Regen, Mode::Regen, Mode::Shrink, Mode::Shrink];

/// Shape of one cluster life.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    cfg: SsdConfig,
    ops_per_round: usize,
    max_rounds: usize,
}

/// The cluster at `size`: full size is the medium fast-wear device cut
/// to three sixteenths of its blocks, so one life takes about a second
/// and a run holds several.
pub fn spec(size: Size) -> Spec {
    match size {
        Size::Full => Spec {
            cfg: SsdConfig::medium().geometry(FlashGeometry {
                blocks_per_chip: 12,
                ..FlashGeometry::medium()
            }),
            ops_per_round: 3_000,
            max_rounds: 260,
        },
        Size::Tiny => Spec {
            cfg: SsdConfig::small_test(),
            ops_per_round: 150,
            max_rounds: 400,
        },
    }
}

struct Node {
    ssd: SalamanderSsd,
    device: DeviceId,
    units: BTreeMap<MdiskId, UnitId>,
    mdisks: Vec<MdiskId>,
    lbas: u64,
    /// Pre-generated ops: `addr << 1 | is_write`.
    stream: Vec<u32>,
    base_ftl: FtlStats,
    base_flash: FlashStats,
}

/// A cluster ready to run: devices opened and pre-filled, chunks
/// placed, every op stream generated.
pub struct Prepared {
    spec: Spec,
    nodes: Vec<Node>,
    cluster: Cluster,
    store: ChunkStore,
    obs: Obs,
}

/// Build the cluster for `seed`. `obs` is shared by every device and
/// the store (a recording bundle yields the run's trace). The op
/// streams are generated afresh into `recycle`'s buffers when given, so
/// repeated set-ups keep the same memory footprint.
pub fn prepare(spec: Spec, seed: u64, obs: Obs, recycle: Option<Prepared>) -> Prepared {
    let mut buffers: Vec<Vec<u32>> = recycle
        .map(|p| p.nodes.into_iter().map(|n| n.stream).collect())
        .unwrap_or_default();
    let mut cluster = Cluster::new();
    let mut store = ChunkStore::new(DifsConfig {
        replication: 3,
        chunk_bytes: 256 * 1024,
        recovery_chunks_per_tick: Some(32),
    });
    store.set_obs(obs.clone());
    let mut nodes = Vec::new();
    for (i, mode) in MODES.iter().enumerate() {
        // The devices are the fixed system under test; the seed makes
        // the host's op streams.
        let cfg = spec
            .cfg
            .mode(*mode)
            .seed(derive_seed(DEVICE_SEED, i as u64));
        let mut ssd = SalamanderSsd::open_with_obs(cfg, obs.clone());
        let node = cluster.add_node();
        let device = cluster.add_device(node);
        let mdisks = ssd.minidisks();
        let lbas = cfg.ftl_config().lbas_per_mdisk() as u64;
        let mut units = BTreeMap::new();
        for &m in &mdisks {
            units.insert(m, cluster.add_unit(device, unit_capacity(&ssd, &store, m)));
        }
        // Pre-fill: the first 60% of every minidisk, written once.
        let fill: Vec<(MdiskId, Lba)> = mdisks
            .iter()
            .flat_map(|&m| (0..lbas * 3 / 5).map(move |l| (m, Lba(l as u32))))
            .collect();
        for batch in fill.chunks(SLICE) {
            let out = ssd.write_batch(batch);
            assert!(out.stop.is_none(), "pre-fill stopped early: {:?}", out.stop);
        }
        ssd.take_latency_rollup(0);
        let space = mdisks.len() as u64 * lbas;
        let mut gen = Workload::new(Profile::Oltp.config(space, derive_seed(seed, 100 + i as u64)));
        let mut stream = buffers.pop().unwrap_or_default();
        stream.clear();
        stream.extend((0..spec.ops_per_round * spec.max_rounds).map(|_| {
            let op = gen.next_op();
            (op.addr as u32) << 1 | u32::from(op.kind == OpKind::Write)
        }));
        nodes.push(Node {
            base_ftl: *ssd.stats(),
            base_flash: *ssd.flash_stats(),
            ssd,
            device,
            units,
            mdisks,
            lbas,
            stream,
        });
    }
    // Fill the store to 60% of the unit capacity, three replicas each.
    let chunks = cluster.alive_capacity() * 3 / 5 / 3;
    for _ in 0..chunks {
        if store.create_chunk(&mut cluster).is_err() {
            break;
        }
    }
    Prepared {
        spec,
        nodes,
        cluster,
        store,
        obs,
    }
}

fn unit_capacity(ssd: &SalamanderSsd, store: &ChunkStore, m: MdiskId) -> u32 {
    let bytes = ssd.minidisk_lbas(m).unwrap_or(0) as u64 * ssd.opage_bytes() as u64;
    (bytes / store.config().chunk_bytes) as u32
}

/// What one cluster life did.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Rounds until every device died.
    pub rounds: u64,
    /// Host writes accepted.
    pub writes: u64,
    /// Host reads issued.
    pub reads: u64,
    /// Host reads that returned an error (unmapped, uncorrectable or
    /// gone minidisk).
    pub read_errors: u64,
    /// Digest of every simulated statistic and rollup.
    pub digest: u64,
    /// FTL counters accumulated over the life (all devices).
    pub ftl: FtlStats,
    /// Flash counters accumulated over the life (all devices).
    pub flash: FlashStats,
    /// diFS re-replications, recovery bytes and lost chunks.
    pub difs: (u64, u64, u64),
}

/// Map a stream address onto the current minidisk set.
fn target(addr: u64, lbas: u64, mdisks: &[MdiskId]) -> (MdiskId, Lba) {
    let m = mdisks[((addr / lbas) % mdisks.len() as u64) as usize];
    (m, Lba((addr % lbas) as u32))
}

/// Run one cluster life to the death of its last device.
pub fn run(p: &mut Prepared, tr: &mut Tracer) -> Outcome {
    let Prepared {
        spec,
        nodes,
        cluster,
        store,
        obs,
    } = p;
    let k = spec.ops_per_round;
    let mut o = Outcome::default();
    let mut h = Fnv::default();
    let mut writes: Vec<u64> = Vec::with_capacity(SLICE);
    let mut batch: Vec<(MdiskId, Lba)> = Vec::with_capacity(SLICE);
    for round in 1..=spec.max_rounds as u32 {
        if nodes.iter().all(|n| n.ssd.is_dead()) {
            break;
        }
        for n in nodes.iter_mut() {
            let r = round as usize - 1;
            for slice in n.stream[r * k..(r + 1) * k].chunks(SLICE) {
                writes.clear();
                writes.extend(
                    slice
                        .iter()
                        .filter(|a| *a & 1 == 1)
                        .map(|a| u64::from(a >> 1)),
                );
                let mut done = 0;
                while done < writes.len() && !n.ssd.is_dead() && !n.mdisks.is_empty() {
                    batch.clear();
                    batch.extend(writes[done..].iter().map(|&a| target(a, n.lbas, &n.mdisks)));
                    let out = tr.span("ftl.write_batch", || n.ssd.write_batch(&batch));
                    o.writes += out.written;
                    done += out.consumed;
                    match out.stop {
                        Some(BatchStop::Events) => {
                            tr.span("core.minidisks", || n.ssd.minidisks_into(&mut n.mdisks))
                        }
                        Some(BatchStop::DeviceDead) => break,
                        Some(BatchStop::Fatal(e)) => panic!("host write failed: {e}"),
                        None => {}
                    }
                }
                for &a in slice.iter().filter(|a| *a & 1 == 0) {
                    if n.ssd.is_dead() || n.mdisks.is_empty() {
                        break;
                    }
                    let (m, l) = target(u64::from(a >> 1), n.lbas, &n.mdisks);
                    o.reads += 1;
                    if tr.span("ftl.read", || n.ssd.read(m, l.0)).is_err() {
                        o.read_errors += 1;
                    }
                }
                if n.ssd.has_pending_events() {
                    tr.span("core.minidisks", || n.ssd.minidisks_into(&mut n.mdisks));
                }
            }
        }
        let mut new_units = false;
        for n in nodes.iter_mut() {
            for e in tr.span("core.poll_events", || n.ssd.poll_events()) {
                match e {
                    HostEvent::MinidiskFailed { id, draining, .. } => {
                        if let Some(u) = n.units.remove(&id) {
                            tr.span("difs.fail_unit", || store.fail_unit(cluster, u));
                        }
                        if draining {
                            let _ = tr.span("core.ack_decommission", || n.ssd.ack_decommission(id));
                        }
                    }
                    HostEvent::MinidiskCreated { id, .. } => {
                        let cap = unit_capacity(&n.ssd, store, id);
                        let u = tr.span("difs.add_unit", || cluster.add_unit(n.device, cap));
                        n.units.insert(id, u);
                        new_units = true;
                    }
                    HostEvent::DeviceFailed => {
                        tr.span("difs.fail_device", || store.fail_device(cluster, n.device));
                        n.units.clear();
                    }
                    HostEvent::MinidiskPurged { .. } | HostEvent::UnrecoverableRead { .. } => {}
                }
            }
            n.ssd.minidisks_into(&mut n.mdisks);
        }
        if new_units {
            tr.span("difs.retry_pending", || store.retry_pending(cluster));
        }
        tr.span("difs.tick", || {
            store.set_time(round);
            store.tick(cluster)
        });
        let rollup = tr.span("obs.cluster_rollup", || {
            if obs.trace.is_enabled() {
                store.emit_cluster_rollup(cluster)
            } else {
                store.cluster_rollup(cluster)
            }
        });
        h.debug(&rollup);
        for n in nodes.iter_mut() {
            let lat = tr.span("obs.latency_rollup", || n.ssd.take_latency_rollup(round));
            h.debug(&lat);
            if obs.trace.is_enabled() && !lat.is_empty() {
                obs.trace.emit(
                    SimTime::new(round, o.writes + o.reads),
                    TraceEvent::LatencyRollup(lat),
                );
            }
        }
        o.rounds += 1;
    }
    // Counters accumulated over the life, pre-fill excluded.
    macro_rules! add_delta {
        ($sum:expr, $now:expr, $base:expr; $($field:ident),*) => {
            $($sum.$field += $now.$field - $base.$field;)*
        };
    }
    for n in nodes.iter() {
        let (f, g) = (n.ssd.stats(), n.ssd.flash_stats());
        h.debug(f);
        h.debug(g);
        add_delta!(o.ftl, f, n.base_ftl; host_writes, host_reads, opages_programmed,
            relocated_opages, gc_runs, mdisks_decommissioned, mdisks_regenerated,
            uncorrectable_reads, buffer_hits, read_retries);
        add_delta!(o.flash, g, n.base_flash; programs, reads, erases, raw_bit_errors);
    }
    let m = store.metrics();
    h.debug(&m);
    h.debug(&(o.rounds, o.writes, o.reads, o.read_errors));
    o.difs = (m.re_replications, m.recovery_bytes, m.lost_chunks);
    o.digest = h.finish();
    o
}

/// The whole-life digest for `seed` at full or tiny size.
pub fn digest(size: Size, seed: u64) -> u64 {
    run(
        &mut prepare(spec(size), seed, Obs::disabled(), None),
        &mut Tracer::off(),
    )
    .digest
}

/// Run the workload.
pub fn run_workload(o: &Opts) -> Report {
    let spec = spec(o.size);
    let mut rep = Report::default();
    let mut want = (o.seed == DEFAULT_SEED).then(|| expected_digest("cluster_churn", o.size));
    let mut setup = Vec::new();
    let (mut life_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut ops, mut last_rounds) = (0u64, 0);
    let mut tr = Tracer::on();
    let mut last = Outcome::default();
    let mut recycle = None;
    while life_s.len() < MIN_REPS || life_s.iter().sum::<f64>() < o.seconds {
        let t = Instant::now();
        let mut p = prepare(spec, o.seed, Obs::disabled(), recycle.take());
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let out = run(&mut p, &mut Tracer::off());
        life_s.push(t.elapsed().as_secs_f64());
        recycle = Some(p);
        ops = out.writes + out.reads;
        last_rounds = out.rounds;
        rep.check_against(
            &mut want,
            "cluster life",
            out.writes + out.reads,
            out.digest,
        );
        if o.trace {
            let mut p = prepare(spec, o.seed, Obs::disabled(), recycle.take());
            let t = Instant::now();
            tr.enter(ROOT);
            let out = run(&mut p, &mut tr);
            tr.exit();
            traced_s.push(t.elapsed().as_secs_f64());
            rep.check_against(
                &mut want,
                "cluster life (traced)",
                out.writes + out.reads,
                out.digest,
            );
            recycle = Some(p);
            last = out;
        }
    }
    rep.rep_s = life_s.clone();
    if o.trace {
        return traced(rep, &tr, &life_s, &traced_s, &last);
    }
    // An operation is a million host ops, timed per life. Round times
    // follow the devices' wear stage and whole lives differ in length
    // by seed; the cost of a fixed amount of host work does neither.
    let op_ms: Vec<f64> = life_s.iter().map(|s| s * 1e9 / ops as f64).collect();
    let work = ops as f64 * life_s.len() as f64;
    let measured: f64 = life_s.iter().sum();
    rep.metrics = end_to_end(&setup, work, measured, &op_ms);
    rep.detail = vec![
        Metric::new(
            "host_ops_per_s",
            work / measured,
            "ops/s",
            life_s.len() as u64,
        ),
        op_median(&op_ms),
        Metric::new("rounds_per_life", last_rounds as f64, "count", 1),
    ];
    rep
}

fn traced(mut rep: Report, tr: &Tracer, life_s: &[f64], traced_s: &[f64], o: &Outcome) -> Report {
    let mut l = Layers::new();
    let reps = traced_s.len() as f64;
    let per_op = |name: &str, n: u64| tr.agg(name).self_ns as f64 / reps / n.max(1) as f64;
    l.set(
        "ftl.write_batch_ns_per_op",
        per_op("ftl.write_batch", o.writes),
    );
    l.set("ftl.read_ns_per_op", per_op("ftl.read", o.reads));
    let f = &o.ftl;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    l.set(
        "ftl.write_amplification",
        ratio(f.opages_programmed, f.host_writes),
    );
    l.set("ftl.gc_runs", f.gc_runs as f64);
    l.set("ftl.relocated_opages", f.relocated_opages as f64);
    l.set("ftl.buffer_hit_ratio", ratio(f.buffer_hits, f.host_reads));
    l.set("ftl.mdisks_decommissioned", f.mdisks_decommissioned as f64);
    l.set("ftl.mdisks_regenerated", f.mdisks_regenerated as f64);
    l.set("flash.programs", o.flash.programs as f64);
    l.set("flash.reads", o.flash.reads as f64);
    l.set("flash.erases", o.flash.erases as f64);
    l.set("flash.raw_bit_errors", o.flash.raw_bit_errors as f64);
    l.set(
        "ecc.read_retries_per_read",
        ratio(f.read_retries, f.host_reads),
    );
    l.set("ecc.uncorrectable_reads", f.uncorrectable_reads as f64);
    let difs_s: f64 = [
        "difs.fail_unit",
        "difs.add_unit",
        "difs.fail_device",
        "difs.retry_pending",
        "difs.tick",
    ]
    .iter()
    .map(|n| tr.agg(n).self_ns as f64 / 1e9)
    .sum();
    l.set("difs.call_s", difs_s / reps);
    let mean_us = |name: &str| {
        let a = tr.agg(name);
        a.total_ns as f64 / 1e3 / a.calls.max(1) as f64
    };
    l.set("difs.tick_us", mean_us("difs.tick"));
    l.set("difs.re_replications", o.difs.0 as f64);
    l.set("difs.recovery_bytes", o.difs.1 as f64);
    l.set("difs.lost_chunks", o.difs.2 as f64);
    l.set("obs.cluster_rollup_us", mean_us("obs.cluster_rollup"));
    l.set("obs.latency_rollup_us", mean_us("obs.latency_rollup"));
    l.set("cluster.rounds", o.rounds as f64);
    l.finish(tr, life_s, traced_s);
    rep.metrics = l.metrics(traced_s.len() as u64);
    rep.spans = Some(tr.render());
    rep
}
