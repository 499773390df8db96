//! Perf-regression harness: times the per-layer micro benches (BCH
//! codec, flash ops, FTL ops and hot path, diFS recovery), the
//! `lifetime --modes-only` end-to-end run, and the warehouse-scale
//! fleet engine, writing `BENCH_ftl_micro.json`, `BENCH_lifetime.json`,
//! and `BENCH_fleet_scale.json` (medians, machine+thread metadata) for
//! `scripts/bench.sh` to gate against.
//!
//! Flags: `--runs N` (default 20), `--micro-only`, `--e2e-only`,
//! `--fleet-only`, `--fleet-runs N` (default 5), `--fleet-full`
//! (adds the 100k-device mode sweep and the 1M-device entries —
//! minutes of wall clock),
//! `--out DIR` (default: current directory — run from the repo root).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use salamander::config::{Mode, SsdConfig};
use salamander::device::{BatchStop, SalamanderSsd};
use salamander_bench::perf::{bench, bench_cold, bench_setup, BenchReport};
use salamander_bench::{arg_or, has_flag};
use salamander_difs::cluster::Cluster;
use salamander_difs::store::ChunkStore;
use salamander_difs::types::{DeviceId, DifsConfig};
use salamander_ecc::bch::Bch;
use salamander_ecc::profile::Tiredness;
use salamander_exec::Threads;
use salamander_flash::array::FlashArray;
use salamander_flash::geometry::FlashGeometry;
use salamander_flash::rber::RberModel;
use salamander_fleet::device::{StatDeviceConfig, StatMode};
use salamander_fleet::sim::{FleetConfig, FleetEngine, FleetSim};
use salamander_ftl::ftl::Ftl;
use salamander_ftl::types::{FtlConfig, FtlMode, Lba, MdiskId};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Issue `count` synthetic writes in batches of 64 over the device's
/// active minidisks (the endurance-driver pattern). Returns accepted
/// writes; stops early on device death.
fn churn(ssd: &mut SalamanderSsd, mut state: u64, count: u64) -> u64 {
    let mut mdisks = ssd.minidisks();
    let mut ops: Vec<(MdiskId, Lba)> = Vec::with_capacity(64);
    let mut written = 0u64;
    while written < count && !ssd.is_dead() {
        if ssd.has_pending_events() {
            ssd.poll_events();
            ssd.minidisks_into(&mut mdisks);
        }
        if mdisks.is_empty() {
            break;
        }
        ops.clear();
        for _ in 0..64u64.min(count - written) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = mdisks[(state as usize / 7) % mdisks.len()];
            let lbas = ssd.minidisk_lbas(id).unwrap_or(1);
            ops.push((id, Lba((state % lbas as u64) as u32)));
        }
        let out = ssd.write_batch(&ops);
        written += out.written;
        match out.stop {
            Some(BatchStop::Events) => ssd.minidisks_into(&mut mdisks),
            Some(BatchStop::DeviceDead) => break,
            Some(BatchStop::Fatal(e)) => panic!("perf churn failed: {e}"),
            None => {}
        }
    }
    written
}

/// Micro suite: the per-op write path on a fresh device, and the
/// steady-state GC cost once the device is preconditioned.
fn micro(runs: u32) -> BenchReport {
    let mut report = BenchReport::new("ftl_micro");
    let cfg = SsdConfig::medium().mode(Mode::Shrink);

    // Write path: K fresh-device writes per run (buffer/flush/map cost,
    // little GC — the common case of every simulated op).
    const WRITE_OPS: u64 = 20_000;
    report.results.push(bench("ftl_write_path", runs, |run| {
        let mut ssd = SalamanderSsd::open(cfg);
        churn(&mut ssd, 0x5EED | u64::from(run) << 32, WRITE_OPS)
    }));

    // Same workload issued one op at a time through the per-op API, to
    // attribute how much of the hot path the batched issue (thrust 3)
    // buys over the flat-mapping/LUT work shared by both variants.
    report
        .results
        .push(bench("ftl_write_path_serial", runs, |run| {
            let mut ssd = SalamanderSsd::open(cfg);
            let mut state = 0x5EED | u64::from(run) << 32;
            let mut mdisks = ssd.minidisks();
            let mut written = 0u64;
            while written < WRITE_OPS && !ssd.is_dead() {
                if ssd.has_pending_events() {
                    ssd.poll_events();
                    ssd.minidisks_into(&mut mdisks);
                }
                if mdisks.is_empty() {
                    break;
                }
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let id = mdisks[(state as usize / 7) % mdisks.len()];
                let lbas = ssd.minidisk_lbas(id).unwrap_or(1);
                match ssd.write(id, Lba((state % lbas as u64) as u32).0, None) {
                    Ok(()) => written += 1,
                    Err(_) => break,
                }
            }
            written.max(1)
        }));

    // GC pass: precondition a shared device into steady-state GC
    // (outside the timer), then charge each timed overwrite churn to the
    // GC passes it forced — per-iter ns is the amortized pass cost. The
    // medium device endures ~480k churn writes, so long campaigns reopen
    // and re-precondition when it wears out (that run's time is
    // polluted; the per-run medians absorb it).
    fn precondition(ssd: &mut SalamanderSsd, seed: &mut u64) {
        for _ in 0..200 {
            if ssd.stats().gc_runs > 0 || ssd.is_dead() {
                break;
            }
            churn(ssd, *seed, 20_000);
            *seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        }
    }
    let mut ssd = SalamanderSsd::open(cfg);
    let mut seed = 0xACEu64;
    precondition(&mut ssd, &mut seed);
    const GC_OPS: u64 = 10_000;
    report.results.push(bench("ftl_gc_pass", runs, |_| {
        if ssd.is_dead() {
            ssd = SalamanderSsd::open(cfg);
            precondition(&mut ssd, &mut seed);
        }
        let before = ssd.stats().gc_runs;
        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        churn(&mut ssd, seed, GC_OPS);
        (ssd.stats().gc_runs - before).max(1)
    }));

    bch_codec(&mut report, runs);
    flash_ops(&mut report, runs);
    ftl_ops(&mut report, runs);
    difs_recovery(&mut report, runs);
    report
}

/// Per-op entries repeat their operation this many times per timed
/// run, so `median_ns_per_iter` is the cost of one operation.
const OPS_PER_RUN: u64 = 1000;

/// A random codeword of `code` with exactly `errors` distinct bits
/// flipped.
fn codeword_with_errors(code: &Bch, errors: usize, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let data: Vec<bool> = (0..code.data_bits()).map(|_| rng.gen()).collect();
    let mut cw = code.encode(&data);
    let mut flipped = std::collections::HashSet::new();
    while flipped.len() < errors {
        flipped.insert(rng.gen_range(0..code.codeword_bits()));
    }
    for &p in &flipped {
        cw[p] = !cw[p];
    }
    cw
}

/// The real BCH codec at flash-controller scale: the paper's L0
/// configuration (1 KiB chunk + 128 B parity, GF(2^14), t = 73) and
/// the L1 configuration (512 B parity per chunk, t = 292), for encode,
/// clean decode, and worst-case decode (t errors). Each decode gets a
/// fresh codeword copy, made outside the timer.
fn bch_codec(report: &mut BenchReport, runs: u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for (label, m, t, k) in [
        ("L0_t73", 14u32, 73u32, 8192usize),
        ("L1_t292", 14, 292, 8192),
    ] {
        let code = Bch::new_shortened(m, t, k).expect("code constructs");
        let data: Vec<bool> = (0..code.data_bits()).map(|_| rng.gen()).collect();
        report
            .results
            .push(bench(&format!("bch_encode_{label}"), runs, |_| {
                black_box(code.encode(&data));
                1
            }));
        let clean = code.encode(&data);
        report.results.push(bench_setup(
            &format!("bch_decode_clean_{label}"),
            runs,
            |_| clean.clone(),
            |mut cw| {
                let _ = black_box(code.decode(&mut cw));
                1
            },
        ));
        let dirty = codeword_with_errors(&code, t as usize, &mut rng);
        report.results.push(bench_setup(
            &format!("bch_decode_t_errors_{label}"),
            runs,
            |_| dirty.clone(),
            |mut cw| {
                black_box(code.decode(&mut cw).unwrap());
                1
            },
        ));
    }
}

/// Raw flash-simulator operation rates (program, read with error
/// injection, erase) — the substrate cost that bounds every
/// higher-level simulation.
fn flash_ops(report: &mut BenchReport, runs: u32) {
    let geom = FlashGeometry::medium();

    let mut a = FlashArray::new(geom, RberModel::default(), 1);
    let block = geom.block_of(geom.fpage_addr(0, 0, 0));
    report
        .results
        .push(bench("flash_program_erase_cycle", runs, |_| {
            for fp in geom.fpages_in(block) {
                a.program(fp, None).unwrap();
            }
            a.erase(block).unwrap();
            1
        }));

    let mut a = FlashArray::new(geom, RberModel::fast_wear(), 2);
    let fp = geom.fpage_addr(0, 0, 0);
    let block = geom.block_of(fp);
    for _ in 0..40 {
        a.program(fp, None).unwrap();
        a.erase(block).unwrap();
    }
    a.program(fp, None).unwrap();
    report
        .results
        .push(bench("flash_read_worn_page", runs, |_| {
            for _ in 0..OPS_PER_RUN {
                black_box(a.read(fp).unwrap().raw_bit_errors);
            }
            OPS_PER_RUN
        }));

    let mut a = FlashArray::new(geom, RberModel::fast_wear(), 3);
    let fp = geom.fpage_addr(0, 1, 0);
    let block = geom.block_of(fp);
    let buf = vec![0xA5u8; (geom.fpage_data_bytes + geom.fpage_spare_bytes) as usize];
    for _ in 0..40 {
        a.program(fp, None).unwrap();
        a.erase(block).unwrap();
    }
    a.program(fp, Some(&buf)).unwrap();
    report
        .results
        .push(bench("flash_read_with_data_corruption", runs, |_| {
            for _ in 0..OPS_PER_RUN {
                black_box(a.read(fp).unwrap().data);
            }
            OPS_PER_RUN
        }));
}

/// An FTL on medium geometry with default (slow) wear, so GC dominates
/// rather than death, with most of its logical space written once.
fn prepared_ftl(mode: FtlMode) -> Ftl {
    let mut cfg = FtlConfig::medium(mode);
    cfg.rber = RberModel::default();
    let mut ftl = Ftl::new(cfg);
    for m in ftl.active_mdisks() {
        let lbas = ftl.mdisk_lbas(m).unwrap();
        for lba in 0..lbas {
            ftl.write(m, Lba(lba), None).unwrap();
        }
    }
    ftl
}

/// Host-facing FTL operation rates per personality: steady-state write
/// cost (including buffering, GC, and the capacity protocol) and read
/// cost. Each personality's FTL is prepared once, outside the timer.
fn ftl_ops(report: &mut BenchReport, runs: u32) {
    for (label, mode) in [
        ("baseline", FtlMode::Baseline),
        ("shrink", FtlMode::Shrink),
        ("regen", FtlMode::Regen),
    ] {
        let mut ftl = prepared_ftl(mode);
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut xorshift = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        report.results.push(bench(
            &format!("ftl_steady_state_write_{label}"),
            runs,
            |_| {
                for _ in 0..OPS_PER_RUN {
                    let mdisks = ftl.active_mdisks();
                    let x = xorshift();
                    let m = mdisks[(x as usize / 7) % mdisks.len()];
                    let lbas = ftl.mdisk_lbas(m).unwrap();
                    ftl.write(m, Lba((x % lbas as u64) as u32), None).unwrap();
                }
                OPS_PER_RUN
            },
        ));
        let m = ftl.active_mdisks()[0];
        report
            .results
            .push(bench(&format!("ftl_read_{label}"), runs, |_| {
                for _ in 0..OPS_PER_RUN {
                    let x = xorshift();
                    let lbas = ftl.mdisk_lbas(m).unwrap();
                    black_box(ftl.read(m, Lba((x % lbas as u64) as u32)).ok());
                }
                OPS_PER_RUN
            }));
    }
}

/// A diFS cluster of `nodes` nodes × `units_per_node` units of `cap`
/// chunks each, filled to ~60%.
fn difs_cluster(nodes: u32, units_per_node: u32, cap: u32) -> (Cluster, ChunkStore) {
    let mut cluster = Cluster::new();
    for _ in 0..nodes {
        let n = cluster.add_node();
        let d = cluster.add_device(n);
        for _ in 0..units_per_node {
            cluster.add_unit(d, cap);
        }
    }
    let mut store = ChunkStore::new(DifsConfig::default());
    let target = cluster.alive_capacity() * 6 / 10 / 3;
    for _ in 0..target {
        if store.create_chunk(&mut cluster).is_err() {
            break;
        }
    }
    (cluster, store)
}

/// diFS re-replication cost per failed unit — the control-plane work
/// Salamander multiplies (many small failures instead of one big
/// one). Each run gets a fresh cluster, built outside the timer.
fn difs_recovery(report: &mut BenchReport, runs: u32) {
    report.results.push(bench_setup(
        "difs_fail_one_minidisk_unit",
        runs,
        |_| difs_cluster(8, 32, 4),
        |(mut cluster, mut store)| {
            let victim = cluster.alive_units().next().map(|(id, _)| id).unwrap();
            store.fail_unit(&mut cluster, victim);
            black_box(store.metrics().recovery_bytes);
            1
        },
    ));
    report.results.push(bench_setup(
        "difs_fail_whole_device",
        runs,
        |_| difs_cluster(8, 32, 4),
        |(mut cluster, mut store)| {
            store.fail_device(&mut cluster, DeviceId(0));
            black_box(store.metrics().recovery_bytes);
            1
        },
    ));
    report.results.push(bench_setup(
        "difs_create_chunk",
        runs,
        |_| difs_cluster(8, 32, 64),
        |(mut cluster, mut store)| {
            for _ in 0..100 {
                store.create_chunk(&mut cluster).unwrap();
            }
            1
        },
    ));
}

/// End-to-end suite: wall-clock of the `lifetime --modes-only` harness
/// binary (sibling of this executable), run in a scratch directory so
/// its `results/` output does not touch the repo's goldens.
fn end_to_end(runs: u32) -> BenchReport {
    let mut report = BenchReport::new("lifetime");
    let exe = std::env::current_exe().expect("own path");
    let lifetime = exe.with_file_name("lifetime");
    assert!(
        lifetime.exists(),
        "{} not found — build the bench binaries first",
        lifetime.display()
    );
    let scratch = std::env::temp_dir().join(format!("salamander-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    report.results.push(bench("lifetime_modes_only", runs, |_| {
        let status = Command::new(&lifetime)
            .arg("--modes-only")
            .current_dir(&scratch)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn lifetime");
        assert!(status.success(), "lifetime exited with {status}");
        1
    }));
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// Fleet-scale suite: the cohort engine at 10k/100k/1M devices × 5
/// simulated years, plus the per-device reference engine at 10k as
/// the speedup reference. Small-geometry devices (the fleet unit
/// tests' configuration) keep per-device state at 2 KiB so the 1M
/// entry fits comfortably in memory; `iters_per_run` is the device
/// count, so `median_ns_per_iter` reads as cost per device.
///
/// The headline cohort-vs-device pair is Regen L3 at 1 DWPD: a fig3b
/// paper configuration at the standard datacenter endurance rating,
/// where devices survive most of the horizon so the per-day aging
/// cost (not the bit-identity-pinned per-device setup) dominates
/// both engines. Write-hot short-lived configurations (shrink/
/// baseline at 5 DWPD) amortize less and sit at lower ratios — they
/// are kept as honest secondary entries.
fn fleet_scale(runs: u32, full: bool) -> BenchReport {
    let mut report = BenchReport::new("fleet_scale");
    let cfg = |devices: u32, mode: StatMode, dwpd: f64| FleetConfig {
        device: StatDeviceConfig {
            geometry: FlashGeometry::small_test(),
            ..StatDeviceConfig::datacenter(mode)
        },
        devices,
        dwpd,
        dwpd_sigma: 0.25,
        afr: 0.01,
        horizon_days: 1825, // 5 simulated years
        sample_every_days: 30,
        seed: 42,
    };
    let regen3 = StatMode::Regen {
        max_level: Tiredness::L3,
    };
    let mut run = |name: &str,
                   devices: u32,
                   mode: StatMode,
                   dwpd: f64,
                   engine: FleetEngine,
                   r: u32,
                   warm: bool| {
        let f = |_| {
            let t = FleetSim::new(cfg(devices, mode, dwpd))
                .with_engine(engine)
                .run_threads(Threads::Auto);
            std::hint::black_box(t.samples.len());
            devices as u64
        };
        let result = if warm {
            bench(name, r, f)
        } else {
            bench_cold(name, r, f)
        };
        report.results.push(result);
    };
    use FleetEngine::{Cohort, PerDevice};
    // First entry is the scripts/bench.sh --check gate: keep it cheap
    // and stable.
    run(
        "fleet_cohort_10k_shrink",
        10_000,
        StatMode::Shrink,
        5.0,
        Cohort,
        runs,
        true,
    );
    run(
        "fleet_cohort_10k_baseline",
        10_000,
        StatMode::Baseline,
        5.0,
        Cohort,
        runs,
        true,
    );
    // The headline pair at probe scale (the per-device reference
    // engine prices the cohort speedup), then the cohort engine at the
    // 100k acceptance scale.
    run(
        "fleet_cohort_10k_regen3_dwpd1",
        10_000,
        regen3,
        1.0,
        Cohort,
        runs,
        true,
    );
    run(
        "fleet_device_10k_regen3_dwpd1",
        10_000,
        regen3,
        1.0,
        PerDevice,
        runs.min(2),
        false,
    );
    run(
        "fleet_cohort_100k_regen3_dwpd1",
        100_000,
        regen3,
        1.0,
        Cohort,
        runs.min(3),
        false,
    );
    if full {
        run(
            "fleet_cohort_100k_shrink",
            100_000,
            StatMode::Shrink,
            5.0,
            Cohort,
            runs.min(3),
            false,
        );
        run(
            "fleet_cohort_100k_baseline",
            100_000,
            StatMode::Baseline,
            5.0,
            Cohort,
            runs.min(2),
            false,
        );
        run(
            "fleet_cohort_1m_shrink",
            1_000_000,
            StatMode::Shrink,
            5.0,
            Cohort,
            1,
            false,
        );
        run(
            "fleet_cohort_1m_regen3_dwpd1",
            1_000_000,
            regen3,
            1.0,
            Cohort,
            1,
            false,
        );
    }
    report
}

fn write_report(dir: &Path, name: &str, report: &BenchReport) {
    let path = dir.join(name);
    std::fs::write(&path, report.to_json()).expect("write bench report");
    for r in &report.results {
        println!(
            "{:24} median {:>12} ns  ({} runs, {} iters/run, {} ns/iter)",
            r.name, r.median_ns, r.runs, r.iters_per_run, r.median_ns_per_iter
        );
    }
    eprintln!("wrote {}", path.display());
}

fn main() {
    let runs: u32 = arg_or("--runs", 20).max(1);
    let out: PathBuf = PathBuf::from(arg_or("--out", ".".to_string()));
    let fleet_only = has_flag("--fleet-only");
    if !has_flag("--e2e-only") && !fleet_only {
        write_report(&out, "BENCH_ftl_micro.json", &micro(runs));
    }
    if !has_flag("--micro-only") && !fleet_only {
        write_report(&out, "BENCH_lifetime.json", &end_to_end(runs));
    }
    if !has_flag("--micro-only") && !has_flag("--e2e-only") || fleet_only {
        let fleet_runs: u32 = arg_or("--fleet-runs", 5).max(1);
        write_report(
            &out,
            "BENCH_fleet_scale.json",
            &fleet_scale(fleet_runs, has_flag("--fleet-full")),
        );
    }
}
