//! Golden-output gate for the rollup queries of `obsctl`: the fleet,
//! latency and cluster renderings of two real traces must match the
//! checked-in goldens byte for byte, over the JSONL trace and its
//! indexed `.strc` conversion alike.
//!
//! The traces are the ones `scripts/check.sh` records:
//! `fig3a --devices 40 --days 1500` (fleet and latency rollups) and
//! `recovery --recovery-budget 2 --churn 250` (cluster rollups). A
//! third trace splices the recovery ShrinkS segment's records into
//! the fleet RegenS segment, so one `drill` segment ranks anomalies
//! from more than one rollup family.
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDENS=1 cargo test -p salamander-bench --test rollup_golden`

use salamander_obs::strc::write_strc;
use salamander_obs::trace::{parse_jsonl, resequence, to_jsonl};
use salamander_obs::{TraceEvent, TraceRecord};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// Run `bin` with `args` in `dir`; the command must succeed.
fn run(bin: &str, args: &[&str], dir: &Path) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The records of the segment opened by the marker `label`, marker
/// included.
fn segment(records: &[TraceRecord], label: &str) -> Vec<TraceRecord> {
    let is_marker = |r: &TraceRecord| matches!(r.event, TraceEvent::RunMarker { .. });
    let start = records
        .iter()
        .position(|r| matches!(&r.event, TraceEvent::RunMarker { label: l } if l == label))
        .unwrap_or_else(|| panic!("no segment {label}"));
    let end = records[start + 1..]
        .iter()
        .position(is_marker)
        .map_or(records.len(), |i| start + 1 + i);
    records[start..end].to_vec()
}

/// Record the three traces once per test process, each as JSONL and
/// `.strc`, and return the scratch dir holding `{fleet,cluster,mixed}`.
fn traces() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("salamander-rollup-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("results")).expect("create scratch dir");
        run(
            env!("CARGO_BIN_EXE_fig3a"),
            &[
                "--devices",
                "40",
                "--days",
                "1500",
                "--trace",
                "fleet.jsonl",
            ],
            &dir,
        );
        run(
            env!("CARGO_BIN_EXE_recovery"),
            &[
                "--recovery-budget",
                "2",
                "--churn",
                "250",
                "--trace",
                "cluster.jsonl",
            ],
            &dir,
        );
        let read = |name: &str| {
            parse_jsonl(&std::fs::read_to_string(dir.join(name)).expect("read trace"))
                .expect("parse trace")
        };
        let mut mixed = segment(&read("fleet.jsonl"), "fleet=RegenS");
        mixed.extend(
            segment(&read("cluster.jsonl"), "recovery=ShrinkS")
                .into_iter()
                .skip(1),
        );
        resequence(&mut mixed);
        std::fs::write(dir.join("mixed.jsonl"), to_jsonl(&mixed)).expect("write mixed trace");
        for name in ["fleet", "cluster", "mixed"] {
            let records = read(&format!("{name}.jsonl"));
            write_strc(&dir.join(format!("{name}.strc")), &records, 64).expect("write .strc");
        }
        dir
    })
}

/// `obsctl <cmd> <trace> <args>` over both formats of `trace` must
/// print the golden `name` byte for byte.
fn assert_golden(name: &str, cmd: &str, trace: &str, args: &[&str]) {
    let mut outputs = Vec::new();
    for ext in ["jsonl", "strc"] {
        let path = traces()
            .join(format!("{trace}.{ext}"))
            .display()
            .to_string();
        let mut argv = vec![cmd, path.as_str()];
        argv.extend_from_slice(args);
        outputs.push(run(env!("CARGO_BIN_EXE_obsctl"), &argv, traces()));
    }
    assert_eq!(
        outputs[0], outputs[1],
        "obsctl {cmd} {args:?} differs between JSONL and .strc"
    );
    let path = data_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &outputs[0]).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} (run with UPDATE_GOLDENS=1): {e}"));
    assert_eq!(
        outputs[0], golden,
        "obsctl output drifted from {name}; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn fleet_timeline_matches_golden() {
    assert_golden("golden_fleet_timeline.txt", "fleet-timeline", "fleet", &[]);
}

#[test]
fn percentiles_match_goldens() {
    assert_golden(
        "golden_percentiles_wear.txt",
        "percentiles",
        "fleet",
        &["wear"],
    );
    assert_golden(
        "golden_percentiles_health.txt",
        "percentiles",
        "fleet",
        &["health"],
    );
}

#[test]
fn latency_tables_match_goldens() {
    assert_golden("golden_latency.txt", "latency", "fleet", &[]);
    assert_golden(
        "golden_latency_host_read.txt",
        "latency",
        "fleet",
        &["host_read"],
    );
}

#[test]
fn cluster_and_exposure_match_goldens() {
    assert_golden("golden_cluster.txt", "cluster", "cluster", &[]);
    assert_golden("golden_exposure.txt", "exposure", "cluster", &[]);
}

#[test]
fn drill_matches_goldens() {
    // A day with fleet and latency rollups, a day past every sample,
    // and a tick with cluster rollups in two of three segments.
    assert_golden("golden_drill_fleet_360.txt", "drill", "fleet", &["360"]);
    assert_golden("golden_drill_fleet_900.txt", "drill", "fleet", &["900"]);
    assert_golden("golden_drill_cluster_14.txt", "drill", "cluster", &["14"]);
    // One segment carrying all three families: the top anomalies mix
    // fleet death spikes with recovery storms.
    assert_golden("golden_drill_mixed_360.txt", "drill", "mixed", &["360"]);
    assert_golden("golden_drill_mixed_14.txt", "drill", "mixed", &["14"]);
}
