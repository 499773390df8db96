//! `obsctl` — query Salamander telemetry artifacts offline
//! (DESIGN.md §11, "Diagnosing a run with obsctl" in the README).
//!
//! ```text
//! obsctl lifecycle      <trace> [--mdisk N]  minidisk lifecycle timeline
//! obsctl why            <trace> [--mdisk N]  causal chain for a decommission
//! obsctl fleet          <trace> [--csv]      fleet deaths rollup
//! obsctl fleet-timeline <trace>              per-day fleet rollup series
//! obsctl percentiles    <trace> <metric>     rollup percentile table
//! obsctl drill          <trace> <day>        one day's rollup + anomalies
//! obsctl latency        <trace> [class]      per-op-class tail latency table
//! obsctl cluster        <trace>              per-tick cluster durability series
//! obsctl exposure       <trace>              replication-exposure window report
//! obsctl health         <trace>              health report from a trace (JSON)
//! obsctl diff           <a.prom> <b.prom>    diff two metric expositions
//! obsctl convert        <in> <out>           convert a trace JSONL <-> .strc
//! ```
//!
//! `<trace>` is a JSONL trace or an indexed `.strc` flight recording
//! (by extension). Over `.strc`, the lifecycle/why/fleet queries use
//! the footer index to decode only the chunks that can matter; bulk
//! wear/GC chunks fold into the totals straight from their summaries
//! (DESIGN.md §12).
//!
//! Every query is a pure function in `salamander_health::query` (or a
//! [`HealthMonitor`] fold); this binary only parses argv, reads files,
//! and prints. Parse failures surface the typed [`ParseError`] — line
//! number and offending snippet — and exit 2.

use salamander_bench::has_flag;
use salamander_health::query::{self, Query, TraceSource};
use salamander_health::{HealthMonitor, HealthUnit};
use salamander_obs::strc::{self, StrcReader};
use salamander_obs::{trace, TraceRecord};

const USAGE: &str = "\
obsctl — query Salamander telemetry artifacts

USAGE:
  obsctl lifecycle      <trace> [--mdisk N]  minidisk lifecycle timeline
  obsctl why            <trace> [--mdisk N]  causal chain for a decommission
  obsctl fleet          <trace> [--csv]      fleet deaths rollup
  obsctl fleet-timeline <trace>              per-day fleet rollup series
  obsctl percentiles    <trace> <metric>     rollup percentile table
                                             (metric: wear|pec|usable|health)
  obsctl drill          <trace> <day>        one day's rollup + fleet anomalies
  obsctl latency        <trace> [class]      per-op-class tail latency table
                                             (class: host_read|host_write|gc|scrub|regen)
  obsctl cluster        <trace>              per-tick cluster durability series
                                             (states, backlog, recovery traffic, anomalies)
  obsctl exposure       <trace>              replication-exposure window report
                                             (dwell percentiles, data at risk)
  obsctl health         <trace>              health report from a trace (JSON)
  obsctl diff           <a.prom> <b.prom>    diff two metric expositions
  obsctl convert        <in> <out>           convert a trace JSONL <-> .strc

<trace> may be JSONL or an indexed .strc recording (by extension).
";

/// Whether a path names an indexed binary trace.
fn is_strc(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e == "strc")
}

/// Open a `.strc` trace, exiting with the obsctl conventions on error
/// (1 = unreadable, 2 = corrupt).
fn open_strc(path: &str) -> StrcReader {
    match StrcReader::open(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(strc::StrcError::Io(e)) => {
            eprintln!("obsctl: cannot read {path}: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("obsctl: {path} is not a valid trace: {e}");
            std::process::exit(2);
        }
    }
}

/// Exit 2 on a mid-read `.strc` failure.
fn indexed<T>(path: &str, result: Result<T, strc::StrcError>) -> T {
    match result {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obsctl: {path} is not a valid trace: {e}");
            std::process::exit(2);
        }
    }
}

/// Hand `f` the trace at `path` as a [`TraceSource`]: an indexed
/// reader for `.strc`, the parsed records for JSONL.
fn with_trace<T>(path: &str, f: impl FnOnce(TraceSource<'_>) -> T) -> T {
    if is_strc(path) {
        return f(TraceSource::Strc(&mut open_strc(path)));
    }
    match trace::parse_jsonl(&read_file(path)) {
        Ok(records) => f(TraceSource::Records(&records)),
        Err(e) => {
            // The typed error carries the 1-based line and a snippet of
            // the offending text — point straight at the corruption.
            eprintln!("obsctl: {path} is not a valid trace: {e}");
            std::process::exit(2);
        }
    }
}

/// Run `q` over the trace at `path` and print its answer.
fn print_query(path: &str, q: Query<'_>) {
    print!("{}", indexed(path, with_trace(path, |src| q.run(src))));
}

/// Positional (non-flag) arguments after the program name, skipping
/// flag values (`--mdisk 3` consumes both tokens).
fn positionals() -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a == "--mdisk" {
            skip = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a);
    }
    out
}

/// `--mdisk N`, if present and numeric.
fn mdisk_arg() -> Option<u32> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--mdisk")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn read_file(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obsctl: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Pick the analytics clock for a trace: day-clock if any record
/// carries a day stamp, op-clock otherwise (endurance runs never
/// advance the day counter).
fn unit_for(records: &[TraceRecord]) -> HealthUnit {
    if records.iter().any(|r| r.time.day > 0) {
        HealthUnit::Days
    } else {
        HealthUnit::Ops
    }
}

fn main() {
    let pos = positionals();
    let Some(cmd) = pos.first() else {
        eprint!("{USAGE}");
        std::process::exit(1);
    };
    match (cmd.as_str(), pos.get(1), pos.get(2)) {
        ("lifecycle", Some(path), None) => print_query(path, Query::Lifecycle(mdisk_arg())),
        ("why", Some(path), None) => print_query(path, Query::Why(mdisk_arg())),
        ("fleet", Some(path), None) => print_query(path, Query::Fleet(has_flag("--csv"))),
        ("fleet-timeline", Some(path), None) => print_query(path, Query::FleetTimeline),
        ("percentiles", Some(path), Some(metric)) => {
            if !salamander_obs::DIST_NAMES.contains(&metric.as_str()) {
                eprintln!(
                    "obsctl: unknown distribution '{metric}' (expected one of {:?})",
                    salamander_obs::DIST_NAMES
                );
                std::process::exit(2);
            }
            print_query(path, Query::Percentiles(metric));
        }
        ("drill", Some(path), Some(day)) => {
            let day: u32 = match day.parse() {
                Ok(d) => d,
                Err(_) => {
                    eprintln!("obsctl: '{day}' is not a day number");
                    std::process::exit(2);
                }
            };
            print_query(path, Query::Drill(day));
        }
        ("latency", Some(path), class) => {
            let class = class.map(String::as_str);
            if let Some(c) = class {
                if !salamander_obs::LAT_CLASSES.contains(&c) {
                    eprintln!(
                        "obsctl: unknown op class '{c}' (expected one of {:?})",
                        salamander_obs::LAT_CLASSES
                    );
                    std::process::exit(2);
                }
            }
            print_query(path, Query::Latency(class));
        }
        ("cluster", Some(path), None) => print_query(path, Query::Cluster),
        ("exposure", Some(path), None) => print_query(path, Query::Exposure),
        ("health", Some(path), None) => {
            let report = with_trace(path, |src| {
                let decoded;
                let records = match src {
                    TraceSource::Records(records) => records,
                    TraceSource::Strc(reader) => {
                        decoded = indexed(path, reader.read_all());
                        &decoded
                    }
                };
                let unit = unit_for(records);
                let bucket = match unit {
                    HealthUnit::Ops => 10_000,
                    HealthUnit::Days => 7,
                };
                let mut monitor = HealthMonitor::new(unit, bucket);
                monitor.ingest_trace(records);
                monitor.report()
            });
            match serde_json::to_string(&report) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("obsctl: cannot serialize report: {e}");
                    std::process::exit(1);
                }
            }
        }
        ("diff", Some(a), Some(b)) => {
            print!("{}", query::diff_prom(&read_file(a), &read_file(b)));
        }
        ("convert", Some(input), Some(output)) => {
            let (inp, outp) = (std::path::Path::new(input), std::path::Path::new(output));
            match strc::convert_file(inp, outp) {
                Ok(n) => eprintln!("converted {input} -> {output} ({n} events)"),
                Err(strc::ConvertError::Strc(strc::StrcError::Io(e))) => {
                    eprintln!("obsctl: cannot convert {input} -> {output}: {e}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("obsctl: {input} is not a valid trace: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => {
            eprint!("{USAGE}");
            std::process::exit(1);
        }
    }
}
