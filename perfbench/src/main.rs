//! Command line of the Salamander benchmark; see the library docs.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload (or, with `all`, each in turn) and prints each figure with
//! its unit and sample count, then one JSON summary line per workload.
//! The saved result (fingerprint plus figures) and, when traced, the
//! spans go to `.bench_out/`.
//! `--compare <a> <b>` compares two saved results and refuses when
//! their host fingerprints differ.

use salamander_perfbench::{host, report, run, Opts, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let read = |k: usize| {
            let path = args.get(i + k).map_or("", String::as_str);
            std::fs::read_to_string(path).map_err(|e| format!("cannot read result '{path}': {e}"))
        };
        return match read(1).and_then(|a| report::compare(&a, &read(2)?)) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parsed = (|| {
        Some(Opts {
            workload: arg("--workload")?,
            seed: arg("--seed")?.parse().ok()?,
            seconds: arg("--seconds")?.parse().ok()?,
            trace: arg("--trace").as_deref().unwrap_or("0") == "1",
            size: Size::Full,
            out_dir: PathBuf::from(".bench_out"),
        })
    })();
    let Some(o) = parsed else {
        eprintln!("usage: --workload <name> --seed <n> --seconds <s> [--trace 0|1]");
        return ExitCode::from(2);
    };
    let fingerprint = host::fingerprint();
    println!("host {fingerprint}");
    let names: Vec<&str> = match o.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => {
            eprintln!("unknown workload '{w}' (expected one of {WORKLOADS:?} or all)");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for name in names {
        let o = Opts {
            workload: name.to_string(),
            ..o.clone()
        };
        println!(
            "workload {name} seed {} trace {}",
            o.seed,
            u8::from(o.trace)
        );
        let rep = run(&o).expect("a known workload");
        let stem = o
            .out_dir
            .join(format!("{name}-seed{}-trace{}", o.seed, u8::from(o.trace)));
        let stem = stem.display();
        let saved = std::fs::create_dir_all(&o.out_dir)
            .and_then(|_| std::fs::write(format!("{stem}.txt"), rep.result_file(&fingerprint)))
            .and_then(|_| match &rep.spans {
                Some(s) => std::fs::write(format!("{stem}.spans.tsv"), s),
                None => Ok(()),
            });
        if let Err(e) = saved {
            eprintln!("cannot save the result under {}: {e}", o.out_dir.display());
        }
        print!("{}", rep.human());
        println!("{}", rep.json());
        correct &= rep.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
