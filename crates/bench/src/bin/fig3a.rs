//! E2 / Fig. 3a — functioning SSDs over time: a baseline fleet dies off
//! abruptly as devices brick; ShrinkS/RegenS devices shrink instead,
//! flattening the failure slope.
//!
//! Run: `cargo run --release -p salamander-bench --bin fig3a -- --devices 100 --dwpd 5`
//! Observability: `--trace <path>`, `--metrics`, `--profile`,
//! `--serve <addr>` (DESIGN.md §9/§12).

use salamander::report::Table;
use salamander_bench::{emit, fig3_fleets, Fig3Fleets, ObsArgs};
use salamander_fleet::sim::FleetTimeline;

fn main() {
    let obs_args = ObsArgs::parse();
    let profiler = obs_args.profiler();
    let session = obs_args.serve_session("fig3a");
    let Fig3Fleets {
        runs,
        trace,
        metrics,
    } = fig3_fleets(&profiler, session.as_ref());

    let mut table = Table::new(
        "Fig. 3a — functioning SSDs over time",
        &["day", "Baseline", "ShrinkS", "RegenS"],
    );
    // Union of sample days (all runs share the sampling grid).
    let days: Vec<u32> = runs[0].1.samples.iter().map(|s| s.day).collect();
    for &day in &days {
        let alive = |t: &FleetTimeline| {
            t.samples
                .iter()
                .rev()
                .find(|s| s.day <= day)
                .map(|s| s.alive)
                .unwrap_or(0)
        };
        table.row(vec![
            day.to_string(),
            alive(&runs[0].1).to_string(),
            alive(&runs[1].1).to_string(),
            alive(&runs[2].1).to_string(),
        ]);
    }
    emit("fig3a", &table);
    let code = obs_args.finish("fig3a", trace, metrics, &profiler, session);

    for (name, t) in &runs {
        match t.half_fleet_dead_day() {
            Some(d) => println!("{name}: half the fleet dead by day {d}"),
            None => println!("{name}: more than half the fleet alive at the horizon"),
        }
    }
    println!(
        "Paper shape: Salamander modes flatten the device-failure slope \
         (wear deaths are deferred by shrinking/regenerating; the residual \
         slope is the 1% AFR both fleets share). Example endurance sim uses \
         a single device model: the wear model default endures ~3000 PEC."
    );
    // Sanity check of the expected ordering; devices running the
    // fleet-default parameters should show it clearly.
    let first_dead_day = |t: &FleetTimeline| {
        t.samples
            .iter()
            .find(|s| s.wear_deaths > 0)
            .map(|s| s.day)
            .unwrap_or(u32::MAX)
    };
    let base_first = first_dead_day(&runs[0].1);
    let regen_first = first_dead_day(&runs[2].1);
    if base_first != u32::MAX && regen_first != u32::MAX {
        println!(
            "first wear death: Baseline day {base_first}, RegenS day {regen_first} \
             ({:.2}x later)",
            regen_first as f64 / base_first as f64
        );
    }
    std::process::exit(code);
}
