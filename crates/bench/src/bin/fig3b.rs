//! E3 / Fig. 3b — available fleet capacity over time: baseline capacity
//! falls in whole-device cliffs; Salamander capacity declines gradually in
//! minidisk steps and stretches further out in time.
//!
//! Run: `cargo run --release -p salamander-bench --bin fig3b`
//! Observability: `--trace <path>`, `--metrics`, `--profile`,
//! `--serve <addr>` (DESIGN.md §9/§12).

use salamander::report::{pct, Table};
use salamander_bench::{emit, fig3_fleets, Fig3Fleets, ObsArgs};
use salamander_fleet::sim::FleetTimeline;

fn main() {
    let obs_args = ObsArgs::parse();
    let profiler = obs_args.profiler();
    let session = obs_args.serve_session("fig3b");
    let Fig3Fleets {
        runs,
        trace,
        metrics,
    } = fig3_fleets(&profiler, session.as_ref());
    let (base, shrink, regen) = (&runs[0].1, &runs[1].1, &runs[2].1);

    let mut table = Table::new(
        "Fig. 3b — available fleet capacity over time (fraction of initial)",
        &["day", "Baseline", "ShrinkS", "RegenS"],
    );
    for s in &base.samples {
        let f = |t: &FleetTimeline| pct(t.capacity_fraction_at(s.day).unwrap_or(0.0));
        table.row(vec![s.day.to_string(), f(base), f(shrink), f(regen)]);
    }
    emit("fig3b", &table);
    let code = obs_args.finish("fig3b", trace, metrics, &profiler, session);

    // Capacity half-life: first day the fleet is below 50% capacity.
    for (name, t) in &runs {
        let half = t
            .samples
            .iter()
            .find(|s| (s.capacity_opages as f64) < 0.5 * t.samples[0].capacity_opages as f64)
            .map(|s| s.day);
        match half {
            Some(d) => println!("{name}: fleet capacity below 50% by day {d}"),
            None => println!("{name}: fleet capacity above 50% at the horizon"),
        }
    }
    println!(
        "Paper shape: the Salamander curves decline later and more \
         gradually than the baseline cliff."
    );
    std::process::exit(code);
}
