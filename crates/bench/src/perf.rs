//! Std-only micro-bench runner emitting machine-readable `BENCH_*.json`.
//!
//! The workspace's one bench harness: no external bench framework,
//! just `Instant` timing with enough repetitions to make the median
//! stable on a noisy container. Each [`BenchResult`] records the
//! per-run medians plus machine and thread metadata so later changes
//! can gate against a real trajectory (`scripts/bench.sh --check`).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed benchmark: per-run wall-clock stats over `runs` repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchResult {
    /// Benchmark name (stable key for regression checks).
    pub name: String,
    /// Number of timed runs the stats are over.
    pub runs: u32,
    /// Median work items per run (ops for micro benches, 1 for
    /// end-to-end). Runs may do different amounts of work (e.g. GC
    /// passes forced), so this is a median, not a constant.
    pub iters_per_run: u64,
    /// Median wall-clock per run, nanoseconds.
    pub median_ns: u64,
    /// Fastest run, nanoseconds.
    pub min_ns: u64,
    /// Slowest run, nanoseconds.
    pub max_ns: u64,
    /// Median of the per-run `ns / iters` ratios, nanoseconds.
    pub median_ns_per_iter: u64,
}

/// Machine/thread metadata attached to every `BENCH_*.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available hardware parallelism.
    pub cpus: u32,
    /// Effective `SALAMANDER_THREADS` setting (`"auto"` when unset).
    pub salamander_threads: String,
    /// Whether the binaries were built with optimizations.
    pub release: bool,
}

impl BenchMeta {
    /// Capture the current machine's metadata.
    pub fn capture() -> Self {
        BenchMeta {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            salamander_threads: std::env::var("SALAMANDER_THREADS")
                .unwrap_or_else(|_| "auto".to_string()),
            release: !cfg!(debug_assertions),
        }
    }
}

/// A full `BENCH_*.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report family (`"lifetime"` / `"ftl_micro"`).
    pub suite: String,
    /// Machine/thread metadata.
    pub meta: BenchMeta,
    /// The measured benchmarks.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// A report for `suite` on this machine.
    pub fn new(suite: &str) -> Self {
        BenchReport {
            suite: suite.to_string(),
            meta: BenchMeta::capture(),
            results: Vec::new(),
        }
    }

    /// Look up a result by benchmark name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Serialize to pretty JSON (one stable document per file).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench report serializes")
    }

    /// Parse a `BENCH_*.json` document.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Median of a sorted-or-not sample of run times (odd-or-even safe).
fn median_of(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    let n = ns.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        ns[n / 2]
    } else {
        (ns[n / 2 - 1] + ns[n / 2]) / 2
    }
}

/// Time `f` for `runs` repetitions (plus one untimed warm-up) and
/// aggregate. `f` receives the run index and returns the number of work
/// items it performed, so per-iteration cost is derived from real
/// counts, not assumptions.
pub fn bench<F: FnMut(u32) -> u64>(name: &str, runs: u32, mut f: F) -> BenchResult {
    f(0); // warm-up: page in code and allocator state
    bench_cold(name, runs, f)
}

/// [`bench()`] without the untimed warm-up — for heavyweight end-to-end
/// entries (100k–1M-device fleets) where a run takes tens of seconds
/// and cold-start effects are negligible relative to run length.
pub fn bench_cold<F: FnMut(u32) -> u64>(name: &str, runs: u32, f: F) -> BenchResult {
    bench_setup(name, runs, |run| run, f)
}

/// The timing loop behind every entry: per run, build `setup(run)`
/// outside the timer, then time `routine` on it. `routine` returns the
/// number of work items it performed.
pub fn bench_setup<I>(
    name: &str,
    runs: u32,
    mut setup: impl FnMut(u32) -> I,
    mut routine: impl FnMut(I) -> u64,
) -> BenchResult {
    let mut samples = Vec::with_capacity(runs as usize);
    let mut iters = Vec::with_capacity(runs as usize);
    for run in 0..runs {
        let input = setup(run);
        let start = Instant::now();
        let n = routine(input).max(1);
        samples.push(start.elapsed().as_nanos() as u64);
        iters.push(n);
    }
    let per_iter: Vec<u64> = samples.iter().zip(&iters).map(|(&ns, &n)| ns / n).collect();
    BenchResult {
        name: name.to_string(),
        runs,
        iters_per_run: median_of(iters),
        median_ns: median_of(samples.clone()),
        min_ns: samples.iter().copied().min().unwrap_or(0),
        max_ns: samples.iter().copied().max().unwrap_or(0),
        median_ns_per_iter: median_of(per_iter),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median_of(vec![3, 1, 2]), 2);
        assert_eq!(median_of(vec![4, 1, 3, 2]), 2);
        assert_eq!(median_of(vec![]), 0);
    }

    #[test]
    fn bench_counts_runs_and_iters() {
        let r = bench("spin", 5, |_| {
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            1000
        });
        assert_eq!(r.runs, 5);
        assert_eq!(r.iters_per_run, 1000);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn setup_runs_outside_the_timer() {
        let r = bench_setup(
            "setup",
            3,
            |_| std::thread::sleep(std::time::Duration::from_millis(20)),
            |()| 1,
        );
        assert_eq!(r.runs, 3);
        assert!(r.max_ns < 20_000_000, "setup was timed: {r:?}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut rep = BenchReport::new("ftl_micro");
        rep.results.push(bench("noop", 3, |_| 1));
        let back = BenchReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back.suite, "ftl_micro");
        assert_eq!(back.results.len(), 1);
        assert_eq!(back.result("noop").unwrap().runs, 3);
        assert!(back.result("missing").is_none());
    }
}
