#!/usr/bin/env bash
# Perf-regression harness driver (DESIGN.md §10).
#
# Builds the release binaries, runs crates/bench/src/bin/perf.rs, and
# refreshes BENCH_ftl_micro.json / BENCH_lifetime.json /
# BENCH_fleet_scale.json at the repo root. The refresh passes
# --fleet-full so the committed fleet report always carries the 100k
# mode sweep and the 1M entries (minutes of wall clock).
#
# Usage: scripts/bench.sh [--check] [--runs N]
#   --check   compare fresh medians against the committed
#             BENCH_lifetime.json and BENCH_fleet_scale.json instead of
#             overwriting them; fail if either gated median regressed
#             by more than 10%.
#   --runs N  timed repetitions per benchmark (default 20).

set -euo pipefail
cd "$(dirname "$0")/.."

check=0
runs=20
while [ $# -gt 0 ]; do
    case "$1" in
    --check) check=1 ;;
    --runs)
        runs="$2"
        shift
        ;;
    *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
    shift
done

echo "==> cargo build --release -p salamander-bench"
cargo build --release -q -p salamander-bench

if [ "$check" -eq 0 ]; then
    ./target/release/perf --runs "$runs" --fleet-full
    echo "Baselines refreshed. Commit BENCH_*.json to update the gate."
    exit 0
fi

# --check: measure into a scratch dir, then compare medians against the
# committed baselines. Gated entries: the end-to-end run and the first
# fleet_scale entry (the cheap, warm 10k cohort run) — the micro
# benches are attribution aids, too small to gate on a shared machine,
# and the heavyweight fleet entries are one-offs, not gates. The 10k
# cohort entry runs with per-day rollup kernels enabled (they are
# unconditional, DESIGN.md §14), so rollup overhead is priced into this
# gate: a kernel regression past the 10% budget fails here. The same
# goes for the latency histogram kernels (DESIGN.md §15): both engines
# fold per-class latency histograms on every sampled day even with no
# trace or serve attached, so the disabled-path cost of the latency
# observability sits inside this 10% budget too — the gate fails if the
# per-op cost accounting ever stops being effectively free.
if [ ! -f BENCH_lifetime.json ] || [ ! -f BENCH_fleet_scale.json ]; then
    echo "error: missing committed BENCH_lifetime.json or BENCH_fleet_scale.json" >&2
    exit 1
fi
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
./target/release/perf --runs "$runs" --e2e-only --out "$scratch"
./target/release/perf --fleet-only --fleet-runs 5 --out "$scratch"

# gate <label> <committed.json> <fresh.json>: compare the first
# median_ns in each; fail when fresh > committed * 1.10 (integer math:
# new*10 > old*11).
gate() {
    local label="$1" committed="$2" fresh="$3" old new pct
    old=$(grep -o '"median_ns":[0-9]*' "$committed" | head -1 | cut -d: -f2)
    new=$(grep -o '"median_ns":[0-9]*' "$fresh" | head -1 | cut -d: -f2)
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "error: could not parse median_ns from $label reports" >&2
        exit 1
    fi
    echo "$label median: committed ${old} ns, fresh ${new} ns"
    if [ $((new * 10)) -gt $((old * 11)) ]; then
        pct=$(((new - old) * 100 / old))
        echo "error: $label regressed ${pct}% (> 10% budget)" >&2
        exit 1
    fi
}
gate "lifetime --modes-only" BENCH_lifetime.json "$scratch/BENCH_lifetime.json"
gate "fleet_cohort_10k_shrink" BENCH_fleet_scale.json "$scratch/BENCH_fleet_scale.json"
echo "Perf check passed (within 10% of committed baselines)."
