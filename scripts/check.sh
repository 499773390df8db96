#!/usr/bin/env bash
# Offline-friendly repository checks: format, lints, build, tests.
#
# Everything runs against the vendored dependency stand-ins under
# vendor/ — no network or registry access is needed at any point.
#
# Usage: scripts/check.sh [--quick] [--bench]
#   --quick   skip the release build (debug build + tests only)
#   --bench   also run the perf-regression gate (scripts/bench.sh --check)

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
bench=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    --bench) bench=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

# Library crates must not print: structured output goes through
# salamander-obs (DESIGN.md §9), and the telemetry server answers over
# HTTP, never stdout. The bench harness binaries (and the
# report/profile printers that exist to print) are the only exemptions.
echo "==> checking library crates (incl. salamander-telemetry) for println!"
if grep -rn 'println!' crates/*/src \
    --include='*.rs' \
    --exclude-dir=bin |
    grep -v '^crates/bench/' |
    grep -v 'crates/core/src/report.rs' |
    grep -v '^\s*//' |
    grep -v '///'; then
    echo "error: println! in a library crate; emit through salamander-obs instead" >&2
    exit 1
fi

# Float sorts must be NaN-total: a NaN from a degenerate configuration
# must produce a deterministic order (and surface downstream), never a
# panic inside a comparator. `f64::total_cmp` is the only accepted
# float comparator in sorts; `partial_cmp().unwrap()` has bitten twice
# (fleet variance sort, bench percentile sort).
echo "==> checking for NaN-unsafe float sorts (partial_cmp in sort_*)"
if grep -rn 'sort[a-z_]*(' crates/*/src crates/*/tests vendor/*/src \
    --include='*.rs' -A2 |
    grep 'partial_cmp' |
    grep -v '^\s*//'; then
    echo "error: float sort via partial_cmp; use f64::total_cmp instead" >&2
    exit 1
fi

if [ "$quick" -eq 0 ]; then
    run cargo build --release --workspace
fi
# Tier-1 gate: the release build above plus the test suite.
run cargo test --workspace -q
# The DESIGN.md §9 determinism contract, enforced explicitly: traces
# and metrics must be byte-identical at any thread count.
run cargo test --test trace_determinism
# The benchmark package (perfbench/, its own workspace) calls the
# workspace crates' APIs: build and test it here, so an API change that
# breaks it fails CI rather than the benchmark run.
run cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# obsctl end-to-end smoke (DESIGN.md §11): trace a real run from a
# scratch cwd (so its results/ and metrics stay out of the repo), then
# drive every query against the artifacts. Needs the release binaries,
# so it only runs in full mode.
if [ "$quick" -eq 0 ]; then
    echo "==> obsctl smoke"
    repo="$PWD"
    smoke="$(mktemp -d)"
    trap 'rm -rf "$smoke"' EXIT
    (
        cd "$smoke"
        mkdir -p results
        "$repo/target/release/lifetime" --modes-only \
            --trace run.jsonl --metrics >/dev/null
        # Convert to the indexed binary format and drive every trace
        # query against both; the indexed path must answer identically.
        "$repo/target/release/obsctl" convert run.jsonl run.strc 2>/dev/null
        for q in "lifecycle run.jsonl" "why run.jsonl" \
            "fleet run.jsonl --csv" "health run.jsonl" \
            "lifecycle run.strc" "why run.strc" \
            "fleet run.strc --csv" "health run.strc" \
            "diff results/lifetime.prom results/lifetime.prom"; do
            # shellcheck disable=SC2086
            out="$("$repo/target/release/obsctl" $q)"
            if [ -z "$out" ]; then
                echo "error: obsctl $q produced no output" >&2
                exit 1
            fi
        done
        for q in lifecycle why fleet health; do
            if ! diff <("$repo/target/release/obsctl" "$q" run.jsonl) \
                <("$repo/target/release/obsctl" "$q" run.strc) >/dev/null; then
                echo "error: obsctl $q differs between JSONL and .strc" >&2
                exit 1
            fi
        done
        # The id-filtered path (bloom-selected read-path records) on the
        # minidisk `why` explains by default.
        mdisk="$("$repo/target/release/obsctl" why run.jsonl |
            sed -n 's/^why: minidisk \([0-9]*\) .*/\1/p')"
        if [ -z "$mdisk" ]; then
            echo "error: obsctl why names no decommissioned minidisk" >&2
            exit 1
        fi
        for q in lifecycle why; do
            if ! diff <("$repo/target/release/obsctl" "$q" run.jsonl --mdisk "$mdisk") \
                <("$repo/target/release/obsctl" "$q" run.strc --mdisk "$mdisk") >/dev/null; then
                echo "error: obsctl $q --mdisk $mdisk differs between JSONL and .strc" >&2
                exit 1
            fi
        done
        # Lossless round trip back to JSONL.
        "$repo/target/release/obsctl" convert run.strc run2.jsonl 2>/dev/null
        cmp run.jsonl run2.jsonl
        echo "obsctl smoke passed"

        # Fleet rollup queries (DESIGN.md §14): record a small fleet run
        # with per-day rollups, then drive the timeline / percentile /
        # drill-down queries over both formats.
        echo "==> obsctl fleet rollup smoke"
        "$repo/target/release/fig3a" --devices 40 --days 1500 \
            --trace fleet.jsonl >/dev/null
        "$repo/target/release/obsctl" convert fleet.jsonl fleet.strc 2>/dev/null
        for q in "fleet-timeline" "percentiles wear" "percentiles health" \
            "drill 900" "drill 360" "drill 1"; do
            set -- $q
            cmd="$1"
            shift
            if ! diff <("$repo/target/release/obsctl" "$cmd" fleet.jsonl "$@") \
                <("$repo/target/release/obsctl" "$cmd" fleet.strc "$@") >/dev/null; then
                echo "error: obsctl $q differs between JSONL and .strc" >&2
                exit 1
            fi
        done
        "$repo/target/release/obsctl" fleet-timeline fleet.strc |
            grep -q '== fleet=Baseline' ||
            {
                echo "error: fleet-timeline missing Baseline segment" >&2
                exit 1
            }
        "$repo/target/release/obsctl" percentiles fleet.strc wear |
            grep -q 'wear distribution' ||
            {
                echo "error: percentiles missing header" >&2
                exit 1
            }
        "$repo/target/release/obsctl" drill fleet.strc 900 |
            grep -q 'day 900' ||
            {
                echo "error: drill missing day detail" >&2
                exit 1
            }
        if "$repo/target/release/obsctl" percentiles fleet.strc bogus \
            2>/dev/null; then
            echo "error: percentiles accepted an unknown distribution" >&2
            exit 1
        fi
        echo "obsctl fleet rollup smoke passed"

        # Latency rollup queries (DESIGN.md §15): the fleet trace above
        # carries per-day tail-latency rollups; the latency table, the
        # per-class view, and the drill-down's latency section must be
        # string-identical over JSONL and the indexed .strc path.
        echo "==> obsctl latency smoke"
        for q in "latency" "latency host_read" "latency host_write"; do
            set -- $q
            cmd="$1"
            shift
            if ! diff <("$repo/target/release/obsctl" "$cmd" fleet.jsonl "$@") \
                <("$repo/target/release/obsctl" "$cmd" fleet.strc "$@") >/dev/null; then
                echo "error: obsctl $q differs between JSONL and .strc" >&2
                exit 1
            fi
        done
        "$repo/target/release/obsctl" latency fleet.strc |
            grep -q 'host_read' ||
            {
                echo "error: latency table missing host_read class" >&2
                exit 1
            }
        # Day 360 still has survivors in this config, so the drill
        # must include the latency distributions (day 900 is past the
        # last sample and reports "no rollup").
        "$repo/target/release/obsctl" drill fleet.strc 360 |
            grep -q 'latency' ||
            {
                echo "error: drill missing latency distributions" >&2
                exit 1
            }
        if "$repo/target/release/obsctl" latency fleet.strc bogus \
            2>/dev/null; then
            echo "error: latency accepted an unknown op class" >&2
            exit 1
        fi
        echo "obsctl latency smoke passed"

        # Cluster durability queries (DESIGN.md §16): a throttled
        # recovery run stretches replication-exposure windows past zero
        # dwell; the timeline, exposure report, and drill cluster
        # section must be string-identical over JSONL and the indexed
        # .strc path, and the trace must be byte-identical regardless
        # of the global thread default.
        echo "==> obsctl cluster smoke"
        SALAMANDER_THREADS=1 "$repo/target/release/recovery" \
            --recovery-budget 2 --churn 250 --trace cluster.jsonl >/dev/null
        SALAMANDER_THREADS=4 "$repo/target/release/recovery" \
            --recovery-budget 2 --churn 250 --trace cluster4.jsonl >/dev/null
        cmp cluster.jsonl cluster4.jsonl
        "$repo/target/release/obsctl" convert cluster.jsonl cluster.strc 2>/dev/null
        for q in "cluster" "exposure" "drill 14" "drill 1" "drill 999"; do
            set -- $q
            cmd="$1"
            shift
            if ! diff <("$repo/target/release/obsctl" "$cmd" cluster.jsonl "$@") \
                <("$repo/target/release/obsctl" "$cmd" cluster.strc "$@") >/dev/null; then
                echo "error: obsctl $q differs between JSONL and .strc" >&2
                exit 1
            fi
        done
        "$repo/target/release/obsctl" cluster cluster.strc |
            grep -q '== recovery=ShrinkS' ||
            {
                echo "error: cluster timeline missing ShrinkS segment" >&2
                exit 1
            }
        # The throttle must show up as a multi-tick dwell tail (p99
        # past one tick), not only same-tick repairs.
        "$repo/target/release/obsctl" exposure cluster.strc |
            grep -q 'p99<[0-9]*[02-9]' ||
            {
                echo "error: exposure report shows no stretched dwell tail" >&2
                exit 1
            }
        "$repo/target/release/obsctl" drill cluster.strc 14 |
            grep -q 'cluster durability' ||
            {
                echo "error: drill missing cluster durability section" >&2
                exit 1
            }
        echo "obsctl cluster smoke passed"
    )
fi

# Live telemetry smoke (DESIGN.md §12): run with --serve, scrape every
# endpoint over bash /dev/tcp (no curl dependency), and check that the
# final /metrics scrape equals the --metrics file byte-for-byte.
if [ "$quick" -eq 0 ]; then
    echo "==> live telemetry smoke"
    (
        cd "$smoke"
        "$repo/target/release/lifetime" --modes-only --metrics \
            --serve 127.0.0.1:0 --serve-linger 30 >/dev/null 2>serve.log &
        pid=$!
        addr=""
        for _ in $(seq 1 200); do
            addr="$(sed -n 's#^serving telemetry on http://\([^/]*\)/$#\1#p' serve.log | head -1)"
            [ -n "$addr" ] && break
            sleep 0.1
        done
        if [ -z "$addr" ]; then
            echo "error: telemetry server never announced an address" >&2
            kill "$pid" 2>/dev/null || true
            exit 1
        fi
        host="${addr%:*}"
        port="${addr##*:}"
        scrape() { # scrape <path> -> body on stdout
            exec 3<>"/dev/tcp/$host/$port"
            printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3
            # Body = everything after the blank header separator line.
            sed -e '1,/^\r\{0,1\}$/d' <&3
            exec 3<&- 3>&-
        }
        for path in /healthz /progress /metrics "/trace/tail?n=5" \
            /latency "/latency/series?class=host_read&stat=p99"; do
            if [ -z "$(scrape "$path")" ]; then
                echo "error: GET $path produced no body" >&2
                kill "$pid" 2>/dev/null || true
                exit 1
            fi
        done
        # Wait for the run to finish, then the final scrape must equal
        # the exposition on disk.
        for _ in $(seq 1 600); do
            scrape /progress | grep -q '"done":true' && break
            sleep 0.1
        done
        scrape /metrics >final.prom
        cmp final.prom results/lifetime.prom
        scrape /quit >/dev/null
        wait "$pid"
        echo "live telemetry smoke passed"

        # Live cluster telemetry (DESIGN.md §16): a throttled recovery
        # run publishes per-mode durability rollups; /cluster and
        # /cluster/series must serve them (the harness folds rollups
        # even with tracing off).
        echo "==> live cluster telemetry smoke"
        "$repo/target/release/recovery" --recovery-budget 2 --churn 250 \
            --serve 127.0.0.1:0 --serve-linger 30 >/dev/null 2>cserve.log &
        pid=$!
        addr=""
        for _ in $(seq 1 200); do
            addr="$(sed -n 's#^serving telemetry on http://\([^/]*\)/$#\1#p' cserve.log | head -1)"
            [ -n "$addr" ] && break
            sleep 0.1
        done
        if [ -z "$addr" ]; then
            echo "error: recovery telemetry server never announced an address" >&2
            kill "$pid" 2>/dev/null || true
            exit 1
        fi
        host="${addr%:*}"
        port="${addr##*:}"
        for _ in $(seq 1 600); do
            scrape /progress | grep -q '"done":true' && break
            sleep 0.1
        done
        scrape /cluster | grep -q '"exposure_windows"' ||
            {
                echo "error: /cluster missing rollups" >&2
                kill "$pid" 2>/dev/null || true
                exit 1
            }
        scrape "/cluster/series?metric=backlog_chunks" | grep -q '"series"' ||
            {
                echo "error: /cluster/series missing backlog series" >&2
                kill "$pid" 2>/dev/null || true
                exit 1
            }
        scrape /quit >/dev/null
        wait "$pid"
        echo "live cluster telemetry smoke passed"
    )
fi

# Opt-in perf gate: wall-clock measurements are machine-dependent, so
# the regression check only runs when explicitly requested.
if [ "$bench" -eq 1 ]; then
    run scripts/bench.sh --check
fi

echo "All checks passed."
