#!/usr/bin/env bash
# Build the benchmark harness offline and run it.
#
#   run.sh                      every workload, untraced: end-to-end metrics
#   run.sh --trace              every workload, traced: per-layer metrics,
#                               raw spans in out/trace.json
#   run.sh --check              both of the above twice plus a second seed,
#                               compared (check.py)
#   run.sh --describe           print what BENCHMARK.json must contain
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                               one workload; the last line of output is
#                               the JSON result (what the driver calls)
#
# --seed and --seconds may be added to the first two forms.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
workloads=(serve_native serve_virtual churn_native churn_virtual serve_switching switch_cycle)

# One target directory per variant, so switching between them never
# relinks.  A relative CARGO_TARGET_DIR is relative to the caller.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_NET_OFFLINE=true

# build <untraced|traced>: prints nothing on success; the path of the
# program is $target/<variant>/release/mercury-benchmark.
build() {
    local features=()
    [ "$1" = traced ] && features=(--features trace)
    CARGO_TARGET_DIR="$target/$1" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" ${features[@]+"${features[@]}"} >&2
}

bin() { echo "$target/$1/release/mercury-benchmark"; }

BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

# one <trace 0|1> <args for the program...>
one() {
    local trace="$1"
    shift
    build untraced || return 1
    if [ "$trace" = 0 ]; then
        "$(bin untraced)" "$@" --trace 0 --out "$out"
        return
    fi
    build traced || return 1
    # The traced build runs a quarter of the ops; the untraced build
    # runs the same quarter first, for the tracing overhead and so the
    # simulated results of the two builds can be compared.
    local reference rate
    reference="$("$(bin untraced)" "$@" --trace 0 --ops quarter --out "$out" | tail -n 1)"
    rate="$(sed -n 's/.*"host_ops_per_s": {"value": \([0-9.eE+-]*\).*/\1/p' <<<"$reference")"
    [ -n "$rate" ] || { echo "no host_ops_per_s in the untraced reference run" >&2; return 1; }
    "$(bin traced)" "$@" --trace 1 --untraced-ops-per-s "$rate" --out "$out"
}

mode=all
trace=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --check) shift; exec python3 "$here/check.py" "$@" ;;
        --describe) build untraced; exec "$(bin untraced)" describe ;;
        --workload) mode=one; pass+=("$1" "$2"); shift 2 ;;
        --trace)
            # Bare in the all-workloads form, with a value from the driver.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ "$mode" = one ]; then
    one "$trace" "${pass[@]}"
    exit
fi

status=0
for w in "${workloads[@]}"; do
    one "$trace" --workload "$w" "${pass[@]}" | sed '$d' || status=1
    echo
done
if [ "$trace" = 1 ]; then
    # Each traced run left its raw spans as one JSON array; join them.
    {
        printf '{'
        sep=''
        for w in "${workloads[@]}"; do
            printf '%s"%s": ' "$sep" "$w"
            cat "$out/trace.$w.json"
            sep=', '
        done
        printf '}\n'
    } >"$out/trace.json"
    for w in "${workloads[@]}"; do rm -f "$out/trace.$w.json"; done
    echo "raw spans of the first 1000 ops of each workload: $out/trace.json"
fi
exit $status
