#!/usr/bin/env bash
# Loop the SMP stress binary.  Each run races real host threads, so one
# pass proves little: build the binary once (debug, where a second
# writer of owner-written CPU state panics) and run it many times.
#
#   tools/stress.sh            # smp_stress 50x
set -euo pipefail
cd "$(dirname "$0")/.."

# The test executable cargo builds for the given selection.
executable() {
    cargo test -q --locked --offline "$@" --no-run --message-format=json |
        python3 -c 'import json, sys
exes = [m["executable"] for m in map(json.loads, sys.stdin) if m.get("executable")]
print(exes[-1])'
}

# loop N CARGO-ARGS...: run the selected binary N times, stop at the
# first failure with its output.
loop() {
    local n=$1 bin out
    shift
    bin=$(executable "$@")
    for i in $(seq "$n"); do
        if ! out=$("$bin" -q 2>&1); then
            printf '%s\n' "$out"
            echo "stress: $* failed on run $i of $n"
            exit 1
        fi
    done
    echo "stress: $* passed $n/$n"
}

loop 50 --test smp_stress
