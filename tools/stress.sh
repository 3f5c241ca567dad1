#!/usr/bin/env bash
# Loop the tests that race real host threads.  One pass proves little:
# build each binary once and run it many times.
#
#   tools/stress.sh            # smp_stress 50x (debug, where a second
#                              # writer of owner-written CPU state panics),
#                              # then memory's racing line-mask tests 20x
set -euo pipefail
cd "$(dirname "$0")/.."

# The test executable cargo builds for the given selection.
executable() {
    cargo test -q --locked --offline "$@" --no-run --message-format=json |
        python3 -c 'import json, sys
exes = [m["executable"] for m in map(json.loads, sys.stdin) if m.get("executable")]
print(exes[-1])'
}

# loop N CARGO-ARGS... [-- FILTER]: run the selected binary N times,
# only the tests whose names contain FILTER if one is given; stop at the
# first failure with its output.
loop() {
    local n=$1 bin out cargo=() filter=()
    shift
    while (($#)) && [[ $1 != -- ]]; do
        cargo+=("$1")
        shift
    done
    if (($#)); then
        shift
        filter=("$@")
    fi
    bin=$(executable "${cargo[@]}")
    for i in $(seq "$n"); do
        if ! out=$("$bin" -q "${filter[@]}" 2>&1); then
            printf '%s\n' "$out"
            echo "stress: ${cargo[*]} ${filter[*]} failed on run $i of $n"
            exit 1
        fi
    done
    echo "stress: ${cargo[*]} ${filter[*]} passed $n/$n"
}

loop 50 --test smp_stress
# A store or a copy racing a zeroing of its frame (DESIGN.md §14a).
loop 20 --release -p simx86 --lib -- line_mask_survives
