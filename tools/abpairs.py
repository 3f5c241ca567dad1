#!/usr/bin/env python3
"""Alternated A/B pairs of two built benchmark harnesses, workload by workload.

    python3 tools/abpairs.py A B --workload W[,W...]|all [--seed N] [--seconds S] [--pairs K]

A and B are `mercury-benchmark` executables (a parent build, then the
change's; `benchmark/run.sh` builds one under
`$CARGO_TARGET_DIR/untraced/release/`, and a build rewrites
`benchmark/Cargo.lock`: `git checkout benchmark/Cargo.lock` after it).
Each pair runs both once, untraced,
with the same workload, seed and duration; the order alternates from
pair to pair (AB, BA, AB, ...) so a drift in the host's speed does not
favour one side.  Prints one line per pair, then the median and IQR of
`host_ops_per_s` on each side and how many pairs B won (higher rate),
then both sides' medians of every other end-to-end metric BENCHMARK.json
lists off the simulated clock (`setup_s`, `host_busy_mcycles_per_s`,
`peak_rss_mb`).  A metric whose B median is worse than A's by more than
its BENCHMARK.json bound — the acceptance gate's test — is marked
`OUT OF BOUND`.

`--workload` takes one name, a comma list, or `all` (the workloads
BENCHMARK.json lists, in its order).  The pairs of each workload run in
turn, and each workload's lines and summary are printed under a
`== NAME ==` header.

Every `sim_*` metric is a pure function of the seed, so the two sides
must agree on all of them in every pair: the first that differs is
named with its workload and the exit status is 1, without running the
workloads after it.  A run that fails or prints no result is exit 2.
Defaults: seed 11, 10 s, 6 pairs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RATE = "host_ops_per_s"
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def host_bounds(path=SPEC):
    """`{name: (better, bound)}` of BENCHMARK.json's end-to-end metrics
    off the simulated clock, in its order."""
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"])
            for m in spec["end_to_end"] if not m["name"].startswith("sim_")}


def workloads(arg, path=SPEC):
    """The workload names `--workload` stands for, in order."""
    if arg == "all":
        with open(path) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    return [name for name in arg.split(",") if name]


def worse_by(better, a, b):
    """How much worse `b` is than `a`, as a share of `a`."""
    change = (b - a) / a if a else float(b != a)
    return change if better == "lower" else -change


def run(binary, workload, seed, seconds, out):
    """One untraced run; returns the result's `metrics` map."""
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out", out]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{binary} exited {done.returncode}: {tail[0]}")
    return json.loads(lines[-1])["metrics"]


def spread(values):
    """`(median, interquartile range)`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def figure(value):
    """Four significant digits, and no exponent for thousands and up."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def first_sim_difference(a, b):
    """Name of the first `sim_*` metric whose values differ, or None."""
    for name in sorted(set(a) | set(b)):
        if name.startswith("sim_") and a.get(name, {}).get("value") != b.get(name, {}).get("value"):
            return name
    return None


def main(argv):
    parser = argparse.ArgumentParser(prog="abpairs", description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv[1:])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = workloads(args.workload)
    if not names:
        parser.error("--workload names no workload")

    bounds = host_bounds()
    for workload in names:
        print(f"== {workload} ==")
        code = pairs(args, workload, bounds)
        if code:
            return code
    return 0


def pairs(args, workload, bounds):
    """Run and summarise one workload's pairs; returns the exit status."""
    host = {"A": {}, "B": {}}
    wins = 0
    with tempfile.TemporaryDirectory() as out:
        for pair in range(1, args.pairs + 1):
            order = ("A", "B") if pair % 2 else ("B", "A")
            got = {}
            try:
                for side in order:
                    binary = args.a if side == "A" else args.b
                    got[side] = run(binary, workload, args.seed, args.seconds, out)
            except (OSError, RuntimeError, ValueError, KeyError) as e:
                print(f"abpairs: {workload} pair {pair}: {e}", file=sys.stderr)
                return 2
            differs = first_sim_difference(got["A"], got["B"])
            if differs:
                va, vb = got["A"].get(differs, {}).get("value"), got["B"].get(differs, {}).get("value")
                print(f"abpairs: {workload} pair {pair}: {differs} differs: A {va!r} B {vb!r}")
                return 1
            for side in "AB":
                for name in bounds:
                    if name in got[side]:
                        host[side].setdefault(name, []).append(got[side][name]["value"])
            a, b = got["A"][RATE]["value"], got["B"][RATE]["value"]
            wins += b > a
            print(f"pair {pair} ({''.join(order)}): A {a:,.0f}  B {b:,.0f}  x{b / a:.3f}")

    def out_of_bound(name, ma, mb):
        better, bound = bounds[name]
        worse = worse_by(better, ma, mb)
        return worse, f"  OUT OF BOUND (bound {100 * bound:.0f} %)" if worse > bound else ""

    (ma, ia), (mb, ib) = spread(host["A"][RATE]), spread(host["B"][RATE])
    print(f"{RATE}: A median {ma:,.0f} (IQR {ia:,.0f})  B median {mb:,.0f} (IQR {ib:,.0f})  "
          f"x{mb / ma:.3f}, B won {wins}/{args.pairs}{out_of_bound(RATE, ma, mb)[1]}")
    for name in bounds:
        if name == RATE or name not in host["A"] or name not in host["B"]:
            continue
        ma, mb = statistics.median(host["A"][name]), statistics.median(host["B"][name])
        worse, flag = out_of_bound(name, ma, mb)
        print(f"{name}: A median {figure(ma)}  B median {figure(mb)}  worse by {100 * worse:+.2f} %{flag}")
    print(f"sim_*: identical in every pair ({workload}, seed {args.seed}, {args.seconds} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
