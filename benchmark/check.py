#!/usr/bin/env python3
"""run.sh --check: run the full set twice and say whether the two agree.

Simulated-clock results (every sim_* metric, every .cycles rung, every
per-op count) must be bit-identical between the two sets, and between
the traced and the untraced build at the same op count.  Host-clock
results, memory and set-up time must agree within the bound
BENCHMARK.json gives them.  One more seed is run and shown in rows of
its own, so the sizing can be seen not to depend on the default seed.

    check.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def exact_end_to_end(name):
    return name.startswith("sim_")


def exact_per_layer(name):
    """Cycle and count metrics; not host time, not a ratio of host rates."""
    return "host_ns" not in name and name != "bench.trace_overhead_pct"


def run(workload, seed, seconds, trace):
    """One driver-style run; returns the parsed result line."""
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)}: no output (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def archived_sim(workload, build):
    """sim_* of the quarter-count run a traced invocation leaves behind."""
    archive = json.loads((HERE / "out" / f"{workload}.{build}.quarter.json").read_text())
    return {k: v["value"] for k, v in archive["end_to_end"].items() if exact_end_to_end(k)}


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(name, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if BETTER[name] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    problems = []

    def problem(text):
        problems.append(text)
        print(f"  MISMATCH {text}")

    sets = []
    for label in ("first", "second"):
        print(f"== {label} set: seed {args.seed}, {args.seconds} s per run")
        one = {}
        for w in WORKLOADS:
            untraced = run(w, args.seed, args.seconds, 0)
            traced = run(w, args.seed, args.seconds, 1)
            one[w] = {"untraced": untraced, "traced": traced,
                      "sim_traced": archived_sim(w, "traced"),
                      "sim_untraced": archived_sim(w, "untraced")}
            for build, r in (("untraced", untraced), ("traced", traced)):
                if r["exit"] != 0 or not r["correct"] or r["failed"] != 0:
                    problem(f"{w} {build}: exit {r['exit']}, correct {r['correct']}, "
                            f"{r['failed']} of {r['attempted']} ops failed")
            print(f"  {w}: {untraced['attempted']} ops untraced, {traced['attempted']} traced")
        sets.append(one)

    print("== simulated clock: first set vs second set, traced vs untraced build")
    for w in WORKLOADS:
        a, b = sets[0][w], sets[1][w]
        e2e_a, e2e_b = values(a["untraced"]), values(b["untraced"])
        layer_a, layer_b = values(a["traced"]), values(b["traced"])
        differing = [k for k in e2e_a if exact_end_to_end(k) and e2e_a[k] != e2e_b[k]]
        differing += [k for k in layer_a if exact_per_layer(k) and layer_a[k] != layer_b[k]]
        for run_set in (a, b):
            differing += [f"{k} (traced {run_set['sim_traced'][k]} vs untraced {v})"
                          for k, v in run_set["sim_untraced"].items()
                          if run_set["sim_traced"][k] != v]
        if differing:
            problem(f"{w}: {', '.join(sorted(set(differing)))}")
        else:
            exact = sum(map(exact_end_to_end, e2e_a)) + sum(map(exact_per_layer, layer_a))
            print(f"  {w}: {exact} metrics identical in both sets; "
                  f"{len(a['sim_traced'])} identical across builds")

    print("== host clock, memory, set-up: second set against first, within bound")
    for w in WORKLOADS:
        e2e_a, e2e_b = values(sets[0][w]["untraced"]), values(sets[1][w]["untraced"])
        for name in e2e_a:
            if exact_end_to_end(name):
                continue
            worse = worse_by(name, e2e_a[name], e2e_b[name])
            verdict = "ok" if abs(worse) <= BOUNDS[name] else "OUT OF BOUND"
            print(f"  {w:16} {name:26} {e2e_a[name]:16.4f} {e2e_b[name]:16.4f} "
                  f"{100 * worse:+7.2f} % (bound {100 * BOUNDS[name]:.0f} %) {verdict}")
            if verdict != "ok":
                problems.append(f"{w} {name}: {100 * worse:+.2f} %")

    other = args.seed + 1
    print(f"== seed {other}, for comparison (not part of the verdict beyond failures)")
    for w in WORKLOADS:
        r = run(w, other, args.seconds, 0)
        if r["exit"] != 0 or not r["correct"] or r["failed"] != 0:
            problem(f"{w} seed {other}: {r['failed']} of {r['attempted']} ops failed")
        base = values(sets[0][w]["untraced"])
        for name, value in values(r).items():
            print(f"  {w:16} {name:26} {value:16.4f}   (seed {args.seed}: {base[name]:.4f})")

    if problems:
        print(f"VERDICT: FAIL, {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print("VERDICT: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
