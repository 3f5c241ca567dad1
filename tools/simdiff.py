#!/usr/bin/env python3
"""First simulated-clock difference between two benchmark/out directories,
or every numeric difference between two JSON files.

    python3 tools/simdiff.py A B

`benchmark/run.sh` leaves one JSON report per (workload, build, block)
in `benchmark/out/`.  Every `sim_*` end-to-end metric and every
`.cycles` / `_per_op` per-layer metric in them is a pure function of
the seed (benchmark/README.md), so a change that claims to leave
simulated behaviour alone — a simulator-only speed-up, a refactor — is
checked by running the same seed and `--seconds` on both commits and
comparing those values exactly.  Host-clock metrics (`host_*`,
`.host_ns`, `setup_s`, `peak_rss_mb`) are not compared.

Prints the first value that differs, in file-name then metric order,
and exits 1; exits 0 with a count when nothing does.  A report present
on one side only, or two sides run with different seeds or block sizes,
is a usage error (exit 2): there is nothing to compare.

Given two files instead — two copies of an archive such as
`fleet_results.json` — it lists every numeric leaf that differs, by its
path in the document (`nodes[3].downtime_us: 41.2 != 40.9`; a leaf on one
side only reads `(absent)` on the other), and exits 1 if there is one.
"""

import json
import os
import re
import sys

# `nimbus.host_ns_per_op` is a per-op figure on the host clock.
SIMULATED = re.compile(r"^(?!.*host_)(sim_.*|.*\.cycles|.*_per_op)$")
# Counts that fix what was run; they must agree before values can.
SAME_RUN = ("workload", "samples")


def reports(directory):
    """`{file name: parsed report}` for every per-run report in `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.startswith("trace"):
            continue
        with open(os.path.join(directory, name)) as f:
            out[name] = json.load(f)
    return out


def seed_of(report):
    found = re.search(r"\bseed=(\d+)", report.get("provenance", ""))
    return found.group(1) if found else None


def simulated(report):
    """`[(metric name, value)]` of the simulated-clock metrics, in file order."""
    rows = []
    for section in ("end_to_end", "per_layer"):
        for name, cell in (report.get(section) or {}).items():
            if SIMULATED.search(name):
                rows.append((f"{section}.{name}", cell["value"]))
    return rows


def first_difference(a, b):
    """Compare two `reports()` maps.

    Returns `(compared, None)` or `(compared, message)`; raises
    `ValueError` when the two sides are not runs of the same thing.
    """
    if sorted(a) != sorted(b):
        only = sorted(set(a) ^ set(b))
        raise ValueError(f"reports present on one side only: {', '.join(only)}")
    compared = 0
    for name in sorted(a):
        ra, rb = a[name], b[name]
        for key in SAME_RUN:
            if ra.get(key) != rb.get(key):
                raise ValueError(f"{name}: {key} {ra.get(key)!r} vs {rb.get(key)!r}")
        if seed_of(ra) != seed_of(rb):
            raise ValueError(f"{name}: seed {seed_of(ra)} vs {seed_of(rb)}")
        rows_a, rows_b = simulated(ra), simulated(rb)
        if [n for n, _ in rows_a] != [n for n, _ in rows_b]:
            raise ValueError(f"{name}: the two sides report different metrics")
        for (metric, va), (_, vb) in zip(rows_a, rows_b):
            compared += 1
            if va != vb:
                return compared, f"{name}: {metric}: {va!r} != {vb!r}"
        if ra.get("ops_failed") != rb.get("ops_failed"):
            return compared, (
                f"{name}: ops_failed: {ra.get('ops_failed')!r} != {rb.get('ops_failed')!r}"
            )
    return compared, None


def leaves(tree, path=""):
    """`[(path, value)]` of every numeric leaf of a parsed JSON document."""
    if isinstance(tree, dict):
        return [leaf for key, value in tree.items() for leaf in leaves(value, f"{path}.{key}" if path else key)]
    if isinstance(tree, list):
        return [leaf for i, value in enumerate(tree) for leaf in leaves(value, f"{path}[{i}]")]
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return [(path, tree)]
    return []


def leaf_differences(a, b):
    """`(compared, ["path: a != b"])` over the numeric leaves of two documents."""
    la, lb = dict(leaves(a)), dict(leaves(b))
    paths = list(la) + [path for path in lb if path not in la]

    def shown(value):
        return "(absent)" if value is None else repr(value)

    rows = [
        f"{path}: {shown(la.get(path))} != {shown(lb.get(path))}"
        for path in paths
        if la.get(path) != lb.get(path)
    ]
    return len(paths), rows


def compare_files(a, b):
    try:
        with open(a) as fa, open(b) as fb:
            compared, rows = leaf_differences(json.load(fa), json.load(fb))
    except (OSError, ValueError) as e:
        print(f"simdiff: {e}", file=sys.stderr)
        return 2
    for row in rows:
        print(row)
    if rows:
        print(f"simdiff: {len(rows)} of {compared} numeric values differ")
        return 1
    print(f"simdiff: {compared} numeric values identical")
    return 0


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/simdiff.py A B", file=sys.stderr)
        return 2
    if os.path.isfile(argv[1]) and os.path.isfile(argv[2]):
        return compare_files(argv[1], argv[2])
    try:
        compared, diff = first_difference(reports(argv[1]), reports(argv[2]))
    except (OSError, ValueError) as e:
        print(f"simdiff: {e}", file=sys.stderr)
        return 2
    if diff:
        print(f"simdiff: DIFFERS at {diff}")
        return 1
    if compared == 0:
        print("simdiff: no simulated-clock metric found on either side", file=sys.stderr)
        return 2
    print(f"simdiff: {compared} simulated-clock values identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
