#!/usr/bin/env python3
"""CI perf-regression gate over the archived switch benchmarks.

Re-runs the two switch benchmarks (`all`, `switch_timeline`), loads the
JSON they emit, and compares every metric against the copies archived
at the repo root (`bench_results.json`'s "mode_switch" section and
`switch_timeline.json`) within declared tolerance bands.  Prints a
per-metric delta table and exits non-zero if any metric **regressed**
(got slower beyond its band).  Improvements beyond the band are
reported but do not fail the gate — they mean the archive should be
refreshed, which is a deliberate human action, not a CI failure.

Tolerance bands
---------------
The switch paths run entirely on the simulated cycle clock, so they
are *simulation-deterministic*: identical on every host, every run.
That holds for the sharded recompute too, whose peers run on real host
threads: a CPU's stripe of the scan is fixed by its id, not by which
thread asks first.  Every metric gets a tight band (1%) that exists
only to absorb float formatting, and the sharded speedup a floor.

Static budget cross-check
-------------------------
Every measured switch phase is also checked against the *static* cycle
budget committed at the repo root (`volint_budget.json`, emitted by
`cargo run -p volint -- --budget volint_budget.json`).  A measurement
above its budget means the volint cost model drifted under the code —
the annotations no longer describe what the switch path does — and the
gate fails.  A phase with no budget entry at all fails for the same
reason.  A budget *far* above its measurement (>400x) is reported as a
stale-bounds note: the annotations are over-claiming, tighten them.

Serving tail gate
-----------------
With `--serving` (or whenever `--results DIR` holds a full-size
`serving_results.json`), the serving-tail sweep is gated too: the
virtualization-inflation ratios and the absolute p99 anchors of the
steady-virtual and switch-under-load scenarios must stay inside ~5%
bands of the archived copies.  On top of the relative bands, the
switch-under-load p99 inflation has a *hard absolute ceiling* of 2.0x
steady native (`SERVING_INFLATION_CEILINGS`): the always-on dirty
baseline makes a mode switch a tail event comparable to an unlucky
queueing burst, not a 16x outlier, and the gate holds that line even
if someone re-archives a regressed run.  The hypervisor live-update
scenario (`update-under-load-1cpu`) is gated the same way: the
update-under-load p99 inflation carries its own hard 2.0x ceiling.
Quick-sized runs (`"quick": true`) are not comparable and are skipped
with a note.

Simulated-speed gate
--------------------
With `--sim-speed PATH` the gate runs in a dedicated mode that checks
*only* the simulated-throughput file the campaign binaries emit
(`sim_speed.json`, one entry per suite) against the archived copy at
the repo root (DESIGN.md §14, EXPERIMENTS.md "Campaign scale").  For every suite
present in both files, `mcycles_per_host_second` must stay above 80%
of the archived value.  Suites missing from either side are skipped
with a note (the archived file is refreshed deliberately, not by CI).

Fleet gate
----------
With `--fleet PATH` the gate runs in a dedicated mode over the
fleet-scale serving run (`serving_tail`'s fleet row, DESIGN.md §15).  The
fresh `fleet_results.json` at PATH must satisfy hard invariants that no
archive can grandfather away: **zero lost requests** (every offered
request is accounted as completed or shed — a request that vanished
mid-migration is the bug this gate exists to catch), two-pass
determinism `"verified"`, total accounting (`offered == completed +
shed`), a hard ceiling on the worst migration downtime, and a hard
absolute ceiling on the fleet p999.  On top of the invariants, the
tails and median downtime are banded against the archived repo-root
`fleet_results.json`.  Runs of different sizing (`mode` mismatch) are
not compared.

Usage
-----
    python3 tools/benchgate.py            # cargo-run both benches, compare
    python3 tools/benchgate.py --results DIR   # compare DIR's bench_results.json
                                               # and switch_timeline.json
    python3 tools/benchgate.py --serving  # also run + gate the serving sweep
    python3 tools/benchgate.py --sim-speed PATH  # gate only sim throughput
    python3 tools/benchgate.py --fleet PATH      # gate only the fleet run

Stdlib only; no third-party imports.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (row of `bench_results.json`'s "mode_switch" section, metric, rel_tol,
# abs_floor_us) — the same spelling on the archived and the fresh side.
# rel_tol is the allowed relative slowdown; abs_floor_us absorbs noise on
# metrics whose absolute value is tiny (a 10% band on 0.02 µs is silly).
MODE_SWITCH_CHECKS = [
    ("recompute", "attach_us", 0.01, 0.05),
    ("recompute", "detach_us", 0.01, 0.05),
    ("dirty_recompute", "attach_us", 0.01, 0.05),
    # With the boot-time pre-cache the "cold" attach only pays for the
    # frames the warm-up dirtied since install — a handful of tables, so
    # the metric sits near the warm number and a small change in the
    # warm-up's table layout moves it by whole frames.  Wider floor.
    ("dirty_recompute", "cold_attach_us", 0.01, 0.5),
    ("dirty_recompute", "warm_attach_us", 0.01, 0.05),
    ("dirty_recompute", "detach_us", 0.01, 0.05),
    ("sharded_recompute", "serial_pginfo_us", 0.01, 0.05),
    ("sharded_recompute", "sharded_pginfo_us", 0.01, 0.05),
]

# Sharded speedup: lower-bounded, not banded — any host should beat
# serial by a clear margin on a 4-CPU shard.
SHARDED_SPEEDUP_FLOOR = 1.5

TIMELINE_PHASE_TOL = 0.01
TIMELINE_PHASE_FLOOR = 0.05  # µs — phases like flip_tables sit at 0.02 µs

# A phase whose static budget exceeds its measurement by this factor is
# carrying stale bounds (the annotations over-claim).  Measurements
# below BUDGET_STALE_MIN_US are skipped: the worst-case model is
# *supposed* to dwarf a phase that measured ~zero.
BUDGET_STALE_RATIO = 400.0
BUDGET_STALE_MIN_US = 0.001

# Serving-tail inflation ratios (dimensionless): key in the
# `inflation_vs_steady_native_1cpu` section, rel_tol, abs_floor.
SERVING_INFLATION_CHECKS = [
    ("steady_virtual_p99", 0.05, 0.02),
    ("switch_under_load_p99", 0.05, 0.10),
    ("switch_under_load_p999", 0.05, 0.10),
    ("update_under_load_p99", 0.05, 0.10),
    ("update_under_load_p999", 0.05, 0.10),
]

# Hard absolute ceilings on the fresh inflation ratios, independent of
# what is archived: re-archiving a regressed run must not move these.
# A mode switch under the always-on dirty baseline costs O(dirty) +
# O(tables), so a switch landing under load reads as an unlucky
# queueing burst (< 2x the steady-native p99), not the 16x full
# recompute stall the paper's strategy produced.  A hypervisor
# live-update holds the same line: the hv-to-hv transfer reuses the
# dirty-bounded attach machinery, so an update landing mid-stream must
# also read as a tail event, not an outage.
SERVING_INFLATION_CEILINGS = {
    "switch_under_load_p99": 2.0,
    "update_under_load_p99": 2.0,
}

# Absolute tail anchors: (scenario name, metric, rel_tol, abs_floor_us).
SERVING_SCENARIO_CHECKS = [
    ("steady-virtual-1cpu", "p99_us", 0.05, 0.5),
    ("switch-under-load-1cpu", "p99_us", 0.05, 1.0),
]

# Simulated-throughput gate: fresh mcycles_per_host_second below this
# fraction of the archived value fails.  Host timing is noisy, so the
# band is wide; what it catches is a cliff, not a 10% drift.
SIM_SPEED_MIN_FRACTION = 0.8

# Fleet-gate hard ceilings (absolute, fresh-run only — an archived
# regression cannot grandfather a breach in).  The per-node serving
# p999 sits near 20 µs; a fleet request that ever waits out a
# stop-and-copy or a storage copy would land in the millisecond range,
# so 1 ms catches the qualitative failure (migration blocking the
# serving path) with wide headroom over queueing noise.  The downtime
# ceiling bounds the worst single stop-and-copy (the storage copy runs
# before it and is not in the metric); a pre-copy that stopped
# converging blows through it.
FLEET_P999_CEILING_US = 1_000.0
FLEET_DOWNTIME_CEILING_US = 50_000.0

# Relative bands against the archived fleet run (same sizing only):
# (key path, rel_tol, abs_floor_us).  Tails are simulation-
# deterministic per seed, but code changes legitimately move them;
# the band flags step changes, not drift.
FLEET_ARCHIVE_CHECKS = [
    (("p50_us",), 0.25, 2.0),
    (("p99_us",), 0.25, 2.0),
    (("p999_us",), 0.25, 5.0),
    (("downtime_us", "p50"), 0.50, 5.0),
]


def dig(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def bench_cmd(binary, extra=()):
    """The cargo invocation for one report binary.

    The binaries write their JSON into the current directory, so they
    run with `cwd` set to a scratch directory; cargo therefore has to be
    told where the workspace is.  `--offline`: the workspace has no
    registry dependency and CI must not reach for one.  `--features
    trace,faults`: the bins live in the umbrella crate, and one build
    with both hook switches on serves all four (`switch_timeline`
    requires `trace`, the campaigns `faults`).
    """
    cmd = [
        "cargo",
        "run",
        "--release",
        "--locked",
        "--offline",
        "-q",
        "--manifest-path",
        os.path.join(REPO, "Cargo.toml"),
        "--features",
        "trace,faults",
        "--bin",
        binary,
    ]
    if extra:
        cmd.append("--")
        cmd.extend(extra)
    return cmd


def run_bench(binary, cwd, extra=()):
    print(f"benchgate: running {binary} …", flush=True)
    subprocess.run(bench_cmd(binary, extra), cwd=cwd, check=True, env={**os.environ, "CARGO_TARGET_DIR": os.path.join(REPO, "target")})


class Gate:
    def __init__(self):
        self.rows = []
        self.regressions = []
        self.improvements = []

    def check(self, name, archived, fresh, rel_tol, abs_floor):
        delta = fresh - archived
        band = max(abs(archived) * rel_tol, abs_floor)
        if delta > band:
            status = "REGRESSED"
            self.regressions.append(name)
        elif delta < -band:
            status = "improved"
            self.improvements.append(name)
        else:
            status = "ok"
        self.rows.append((name, archived, fresh, delta, band, status))

    def report(self):
        w = max(len(r[0]) for r in self.rows) if self.rows else 10
        print(f"\n{'metric'.ljust(w)} | archived µs | fresh µs | delta µs | band µs | status")
        print(f"{'-' * w}-|------------:|---------:|---------:|--------:|-------")
        for name, a, f, d, band, status in self.rows:
            print(
                f"{name.ljust(w)} | {a:11.4f} | {f:8.4f} | {d:+8.4f} | {band:7.4f} | {status}"
            )


def gate_mode_switch(gate, archived_ms, fresh_ms):
    """The "mode_switch" section of a fresh `bench_results.json` against
    the archived one.  `all` emits every row on every run, so a checked
    metric missing from the fresh side is a regression."""
    for row, metric, rel, floor in MODE_SWITCH_CHECKS:
        name = f"mode_switch.{row}.{metric}"
        archived, fresh = archived_ms[row][metric], fresh_ms.get(row, {}).get(metric)
        if fresh is None:
            gate.rows.append((name, archived, float("nan"), float("nan"), 0.0, "REGRESSED"))
            gate.regressions.append(f"{name} (missing from fresh results)")
        else:
            gate.check(name, archived, fresh, rel, floor)

    name = "mode_switch.sharded_recompute.speedup"
    speedup = fresh_ms.get("sharded_recompute", {}).get("speedup", float("nan"))
    # A missing speedup is NaN, which is not above the floor either.
    status = "ok" if speedup >= SHARDED_SPEEDUP_FLOOR else "REGRESSED"
    if status != "ok":
        gate.regressions.append(name)
    gate.rows.append((name, SHARDED_SPEEDUP_FLOOR, speedup, speedup - SHARDED_SPEEDUP_FLOOR, 0.0, status))


def gate_budget(gate, fresh_tl, notes):
    """Measured phase times vs the committed static cycle budget.

    Every leg the timeline emits is cross-checked — the default
    attach/detach, the recompute-on-switch anchors (`*_full`) and the
    live update — so a phase without a volint budget entry cannot hide
    in a secondary leg.
    """
    with open(os.path.join(REPO, "volint_budget.json")) as f:
        budget = json.load(f)["phases"]
    for leg in sorted(fresh_tl):
        leg_budget_sum = 0.0
        for phase, fresh_us in sorted(fresh_tl[leg]["phases_us"].items()):
            name = f"budget.{leg}.{phase}"
            entry = budget.get(phase)
            if entry is None:
                gate.rows.append((name, float("nan"), fresh_us, float("nan"), 0.0, "REGRESSED"))
                gate.regressions.append(
                    f"{name} (no static budget for this phase — annotate its span "
                    f"costs and regenerate volint_budget.json)"
                )
                continue
            budget_us = entry["us"]
            leg_budget_sum += budget_us
            if fresh_us > budget_us:
                status = "REGRESSED"
                gate.regressions.append(
                    f"{name} (measured {fresh_us:.3f} µs breaches the static budget "
                    f"{budget_us:.3f} µs — the volint cost model drifted under the code)"
                )
            else:
                status = "ok"
                if fresh_us >= BUDGET_STALE_MIN_US and budget_us / fresh_us > BUDGET_STALE_RATIO:
                    notes.append(
                        f"{name}: static budget {budget_us:.3f} µs is "
                        f"{budget_us / fresh_us:.0f}x the measured {fresh_us:.3f} µs "
                        f"— bounds look stale, consider tightening the annotations"
                    )
            gate.rows.append((name, budget_us, fresh_us, fresh_us - budget_us, 0.0, status))

        # The whole leg must fit inside the sum of its phase budgets:
        # un-spanned inter-phase work cannot hide in the gaps.
        e2e = fresh_tl[leg]["end_to_end_us"]
        name = f"budget.{leg}.end_to_end"
        if e2e > leg_budget_sum:
            status = "REGRESSED"
            gate.regressions.append(
                f"{name} (end-to-end {e2e:.3f} µs exceeds the summed phase "
                f"budgets {leg_budget_sum:.3f} µs)"
            )
        else:
            status = "ok"
        gate.rows.append((name, leg_budget_sum, e2e, e2e - leg_budget_sum, 0.0, status))


def gate_serving(gate, archived_sv, fresh_sv, notes):
    """Tail-latency bands over the serving sweep (full-size runs only)."""
    if fresh_sv.get("quick"):
        notes.append(
            "serving: fresh serving_results.json is --quick sized; tail bands "
            "are not comparable — serving gate skipped"
        )
        return
    if fresh_sv.get("determinism") != "verified":
        gate.rows.append(("serving.determinism", 0.0, float("nan"), float("nan"), 0.0, "REGRESSED"))
        gate.regressions.append(
            f"serving.determinism (two-pass check reported "
            f"{fresh_sv.get('determinism')!r}, expected 'verified')"
        )

    archived_inf = archived_sv["inflation_vs_steady_native_1cpu"]
    fresh_inf = fresh_sv["inflation_vs_steady_native_1cpu"]
    for key, rel, floor in SERVING_INFLATION_CHECKS:
        name = f"serving.inflation.{key}"
        archived, fresh = archived_inf.get(key), fresh_inf.get(key)
        if fresh is None:
            # Every run executes every scenario: a missing key means
            # its scenario fell out of the table.
            gate.rows.append((name, archived or float("nan"), float("nan"), float("nan"), 0.0, "REGRESSED"))
            gate.regressions.append(f"{name} (missing from fresh results)")
            continue
        if archived is None:
            notes.append(f"{name}: fresh run has a new inflation key ({fresh:.2f}x) — archive it")
            gate.rows.append((name, float("nan"), fresh, float("nan"), 0.0, "new key"))
            continue
        gate.check(name, archived, fresh, rel, floor)

    # Absolute ceilings are checked against the *fresh* run only — the
    # archived copy can't grandfather a breach in.  (A key missing from
    # the fresh run already regressed above.)
    for key, ceiling in SERVING_INFLATION_CEILINGS.items():
        name = f"serving.ceiling.{key}"
        fresh = fresh_inf.get(key)
        if fresh is None:
            continue
        if fresh >= ceiling:
            gate.rows.append((name, ceiling, fresh, fresh - ceiling, 0.0, "REGRESSED"))
            gate.regressions.append(
                f"{name} (inflation {fresh:.2f}x breaches the hard {ceiling:.1f}x "
                f"ceiling — a switch under load must stay a tail event)"
            )
        else:
            gate.rows.append((name, ceiling, fresh, fresh - ceiling, 0.0, "ok"))

    archived_by = {s["name"]: s for s in archived_sv["scenarios"]}
    fresh_by = {s["name"]: s for s in fresh_sv["scenarios"]}
    for scen, metric, rel, floor in SERVING_SCENARIO_CHECKS:
        name = f"serving.{scen}.{metric}"
        if scen not in fresh_by:
            gate.rows.append((name, archived_by[scen][metric], float("nan"), float("nan"), 0.0, "REGRESSED"))
            gate.regressions.append(f"{name} (scenario missing from fresh results)")
            continue
        gate.check(name, archived_by[scen][metric], fresh_by[scen][metric], rel, floor)


def gate_sim_speed(fresh_path):
    """Dedicated mode: gate only the simulated-throughput file.

    Compares every suite present in both the fresh file and the
    archived repo-root `sim_speed.json`.  Fails if a suite's
    `mcycles_per_host_second` fell below ``SIM_SPEED_MIN_FRACTION`` of
    the archived value.  Suites missing from either side are notes,
    not failures.
    """
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(os.path.join(REPO, "sim_speed.json")) as f:
        archived = json.load(f)

    regressions = []
    print(f"{'suite'.ljust(10)} | archived Mc/s | fresh Mc/s | min Mc/s | status")
    print(f"{'-' * 10}-|--------------:|-----------:|---------:|-------")
    for suite in sorted(set(archived) | set(fresh)):
        if suite not in fresh:
            print(f"{suite.ljust(10)} | {'':>13} | {'':>10} | {'':>8} | missing from fresh run (note)")
            continue
        if suite not in archived:
            f_tp = fresh[suite]["mcycles_per_host_second"]
            print(f"{suite.ljust(10)} | {'':>13} | {f_tp:10.1f} | {'':>8} | new suite (archive it)")
            continue
        a_tp = archived[suite]["mcycles_per_host_second"]
        f_tp = fresh[suite]["mcycles_per_host_second"]
        floor = a_tp * SIM_SPEED_MIN_FRACTION
        status = "ok"
        if f_tp < floor:
            status = "REGRESSED"
            regressions.append(
                f"sim_speed.{suite}.mcycles_per_host_second "
                f"({f_tp:.1f} < {SIM_SPEED_MIN_FRACTION:.0%} of archived {a_tp:.1f})"
            )
        print(f"{suite.ljust(10)} | {a_tp:13.1f} | {f_tp:10.1f} | {floor:8.1f} | {status}")

    if regressions:
        print(f"\nbenchgate: FAIL — {len(regressions)} sim-speed regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("\nbenchgate: PASS (sim-speed)")


def gate_fleet(fresh_path):
    """Dedicated mode: gate the fleet-scale serving run.

    Hard invariants on the fresh `fleet_results.json` first (zero lost
    requests, verified determinism, total accounting, downtime and
    p999 ceilings), then relative bands against the archived repo-root
    copy when it is a run of the same sizing.
    """
    with open(fresh_path) as f:
        fresh = json.load(f)

    regressions = []
    notes = []
    rows = []

    def invariant(name, ok_cond, detail):
        rows.append((name, detail, "ok" if ok_cond else "REGRESSED"))
        if not ok_cond:
            regressions.append(f"fleet.{name} ({detail})")

    invariant(
        "lost",
        fresh["lost"] == 0,
        f"{fresh['lost']} requests lost — every offered request must be "
        f"accounted completed or shed across migrations",
    )
    invariant(
        "determinism",
        fresh["determinism"] == "verified",
        f"two-pass check reported {fresh['determinism']!r}, expected 'verified'",
    )
    invariant(
        "accounting",
        fresh["offered"] == fresh["completed"] + fresh["shed"],
        f"offered {fresh['offered']} vs completed {fresh['completed']} "
        f"+ shed {fresh['shed']}",
    )
    invariant(
        "downtime_ceiling",
        fresh["downtime_us"]["max"] <= FLEET_DOWNTIME_CEILING_US,
        f"worst migration downtime {fresh['downtime_us']['max']:.1f} µs vs "
        f"hard ceiling {FLEET_DOWNTIME_CEILING_US:.0f} µs",
    )
    invariant(
        "p999_ceiling",
        fresh["p999_us"] <= FLEET_P999_CEILING_US,
        f"fleet p999 {fresh['p999_us']:.1f} µs vs hard ceiling "
        f"{FLEET_P999_CEILING_US:.0f} µs — a tail in the millisecond range "
        f"means migration blocked the serving path",
    )

    archived_path = os.path.join(REPO, "fleet_results.json")
    archived = None
    if not os.path.exists(archived_path):
        notes.append("fleet: no archived fleet_results.json — band comparison skipped")
    else:
        with open(archived_path) as f:
            archived = json.load(f)
        if archived.get("mode") != fresh.get("mode"):
            notes.append(
                f"fleet: fresh run is {fresh.get('mode')!r}-sized but archive is "
                f"{archived.get('mode')!r}-sized — band comparison skipped"
            )
            archived = None

    gate = Gate()
    if archived is not None:
        for path, rel, floor in FLEET_ARCHIVE_CHECKS:
            gate.check(f"fleet.{'.'.join(path)}", dig(archived, path), dig(fresh, path), rel, floor)
        regressions.extend(gate.regressions)

    w = max(len(r[0]) for r in rows)
    print(f"{'invariant'.ljust(w)} | status    | detail")
    print(f"{'-' * w}-|-----------|-------")
    for name, detail, status in rows:
        print(f"{name.ljust(w)} | {status.ljust(9)} | {detail}")
    if gate.rows:
        gate.report()

    for note in notes:
        print(f"\nbenchgate: note — {note}")
    if gate.improvements:
        print(
            f"\nbenchgate: {len(gate.improvements)} fleet metric(s) improved beyond "
            f"their band — consider re-archiving fleet_results.json"
        )
    if regressions:
        print(f"\nbenchgate: FAIL — {len(regressions)} fleet regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("\nbenchgate: PASS (fleet)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--results",
        metavar="DIR",
        help="directory holding pre-generated bench_results.json and "
        "switch_timeline.json (skips the cargo runs); if it also holds "
        "serving_results.json, the serving gate runs on that too",
    )
    ap.add_argument(
        "--serving",
        action="store_true",
        help="also gate the serving-tail sweep (cargo-runs the full-size "
        "serving_tail bench unless --results provides the JSON)",
    )
    ap.add_argument(
        "--sim-speed",
        metavar="PATH",
        help="gate only the simulated-throughput file at PATH against the "
        "archived repo-root sim_speed.json, then exit",
    )
    ap.add_argument(
        "--fleet",
        metavar="PATH",
        help="gate only the fleet-scale serving results at PATH (hard "
        "zero-lost/determinism/ceiling invariants, plus bands against the "
        "archived repo-root fleet_results.json when comparable), then exit",
    )
    args = ap.parse_args()

    if args.sim_speed:
        gate_sim_speed(args.sim_speed)
        return
    if args.fleet:
        gate_fleet(args.fleet)
        return

    with open(os.path.join(REPO, "bench_results.json")) as f:
        archived_ms = json.load(f)["mode_switch"]
    with open(os.path.join(REPO, "switch_timeline.json")) as f:
        archived_tl = json.load(f)

    if args.results:
        outdir = args.results
    else:
        outdir = tempfile.mkdtemp(prefix="benchgate-")
        run_bench("all", outdir)
        run_bench("switch_timeline", outdir)
        if args.serving:
            run_bench("serving_tail", outdir, extra=("--seed", "11"))

    with open(os.path.join(outdir, "bench_results.json")) as f:
        fresh_ms = json.load(f).get("mode_switch", {})
    with open(os.path.join(outdir, "switch_timeline.json")) as f:
        fresh_tl = json.load(f)

    fresh_sv = None
    serving_path = os.path.join(outdir, "serving_results.json")
    if args.serving or (args.results and os.path.exists(serving_path)):
        with open(serving_path) as f:
            fresh_sv = json.load(f)
        with open(os.path.join(REPO, "serving_results.json")) as f:
            archived_sv = json.load(f)

    gate = Gate()

    gate_mode_switch(gate, archived_ms, fresh_ms)

    notes = []

    # Compare every archived timeline leg (attach/detach plus the _full
    # variants and the live update); a leg that vanished from the fresh run is a
    # regression, a brand-new fresh leg is informational.
    for leg in sorted(archived_tl):
        if leg not in fresh_tl:
            gate.rows.append((f"switch_timeline.{leg}", archived_tl[leg]["end_to_end_us"], float("nan"), float("nan"), 0.0, "REGRESSED"))
            gate.regressions.append(f"switch_timeline.{leg} (leg missing from fresh results)")
            continue
        gate.check(
            f"switch_timeline.{leg}.end_to_end_us",
            archived_tl[leg]["end_to_end_us"],
            fresh_tl[leg]["end_to_end_us"],
            TIMELINE_PHASE_TOL,
            TIMELINE_PHASE_FLOOR,
        )
        for phase, archived_us in archived_tl[leg]["phases_us"].items():
            fresh_us = fresh_tl[leg]["phases_us"].get(phase)
            if fresh_us is None:
                gate.rows.append((f"switch_timeline.{leg}.{phase}", archived_us, float("nan"), float("nan"), 0.0, "REGRESSED"))
                gate.regressions.append(f"switch_timeline.{leg}.{phase} (missing)")
                continue
            gate.check(
                f"switch_timeline.{leg}.{phase}",
                archived_us,
                fresh_us,
                TIMELINE_PHASE_TOL,
                TIMELINE_PHASE_FLOOR,
            )
        for phase in fresh_tl[leg]["phases_us"].keys() - archived_tl[leg]["phases_us"].keys():
            # A brand-new phase is information, not a regression.
            gate.rows.append(
                (f"switch_timeline.{leg}.{phase}", 0.0, fresh_tl[leg]["phases_us"][phase], 0.0, 0.0, "new phase")
            )
    for leg in sorted(set(fresh_tl) - set(archived_tl)):
        # A brand-new leg is information, not a regression.
        gate.rows.append(
            (f"switch_timeline.{leg}", 0.0, fresh_tl[leg]["end_to_end_us"], 0.0, 0.0, "new leg")
        )

    gate_budget(gate, fresh_tl, notes)
    if fresh_sv is not None:
        gate_serving(gate, archived_sv, fresh_sv, notes)

    gate.report()

    for note in notes:
        print(f"\nbenchgate: note — {note}")
    if gate.improvements:
        print(
            f"\nbenchgate: {len(gate.improvements)} metric(s) improved beyond their band "
            f"— consider refreshing the archived JSONs: {', '.join(gate.improvements)}"
        )
    if gate.regressions:
        print(f"\nbenchgate: FAIL — {len(gate.regressions)} regression(s):", file=sys.stderr)
        for r in gate.regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("\nbenchgate: PASS")


if __name__ == "__main__":
    main()
