#!/usr/bin/env python3
"""Self-tests for the perf-regression gate (tools/benchgate.py).

The gate is itself load-bearing CI: a bug here fails — or worse,
silently passes — every PR.  These tests exercise the pure decision
logic against the checked-in fixture JSONs in `tools/fixtures/`, no
cargo involved:

* band math (relative tolerance, absolute floors, improvement vs
  regression asymmetry),
* the mode-switch rows (one spelling on both sides; a row or metric
  missing from the fresh `bench_results.json` regresses),
* the static-budget cross-check (missing phases, budget breaches,
  end-to-end vs summed-phase containment, stale-bounds notes),
* the serving-tail bands and hard inflation ceilings,
* the `--fleet` hard invariants (zero lost, accounting, determinism,
  downtime/p999 ceilings) and archive bands,
* the `--sim-speed` invariants (throughput fraction, missing-suite
  notes).

Run directly: `python3 tools/test_benchgate.py` (stdlib only).
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

spec = importlib.util.spec_from_file_location("benchgate", os.path.join(HERE, "benchgate.py"))
bg = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bg)


def fixture(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return json.load(f)


@contextlib.contextmanager
def quiet():
    """Swallow the gate's report tables; return the captured text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        yield buf


class BenchCommand(unittest.TestCase):
    def test_cargo_finds_the_workspace_from_any_cwd(self):
        # The gate runs each binary in a fresh temp dir (the binaries
        # write into cwd); without --manifest-path cargo finds no
        # Cargo.toml there and the default invocation crashes.
        cmd = bg.bench_cmd("serving_tail", ["--seed", "11"])
        manifest = cmd[cmd.index("--manifest-path") + 1]
        self.assertTrue(os.path.isabs(manifest))
        self.assertTrue(os.path.isfile(manifest), manifest)
        self.assertEqual(os.path.dirname(manifest), os.path.dirname(HERE))
        self.assertIn("--offline", cmd)
        self.assertLess(cmd.index("--manifest-path"), cmd.index("--"))
        self.assertEqual(cmd[cmd.index("--bin") + 1], "serving_tail")
        self.assertEqual(cmd[cmd.index("--features") + 1], "trace,faults")
        self.assertEqual(cmd[cmd.index("--") + 1 :], ["--seed", "11"])
        self.assertNotIn("--", bg.bench_cmd("all"))


class BandMath(unittest.TestCase):
    def test_within_band_is_ok(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 100.5, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "ok")
        self.assertFalse(gate.regressions)
        self.assertFalse(gate.improvements)

    def test_slowdown_beyond_band_regresses(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 102.0, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "REGRESSED")
        self.assertEqual(gate.regressions, ["m"])

    def test_improvement_beyond_band_does_not_fail(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 90.0, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "improved")
        self.assertFalse(gate.regressions)
        self.assertEqual(gate.improvements, ["m"])

    def test_absolute_floor_absorbs_tiny_metrics(self):
        # 4x relative change on a 0.01 µs metric stays inside the
        # 0.05 µs floor: bands are max(rel, floor).
        gate = bg.Gate()
        gate.check("m", 0.01, 0.04, 0.01, 0.05)
        self.assertEqual(gate.rows[-1][-1], "ok")

    def test_band_is_max_of_relative_and_floor(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 103.0, 0.05, 0.1)  # 5% of 100 beats the floor
        self.assertEqual(gate.rows[-1][-1], "ok")
        gate.check("m2", 100.0, 106.0, 0.05, 0.1)
        self.assertEqual(gate.rows[-1][-1], "REGRESSED")


def mode_switch_section():
    """A "mode_switch" section carrying every checked row, all at 10 µs."""
    section = {}
    for row, metric, _, _ in bg.MODE_SWITCH_CHECKS:
        section.setdefault(row, {})[metric] = 10.0
    section["sharded_recompute"]["speedup"] = 3.5
    return section


class ModeSwitchGate(unittest.TestCase):
    def test_same_rows_pass(self):
        gate = bg.Gate()
        bg.gate_mode_switch(gate, mode_switch_section(), mode_switch_section())
        self.assertFalse(gate.regressions)
        self.assertEqual(len(gate.rows), len(bg.MODE_SWITCH_CHECKS) + 1)

    def test_missing_row_regresses(self):
        # `all` emits every row on every run: a fresh file without
        # `sharded_recompute` lost a measurement, it did not get faster.
        gate, fresh = bg.Gate(), mode_switch_section()
        del fresh["sharded_recompute"]
        bg.gate_mode_switch(gate, mode_switch_section(), fresh)
        self.assertIn("mode_switch.sharded_recompute.serial_pginfo_us (missing from fresh results)", gate.regressions)
        self.assertIn("mode_switch.sharded_recompute.speedup", gate.regressions)

    def test_missing_metric_regresses(self):
        gate, fresh = bg.Gate(), mode_switch_section()
        del fresh["recompute"]["detach_us"]
        bg.gate_mode_switch(gate, mode_switch_section(), fresh)
        self.assertEqual(gate.regressions, ["mode_switch.recompute.detach_us (missing from fresh results)"])

    def test_slow_sharding_regresses(self):
        gate, fresh = bg.Gate(), mode_switch_section()
        fresh["sharded_recompute"]["speedup"] = bg.SHARDED_SPEEDUP_FLOOR - 0.1
        bg.gate_mode_switch(gate, mode_switch_section(), fresh)
        self.assertEqual(gate.regressions, ["mode_switch.sharded_recompute.speedup"])


class BudgetCrossCheck(unittest.TestCase):
    def setUp(self):
        self.saved_repo = bg.REPO
        bg.REPO = tempfile.mkdtemp(prefix="benchgate-test-")
        with open(os.path.join(bg.REPO, "volint_budget.json"), "w") as f:
            json.dump({"phases": {"phase.a": {"us": 10.0}, "phase.b": {"us": 5.0}}}, f)

    def tearDown(self):
        shutil.rmtree(bg.REPO)
        bg.REPO = self.saved_repo

    @staticmethod
    def leg(phases, e2e):
        return {"leg": {"phases_us": phases, "end_to_end_us": e2e, "samples": 20}}

    def test_within_budget_passes(self):
        gate, notes = bg.Gate(), []
        bg.gate_budget(gate, self.leg({"phase.a": 8.0, "phase.b": 4.0}, 12.5), notes)
        self.assertFalse(gate.regressions)

    def test_phase_over_budget_regresses(self):
        gate, notes = bg.Gate(), []
        bg.gate_budget(gate, self.leg({"phase.a": 11.0}, 11.0), notes)
        self.assertTrue(any("phase.a" in r for r in gate.regressions))

    def test_unbudgeted_phase_regresses(self):
        gate, notes = bg.Gate(), []
        bg.gate_budget(gate, self.leg({"phase.zzz": 0.1}, 0.1), notes)
        self.assertTrue(any("no static budget" in r for r in gate.regressions))

    def test_end_to_end_must_fit_summed_budgets(self):
        # Un-spanned inter-phase work cannot hide in the gaps.
        gate, notes = bg.Gate(), []
        bg.gate_budget(gate, self.leg({"phase.a": 8.0, "phase.b": 4.0}, 16.0), notes)
        self.assertTrue(any("end_to_end" in r for r in gate.regressions))

    def test_stale_bounds_are_a_note_not_a_failure(self):
        gate, notes = bg.Gate(), []
        bg.gate_budget(gate, self.leg({"phase.a": 0.01}, 0.01), notes)
        self.assertFalse(gate.regressions)
        self.assertTrue(any("stale" in n for n in notes))


def serving_pair():
    """A matched (archived, fresh) serving_results pair, in band."""
    archived = {
        "quick": False,
        "determinism": "verified",
        "inflation_vs_steady_native_1cpu": {
            "steady_virtual_p99": 1.19,
            "switch_under_load_p99": 1.39,
            "switch_under_load_p999": 1.82,
            "update_under_load_p99": 1.45,
            "update_under_load_p999": 1.85,
        },
        "scenarios": [
            {"name": "steady-virtual-1cpu", "p99_us": 10.0},
            {"name": "switch-under-load-1cpu", "p99_us": 12.0},
        ],
    }
    return archived, copy.deepcopy(archived)


class ServingGate(unittest.TestCase):
    def test_in_band_run_passes(self):
        gate, notes = bg.Gate(), []
        archived, fresh = serving_pair()
        bg.gate_serving(gate, archived, fresh, notes)
        self.assertFalse(gate.regressions)

    def test_quick_runs_are_skipped_with_a_note(self):
        gate, notes = bg.Gate(), []
        archived, fresh = serving_pair()
        fresh["quick"] = True
        bg.gate_serving(gate, archived, fresh, notes)
        self.assertFalse(gate.rows)
        self.assertTrue(any("quick" in n for n in notes))

    def test_update_ceiling_breach_regresses(self):
        gate, notes = bg.Gate(), []
        archived, fresh = serving_pair()
        # In band relative to a (bad) archive, but over the absolute line.
        archived["inflation_vs_steady_native_1cpu"]["update_under_load_p99"] = 2.6
        fresh["inflation_vs_steady_native_1cpu"]["update_under_load_p99"] = 2.5
        bg.gate_serving(gate, archived, fresh, notes)
        self.assertTrue(any("ceiling.update_under_load_p99" in r for r in gate.regressions))

    def test_missing_inflation_key_regresses(self):
        # Every run executes every scenario; a key that vanished means
        # its scenario fell out of the table.
        gate, notes = bg.Gate(), []
        archived, fresh = serving_pair()
        del fresh["inflation_vs_steady_native_1cpu"]["update_under_load_p99"]
        bg.gate_serving(gate, archived, fresh, notes)
        self.assertTrue(any("update_under_load_p99 (missing" in r for r in gate.regressions))

    def test_new_fresh_key_is_informational(self):
        gate, notes = bg.Gate(), []
        archived, fresh = serving_pair()
        del archived["inflation_vs_steady_native_1cpu"]["update_under_load_p999"]
        bg.gate_serving(gate, archived, fresh, notes)
        self.assertFalse(gate.regressions)
        self.assertTrue(any("archive it" in n for n in notes))


class FleetGate(unittest.TestCase):
    def setUp(self):
        self.saved_repo = bg.REPO
        self.tmp = tempfile.mkdtemp(prefix="benchgate-test-")
        bg.REPO = self.tmp
        self.fresh_path = os.path.join(self.tmp, "fresh.json")

    def tearDown(self):
        shutil.rmtree(self.tmp)
        bg.REPO = self.saved_repo

    def arm(self, fresh, archived=None):
        with open(self.fresh_path, "w") as f:
            json.dump(fresh, f)
        if archived is not None:
            with open(os.path.join(self.tmp, "fleet_results.json"), "w") as f:
                json.dump(archived, f)

    def test_clean_run_passes_against_matching_archive(self):
        fleet = fixture("fleet_results.json")
        self.arm(fleet, archived=fleet)
        with quiet() as out:
            bg.gate_fleet(self.fresh_path)
        self.assertIn("PASS", out.getvalue())

    def test_lost_requests_fail_hard(self):
        fleet = fixture("fleet_results.json")
        fleet["lost"] = 1
        self.arm(fleet, archived=fixture("fleet_results.json"))
        with quiet(), self.assertRaises(SystemExit) as ctx:
            bg.gate_fleet(self.fresh_path)
        self.assertEqual(ctx.exception.code, 1)

    def test_accounting_mismatch_fails_hard(self):
        fleet = fixture("fleet_results.json")
        fleet["completed"] -= 7  # offered != completed + shed
        self.arm(fleet, archived=fixture("fleet_results.json"))
        with quiet(), self.assertRaises(SystemExit):
            bg.gate_fleet(self.fresh_path)

    def test_p999_ceiling_is_absolute(self):
        fleet = fixture("fleet_results.json")
        fleet["p999_us"] = bg.FLEET_P999_CEILING_US + 1.0
        # Archive the same breach: it must not grandfather it in.
        self.arm(fleet, archived=copy.deepcopy(fleet))
        with quiet(), self.assertRaises(SystemExit):
            bg.gate_fleet(self.fresh_path)

    def test_tail_band_against_archive(self):
        fleet = fixture("fleet_results.json")
        fleet["p99_us"] = fleet["p99_us"] * 2.0
        self.arm(fleet, archived=fixture("fleet_results.json"))
        with quiet(), self.assertRaises(SystemExit):
            bg.gate_fleet(self.fresh_path)

    def test_mode_mismatch_skips_bands(self):
        fleet = fixture("fleet_results.json")
        fleet["mode"] = "quick"
        fleet["p99_us"] = fleet["p99_us"] * 2.0
        self.arm(fleet, archived=fixture("fleet_results.json"))
        with quiet() as out:
            bg.gate_fleet(self.fresh_path)
        self.assertIn("band comparison skipped", out.getvalue())
        self.assertIn("PASS", out.getvalue())


class SimSpeedGate(unittest.TestCase):
    def setUp(self):
        self.saved_repo = bg.REPO
        self.tmp = tempfile.mkdtemp(prefix="benchgate-test-")
        bg.REPO = self.tmp
        self.fresh_path = os.path.join(self.tmp, "fresh.json")
        shutil.copy(os.path.join(FIXTURES, "sim_speed.json"), os.path.join(self.tmp, "sim_speed.json"))

    def tearDown(self):
        shutil.rmtree(self.tmp)
        bg.REPO = self.saved_repo

    def arm(self, fresh):
        with open(self.fresh_path, "w") as f:
            json.dump(fresh, f)

    def test_matching_throughput_passes(self):
        self.arm(fixture("sim_speed.json"))
        with quiet() as out:
            bg.gate_sim_speed(self.fresh_path)
        self.assertIn("PASS", out.getvalue())

    def test_throughput_cliff_fails(self):
        fresh = fixture("sim_speed.json")
        fresh["serving"]["mcycles_per_host_second"] *= bg.SIM_SPEED_MIN_FRACTION * 0.9
        self.arm(fresh)
        with quiet(), self.assertRaises(SystemExit):
            bg.gate_sim_speed(self.fresh_path)

    def test_missing_suite_is_a_note(self):
        fresh = fixture("sim_speed.json")
        del fresh["faultgen"]
        self.arm(fresh)
        with quiet() as out:
            bg.gate_sim_speed(self.fresh_path)
        self.assertIn("missing from fresh run (note)", out.getvalue())
        self.assertIn("PASS", out.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
