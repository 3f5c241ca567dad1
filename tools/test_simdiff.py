#!/usr/bin/env python3
"""Self-tests for tools/simdiff.py (stdlib only, no cargo).

Run directly: `python3 tools/test_simdiff.py`.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))

spec = importlib.util.spec_from_file_location("simdiff", os.path.join(HERE, "simdiff.py"))
sd = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sd)


def cell(value, unit="x"):
    return {"value": value, "unit": unit}


def report(seed=11):
    """One traced report in the shape benchmark/src/json.rs writes."""
    return {
        "provenance": f"commit=abc command=[--workload switch_cycle] seed={seed} profile=release",
        "workload": "switch_cycle",
        "correct": True,
        "ops_attempted": 2625,
        "ops_failed": 0,
        "samples": 2625,
        "end_to_end": {
            "setup_s": cell(0.21, "s"),
            "sim_p50_us": cell(27.69, "us"),
            "sim_p99_us": cell(28.53, "us"),
            "host_ops_per_s": cell(1142.1, "1/s"),
            "peak_rss_mb": cell(68.5, "MiB"),
        },
        "per_layer": {
            "mercury.attach.cycles": cell(52508.0, "cycles"),
            "mercury.attach.host_ns": cell(606892.0, "ns"),
            "xenon.hypercalls_per_op": cell(7.0, "count"),
            "nimbus.host_ns_per_op": cell(248234.09, "ns"),
            "bench.residual_pct": cell(0.0, "%"),
        },
    }


class SimDiff(unittest.TestCase):
    def run_main(self, a, b):
        """Write the two `{file: report}` maps out and run the CLI on them."""
        with tempfile.TemporaryDirectory() as root:
            for side, files in (("a", a), ("b", b)):
                os.mkdir(os.path.join(root, side))
                for name, body in files.items():
                    with open(os.path.join(root, side, name), "w") as f:
                        json.dump(body, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = sd.main(["simdiff", os.path.join(root, "a"), os.path.join(root, "b")])
            return code, out.getvalue()

    def test_host_metrics_may_move_simulated_ones_may_not(self):
        a = {"switch_cycle.traced.quarter.json": report()}
        b = copy.deepcopy(a)
        moved = b["switch_cycle.traced.quarter.json"]
        moved["end_to_end"]["host_ops_per_s"] = cell(6000.0)
        moved["end_to_end"]["setup_s"] = cell(0.05)
        moved["per_layer"]["mercury.attach.host_ns"] = cell(90000.0)
        moved["per_layer"]["nimbus.host_ns_per_op"] = cell(157127.5)
        moved["provenance"] = moved["provenance"].replace("abc", "def")
        code, text = self.run_main(a, b)
        self.assertEqual(code, 0, text)
        # sim_p50, sim_p99, attach.cycles, hypercalls_per_op.
        self.assertIn("4 simulated-clock values identical", text)

    def test_first_differing_value_is_named(self):
        a = {
            "churn_native.untraced.full.json": report(),
            "switch_cycle.traced.quarter.json": report(),
        }
        b = copy.deepcopy(a)
        b["switch_cycle.traced.quarter.json"]["per_layer"]["mercury.attach.cycles"] = cell(52509.0)
        b["switch_cycle.traced.quarter.json"]["per_layer"]["xenon.hypercalls_per_op"] = cell(8.0)
        code, text = self.run_main(a, b)
        self.assertEqual(code, 1)
        self.assertIn(
            "switch_cycle.traced.quarter.json: per_layer.mercury.attach.cycles: 52508.0 != 52509.0",
            text,
        )
        self.assertNotIn("hypercalls_per_op", text)

    def test_a_last_place_difference_counts(self):
        a = {"r.json": report()}
        b = copy.deepcopy(a)
        b["r.json"]["end_to_end"]["sim_p99_us"] = cell(28.530000000000005)
        self.assertEqual(self.run_main(a, b)[0], 1)

    def test_failed_ops_differ(self):
        a = {"r.json": report()}
        b = copy.deepcopy(a)
        b["r.json"]["ops_failed"] = 1
        code, text = self.run_main(a, b)
        self.assertEqual(code, 1)
        self.assertIn("ops_failed", text)

    def test_incomparable_sides_are_a_usage_error(self):
        a = {"r.json": report()}
        self.assertEqual(self.run_main(a, {})[0], 2)
        self.assertEqual(self.run_main(a, {"r.json": report(seed=12)})[0], 2)
        shorter = copy.deepcopy(a)
        shorter["r.json"]["samples"] = 100
        self.assertEqual(self.run_main(a, shorter)[0], 2)
        fewer = copy.deepcopy(a)
        del fewer["r.json"]["per_layer"]["mercury.attach.cycles"]
        self.assertEqual(self.run_main(a, fewer)[0], 2)
        self.assertEqual(self.run_main({}, {})[0], 2)

    def test_two_files_list_every_numeric_leaf_that_differs(self):
        a = {"seed": 11, "mode": "full", "nodes": [{"frames": 16, "up": True}, {"frames": 9}]}
        b = copy.deepcopy(a)
        b["nodes"][0]["frames"] = 17
        b["nodes"][1]["frames"] = 8.5
        b["nodes"][1]["extra"] = 3
        b["mode"] = "quick"
        with tempfile.TemporaryDirectory() as root:
            paths = [os.path.join(root, name) for name in ("a.json", "b.json")]
            for path, body in zip(paths, (a, b)):
                with open(path, "w") as f:
                    json.dump(body, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = sd.main(["simdiff", *paths])
            same = io.StringIO()
            with contextlib.redirect_stdout(same), contextlib.redirect_stderr(same):
                same_code = sd.main(["simdiff", paths[0], paths[0]])
        self.assertEqual(code, 1, out.getvalue())
        self.assertEqual(
            out.getvalue().splitlines(),
            [
                "nodes[0].frames: 16 != 17",
                "nodes[1].frames: 9 != 8.5",
                "nodes[1].extra: (absent) != 3",
                "simdiff: 3 of 4 numeric values differ",
            ],
        )
        self.assertEqual(same_code, 0, same.getvalue())
        self.assertIn("3 numeric values identical", same.getvalue())

    def test_raw_span_dumps_are_skipped(self):
        a = {"r.json": report(), "trace.json": {"switch_cycle": []}}
        b = {"r.json": report(), "trace.json": {"switch_cycle": [1]}}
        self.assertEqual(self.run_main(a, b)[0], 0)


if __name__ == "__main__":
    unittest.main()
