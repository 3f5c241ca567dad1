#!/usr/bin/env python3
"""Self-tests for tools/abpairs.py (stdlib only, no cargo).

Run directly: `python3 tools/test_abpairs.py`.  The two "harnesses" are
stub scripts that check the arguments they are given and print canned
result JSON in the shape `mercury-benchmark` prints.
"""

import contextlib
import importlib.util
import io
import json
import os
import stat
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))

spec = importlib.util.spec_from_file_location("abpairs", os.path.join(HERE, "abpairs.py"))
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# The n-th run of a stub reports rates[n % len(rates)].
STUB = """#!/usr/bin/env python3
import json, os, sys
me = os.path.abspath(__file__)
with open(me + ".json") as f:
    canned = json.load(f)
runs = me + ".runs"
n = int(open(runs).read()) if os.path.exists(runs) else 0
with open(runs, "w") as f:
    f.write(str(n + 1))
want = ["--seed", "23", "--seconds", "1", "--trace", "0", "--out"]
workload = sys.argv[2]
good = sys.argv[1] == "--workload" and workload in canned["workloads"] and sys.argv[3:10] == want
if not good or canned["exit"]:
    print("harness: bad arguments" if not good else "harness: broke", file=sys.stderr)
    sys.exit(canned["exit"] or 2)
print("calibrating")
metrics = {"setup_s": {"value": 0.02 + n, "unit": "s"}}
sim = dict(canned["sim"], **canned["sim_by_workload"].get(workload, {}))
metrics.update({k: {"value": v, "unit": "us"} for k, v in sim.items()})
metrics["host_ops_per_s"] = {"value": canned["rates"][n % len(canned["rates"])], "unit": "1/s"}
metrics.update({k: {"value": v[n % len(v)], "unit": ""} for k, v in canned["host"].items()})
print(json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}))
"""

SIM = {"sim_p50_us": 27.69, "sim_p99_us": 28.515, "sim_mean_us": 27.68}
SIX = ["serve_native", "serve_virtual", "churn_native", "churn_virtual", "serve_switching", "switch_cycle"]


class AbPairs(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def stub(self, name, rates, sim=SIM, exit=0, host=None, sim_by_workload=None):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(STUB)
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        with open(path + ".json", "w") as f:
            json.dump({"rates": rates, "sim": sim, "exit": exit, "host": host or {}, "workloads": SIX,
                       "sim_by_workload": sim_by_workload or {}}, f)
        return path

    def run_main(self, a, b, pairs, workload="switch_cycle"):
        out = io.StringIO()
        argv = ["abpairs", a, b, "--workload", workload, "--seed", "23",
                "--seconds", "1", "--pairs", str(pairs)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = ab.main(argv)
        return code, out.getvalue()

    def test_pairs_alternate_and_the_summary_counts_wins(self):
        a = self.stub("a", [100.0, 104.0, 98.0, 102.0])
        b = self.stub("b", [125.0, 103.0, 130.0, 128.0])
        code, text = self.run_main(a, b, 4)
        self.assertEqual(code, 0, text)
        self.assertIn("pair 1 (AB): A 100  B 125  x1.250", text)
        self.assertIn("pair 2 (BA): A 104  B 103  x0.990", text)
        # Medians 101 and 126.5; inclusive quartiles 99.5..102.5 and 119.5..128.5.
        self.assertIn("host_ops_per_s: A median 101 (IQR 3)  B median 126 (IQR 9)  x1.252, B won 3/4", text)
        self.assertIn("sim_*: identical in every pair (switch_cycle, seed 23, 1 s)", text)

    def test_a_differing_sim_value_is_named(self):
        a = self.stub("a", [100.0])
        b = self.stub("b", [120.0], sim=dict(SIM, sim_p99_us=28.516))
        code, text = self.run_main(a, b, 3)
        self.assertEqual(code, 1)
        self.assertIn("pair 1: sim_p99_us differs: A 28.515 B 28.516", text)
        self.assertNotIn("pair 2", text)

    def test_host_metrics_may_differ(self):
        # setup_s moves with every run; only sim_* is compared.
        code, text = self.run_main(self.stub("a", [1.0]), self.stub("b", [1.0]), 1)
        self.assertEqual(code, 0, text)
        self.assertIn("IQR 0", text)

    def test_every_host_metric_is_shown_and_held_to_its_bound(self):
        # Bounds from BENCHMARK.json: rate and busy 15 %, RSS 10 %, set-up 25 %.
        a = self.stub("a", [100.0], host={"peak_rss_mb": [100.0], "host_busy_mcycles_per_s": [50.0]})
        b = self.stub("b", [101.0], host={"peak_rss_mb": [112.0], "host_busy_mcycles_per_s": [45.0, 44.0]})
        code, text = self.run_main(a, b, 4)
        self.assertEqual(code, 0, text)
        self.assertIn("B won 4/4\n", text)
        # Each stub's n-th run takes 0.02 + n s to set up: medians 1.52.
        self.assertIn("setup_s: A median 1.52  B median 1.52  worse by +0.00 %\n", text)
        self.assertIn("host_busy_mcycles_per_s: A median 50  B median 44.5  worse by +11.00 %\n", text)
        self.assertIn("peak_rss_mb: A median 100  B median 112  worse by +12.00 %  OUT OF BOUND (bound 10 %)\n",
                      text)
        self.assertEqual(list(ab.host_bounds()),
                         ["setup_s", "host_ops_per_s", "host_busy_mcycles_per_s", "peak_rss_mb"])

    def test_a_rate_below_its_bound_is_marked(self):
        code, text = self.run_main(self.stub("a", [100.0]), self.stub("b", [84.0]), 2)
        self.assertEqual(code, 0, text)
        self.assertIn("x0.840, B won 0/2  OUT OF BOUND (bound 15 %)\n", text)
        code, text = self.run_main(self.stub("c", [100.0]), self.stub("d", [86.0]), 2)
        self.assertIn("x0.860, B won 0/2\n", text)

    def test_several_workloads_run_in_turn_and_a_sim_difference_names_its_workload(self):
        self.assertEqual(ab.workloads("all"), SIX)
        self.assertEqual(ab.workloads("churn_native,switch_cycle"), ["churn_native", "switch_cycle"])
        a = self.stub("a", [100.0])
        b = self.stub("b", [110.0])
        code, text = self.run_main(a, b, 2, workload="all")
        self.assertEqual(code, 0, text)
        headers = [line for line in text.splitlines() if line.startswith("== ")]
        self.assertEqual(headers, [f"== {w} ==" for w in SIX])
        for w in SIX:
            self.assertIn(f"== {w} ==\npair 1 (AB): A 100  B 110  x1.100\n", text)
            self.assertIn(f"sim_*: identical in every pair ({w}, seed 23, 1 s)\n", text)

        c = self.stub("c", [110.0], sim_by_workload={"churn_native": {"sim_p50_us": 27.7}})
        code, text = self.run_main(a, c, 2, workload="switch_cycle,churn_native,serve_native")
        self.assertEqual(code, 1, text)
        self.assertIn("sim_*: identical in every pair (switch_cycle, seed 23, 1 s)", text)
        self.assertIn("abpairs: churn_native pair 1: sim_p50_us differs: A 27.69 B 27.7", text)
        self.assertNotIn("serve_native", text)

    def test_a_failing_run_stops_the_pairs(self):
        a = self.stub("a", [100.0])
        b = self.stub("b", [100.0], exit=3)
        code, text = self.run_main(a, b, 2)
        self.assertEqual(code, 2)
        self.assertIn("exited 3: harness: broke", text)
        code, text = self.run_main(a, os.path.join(self.dir.name, "missing"), 1)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
