"""Self-tests of the benchmark: python3 -m unittest discover -s perfbench/tests

The runner tests build perfbench_workloads (as run.py does) and run it with
--seconds 0, which still makes the minimum number of rows.
"""

import argparse
import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


def run_raw(workload, seed=3, trace=0, bad_row=None):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=trace)
    extra = ("--bad-row", str(bad_row)) if bad_row is not None else ()
    return run.run_workloads(args, extra)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)

    def test_refuses_p90_with_fewer_than_ten_rows_beyond(self):
        self.assertEqual(run.percentile(list(range(100)), 90), 89)  # 10 beyond
        with self.assertRaises(run.BenchError):
            run.percentile(list(range(99)), 90)  # 9 beyond
        with self.assertRaises(run.BenchError):
            run.percentile([], 50)


class SetupEstimate(unittest.TestCase):
    def test_median_of_interleaved_group_means(self):
        # Groups [1, 5, 9], [2, 6, 10], [3, 7, 11], [4, 8, 100].
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100]
        self.assertEqual(run.median_of_means(values), 6.5)
        with self.assertRaises(run.BenchError):
            run.median_of_means([1, 2, 3])

    def test_two_levels_blend_instead_of_jumping(self):
        fast, slow = 1.0, 1.5
        mostly_fast = [slow if i % 12 in (0, 5, 10) else fast for i in range(12)]
        mostly_slow = [fast if i % 12 in (0, 5, 10) else slow for i in range(12)]
        spread = run.median_of_means(mostly_slow) / run.median_of_means(mostly_fast)
        self.assertLess(spread, 1.3)  # a plain median would read 1.5


class Schema(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class Runner(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_schema(self, res, units):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), list(units))
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], units[name])
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)
        json.loads(json.dumps(res))

    def test_plain_and_traced_schema(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = run.result(run_raw(workload), 0)
                self.check_schema(plain, run.END_TO_END)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                for name, m in plain["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                traced = run.result(run_raw(workload, trace=1), 1)
                self.check_schema(traced, run.PER_LAYER)
                self.assertTrue(traced["correct"])
                layer = {name: m["value"] for name, m in traced["metrics"].items()}
                if workload == "fork_overlay":
                    # The simulator keeps what dead children held.
                    self.assertGreater(layer["vm.retained_kb_per_fork"], 0)
                if workload == "sweep_warm":
                    self.assertGreater(layer["workload.restore_share"], 0)
                    self.assertLess(layer["workload.restore_share"], 1)

    def test_sweep_ticks_are_post_fork_cycles(self):
        raw = run_raw("sweep_warm")
        jobs = raw["jobs"]
        self.assertEqual(len(jobs), raw["jobs_per_row"])
        for job in jobs:
            # The epoch runs SweepWarm::kPostForkInstructions; the last
            # compute op may overrun by a few.
            self.assertGreaterEqual(job["instructions"], 100_000)
            self.assertLess(job["instructions"], 100_016)
        ticks = sum(j["cpi"] * j["instructions"] for j in jobs)
        accesses = sum(j["accesses"] for j in jobs)
        self.assertEqual(raw["sim_accesses"], accesses)
        self.assertAlmostEqual(raw["sim_ticks"] / ticks, 1.0, places=12)
        value = run.result(raw, 0)["metrics"]["sim_ticks_per_access"]["value"]
        self.assertAlmostEqual(value / (ticks / accesses), 1.0, places=12)

    def test_injected_bad_row_is_counted(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = run.result(run_raw(workload, bad_row=5), 0)
                self.assertEqual(res["failed"], 1)
                self.assertFalse(res["correct"])
                self.assertGreater(res["attempted"], 1)

    def test_seed_changes_stream_not_metric_set(self):
        a = run_raw("fork_overlay", seed=1)
        b = run_raw("fork_overlay", seed=2)
        self.assertNotEqual(a["stream_fingerprint"], b["stream_fingerprint"])
        self.assertEqual(list(run.result(a, 0)["metrics"]), list(run.result(b, 0)["metrics"]))
        again = run_raw("fork_overlay", seed=1)
        self.assertEqual(a["stream_fingerprint"], again["stream_fingerprint"])
        self.assertEqual(a["sim_ticks"], again["sim_ticks"])

    def test_unknown_workload_is_refused(self):
        with self.assertRaises(SystemExit):
            run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])


if __name__ == "__main__":
    unittest.main()
