"""Unit tests of compare.py (stdlib only):

    python3 -m unittest discover bench/e2e
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

LOWER_MS = {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
HIGHER_QPS = {"name": "qps", "unit": "q/s", "better": "higher",
              "bound": 0.1}
PAGES = {"name": "pages_per_query", "unit": "pages", "better": "lower",
         "bound": 0.01}
FP = {"nproc": 4, "cpu_model": "x", "kernel_backend": "avx2",
      "gauss_force_scalar": "", "compiler": "12", "build_type": "Release",
      "git_sha": "a", "git_dirty": False, "seed": 1}


def steady(center, n=10, step=0.001):
    """n values tightly around `center`, alternating above and below."""
    return [center * (1 + step * ((i % 2) * 2 - 1)) for i in range(n)]


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class VerdictTest(unittest.TestCase):
    def test_identical_runs_are_ok(self):
        v = compare.verdict(LOWER_MS, steady(1.0), steady(1.0))
        self.assertEqual(v["verdict"], "ok")
        self.assertAlmostEqual(v["worse_by"], 0.0)

    def test_worse_than_bound_is_regression(self):
        v = compare.verdict(LOWER_MS, steady(1.0), steady(1.2))
        self.assertEqual(v["verdict"], "regression")
        self.assertAlmostEqual(v["worse_by"], 0.2, places=6)

    def test_worse_within_bound_is_ok(self):
        v = compare.verdict(LOWER_MS, steady(1.0), steady(1.05))
        self.assertEqual(v["verdict"], "ok")

    def test_direction_higher(self):
        self.assertEqual(
            compare.verdict(HIGHER_QPS, steady(100.0), steady(80.0))["verdict"],
            "regression")
        self.assertEqual(
            compare.verdict(HIGHER_QPS, steady(100.0), steady(120.0))["verdict"],
            "gain")

    def test_gain_needs_ten_pairs(self):
        v = compare.verdict(LOWER_MS, steady(1.0, n=9), steady(0.5, n=9))
        self.assertNotEqual(v["verdict"], "gain")
        v = compare.verdict(LOWER_MS, steady(1.0, n=10), steady(0.5, n=10))
        self.assertEqual(v["verdict"], "gain")

    def test_gain_needs_nine_in_ten_wins(self):
        parent = steady(1.0)
        change = [0.5] * 8 + [1.5, 1.5]  # 8/10 wins
        v = compare.verdict(LOWER_MS, parent, change)
        self.assertEqual(v["wins"], 8)
        self.assertNotEqual(v["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        v = compare.verdict(LOWER_MS, [1.0] * 10, [1.0] * 10)
        self.assertEqual(v["wins"], 0)
        self.assertEqual(v["verdict"], "ok")

    def test_gain_needs_difference_beyond_parent_iqr(self):
        # Every pair wins, but by less than the parent's own spread.
        parent = [1.0, 1.2] * 5
        change = [p - 0.05 for p in parent]
        v = compare.verdict(dict(LOWER_MS, bound=0.5), parent, change)
        self.assertEqual(v["win_share"], 1.0)
        self.assertNotEqual(v["verdict"], "gain")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [1.0, 1.4] * 5  # spread ~0.33 > 0.1
        change = [1.05, 1.45] * 5
        v = compare.verdict(LOWER_MS, parent, change)
        self.assertGreater(v["spread"], LOWER_MS["bound"])
        self.assertEqual(v["verdict"], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_not_unresolved(self):
        parent = [1.0, 1.4] * 5
        change = [0.5, 0.6] * 5
        self.assertEqual(compare.verdict(LOWER_MS, parent, change)["verdict"],
                         "gain")
        change = [0.9] * 3  # too few pairs for a gain, still all better
        self.assertEqual(compare.verdict(LOWER_MS, parent, change)["verdict"],
                         "ok")

    def test_timing_refused_across_machines(self):
        v = compare.verdict(LOWER_MS, steady(1.0), steady(1.0),
                            machines_match=False)
        self.assertEqual(v["verdict"], "refused")

    def test_counts_compared_across_machines(self):
        v = compare.verdict(PAGES, steady(30.0), steady(31.0),
                            machines_match=False)
        self.assertEqual(v["verdict"], "regression")


class FingerprintTest(unittest.TestCase):
    def test_code_identity_is_not_machine(self):
        other = dict(FP, git_sha="b", git_dirty=True, seed=7)
        self.assertTrue(compare.same_machine(FP, other))

    def test_machine_fields_differ(self):
        for key, value in [("nproc", 8), ("cpu_model", "y"),
                           ("kernel_backend", "scalar"),
                           ("gauss_force_scalar", "1"), ("compiler", "13"),
                           ("build_type", "Debug")]:
            self.assertFalse(compare.same_machine(FP, dict(FP, **{key: value})),
                             key)


class MainTest(unittest.TestCase):
    def write(self, directory, name, fingerprint, values, failed=0):
        runs = [{"workload": "tree", "rep": i, "seed": 1 + i, "failed": failed,
                 "correct": failed == 0,
                 "metrics": {"p50_ms": v, "pages_per_query": 30.0}}
                for i, v in enumerate(values)]
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump({"fingerprint": fingerprint, "runs": runs}, f)
        return path

    def bench(self, directory):
        path = os.path.join(directory, "BENCHMARK.json")
        with open(path, "w") as f:
            json.dump({"workloads": [{"name": "tree", "why": "x"}],
                       "end_to_end": [LOWER_MS, PAGES]}, f)
        return path

    def run_main(self, parent_values, change_values, change_fp=FP, failed=0):
        with tempfile.TemporaryDirectory() as d:
            parent = self.write(d, "p.json", FP, parent_values)
            change = self.write(d, "c.json", change_fp, change_values, failed)
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    return compare.main([parent, change, "--benchmark",
                                         self.bench(d)])
                finally:
                    sys.stdout = stdout

    def test_exit_status(self):
        self.assertEqual(self.run_main(steady(1.0), steady(1.0)), 0)
        self.assertEqual(self.run_main(steady(1.0), steady(1.3)), 1)
        self.assertEqual(self.run_main(steady(1.0), steady(1.0),
                                       dict(FP, nproc=8)), 1)
        self.assertEqual(self.run_main(steady(1.0), steady(1.0), failed=1), 1)


if __name__ == "__main__":
    unittest.main()
