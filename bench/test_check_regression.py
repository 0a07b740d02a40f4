"""Unit tests for the CI bench-regression guard (bench/check_regression.py).

The guard gates every merge, so its tolerance arithmetic and min-over-runs
noise handling must themselves be tested code. Run with either

  python -m pytest bench/test_check_regression.py        # CI
  python -m unittest bench.test_check_regression         # stdlib-only

(unittest.TestCase classes so both runners discover the same tests; the CI
workflow uses pytest for its reporting).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_regression


def cell(name, pages=10.0, p99=100.0, bench="sweep_x", scale=1.0, **extra):
    record = {"bench": bench, "scale": scale, "cell": name,
              "pages_per_query": pages, "p99_us": p99}
    record.update(extra)
    return record


class GuardTestCase(unittest.TestCase):
    """Shared plumbing: write JSON-lines files, run the guard, check rc."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write_jsonl(self, name, records):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
        return path

    def run_guard(self, current, baseline, *extra_args):
        argv = ["--current", self.write_jsonl("current.json", current),
                "--baseline", self.write_jsonl("baseline.json", baseline)]
        argv.extend(extra_args)
        return check_regression.main(argv)


class ToleranceTest(GuardTestCase):
    def test_identical_metrics_pass(self):
        records = [cell("a"), cell("b", pages=33.3, p99=912.5)]
        self.assertEqual(self.run_guard(records, records), 0)

    def test_growth_within_tolerance_passes(self):
        base = [cell("a", pages=100.0, p99=100.0)]
        current = [cell("a", pages=114.9, p99=114.9)]  # +14.9% < 15%
        self.assertEqual(self.run_guard(current, base), 0)

    def test_growth_beyond_tolerance_fails(self):
        base = [cell("a", pages=100.0)]
        current = [cell("a", pages=115.2)]  # +15.2% > 15%
        self.assertEqual(self.run_guard(current, base), 1)

    def test_improvement_never_fails(self):
        base = [cell("a", pages=100.0, p99=100.0)]
        current = [cell("a", pages=1.0, p99=1.0)]
        self.assertEqual(self.run_guard(current, base), 0)

    def test_custom_tolerance_is_respected(self):
        base = [cell("a", p99=100.0)]
        current = [cell("a", p99=160.0)]  # +60%
        self.assertEqual(
            self.run_guard(current, base, "--tolerance-p99", "0.75",
                           "--skip-pages"), 0)
        self.assertEqual(
            self.run_guard(current, base, "--tolerance-p99", "0.5",
                           "--skip-pages"), 1)

    def test_zero_baseline_metric_is_skipped(self):
        # b <= 0 means "nothing meaningful to compare": a cell whose
        # baseline never measured the metric cannot regress on it.
        base = [cell("a", pages=0.0, p99=0.0)]
        current = [cell("a", pages=42.0, p99=1e9)]
        self.assertEqual(self.run_guard(current, base), 0)


class MinOverRunsTest(GuardTestCase):
    def test_minimum_p99_across_runs_wins(self):
        # Two appended runs: the first is scheduler-polluted, the second
        # clean. The guard must compare the minimum, not the last.
        base = [cell("a", p99=100.0)]
        current = [cell("a", p99=1000.0), cell("a", p99=101.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 0)

    def test_minimum_still_regressing_fails(self):
        base = [cell("a", p99=100.0)]
        current = [cell("a", p99=1000.0), cell("a", p99=900.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 1)

    def test_deterministic_metrics_keep_last_occurrence(self):
        # pages/query is append-mode too, but deterministic: the last line
        # wins (a re-run fixes a stale earlier line).
        base = [cell("a", pages=100.0)]
        current = [cell("a", pages=500.0, p99=90.0),
                   cell("a", pages=100.0, p99=90.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-p99"), 0)

    def test_run_missing_p99_does_not_zero_the_minimum(self):
        # A record without p99_us must not collapse min() to 0 and mask a
        # real timing regression observed by the other runs.
        base = [cell("a", p99=100.0)]
        current = [cell("a", p99=900.0),
                   {"bench": "sweep_x", "scale": 1.0, "cell": "a",
                    "pages_per_query": 10.0}]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 1)

    def test_min_is_per_cell_not_global(self):
        base = [cell("a", p99=100.0), cell("b", p99=100.0)]
        current = [cell("a", p99=50.0), cell("b", p99=500.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 1)


class NsPerEntryTest(GuardTestCase):
    """ns_per_entry (micro_kernels cells) is a timing metric like p99_us:
    min-collapsed across appended runs, gated under --skip-p99 /
    --tolerance-p99, skipped when the baseline never measured it."""

    def test_kernel_regression_fails(self):
        base = [cell("k", pages=0.0, p99=0.0, ns_per_entry=10.0)]
        current = [cell("k", pages=0.0, p99=0.0, ns_per_entry=20.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 1)

    def test_kernel_within_tolerance_passes(self):
        base = [cell("k", ns_per_entry=10.0)]
        current = [cell("k", ns_per_entry=11.0)]  # +10% < 15%
        self.assertEqual(self.run_guard(current, base), 0)

    def test_minimum_across_runs_wins(self):
        base = [cell("k", ns_per_entry=10.0)]
        current = [cell("k", ns_per_entry=100.0, p99=90.0),
                   cell("k", ns_per_entry=10.5, p99=90.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 0)

    def test_skip_p99_skips_kernel_timing_too(self):
        base = [cell("k", ns_per_entry=10.0)]
        current = [cell("k", ns_per_entry=1000.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-p99"), 0)

    def test_serving_cells_without_kernel_metric_unaffected(self):
        # Serving-bench cells carry ns_per_entry = 0 (or omit it): the
        # guard must not invent a kernel gate for them.
        base = [cell("a", ns_per_entry=0.0), cell("b")]
        current = [cell("a", ns_per_entry=123.0), cell("b")]
        self.assertEqual(self.run_guard(current, base), 0)


class PhysicalPagesTest(GuardTestCase):
    """physical_pages_per_query (sweep_cache cells) is deterministic like
    pages_per_query: last line wins, gated under --tolerance-pages and
    skipped with --skip-pages."""

    def test_physical_read_regression_fails(self):
        base = [cell("served", physical_pages_per_query=5.7)]
        current = [cell("served", physical_pages_per_query=6.0)]  # +5.3%
        self.assertEqual(
            self.run_guard(current, base, "--skip-p99",
                           "--tolerance-pages", "0"), 1)

    def test_physical_reads_within_tolerance_pass(self):
        base = [cell("served", physical_pages_per_query=10.0)]
        current = [cell("served", physical_pages_per_query=11.0)]  # +10%
        self.assertEqual(self.run_guard(current, base, "--skip-p99"), 0)

    def test_physical_reads_beyond_tolerance_fail(self):
        base = [cell("served", physical_pages_per_query=10.0)]
        current = [cell("served", physical_pages_per_query=12.0)]  # +20%
        self.assertEqual(self.run_guard(current, base, "--skip-p99"), 1)

    def test_last_occurrence_wins(self):
        base = [cell("served", physical_pages_per_query=10.0)]
        current = [cell("served", physical_pages_per_query=50.0),
                   cell("served", physical_pages_per_query=10.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-p99"), 0)

    def test_skip_pages_skips_physical_reads_too(self):
        base = [cell("served", physical_pages_per_query=10.0)]
        current = [cell("served", physical_pages_per_query=100.0)]
        self.assertEqual(self.run_guard(current, base, "--skip-pages"), 0)

    def test_cells_without_physical_metric_unaffected(self):
        base = [cell("a"), cell("b", physical_pages_per_query=0.0)]
        current = [cell("a", physical_pages_per_query=3.0), cell("b")]
        self.assertEqual(self.run_guard(current, base), 0)


class CoverageTest(GuardTestCase):
    def test_baseline_cell_missing_from_current_fails(self):
        # Silently losing bench coverage is itself a regression.
        base = [cell("a"), cell("b")]
        current = [cell("a")]
        self.assertEqual(self.run_guard(current, base), 1)

    def test_new_current_cell_is_reported_but_passes(self):
        base = [cell("a")]
        current = [cell("a"), cell("brand_new")]
        self.assertEqual(self.run_guard(current, base), 0)

    def test_cells_keyed_by_bench_scale_and_cell(self):
        # Same cell name at another scale is a different measurement; it
        # must not satisfy the coverage check for the baseline's scale.
        base = [cell("a", scale=1.0)]
        current = [cell("a", scale=0.02)]
        self.assertEqual(self.run_guard(current, base), 1)

    def test_empty_baseline_is_an_error(self):
        with self.assertRaises(SystemExit):
            self.run_guard([cell("a")], [])

    def test_skipping_both_gates_is_an_error(self):
        with self.assertRaises(SystemExit):
            self.run_guard([cell("a")], [cell("a")],
                           "--skip-pages", "--skip-p99")

    def test_malformed_json_line_is_an_error(self):
        base = self.write_jsonl("baseline.json", [cell("a")])
        current = os.path.join(self._dir.name, "broken.json")
        with open(current, "w", encoding="utf-8") as f:
            f.write('{"bench": "x", truncated\n')
        with self.assertRaises(SystemExit):
            check_regression.main(["--current", current, "--baseline", base])


if __name__ == "__main__":
    unittest.main()
