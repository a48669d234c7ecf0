"""Tests of the benchmark's statistics helpers and of the agreement between
run.py's metric tables and BENCHMARK.json.

  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import pbstats  # noqa: E402
import run  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(pbstats.median([3, 1, 2]), 2)
        self.assertEqual(pbstats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            pbstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(pbstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(pbstats.spread(values), (q3 - q1) / q2)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(pbstats.spread([2.5] * 10), 0.0)


class Ratio(unittest.TestCase):
    def test_ratio_of_zero_denominator_is_zero(self):
        self.assertEqual(pbstats.ratio(5, 0), 0.0)
        self.assertEqual(pbstats.ratio(6, 3), 2.0)


class MetricTables(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(PERFBENCH),
                               "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units_agree(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
            list(run.END_TO_END))

    def test_per_layer_names_and_units_agree(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            run.per_layer_metrics())

    def test_remote_path_names_are_ledger_entries(self):
        for name, _ in run.REMOTE_PATH:
            self.assertIn(name, run.LEDGER)

    def test_workloads_agree(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
