"""Self-test of the benchmark's statistics and its metric tables.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import pxstats  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_exact_on_raw_samples(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(pxstats.percentile(xs, 0), 1)
        self.assertEqual(pxstats.percentile(xs, 100), 100)
        self.assertAlmostEqual(pxstats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(pxstats.percentile(xs, 99), 99.01)
        self.assertEqual(pxstats.median([3, 1, 2]), 2)

    def test_moves_with_any_shift(self):
        # A factor-of-two bucket histogram reads the same p50 for both of
        # these; the raw-sample percentile must see the 40% shift.
        base = [70_000 + i for i in range(1000)]
        slow = [int(x * 1.4) for x in base]
        self.assertAlmostEqual(pxstats.median(slow) / pxstats.median(base),
                               1.4, places=3)

    def test_order_and_range(self):
        self.assertEqual(pxstats.percentile([5, 1, 4, 2, 3], 25), 2)
        with self.assertRaises(ValueError):
            pxstats.percentile([], 50)
        with self.assertRaises(ValueError):
            pxstats.percentile([1], 101)


class Ratios(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(pxstats.ratio(3, 4), 0.75)
        self.assertEqual(pxstats.ratio(5, 0), 0.0)

    def test_spread_matches_statistics_quantiles(self):
        xs = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(pxstats.spread(xs),
                               (q3 - q1) / statistics.median(xs))
        self.assertEqual(pxstats.spread([0.0, 0.0, 0.0, 0.0]), 0.0)

    def test_rounds(self):
        self.assertEqual(pxstats.rounds([1, 2, 3, 4, 5], 2), [[1, 2], [3, 4]])
        self.assertEqual(pxstats.rounds([1], 2), [])

    def test_round_percentile_ignores_a_stalled_round(self):
        quiet = list(range(1000))
        stalled = [x * 100 for x in quiet]
        xs = quiet + stalled + quiet
        self.assertAlmostEqual(pxstats.round_percentile(xs, 99, 1000),
                               pxstats.percentile(quiet, 99))
        self.assertGreater(pxstats.percentile(xs, 99), 10 * 990)
        half = quiet + stalled + quiet + stalled
        self.assertAlmostEqual(pxstats.round_percentile(half, 99, 1000),
                               pxstats.percentile(quiet, 99))


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted(self):
        spans = [
            ("req", 1, 0, 7, 0, 100),
            ("core.async", 2, 1, 7, 10, 30),
            ("lco.get", 3, 1, 7, 25, 60),     # overlaps the first child
            ("late", 4, 1, 7, 90, 120),       # clipped to the parent
            ("handler", 5, 0, 7, 40, 50),     # other process, no parent
        ]
        st = pxstats.self_times(spans)
        self.assertEqual(st[1], ("req", 100, 100 - 50 - 10))
        self.assertEqual(st[2], ("core.async", 20, 20))
        self.assertEqual(st[5], ("handler", 10, 10))


class Tables(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
