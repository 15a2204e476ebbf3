"""Tests for the benchmark's own logic.

    python3 -m unittest discover -s kfibench -p 'test_*.py'
"""

import copy
import json
import statistics
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent):
    return {"name": name, "id": "", "start": start, "end": end,
            "parent": parent}


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)

    def test_too_few_samples_support_no_percentile(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 3.0, 8.0, 6.0, 5.0]
        self.assertEqual(stats.quartiles(values),
                         statistics.quantiles(values, n=4))
        self.assertEqual(stats.quartiles(values), [2.75, 5.5, 8.25])
        self.assertAlmostEqual(stats.iqr(values), 5.5)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([3.0]), [3.0, 3.0, 3.0])
        self.assertEqual(stats.iqr([3.0]), 0.0)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 95), 95.05)
        self.assertEqual(stats.percentile([4.0], 95), 4.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_without_overlap(self):
        spans = [span("bench.run", 0.0, 10.0, -1),
                 span("inject.campaign", 1.0, 5.0, 0),
                 span("inject.injection", 2.0, 3.0, 1),
                 span("fabric.splice", 6.0, 7.0, 0)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs, [8.0 - 3.0 + 0.0, 3.0, 1.0, 1.0])
        self.assertAlmostEqual(sum(selfs), 10.0)

    def test_overlapping_children_share_the_overlap(self):
        # Two engine threads: injections [1, 5] and [3, 7] overlap on [3, 5].
        spans = [span("bench.run", 0.0, 10.0, -1),
                 span("inject.campaign", 0.0, 8.0, 0),
                 span("inject.injection", 1.0, 5.0, 1),
                 span("inject.injection", 3.0, 7.0, 1)]
        selfs = stats.self_times(spans)
        # The campaign's self time is what no child covers: [0,1] + [7,8].
        self.assertAlmostEqual(selfs[1], 2.0)
        # Each injection owns its lone part and half of the overlap.
        self.assertAlmostEqual(selfs[2], 2.0 + 1.0)
        self.assertAlmostEqual(selfs[3], 2.0 + 1.0)
        self.assertAlmostEqual(selfs[0], 2.0)
        self.assertAlmostEqual(sum(selfs), 10.0)

    def test_child_sharing_its_parents_start_and_end(self):
        spans = [span("bench.run", 0.0, 4.0, -1),
                 span("kernel.syscall", 0.0, 4.0, 0),
                 span("workload.check", 4.0, 4.0, 0)]
        self.assertEqual(stats.self_times(spans), [0.0, 4.0, 0.0])

    def test_nesting_check(self):
        good = [span("bench.run", 0.0, 4.0, -1), span("a.b", 1.0, 2.0, 0)]
        self.assertEqual(stats.check_nesting(good), [])
        bad = [span("bench.run", 0.0, 4.0, -1), span("a.b", 3.0, 5.0, 0),
               span("c.d", 0.0, 1.0, -1)]
        problems = stats.check_nesting(bad)
        self.assertEqual(len(problems), 2)


class VerdictTest(unittest.TestCase):
    A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_improved_needs_nine_tenths_of_wins_beyond_the_spread(self):
        b = [x + 5.0 for x in self.A]
        self.assertEqual(stats.verdict(self.A, b, "higher", 0.1), "improved")
        self.assertEqual(stats.verdict(self.A, [x - 5.0 for x in self.A],
                                       "lower", 0.1), "improved")

    def test_improved_needs_ten_pairs(self):
        a, b = self.A[:9], [x + 5.0 for x in self.A[:9]]
        self.assertEqual(stats.verdict(a, b, "higher", 0.1), "no-worse")

    def test_no_worse_within_the_bound(self):
        b = [x - 1.0 for x in self.A]
        self.assertEqual(stats.verdict(self.A, b, "higher", 0.05), "no-worse")

    def test_worse_beyond_the_bound(self):
        b = [x * 0.8 for x in self.A]
        self.assertEqual(stats.verdict(self.A, b, "higher", 0.1), "worse")
        self.assertEqual(stats.verdict(self.A, [x * 1.3 for x in self.A],
                                       "lower", 0.1), "worse")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        b = [x * 0.97 for x in noisy]
        self.assertEqual(stats.verdict(noisy, b, "higher", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        # A's spread (IQR 100 around a median of 50) hides a gain of 52, so
        # it is no "improved"; but every B run beats every A run, so it is
        # not "unresolved" either.
        a = [0.0] * 5 + [100.0] * 4 + [101.0]
        b = [102.0] * 10
        self.assertEqual(stats.verdict(a, b, "higher", 0.1), "no-worse")
        self.assertEqual(stats.verdict(a, [101.0] * 10, "higher", 0.1),
                         "unresolved")

    def test_ties_count_for_neither_side(self):
        b = list(self.A)
        self.assertEqual(stats.verdict(self.A, b, "higher", 0.1), "no-worse")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_committed_file_is_valid(self):
        self.assertEqual(stats.validate_benchmark(self.doc), [])

    def test_name_charset(self):
        for bad in ("_leading", "has space", "a" * 65, "semi;colon", ""):
            doc = copy.deepcopy(self.doc)
            doc["per_layer"][0]["name"] = bad
            self.assertTrue(stats.validate_benchmark(doc), bad)
        doc = copy.deepcopy(self.doc)
        doc["workloads"][0]["name"] = "inproc serial"
        self.assertTrue(stats.validate_benchmark(doc))
        ok = copy.deepcopy(self.doc)
        ok["per_layer"][0]["name"] = "9layer.metric_ok-1"
        self.assertEqual(stats.validate_benchmark(ok), [])

    def test_unit_charset(self):
        doc = copy.deepcopy(self.doc)
        doc["end_to_end"][0]["unit"] = "inj per s"
        self.assertTrue(stats.validate_benchmark(doc))
        doc["end_to_end"][0]["unit"] = "1/s"
        self.assertEqual(stats.validate_benchmark(doc), [])

    def test_duplicate_names_and_entry_keys(self):
        doc = copy.deepcopy(self.doc)
        doc["per_layer"].append(dict(doc["per_layer"][0]))
        self.assertTrue(stats.validate_benchmark(doc))
        doc = copy.deepcopy(self.doc)
        doc["workloads"].append({"name": doc["end_to_end"][0]["name"],
                                 "why": "a name shared with a metric"})
        self.assertTrue(stats.validate_benchmark(doc))
        doc = copy.deepcopy(self.doc)
        del doc["end_to_end"][0]["bound"]
        self.assertTrue(stats.validate_benchmark(doc))

    def test_pins_name_declared_metrics_and_workloads(self):
        # run.py fails a run whose metrics miss a declared name; the pinned
        # counts must all be declared per-layer metrics.
        pins = json.loads((HERE / "pins.json").read_text())
        layer = {m["name"] for m in self.doc["per_layer"]}
        self.assertLessEqual(set(pins["counts"]), layer)
        self.assertEqual(set(pins["workloads"]),
                         {w["name"] for w in self.doc["workloads"]})


if __name__ == "__main__":
    unittest.main()
