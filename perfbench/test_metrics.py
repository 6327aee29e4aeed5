"""Tests for the benchmark's own helpers:

    python3 perfbench/test_metrics.py
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, id, parent, start, end, **attrs):
    return metrics.Span(name, id, parent, 0, start, end,
                        {k: str(v) for k, v in attrs.items()})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        data = list(range(1, 101))
        self.assertEqual(metrics.percentile(data, 50), 50)
        self.assertEqual(metrics.percentile(data, 99), 99)
        self.assertEqual(metrics.percentile(data, 100), 100)
        self.assertEqual(metrics.percentile([7], 50), 7)

    def test_p99_kept_when_ten_samples_lie_beyond(self):
        data = list(range(1000))
        value, p = metrics.tail_percentile(data, 99)
        self.assertEqual(p, 99)
        self.assertEqual(sum(1 for x in data if x > value), 10)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        for n in (11, 50, 123, 999):
            data = list(range(n))
            value, p = metrics.tail_percentile(data, 99)
            self.assertLess(p, 99)
            self.assertEqual(sum(1 for x in data if x > value), 10, n)

    def test_steady_tail_ignores_one_disturbed_group(self):
        calm = [1.0] * 990 + [2.0] * 10
        disturbed = [50.0] * 1000
        self.assertEqual(metrics.steady_tail(calm + disturbed + calm, 99),
                         (1.0, 99, 3))

    def test_steady_tail_of_a_short_phase_is_the_plain_tail(self):
        data = list(range(500))
        value, p = metrics.tail_percentile(data, 99)
        self.assertEqual(metrics.steady_tail(data, 99), (value, p, 1))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail_percentile([3, 1, 2], 99), (3, 100.0))

    def test_rounds_pool_in_round_order(self):
        self.assertEqual(metrics.pooled([[3, 1], [], [2]]), [3, 1, 2])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        root = span("batch.replay", 1, 0, 0, 100)
        kids = [span("chains.plan", 2, 1, 10, 30),
                span("x.a", 3, 1, 20, 50),   # overlaps the first child
                span("x.b", 4, 1, 90, 120)]  # runs past the parent's end
        self.assertEqual(metrics.self_time(root, kids), 100 - 40 - 10)
        self.assertEqual(metrics.self_time(root, []), 100)

    def test_layer_times_of_a_nested_replay_tree_add_up(self):
        root = span("batch.replay", 1, 0, 0, 100)
        plan = span("chains.plan", 2, 1, 5, 20)
        phase1 = span("local_query.phase1", 3, 1, 20, 80)
        subs = [span("local_query.subquery", 10, 3, 22, 60),
                span("local_query.subquery", 11, 3, 25, 70)]  # parallel
        assemble = span("executor.assemble", 4, 1, 80, 95)
        spans = [root, plan, phase1, assemble] + subs
        times = metrics.layer_times(root, metrics.children_index(spans))
        self.assertEqual(times, {"batch": 5 + 5, "chains": 15,
                                 "local_query": 60, "executor": 15})
        self.assertEqual(sum(times.values()), root.duration)

    def test_nested_children_are_subtracted_one_level_only(self):
        a = span("a.x", 1, 0, 0, 10)
        b = span("b.x", 2, 1, 2, 8)
        c = span("c.x", 3, 2, 3, 5)
        index = metrics.children_index([a, b, c])
        self.assertEqual(metrics.self_time(a, index[1]), 4)
        self.assertEqual(metrics.self_time(b, index[2]), 4)
        self.assertEqual(metrics.layer_times(a, index),
                         {"a": 4, "b": 4, "c": 2})


class AccountingTest(unittest.TestCase):
    def test_error_rate_counts_failed_refused_and_wrong(self):
        ops = {"attempted": 200, "failed": 3, "refused": 2, "wrong": 5}
        self.assertAlmostEqual(metrics.error_rate(ops), 10 / 200)
        self.assertEqual(metrics.error_rate(
            {"attempted": 9, "failed": 0, "refused": 0, "wrong": 0}), 0.0)

    def test_rate_counts_completions_in_the_window(self):
        bursts = [0.1] * 64 + [0.2] * 64 + [0.3] * 64 + [1.5] * 64
        self.assertEqual(metrics.rate(bursts, 0.0, 1.0), 192.0)
        self.assertEqual(metrics.rate(bursts, 1.0, 2.0), 64.0)

    def test_requests_match_the_batch_that_answered_them(self):
        batches = [span("batch.execute", 1, 0, 10, 20, pairs="1:2,3:4"),
                   span("batch.execute", 2, 0, 30, 40, pairs="1:2"),
                   span("batch.execute", 3, 0, 50, 60, pairs="5:6")]
        calls = [span("net.rpc", 7, 0, 5, 25, pair="1:2"),
                 span("net.rpc", 8, 0, 28, 45, pair="1:2"),
                 span("net.rpc", 9, 0, 0, 100, pair="7:8")]
        matched = metrics.match_requests(calls, batches)
        self.assertEqual([(c.id, b.id) for c, b in matched], [(7, 1), (8, 2)])


class NameTest(unittest.TestCase):
    def test_name_rules(self):
        for good in ("qps", "local_query.subquery_us_p50", "hot-readwrite", "9x"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, None):
            self.assertFalse(metrics.valid_name(bad), bad)
        self.assertTrue(metrics.valid_unit("queries/s"))
        self.assertFalse(metrics.valid_unit("queries per second"))

    def test_catalogue_is_valid_and_unique(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better, *bound in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertTrue(metrics.valid_name(name), name)
            self.assertTrue(metrics.valid_unit(unit), unit)
            self.assertIn(better, ("higher", "lower"))
        bounds = {m[0]: m[3] for m in metrics.END_TO_END}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = bounds.pop("setup_s")
        self.assertTrue(all(b < setup for b in bounds.values()))

    def test_benchmark_json_matches_the_catalogue(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
            [tuple(m) for m in metrics.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [tuple(m) for m in metrics.PER_LAYER])
        for w in bench["workloads"]:
            self.assertTrue(metrics.valid_name(w["name"]))
            self.assertLessEqual(len(w["why"]), 200)


if __name__ == "__main__":
    unittest.main()
