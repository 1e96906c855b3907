"""Self-tests of the benchmark's own statistics.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import stats  # noqa: E402
from perfbench.loadgen import build_phases, bursty_offsets, poisson_offsets  # noqa: E402
from perfbench.stats import RatePhase  # noqa: E402


class TailRule(unittest.TestCase):
    def test_at_least_ten_samples_lie_beyond_the_tail(self):
        for n in (22, 43, 99, 100, 150, 999, 1000, 20000):
            values = list(range(n, 0, -1))       # unsorted on purpose
            t = stats.tail(values)
            beyond = sum(1 for v in values if v > t.value)
            self.assertGreaterEqual(beyond, stats.TAIL_BEYOND)
            self.assertEqual(beyond, t.beyond)
            self.assertEqual(t.n, n)

    def test_highest_standard_percentile_the_sample_allows(self):
        self.assertEqual(stats.tail(list(range(100))).q, 0.90)
        self.assertEqual(stats.tail(list(range(199))).q, 0.90)
        self.assertEqual(stats.tail(list(range(200))).q, 0.95)
        self.assertEqual(stats.tail(list(range(1000))).q, 0.99)
        self.assertEqual(stats.tail(list(range(10000))).q, 0.999)

    def test_small_samples_keep_exactly_ten_beyond(self):
        t = stats.tail(list(range(40)))
        self.assertEqual((t.value, t.beyond), (29, 10))
        self.assertIsNone(stats.tail(list(range(21))))
        self.assertGreaterEqual(stats.tail(list(range(22))).q, 0.5)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # quantiles(1..9, n=4) = [2.5, 5, 7.5]; median 5.
        self.assertAlmostEqual(stats.quartile_spread(list(range(1, 10))), 1.0)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)

    def test_scale_free(self):
        values = [9.0, 10.0, 10.5, 11.0, 10.2, 9.8, 10.1, 9.9, 10.4, 10.0]
        scaled = [3 * v for v in values]
        self.assertAlmostEqual(stats.quartile_spread(values),
                               stats.quartile_spread(scaled))


class CapacityRule(unittest.TestCase):
    def test_steady_backlog_is_not_growing(self):
        # 20 req/s finishing 0.1 s after they are due: a flat backlog of ~2.
        due = [i / 20 for i in range(60)]
        done = [d + 0.1 for d in due]
        self.assertFalse(stats.backlog_growing(due, done, 0.0, 3.0, slack=8))

    def test_backlog_behind_a_slower_server_is_growing(self):
        # 40 req/s arriving, 20 req/s served: the queue grows all phase.
        due = [i / 40 for i in range(120)]
        done = [(i + 1) / 20 for i in range(120)]
        self.assertTrue(stats.backlog_growing(due, done, 0.0, 3.0, slack=8))

    def test_one_burst_within_slack_is_not_growth(self):
        due = [1.0 + i * 1e-4 for i in range(20)] + [2.0 + i * 1e-4 for i in range(20)]
        done = [d + 0.2 for d in due[:20]] + [3.1] * 20
        self.assertFalse(stats.backlog_growing(due, done, 0.0, 3.0, slack=24))
        self.assertTrue(stats.backlog_growing(due, done, 0.0, 3.0, slack=8))

    def test_capacity_is_the_completion_rate_over_busy_time(self):
        probes = [RatePhase(60, 2.0, 50, True), RatePhase(60, 3.0, 75, True)]
        self.assertEqual(stats.capacity(probes), (25.0, True))

    def test_a_probe_the_program_kept_up_with_is_flagged(self):
        probes = [RatePhase(60, 2.0, 50, True), RatePhase(60, 2.0, 118, False)]
        self.assertEqual(stats.capacity(probes), (42.0, False))


class Arrivals(unittest.TestCase):
    def test_schedules_depend_on_the_seed_alone(self):
        import numpy as np

        a = poisson_offsets(np.random.default_rng(3), 50.0, 2.0)
        b = poisson_offsets(np.random.default_rng(3), 50.0, 2.0)
        self.assertEqual(a, b)
        c = bursty_offsets(np.random.default_rng(4), 100.0, 2.0, 6.0)
        self.assertEqual(c, sorted(c))
        self.assertTrue(all(0 <= o < 2.0 for o in c))

    def test_reference_phases_and_probes_alternate(self):
        import numpy as np

        phases = build_phases(np.random.default_rng(5), 30.0, 4.0, 60.0,
                              {"a": 0.7, "b": 0.3}, pool=8)
        self.assertEqual([p.kind for p in phases], ["ref", "cap"] * 5)
        self.assertAlmostEqual(sum(p.duration for p in phases), 30.0)
        self.assertAlmostEqual(sum(p.duration for p in phases if p.kind == "cap"), 12.0)


if __name__ == "__main__":
    unittest.main()
