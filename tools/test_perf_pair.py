#!/usr/bin/env python3
"""Statistics self-test of tools/perf_pair.py on synthetic pairs.

    python3 tools/test_perf_pair.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pair  # noqa: E402

SPEC = perf_pair.load_spec(perf_pair.ROOT)
# About +-10% around the true value, like the host's noise.
NOISE = (1.00, 0.93, 1.08, 0.97, 1.04, 0.91, 1.10)


def result(scale, correct=True, failed=0):
    """A run whose every metric is `scale` times worse than 1.0."""
    metrics = {m["name"]: {"value": 1.0 / scale if m["better"] == "higher" else scale}
               for m in SPEC}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def pairs(slowdown, outlier=None):
    """Noisy pairs with the candidate `slowdown` times slower; `outlier`
    replaces the last candidate's scale."""
    made = [(result(NOISE[-1 - i]), result(slowdown * NOISE[i]))
            for i in range(perf_pair.PAIRS)]
    if outlier is not None:
        made[-1] = (made[-1][0], result(outlier))
    return made


def passes(made):
    rows, problems = perf_pair.evaluate(made, SPEC)
    return not problems and len(rows) == len(SPEC) and all(row[-1] for row in rows)


class PairedGate(unittest.TestCase):
    def test_self_pairs_pass(self):
        self.assertTrue(passes(pairs(1.0)))

    def test_half_speed_fails_every_metric(self):
        rows, _ = perf_pair.evaluate(pairs(2.0), SPEC)
        self.assertEqual([row[-1] for row in rows], [False] * len(SPEC))

    def test_one_outlier_pair_does_not_flip_the_verdict(self):
        self.assertTrue(passes(pairs(1.0, outlier=4.0)))
        self.assertTrue(passes(pairs(1.0, outlier=0.2)))
        self.assertFalse(passes(pairs(2.0, outlier=1.0)))
        self.assertFalse(passes(pairs(2.0, outlier=0.2)))

    def test_incorrect_failed_or_missing_runs_fail(self):
        for side, bad in ((1, result(1.0, correct=False)), (0, result(1.0, failed=2)),
                          (1, None)):
            made = pairs(1.0)
            made[3] = tuple(bad if i == side else r for i, r in enumerate(made[3]))
            _, problems = perf_pair.evaluate(made, SPEC)
            self.assertFalse(passes(made))
            self.assertTrue(problems[0].startswith("pair 4 "), problems)
        made = pairs(1.0)
        del made[2][1]["metrics"][SPEC[0]["name"]]
        self.assertFalse(passes(made))

    def test_floor_follows_direction(self):
        self.assertAlmostEqual(perf_pair.floor_for({"better": "higher", "bound": 0.25}), 0.75)
        self.assertAlmostEqual(perf_pair.floor_for({"better": "lower", "bound": 0.25}), 0.8)
        self.assertAlmostEqual(perf_pair.ratio(10.0, 5.0, "higher"), 0.5)
        self.assertAlmostEqual(perf_pair.ratio(10.0, 20.0, "lower"), 0.5)


if __name__ == "__main__":
    unittest.main()
