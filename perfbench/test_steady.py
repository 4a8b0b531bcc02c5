#!/usr/bin/env python3
"""Tests of steady.py's spread, the figure checked against each bound.

Run from the repository root:

    python3 perfbench/test_steady.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from steady import seeds, spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        med, q1, q3, share = spread(list(range(1, 11)))
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(share, (8.25 - 2.75) / 5.5)

    def test_small_and_unsorted_inputs(self):
        # statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        self.assertEqual(spread([3, 1, 4, 1, 5])[:3], (3, 1.0, 4.5))
        # statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        self.assertEqual(spread([2, 1]), (1.5, 0.75, 2.25, 1.0))

    def test_equal_values_have_no_spread_and_zero_median_is_infinite(self):
        self.assertEqual(spread([2.0] * 10)[3], 0.0)
        self.assertEqual(spread([0.0, 0.0, 0.0])[3], float("inf"))

    def test_seed_ranges(self):
        self.assertEqual(seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
