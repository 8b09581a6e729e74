#!/usr/bin/env python3
"""Tests for tools/abab.py's confidence interval, on fixed inputs.

    python3 tools/test_abab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import abab  # noqa: E402


class SignTestCI(unittest.TestCase):
    def test_ten_pairs_trims_one_each_side(self):
        # n = 10: P(B <= 1) = 11/1024 <= 2.5 % < P(B <= 2) = 56/1024,
        # so the interval is [x(2), x(9)] with coverage 1 - 22/1024.
        xs = [9.0, -1.0, 3.0, 7.0, 5.0, 0.0, 8.0, 2.0, 6.0, 4.0]
        low, high, coverage = abab.sign_test_ci(xs)
        self.assertEqual((low, high), (0.0, 8.0))
        self.assertAlmostEqual(coverage, 1 - 22 / 1024)

    def test_order_of_input_does_not_matter(self):
        xs = [3.5, -2.0, 1.0, 0.5, 7.0, 2.0, -1.0, 4.0, 6.0, 5.0]
        self.assertEqual(abab.sign_test_ci(xs), abab.sign_test_ci(sorted(xs)))

    def test_six_pairs_is_the_smallest_interval(self):
        # (min, max) covers 1 - 2/64 > 95 % at n = 6 but 1 - 2/32 < 95 %
        # at n = 5.
        self.assertEqual(abab.sign_test_ci([1, 2, 3, 4, 5, 6])[:2], (1, 6))
        self.assertIsNone(abab.sign_test_ci([1, 2, 3, 4, 5]))
        self.assertIsNone(abab.sign_test_ci([]))

    def test_twenty_pairs(self):
        # n = 20: P(B <= 5) = 21700/2^20 <= 2.5 % < P(B <= 6), so
        # [x(6), x(15)].
        low, high, coverage = abab.sign_test_ci(list(range(1, 21)))
        self.assertEqual((low, high), (6, 15))
        self.assertAlmostEqual(coverage, 1 - 2 * 21700 / 2 ** 20)
        self.assertGreaterEqual(coverage, 0.95)

    def test_level_widens_the_interval(self):
        xs = list(range(1, 21))
        self.assertEqual(abab.sign_test_ci(xs, level=0.99)[:2], (4, 17))

    def test_pair_changes_in_percent(self):
        self.assertEqual(abab.pair_changes([100.0, 200.0], [110.0, 150.0]),
                         [10.0, -25.0])

    def test_formatted_row(self):
        changes = [float(x) for x in range(-2, 8)]
        self.assertEqual(abab.fmt_ci(changes), "[-1.0 %, +6.0 %]")
        self.assertEqual(abab.fmt_ci(changes[:5]), "n/a")


class Verdict(unittest.TestCase):
    # BASE: median 10, quartiles 9.625 and 10.5, so its IQR is 0.875.
    BASE = [9.0, 10.0, 11.0, 9.5, 10.5, 9.0, 11.0, 10.0, 10.0, 10.5]

    def test_gain_needs_nine_of_ten_and_the_iqr(self):
        change = [b - 2.0 for b in self.BASE]
        self.assertEqual(abab.verdict(self.BASE, change, "lower"), "gain")
        self.assertEqual(abab.verdict(self.BASE, change, "higher"), "loss")

    def test_consistent_but_smaller_than_the_iqr_is_none(self):
        change = [b - 0.5 for b in self.BASE]
        self.assertEqual(abab.verdict(self.BASE, change, "lower"), "none")

    def test_eight_of_ten_is_none(self):
        change = [b - 2.0 for b in self.BASE]
        change[0] = self.BASE[0] + 1.0
        change[1] = self.BASE[1] + 1.0
        self.assertEqual(abab.verdict(self.BASE, change, "lower"), "none")
        change[1] = self.BASE[1] - 2.0
        self.assertEqual(abab.verdict(self.BASE, change, "lower"), "gain")

    def test_ties_count_for_neither_side(self):
        change = [b - 2.0 for b in self.BASE]
        change[0] = self.BASE[0]
        change[1] = self.BASE[1]
        self.assertEqual(abab.verdict(self.BASE, change, "lower"), "none")

    def test_higher_is_better(self):
        change = [b + 3.0 for b in self.BASE]
        self.assertEqual(abab.verdict(self.BASE, change, "higher"), "gain")
        self.assertEqual(abab.verdict(self.BASE, self.BASE, "higher"), "none")


if __name__ == "__main__":
    unittest.main()
