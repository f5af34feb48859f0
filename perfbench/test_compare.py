"""Unit tests of the compare tool's statistics and verdict rule.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import compare


def pair(base, change):
    return list(zip(base, change))


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               5.5 / 5.5)
        self.assertEqual(compare.spread([3.0] * 10), 0.0)


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_same_code_is_unresolved(self):
        change = [v + (0.1 if i % 2 else -0.1) for i, v in enumerate(self.BASE)]
        for better in ("lower", "higher"):
            v, _ = compare.verdict(pair(self.BASE, change), better, bound=0.1)
            self.assertEqual(v, "unresolved")
            v, _ = compare.verdict(pair(self.BASE, change), better, bound=None)
            self.assertEqual(v, "unresolved")

    def test_improved_needs_nine_tenths_of_pairs_and_iqr(self):
        faster = [v * 0.8 for v in self.BASE]
        v, _ = compare.verdict(pair(self.BASE, faster), "lower", bound=0.1)
        self.assertEqual(v, "improved")
        # Same medians apart, but only 8 of 10 pairs won: not a gain.
        mixed = list(faster)
        mixed[0], mixed[1] = 200.0, 200.0
        v, _ = compare.verdict(pair(self.BASE, mixed), "lower", bound=0.1)
        self.assertNotEqual(v, "improved")

    def test_win_smaller_than_base_iqr_is_not_a_gain(self):
        wide = [80.0, 90.0, 100.0, 110.0, 120.0, 85.0, 95.0, 105.0, 115.0, 100.0]
        slightly = [v - 1.0 for v in wide]  # wins every pair by 1 < IQR
        v, _ = compare.verdict(pair(wide, slightly), "lower", bound=None)
        self.assertEqual(v, "unresolved")

    def test_regressed_beyond_bound(self):
        slower = [v * 1.2 for v in self.BASE]
        v, _ = compare.verdict(pair(self.BASE, slower), "lower", bound=0.1)
        self.assertEqual(v, "regressed")
        v, _ = compare.verdict(pair(self.BASE, [v / 1.2 for v in self.BASE]),
                               "higher", bound=0.1)
        self.assertEqual(v, "regressed")

    def test_worse_within_bound_is_not_a_regression(self):
        slower = [v * 1.05 for v in self.BASE]
        v, why = compare.verdict(pair(self.BASE, slower), "lower", bound=0.1)
        self.assertEqual(v, "unresolved")
        self.assertIn("no resolved change", why)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 200.0]
        v, why = compare.verdict(pair(self.BASE, noisy), "lower", bound=0.1)
        self.assertEqual(v, "unresolved")
        self.assertIn("spread", why)

    def test_per_layer_regression_uses_pair_rule(self):
        slower = [v * 1.2 for v in self.BASE]
        v, _ = compare.verdict(pair(self.BASE, slower), "lower", bound=None)
        self.assertEqual(v, "regressed")

    def test_pairs_by_seed(self):
        base = [{"seed": 2, "v": 1}, {"seed": 1, "v": 2}, {"seed": 3, "v": 5}]
        change = [{"seed": 1, "v": 3}, {"seed": 2, "v": 4}]
        got = [(b["v"], c["v"]) for b, c in compare.pairs(base, change)]
        self.assertEqual(got, [(2, 3), (1, 4)])

    def test_too_few_pairs_is_unresolved(self):
        slower = [v * 1.5 for v in self.BASE]
        few = list(zip(self.BASE, slower))[:compare.MIN_PAIRS - 1]
        for bound in (0.1, None):
            v, why = compare.verdict(few, "lower", bound)
            self.assertEqual(v, "unresolved")
            self.assertIn("pairs", why)


if __name__ == "__main__":
    unittest.main()
