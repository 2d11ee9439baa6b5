"""The verdict rules of scripts/ab_bench.py on made-up pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ab():
    return _load_script()


def _pairs(base, change):
    return list(zip(base, change))


BASE = [1.00, 1.02, 0.98, 1.05, 0.95, 1.01, 0.99, 1.03, 0.97, 1.00]


class TestJudge:
    def test_clear_gain_holds(self, ab):
        v = ab.judge(_pairs(BASE, [0.6 * b for b in BASE]), "lower", 0.25)
        assert v == {"won": 10, "pairs": 10, "claim": True, "regressed": False,
                     "unresolved": False}

    def test_nine_of_ten_is_enough(self, ab):
        change = [0.6 * b for b in BASE]
        change[3] = 2.0
        v = ab.judge(_pairs(BASE, change), "lower", 0.25)
        assert (v["won"], v["claim"]) == (9, True)

    def test_eight_of_ten_is_not(self, ab):
        change = [0.6 * b for b in BASE]
        change[3] = change[5] = 2.0
        v = ab.judge(_pairs(BASE, change), "lower", 0.25)
        assert (v["won"], v["claim"]) == (8, False)

    def test_gain_inside_the_base_spread_fails(self, ab):
        # every pair won, but the medians differ by less than base's IQR
        change = [b - 0.005 for b in BASE]
        v = ab.judge(_pairs(BASE, change), "lower", 0.25)
        assert v["won"] == 10 and not v["claim"]

    def test_a_tie_is_not_a_win(self, ab):
        v = ab.judge(_pairs(BASE, BASE), "lower", 0.25)
        assert (v["won"], v["claim"], v["regressed"]) == (0, False, False)

    @pytest.mark.parametrize("factor,regressed", [(1.2, False), (1.3, True)])
    def test_regression_against_the_bound(self, ab, factor, regressed):
        v = ab.judge(_pairs(BASE, [factor * b for b in BASE]), "lower", 0.25)
        assert v["regressed"] is regressed and v["won"] == 0

    def test_higher_is_better(self, ab):
        up = ab.judge(_pairs(BASE, [1.5 * b for b in BASE]), "higher", 0.1)
        down = ab.judge(_pairs(BASE, [0.8 * b for b in BASE]), "higher", 0.1)
        assert (up["won"], up["claim"], up["regressed"]) == (10, True, False)
        assert (down["won"], down["claim"], down["regressed"]) == (0, False, True)

    def test_base_spread_wider_than_the_bound_is_unresolved(self, ab):
        # base's quartiles span about 40% of its median: a change median
        # within a 10% bound shows nothing
        wide = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.1, 0.75, 1.25]
        v = ab.judge(_pairs(wide, wide[::-1]), "lower", 0.1)
        assert (v["regressed"], v["unresolved"]) == (False, True)
        assert not ab.judge(_pairs(wide, wide[::-1]), "lower", 0.5)["unresolved"]

    def test_change_better_than_every_base_run_is_resolved(self, ab):
        wide = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.1, 0.75, 1.25]
        v = ab.judge(_pairs(wide, [0.5 * min(wide)] * len(wide)), "lower", 0.1)
        assert (v["won"], v["unresolved"]) == (10, False)
        up = ab.judge(_pairs(wide, [2.0 * max(wide)] * len(wide)), "higher", 0.1)
        assert (up["won"], up["unresolved"]) == (10, False)

    def test_rules_come_from_the_benchmark(self, ab):
        rules = ab.end_to_end_rules(str(ROOT / "BENCHMARK.json"))
        assert set(rules) == set(ab.METRICS)
        assert all(better in ("lower", "higher") and bound > 0 for better, bound in rules.values())
