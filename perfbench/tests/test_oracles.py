import math

import numpy as np
import pytest

from shiftro.harness import ExperimentConfig, ReportRow
from shiftro.lp import OPTIMAL, BoxSet, LinearProgram, solve_lp, solve_robust_box
from shiftro.numerics import RngStream
from shiftro.scenarios import KnapsackScenario, build_knapsack_lp

from perfbench.oracles import (knapsack_box_value, row_problems, toy_box_value,
                               values_match)

TOY_LP = LinearProgram(c=[0.0], A=np.zeros((0, 1)), b=[], lo=[-1.0], hi=[1.0])


def test_toy_sign_rule_matches_robust_solver():
    g = RngStream(7)
    boxes = [(0.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (2.0, 2.0), (-3.0, -3.0)]
    for _ in range(300):
        a, b = g.gaussian(0.0, 4.0, size=2)
        boxes.append((min(a, b), max(a, b)))
    for lo, hi in boxes:
        box = BoxSet([lo], [hi])
        sol = solve_robust_box(TOY_LP, box)
        assert sol.status == OPTIMAL
        assert values_match(sol.value, toy_box_value(box)), (lo, hi, sol.value)


def _criterion10_utils():
    g = RngStream(500)
    for i in range(100):
        yield KnapsackScenario(theta_seed=i), np.abs(g.gaussian(3.0, 4.0, size=20)) + 0.05


def test_knapsack_greedy_matches_solver_on_criterion10_instances():
    for scn, utils in _criterion10_utils():
        box = BoxSet(utils, utils)
        sol = solve_lp(build_knapsack_lp(scn, box))
        assert sol.status == OPTIMAL
        assert values_match(sol.value, knapsack_box_value(scn.prices, scn.budget, box))


def test_knapsack_greedy_uses_lower_corner_and_skips_nonpositive_items():
    g = RngStream(501)
    for scn, utils in _criterion10_utils():
        half = g.uniform(0.0, 4.0, size=20)
        box = BoxSet(utils - half, utils + half)
        assert np.any(box.lower <= 0)
        sol = solve_lp(build_knapsack_lp(scn, box))
        want = knapsack_box_value(scn.prices, scn.budget, box)
        assert values_match(sol.value, want), (sol.value, want)
    scn = KnapsackScenario(theta_seed=0)
    assert knapsack_box_value(scn.prices, scn.budget,
                              BoxSet(-np.ones(20), np.ones(20))) == 0.0


def test_values_match_is_absolute_plus_relative():
    assert values_match(1000.0, 1000.0 + 5e-5)
    assert not values_match(1000.0, 1000.0 + 2e-4)
    assert values_match(0.0, 5e-8)
    assert not values_match(0.0, 2e-7)


def _row(**changes):
    base = dict(seed=3, scenario="toy", ratio_kind="oracle", alpha=0.8, d=1,
                coverage_total=0.8, coverage_z1_neg=0.7, coverage_z1_pos=0.9,
                p_conservative=0.05, mean_var=-1.1, eta=0.9)
    base.update(changes)
    return ReportRow(**base)


def test_row_problems_flags_identity_range_and_finiteness():
    cfg = ExperimentConfig(scenario="toy", ratio_kind="oracle", seed=1)
    assert row_problems(_row(), cfg, 2) == []
    assert len(row_problems(_row(), cfg, 0)) == 1
    bad = _row(coverage_total=1.5, p_conservative=math.nan, mean_var=math.inf,
               eta=-0.1, ratio_kind="trivial")
    assert len(row_problems(bad, cfg, 2)) == 5
