"""Closed-form oracles and exact finite-world coverage checks."""

from itertools import product

import numpy as np
import pytest

from shiftro.analytic import (OODRO, WSBALL, DiscreteWorld, conditional_test_mean,
                              coverage_band, exact_coverage, oracle_toy_decision,
                              prob_conservative, tv_distance)
from shiftro.conformal import CalibScores, select_eta
from shiftro.numerics import RngStream, normal_quantile
from shiftro.scenarios import TEST, ToyScenario


def make_spread_world(rng, spread_lo=2.5, spread_hi=3.0):
    """Randomized 4-point world with near-uniform q and a forced ratio spread.

    Near-uniform q mimics the continuity the coverage theorem assumes (its
    cdf steps bracket any level), while the spread keeps the theorem band
    comfortably wider than the finite-support quantization error.
    """
    q = rng.uniform(0.2, 0.3, 4)
    q = q / q.sum()
    spread = rng.uniform(spread_lo, spread_hi)
    mult = rng.permutation(np.array([1.0, spread, *rng.uniform(1.0, spread, 2)]))
    p = q / mult
    p = p / p.sum()
    scores = np.sort(rng.uniform(0.2, 3.0, 4))
    return DiscreteWorld(C=scores, Z=np.zeros(4), p=p, q=q)


class TestToyDecision:
    def test_far_positive_covariate(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        assert oracle_toy_decision(10.0, scn, 0.8) == -1

    def test_straddling_zero(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        assert oracle_toy_decision(0.0, scn, 0.8) == 0

    def test_boundary_prefers_minus_one(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        z_star = scn.sigma2 * normal_quantile(0.8)
        assert oracle_toy_decision(z_star, scn, 0.8) == -1

    def test_alpha_domain(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        with pytest.raises(ValueError):
            oracle_toy_decision(0.0, scn, 0.5)

    def test_label_conditional_mean_matches_monte_carlo(self):
        # the shifted conditional mean used by the oracle is checked
        # against simulation of the joint law
        scn = ToyScenario(1.0, 2.0, 3.0, "label")
        data = scn.sample(400_000, RngStream(8), TEST)
        z, c = data.Z[:, 0], data.C[:, 0]
        for z0 in (-1.0, 0.0, 1.5):
            mask = np.abs(z - z0) < 0.05
            mc = c[mask].mean()
            assert conditional_test_mean(z0, scn) == pytest.approx(mc, abs=0.1)


class TestProbConservative:
    def test_no_shift_collapses_to_two_alpha_minus_one(self):
        for kind in ("covariate", "label"):
            scn = ToyScenario(1.0, 1.0, 0.0, kind)
            for alpha in (0.6, 0.8):
                for method in (OODRO, WSBALL):
                    val = prob_conservative(scn, alpha, method)
                    assert val == pytest.approx(2 * alpha - 1, abs=1e-9)

    def test_known_value_shift_three(self):
        scn = ToyScenario(1.0, 1.0, 3.0, "covariate")
        assert prob_conservative(scn, 0.8, OODRO) == pytest.approx(0.0154, abs=1e-4)

    def test_known_wsball_value_shift_one(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "covariate")
        assert prob_conservative(scn, 0.8, WSBALL) == pytest.approx(0.895, abs=1e-3)

    def test_monotone_in_shift(self):
        for kind in ("covariate", "label"):
            oodro = [prob_conservative(ToyScenario(1.0, 1.0, s, kind), 0.8, OODRO)
                     for s in np.linspace(0, 3, 13)]
            wsball = [prob_conservative(ToyScenario(1.0, 1.0, s, kind), 0.8, WSBALL)
                      for s in np.linspace(0, 3, 13)]
            assert all(a >= b - 1e-12 for a, b in zip(oodro, oodro[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(wsball, wsball[1:]))

    def test_extreme_shift_limits(self):
        for kind in ("covariate", "label"):
            scn = ToyScenario(1.0, 1.0, 20.0, kind)
            assert prob_conservative(scn, 0.8, OODRO) < 1e-6
            assert prob_conservative(scn, 0.8, WSBALL) > 1 - 1e-6

    def test_montecarlo_against_decision_rule(self):
        for kind in ("covariate", "label"):
            for s in (0.0, 1.0, 2.0, 3.0):
                scn = ToyScenario(1.0, 1.0, s, kind)
                data = scn.sample(100_000, RngStream(17), TEST)
                dec = np.array([oracle_toy_decision(z, scn, 0.8)
                                for z in data.Z[:, 0]])
                mc = float((dec == 0).mean())
                assert mc == pytest.approx(prob_conservative(scn, 0.8, OODRO),
                                           abs=0.01)

    def test_parameter_validation(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "covariate")
        with pytest.raises(ValueError):
            prob_conservative(scn, 0.4, OODRO)
        with pytest.raises(ValueError):
            prob_conservative(scn, 0.8, "ellipsoid")


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_sum(self):
        assert tv_distance([0.5, 0.5], [0.2, 0.8]) == pytest.approx(0.3)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, q, r = (rng.dirichlet(np.ones(5)) for _ in range(3))
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.5], [0.2, 0.3, 0.5])


class TestDiscreteWorld:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteWorld(C=[1.0, 1.0], Z=[0, 0], p=[0.5, 0.5], q=[0.5, 0.5])
        with pytest.raises(ValueError):
            DiscreteWorld(C=[1.0, 2.0], Z=[0, 0], p=[0.5, 0.6], q=[0.5, 0.5])

    def test_q_hat_normalization(self):
        w = DiscreteWorld(C=[1.0, 2.0], Z=[0, 0], p=[0.5, 0.5], q=[0.2, 0.8])
        qh = w.q_hat(w.true_ratio)
        np.testing.assert_allclose(qh, w.q, atol=1e-12)
        np.testing.assert_allclose(w.q_hat([1.0, 1.0]), w.p)


def exact_coverage_reference(world: DiscreteWorld, n_cal: int, alpha: float,
                             weights) -> float:
    """Slow per-tuple oracle for exact_coverage: every calibration tuple in
    turn, each calibrated by select_eta itself."""
    w = world._weight_values(weights)
    scores = world.scores
    order = np.argsort(scores)
    total = 0.0
    for tup in product(range(world.size), repeat=n_cal):
        tup = np.array(tup)
        prob = float(np.prod(world.p[tup]))
        eta = select_eta(CalibScores(scores[tup], w[tup]), alpha)
        cov = float(world.q[order][scores[order] <= eta].sum())
        total += prob * cov
    return total


class TestExactCoverage:
    def test_matches_per_tuple_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            world = make_spread_world(rng)
            wts = rng.uniform(0.5, 2.0, 4)
            alpha = float(rng.uniform(0.55, 0.9))
            fast = exact_coverage(world, 5, alpha, wts)
            slow = exact_coverage_reference(world, 5, alpha, wts)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_matches_select_eta_a_few_ulp_short(self):
        # 0.75 * 0.8 reads 0.6000000000000001, a few ulp above the cumulative
        # weight 0.3 + 0.3 of two draws of the first point: select_eta takes
        # that draw's score, and so must the oracle
        world = DiscreteWorld(C=[1.0, 2.0, 3.0], Z=np.zeros(3), p=[0.3, 0.3, 0.4],
                              q=[0.2, 0.3, 0.5])
        wts = [0.3, 0.2, 0.6]
        assert exact_coverage(world, 3, 0.75, wts) == pytest.approx(
            exact_coverage_reference(world, 3, 0.75, wts), abs=1e-12)

    def test_exchangeable_uniform_band(self):
        world = DiscreteWorld(C=[0.5, 1.0, 1.5, 2.0], Z=np.zeros(4),
                              p=[0.25] * 4, q=[0.25] * 4)
        for alpha in (0.6, 0.8):
            cov = exact_coverage(world, 8, alpha, np.ones(4))
            assert abs(cov - alpha) <= 1.0 / 9.0

    def test_randomized_worlds_theorem_band(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            world = make_spread_world(rng)
            for alpha in (0.6, 0.8):
                cov = exact_coverage(world, 8, alpha, world.true_ratio)
                assert abs(cov - alpha) <= coverage_band(world.true_ratio, 8)

    def test_overflowing_weight_sum_is_a_value_error(self):
        # the cumulative weights used to overflow with a numpy warning and
        # read 0.3875; the rule is scale-free, so a power-of-two scale that
        # stays finite keeps the unit-weight coverage bit for bit
        world = DiscreteWorld(C=[1.0, 2.0], Z=[0.0, 0.0], p=[0.5, 0.5], q=[0.3, 0.7])
        unit = exact_coverage(world, 3, 0.8, [1.0, 1.0])
        assert unit == pytest.approx(0.9125, abs=1e-12)
        assert exact_coverage(world, 3, 0.8, [2.0 ** 1000, 2.0 ** 1000]) == unit
        with pytest.raises(ValueError, match="weight sum overflows"):
            exact_coverage(world, 3, 0.8, [1e308, 1e308])

    def test_enumeration_guard(self):
        world = make_spread_world(np.random.default_rng(0))
        with pytest.raises(ValueError):
            exact_coverage(world, 12, 0.8, np.ones(4))
