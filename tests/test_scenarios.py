"""Scenario generators and their LP builders."""

import numpy as np
import pytest

from shiftro import scenarios
from shiftro.lp import BoxSet, solve_lp, solve_robust_box
from shiftro.numerics import RngStream
from shiftro.scenarios import (SIMPLE_NOISE_VAR, TEST, TRAIN, GridScenario,
                               KnapsackScenario, SimpleScenario, ToyScenario,
                               build_knapsack_lp, build_shortest_path_lp, trace_path)


class TestToyScenario:
    def test_no_shift_means(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        n = 10_000
        tr = scn.sample(n, RngStream(0, 1), TRAIN)
        te = scn.sample(n, RngStream(0, 2), TEST)
        bound = 3.0 / np.sqrt(n)
        assert abs(tr.Z.mean()) < bound and abs(te.Z.mean()) < bound

    def test_covariate_shift_mean(self):
        scn = ToyScenario(1.0, 1.0, 1.5, "covariate")
        te = scn.sample(10_000, RngStream(1), TEST)
        assert abs(te.Z.mean() - 1.5) < 3.0 / np.sqrt(10_000)

    def test_label_shift_z_mean(self):
        scn = ToyScenario(1.0, 2.0, 2.0, "label")
        te = scn.sample(40_000, RngStream(2), TEST)
        target = scn.sigma1 ** 2 * scn.shift / (scn.sigma1 ** 2 + scn.sigma2 ** 2)
        assert abs(te.Z.mean() - target) < 3.0 / np.sqrt(40_000)

    def test_label_shift_c_mean(self):
        scn = ToyScenario(1.0, 1.0, 2.0, "label")
        te = scn.sample(40_000, RngStream(3), TEST)
        se = np.sqrt(2.0) * 3.0 / np.sqrt(40_000)
        assert abs(te.C.mean() - 2.0) < se

    def test_joint_covariance(self):
        scn = ToyScenario(1.2, 0.7, 0.0, "covariate")
        d = scn.sample(10_000, RngStream(4), TRAIN)
        cov = np.cov(d.C[:, 0], d.Z[:, 0])
        s1, s2 = scn.sigma1 ** 2, scn.sigma2 ** 2
        # moment standard errors at n = 1e4 are below ~0.06 for these scales
        assert abs(cov[0, 0] - (s1 + s2)) < 0.1
        assert abs(cov[0, 1] - s1) < 0.1
        assert abs(cov[1, 1] - s1) < 0.1

    def test_generation_is_deterministic(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "covariate")
        a = scn.sample(50, RngStream(9, 5), TEST)
        b = scn.sample(50, RngStream(9, 5), TEST)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.C, b.C)

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyScenario(1.0, 1.0, -1.0, "covariate")
        with pytest.raises(ValueError):
            ToyScenario(1.0, 1.0, 1.0, "sideways")


class TestSimpleScenario:
    def test_phase_means(self):
        scn = SimpleScenario(d=4)
        n = 10_000
        tr = scn.sample(n, RngStream(5, 1), TRAIN)
        te = scn.sample(n, RngStream(5, 2), TEST)
        bound = 3.0 / np.sqrt(n)
        assert np.all(np.abs(tr.Z.mean(axis=0)) < bound)
        assert np.all(np.abs(te.Z.mean(axis=0) - 1.0) < bound)

    def test_conditional_mean_at_fixed_z(self):
        scn = SimpleScenario(d=3)
        z = np.array([1.7, 0.0, -0.4])
        draws = scn.sample_costs_given(z, 10_000, RngStream(6))
        target = np.sign(z[0]) * np.sqrt(abs(z[0]))
        se = np.sqrt(SIMPLE_NOISE_VAR * abs(z[0])) / 100.0
        assert abs(draws.mean() - target) < 3 * se

    def test_zero_first_coordinate_gives_zero_cost(self):
        scn = SimpleScenario(d=2)
        draws = scn.sample_costs_given(np.array([0.0, 3.0]), 100, RngStream(7))
        np.testing.assert_array_equal(draws, 0.0)


class TestGridScenario:
    def test_counts(self):
        scn = GridScenario()
        assert scn.n_edges == 40
        assert scn.theta.shape == (40, 10)
        assert set(np.unique(scn.theta)) <= {0.0, 1.0}

    def test_unit_costs_shortest_path_value(self):
        scn = GridScenario()
        lp = build_shortest_path_lp(scn)
        sol = solve_lp(type(lp)(np.ones(80), lp.A, lp.b, lp.lo, lp.hi))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(8.0, abs=1e-9)
        path = trace_path(scn, sol.x)
        assert path[0] == (0, 0) and path[-1] == (4, 4)

    def test_incidence_structure(self):
        scn = GridScenario()
        lp = build_shortest_path_lp(scn)
        assert lp.A.shape == (25, 80)
        np.testing.assert_allclose(lp.A.sum(axis=0), 0.0)
        assert lp.b.sum() == 0.0 and lp.b.max() == 1.0 and lp.b.min() == -1.0

    def test_flow_residual_and_integrality_on_random_costs(self):
        scn = GridScenario()
        lp = build_shortest_path_lp(scn)
        g = RngStream(8)
        z = g.gaussian(0, 1, size=10)
        costs = scn.sample_costs_given(z, 1, g)[0]
        sol = solve_lp(type(lp)(scn.lp_costs(costs), lp.A, lp.b, lp.lo, lp.hi))
        assert sol.status == "optimal"
        assert np.max(np.abs(lp.A @ sol.x - lp.b)) <= 1e-7
        trace_path(scn, sol.x)

    def test_cost_formula_at_zero_covariate(self):
        scn = GridScenario()
        costs = scn.sample_costs_given(np.zeros(10), 1, RngStream(9))[0]
        # pre-noise cost 3^5 + 1 = 244 per edge; noise in [3/4, 5/4]
        assert np.all(costs >= 244 * 0.75 - 1e-9)
        assert np.all(costs <= 244 * 1.25 + 1e-9)

    def test_cost_floor_engages(self):
        scn = GridScenario()
        # drive one linear index strongly negative: theta row has >= 1 ones
        row = scn.theta[0]
        z = -10.0 * row * np.sqrt(scn.d) / max(row.sum(), 1.0)
        costs = scn.sample_costs_given(z, 1, RngStream(10))[0]
        assert costs[0] == pytest.approx(0.01)

    def test_same_stream_same_costs(self):
        scn = GridScenario()
        z = np.ones(10)
        a = scn.sample_costs_given(z, 1, RngStream(11, 2))
        b = scn.sample_costs_given(z, 1, RngStream(11, 2))
        np.testing.assert_array_equal(a, b)

    def test_arc_duplication(self):
        scn = GridScenario()
        dup = scn.lp_costs(np.arange(40.0))
        assert dup.shape == (80,)
        np.testing.assert_array_equal(dup[::2], dup[1::2])
        np.testing.assert_array_equal(dup[::2], np.arange(40.0))


class TestKnapsackScenario:
    def test_take_everything_when_budget_covers_all(self, monkeypatch):
        monkeypatch.setattr(scenarios, "KNAPSACK_BUDGET_FRACTION", 1.1)
        scn = KnapsackScenario()
        c = np.full(20, 2.0)
        sol = solve_lp(build_knapsack_lp(scn, BoxSet(c, c)))
        np.testing.assert_allclose(sol.x[:20], 1.0, atol=1e-9)

    def test_zero_budget_takes_nothing(self, monkeypatch):
        monkeypatch.setattr(scenarios, "KNAPSACK_BUDGET_FRACTION", 0.0)
        scn = KnapsackScenario()
        c = np.full(20, 2.0)
        sol = solve_lp(build_knapsack_lp(scn, BoxSet(c, c)))
        np.testing.assert_allclose(sol.x[:20], 0.0, atol=1e-9)

    def test_degenerate_box_matches_greedy_oracle(self):
        scn = KnapsackScenario()
        g = RngStream(12)
        utils = np.abs(g.gaussian(3, 4, size=20)) + 0.1
        sol = solve_lp(build_knapsack_lp(scn, BoxSet(utils, utils)))
        # classic fractional-knapsack greedy on utility/price
        order = np.argsort(-utils / scn.prices)
        budget = scn.budget
        value = 0.0
        for j in order:
            take = min(1.0, budget / scn.prices[j])
            value += take * utils[j]
            budget -= take * scn.prices[j]
            if budget <= 0:
                break
        assert -sol.value == pytest.approx(value, abs=1e-7)

    def test_utilities_nonnegative(self):
        scn = KnapsackScenario()
        g = RngStream(13)
        for _ in range(10):
            z = g.gaussian(0, 1, size=10)
            assert np.all(scn.sample_costs_given(z, 1, g) >= 0.0)

    def test_zero_covariate_zero_utilities(self):
        scn = KnapsackScenario()
        np.testing.assert_array_equal(
            scn.sample_costs_given(np.zeros(10), 1, RngStream(14)), 0.0)

    def test_per_item_mean(self):
        scn = KnapsackScenario()
        z = RngStream(15).gaussian(0, 1, size=10)
        draws = scn.sample_costs_given(z, 10_000, RngStream(16))
        target = (scn.theta @ z) ** 2  # noise has mean 1
        se = draws.std(axis=0) / np.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se + 1e-12)

    def test_budget_positive_and_prices_frozen(self):
        a = KnapsackScenario(theta_seed=3)
        b = KnapsackScenario(theta_seed=3)
        np.testing.assert_array_equal(a.prices, b.prices)
        assert a.budget > 0
        assert np.all(a.prices > 0)


def _grid_reference(scn, z, noise):
    base = (scn.theta @ z / np.sqrt(scn.d) + 3.0) ** 5 + 1.0
    return np.maximum(base * noise, 0.01)


def _knapsack_reference(scn, z, noise):
    return (scn.theta @ z) ** 2 * noise


def test_cost_draws_match_per_draw_reference():
    z = RngStream(17).gaussian(0, 1, size=10)
    for scn, per_draw, bounds in (
        (KnapsackScenario(), _knapsack_reference, (0.8, 1.2)),
        (GridScenario(), _grid_reference, (0.75, 1.25)),
    ):
        # the per-draw formula of the world's cost law, on the same noise stream
        draws = scn.sample_costs_given(z, 50, RngStream(18))
        noise = RngStream(18).uniform(*bounds, size=(50, scn.n_cost))
        want = np.array([per_draw(scn, z, noise[i]) for i in range(50)])
        assert draws.shape == want.shape
        assert draws.tobytes() == want.tobytes()

        # sample: covariates first, then one noise row per covariate row
        for phase, mean in ((TRAIN, 0.0), (TEST, scn.shift)):
            data = scn.sample(60, RngStream(19), phase)
            g = RngStream(19)
            Z = g.gaussian(0.0, 1.0, size=(60, scn.d)) + mean
            noise = g.uniform(*bounds, size=(60, scn.n_cost))
            want = np.array([per_draw(scn, Z[i], noise[i]) for i in range(60)])
            assert data.Z.tobytes() == Z.tobytes()
            assert data.C.shape == want.shape
            assert data.C.tobytes() == want.tobytes()


@pytest.mark.parametrize("scn", [ToyScenario(), SimpleScenario(), GridScenario(),
                                 KnapsackScenario()],
                         ids=["toy", "simple", "grid", "knapsack"])
def test_cost_draws_reject_unknown_phase(scn):
    with pytest.raises(ValueError, match="phase"):
        scn.sample_costs_given(np.zeros(scn.d), 5, RngStream(20), phase="bogus")
