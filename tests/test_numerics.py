"""Gaussian special functions, SPD solves, and random streams."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from shiftro.analytic import DiscreteWorld, exact_coverage
from shiftro.conformal import CalibScores, select_eta
from shiftro.harness import empirical_var
from shiftro.numerics import (RngStream, alpha_level, alpha_quantile_index, normal_cdf,
                              normal_quantile, solve_spd)


def gauss_cdf_quadrature(x):
    """Independent oracle: numerical quadrature of the standard normal pdf."""
    pdf = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
    val, _ = quad(pdf, -12.0, x, limit=200)
    return val


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        for x in (-3.0, -1.0, -0.5, 0.3, 0.8416, 1.7, 2.9):
            assert abs(normal_cdf(x) - gauss_cdf_quadrature(x)) < 1e-10

    def test_quantile_level_point(self):
        # Phi(0.8416) = 0.8 up to the rounding of the 0.8416 constant
        assert abs(normal_cdf(0.8416) - 0.8) < 1e-4

    def test_far_tail(self):
        assert normal_cdf(-8.0) < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normal_cdf(np.inf)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_level_080_from_bisection_oracle(self):
        # independent oracle: bisection on normal_cdf
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < 0.8:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert abs(normal_quantile(0.8) - oracle) < 1e-9
        assert abs(normal_quantile(0.8) - 0.8416) < 1e-3

    def test_roundtrip_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-8

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), [3.0, 4.0])
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            a = rng.normal(size=(n, n))
            m = a @ a.T + n * np.eye(n)
            rhs = rng.normal(size=n)
            x = solve_spd(m, rhs)
            resid = np.max(np.abs(m @ x - rhs))
            assert resid <= 1e-8 * (1 + np.max(np.abs(rhs)))

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(np.array([[1.0, 0.9], [0.0, 1.0]]), [1.0, 1.0])

    @pytest.mark.parametrize("mat,rhs", [
        (np.eye(1), 3.0),                                  # 0-d rhs
        (np.full((2, 2), np.nan), [1.0, 1.0]),             # NaN matrix
        (np.eye(2), [np.nan, 1.0]),                        # NaN rhs
        (np.diag([np.inf, 1.0]), [1.0, 1.0]),              # infinite pivot
        (np.eye(2), np.ones((2, 1, 1))),                   # 3-d rhs
    ], ids=["scalar-rhs", "nan-matrix", "nan-rhs", "inf-matrix", "3d-rhs"])
    def test_rejects_bad_input(self, mat, rhs):
        with pytest.raises(ValueError):
            solve_spd(mat, rhs)

    def test_solves_without_scipy(self, monkeypatch):
        # an import of scipy.linalg anywhere in the solve raises ImportError
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(m @ solve_spd(m, [1.0, 2.0]), [1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_spd(np.array([[1.0, 0.9], [0.0, 1.0]]), [1.0, 1.0])


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 3).gaussian(0, 1, size=100)
        b = RngStream(42, 3).gaussian(0, 1, size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_nearly_uncorrelated(self):
        n = 10_000
        a = RngStream(7, 0).gaussian(0, 1, size=n)
        b = RngStream(7, 1).gaussian(0, 1, size=n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_gaussian_mean_clt_bound(self):
        n = 100_000
        draws = RngStream(11).gaussian(0.0, 1.0, size=n)
        assert abs(draws.mean()) < 3.0 / np.sqrt(n)

    def test_gaussian_takes_variance(self):
        draws = RngStream(13).gaussian(0.0, 4.0, size=50_000)
        assert abs(draws.std() - 2.0) < 0.05

    def test_bernoulli_degenerate(self):
        assert RngStream(1).bernoulli(1.0) == 1.0
        assert RngStream(1).bernoulli(0.0) == 0.0

    def test_parameter_errors(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            rng.gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            rng.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_seed_and_index_span_64_bits(self):
        top = 2 ** 64 - 1
        assert np.isfinite(RngStream(top, top).gaussian(0.0, 1.0))
        with pytest.raises(ValueError, match="seed .*18446744073709551616"):
            RngStream(2 ** 64)
        with pytest.raises(ValueError, match="index .*18446744073709551616"):
            RngStream(0, 2 ** 64)

    def test_seed_and_index_must_be_integers(self):
        # the uint64 key used to truncate 1.7 to 1, drawing what seed 1 draws
        for bad in (1.7, np.float64(1.0), True, "1"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                RngStream(bad)
            with pytest.raises(ValueError, match="index must be an integer"):
                RngStream(0, bad)
        a = RngStream(np.int64(3), np.uint64(2)).gaussian(0.0, 1.0, size=4)
        np.testing.assert_array_equal(a, RngStream(3, 2).gaussian(0.0, 1.0, size=4))


class TestAlphaLevel:
    ALPHAS = ("0.55", "0.56", "0.6", "0.75", "0.8", "0.9")

    def test_eta_and_value_at_risk_take_one_order_statistic(self):
        class Seq:
            def sample_costs_given(self, z, n, rng, phase):
                return np.arange(1.0, n + 1.0)[:, None]

            def lp_costs(self, C):
                return C
        for text in self.ALPHAS:
            alpha = float(text)
            for n in range(1, 201):
                k = math.ceil(alpha_level(n, alpha))
                # the exact decimal product's ceiling, not one draw more
                assert k == math.ceil(Fraction(text) * n), (text, n)
                eta = select_eta(CalibScores(np.arange(1.0, n + 1.0), np.ones(n)), alpha)
                var = empirical_var([1.0], [0.0], Seq(), alpha, n, RngStream(0))
                assert eta == var == k, (text, n)

    def test_exact_coverage_takes_the_same_order_statistic(self):
        # two support points with scores 1 < 2 and unit weights: eta is 1 when
        # at least k of the n draws land on the first point, so the exact
        # coverage is q0 P(J >= k) + P(J < k) for J ~ Binomial(n, 1/2)
        world = DiscreteWorld([1.0, 2.0], [0.0, 0.0], [0.5, 0.5], [0.3, 0.7])
        for text in self.ALPHAS:
            alpha = float(text)
            for n in range(1, 20):
                k = math.ceil(alpha_level(n, alpha))
                below = sum(math.comb(n, j) for j in range(k)) / 2 ** n
                want = 0.3 * (1 - below) + below
                assert exact_coverage(world, n, alpha, np.ones(2)) == pytest.approx(
                    want, abs=1e-12), (text, n)


class TestAlphaQuantileIndex:
    def test_rows_of_a_stack_match_one_row_and_searchsorted(self):
        W = np.ones((5, 100))      # alpha 0.55 on 100 unit weights: 55.000000000000007
        W[1, 55], W[1, 99] = 1e-20, 2.0   # too small to move the sum, at the answer
        W[2] *= 1.7e306                   # a sum just below the overflow limit
        W[3] = np.random.default_rng(0).uniform(0.1, 5.0, 100)
        W[4, :50] = 1e-300                # a first half the quantile never reaches
        first = alpha_quantile_index(W, 0.55)
        for w, i in zip(W, first):
            cum = np.cumsum(w)
            assert alpha_quantile_index(w, 0.55) == i
            assert np.searchsorted(cum, alpha_level(cum[-1], 0.55)) == i
        # the 55th of 100, and the first of two equal running sums
        assert first[0] == first[1] == 54

    def test_checks_alpha_and_overflow(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                alpha_quantile_index(np.ones(3), alpha)
        with pytest.raises(ValueError, match="overflows"):
            alpha_quantile_index(np.full((2, 100), 1.8e306), 0.8)
