"""Weighted calibration: scores, scale selection, boxes, coverage."""

import numpy as np
import pytest

from shiftro import predictors
from shiftro.conformal import (CalibScores, calib_scores, empirical_coverage, select_eta,
                               uncertainty_box)
from shiftro.density_ratio import GaussianOracleRatio, fit_classifier_ratio, trivial_ratio
from shiftro.harness import ExperimentConfig
from shiftro.lp import BoxSet
from shiftro.numerics import RngStream
from shiftro.predictors import Dataset, fit_mean, fit_quantile
from shiftro.scenarios import TEST, TRAIN, ToyScenario

CLIP = (ExperimentConfig.clip_lo, ExperimentConfig.clip_hi)   # default clip


class _ConstMean:
    """Stub predictor returning fixed vectors (isolates the calibration math)."""

    def __init__(self, value, dim=1):
        self.value = np.atleast_1d(np.asarray(value, dtype=float))
        self.input_dim = dim
        self.output_dim = self.value.size

    def predict(self, Z):
        Z = np.atleast_2d(Z)
        return np.tile(self.value, (Z.shape[0], 1))


class _ConstWidth(_ConstMean):
    pass


def brute_force_eta(scores, weights, alpha):
    total = weights.sum()
    qualifying = [s for s in np.sort(scores)
                  if weights[scores <= s].sum() >= alpha * total]
    return qualifying[0] if qualifying else float(np.max(scores))


class TestCalibScores:
    def test_zero_residual_zero_score(self):
        d2 = Dataset(np.zeros((3, 1)), np.full((3, 1), 5.0))
        s = calib_scores(d2, _ConstMean(5.0), _ConstWidth(1.0), trivial_ratio(*CLIP))
        np.testing.assert_array_equal(s.scores, 0.0)

    def test_simple_ratio(self):
        d2 = Dataset(np.zeros((1, 1)), np.array([[3.0]]))
        s = calib_scores(d2, _ConstMean(0.0), _ConstWidth(1.5), trivial_ratio(*CLIP))
        assert s.scores[0] == pytest.approx(2.0)

    def test_score_is_minimal_covering_scale_bisection_oracle(self):
        g = RngStream(5).generator
        d2 = Dataset(g.normal(size=(40, 2)), g.normal(size=(40, 3)))
        f = _ConstMean([0.1, -0.2, 0.3], dim=2)
        h = _ConstWidth([0.5, 1.0, 2.0], dim=2)
        s = calib_scores(d2, f, h, trivial_ratio(*CLIP))
        for i in range(d2.n):
            lo_e, hi_e = 0.0, 100.0
            center = f.predict(d2.Z[i:i + 1])[0]
            width = h.predict(d2.Z[i:i + 1])[0]
            for _ in range(60):
                mid = 0.5 * (lo_e + hi_e)
                box = BoxSet(center - mid * width, center + mid * width)
                if np.all((box.lower <= d2.C[i]) & (d2.C[i] <= box.upper)):
                    hi_e = mid
                else:
                    lo_e = mid
            assert s.scores[i] == pytest.approx(hi_e, abs=1e-9)

    def test_dim_mismatch(self):
        d2 = Dataset(np.zeros((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            calib_scores(d2, _ConstMean(0.0), _ConstWidth(1.0), trivial_ratio(*CLIP))

    def test_cost_block_narrower_than_the_mean_is_rejected(self):
        # a 1-column cost block used to broadcast against 3-output f and h
        # and read as scores [5, 5, 5, 5]
        d2 = Dataset(np.zeros((4, 1)), np.full((4, 1), 5.0))
        f, h = _ConstMean([0.0, 0.0, 0.0]), _ConstWidth([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="mean model"):
            calib_scores(d2, f, h, trivial_ratio(*CLIP))


    @pytest.mark.parametrize("ratio", ["trivial", "oracle", "classifier"])
    def test_empty_calibration_set(self, ratio):
        # the fitted models predict zero rows, and the CalibScores built from
        # them refuses the empty set; the empty d2 keeps its cost column
        scn = ToyScenario(1.0, 1.0, 0.5, "covariate")
        d1 = scn.sample(200, RngStream(7, 1), TRAIN)
        f = fit_mean(d1, "ridge", 0)
        h = fit_quantile(d1.Z, np.abs(d1.C - f.predict(d1.Z)), 0.8, "linear", 0)
        if ratio == "trivial":
            model = trivial_ratio(*CLIP)
        elif ratio == "oracle":
            model = GaussianOracleRatio(scn, *CLIP)
        else:
            test_z = scn.sample(200, RngStream(7, 2), TEST).Z
            model = fit_classifier_ratio(d1.Z, test_z, "mlp", 0, CLIP)
        d2 = Dataset(np.zeros((0, 1)), np.zeros((0, 1)))
        assert d2.n_cost == 1
        with pytest.raises(ValueError, match="nonempty"):
            calib_scores(d2, f, h, model)


class TestSelectEta:
    def test_unit_weights_median_case(self):
        s = CalibScores(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        assert select_eta(s, 0.5) == brute_force_eta(s.scores, s.weights, 0.5) == 2.0

    def test_unit_weights_strict_level(self):
        s = CalibScores(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        assert select_eta(s, 0.99) == 4.0

    def test_level_of_an_inexact_product(self):
        # 0.55 * 100 reads 55.000000000000007, one ulp above 55, so an exact
        # comparison would need the 56th of 100 unit weights
        s = CalibScores(np.arange(1.0, 101.0), np.ones(100))
        assert 0.55 * 100 > 55
        assert select_eta(s, 0.55) == 55.0
        assert select_eta(s, 0.8) == 80.0
        assert select_eta(s, 0.555) == 56.0

    def test_overflowing_weight_sum_is_a_value_error(self):
        # the cumulative sum used to overflow with a numpy warning and then
        # index one past the end
        s = CalibScores(np.arange(3.0), np.full(3, 1e308))
        with pytest.raises(ValueError, match="weight sum"):
            select_eta(s, 0.8)

    def test_heavy_weight_on_largest_score(self):
        s = CalibScores(np.array([1.0, 2.0, 3.0, 4.0]),
                        np.array([1.0, 1.0, 1.0, 97.0]))
        assert select_eta(s, 0.9) == 4.0

    def test_brute_force_oracle_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 51))
            scores = rng.uniform(0, 5, n)
            weights = rng.uniform(0.05, 5, n)
            alpha = float(rng.uniform(0.51, 0.99))
            got = select_eta(CalibScores(scores, weights), alpha)
            assert got == brute_force_eta(scores, weights, alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            s = CalibScores(rng.uniform(0, 5, n), rng.uniform(0.1, 3, n))
            etas = [select_eta(s, a) for a in (0.55, 0.7, 0.85, 0.95)]
            assert all(a <= b + 1e-15 for a, b in zip(etas, etas[1:]))

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.uniform(0, 5, n)
            weights = rng.uniform(0.1, 3, n)
            a = float(rng.uniform(0.55, 0.95))
            e1 = select_eta(CalibScores(scores, weights), a)
            e2 = select_eta(CalibScores(scores, 7.3 * weights), a)
            assert e1 == e2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            CalibScores(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            CalibScores(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            select_eta(CalibScores(np.array([1.0]), np.array([1.0])), 1.5)


class TestUncertaintyBox:
    def test_degenerate_at_zero_eta(self):
        eta = 0.0
        box = uncertainty_box([0.0], _ConstMean(2.0), _ConstWidth(1.0), eta)
        np.testing.assert_allclose(box.lower, box.upper)
        np.testing.assert_allclose(box.lower, 2.0)

    def test_symmetry_about_center(self):
        eta = 1.7
        f = _ConstMean([1.0, -2.0])
        box = uncertainty_box([0.0], f, _ConstWidth([0.5, 2.0]), eta)
        np.testing.assert_allclose(box.lower + box.upper, 2 * f.value)

    def test_coverage_equivalence_with_scores(self):
        g = RngStream(9).generator
        f = _ConstMean([0.5, -1.0], dim=3)
        h = _ConstWidth([1.0, 0.7], dim=3)
        eta = 1.3
        for _ in range(200):
            z = g.normal(size=3)
            c = g.normal(scale=2.0, size=2)
            box = uncertainty_box(z, f, h, eta)
            score = calib_scores(Dataset(z[None, :], c[None, :]), f, h,
                                 trivial_ratio(*CLIP)).scores[0]
            assert np.all((box.lower <= c) & (c <= box.upper)) == (score <= eta)


    def test_block_rows_match_single_boxes(self, monkeypatch):
        g = RngStream(10).generator
        Z = g.normal(size=(300, 3))
        C = np.sin(Z[:, :2]) + 0.1 * g.normal(size=(300, 2))
        monkeypatch.setattr(predictors, "MEAN_EPOCHS", 50)
        monkeypatch.setattr(predictors, "WIDTH_EPOCHS", 50)
        f = fit_mean(Dataset(Z, C), "mlp", 1)
        h = fit_quantile(Z, np.abs(C - f.predict(Z)), 0.8, "mlp", 2)
        eta = 1.3
        block = uncertainty_box(Z[:40], f, h, eta)
        assert block.lower.shape == block.upper.shape == (40, 2)
        for i in range(40):
            one = uncertainty_box(Z[i], f, h, eta)
            # one block product against 40 one-row products: the matmul may
            # sum in another order, so allow a few ulps
            np.testing.assert_allclose(block.lower[i], one.lower, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(block.upper[i], one.upper, rtol=1e-13, atol=1e-14)


def _same_box(n, lower, upper):
    """Block box holding the same 1-d interval for each of n rows."""
    return BoxSet(np.full((n, 1), lower), np.full((n, 1), upper))


class TestEmpiricalCoverage:
    def test_block_box_matches_box_list(self):
        g = RngStream(11).generator
        C = g.normal(size=(200, 3))
        lower = g.normal(size=(200, 3)) - 1.0
        upper = lower + 2.0 * g.random((200, 3))
        data = Dataset(np.zeros((200, 1)), C)
        # reference: one box per row, checked row by row
        want = float(np.mean([np.all((lo <= c) & (c <= hi))
                              for lo, hi, c in zip(lower, upper, C)]))
        assert 0.0 < want < 1.0
        assert empirical_coverage(data, BoxSet(lower, upper)) == want

    def test_block_box_row_mismatch(self):
        data = Dataset(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            empirical_coverage(data, BoxSet(np.zeros((2, 1)), np.ones((2, 1))))

    def test_infinite_boxes(self):
        data = Dataset(np.zeros((5, 1)), np.arange(5.0)[:, None])
        assert empirical_coverage(data, _same_box(5, -np.inf, np.inf)) == 1.0

    def test_empty_width_off_center(self):
        data = Dataset(np.zeros((4, 1)), np.ones((4, 1)))
        assert empirical_coverage(data, _same_box(4, 0.0, 0.0)) == 0.0

    def test_hand_count(self):
        data = Dataset(np.zeros((4, 1)), np.array([[0.1], [0.5], [2.0], [-3.0]]))
        assert empirical_coverage(data, _same_box(4, -1.0, 1.0)) == 0.5

    def test_row_mismatch(self):
        # the right row count with the wrong cost dimension
        data = Dataset(np.zeros((3, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            empirical_coverage(data, _same_box(3, 0.0, 1.0))


class TestCoverageGuarantees:
    def test_classical_in_distribution_coverage(self):
        # w == 1, n calibration points: fresh-sample coverage sits within the
        # exchangeable band around alpha, up to Monte Carlo noise.
        alpha = 0.8
        n_cal, n_eval, reps = 99, 400, 30
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        f = _ConstMean(0.0)
        h = _ConstWidth(1.0)
        covs = []
        for rep in range(reps):
            d2 = scn.sample(n_cal, RngStream(100 + rep, 1), TRAIN)
            ev = scn.sample(n_eval, RngStream(100 + rep, 2), TRAIN)
            scores = calib_scores(d2, f, h, trivial_ratio(*CLIP))
            eta = select_eta(scores, alpha)
            ev_scores = calib_scores(ev, f, h, trivial_ratio(*CLIP)).scores
            covs.append(float((ev_scores <= eta).mean()))
        mean_cov = float(np.mean(covs))
        # quantile-selection noise (1/n_cal) plus evaluation noise, averaged
        mc_sigma = np.sqrt(alpha * (1 - alpha) * (1 / n_cal + 1 / n_eval) / reps)
        lo = alpha - 1.0 / (n_cal + 1) - 3 * mc_sigma
        hi = alpha + 1.0 / (n_cal + 1) + 3 * mc_sigma
        assert lo <= mean_cov <= hi

    def test_shifted_coverage_with_exact_ratio(self):
        # exact density ratio on the toy world: coverage under the shifted law
        # stays in the theoretical band plus Monte Carlo noise.
        alpha = 0.8
        scn = ToyScenario(1.0, 1.0, 0.5, "covariate")
        n_cal, n_eval, reps = 1000, 2000, 8
        f = _ConstMean(0.0)
        h = _ConstWidth(1.0)
        ratio = GaussianOracleRatio(scn, w_lo=1e-6, w_hi=1e6)
        covs, spreads = [], []
        for rep in range(reps):
            d2 = scn.sample(n_cal, RngStream(300 + rep, 1), TRAIN)
            ev = scn.sample(n_eval, RngStream(300 + rep, 2), TEST)
            scores = calib_scores(d2, f, h, ratio)
            eta = select_eta(scores, alpha)
            ev_scores = calib_scores(ev, f, h, trivial_ratio(*CLIP)).scores
            covs.append(float((ev_scores <= eta).mean()))
            spreads.append(scores.weights.max() / scores.weights.min())
        mean_cov = float(np.mean(covs))
        band = float(np.median(spreads)) / (n_cal + 1)
        # weighted-quantile noise shrinks with the effective sample size
        ess = n_cal / np.exp(scn.shift ** 2)
        mc_sigma = np.sqrt(alpha * (1 - alpha) * (1 / ess + 1 / n_eval) / reps)
        assert alpha - band - 3 * mc_sigma <= mean_cov <= alpha + band + 3 * mc_sigma
