"""Mean and quantile predictors: exact fits, quantile oracles, gradients."""

import numpy as np
import pytest
from scipy.optimize import minimize

from shiftro import density_ratio, predictors
from shiftro.density_ratio import fit_classifier_ratio
from shiftro.harness import TRAIN, ExperimentConfig, calibrate, fit_replicate
from shiftro.numerics import RngStream, normal_quantile
from shiftro.predictors import (ADAM_STEP, HIDDEN, MAX_HALVINGS, SUBGRADIENT_STEP,
                                WIDTH_FLOOR, Dataset, Predictor, compute_residuals,
                                fit_mean, fit_quantile, loss_and_grad, pinball,
                                _fit_gradient, _fit_lbfgs, _loss_and_grad_out,
                                _mlp_init, _softplus, _views, _Workspace)

CLIP = (ExperimentConfig.clip_lo, ExperimentConfig.clip_hi)   # default clip


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([[1.0]]))

    def test_empty_cost_block(self):
        d = Dataset(np.zeros((4, 2)), np.zeros((4, 0)))
        assert d.n == 4 and d.n_cost == 0


class TestPinball:
    def test_zero(self):
        assert pinball(0.0, 0.8) == 0.0

    def test_positive_side(self):
        assert pinball(1.0, 0.8) == pytest.approx(0.8)

    def test_negative_side(self):
        assert pinball(-1.0, 0.8) == pytest.approx(0.2)

    def test_nonnegative_and_zero_only_at_zero(self):
        u = np.linspace(-2, 2, 101)
        vals = pinball(u, 0.7)
        assert np.all(vals >= 0)
        assert np.all((vals == 0) == (u == 0))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            pinball(1.0, 1.0)


class TestFitMean:
    def test_ridge_recovers_exact_slope(self, monkeypatch):
        monkeypatch.setattr(predictors, "RIDGE_LAMBDA", 0.0)
        z = RngStream(7).gaussian(0, 1, size=(200, 1))
        model = fit_mean(Dataset(z, 2 * z), "ridge", 0)
        assert model.params["W"][0, 0] == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(model.predict([[3.0]]), [[6.0]], atol=1e-6)

    def test_ridge_constant_target(self):
        z = RngStream(8).gaussian(0, 1, size=(100, 2))
        model = fit_mean(Dataset(z, np.full((100, 1), 5.0)), "ridge", 0)
        np.testing.assert_allclose(model.predict(z), 5.0, atol=1e-6)

    def test_mlp_beats_zero_predictor(self):
        g = RngStream(3).generator
        Z = g.normal(0, 1, size=(2000, 4))
        eps = g.normal(0, np.sqrt(0.1), size=2000)
        C = ((np.sign(Z[:, 0]) + eps) * np.sqrt(np.abs(Z[:, 0])))[:, None]
        model = fit_mean(Dataset(Z, C), "mlp", 1)
        Zt = g.normal(0, 1, size=(1000, 4))
        epst = g.normal(0, np.sqrt(0.1), size=1000)
        Ct = ((np.sign(Zt[:, 0]) + epst) * np.sqrt(np.abs(Zt[:, 0])))[:, None]
        assert np.mean((model.predict(Zt) - Ct) ** 2) < np.mean(Ct ** 2)

    def test_deterministic_given_seed(self):
        g = RngStream(5).generator
        Z = g.normal(0, 1, size=(200, 3))
        C = Z[:, :1] + 0.1 * g.normal(size=(200, 1))
        a = fit_mean(Dataset(Z, C), "mlp", 9)
        b = fit_mean(Dataset(Z, C), "mlp", 9)
        np.testing.assert_array_equal(a.predict(Z), b.predict(Z))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_mean(Dataset(np.zeros((3, 1)), np.zeros((3, 0))), "ridge", 0)

    def test_wrong_input_dim_rejected(self):
        z = RngStream(1).gaussian(0, 1, size=(50, 2))
        model = fit_mean(Dataset(z, z[:, :1]), "ridge", 0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((5, 3)))


class TestResiduals:
    def test_perfect_model_zero_residuals(self, monkeypatch):
        monkeypatch.setattr(predictors, "RIDGE_LAMBDA", 0.0)
        z = RngStream(2).gaussian(0, 1, size=(100, 1))
        model = fit_mean(Dataset(z, 3 * z), "ridge", 0)
        r = compute_residuals(Dataset(z, 3 * z), model)
        np.testing.assert_allclose(r, 0.0, atol=1e-8)

    def test_arithmetic(self):
        z = np.array([[0.0]])
        model = fit_mean(Dataset(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]])),
                         "ridge", 0)
        r = compute_residuals(Dataset(z, np.array([[3.0]])), model)
        assert r[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_preserves_row_count(self):
        g = RngStream(4).generator
        Z = g.normal(size=(37, 2))
        C = g.normal(size=(37, 3))
        model = fit_mean(Dataset(Z, C), "ridge", 0)
        assert compute_residuals(Dataset(Z, C), model).shape == (37, 3)

    def test_dim_mismatch(self):
        z = RngStream(2).gaussian(0, 1, size=(10, 1))
        model = fit_mean(Dataset(z, np.hstack([z, z])), "ridge", 0)
        with pytest.raises(ValueError):
            compute_residuals(Dataset(z, z), model)


class TestFitQuantile:
    def test_constant_target(self):
        Z = RngStream(1).gaussian(0, 1, size=(500, 2))
        h = fit_quantile(Z, np.full((500, 1), 2.0), 0.8, "linear", 0)
        np.testing.assert_allclose(h.predict(Z), 2.0, atol=1e-3)

    def test_intercept_only_five_points(self):
        Z = np.zeros((5, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])[:, None]
        h = fit_quantile(Z, y, 0.8, "linear", 0)
        # any value in [4, 5] minimizes the pinball loss here
        val = h.predict([[0.0]])[0, 0]
        assert 4.0 - 1e-6 <= val <= 5.0 + 1e-6

    def test_half_normal_quantile(self):
        y = np.abs(RngStream(7).gaussian(0, 1, size=(10_000, 1)))
        h = fit_quantile(np.zeros((10_000, 1)), y, 0.8, "linear", 0)
        target = normal_quantile(0.9)  # alpha-quantile of |N(0,1)|
        assert h.predict([[0.0]])[0, 0] == pytest.approx(target, abs=0.05)

    def test_beats_or_matches_best_constant(self):
        g = RngStream(9).generator
        for kind in ("linear", "mlp"):
            Z = g.normal(size=(400, 3))
            y = np.abs(g.normal(size=(400, 2))) * (1 + 0.5 * np.abs(Z[:, :2]))
            alpha = 0.8
            h = fit_quantile(Z, y, alpha, kind, 3)
            fitted_loss = np.sum(pinball(y - h.predict(Z), alpha))
            const = np.quantile(y, alpha, axis=0)
            const_loss = np.sum(pinball(y - const, alpha))
            assert fitted_loss <= const_loss + 1e-3 * y.shape[0]

    def test_intercept_only_coverage_fraction(self):
        g = RngStream(12).generator
        y = np.abs(g.normal(size=(800, 1)))
        alpha = 0.8
        h = fit_quantile(np.zeros((800, 1)), y, alpha, "linear", 0)
        frac = float((y <= h.predict([[0.0]])[0, 0]).mean())
        slack = 2e-3
        assert alpha - 1 / 800 - slack <= frac <= alpha + 1 / 800 + slack

    def test_width_floor(self):
        y = np.zeros((50, 1))
        h = fit_quantile(np.zeros((50, 1)), y, 0.8, "linear", 0)
        assert np.all(h.predict(np.zeros((3, 1))) >= WIDTH_FLOOR)

    def test_mlp_learns_width_structure(self):
        g = RngStream(15).generator
        Z = g.normal(size=(2000, 2))
        y = np.abs(g.normal(size=(2000, 1))) * np.sqrt(np.abs(Z[:, :1]))
        h = fit_quantile(Z, y, 0.8, "mlp", 4)
        wide = h.predict([[4.0, 0.0]])[0, 0]
        narrow = h.predict([[0.01, 0.0]])[0, 0]
        assert wide > 2 * narrow

    def test_mlp_constant_column_keeps_its_value(self):
        # a column of zero sd is fitted in its own units (sd read as 1), not
        # divided by zero; the smoothed loss of a point mass is least at
        # b*logit(alpha) = 0.028 above it
        g = RngStream(16).generator
        Z = g.normal(size=(500, 2))
        y = np.hstack([np.full((500, 1), 2.0), np.abs(g.normal(size=(500, 1)))])
        h = fit_quantile(Z, y, 0.8, "mlp", 0)
        np.testing.assert_allclose(h.predict(Z)[:, 0], 2.0, atol=0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_quantile(np.zeros((5, 1)), np.ones((5, 1)), 1.2, "linear", 0)
        with pytest.raises(ValueError):
            fit_quantile(np.zeros((5, 1)), -np.ones((5, 1)), 0.8, "linear", 0)


class TestSoftplus:
    def test_within_three_ulp_of_logaddexp_without_fp_errors(self):
        # numpy's SIMD exp and log1p and logaddexp's libm loop round apart by
        # at most 3 ulp (numpy 2.4, x86-64: of 2e7 uniform draws on [-40, 40],
        # 11 differ by 3 ulp; this grid's worst point, t = -4.1572, is 2 ulp
        # from the exact softplus and logaddexp 1). Beyond |t| = 745 e^-|t|
        # underflows to 0 and both read max(t, 0)
        tiny, big = 5e-324, np.finfo(float).max
        ends = np.array([0.0, 1e-300, tiny, big])
        t = np.concatenate([ends, -ends, np.linspace(-760.0, 760.0, 200_001)])
        out, tmp = np.empty_like(t), np.empty_like(t)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _softplus(t, out, tmp)
            want = np.logaddexp(0.0, t)
        assert got is out
        np.testing.assert_array_max_ulp(got, want, maxulp=3)
        assert got[3] == big and got[7] == 0.0
        assert got[0] == got[4] == np.log(2.0)


class TestGradients:
    def test_smooth_pinball_is_finite_far_from_the_kink(self):
        # |u| / b near 5e7: softplus and sigmoid may neither overflow nor warn
        out = np.array([[-1e6], [0.0], [1e6]])
        Y = np.zeros((3, 1))
        params = {"W": np.ones((1, 1)), "b": np.zeros(1)}     # a pass-through
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            loss, _ = loss_and_grad(params, out, Y, "smooth-pinball", 0.8)
            _, G = _loss_and_grad_out("smooth-pinball", out, Y, 0.8, _Workspace())
        alpha, b = 0.8, predictors.WIDTH_BANDWIDTH
        assert loss == pytest.approx((1e6 * 0.2 + b * np.log(2.0) + 1e6 * 0.8) / 3)
        np.testing.assert_allclose(G[:, 0], np.array([-alpha, 0.5 - alpha, 1 - alpha]) / 3)

    def test_mlp_gradients_match_finite_differences(self):
        g = RngStream(0).generator
        Z = g.normal(size=(40, 3))
        for kind, alpha, Y in (
            ("mse", 0.5, g.normal(size=(40, 2))),
            ("pinball", 0.8, np.abs(g.normal(size=(40, 2))) + 0.5),
            ("smooth-pinball", 0.8, np.abs(g.normal(size=(40, 2))) + 0.5),
            ("logistic", 0.5, (g.random((40, 1)) < 0.5).astype(float)),
        ):
            k = Y.shape[1]
            params = _mlp_init(3, k, RngStream(1))
            _, grads = loss_and_grad(params, Z, Y, kind, alpha)
            rng = np.random.default_rng(5)
            checked = 0
            while checked < 20:
                key = rng.choice(list(params))
                flat = params[key].ravel()
                i = int(rng.integers(flat.size))
                h = 1e-6
                old = flat[i]
                flat[i] = old + h
                lp, _ = loss_and_grad(params, Z, Y, kind, alpha)
                flat[i] = old - h
                lm, _ = loss_and_grad(params, Z, Y, kind, alpha)
                flat[i] = old
                fd = (lp - lm) / (2 * h)
                gv = grads[key].ravel()[i]
                denom = max(abs(fd), abs(gv), 1e-10)
                assert abs(fd - gv) / denom < 1e-4, (kind, key)
                checked += 1


# The allocating forward/backward pass and training loop as they stood before
# fits reused one workspace, with softplus in _softplus's form: the reference
# the workspace version must match bit for bit.

def _softplus_reference(t):
    """softplus in _softplus's form, allocating: max(t, 0) + log1p(e^-|t|)."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _reference_loss_and_grad(params, Z, Y, kind, alpha=0.5):
    n = Z.shape[0]
    if "W1" in params:
        H = np.tanh(Z @ params["W1"] + params["b1"])
        out = H @ params["W"] + params["b"]
    else:
        out = Z @ params["W"] + params["b"]
    if kind == "mse":
        G = (out - Y) / n
        loss = 0.5 * np.sum((out - Y) ** 2) / n
    elif kind == "pinball":
        u = Y - out
        G = (-alpha * (u > 0) + (1.0 - alpha) * (u < 0)) / n
        loss = np.sum(pinball(Y - out, alpha)) / n
    elif kind == "smooth-pinball":
        b = predictors.WIDTH_BANDWIDTH
        u = Y - out
        softplus = _softplus_reference(-u / b)
        G = (np.exp(-u / b - softplus) - alpha) / n
        loss = np.sum(alpha * u + b * softplus) / n
    else:
        G = (1.0 / (1.0 + np.exp(-out)) - Y) / n
        loss = np.sum(_softplus_reference(out) - Y * out) / n
    if "W1" in params:
        dH = (G @ params["W"].T) * (1.0 - H * H)
        grads = {"W1": Z.T @ dH, "b1": dH.sum(axis=0), "W": H.T @ G,
                 "b": G.sum(axis=0)}
    else:
        grads = {"W": Z.T @ G, "b": G.sum(axis=0)}
    return loss, grads


def _reference_fit(params, Z, Y, kind, alpha, epochs, lr, optimizer="adam"):
    """Per-array Adam or subgradient loop of _fit_gradient over the reference
    pass; ``lr`` is Adam's step or the subgradient descent's first step."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    best_loss = np.inf
    best = {k: p.copy() for k, p in params.items()}
    for t in range(1, epochs + 1):
        loss, grads = _reference_loss_and_grad(params, Z, Y, kind, alpha)
        if loss < best_loss:
            best_loss = loss
            best = {k: p.copy() for k, p in params.items()}
        for k in params:
            if optimizer == "sgd":
                params[k] -= lr / np.sqrt(1.0 + t / 50.0) * grads[k]
                continue
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
            params[k] -= lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
    loss, _ = _reference_loss_and_grad(params, Z, Y, kind, alpha)
    return params if loss < best_loss else best


def _problem(n, d, k, kind, seed=0):
    g = RngStream(seed).generator
    Z = g.normal(size=(n, d))
    if kind == "logistic":
        Y = (g.random((n, k)) < 0.5).astype(float)
    elif kind in ("pinball", "smooth-pinball"):
        Y = np.abs(g.normal(size=(n, k)))
    else:
        Y = g.normal(size=(n, k))
    return Z, Y


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _flat_grads(params):
    """A flat gradient vector and views into it, one per parameter, as
    _flat_objective builds them for a fit's passes."""
    flat = np.empty(sum(p.size for p in params.values()))
    return flat, _views(flat, params)


def _flat_reference(grads, params):
    return np.concatenate([grads[key].ravel() for key in params])


class TestWorkspace:
    # 9000 rows x 16 hidden units is above 1 MB per hidden buffer, 50 below
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("kind,alpha", [("mse", 0.5), ("pinball", 0.8),
                                            ("smooth-pinball", 0.8), ("logistic", 0.5)])
    @pytest.mark.parametrize("arch", ["mlp", "linear"])
    def test_bit_equal_to_allocating_pass(self, n, kind, alpha, arch):
        self._check_bit_equal(n, 4, 1 if kind == "logistic" else 3, kind, alpha, arch)

    # the knapsack workload's shape: 10 covariates, 20 costs
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("kind,alpha", [("mse", 0.5), ("pinball", 0.8),
                                            ("smooth-pinball", 0.8)])
    @pytest.mark.parametrize("arch", ["mlp", "linear"])
    def test_bit_equal_to_allocating_pass_knapsack_shape(self, n, kind, alpha, arch):
        self._check_bit_equal(n, 10, 20, kind, alpha, arch)

    # the grid world's shape: 10 covariates, 40 edge costs
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("kind,alpha", [("mse", 0.5), ("pinball", 0.8),
                                            ("smooth-pinball", 0.8)])
    @pytest.mark.parametrize("arch", ["mlp", "linear"])
    def test_bit_equal_to_allocating_pass_grid_shape(self, n, kind, alpha, arch):
        self._check_bit_equal(n, 10, 40, kind, alpha, arch)

    # the benchmark's one-column shapes: the knapsack classifier (10
    # covariates, one logit) and the toy world's linear width (one covariate)
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("d,kind,alpha,arch", [(10, "logistic", 0.5, "mlp"),
                                                   (1, "pinball", 0.8, "linear")])
    def test_bit_equal_to_allocating_pass_one_column_shapes(self, n, d, kind, alpha,
                                                            arch):
        self._check_bit_equal(n, d, 1, kind, alpha, arch)

    @staticmethod
    def _check_bit_equal(n, d, k, kind, alpha, arch):
        Z, Y = _problem(n, d, k, kind)
        if arch == "mlp":
            params = _mlp_init(d, k, RngStream(1))
        else:
            g = RngStream(2).generator
            params = {"W": g.normal(size=(d, k)), "b": g.normal(size=k)}
        want_loss, want = _reference_loss_and_grad(params, Z, Y, kind, alpha)
        work = _Workspace()
        for _ in range(2):      # a fresh and a reused workspace
            loss, grads = loss_and_grad(params, Z, Y, kind, alpha, work)
            assert loss == want_loss
            assert grads.keys() == want.keys()
            for key in want:
                _assert_same_bits(grads[key], want[key])
        # gradients written through views into one flat vector, as a fit's
        # passes write them: the same bits, in the caller's arrays
        flat, views = _flat_grads(params)
        loss, grads = loss_and_grad(params, Z, Y, kind, alpha, work, views)
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for key in want:
            assert grads[key] is views[key]
            _assert_same_bits(grads[key], want[key])
        _assert_same_bits(flat, _flat_reference(want, params))
        # an MLP pass keeps two (n, hidden) blocks, the hidden layer (which
        # takes tanh's slope in place) and dH; a linear pass none
        hidden = [a for a in work._arrays.values() if a.shape == (n, HIDDEN)]
        assert len(hidden) == (2 if arch == "mlp" else 0)

    def test_gradients_do_not_alias_the_workspace(self):
        Z, Y = _problem(200, 3, 2, "mse")
        params = _mlp_init(3, 2, RngStream(4))
        work = _Workspace()
        _, first = loss_and_grad(params, Z, Y, "mse", 0.5, work)
        kept = {k: g.copy() for k, g in first.items()}
        other = _mlp_init(3, 2, RngStream(5))
        loss_and_grad(other, -Z, 2 * Y, "mse", 0.5, work)
        for key in kept:
            _assert_same_bits(first[key], kept[key])
        # two passes written into two flat vectors, as L-BFGS writes its
        # current gradient and a trial's: the second leaves the first intact
        flat1, views1 = _flat_grads(params)
        loss_and_grad(params, Z, Y, "mse", 0.5, work, views1)
        flat2, views2 = _flat_grads(other)
        loss_and_grad(other, -Z, 2 * Y, "mse", 0.5, work, views2)
        _assert_same_bits(flat1, _flat_reference(kept, params))
        _, want = _reference_loss_and_grad(other, -Z, 2 * Y, "mse")
        _assert_same_bits(flat2, _flat_reference(want, other))

    def test_new_covariates_of_the_same_shape_rebuild_the_design(self):
        # the workspace keeps [Z | 1] for the Z it was built from; a design
        # kept by shape would price -Z with Z's first layer
        Z, Y = _problem(200, 3, 2, "mse")
        params = _mlp_init(3, 2, RngStream(4))
        work = _Workspace()
        loss_and_grad(params, Z, Y, "mse", 0.5, work)
        loss, grads = loss_and_grad(params, -Z, Y, "mse", 0.5, work)
        want_loss, want = _reference_loss_and_grad(params, -Z, Y, "mse")
        assert loss == want_loss
        for key in want:
            _assert_same_bits(grads[key], want[key])

    def test_pinball_pass_with_signed_zero_residuals(self):
        # a zero linear model gives out = +0, so u = Y - out holds Y's exact
        # +0 and -0 entries: the loss, the zero subgradient on the kink and
        # the parameter gradients keep the reference's bits
        g = RngStream(3).generator
        Y = g.normal(size=(1000, 2))
        Y.flat[::3] = 0.0
        Y.flat[1::5] = -0.0
        Z = g.normal(size=(1000, 4))
        params = {"W": np.zeros((4, 2)), "b": np.zeros(2)}
        want_loss, want = _reference_loss_and_grad(params, Z, Y, "pinball", 0.8)
        loss, grads = loss_and_grad(params, Z, Y, "pinball", 0.8)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for key in want:
            _assert_same_bits(grads[key], want[key])
        u = Y - np.zeros_like(Y)
        assert np.any((u == 0) & np.signbit(u)) and np.any((u == 0) & ~np.signbit(u))
        _, G = _loss_and_grad_out("pinball", np.zeros_like(Y), Y, 0.8, _Workspace())
        _assert_same_bits(G, (-0.8 * (u > 0) + (1.0 - 0.8) * (u < 0)) / 1000)

    def test_linear_quantile_fit_matches_reference_loop(self, monkeypatch):
        Z, Y = _problem(400, 4, 2, "pinball", seed=7)
        # wide covariates make the subgradient steps overshoot, so the best
        # parameters are those of epoch 71, not the last ones
        Z = 5.0 * Z
        monkeypatch.setattr(predictors, "WIDTH_EPOCHS", 80)
        got = fit_quantile(Z, Y, 0.8, "linear", 0).params
        init = {"W": np.zeros((4, 2)), "b": np.quantile(Y, 0.8, axis=0)}
        want = _reference_fit(init, Z, Y, "pinball", 0.8, 80,
                              SUBGRADIENT_STEP, optimizer="sgd")
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])

    def test_mlp_mean_fit_matches_reference_loop(self, monkeypatch):
        Z, C = _problem(300, 4, 3, "mse", seed=9)
        monkeypatch.setattr(predictors, "MEAN_EPOCHS", 60)
        got = fit_mean(Dataset(Z, C), "mlp", 3).params
        init = _mlp_init(4, 3, RngStream(3, 101))
        want = _reference_fit(init, Z, C, "mse", 0.5, 60, ADAM_STEP)
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])


# A plain L-BFGS loop over the reference pass: lists for the memory, a fresh
# parameter dict per trial point, and the arithmetic _fit_lbfgs must match
# bit for bit.

def _reference_lbfgs(params, Z, Y, kind, alpha, iterations):
    keys = list(params)
    shapes = [params[k].shape for k in keys]
    cuts = np.cumsum([params[k].size for k in keys])[:-1]

    def unflat(x):
        return {k: part.reshape(shape)
                for k, part, shape in zip(keys, np.split(x, cuts), shapes)}

    def f(x):
        loss, grads = _reference_loss_and_grad(unflat(x), Z, Y, kind, alpha)
        return loss, np.concatenate([grads[k].ravel() for k in keys])

    x = np.concatenate([params[k].ravel() for k in keys])
    loss, g = f(x)
    S, D = [], []           # steps and gradient changes, oldest first
    for _ in range(iterations):
        if np.all(g == 0):
            break
        q = g.copy()
        a = []
        for s, y in zip(reversed(S), reversed(D)):
            a.append((1.0 / (s @ y)) * (s @ q))
            q = q - a[-1] * y
        if S:
            q = q * ((S[-1] @ D[-1]) / (D[-1] @ D[-1]))
        for s, y, ai in zip(S, D, reversed(a)):
            q = q + (ai - (1.0 / (s @ y)) * (y @ q)) * s
        d = -q
        if not g @ d < 0:
            S, D = [], []
            d = -g
        slope = g @ d
        step = 1.0 if S else 1.0 / np.sum(np.abs(g))
        for _ in range(31):
            x_new = x + step * d
            loss_new, g_new = f(x_new)
            if (np.isfinite(loss_new) and np.all(np.isfinite(g_new)) and loss_new < loss
                    and loss_new <= loss + 1e-4 * step * slope):
                break
            step = step / 2
        else:
            break
        s, y = x_new - x, g_new - g
        if s @ y > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            S.append(s)
            D.append(y)
            if len(S) > 10:
                S, D = S[1:], D[1:]
        x, loss, g = x_new, loss_new, g_new
    return unflat(x), loss


def _xor_problem():
    """Labels by the sign of z0 * z1, from a tenth of the usual initial
    weights: the fit leaves a saddle, meets curvature pairs with s'y <= 0
    and backtracks."""
    g = RngStream(0).generator
    Z = g.normal(size=(300, 3))
    Y = (Z[:, :1] * Z[:, 1:2] > 0).astype(float)
    init = {k: 0.1 * v for k, v in _mlp_init(3, 1, RngStream(0, 303)).items()}
    return init, Z, Y


class TestLbfgs:
    def test_classifier_ratio_matches_reference_loop(self, monkeypatch):
        g = RngStream(6).generator
        train_z = g.normal(size=(300, 4))
        test_z = g.normal(size=(200, 4)) + 0.5
        monkeypatch.setattr(density_ratio, "CLASSIFIER_ITERATIONS", 60)
        model = fit_classifier_ratio(train_z, test_z, "mlp", 8, CLIP)
        X = np.vstack([train_z, test_z])
        y = np.concatenate([np.zeros(300), np.ones(200)])[:, None]
        init = _mlp_init(4, 1, RngStream(8, 303))
        want, _ = _reference_lbfgs(init, X, y, "logistic", 0.5, 60)
        want["b"] = want["b"] - np.log(200 / 300)
        params = model.predictor.params
        assert params.keys() == want.keys()
        for key in want:
            _assert_same_bits(params[key], want[key])

    def test_nonconvex_fit_matches_reference_loop(self):
        init, Z, Y = _xor_problem()
        got, got_loss = _fit_lbfgs(init, Z, Y, "logistic", 0.5, 60)
        want, want_loss = _reference_lbfgs(init, Z, Y, "logistic", 0.5, 60)
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])

    def test_linear_logistic_reaches_bfgs_loss(self):
        g = RngStream(21).generator
        X = np.vstack([g.normal(size=(1500, 4)), g.normal(size=(1000, 4)) + 0.4])
        y = np.concatenate([np.zeros(1500), np.ones(1000)])
        init = {"W": np.zeros((4, 1)), "b": np.zeros(1)}
        params, loss = _fit_lbfgs(init, X, y[:, None], "logistic", 0.5, 100)
        assert loss == loss_and_grad(params, X, y[:, None], "logistic")[0]
        assert loss <= _bfgs_logistic_loss(X, y) * (1.0 + 1e-9)

    def test_accepted_losses_never_increase(self):
        # a cap of k iterations ends at the k-th accepted point
        init, Z, Y = _xor_problem()
        first, _ = loss_and_grad(init, Z, Y, "logistic")
        losses = [first]
        for k in range(1, 31):
            params, loss = _fit_lbfgs(init, Z, Y, "logistic", 0.5, k)
            assert loss == loss_and_grad(params, Z, Y, "logistic")[0]
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_stationary_point_comes_back_unchanged(self, monkeypatch):
        # zero weights and b = 0 on balanced labels: p = 1/2 everywhere and
        # every gradient entry is exactly zero (256 rows keep G's sums exact)
        Z = RngStream(3).generator.normal(size=(256, 4))
        Y = np.repeat([[0.0], [1.0]], 128, axis=0)
        init = {"W1": np.zeros((4, HIDDEN)), "b1": np.zeros(HIDDEN),
                "W": np.zeros((HIDDEN, 1)), "b": np.zeros(1)}
        calls = []
        real = predictors.loss_and_grad
        monkeypatch.setattr(predictors, "loss_and_grad",
                            lambda *a: calls.append(1) or real(*a))
        params, loss = _fit_lbfgs(init, Z, Y, "logistic", 0.5, 100)
        assert len(calls) == 1
        assert loss == pytest.approx(np.log(2.0), rel=1e-15)
        for key in init:
            _assert_same_bits(params[key], init[key])

    def test_shallow_decrease_is_not_accepted(self, monkeypatch):
        # f(x) = (x - c)^2 / 2 from x = 1: the first trial, x = 0, lowers f by
        # 1e-5, less than the Armijo margin 1e-4 * (1 - c); one halving lands
        # next to the minimum
        c = 0.49999

        def quadratic(p, Z, Y, kind, alpha, work, grads):
            np.subtract(p["x"], c, out=grads["x"])
            return 0.5 * (p["x"][0] - c) ** 2, grads

        monkeypatch.setattr(predictors, "loss_and_grad", quadratic)
        params, _ = _fit_lbfgs({"x": np.array([1.0])}, None, None, "logistic", 0.5, 1)
        assert params["x"][0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("fault", ["ascent", "nan-loss", "nan-grad"])
    def test_failed_line_search_returns_the_start(self, fault, monkeypatch):
        # "ascent": a gradient of the wrong sign, so no step lowers the loss;
        # "nan-loss" and "nan-grad": every trial point prices as NaN in the
        # loss or in the gradient
        init, Z, Y = _xor_problem()
        real = predictors.loss_and_grad
        calls = []

        def faulty(params, Z, Y, kind, alpha, work, grads):
            loss, grads = real(params, Z, Y, kind, alpha, work, grads)
            calls.append(loss)
            if fault == "ascent":
                for g in grads.values():
                    np.negative(g, out=g)
                return loss, grads
            if len(calls) == 1:
                return loss, grads
            if fault == "nan-loss":
                return np.nan, grads
            for g in grads.values():
                g.fill(np.nan)
            return loss, grads

        monkeypatch.setattr(predictors, "loss_and_grad", faulty)
        params, loss = _fit_lbfgs(init, Z, Y, "logistic", 0.5, 100)
        assert len(calls) == 2 + MAX_HALVINGS
        assert loss == calls[0]
        for key in init:
            _assert_same_bits(params[key], init[key])


def _bfgs_logistic_loss(X, y):
    """The least mean logistic loss of a linear logit with intercept, found
    by scipy's BFGS on a loss written out here: an oracle that shares no code
    with _fit_lbfgs or loss_and_grad."""
    Xi = np.hstack([X, np.ones((len(X), 1))])

    def f(beta):
        eta = Xi @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        return np.mean(np.logaddexp(0.0, eta) - y * eta), Xi.T @ (p - y) / len(y)

    res = minimize(f, np.zeros(Xi.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-12})
    return res.fun


def _benchmark_classifier_data(scenario, d, seed):
    """The pooled covariates and labels of replicate 0's classifier fit in
    the harness: train_f, d1 and d2 covariates against m_ratio test ones."""
    fit = fit_replicate(ExperimentConfig(scenario=scenario, d=d, seed=seed), 0)
    return np.vstack([fit.train_f.Z, fit.d1.Z, fit.d2.Z]), fit.test_cov.Z


@pytest.mark.parametrize("scenario,d,seed", [("simple", 4, 100), ("knapsack", 10, 0)])
def test_classifier_fit_beats_adam(scenario, d, seed):
    # the benchmark's two cls-mlp shapes, 8000 rows each: the L-BFGS fit
    # ends below 500 Adam epochs from the same initial parameters
    train_z, test_z = _benchmark_classifier_data(scenario, d, seed)
    X = np.vstack([train_z, test_z])
    assert X.shape == (8000, d)
    y = np.concatenate([np.zeros(len(train_z)), np.ones(len(test_z))])[:, None]
    model = fit_classifier_ratio(train_z, test_z, "mlp", seed, CLIP)
    params = dict(model.predictor.params)
    params["b"] = params["b"] + np.log(len(test_z) / len(train_z))
    loss, _ = loss_and_grad(params, X, y, "logistic")
    init = _mlp_init(d, 1, RngStream(seed, 303))
    _, adam_loss = _fit_gradient(init, X, y, "logistic", 0.5, 500)
    assert loss < adam_loss


@pytest.mark.parametrize("scenario,d,seed", [("simple", 4, 100), ("knapsack", 10, 0)])
def test_linear_classifier_fit_reaches_bfgs_loss(scenario, d, seed):
    # the cls-linear fit on the benchmark's two 8000-row pools ends at
    # scipy's BFGS optimum, once the pool-size intercept shift is undone
    train_z, test_z = _benchmark_classifier_data(scenario, d, seed)
    X = np.vstack([train_z, test_z])
    y = np.concatenate([np.zeros(len(train_z)), np.ones(len(test_z))])
    model = fit_classifier_ratio(train_z, test_z, "linear", 0, CLIP)
    params = dict(model.predictor.params)
    params["b"] = params["b"] + np.log(len(test_z) / len(train_z))
    loss, _ = loss_and_grad(params, X, y[:, None], "logistic")
    assert loss <= _bfgs_logistic_loss(X, y) * (1.0 + 1e-9)


@pytest.mark.parametrize("scenario,d,seed", [("simple", 4, 100), ("knapsack", 10, 0),
                                             ("shortest-path", None, 0)])
def test_width_fit_beats_adam(scenario, d, seed):
    # replicate 0's width data in the harness (|r| of the MLP mean on d1),
    # scored by the exact pinball loss on 5000 held-out training-law rows:
    # the L-BFGS fit of the smoothed loss ends below the 2000 Adam epochs
    # on raw |r| that it replaced, from the same initial weights
    fit = fit_replicate(ExperimentConfig(scenario=scenario, d=d, seed=seed), 0)
    d1, alpha = fit.d1, fit.config.alpha
    held_out = fit.scenario.sample(5000, RngStream(seed, 40), TRAIN)
    Y, Y_held = (np.abs(compute_residuals(data, fit.f)) for data in (d1, held_out))
    init = _mlp_init(fit.scenario.d, Y.shape[1], RngStream(seed, 202))
    init["b"] = np.quantile(Y, alpha, axis=0)
    adam, _ = _fit_gradient(init, d1.Z, Y, "pinball", alpha, 2000)
    loss, adam_loss = (np.mean(pinball(Y_held - h.predict(held_out.Z), alpha))
                       for h in (fit.h, Predictor(adam, WIDTH_FLOOR)))
    assert loss < adam_loss


def test_grid_width_stays_off_the_floor():
    # the grid world's |r| spans orders of magnitude within a column; a
    # width that ends at WIDTH_FLOOR on one of 40 edges scores its row near
    # 1e8, and eta (1e7-1e8 without the sd floor) makes every box degenerate
    cfg = ExperimentConfig(scenario="shortest-path", seed=0)
    fit = fit_replicate(cfg, 0)
    widths = fit.h.predict(fit.d2.Z)
    assert np.all(widths > WIDTH_FLOOR)
    assert calibrate(fit, cfg) < 10.0
