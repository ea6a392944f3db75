"""Mean and quantile predictors: exact fits, quantile oracles, gradients."""

import numpy as np
import pytest

from shiftro.density_ratio import ClassifierSpec, fit_classifier_ratio
from shiftro.numerics import RngStream, normal_quantile
from shiftro.predictors import (ADAM_STEP, HIDDEN, SUBGRADIENT_STEP, WIDTH_FLOOR,
                                Dataset, MeanSpec, QuantileSpec, compute_residuals,
                                fit_mean, fit_quantile, loss_and_grad, pinball,
                                _mlp_init, _Workspace)


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
    def test_ridge_recovers_exact_slope(self):
        z = RngStream(7).gaussian(0, 1, size=(200, 1))
        model = fit_mean(Dataset(z, 2 * z), MeanSpec(kind="ridge", ridge_lambda=0.0))
        assert model.params["W"][0, 0] == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(model.predict([[3.0]]), [[6.0]], atol=1e-6)

    def test_ridge_constant_target(self):
        z = RngStream(8).gaussian(0, 1, size=(100, 2))
        model = fit_mean(Dataset(z, np.full((100, 1), 5.0)), MeanSpec(kind="ridge"))
        np.testing.assert_allclose(model.predict(z), 5.0, atol=1e-6)

    def test_mlp_beats_zero_predictor(self):
        g = RngStream(3).generator
        Z = g.normal(0, 1, size=(2000, 4))
        eps = g.normal(0, np.sqrt(0.1), size=2000)
        C = ((np.sign(Z[:, 0]) + eps) * np.sqrt(np.abs(Z[:, 0])))[:, None]
        model = fit_mean(Dataset(Z, C), MeanSpec(kind="mlp", seed=1))
        Zt = g.normal(0, 1, size=(1000, 4))
        epst = g.normal(0, np.sqrt(0.1), size=1000)
        Ct = ((np.sign(Zt[:, 0]) + epst) * np.sqrt(np.abs(Zt[:, 0])))[:, None]
        assert np.mean((model.predict(Zt) - Ct) ** 2) < np.mean(Ct ** 2)

    def test_deterministic_given_seed(self):
        g = RngStream(5).generator
        Z = g.normal(0, 1, size=(200, 3))
        C = Z[:, :1] + 0.1 * g.normal(size=(200, 1))
        a = fit_mean(Dataset(Z, C), MeanSpec(kind="mlp", seed=9))
        b = fit_mean(Dataset(Z, C), MeanSpec(kind="mlp", seed=9))
        np.testing.assert_array_equal(a.predict(Z), b.predict(Z))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_mean(Dataset(np.zeros((3, 1)), np.zeros((3, 0))))

    def test_wrong_input_dim_rejected(self):
        z = RngStream(1).gaussian(0, 1, size=(50, 2))
        model = fit_mean(Dataset(z, z[:, :1]), MeanSpec(kind="ridge"))
        with pytest.raises(ValueError):
            model.predict(np.zeros((5, 3)))


class TestResiduals:
    def test_perfect_model_zero_residuals(self):
        z = RngStream(2).gaussian(0, 1, size=(100, 1))
        model = fit_mean(Dataset(z, 3 * z), MeanSpec(kind="ridge", ridge_lambda=0.0))
        r = compute_residuals(Dataset(z, 3 * z), model)
        np.testing.assert_allclose(r, 0.0, atol=1e-8)

    def test_arithmetic(self):
        z = np.array([[0.0]])
        model = fit_mean(Dataset(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]])),
                         MeanSpec(kind="ridge"))
        r = compute_residuals(Dataset(z, np.array([[3.0]])), model)
        assert r[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_preserves_row_count(self):
        g = RngStream(4).generator
        Z = g.normal(size=(37, 2))
        C = g.normal(size=(37, 3))
        model = fit_mean(Dataset(Z, C), MeanSpec(kind="ridge"))
        assert compute_residuals(Dataset(Z, C), model).shape == (37, 3)

    def test_dim_mismatch(self):
        z = RngStream(2).gaussian(0, 1, size=(10, 1))
        model = fit_mean(Dataset(z, np.hstack([z, z])), MeanSpec(kind="ridge"))
        with pytest.raises(ValueError):
            compute_residuals(Dataset(z, z), model)


class TestFitQuantile:
    def test_constant_target(self):
        Z = RngStream(1).gaussian(0, 1, size=(500, 2))
        h = fit_quantile(Z, np.full((500, 1), 2.0), 0.8, QuantileSpec(kind="linear"))
        np.testing.assert_allclose(h.predict(Z), 2.0, atol=1e-3)

    def test_intercept_only_five_points(self):
        Z = np.zeros((5, 1))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])[:, None]
        h = fit_quantile(Z, y, 0.8, QuantileSpec(kind="linear"))
        # any value in [4, 5] minimizes the pinball loss here
        val = h.predict([[0.0]])[0, 0]
        assert 4.0 - 1e-6 <= val <= 5.0 + 1e-6

    def test_half_normal_quantile(self):
        y = np.abs(RngStream(7).gaussian(0, 1, size=(10_000, 1)))
        h = fit_quantile(np.zeros((10_000, 1)), y, 0.8, QuantileSpec(kind="linear"))
        target = normal_quantile(0.9)  # alpha-quantile of |N(0,1)|
        assert h.predict([[0.0]])[0, 0] == pytest.approx(target, abs=0.05)

    def test_beats_or_matches_best_constant(self):
        g = RngStream(9).generator
        for kind in ("linear", "mlp"):
            Z = g.normal(size=(400, 3))
            y = np.abs(g.normal(size=(400, 2))) * (1 + 0.5 * np.abs(Z[:, :2]))
            alpha = 0.8
            h = fit_quantile(Z, y, alpha, QuantileSpec(kind=kind, seed=3))
            fitted_loss = np.sum(pinball(y - h.predict(Z), alpha))
            const = np.quantile(y, alpha, axis=0)
            const_loss = np.sum(pinball(y - const, alpha))
            assert fitted_loss <= const_loss + 1e-3 * y.shape[0]

    def test_intercept_only_coverage_fraction(self):
        g = RngStream(12).generator
        y = np.abs(g.normal(size=(800, 1)))
        alpha = 0.8
        h = fit_quantile(np.zeros((800, 1)), y, alpha, QuantileSpec(kind="linear"))
        frac = float((y <= h.predict([[0.0]])[0, 0]).mean())
        slack = 2e-3
        assert alpha - 1 / 800 - slack <= frac <= alpha + 1 / 800 + slack

    def test_width_floor(self):
        y = np.zeros((50, 1))
        h = fit_quantile(np.zeros((50, 1)), y, 0.8, QuantileSpec(kind="linear"))
        assert np.all(h.predict(np.zeros((3, 1))) >= WIDTH_FLOOR)

    def test_mlp_learns_width_structure(self):
        g = RngStream(15).generator
        Z = g.normal(size=(2000, 2))
        y = np.abs(g.normal(size=(2000, 1))) * np.sqrt(np.abs(Z[:, :1]))
        h = fit_quantile(Z, y, 0.8, QuantileSpec(kind="mlp", seed=4))
        wide = h.predict([[4.0, 0.0]])[0, 0]
        narrow = h.predict([[0.01, 0.0]])[0, 0]
        assert wide > 2 * narrow

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_quantile(np.zeros((5, 1)), np.ones((5, 1)), 1.2)
        with pytest.raises(ValueError):
            fit_quantile(np.zeros((5, 1)), -np.ones((5, 1)), 0.8)


class TestGradients:
    def test_mlp_gradients_match_finite_differences(self):
        g = RngStream(0).generator
        Z = g.normal(size=(40, 3))
        for kind, alpha, Y in (
            ("mse", 0.5, g.normal(size=(40, 2))),
            ("pinball", 0.8, np.abs(g.normal(size=(40, 2))) + 0.5),
            ("logistic", 0.5, (g.random((40, 1)) < 0.5).astype(float)),
        ):
            k = Y.shape[1]
            params = _mlp_init(3, 16, k, RngStream(1))
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
# fits reused one workspace: the reference the workspace version must match
# bit for bit.

def _reference_loss_and_grad(params, Z, Y, kind, alpha=0.5):
    n = Z.shape[0]
    if "W1" in params:
        H = np.tanh(Z @ params["W1"] + params["b1"])
        out = H @ params["W2"] + params["b2"]
    else:
        out = Z @ params["W"] + params["b"]
    if kind == "mse":
        G = (out - Y) / n
        loss = 0.5 * np.sum((out - Y) ** 2) / n
    elif kind == "pinball":
        u = Y - out
        G = (-alpha * (u > 0) + (1.0 - alpha) * (u < 0)) / n
        loss = np.sum(pinball(Y - out, alpha)) / n
    else:
        G = (1.0 / (1.0 + np.exp(-out)) - Y) / n
        loss = np.sum(np.logaddexp(0.0, out) - Y * out) / n
    if "W1" in params:
        dH = (G @ params["W2"].T) * (1.0 - H * H)
        grads = {"W1": Z.T @ dH, "b1": dH.sum(axis=0), "W2": H.T @ G,
                 "b2": G.sum(axis=0)}
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
    elif kind == "pinball":
        Y = np.abs(g.normal(size=(n, k)))
    else:
        Y = g.normal(size=(n, k))
    return Z, Y


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestWorkspace:
    # 9000 rows x 16 hidden units is above 1 MB per hidden buffer, 50 below
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("kind,alpha", [("mse", 0.5), ("pinball", 0.8),
                                            ("logistic", 0.5)])
    @pytest.mark.parametrize("arch", ["mlp", "linear"])
    def test_bit_equal_to_allocating_pass(self, n, kind, alpha, arch):
        self._check_bit_equal(n, 4, 1 if kind == "logistic" else 3, kind, alpha, arch)

    # the knapsack workload's shape: 10 covariates, 20 costs
    @pytest.mark.parametrize("n", [50, 9000])
    @pytest.mark.parametrize("kind,alpha", [("mse", 0.5), ("pinball", 0.8)])
    @pytest.mark.parametrize("arch", ["mlp", "linear"])
    def test_bit_equal_to_allocating_pass_knapsack_shape(self, n, kind, alpha, arch):
        self._check_bit_equal(n, 10, 20, kind, alpha, arch)

    @staticmethod
    def _check_bit_equal(n, d, k, kind, alpha, arch):
        Z, Y = _problem(n, d, k, kind)
        if arch == "mlp":
            params = _mlp_init(d, 16, k, RngStream(1))
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

    def test_gradients_do_not_alias_the_workspace(self):
        Z, Y = _problem(200, 3, 2, "mse")
        params = _mlp_init(3, 16, 2, RngStream(4))
        work = _Workspace()
        _, first = loss_and_grad(params, Z, Y, "mse", 0.5, work)
        kept = {k: g.copy() for k, g in first.items()}
        other = _mlp_init(3, 16, 2, RngStream(5))
        loss_and_grad(other, -Z, 2 * Y, "mse", 0.5, work)
        for key in kept:
            _assert_same_bits(first[key], kept[key])

    def test_classifier_ratio_matches_reference_loop(self):
        g = RngStream(6).generator
        train_z = g.normal(size=(300, 4))
        test_z = g.normal(size=(200, 4)) + 0.5
        spec = ClassifierSpec(kind="mlp", epochs=60, seed=8)
        model = fit_classifier_ratio(train_z, test_z, spec)
        X = np.vstack([train_z, test_z])
        y = np.concatenate([np.zeros(300), np.ones(200)])[:, None]
        init = _mlp_init(4, HIDDEN, 1, RngStream(spec.seed, 303))
        want = _reference_fit(init, X, y, "logistic", 0.5, spec.epochs, ADAM_STEP)
        want["b2"] = want["b2"] - np.log(200 / 300)
        params = model.predictor.params
        assert params.keys() == want.keys()
        for key in want:
            _assert_same_bits(params[key], want[key])

    def test_linear_quantile_fit_matches_reference_loop(self):
        Z, Y = _problem(400, 4, 2, "pinball", seed=7)
        # wide covariates make the subgradient steps overshoot, so the best
        # parameters are those of epoch 71, not the last ones
        Z = 5.0 * Z
        spec = QuantileSpec(kind="linear", epochs=80)
        got = fit_quantile(Z, Y, 0.8, spec).params
        init = {"W": np.zeros((4, 2)), "b": np.quantile(Y, 0.8, axis=0)}
        want = _reference_fit(init, Z, Y, "pinball", 0.8, spec.epochs,
                              SUBGRADIENT_STEP, optimizer="sgd")
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])

    def test_mlp_mean_fit_matches_reference_loop(self):
        Z, C = _problem(300, 4, 3, "mse", seed=9)
        spec = MeanSpec(kind="mlp", epochs=60, seed=3)
        got = fit_mean(Dataset(Z, C), spec).params
        init = _mlp_init(4, HIDDEN, 3, RngStream(spec.seed, 101))
        want = _reference_fit(init, Z, C, "mse", 0.5, spec.epochs, ADAM_STEP)
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])
