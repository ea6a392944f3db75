"""Density-ratio estimators against closed-form and discrete-world oracles."""

import numpy as np
import pytest

from shiftro import density_ratio
from shiftro.density_ratio import (GaussianOracleRatio, fit_classifier_ratio,
                                   fit_kmm_covariate, fit_kmm_label, gaussian_gram,
                                   median_bandwidth, project_box_meanband, trivial_ratio)
from shiftro.harness import ExperimentConfig
from shiftro.numerics import RngStream, solve_spd
from shiftro.predictors import Dataset
from shiftro.scenarios import ToyScenario

CLIP = (ExperimentConfig.clip_lo, ExperimentConfig.clip_hi)   # default clip


class TestTrivial:
    def test_always_one(self):
        m = trivial_ratio(*CLIP)
        g = RngStream(0).generator
        np.testing.assert_array_equal(m.weights(None, g.normal(size=(10, 3))), 1.0)

    def test_one_survives_clipping(self):
        m = trivial_ratio(0.5, 2.0)
        np.testing.assert_array_equal(m.weights(None, np.zeros((4, 1))), 1.0)

    def test_normalized_weights_uniform(self):
        w = trivial_ratio(*CLIP).weights(None, np.zeros((8, 2)))
        np.testing.assert_allclose(w / w.sum(), 1 / 8)


class TestClipping:
    def test_clip_bounds_enforced(self):
        scn = ToyScenario(1.0, 1.0, 2.0, "covariate")
        m = GaussianOracleRatio(scn, w_lo=0.1, w_hi=5.0)
        w = m.weights(None, np.array([[10.0], [-10.0], [0.0]]))
        assert w[0] == 5.0 and w[1] == 0.1
        assert 0.1 < w[2] < 5.0


class TestClassifierRatio:
    def test_same_distribution_near_one(self):
        g = RngStream(42).generator
        a = g.normal(size=(2000, 4))
        b = g.normal(size=(2000, 4))
        m = fit_classifier_ratio(a, b, "linear", 0, CLIP)
        assert np.abs(m.weights(None, a) - 1.0).mean() <= 0.15

    def test_gaussian_shift_slope_and_intercept(self):
        g = RngStream(42).generator
        tr = g.normal(0, 1, size=(2000, 1))
        te = g.normal(1, 1, size=(2000, 1))
        m = fit_classifier_ratio(tr, te, "linear", 0, CLIP)
        assert m.predictor.params["W"][0, 0] == pytest.approx(1.0, abs=0.15)
        assert m.predictor.params["b"][0] == pytest.approx(-0.5, abs=0.15)

    def test_outputs_clipped(self):
        g = RngStream(1).generator
        tr = g.normal(0, 1, size=(500, 1))
        te = g.normal(3, 1, size=(500, 1))
        m = fit_classifier_ratio(tr, te, "linear", 0, (0.5, 2.0))
        w = m.weights(None, np.linspace(-5, 5, 50)[:, None])
        assert np.all((w >= 0.5) & (w <= 2.0))

    def test_beats_constant_classifier_logloss(self, monkeypatch):
        g = RngStream(9).generator
        tr = g.normal(0, 1, size=(1000, 2))
        te = g.normal(0.8, 1, size=(1000, 2))
        monkeypatch.setattr(density_ratio, "CLASSIFIER_ITERATIONS", 60)
        m = fit_classifier_ratio(tr, te, "mlp", 0, CLIP)
        X = np.vstack([tr, te])
        y = np.concatenate([np.zeros(1000), np.ones(1000)])
        p = 1.0 / (1.0 + np.exp(-m.predictor.predict(X)[:, 0]))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        ll = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert ll <= np.log(2) + 1e-6

    def test_swapped_roles_give_reciprocal_weights(self):
        g = RngStream(77).generator
        tr = g.normal(0, 1, size=(3000, 1))
        te = g.normal(1, 1, size=(3000, 1))
        fwd = fit_classifier_ratio(tr, te, "linear", 0, (1e-4, 1e4))
        rev = fit_classifier_ratio(te, tr, "linear", 0, (1e-4, 1e4))
        zs = np.linspace(-1.5, 2.5, 30)[:, None]
        wf = fwd.weights(None, zs)
        wr = rev.weights(None, zs)
        rel = np.abs(wf * wr - 1.0)
        assert np.max(rel) <= 0.2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_classifier_ratio(np.zeros((0, 1)), np.zeros((5, 1)), "mlp", 0, CLIP)

    def test_linear_fit_makes_no_spd_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solve_spd called")

        monkeypatch.setattr(density_ratio, "solve_spd", no_solve)
        monkeypatch.setattr(density_ratio, "KMM_ITERATIONS", 5)
        g = RngStream(5).generator
        m = fit_classifier_ratio(g.normal(size=(300, 3)), g.normal(size=(200, 3)) + 0.5,
                                 "linear", 0, CLIP)
        assert np.all(m.predictor.params["W"] > 0)
        # the patch reaches the module's one remaining caller
        data = Dataset(g.normal(size=(40, 2)), g.normal(size=(40, 1)))
        with pytest.raises(AssertionError, match="solve_spd"):
            fit_kmm_label(data, g.normal(size=(30, 2)), CLIP, RngStream(0))


class TestProjection:
    def test_projection_exactness(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            v = rng.normal(0, 3, n)
            cap = float(rng.uniform(1.5, 10))
            eps = float(rng.uniform(0.0, 0.5))
            w = project_box_meanband(v, cap, 1 - eps, 1 + eps)
            assert np.all(w >= -1e-12) and np.all(w <= cap + 1e-12)
            assert 1 - eps - 1e-9 <= w.mean() <= 1 + eps + 1e-9

    def test_degenerate_band_forces_ones(self):
        w = project_box_meanband(np.array([0.3, 0.2, 0.1]), 1.0, 1.0, 1.0)
        np.testing.assert_array_equal(w, 1.0)


class TestKmmCovariate:
    def test_identical_point_sets_give_unit_weights(self):
        z = np.array([[0.0], [1.0]] * 200)
        m = fit_kmm_covariate(z, z.copy(), CLIP, rng=RngStream(2))
        np.testing.assert_allclose(m.weights(None, m.fit_Z), 1.0, atol=0.05)

    def test_discrete_two_point_recovery(self):
        g = RngStream(42).generator
        tr = (g.random(400) < 0.5).astype(float)[:, None]
        te = (g.random(400) < 0.8).astype(float)[:, None]
        m = fit_kmm_covariate(tr, te, CLIP, rng=RngStream(1))
        truth = np.where(tr[:, 0] == 0, 0.2 / 0.5, 0.8 / 0.5)
        assert np.abs(m.weights(None, m.fit_Z) - truth).mean() <= 0.15

    def test_constraints_and_objective(self, monkeypatch):
        g = RngStream(3).generator
        tr = g.normal(0, 1, size=(300, 2))
        te = g.normal(0.5, 1, size=(300, 2))
        monkeypatch.setattr(density_ratio, "KMM_CAP", 50.0)
        m = fit_kmm_covariate(tr, te, CLIP, rng=RngStream(4))
        w = m._weights
        assert np.all(w >= -1e-12) and np.all(w <= 50 + 1e-12)
        assert abs(w.mean() - 1.0) <= 0.1 + 1e-9
        # objective never worse than the feasible start w == 1
        assert m.objectives[-1] <= m.objectives[0] + 1e-12
        assert np.all(np.diff(m.objectives) <= 1e-10)

    def test_longer_run_changes_little(self, monkeypatch):
        g = RngStream(5).generator
        tr = g.normal(0, 1, size=(200, 1))
        te = g.normal(0.7, 1, size=(200, 1))
        monkeypatch.setattr(density_ratio, "KMM_ITERATIONS", 800)
        short = fit_kmm_covariate(tr, te, CLIP, rng=RngStream(6))
        monkeypatch.setattr(density_ratio, "KMM_ITERATIONS", 8000)
        long = fit_kmm_covariate(tr, te, CLIP, rng=RngStream(6))
        assert short.objectives[-1] - long.objectives[-1] <= 1e-4

    def test_bandwidth_errors(self):
        with pytest.raises(ValueError):
            gaussian_gram(np.zeros((10, 1)), np.zeros((10, 1)), 0.0)
        with pytest.raises(ValueError):
            fit_kmm_covariate(np.zeros((1, 1)), np.zeros((10, 1)), CLIP, RngStream(0))

    def test_weights_defined_only_at_fit_samples(self):
        g = RngStream(7).generator
        tr = g.normal(size=(50, 1))
        te = g.normal(size=(50, 1))
        m = fit_kmm_covariate(tr, te, CLIP, rng=RngStream(8))
        np.testing.assert_array_equal(m.weights(None, tr), np.clip(m._weights, *CLIP))
        with pytest.raises(ValueError):
            m.weights(None, tr + 1.0)


class TestKmmLabel:
    def _label_world(self, seed, n=400, q1=0.75):
        g = RngStream(seed).generator
        lab_tr = (g.random(n) < 0.5).astype(int)
        C = np.array([0.0, 2.0])[lab_tr][:, None]
        Z = (np.array([0.0, 2.0])[lab_tr] + g.normal(0, 0.5, n))[:, None]
        lab_te = (g.random(n) < q1).astype(int)
        Zte = (np.array([0.0, 2.0])[lab_te] + g.normal(0, 0.5, n))[:, None]
        return Dataset(Z, C), Zte, lab_tr

    def test_no_shift_near_one(self):
        train, zte, _ = self._label_world(11, q1=0.5)
        m = fit_kmm_label(train, zte, CLIP, rng=RngStream(12))
        assert np.abs(m.weights(None, m.fit_Z) - 1.0).mean() <= 0.2

    def test_discrete_label_shift_recovery(self):
        train, zte, lab = self._label_world(42, q1=0.75)
        m = fit_kmm_label(train, zte, CLIP, rng=RngStream(13))
        truth = np.where(lab == 0, 0.5, 1.5)
        assert np.abs(m.weights(None, m.fit_Z) - truth).mean() <= 0.2

    def test_loss_monotone(self):
        train, zte, _ = self._label_world(6)
        m = fit_kmm_label(train, zte, CLIP, rng=RngStream(15))
        assert np.all(np.diff(m.objectives) <= 1e-10)

    def test_one_dim_costs_at_fit_samples(self):
        train, zte, _ = self._label_world(8, n=60)
        m = fit_kmm_label(train, zte, CLIP, rng=RngStream(16))
        np.testing.assert_array_equal(m.weights(train.C[:, 0], train.Z),
                                      m.weights(train.C, train.Z))
        with pytest.raises(ValueError):
            m.weights(train.C[:, 0] + 1.0, train.Z)


class TestKernelTrickExpansion:
    def test_matches_explicit_features_for_linear_kernel(self):
        # With a linear kernel the feature map is the identity, so the
        # embedding-matching loss is directly computable and must equal the
        # Gram-matrix expansion used by the label-shift fit.
        g = RngStream(21).generator
        n, m, dz, dc = 12, 9, 3, 2
        Z = g.normal(size=(n, dz))
        C = g.normal(size=(n, dc))
        Zte = g.normal(size=(m, dz))
        lam = 0.5
        K = Z @ Z.T
        H = C @ C.T
        K_te = Z @ Zte.T
        B = solve_spd(H + lam * np.eye(n), H)
        w = g.uniform(0.2, 2.0, n)
        quad_loss = (w @ (B.T @ K @ B) @ w / n**2
                     - 2.0 * w @ (B.T @ K_te @ np.ones(m)) / (n * m))
        # explicit embedding-space objective, dropping the w-free constant
        emb_train = Z.T @ B @ w / n
        emb_test = Zte.T @ np.ones(m) / m
        direct = emb_train @ emb_train - 2.0 * emb_train @ emb_test
        assert quad_loss == pytest.approx(direct, rel=1e-10)


def _exact(scn, C, Z):
    """Oracle weights with clip bounds too wide to bind."""
    return GaussianOracleRatio(scn, 1e-300, 1e300).weights(C, Z)


class TestGaussianOracle:
    def test_no_shift_is_one(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        np.testing.assert_allclose(_exact(scn, None, [2.3]), 1.0)

    def test_symmetry_point(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "covariate")
        np.testing.assert_allclose(_exact(scn, None, [0.5]), 1.0)

    def test_covariate_value(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "covariate")
        val = _exact(scn, None, [1.0])[0]
        assert val == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_label_value(self):
        scn = ToyScenario(1.0, 1.0, 1.0, "label")
        val = _exact(scn, [1.0], [0.0])[0]
        assert val == pytest.approx(np.exp((2 - 1) / 4.0), rel=1e-12)

    def test_montecarlo_density_ratio_identity(self):
        # E_P[w(c, z) * f(z)] should match E_Q[f(z)] for a test function
        scn = ToyScenario(1.0, 1.0, 0.8, "covariate")
        g = RngStream(3).generator
        z_p = g.normal(0, 1, 200_000)
        w = _exact(scn, None, z_p)
        f = np.cos(z_p)
        z_q = g.normal(0.8, 1, 200_000)
        assert np.mean(w * f) == pytest.approx(np.mean(np.cos(z_q)), abs=0.01)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            ToyScenario(0.0, 1.0, 1.0, "covariate")


class TestKernels:
    def test_median_bandwidth_positive_distances_only(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert median_bandwidth(X) == 1.0

    def test_gram_psd(self):
        g = RngStream(4).generator
        X = g.normal(size=(30, 2))
        K = gaussian_gram(X, X, 1.0)
        vals = np.linalg.eigvalsh(K)
        assert vals.min() > -1e-10

    def test_build_kernel_matrices_shapes(self):
        # the label-shift fit's K, H and K_te on 20 train and 15 test points
        g = RngStream(5).generator
        Z, Zte, C = g.normal(size=(20, 2)), g.normal(size=(15, 2)), g.normal(size=(20, 1))
        bz = median_bandwidth(Z)
        assert gaussian_gram(Z, Z, bz).shape == (20, 20)
        assert gaussian_gram(C, C, median_bandwidth(C)).shape == (20, 20)
        assert gaussian_gram(Z, Zte, bz).shape == (20, 15)


@pytest.mark.parametrize("kind", ["trivial", "oracle", "cls-linear", "cls-mlp", "kmm-cov",
                                  "kmm-label"])
def test_one_dim_covariate_vector_is_a_column(kind, monkeypatch):
    # a d=1 world's covariates as a flat vector: one weight per entry
    g = RngStream(40)
    tr = g.gaussian(0.0, 1.0, size=(300, 1))
    te = g.gaussian(0.5, 1.0, size=(300, 1))
    monkeypatch.setattr(density_ratio, "KMM_ITERATIONS", 50)
    monkeypatch.setattr(density_ratio, "CLASSIFIER_ITERATIONS", 10)
    monkeypatch.setattr(density_ratio, "KMM_MAX_SAMPLES", 120)   # subsample the 300
    if kind == "trivial":
        model = trivial_ratio(*CLIP)
    elif kind == "oracle":
        model = GaussianOracleRatio(ToyScenario(1.0, 1.0, 0.5, "covariate"), *CLIP)
    elif kind == "kmm-cov":
        model = fit_kmm_covariate(tr, te, CLIP, RngStream(0))
    elif kind == "kmm-label":
        costs = tr + g.gaussian(0.0, 0.25, size=(300, 1))
        model = fit_kmm_label(Dataset(tr, costs), te, CLIP, RngStream(0))
    else:
        model = fit_classifier_ratio(tr, te, kind[4:], 0, CLIP)
    if kind.startswith("kmm"):
        # KMM weights exist only at the fit rows, which name their source rows
        assert model.fit_indices.shape == (120,)
        np.testing.assert_array_equal(model.fit_Z, tr[model.fit_indices])
        z = model.fit_Z[:, 0]
    else:
        assert model.fit_indices is None     # weights exist everywhere
        z = np.linspace(-1.0, 1.0, 5)
    w = model.weights(None, z)
    assert w.shape == z.shape
    np.testing.assert_array_equal(w, model.weights(None, z[:, None]))
