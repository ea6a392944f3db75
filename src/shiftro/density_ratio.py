"""Estimators of the test/train density ratio w(c, z) = q/p.

Kinds: trivial (w == 1), probabilistic classifier on covariates (linear
logistic or an MLP, both fit by L-BFGS), kernel mean matching for
covariate shift and for label shift, and exact closed-form oracles for the
Gaussian toy worlds.
All emitted weights are truncated into the model's [w_lo, w_hi] bounds.
"""

from __future__ import annotations

import numpy as np

from .numerics import RngStream, solve_spd
from .predictors import Dataset, Predictor, _fit_lbfgs, _mlp_init

CLASSIFIER_ITERATIONS = 100  # L-BFGS steps of either classifier fit
KMM_MAX_SAMPLES = 400
KMM_CAP = 1000.0        # upper bound on each KMM weight
KMM_RIDGE = 1e-3        # kmm-label's ridge on the cost Gram matrix, per sample
KMM_ITERATIONS = 800    # projected-gradient steps of either KMM fit


def check_clip(lo, hi):
    """Raise ValueError unless 0 < lo <= hi with a finite lo (hi may be inf)."""
    if not (0.0 < lo <= hi and lo < np.inf):
        raise ValueError(f"clip bounds must satisfy 0 < lo <= hi with a finite lo, "
                         f"got ({lo}, {hi})")


class RatioModel:
    """The trivial ratio w == 1, blind to the shift; other kinds override _raw(C, Z)."""

    fit_indices = None  # rows of the fit sample where the weights exist; None: everywhere

    def __init__(self, w_lo: float, w_hi: float):
        check_clip(w_lo, w_hi)
        self.w_lo = float(w_lo)
        self.w_hi = float(w_hi)

    def _raw(self, C, Z):
        return np.ones(Z.shape[0])

    def weights(self, C, Z) -> np.ndarray:
        """Clipped weights, one per row of Z (C may be None for covariate kinds).

        A 1-D Z is a column of scalar covariates, one per entry.
        """
        Z = np.asarray(Z, dtype=float)
        if Z.ndim < 2:
            Z = Z.reshape(-1, 1)
        raw = np.asarray(self._raw(C, Z), dtype=float)
        return np.clip(raw, self.w_lo, self.w_hi)


def trivial_ratio(w_lo: float, w_hi: float) -> RatioModel:
    return RatioModel(w_lo, w_hi)


# ---------------------------------------------------------------------------
# probabilistic classifier (covariate shift)
# ---------------------------------------------------------------------------

class ClassifierRatio(RatioModel):
    """w(z) = p1(z) / (1 - p1(z)) from a train-vs-test probability classifier
    whose single output is the logit of p1."""

    def __init__(self, predictor: Predictor, w_lo, w_hi):
        super().__init__(w_lo, w_hi)
        self.predictor = predictor

    def _raw(self, C, Z):
        # log w = logit, so the ratio is exp(logit); exp saturates safely
        # because weights() clips right after.
        return np.exp(np.clip(self.predictor.predict(Z)[:, 0], -700, 700))


def fit_classifier_ratio(train_z, test_z, kind: str, seed: int, clip) -> ClassifierRatio:
    """Pool covariates with labels 0 (train) / 1 (test), fit a probability
    classifier ("linear" logistic, or the "mlp" with initial weights drawn
    from ``seed``), and emit w = p/(1-p) clipped into ``clip`` = (lo, hi)."""
    Ztr = np.atleast_2d(np.asarray(train_z, dtype=float))
    Zte = np.atleast_2d(np.asarray(test_z, dtype=float))
    if Ztr.shape[0] == 0 or Zte.shape[0] == 0:
        raise ValueError("both covariate sets must be nonempty")
    if Ztr.shape[1] != Zte.shape[1]:
        raise ValueError("train and test covariates must share a dimension")
    X = np.vstack([Ztr, Zte])
    y = np.concatenate([np.zeros(Ztr.shape[0]), np.ones(Zte.shape[0])])
    if kind == "linear":
        params = {"W": np.zeros((X.shape[1], 1)), "b": np.zeros(1)}
    elif kind == "mlp":
        params = _mlp_init(X.shape[1], 1, RngStream(seed, 303))
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")
    params, _ = _fit_lbfgs(params, X, y[:, None], "logistic", 0.5, CLASSIFIER_ITERATIONS)
    # Unequal pool sizes bias the intercept by log(n_te / n_tr); remove it.
    params["b"] = params["b"] - np.log(Zte.shape[0] / Ztr.shape[0])
    return ClassifierRatio(Predictor(params), *clip)


# ---------------------------------------------------------------------------
# kernels and kernel mean matching
# ---------------------------------------------------------------------------

def _sq_dists(X, Y) -> np.ndarray:
    """||x - y||^2 for every row pair of X and Y, floored at zero."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    sx = np.sum(X * X, axis=1)[:, None]
    sy = np.sum(Y * Y, axis=1)[None, :]
    return np.maximum(sx + sy - 2.0 * X @ Y.T, 0.0)


def median_bandwidth(X) -> float:
    """Median positive pairwise Euclidean distance (1.0 if all points tie)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dist = np.sqrt(_sq_dists(X, X)[np.triu_indices(X.shape[0], k=1)])
    pos = dist[dist > 0]
    return float(np.median(pos)) if pos.size else 1.0


def gaussian_gram(X, Y, bandwidth: float) -> np.ndarray:
    """k(x, y) = exp(-||x - y||^2 / (2 * bandwidth^2))."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return np.exp(-_sq_dists(X, Y) / (2.0 * bandwidth * bandwidth))


def project_box_meanband(v, cap: float, mean_lo: float, mean_hi: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= w <= cap, mean_lo <= mean(w) <= mean_hi}.

    The projection is clip(v + mu, 0, cap) for a scalar shift mu; the sum of
    the clipped vector is piecewise linear and nondecreasing in mu, so the
    exact shift comes from its breakpoints.
    """
    n = v.size
    w = np.clip(v, 0.0, cap)
    s = w.sum()
    lo_sum, hi_sum = n * mean_lo, n * mean_hi
    if lo_sum - 1e-12 <= s <= hi_sum + 1e-12:
        return w
    target = hi_sum if s > hi_sum else lo_sum
    breaks = np.unique(np.concatenate([-v, cap - v]))
    sums = np.clip(v[None, :] + breaks[:, None], 0.0, cap).sum(axis=1)
    k = int(np.searchsorted(sums, target))
    if k == 0:
        mu = breaks[0]
    elif k >= breaks.size:
        mu = breaks[-1]
    else:
        s0, s1 = sums[k - 1], sums[k]
        frac = 0.0 if s1 == s0 else (target - s0) / (s1 - s0)
        mu = breaks[k - 1] + frac * (breaks[k] - breaks[k - 1])
    return np.clip(v + mu, 0.0, cap)


class KmmRatio(RatioModel):
    """Per-sample KMM weights; defined only at the samples they were fit on,
    rows ``fit_indices`` of the sample passed to the fit."""

    def __init__(self, fit_Z, fit_C, raw_weights, w_lo, w_hi, objectives, fit_indices):
        super().__init__(w_lo, w_hi)
        self.fit_Z = fit_Z
        self.fit_C = fit_C
        self._weights = raw_weights
        self.objectives = objectives
        self.fit_indices = fit_indices

    def _raw(self, C, Z):
        if Z.shape != self.fit_Z.shape or not np.array_equal(Z, self.fit_Z):
            raise ValueError("KMM weights are defined only at the samples they were fit on")
        if self.fit_C is not None and C is not None:
            C = np.asarray(C, dtype=float)
            if C.ndim == 1:
                C = C[:, None]
            if not np.array_equal(C, self.fit_C):
                raise ValueError("KMM weights are defined only at the samples they were fit on")
        return self._weights


def _subsample(X, rng: RngStream):
    if X.shape[0] <= KMM_MAX_SAMPLES:
        return X, np.arange(X.shape[0])
    idx = np.sort(rng.generator.choice(X.shape[0], size=KMM_MAX_SAMPLES, replace=False))
    return X[idx], idx


def _kmm_ratio(quad, lin, fit_Z, fit_C, fit_indices, clip) -> KmmRatio:
    """Minimize (1/2) w'Q w - lin'w, Q = quad + 1e-12 I, over 0 <= w <= KMM_CAP
    and |mean(w) - 1| <= (sqrt(n) - 1) / sqrt(n), the mean band of Huang et
    al. (2007), by KMM_ITERATIONS projected-gradient steps from w == 1.

    Step size 1/L with L the largest eigenvalue of Q; with the exact
    projection this is monotone in the objective, and the model keeps the
    objective before each step and after the last.
    """
    n = lin.size
    quad = quad + 1e-12 * np.eye(n)
    slack = (np.sqrt(n) - 1.0) / np.sqrt(n)
    lo, hi = 1.0 - slack, 1.0 + slack
    step = 1.0 / max(float(np.linalg.eigvalsh(quad)[-1]), 1e-12)
    w = np.ones(n)  # already in the capped mean band
    objs = []
    for _ in range(KMM_ITERATIONS):
        qw = quad @ w
        objs.append(0.5 * w @ qw - lin @ w)
        w = project_box_meanband(w - step * (qw - lin), KMM_CAP, lo, hi)
    objs.append(0.5 * w @ (quad @ w) - lin @ w)
    return KmmRatio(fit_Z, fit_C, w, *clip, np.array(objs), fit_indices)


def _fit_kmm(Z, C, test_z, clip, rng: RngStream) -> KmmRatio:
    """Both KMM kinds, the label kind when train costs C are given: subsample
    each side (train first), then median-bandwidth Gram matrices of covariates."""
    Ztr = np.atleast_2d(np.asarray(Z, dtype=float))
    Zte = np.atleast_2d(np.asarray(test_z, dtype=float))
    if Ztr.shape[0] < 2 or Zte.shape[0] < 2:
        raise ValueError("KMM requires at least two samples on each side")
    Ztr, idx = _subsample(Ztr, rng)
    Zte, _ = _subsample(Zte, rng)
    n, m = Ztr.shape[0], Zte.shape[0]
    bz = median_bandwidth(Ztr)
    K = gaussian_gram(Ztr, Ztr, bz)
    kte = gaussian_gram(Ztr, Zte, bz).sum(axis=1)
    if C is None:
        return _kmm_ratio(2.0 * K / (n * n), 2.0 * kte / (n * m), Ztr, None, idx, clip)
    Ctr = C[idx]
    H = gaussian_gram(Ctr, Ctr, median_bandwidth(Ctr))
    B = solve_spd(H + KMM_RIDGE * n * np.eye(n), H)
    quad = 2.0 * (B.T @ K @ B) / (n * n)
    return _kmm_ratio(0.5 * (quad + quad.T), 2.0 * (B.T @ kte) / (n * m), Ztr, Ctr, idx, clip)


def fit_kmm_covariate(train_z, test_z, clip, rng: RngStream) -> KmmRatio:
    """Match kernel mean embeddings of the weighted train covariates to the
    test covariates: minimize (1/N^2) w'Kw - (2/(NM)) w'K_te 1 over the
    capped mean band of _kmm_ratio, with a Gaussian kernel of median
    bandwidth. Each side is first cut to KMM_MAX_SAMPLES rows drawn from
    ``rng``."""
    return _fit_kmm(train_z, None, test_z, clip, rng)


def fit_kmm_label(train: Dataset, test_z, clip, rng: RngStream) -> KmmRatio:
    """Label-shift KMM through the empirical conditional embedding.

    With K, K_te Gaussian Gram matrices over covariates and H over costs
    (median bandwidths), B = (H + lam I)^{-1} H and lam = KMM_RIDGE * N, the
    embedding-matching loss expands to
    (1/N^2) w'B'KBw - (2/(NM)) w'B'K_te 1 + const; minimized over the same
    capped mean band as the covariate variant, after the same subsampling.
    """
    return _fit_kmm(train.Z, train.C, test_z, clip, rng)


# ---------------------------------------------------------------------------
# exact Gaussian oracles for the toy worlds
# ---------------------------------------------------------------------------

class GaussianOracleRatio(RatioModel):
    """Exact q/p for a 1-d Gaussian ToyScenario, which has checked its sigmas
    and shift kind.

    Covariate shift: w(z) = exp((2 z s - s^2) / (2 sigma1^2)).
    Label shift:     w(c) = exp((2 c s - s^2) / (2 (sigma1^2 + sigma2^2))).
    """

    def __init__(self, scenario, w_lo: float, w_hi: float):
        super().__init__(w_lo, w_hi)
        self.scenario = scenario

    def _raw(self, C, Z):
        scn = self.scenario
        s = scn.shift
        if scn.kind == "covariate":
            z = Z[:, 0]
            return np.exp((2.0 * z * s - s * s) / (2.0 * scn.sigma1 ** 2))
        if C is None:
            raise ValueError("label-shift oracle needs cost values")
        c = np.asarray(C, dtype=float).reshape(-1)
        var = scn.sigma1 ** 2 + scn.sigma2 ** 2
        return np.exp((2.0 * c * s - s * s) / (2.0 * var))

