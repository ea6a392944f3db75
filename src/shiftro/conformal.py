"""Confidence adjustment: residual scores, weighted minimal-scale selection,
and uncertainty-box emission.

The per-sample score is the smallest eta whose box f(z) +- eta*h(z) covers
the observed cost componentwise; the calibrated eta is the smallest score at
which the weighted empirical coverage reaches alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import BoxSet
from .predictors import Dataset


@dataclass(frozen=True)
class CalibScores:
    """Per-sample nonnegative scores with their raw density-ratio weights."""

    scores: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scores, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if s.shape != w.shape:
            raise ValueError("scores and weights must align")
        if s.size == 0:
            raise ValueError("calibration set must be nonempty")
        if np.any(~np.isfinite(s)) or np.any(s < 0):
            raise ValueError("scores must be finite and nonnegative")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "weights", w)


def calib_scores(d2: Dataset, mean_model, quantile_model, ratio_model) -> CalibScores:
    """Scores eta_i = max_k |c_ik - f(z_i)_k| / h(z_i)_k on the calibration set.

    h predictions are already floored, so scores are always defined. Weights
    come from the ratio model at (c_i, z_i), clipped to its bounds.
    """
    if d2.n == 0:
        raise ValueError("calibration set must be nonempty")
    resid = np.abs(d2.C - mean_model.predict(d2.Z))
    widths = quantile_model.predict(d2.Z)
    if resid.shape != widths.shape:
        raise ValueError("mean and quantile models disagree on the cost dimension")
    scores = np.max(resid / widths, axis=1)
    weights = ratio_model.weights(d2.C, d2.Z)
    return CalibScores(scores, weights)


def select_eta(scores: CalibScores, alpha: float) -> float:
    """Smallest calibration score whose weighted empirical coverage reaches alpha.

    Sorts scores ascending, accumulates normalized weights, and returns the
    first score with cumulative weight >= alpha (the max score if none
    qualifies, which finite weights rule out).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    order = np.argsort(scores.scores, kind="stable")
    s = scores.scores[order]
    w = scores.weights[order]
    cum = np.cumsum(w)
    hit = np.flatnonzero(cum >= alpha * cum[-1])
    return float(s[hit[0]]) if hit.size else float(s[-1])


def uncertainty_box(z, mean_model, quantile_model, eta: float) -> BoxSet:
    """Box centered at f(z) with halfwidth eta * h(z).

    A covariate vector gives one box. A block of covariates, one per row,
    gives a block box whose bounds hold one row per covariate, from one
    prediction per model.
    """
    Z = np.asarray(z, dtype=float)
    block = Z.ndim == 2
    Z = np.atleast_2d(Z)
    center = mean_model.predict(Z)
    half = eta * quantile_model.predict(Z)
    if not block:
        center, half = center[0], half[0]
    return BoxSet(center - half, center + half)


def box_hits(costs, boxes: BoxSet) -> np.ndarray:
    """Per-row containment of costs (n, k) in a block box with (n, k) bounds."""
    C = np.asarray(costs, dtype=float)
    return np.all((C >= boxes.lower) & (C <= boxes.upper), axis=1)


def empirical_coverage(eval_data: Dataset, boxes: BoxSet) -> float:
    """Fraction of rows whose cost lies in its box componentwise.

    ``boxes`` is a block box with one row per evaluation row, as
    ``uncertainty_box`` builds it.
    """
    if boxes.lower.shape != eval_data.C.shape:
        raise ValueError("need exactly one box per evaluation row")
    return float(np.mean(box_hits(eval_data.C, boxes)))
