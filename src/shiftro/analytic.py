"""Closed-form oracles for the 1-d Gaussian toy worlds and exact finite-world
verification of the weighted-calibration coverage guarantee.

prob_conservative gives P(x* = 0) for the shift-aware decision rule ("oodro")
and for the worst-case distribution-ball comparator ("wsball"); both collapse
to 2*alpha - 1 at shift 0. exact_coverage enumerates every calibration tuple
of a small discrete world and integrates the test point analytically, so the
coverage band can be checked without Monte Carlo error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

from .numerics import alpha_quantile_index, check_alpha, normal_cdf, normal_quantile
from .scenarios import TEST

OODRO = "oodro"
WSBALL = "wsball"


def conditional_test_mean(z, scn) -> float:
    """Mean of c | z under the shifted law: z plus the test noise mean, which
    is zero under covariate shift and s2^2 s / (s1^2 + s2^2) under label
    shift (from conditioning the shifted joint)."""
    z0 = float(np.atleast_1d(np.asarray(z, dtype=float))[0])
    return z0 + scn.phase_means(TEST)[1]


def oracle_toy_decision(z, scn, alpha: float) -> int:
    """Shift-aware quantile decision on [-1, 1]: +1, -1, or the guarded 0.

    Branch order is fixed: take +1 when the upper conditional quantile is
    nonpositive, then -1 when the lower one is nonnegative, else 0.
    """
    check_alpha(alpha, 0.5)
    mean = conditional_test_mean(z, scn)
    spread = scn.sigma2 * normal_quantile(alpha)
    if mean + spread <= 0:       # VaR_alpha(c|z) <= 0
        return 1
    if mean - spread >= 0:       # VaR_{1-alpha}(c|z) >= 0
        return -1
    return 0


def worst_case_radius(scn) -> float:
    """Distribution-ball radius needed to cover the shifted law: the length
    of its mean shift in (z, c), where c = z + eps."""
    m_z, m_eps = scn.phase_means(TEST)
    return np.hypot(m_z, m_z + m_eps)


def prob_conservative(scn, alpha: float, method: str = OODRO) -> float:
    """P(x* = 0) under the shifted test law for either decision method."""
    check_alpha(alpha, 0.5)
    q = normal_quantile(alpha)
    ratio = scn.sigma2 / scn.sigma1
    if method == OODRO:
        # identical closed form for both shift kinds
        half, drift = ratio * q, scn.shift / scn.sigma1
    elif method == WSBALL:
        # z / sigma1 is N(drift, 1) under the test law
        half = ratio * q + worst_case_radius(scn) / scn.sigma1
        drift = scn.phase_means(TEST)[0] / scn.sigma1
    else:
        raise ValueError(f"unknown method {method!r}")
    # P(|drift + N(0, 1)| < half)
    return float(normal_cdf(half - drift) - normal_cdf(-half - drift))


def tv_distance(p, q) -> float:
    """Total variation distance between two pmfs on a shared finite support."""
    pv = np.atleast_1d(np.asarray(p, dtype=float))
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    if pv.shape != qv.shape:
        raise ValueError("pmfs must share a support")
    for v in (pv, qv):
        if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError("inputs must be pmfs summing to 1")
    return float(0.5 * np.sum(np.abs(pv - qv)))


@dataclass(frozen=True)
class DiscreteWorld:
    """Finite (c, z) support with training pmf p and test pmf q.

    Conformal scores use the fixed trivial models f == 0, h == 1, so the
    score of support point i is |c_i|; supports are constructed with
    pairwise-distinct scores.
    """

    C: np.ndarray
    Z: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        C = np.atleast_1d(np.asarray(self.C, dtype=float))
        Z = np.atleast_1d(np.asarray(self.Z, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if not (C.shape == Z.shape == p.shape == q.shape):
            raise ValueError("support arrays must align")
        for v in (p, q):
            if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
                raise ValueError("p and q must be pmfs summing to 1")
        if np.any(p <= 0):
            raise ValueError("training pmf must be strictly positive (ratios q/p)")
        scores = np.abs(C)
        if np.unique(scores).size != scores.size:
            raise ValueError("conformal scores |c| must be pairwise distinct")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def size(self) -> int:
        return self.C.size

    @property
    def scores(self) -> np.ndarray:
        return np.abs(self.C)

    @property
    def true_ratio(self) -> np.ndarray:
        return self.q / self.p

    def q_hat(self, weights) -> np.ndarray:
        """Estimated test pmf w*p normalized, from one weight per support point."""
        w = self._weight_values(weights)
        raw = w * self.p
        return raw / raw.sum()

    def _weight_values(self, weights) -> np.ndarray:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != self.C.shape or np.any(w <= 0) or np.any(~np.isfinite(w)):
            raise ValueError("weights must be positive and finite on the support")
        return w


def coverage_band(weights, n_cal: int) -> float:
    """(1 / (n_cal + 1)) * (max w / min w), the calibration error band."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    return float(w.max() / w.min()) / (n_cal + 1)


@cache
def _multisets(k: int, n: int):
    """All score-sorted calibration draws as multisets with multinomial counts."""
    rows = np.array(list(combinations_with_replacement(range(k), n)), dtype=int)
    coefs = np.empty(rows.shape[0])
    n_fact = factorial(n)
    for i, row in enumerate(rows):
        counts = np.bincount(row, minlength=k)
        denom = 1
        for c in counts:
            denom *= factorial(int(c))
        coefs[i] = n_fact / denom
    return rows, coefs


def exact_coverage(world: DiscreteWorld, n_cal: int, alpha: float, weights) -> float:
    """Exact P(c_new in box(z_new)) by full enumeration of calibration draws.

    The n_cal i.i.d. draws from p enter the weighted quantile only through
    their score-sorted multiset, so the k^n_cal tuples collapse into
    C(k + n_cal - 1, n_cal) multisets carrying multinomial probabilities; the
    test point integrates over q analytically. Guarded to <= 1e6 tuples.
    Raises ValueError when a draw's weight sum overflows, as select_eta does.
    """
    k = world.size
    if k ** n_cal > 1_000_000:
        raise ValueError("enumeration would exceed the 1e6-tuple guard")
    w = world._weight_values(weights)
    scores = world.scores

    order = np.argsort(scores)
    sorted_scores = scores[order]
    p_s = world.p[order]
    w_s = w[order]
    q_cum = np.cumsum(world.q[order])

    rows, coefs = _multisets(k, n_cal)        # rows ascending -> scores ascending
    probs = coefs * np.prod(p_s[rows], axis=1)

    # select_eta's rule, on every draw at once
    first = alpha_quantile_index(w_s[rows], alpha)
    etas = sorted_scores[rows[np.arange(rows.shape[0]), first]]

    # coverage of a fresh q-draw: q-mass of support scores <= eta
    pos = np.searchsorted(sorted_scores, etas, side="right")
    cov = np.where(pos > 0, q_cum[np.maximum(pos - 1, 0)], 0.0)
    return float(probs @ cov)

