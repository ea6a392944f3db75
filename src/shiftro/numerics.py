"""Gaussian special functions, SPD solves, and seeded random streams.

Everything downstream (solvers, predictors, calibration, scenario generators)
builds on this module. All functions are pure; RngStream instances are the
only stateful objects and each concurrent task should own its stream.

numpy is the only runtime dependency: solve_spd factors with numpy's own
Cholesky. Importing ``scipy.linalg`` would cost a process about 20 MB of
memory and a quarter of a second, more than the rest of the package, for
solves of at most a few hundred unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def normal_cdf(x) -> float:
    """Standard normal CDF of a scalar; error < 1e-15."""
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError("normal_cdf requires finite input")
    return 0.5 * (1.0 + math.erf(xf / _SQRT2))


def normal_quantile(p) -> float:
    """Inverse standard normal CDF of a scalar on (0, 1)."""
    pf = float(p)
    if not (0.0 < pf < 1.0):
        raise ValueError(f"normal_quantile requires p in (0, 1), got {pf}")
    return _STD_NORMAL.inv_cdf(pf)


def solve_spd(mat, rhs):
    """Solve M @ x = rhs for symmetric positive definite M via Cholesky.

    ``rhs`` is a vector or a matrix of right-hand sides. Raises ValueError on
    mismatched shapes or non-finite entries, and numpy.linalg.LinAlgError
    when M is not SPD (asymmetry or a nonpositive Cholesky pivot).
    """
    m = np.asarray(mat, dtype=float)
    r = np.asarray(rhs, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if r.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D rhs, got shape {r.shape}")
    if r.shape[0] != m.shape[0]:
        raise ValueError("rhs length does not match matrix size")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(r))):
        raise ValueError("solve_spd requires finite input")
    scale = np.max(np.abs(m)) if m.size else 1.0
    if not np.allclose(m, m.T, atol=1e-10 * max(scale, 1.0)):
        raise np.linalg.LinAlgError("matrix is not symmetric")
    # two triangular solves through L match LAPACK's potrs (scipy's
    # cho_solve) in more last bits than one np.linalg.solve(m, r) does
    L = np.linalg.cholesky(m)
    return np.linalg.solve(L.T, np.linalg.solve(L, r))


_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class RngStream:
    """Counter-based random stream keyed by (seed, index).

    Identical (seed, index) pairs reproduce identical draw sequences, and
    distinct indices under the same seed give statistically independent
    streams, so parallel replications can be keyed deterministically.
    """

    seed: int
    index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0 or self.index < 0:
            raise ValueError("seed and index must be nonnegative")
        key = np.array([np.uint64(self.seed) & _U64, np.uint64(self.index) & _U64],
                       dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def gaussian(self, mean: float, var: float, size=None):
        """Normal draw parameterized by (mean, variance)."""
        if var < 0:
            raise ValueError(f"variance must be nonnegative, got {var}")
        return self._gen.normal(mean, math.sqrt(var), size=size)

    def uniform(self, low: float, high: float, size=None):
        if low > high:
            raise ValueError(f"uniform requires low <= high, got ({low}, {high})")
        return self._gen.uniform(low, high, size=size)

    def bernoulli(self, p: float, size=None):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"bernoulli requires p in [0, 1], got {p}")
        out = (self._gen.random(size) < p)
        return out.astype(float) if size is not None else float(out)

