"""Data generators and LP builders for the four experiment worlds:

* toy: 1-d Gaussian c = z + eps with covariate or label shift of size s,
* simple: multi-d covariates, c = (sign(z1) + eps) * sqrt(|z1|), mean shift
  0 -> shift * 1_d,
* grid: shortest path on a 5x5 grid, 40 undirected edges, costs driven by a
  frozen Bernoulli coefficient matrix,
* knapsack: 20 items with squared-link utilities, budgeted fractional choice.

Each world states its law once: a covariate draw, a noise draw and a block
cost map, which ``sample`` and ``sample_costs_given`` share. Each also names
its decision LP (``decision_lp``, built once per world) and the map from cost
rows to that LP's objective coefficients (``lp_costs``). Generators are
deterministic given (scenario, RngStream, phase, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lp import BoxSet, LinearProgram, robustify_box
from .numerics import RngStream
from .predictors import Dataset

TRAIN = "train"
TEST = "test"
SIMPLE_NOISE_VAR = 0.1
KNAPSACK_ITEMS = 20
KNAPSACK_BUDGET_FRACTION = 0.3   # budget as a share of the items' total price
GRID_COST_FLOOR = 0.01
GRID_FLOW_TOL = 1e-6    # largest distance of an arc flow from 0 or 1
GRID_SIDE = 5
GRID_SOURCE = (0, 0)
GRID_SINK = (GRID_SIDE - 1, GRID_SIDE - 1)
# the grid's 40 undirected edges (right, then down, from each node) and their
# 80 directed arcs, the two directions of an edge side by side
GRID_EDGES = tuple(((i, j), nxt) for i in range(GRID_SIDE) for j in range(GRID_SIDE)
                   for nxt in ((i, j + 1), (i + 1, j)) if max(nxt) < GRID_SIDE)
GRID_ARCS = tuple(arc for u, v in GRID_EDGES for arc in ((u, v), (v, u)))


def _check_draw(phase, n):
    if phase not in (TRAIN, TEST):
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    if n < 1:
        raise ValueError("need at least one sample")


def _rowwise_matvec(theta, Z):
    """theta @ z for every row z of Z (or of a single row broadcast).

    The batched matmul gives each row the bytes of a per-row ``theta @ z``;
    ``Z @ theta.T`` sums in another order.
    """
    return np.matmul(theta, Z[..., None])[..., 0]


class _World:
    """Sampling and the sign-decision LP shared by the four worlds.

    A subclass draws covariates with ``_covariates(n, rng, phase)`` (an
    ``(n, d)`` block), noise with ``_noise(n, rng, phase)``, and maps both to
    cost rows with ``_costs(Z, noise)``, where ``Z`` is either the covariate
    block or one row broadcast over the noise rows.
    """

    @property
    def n_cost(self) -> int:
        return 1

    def sample(self, n: int, rng: RngStream, phase: str = TRAIN) -> Dataset:
        _check_draw(phase, n)
        Z = self._covariates(n, rng, phase)
        return Dataset(Z, self._costs(Z, self._noise(n, rng, phase)))

    def sample_costs_given(self, z, n_mc: int, rng: RngStream,
                           phase: str = TEST) -> np.ndarray:
        """Draws of c | z under the phase law, shape (n_mc, n_cost)."""
        _check_draw(phase, n_mc)
        z = np.asarray(z, dtype=float).reshape(1, -1)
        return self._costs(z, self._noise(n_mc, rng, phase))

    @cached_property
    def decision_lp(self) -> LinearProgram:
        """The world's decision LP, here min c*x over -1 <= x <= 1. It is
        built once per world, so that each row's robust LP starts from its
        cached layout (the objective is filled by the robust layer)."""
        return LinearProgram(c=[0.0], A=np.zeros((0, 1)), b=[],
                             lo=[-1.0], hi=[1.0])

    def lp_costs(self, C):
        """Objective coefficients of the decision for cost rows C."""
        return C


@dataclass(frozen=True)
class ToyScenario(_World):
    """1-d world: c = z + eps; P has z ~ N(0, s1^2), eps ~ N(0, s2^2)."""

    sigma1: float = 1.0
    sigma2: float = 1.0
    shift: float = 0.0
    kind: str = "covariate"      # "covariate" | "label"

    def __post_init__(self):
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("sigma1 and sigma2 must be positive")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.kind not in ("covariate", "label"):
            raise ValueError(f"unknown shift kind {self.kind!r}")

    @property
    def d(self) -> int:
        return 1

    def phase_means(self, phase):
        """Means of (z, eps) under the phase law.

        Under the shifted law both z and eps pick up mean offsets; for
        covariate shift only z moves, for label shift the joint splits as
        z ~ N(s1^2 s / (s1^2 + s2^2), s1^2), eps ~ N(s2^2 s / (..), s2^2).
        """
        if phase == TRAIN or self.shift == 0.0:
            return 0.0, 0.0
        if self.kind == "covariate":
            return self.shift, 0.0
        total = self.sigma1 ** 2 + self.sigma2 ** 2
        return self.sigma1 ** 2 * self.shift / total, self.sigma2 ** 2 * self.shift / total

    def _covariates(self, n, rng, phase):
        return rng.gaussian(self.phase_means(phase)[0], self.sigma1 ** 2, size=(n, 1))

    def _noise(self, n, rng, phase):
        return rng.gaussian(self.phase_means(phase)[1], self.sigma2 ** 2, size=(n, 1))

    def _costs(self, Z, eps):
        return Z + eps


class _GaussianCovariates(_World):
    """d-dim worlds: z ~ N(0, I_d) in training, N(shift * 1_d, I_d) at test."""

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")

    def _covariates(self, n, rng, phase):
        mean = np.full(self.d, self.shift) if phase == TEST else np.zeros(self.d)
        return rng.gaussian(0.0, 1.0, size=(n, self.d)) + mean


@dataclass(frozen=True)
class SimpleScenario(_GaussianCovariates):
    """Multi-d covariates; c = (sign(z1) + eps) * sqrt(|z1|), eps ~ N(0, 0.1)."""

    d: int = 4
    shift: float = 1.0           # test mean is shift * 1_d

    def _noise(self, n, rng, phase):
        return rng.gaussian(0.0, SIMPLE_NOISE_VAR, size=n)

    def _costs(self, Z, eps):
        z1 = Z[:, 0]
        return ((np.sign(z1) + eps) * np.sqrt(np.abs(z1)))[:, None]


@dataclass(frozen=True)
class GridScenario(_GaussianCovariates):
    """5x5 shortest-path world: 40 edges, costs ((Theta z / sqrt(d) + 3)^5 + 1) * eps."""

    d: int = 10
    shift: float = 1.0
    theta_seed: int = 7
    theta: np.ndarray = field(init=False, compare=False)   # derived from theta_seed

    def __post_init__(self):
        super().__post_init__()
        theta = RngStream(self.theta_seed, 900).bernoulli(0.5, size=(self.n_cost, self.d))
        object.__setattr__(self, "theta", theta)

    @property
    def n_cost(self) -> int:
        return len(GRID_EDGES)

    def _noise(self, n, rng, phase):
        return rng.uniform(0.75, 1.25, size=(n, self.n_cost))

    def _costs(self, Z, noise):
        base = (_rowwise_matvec(self.theta, Z) / np.sqrt(self.d) + 3.0) ** 5 + 1.0
        return np.maximum(base * noise, GRID_COST_FLOOR)

    @cached_property
    def decision_lp(self) -> LinearProgram:
        return build_shortest_path_lp(self)

    def lp_costs(self, C):
        """Arc costs: each edge's cost on both of its directed arcs."""
        return np.repeat(C, 2, axis=-1)


def build_shortest_path_lp(scn: GridScenario) -> LinearProgram:
    """Flow LP template: 80 directed arcs, 25 conservation rows, x >= 0.

    Source is the top-left node, sink the bottom-right; the objective is a
    placeholder to be filled with (duplicated) arc costs per test point.
    """
    A = np.zeros((GRID_SIDE * GRID_SIDE, len(GRID_ARCS)))
    for k, ((ui, uj), (vi, vj)) in enumerate(GRID_ARCS):
        A[ui * GRID_SIDE + uj, k] += 1.0
        A[vi * GRID_SIDE + vj, k] -= 1.0
    b = np.zeros(A.shape[0])
    b[GRID_SOURCE[0] * GRID_SIDE + GRID_SOURCE[1]] = 1.0
    b[GRID_SINK[0] * GRID_SIDE + GRID_SINK[1]] = -1.0
    n = len(GRID_ARCS)
    return LinearProgram(c=np.zeros(n), A=A, b=b,
                         lo=np.zeros(n), hi=np.full(n, np.inf))


def trace_path(scn: GridScenario, x):
    """Validate that x is a 0/1 flow tracing a connected source-sink path.

    Returns the node sequence; raises ValueError when x is fractional or
    disconnected.
    """
    x = np.asarray(x, dtype=float)
    rounded = np.round(x)
    if np.max(np.abs(x - rounded)) > GRID_FLOW_TOL or np.any((rounded != 0) & (rounded != 1)):
        raise ValueError("solution is not a 0/1 arc vector")
    chosen = {u: v for (u, v), val in zip(GRID_ARCS, rounded) if val == 1}
    if len(chosen) != int(rounded.sum()):
        raise ValueError("solution revisits a node")
    path = [GRID_SOURCE]
    seen = {GRID_SOURCE}
    while path[-1] != GRID_SINK:
        nxt = chosen.get(path[-1])
        if nxt is None or nxt in seen:
            raise ValueError("solution does not trace a simple source-sink path")
        path.append(nxt)
        seen.add(nxt)
    if len(path) - 1 != int(rounded.sum()):
        raise ValueError("solution contains arcs off the source-sink path")
    return path


@dataclass(frozen=True)
class KnapsackScenario(_GaussianCovariates):
    """20 items; utilities c = (Theta z)^2 * eps, eps ~ U(4/5, 6/5); budgeted."""

    d: int = 10
    shift: float = 1.0
    theta_seed: int = 11
    # derived from theta_seed, so a world compares and hashes by (d, shift, theta_seed)
    theta: np.ndarray = field(init=False, compare=False)
    prices: np.ndarray = field(init=False, compare=False)
    budget: float = field(init=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        stream = RngStream(self.theta_seed, 901)
        theta = stream.bernoulli(0.5, size=(KNAPSACK_ITEMS, self.d))
        prices = stream.uniform(1.0, 10.0, size=KNAPSACK_ITEMS)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "budget", KNAPSACK_BUDGET_FRACTION * float(prices.sum()))

    @property
    def n_cost(self) -> int:
        return KNAPSACK_ITEMS

    def _noise(self, n, rng, phase):
        return rng.uniform(0.8, 1.2, size=(n, KNAPSACK_ITEMS))

    def _costs(self, Z, noise):
        return _rowwise_matvec(self.theta, Z) ** 2 * noise

    @cached_property
    def decision_lp(self) -> LinearProgram:
        """min 0'x s.t. p'x + slack = B, 0 <= x <= 1, slack >= 0."""
        k = self.n_cost
        A = np.hstack([self.prices[None, :], np.ones((1, 1))])
        return LinearProgram(c=np.zeros(k + 1), A=A, b=[self.budget],
                             lo=np.zeros(k + 1), hi=np.concatenate([np.ones(k), [np.inf]]))

    def lp_costs(self, C):
        """Minimization costs: the negated utilities."""
        return -C


def build_knapsack_lp(scn: KnapsackScenario, utility_box: BoxSet) -> LinearProgram:
    """Robust LP for min -c'x s.t. p'x <= B, 0 <= x <= 1, c in the box.

    The utility box [l, u] maps to the objective-coefficient box [-u, -l];
    the budget slack costs nothing.
    """
    if utility_box.dim != scn.n_cost:
        raise ValueError(f"box dimension {utility_box.dim} != {scn.n_cost} items")
    coeff = BoxSet(np.append(scn.lp_costs(utility_box.upper), 0.0),
                   np.append(scn.lp_costs(utility_box.lower), 0.0))
    return robustify_box(scn.decision_lp, coeff)
