"""Data generators and LP builders for the four experiment worlds:

* toy: 1-d Gaussian c = z + eps with covariate or label shift of size s,
* simple: multi-d covariates, c = (sign(z1) + eps) * sqrt(|z1|), mean shift
  0 -> shift * 1_d,
* grid: shortest path on a 5x5 grid, 40 undirected edges, costs driven by a
  frozen Bernoulli coefficient matrix,
* knapsack: 20 items with squared-link utilities, budgeted fractional choice.

Generators are deterministic given (scenario, RngStream, phase, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp import BoxSet, LinearProgram, robustify_box
from .numerics import RngStream
from .predictors import Dataset

TRAIN = "train"
TEST = "test"
GRID_COST_FLOOR = 0.01


def _check_phase(phase):
    if phase not in (TRAIN, TEST):
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")


@dataclass(frozen=True)
class ToyScenario:
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

    @property
    def n_cost(self) -> int:
        return 1

    def _phase_means(self, phase):
        # Under the shifted law both z and eps pick up mean offsets; for
        # covariate shift only z moves, for label shift the joint splits as
        # z ~ N(s1^2 s / (s1^2 + s2^2), s1^2), eps ~ N(s2^2 s / (..), s2^2).
        if phase == TRAIN or self.shift == 0.0:
            return 0.0, 0.0
        if self.kind == "covariate":
            return self.shift, 0.0
        total = self.sigma1 ** 2 + self.sigma2 ** 2
        return self.sigma1 ** 2 * self.shift / total, self.sigma2 ** 2 * self.shift / total

    def sample(self, n: int, rng: RngStream, phase: str = TRAIN) -> Dataset:
        _check_phase(phase)
        if n < 1:
            raise ValueError("need at least one sample")
        mz, me = self._phase_means(phase)
        z = rng.gaussian(mz, self.sigma1 ** 2, size=n)
        eps = rng.gaussian(me, self.sigma2 ** 2, size=n)
        return Dataset(z[:, None], (z + eps)[:, None])

    def sample_costs_given(self, z, n_mc: int, rng: RngStream,
                           phase: str = TEST) -> np.ndarray:
        """Draws of c | z under the phase law, shape (n_mc, 1)."""
        _check_phase(phase)
        _, me = self._phase_means(phase)
        z0 = float(np.atleast_1d(np.asarray(z, dtype=float))[0])
        eps = rng.gaussian(me, self.sigma2 ** 2, size=n_mc)
        return (z0 + eps)[:, None]

    def decision_lp(self) -> LinearProgram:
        """min c*x over -1 <= x <= 1 (objective filled by the robust layer)."""
        return LinearProgram(c=[0.0], A=np.zeros((0, 1)), b=[],
                             lo=[-1.0], hi=[1.0])


@dataclass(frozen=True)
class SimpleScenario:
    """Multi-d covariates; c = (sign(z1) + eps) * sqrt(|z1|), eps ~ N(0, 0.1)."""

    d: int = 4
    noise_var: float = 0.1
    shift: float = 1.0           # test mean is shift * 1_d

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")

    @property
    def n_cost(self) -> int:
        return 1

    def _mean(self, phase):
        return np.full(self.d, self.shift) if phase == TEST else np.zeros(self.d)

    def sample(self, n: int, rng: RngStream, phase: str = TRAIN) -> Dataset:
        _check_phase(phase)
        if n < 1:
            raise ValueError("need at least one sample")
        z = rng.gaussian(0.0, 1.0, size=(n, self.d)) + self._mean(phase)
        eps = rng.gaussian(0.0, self.noise_var, size=n)
        c = (np.sign(z[:, 0]) + eps) * np.sqrt(np.abs(z[:, 0]))
        return Dataset(z, c[:, None])

    def sample_costs_given(self, z, n_mc: int, rng: RngStream,
                           phase: str = TEST) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        eps = rng.gaussian(0.0, self.noise_var, size=n_mc)
        c = (np.sign(z[0]) + eps) * np.sqrt(np.abs(z[0]))
        return c[:, None]

    def decision_lp(self) -> LinearProgram:
        return LinearProgram(c=[0.0], A=np.zeros((0, 1)), b=[],
                             lo=[-1.0], hi=[1.0])


def _grid_edges(side: int = 5):
    edges = []
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges.append(((i, j), (i, j + 1)))
            if i + 1 < side:
                edges.append(((i, j), (i + 1, j)))
    return edges


@dataclass(frozen=True)
class GridScenario:
    """5x5 shortest-path world: 40 edges, costs ((Theta z / sqrt(d) + 3)^5 + 1) * eps."""

    d: int = 10
    shift: float = 1.0
    theta_seed: int = 7
    theta: np.ndarray = field(init=False)
    edges: tuple = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        edges = _grid_edges(5)
        theta = RngStream(self.theta_seed, 900).bernoulli(0.5, size=(len(edges), self.d))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_cost(self) -> int:
        return self.n_edges

    def _mean(self, phase):
        return np.full(self.d, self.shift) if phase == TEST else np.zeros(self.d)

    def _edge_costs(self, z, noise):
        base = (self.theta @ np.asarray(z, dtype=float) / np.sqrt(self.d) + 3.0) ** 5 + 1.0
        return np.maximum(base * noise, GRID_COST_FLOOR)

    def sample(self, n: int, rng: RngStream, phase: str = TRAIN) -> Dataset:
        _check_phase(phase)
        if n < 1:
            raise ValueError("need at least one sample")
        z = rng.gaussian(0.0, 1.0, size=(n, self.d)) + self._mean(phase)
        noise = rng.uniform(0.75, 1.25, size=(n, self.n_edges))
        costs = np.array([self._edge_costs(z[i], noise[i]) for i in range(n)])
        return Dataset(z, costs)

    def sample_costs_given(self, z, n_mc: int, rng: RngStream,
                           phase: str = TEST) -> np.ndarray:
        noise = rng.uniform(0.75, 1.25, size=(n_mc, self.n_edges))
        return self._edge_costs(z, noise)


def build_shortest_path_lp(scn: GridScenario) -> LinearProgram:
    """Flow LP template: 80 directed arcs, 25 conservation rows, x >= 0.

    Source is the top-left node, sink the bottom-right; the objective is a
    placeholder to be filled with (duplicated) arc costs per test point.
    """
    nodes = [(i, j) for i in range(5) for j in range(5)]
    index = {v: k for k, v in enumerate(nodes)}
    arcs = []
    for (u, v) in scn.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    A = np.zeros((len(nodes), len(arcs)))
    for k, (u, v) in enumerate(arcs):
        A[index[u], k] += 1.0
        A[index[v], k] -= 1.0
    b = np.zeros(len(nodes))
    b[index[(0, 0)]] = 1.0
    b[index[(4, 4)]] = -1.0
    n = len(arcs)
    return LinearProgram(c=np.zeros(n), A=A, b=b,
                         lo=np.zeros(n), hi=np.full(n, np.inf))


def duplicate_edge_costs(scn: GridScenario, edge_values) -> np.ndarray:
    """Map a 40-edge vector onto the 80 directed arcs (both directions equal)."""
    v = np.asarray(edge_values, dtype=float)
    if v.shape != (scn.n_edges,):
        raise ValueError(f"expected {scn.n_edges} edge values")
    return np.repeat(v, 2)


def trace_path(scn: GridScenario, x, tol: float = 1e-6):
    """Validate that x is a 0/1 flow tracing a connected source-sink path.

    Returns the node sequence; raises ValueError when x is fractional or
    disconnected.
    """
    x = np.asarray(x, dtype=float)
    rounded = np.round(x)
    if np.max(np.abs(x - rounded)) > tol or np.any((rounded != 0) & (rounded != 1)):
        raise ValueError("solution is not a 0/1 arc vector")
    arcs = []
    for (u, v) in scn.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    chosen = {u: v for (u, v), val in zip(arcs, rounded) if val == 1}
    if len(chosen) != int(rounded.sum()):
        raise ValueError("solution revisits a node")
    path = [(0, 0)]
    seen = {(0, 0)}
    while path[-1] != (4, 4):
        nxt = chosen.get(path[-1])
        if nxt is None or nxt in seen:
            raise ValueError("solution does not trace a simple source-sink path")
        path.append(nxt)
        seen.add(nxt)
    if len(path) - 1 != int(rounded.sum()):
        raise ValueError("solution contains arcs off the source-sink path")
    return path


@dataclass(frozen=True)
class KnapsackScenario:
    """20 items; utilities c = (Theta z)^2 * eps, eps ~ U(4/5, 6/5); budgeted."""

    d: int = 10
    n_items: int = 20
    shift: float = 1.0
    theta_seed: int = 11
    budget_fraction: float = 0.3
    theta: np.ndarray = field(init=False)
    prices: np.ndarray = field(init=False)
    budget: float = field(init=False)

    def __post_init__(self):
        if self.d < 1 or self.n_items < 1:
            raise ValueError("dimensions must be positive")
        stream = RngStream(self.theta_seed, 901)
        theta = stream.bernoulli(0.5, size=(self.n_items, self.d))
        prices = stream.uniform(1.0, 10.0, size=self.n_items)
        budget = self.budget_fraction * float(prices.sum())
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "budget", budget)

    @property
    def n_cost(self) -> int:
        return self.n_items

    def _mean(self, phase):
        return np.full(self.d, self.shift) if phase == TEST else np.zeros(self.d)

    def _utilities(self, z, noise):
        return (self.theta @ np.asarray(z, dtype=float)) ** 2 * noise

    def sample(self, n: int, rng: RngStream, phase: str = TRAIN) -> Dataset:
        _check_phase(phase)
        if n < 1:
            raise ValueError("need at least one sample")
        z = rng.gaussian(0.0, 1.0, size=(n, self.d)) + self._mean(phase)
        noise = rng.uniform(0.8, 1.2, size=(n, self.n_items))
        utils = np.array([self._utilities(z[i], noise[i]) for i in range(n)])
        return Dataset(z, utils)

    def sample_costs_given(self, z, n_mc: int, rng: RngStream,
                           phase: str = TEST) -> np.ndarray:
        noise = rng.uniform(0.8, 1.2, size=(n_mc, self.n_items))
        return self._utilities(z, noise)


def build_knapsack_lp(scn: KnapsackScenario, utility_box: BoxSet) -> LinearProgram:
    """Robust LP for min -c'x s.t. p'x <= B, 0 <= x <= 1, c in the box.

    The utility box [l, u] maps to the objective-coefficient box [-u, -l];
    the budget row carries a nonnegative slack.
    """
    k = scn.n_items
    if utility_box.dim != k:
        raise ValueError(f"box dimension {utility_box.dim} != {k} items")
    if scn.budget < 0:
        raise ValueError("budget must be nonnegative")
    A = np.hstack([scn.prices[None, :], np.ones((1, 1))])
    base = LinearProgram(
        c=np.zeros(k + 1), A=A, b=[scn.budget],
        lo=np.zeros(k + 1), hi=np.concatenate([np.ones(k), [np.inf]]))
    coeff = BoxSet(np.concatenate([-utility_box.upper, [0.0]]),
                   np.concatenate([-utility_box.lower, [0.0]]))
    return robustify_box(base, coeff)
