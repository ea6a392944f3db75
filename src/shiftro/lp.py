"""Standard-form LP model, a bounded-variable primal simplex, and the exact
box-robust counterpart of the min-max objective.

The solver handles ``min c'x  s.t.  Ax = b,  lo <= x <= hi`` with any mix of
finite and infinite bounds (free variables sit nonbasic at zero). Phase 1
minimizes the sum of artificial infeasibilities; phase 2 locks artificials at
zero and optimizes the true objective. Dantzig pricing runs first, switching
to Bland's rule after ``5 * (n + m)`` pricing steps of a phase (bound flips
count) to guarantee termination on degenerate instances (network LPs in
particular).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7     # primal feasibility ||Ax - b||_inf
OPT_TOL = 1e-9      # reduced-cost optimality threshold
PIVOT_TOL = 1e-10   # smallest acceptable pivot magnitude
_REFACTOR_EVERY = 150
_MAX_PIVOTS = 100_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# nonbasic variable states
_AT_LO = 0
_AT_HI = 1
_FREE0 = 2   # free variable resting at zero
_BASIC = 3


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  A x = b,  lo <= x <= hi (componentwise, +-inf allowed)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, c.size)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else \
            np.zeros(0)
        lo = np.full(c.shape, self.lo, dtype=float)
        hi = np.full(c.shape, self.hi, dtype=float)
        m, n = A.shape
        if c.size != n:
            raise ValueError(f"objective length {c.size} != {n} columns of A")
        if b.size != m:
            raise ValueError(f"rhs length {b.size} != {m} rows of A")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("c, A, b must be finite")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds must not be NaN")
        if (lo == np.inf).any() or (hi == -np.inf).any():
            raise ValueError("a lower bound of +inf or an upper bound of -inf "
                             "leaves no value for its variable")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    status: str
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned interval [lower, upper] for an uncertain cost vector."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must share a shape")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if (lo > hi + 1e-12).any():
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", np.maximum(lo, hi))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, c) -> bool:
        v = np.atleast_1d(np.asarray(c, dtype=float))
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


class _Tableau:
    """Dense bounded-variable simplex state: basis, B^{-1}A, basic values."""

    def __init__(self, A, b, lo, hi, state, basis, T, xB):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.state = state          # per-column state
        self.basis = basis          # row -> column index
        self.T = T                  # B^{-1} A
        self.xB = xB                # basic variable values
        self.pivots = 0

    def nonbasic_x(self):
        """Every column at its nonbasic value; basic and free columns read 0."""
        s = self.state
        return np.where(s == _AT_LO, self.lo, np.where(s == _AT_HI, self.hi, 0.0))

    def refactor(self):
        B = self.A[:, self.basis]
        self.T = np.linalg.solve(B, self.A)
        self.xB = np.linalg.solve(B, self.b - self.A @ self.nonbasic_x())

    def pivot(self, row, col, new_basic_value):
        self.xB[row] = new_basic_value
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0          # the pivot row keeps its scaled values
        T -= factors[:, None] * T[row]
        self.basis[row] = col
        self.pivots += 1
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()


def _simplex_phase(tab: _Tableau, cost: np.ndarray, pivot_budget: int):
    """Run bounded simplex to optimality for the given cost vector.

    Returns "optimal" or "unbounded". Mutates the tableau in place.
    """
    m = tab.T.shape[0]
    lo, hi, state, basis = tab.lo, tab.hi, tab.state, tab.basis
    movable = lo != hi  # fixed columns can never enter
    # entry directions, basic columns' bounds and costs, kept in step with
    # state and basis
    can_up = movable & ((state == _AT_LO) | (state == _FREE0))
    can_dn = movable & ((state == _AT_HI) | (state == _FREE0))
    cost_b, lo_b, hi_b = cost[basis], lo[basis], hi[basis]
    ratios = np.empty(m)
    for it in range(_MAX_PIVOTS):
        d = cost - cost_b @ tab.T
        enter_up = can_up & (d < -OPT_TOL)
        eligible = (enter_up | (can_dn & (d > OPT_TOL))).nonzero()[0]
        if eligible.size == 0:
            return OPTIMAL
        if it < pivot_budget:
            j = eligible[np.abs(d[eligible]).argmax()]
        else:
            j = eligible[0]  # Bland's rule: smallest index
        going_up = enter_up[j]
        direction = 1.0 if going_up else -1.0
        delta = -tab.T[:, j] if going_up else tab.T[:, j]  # xB changes by t * delta
        xB = tab.xB
        up = delta > PIVOT_TOL
        moving = up | (delta < -PIVOT_TOL)
        ratios.fill(np.inf)
        np.divide(np.where(up, hi_b, lo_b) - xB, delta, out=ratios, where=moving)
        t_best = float(ratios.min()) if m else np.inf
        if t_best < np.inf:
            t_best = max(t_best, 0.0)
        span = np.inf if state[j] == _FREE0 else hi[j] - lo[j]  # own-bound flip
        if span < t_best - 1e-15:
            # Bound flip: variable crosses its range, basis unchanged.
            xB += span * delta
            state[j] = _AT_HI if going_up else _AT_LO
            can_up[j] = not going_up
            can_dn[j] = going_up
            continue
        if t_best == np.inf:
            return UNBOUNDED
        # Among tied blocking rows take the smallest basis index
        # (required for Bland's rule; harmless under Dantzig pricing).
        tied = (ratios <= t_best + 1e-15).nonzero()[0]
        row = tied[basis[tied].argmin()]
        start = 0.0 if state[j] == _FREE0 else (lo[j] if going_up else hi[j])
        xB += t_best * delta
        out = basis[row]
        state[out] = _AT_HI if up[row] else _AT_LO
        can_up[out] = movable[out] and not up[row]
        can_dn[out] = movable[out] and up[row]
        state[j] = _BASIC
        can_up[j] = can_dn[j] = False
        cost_b[row], lo_b[row], hi_b[row] = cost[j], lo[j], hi[j]
        tab.pivot(row, j, start + direction * t_best)
    raise RuntimeError("simplex failed to terminate within the pivot cap")


def solve_lp(p: LinearProgram) -> LpSolution:
    """Solve the LP, classifying the result as optimal/infeasible/unbounded."""
    m, n = p.m, p.n
    finite_lo, finite_hi = np.isfinite(p.lo), np.isfinite(p.hi)
    x_ext = np.zeros(n + m)
    x_ext[:n] = np.where(finite_lo, p.lo, np.where(finite_hi, p.hi, 0.0))
    state = np.full(n + m, _BASIC)
    state[:n] = np.where(finite_lo, _AT_LO, np.where(finite_hi, _AT_HI, _FREE0))
    resid = p.b - p.A @ x_ext[:n]
    signs = np.where(resid >= 0.0, 1.0, -1.0)
    # columns [A, diag(signs)]: one artificial per row, basic at |resid|
    A_ext = np.zeros((m, n + m))
    A_ext[:, :n] = p.A
    basis = np.arange(n, n + m)
    A_ext[basis - n, basis] = signs
    lo_ext = np.zeros(n + m)
    lo_ext[:n] = p.lo
    hi_ext = np.full(n + m, np.inf)
    hi_ext[:n] = p.hi
    # B = diag(signs) is its own inverse, so the start needs no solve
    tab = _Tableau(A_ext, p.b, lo_ext, hi_ext, state, basis,
                   A_ext * signs[:, None], (p.b - A_ext @ x_ext) * signs)

    phase1_cost = np.zeros(n + m)
    phase1_cost[n:] = 1.0
    budget = 5 * (n + m)
    status = _simplex_phase(tab, phase1_cost, budget)
    art_level = float(phase1_cost[tab.basis] @ tab.xB)
    if status != OPTIMAL or art_level > FEAS_TOL:
        return LpSolution(np.full(n, np.nan), np.nan, INFEASIBLE)

    # Lock artificials at zero for phase 2 (basic ones may stay, degenerate).
    tab.lo[n:] = 0.0
    tab.hi[n:] = 0.0
    art_state = tab.state[n:]
    art_state[art_state != _BASIC] = _AT_LO

    phase2_cost = np.zeros(n + m)
    phase2_cost[:n] = p.c
    status = _simplex_phase(tab, phase2_cost, budget)
    if status == UNBOUNDED:
        return LpSolution(np.full(n, np.nan), -np.inf, UNBOUNDED)

    B = A_ext[:, tab.basis]
    x_full = tab.nonbasic_x()
    x_full[tab.basis] = np.linalg.solve(B, p.b - A_ext @ x_full)
    # Snap solver noise back into the bounds (no lower bound is +inf and no
    # upper bound -inf, so they clip as they stand).
    x = x_full[:n].clip(p.lo, p.hi)
    if np.abs(p.A @ x - p.b).max(initial=0.0) > FEAS_TOL:
        raise RuntimeError("simplex returned a primal-infeasible point")
    duals = np.linalg.solve(B.T, phase2_cost[tab.basis])
    reduced = p.c - p.A.T @ duals
    return LpSolution(x, float(p.c @ x), OPTIMAL, duals=duals,
                      reduced_costs=reduced, iterations=tab.pivots)


def robustify_box(p: LinearProgram, box: BoxSet) -> LinearProgram:
    """Exact reformulation of ``min_x max_{c in box} c'x`` over p's feasible set.

    Since ``max_{c in [l, u]} c'x = sum_j max(l_j x_j, u_j x_j)``, auxiliary
    t_j with ``t_j >= u_j x_j`` and ``t_j >= l_j x_j`` and objective sum(t)
    are exact. Columns are ordered [x, t, slack_u, slack_l]; the optimal
    decision is the leading n entries.
    """
    n, m = p.n, p.m
    if box.dim != n:
        raise ValueError(f"box dimension {box.dim} != {n} variables")
    if not (np.isfinite(box.lower).all() and np.isfinite(box.upper).all()):
        raise ValueError("robust reformulation requires a finite box")
    # rows: [A 0 0 0] = b ; [-U I -I 0] = 0 ; [-L I 0 -I] = 0, where the
    # negated diagonal blocks carry -0.0 off the diagonal, as negation gives
    A = np.zeros((m + 2 * n, 4 * n))
    A[:m, :n] = p.A
    blocks = A[m:].reshape(2, n, 4, n)  # [row block, row, column block, column]
    blocks[:, :, 0] = -0.0
    blocks[0, :, 2] = -0.0
    blocks[1, :, 3] = -0.0
    i = np.arange(n)
    blocks[0, i, 0, i] = -box.upper
    blocks[1, i, 0, i] = -box.lower
    blocks[:, i, 1, i] = 1.0
    blocks[0, i, 2, i] = -1.0
    blocks[1, i, 3, i] = -1.0
    b = np.zeros(m + 2 * n)
    b[:m] = p.b
    c = np.zeros(4 * n)
    c[n:2 * n] = 1.0
    lo = np.zeros(4 * n)
    lo[:n] = p.lo
    lo[n:2 * n] = -np.inf
    hi = np.full(4 * n, np.inf)
    hi[:n] = p.hi
    return LinearProgram(c, A, b, lo, hi)


def solve_robust_box(p: LinearProgram, box: BoxSet) -> LpSolution:
    """Solve the box-robust problem, reporting the original-variable slice."""
    sol = solve_lp(robustify_box(p, box))
    return LpSolution(sol.x[: p.n], sol.value, sol.status,
                      iterations=sol.iterations)


def worst_case_value(x, box: BoxSet) -> float:
    """max_{c in box} c'x, evaluated directly."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.sum(np.maximum(box.lower * xv, box.upper * xv)))
