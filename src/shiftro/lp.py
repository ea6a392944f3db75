"""Standard-form LP model, a bounded-variable primal simplex, and the exact
box-robust counterpart of the min-max objective.

The solver handles ``min c'x  s.t.  Ax = b,  lo <= x <= hi`` with any mix of
finite and infinite bounds (free variables sit nonbasic at zero). Phase 1
minimizes the sum of artificial infeasibilities; phase 2 locks artificials at
zero and optimizes the true objective. Dantzig pricing runs first, switching
to Bland's rule after ``5 * (n + m)`` pivots to guarantee termination on
degenerate instances (network LPs in particular).
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
        lo = np.broadcast_to(np.asarray(self.lo, dtype=float), c.shape).copy()
        hi = np.broadcast_to(np.asarray(self.hi, dtype=float), c.shape).copy()
        m, n = A.shape
        if c.size != n:
            raise ValueError(f"objective length {c.size} != {n} columns of A")
        if b.size != m:
            raise ValueError(f"rhs length {b.size} != {m} rows of A")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("c, A, b must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo > hi):
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
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi + 1e-12):
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

    def __init__(self, A, b, lo, hi, state, basis, values):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.state = state          # per-column state
        self.basis = basis          # row -> column index
        self.xB = values            # basic variable values
        self.T = None               # B^{-1} A
        self.pivots = 0
        self.refactor()

    def nonbasic_value(self, j):
        s = self.state[j]
        if s == _AT_LO:
            return self.lo[j]
        if s == _AT_HI:
            return self.hi[j]
        return 0.0

    def full_x(self):
        x = np.array([self.nonbasic_value(j) for j in range(self.A.shape[1])])
        x[self.basis] = self.xB
        return x

    def refactor(self):
        B = self.A[:, self.basis]
        self.T = np.linalg.solve(B, self.A)
        x = np.array([self.nonbasic_value(j) for j in range(self.A.shape[1])])
        x[self.basis] = 0.0
        self.xB = np.linalg.solve(B, self.b - self.A @ x)

    def pivot(self, row, col, new_basic_value):
        self.xB[row] = new_basic_value
        piv = self.T[row, col]
        self.T[row, :] /= piv
        others = np.arange(self.T.shape[0]) != row
        factors = self.T[others, col].copy()
        self.T[others, :] -= np.outer(factors, self.T[row, :])
        self.basis[row] = col
        self.pivots += 1
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()


def _simplex_phase(tab: _Tableau, cost: np.ndarray, pivot_budget: int):
    """Run bounded simplex to optimality for the given cost vector.

    Returns "optimal" or "unbounded". Mutates the tableau in place.
    """
    m, n = tab.T.shape
    locked = tab.lo == tab.hi  # fixed columns can never enter
    for it in range(_MAX_PIVOTS):
        d = cost - cost[tab.basis] @ tab.T
        state = tab.state
        enter_up = ((state == _AT_LO) | (state == _FREE0)) & (d < -OPT_TOL) & ~locked
        enter_dn = ((state == _AT_HI) | (state == _FREE0)) & (d > OPT_TOL) & ~locked
        eligible = np.flatnonzero(enter_up | enter_dn)
        if eligible.size == 0:
            return OPTIMAL
        if it < pivot_budget:
            j = eligible[np.argmax(np.abs(d[eligible]))]
        else:
            j = eligible[0]  # Bland's rule: smallest index
        direction = 1.0 if enter_up[j] else -1.0

        col = tab.T[:, j]
        delta = -direction * col  # xB changes by t * delta
        ratios = np.full(m, np.inf)
        up = delta > PIVOT_TOL
        dn = delta < -PIVOT_TOL
        ratios[up] = (tab.hi[tab.basis[up]] - tab.xB[up]) / delta[up]
        ratios[dn] = (tab.lo[tab.basis[dn]] - tab.xB[dn]) / delta[dn]
        t_best = float(np.min(ratios)) if m else np.inf
        leave_row = -1
        leave_to = _AT_LO
        if np.isfinite(t_best):
            t_best = max(t_best, 0.0)
            # Among tied blocking rows take the smallest basis index
            # (required for Bland's rule; harmless under Dantzig pricing).
            tied = np.flatnonzero(ratios <= t_best + 1e-15)
            leave_row = int(tied[np.argmin(tab.basis[tied])])
            leave_to = _AT_HI if up[leave_row] else _AT_LO
        span = tab.hi[j] - tab.lo[j]  # own-bound flip distance (inf for free)
        if tab.state[j] == _FREE0:
            span = np.inf
        if span < t_best - 1e-15:
            # Bound flip: variable crosses its range, basis unchanged.
            tab.xB += span * delta
            tab.state[j] = _AT_HI if tab.state[j] == _AT_LO else _AT_LO
            continue
        if not np.isfinite(t_best):
            return UNBOUNDED
        start = tab.nonbasic_value(j)
        tab.xB += t_best * delta
        entering_value = start + direction * t_best
        out_col = tab.basis[leave_row]
        tab.state[out_col] = leave_to
        tab.state[j] = _BASIC
        tab.pivot(leave_row, j, entering_value)
    raise RuntimeError("simplex failed to terminate within the pivot cap")


def _initial_point(lo, hi):
    x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    state = np.full(lo.size, _FREE0, dtype=int)
    state[np.isfinite(lo)] = _AT_LO
    finite_hi_only = ~np.isfinite(lo) & np.isfinite(hi)
    state[finite_hi_only] = _AT_HI
    return x0, state


def solve_lp(p: LinearProgram) -> LpSolution:
    """Solve the LP, classifying the result as optimal/infeasible/unbounded."""
    m, n = p.m, p.n
    x0, state0 = _initial_point(p.lo, p.hi)
    resid = p.b - p.A @ x0
    signs = np.where(resid >= 0.0, 1.0, -1.0)
    A_ext = np.hstack([p.A, np.diag(signs)])
    lo_ext = np.concatenate([p.lo, np.zeros(m)])
    hi_ext = np.concatenate([p.hi, np.full(m, np.inf)])
    state = np.concatenate([state0, np.full(m, _BASIC, dtype=int)])
    basis = np.arange(n, n + m)
    tab = _Tableau(A_ext, p.b, lo_ext, hi_ext, state, basis, np.abs(resid))

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    budget = 5 * (n + m)
    status = _simplex_phase(tab, phase1_cost, budget)
    art_level = float(phase1_cost[tab.basis] @ tab.xB)
    if status != OPTIMAL or art_level > FEAS_TOL:
        return LpSolution(np.full(n, np.nan), np.nan, INFEASIBLE)

    # Lock artificials at zero for phase 2 (basic ones may stay, degenerate).
    tab.lo[n:] = 0.0
    tab.hi[n:] = 0.0
    art_nonbasic = [j for j in range(n, n + m) if tab.state[j] != _BASIC]
    for j in art_nonbasic:
        tab.state[j] = _AT_LO

    phase2_cost = np.concatenate([p.c, np.zeros(m)])
    status = _simplex_phase(tab, phase2_cost, budget)
    if status == UNBOUNDED:
        return LpSolution(np.full(n, np.nan), -np.inf, UNBOUNDED)

    tab.refactor()
    x_full = tab.full_x()
    x = x_full[:n]
    # Snap solver noise back into the bounds.
    x = np.clip(x, np.where(np.isfinite(p.lo), p.lo, -np.inf),
                np.where(np.isfinite(p.hi), p.hi, np.inf))
    if np.max(np.abs(p.A @ x - p.b), initial=0.0) > FEAS_TOL:
        raise RuntimeError("simplex returned a primal-infeasible point")
    B = A_ext[:, tab.basis]
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
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise ValueError("robust reformulation requires a finite box")
    eye = np.eye(n)
    zeros_mn = np.zeros((m, n))
    # rows: [A 0 0 0] = b ; [-U I -I 0] = 0 ; [-L I 0 -I] = 0
    top = np.hstack([p.A, zeros_mn, zeros_mn, zeros_mn])
    mid = np.hstack([-np.diag(box.upper), eye, -eye, np.zeros((n, n))])
    bot = np.hstack([-np.diag(box.lower), eye, np.zeros((n, n)), -eye])
    A = np.vstack([top, mid, bot])
    b = np.concatenate([p.b, np.zeros(2 * n)])
    c = np.concatenate([np.zeros(n), np.ones(n), np.zeros(2 * n)])
    lo = np.concatenate([p.lo, np.full(n, -np.inf), np.zeros(2 * n)])
    hi = np.concatenate([p.hi, np.full(n, np.inf), np.full(2 * n, np.inf)])
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
