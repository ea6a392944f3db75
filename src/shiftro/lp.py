"""Standard-form LP model, a bounded-variable primal simplex, and the exact
box-robust counterpart of the min-max objective.

The solver handles ``min c'x  s.t.  Ax = b,  lo <= x <= hi`` with any mix of
finite and infinite bounds (free variables sit nonbasic at zero). Every row
gets an artificial column; a crash then starts basic, in place of a row's
artificial, a column whose only nonzero lies in that row whenever the row's
value for it lies within its bounds, so the starting basis stays diagonal.
Phase 1 minimizes the sum of the artificial infeasibilities that are left, and
is skipped when none is; phase 2 locks artificials at zero and optimizes the
true objective. Dantzig pricing runs first, switching to Bland's rule after
``5 * (n + m)`` pricing steps of a phase (bound flips count) to guarantee
termination on degenerate instances (network LPs in particular).

The box-robust counterpart writes its 2n bound rows so that the crash covers
each of them, feasibly, at the solver's start point. The robust LPs of the
toy, simple and knapsack worlds therefore start feasible and skip phase 1.
Everything of a robust LP but its 2n box entries depends on the template
alone, so a template builds that layout once, as a checked, read-only
skeleton LP, and each box copies the skeleton's A, writes and checks those
entries, and skips the checks the skeleton already passed. The part of the
solver's start that the bounds alone set (start point, column states,
extended bounds) is one read-only tuple per LP, and every robust LP of a
template shares the skeleton's; the solver copies only what it writes.
When neither phase pivots or flips a bound, the basis is still the diagonal
crash basis and its start values are the solution, so x is read off them
without the final solve (bit for bit what that solve gives); about 80 % of
the benchmark's toy and simple robust LPs, and over 90 % of its knapsack
ones, end so.
These LPs are small, so numpy call overhead, not arithmetic, sets their
cost: with one BLAS thread on a 2-vCPU VM, a toy robust LP (4 variables, 2
rows) on a replicate's own boxes takes about 0.012 ms to build and 0.07 ms
to solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """min c'x  s.t.  A x = b,  lo <= x <= hi (componentwise, +-inf allowed).

    The stored arrays are read-only: c, A and b are the caller's own arrays
    only when no one can write into them (read-only, owning their data), else
    read-only copies. So the LP, and the robust layout it caches, cannot
    change after construction.
    """

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
        lo.flags.writeable = hi.flags.writeable = False   # np.full's own arrays
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _start(self) -> tuple:
        """``(x, state, lo, hi)`` of ``solve_lp``'s start over the n + m
        columns [x, artificials], before the crash: what the bounds alone set.
        Read-only, as robust LPs share their template's."""
        return _bound_start(self.lo, self.hi, self.m)

    @cached_property
    def _robust_layout(self) -> tuple:
        """``(keep_u, box_at, skeleton)``: what ``robustify_box`` builds from
        this LP alone, built on first use and kept. Row m + j keeps u_j where
        keep_u_j, else l_j, and each box writes its 2n entries, at ``box_at``,
        into its own copy of ``skeleton.A``. The skeleton is a checked,
        read-only LP whose start is read here, so every robust LP of this
        template shares its c, b, bounds and start."""
        n, m = self.n, self.m
        keep_u = self._start[0][:n] >= 0.0
        j = np.arange(n)
        kept_slack = np.where(keep_u, 2 * n, 3 * n) + j
        other_slack = np.where(keep_u, 3 * n, 2 * n) + j
        A = np.zeros((m + 2 * n, 4 * n))
        A[:m, :n] = self.A
        t_row, diff_row = m + j, m + n + j
        A[t_row, n + j] = 1.0
        A[t_row, kept_slack] = -1.0
        A[diff_row, kept_slack] = 1.0
        A[diff_row, other_slack] = -1.0
        box_at = (np.concatenate([t_row, diff_row]), np.concatenate([j, j]))
        for a in (keep_u, *box_at):
            a.flags.writeable = False
        c = np.zeros(4 * n)
        c[n:2 * n] = 1.0
        skeleton = LinearProgram(c, A, np.concatenate([self.b, np.zeros(2 * n)]),
                                 np.concatenate([self.lo, np.full(n, -np.inf),
                                                 np.zeros(2 * n)]),
                                 np.concatenate([self.hi, np.full(3 * n, np.inf)]))
        skeleton._start
        return keep_u, box_at, skeleton


def _frozen(a: np.ndarray) -> np.ndarray:
    """a when no one can write into it, else a read-only copy."""
    flags = a.flags
    if flags.writeable or not flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float
    status: str
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

    def row(self, i) -> BoxSet:
        """Row i of a block box (one box per row) as a box of its own.

        The block's checks already cover each of its rows, so they do not run
        again.
        """
        if self.lower.ndim != 2:
            raise ValueError("row() needs a block box with one box per row")
        box = object.__new__(BoxSet)
        object.__setattr__(box, "lower", self.lower[i])
        object.__setattr__(box, "upper", self.upper[i])
        return box


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
        self.flips = 0              # bound flips, which move no basis

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
            tab.flips += 1
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


def _bound_start(lo, hi, m) -> tuple:
    """Read-only ``(x, state, lo, hi)`` over n columns with these bounds and m
    artificials. Each column starts nonbasic at its finite lower bound, else
    its finite upper bound, else zero (free); each artificial is basic, in
    [0, inf), and x reads 0 for it."""
    n = lo.size
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    x = np.zeros(n + m)
    x[:n] = np.where(finite_lo, lo, np.where(finite_hi, hi, 0.0))
    state = np.full(n + m, _BASIC)
    state[:n] = np.where(finite_lo, _AT_LO, np.where(finite_hi, _AT_HI, _FREE0))
    lo_ext = np.zeros(n + m)
    lo_ext[:n] = lo
    hi_ext = np.full(n + m, np.inf)
    hi_ext[:n] = hi
    for a in (x, state, lo_ext, hi_ext):
        a.flags.writeable = False
    return x, state, lo_ext, hi_ext


def solve_lp(p: LinearProgram) -> LpSolution:
    """Solve the LP, classifying the result as optimal/infeasible/unbounded.

    Columns start nonbasic as ``LinearProgram._start`` sets them. Row i's
    basic column is the lowest-indexed column whose only nonzero is in row i
    and whose value from row i lies within its bounds (row i's artificial is
    then locked at zero), else row i's artificial at ``|b_i - A_i x0|``.
    The start basis is diagonal, so when neither phase pivots or flips a
    bound, x reads off the start's basic values; else a solve with the final
    basis recomputes them.
    """
    m, n = p.m, p.n
    x0, state0, lo_ext, hi0 = p._start
    # lo_ext is shared and read as it stands: an artificial's lower bound is
    # already the 0 that phase 2 locks it at
    x_ext, state, hi_ext = x0.copy(), state0.copy(), hi0.copy()
    resid = p.b - p.A @ x0[:n]
    signs = np.where(resid >= 0.0, 1.0, -1.0)
    # columns [A, diag(signs)]: one artificial per row
    A_ext = np.zeros((m, n + m))
    A_ext[:, :n] = p.A
    basis = np.arange(n, n + m)
    A_ext[basis - n, basis] = signs

    # crash: singleton columns whose row puts them within their bounds
    single = ((p.A != 0).sum(axis=0) == 1).nonzero()[0]
    rows, k = np.nonzero(p.A[:, single])    # row-major: columns ascend per row
    cols = single[k]
    a = p.A[rows, cols]
    value = (resid[rows] + a * x_ext[cols]) / a
    fits = (p.lo[cols] <= value) & (value <= p.hi[cols])
    rows, cols, a = rows[fits], cols[fits], a[fits]
    first = np.ones(rows.size, dtype=bool)  # the lowest column of each row
    first[1:] = rows[1:] != rows[:-1]
    rows, cols, a = rows[first], cols[first], a[first]
    basis[rows] = cols
    state[cols] = _BASIC
    x_ext[cols] = 0.0                       # basic columns read 0 in x_N
    state[n + rows] = _AT_LO
    hi_ext[n + rows] = 0.0
    diag = signs.copy()
    diag[rows] = a
    # B = diag(diag), so the start needs no solve
    tab = _Tableau(A_ext, p.b, lo_ext, hi_ext, state, basis,
                   A_ext / diag[:, None], (p.b - A_ext @ x_ext) / diag)

    budget = 5 * (n + m)
    if rows.size < m:   # some artificial is basic
        phase1_cost = np.zeros(n + m)
        phase1_cost[n:] = 1.0
        status = _simplex_phase(tab, phase1_cost, budget)
        art_level = float(phase1_cost[tab.basis] @ tab.xB)
        if status != OPTIMAL or art_level > FEAS_TOL:
            return LpSolution(np.full(n, np.nan), np.nan, INFEASIBLE)

    # Lock artificials at zero for phase 2 (basic ones may stay, degenerate).
    tab.hi[n:] = 0.0
    art_state = tab.state[n:]
    art_state[art_state != _BASIC] = _AT_LO

    phase2_cost = np.zeros(n + m)
    phase2_cost[:n] = p.c
    status = _simplex_phase(tab, phase2_cost, budget)
    if status == UNBOUNDED:
        return LpSolution(np.full(n, np.nan), -np.inf, UNBOUNDED)

    if tab.pivots or tab.flips:
        x_full = tab.nonbasic_x()
        x_full[tab.basis] = np.linalg.solve(A_ext[:, tab.basis], p.b - A_ext @ x_full)
    else:
        # Still the diagonal start basis, and every nonbasic column (an
        # artificial too) sits where x_ext put it: the solve would divide
        # the same residual by the same diagonal, so read xB instead.
        x_full = x_ext
        x_full[tab.basis] = tab.xB
    # Snap solver noise back into the bounds (no lower bound is +inf and no
    # upper bound -inf, so they clip as they stand).
    x = x_full[:n].clip(p.lo, p.hi)
    if np.abs(p.A @ x - p.b).max(initial=0.0) > FEAS_TOL:
        raise RuntimeError("simplex returned a primal-infeasible point")
    return LpSolution(x, float(p.c @ x), OPTIMAL, tab.pivots)


def robustify_box(p: LinearProgram, box: BoxSet) -> LinearProgram:
    """Exact reformulation of ``min_x max_{c in box} c'x`` over p's feasible set.

    Since ``max_{c in [l, u]} c'x = sum_j max(l_j x_j, u_j x_j)``, auxiliary
    t_j with ``t_j >= u_j x_j`` and ``t_j >= l_j x_j`` and objective sum(t)
    are exact. Columns are ordered [x, t, slack_u, slack_l]; the optimal
    decision is the leading n entries.

    Row m + j keeps for t_j the bound k_j that binds at x_j's start point x0_j
    (``_bound_start``): u_j where x0_j >= 0, else l_j. With o_j the other
    bound, it reads ``t_j - k_j x_j - slack_k_j = 0``, and row m + n + j is the
    other bound's row minus it, ``(k_j - o_j) x_j + slack_k_j - slack_o_j =
    0``. The feasible set is the same as with the two bound rows as they
    read, and t_j and slack_o_j are singletons that ``solve_lp``'s crash
    starts basic, at k_j x0_j and at (k_j - o_j) x0_j >= 0.

    Everything but the 2n entries -k_j and k_j - o_j depends on p alone, so
    p builds it once as a skeleton LP (``LinearProgram._robust_layout``), and
    each box copies the skeleton's A and writes those entries. The rest was
    checked when the skeleton was built, so only the written entries are
    checked (an infinite bound or an overflowed k_j - o_j leaves one of them
    not finite), and the LP shares the skeleton's c, b, bounds and start.
    """
    if box.dim != p.n:
        raise ValueError(f"box dimension {box.dim} != {p.n} variables")
    keep_u, box_at, skeleton = p._robust_layout
    kept = np.where(keep_u, box.upper, box.lower)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.concatenate([-kept, kept - np.where(keep_u, box.lower, box.upper)])
    if not np.isfinite(entries).all():
        raise ValueError("robust reformulation requires a finite box and finite rows")
    A = skeleton.A.copy()
    A[box_at] = entries
    A.flags.writeable = False
    r = object.__new__(LinearProgram)
    object.__setattr__(r, "A", A)
    for name in ("c", "b", "lo", "hi", "_start"):
        object.__setattr__(r, name, getattr(skeleton, name))
    return r


def solve_robust_box(p: LinearProgram, box: BoxSet) -> LpSolution:
    """Solve the box-robust problem, reporting the original-variable slice."""
    sol = solve_lp(robustify_box(p, box))
    return LpSolution(sol.x[:p.n], sol.value, sol.status, sol.iterations)


def worst_case_value(x, box: BoxSet) -> float:
    """max_{c in box} c'x, evaluated directly."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.sum(np.maximum(box.lower * xv, box.upper * xv)))
