"""LP solver and box-robust reformulation against independent oracles."""

from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import linprog

from shiftro import lp
from shiftro.harness import ExperimentConfig, make_scenario
from shiftro.lp import (_AT_HI, _AT_LO, _BASIC, _FREE0, _MAX_PIVOTS, _REFACTOR_EVERY,
                        FEAS_TOL, INFEASIBLE, OPT_TOL, OPTIMAL, PIVOT_TOL, UNBOUNDED,
                        BoxSet, LinearProgram, LpSolution, robustify_box, solve_lp,
                        solve_robust_box, worst_case_value)
from shiftro.scenarios import build_knapsack_lp


def vertex_enumeration_value(p: LinearProgram) -> float:
    """Brute-force optimum over basic feasible points (finite bounds only)."""
    n, m = p.n, p.m
    best = np.inf
    if m == 0:
        for corner in product(*[(p.lo[j], p.hi[j]) for j in range(n)]):
            best = min(best, float(p.c @ np.array(corner)))
        return best
    for basis in combinations(range(n), m):
        B = p.A[:, basis]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        nonb = [j for j in range(n) if j not in basis]
        for corner in product(*[(p.lo[j], p.hi[j]) for j in nonb]):
            xN = np.array(corner)
            xB = np.linalg.solve(B, p.b - p.A[:, nonb] @ xN)
            if np.any(xB < p.lo[list(basis)] - 1e-9) or np.any(xB > p.hi[list(basis)] + 1e-9):
                continue
            x = np.zeros(n)
            x[list(basis)] = xB
            x[nonb] = xN
            best = min(best, float(p.c @ x))
    return best


def random_bounded_lp(rng, n_max=6, m_max=3):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, min(n, m_max) + 1))
    A = rng.normal(size=(m, n))
    lo = rng.uniform(-2, 0, n)
    hi = rng.uniform(0.1, 2, n)
    b = A @ rng.uniform(lo, hi)
    c = rng.normal(size=n)
    return LinearProgram(c, A, b, lo, hi)


class TestSolveLp:
    def test_simplex_basic(self):
        p = LinearProgram([1, 0], [[1, 1]], [1], [0, 0], [np.inf, np.inf])
        s = solve_lp(p)
        assert s.status == OPTIMAL
        np.testing.assert_allclose(s.x, [0, 1], atol=1e-9)
        assert s.value == pytest.approx(0.0, abs=1e-9)

    def test_box_only(self):
        p = LinearProgram([2.0], np.zeros((0, 1)), [], [-1.0], [1.0])
        s = solve_lp(p)
        assert s.status == OPTIMAL
        assert s.x[0] == -1.0 and s.value == -2.0

    def test_infeasible(self):
        p = LinearProgram([1, 1], [[1, 1]], [-1], [0, 0], [np.inf, np.inf])
        assert solve_lp(p).status == INFEASIBLE

    def test_unbounded(self):
        p = LinearProgram([-1, 0], [[0, 1]], [1], [0, 0], [np.inf, np.inf])
        assert solve_lp(p).status == UNBOUNDED

    def test_unbounded_without_rows(self):
        p = LinearProgram([1.0, 0.0], np.zeros((0, 2)), [], [-np.inf, 0.0],
                          [np.inf, 1.0])
        s = solve_lp(p)
        assert s.status == UNBOUNDED and s.value == -np.inf
        assert np.all(np.isnan(s.x))

    def test_free_variable(self):
        # min x0 s.t. x0 + x1 = 2, x1 in [0, 1], x0 free
        p = LinearProgram([1, 0], [[1, 1]], [2], [-np.inf, 0], [np.inf, 1])
        s = solve_lp(p)
        assert s.status == OPTIMAL
        assert s.value == pytest.approx(1.0, abs=1e-9)

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            LinearProgram([1, 2], [[1, 1, 1]], [1], [0, 0], [1, 1])
        with pytest.raises(ValueError):
            LinearProgram([1], [[1]], [1, 2], [0], [1])
        with pytest.raises(ValueError):
            LinearProgram([1], [[1]], [1], [2], [1])

    @pytest.mark.parametrize("bound", [np.inf, -np.inf])
    def test_infinite_equal_bounds_rejected(self, bound):
        # lo = hi = +inf (or -inf) leaves the variable no value; it used to
        # solve to x = 0 as "optimal"
        with pytest.raises(ValueError, match="no value"):
            LinearProgram([1.0], np.zeros((0, 1)), [], [bound], [bound])
        with pytest.raises(ValueError, match="no value"):
            LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, bound],
                          [1.0, bound])

    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            p = random_bounded_lp(rng)
            s = solve_lp(p)
            oracle = vertex_enumeration_value(p)
            assert s.status == OPTIMAL
            assert abs(s.value - oracle) <= 1e-7 * (1 + abs(oracle))
            assert np.max(np.abs(p.A @ s.x - p.b), initial=0.0) <= 1e-7
            assert np.all(s.x >= p.lo - 1e-9) and np.all(s.x <= p.hi + 1e-9)
            assert s.value == pytest.approx(float(p.c @ s.x), abs=1e-9)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            p = random_bounded_lp(rng)
            s = solve_lp(p)
            if p.m == 0 or s.status != OPTIMAL:
                continue
            d = s.reduced_costs
            for j in range(p.n):
                interior = p.lo[j] + 1e-6 < s.x[j] < p.hi[j] - 1e-6
                if interior:
                    assert abs(d[j]) <= 1e-7
                elif s.x[j] <= p.lo[j] + 1e-6:
                    assert d[j] >= -1e-7
                else:
                    assert d[j] <= 1e-7

    def test_degenerate_network_terminates(self):
        # tiny grid with degenerate ties; it ends after 4 pivots, well inside
        # the Dantzig budget (Bland's rule is driven in TestAgainstReference)
        A = np.array([
            [1, 1, -1, 0, 0, 0],
            [-1, 0, 1, 1, -1, 0],
            [0, -1, 0, -1, 0, 1],
        ], dtype=float)
        b = np.array([1.0, 0.0, -1.0])
        p = LinearProgram(np.ones(6), A, b, np.zeros(6), np.full(6, np.inf))
        s = solve_lp(p)
        assert s.status == OPTIMAL


class TestRobustifyBox:
    def test_nonnegative_domain_equals_upper_corner(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, n + 1))
            A = rng.normal(size=(m, n))
            lo = np.zeros(n)
            hi = rng.uniform(0.5, 2.0, n)
            b = A @ rng.uniform(lo, hi)
            base = LinearProgram(np.zeros(n), A, b, lo, hi)
            center = rng.normal(size=n)
            half = rng.uniform(0, 1, n)
            box = BoxSet(center - half, center + half)
            robust = solve_robust_box(base, box)
            plain = solve_lp(LinearProgram(box.upper, A, b, lo, hi))
            assert robust.status == plain.status == OPTIMAL
            assert robust.value == pytest.approx(plain.value, abs=1e-7)

    def test_one_dim_straddling_box(self):
        p = LinearProgram([0.0], np.zeros((0, 1)), [], [-1.0], [1.0])
        s = solve_robust_box(p, BoxSet([-1.0], [2.0]))
        assert abs(s.x[0]) <= 1e-9 and abs(s.value) <= 1e-9

    def test_one_dim_positive_box(self):
        p = LinearProgram([0.0], np.zeros((0, 1)), [], [-1.0], [1.0])
        s = solve_robust_box(p, BoxSet([1.0], [2.0]))
        assert s.x[0] == pytest.approx(-1.0, abs=1e-9)
        assert s.value == pytest.approx(-1.0, abs=1e-9)

    def test_degenerate_box_is_plain_lp(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_bounded_lp(rng)
            c0 = rng.normal(size=p.n)
            box = BoxSet(c0, c0)
            robust = solve_robust_box(p, box)
            plain = solve_lp(LinearProgram(c0, p.A, p.b, p.lo, p.hi))
            assert robust.status == plain.status == OPTIMAL
            assert robust.value == pytest.approx(plain.value, abs=1e-7)

    def test_dimensions_of_reformulation(self):
        p = LinearProgram(np.zeros(3), [[1.0, 1.0, 1.0]], [1.0],
                          np.zeros(3), np.ones(3))
        box = BoxSet(-np.ones(3), np.ones(3))
        r = robustify_box(p, box)
        assert r.A.shape == (1 + 6, 3 + 3 + 6)
        with pytest.raises(ValueError):
            robustify_box(p, BoxSet([-1.0], [1.0]))

    def test_corner_grid_oracle_box_domains(self):
        # On pure box domains the robust objective separates per coordinate,
        # so candidates {lo, 0, hi} x corner enumeration give the exact value.
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            lo = rng.uniform(-2, -0.1, n)
            hi = rng.uniform(0.1, 2, n)
            p = LinearProgram(np.zeros(n), np.zeros((0, n)), [], lo, hi)
            center = rng.normal(size=n)
            half = rng.uniform(0, 1.5, n)
            box = BoxSet(center - half, center + half)
            sol = solve_robust_box(p, box)
            cands = [[lo[j], hi[j]] + ([0.0] if lo[j] <= 0 <= hi[j] else [])
                     for j in range(n)]
            oracle = min(worst_case_value(np.array(x), box)
                         for x in product(*cands))
            assert sol.value == pytest.approx(oracle, abs=1e-7)

    def test_against_scipy_on_equality_constrained(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_bounded_lp(rng)
            center = rng.normal(size=p.n)
            half = rng.uniform(0, 1, p.n)
            box = BoxSet(center - half, center + half)
            r = robustify_box(p, box)
            res = linprog(r.c, A_eq=r.A, b_eq=r.b,
                          bounds=list(zip(r.lo, r.hi)), method="highs")
            ours = solve_lp(r)
            assert res.status == 0 and ours.status == OPTIMAL
            assert ours.value == pytest.approx(res.fun, abs=1e-6)

    def test_worst_case_dominates_center(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_bounded_lp(rng)
            center = rng.normal(size=p.n)
            half = rng.uniform(0, 1, p.n)
            box = BoxSet(center - half, center + half)
            robust = solve_robust_box(p, box)
            plain = solve_lp(LinearProgram(center, p.A, p.b, p.lo, p.hi))
            assert robust.value >= plain.value - 1e-7


class TestBoxSet:
    def test_contains(self):
        box = BoxSet([0.0, -1.0], [1.0, 1.0])
        assert box.contains([0.5, 0.0])
        assert not box.contains([0.5, 2.0])

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxSet([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxSet([np.nan], [1.0])

    def test_infinite_bounds_allowed_for_membership(self):
        box = BoxSet([-np.inf], [np.inf])
        assert box.contains([1e12])
        with pytest.raises(ValueError):
            robustify_box(LinearProgram([0.0], np.zeros((0, 1)), [], [0.0], [1.0]),
                          box)


# The bounded simplex as it stood before its inner loop was rewritten with
# fewer numpy calls per pivot: the reference the lean solver must match bit for
# bit, in every LpSolution field and in the pivot count.

class _RefTableau:
    def __init__(self, A, b, lo, hi, state, basis, values):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.state = state
        self.basis = basis
        self.xB = values
        self.T = None
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


def _ref_simplex_phase(tab, cost, pivot_budget):
    m, n = tab.T.shape
    locked = tab.lo == tab.hi
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
            j = eligible[0]
        direction = 1.0 if enter_up[j] else -1.0

        col = tab.T[:, j]
        delta = -direction * col
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
            tied = np.flatnonzero(ratios <= t_best + 1e-15)
            leave_row = int(tied[np.argmin(tab.basis[tied])])
            leave_to = _AT_HI if up[leave_row] else _AT_LO
        span = tab.hi[j] - tab.lo[j]
        if tab.state[j] == _FREE0:
            span = np.inf
        if span < t_best - 1e-15:
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


def _ref_initial_point(lo, hi):
    x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    state = np.full(lo.size, _FREE0, dtype=int)
    state[np.isfinite(lo)] = _AT_LO
    finite_hi_only = ~np.isfinite(lo) & np.isfinite(hi)
    state[finite_hi_only] = _AT_HI
    return x0, state


def _ref_solve_lp(p):
    m, n = p.m, p.n
    x0, state0 = _ref_initial_point(p.lo, p.hi)
    resid = p.b - p.A @ x0
    signs = np.where(resid >= 0.0, 1.0, -1.0)
    A_ext = np.hstack([p.A, np.diag(signs)])
    lo_ext = np.concatenate([p.lo, np.zeros(m)])
    hi_ext = np.concatenate([p.hi, np.full(m, np.inf)])
    state = np.concatenate([state0, np.full(m, _BASIC, dtype=int)])
    basis = np.arange(n, n + m)
    tab = _RefTableau(A_ext, p.b, lo_ext, hi_ext, state, basis, np.abs(resid))

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    budget = 5 * (n + m)
    status = _ref_simplex_phase(tab, phase1_cost, budget)
    art_level = float(phase1_cost[tab.basis] @ tab.xB)
    if status != OPTIMAL or art_level > FEAS_TOL:
        return LpSolution(np.full(n, np.nan), np.nan, INFEASIBLE)

    tab.lo[n:] = 0.0
    tab.hi[n:] = 0.0
    art_nonbasic = [j for j in range(n, n + m) if tab.state[j] != _BASIC]
    for j in art_nonbasic:
        tab.state[j] = _AT_LO

    phase2_cost = np.concatenate([p.c, np.zeros(m)])
    status = _ref_simplex_phase(tab, phase2_cost, budget)
    if status == UNBOUNDED:
        return LpSolution(np.full(n, np.nan), -np.inf, UNBOUNDED)

    tab.refactor()
    x_full = tab.full_x()
    x = x_full[:n]
    x = np.clip(x, np.where(np.isfinite(p.lo), p.lo, -np.inf),
                np.where(np.isfinite(p.hi), p.hi, np.inf))
    if np.max(np.abs(p.A @ x - p.b), initial=0.0) > FEAS_TOL:
        raise RuntimeError("simplex returned a primal-infeasible point")
    B = A_ext[:, tab.basis]
    duals = np.linalg.solve(B.T, phase2_cost[tab.basis])
    reduced = p.c - p.A.T @ duals
    return LpSolution(x, float(p.c @ x), OPTIMAL, duals=duals,
                      reduced_costs=reduced, iterations=tab.pivots)


def _bits(v):
    """Bytes of an array or float field (NaN reads as its own bit pattern)."""
    return None if v is None else (np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())


def _assert_same_solution(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    for field in ("x", "value", "duals", "reduced_costs"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


def _random_mixed_lp(rng):
    """Finite, half-infinite, free and fixed columns; b feasible or not."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, min(n, 5) + 1))
    A = rng.normal(size=(m, n))
    lo = rng.uniform(-2, 0, n)
    hi = rng.uniform(0.1, 2, n)
    kind = rng.integers(0, 5, n)     # 0 finite, 1 lower only, 2 upper only, 3 free, 4 fixed
    lo[(kind == 2) | (kind == 3)] = -np.inf
    hi[(kind == 1) | (kind == 3)] = np.inf
    hi[kind == 4] = lo[kind == 4]
    step = rng.uniform(0, 1, n)
    inside = np.where(np.isfinite(lo), np.minimum(lo + step, hi),
                      np.where(np.isfinite(hi), hi - step, step))
    b = A @ inside if rng.random() < 0.7 else rng.normal(size=m) * 3
    return LinearProgram(rng.normal(size=n), A, b, lo, hi)


class TestAgainstReference:
    def test_random_mixed_bounds(self):
        rng = np.random.default_rng(2024)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        pivots = 0
        for _ in range(1500):
            p = _random_mixed_lp(rng)
            want = _ref_solve_lp(p)
            _assert_same_solution(solve_lp(p), want)
            statuses[want.status] += 1
            pivots = max(pivots, want.iterations)
        assert min(statuses.values()) >= 100, statuses
        assert pivots >= 5

    def test_toy_robust_boxes(self):
        template = make_scenario(ExperimentConfig(scenario="toy")).decision_lp()
        rng = np.random.default_rng(4)
        center = rng.normal(size=600)
        half = rng.uniform(0, 1.5, 600)
        for c, h in zip(center, half):
            p = robustify_box(template, BoxSet([c - h], [c + h]))
            _assert_same_solution(solve_lp(p), _ref_solve_lp(p))

    def test_knapsack_lps(self):
        scn = make_scenario(ExperimentConfig(scenario="knapsack", d=10, seed=0))
        rng = np.random.default_rng(5)
        for _ in range(40):
            upper = rng.uniform(0.5, 4.0, scn.n_items)
            box = BoxSet(upper - rng.uniform(0, 1, scn.n_items), upper)
            p = build_knapsack_lp(scn, box)
            want = _ref_solve_lp(p)
            assert want.status == OPTIMAL and want.iterations > 20
            _assert_same_solution(solve_lp(p), want)

    def test_grid_flow_lps(self):
        scn = make_scenario(ExperimentConfig(scenario="shortest-path", seed=0))
        template = scn.decision_lp()
        rng = np.random.default_rng(6)
        for _ in range(30):
            costs = scn.lp_costs(rng.uniform(0.5, 3.0, scn.n_edges))
            p = LinearProgram(costs, template.A, template.b, template.lo, template.hi)
            _assert_same_solution(solve_lp(p), _ref_solve_lp(p))

    def test_bland_rule_from_the_first_step(self, monkeypatch):
        # a zero Dantzig budget makes every pricing step take Bland's rule
        lean, ref = lp._simplex_phase, _ref_simplex_phase
        monkeypatch.setattr(lp, "_simplex_phase", lambda t, c, b: lean(t, c, 0))
        monkeypatch.setitem(globals(), "_ref_simplex_phase", lambda t, c, b: ref(t, c, 0))
        rng = np.random.default_rng(8)
        pivots = 0
        for _ in range(300):
            p = _random_mixed_lp(rng)
            want = _ref_solve_lp(p)
            _assert_same_solution(solve_lp(p), want)
            pivots += want.iterations
        assert pivots > 300

    def test_periodic_refactor(self, monkeypatch):
        # 100 rows, 200 columns, x >= 0: the pivot count passes two refactors
        rng = np.random.default_rng(0)
        A = rng.normal(size=(100, 200))
        b = A @ rng.uniform(0, 1, 200)
        p = LinearProgram(rng.normal(size=200), A, b, np.zeros(200), np.full(200, np.inf))
        tableaus = {lp._Tableau: [], _RefTableau: []}
        for cls, seen in tableaus.items():
            def refactor(tab, plain=cls.refactor, seen=seen):
                plain(tab)
                seen.append((_bits(tab.T), _bits(tab.xB)))
            monkeypatch.setattr(cls, "refactor", refactor)
        want = _ref_solve_lp(p)
        assert want.iterations > 2 * _REFACTOR_EVERY
        _assert_same_solution(solve_lp(p), want)
        # the reference also refactors on entry and before reading x
        assert len(tableaus[lp._Tableau]) == 2
        assert tableaus[lp._Tableau] == tableaus[_RefTableau][1:-1]
