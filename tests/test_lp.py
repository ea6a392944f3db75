"""LP solver and box-robust reformulation against independent oracles."""

from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import linprog

from shiftro.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, BoxSet, LinearProgram,
                        LpSolution, robustify_box, solve_lp, solve_robust_box,
                        worst_case_value)


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
        # tiny grid with many ties exercises the Bland fallback path
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
