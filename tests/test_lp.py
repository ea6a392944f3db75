"""LP solver and box-robust reformulation against independent oracles."""

import warnings
from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import linprog

from shiftro import lp
from shiftro.conformal import box_hits
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

    def test_arrays_are_read_only_and_not_the_callers(self):
        c, A, b = np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0])
        p = LinearProgram(c, A, b, [0.0, 0.0], [1.0, 1.0])
        for name in ("c", "A", "b", "lo", "hi"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name).flat[0] = 5.0
        # the caller's writeable arrays were copied, so writing them later
        # leaves the LP (and its cached robust layout) as built
        layout_A = p._robust_layout[2].A
        c[0], A[0, 0], b[0] = 5.0, 5.0, 5.0
        assert p.c[0] == 1.0 and p.A[0, 0] == 1.0 and p.b[0] == 1.0
        assert layout_A[0, 0] == 1.0
        assert _bits(robustify_box(p, BoxSet([0.0, 0.0], [1.0, 1.0])).A[0]) == \
            _bits(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))
        # a read-only view of a writeable array is copied too
        view = A.view()
        view.flags.writeable = False
        assert not np.shares_memory(LinearProgram(c, view, b, 0.0, 1.0).A, A)
        # an LP's own arrays are kept, uncopied
        assert LinearProgram(p.c, p.A, p.b, p.lo, p.hi).A is p.A

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

    def test_overflowing_box_entries_rejected(self):
        # a finite box whose width overflows: k_j - o_j reads -inf, and the
        # robust LP is refused with a ValueError, not numpy's overflow warning
        template = make_scenario(ExperimentConfig(scenario="toy")).decision_lp()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                robustify_box(template, BoxSet([-1.7e308], [1.7e308]))

    @pytest.mark.parametrize("lower,upper", [(-np.inf, 1.0), (0.0, np.inf),
                                             (-np.inf, -np.inf)])
    def test_infinite_box_rejected(self, lower, upper):
        # an infinite bound leaves an entry infinite or NaN (-inf - -inf):
        # a ValueError, with no numpy warning before it
        template = make_scenario(ExperimentConfig(scenario="toy")).decision_lp()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                robustify_box(template, BoxSet([lower], [upper]))

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


def _two_row_robust(p, box):
    """The robust LP with each bound's row as it reads, t_j - u_j x_j -
    slack_u_j = 0 and t_j - l_j x_j - slack_l_j = 0: the layout the
    differenced rows replace."""
    n, m = p.n, p.m
    A = np.zeros((m + 2 * n, 4 * n))
    A[:m, :n] = p.A
    for j in range(n):
        A[m + j, [j, n + j, 2 * n + j]] = [-box.upper[j], 1.0, -1.0]
        A[m + n + j, [j, n + j, 3 * n + j]] = [-box.lower[j], 1.0, -1.0]
    c = np.concatenate([np.zeros(n), np.ones(n), np.zeros(2 * n)])
    lo = np.concatenate([p.lo, np.full(n, -np.inf), np.zeros(2 * n)])
    hi = np.concatenate([p.hi, np.full(3 * n, np.inf)])
    return LinearProgram(c, A, np.concatenate([p.b, np.zeros(2 * n)]), lo, hi)


class TestDifferencedRows:
    @staticmethod
    def _bounds(rng, start, n):
        if start == "negative":
            return rng.uniform(-2, -0.1, n), rng.uniform(0.1, 2, n)
        if start == "zero":
            return np.zeros(n), rng.uniform(0.5, 2, n)
        if start == "positive":
            lo = rng.uniform(0.1, 1, n)
            return lo, lo + rng.uniform(0.5, 2, n)
        if start == "upper-only":
            return np.full(n, -np.inf), rng.uniform(-2, 2, n)
        return np.full(n, -np.inf), np.full(n, np.inf)

    @pytest.mark.parametrize("start", ["negative", "zero", "positive", "upper-only",
                                       "free"])
    def test_same_optimum_as_the_two_row_layout(self, start, monkeypatch):
        # x's start point (lower bound, else upper, else 0) has the sign the
        # case names (either sign for upper-only)
        rng = np.random.default_rng(["negative", "zero", "positive", "upper-only",
                                     "free"].index(start))
        starts = _phase_starts(monkeypatch)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, n))
            lo, hi = self._bounds(rng, start, n)
            A = rng.normal(size=(m, n))
            inside = np.clip(rng.normal(size=n), lo, hi)
            p = LinearProgram(np.zeros(n), A, A @ inside, lo, hi)
            box = BoxSet(*np.sort(rng.normal(size=(2, n)), axis=0))
            starts.clear()
            got = solve_lp(robustify_box(p, box))
            # t_j and the other bound's slack start basic in the 2n robust rows
            x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
            other_slack = np.where(x0 >= 0, 3 * n, 2 * n) + np.arange(n)
            assert starts[0][m:] == list(range(n, 2 * n)) + other_slack.tolist()
            want = solve_lp(_two_row_robust(p, box))
            assert got.status == want.status
            if want.status == OPTIMAL:
                solved += 1
                assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9)
                assert worst_case_value(got.x[:n], box) == pytest.approx(
                    got.value, rel=1e-9, abs=1e-9)
        assert solved >= 20


def _plain_robust(p, box):
    """``robustify_box`` built from scratch for each box, one j at a time."""
    n, m = p.n, p.m
    x0 = np.where(np.isfinite(p.lo), p.lo, np.where(np.isfinite(p.hi), p.hi, 0.0))
    A = np.zeros((m + 2 * n, 4 * n))
    A[:m, :n] = p.A
    for j in range(n):
        if x0[j] >= 0:
            kept, other, kept_slack, other_slack = box.upper[j], box.lower[j], 2 * n, 3 * n
        else:
            kept, other, kept_slack, other_slack = box.lower[j], box.upper[j], 3 * n, 2 * n
        A[m + j, [j, n + j, kept_slack + j]] = [-kept, 1.0, -1.0]
        A[m + n + j, [j, kept_slack + j, other_slack + j]] = [kept - other, 1.0, -1.0]
    c = np.concatenate([np.zeros(n), np.ones(n), np.zeros(2 * n)])
    lo = np.concatenate([p.lo, np.full(n, -np.inf), np.zeros(2 * n)])
    hi = np.concatenate([p.hi, np.full(3 * n, np.inf)])
    return LinearProgram(c, A, np.concatenate([p.b, np.zeros(2 * n)]), lo, hi)


def _assert_same_lp(got, want):
    for field in ("c", "A", "b", "lo", "hi"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


class TestCachedLayout:
    """``robustify_box`` builds what no box sets once per template."""

    @pytest.mark.parametrize("start", ["negative", "zero", "positive", "upper-only",
                                       "free"])
    def test_equals_a_plain_construction(self, start):
        rng = np.random.default_rng(10 + ["negative", "zero", "positive", "upper-only",
                                          "free"].index(start))
        for _ in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            lo, hi = TestDifferencedRows._bounds(rng, start, n)
            A = rng.normal(size=(m, n))
            p = LinearProgram(rng.normal(size=n), A, rng.normal(size=m), lo, hi)
            box = BoxSet(*np.sort(rng.normal(size=(2, n)), axis=0))
            _assert_same_lp(robustify_box(p, box), _plain_robust(p, box))

    def test_boxes_of_one_template_do_not_leak(self):
        rng = np.random.default_rng(11)
        p = LinearProgram(np.zeros(3), [[1.0, 2.0, -1.0]], [0.5], [-1.0, 0.0, -np.inf],
                          [1.0, 2.0, 1.0])
        boxes = [BoxSet(*np.sort(rng.normal(size=(2, 3)), axis=0)) for _ in range(6)]
        boxes.append(BoxSet(np.zeros(3), np.zeros(3)))
        built = [robustify_box(p, box) for box in boxes]
        layout = p._robust_layout
        assert robustify_box(p, boxes[0]) is not built[0]
        assert p._robust_layout is layout       # built once, on first use
        # each LP holds its own box, also after later boxes were written
        for box, r in zip(boxes, built):
            _assert_same_lp(r, _plain_robust(p, box))
        # the skeleton still reads 0 where each box writes
        _, box_at, skeleton = layout
        assert (skeleton.A[box_at] == 0.0).all()
        assert np.array_equal(skeleton.A, _plain_robust(p, boxes[-1]).A)  # -0.0 == 0.0

    def test_cached_arrays_are_read_only(self):
        p = LinearProgram(np.zeros(2), [[1.0, 1.0]], [1.0], 0.0, 1.0)
        r = robustify_box(p, BoxSet([-1.0, 0.0], [1.0, 2.0]))
        keep_u, box_at, skeleton = p._robust_layout
        for a in [keep_u, *box_at, skeleton.c, skeleton.A, skeleton.b, skeleton.lo,
                  skeleton.hi, r.c, r.A, r.b, r.lo, r.hi]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        assert not np.shares_memory(r.A, skeleton.A)   # each box's own A

    def test_boxes_share_all_but_their_own_A(self):
        p = LinearProgram(np.zeros(3), [[1.0, 2.0, -1.0]], [0.5], [-1.0, 0.0, -np.inf],
                          [1.0, 2.0, 1.0])
        rng = np.random.default_rng(13)
        built = [robustify_box(p, BoxSet(*np.sort(rng.normal(size=(2, 3)), axis=0)))
                 for _ in range(4)]
        skeleton = p._robust_layout[2]
        for r in built:
            # exactly these six, so no layout cached on the skeleton reaches r
            assert set(vars(r)) == {"c", "A", "b", "lo", "hi", "_start"}
            for name in ("c", "b", "lo", "hi", "_start"):
                assert getattr(r, name) is getattr(skeleton, name), name
            assert not r.A.flags.writeable
            assert not np.shares_memory(r.A, skeleton.A)
        for r, other in combinations(built, 2):
            assert not np.shares_memory(r.A, other.A)

    @pytest.mark.parametrize("template", ["toy", "three-by-one"])
    def test_solve_robust_box_is_the_sliced_solve(self, template):
        if template == "toy":
            p = make_scenario(ExperimentConfig(scenario="toy")).decision_lp()
        else:
            p = LinearProgram(np.zeros(3), [[1.0, 2.0, -1.0]], [0.5],
                              [-1.0, 0.0, -np.inf], [1.0, 2.0, 1.0])
        rng = np.random.default_rng(12)
        pivots = 0
        for _ in range(200):
            box = BoxSet(*np.sort(rng.normal(size=(2, p.n)) * 2, axis=0))
            full = solve_lp(robustify_box(p, box))
            want = LpSolution(full.x[:p.n], full.value, full.status, full.iterations)
            got = solve_robust_box(p, box)
            _assert_same_solution(got, want)
            assert got.status == OPTIMAL
            pivots += got.iterations
        assert pivots > 0


class TestSharedStart:
    """Robust LPs share their template's read-only ``solve_lp`` start."""

    @pytest.mark.parametrize("start", ["negative", "zero", "positive", "upper-only",
                                       "free"])
    def test_equals_a_fresh_lps_start(self, start):
        rng = np.random.default_rng(20 + ["negative", "zero", "positive", "upper-only",
                                          "free"].index(start))
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 4))
            lo, hi = TestDifferencedRows._bounds(rng, start, n)
            p = LinearProgram(rng.normal(size=n), rng.normal(size=(m, n)),
                              rng.normal(size=m), lo, hi)
            r = robustify_box(p, BoxSet(*np.sort(rng.normal(size=(2, n)), axis=0)))
            assert r._start is p._robust_layout[2]._start
            fresh = LinearProgram(r.c, r.A, r.b, r.lo, r.hi)
            assert "_start" not in vars(fresh)        # computed on first use
            for got, want in zip(r._start, fresh._start, strict=True):
                assert _bits(got) == _bits(want)

    def test_start_arrays_are_read_only(self):
        p = LinearProgram(np.zeros(2), [[1.0, 1.0]], [1.0], [-1.0, 0.0], [1.0, np.inf])
        r = robustify_box(p, BoxSet([-1.0, 0.0], [1.0, 2.0]))
        for a in (*p._start, *r._start):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    def test_templates_do_not_share_a_start(self):
        box = BoxSet([-1.0], [1.0])
        p = LinearProgram([0.0], np.zeros((0, 1)), [], [-1.0], [1.0])
        q = LinearProgram([0.0], np.zeros((0, 1)), [], [-1.0], [1.0])
        r_p, r_q = robustify_box(p, box), robustify_box(q, box)
        assert robustify_box(p, box)._start is r_p._start
        assert r_p._start is not r_q._start
        for a in r_p._start:
            assert not any(np.shares_memory(a, b) for b in r_q._start)


class TestBoxSet:
    def test_contains(self):
        # containment is conformal.box_hits, one row per box of a block
        box = BoxSet([[0.0, -1.0], [0.0, -1.0]], [[1.0, 1.0], [1.0, 1.0]])
        assert box_hits([[0.5, 0.0], [0.5, 2.0]], box).tolist() == [True, False]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxSet([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxSet([np.nan], [1.0])

    def test_row_of_a_block_equals_a_fresh_box(self):
        lower = np.array([[0.0, -1.0], [2.0, 3.0]])
        block = BoxSet(lower, lower + [[1.0, 0.5], [0.0, 1e-13]])
        for i in range(2):
            row = block.row(i)
            fresh = BoxSet(block.lower[i], block.upper[i])
            assert isinstance(row, BoxSet) and row.dim == 2
            assert _bits(row.lower) == _bits(fresh.lower)
            assert _bits(row.upper) == _bits(fresh.upper)
        with pytest.raises(ValueError, match="block box"):
            BoxSet([0.0, 1.0], [1.0, 2.0]).row(0)

    def test_infinite_bounds_allowed_for_membership(self):
        box = BoxSet([-np.inf], [np.inf])
        assert box_hits([[1e12]], BoxSet([[-np.inf]], [[np.inf]])).all()
        with pytest.raises(ValueError):
            robustify_box(LinearProgram([0.0], np.zeros((0, 1)), [], [0.0], [1.0]),
                          box)


# The bounded simplex as it stood before its inner loop was rewritten with
# fewer numpy calls per pivot, with the crash start written out in loops: the
# reference the lean solver must match bit for bit, in every LpSolution field
# and in the pivot count.

class _RefTableau:
    def __init__(self, A, b, lo, hi, state, basis):
        self.A = A
        self.b = b
        self.lo = lo
        self.hi = hi
        self.state = state
        self.basis = basis
        self.pivots = 0
        # the starting basis is diagonal: each row divides by its basic entry
        diag = A[np.arange(A.shape[0]), basis]
        x = np.array([self.nonbasic_value(j) for j in range(A.shape[1])])
        x[basis] = 0.0
        self.T = A / diag[:, None]
        self.xB = (b - A @ x) / diag

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


def _ref_crash(p, x0, resid):
    """Row -> the lowest column whose only nonzero is in that row and whose
    value from the row lies within its bounds."""
    chosen = {}
    for j in range(p.n):
        rows = np.flatnonzero(p.A[:, j])
        if rows.size != 1 or rows[0] in chosen:
            continue
        i = int(rows[0])
        a = p.A[i, j]
        value = (resid[i] + a * x0[j]) / a
        if p.lo[j] <= value <= p.hi[j]:
            chosen[i] = j
    return chosen


def _ref_solve_lp(p, crash=True):
    """``crash=False`` starts from the all-artificial basis."""
    m, n = p.m, p.n
    x0, state0 = _ref_initial_point(p.lo, p.hi)
    resid = p.b - p.A @ x0
    signs = np.where(resid >= 0.0, 1.0, -1.0)
    A_ext = np.hstack([p.A, np.diag(signs)])
    lo_ext = np.concatenate([p.lo, np.zeros(m)])
    hi_ext = np.concatenate([p.hi, np.full(m, np.inf)])
    state = np.concatenate([state0, np.full(m, _BASIC, dtype=int)])
    basis = np.arange(n, n + m)
    for i, j in (_ref_crash(p, x0, resid) if crash else {}).items():
        basis[i] = j
        state[j] = _BASIC
        state[n + i] = _AT_LO
        hi_ext[n + i] = 0.0
    tab = _RefTableau(A_ext, p.b, lo_ext, hi_ext, state, basis)

    budget = 5 * (n + m)
    if any(j >= n for j in basis):
        phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
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
    return LpSolution(x, float(p.c @ x), OPTIMAL, iterations=tab.pivots)


def _bits(v):
    """Bytes of an array or float field (NaN reads as its own bit pattern)."""
    return np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes()


def _assert_same_solution(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    for field in ("x", "value"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


def _random_mixed_lp(rng, density=None):
    """Finite, half-infinite, free and fixed columns; b feasible or not.

    With a ``density``, each entry of A is kept with that probability, so
    that singleton columns turn up on LPs with several rows.
    """
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, min(n, 5) + 1))
    A = rng.normal(size=(m, n))
    if density is not None:
        A[rng.random(A.shape) >= density] = 0.0
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

    def test_toy_robust_boxes(self, monkeypatch):
        template = make_scenario(ExperimentConfig(scenario="toy")).decision_lp()
        rng = np.random.default_rng(4)
        center = rng.normal(size=600)
        half = rng.uniform(0, 1.5, 600)
        tableaus = _tableaus(monkeypatch)
        for c, h in zip(center, half):
            p = robustify_box(template, BoxSet([c - h], [c + h]))
            _assert_same_solution(solve_lp(p), _ref_solve_lp(p))
        # both the solve after a move and the read-out of the start basis
        moved = sum(t.pivots + t.flips > 0 for t in tableaus)
        assert 0 < moved < len(tableaus) == 600

    def test_knapsack_lps(self):
        scn = make_scenario(ExperimentConfig(scenario="knapsack", d=10, seed=0))
        rng = np.random.default_rng(5)
        for _ in range(40):
            upper = rng.uniform(0.5, 4.0, scn.n_cost)
            box = BoxSet(upper - rng.uniform(0, 1, scn.n_cost), upper)
            p = build_knapsack_lp(scn, box)
            want = _ref_solve_lp(p)
            assert want.status == OPTIMAL
            _assert_same_solution(solve_lp(p), want)

    def test_knapsack_sized_lps_without_singletons(self):
        # the knapsack LPs above under a dense, diagonally dominant row mix:
        # the same 84 columns, 43 rows and feasible set, but every column has
        # a nonzero in every row, so the crash finds nothing and phase 1
        # pivots from the all-artificial basis
        scn = make_scenario(ExperimentConfig(scenario="knapsack", d=10, seed=0))
        rng = np.random.default_rng(9)
        for _ in range(12):
            upper = rng.uniform(0.5, 4.0, scn.n_cost)
            box = BoxSet(upper - rng.uniform(0, 1, scn.n_cost), upper)
            base = build_knapsack_lp(scn, box)
            mix = np.eye(base.m) + rng.uniform(0.0, 1.0, (base.m, base.m)) / base.m
            p = LinearProgram(base.c, mix @ base.A, mix @ base.b, base.lo, base.hi)
            assert p.A.shape == (43, 84)
            assert np.count_nonzero(p.A, axis=0).min() > 1
            want = _ref_solve_lp(p)
            assert want.status == OPTIMAL and want.iterations > 20
            _assert_same_solution(solve_lp(p), want)

    def test_random_sparse_lps(self):
        rng = np.random.default_rng(2025)
        crashed = 0
        for _ in range(600):
            p = _random_mixed_lp(rng, density=0.5)
            x0, _ = _ref_initial_point(p.lo, p.hi)
            crashed += p.m > 1 and bool(_ref_crash(p, x0, p.b - p.A @ x0))
            _assert_same_solution(solve_lp(p), _ref_solve_lp(p))
        assert crashed >= 100

    def test_grid_flow_lps(self):
        scn = make_scenario(ExperimentConfig(scenario="shortest-path", seed=0))
        template = scn.decision_lp()
        rng = np.random.default_rng(6)
        for _ in range(30):
            costs = scn.lp_costs(rng.uniform(0.5, 3.0, scn.n_cost))
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
        # the reference also refactors before reading x
        assert len(tableaus[lp._Tableau]) == 2
        assert tableaus[lp._Tableau] == tableaus[_RefTableau][:-1]


def _tableaus(monkeypatch):
    """Every tableau that ``solve_lp`` builds, in order."""
    built = []

    class Recording(lp._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(lp, "_Tableau", Recording)
    return built


class TestNoMoveReadOut:
    # x0 and x1 are singletons of rows 0 and 1 with coefficients 2.5 and
    # -0.3, so the crash starts them basic in a non-unit diagonal basis
    A = [[2.5, 0.0, 1.0], [0.0, -0.3, 1.0]]
    b = [1.3, 0.7]
    lo = [-5.0, -5.0, 0.1]

    @pytest.mark.parametrize("c, moves", [([0.0, 0.0, 1.0], 0), ([0.0, 0.0, -1.0], 1)])
    def test_same_bits_as_the_reference(self, monkeypatch, c, moves):
        # with cost +1, x2 stays at its lower bound and nothing moves, so the
        # final solve is skipped; with cost -1 it rises to its upper bound 1
        # in a bound flip, no pivot, and the solve runs
        tableaus = _tableaus(monkeypatch)
        p = LinearProgram(c, self.A, self.b, self.lo, [5.0, 5.0, 1.0])
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(lp.np.linalg, "solve",
                            lambda *args: solves.append(args) or solve(*args))
        got = solve_lp(p)
        assert tableaus[0].basis.tolist() == [0, 1]
        assert (tableaus[0].pivots, tableaus[0].flips) == (0, moves)
        assert len(solves) == moves
        assert got.status == OPTIMAL
        _assert_same_solution(got, _ref_solve_lp(p))


def _phase_starts(monkeypatch):
    """The basis each simplex phase of ``solve_lp`` starts from, in order."""
    starts = []
    run = lp._simplex_phase

    def recording(tab, cost, budget):
        starts.append(tab.basis.tolist())
        return run(tab, cost, budget)

    monkeypatch.setattr(lp, "_simplex_phase", recording)
    return starts


class TestCrashStart:
    # min -x0 - 2 x1  s.t.  x0 + x1 + s0 = 2,  x0 - x1 + s1 = b1,  all >= 0
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]]
    c = [-1.0, -2.0, 0.0, 0.0]

    def test_singletons_covering_every_row_skip_phase_one(self, monkeypatch):
        starts = _phase_starts(monkeypatch)
        s = solve_lp(LinearProgram(self.c, self.A, [2.0, 1.0], 0.0, np.inf))
        assert starts == [[2, 3]]       # s0 and s1 basic, phase 2 only
        assert s.status == OPTIMAL and s.value == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("b1, hi1", [(-1.0, np.inf), (1.0, 0.5)])
    def test_singleton_outside_its_bounds_keeps_the_artificial(self, monkeypatch,
                                                               b1, hi1):
        # row 1 would put s1 at b1, below 0 or above hi1
        starts = _phase_starts(monkeypatch)
        p = LinearProgram(self.c, self.A, [2.0, b1], 0.0, [np.inf] * 3 + [hi1])
        s = solve_lp(p)
        assert starts[0] == [2, 5]      # row 1's artificial is column 4 + 1
        assert len(starts) == 2
        want = _ref_solve_lp(p, crash=False)
        assert s.status == want.status == OPTIMAL
        assert s.value == pytest.approx(want.value, abs=1e-12)

    def test_lowest_fitting_column_of_a_row_starts_basic(self, monkeypatch):
        # x0, x1 and x2 are all singletons of the one row; x0 would sit at
        # 3 > 1, so x1 starts basic
        starts = _phase_starts(monkeypatch)
        solve_lp(LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [3.0], 0.0,
                               [1.0, 5.0, 5.0]))
        assert starts == [[1]]

    @pytest.mark.parametrize("density", [None, 0.5])
    def test_same_status_and_value_as_the_all_artificial_start(self, density):
        rng = np.random.default_rng(2024)
        for _ in range(1500):
            p = _random_mixed_lp(rng, density)
            got, want = solve_lp(p), _ref_solve_lp(p, crash=False)
            assert got.status == want.status
            if want.status == OPTIMAL:
                assert abs(got.value - want.value) <= 1e-9 * (1 + abs(want.value))
