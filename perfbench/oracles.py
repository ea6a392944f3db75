"""Output checks: structural optimal values of the robust decision LPs and
range checks on emitted report rows.

The LP oracles use only the uncertainty box (and, for the knapsack, prices
and budget), never the solver, so they check it independently.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-7    # absolute plus relative


def values_match(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


def toy_box_value(box) -> float:
    """Optimal value of min over -1 <= x <= 1 of max over c in [l, u] of c x.

    x >= 0 costs u x and x <= 0 costs l x, so the best is min(0, u, -l).
    """
    lo, hi = float(box.lower[0]), float(box.upper[0])
    return min(0.0, hi, -lo)


def knapsack_box_value(prices, budget: float, box) -> float:
    """Optimal value of the robust knapsack LP from ``build_knapsack_lp``.

    The worst case of -c'x over the utility box [l, u] at x >= 0 is -l'x, so
    the LP is the fractional knapsack on the lower corner: greedy by l/p,
    skipping items with l <= 0, negated.
    """
    low = np.asarray(box.lower, dtype=float)
    p = np.asarray(prices, dtype=float)
    left = float(budget)
    value = 0.0
    for j in np.argsort(-low / p, kind="stable"):
        if low[j] <= 0.0 or left <= 0.0:
            break
        take = min(1.0, left / p[j])
        value += take * low[j]
        left -= take * p[j]
    return -value


def row_problems(row, config, rep: int) -> list[str]:
    """Reasons a report row is malformed: identity fields, finiteness, ranges."""
    problems = []
    if row.seed != config.seed + rep:
        problems.append(f"seed {row.seed} != {config.seed + rep}")
    for name in ("scenario", "ratio_kind", "alpha"):
        if getattr(row, name) != getattr(config, name):
            problems.append(f"{name} {getattr(row, name)!r} != config")
    for name in ("coverage_total", "coverage_z1_neg", "coverage_z1_pos",
                 "p_conservative"):
        v = getattr(row, name)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            problems.append(f"{name} {v!r} outside [0, 1]")
    if not math.isfinite(row.mean_var):
        problems.append(f"mean_var {row.mean_var!r} not finite")
    if not (math.isfinite(row.eta) and row.eta >= 0.0):
        problems.append(f"eta {row.eta!r} not finite and nonnegative")
    return problems
