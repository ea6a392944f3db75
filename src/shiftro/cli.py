"""Command-line entry point.

Subcommands run one experiment scenario each (toy, simple, shortest-path,
knapsack) plus a fast self-check (selftest). Exit codes: 0 success, 1
configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .harness import ExperimentConfig, RATIO_KINDS, emit_report, run_pipeline


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad command line, which main reports as a
    configuration error, instead of exiting 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftro",
        description="Shift-robust contextual LP experiments with calibrated "
                    "box uncertainty sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("toy", "simple", "shortest-path", "knapsack"):
        # every dest but --config's is an ExperimentConfig field; the toy
        # world alone is one-dimensional and alone has a label shift
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--alpha", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--shift", type=float)
        if name == "toy":
            p.add_argument("--shift-kind", choices=("covariate", "label"))
        else:
            p.add_argument("--d", type=int)
        p.add_argument("--ratio", dest="ratio_kind", choices=RATIO_KINDS)
        p.add_argument("--replicates", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--format", choices=("csv", "json", "svg"))
        p.add_argument("--config", type=str,
                       help="JSON file mirroring ExperimentConfig field-for-field")
        p.add_argument("--mean-kind", choices=("ridge", "mlp"))
        p.add_argument("--quantile-kind", choices=("linear", "mlp"))
        p.add_argument("--n-eval", type=int)
    sub.add_parser("selftest", help="quick internal consistency checks")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file's fields, then the subcommand's scenario, then every
    flag given; validated once, after the merge."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
    data["scenario"] = args.command
    names = {f.name for f in fields(ExperimentConfig)}
    data.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    return ExperimentConfig.from_dict(data)


def _selftest() -> int:
    from itertools import combinations, product

    from .conformal import CalibScores, select_eta
    from .lp import BoxSet, LinearProgram, solve_lp, solve_robust_box
    from .numerics import normal_cdf, normal_quantile

    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    grid = np.linspace(0.01, 0.99, 99)
    rt = max(abs(normal_cdf(normal_quantile(p)) - p) for p in grid)
    check(f"normal quantile/cdf roundtrip (max err {rt:.2e})", rt <= 1e-8)

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        A = rng.normal(size=(m, n))
        lo, hi = rng.uniform(-2, 0, n), rng.uniform(0.5, 2, n)
        b = A @ rng.uniform(lo, hi)
        c = rng.normal(size=n)
        p = LinearProgram(c, A, b, lo, hi)
        sol = solve_lp(p)
        best = np.inf
        for basis in combinations(range(n), m):
            B = p.A[:, basis]
            if abs(np.linalg.det(B)) < 1e-10:
                continue
            nonb = [j for j in range(n) if j not in basis]
            for corner in product(*[(lo[j], hi[j]) for j in nonb]):
                xB = np.linalg.solve(B, b - p.A[:, nonb] @ np.array(corner))
                if np.all(xB >= lo[list(basis)] - 1e-9) and np.all(xB <= hi[list(basis)] + 1e-9):
                    x = np.zeros(n)
                    x[list(basis)] = xB
                    x[nonb] = corner
                    best = min(best, c @ x)
        ok &= sol.status == "optimal" and abs(sol.value - best) <= 1e-7 * (1 + abs(best))
    check("LP solver vs vertex enumeration (50 instances)", ok)

    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 30))
        scores = rng.uniform(0, 5, n)
        weights = rng.uniform(0.1, 5, n)
        alpha = float(rng.uniform(0.55, 0.95))
        eta = select_eta(CalibScores(scores, weights), alpha)
        total = weights.sum()
        brute = min(s for s in scores
                    if weights[scores <= s].sum() >= alpha * total)
        ok &= eta == brute
    check("weighted scale selection vs brute force (100 instances)", ok)

    p1 = LinearProgram([0.0], np.zeros((0, 1)), [], [-1.0], [1.0])
    s = solve_robust_box(p1, BoxSet([-1.0], [2.0]))
    check("robust box straddle decision", abs(s.x[0]) < 1e-9 and abs(s.value) < 1e-9)

    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = None if args.command == "selftest" else _config_from_args(args)
    except SystemExit:    # --help, after printing the usage
        return 0
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.command == "selftest":
        try:
            return _selftest()
        except Exception as exc:   # a crash in selftest is a runtime error
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_pipeline(config)
        paths = emit_report(report)
        for row in report.rows:
            print(f"seed={row.seed} coverage={row.coverage_total:.4f} "
                  f"conservative={row.p_conservative:.4f} eta={row.eta:.4f} "
                  f"mean_var={row.mean_var:.4f}")
        for path in paths:
            print(f"wrote {path}")
        return 0
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
