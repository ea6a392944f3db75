"""Command-line entry point.

Subcommands run one experiment scenario each (toy, simple, shortest-path,
knapsack) plus a fast self-check (selftest). Exit codes: 0 success, 1
configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import get_args, get_type_hints

import numpy as np

from .harness import CHOICES, ExperimentConfig, emit_report, report_paths, run_pipeline


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad command line, which main reports as a
    configuration error, instead of exiting 2."""

    def error(self, message):
        raise ValueError(message)


# each flag and the ExperimentConfig field it sets, in --help order; --config
# names the JSON file that the flags override
FLAGS = {"--alpha": "alpha", "--seed": "seed", "--shift": "shift", "--shift-kind": "shift_kind",
         "--d": "d", "--ratio": "ratio_kind", "--replicates": "replicates",
         "--workers": "workers", "--out": "out", "--format": "format", "--config": None,
         "--mean-kind": "mean_kind", "--quantile-kind": "quantile_kind", "--n-eval": "n_eval"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftro",
        description="Shift-robust contextual LP experiments with calibrated "
                    "box uncertainty sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    hints = get_type_hints(ExperimentConfig)
    for name in CHOICES["scenario"]:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for flag, dest in FLAGS.items():
            if dest is None:
                p.add_argument(flag, help="JSON file mirroring ExperimentConfig field-for-field")
            # the toy world alone is one-dimensional and alone has a label shift
            elif dest != ("d" if name == "toy" else "shift_kind"):
                kind = (get_args(hints[dest]) or (hints[dest],))[0]   # int of int | None
                p.add_argument(flag, dest=dest, type=kind, choices=CHOICES.get(dest))
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
    data.update((k, v) for k, v in vars(args).items() if k in FLAGS.values() and v is not None)
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
        for path in report_paths(config) if config else ():
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"the directory of out {config.out!r} does not exist")
            if os.path.isdir(path):
                raise ValueError(f"the report path {path!r} is an existing directory")
    except SystemExit:    # --help, after printing the usage
        return 0
    except (ValueError, OSError, KeyError, TypeError, OverflowError) as exc:
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
