"""Compare the report rows of two source trees, replicate by replicate.

    python3 tools/rows_ab.py --parent ../parent --change . --replicates 50
    python3 tools/rows_ab.py --parent ../parent --change . --workload toy-decide

For every benchmark workload (``WORKLOADS`` in ``perfbench/run.py``), or
only for those named by ``--workload`` (repeatable), each tree's fresh
process imports ``shiftro`` from the tree's ``src/``, runs
``harness.run_replicate`` on replicates 0..R-1 of the workload's config (one
worker, one BLAS thread, as the benchmark runs it) and prints each row as
``perfbench.run.row_text`` prints it. The two processes run side by side
and their rows are compared as they arrive. The tool exits 1 at the first
row that differs, printing both versions of it, 2 when a process fails or a
name is unknown, and 0 when every row is byte-identical. Naming workloads
lets a change that moves some workloads' rows on purpose show the others
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def print_rows(tree: Path, replicates: int, workloads: list) -> None:
    """The child process: the rows of ``workloads`` under ``tree``'s shiftro,
    one line each, as ``<workload> <replicate> <row text>``."""
    src = tree.resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import shiftro
    where = Path(shiftro.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"shiftro was imported from {where}, not from {src}")
    from perfbench.run import WORKLOADS, row_text
    from shiftro.harness import ExperimentConfig, run_replicate

    for name in workloads:
        config = ExperimentConfig.from_dict(dict(WORKLOADS[name], workers=1,
                                                 replicates=1))
        for rep in range(replicates):
            print(name, rep, row_text(run_replicate(config, rep)), flush=True)


def start(tree: Path, replicates: int, workloads: list, env: dict) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rows-of", str(tree),
           "--replicates", str(replicates)]
    for name in workloads:
        cmd += ["--workload", name]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def first_difference(parent_lines, change_lines):
    """The first pair of lines that differ (an ended side reads ``None``), or
    None when both sides end together with every line equal."""
    parent_lines, change_lines = iter(parent_lines), iter(change_lines)
    while True:
        p, c = next(parent_lines, None), next(change_lines, None)
        if p != c:
            return p, c
        if p is None:
            return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--replicates", type=int, default=50)
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="compare only this workload (repeatable; default: all)")
    ap.add_argument("--rows-of", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.run import BLAS_THREAD_VARS, WORKLOADS

    unknown = sorted(set(args.workload or ()) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)} "
                 f"(choose from {', '.join(WORKLOADS)})")
    workloads = [w for w in WORKLOADS if not args.workload or w in args.workload]
    if args.rows_of:
        print_rows(args.rows_of, args.replicates, workloads)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    if args.replicates < 1:
        ap.error("--replicates must be positive")

    trees = {"parent": args.parent, "change": args.change}
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    procs = [start(tree, args.replicates, workloads, env) for tree in trees.values()]
    diff = ()
    try:
        diff = first_difference(*(p.stdout for p in procs))
    finally:
        for p in procs:
            if diff is not None:    # stop a side that is still running
                p.kill()
            p.wait()
            p.stdout.close()
    if diff is None:
        failed = [side for side, p in zip(trees, procs) if p.returncode != 0]
    else:
        failed = [side for side, line in zip(trees, diff) if line is None]
    if failed:
        print(f"rows_ab: the {' and '.join(failed)} process failed (see its stderr above)")
        return 2
    if diff is None:
        print(f"rows_ab: {len(workloads) * args.replicates} rows byte-identical "
              f"({', '.join(workloads)}; replicates 0..{args.replicates - 1})")
        return 0
    (name, rep, p_row), (_, _, c_row) = (line.rstrip("\n").split(" ", 2) for line in diff)
    print(f"rows_ab: {name} replicate {rep} differs\n  parent: {p_row}\n  change: {c_row}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
