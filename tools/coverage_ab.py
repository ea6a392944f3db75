"""Compare the coverage of two source trees, paired by replicate, in one
COVERAGE_<label>.json.

    python3 tools/coverage_ab.py --label smooth-width \
        --parent ../parent --change . \
        --world '{"scenario": "simple", "seed": 100}' \
        --world '{"scenario": "knapsack", "seed": 0}'

Each ``--world`` is a JSON object of ``ExperimentConfig`` fields. For each
world and each tree, a fresh process that imports ``shiftro`` from the tree's
``src/`` runs ``harness.calibrate_replicate`` for replicates 0..R-1. Every
replicate's f, h and eta are then scored on one block of test-law rows drawn
from stream 7 of the replicate's seed, a stream the pipeline does not draw:
total coverage, coverage on z1 <= 0 and z1 > 0, the mean box width and eta.

Replicate r of one tree is paired with replicate r of the other. For each
measure the output holds both sides' per-replicate values and, for the
change minus the parent, the paired mean difference, its standard error and
a two-sided 95 % Student interval. It is a measuring tool: it reads the
package and changes nothing in it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL_STREAM = 7
MEASURES = ("coverage_total", "coverage_z1_neg", "coverage_z1_pos", "mean_width", "eta")


def score_replicates(world: dict, replicates: int, rows: int) -> list:
    """Per-replicate measures of ``world`` under the imported ``shiftro``."""
    import numpy as np
    from shiftro.conformal import box_hits, uncertainty_box
    from shiftro.harness import ExperimentConfig, calibrate_replicate
    from shiftro.numerics import RngStream
    from shiftro.scenarios import TEST

    config = ExperimentConfig.from_dict(world)
    out = []
    for rep in range(replicates):
        scenario, f, h, eta = calibrate_replicate(config, rep)
        block = scenario.sample(rows, RngStream(config.seed + rep, EVAL_STREAM), TEST)
        boxes = uncertainty_box(block.Z, f, h, eta)
        covered = box_hits(block.C, boxes)
        neg = block.Z[:, 0] <= 0
        out.append({"coverage_total": float(covered.mean()),
                    "coverage_z1_neg": float(covered[neg].mean()),
                    "coverage_z1_pos": float(covered[~neg].mean()),
                    "mean_width": float(np.mean(boxes.upper - boxes.lower)),
                    "eta": float(eta)})
    return out


def score_tree(tree: Path, world: dict, replicates: int, rows: int) -> list:
    """score_replicates in a fresh process that imports shiftro from ``tree``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--score", str(tree),
           "--world", json.dumps(world), "--replicates", str(replicates),
           "--rows", str(rows)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"scoring {world} in {tree} failed:\n{res.stderr}")
    return json.loads(res.stdout.splitlines()[-1])


def paired(parent: list, change: list) -> dict:
    """Change minus parent, replicate by replicate, for every measure."""
    from scipy.stats import t
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent replicates against {len(change)}")
    n = len(parent)
    out = {}
    for name in MEASURES:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        diffs = [b - a for a, b in zip(p, c)]
        mean = statistics.fmean(diffs)
        se = statistics.stdev(diffs) / math.sqrt(n) if n > 1 else math.nan
        half = float(t.ppf(0.975, n - 1)) * se if n > 1 else math.nan
        out[name] = {"parent": p, "change": c,
                     "parent_mean": statistics.fmean(p), "change_mean": statistics.fmean(c),
                     "diff_mean": mean, "diff_se": se,
                     "diff_interval_95": [mean - half, mean + half]}
    return out


def world_key(world: dict) -> str:
    return f"{world.get('scenario', 'simple')}/seed{world.get('seed', 0)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--world", action="append", type=json.loads, required=True)
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--rows", type=int, default=50_000)
    ap.add_argument("--score", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.score:
        # the child process: one tree, one world
        sys.path.insert(0, str(args.score.resolve() / "src"))
        print(json.dumps(score_replicates(args.world[0], args.replicates, args.rows)))
        return 0
    if not (args.label and args.parent and args.change):
        ap.error("--label, --parent and --change are required")
    result = {"label": args.label, "replicates": args.replicates, "rows": args.rows,
              "eval_stream": EVAL_STREAM, "worlds": {}}
    for world in args.world:
        sides = [score_tree(tree, world, args.replicates, args.rows)
                 for tree in (args.parent, args.change)]
        entry = result["worlds"][world_key(world)] = {"config": world, **paired(*sides)}
        for name in ("coverage_total", "mean_width"):
            m = entry[name]
            print(f"{world_key(world)} {name}: parent {m['parent_mean']:.4g} "
                  f"change {m['change_mean']:.4g} diff {m['diff_mean']:+.4g} "
                  f"(se {m['diff_se']:.2g})")
    out = ROOT / f"COVERAGE_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
