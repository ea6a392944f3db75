"""Fold paired benchmark runs of two commits into one BENCH_<label>.json.

    python3 tools/fold_bench.py --label lean-simplex \
        --parent runs/parent --change runs/change

Each directory holds the JSON records that ``perfbench/run.py`` writes to
``perfbench/out/`` (copied out after each run, since a new run of the same
workload and seed overwrites its file). Runs are read in file-name order, and
the i-th untraced run of a workload and seed on one side is paired with the
i-th on the other; run the sides alternately, each first in every other pair.

For every end-to-end metric the output gives both sides' runs, medians and
quartiles, the pairs the change won (ties count for neither) and whether the
gain rule holds: at least nine tenths of the pairs won, and a gap between the
medians wider than the parent's interquartile range; and whether the change's
median is within the metric's regression bound of the parent's. Traced runs,
if any, add each per-layer metric's median per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """(workload, seed, trace) -> records, in file-name order."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["seed"], rec["trace"])
        runs.setdefault(key, []).append(rec)
    return runs


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def compare(parent, change, better: str, bound: float) -> dict:
    """Pair the i-th runs of each side; apply the gain rule and the bound."""
    n = min(len(parent), len(change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent[:n], change[:n]))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent[:n], change[:n]))
    par, cha = summary(parent[:n]), summary(change[:n])
    gap = sign * (par["median"] - cha["median"])
    iqr = par["q3"] - par["q1"]
    return {
        "better": better, "pairs": n, "change_wins": wins, "change_losses": losses,
        "parent": par, "change": cha,
        "median_change": cha["median"] / par["median"] - 1.0,
        "parent_iqr": iqr,
        "gain_shown": n > 0 and wins >= 0.9 * n and gap > iqr,
        "bound": bound,
        "within_bound": -gap <= bound * abs(par["median"]),
    }


def environment(rec) -> dict:
    env = rec["environment"]
    keys = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "platform")
    return {k: env.get(k) for k in keys}


def fold(label: str, parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    out = {"label": label, "workloads": {}}
    for (workload, seed, trace), p_recs in sorted(parent.items()):
        c_recs = change.get((workload, seed, trace))
        if not c_recs:
            continue
        entry = out["workloads"].setdefault(f"{workload}/seed{seed}", {
            "parent_commit": p_recs[0]["environment"]["commit"],
            "change_commit": c_recs[0]["environment"]["commit"],
            "seconds": p_recs[0]["seconds"],
        })
        out.setdefault("environment", environment(p_recs[0]))
        if trace == 0:
            entry["end_to_end"] = {
                name: compare([r["metrics"][name] for r in p_recs],
                              [r["metrics"][name] for r in c_recs], direction[name],
                              bounds[name])
                for name in bounds}
            entry["failed_runs"] = {"parent": sum(not r["result"]["correct"] for r in p_recs),
                                    "change": sum(not r["result"]["correct"] for r in c_recs)}
        else:
            entry["per_layer"] = {
                name: {"parent": statistics.median(r["metrics"][name] for r in p_recs),
                       "change": statistics.median(r["metrics"][name] for r in c_recs),
                       "better": direction[name], "runs": [len(p_recs), len(c_recs)]}
                for name in (m["name"] for m in spec["per_layer"])
                if name in p_recs[0]["metrics"] and name in c_recs[0]["metrics"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    result = fold(args.label, args.parent, args.change)
    if not result["workloads"]:
        print("fold_bench: no workload was run on both sides", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for key, entry in result["workloads"].items():
        for name, cmp in entry.get("end_to_end", {}).items():
            print(f"{key} {name}: parent {cmp['parent']['median']:.4g} "
                  f"change {cmp['change']['median']:.4g} "
                  f"({cmp['median_change']:+.1%}), wins {cmp['change_wins']}/{cmp['pairs']}, "
                  f"gain shown {cmp['gain_shown']}, within bound {cmp['within_bound']}")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
