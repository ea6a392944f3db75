"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-decide --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it times ``harness.run_replicate`` untraced, each call right
after a fixed reference kernel, and reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
replicates and reports the per-layer metrics. Either way it checks every
report row and prints one JSON result as its last line; it exits 1 when a
check fails and 2 when the package cannot be loaded from ``src/`` next to
this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

# Workloads, with the reason for each in BENCHMARK.json. Replicates run in
# this process one at a time (workers=1) with one BLAS thread.
WORKLOADS = {
    # criterion-4 toy config at covariate shift 1: 2000 one-variable robust
    # LPs per replicate, almost no training
    "toy-decide": dict(scenario="toy", alpha=0.8, shift=1.0, shift_kind="covariate",
                       sigma1=1.0, sigma2=0.1, ratio_kind="oracle", clip_lo=0.05,
                       clip_hi=5.0, mean_kind="ridge", quantile_kind="linear",
                       n_eval=2000, seed=0),
    # the paper's Figure-3 / criterion-5 config: MLP training dominates
    "simple-fig3": dict(scenario="simple", alpha=0.8, d=4, ratio_kind="cls-mlp",
                        seed=100),
    # 200 robust knapsack LPs of 84 variables and 43 rows, plus MLP training
    "knapsack-cls": dict(scenario="knapsack", d=10, ratio_kind="cls-mlp",
                         n_eval=200, seed=0),
}
# --seed n selects replicates 5n .. 5n+4 of the workload's fixed world (the
# knapsack instance is keyed by the config seed, so that stays put); they run
# in turn
DISTINCT_REPS = 5
SETUP_PROBES = 5        # fresh processes timed for setup_s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TOY_CONSERVATIVE_TOL = 0.05   # acceptance criterion 4's tolerance

_SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from shiftro.harness import ExperimentConfig, make_scenario
make_scenario(ExperimentConfig.from_dict(json.loads(sys.argv[2])))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return args


def load_package():
    """Import shiftro from SRC only; a copy installed elsewhere does not count."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import shiftro
    where = Path(shiftro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"shiftro was imported from {where}, not from {SRC}")
    return shiftro


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(config, reps) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        threads = _blas_threads()
    except OSError as exc:
        threads = {"error": str(exc)}
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "config_seed": config.seed,
        "replicate_seeds": [config.seed + r for r in reps],
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def row_text(row) -> str:
    """The report row exactly as the CSV writer prints it (repr floats)."""
    return ",".join(repr(v) if isinstance(v, float) else str(v)
                    for v in row.csv_values())


class Ledger:
    """Replicate outcomes: rows by replicate, failures, and bit-for-bit repeats."""

    def __init__(self, config):
        self.config = config
        self.rows: dict[int, object] = {}
        self.texts: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, rep: int, call):
        """Time ``call()``, which returns (row, problems); None when it fails."""
        from perfbench.oracles import row_problems
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            row, problems = call()
        except Exception as exc:    # a failed replicate is a result, not a crash
            self.failures.append(f"replicate {rep}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        problems = list(problems) + row_problems(row, self.config, rep)
        text = row_text(row)
        if rep in self.texts and self.texts[rep] != text:
            problems.append(f"row differs from an earlier run: {text} vs "
                            f"{self.texts[rep]}")
        self.rows.setdefault(rep, row)
        self.texts.setdefault(rep, text)
        if problems:
            self.failures.extend(f"replicate {rep}: {p}" for p in problems)
            return None
        return wall


def setup_seconds(config) -> list[float]:
    """Wall time of fresh processes that import shiftro, validate the config
    and build the scenario."""
    payload = json.dumps(config.to_dict())
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, str(SRC), payload],
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms; a blocking
        # wait with a watchdog keeps the timing exact and the run bounded
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, "setup probe")
    return times


def coverage(config, ledger: Ledger) -> dict:
    """Median coverage_total of the distinct replicates run, and its distance
    to alpha. Fixed per seed, but one knapsack replicate's coverage has a
    standard deviation near 0.1, which five replicates cannot pin to a few
    percent; so these are per-layer metrics, not bounded ones."""
    if not ledger.rows:
        return {}
    cov = statistics.median(row.coverage_total for row in ledger.rows.values())
    return {"harness.coverage": cov, "harness.coverage_err": abs(cov - config.alpha)}


def measure_untraced(config, reps, seconds, ledger: Ledger, metrics, notes):
    from shiftro import analytic
    from shiftro.harness import make_scenario, run_replicate
    from perfbench.reference import Reference
    setup = setup_seconds(config)
    reference = Reference()
    walls, ref_walls = [], []
    t0 = time.perf_counter()
    i = 0
    # the first replicate warms caches and is not timed; at least one
    # replicate runs twice, so the repeat check always fires
    while i <= len(reps) or time.perf_counter() - t0 < seconds:
        rep = reps[i % len(reps)]
        ref_wall = reference.seconds()
        wall = ledger.run(rep, lambda: (run_replicate(config, rep), []))
        if wall is not None and i > 0:
            walls.append(wall)
            ref_walls.append(ref_wall)
        i += 1
    metrics.update(
        setup_s=statistics.median(setup),
        replicate_ref=(statistics.median(w / r for w, r in zip(walls, ref_walls))
                       if walls else float("nan")),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    notes.update(setup_runs=setup, replicate_walls=walls, reference_walls=ref_walls,
                 **coverage(config, ledger))
    if walls:
        notes["replicate_s"] = statistics.median(walls)
    if config.scenario == "toy" and ledger.rows:
        cons = statistics.median(row.p_conservative for row in ledger.rows.values())
        target = analytic.prob_conservative(make_scenario(config), config.alpha)
        notes["conservative_err"] = abs(cons - target)
        if notes["conservative_err"] > TOY_CONSERVATIVE_TOL:
            ledger.failures.append(f"median p_conservative {cons!r} is more than "
                                   f"{TOY_CONSERVATIVE_TOL} from the closed form "
                                   f"{target!r}")


def measure_traced(config, reps, seconds, ledger: Ledger, metrics, notes):
    import numpy as np
    from shiftro.harness import run_replicate
    from perfbench.probes import traced_replicate
    per_rep, lp_ms, untraced = [], [], []

    def traced_call(rep):
        row, m, ms, problems = traced_replicate(config, rep)
        per_rep.append(m)
        lp_ms.extend(ms)
        return row, problems

    t0 = time.perf_counter()
    ledger.run(reps[0], lambda: (run_replicate(config, reps[0]), []))   # warm-up
    i = 0
    while i < 1 or time.perf_counter() - t0 < seconds:
        rep = reps[i % len(reps)]
        # alternate the order so drift does not favour one side
        order = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for side in order:
            if side == "traced":
                ledger.run(rep, lambda: traced_call(rep))
            else:
                wall = ledger.run(rep, lambda: (run_replicate(config, rep), []))
                if wall is not None:
                    untraced.append(wall)
        i += 1
    traced = [m["harness.run_replicate.s"] for m in per_rep]
    if per_rep:
        for name in per_rep[0]:
            metrics[name] = statistics.median(m[name] for m in per_rep)
    if lp_ms:
        metrics["lp.solve_lp.ms_p50"] = float(np.percentile(lp_ms, 50))
        metrics["lp.solve_lp.ms_p99"] = float(np.percentile(lp_ms, 99))
    if traced and untraced:
        metrics["trace.overhead_share"] = (statistics.median(traced)
                                           / statistics.median(untraced) - 1.0)
    metrics.update(coverage(config, ledger))
    notes.update(traced_walls=traced, untraced_walls=untraced,
                 lp_solves_pooled=len(lp_ms), per_replicate=per_rep)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on a 2-vCPU machine a two-thread matmul waits for the
    # slower vCPU, which widened the spread of replicate_s across runs without
    # making replicates faster. Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_package()
    except ImportError as exc:
        print(f"perfbench: cannot load shiftro from {SRC}: {exc}", file=sys.stderr)
        return 2
    from shiftro.harness import ExperimentConfig

    config = ExperimentConfig.from_dict(dict(WORKLOADS[args.workload], workers=1,
                                             replicates=1))
    reps = [DISTINCT_REPS * args.seed + k for k in range(DISTINCT_REPS)]
    declared = declared_metrics(args.trace)
    ledger = Ledger(config)
    metrics, notes = {}, {}
    measure = measure_traced if args.trace else measure_untraced
    measure(config, reps, args.seconds, ledger, metrics, notes)

    missing = sorted(set(declared) - set(metrics))
    if missing and not ledger.failures:
        ledger.failures.append(f"metrics not measured: {missing}")
    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit}
                    for name, unit in declared.items()},
    }
    from shiftro.harness import CSV_COLUMNS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": config.to_dict(),
        "environment": environment(config, reps),
        "csv": [",".join(CSV_COLUMNS)] + [ledger.texts[r] for r in sorted(ledger.texts)],
        "failures": ledger.failures, "metrics": metrics, "notes": notes,
        "result": result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} (replicate seeds "
          f"{config.seed + reps[0]}..{config.seed + reps[-1]}) trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']} threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"commit {env['commit']}")
    print(f"  replicates attempted {ledger.attempted}, failed {failed} "
          f"(error_rate {failed / ledger.attempted:.4g})")
    if "replicate_s" in notes:
        print(f"  replicate_s = {notes['replicate_s']!r} s (median of "
              f"{len(notes['replicate_walls'])} timed replicates)")
    for key in ("harness.coverage", "harness.coverage_err", "conservative_err"):
        if key in notes:
            print(f"  {key} = {notes[key]!r} share")
    for name, unit in declared.items():
        print(f"  {name} = {metrics.get(name, float('nan'))!r} {unit}")
    for msg in ledger.failures:
        print(f"  FAILED: {msg}")
    print(f"  results written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
