"""End-to-end experiment orchestration: sample, fit, calibrate, decide,
score, and emit reports.

A pipeline run follows the calibration recipe end to end: fit the mean model
on the first training slice, the residual-width model on the second, the
density-ratio model from training + unlabeled test covariates, pick the
uncertainty scale on the held-out calibration slice, then solve the robust LP
at every evaluation covariate and record coverage / conservatism / value-at-
risk metrics. Replicate r of a run with seed s is bitwise identical to a
single run with seed s + r, which makes parallel execution safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral

import numpy as np

from .conformal import (box_hits, calib_scores, empirical_coverage, select_eta,
                        uncertainty_box)
from .density_ratio import (GaussianOracleRatio, fit_classifier_ratio, fit_kmm_covariate,
                            fit_kmm_label, trivial_ratio)
from .lp import OPTIMAL, BoxSet, LinearProgram, solve_lp, solve_robust_box
from .numerics import RngStream
from .predictors import Dataset, compute_residuals, fit_mean, fit_quantile
from . import analytic
from .scenarios import (TEST, TRAIN, GridScenario, KnapsackScenario, SimpleScenario,
                        ToyScenario, build_knapsack_lp, trace_path)

SCENARIOS = ("toy", "simple", "shortest-path", "knapsack")
RATIO_KINDS = ("trivial", "cls-linear", "cls-mlp", "kmm-cov", "kmm-label", "oracle")


class PipelineError(RuntimeError):
    """Component failure with the pipeline stage attached."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "simple"
    alpha: float = 0.8
    shift: float = 1.0
    shift_kind: str = "covariate"     # toy scenario only
    d: int | None = None              # None: scenario default (simple 4, grid/knapsack 10)
    sigma1: float = 1.0               # toy scenario only
    sigma2: float = 1.0               # toy scenario only
    n_f: int = 2000
    n_h: int = 1000
    n_cal: int = 1000
    m_ratio: int = 4000
    n_eval: int = 1000
    n_mc_var: int = 100
    mean_kind: str = "mlp"            # ridge | mlp
    quantile_kind: str = "mlp"        # linear | mlp
    ratio_kind: str = "cls-mlp"
    clip_lo: float = 0.05
    clip_hi: float = 20.0
    seed: int = 0
    replicates: int = 1
    workers: int = 1
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.ratio_kind not in RATIO_KINDS:
            raise ValueError(f"unknown ratio kind {self.ratio_kind!r}")
        for name in ("alpha", "shift", "sigma1", "sigma2", "clip_lo", "clip_hi"):
            # bool is a number in Python, but JSON's true is not a shift or a bound
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (0.5 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0.5, 1), got {self.alpha}")
        counts = ("n_f", "n_h", "n_cal", "m_ratio", "n_eval", "n_mc_var", "replicates",
                  "workers", "seed") + (() if self.d is None else ("d",))
        for name in counts:
            value, least = getattr(self, name), 0 if name == "seed" else 1
            # bool is an Integral, but JSON's true is not a count
            if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (0 <= self.shift < math.inf):
            raise ValueError(f"shift must be finite and nonnegative, got {self.shift!r}")
        if self.ratio_kind == "oracle" and self.scenario != "toy":
            raise ValueError("the oracle ratio exists only for the toy scenario")
        if self.shift_kind not in ("covariate", "label"):
            raise ValueError(f"unknown shift kind {self.shift_kind!r}")
        if not (0 < self.sigma1 < math.inf and 0 < self.sigma2 < math.inf):
            raise ValueError("sigma1 and sigma2 must be positive and finite")
        if self.scenario == "toy" and self.d is not None:
            raise ValueError("the toy scenario is one-dimensional; d cannot be set")
        if self.scenario != "toy" and (self.shift_kind, self.sigma1, self.sigma2) != (
                "covariate", 1.0, 1.0):
            raise ValueError("shift_kind, sigma1 and sigma2 apply to the toy scenario only")
        if self.mean_kind not in ("ridge", "mlp"):
            raise ValueError(f"unknown mean model kind {self.mean_kind!r}")
        if self.quantile_kind not in ("linear", "mlp"):
            raise ValueError(f"unknown quantile model kind {self.quantile_kind!r}")
        if not (0.0 < self.clip_lo <= self.clip_hi):
            raise ValueError(f"clip bounds must satisfy 0 < clip_lo <= clip_hi, "
                             f"got ({self.clip_lo}, {self.clip_hi})")
        if self.format not in ("csv", "json", "svg"):
            raise ValueError(f"unknown format {self.format!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path or null, got {self.out!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


def make_scenario(config: ExperimentConfig):
    if config.scenario == "toy":
        return ToyScenario(config.sigma1, config.sigma2, config.shift,
                           config.shift_kind)
    sizes = {} if config.d is None else {"d": config.d}
    if config.scenario == "simple":
        return SimpleScenario(shift=config.shift, **sizes)
    if config.scenario == "shortest-path":
        return GridScenario(shift=config.shift, theta_seed=config.seed, **sizes)
    if config.scenario == "knapsack":
        return KnapsackScenario(shift=config.shift, theta_seed=config.seed, **sizes)
    raise ValueError(config.scenario)


@dataclass(frozen=True)
class ReportRow:
    seed: int
    scenario: str
    ratio_kind: str
    alpha: float
    d: int
    coverage_total: float
    coverage_z1_neg: float
    coverage_z1_pos: float
    p_conservative: float
    mean_var: float
    eta: float

    def csv_values(self):
        return [getattr(self, col) for col in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class Report:
    rows: tuple
    config: ExperimentConfig

    def median(self, column: str) -> float:
        vals = [getattr(r, column) for r in self.rows]
        return float(np.median(vals))


def empirical_var(x, z, scenario, alpha: float, n_mc: int, rng: RngStream) -> float:
    """Empirical alpha-quantile of the LP objective over fresh cost draws.

    Uses the ceil(alpha * n_mc) order statistic (higher interpolation) of
    the objective value at decision x, with costs drawn from the test-phase
    conditional law at z.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    draws = scenario.sample_costs_given(np.asarray(z, dtype=float), n_mc, rng, TEST)
    vals = np.sort(scenario.lp_costs(draws) @ xv)
    k = int(math.ceil(alpha * n_mc))
    return float(vals[k - 1])


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _fit_ratio(config, scenario, train_z, d2: Dataset, test_z, seed):
    kind = config.ratio_kind
    clip = (config.clip_lo, config.clip_hi)
    if kind == "trivial":
        return trivial_ratio(*clip), None
    if kind in ("cls-linear", "cls-mlp"):
        return fit_classifier_ratio(train_z, test_z, kind.removeprefix("cls-"), seed,
                                    clip), None
    if kind == "kmm-cov":
        model = fit_kmm_covariate(d2.Z, test_z, clip, RngStream(seed, 31))
        return model, model.fit_indices
    if kind == "kmm-label":
        model = fit_kmm_label(d2, test_z, clip, RngStream(seed, 32))
        return model, model.fit_indices
    if kind == "oracle":
        return GaussianOracleRatio(scenario, *clip), None
    raise ValueError(kind)


def _decide(scenario, box: BoxSet, template: LinearProgram):
    """Robust decision for one uncertainty box; returns the decision vector.

    ``template`` is the replicate's ``scenario.decision_lp()``.
    """
    x_len = template.n
    if isinstance(scenario, KnapsackScenario):
        sol = solve_lp(build_knapsack_lp(scenario, box))
        x_len = scenario.n_items
    elif isinstance(scenario, GridScenario):
        # For x >= 0 the box worst case is the upper corner, so the robust
        # program reduces to a plain network LP and keeps integral vertices.
        sol = solve_lp(LinearProgram(scenario.lp_costs(box.upper), template.A,
                                     template.b, template.lo, template.hi))
    else:
        sol = solve_robust_box(template, box)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"{type(scenario).__name__} decision LP ended {sol.status}")
    if isinstance(scenario, GridScenario):
        trace_path(scenario, sol.x)
    return sol.x[:x_len]


def calibrate_replicate(config: ExperimentConfig, rep: int = 0):
    """Sample, fit f, h and the ratio, and calibrate eta for one replicate.

    Returns ``(scenario, mean_model, quantile_model, eta)``, with
    streams keyed by seed + rep; ``run_replicate`` evaluates what it returns.
    """
    seed = config.seed + rep
    # scenario structure (theta, prices) stays frozen across replicates
    scenario = _stage("scenario", make_scenario, config)
    alpha = config.alpha

    train_f = _stage("sample-train", scenario.sample, config.n_f, RngStream(seed, 1), TRAIN)
    d1 = _stage("sample-d1", scenario.sample, config.n_h, RngStream(seed, 2), TRAIN)
    d2 = _stage("sample-d2", scenario.sample, config.n_cal, RngStream(seed, 3), TRAIN)
    test_cov = _stage("sample-test-covariates", scenario.sample, config.m_ratio,
                      RngStream(seed, 4), TEST)

    mean_model = _stage("fit-mean", fit_mean, train_f, config.mean_kind, seed)
    resid = _stage("residuals", compute_residuals, d1, mean_model)
    quant_model = _stage("fit-quantile", fit_quantile, d1.Z, np.abs(resid), alpha,
                         config.quantile_kind, seed)

    train_z = np.vstack([train_f.Z, d1.Z, d2.Z])
    ratio_model, cal_idx = _stage("fit-ratio", _fit_ratio, config, scenario,
                                  train_z, d2, test_cov.Z, seed)
    d2_cal = d2 if cal_idx is None else Dataset(d2.Z[cal_idx], d2.C[cal_idx])

    scores = _stage("calib-scores", calib_scores, d2_cal, mean_model, quant_model,
                    ratio_model)
    eta = _stage("select-eta", select_eta, scores, alpha)
    return scenario, mean_model, quant_model, eta


def run_replicate(config: ExperimentConfig, rep: int = 0) -> ReportRow:
    """One full pipeline pass; replicate streams are keyed by seed + rep."""
    seed = config.seed + rep
    alpha = config.alpha
    scenario, mean_model, quant_model, eta = calibrate_replicate(config, rep)

    eval_data = _stage("sample-eval", scenario.sample, config.n_eval,
                       RngStream(seed, 5), TEST)
    var_rng = RngStream(seed, 6)

    boxes = _stage("uncertainty-box", uncertainty_box, eval_data.Z, mean_model,
                   quant_model, eta)
    covered = box_hits(eval_data.C, boxes)
    template = _stage("decide", scenario.decision_lp)
    conservative = np.zeros(eval_data.n, dtype=bool)
    var_vals = np.zeros(eval_data.n)
    for i in range(eval_data.n):
        z = eval_data.Z[i]
        box = BoxSet(boxes.lower[i], boxes.upper[i])
        x = _stage("decide", _decide, scenario, box, template)
        conservative[i] = bool(np.max(np.abs(x)) <= 1e-9)
        var_vals[i] = _stage("empirical-var", empirical_var, x, z, scenario, alpha,
                             config.n_mc_var, var_rng)

    cov_total = empirical_coverage(eval_data, boxes)
    neg = eval_data.Z[:, 0] <= 0
    cov_neg = float(covered[neg].mean()) if neg.any() else float("nan")
    cov_pos = float(covered[~neg].mean()) if (~neg).any() else float("nan")

    return ReportRow(
        seed=seed, scenario=config.scenario, ratio_kind=config.ratio_kind,
        alpha=alpha, d=scenario.d,
        coverage_total=cov_total, coverage_z1_neg=cov_neg, coverage_z1_pos=cov_pos,
        p_conservative=float(conservative.mean()), mean_var=float(var_vals.mean()),
        eta=eta)


def _replicate_task(payload):
    cfg_dict, rep = payload
    return run_replicate(ExperimentConfig.from_dict(cfg_dict), rep)


def run_pipeline(config: ExperimentConfig) -> Report:
    """All replicates, merged in replicate order (parallelism-invariant)."""
    reps = range(config.replicates)
    if config.workers > 1 and config.replicates > 1:
        from concurrent.futures import ProcessPoolExecutor
        payloads = [(config.to_dict(), r) for r in reps]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_replicate_task, payloads))
    else:
        rows = [run_replicate(config, r) for r in reps]
    return Report(tuple(rows), config)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_report(report: Report, fmt: str | None = None, out: str | None = None):
    """Write the report as CSV, JSON, or SVG chart(s); returns written paths."""
    fmt = fmt or report.config.format
    out = out or report.config.out or f"report.{fmt}"
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.rows:
            lines.append(",".join(_fmt(v) for v in row.csv_values()))
        _write_text(out, "\n".join(lines) + "\n")
        return [out]
    if fmt == "json":
        payload = {
            "rows": [dict(zip(CSV_COLUMNS, row.csv_values())) for row in report.rows],
        }
        _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return [out]
    if fmt == "svg":
        paths = []
        bar_path = out if out.endswith(".svg") else out + ".svg"
        _write_text(bar_path, coverage_bars_svg(report))
        paths.append(bar_path)
        if report.config.scenario == "toy":
            curve_path = bar_path.removesuffix(".svg") + "_curves.svg"
            _write_text(curve_path, conservatism_curves_svg(report))
            paths.append(curve_path)
        return paths
    raise ValueError(f"unknown format {fmt!r}")


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write report to {path}: {exc}") from exc


_SVG_W, _SVG_H, _SVG_PAD = 640, 400, 50
_CURVE_S_MAX, _CURVE_POINTS = 3.0, 25   # the conservatism chart's shift grid


def _svg_header(title):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
            f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f'<text x="{_SVG_W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>\n')


def _xy(frac_x, frac_y):
    x = _SVG_PAD + frac_x * (_SVG_W - 2 * _SVG_PAD)
    y = _SVG_H - _SVG_PAD - frac_y * (_SVG_H - 2 * _SVG_PAD)
    return x, y


def _polyline(points, color):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{coords}"/>\n')


def coverage_bars_svg(report: Report) -> str:
    """Bar chart of coverage_total per replicate with the target level line."""
    rows = report.rows
    parts = [_svg_header(f"coverage by replicate ({report.config.scenario}, "
                         f"{report.config.ratio_kind})")]
    n = max(len(rows), 1)
    for i, row in enumerate(rows):
        x0, y0 = _xy((i + 0.15) / n, 0.0)
        x1, y1 = _xy((i + 0.85) / n, min(max(row.coverage_total, 0.0), 1.0))
        parts.append(f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
                     f'height="{y0 - y1:.2f}" fill="steelblue"/>\n')
        parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_SVG_H - _SVG_PAD + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{row.seed}</text>\n')
    ax, ay = _xy(0.0, report.config.alpha)
    bx, _ = _xy(1.0, report.config.alpha)
    parts.append(f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{ay:.2f}" '
                 f'stroke="crimson" stroke-dasharray="6 3"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def conservatism_curves_svg(report: Report) -> str:
    """Line chart of P(x* = 0) vs shift for the toy world of the report's
    config: shift-aware curve (falling) and worst-case-ball curve (rising),
    plus the median over the report's rows at its shift, when that lies on
    the chart."""
    cfg = report.config
    grid = np.linspace(0.0, _CURVE_S_MAX, _CURVE_POINTS)
    parts = [_svg_header(f"conservative-solution probability vs shift "
                         f"(alpha={cfg.alpha}, {cfg.shift_kind})")]
    for method, color in ((analytic.OODRO, "steelblue"), (analytic.WSBALL, "darkorange")):
        pts = [_xy(s / _CURVE_S_MAX, analytic.prob_conservative(
            ToyScenario(cfg.sigma1, cfg.sigma2, s, cfg.shift_kind), cfg.alpha, method))
            for s in grid]
        parts.append(_polyline(pts, color))
    if report.rows and cfg.shift <= _CURVE_S_MAX:
        x, y = _xy(cfg.shift / _CURVE_S_MAX, report.median("p_conservative"))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
