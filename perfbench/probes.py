"""Traced replicates: shiftro's public functions are wrapped where their
callers look them up (module globals and class attributes), for the length
of one ``run_replicate`` call, and restored afterwards. Nothing in the
package changes.

Besides spans, the wrappers collect LP sizes and pivots, random draws, fit
losses and calibration weights, and check every robust decision's optimal
value against the structural oracle of its box.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict

import numpy as np

from shiftro import analytic, density_ratio, harness, lp, predictors, scenarios
from shiftro.density_ratio import RatioModel
from shiftro.lp import OPTIMAL
from shiftro.numerics import RngStream
from shiftro.scenarios import (GridScenario, KnapsackScenario, SimpleScenario,
                               ToyScenario)

from . import oracles
from .spans import Recorder, covered_share, self_times

FIT_PARENTS = ("predictors.fit_mean", "predictors.fit_quantile", "density_ratio.fit")
FIT_SPANS = frozenset(FIT_PARENTS + ("predictors.compute_residuals",
                                     "predictors.loss_and_grad"))
# the per-row evaluation layers: box, decision, value-at-risk draws
EVAL_SPANS = frozenset({"conformal.calib_scores", "conformal.select_eta",
                        "conformal.uncertainty_box", "conformal.empirical_coverage",
                        "lp.solve_robust_box", "lp.robustify_box", "lp.solve_lp",
                        "scenarios.build_knapsack_lp", "harness.empirical_var",
                        "scenarios.sample_costs_given"})
_MISSING = object()


class Trace:
    """Everything one traced replicate records."""

    def __init__(self, config):
        self.config = config
        self.recorder = Recorder()
        self.rng_calls = 0
        self.rng_values = 0
        self.oracle_checked = 0
        self.problems: list[str] = []
        self.calibration: dict = {}
        self._pending_knapsack: dict = {}

    # -- attribute hooks, called after the wrapped call returns ------------

    def on_sample(self, span, args, kwargs, result):
        span.attrs["rows"] = result.n

    def on_solve_lp(self, span, args, kwargs, sol):
        p = args[0]
        span.attrs.update(vars=p.n, rows=p.m, iterations=sol.iterations,
                          optimal=sol.status == OPTIMAL)
        pending = self._pending_knapsack.pop(id(p), None)
        if pending is not None and pending[0] is p:
            self._check(sol, pending[1], "knapsack")

    def on_robust_box(self, span, args, kwargs, sol):
        p, box = args[0], args[1]
        if p.n == 1 and p.m == 0 and p.lo[0] == -1.0 and p.hi[0] == 1.0:
            self._check(sol, oracles.toy_box_value(box), "toy")
        else:
            self.problems.append(f"no structural oracle for a {p.n}-variable LP")

    def on_knapsack_lp(self, span, args, kwargs, result):
        scn, box = args[0], args[1]
        want = oracles.knapsack_box_value(scn.prices, scn.budget, box)
        self._pending_knapsack[id(result)] = (result, want)

    def on_loss(self, span, args, kwargs, result):
        span.attrs.update(loss=float(result[0]), rows=args[1].shape[0])

    def on_calib_scores(self, span, args, kwargs, result):
        w = result.weights
        n = w.size
        cfg = self.config
        ess = float(w.sum() ** 2 / np.sum(w * w))
        self.calibration = {
            "density_ratio.ess": ess,
            "density_ratio.ess_share": ess / n,
            "density_ratio.clipped_lo_share": float(np.mean(w <= cfg.clip_lo)),
            "density_ratio.clipped_hi_share": float(np.mean(w >= cfg.clip_hi)),
            "density_ratio.w_max_over_min": float(w.max() / w.min()),
            "density_ratio.coverage_band": analytic.coverage_band(w, n),
        }

    def _check(self, sol, want, kind):
        self.oracle_checked += 1
        if sol.status != OPTIMAL:
            self.problems.append(f"{kind} LP ended {sol.status}")
        elif not oracles.values_match(sol.value, want):
            self.problems.append(f"{kind} LP value {sol.value!r} != oracle {want!r}")

    def count_draw(self, result):
        self.rng_calls += 1
        self.rng_values += int(np.size(result))


def _wrap(trace: Trace, name, fn, hook=None):
    rec = trace.recorder

    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, error=True)
            raise
        span = rec.close(idx)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return traced


def _wrap_count(trace: Trace, fn):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        trace.count_draw(result)
        return result

    return counted


def _hooks(trace: Trace):
    """(owner, attribute, span name, hook): each name where its caller finds it."""
    t = trace
    hooks = [
        (harness, "make_scenario", "harness.make_scenario", None),
        (harness, "fit_mean", "predictors.fit_mean", None),
        (harness, "compute_residuals", "predictors.compute_residuals", None),
        (harness, "fit_quantile", "predictors.fit_quantile", None),
        (harness, "calib_scores", "conformal.calib_scores", t.on_calib_scores),
        (harness, "select_eta", "conformal.select_eta", None),
        (harness, "uncertainty_box", "conformal.uncertainty_box", None),
        (harness, "empirical_coverage", "conformal.empirical_coverage", None),
        (harness, "solve_robust_box", "lp.solve_robust_box", t.on_robust_box),
        (harness, "build_knapsack_lp", "scenarios.build_knapsack_lp", t.on_knapsack_lp),
        (harness, "solve_lp", "lp.solve_lp", t.on_solve_lp),
        (harness, "empirical_var", "harness.empirical_var", None),
        (lp, "solve_lp", "lp.solve_lp", t.on_solve_lp),
        (lp, "robustify_box", "lp.robustify_box", None),
        (scenarios, "robustify_box", "lp.robustify_box", None),
        (predictors, "loss_and_grad", "predictors.loss_and_grad", t.on_loss),
        (predictors, "solve_spd", "numerics.solve_spd", None),
        (density_ratio, "solve_spd", "numerics.solve_spd", None),
        (RatioModel, "weights", "density_ratio.weights", None),
    ]
    for fit in ("trivial_ratio", "fit_classifier_ratio", "fit_kmm_covariate",
                "fit_kmm_label", "GaussianOracleRatio"):
        hooks.append((harness, fit, "density_ratio.fit", None))
    for cls in (ToyScenario, SimpleScenario, GridScenario, KnapsackScenario):
        hooks.append((cls, "sample", "scenarios.sample", t.on_sample))
        hooks.append((cls, "sample_costs_given", "scenarios.sample_costs_given", None))
    return hooks


@contextlib.contextmanager
def instrumented(trace: Trace):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, hook in _hooks(trace):
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, _wrap(trace, name, getattr(owner, attr), hook))
        for attr in ("gaussian", "uniform", "bernoulli"):
            saved.append((RngStream, attr, vars(RngStream)[attr]))
            setattr(RngStream, attr, _wrap_count(trace, getattr(RngStream, attr)))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def traced_replicate(config, rep: int):
    """Run one replicate under the wrappers.

    Returns (row, per-replicate metrics, solve_lp durations in ms, problems).
    """
    trace = Trace(config)
    rec = trace.recorder
    with instrumented(trace):
        idx = rec.open("harness.run_replicate")
        try:
            row = harness.run_replicate(config, rep)
        finally:
            rec.close(idx)
    if trace.oracle_checked != config.n_eval:
        trace.problems.append(f"{trace.oracle_checked} of {config.n_eval} "
                              f"decisions checked against an oracle")
    metrics, lp_ms = summarize(trace, rec.spans[idx])
    return row, metrics, lp_ms, trace.problems


def _improvements(losses) -> int:
    """Losses that beat the best so far, as the training loop keeps its best."""
    best = np.inf
    hits = 0
    for loss in losses:
        if loss < best:
            best = loss
            hits += 1
    return hits


def summarize(trace: Trace, root) -> tuple[dict, list]:
    """Per-replicate layer metrics from the spans and counters of one trace."""
    spans = trace.recorder.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(spans, selfs):
        total[s.name] += s.duration
        self_total[s.name] += st
        calls[s.name] += 1

    solves = [s for s in spans if s.name == "lp.solve_lp"]
    lp_ms = [1e3 * s.duration for s in solves]

    def mean_attr(group, key):
        return float(np.mean([s.attrs[key] for s in group])) if group else 0.0

    m = {
        "lp.solve_lp.calls": calls["lp.solve_lp"],
        "lp.solve_lp.s": total["lp.solve_lp"],
        "lp.solve_lp.iterations": mean_attr(solves, "iterations"),
        "lp.solve_lp.vars": mean_attr(solves, "vars"),
        "lp.solve_lp.rows": mean_attr(solves, "rows"),
        "lp.solve_lp.nonoptimal": sum(not s.attrs["optimal"] for s in solves),
        "lp.robustify_box.s": total["lp.robustify_box"],
        "conformal.uncertainty_box.calls": calls["conformal.uncertainty_box"],
        "conformal.uncertainty_box.s": total["conformal.uncertainty_box"],
        "conformal.calib_scores.s": total["conformal.calib_scores"],
        "conformal.select_eta.s": total["conformal.select_eta"],
        "conformal.empirical_coverage.s": total["conformal.empirical_coverage"],
        "harness.run_replicate.s": root.duration,
        "harness.run_replicate.self_s": self_total["harness.run_replicate"],
        "harness.empirical_var.calls": calls["harness.empirical_var"],
        "harness.empirical_var.s": total["harness.empirical_var"],
        "scenarios.sample.s": total["scenarios.sample"],
        "scenarios.sample.rows": sum(s.attrs["rows"] for s in spans
                                     if s.name == "scenarios.sample"),
        "scenarios.sample_costs_given.calls": calls["scenarios.sample_costs_given"],
        "scenarios.sample_costs_given.s": total["scenarios.sample_costs_given"],
        "numerics.rng.calls": trace.rng_calls,
        "numerics.rng.values": trace.rng_values,
        "numerics.solve_spd.calls": calls["numerics.solve_spd"],
        "predictors.fit_mean.s": total["predictors.fit_mean"],
        "predictors.fit_mean.self_s": self_total["predictors.fit_mean"],
        "predictors.fit_quantile.s": total["predictors.fit_quantile"],
        "predictors.fit_quantile.self_s": self_total["predictors.fit_quantile"],
        "predictors.compute_residuals.s": total["predictors.compute_residuals"],
        "density_ratio.fit.s": total["density_ratio.fit"],
        "density_ratio.fit.self_s": self_total["density_ratio.fit"],
        "density_ratio.weights.calls": calls["density_ratio.weights"],
        "density_ratio.weights.s": total["density_ratio.weights"],
    }
    for parent in FIT_PARENTS:
        idxs = {i for i, s in enumerate(spans) if s.name == parent}
        grads = [s for s in spans
                 if s.name == "predictors.loss_and_grad" and s.parent in idxs]
        losses = defaultdict(list)      # one loss sequence per fit call
        for s in grads:
            losses[s.parent].append(s.attrs["loss"])
        improving = sum(_improvements(v) for v in losses.values())
        key = "predictors.loss_and_grad." + parent.removeprefix("predictors.")
        m[key + ".calls"] = len(grads)
        m[key + ".rows"] = mean_attr(grads, "rows")
        m[key + ".s"] = sum(s.duration for s in grads)
        m[key + ".improving_share"] = improving / len(grads) if grads else 0.0
    m.update(trace.calibration)
    m["trace.eval_share"] = covered_share(spans, EVAL_SPANS, root)
    m["trace.fit_share"] = covered_share(spans, FIT_SPANS, root)
    m["oracle.checked"] = trace.oracle_checked
    return m, lp_ms
