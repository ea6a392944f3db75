from shiftro import harness, lp, predictors
from shiftro.harness import ExperimentConfig, run_replicate
from shiftro.numerics import RngStream
from shiftro.scenarios import KnapsackScenario, ToyScenario

from perfbench.probes import traced_replicate

SMALL = dict(n_f=200, n_h=200, n_cal=200, m_ratio=200, mean_kind="ridge",
             quantile_kind="linear", seed=3)


def _names():
    return (harness.solve_lp, harness.fit_mean, lp.solve_lp, lp.robustify_box,
            predictors.loss_and_grad, RngStream.gaussian, ToyScenario.sample,
            KnapsackScenario.sample_costs_given)


def _traced_equals_untraced(config):
    before = _names()
    row, metrics, lp_ms, problems = traced_replicate(config, 1)
    assert _names() == before
    assert problems == []
    assert row == run_replicate(config, 1)
    assert metrics["oracle.checked"] == config.n_eval
    assert metrics["lp.solve_lp.calls"] == len(lp_ms) == config.n_eval
    assert metrics["harness.empirical_var.calls"] == config.n_eval
    assert 0.0 < metrics["trace.eval_share"] + metrics["trace.fit_share"] <= 1.0
    return metrics


def test_toy_trace_counts_layers_and_leaves_rows_unchanged():
    cfg = ExperimentConfig(scenario="toy", sigma2=0.1, ratio_kind="oracle",
                           n_eval=40, **SMALL)
    m = _traced_equals_untraced(cfg)
    assert m["lp.solve_lp.vars"] == 4 and m["lp.solve_lp.rows"] == 2
    assert m["predictors.loss_and_grad.fit_quantile.calls"] == 2001
    assert m["predictors.loss_and_grad.fit_mean.calls"] == 0
    assert m["numerics.solve_spd.calls"] == 1
    assert m["scenarios.sample.rows"] == 200 * 4 + 40
    assert m["density_ratio.ess"] <= 200


def test_knapsack_trace_checks_greedy_oracle():
    cfg = ExperimentConfig(scenario="knapsack", ratio_kind="trivial", n_eval=8,
                           n_mc_var=20, **SMALL)
    m = _traced_equals_untraced(cfg)
    assert m["lp.solve_lp.vars"] == 84 and m["lp.solve_lp.rows"] == 43
    assert m["density_ratio.ess_share"] == 1.0
