"""Pipeline orchestration, metrics, reports, and the CLI."""

import argparse
import json
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import shiftro
from shiftro.cli import _config_from_args, build_parser, main as cli_main
from shiftro import harness
from shiftro.density_ratio import trivial_ratio
from shiftro.harness import (CHOICES, CSV_COLUMNS, FIT_FIELDS, ExperimentConfig,
                             PipelineError, Report, ReportRow, calibrate,
                             conservatism_curves_svg,
                             emit_report, empirical_var, evaluate, fit_replicate,
                             run_pipeline, run_replicate, _stage)
from shiftro.lp import BoxSet, LinearProgram, solve_lp, solve_robust_box
from shiftro.numerics import RngStream, normal_quantile
from shiftro.scenarios import GridScenario, ToyScenario, build_shortest_path_lp

FAST_TOY = dict(scenario="toy", alpha=0.8, shift=0.5, sigma2=0.5,
                ratio_kind="oracle", mean_kind="ridge", quantile_kind="linear",
                n_f=200, n_h=200, n_cal=200, m_ratio=50, n_eval=100, n_mc_var=20)
# a simple-world config small enough to fit its MLPs and classifier in a second
SMALL_SIMPLE = dict(scenario="simple", d=2, ratio_kind="cls-mlp", n_f=200, n_h=200,
                    n_cal=200, m_ratio=200, n_eval=30, n_mc_var=20)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(scenario="toy", alpha=0.7, seed=5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"scenario": "toy", "gamma": 1.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=0.4)
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="tsp")
        with pytest.raises(ValueError):
            ExperimentConfig(ratio_kind="oracle", scenario="simple")
        with pytest.raises(ValueError):
            ExperimentConfig(n_eval=0)
        with pytest.raises(ValueError):
            ExperimentConfig(d=0)
        with pytest.raises(ValueError):
            ExperimentConfig(d=True)
        with pytest.raises(ValueError, match="toy"):
            ExperimentConfig(scenario="toy", d=1)
        for field, value in (("shift_kind", "label"), ("sigma1", 2.0), ("sigma2", 0.5)):
            ExperimentConfig(scenario="toy", **{field: value})
            for world in ("simple", "shortest-path", "knapsack"):
                with pytest.raises(ValueError, match="toy"):
                    ExperimentConfig(scenario=world, **{field: value})

    def test_replicate_seeds_fit_the_64_bit_stream_key(self):
        top = 2**64 - 1
        assert run_replicate(ExperimentConfig(seed=top, **FAST_TOY)).seed == top
        ExperimentConfig(seed=top - 1, replicates=2)
        for seed, replicates in ((top + 1, 1), (top, 2)):
            with pytest.raises(ValueError, match=r"2\*\*64"):
                ExperimentConfig(seed=seed, replicates=replicates)

    def test_infinite_clip_hi_means_no_upper_clip(self):
        assert ExperimentConfig(clip_hi=float("inf")).clip_hi == float("inf")
        assert trivial_ratio(0.05, float("inf")).weights(None, np.zeros(2))[0] == 1.0
        # an infinite clip_lo is refused by the config and by the ratio model
        with pytest.raises(ValueError, match="finite lo"):
            trivial_ratio(float("inf"), float("inf"))

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        # np.float32(0.8) runs as 0.800000011920929, so the report must read
        # that; a numpy int seed or d used to make the JSON report raise a
        # TypeError after every fit had run
        cfg = ExperimentConfig(**dict(SMALL_SIMPLE, alpha=np.float32(0.8), seed=np.int64(3),
                                      d=np.int64(2), n_eval=np.int32(10), clip_hi=np.float16(8),
                                      ratio_kind="trivial", mean_kind="ridge",
                                      quantile_kind="linear"))
        for name in ("alpha", "clip_hi", "shift"):
            assert type(getattr(cfg, name)) is float, name
        for name in ("seed", "d", "n_eval", "n_f"):
            assert type(getattr(cfg, name)) is int, name
        assert cfg.alpha == float(np.float32(0.8)) != 0.8
        report = run_pipeline(cfg)
        emit_report(report, "json", str(tmp_path / "r.json"))
        emit_report(report, "csv", str(tmp_path / "r.csv"))
        (row,) = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert (row["seed"], row["d"], row["alpha"]) == (3, 2, 0.800000011920929)
        assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[3] == \
            "0.800000011920929"
        for name, value in (("alpha", "0.8"), ("shift", None), ("clip_hi", [20.0])):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                ExperimentConfig(**{name: value})

    def test_scenario_dimension_defaults(self):
        from shiftro.harness import make_scenario
        assert make_scenario(ExperimentConfig(scenario="simple")).d == 4
        assert make_scenario(ExperimentConfig(scenario="shortest-path")).d == 10
        assert make_scenario(ExperimentConfig(scenario="knapsack")).d == 10
        assert make_scenario(ExperimentConfig(scenario="shortest-path", d=6)).d == 6


class TestEmpiricalVar:
    def test_zero_decision(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        assert empirical_var([0.0], [0.3], scn, 0.8, 50, RngStream(1)) == 0.0

    def test_deterministic_costs(self):
        class Point:
            def sample_costs_given(self, z, n, rng, phase):
                return np.full((n, 2), [1.5, -2.0])

            def lp_costs(self, C):
                return C
        v = empirical_var([2.0, 1.0], [0.0], Point(), 0.8, 10, RngStream(2))
        assert v == pytest.approx(1.5 * 2 - 2.0)

    def test_gaussian_quantile_both_signs(self):
        scn = ToyScenario(1.0, 1.0, 0.0, "covariate")
        z = 0.7
        n_mc = 10_000
        q = normal_quantile(0.8)
        for x in (1.0, -1.0):
            v = empirical_var([x], [z], scn, 0.8, n_mc, RngStream(3))
            target = z * x + scn.sigma2 * q * abs(x)
            # asymptotic se of the sample quantile
            se = np.sqrt(0.8 * 0.2 / n_mc) / (np.exp(-q * q / 2) / np.sqrt(2 * np.pi))
            assert v == pytest.approx(target, abs=3 * se)

    def test_order_statistic_convention(self):
        class Seq:
            def sample_costs_given(self, z, n, rng, phase):
                return np.arange(1.0, n + 1.0)[:, None]

            def lp_costs(self, C):
                return C
        v = empirical_var([1.0], [0.0], Seq(), 0.8, 10, RngStream(4))
        assert v == 8.0  # ceil(0.8 * 10) = 8th smallest

    def test_order_statistic_of_an_inexact_product(self):
        # 0.55 * 100 reads 55.000000000000007, one ulp above 55, so a plain
        # ceiling would take the 56th of 100 draws
        class Seq:
            def sample_costs_given(self, z, n, rng, phase):
                return np.arange(1.0, n + 1.0)[:, None]

            def lp_costs(self, C):
                return C
        assert 0.55 * 100 > 55
        assert empirical_var([1.0], [0.0], Seq(), 0.55, 100, RngStream(4)) == 55.0
        assert empirical_var([1.0], [0.0], Seq(), 0.8, 100, RngStream(4)) == 80.0
        assert empirical_var([1.0], [0.0], Seq(), 0.555, 100, RngStream(4)) == 56.0


class TestPipeline:
    def test_toy_run_structure(self):
        cfg = ExperimentConfig(seed=3, replicates=2, **FAST_TOY)
        report = run_pipeline(cfg)
        assert len(report.rows) == 2
        for i, row in enumerate(report.rows):
            assert row.seed == 3 + i
            assert 0.0 <= row.coverage_total <= 1.0
            assert 0.0 <= row.p_conservative <= 1.0
            assert row.eta >= 0.0

    def test_replicate_matches_shifted_seed(self):
        cfg = ExperimentConfig(seed=3, replicates=2, **FAST_TOY)
        row1 = run_replicate(cfg, 1)
        solo = run_replicate(ExperimentConfig(seed=4, replicates=1, **FAST_TOY), 0)
        assert row1.coverage_total == solo.coverage_total
        assert row1.eta == solo.eta

    def test_worker_count_does_not_change_rows(self):
        seq = run_pipeline(ExperimentConfig(seed=9, replicates=2, workers=1, **FAST_TOY))
        par = run_pipeline(ExperimentConfig(seed=9, replicates=2, workers=2, **FAST_TOY))
        for a, b in zip(seq.rows, par.rows):
            assert a == b

    def test_pool_starts_no_more_workers_than_replicates(self, monkeypatch):
        # a forking pool starts all max_workers processes at its first submit;
        # this stand-in starts none, maps in this process, and checks that the
        # task pickles as a real pool would need
        import concurrent.futures
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(pickle.loads(pickle.dumps(fn)), items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = ExperimentConfig(seed=9, replicates=2, workers=64, **FAST_TOY)
        rows = run_pipeline(cfg).rows
        assert started == [2]
        assert rows == run_pipeline(replace(cfg, workers=1)).rows

    def test_stage_attribution(self):
        def boom():
            raise RuntimeError("kaput")
        with pytest.raises(PipelineError, match="stage 'fit-ratio'"):
            _stage("fit-ratio", boom)

    def test_small_pool_classifier_fit_raises_no_overflow(self):
        # an L-BFGS trial point of the knapsack MLP classifier reaches logits
        # below -709, where exp(-logit) overflows on its way to sigmoid's 0;
        # the run must not fail under the RuntimeWarning filter
        cfg = ExperimentConfig(scenario="knapsack", n_f=200, n_h=200, n_cal=200,
                               m_ratio=200, n_eval=20)
        eta = calibrate(fit_replicate(cfg, 0), cfg)
        assert np.isfinite(eta) and eta >= 0.0

    def test_kmm_restricts_calibration_to_fit_subsample(self):
        cfg = ExperimentConfig(scenario="toy", alpha=0.8, shift=0.3, sigma2=0.5,
                               ratio_kind="kmm-cov", mean_kind="ridge",
                               quantile_kind="linear", n_f=150, n_h=150,
                               n_cal=500, m_ratio=450, n_eval=60, n_mc_var=10,
                               seed=2)
        row = run_replicate(cfg, 0)   # n_cal > 400 exercises the subsample path
        assert 0.0 <= row.coverage_total <= 1.0


class TestFitCalibrateEvaluate:
    @pytest.mark.parametrize("base,kinds", [(FAST_TOY, ("oracle", "trivial")),
                                            (SMALL_SIMPLE, ("cls-mlp", "trivial"))])
    def test_a_fit_under_one_kind_serves_another(self, base, kinds):
        # fit under kind a, calibrated and evaluated under kind b: the row of
        # a plain run under kind b, in both directions
        for a, b in (kinds, kinds[::-1]):
            cfg_a = ExperimentConfig(**{**base, "ratio_kind": a, "seed": 5})
            cfg_b = replace(cfg_a, ratio_kind=b)
            fit = fit_replicate(cfg_a, 1)
            assert fit.seed == 6
            assert evaluate(fit, calibrate(fit, cfg_b), cfg_b) == run_replicate(cfg_b, 1)

    @pytest.mark.parametrize("change", [dict(seed=6), dict(n_f=150), dict(mean_kind="mlp"),
                                        dict(alpha=0.7)])
    def test_a_config_that_differs_in_a_fit_field_is_refused(self, change, monkeypatch):
        cfg = ExperimentConfig(seed=5, **FAST_TOY)
        fit = fit_replicate(cfg, 0)

        def no_work(name, *args, **kwargs):
            raise AssertionError(f"stage {name!r} ran")

        monkeypatch.setattr(harness, "_stage", no_work)
        other = replace(cfg, **change)
        (name,) = change
        with pytest.raises(ValueError, match=name):
            calibrate(fit, other)
        with pytest.raises(ValueError, match=name):
            evaluate(fit, 1.0, other)

    def test_fields_the_fit_did_not_read_may_differ(self):
        cfg = ExperimentConfig(seed=5, **FAST_TOY)
        fit = fit_replicate(cfg, 0)
        other = replace(cfg, ratio_kind="trivial", clip_lo=0.1, clip_hi=3.0, n_eval=40,
                        n_mc_var=11, replicates=3, workers=2, out="x.json", format="json")
        assert evaluate(fit, calibrate(fit, other), other) == run_replicate(other, 0)

    def test_run_replicate_frees_the_fit_samples_before_evaluate(self, monkeypatch):
        # evaluate reads none of them, so its row loop must not keep them alive
        fit, ev, refs = harness.fit_replicate, harness.evaluate, []
        names = ("train_f", "d1", "d2", "test_cov")

        def fit_and_watch(config, rep):
            fitted = fit(config, rep)
            refs.extend(weakref.ref(getattr(fitted, n)) for n in names)
            return fitted

        def check_then_evaluate(fitted, eta, config):
            assert [n for n, ref in zip(names, refs) if ref() is not None] == []
            return ev(fitted, eta, config)

        cfg = ExperimentConfig(seed=5, **dict(SMALL_SIMPLE, ratio_kind="cls-linear",
                                              mean_kind="ridge", quantile_kind="linear"))
        kept = fit(cfg, 0)
        want = ev(kept, calibrate(kept, cfg), cfg)
        monkeypatch.setattr(harness, "fit_replicate", fit_and_watch)
        monkeypatch.setattr(harness, "evaluate", check_then_evaluate)
        assert run_replicate(cfg, 0) == want
        assert len(refs) == 4

    def test_every_config_field_is_a_fit_field_or_free_to_differ(self):
        free = {"ratio_kind", "clip_lo", "clip_hi", "n_eval", "n_mc_var", "replicates",
                "workers", "out", "format"}
        assert set(FIT_FIELDS) == {f.name for f in fields(ExperimentConfig)} - free
        assert len(FIT_FIELDS) == len(set(FIT_FIELDS))


class TestGridDecisionEquivalence:
    def test_upper_corner_lp_equals_robust_reformulation(self):
        scn = GridScenario()
        lp = build_shortest_path_lp(scn)
        g = RngStream(10)
        for _ in range(3):
            center = g.uniform(50, 400, size=80)
            half = g.uniform(0, 40, size=80)
            box = BoxSet(center - half, center + half)
            plain = solve_lp(LinearProgram(box.upper, lp.A, lp.b, lp.lo, lp.hi))
            robust = solve_robust_box(lp, box)
            assert plain.value == pytest.approx(robust.value, abs=1e-6)


class TestEmitReport:
    def _tiny_report(self, rows=1):
        cfg = ExperimentConfig(seed=0, replicates=rows, **FAST_TOY)
        rws = tuple(ReportRow(seed=i, scenario="toy", ratio_kind="oracle",
                              alpha=0.8, d=1, coverage_total=0.8,
                              coverage_z1_neg=0.79, coverage_z1_pos=0.81,
                              p_conservative=0.4, mean_var=0.25, eta=1.1)
                    for i in range(rows))
        return Report(rws, cfg)

    def test_empty_report_header_only(self, tmp_path):
        report = Report((), ExperimentConfig(seed=0, **FAST_TOY))
        out = tmp_path / "empty.csv"
        emit_report(report, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_csv_columns_exact(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(self._tiny_report(), "csv", str(out))
        header, row = out.read_text().splitlines()
        assert header.split(",") == list(CSV_COLUMNS)
        assert len(row.split(",")) == len(CSV_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        report = self._tiny_report()
        emit_report(report, "json", str(out))
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 1
        got = data["rows"][0]
        for col in CSV_COLUMNS:
            assert got[col] == getattr(report.rows[0], col)

    def test_json_is_strict_when_a_z1_group_is_empty(self, tmp_path):
        # three evaluation rows at shift 4 all fall on z1 > 0, so the z1 < 0
        # coverage is NaN: the JSON report writes null, which a parser that
        # refuses NaN reads as None, and the CSV keeps nan
        cfg = ExperimentConfig(seed=0, **dict(FAST_TOY, shift=4.0, n_eval=3))
        report = run_pipeline(cfg)
        assert np.isnan(report.rows[0].coverage_z1_neg)
        emit_report(report, "json", str(tmp_path / "r.json"))
        emit_report(report, "csv", str(tmp_path / "r.csv"))

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "r.json").read_text()
        (row,) = json.loads(text, parse_constant=refuse)["rows"]
        assert row["coverage_z1_neg"] is None
        assert row["coverage_z1_pos"] == report.rows[0].coverage_z1_pos
        header, line = (tmp_path / "r.csv").read_text().splitlines()
        assert dict(zip(header.split(","), line.split(",")))["coverage_z1_neg"] == "nan"

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg1 = ExperimentConfig(seed=5, replicates=2, **FAST_TOY)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_report(run_pipeline(cfg1), "csv", str(a))
        emit_report(run_pipeline(cfg1), "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_curves_monotone(self, tmp_path):
        out = tmp_path / "fig.svg"
        emit_report(self._tiny_report(2), "svg", str(out))
        curves = (tmp_path / "fig_curves.svg").read_text()
        polylines = [seg.split('points="')[1].split('"')[0]
                     for seg in curves.split("<polyline")[1:]]
        assert len(polylines) == 2
        for i, poly in enumerate(polylines):
            ys = [float(pt.split(",")[1]) for pt in poly.split()]
            # svg y grows downward: falling curve has increasing y
            diffs = np.diff(ys)
            if i == 0:
                assert np.all(diffs >= -1e-9)   # conservatism falls with shift
            else:
                assert np.all(diffs <= 1e-9)    # worst-case ball rises
        bars = out.read_text()
        assert "<rect" in bars and "crimson" in bars

    def test_svg_curves_mark_the_median_only_on_the_chart(self):
        # one median point at the config's shift when it lies on the 0..3
        # axis; none off the axis or without rows
        report = self._tiny_report(3)
        assert conservatism_curves_svg(report).count("<circle") == 1
        off_axis = Report(report.rows, replace(report.config, shift=3.5))
        assert conservatism_curves_svg(off_axis).count("<circle") == 0
        empty = Report((), report.config)
        assert conservatism_curves_svg(empty).count("<circle") == 0

    def test_svg_curves_beside_bars_in_a_dir_named_svg(self, tmp_path):
        # only the file name's trailing suffix changes, not the directory's
        runs = tmp_path / "runs.svg"
        runs.mkdir()
        paths = emit_report(self._tiny_report(), "svg", str(runs / "toy.svg"))
        assert paths == [str(runs / "toy.svg"), str(runs / "toy_curves.svg")]
        assert all(Path(p).read_text().startswith("<svg") for p in paths)

    def test_numpy_float_alpha_writes_python_float_bytes(self, tmp_path):
        # an alpha from np.linspace is an np.float64, whose repr is
        # "np.float64(0.8)" on numpy 2; the CSV must read as for a float
        paths = []
        for alpha in (0.8, np.float64(0.8)):
            report = run_pipeline(ExperimentConfig(seed=3, **dict(FAST_TOY, alpha=alpha)))
            paths.append(tmp_path / f"{type(alpha).__name__}.csv")
            emit_report(report, "csv", str(paths[-1]))
        assert paths[1].read_bytes() == paths[0].read_bytes()
        assert paths[1].read_text().splitlines()[1].split(",")[3] == "0.8"

    def test_bad_path_raises_io_error(self):
        with pytest.raises(IOError):
            emit_report(self._tiny_report(), "csv", "/nonexistent-dir/x.csv")


class TestCli:
    def _run(self, *args):
        # the CLI process imports the same package as this test process
        src = str(Path(shiftro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "shiftro.cli", *args],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))

    def test_selftest_passes(self):
        res = self._run("selftest")
        assert res.returncode == 0
        assert "[FAIL]" not in res.stdout

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 0.2}))
        res = self._run("toy", "--config", str(bad))
        assert res.returncode == 1
        assert "config error" in res.stderr

    def test_unknown_config_field_exit_code(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"not_a_field": 1}))
        res = self._run("toy", "--config", str(bad))
        assert res.returncode == 1

    def test_bad_flag_value_is_config_error(self):
        res = self._run("toy", "--ratio", "bogus")
        assert res.returncode == 1

    @pytest.mark.parametrize("bad", [
        {"clip_lo": 5.0, "clip_hi": 1.0},
        {"clip_lo": 0.0},
        {"mean_kind": "bogus"},
        {"quantile_kind": "bogus"},
        {"shift_kind": "bogus"},
        {"sigma1": 0.0},
        {"sigma2": -1.0},
        {"seed": -1},
        pytest.param({"shift": float("nan")}, id="shift=NaN"),
        pytest.param({"shift": float("inf")}, id="shift=Infinity"),
        pytest.param({"n_eval": 2.5}, id="n_eval=2.5"),
        pytest.param({"sigma1": float("inf")}, id="sigma1=Infinity"),
        # an int no float can hold used to pass, and failed only at run time
        pytest.param({"shift": 10**400}, id="shift=10**400"),
        # bool is an Integral in Python, but JSON's true is not a count
        pytest.param({"replicates": True}, id="replicates=true"),
        pytest.param({"n_eval": True}, id="n_eval=true"),
        pytest.param({"seed": False}, id="seed=false"),
        # nor is it a shift, a sigma or a clip bound
        pytest.param({"shift": True}, id="shift=true"),
        pytest.param({"sigma1": True}, id="sigma1=true"),
        pytest.param({"clip_hi": True}, id="clip_hi=true"),
        pytest.param({"clip_lo": True}, id="clip_lo=true"),
        # an infinite clip_lo used to pass, and failed only after every fit
        pytest.param({"clip_lo": float("inf"), "clip_hi": float("inf")},
                     id="clip_lo=Infinity"),
        # out is a nonempty path or null: an fd number, a list or "" (which
        # would write report.csv in the working directory) is rejected up front
        pytest.param({"out": 1}, id="out=1"),
        pytest.param({"out": ["a"]}, id="out=list"),
        pytest.param({"out": ""}, id="out=empty"),
        # a seed keys a 64-bit stream
        pytest.param({"seed": 2**64}, id="seed=2**64"),
        # KMM needs two samples on each side: refused before f and h are fit
        pytest.param({"ratio_kind": "kmm-cov", "n_cal": 1}, id="kmm-cov,n_cal=1"),
        pytest.param({"ratio_kind": "kmm-cov", "m_ratio": 1}, id="kmm-cov,m_ratio=1"),
        pytest.param({"ratio_kind": "kmm-label", "n_cal": 1}, id="kmm-label,n_cal=1"),
        pytest.param({"ratio_kind": "kmm-label", "m_ratio": 1}, id="kmm-label,m_ratio=1"),
    ], ids=lambda bad: ",".join(bad))
    def test_bad_field_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(FAST_TOY, **bad)))
        res = self._run("toy", "--config", str(cfg))
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr

    def test_out_in_a_missing_directory_is_config_error(self, tmp_path):
        # this used to run every replicate and then fail to write (exit 2)
        res = self._run("toy", "--out", str(tmp_path / "missing" / "x.csv"))
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr and "does not exist" in res.stderr

    @pytest.mark.parametrize("fmt,out,taken", [("csv", "", ""), ("json", "r", "r"),
                                               ("svg", "fig", "fig.svg"),
                                               ("svg", "fig", "fig_curves.svg")])
    def test_out_naming_a_directory_is_config_error(self, tmp_path, fmt, out, taken):
        # a report path that is an existing directory used to fail only after
        # every fit, "Is a directory" (exit 2); svg writes out + ".svg" and,
        # on the toy world, the curve chart beside it
        (tmp_path / taken).mkdir(exist_ok=True)
        res = self._run("toy", "--format", fmt, "--out", str(tmp_path / out))
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr and "existing directory" in res.stderr

    @pytest.mark.parametrize("field,flag", [
        ("ratio_kind", "--ratio"), ("shift_kind", "--shift-kind"),
        ("mean_kind", "--mean-kind"), ("quantile_kind", "--quantile-kind"),
        ("format", "--format")])
    def test_every_choice_flag_takes_each_config_choice(self, field, flag, capsys):
        parser = build_parser()
        for value in CHOICES[field]:
            config = _config_from_args(parser.parse_args(["toy", flag, value]))
            assert getattr(config, field) == value
        assert cli_main(["toy", flag, "bogus"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_every_scenario_is_a_subcommand(self, capsys):
        parser = build_parser()
        for world in CHOICES["scenario"]:
            assert _config_from_args(parser.parse_args([world])).scenario == world
        assert cli_main(["bogus"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args,config", [
        (("toy", "--d", "3"), None),
        (("simple", "--shift-kind", "label"), None),
        (("knapsack", "--shift-kind", "label"), None),
        (("shortest-path", "--shift-kind", "label"), None),
        (("simple",), {"sigma1": 2.0}),
        (("knapsack",), {"sigma2": 0.5}),
    ], ids=["toy-d", "simple-label", "knapsack-label", "grid-label", "simple-sigma1",
            "knapsack-sigma2"])
    def test_field_the_world_ignores_is_config_error(self, tmp_path, args, config):
        # rejected while the config is read, before run_pipeline fits anything
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args += ("--config", str(path))
        res = self._run(*args)
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr

    def test_config_file_without_scenario_takes_the_subcommand(self, tmp_path):
        # the oracle ratio is valid only once the subcommand has set the toy world
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in FAST_TOY.items() if k != "scenario"}))
        out = tmp_path / "report.csv"
        res = self._run("toy", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[1].split(",")[1:3] == ["toy", "oracle"]

    def test_every_flag_lands_in_its_field(self, tmp_path):
        # every world's flags; the toy world alone has --shift-kind, and the
        # d-dimensional worlds alone have --d
        flags = {
            "--alpha": ("alpha", "0.9", 0.9), "--seed": ("seed", "3", 3),
            "--shift": ("shift", "0.25", 0.25),
            "--shift-kind": ("shift_kind", "label", "label"),
            "--ratio": ("ratio_kind", "kmm-cov", "kmm-cov"), "--d": ("d", "6", 6),
            "--replicates": ("replicates", "4", 4), "--workers": ("workers", "2", 2),
            "--out": ("out", "x.json", "x.json"), "--format": ("format", "json", "json"),
            "--mean-kind": ("mean_kind", "ridge", "ridge"),
            "--quantile-kind": ("quantile_kind", "linear", "linear"),
            "--n-eval": ("n_eval", "7", 7),
        }
        parser = build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        cfg = tmp_path / "cfg.json"
        for world in ("toy", "simple", "shortest-path", "knapsack"):
            own = set(flags) - {"--d" if world == "toy" else "--shift-kind"}
            options = {opt for action in subs[world]._actions
                       for opt in action.option_strings}
            assert options - {"-h", "--help", "--config"} == own, world
            defaults = _config_from_args(parser.parse_args([world]))
            assert defaults == ExperimentConfig(scenario=world)
            for flag in sorted(own):
                field, text, want = flags[flag]
                config = _config_from_args(parser.parse_args([world, flag, text]))
                assert getattr(config, field) == want != getattr(defaults, field), flag
                # a flag overrides the same field of a config file
                cfg.write_text(json.dumps({field: getattr(defaults, field)}))
                config = _config_from_args(parser.parse_args(
                    [world, "--config", str(cfg), flag, text]))
                assert getattr(config, field) == want, flag

    def test_negative_seed_flag_is_config_error(self):
        res = self._run("toy", "--seed", "-1")
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr

    def test_seed_past_the_stream_key_is_config_error(self):
        # replicate 1's seed would pass the 64-bit stream key; this used to
        # fail at run time (exit 2), after replicate 0 was fitted
        res = self._run("toy", "--seed", str(2**64 - 1), "--replicates", "2")
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr

    def test_toy_run_writes_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST_TOY)))
        out = tmp_path / "report.csv"
        res = self._run("toy", "--config", str(cfg), "--seed", "2",
                        "--out", str(out), "--format", "csv")
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert len(lines) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        # an output path that is a dangling link into a missing directory
        # passes the config check and surfaces as a runtime failure when the
        # report is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST_TOY)))
        out = tmp_path / "report.csv"
        out.symlink_to(tmp_path / "missing" / "report.csv")
        res = self._run("toy", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2
        assert "runtime error" in res.stderr
