"""Pipeline orchestration, metrics, reports, and the CLI."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shiftro
from shiftro.cli import _config_from_args, build_parser
from shiftro.harness import (CSV_COLUMNS, ExperimentConfig, PipelineError, Report,
                             ReportRow, conservatism_curves_svg, emit_report,
                             empirical_var, run_pipeline, run_replicate, _stage)
from shiftro.lp import BoxSet, LinearProgram, solve_lp, solve_robust_box
from shiftro.numerics import RngStream, normal_quantile
from shiftro.scenarios import GridScenario, ToyScenario, build_shortest_path_lp

FAST_TOY = dict(scenario="toy", alpha=0.8, shift=0.5, sigma2=0.5,
                ratio_kind="oracle", mean_kind="ridge", quantile_kind="linear",
                n_f=200, n_h=200, n_cal=200, m_ratio=50, n_eval=100, n_mc_var=20)


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

    def test_stage_attribution(self):
        def boom():
            raise RuntimeError("kaput")
        with pytest.raises(PipelineError, match="stage 'fit-ratio'"):
            _stage("fit-ratio", boom)

    def test_kmm_restricts_calibration_to_fit_subsample(self):
        cfg = ExperimentConfig(scenario="toy", alpha=0.8, shift=0.3, sigma2=0.5,
                               ratio_kind="kmm-cov", mean_kind="ridge",
                               quantile_kind="linear", n_f=150, n_h=150,
                               n_cal=500, m_ratio=450, n_eval=60, n_mc_var=10,
                               seed=2)
        row = run_replicate(cfg, 0)   # n_cal > 400 exercises the subsample path
        assert 0.0 <= row.coverage_total <= 1.0


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
        # bool is an Integral in Python, but JSON's true is not a count
        pytest.param({"replicates": True}, id="replicates=true"),
        pytest.param({"n_eval": True}, id="n_eval=true"),
        pytest.param({"seed": False}, id="seed=false"),
        # nor is it a shift, a sigma or a clip bound
        pytest.param({"shift": True}, id="shift=true"),
        pytest.param({"sigma1": True}, id="sigma1=true"),
        pytest.param({"clip_hi": True}, id="clip_hi=true"),
        pytest.param({"clip_lo": True}, id="clip_lo=true"),
        # out is a path or null: an fd number or a list is rejected up front
        pytest.param({"out": 1}, id="out=1"),
        pytest.param({"out": ["a"]}, id="out=list"),
    ], ids=lambda bad: ",".join(bad))
    def test_bad_field_is_config_error(self, tmp_path, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(FAST_TOY, **bad)))
        res = self._run("toy", "--config", str(cfg))
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr

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
        # unwritable output path surfaces as a runtime failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST_TOY)))
        res = self._run("toy", "--config", str(cfg),
                        "--out", "/nonexistent-dir/x.csv")
        assert res.returncode == 2
