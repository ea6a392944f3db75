"""tools/fold_bench.py: pairing, the gain rule and the regression bound."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
_spec = importlib.util.spec_from_file_location("fold_bench", _PATH)
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)


def _write_runs(directory: Path, refs, setup=0.5, correct=True):
    directory.mkdir()
    for i, ref in enumerate(refs):
        rec = {"workload": "toy-decide", "seed": 0, "trace": 0, "seconds": 30,
               "environment": {"commit": directory.name, "python": "3"},
               "metrics": {"setup_s": setup, "replicate_ref": ref, "peak_rss_mb": 60.0},
               "result": {"correct": correct}}
        (directory / f"toy-{i:02d}.json").write_text(json.dumps(rec))


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr(tmp_path):
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5]
    change = [7.0] * 9 + [13.0]     # loses the last pair
    _write_runs(tmp_path / "parent", parent)
    _write_runs(tmp_path / "change", change, setup=0.6)
    entry = fold_bench.fold("t", tmp_path / "parent", tmp_path / "change")["workloads"][
        "toy-decide/seed0"]
    ref = entry["end_to_end"]["replicate_ref"]
    assert (ref["pairs"], ref["change_wins"], ref["change_losses"]) == (10, 9, 1)
    assert ref["parent"]["median"] == 11.0 and ref["change"]["median"] == 7.0
    assert ref["gain_shown"] and ref["within_bound"]
    setup = entry["end_to_end"]["setup_s"]
    assert setup["median_change"] == pytest.approx(0.2)
    assert not setup["gain_shown"] and setup["within_bound"]    # bound 0.25
    assert entry["failed_runs"] == {"parent": 0, "change": 0}


def test_eight_wins_of_ten_show_no_gain(tmp_path):
    _write_runs(tmp_path / "parent", [10.0] * 10)
    _write_runs(tmp_path / "change", [5.0] * 8 + [20.0] * 2)
    ref = fold_bench.fold("t", tmp_path / "parent", tmp_path / "change")["workloads"][
        "toy-decide/seed0"]["end_to_end"]["replicate_ref"]
    assert ref["change_wins"] == 8 and not ref["gain_shown"]
