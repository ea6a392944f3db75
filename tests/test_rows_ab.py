"""tools/rows_ab.py: row-by-row comparison of two trees, stopping at the first
row that differs."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rows_ab", _ROOT / "tools" / "rows_ab.py")
rows_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rows_ab)
sys.path.insert(0, str(_ROOT))
from perfbench.run import WORKLOADS  # noqa: E402


def test_first_difference():
    assert rows_ab.first_difference(["a", "b"], ["a", "b"]) is None
    assert rows_ab.first_difference(["a", "b", "c"], ["a", "x", "c"]) == ("b", "x")
    # a side that ends early reads None
    assert rows_ab.first_difference(["a", "b"], ["a"]) == ("b", None)
    assert rows_ab.first_difference([], []) is None


def test_same_tree_in_two_processes_writes_the_same_rows(capsys):
    code = rows_ab.main(["--parent", str(_ROOT), "--change", str(_ROOT),
                         "--replicates", "1"])
    assert code == 0
    assert f"{len(WORKLOADS)} rows byte-identical" in capsys.readouterr().out


def _copy_shifting_replicate_1(tmp_path):
    """A copy of the tree whose replicate 1 (only) draws from the next seed's
    streams."""
    shutil.copytree(_ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = tmp_path / "src" / "shiftro" / "harness.py"
    text = harness.read_text()
    # the one line that computes the replicate seed, in fit_replicate
    old = "    seed = config.seed + rep\n"
    assert text.count("config.seed + rep") == 1
    assert text.index("def fit_replicate(") < text.index(old) < text.index("def calibrate(")
    harness.write_text(text.replace(old, old.replace("rep\n", "rep + (rep == 1)\n")))
    return tmp_path


def test_stops_at_the_first_differing_row(tmp_path, capsys):
    # the first workload's replicate 1 differs, so the later workloads never run
    _copy_shifting_replicate_1(tmp_path)
    code = rows_ab.main(["--parent", str(_ROOT), "--change", str(tmp_path),
                         "--replicates", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert f"{next(iter(WORKLOADS))} replicate 1 differs" in out
    parent_row = out.split("parent: ")[1].splitlines()[0]
    change_row = out.split("change: ")[1].splitlines()[0]
    assert parent_row.split(",")[0] == "1" and change_row.split(",")[0] == "2"


def test_named_workloads_only(tmp_path, capsys):
    # only the last workload is compared, so its replicate 1 is the row that
    # differs, and a run of replicate 0 alone names that workload only
    _copy_shifting_replicate_1(tmp_path)
    last = list(WORKLOADS)[-1]
    code = rows_ab.main(["--parent", str(_ROOT), "--change", str(tmp_path),
                         "--replicates", "2", "--workload", last])
    assert code == 1
    assert f"{last} replicate 1 differs" in capsys.readouterr().out
    code = rows_ab.main(["--parent", str(_ROOT), "--change", str(tmp_path),
                         "--replicates", "1", "--workload", last, "--workload", last])
    assert code == 0
    assert capsys.readouterr().out.strip() == (
        f"rows_ab: 1 rows byte-identical ({last}; replicates 0..0)")


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        rows_ab.main(["--parent", str(_ROOT), "--change", str(_ROOT),
                      "--workload", "no-such-workload"])
    assert exc.value.code == 2
    assert "unknown workload no-such-workload" in capsys.readouterr().err


def test_a_tree_without_the_package_fails(tmp_path, capsys):
    code = rows_ab.main(["--parent", str(_ROOT), "--change", str(tmp_path),
                         "--replicates", "1"])
    assert code == 2
    assert "change process failed" in capsys.readouterr().out
