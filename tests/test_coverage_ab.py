"""tools/coverage_ab.py: pairing by replicate, and a self-comparison that
reads exactly zero."""

import importlib.util
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("coverage_ab",
                                               _ROOT / "tools" / "coverage_ab.py")
coverage_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_ab)

# a toy world small enough to calibrate in a fraction of a second
TINY_TOY = {"scenario": "toy", "ratio_kind": "oracle", "mean_kind": "ridge",
            "quantile_kind": "linear", "n_f": 200, "n_h": 200, "n_cal": 200,
            "m_ratio": 200, "seed": 3}


def _rows(values):
    return [dict.fromkeys(coverage_ab.MEASURES, v) for v in values]


def test_replicates_pair_by_index():
    # the change is the parent plus 0.1, 0.2, 0.3 replicate by replicate; an
    # unpaired comparison of the two means would read the same 0.2 but with
    # the spread of the parent's values in its se
    parent = _rows([0.5, 0.9, 0.1])
    change = _rows([0.6, 1.1, 0.4])
    cov = coverage_ab.paired(parent, change)["coverage_total"]
    assert cov["parent"] == [0.5, 0.9, 0.1] and cov["change"] == [0.6, 1.1, 0.4]
    assert cov["diff_mean"] == pytest.approx(0.2)
    assert cov["diff_se"] == pytest.approx(0.1 / math.sqrt(3))
    lo, hi = cov["diff_interval_95"]
    assert (lo + hi) / 2 == pytest.approx(0.2)
    assert hi - lo == pytest.approx(2 * 4.302653 * 0.1 / math.sqrt(3), rel=1e-6)


def test_unequal_replicate_counts_are_rejected():
    with pytest.raises(ValueError):
        coverage_ab.paired(_rows([0.5, 0.6]), _rows([0.5]))


def test_self_comparison_reads_exactly_zero():
    # the same tree scored twice, each in its own process
    sides = [coverage_ab.score_tree(_ROOT, TINY_TOY, 3, 2000) for _ in range(2)]
    assert sides[0] == sides[1]
    assert all(0.0 <= r["coverage_total"] <= 1.0 for r in sides[0])
    result = coverage_ab.paired(*sides)
    for name in coverage_ab.MEASURES:
        assert result[name]["diff_mean"] == 0.0
        assert result[name]["diff_se"] == 0.0
        assert result[name]["diff_interval_95"] == [0.0, 0.0]
