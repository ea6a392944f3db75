"""What a fresh process loads: `import shiftro` and the MLP pipeline stay off
scipy, and the first SPD solve brings it in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import shiftro

# each snippet prints one JSON line as its last output
_AFTER_IMPORT = """
import json, sys
import shiftro
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")
                        or m == "concurrent.futures.process")))
"""

_MLP_REPLICATE = """
import json, sys
import shiftro.density_ratio as r, shiftro.predictors as p
from shiftro.harness import ExperimentConfig, run_replicate
fit = p._fit_gradient
def short_fit(params, Z, Y, kind, alpha, epochs, optimizer="adam"):
    return fit(params, Z, Y, kind, alpha, 20, optimizer)
p._fit_gradient = r._fit_gradient = short_fit
cfg = ExperimentConfig(scenario="simple", ratio_kind="cls-mlp", mean_kind="mlp",
                       quantile_kind="mlp", n_f=120, n_h=80, n_cal=80,
                       m_ratio=100, n_eval=20, n_mc_var=5)
row = run_replicate(cfg, 0)
print(json.dumps({"row": repr(row), "scipy": "scipy" in sys.modules}))
"""

_RIDGE_MEAN = """
import json, sys
import numpy as np
from shiftro.numerics import RngStream
from shiftro.predictors import Dataset, MeanSpec, fit_mean
g = RngStream(11).generator
Z, C = g.normal(size=(200, 4)), g.normal(size=(200, 3))
before = "scipy.linalg" in sys.modules
W = fit_mean(Dataset(Z, C), MeanSpec(kind="ridge")).params["W"]
after = "scipy.linalg" in sys.modules
from scipy.linalg import cho_factor, cho_solve
Zc = Z - Z.mean(axis=0)
G = Zc.T @ Zc + 1e-6 * np.eye(4)
want = cho_solve(cho_factor(G, lower=True, check_finite=False),
                 Zc.T @ (C - C.mean(axis=0)), check_finite=False)
print(json.dumps({"before": before, "after": after,
                  "same_bits": W.tobytes() == want.tobytes()}))
"""


def _run(code):
    # the child imports the same package as this test process
    src = str(Path(shiftro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_import_loads_neither_scipy_nor_the_process_pool(self):
        assert _run(_AFTER_IMPORT) == []

    def test_mlp_replicate_never_loads_scipy(self):
        out = _run(_MLP_REPLICATE)
        assert out["row"].startswith("ReportRow(")
        assert out["scipy"] is False

    def test_ridge_mean_loads_scipy_and_matches_cholesky(self):
        out = _run(_RIDGE_MEAN)
        assert out == {"before": False, "after": True, "same_bits": True}
