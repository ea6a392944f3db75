"""What a fresh process loads: `import shiftro`, the MLP pipeline and every
fit that makes an SPD solve stay off scipy; numpy is the only runtime
dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
fit, lbfgs, short_lbfgs_calls = p._fit_gradient, p._fit_lbfgs, []
def short_fit(params, Z, Y, kind, alpha, epochs, optimizer="adam"):
    return fit(params, Z, Y, kind, alpha, 20, optimizer)
def short_lbfgs(params, Z, Y, kind, alpha, iterations):
    short_lbfgs_calls.append(kind)
    return lbfgs(params, Z, Y, kind, alpha, 5)
p._fit_gradient = short_fit
r._fit_lbfgs = short_lbfgs
cfg = ExperimentConfig(scenario="simple", ratio_kind="cls-mlp", mean_kind="mlp",
                       quantile_kind="mlp", n_f=120, n_h=80, n_cal=80,
                       m_ratio=100, n_eval=20, n_mc_var=5)
row = run_replicate(cfg, 0)
print(json.dumps({"row": repr(row), "scipy": "scipy" in sys.modules,
                  "short_lbfgs": short_lbfgs_calls}))
"""

_SPD_FITS = """
import json, sys
import numpy as np
from shiftro import density_ratio
from shiftro.density_ratio import fit_classifier_ratio, fit_kmm_label
from shiftro.numerics import RngStream
from shiftro.predictors import Dataset, fit_mean
density_ratio.KMM_ITERATIONS = 20
g = RngStream(11).generator
Z, C = g.normal(size=(200, 4)), g.normal(size=(200, 3))
W = fit_mean(Dataset(Z, C), "ridge", 0).params["W"]
fit_classifier_ratio(Z, Z[:80] + 0.5, "linear", 0, (0.05, 20.0))
fit_kmm_label(Dataset(Z[:60], C[:60]), Z[60:120] + 0.5, (0.05, 20.0), RngStream(0))
scipy_loaded = "scipy" in sys.modules
from scipy.linalg import cho_factor, cho_solve
Zc = Z - Z.mean(axis=0)
G = Zc.T @ Zc + 1e-6 * np.eye(4)
want = cho_solve(cho_factor(G, lower=True), Zc.T @ (C - C.mean(axis=0)))
print(json.dumps({"scipy": scipy_loaded, "W": W.tolist(), "want": want.tolist()}))
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
        assert out["short_lbfgs"] == ["logistic"]
        assert out["scipy"] is False

    def test_spd_fits_never_load_scipy(self):
        # the ridge mean and label-shift KMM each solve an SPD system, and
        # cls-linear fits by L-BFGS; LAPACK builds differ, so the ridge W
        # matches scipy's Cholesky to rounding, not bit for bit
        out = _run(_SPD_FITS)
        assert out["scipy"] is False
        np.testing.assert_allclose(out["W"], out["want"], rtol=1e-12)
