"""A fixed reference computation, timed just before each replicate.

On a shared machine the same replicate's wall time swings by up to 2x over
minutes as neighbours load the cores, and the reference's time swings with
it. The ratio of the two depends on the program far more than on the load.
The kernel mixes the two kinds of work the workloads do: many small numpy
calls driven from Python (the per-row box and LP loops), and mid-size
matmuls (MLP training). Nothing in it depends on shiftro, so a change to
the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    def __init__(self):
        g = np.random.default_rng(0)
        self.A = g.standard_normal((3, 3)) + 3.0 * np.eye(3)
        self.b = np.ones(3)
        self.Z = g.standard_normal((4000, 10))
        self.W = g.standard_normal((10, 16))
        self.V = g.standard_normal((16, 1))

    def seconds(self) -> float:
        """Wall time of one pass (about 0.08 s on a 2-vCPU x86 machine)."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(4000):
            x = np.linalg.solve(self.A, self.b)
            acc += float(x[0]) + sum([j * 0.5 for j in range(10)])
        for _ in range(150):
            H = np.tanh(self.Z @ self.W)
            acc += float((H @ self.V).sum()) + float((self.Z.T @ H).sum())
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        return elapsed
