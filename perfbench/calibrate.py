"""Machine-speed calibration of the latency replay and the set-up time on a
shared, noisy host.

On a small shared host the same CPU work can take up to twice as long
from one second to the next (another tenant on the sibling hyperthread), so
raw per-step latencies spread far wider than any useful regression bound.
The replay therefore runs a fixed calibration kernel between chunks of steps
and scales the latencies of each chunk by

    NOMINAL_S / mean(kernel time before, kernel time after),

that is, to the time the work takes when the kernel takes NOMINAL_S. The
set-up time is scaled the same way, by the median of every kernel run of the
benchmark run (the replay's and one before each set-up process). The
kernel uses the same mix as one estimator step (a small Gram matrix, scipy
Cholesky factor and solve, a symmetric eigensolve, JSON encoding and float
parsing), so it slows down with the program.
"""

import json
import time

import numpy as np
from scipy import linalg

# Kernel time on the reference host (2-CPU Intel Xeon, quiet), in s.
NOMINAL_S = 3.0e-3

_rng = np.random.default_rng(20260117)
_X = _rng.normal(size=(40, 10))
_EYE = np.eye(10)
_ROWS = [",".join(repr(float(v)) for v in _rng.normal(size=7)) for _ in range(20)]
_RECORD = {"mean": _rng.normal(size=(3, 10)).tolist(), "std": _rng.normal(size=(3, 10)).tolist()}


def kernel() -> float:
    """Run the fixed calibration work once; returns its wall time in s."""
    start = time.perf_counter()
    for _ in range(12):
        g = _X.T @ _X
        for i in range(3):
            factor = linalg.cho_factor(g + (i + 1.0) * _EYE, lower=True)
            linalg.cho_solve(factor, _X[0])
        np.linalg.eigvalsh(g)
        json.dumps(_RECORD, sort_keys=True)
        for row in _ROWS:
            [float(c) for c in row.split(",")]
    return time.perf_counter() - start
