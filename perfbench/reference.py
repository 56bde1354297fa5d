"""Reference kernels that measure how fast the machine is running right now.

The 2-vCPU virtual machine this benchmark was built on shares its cores
with other tenants, and its speed swings by up to 2x over tens of
seconds. Raw wall times therefore spread far more between runs than any
change worth detecting. Every run samples a fixed reference kernel between its ops and
reports reference-scaled times: each op's wall time multiplied by
NOMINAL / (the kernel's time measured next to that op), that is, the
time the op would take on a machine where the kernel takes NOMINAL
seconds. Raw wall times are printed alongside.

The kernels belong to the benchmark, so no package change can move them:
- in-process workloads use a small complex cyclic Jacobi sweep written
  with the same numpy row and column updates as the package's solver,
  so it slows down in step with the package under contention;
- the cli workload uses a bare interpreter start (`python -c pass`),
  which slows down in step with process start-up and imports.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

import proc

_rng = np.random.default_rng(20260417)
_f = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_MATRIX = _f.conj().T @ _f
_SWEEPS = 3

JACOBI_NOMINAL_S = 0.0012  # jacobi_kernel on a quiet core of the machine the benchmark was built on
INTERP_NOMINAL_S = 0.050  # interpreter_kernel on the same quiet machine


def jacobi_kernel() -> float:
    """Fastest of three timings of the fixed sweeps, so one preemption does not count."""
    return min(_jacobi_sweeps() for _ in range(3))


def _jacobi_sweeps() -> float:
    """Seconds for three fixed Jacobi sweeps over an 8x8 complex Hermitian matrix."""
    t0 = time.perf_counter()
    w = _MATRIX.copy()
    n = w.shape[0]
    for _ in range(_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r
                tau = (w[q, q].real - w[p, p].real) / (2.0 * r)
                t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                col_p, col_q = w[:, p].copy(), w[:, q].copy()
                w[:, p] = c * col_p + s * np.conj(phase) * col_q
                w[:, q] = -s * phase * col_p + c * col_q
                row_p, row_q = w[p, :].copy(), w[q, :].copy()
                w[p, :] = c * row_p + s * phase * row_q
                w[q, :] = -s * np.conj(phase) * row_p + c * row_q
    return time.perf_counter() - t0


def interpreter_kernel() -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = time.perf_counter()
    out = proc.run([sys.executable, "-c", "pass"])
    elapsed = time.perf_counter() - t0
    if out.code != 0:
        raise RuntimeError(f"bare interpreter exited with {out.code}")
    return elapsed
