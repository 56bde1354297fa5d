"""Seeded workload inputs, built with numpy alone.

The benchmark never calls hadabound.generators: that module calls
kruskal_rank, so a change to the package could otherwise change the
inputs and the set-up time it is measured against. Every matrix here is
an exact Hermitian array (symmetrised after the product), so the
package's carrier accepts it unchanged.
"""

from __future__ import annotations

import math

import numpy as np


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream per (seed, cycle, slot, ...) tuple."""
    return np.random.default_rng([int(seed), *[int(k) for k in keys]])


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def psd(rng: np.random.Generator, n: int, rank: int, frame_rows: int | None = None) -> np.ndarray:
    """Gram matrix F* F of a random complex frame; rank min(rows, n).

    frame_rows above n gives a full-rank, well-conditioned matrix; rows
    equal to rank give a singular PSD matrix of exactly that rank.
    """
    rows = rank if frame_rows is None else frame_rows
    f = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))) / math.sqrt(2.0)
    return _hermitian(f.conj().T @ f)


def projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Orthogonal projection onto a random complex rank-dimensional subspace."""
    f = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = np.linalg.qr(f)
    return _hermitian(q @ q.conj().T)


def frequencies(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """k frequencies in [-pi, pi), one jittered point per equal cell.

    Neighbours stay at least 0.4 of a cell apart, so no rejection loop is
    needed and the steering block stays well separated.
    """
    cell = 2.0 * math.pi / k
    jitter = rng.uniform(-0.3, 0.3, size=k)
    return tuple(float(-math.pi + (i + 0.5 + jitter[i]) * cell) for i in range(k))


def doa(rng: np.random.Generator, k: int, rank: int) -> dict:
    """Smoothing scenario with N = 2K sensors and P = K subarrays."""
    return {
        "N": 2 * k,
        "K": k,
        "P": k,
        "omega": frequencies(rng, k),
        "sigma_s": psd(rng, k, rank),
    }


def cp(rng: np.random.Generator) -> dict:
    """Factor model with d = 2, a rank-one second loading and two scores.

    Mirrors the packaged cp fixture: B*B is singular, so the floor comes
    from the order-2 submatrix of the score Gram matrix.
    """
    a = rng.standard_normal((3, 2))
    a = a / np.linalg.norm(a, axis=0)
    u = rng.standard_normal(3)
    signs = np.where(rng.uniform(size=2) < 0.5, -1.0, 1.0)
    b = np.outer(u / np.linalg.norm(u), signs)
    g = [rng.standard_normal(2) for _ in range(2)]
    return {"d": 2, "A_load": a, "B_load": b, "g": g}
