"""Seeded random instances for property suites and the self test.

Everything draws from a caller-supplied numpy Generator, so suites are
reproducible from a single integer seed. Structured instances (fixed rank,
required Kruskal rank, valid scenarios) are produced by construction plus
rejection, with generation parameters validated before anything is
returned.
"""

from __future__ import annotations

import math

import numpy as np

from .apps import CpScenario, DoaScenario
from .matcore import HermitianMatrix
from .submatrix import kruskal_rank

MAX_REJECTION_ATTEMPTS = 200
MIN_FREQUENCY_GAP = 0.1


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> HermitianMatrix:
    """Dense complex Hermitian matrix with entries on the given scale."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * 0.5 * (m + m.conj().T))


def random_psd(rng: np.random.Generator, n: int, rank: int) -> HermitianMatrix:
    """Gram matrix of a random complex frame: positive semidefinite with the given rank."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} must lie in [1, {n}]")
    f = rng.standard_normal((rank, n))
    f = (f + 1j * rng.standard_normal((rank, n))) / math.sqrt(2.0)
    return HermitianMatrix(f.conj().T @ f)


def random_projection(rng: np.random.Generator, n: int, rank: int) -> HermitianMatrix:
    """Orthogonal projection onto the span of a random complex frame."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} must lie in [0, {n}]")
    if rank == 0:
        return HermitianMatrix(np.zeros((n, n), dtype=np.complex128))
    f = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = np.linalg.qr(f)
    return HermitianMatrix(q @ q.conj().T)


def random_psd_with_kruskal(
    rng: np.random.Generator, n: int, rank: int, min_kruskal: int
) -> HermitianMatrix:
    """Random PSD matrix whose Kruskal rank reaches min_kruskal.

    Random frames achieve Kruskal rank equal to their rank almost surely,
    so rejection nearly always accepts the first draw; the attempt cap
    guards against degenerate parameter choices.
    """
    if min_kruskal > rank:
        raise ValueError(f"cannot demand Kruskal rank {min_kruskal} above rank {rank}")
    for _ in range(MAX_REJECTION_ATTEMPTS):
        cand = random_psd(rng, n, rank)
        if kruskal_rank(cand) >= min_kruskal:
            return cand
    raise RuntimeError("rejection sampling failed to reach the requested Kruskal rank")


def random_frequencies(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """k frequencies in [-pi, pi) with pairwise gaps above MIN_FREQUENCY_GAP."""
    for _ in range(MAX_REJECTION_ATTEMPTS):
        draw = np.sort(rng.uniform(-math.pi, math.pi, size=k))
        if k == 1 or float(np.min(np.diff(draw))) > MIN_FREQUENCY_GAP:
            return tuple(float(w) for w in draw)
    raise RuntimeError("rejection sampling failed to separate frequencies")


def random_doa_scenario(rng: np.random.Generator) -> DoaScenario:
    """Valid scenario with K <= 4 sources, P <= 6 subarrays and a random covariance rank."""
    k = int(rng.integers(1, 5))
    p = int(rng.integers(1, 7))
    n = k + p
    omega = random_frequencies(rng, k)
    r = int(rng.integers(1, k + 1))
    sigma = random_psd(rng, k, r)
    return DoaScenario(N=n, K=k, P=p, omega=omega, sigma_s=sigma)


def _unit_columns(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=0)
    if float(np.min(norms)) < 1e-8:
        raise ValueError("degenerate column norm")
    return mat / norms


def random_cp_scenario(rng: np.random.Generator) -> CpScenario:
    """Random factor model, second loading rank-deficient half the time.

    d <= 4 latent factors, each loading with up to 3 rows more than d, and
    1 to 3 score vectors.
    """
    d = int(rng.integers(1, 5))
    p = d + int(rng.integers(0, 4))
    q = d + int(rng.integers(0, 4))
    d2 = d if rng.uniform() < 0.5 else int(rng.integers(1, d + 1))
    for _ in range(MAX_REJECTION_ATTEMPTS):
        try:
            a = _unit_columns(rng.standard_normal((p, d)))
            raw_b = rng.standard_normal((q, d2)) @ rng.standard_normal((d2, d))
            b = _unit_columns(raw_b)
            break
        except ValueError:
            continue
    else:
        raise RuntimeError("rejection sampling failed to build loadings")
    n_scores = int(rng.integers(1, 4))
    scores = tuple(rng.standard_normal(d) for _ in range(n_scores))
    return CpScenario(d=d, a_load=a, b_load=b, g=scores)
