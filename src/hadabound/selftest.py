"""Seeded property suites exercising every bound against independent oracles.

Each suite draws reproducible random instances, computes floors and
certificates through the library, and re-checks the resulting inequalities
with numpy's LAPACK-backed eigensolver, which shares no code with the
package's own Jacobi iteration. A suite failure therefore indicates a real
contract violation, not a tautology.

The command line front end runs these through the `selftest` subcommand;
the acceptance tests run them at full trial counts.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import generators as gen
from .apps import cp_bound, cp_m1, doa_bound, rank_identity_check, smoothed_cov_direct, smoothed_cov_hadamard
from .certify import (
    decompose_projection,
    indefinite_certificate,
    quantitative_bound,
    shift_construction,
)
from .errors import NotPsdError
from .matcore import EIG_TOL_REL, PsdKind, classify_psd, eig_hermitian
from .submatrix import kruskal_rank, min_submatrix_eigenvalue

ABS_SLACK = 1e-8


@dataclasses.dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    details: dict

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _oracle_lambda_min(arr: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(arr)[0])


def suite_eig_invariants(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Spectral decompositions reconstruct their input within tolerance."""
    failures = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 11))
        h = gen.random_hermitian(rng, n, scale=float(rng.uniform(0.5, 3.0)))
        dec = eig_hermitian(h)
        scale = float(np.max(np.abs(h.entries)))
        resid = float(np.max(np.abs(dec.reconstruct() - h.entries)))
        ortho = float(
            np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n)))
        )
        worst = max(worst, resid, ortho)
        if resid > EIG_TOL_REL * (1.0 + scale) or ortho > EIG_TOL_REL:
            failures += 1
        oracle = np.linalg.eigvalsh(h.entries)[::-1]
        if float(np.max(np.abs(oracle - dec.eigenvalues))) > 1e-10 * (1.0 + scale):
            failures += 1
    return SuiteResult("eig_invariants", trials, failures, {"worst_residual": worst})


def suite_schur_product(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Entrywise products of random PSD factors stay PSD."""
    failures = 0
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        a = gen.random_psd(rng, n, int(rng.integers(1, n + 1)))
        b = gen.random_psd(rng, n, int(rng.integers(1, n + 1)))
        prod = a.entries * b.entries
        vals = np.linalg.eigvalsh(prod)
        worst = min(worst, float(vals[0]))
        if vals[0] < -1e-9 * max(1.0, float(vals[-1])):
            failures += 1
    return SuiteResult("schur_product", trials, failures, {"worst_lambda_min": worst})


def suite_quantitative_floor(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Floor ordering lambda_min(A o B - (mu/kappa) diag(B)) >= -1e-8."""
    failures = 0
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        r_a = int(rng.integers(1, n + 1))
        r_b = int(rng.integers(1, n + 1))
        a = gen.random_psd(rng, n, r_a)
        b = gen.random_psd(rng, n, r_b)
        rep = quantitative_bound(a, b)
        shifted = a.entries * b.entries - (rep.mu / rep.kappa_eff) * np.diag(
            b.entries.diagonal()
        )
        lam = _oracle_lambda_min(shifted)
        worst = min(worst, lam)
        if lam < -ABS_SLACK:
            failures += 1
        if rep.quantitative_bound > rep.actual_lambda_min + ABS_SLACK:
            failures += 1
        if not rep.loewner_verified:
            failures += 1
    return SuiteResult("quantitative_floor", trials, failures, {"worst_lambda_min": worst})


def suite_projection_floor(rng: np.random.Generator, trials: int) -> SuiteResult:
    """C = A - mu I keeps C o P positive semidefinite for rank-r projections."""
    failures = 0
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        a = gen.random_psd(rng, n, int(rng.integers(1, n + 1)))
        mu = min_submatrix_eigenvalue(a, n - r + 1).value
        c = a.entries - mu * np.eye(n)
        p = gen.random_projection(rng, n, r)
        lam = _oracle_lambda_min(c * p.entries)
        worst = min(worst, lam)
        if lam < -ABS_SLACK:
            failures += 1
    return SuiteResult("projection_floor", trials, failures, {"worst_lambda_min": worst})


def suite_indefinite_shift(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Full-fraction shifts stay certified and mostly produce indefinite C."""
    failures = 0
    indefinite = 0
    worst = math.inf
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise RuntimeError("instance generation stalled; floors collapse too often")
        n = int(rng.integers(2, 8))
        r_b = int(rng.integers(1, n + 1))
        m = n - r_b + 1
        r_a = n if r_b == 1 else m
        a = gen.random_psd_with_kruskal(rng, n, r_a, m)
        b = gen.random_psd(rng, n, r_b)
        try:
            c, _ = shift_construction(a, b, 1.0)
        except NotPsdError:
            continue  # floor collapsed below tolerance; redraw
        done += 1
        cert = indefinite_certificate(c, b)
        if not cert.hypothesis_holds:
            failures += 1
        lam = _oracle_lambda_min(c.entries * b.entries)
        worst = min(worst, lam)
        if lam < -ABS_SLACK:
            failures += 1
        if classify_psd(c).kind is PsdKind.INDEFINITE:
            indefinite += 1
    fraction = indefinite / trials if trials else 0.0
    return SuiteResult(
        "indefinite_shift",
        trials,
        failures,
        {"indefinite_fraction": fraction, "worst_lambda_min": worst},
    )


def suite_projection_split(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Bordered projection splits satisfy their identities to 1e-8."""
    failures = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n + 1))
        p = gen.random_projection(rng, n, r)
        try:
            parts = decompose_projection(p.entries, tol=ABS_SLACK)
        except Exception:
            failures += 1
            continue
        x = parts.x
        resid = abs(float(np.real(np.vdot(x, x))) - parts.p * (1.0 - parts.p))
        if parts.q is not None:
            q = parts.q.entries
            rr = parts.r.entries
            resid = max(
                resid,
                float(np.max(np.abs(q @ q - q))),
                float(np.max(np.abs(q @ x))),
                float(np.max(np.abs(rr @ rr - rr))),
                abs(float(np.trace(q).real) - (parts.rank - 1)),
                abs(float(np.trace(rr).real) - parts.rank),
            )
        else:
            p1 = parts.p1.entries
            resid = max(resid, float(np.max(np.abs(p1 @ p1 - p1))))
        worst = max(worst, resid)
        if resid > ABS_SLACK:
            failures += 1
    return SuiteResult("projection_split", trials, failures, {"worst_residual": worst})


def suite_doa(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Smoothing identity, bound ordering, and the rank identity."""
    failures = 0
    worst_identity = 0.0
    worst_margin = math.inf
    for _ in range(trials):
        s = gen.random_doa_scenario(rng)
        direct = smoothed_cov_direct(s)
        hada = smoothed_cov_hadamard(s)
        dev = float(np.max(np.abs(direct.entries - hada.entries)))
        worst_identity = max(worst_identity, dev)
        if dev > 1e-10:
            failures += 1
        rep = doa_bound(s)
        lam = _oracle_lambda_min(direct.entries)
        worst_margin = min(worst_margin, lam - rep.bound)
        if rep.bound > lam + ABS_SLACK:
            failures += 1
        if not rank_identity_check(s):
            failures += 1
    return SuiteResult(
        "doa",
        trials,
        failures,
        {"worst_identity_dev": worst_identity, "worst_margin": worst_margin},
    )


def suite_cp(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Moment matrix forms agree and certified floors hold when applicable."""
    failures = 0
    worst_identity = 0.0
    applicable = 0
    for _ in range(trials):
        s = gen.random_cp_scenario(rng)
        parts = cp_m1(s)
        dev = float(np.max(np.abs(parts.lag_form.entries - parts.factored_form.entries)))
        worst_identity = max(worst_identity, dev)
        if dev > 1e-10:
            failures += 1
        rep = cp_bound(s)
        if not rep.condition_met:
            continue
        applicable += 1
        m1 = parts.factored_form.entries
        vals = np.linalg.eigvalsh(m1)
        tau = 1e-9 * float(np.max(np.abs(vals)))  # relative, as matcore.tol_for
        positive = vals[vals > tau]
        lam_pos = float(np.min(positive)) if positive.size else 0.0
        if lam_pos < rep.m1_floor - ABS_SLACK:
            failures += 1
        core_lam = _oracle_lambda_min(parts.core.entries)
        if core_lam < rep.hadamard_floor - ABS_SLACK:
            failures += 1
    return SuiteResult(
        "cp",
        trials,
        failures,
        {"worst_identity_dev": worst_identity, "applicable": applicable},
    )


def _kruskal_bruteforce(arr: np.ndarray, tau_rel: float = 1e-9) -> int:
    """Column-subset SVD definition, evaluated with numpy only."""
    n_cols = arr.shape[1]
    # More columns than rows are dependent, though svd reports only as many
    # singular values as there are rows: no level above the row count passes.
    most = min(arr.shape)
    sigma_max = float(np.linalg.svd(arr, compute_uv=False)[0])
    tau = tau_rel * sigma_max  # relative, as matcore.tol_for
    for q in range(1, most + 1):
        for subset in itertools.combinations(range(n_cols), q):
            svals = np.linalg.svd(arr[:, subset], compute_uv=False)
            if float(svals[-1]) <= tau:
                return q - 1
    return most


def _mu_bruteforce(arr: np.ndarray, m: int) -> float:
    """Exhaustive submatrix scan with numpy eigenvalues, bitmask enumeration."""
    n = arr.shape[0]
    best = math.inf
    for mask in range(1 << n):
        if bin(mask).count("1") != m:
            continue
        idx = [i for i in range(n) if mask >> i & 1]
        best = min(best, float(np.linalg.eigvalsh(arr[np.ix_(idx, idx)])[0]))
    return best


def suite_oracle_crosscheck(rng: np.random.Generator, trials: int) -> SuiteResult:
    """Fast paths agree with brute-force oracles on random inputs."""
    failures = 0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(1, n + 1))
        a = gen.random_psd(rng, n, rank)
        arr = a.entries
        if n >= 2 and rng.uniform() < 0.25:
            # Force an exact dependency by duplicating one coordinate.
            picked = rng.choice(n, size=2, replace=False)
            i, j = int(picked[0]), int(picked[1])
            arr = arr.copy()
            arr[:, j] = arr[:, i]
            arr[j, :] = arr[i, :]
        if kruskal_rank(arr) != _kruskal_bruteforce(arr):
            failures += 1
    for _ in range(trials):
        n = int(rng.integers(1, 8))
        h = gen.random_hermitian(rng, n)
        m = int(rng.integers(1, n + 1))
        mine = min_submatrix_eigenvalue(h, m).value
        oracle = _mu_bruteforce(h.entries, m)
        if abs(mine - oracle) > 1e-10 * max(1.0, abs(oracle)):
            failures += 1
    return SuiteResult("oracle_crosscheck", 2 * trials, failures, {})


_SUITES = (
    (suite_eig_invariants, 1000),
    (suite_schur_product, 300),
    (suite_quantitative_floor, 1000),
    (suite_projection_floor, 500),
    (suite_indefinite_shift, 500),
    (suite_projection_split, 500),
    (suite_doa, 500),
    (suite_cp, 300),
    (suite_oracle_crosscheck, 200),
)


def run_all(seed: int = 0, scale: float = 1.0) -> list[SuiteResult]:
    """Run every suite with per-suite generators derived from one seed."""
    results = []
    for index, (fn, base_trials) in enumerate(_SUITES):
        trials = max(1, int(round(base_trials * scale)))
        rng = np.random.default_rng([int(seed), index])
        results.append(fn(rng, trials))
    return results
