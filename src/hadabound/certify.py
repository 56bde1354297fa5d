"""Eigenvalue floors for entrywise products, with verifiable certificates.

The centerpiece bounds the smallest eigenvalue of A o B (entrywise
product, A and B positive semidefinite) from below by

    mu * min_diag / kappa

where mu is the least smallest-eigenvalue among all principal submatrices
of A of order n - rank(B) + 1, kappa is the effective condition number of
B, and min_diag is the smallest diagonal entry of B. This refines the
classical floor lambda_min(A) * min_diag, which is vacuous whenever A is
singular. Every bound returned here is re-verified as a matrix ordering
before it is reported.

Certificates extend the same mechanism to Hermitian matrices that are not
positive semidefinite: the hypothesis tests a submatrix eigenvalue floor
against a multiple of the most negative eigenvalue, and the conclusion
checks positivity of the product.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import DimensionError, NotProjectionError, NotPsdError
from .matcore import (
    DEFAULT_TOL_REL,
    HermitianMatrix,
    as_hermitian,
    classify_psd,
    eigvals_hermitian,
    hadamard,
    is_orthogonal_projection,
    is_psd,
    rank_numeric,
    require_psd,
    same_size,
    solve_spectra,
    tol_for,
)
from .submatrix import (
    DEFAULT_BUDGET,
    floor_mu,
    floor_order,
    kruskal_rank,
    min_submatrix_eigenvalue,
)


def _psd_pair(a, b, tau_rel: float, *also) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Carriers of two same-size factors, the first and then the second checked PSD.

    Their spectra are solved together, with those of the carriers each
    function in also builds from the two (such as hadamard), before any check.
    """
    am, bm = same_size(a, b)
    solve_spectra(am, bm, *(functools.partial(build, am, bm) for build in also))
    return require_psd(am, tau_rel, "first factor"), require_psd(bm, tau_rel, "second factor")


def classical_bound(a, b, tau_rel: float = DEFAULT_TOL_REL) -> float:
    """Floor lambda_min(A) * min_i b_ii for positive semidefinite A and B."""
    am, bm = _psd_pair(a, b, tau_rel)
    return float(eigvals_hermitian(am)[-1]) * float(np.min(bm.diagonal()))


def loewner_check(m, c: float, d, tau_rel: float = DEFAULT_TOL_REL) -> bool:
    """Whether M - c * D is positive semidefinite within tolerance."""
    mm, dm = same_size(m, d)
    diff = HermitianMatrix.derived("difference M - c D", lambda: mm.entries - float(c) * dm.entries)
    return is_psd(diff, tau_rel)


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """Everything computed while bounding lambda_min(A o B) from below.

    quantitative_bound is mu * min_diag / kappa_eff exactly as those three
    numbers appear in the report. mu is the least lambda_min over A's
    principal submatrices of order n - r_b + 1, or an exact 0.0, unscanned,
    when A's numeric rank is below that order (as submatrix.floor_mu
    decides); margin then equals actual_lambda_min. loewner_verified
    records that A o B - (mu / kappa_eff) * diag(B) passed a positive
    semidefiniteness check, which is a stronger statement than the scalar
    bound alone.
    """

    n: int
    r_b: int
    mu: float
    kappa_eff: float
    min_diag: float
    classical_bound: float
    quantitative_bound: float
    actual_lambda_min: float
    loewner_verified: bool
    margin: float


def quantitative_bound(
    a, b, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """Certified floor for lambda_min(A o B) that survives singular A.

    Both factors must be positive semidefinite and B must not be
    numerically zero. With m = n - rank(B) + 1, the floor is exactly 0 when
    A's numeric rank is below m and lambda_min(A) >= -tol_for(max |a_ij|):
    every order-m block is then numerically singular, so mu is read as 0.0
    without a scan (submatrix.floor_mu), and 0 is the floor Schur's product
    theorem gives. Otherwise mu is the scanned minimum, and the floor is
    strictly positive whenever every principal submatrix of A of order m
    is positive definite and B has a positive diagonal.
    """
    am, bm = _psd_pair(a, b, tau_rel, hadamard)
    n = am.n
    r_b, m, kappa = floor_order(bm, tau_rel, "second factor")
    mu = floor_mu(am, m, tau_rel, budget)
    min_diag = float(np.min(bm.diagonal()))
    product = hadamard(am, bm)
    actual = float(eigvals_hermitian(product)[-1])
    quantitative = mu * min_diag / kappa
    diag_b = HermitianMatrix.derived("diagonal of B", lambda: np.diag(bm.entries.diagonal()))
    verified = loewner_check(product, mu / kappa, diag_b, tau_rel)
    return BoundReport(
        n=n,
        r_b=r_b,
        mu=float(mu),
        kappa_eff=float(kappa),
        min_diag=min_diag,
        classical_bound=classical_bound(am, bm, tau_rel),
        quantitative_bound=float(quantitative),
        actual_lambda_min=actual,
        loewner_verified=bool(verified),
        margin=float(actual - quantitative),
    )


@dataclasses.dataclass(frozen=True)
class NonsingularityCheck:
    """Sufficient condition for A o B to be positive definite.

    Requires every diagonal entry of B positive and the Kruskal rank of A
    at least n - rank(B) + 1. Sufficient but not necessary: a True verdict
    certifies positive definiteness of the product, a False verdict proves
    nothing.
    """

    holds: bool
    n: int
    kruskal_rank_a: int
    rank_b: int
    min_diag_b: float
    reason: str


def nonsingularity_predicate(
    a, b, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> NonsingularityCheck:
    """Evaluate the diagonal-and-Kruskal-rank sufficient condition."""
    am, bm = _psd_pair(a, b, tau_rel)
    n = am.n
    diag = bm.diagonal()
    min_diag = float(np.min(diag))
    diag_ok = min_diag > tol_for(float(np.max(diag)), tau_rel)
    k_a = kruskal_rank(am, tau_rel, budget)
    r_b = rank_numeric(bm, tau_rel)
    needed = n - r_b + 1
    holds = bool(diag_ok and k_a >= needed)
    if not diag_ok:
        reason = f"diagonal of B has a vanishing entry (min {min_diag!r})"
    elif k_a < needed:
        reason = f"Kruskal rank {k_a} of A is below the required {needed} = {n} - {r_b} + 1"
    else:
        reason = f"Kruskal rank {k_a} >= {needed} and diagonal of B is positive"
    return NonsingularityCheck(
        holds=holds,
        n=n,
        kruskal_rank_a=k_a,
        rank_b=r_b,
        min_diag_b=min_diag,
        reason=reason,
    )


@dataclasses.dataclass(frozen=True)
class ProjectionParts:
    """Bordered split of an orthogonal projection at its trailing corner.

    p1 is the leading (n-1) x (n-1) block, x the border column, p the real
    corner entry. When p is interior to (0, 1), q is the rank reduced
    projection p1 - x x* / p (it annihilates x) and r restores the border
    direction, q + x x* / ||x||^2, recovering a projection of the original
    rank. When p sits at 0 or 1 the border vanishes and p1 is itself a
    projection, so q and r are None.
    """

    p1: HermitianMatrix
    x: np.ndarray
    p: float
    q: HermitianMatrix | None
    r: HermitianMatrix | None
    rank: int


def decompose_projection(proj, tol: float = DEFAULT_TOL_REL) -> ProjectionParts:
    """Split a projection at its corner and verify every claimed identity.

    Checks performed: the input is an orthogonal projection; the corner
    lies in [0, 1]; ||x||^2 = p (1 - p); and on the interior branch, q and
    r are projections of ranks rank-1 and rank with q x = 0. Any residual
    beyond tol raises NotProjectionError rather than returning parts that
    do not satisfy their own contract.
    """
    arr = np.asarray(proj, dtype=np.complex128)
    ok, rank = is_orthogonal_projection(arr, tol)
    if not ok:
        raise NotProjectionError("input is not an orthogonal projection within tolerance")
    n = arr.shape[0]
    if n < 2:
        raise DimensionError("bordered split needs size at least 2")
    # Every block below passes is_orthogonal_projection's symmetry test; a
    # carrier would test it again at the stricter carrier tolerance, so the
    # blocks are carried as derived, as projection_certificate carries C o P.
    p1_block = arr[:-1, :-1].copy()
    x = arr[:-1, -1].copy()
    p = float(arr[-1, -1].real)
    if p < -tol or p > 1.0 + tol:
        raise NotProjectionError(f"corner entry {p!r} lies outside [0, 1]")
    norm_x_sq = float(np.real(np.vdot(x, x)))
    if abs(norm_x_sq - p * (1.0 - p)) > tol:
        raise NotProjectionError(
            f"border norm ||x||^2 = {norm_x_sq!r} does not match p(1-p) = {p * (1.0 - p)!r}"
        )

    q = r = None
    if p <= tol or p >= 1.0 - tol:
        # Border is forced to zero; the leading block is a projection whose
        # residual is bounded by ||x||^2 <= tol, hence the relaxed check.
        ok1, rank1 = is_orthogonal_projection(p1_block, 2.0 * tol)
        if not ok1 or rank1 != rank - round(p):
            raise NotProjectionError("leading block is not a projection of the expected rank")
    else:
        outer = np.outer(x, x.conj())
        q_arr = p1_block - outer / p
        r_arr = q_arr + outer / norm_x_sq
        ok_q, rank_q = is_orthogonal_projection(q_arr, tol)
        if not ok_q or rank_q != rank - 1:
            raise NotProjectionError("reduced block q is not a projection of rank one less")
        qx = float(np.max(np.abs(q_arr @ x)))
        if qx > tol:
            raise NotProjectionError(
                f"reduced block does not annihilate the border (|qx| = {qx:.3e})"
            )
        ok_r, rank_r = is_orthogonal_projection(r_arr, tol)
        if not ok_r or rank_r != rank:
            raise NotProjectionError("restored block r is not a projection of the original rank")
        q = HermitianMatrix.derived("reduced block q", lambda: q_arr)
        r = HermitianMatrix.derived("restored block r", lambda: r_arr)
    p1 = HermitianMatrix.derived("leading block", lambda: p1_block)
    return ProjectionParts(p1=p1, x=x, p=p, q=q, r=r, rank=rank)


@dataclasses.dataclass(frozen=True)
class ProjectionCertificate:
    """Submatrix floor hypothesis and product positivity conclusion.

    mu is the least lambda_min over C's principal submatrices of order
    n - projection_rank + 1, or an exact 0.0, unscanned, when C has numeric
    rank below that order and lambda_min(C) >= hypothesis_threshold
    (submatrix.floor_mu); any other C, an indefinite one included, is
    scanned, so reading 0 moves no hypothesis verdict. The implication
    hypothesis => conclusion always holds mathematically.
    """

    hypothesis_holds: bool
    conclusion_holds: bool
    mu: float
    hypothesis_threshold: float
    lambda_min_product: float
    projection_rank: int


def projection_certificate(
    c, proj, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> ProjectionCertificate:
    """Certify C o P for Hermitian C against a rank-r orthogonal projection P.

    Hypothesis: every principal submatrix of C of order n - r + 1 is
    positive semidefinite (equivalently the submatrix eigenvalue minimum
    clears -tau). Conclusion: C o P is positive semidefinite.
    """
    cm = as_hermitian(c)
    arr = np.asarray(proj, dtype=np.complex128)
    ok, rank = is_orthogonal_projection(arr, tol_for(1.0, tau_rel))
    if not ok:
        raise NotProjectionError("second factor is not an orthogonal projection")
    if arr.shape[0] != cm.n:
        raise DimensionError(f"operand sizes differ: {cm.n} vs {arr.shape[0]}")
    if rank < 1:
        raise NotProjectionError("projection rank must be at least 1")
    # P passed the projection check's symmetry test; a carrier of P would
    # test it again at the stricter carrier tolerance, so C o P is formed
    # as hadamard forms it, from the entries.
    make_product = functools.partial(
        HermitianMatrix.derived, "entrywise product C o P", lambda: cm.entries * arr
    )
    solve_spectra(cm, make_product)
    mu = floor_mu(cm, cm.n - rank + 1, tau_rel, budget)
    threshold = -tol_for(float(np.max(np.abs(cm.entries))), tau_rel)
    product = make_product()
    lam = float(eigvals_hermitian(product)[-1])
    return ProjectionCertificate(
        hypothesis_holds=bool(mu >= threshold),
        conclusion_holds=classify_psd(product, tau_rel).is_psd,
        mu=float(mu),
        hypothesis_threshold=float(threshold),
        lambda_min_product=lam,
        projection_rank=rank,
    )


@dataclasses.dataclass(frozen=True)
class IndefiniteCertificate:
    """Certificate that C o B stays positive semidefinite for indefinite C.

    Hypothesis: mu, the submatrix eigenvalue minimum of C at order
    n - rank(B) + 1, is at least -(kappa_eff(B) - 1) * lambda_min(C).
    Conclusion: C o B is positive semidefinite. The hypothesis is checked
    with slack tau to absorb rounding on instances built to sit exactly on
    the boundary.
    """

    hypothesis_holds: bool
    conclusion_holds: bool
    mu: float
    required_floor: float
    lambda_min_c: float
    kappa_eff: float
    rank_b: int
    lambda_min_product: float


def indefinite_certificate(
    c, b, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> IndefiniteCertificate:
    """Evaluate the submatrix floor hypothesis for Hermitian C against PSD B."""
    cm, bm = same_size(c, b)
    solve_spectra(cm, bm, functools.partial(hadamard, cm, bm))
    r_b, m, kappa = floor_order(bm, tau_rel, "second factor")
    mu = min_submatrix_eigenvalue(cm, m, budget).value
    lam_c = float(eigvals_hermitian(cm)[-1])
    required = -(kappa - 1.0) * lam_c
    slack = tol_for(float(np.max(np.abs(cm.entries))), tau_rel)
    product = hadamard(cm, bm)
    lam_product = float(eigvals_hermitian(product)[-1])
    return IndefiniteCertificate(
        hypothesis_holds=bool(mu >= required - slack),
        conclusion_holds=classify_psd(product, tau_rel).is_psd,
        mu=float(mu),
        required_floor=float(required),
        lambda_min_c=lam_c,
        kappa_eff=float(kappa),
        rank_b=r_b,
        lambda_min_product=lam_product,
    )


def shift_construction(
    a,
    b,
    fraction: float,
    tau_rel: float = DEFAULT_TOL_REL,
    budget: int = DEFAULT_BUDGET,
) -> tuple[HermitianMatrix, float]:
    """Shift A down by a fraction of its certified floor against B.

    Returns (C, c) with C = A - c I and c = fraction * mu / kappa_eff, the
    largest family of shifts for which the indefinite certificate still
    passes. With fraction = 1 and singular A the result is genuinely
    indefinite while C o B remains positive semidefinite. Raises when the
    certified floor for (A, B) is not positive, since then no admissible
    shift exists: positive means above tol_for(lambda_max(A) * max
    diag(B)), the scale of A o B by Schur's bound ||A o B|| <=
    lambda_max(A) max_i b_ii. An A whose mu submatrix.floor_mu reads as
    0.0, below the rank, has the floor 0.0 exactly and is refused.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
    am, bm = _psd_pair(a, b, tau_rel)
    _, m, kappa = floor_order(bm, tau_rel, "second factor")
    mu = floor_mu(am, m, tau_rel, budget)
    floor = mu * float(np.min(bm.diagonal())) / kappa
    if floor <= tol_for(eigvals_hermitian(am)[0] * np.max(bm.diagonal()), tau_rel):
        raise NotPsdError(f"certified floor {floor!r} is not positive; no admissible shift")
    c = fraction * mu / kappa
    return HermitianMatrix.derived("difference A - c I", lambda: am.entries - c * np.eye(am.n)), c
