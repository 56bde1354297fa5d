"""Dense Hermitian core: validated carriers, entrywise products, spectra.

All numerical decisions in this package flow through the routines here.
The eigensolver is a self-contained cyclic Jacobi iteration on the complex
Hermitian matrix; it is deterministic (fixed sweep order, no pivot search,
no threading), so identical inputs produce bit-identical spectra. Library
decompositions are deliberately not used on this path; they serve as
independent oracles in the test suite instead.

One driver, _jacobi, runs the iteration on a stack of blocks of one order:
a single matrix (a carrier's spectrum, eig_hermitian) is a stack of one,
the subset scans pass whole stacks through stack_eigvals. Thresholds,
norms and convergence are per block, and a sweep over the stack is the
single-matrix sweep vectorized across it, so each block's spectrum is
bit-identical to its solve alone. A scan that asks only which block is
least, whether any block is dependent, or a sign, passes a question that
lets a block leave unfinished once its Weyl bracket (its diagonal, its
off-diagonal mass and a derived rounding margin) settles it; the blocks
the answer rests on run to convergence. The single-matrix sweep rotates
each pair of rows or columns in place; the stack sweep assigns fresh
products. Both keep every complex coefficient the left operand of its
product, because numpy's complex multiply may be fused and is then not
symmetric in the last bit. A block whose squared norm would overflow or
underflow is solved scaled by an exact power of two and scaled back.

Tolerances are relative with an absolute floor, tau(scale) = tau_rel *
max(1, scale). Rank and definiteness decisions default to tau_rel = 1e-9,
symmetry checks to 1e-12.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    HermitianityError,
    NonFiniteError,
    NotProjectionError,
    ZeroPivotError,
)

DEFAULT_TOL_REL = 1e-9
SYMMETRY_TOL_REL = 1e-12
EIG_TOL_REL = 1e-10
# Sweep convergence: off-diagonal Frobenius mass below this times ||A||_F.
JACOBI_OFF_REL = 1e-14
JACOBI_MAX_SWEEPS = 100
TRACE_ROUND_GUARD = 1e-6


def tol_for(scale: float, tau_rel: float = DEFAULT_TOL_REL) -> float:
    """Relative tolerance with an absolute floor: tau_rel * max(1, scale)."""
    return tau_rel * max(1.0, float(scale))


@dataclasses.dataclass(frozen=True)
class HermitianMatrix:
    """Square complex matrix, validated Hermitian at construction.

    The entry array is normalized to complex128 and frozen read-only.
    NaN and infinite entries are rejected. Conjugate symmetry is asserted
    within 1e-12 * max(1, max|entry|); inputs further from symmetry than
    that are rejected rather than silently symmetrized. The spectrum is
    solved on first use and kept, so every rank, definiteness and
    conditioning question about one carrier reads the same eigenvalues.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise DimensionError("matrix must have at least one row")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("matrix has a NaN or infinite entry")
        scale = float(np.max(np.abs(arr)))
        tol = tol_for(scale, SYMMETRY_TOL_REL)
        dev = float(np.max(np.abs(arr - arr.conj().T)))
        if dev > tol:
            raise HermitianityError(
                f"matrix deviates from Hermitian symmetry by {dev:.3e} (tolerance {tol:.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in non-increasing order, read-only."""
        vals = block_eigvals(self.entries)
        vals.setflags(write=False)
        return vals

    def diagonal(self) -> np.ndarray:
        """Real parts of the diagonal (imaginary parts are within tolerance of zero)."""
        return self.entries.diagonal().real.copy()

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return np.array(self.entries)
        return np.array(self.entries, dtype=dtype)


def as_hermitian(a) -> HermitianMatrix:
    """Pass through HermitianMatrix instances, validate anything else."""
    if isinstance(a, HermitianMatrix):
        return a
    return HermitianMatrix(a)


def hadamard(a, b) -> HermitianMatrix:
    """Entrywise product of two Hermitian matrices of the same size."""
    am = as_hermitian(a)
    bm = as_hermitian(b)
    if am.n != bm.n:
        raise DimensionError(f"operand sizes differ: {am.n} vs {bm.n}")
    return HermitianMatrix(am.entries * bm.entries)


class PsdKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"


@dataclasses.dataclass(frozen=True)
class PsdClassification:
    """Definiteness class plus the witness eigenvalue that decided it."""

    kind: PsdKind
    witness: float

    @property
    def is_psd(self) -> bool:
        return self.kind is not PsdKind.INDEFINITE


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in non-increasing order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.eigenvectors, dtype=np.complex128)
        n = vals.shape[0]
        if vals.ndim != 1 or vecs.shape != (n, n):
            raise DimensionError("eigenvalue/eigenvector shapes are inconsistent")
        if np.any(vals[:-1] < vals[1:]):
            raise ValueError("eigenvalues must be sorted in non-increasing order")
        gram = vecs.conj().T @ vecs
        ortho_dev = float(np.max(np.abs(gram - np.eye(n))))
        if ortho_dev > tol_for(1.0, EIG_TOL_REL):
            raise ValueError(f"eigenvector columns not orthonormal (deviation {ortho_dev:.3e})")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _rotate(pair: np.ndarray, coef: np.ndarray, prod: np.ndarray) -> None:
    """Mix the two rows of a (2, n) view in place, through a (2, 2, n) scratch.

    Row i becomes coef[i, 0] * pair[0] + coef[i, 1] * pair[1]; coef is
    (2, 2, 1) and each coefficient is the left operand of its product.
    """
    np.multiply(coef, pair, out=prod)
    np.add(prod[:, 0], prod[:, 1], out=pair)


def _scalar_sweep(w: np.ndarray, skip_tol: float, v: np.ndarray | None) -> None:
    """One cyclic Jacobi sweep over one matrix, in place; rotates v's columns too.

    Each step annihilates one off-diagonal pair with a 2x2 unitary rotation,
    visiting the upper triangle in row-major order. Rotations on entries of
    at most skip_tol cannot move the off-diagonal mass above the
    convergence threshold, so they are skipped.

    Columns p and q, then rows p and q, then v's columns p and q are each
    rotated in place through one strided (2, n) view: one multiply and one
    add per pair. The result is bit-identical to assigning fresh products
    of copies, c * x + (s * phase) * y, because every product keeps its
    operand order, the complex coefficient on the left. numpy's complex
    multiply may be fused (FMA) and is then not symmetric in the last bit:
    coef * x and x * coef can differ. The coefficients are numpy scalar
    products of a real and a complex number; the real steps before them are
    IEEE arithmetic, which Python floats round the same way.
    """
    n = w.shape[0]
    prod = np.empty((2, 2, n), dtype=np.complex128)
    # The 2x2 coefficients of the column rotation, then of the row rotation.
    coef = np.empty(8, dtype=np.complex128)
    col_coef = coef[:4].reshape(2, 2, 1)
    row_coef = coef[4:].reshape(2, 2, 1)
    rows = list(w)
    wt = w.T
    vt = None if v is None else v.T
    for p in range(n - 1):
        row_p = rows[p]
        for q in range(p + 1, n):
            apq = row_p[q]
            r = float(abs(apq))
            if r <= skip_tol:
                continue
            row_q = rows[q]
            phase = apq / r
            phase_conj = np.conj(phase)
            app = float(row_p[p].real)
            aqq = float(row_q[q].real)
            tau = (aqq - app) / (2.0 * r)
            t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            # Right multiply by the rotation: columns p and q mix.
            coef[0] = coef[3] = coef[4] = coef[7] = c
            coef[1] = s * phase_conj
            coef[2] = -s * phase
            pq = slice(p, q + 1, q - p)  # rows (or columns) p and q as one view
            _rotate(wt[pq], col_coef, prod)
            # Left multiply by its conjugate transpose: rows p and q mix.
            coef[5] = s * phase
            coef[6] = -s * phase_conj
            _rotate(w[pq], row_coef, prod)
            w[p, q] = 0.0
            w[q, p] = 0.0
            w[p, p] = w[p, p].real
            w[q, q] = w[q, q].real
            if vt is not None:
                _rotate(vt[pq], col_coef, prod)


def block_eigvals(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian array, non-increasing, without validation.

    For arrays already known to be Hermitian: a carrier's entries, its
    principal blocks and Gram matrices of its columns. Orders 1 and 2 use
    closed forms, larger orders the Jacobi iteration.
    """
    n = w.shape[0]
    if n == 1:
        return np.array([w[0, 0].real])
    if n == 2:
        a = w[0, 0].real
        d = w[1, 1].real
        mid = 0.5 * (a + d)
        rad = math.hypot(0.5 * (a - d), abs(w[0, 1]))
        return np.array([mid + rad, mid - rad])
    diag = _jacobi(np.array(w, dtype=np.complex128)[None])[0]
    return np.sort(diag)[::-1].copy()


def _frobenius(w: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each block of a stack, bit for bit; blocks may be flattened.

    np.linalg.norm takes one matrix's norm as two BLAS dot products over
    its flattened entries, real parts and imaginary parts, then a square
    root. Matmul of a row by a column makes the same dot call per block.
    """
    flat = w.reshape(w.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def _off_mass(w: np.ndarray) -> np.ndarray:
    """Per block of a stack: the Frobenius norm of its off-diagonal part."""
    k, n = w.shape[0], w.shape[1]
    off = w.reshape(k, n * n).copy()
    off[:, :: n + 1] = 0.0  # the diagonal of each flattened block
    return _frobenius(off)


def _bracket_margin(n: int) -> float:
    """Slack of a Weyl bracket, per unit of ||W||_F, for blocks of order n.

    At the start of a sweep, let d be a block's diagonal and e its computed
    off-diagonal mass. Every eigenvalue its solve returns at convergence
    lies within e + margin * ||W||_F of the matching entry of sorted d,
    where ||W||_F is the block's norm at the start of the solve and eps is
    the machine epsilon. The margin is the sum of:

    - e itself is a rounded sum of n^2 squares and a square root, within
      (n^2 + 1) eps of the true off-diagonal mass; by Weyl's inequality
      the current block's eigenvalues lie within the true mass of sorted d;
    - every rotation still to come is backward stable: the computed update
      of the two columns and then the two rows, with the annihilated pair
      and the imaginary diagonal parts set to zero, is an exact unitary
      similarity of W + Delta with ||Delta||_F below 64 eps ||W||_F (a few
      units of roundoff per one-sided real plane rotation, Higham, Accuracy
      and Stability of Numerical Algorithms, ch. 19, doubled for complex
      arithmetic and again for the two sides). By Weyl, each moves an
      eigenvalue by at most that much. A solve that returns at all runs at
      most JACOBI_MAX_SWEEPS sweeps of n(n-1)/2 rotations;
    - at convergence the off-diagonal mass is at most JACOBI_OFF_REL
      ||W||_F, so the returned diagonal lies within that of the final
      iterate's eigenvalues (Weyl again; Demmel and Veselic, "Jacobi's
      method is more accurate than QR", SIAM J. Matrix Anal. Appl. 13(4),
      1992, bound the converged eigenvalues the same way);
    - forming d - e - margin, d + e + margin and e + margin rounds three
      times, each by at most eps times 3 ||W||_F.

    Counting n^2 rotations per sweep instead of n(n-1)/2 leaves
    64 JACOBI_MAX_SWEEPS n(n+1)/2 eps spare, at least 38400 eps at the
    orders a question sees (stack_eigvals solves n <= 2 in closed form).
    That covers the rounding of e and of the bracket arithmetic, and the
    drift of ||W||_F under the rotations.
    """
    return JACOBI_OFF_REL + 64.0 * JACOBI_MAX_SWEEPS * n * n * float(np.finfo(float).eps)


NORM_BAND = (2.0**-400, 2.0**500)
# Added to a scaled-back bracket half-width; see _band_exponents.
_SUBNORMAL_SLACK = 2.0**-1072


def _band_exponents(w: np.ndarray, fro: np.ndarray) -> np.ndarray:
    """Scale the blocks of a stack whose norm lies outside NORM_BAND into it, in place.

    Returns each block's binary exponent e: block i was multiplied by 2^-e,
    and its entry of fro replaced by the new norm; e = 0 for a block left
    as it is. The band is where the iteration's arithmetic behaves as the
    derivation of _bracket_margin assumes. For a block with
    2^-400 <= ||W||_F <= 2^500, and eps the machine epsilon:

    - nothing overflows. Every sum of squares _frobenius forms, of the
      block or of its off-diagonal part at any sweep, is at most about
      ||W||_F^2 <= 2^1000, far below the largest double (2^1024); the
      rotations keep the norm up to rounding. The other intermediates are
      bounded by a few ||W||_F, or, like tau and t, by n / JACOBI_OFF_REL.
    - underflow costs nothing the margin does not already cover. A product
      whose exact value lies below the smallest normal double (2^-1022) is
      off by at most 2^-1075. A norm or mass sums at most 2 n^2 products,
      so its square is off by at most 2 n^2 2^-1075 absolutely, below
      eps (JACOBI_OFF_REL ||W||_F)^2 >= 2^-52 2^-93 2^-800 = 2^-945 for
      every n below 2^64: the mass is as accurate near the convergence
      threshold as it is without underflow. A rotation's underflows add at
      most 8 n 2^-1075 to its backward error, far below the
      64 eps ||W||_F >= 2^-446 the margin allows it.

    Outside the band a norm of 1.35e154 or more overflows to inf, so the
    block would pass the convergence test at once; below about 1e-140 the
    mass near the threshold loses bits to underflow, and further down it
    vanishes, with the same effect. Such a block (a zero block aside, which
    converges at once anyway) is multiplied by 2^-e, where
    2^(e-1) <= max(|Re w_ij|, |Im w_ij|) < 2^e: its largest part lies in
    [1/2, 1) and its norm in [1/2, 2n], inside the band. A power of two
    scales exactly, so the scaled solve returns 2^-e times the block's
    eigenvalues with the accuracy of an in-band solve, and the caller
    multiplies by 2^e. That is exact too, unless the result falls below
    2^-1022, where it rounds by at most 2^-1075. The bracket a question
    sees rounds that way at most four times (d and h scaled back, h plus
    the slack, d +- h), so _SUBNORMAL_SLACK = 2^-1072 is added to the
    half-width of a scaled block; for a normal result the margin's own
    rounding allowance already covers these roundings.
    """
    low, high = NORM_BAND
    out = ~((fro >= low) & (fro <= high))
    exp = np.zeros(w.shape[0], dtype=np.int32)
    parts = w.view(np.float64)
    exp[out] = np.frexp(np.abs(parts[out]).max(axis=(1, 2)))[1]
    parts[out] = np.ldexp(parts[out], -exp[out, None, None])
    fro[out] = _frobenius(w[out])
    return exp


def _hypot_one(x: np.ndarray) -> np.ndarray:
    """math.hypot(1, x) elementwise; np.hypot rounds differently."""
    return np.fromiter(map(math.hypot, itertools.repeat(1.0), x.tolist()), float, x.size)


def _stack_sweep(w: np.ndarray, skip_tol: np.ndarray) -> None:
    """One cyclic Jacobi sweep over every block of a stack, in place.

    The steps of _scalar_sweep, elementwise across the stack: a block
    whose |a_pq| is at most its skip_tol is left as it is at (p, q).
    """
    n = w.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = w[:, p, q]
            # np.abs of a complex array rounds differently from scalar abs.
            r = np.hypot(apq.real, apq.imag)
            on = r > skip_tol
            if on.all():
                sel = slice(None)
            elif on.any():
                sel = np.flatnonzero(on)
                apq, r = apq[sel], r[sel]
            else:
                continue
            phase = apq / r
            tau = (w[sel, q, q].real - w[sel, p, p].real) / (2.0 * r)
            t = -np.copysign(1.0, tau) / (np.abs(tau) + _hypot_one(tau))
            c = 1.0 / _hypot_one(t)
            s = t * c
            # The scalar sweep's products: each coefficient, such as
            # s * phase, is the left operand of its product.
            c = c[:, None]
            phase_conj = np.conj(phase)
            s_conj = (s * phase_conj)[:, None]
            s_phase = (s * phase)[:, None]
            ms_phase = (-s * phase)[:, None]
            ms_conj = (-s * phase_conj)[:, None]
            col_p = w[sel, :, p].copy()
            col_q = w[sel, :, q].copy()
            w[sel, :, p] = c * col_p + s_conj * col_q
            w[sel, :, q] = ms_phase * col_p + c * col_q
            row_p = w[sel, p, :].copy()
            row_q = w[sel, q, :].copy()
            w[sel, p, :] = c * row_p + s_phase * row_q
            w[sel, q, :] = ms_conj * row_p + c * row_q
            w[sel, p, q] = 0.0
            w[sel, q, p] = 0.0
            w[sel, p, p] = w[sel, p, p].real
            w[sel, q, q] = w[sel, q, q].real


def _jacobi(w: np.ndarray, v: np.ndarray | None = None, question=None) -> np.ndarray:
    """The cyclic Jacobi iteration on a (k, n, n) complex128 stack, in place.

    Returns each block's diagonal at convergence, unsorted. A block has
    converged when, at the start of a sweep, its off-diagonal Frobenius
    mass is at most 1e-14 times its own ||A||_F; it then leaves the stack.
    The sweep count is capped at 100. While two or more blocks are live
    they are swept together by _stack_sweep; a lone block is swept by
    _scalar_sweep, which also rotates the eigenvector columns v of a stack
    of one. Both sweeps are the same steps per block, so a block's result
    does not depend on the stack it came in.

    A question, if given, is asked at the start of every sweep which live
    blocks may leave unfinished. question(d, h) gets each live block's
    diagonal d (k', n) and bracket half-width h (k'): every eigenvalue the
    block's converged solve would return lies within h of the matching
    entry of sorted d (see _bracket_margin). A block converging at this
    test has h = 0, so its bracket is its result. The question returns a
    boolean mask of the blocks that leave; their rows are NaN.

    A block whose norm lies outside NORM_BAND is solved scaled by a power
    of two (see _band_exponents); its diagonal, and the d and h its
    question sees, are scaled back.
    """
    k, n = w.shape[0], w.shape[1]
    with np.errstate(over="ignore"):
        fro = _frobenius(w)
    exp = None
    if not (NORM_BAND[0] <= fro.min() and fro.max() <= NORM_BAND[1]):
        exp = _band_exponents(w, fro)
    off_tol = JACOBI_OFF_REL * fro
    skip_tol = off_tol / max(1, n)
    margin = _bracket_margin(n) * fro
    diag = np.full((k, n), np.nan)
    live = np.arange(k)
    for _ in range(JACOBI_MAX_SWEEPS):
        mass = _off_mass(w)
        done = out = mass <= off_tol
        if question is not None:
            d = w.diagonal(axis1=1, axis2=2).real
            h = np.where(done, 0.0, mass + margin)
            if exp is not None:
                e = exp[live]
                d = np.ldexp(d, e[:, None])
                h = np.ldexp(h, e) + np.where(done | (e == 0), 0.0, _SUBNORMAL_SLACK)
            out = done | question(d, h)
        if out.any():
            diag[live[done]] = w[done].diagonal(axis1=1, axis2=2).real
            if out.all():
                return diag if exp is None else np.ldexp(diag, exp[:, None])
            keep = ~out
            w, off_tol, skip_tol, live = w[keep], off_tol[keep], skip_tol[keep], live[keep]
            margin = margin[keep]
        if live.size == 1:
            _scalar_sweep(w[0], float(skip_tol[0]), v)
        else:
            _stack_sweep(w, skip_tol)
    raise ConvergenceError(
        f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps"
    )


def stack_eigvals(blocks: np.ndarray, question=None) -> np.ndarray:
    """Eigenvalues of each block of a (k, m, m) Hermitian stack; row i non-increasing.

    Row i is bit-identical to block_eigvals(blocks[i]): orders 1 and 2 use
    its closed forms, larger orders the same Jacobi iteration. A question
    (see _jacobi) may let blocks leave unfinished; their rows are NaN. It
    sees every block, the closed forms as finished ones.
    """
    k, n = blocks.shape[0], blocks.shape[1]
    if n <= 2:
        vals = np.array([block_eigvals(b) for b in blocks]).reshape(k, n)
        if question is not None:
            question(vals, np.zeros(k))
        return vals
    diag = _jacobi(np.array(blocks, dtype=np.complex128), question=question)
    return np.sort(diag, axis=1)[:, ::-1].copy()


def eigvals_hermitian(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, non-increasing, read-only.

    A HermitianMatrix is solved once; later calls return the same array.
    """
    return as_hermitian(a).eigenvalues


def eig_hermitian(a) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    Eigenvalues come back non-increasing; eigenvector column k matches
    eigenvalue k. The reconstruction residual is verified against
    1e-10 * (1 + max|entry|) before returning.
    """
    am = as_hermitian(a)
    v = np.eye(am.n, dtype=np.complex128)
    diag = _jacobi(np.array(am.entries)[None], v)[0]
    order = np.argsort(-diag, kind="stable")
    vals = diag[order]
    vecs = v[:, order]
    dec = SpectralDecomposition(vals, vecs)
    scale = float(np.max(np.abs(am.entries)))
    resid = float(np.max(np.abs(dec.reconstruct() - am.entries)))
    if resid > EIG_TOL_REL * (1.0 + scale):
        raise ConvergenceError(
            f"spectral reconstruction residual {resid:.3e} exceeds tolerance"
        )
    return dec


def classify_psd(a, tau_rel: float = DEFAULT_TOL_REL) -> PsdClassification:
    """Trichotomy on the spectrum with witness lambda_min.

    Positive definite when lambda_min > tau, indefinite when
    lambda_min < -tau, singular positive semidefinite in between,
    where tau = tau_rel * max(1, lambda_max).
    """
    vals = eigvals_hermitian(a)
    tau = tol_for(vals[0], tau_rel)
    lam_min = float(vals[-1])
    if lam_min > tau:
        kind = PsdKind.POSITIVE_DEFINITE
    elif lam_min < -tau:
        kind = PsdKind.INDEFINITE
    else:
        kind = PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
    return PsdClassification(kind, lam_min)


class _PsdSign:
    """The question of is_psd: classify_psd's verdict, from a Weyl bracket.

    The matrix is PSD when lambda_min >= -tol_for(lambda_max). tol_for is
    nondecreasing, so the lower lambda_min bracket clearing the threshold
    of the lower lambda_max bracket settles True, and the upper lambda_min
    bracket below the threshold of the upper lambda_max bracket settles
    False. The one block then leaves.
    """

    def __init__(self, tau_rel: float):
        self.tau_rel = tau_rel
        self.psd = None

    def __call__(self, d: np.ndarray, h: np.ndarray) -> np.ndarray:
        low, top, half = float(d[0].min()), float(d[0].max()), float(h[0])
        if low - half >= -tol_for(top - half, self.tau_rel):
            self.psd = True
        elif low + half < -tol_for(top + half, self.tau_rel):
            self.psd = False
        return np.array([self.psd is not None])


def is_psd(a, tau_rel: float = DEFAULT_TOL_REL) -> bool:
    """classify_psd(a, tau_rel).is_psd, from a solve that stops once it is settled.

    For a matrix whose spectrum nothing else reads: the carrier's cached
    spectrum is neither read nor filled.
    """
    sign = _PsdSign(tau_rel)
    stack_eigvals(as_hermitian(a).entries[None], sign)
    return sign.psd


def rank_numeric(a, tau_rel: float = DEFAULT_TOL_REL) -> int:
    """Count of eigenvalues with |lambda| > tau_rel * max(1, max|lambda|)."""
    vals = eigvals_hermitian(a)
    tau = tol_for(float(np.max(np.abs(vals))), tau_rel)
    return int(np.sum(np.abs(vals) > tau))


def is_orthogonal_projection(p, tol: float = DEFAULT_TOL_REL) -> tuple[bool, int | None]:
    """Check Hermitian idempotency; on success also report the rank.

    Returns (True, rank) when both the symmetry defect and the idempotency
    defect are within tol in max norm. The rank is the rounded trace; a
    trace further than 1e-6 from an integer raises, since that indicates a
    matrix that only superficially resembles a projection.
    """
    arr = np.asarray(p, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
    idem_dev = float(np.max(np.abs(arr @ arr - arr)))
    if herm_dev > tol or idem_dev > tol:
        return False, None
    trace = float(np.trace(arr).real)
    rank = round(trace)
    if abs(trace - rank) > TRACE_ROUND_GUARD:
        raise NotProjectionError(
            f"projection checks passed but trace {trace!r} is not within 1e-6 of an integer"
        )
    return True, int(rank)


def schur_complement(m, i: int, tau_rel: float = DEFAULT_TOL_REL) -> HermitianMatrix:
    """Schur complement that eliminates row/column i against the pivot m[i, i].

    The pivot must exceed tau_rel * max(1, max|entry|); eliminating against
    a vanishing diagonal entry is refused.
    """
    mm = as_hermitian(m)
    n = mm.n
    if not 0 <= i < n:
        raise DimensionError(f"pivot index {i} out of range for size {n}")
    if n == 1:
        raise DimensionError("cannot take a Schur complement of a 1x1 matrix")
    pivot = mm.entries[i, i].real
    tau = tol_for(float(np.max(np.abs(mm.entries))), tau_rel)
    if pivot <= tau:
        raise ZeroPivotError(f"diagonal pivot {pivot!r} at index {i} is not positive")
    keep = [k for k in range(n) if k != i]
    y = mm.entries[keep, i]
    block = mm.entries[np.ix_(keep, keep)]
    return HermitianMatrix(block - np.outer(y, y.conj()) / pivot)
