"""Dense Hermitian core: validated carriers, entrywise products, spectra.

All numerical decisions in this package flow through the routines here.
The eigensolver is a self-contained cyclic Jacobi iteration on the complex
Hermitian matrix; it is deterministic (fixed sweep order, no pivot search,
no threading), so identical inputs produce bit-identical spectra. Library
decompositions are deliberately not used on this path; they serve as
independent oracles in the test suite instead.

stack_eigvals is the one eigenvalue routine for arrays: orders 1 and 2 in
closed form across the stack, larger orders through one driver, _jacobi,
which runs the iteration on a stack of blocks of one order. A single
matrix (eig_hermitian) is a stack of one, the subset scans pass whole
stacks, and solve_spectra stacks the carriers of one call. Thresholds,
norms and convergence are per block, and every block takes the same
steps whatever stack it came in, so each block's spectrum is
bit-identical to its solve alone. Every block runs to convergence, so the
solver is a pure function of its stack. It has two sweeps. The lockstep
sweep, for stacks of at most LOCKSTEP_MAX live blocks, works out each
block's rotation in Python floats and rotates the pairs of rows and
columns of the whole stack in place; the vectorized sweep, for larger
stacks, works out the rotations as arrays and assigns fresh products.
Both keep every complex coefficient the left operand of its product,
because numpy's complex multiply may be fused and is then not symmetric
in the last bit. A block whose squared norm would overflow or underflow
is solved scaled by an exact power of two and scaled back; one band rule,
_band_exponents', decides that, and scaled_into_band applies it to the
inputs whose column Grams the subset scans form.

Every decision that a block needs no solve goes through one stacked
Cholesky kernel instead. least_pivots runs a floating-point complex
Cholesky of each Hermitian block itself, of its own order, shifted by a
floor and Rump's a-priori constant, and returns its least pivot and the
factor; clears_floor reads a positive pivot as a proof that the block's
exact lambda_min lies above the floor. rayleigh_guesses runs a few steps
of inverse iteration on that factor, so that a scan can guess its
least block before it solves any. The kernel is plain numpy, vectorized
across a stack, so LAPACK stays the tests' independent oracle.
solve_slack, bracket_margin(m) ||W||_F per block, bridges the proof to
the converged solve: is_psd, the subset minimum scans and the Kruskal
levels each read it, and drop a block only where its converged result
could not change their answer.

Results that depend on a matrix's content alone are solved once per
content: a carrier's spectrum here, and the subset minimum mu of
submatrix.min_submatrix_eigenvalue. One memo, keyed on the exact
complex128 bytes of the matrix and the order asked for, serves both
across calls and carriers. The solver reads nothing but those bytes, so a
hit returns the bits a fresh solve would. The keys it holds stay within
MEMO_KEY_BYTES in total, the least recently used leaving first. is_psd's
solve, eig_hermitian and raised errors are not stored. A call that needs
the spectra of several carriers, such as A, B and A o B, first stores
them through solve_spectra, which solves them as one stack per order.

Each precondition on an input is decided in one function here:
finite_matrix (2-D, nonempty, finite, and square unless asked otherwise),
which every carrier and every rectangular input passes; same_size (two
operands of one size); and require_psd (a factor classify_psd finds
positive semidefinite, refused under the caller's label with the witness
eigenvalue).

Tolerances are relative with no absolute floor: every rank, definiteness
and "is zero" decision compares against tol_for(scale) = tau_rel *
max(0, scale), where scale is a norm of the matrix the decision is about.
Scaling an input by 2^k scales each such scale, and each reported float,
exactly by a power of two, and leaves every verdict as it is. Rank and
definiteness decisions default to tau_rel = 1e-9, symmetry checks to 1e-12.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import threading

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    HermitianityError,
    NonFiniteError,
    NotProjectionError,
    NotPsdError,
    ZeroPivotError,
)

DEFAULT_TOL_REL = 1e-9
SYMMETRY_TOL_REL = 1e-12
EIG_TOL_REL = 1e-10
# Sweep convergence: off-diagonal Frobenius mass below this times ||A||_F.
JACOBI_OFF_REL = 1e-14
JACOBI_MAX_SWEEPS = 100
TRACE_ROUND_GUARD = 1e-6
# Total bytes of the keys the content memo holds: about 40 matrices of order 40.
MEMO_KEY_BYTES = 1 << 20
# Jacobi stacks of at most this many live blocks are swept in lockstep (_lockstep).
LOCKSTEP_MAX = 12


def tol_for(scale, tau_rel: float = DEFAULT_TOL_REL):
    """Relative tolerance tau_rel * max(0, scale), elementwise on an array.

    The one threshold rule: a quantity is zero, a matrix singular or a
    block dependent when it is within this of zero, with scale the norm of
    the matrix in question (its largest eigenvalue or entry). There is no
    absolute floor, so the rule is scale-free: tol_for(2^k s) is exactly
    2^k tol_for(s) away from underflow and overflow. A negative scale
    gives 0. The rule is nondecreasing in scale, which the screen of a
    Kruskal level relies on (submatrix.kruskal_rank).
    """
    return tau_rel * np.maximum(0.0, scale)


def finite_matrix(a, square: bool = True) -> np.ndarray:
    """A new complex128 copy of a: 2-D, nonempty, finite, and square unless square=False.

    Carriers, the projection check and the rectangular column scans take
    their input through it before any decision about that input.
    """
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0 or (square and arr.shape[0] != arr.shape[1]):
        kind = "square" if square else "nonempty 2-D"
        raise DimensionError(f"expected a {kind} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("matrix has a NaN or infinite entry")
    return arr


@dataclasses.dataclass(frozen=True)
class HermitianMatrix:
    """Square complex matrix, validated Hermitian at construction.

    The entry array is normalized to complex128 and frozen read-only.
    NaN and infinite entries are rejected. Conjugate symmetry is asserted
    within tol_for(max|entry|, 1e-12); inputs further from symmetry than
    that are rejected rather than silently symmetrized. The spectrum is
    solved on first use and kept, so every rank, definiteness and
    conditioning question about one carrier reads the same eigenvalues;
    carriers of equal entries share one solve (see solved_once).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = finite_matrix(self.entries)
        scale = float(np.max(np.abs(arr)))
        tol = tol_for(scale, SYMMETRY_TOL_REL)
        dev = float(np.max(np.abs(arr - arr.conj().T)))
        if dev > tol:
            raise HermitianityError(
                f"matrix deviates from Hermitian symmetry by {dev:.3e} (tolerance {tol:.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def derived(cls, what: str, compute) -> HermitianMatrix:
        """Carrier of compute(), the matrix `what` derived from accepted carriers.

        Such a matrix is an entrywise product with a carrier, a difference
        of carriers, the diagonal of one, or a sum of unitary congruences of
        one (the smoothed covariance). Its operands passed the symmetry
        test, each at its own scale (or, for a projection factor or a block
        of a split projection, is_orthogonal_projection's test). Their
        asymmetries carry over and may exceed the tolerance at the result's
        scale: A o B adds its factors' asymmetries, A - cI and diag(B) can
        have a smaller largest entry than A and B, and the projection test
        allows an asymmetry up to its own tol. So that test is not run again. Finite
        operands can still overflow; compute() runs with numpy's overflow
        warnings off and its result is checked for finiteness, under a
        message naming what.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            arr = compute()
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"{what} overflows: it has a NaN or infinite entry")
        arr.setflags(write=False)
        carrier = object.__new__(cls)
        object.__setattr__(carrier, "entries", arr)
        return carrier

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in non-increasing order, read-only.

        Solved once per content: a carrier of the same entries, built
        before or elsewhere, reads the stored bits while the content memo
        holds them, and this carrier keeps them for good.
        """

        def solve():
            stack = stack_eigvals(self.entries[None])
            # A row of a read-only stack can never be made writable, so no
            # caller can change the bits the memo hands to the next one.
            stack.setflags(write=False)
            return stack[0]

        return solved_once("spectrum", self.n, self.entries, solve)

    def diagonal(self) -> np.ndarray:
        """Real parts of the diagonal (imaginary parts are within tolerance of zero)."""
        return self.entries.diagonal().real.copy()

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def as_hermitian(a) -> HermitianMatrix:
    """Pass through HermitianMatrix instances, validate anything else."""
    if isinstance(a, HermitianMatrix):
        return a
    return HermitianMatrix(a)


def same_size(a, b) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Carriers of two operands, which must be of the same size."""
    am, bm = as_hermitian(a), as_hermitian(b)
    if am.n != bm.n:
        raise DimensionError(f"operand sizes differ: {am.n} vs {bm.n}")
    return am, bm


def hadamard(a, b) -> HermitianMatrix:
    """Entrywise product of two Hermitian matrices of the same size."""
    am, bm = same_size(a, b)
    return HermitianMatrix.derived("entrywise product A o B", lambda: am.entries * bm.entries)


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


class _ContentMemo:
    """Bounded least-recently-used store of results keyed by matrix content.

    A key is (kind, order, bytes); size counts the bytes of every key held,
    and the least recently used entries are evicted until it is at most
    cap. A key larger than cap is not kept at all.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.size = 0
        self.entries: dict = {}  # least recently used first
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            value = self.entries.pop(key, None)
            if value is not None:
                self.entries[key] = value
            return value

    def put(self, key, value) -> None:
        with self.lock:
            # Held already (solved meanwhile by another thread, to the same
            # bits), or too large to keep without evicting everything else.
            if key in self.entries or len(key[2]) > self.cap:
                return
            self.entries[key] = value
            self.size += len(key[2])
            while self.size > self.cap:
                old = next(iter(self.entries))
                del self.entries[old]
                self.size -= len(old[2])

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.size = 0


_MEMO = _ContentMemo(MEMO_KEY_BYTES)


def solved_once(kind: str, order: int, entries: np.ndarray, solve):
    """solve(), or the value it returned before for the same kind, order and entries.

    For a pure function of a matrix's content: its complex128 C-order bytes
    and the order asked for (its size, or a subset size) are the key, so
    +0.0 and -0.0, or entries one ulp apart, are different contents. The
    value must be immutable, as every caller gets the same object. An
    exception from solve() is raised and nothing is stored.
    """
    key = _memo_key(kind, order, entries)
    value = _MEMO.get(key)
    if value is None:
        value = solve()
        _MEMO.put(key, value)
    return value


def _memo_key(kind: str, order: int, entries: np.ndarray) -> tuple:
    """The content memo's key: kind, order and the entries' complex128 C-order bytes."""
    return kind, order, np.asarray(entries, dtype=np.complex128).tobytes()


def solve_spectra(*carriers) -> None:
    """Store the spectra of several carriers in the content memo, solved as stacks.

    Each argument is a HermitianMatrix, or a function of no arguments that
    builds one, such as a product that may overflow: one that raises
    NonFiniteError is left out, for its caller to raise where it would.
    Carriers already solved, held in the memo or too large for it are
    skipped. The rest are grouped by order, and each group of two or more
    is solved by one stack_eigvals call, its rows stored under the keys
    HermitianMatrix.eigenvalues reads. A block's spectrum does not depend
    on the stack it came in, so each carrier then reads the bits a lone
    solve gives. Nothing is raised: on a ConvergenceError nothing is
    stored, and each carrier's own solve raises it where it would have.
    """
    groups: dict[int, dict] = {}
    for carrier in carriers:
        if callable(carrier):
            try:
                carrier = carrier()
            except NonFiniteError:
                continue
        key = _memo_key("spectrum", carrier.n, carrier.entries)
        held = len(key[2]) > _MEMO.cap or _MEMO.get(key) is not None
        if held or "eigenvalues" in vars(carrier):
            continue
        groups.setdefault(carrier.n, {})[key] = carrier.entries
    for group in groups.values():
        if len(group) < 2:
            continue
        try:
            stack = stack_eigvals(np.array(list(group.values())))
        except ConvergenceError:
            continue
        stack.setflags(write=False)  # as HermitianMatrix.eigenvalues stores its row
        for key, row in zip(group, stack):
            _MEMO.put(key, row)


def _lockstep(w: np.ndarray, skip_tol: np.ndarray, v: np.ndarray | None = None):
    """A function that runs one cyclic Jacobi sweep over a small stack, in place.

    Each step annihilates one off-diagonal pair of every block with a 2x2
    unitary rotation, visiting the upper triangle in row-major order.
    Rotations on entries of at most the block's skip_tol cannot move its
    off-diagonal mass above the convergence threshold, so they are skipped.
    v, the eigenvector columns of a stack of one, is rotated with its
    block's columns. w must be C-contiguous, as _jacobi's callers make
    it: every read and write goes through views of w.reshape(k, n * n),
    which shares w's memory only then.

    Each block works out its own rotation in Python floats and numpy
    scalars. When every block rotates at (p, q), one multiply and one add
    mix the whole stack's columns p and q, through strided (k, 2, n) views
    and a (k, 2, 2, 1) array of coefficients; then the same for rows p and
    q, and v's columns p and q. When only some rotate, each of those is
    mixed alone. Either way a block's result does not depend on the stack
    it came in. The views are built here, once per stack, so that a step
    costs the interpreter a few calls whatever k is.

    Per block, a_pq is read from the block's flattened row at offset
    p n + q, and a_pp and a_qq as the real parts 2 p (n + 1) and
    2 q (n + 1) of a float64 view of that row. The real coefficient c is
    written through a float64 view of coef into the real parts of its
    four slots. coef starts as zeros and nothing writes those slots'
    imaginary parts, so they stay +0.0: the bits that storing c as a
    complex number would give. The views change how values are read and
    written, never the arithmetic: the steps, their (p, q) order and each
    product's operands are those of the reference sweep the tests keep
    frozen.

    The result is bit-identical to assigning fresh products of copies,
    c * x + (s * phase) * y, because every product keeps its operand order,
    the complex coefficient on the left. numpy's complex multiply may be
    fused (FMA) and is then not symmetric in the last bit: coef * x and
    x * coef can differ. The coefficients are numpy scalar products of a
    real and a complex number; the real steps before them are IEEE
    arithmetic, which Python floats round the same way.
    """
    k, n = w.shape[0], w.shape[1]
    # Per block, the 2x2 coefficients of the column rotation, then of the row rotation.
    coef = np.zeros((k, 2, 2, 2, 1), dtype=np.complex128)
    col_coef, row_coef = coef[:, 0], coef[:, 1]
    cells = coef.reshape(k, 8)
    flat = w.reshape(k, n * n)
    tols = skip_tol.tolist()
    prod = np.empty((k, 2, 2, n), dtype=np.complex128)
    prod_p, prod_q = prod[:, :, 0], prod[:, :, 1]
    alone = [(col_coef[i], row_coef[i], prod[i], prod[i, :, 0], prod[i, :, 1]) for i in range(k)]
    flat_imag = flat.imag
    wt = w.transpose(0, 2, 1)
    vt = None if v is None else v.T[None]
    steps = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            d = q - p
            pq = slice(p, q + 1, d)  # rows (or columns) p and q as one view
            cols, rws = wt[:, pq], w[:, pq]
            vcols = None if vt is None else vt[:, pq]
            steps.append((
                p * n + q,
                2 * p * (n + 1),  # Re w[p, p] in the float64 view
                2 * q * (n + 1),  # Re w[q, q]
                cols,
                cols[:, None],
                rws,
                rws[:, None],
                flat[:, p * n + q : q * n + p + 1 : d * (n - 1)],  # w[p, q] and w[q, p]
                flat_imag[:, p * (n + 1) : q * (n + 1) + 1 : d * (n + 1)],  # Im w[p, p], w[q, q]
                vcols,
                None if vcols is None else vcols[:, None],
            ))
    blocks = list(zip(range(k), flat, flat.view(np.float64), tols, cells, cells.view(np.float64)))

    def sweep() -> None:
        multiply, add = np.multiply, np.add
        for pq, pp, qq, cols, cols4, rws, rws4, off, diag_imag, vcols, vcols4 in steps:
            turning = []
            for i, entries, parts, tol, cell, cell_parts in blocks:
                apq = entries[pq]
                r = float(abs(apq))
                if r <= tol:
                    continue
                phase = apq / r
                phase_conj = np.conj(phase)
                tau = (float(parts[qq]) - float(parts[pp])) / (2.0 * r)
                t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # Right multiply by the rotation (columns p and q mix), then
                # left multiply by its conjugate transpose (rows p and q).
                # c is the real part of slots 0, 3, 4 and 7.
                cell_parts[0] = cell_parts[6] = cell_parts[8] = cell_parts[14] = c
                cell[1] = s * phase_conj
                cell[2] = -s * phase
                cell[5] = s * phase
                cell[6] = -s * phase_conj
                turning.append(i)
            if len(turning) == k:
                multiply(col_coef, cols4, prod)
                add(prod_p, prod_q, cols)
                multiply(row_coef, rws4, prod)
                add(prod_p, prod_q, rws)
                off.fill(0.0)
                diag_imag.fill(0.0)
                if vcols is not None:
                    multiply(col_coef, vcols4, prod)
                    add(prod_p, prod_q, vcols)
                continue
            for i in turning:
                col_c, row_c, prod_i, prod_ip, prod_iq = alone[i]
                pair = cols[i]
                multiply(col_c, pair, prod_i)
                add(prod_ip, prod_iq, pair)
                pair = rws[i]
                multiply(row_c, pair, prod_i)
                add(prod_ip, prod_iq, pair)
                off[i] = 0.0
                diag_imag[i] = 0.0

    return sweep


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


def bracket_margin(n: int) -> float:
    """Error bound of a converged solve, per unit of ||W||_F, for blocks of order n.

    For a Hermitian block W of order n >= 3 with its norm in NORM_BAND,
    which _jacobi solves unscaled, every eigenvalue a converged solve
    returns lies within margin * ||W||_F of the matching exact eigenvalue
    of W, with eps the machine epsilon. The margin is the sum of:

    - at convergence the off-diagonal mass is at most JACOBI_OFF_REL
      ||W||_F, so the returned diagonal lies within that of the final
      iterate's eigenvalues (Weyl's inequality; Demmel and Veselic,
      "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
      Appl. 13(4), 1992, bound the converged eigenvalues the same way);
    - every rotation is backward stable: the computed update of the two
      columns and then the two rows, with the annihilated pair and the
      imaginary diagonal parts set to zero, is an exact unitary similarity
      of W + Delta with ||Delta||_F below 64 eps ||W||_F (a few units of
      roundoff per one-sided real plane rotation, Higham, Accuracy and
      Stability of Numerical Algorithms, ch. 19, doubled for complex
      arithmetic and again for the two sides). By Weyl, each moves an
      eigenvalue by at most that much. A solve that returns at all runs at
      most JACOBI_MAX_SWEEPS sweeps of n(n-1)/2 rotations.

    Counting n^2 rotations per sweep instead of n(n-1)/2 leaves
    64 JACOBI_MAX_SWEEPS n(n+1)/2 eps ||W||_F spare, at least 38400 eps
    ||W||_F at n >= 3 (stack_eigvals solves n <= 2 in closed form). It
    covers the drift of ||W||_F under the rotations and the rounding of a
    computed ||W||_F and of a floor formed from it. So a block whose exact
    lambda_min clears_floor proves above f + margin * ||W||_F comes out of
    a converged solve with lambda_min > f. Taking f = threshold(U) for a
    nondecreasing threshold, with U = (1 + margin) ||W||_F a bound on
    every eigenvalue the solve can return, the converged lambda_min
    exceeds threshold(lambda_max).
    """
    return JACOBI_OFF_REL + 64.0 * JACOBI_MAX_SWEEPS * n * n * float(np.finfo(float).eps)


def solve_slack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||W||_F, bracket_margin(m) ||W||_F) of each block W of a (k, m, m) stack.

    The one bridge from a proof to a skipped solve: a converged solve of W
    returns each eigenvalue within the slack of the exact one (see
    bracket_margin). The norm is _frobenius', the solver's own; a norm that
    overflows reads inf, and clears_floor clears no such block.
    """
    with np.errstate(over="ignore"):
        fro = _frobenius(stack)
    return fro, bracket_margin(stack.shape[1]) * fro


NORM_BAND = (2.0**-400, 2.0**500)


def _band_exponents(w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Scale the blocks of a complex stack whose norm lies outside NORM_BAND into it, in place.

    Returns (fro, exp): each block's norm after scaling, and its binary
    exponent e, block i having been multiplied by 2^-e; e = 0 for a block
    left as it is, and exp is None when every block was. The one band
    rule for both solvers: _jacobi's and stack_eigvals' order-2 closed
    form, whose 0.5 (a + d) and 0.5 (a - d) overflow near the largest
    double. The band is where the iteration's arithmetic behaves as the
    derivation of bracket_margin assumes. For a block with
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
    2^-1022, where it rounds by at most 2^-1075.

    The same rule scales the inputs whose column Grams the subset scans
    form (scaled_into_band), so that those Grams neither overflow nor lose
    bits to underflow. For an r x c input with 2^-400 <= ||X||_F <= 2^500:

    - no Gram entry overflows. By Cauchy-Schwarz every entry of X^* X, and
      every partial sum a matmul kernel forms of it, is at most
      ||X||_F^2 <= 2^1000. The solver scales each Gram block whose own
      norm leaves the band.
    - underflow costs less than the Gram's own rounding. A product below
      2^-1022 is off by at most 2^-1075, so each entry gains at most
      4 r 2^-1075 and a Gram of c columns at most c r 2^-1073 in norm.
      Its largest entry is at least its trace over c, ||X||_F^2 / c, so
      the rounding of that entry, about r eps ||X||_F^2 / c >= r 2^-852 / c,
      is larger for c < 2^110; no budget admits a scan over that many
      columns.
    """
    with np.errstate(over="ignore"):
        fro = _frobenius(w)
    low, high = NORM_BAND
    if low <= fro.min() and fro.max() <= high:
        return fro, None
    out = ~((fro >= low) & (fro <= high))
    exp = np.zeros(w.shape[0], dtype=np.int32)
    parts = w.view(np.float64)
    exp[out] = np.frexp(np.abs(parts[out]).max(axis=(1, 2)))[1]
    parts[out] = np.ldexp(parts[out], -exp[out, None, None])
    fro[out] = _frobenius(w[out])
    return fro, exp


def scaled_into_band(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e arr, e): a complex matrix scaled by _band_exponents' rule, before its Grams are formed.

    arr itself and e = 0 when ||arr||_F lies in NORM_BAND (or arr is zero);
    otherwise a C-ordered copy, with its largest real or imaginary part in
    [1/2, 1). A power of two scales exactly, so the Grams of the result are
    4^-e times the input's, with eigenvalues 4^-e lambda and singular
    values 2^-e sigma.
    """
    w = np.array(arr, dtype=np.complex128, order="C")[None]
    exp = _band_exponents(w)[1]
    return (arr, 0) if exp is None else (w[0], int(exp[0]))


# The unit roundoff and the least positive subnormal double: clears_floor's constants.
_UNIT_ROUNDOFF = 2.0**-53
_LEAST_SUBNORMAL = 2.0**-1074


def least_pivots(stack: np.ndarray, floor) -> tuple[np.ndarray, np.ndarray]:
    """Per block of a (k, m, m) Hermitian stack: clears_floor's Cholesky, as (least, factor).

    least is each block's least pivot. A NaN pivot (the rest of a block
    after a pivot at or below zero) reads as -inf, and so does the least
    pivot of a block with a norm outside NORM_BAND. Each pivot is a
    diagonal entry of a Schur complement of S = B - sigma I, so it is at
    least lambda_min(S).

    factor, of shape (m, m, k) with the stack last, is the factorization
    S = L L^* for rayleigh_guesses: below the diagonal, column j of L; on
    the diagonal, the pivots as real parts, whose square roots are L's
    diagonal. Nothing else in it is of use. A block whose Cholesky failed
    has a NaN or infinite factor.

    A stack that clears_floor never clears, an empty one or one of order at
    most 2 (which stack_eigvals solves in closed form), is neither copied,
    normed nor factored: every block reads -inf, and the factor is zero.
    """
    k, m = stack.shape[0], stack.shape[1]
    if k == 0 or m <= 2:
        return np.full(k, -np.inf), np.zeros((m, m, k), dtype=np.complex128)
    a = np.asarray(stack, dtype=np.complex128)
    floor = np.broadcast_to(np.asarray(floor, dtype=np.float64), (k,))
    lift = np.maximum(-floor, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fro = _frobenius(a)
        dev = _frobenius(a - a.conj().transpose(0, 2, 1))
        # S as (m, m, k), the stack last so that each step is elementwise
        # over it. Only A's lower triangle and the real part of its
        # diagonal are read: each pivot is a real part, and each column
        # lies below its pivot.
        s = a.transpose(1, 2, 0).copy()
        pivots = s.reshape(m * m, k)[:: m + 1].real  # a view of the (m, k) diagonals
        d = np.abs(pivots)
        top = d.max(axis=0) + lift
        c = (m + 3) * _UNIT_ROUNDOFF * (d.sum(axis=0) + m * lift + np.abs(floor) + dev + top)
        c += 16 * m * (m + 3 + top) * _LEAST_SUBNORMAL
        pivots -= floor + dev + c
        # Right-looking: column j of L overwrites column j of S below the
        # diagonal, and the diagonal is left holding the pivots. A pivot at
        # or below zero turns the rest of its block into NaN or inf, whose
        # pivots are not positive either.
        for j in range(m - 1):
            col = s[j + 1 :, j]
            col *= 1.0 / np.sqrt(pivots[j])
            s[j + 1 :, j + 1 :] -= col[:, None] * col.conj()[None, :]
        least = pivots.min(axis=0)
        band = (fro >= NORM_BAND[0]) & (fro <= NORM_BAND[1])
        least[np.isnan(least) | ~band] = -np.inf
        return least, s


def clears_floor(stack: np.ndarray, floor) -> np.ndarray:
    """Per block of a (k, m, m) Hermitian stack: True only if its exact lambda_min exceeds floor.

    floor is one value or one per block, of either sign. A block A is read
    as LAPACK reads it: the Hermitian B takes A's lower triangle and the
    real part of its diagonal. Let dev = ||A - A^*||_F, 0 for an exactly
    Hermitian A; F = max(0, -floor), the lift a negative floor gives the
    diagonal; and

        c = (m + 3) u (t + |floor| + dev + d) + 16 m (m + 3 + d) eta,

    with t = m F + sum_i |B_ii| and d = F + max_i |B_ii|, u = 2^-53 the
    unit roundoff and eta = 2^-1074 the least subnormal. For floor >= 0, F
    is 0 and t and d are the sum and the largest of |B_ii|. The block is
    cleared when a floating-point complex Cholesky of S = B - sigma I,
    sigma = floor + dev + c, completes with positive pivots (least_pivots).
    Blocks of order at most 2, which stack_eigvals solves in closed form,
    and blocks with a norm outside NORM_BAND are never cleared. Plain numpy
    across the stack, no LAPACK.

    Why success proves lambda_min(B) > floor + dev, after Rump
    ("Verification of positive definiteness", BIT 46, 2006), whose
    a-priori shift c bounds, carried over to complex arithmetic:

    - Step j of the factorization takes the pivot p_j = Re s_jj and r_j =
      fl(sqrt(p_j)), scales the column, l_ij = fl(s_ij fl(1 / r_j)), and
      updates s_ik to fl(s_ik - fl(l_ij conj(l_kj))). A complex sum or a
      product by a real rounds each part once, so it errs by at most u
      times its modulus. A complex product errs by at most sqrt(2)
      gamma_2 times its modulus unfused (Higham, Accuracy and Stability of
      Numerical Algorithms, sec. 3.6), and by at most 2u with one FMA per
      part (Jeannerod, Kornerup, Louvet and Muller, Math. Comp. 86,
      2017): within gamma_3 either way, gamma_k = k u / (1 - k u).
    - Unrolling the updates as in Demmel's backward error of Cholesky
      (Higham, Thm 10.3): S_ik = sum_{j<k} l_ij conj(l_kj) (1 + theta_j) +
      l_ik r_k (1 + theta_k), with r_k^2 in place of l_ik r_k on the
      diagonal. Term j carries a product and j subtractions, so |theta_j|
      <= gamma_{j+3}; the last term k subtractions and either the
      reciprocal and its product or the square root, so |theta_k| <=
      gamma_{k+2}. As j < k < m, the computed factor L satisfies L L^* =
      S + Delta with |Delta| <= gamma_{m+1} |L| |L^*| entrywise. A real
      product or quotient that underflows errs by at most eta / 2 instead
      (a complex product holds two per part), so each entry of Delta gains
      at most 2 (m + 1 + max S_ii) eta. By Cauchy-Schwarz and
      ||L^* e_i||^2 = S_ii + Delta_ii, ||Delta||_2 <= alpha tr(S) +
      2 (1 + alpha) m (m + 1 + max S_ii) eta, alpha = gamma_{m+1} /
      (1 - gamma_{m+1}) < (m + 1.01) u.
    - L has a positive diagonal, so L L^* is positive definite and
      lambda_min(S) > -||Delta||_2.
    - Every pivot positive means 0 < S_ii = fl(B_ii - sigma'), sigma' the
      computed sigma. As dev and c are not negative and rounding is
      monotone, sigma' >= floor. If sigma' >= 0, then B_ii > sigma' and
      |B_ii - sigma'| <= |B_ii|; if sigma' < 0, then |sigma'| <= F and
      |B_ii - sigma'| <= |B_ii| + F. Either way S_ii <= (1 + u) (|B_ii| +
      F), so tr(S) <= (1 + u) t and max S_ii <= (1 + u) d: a negative
      floor adds m |floor| to the trace term, as the Cholesky of B + F I
      would. S differs from B - sigma' I by a diagonal of at most u d, and
      sigma' is below floor + dev + c by at most 2u (|floor| + dev + c).

    Together lambda_min(B) > floor + dev: c exceeds the sum of those terms
    by nearly 2u t, which covers its own rounding. dev bounds, up to its
    rounding, how far any other Hermitian reading of the block (its upper
    triangle, its Hermitian part) moves an eigenvalue. A floor so far below
    zero that m F overflows makes c infinite, and no block is cleared.
    """
    return least_pivots(stack, floor)[0] > 0.0


# Inverse-iteration steps behind each Rayleigh quotient of rayleigh_guesses.
INVERSE_STEPS = 3


def rayleigh_guesses(stack: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Per block W of a (k, m, m) stack: a Rayleigh quotient at or above lambda_min(W), near it.

    factor is least_pivots' factor of the stack at some floor: S = L L^*
    = U D^2 U^*, with U = L D^-1 unit lower triangular and D^2 the
    pivots. Where the Cholesky completed, the shift lies below
    lambda_min(W). From the all-ones vector, each of INVERSE_STEPS steps
    solves S y = x through U, D^2 and U^* and rescales y to a largest
    modulus of 1; the result is x^* W x / x^* x. Inverse iteration with a
    shift below the spectrum pulls x towards the least eigenvector, so
    among blocks of one stack the least quotient is a guess at the block
    with the least lambda_min. A block whose Cholesky failed reads NaN.
    Plain numpy across the stack.
    """
    m, k = factor.shape[0], factor.shape[2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pivots = factor.reshape(m * m, k)[:: m + 1].real
        unit = factor / np.sqrt(pivots)  # U below the diagonal: column j over D_jj
        conj = unit.conj()  # conj[j, :j] is column j of U^* above its diagonal
        x = np.ones((m, k), dtype=np.complex128)
        for _ in range(INVERSE_STEPS):
            for j in range(m - 1):
                x[j + 1 :] -= unit[j + 1 :, j] * x[j]
            x /= pivots
            for j in range(m - 1, 0, -1):
                x[:j] -= conj[j, :j] * x[j]
            x *= 1.0 / np.abs(x).max(axis=0)
        xt = x.T
        xc = xt.conj()
        return (xc * (stack @ xt[:, :, None])[:, :, 0]).sum(axis=1).real / (xc * xt).sum(axis=1).real


def _hypot_one(x: np.ndarray) -> np.ndarray:
    """math.hypot(1, x) elementwise; np.hypot rounds differently."""
    return np.fromiter(map(math.hypot, itertools.repeat(1.0), x.tolist()), float, x.size)


def _stack_sweep(w: np.ndarray, skip_tol: np.ndarray) -> None:
    """One cyclic Jacobi sweep over every block of a stack, in place.

    The steps of _lockstep's sweep, elementwise across the stack, the 2x2
    rotations included: a block whose |a_pq| is at most its skip_tol is
    left as it is at (p, q). Its fixed cost per step is about that of
    LOCKSTEP_MAX blocks in lockstep, so it sweeps the larger stacks.
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
            # The lockstep sweep's products: each coefficient, such as
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


def _jacobi(w: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """The cyclic Jacobi iteration on a C-contiguous (k, n, n) complex128 stack, in place.

    Returns each block's diagonal at convergence, unsorted. A block has
    converged when, at the start of a sweep, its off-diagonal Frobenius
    mass is at most 1e-14 times its own ||A||_F; it then leaves the stack.
    The sweep count is capped at 100. While more than LOCKSTEP_MAX blocks
    are live they are swept by _stack_sweep; from then on by _lockstep,
    whose views are built again each time a block leaves, and which also
    rotates the eigenvector columns v of a stack of one. Both sweeps are
    the same steps per block, so a block's result does not depend on the
    stack it came in.

    A block whose norm lies outside NORM_BAND is solved scaled by a power
    of two (see _band_exponents), and its diagonal is scaled back. Both
    that scaling and _lockstep write through views of w that share its
    memory only when w is C-contiguous, so the callers pass a C-ordered
    copy: a Fortran-ordered or strided input is solved as its C copy is.
    """
    k, n = w.shape[0], w.shape[1]
    fro, exp = _band_exponents(w)
    off_tol = JACOBI_OFF_REL * fro
    skip_tol = off_tol / n
    diag = np.empty((k, n))
    live = np.arange(k)
    sweep = None
    for _ in range(JACOBI_MAX_SWEEPS):
        done = _off_mass(w) <= off_tol
        if done.any():
            diag[live[done]] = w[done].diagonal(axis1=1, axis2=2).real
            if done.all():
                return diag if exp is None else np.ldexp(diag, exp[:, None])
            keep = ~done
            w, off_tol, skip_tol, live = w[keep], off_tol[keep], skip_tol[keep], live[keep]
            sweep = None
        if live.size > LOCKSTEP_MAX:
            _stack_sweep(w, skip_tol)
        else:
            if sweep is None:
                sweep = _lockstep(w, skip_tol, v)
            sweep()
    raise ConvergenceError(
        f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps"
    )


def stack_eigvals(blocks: np.ndarray) -> np.ndarray:
    """Eigenvalues of each block of a (k, m, m) Hermitian stack; row i non-increasing.

    For arrays already known to be Hermitian: a carrier's entries (a stack
    of one), its principal blocks and Gram matrices of its columns; nothing
    is validated. Orders 1 and 2 use closed forms across the stack, larger
    orders the Jacobi iteration, so row i does not depend on the stack it
    came in. Every block is solved to convergence. As in _jacobi, a block
    of order 2 whose norm lies outside NORM_BAND is solved scaled by a
    power of two (see _band_exponents), so its sum and difference of
    diagonal entries do not overflow, and its eigenvalues are scaled back.
    """
    k, n = blocks.shape[0], blocks.shape[1]
    if n == 1:
        return np.array(blocks[:, 0].real, dtype=np.float64)
    w = np.array(blocks, dtype=np.complex128, order="C")
    if n > 2:
        return np.sort(_jacobi(w), axis=1)[:, ::-1].copy()
    exp = _band_exponents(w)[1]
    a, d = w[:, 0, 0].real, w[:, 1, 1].real
    off = w[:, 0, 1]
    mid = 0.5 * (a + d)
    # |w_01| is np.hypot of its parts; math.hypot rounds differently.
    half, mod = (0.5 * (a - d)).tolist(), np.hypot(off.real, off.imag).tolist()
    rad = np.fromiter(map(math.hypot, half, mod), float, k)
    vals = np.array([mid + rad, mid - rad]).T.copy()
    return vals if exp is None else np.ldexp(vals, exp[:, None])


def eigvals_hermitian(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, non-increasing, read-only.

    Solved once per content: a later call on a HermitianMatrix returns the
    same array, and one on equal entries, as a carrier or an array, the
    same bits without a solve while the content memo holds them (its keys
    stay within MEMO_KEY_BYTES in total).
    """
    return as_hermitian(a).eigenvalues


def eig_hermitian(a) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    Eigenvalues come back non-increasing; eigenvector column k matches
    eigenvalue k. The reconstruction residual is verified against
    tol_for(max|entry|, 1e-10) before returning.
    """
    am = as_hermitian(a)
    v = np.eye(am.n, dtype=np.complex128)
    diag = _jacobi(np.array(am.entries, order="C")[None], v)[0]
    order = np.argsort(-diag, kind="stable")
    vals = diag[order]
    vecs = v[:, order]
    dec = SpectralDecomposition(vals, vecs)
    scale = float(np.max(np.abs(am.entries)))
    resid = float(np.max(np.abs(dec.reconstruct() - am.entries)))
    if resid > tol_for(scale, EIG_TOL_REL):
        raise ConvergenceError(
            f"spectral reconstruction residual {resid:.3e} exceeds tolerance"
        )
    return dec


def classify_psd(a, tau_rel: float = DEFAULT_TOL_REL) -> PsdClassification:
    """Trichotomy on the spectrum with witness lambda_min.

    Positive definite when lambda_min > tau, indefinite when
    lambda_min < -tau, singular positive semidefinite in between,
    where tau = tol_for(lambda_max, tau_rel): relative to the matrix's own
    largest eigenvalue, so the zero matrix is singular and 2^k A has A's
    class.
    """
    return _psd_class(eigvals_hermitian(a), tau_rel)


def _psd_class(vals: np.ndarray, tau_rel: float) -> PsdClassification:
    """classify_psd's verdict on a non-increasing spectrum vals."""
    tau = tol_for(vals[0], tau_rel)
    lam_min = float(vals[-1])
    if lam_min > tau:
        kind = PsdKind.POSITIVE_DEFINITE
    elif lam_min < -tau:
        kind = PsdKind.INDEFINITE
    else:
        kind = PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
    return PsdClassification(kind, lam_min)


def require_psd(a, tau_rel: float, label: str) -> HermitianMatrix:
    """The carrier of a, which classify_psd must find positive semidefinite.

    Raises NotPsdError naming label and the witness eigenvalue otherwise.
    """
    am = as_hermitian(a)
    cls = classify_psd(am, tau_rel)
    if not cls.is_psd:
        raise NotPsdError(
            f"{label} must be positive semidefinite; witness eigenvalue {cls.witness:.6e}"
        )
    return am


def is_psd(a, tau_rel: float = DEFAULT_TOL_REL) -> bool:
    """classify_psd(a, tau_rel).is_psd, with no solve where clears_floor proves it.

    For a matrix whose spectrum nothing else reads: the carrier's cached
    spectrum is neither read nor filled. A matrix M whose exact lambda_min
    clears_floor proves above bracket_margin(n) ||M||_F would come out of
    a converged solve with a positive lambda_min (the bridge in
    bracket_margin's docstring), so it is PSD by classify_psd's rule. Any
    other matrix is solved to convergence and judged by that rule, which
    _psd_class owns for both.
    """
    stack = as_hermitian(a).entries[None]
    if clears_floor(stack, solve_slack(stack)[1])[0]:
        return True
    return _psd_class(stack_eigvals(stack)[0], tau_rel).is_psd


def rank_numeric(a, tau_rel: float = DEFAULT_TOL_REL) -> int:
    """Count of eigenvalues with |lambda| > tol_for(max|lambda|, tau_rel).

    Numerical rank against the matrix's own norm: 0 only for the zero
    matrix, and the same for A and 2^k A.
    """
    vals = eigvals_hermitian(a)
    tau = tol_for(float(np.max(np.abs(vals))), tau_rel)
    return int(np.sum(np.abs(vals) > tau))


def least_positive(a, tau_rel: float = DEFAULT_TOL_REL) -> tuple[int, float]:
    """(r, lambda_r): rank_numeric(a, tau_rel) and the r-th largest eigenvalue, 0.0 when r is 0.

    For a positive semidefinite a, lambda_r is its least eigenvalue above
    the rank threshold, read from the same spectrum as r.
    """
    am = as_hermitian(a)
    r = rank_numeric(am, tau_rel)
    return r, float(eigvals_hermitian(am)[r - 1]) if r >= 1 else 0.0


def is_orthogonal_projection(p, tol: float = DEFAULT_TOL_REL) -> tuple[bool, int | None]:
    """Check Hermitian idempotency; on success also report the rank.

    Returns (True, rank) when both the symmetry defect and the idempotency
    defect are within tol in max norm. The rank is the rounded trace; a
    trace further than 1e-6 from an integer raises, since that indicates a
    matrix that only superficially resembles a projection. The input
    passes finite_matrix first, as a carrier's does: a NaN or infinite
    entry raises, since no defect comparison can reject it.
    """
    arr = finite_matrix(p)
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

    The pivot must exceed tol_for(max|entry|, tau_rel); eliminating against
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
