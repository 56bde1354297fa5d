"""Quantities extracted from principal submatrices and column subsets.

Minimum submatrix eigenvalues, Kruskal rank, the effective condition
number (largest positive eigenvalue over smallest positive eigenvalue),
the floor order and subset singular-value minima. Every subset scan
draws its blocks from one generator, _chunks, in lexicographic chunks
under a hard enumeration budget, so results and reported argmin subsets
are deterministic. Its two consumers, the minimum scan (_least_block)
and a Kruskal level (in kruskal_rank), are each one explicit loop over
those chunks. Every block a scan solves runs to convergence, through
_solve; before the solve, the one Cholesky kernel, matcore.clears_floor,
decides which blocks need none.

A minimum scan carries the least value solved so far across chunks, and
first drops every block of a chunk that clears_floor proves above it by
the solver's own error bound; a chunk with no block left is done. Of the
rest it solves one block first, its incumbent: the block with the least
Rayleigh quotient after a few steps of inverse iteration on its Cholesky
factor (matcore.rayleigh_guesses), refined by a second factorization a
fraction below the least quotient (see _incumbent). It then drops every
block proved above the new least value, and solves what is left (see
_least_block). Any incumbent keeps every bit: it is solved as any block
is, and only sets how many blocks are dropped. A Kruskal level asks
only whether every block's lambda_min clears its threshold, so it drops
every block proved above the threshold by that bound; on the PSD path, a
level above the numeric rank that Cauchy interlacing already proves
failed draws no block at all (see kruskal_rank). A converged solve of a
dropped block would neither reach the minimum nor find the block
dependent, so every value, argmin and Kruskal rank is the one a scan
that solves every block gives.

The floors read mu through floor_mu, which scans nothing when the
matrix's numeric rank is below the order and it is positive semidefinite
at the scale of its largest entry: every block is then numerically
singular, and mu is an exact 0.0. min_submatrix_eigenvalue itself always
scans.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    HermitianityError,
    ZeroMatrixError,
)
from .matcore import (
    DEFAULT_TOL_REL,
    NORM_BAND,
    HermitianMatrix,
    as_hermitian,
    bracket_margin,
    classify_psd,
    clears_floor,
    eigvals_hermitian,
    finite_matrix,
    least_pivots,
    least_positive,
    rank_numeric,
    rayleigh_guesses,
    require_psd,
    scaled_into_band,
    solve_slack,
    solved_once,
    stack_eigvals,
    tol_for,
)

DEFAULT_BUDGET = 2_000_000
# Largest stack one scan solves at once; bounds the scan's memory.
SCAN_CHUNK_MAX = 256


def check_budget(n: int, m: int, budget: int) -> None:
    """Refuse, with BudgetExceededError, a scan of C(n, m) subsets over the budget."""
    count = math.comb(n, m)
    if count > budget:
        raise BudgetExceededError(
            f"enumerating C({n},{m}) = {count} subsets exceeds the budget of {budget}; "
            "raise the budget or reduce the problem size"
        )


def iter_subsets(n: int, m: int, budget: int = DEFAULT_BUDGET):
    """All size-m subsets of range(n), lexicographic, guarded by the budget."""
    if not 0 <= m <= n:
        raise ValueError(f"subset size {m} is out of range for ground set {n}")
    check_budget(n, m, budget)
    return itertools.combinations(range(n), m)


def principal_submatrix(a, indices) -> HermitianMatrix:
    """Rows and columns of a Hermitian matrix at a strictly increasing index set."""
    am = as_hermitian(a)
    idx = tuple(int(i) for i in indices)
    if len(idx) == 0:
        raise DimensionError("index set must be nonempty")
    if any(j <= i for i, j in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    if idx[0] < 0 or idx[-1] >= am.n:
        raise IndexError(f"indices {idx} out of range for size {am.n}")
    block = am.entries[np.ix_(idx, idx)]
    # Exact for Hermitian blocks; spares a re-check at the block's own, smaller scale.
    return HermitianMatrix((block + block.conj().T) / 2.0)


def _chunks(n: int, m: int, budget: int, blocks, whole: bool = False):
    """The one subset scan's draw: (chunk, stack) pairs, lazily.

    Subsets are drawn from iter_subsets in chunks, each a list of subsets,
    and blocks(idx) builds a chunk's (k, m, m) stack from its (k, m) index
    array. A chunk is drawn only when the consumer asks past the last one.
    By default the chunks grow 1, 2, 4, ... up to SCAN_CHUNK_MAX, so a
    consumer that stops at the first subset has drawn only that one. A scan
    that visits every subset anyway passes whole=True and draws
    SCAN_CHUNK_MAX subsets from the first.
    """
    subsets = iter_subsets(n, m, budget)
    size = SCAN_CHUNK_MAX if whole else 1
    while chunk := list(itertools.islice(subsets, size)):
        yield chunk, blocks(np.array(chunk))
        size = min(2 * size, SCAN_CHUNK_MAX)


def _solve(stack: np.ndarray):
    """The spectra of a stack's blocks, each solved to convergence; none for an empty stack."""
    if not len(stack):
        return ()
    try:
        return stack_eigvals(stack)
    except ConvergenceError:
        # Solve one by one, so the blocks before the failing one still come out.
        return (stack_eigvals(block[None])[0] for block in stack)


# The incumbent's second pass (see _incumbent): it factors the blocks whose
# first-pass quotient is at most g + SECOND_REACH |g|, g the least, at the
# floor g - SECOND_FLOOR |g|, and runs only when at least SECOND_COUNT
# blocks lie that near.
SECOND_FLOOR = 0.15
SECOND_REACH = 0.2
SECOND_COUNT = 8


def _least_guess(stack: np.ndarray, pivots: np.ndarray, factor: np.ndarray):
    """(i, quotients): the first block whose Cholesky failed, with None, or the least quotient.

    pivots and factor are least_pivots' over the stack; the quotients are
    rayleigh_guesses on that factor, computed only when every pivot is
    positive.
    """
    failed = np.flatnonzero(~(pivots > 0.0))
    if len(failed):
        return int(failed[0]), None
    quotients = rayleigh_guesses(stack, factor)
    return int(np.argmin(quotients)), quotients


def _incumbent(stack: np.ndarray, pivots: np.ndarray, factor: np.ndarray) -> int:
    """The block of a chunk that a minimum scan solves first: a guess at its argmin.

    pivots and factor are least_pivots' first pass over the stack. A block
    whose Cholesky failed there has its lambda_min at or near the bottom,
    and the first such block is taken. Otherwise let g be the least
    rayleigh_guesses quotient. Inverse iteration shifted far below a
    block's lambda_min converges slowly when its two least eigenvalues lie
    close, so its quotient may sit above those of blocks with a larger
    lambda_min. When at least SECOND_COUNT quotients are at most
    g + SECOND_REACH |g|, those blocks are factored again at
    g - SECOND_FLOOR |g|, nearer the least lambda_min, which lies at or
    below g. The incumbent is then the first of them whose Cholesky fails
    there, else the one with the least quotient on the new factor. With
    fewer of them g's block is taken: the second pass costs about half a
    lone solve at order 6, whatever its count, and it pays only when many
    blocks compete for the least value.
    """
    i, quotients = _least_guess(stack, pivots, factor)
    if quotients is None:
        return i
    g = float(quotients[i])
    near = np.flatnonzero(quotients <= g + SECOND_REACH * abs(g))
    if len(near) < SECOND_COUNT:
        return i
    candidates = stack[near]
    j, _ = _least_guess(candidates, *least_pivots(candidates, g - SECOND_FLOOR * abs(g)))
    return int(near[j])


def _least_block(n: int, m: int, budget: int, blocks) -> tuple[float, tuple[int, ...]]:
    """(least lambda_min, its lexicographically first subset) over all C(n, m) blocks.

    best, the least (value, subset) solved so far, is carried across
    chunks, so equal values keep the first subset. Each chunk is screened
    before its solve, with matcore.solve_slack's slack = bracket_margin(m)
    ||W||_F:

    - once best is finite, every block that clears_floor proves above
      best + slack, a floor of either sign, is dropped first: by the
      bridge in bracket_margin's docstring a converged solve would return
      a value above best, neither the minimum nor a tie with it. A chunk
      with no block left takes no further step;
    - the incumbent of the rest (_incumbent), a guess at its argmin, is
      solved alone and taken into best. The chunk is factored at floor 0
      when some block is proved positive definite there, and otherwise at
      floor -max ||W||_F, below every block's lambda_min, so that every
      Cholesky completes;
    - every block that clears_floor proves above the new best + slack is
      dropped, as before;
    - the rest are solved. A chunk with no block proved positive definite
      but every block proved above -slack is solved whole: every block is
      within rounding of singular (as when a positive semidefinite matrix's
      rank is below m), so no incumbent could clear another. So is a chunk
      of order at most 2, which least_pivots never factors.

    Any incumbent keeps the bits: it is solved as it would be in any
    stack, and only sets how many blocks the drop leaves. Every block that
    is not dropped is solved, so best ends as the least (value, subset)
    over every converged solve. A lone block is its own incumbent, and its
    chunk takes the same steps.
    """
    best = (math.inf, ())
    for chunk, stack in _chunks(n, m, budget, blocks, whole=True):
        fro, slack = solve_slack(stack)
        if best[0] < math.inf:
            keep = ~clears_floor(stack, best[0] + slack)
            if not keep.any():
                continue
            chunk, stack = list(itertools.compress(chunk, keep)), stack[keep]
            fro, slack = fro[keep], slack[keep]
        pivots, factor = least_pivots(stack, 0.0)
        if not np.any(pivots > 0.0) and not np.all(clears_floor(stack, -slack)):
            pivots, factor = least_pivots(stack, -fro.max())
        # None positive still: all near singular, orders <= 2, or norms no Cholesky clears.
        if np.any(pivots > 0.0):
            i = _incumbent(stack, pivots, factor)
            best = min(best, (float(stack_eigvals(stack[i : i + 1])[0, -1]), chunk[i]))
            keep = ~clears_floor(stack, best[0] + slack)
            keep[i] = False
            chunk, stack = list(itertools.compress(chunk, keep)), stack[keep]
        for subset, vals in zip(chunk, _solve(stack)):
            best = min(best, (float(vals[-1]), subset))
    return best


def _principal_blocks(entries: np.ndarray):
    """Block builder of the principal submatrices: one gather per chunk."""
    return lambda idx: entries[idx[:, :, None], idx[:, None, :]]


def _gram_blocks(arr: np.ndarray):
    """Block builder of the Gram matrices of column subsets: one stacked product per chunk.

    Each block of the stacked product is the matmul of that subset's own
    columns, so it carries the bits of the per-subset product.
    """

    def blocks(idx):
        x = np.ascontiguousarray(arr[:, idx].transpose(1, 0, 2))
        return x.conj().transpose(0, 2, 1) @ x

    return blocks


@dataclasses.dataclass(frozen=True)
class MinSubmatrixResult:
    """Minimum over all order-m principal submatrices of the smallest eigenvalue.

    argmin_subset is the lexicographically first subset attaining the value.
    """

    value: float
    argmin_subset: tuple[int, ...]
    order: int


def min_submatrix_eigenvalue(a, m: int, budget: int = DEFAULT_BUDGET) -> MinSubmatrixResult:
    """Scan all C(n, m) principal submatrices for the least smallest-eigenvalue.

    Order 1 reduces to the minimum diagonal entry and order n to the
    smallest eigenvalue of the full matrix; both bypass enumeration, so the
    budget cannot trip on them. Other orders are scanned once per content
    (see matcore.solved_once): a later call on equal entries and the same m
    returns the stored result without a scan, but the budget is checked
    first all the same, so a call over it raises as a scan would.
    """
    am = as_hermitian(a)
    n = am.n
    if not 1 <= m <= n:
        raise ValueError(f"order {m} must lie in [1, {n}]")
    if m == 1:
        diag = am.diagonal()
        k = int(np.argmin(diag))
        return MinSubmatrixResult(float(diag[k]), (k,), 1)
    if m == n:
        value = float(eigvals_hermitian(am)[-1])
        return MinSubmatrixResult(value, tuple(range(n)), n)
    check_budget(n, m, budget)

    def scan() -> MinSubmatrixResult:
        value, subset = _least_block(n, m, budget, _principal_blocks(am.entries))
        return MinSubmatrixResult(value, subset, m)

    return solved_once("mu", m, am.entries, scan)


def floor_mu(a, m: int, tau_rel: float, budget: int) -> float:
    """The mu a floor reads: min_submatrix_eigenvalue(a, m, budget).value, or 0.0 below the rank.

    The result is an exact 0.0, and no block is scanned, when a's numeric
    rank r (rank_numeric) is below m and lambda_min(a) >= -tol_for(max
    |a_ij|). By interlacing (Horn and Johnson, Matrix Analysis, Thm
    4.3.28), every order-m block's lambda_min then lies between
    lambda_min(a) and lambda_m(a) <= lambda_{r+1}(a), and up to the
    solver's error both ends lie within tol_for of 0: a scan would return
    rounding noise, which may come out positive, and 0 is the floor Schur's
    product theorem gives for A o B >= 0. The lower end is judged at the
    scale of the largest entry, which projection_certificate's hypothesis
    uses, and not at classify_psd's tol_for(lambda_max): a matrix between
    the two is scanned, so reading 0 moves no hypothesis verdict. Both
    tests read a's one cached spectrum. The budget is checked where the
    scan would check it (orders 1 < m < n), so a call over it raises all
    the same.
    """
    am = as_hermitian(a)
    low = eigvals_hermitian(am)[-1] >= -tol_for(float(np.max(np.abs(am.entries))), tau_rel)
    if not (low and rank_numeric(am, tau_rel) < m):
        return min_submatrix_eigenvalue(am, m, budget).value
    if 1 < m < am.n:
        check_budget(am.n, m, budget)
    return 0.0


def kruskal_rank(mat, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET) -> int:
    """Largest q such that every q columns are linearly independent.

    Hermitian positive semidefinite inputs take a fast path: every q
    columns of such a matrix are independent exactly when the matching
    q x q principal submatrix is positive definite, judged by
    matcore.tol_for against that block's own largest eigenvalue. Other
    inputs, indefinite Hermitian ones included, use eigenvalues of
    column-subset Gram matrices, judged by tol_for against the largest
    eigenvalue of the full Gram matrix; an input whose Grams would
    overflow or underflow is first scaled by a power of two, by the one
    band rule (matcore.scaled_into_band), which scales that eigenvalue and
    the threshold alike. Both rules are relative with no absolute floor,
    so kruskal_rank(2^k V) is kruskal_rank(V). A zero column yields 0.

    The two paths decide on different scales: kruskal_rank(diag(1e3,
    1e-2)) is 2 but kruskal_rank(diag(1e3, -1e-2)) is 0. The Gram path
    cannot take the PSD path's rule. That rule, applied to the columns
    themselves, reads sigma_min <= tau_rel * sigma_max, which on a Gram is
    lambda_min <= tau_rel^2 * lambda_max. A Gram squares the conditioning,
    so its rounding noise, about eps * sigma_max^2, lies above that
    threshold and a dependent subset would pass as independent. The Gram
    path tests lambda_min <= tau_rel * lambda_max of the full Gram instead,
    well above the noise.

    The levels are monotone: by interlacing, when every q-subset passes,
    so does every smaller subset. So the search starts at the numeric rank
    r (on the Gram path, rank_numeric of the full Gram). It
    probes level r + 1, then scans level r whole, and walks up while the
    next level passes, otherwise down to the first level that passes. r is
    no upper bound on the PSD path, where each block is judged at its own
    scale: 3e3 vv* + 2.5e-6 (I - vv*) with v = ones(3) / sqrt(3) has
    numeric rank 1 and Kruskal rank 2. A level over the budget sends the
    search to the walk up from q = 1, so the budget trips only where that
    walk needs a level over it.

    On the PSD path a level q > r of order q >= 3 fails with no block
    drawn or solved when

        lambda_q + (bracket_margin(n) + bracket_margin(q)) ||A||_F + dev
            <= threshold(a - bracket_margin(q) ||A||_F),

    with lambda_q the q-th of A's carrier eigenvalues, dev = ||A - A^*||_F,
    a = max_i Re a_ii, and a and ||A||_F in matcore.NORM_BAND. Take an
    order-q block W that holds the index of a; its norm, between a and
    ||A||_F, lies in the band too. By Cauchy interlacing (Horn and Johnson,
    Matrix Analysis, Thm 4.3.28), lambda_min(W) <= lambda_q(A) for a
    Hermitian reading of A and its principal block, and dev bounds how far
    apart the readings of the two solves lie, as in clears_floor. A's
    converged lambda_q lies within bracket_margin(n) ||A||_F of the exact
    one, and W's converged lambda_min within bracket_margin(q) ||W||_F <=
    bracket_margin(q) ||A||_F of its own, so it is at most the left side.
    W's converged lambda_max is at least a - bracket_margin(q) ||A||_F,
    since an exact lambda_max is at least every diagonal entry. threshold
    is nondecreasing, so W is dependent and the level fails, as its scan
    would find. The spare in bracket_margin covers the rounding of both
    sides. The level still checks the budget where its draw would. A
    generic input fails a level that interlacing cannot decide at its
    first subset; the example above passes it.

    A block W is dependent when a converged solve gives lambda_min <=
    threshold(lambda_max), with threshold nondecreasing. On either path a
    level first drops every block that clears_floor proves above
    threshold(U) + slack, with matcore.solve_slack's slack =
    bracket_margin(q) ||W||_F and U = ||W||_F + slack, which bounds every
    eigenvalue a converged solve of W can return. A converged lambda_min
    lies within the slack of the exact one (the bridge in bracket_margin's
    docstring), so a dropped block would leave the solve with lambda_min >
    threshold(U) >= threshold(lambda_max): independent. Only the rest are solved, each to
    convergence, and a level draws no chunk after its first dependent
    block.
    """
    arr = finite_matrix(mat, square=False)
    n_cols = arr.shape[1]

    try:
        herm = as_hermitian(mat)
    except (DimensionError, HermitianityError):
        herm = None
    psd = herm is not None and classify_psd(herm, tau_rel).is_psd
    if psd:
        blocks = _principal_blocks(herm.entries)
        threshold = lambda top: tol_for(top, tau_rel)
        rank = rank_numeric(herm, tau_rel)
        spectrum = eigvals_hermitian(herm)

        def interlaced(q: int) -> bool:
            """Whether interlacing proves level q > r failed (see above)."""
            entries = herm.entries
            with np.errstate(over="ignore", invalid="ignore"):
                norm, dev = np.linalg.norm(entries), np.linalg.norm(entries - entries.conj().T)
            top = float(herm.diagonal().max())
            margin = bracket_margin(q) * norm
            low = spectrum[q - 1] + bracket_margin(n_cols) * norm + margin + dev
            in_band = NORM_BAND[0] <= top and norm <= NORM_BAND[1]
            return in_band and low <= threshold(top - margin)
    else:
        arr, _ = scaled_into_band(arr)
        gram = HermitianMatrix(arr.conj().T @ arr)
        tau = tol_for(eigvals_hermitian(gram)[0], tau_rel)
        blocks = _gram_blocks(arr)
        threshold = lambda top: tau
        rank = rank_numeric(gram, tau_rel)

    def independent(q: int) -> bool:
        if psd and q > max(rank, 2) and interlaced(q):
            check_budget(n_cols, q, budget)  # where the level's draw would check it
            return False
        for _, stack in _chunks(n_cols, q, budget, blocks, whole=q == rank):
            fro, slack = solve_slack(stack)
            # U = fro + slack bounds every eigenvalue a converged solve can return.
            spectra = _solve(stack[~clears_floor(stack, threshold(fro + slack) + slack)])
            if any(vals[-1] <= threshold(vals[0]) for vals in spectra):
                return False
        return True

    def walk_up(q: int) -> int:
        while q < n_cols and independent(q + 1):
            q += 1
        return q

    try:
        q = walk_up(rank)
        if q == rank:
            while q > 0 and not independent(q):
                q -= 1
        return q
    except BudgetExceededError:
        # A level near r is over the budget; the answer may lie below it.
        return walk_up(0)


def floor_order(b, tau_rel: float, label: str) -> tuple[int, int, float]:
    """Rank r of B, the floor's order n - r + 1 and kappa_eff(B), from B's one spectrum.

    B must be positive semidefinite (matcore.require_psd) and not
    numerically zero; either refusal names label. kappa_eff is
    lambda_1 / lambda_r, the largest eigenvalue over the least one above
    the rank threshold: the ordinary condition number when B is
    nonsingular, and at least 1. Every answer reads B's carrier spectrum,
    solved once.
    """
    bm = require_psd(b, tau_rel, label)
    rank, lam_r = least_positive(bm, tau_rel)
    if rank == 0:
        raise ZeroMatrixError(f"{label} is numerically zero")
    return rank, bm.n - rank + 1, float(eigvals_hermitian(bm)[0] / lam_r)


def effective_condition_number(b, tau_rel: float = DEFAULT_TOL_REL) -> float:
    """Largest positive eigenvalue over the smallest positive eigenvalue.

    floor_order's kappa_eff, with its refusals labelled "matrix".
    """
    return floor_order(b, tau_rel, "matrix")[2]


def min_subset_singular_value(v, m: int, budget: int = DEFAULT_BUDGET) -> float:
    """Minimum over all m-column subsets of the smallest singular value.

    Singular values come from eigenvalues of the m x m Gram matrix of the
    selected columns, of the input scaled by 2^-e by the one band rule
    (matcore.scaled_into_band); negative rounding noise is clamped at zero
    before the square root, and the result is scaled back by 2^e.
    """
    arr, e = scaled_into_band(finite_matrix(v, square=False))
    n_cols = arr.shape[1]
    if not 1 <= m <= n_cols:
        raise ValueError(f"subset size {m} must lie in [1, {n_cols}]")
    lam_min, _ = _least_block(n_cols, m, budget, _gram_blocks(arr))
    return math.ldexp(math.sqrt(max(0.0, lam_min)), e)
