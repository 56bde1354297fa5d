"""Subset scans: submatrix eigenvalue minima, Kruskal rank, conditioning.

Brute-force oracles here are written directly against numpy and
itertools so the package's enumeration and fast paths are checked by
independent code.
"""

import itertools
import math

import numpy as np
import pytest

from hadabound import matcore, submatrix
from hadabound.apps import DoaScenario, build_steering, doa_bound
from hadabound.errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    HermitianityError,
    NotPsdError,
    ZeroMatrixError,
)
from hadabound.matcore import block_eigvals, hadamard
from hadabound.submatrix import (
    effective_condition_number,
    iter_subsets,
    kruskal_rank,
    min_submatrix_eigenvalue,
    min_subset_singular_value,
    principal_submatrix,
)

A = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
B = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
C = np.array([[8.0, 7.0, 0.0], [7.0, 8.0, 4.0], [0.0, 4.0, 8.0]])


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


class TestSubsetEnumeration:
    def test_count(self):
        assert len(list(iter_subsets(5, 2))) == 10
        assert list(iter_subsets(6, 0)) == [()]

    def test_lexicographic_order(self):
        assert list(iter_subsets(4, 2)) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            iter_subsets(30, 15, budget=1000)

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            iter_subsets(3, 4)


class TestPrincipalSubmatrix:
    def test_extraction(self):
        sub = principal_submatrix(C, (0, 2))
        np.testing.assert_allclose(sub.entries.real, [[8.0, 0.0], [0.0, 8.0]])

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            principal_submatrix(C, (2, 0))
        with pytest.raises(ValueError):
            principal_submatrix(C, (1, 1))

    def test_range_and_emptiness(self):
        with pytest.raises(IndexError):
            principal_submatrix(C, (0, 3))
        with pytest.raises(DimensionError):
            principal_submatrix(C, ())


class TestMinSubmatrixEigenvalue:
    def test_golden_order_two(self):
        res = min_submatrix_eigenvalue(A, 2)
        assert res.value == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
        assert res.argmin_subset == (0, 1)
        assert res.order == 2

    def test_golden_indefinite_order_two(self):
        # All 2x2 blocks of C are positive definite even though C is not.
        res = min_submatrix_eigenvalue(C, 2)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.argmin_subset == (0, 1)

    def test_order_one_is_min_diagonal(self):
        res = min_submatrix_eigenvalue(np.diag([3.0, -2.0, 5.0]), 1)
        assert res.value == -2.0
        assert res.argmin_subset == (1,)

    def test_order_n_is_lambda_min(self):
        res = min_submatrix_eigenvalue(B, 3)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.argmin_subset == (0, 1, 2)

    def test_ties_take_first_subset(self):
        res = min_submatrix_eigenvalue(np.diag([1.0, 1.0, 2.0]), 1)
        assert res.argmin_subset == (0,)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            min_submatrix_eigenvalue(A, 0)
        with pytest.raises(ValueError):
            min_submatrix_eigenvalue(A, 4)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            min_submatrix_eigenvalue(np.eye(30), 15, budget=100)

    def test_nonincreasing_in_order(self):
        """Interlacing: growing the block order can only lower the minimum."""
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            h = random_hermitian(rng, n)
            seq = [min_submatrix_eigenvalue(h, m).value for m in range(1, n + 1)]
            for lo, hi in zip(seq[1:], seq[:-1]):
                assert lo <= hi + 1e-12

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            h = random_hermitian(rng, n)
            mine = min_submatrix_eigenvalue(h, m).value
            oracle = min(
                float(np.linalg.eigvalsh(h[np.ix_(s, s)])[0])
                for s in itertools.combinations(range(n), m)
            )
            assert mine == pytest.approx(oracle, abs=1e-10)


KRUSKAL_KINDS = ("psd", "dependent_gram", "indefinite", "rectangular", "scaled", "threshold")


def kruskal_input(rng, kind):
    """One random matrix of a kind that drives the Kruskal walk its own way."""
    n = int(rng.integers(2, 8))
    r = int(rng.integers(1, n + 1))

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "psd":
        f = cnormal(n, r)
        return f @ f.conj().T
    if kind == "dependent_gram":
        # A square, non-Hermitian matrix with one column a mix of two others.
        g = cnormal(n, n)
        i, j, k = rng.choice(n, size=3, replace=True)
        g[:, k] = g[:, i] - 0.5 * g[:, j]
        return g
    if kind == "indefinite":
        f = cnormal(n, r)
        return (f * rng.choice([-1.0, 1.0], size=r)) @ f.conj().T
    if kind == "rectangular":
        return cnormal(int(rng.integers(1, 8)), n)
    if kind == "scaled":
        f = cnormal(n, r)
        d = 10.0 ** rng.uniform(-4, 4, size=n)
        return d[:, None] * (f @ f.conj().T) * d[None, :]
    # Rank one plus a ridge that q x q blocks see above their threshold
    # only while q / n < t: the Kruskal rank exceeds the numeric rank 1.
    v = np.exp(2j * np.pi * rng.uniform(size=n)) / math.sqrt(n)
    t = rng.uniform(0.3, 0.95)
    p = np.outer(v, v.conj())
    return 1e3 * p + 1e-6 * t * (np.eye(n) - p)


def upward_kruskal_rank(mat, tau_rel=matcore.DEFAULT_TOL_REL):
    """q - 1 for the first level q, walked up from 1, with a dependent subset.

    The same per-block decisions as kruskal_rank, one subset at a time.
    """
    arr = np.asarray(mat, dtype=np.complex128)
    n = arr.shape[1]
    try:
        psd = matcore.classify_psd(arr, tau_rel).is_psd
    except (DimensionError, HermitianityError):
        psd = False
    if psd:
        def dependent(s):
            vals = block_eigvals(arr[np.ix_(s, s)])
            return vals[-1] <= matcore.tol_for(vals[0], tau_rel)
    else:
        tau = matcore.tol_for(max(0.0, block_eigvals(arr.conj().T @ arr)[0]), tau_rel)

        def dependent(s):
            return block_eigvals(arr[:, s].conj().T @ arr[:, s])[-1] <= tau
    for q in range(1, n + 1):
        if any(dependent(s) for s in itertools.combinations(range(n), q)):
            return q - 1
    return n


class TestKruskalRank:
    def test_goldens(self):
        assert kruskal_rank(A) == 2
        assert kruskal_rank(B) == 1
        assert kruskal_rank(np.asarray(hadamard(A, B))) == 3

    def test_identity_and_zero_column(self):
        assert kruskal_rank(np.eye(5)) == 5
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert kruskal_rank(m) == 0

    def test_rectangular(self):
        # Any two of these three columns are independent; all three are not.
        v = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        assert kruskal_rank(v) == 2

    def test_duplicate_columns(self):
        # Each column alone is nonzero, so the rank is 1, not 0.
        v = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert kruskal_rank(v) == 1

    def test_fast_path_matches_column_definition(self):
        """PSD fast path agrees with subset singular values via numpy."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            r = int(rng.integers(1, n + 1))
            f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
            g = f @ f.conj().T
            sigma_max = float(np.linalg.svd(g, compute_uv=False)[0])
            tau = 1e-9 * max(1.0, sigma_max)
            oracle = n
            for q in range(1, n + 1):
                bad = any(
                    float(np.linalg.svd(g[:, s], compute_uv=False)[-1]) <= tau
                    for s in itertools.combinations(range(n), q)
                )
                if bad:
                    oracle = q - 1
                    break
            assert kruskal_rank(g) == oracle

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            kruskal_rank(np.zeros((0, 0)))

    def test_can_exceed_the_numeric_rank(self):
        # The 2x2 blocks' small eigenvalue 2.5e-6 clears their own threshold
        # 2e-6 but not the matrix's 3e-6, so the walk must probe above r.
        v = np.ones(3) / math.sqrt(3.0)
        a = 3e3 * np.outer(v, v) + 2.5e-6 * (np.eye(3) - np.outer(v, v))
        assert matcore.rank_numeric(a) == 1
        assert kruskal_rank(a) == 2

    def test_level_over_budget_falls_back_to_the_upward_walk(self):
        # Rank 19 but columns 0 and 1 equal: levels 19 and 18 fail within
        # the budget, level 17 exceeds it, and the answer 1 needs only 1, 2.
        rng = np.random.default_rng(863)
        f = rng.normal(size=(20, 19))
        f[1] = f[0]
        a = f @ f.T
        assert matcore.rank_numeric(a) == 19
        assert kruskal_rank(a, budget=500) == 1
        with pytest.raises(BudgetExceededError):
            kruskal_rank(a, budget=100)

    @pytest.mark.parametrize("kind", KRUSKAL_KINDS)
    def test_matches_the_upward_walk(self, kind):
        rng = np.random.default_rng(870 + KRUSKAL_KINDS.index(kind))
        for _ in range(25):
            mat = kruskal_input(rng, kind)
            assert kruskal_rank(mat) == upward_kruskal_rank(mat)


def test_blocks_of_an_accepted_matrix_are_not_revalidated():
    """Blocks are judged at the full matrix's scale, not their own.

    The 1e-9 asymmetry is within tolerance of the 1e6 diagonal entry, so
    the matrix is accepted; blocks that leave that entry out are far
    smaller, and checking them again at their own scale rejected them.
    """
    rng = np.random.default_rng(26)
    f = rng.normal(size=(5, 5))
    a = f @ f.T
    a[4, 4] += 1e6
    a[0, 1] += 1e-9
    oracle_mu = min(
        float(np.linalg.eigvalsh(a[np.ix_(s, s)])[0])
        for s in itertools.combinations(range(5), 3)
    )
    assert min_submatrix_eigenvalue(a, 3).value == pytest.approx(oracle_mu, abs=1e-8)
    block = principal_submatrix(a, (0, 1, 2)).entries
    np.testing.assert_allclose(block.real, a[:3, :3], atol=1e-9)
    np.testing.assert_array_equal(block, block.conj().T)
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    tau = 1e-9 * max(1.0, sigma_max)
    oracle_k = 5
    for q in range(1, 6):
        if any(
            float(np.linalg.svd(a[:, s], compute_uv=False)[-1]) <= tau
            for s in itertools.combinations(range(5), q)
        ):
            oracle_k = q - 1
            break
    assert kruskal_rank(a) == oracle_k


class TestEffectiveConditionNumber:
    def test_golden_singular_factor(self):
        value = effective_condition_number(B)
        assert value == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-9)

    def test_identity_and_projection(self):
        assert effective_condition_number(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
        p = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3.0
        assert effective_condition_number(p) == pytest.approx(1.0, abs=1e-9)

    def test_equals_condition_number_when_nonsingular(self):
        d = np.diag([9.0, 3.0, 1.0])
        assert effective_condition_number(d) == pytest.approx(9.0, abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            effective_condition_number(C)

    def test_rejects_zero(self):
        with pytest.raises(ZeroMatrixError):
            effective_condition_number(np.zeros((3, 3)))

    def test_at_least_one(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, n + 1))
            f = rng.normal(size=(n, r))
            assert effective_condition_number(f @ f.T) >= 1.0 - 1e-12


class TestMinSubsetSingularValue:
    def test_single_column(self):
        v = np.array([[3.0, 0.0], [4.0, 1.0]])
        assert min_subset_singular_value(v, 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = int(rng.integers(1, cols + 1))
            v = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            mine = min_subset_singular_value(v, m)
            # The m-th singular value is zero whenever m exceeds the row
            # count; numpy only reports the min(rows, m) nonzero positions.
            oracle = min(
                float(np.linalg.svd(v[:, s], compute_uv=False)[-1])
                if m <= rows
                else 0.0
                for s in itertools.combinations(range(cols), m)
            )
            # The Gram route squares the data, so values below the square
            # root of machine epsilon are noise-level zeros.
            assert mine == pytest.approx(oracle, abs=1e-7)

    def test_zero_when_subsets_overdetermine_rows(self):
        # Two columns in a one-row space are always dependent.
        v = np.array([[1.0, 2.0]])
        assert min_subset_singular_value(v, 2) == pytest.approx(0.0, abs=1e-12)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            min_subset_singular_value(np.eye(3), 4)
        with pytest.raises(DimensionError):
            min_subset_singular_value(np.zeros((0, 2)), 1)


class TestScanChunks:
    """The scan solves subsets in growing stacks; results stay per subset."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Subsets drawn from the module-global iter_subsets, per (n, m) call."""
        real = submatrix.iter_subsets
        calls = []

        def counting(n, m, *rest):
            it = real(n, m, *rest)
            calls.append([(n, m), 0])

            def count():
                for subset in it:
                    calls[-1][1] += 1
                    yield subset

            return count()

        monkeypatch.setattr(submatrix, "iter_subsets", counting)
        return calls

    def test_tie_across_chunks_keeps_first_subset(self):
        res = min_submatrix_eigenvalue(np.eye(9), 4)
        assert (res.value, res.argmin_subset) == (1.0, (0, 1, 2, 3))

    def test_unique_minimum_past_the_first_chunks(self):
        # 1 - 0.9 * |S & {7..11}| / 5 is least only at the last subset.
        v = np.zeros(12)
        v[7:] = 1.0 / math.sqrt(5.0)
        a = np.eye(12) - 0.9 * np.outer(v, v)
        last = (7, 8, 9, 10, 11)
        assert list(itertools.combinations(range(12), 5)).index(last) > 256
        res = min_submatrix_eigenvalue(a, 5)
        assert res.argmin_subset == last
        assert res.value == pytest.approx(0.1, abs=1e-12)

    def test_matches_the_per_subset_scan_bit_for_bit(self):
        rng = np.random.default_rng(850)
        f = rng.normal(size=(11, 6)) + 1j * rng.normal(size=(11, 6))
        a = f @ f.conj().T
        value, subset = min(
            (block_eigvals(a[np.ix_(s, s)])[-1], s)
            for s in itertools.combinations(range(11), 6)
        )
        res = min_submatrix_eigenvalue(a, 6)
        assert (repr(res.value), res.argmin_subset) == (repr(float(value)), subset)

    def test_failing_kruskal_level_draws_one_subset(self, drawn):
        # Columns 0, 1, 2 are dependent; every pair is independent.
        rng = np.random.default_rng(860)
        g = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        g[:, 2] = g[:, 0] + g[:, 1]
        assert kruskal_rank(g.conj().T @ g) == 2
        # Numeric rank 5: level 6 fails on the cached spectrum, level 5 is
        # drawn whole, levels 4 and 3 fail at their first subset, level 2 passes.
        assert drawn == [[(6, 5), 6], [(6, 4), 1], [(6, 3), 1], [(6, 2), 15]]

    @pytest.mark.parametrize("n,r", [(9, 4), (11, 6)])
    def test_generic_kruskal_walk_probes_once_then_scans_the_rank(self, drawn, n, r):
        rng = np.random.default_rng(861)
        f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        assert kruskal_rank(f @ f.conj().T) == r
        assert drawn == [[(n, r + 1), 1], [(n, r), math.comb(n, r)]]

    @pytest.mark.parametrize("scan", ["mu", "subset_sv"])
    def test_exhaustive_scan_solves_whole_chunks(self, monkeypatch, scan):
        solves = []

        def counting(stack, question=None):
            solves.append(len(stack))
            return matcore.stack_eigvals(stack, question)

        monkeypatch.setattr(submatrix, "stack_eigvals", counting)
        rng = np.random.default_rng(862)
        f = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
        if scan == "mu":
            min_submatrix_eigenvalue(f @ f.conj().T, 7)
        else:
            min_subset_singular_value(f, 7)
        assert solves == [256, 74]  # C(11, 7) = 330

    def test_blocks_before_a_failing_one_are_yielded(self, monkeypatch):
        """Non-convergence surfaces at its subset, as in a per-subset scan."""
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        a = np.eye(5)
        a[1, 4] = a[4, 1] = 0.5  # (0, 1, 2) and (0, 1, 3) diagonal, (0, 1, 4) not
        blocks = submatrix._principal_blocks(a)
        scan = submatrix._block_spectra(5, 3, 100, blocks, submatrix._Least())
        assert [next(scan)[0] for _ in range(2)] == [(0, 1, 2), (0, 1, 3)]
        with pytest.raises(ConvergenceError):
            next(scan)


def per_subset_mu(a, m):
    """(least block lambda_min, its first subset), one block_eigvals per subset."""
    best = None
    for s in itertools.combinations(range(a.shape[0]), m):
        value = block_eigvals(a[np.ix_(s, s)])[-1]
        if best is None or value < best[0]:
            best = (value, s)
    return float(best[0]), best[1]


def per_subset_sv(v, m):
    """Least smallest singular value over m-column subsets, one Gram block at a time."""
    lam = min(
        block_eigvals(v[:, s].conj().T @ v[:, s])[-1]
        for s in itertools.combinations(range(v.shape[1]), m)
    )
    return math.sqrt(max(0.0, float(lam)))


class TestEarlyLeave:
    """Blocks leave a scan once their Weyl bracket answers it; no result moves."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_exact_ties_keep_the_first_subset(self, m):
        res = min_submatrix_eigenvalue(np.eye(9), m)
        assert (res.value, res.argmin_subset) == (1.0, tuple(range(m)))

    def test_repeated_columns_keep_the_kruskal_rank(self):
        rng = np.random.default_rng(880)
        for n, r in [(6, 4), (8, 5), (9, 6)]:
            f = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
            f[:, 3] = f[:, 1]
            for mat in (f, f.conj().T @ f):
                assert kruskal_rank(mat) == upward_kruskal_rank(mat) == 1

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_scaled_blocks(self, scale):
        rng = np.random.default_rng(881)
        for n, r, m in [(7, 3, 4), (8, 4, 4), (8, 5, 4)]:
            f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
            a = (f @ f.conj().T) * scale
            v = f.conj().T * math.sqrt(scale)
            res = min_submatrix_eigenvalue(a, m)
            value, subset = per_subset_mu(a, m)
            assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
            assert kruskal_rank(a) == upward_kruskal_rank(a)
            assert kruskal_rank(v) == upward_kruskal_rank(v)
            assert repr(min_subset_singular_value(v, r)) == repr(per_subset_sv(v, r))

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_blocks_outside_the_norm_band(self, scale):
        """Blocks solved scaled by a power of two leave on brackets scaled back."""
        rng = np.random.default_rng(883)
        for n, r, m in [(7, 3, 4), (8, 5, 4)]:
            f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
            a = (f @ f.conj().T) * scale
            v = f.conj().T * math.sqrt(scale)
            res = min_submatrix_eigenvalue(a, m)
            value, subset = per_subset_mu(a, m)
            assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
            lapack = min(
                np.linalg.eigvalsh(a[np.ix_(s, s)])[0]
                for s in itertools.combinations(range(n), m)
            )
            assert abs(res.value - lapack) <= 1e-12 * scale * np.linalg.norm(f @ f.conj().T)
            assert kruskal_rank(a) == upward_kruskal_rank(a)
            assert kruskal_rank(v) == upward_kruskal_rank(v)
            assert repr(min_subset_singular_value(v, r)) == repr(per_subset_sv(v, r))

    def test_lambda_min_exactly_on_the_kruskal_threshold(self):
        """The least level-4 lambda_min is the threshold: dependent at equality."""
        rng = np.random.default_rng(882)
        f = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        a = f @ f.conj().T
        a /= 2.0 * np.linalg.eigvalsh(a)[-1]  # every lambda_max below 1: threshold = tau_rel
        on = min(
            block_eigvals(a[np.ix_(s, s)])[-1] for s in itertools.combinations(range(8), 4)
        )
        assert on > 0.0
        below = np.nextafter(on, 0.0)
        assert upward_kruskal_rank(a, on) == 3
        assert upward_kruskal_rank(a, below) >= 4
        assert kruskal_rank(a, tau_rel=on) == 3
        assert kruskal_rank(a, tau_rel=below) == upward_kruskal_rank(a, below)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_subset_scans_bit_for_bit(self, seed):
        rng = np.random.default_rng(890 + seed)
        n, m = 7, 4
        for rank in (m - 1, m, n):  # lambda_min rounding noise, separated, full rank
            f = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            a = f @ f.conj().T
            res = min_submatrix_eigenvalue(a, m)
            value, subset = per_subset_mu(a, m)
            assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
            assert kruskal_rank(a) == upward_kruskal_rank(a)
            v = f.conj().T
            assert kruskal_rank(v) == upward_kruskal_rank(v)
            assert repr(min_subset_singular_value(v, m)) == repr(per_subset_sv(v, m))
        h = random_hermitian(rng, n)
        res = min_submatrix_eigenvalue(h, m)
        value, subset = per_subset_mu(h, m)
        assert (repr(res.value), res.argmin_subset) == (repr(value), subset)

    @pytest.fixture
    def block_sweeps(self, monkeypatch):
        """Blocks swept, summed over every sweep: a stack sweep counts its stack."""
        count = [0]
        stack_sweep, scalar_sweep = matcore._stack_sweep, matcore._scalar_sweep

        def stack(w, skip_tol):
            count[0] += len(w)
            stack_sweep(w, skip_tol)

        def scalar(w, skip_tol, v):
            count[0] += 1
            scalar_sweep(w, skip_tol, v)

        monkeypatch.setattr(matcore, "_stack_sweep", stack)
        monkeypatch.setattr(matcore, "_scalar_sweep", scalar)
        return count

    def test_kruskal_level_sweeps_fewer_blocks(self, block_sweeps):
        rng = np.random.default_rng(883)
        f = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        a = f @ f.conj().T
        blocks = submatrix._principal_blocks(a)
        question = submatrix._AnyDependent(lambda top: 1e-9 * np.maximum(1.0, top))
        for _ in submatrix._block_spectra(9, 4, 1000, blocks, question, whole=True):
            pass
        assert not question.settled  # level 4 of a generic rank-4 matrix passes
        asked = block_sweeps[0]
        block_sweeps[0] = 0
        matcore.stack_eigvals(blocks(np.array(list(itertools.combinations(range(9), 4)))))
        assert 0 < asked < block_sweeps[0]

    def test_mu_argmin_never_leaves(self, block_sweeps):
        rng = np.random.default_rng(884)
        f = rng.normal(size=(10, 6)) + 1j * rng.normal(size=(10, 6))
        a = f @ f.conj().T  # rank A = m, so the brackets separate
        blocks = submatrix._principal_blocks(a)
        kept = dict(
            submatrix._block_spectra(10, 6, 1000, blocks, submatrix._Least(), whole=True)
        )
        asked = block_sweeps[0]
        block_sweeps[0] = 0
        matcore.stack_eigvals(blocks(np.array(list(itertools.combinations(range(10), 6)))))
        assert 0 < asked < block_sweeps[0]
        value, subset = per_subset_mu(a, 6)
        assert subset in kept and repr(float(kept[subset][-1])) == repr(value)
        assert len(kept) < math.comb(10, 6)


class TestPinnedScans:
    """Exact scan outputs at n = 8, so a rewrite of the scan shows any bit it moves.

    Values are reprs: equal reprs mean equal floats. Each pin was taken
    from the per-subset Jacobi scan in lexicographic order; a kernel that
    changes rounding must update them deliberately.
    """

    @staticmethod
    def psd_input():
        rng = np.random.default_rng(801)
        f = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        return f @ f.conj().T

    @staticmethod
    def indefinite_input():
        rng = np.random.default_rng(802)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        return (h + h.conj().T) / 2.0

    @staticmethod
    def doa_scenario():
        rng = np.random.default_rng(804)
        f = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        omega = tuple(-3.0 + 0.7 * k for k in range(8))
        return DoaScenario(N=12, K=8, P=6, omega=omega, sigma_s=f @ f.conj().T)

    @pytest.mark.parametrize(
        "kind,m,value,subset",
        [
            ("psd", 3, "1.6234454623640615", (5, 6, 7)),
            ("psd", 4, "0.6327217696268869", (0, 2, 4, 7)),
            ("psd", 5, "0.1498861848520704", (0, 2, 3, 4, 7)),
            ("psd", 6, "0.05525022255999848", (0, 1, 2, 3, 4, 7)),
            ("indefinite", 3, "-3.2372099961206984", (1, 5, 6)),
            ("indefinite", 4, "-3.607094261827309", (1, 2, 5, 6)),
            ("indefinite", 5, "-3.6714520050723447", (1, 2, 4, 5, 6)),
            ("indefinite", 6, "-3.7432088675315995", (1, 2, 4, 5, 6, 7)),
        ],
    )
    def test_mu_and_argmin(self, kind, m, value, subset):
        a = self.psd_input() if kind == "psd" else self.indefinite_input()
        res = min_submatrix_eigenvalue(a, m)
        assert (repr(res.value), res.argmin_subset) == (value, subset)

    def test_kruskal_rank(self):
        assert kruskal_rank(self.psd_input()) == 6
        rng = np.random.default_rng(803)
        v = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
        assert kruskal_rank(v) == 4

    def test_subset_singular_value_and_doa(self):
        scenario = self.doa_scenario()
        v = build_steering(scenario.P, scenario.omega)
        assert repr(min_subset_singular_value(v, 5)) == "0.4361344171203746"
        report = doa_bound(scenario)
        assert report.m == 5
        assert repr(report.tilde_sigma_sq) == "0.1902132297969289"
