"""Subset scans: submatrix eigenvalue minima, Kruskal rank, conditioning.

Brute-force oracles here are written directly against numpy and
itertools so the package's enumeration and fast paths are checked by
independent code.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from hadabound import matcore, submatrix
from hadabound.apps import DoaScenario, build_steering, doa_bound
from hadabound.certify import nonsingularity_predicate
from hadabound.errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    HermitianityError,
    NonFiniteError,
    NotPsdError,
    ZeroMatrixError,
)
from hadabound.matcore import hadamard, stack_eigvals
from hadabound.selftest import _kruskal_bruteforce
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
            vals = stack_eigvals(arr[np.ix_(s, s)][None])[0]
            return vals[-1] <= matcore.tol_for(vals[0], tau_rel)
    else:
        tau = matcore.tol_for(max(0.0, stack_eigvals((arr.conj().T @ arr)[None])[0][0]), tau_rel)

        def dependent(s):
            return stack_eigvals((arr[:, s].conj().T @ arr[:, s])[None])[0][-1] <= tau
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

    def test_selftest_oracle_is_scale_free(self):
        """The selftest's numpy oracle judges against sigma_max with no absolute floor."""
        rng = np.random.default_rng(871)
        v = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        for mat in (v.conj().T @ v, v.T @ v):  # 6 x 6 of rank 4, PSD and not
            assert _kruskal_bruteforce(mat * 2.0**-40) == _kruskal_bruteforce(mat) == 4

    @pytest.mark.parametrize("shape", [(4, 6), (5, 5), (6, 4)])
    @pytest.mark.parametrize("repeat", [False, True])
    def test_selftest_oracle_on_wide_square_and_tall_inputs(self, shape, repeat):
        """More columns than rows are dependent: the oracle stops at the row count."""
        rng = np.random.default_rng(0)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if repeat:
            v[:, -1] = v[:, 0]
        want = 1 if repeat else min(shape)
        assert _kruskal_bruteforce(v) == kruskal_rank(v) == want

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

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e200, 1e300, 2.0**490, 2.0**-450])
    def test_gram_path_above_the_band(self, scale):
        """Every 3 columns of a generic 3x5 matrix are independent, at any scale."""
        f = np.random.default_rng(0).normal(size=(3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kruskal_rank(f * scale) == 3

    def test_gram_path_has_no_absolute_floor(self):
        """A Gram far below unit scale, or below the band, keeps the unscaled answer."""
        f = np.random.default_rng(0).normal(size=(3, 5))
        for scale in (1e-5, 1e-170, 1e-300, 2.0**490, 2.0**-450):
            assert kruskal_rank(f * scale) == kruskal_rank(f) == 3


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

    @pytest.mark.parametrize("scale", [1e155, 1e-155, 1e160, 1e-160, 1e-170, 1e200, 1e-200])
    def test_out_of_band_inputs_match_numpy_svd(self, scale):
        """The Gram would overflow or underflow; the input is scaled by a power of two first."""
        f = np.random.default_rng(0).normal(size=(3, 5)) * scale
        oracle = min(
            np.linalg.svd(f[:, s], compute_uv=False)[-1]
            for s in itertools.combinations(range(5), 3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = min_subset_singular_value(f, 3)
        assert mine == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("shift", [-700, -520, -450, -420, 490, 700])
    def test_power_of_two_scaling_is_exact(self, shift):
        """Largest part in [1/2, 1), times 2^k outside the band: the value times 2^k."""
        rng = np.random.default_rng(26)
        v = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        v /= 2.0 ** math.frexp(np.abs(v.view(np.float64)).max())[1]
        assert min_subset_singular_value(v * 2.0**shift, 3) == (
            min_subset_singular_value(v, 3) * 2.0**shift
        )

    def test_zero_when_subsets_overdetermine_rows(self):
        # Two columns in a one-row space are always dependent.
        v = np.array([[1.0, 2.0]])
        assert min_subset_singular_value(v, 2) == pytest.approx(0.0, abs=1e-12)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            min_subset_singular_value(np.eye(3), 4)
        with pytest.raises(DimensionError):
            min_subset_singular_value(np.zeros((0, 2)), 1)


@pytest.mark.parametrize(
    "scan",
    [lambda v: min_subset_singular_value(v, 2), kruskal_rank],
    ids=["min_subset_singular_value", "kruskal_rank"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rectangular_non_finite_input_is_refused_before_any_solve(scan, bad):
    v = np.random.default_rng(27).normal(size=(3, 5))
    v[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            scan(v)


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
            (stack_eigvals(a[np.ix_(s, s)][None])[0][-1], s)
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
    def test_generic_kruskal_walk_scans_only_the_rank(self, drawn, n, r):
        rng = np.random.default_rng(861)
        f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        assert kruskal_rank(f @ f.conj().T) == r
        # Interlacing fails level r + 1 with no subset drawn.
        assert drawn == [[(n, r), math.comb(n, r)]]

    def test_a_level_interlacing_cannot_decide_is_drawn(self, drawn):
        # lambda_q = 2.5e-6 lies above threshold(max a_ii) = 6e-7 at every q,
        # so the walk up from r = 1 draws each level, n included: the
        # screen cannot prove level n's one block, which is then solved.
        v = np.ones(5) / math.sqrt(5.0)
        a = 3e3 * np.outer(v, v) + 2.5e-6 * (np.eye(5) - np.outer(v, v))
        assert matcore.rank_numeric(a) == 1
        assert kruskal_rank(a) == 4
        assert drawn == [[(5, 2), 10], [(5, 3), 10], [(5, 4), 5], [(5, 5), 1]]

    def test_an_interlaced_level_over_the_budget_raises_as_its_draw_would(self, drawn):
        rng = np.random.default_rng(864)
        f = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        a = f @ f.conj().T
        # C(9, 4) = 126 > C(9, 3) = 84: level 4 is over a budget of 125, so
        # the search falls back to the walk up from 1, which needs level 4.
        with pytest.raises(BudgetExceededError, match=r"C\(9,4\) = 126"):
            kruskal_rank(a, budget=125)
        assert drawn == [[(9, 1), 9], [(9, 2), 36], [(9, 3), 84]]
        drawn.clear()
        assert kruskal_rank(a, budget=126) == 3
        assert drawn == [[(9, 3), 84]]

    @pytest.mark.parametrize("scan", ["mu", "subset_sv"])
    def test_exhaustive_scan_solves_whole_chunks(self, monkeypatch, scan):
        matcore._MEMO.clear()  # an earlier test may hold this input's mu
        solves = []

        def counting(stack):
            solves.append(len(stack))
            return matcore.stack_eigvals(stack)

        monkeypatch.setattr(submatrix, "stack_eigvals", counting)
        rng = np.random.default_rng(862)
        # Rank 6 < 7: every block is within rounding of singular, so no
        # Cholesky pivot is positive and the screen leaves each chunk whole.
        f = rng.normal(size=(11, 6)) + 1j * rng.normal(size=(11, 6))
        if scan == "mu":
            min_submatrix_eigenvalue(f @ f.conj().T, 7)
        else:
            min_subset_singular_value(f.conj().T, 7)
        assert solves == [256, 74]  # C(11, 7) = 330

    def test_memo_hit_draws_no_subset_but_keeps_the_budget(self, drawn):
        rng = np.random.default_rng(863)
        a = random_hermitian(rng, 7)
        matcore._MEMO.clear()
        with pytest.raises(BudgetExceededError) as fresh:
            min_submatrix_eigenvalue(a, 4, budget=34)  # C(7, 4) = 35
        first = min_submatrix_eigenvalue(a, 4)
        assert drawn == [[(7, 4), 35]]
        with pytest.raises(BudgetExceededError) as held:
            min_submatrix_eigenvalue(a, 4, budget=34)
        assert str(held.value) == str(fresh.value)
        again = min_submatrix_eigenvalue(np.array(a), 4, budget=35)
        assert again == first and repr(again.value) == repr(first.value)
        assert drawn == [[(7, 4), 35]]

    def test_blocks_before_a_failing_one_are_yielded(self, monkeypatch):
        """Non-convergence surfaces at its subset, as in a per-subset scan."""
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        a = np.eye(5)
        a[1, 4] = a[4, 1] = 0.5  # (0, 1, 2) and (0, 1, 3) diagonal, (0, 1, 4) not
        blocks = submatrix._principal_blocks(a)
        scan = (
            (subset, vals)
            for chunk, stack in submatrix._chunks(5, 3, 100, blocks)
            for subset, vals in zip(chunk, submatrix._solve(stack))
        )
        assert [next(scan)[0] for _ in range(2)] == [(0, 1, 2), (0, 1, 3)]
        with pytest.raises(ConvergenceError):
            next(scan)


def per_subset_mu(a, m):
    """(least block lambda_min, its first subset), one solve per subset."""
    best = None
    for s in itertools.combinations(range(a.shape[0]), m):
        value = stack_eigvals(a[np.ix_(s, s)][None])[0][-1]
        if best is None or value < best[0]:
            best = (value, s)
    return float(best[0]), best[1]


def per_subset_sv(v, m):
    """Least smallest singular value over m-column subsets, one Gram block at a time."""
    lam = min(
        stack_eigvals((v[:, s].conj().T @ v[:, s])[None])[0][-1]
        for s in itertools.combinations(range(v.shape[1]), m)
    )
    return math.sqrt(max(0.0, float(lam)))


class TestEarlyLeave:
    """Scans that drop blocks before the solve give the full scans' results."""

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
        """The deciding level-4 block sits on its threshold: dependent at equality.

        That block has the least lambda_min / lambda_max, and tau_rel is
        that ratio, so tol_for(lambda_max, tau_rel) equals its lambda_min.
        """
        rng = np.random.default_rng(882)
        f = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        a = f @ f.conj().T
        spectra = (
            stack_eigvals(a[np.ix_(s, s)][None])[0] for s in itertools.combinations(range(8), 4)
        )
        top, low = min(((vals[0], vals[-1]) for vals in spectra), key=lambda tl: tl[1] / tl[0])
        on = low / top
        assert 0.0 < on < 1.0 and matcore.tol_for(top, on) == low
        below = on * (1.0 - 2.0**-50)
        assert matcore.tol_for(top, below) < low
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


class TestMinimumScreen:
    """Minimum scans drop blocks clears_floor proves above the incumbent; no bit moves.

    Every case is compared bit for bit with per_subset_mu or per_subset_sv,
    which solve each subset alone and screen nothing.
    """

    @staticmethod
    def check_mu(a, m):
        matcore._MEMO.clear()  # the scan must run, not read a stored result
        res = min_submatrix_eigenvalue(a, m)
        value, subset = per_subset_mu(a, m)
        assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
        return res

    @staticmethod
    def check_sv(v, m):
        got = min_subset_singular_value(v, m)
        assert repr(got) == repr(per_subset_sv(v, m))
        return got

    def test_fewer_blocks_reach_the_solver_the_argmin_among_them(self, monkeypatch):
        rng = np.random.default_rng(884)
        f = rng.normal(size=(10, 6)) + 1j * rng.normal(size=(10, 6))
        a = f @ f.conj().T  # rank A = m
        value, subset = per_subset_mu(a, 6)
        matcore._MEMO.clear()
        real = matcore._jacobi
        solved = []

        def counting(w, v=None):
            solved.extend(np.array(w))  # one entry per block of the stack
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        res = min_submatrix_eigenvalue(a, 6)
        assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
        assert 0 < len(solved) < math.comb(10, 6)
        argmin = a[np.ix_(subset, subset)]
        assert any(np.array_equal(block, argmin) for block in solved)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_identity_ties_keep_the_first_subset(self, m):
        assert self.check_mu(np.eye(9), m).argmin_subset == tuple(range(m))
        self.check_sv(np.eye(9), m)

    def test_an_incumbent_past_the_first_tie_keeps_the_first_tie(self):
        a = np.diag([1.0, 2.0, 2.0, 9.0, 1.0])
        subsets = list(itertools.combinations(range(5), 3))
        stack = submatrix._principal_blocks(a)(np.array(subsets))
        pivots, factor = matcore.least_pivots(stack, 0.0)
        assert np.all(pivots > 0.0)
        # Two eigenvalues 1 and one 9 leave the least Rayleigh quotient.
        assert subsets[int(np.argmin(matcore.rayleigh_guesses(stack, factor)))] == (0, 3, 4)
        assert self.check_mu(a, 3).argmin_subset == (0, 1, 2)

    def test_doa_steering_scans_solve_a_few_blocks(self, monkeypatch):
        """10 x 10 steering blocks, one jittered frequency per cell, m = 6."""
        real = matcore._jacobi
        solved = []

        def counting(w, v=None):
            solved[-1] += len(w)
            return real(w, v)

        for seed in range(6):
            jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, 10)
            v = build_steering(10, tuple(-math.pi + (np.arange(10) + 0.5 + jitter) * math.pi / 5))
            want = per_subset_sv(v, 6)
            solved.append(0)
            with monkeypatch.context() as patched:
                patched.setattr(matcore, "_jacobi", counting)
                assert repr(min_subset_singular_value(v, 6)) == repr(want)
        # Of C(10, 6) = 210 Gram blocks each; the incumbent is one of them.
        assert sorted(solved)[3] <= 3 and max(solved) <= 30

    def test_doa_steering_scans_solve_their_argmin_alone(self, monkeypatch):
        """The same steering Grams, seeds 0-11: the incumbent's second pass finds each argmin."""
        real = matcore._jacobi
        solved = []

        def counting(w, v=None):
            solved[-1] += len(w)
            return real(w, v)

        for seed in range(12):
            jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, 10)
            v = build_steering(10, tuple(-math.pi + (np.arange(10) + 0.5 + jitter) * math.pi / 5))
            want = per_subset_sv(v, 6)
            solved.append(0)
            with monkeypatch.context() as patched:
                patched.setattr(matcore, "_jacobi", counting)
                assert repr(min_subset_singular_value(v, 6)) == repr(want)
        assert solved == [1] * 12  # the incumbent alone; every other block is cleared

    @staticmethod
    def near_least_mu(a, m):
        """per_subset_mu's result, solving only the blocks near the least lambda_min.

        LAPACK places every block's lambda_min; a block more than
        1e-6 ||A||_F above the least is far above the error of either
        solver, so it can be neither per_subset_mu's minimum nor a tie.
        The rest are solved one at a time in lexicographic order.
        """
        subsets = np.array(list(itertools.combinations(range(a.shape[0]), m)))
        low = np.concatenate([
            np.linalg.eigvalsh(a[idx[:, :, None], idx[:, None, :]])[:, 0]
            for idx in np.array_split(subsets, -(-len(subsets) // 4096))
        ])
        best = None
        for s in subsets[low <= low.min() + 1e-6 * np.linalg.norm(a)]:
            value = stack_eigvals(a[np.ix_(s, s)][None])[0][-1]
            if best is None or value < best[0]:
                best = (value, tuple(int(i) for i in s))
        return float(best[0]), best[1]

    @pytest.mark.parametrize("n", [16, 18])
    def test_later_chunks_are_cleared_against_the_carried_best(self, monkeypatch, n):
        """Full-rank inputs at m = n - n // 2 + 1 span 45 and 171 chunks; a few blocks are solved.

        A is perfbench's psd(rng_for(1, n), n, n, frame_rows=n + 2).
        """
        rng = np.random.default_rng([1, n])
        shape = (n + 2, n)
        f = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        g = f.conj().T @ f
        a = 0.5 * (g + g.conj().T)
        m = n - n // 2 + 1
        value, subset = self.near_least_mu(a, m)
        matcore._MEMO.clear()
        real = matcore._jacobi
        solved = []

        def counting(w, v=None):
            solved.append(len(w))
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        res = min_submatrix_eigenvalue(a, m)
        assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
        assert sum(solved) <= 8

    def test_negative_floor_incumbent_is_guessed_on_that_floors_factor(self, monkeypatch):
        rng = np.random.default_rng(889)
        a = random_hermitian(rng, 8)
        a[np.arange(8), np.arange(8)] = 0.0  # trace 0: no block is positive definite
        floors, factors, guessed = [], [], []
        real_pivots, real_guesses = submatrix.least_pivots, submatrix.rayleigh_guesses

        def pivots(stack, floor):
            least, factor = real_pivots(stack, floor)
            floors.append(floor)
            factors.append(factor)
            return least, factor

        def guesses(stack, factor):
            guessed.append(factor)
            return real_guesses(stack, factor)

        monkeypatch.setattr(submatrix, "least_pivots", pivots)
        monkeypatch.setattr(submatrix, "rayleigh_guesses", guesses)
        res = self.check_mu(a, 4)
        assert res.value < 0.0
        blocks = submatrix._principal_blocks(a)(np.array(list(itertools.combinations(range(8), 4))))
        # The first guess is made on the negative floor's factor; the
        # incumbent's second pass factors again below the least guess.
        assert floors[:2] == [0.0, -np.linalg.norm(blocks, axis=(1, 2)).max()]
        assert len(guessed) == 2 and guessed[0] is factors[1] and guessed[1] is factors[2]

    def test_repeated_columns(self):
        rng = np.random.default_rng(885)
        for n, r, m in [(7, 5, 4), (9, 6, 5), (9, 4, 4)]:
            f = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
            f[:, 3] = f[:, 1]
            f[:, 6] = f[:, 0]
            self.check_mu(f.conj().T @ f, m)
            self.check_sv(f, m)

    def test_a_block_exactly_at_the_screen_floor(self):
        """Block (0, 1, 2) has lambda_min exactly best + margin ||W||_F, so it is solved."""
        margin = matcore.bracket_margin(3)
        x = 1.0
        for _ in range(5):  # x = 1 + margin * sqrt(x^2 + 8), to the last bit
            x = 1.0 + margin * float(np.linalg.norm(np.diag([x, 2.0, 2.0])))
        a = np.diag([x, 2.0, 2.0, 1.0])
        block = a[:3, :3][None]
        assert x == 1.0 + margin * np.linalg.norm(block[0])  # the scan's floor
        assert not matcore.clears_floor(block, x)[0]
        assert matcore.clears_floor(block, 0.5)[0]
        assert self.check_mu(a, 3).argmin_subset == (0, 1, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_one_below_and_at_the_order(self, seed):
        rng = np.random.default_rng(886 + seed)
        n, m = 10, 6
        for rank in (m - 1, m):
            f = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            self.check_mu(f @ f.conj().T, m)
            self.check_sv(f.conj().T, m)

    @pytest.mark.parametrize("k", [300, -300])
    def test_blocks_scaled_by_a_power_of_two(self, k):
        rng = np.random.default_rng(887)
        f = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        a = f @ f.conj().T
        res = self.check_mu(a * 2.0**k, 5)
        plain = self.check_mu(a, 5)
        assert (res.value, res.argmin_subset) == (plain.value * 2.0**k, plain.argmin_subset)
        v = f.conj().T
        assert self.check_sv(v * 2.0 ** (k // 2), 5) == self.check_sv(v, 5) * 2.0 ** (k // 2)

    def test_one_subset_scan(self):
        rng = np.random.default_rng(888)
        f = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        self.check_sv(f, 4)
        a = f @ f.conj().T
        value, subset = submatrix._least_block(6, 6, 1, submatrix._principal_blocks(a))
        assert (repr(value), subset) == (repr(float(stack_eigvals(a[None])[0][-1])), tuple(range(6)))


class TestNegativeMinimumScreen:
    """Minimum scans whose least value is negative drop blocks above a negative incumbent.

    Compared bit for bit with per_subset_mu, which screens nothing.
    """

    @pytest.fixture
    def solved(self, monkeypatch):
        """Blocks sent to the Jacobi solver, after the per-subset references are taken."""
        real = matcore._jacobi
        count = []

        def patch():
            matcore._MEMO.clear()  # the scan must run, not read a stored result

            def counting(w, v=None):
                count.append(len(w))
                return real(w, v)

            monkeypatch.setattr(matcore, "_jacobi", counting)
            return count

        return patch

    @staticmethod
    def inputs(rng, n, m):
        """Random Hermitian matrices, and a PSD matrix shifted to 1.5 times below its mu."""
        for _ in range(3):
            yield random_hermitian(rng, n)
        f = rng.normal(size=(n, n - 2)) + 1j * rng.normal(size=(n, n - 2))
        a = f @ f.conj().T
        mu = min(
            np.linalg.eigvalsh(a[np.ix_(s, s)])[0] for s in itertools.combinations(range(n), m)
        )
        yield a - 1.5 * mu * np.eye(n)  # some blocks positive definite, the least one not

    @pytest.mark.parametrize("n,m", [(8, 3), (8, 4), (8, 6), (10, 4), (10, 6)])
    def test_seeded_scans_match_the_per_subset_scan(self, solved, n, m):
        mats = list(self.inputs(np.random.default_rng(1600 + 10 * n + m), n, m))
        want = [per_subset_mu(a, m) for a in mats]
        count = solved()
        for a, (value, subset) in zip(mats, want):
            count.clear()
            res = min_submatrix_eigenvalue(a, m)
            assert (repr(res.value), res.argmin_subset) == (repr(value), subset)
            assert value < 0.0 and sum(count) < math.comb(n, m)


def screen_inputs(rng):
    """Kruskal inputs of order at most 10 for both paths, the borderline ones included."""

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in (6, 8, 10):
        for r in (n // 2, n // 2 + 1, n - 1, n):
            f = cnormal(n, r)
            yield f @ f.conj().T
            yield f.real @ f.real.T
            yield f.conj().T  # r x n: the Gram path
        v = np.ones(n) / math.sqrt(n)
        p = np.outer(v, v)
        yield 3e3 * p + 2.5e-6 * (np.eye(n) - p)
        h = cnormal(n, n)
        yield (h + h.conj().T) / 2.0
    for sign in (1.0, -1.0):
        yield np.diag([1e3, sign * 1e-2])
        yield np.diag([1e3, sign * 1e-2, 1.0, 3.0, 1e-2, 7.0])
    for kind in KRUSKAL_KINDS:
        for _ in range(6):
            yield kruskal_input(rng, kind)


class TestKruskalScreen:
    """Blocks proved independent by matcore.clears_floor skip the solver; no verdict moves."""

    @pytest.fixture
    def cleared(self, monkeypatch):
        """Blocks the screen clears, each checked against its own full solve.

        A Kruskal level calls clears_floor from kruskal_rank's loop, whose
        frame holds the level's threshold; a minimum scan's frame holds
        none, and its calls are not counted.
        """
        real = submatrix.clears_floor
        count = [0]

        def checked(stack, floor):
            mask = real(stack, floor)
            threshold = sys._getframe(1).f_locals.get("threshold")
            if threshold is None:
                return mask
            for block in stack[mask]:
                vals = stack_eigvals(block[None])[0]
                assert vals[-1] > threshold(vals[0])  # independent when solved
            count[0] += int(mask.sum())
            return mask

        monkeypatch.setattr(submatrix, "clears_floor", checked)
        return count

    @staticmethod
    def unscreened(monkeypatch, call):
        """call() with the screen clearing no block."""
        with monkeypatch.context() as patched:
            patched.setattr(submatrix, "clears_floor", lambda stack, _: np.zeros(len(stack), bool))
            return call()

    def test_kruskal_rank_is_the_unscreened_one(self, monkeypatch, cleared):
        for mat in screen_inputs(np.random.default_rng(900)):
            assert kruskal_rank(mat) == self.unscreened(monkeypatch, lambda: kruskal_rank(mat))
        assert cleared[0] > 1000

    def test_nonsingularity_predicate_is_the_unscreened_one(self, monkeypatch, cleared):
        rng = np.random.default_rng(901)
        for n in (6, 8, 10):
            shapes = ((n, n // 2 + 1), (n, n // 2))
            f, g = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes)
            pairs = [(f @ f.conj().T, g @ g.conj().T)]
            v = np.ones(n) / math.sqrt(n)
            p = np.outer(v, v)
            pairs.append((3e3 * p + 2.5e-6 * (np.eye(n) - p), np.eye(n)))
            for a, b in pairs:
                got = nonsingularity_predicate(a, b)
                want = self.unscreened(monkeypatch, lambda: nonsingularity_predicate(a, b))
                assert repr(got) == repr(want)
        assert cleared[0] > 0

    @pytest.mark.parametrize("n,r", [(9, 4), (10, 5), (11, 6)])
    def test_rank_level_sends_no_block_to_the_solver(self, monkeypatch, n, r):
        matcore._MEMO.clear()  # an earlier test may hold this input's spectrum
        real = matcore._jacobi
        orders = []

        def counting(w, v=None):
            orders.extend([w.shape[1]] * len(w))  # one entry per block of the stack
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        rng = np.random.default_rng(902 + n)
        f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        for mat, probes in ((f @ f.conj().T, 0), (f.conj().T, 1)):
            orders.clear()
            assert kruskal_rank(mat) == r
            # Level r is cleared whole. On the PSD path interlacing fails
            # level r + 1 unsolved; the Gram path fails it at its first block.
            assert r not in orders and orders.count(r + 1) == probes


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
