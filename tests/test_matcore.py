"""Core carrier, eigensolver, and classification tests.

Golden cases use matrices whose spectra have closed forms, so every
asserted number is independently checkable by hand. Property loops draw
seeded random instances and compare against numpy's LAPACK eigensolver,
which shares no code with the package's Jacobi iteration.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from hadabound import matcore
from hadabound.errors import (
    ConvergenceError,
    DimensionError,
    HermitianityError,
    NonFiniteError,
    NotProjectionError,
    ZeroPivotError,
)
from hadabound.matcore import (
    HermitianMatrix,
    PsdKind,
    SpectralDecomposition,
    as_hermitian,
    classify_psd,
    eig_hermitian,
    eigvals_hermitian,
    hadamard,
    is_orthogonal_projection,
    least_positive,
    rank_numeric,
    schur_complement,
    stack_eigvals,
    tol_for,
)
from hadabound.submatrix import min_submatrix_eigenvalue

# Singular PSD pair with closed-form spectra: eig(A) = (3, 1, 0) and
# eig(B) = (2 + sqrt 2, 2 - sqrt 2, 0).
A = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
B = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
# Indefinite with eig = (8 + sqrt 65, 8, 8 - sqrt 65).
C = np.array([[8.0, 7.0, 0.0], [7.0, 8.0, 4.0], [0.0, 4.0, 8.0]])
# Rank-2 orthogonal projection complementary to the all-ones direction.
P = np.array(
    [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
) / 3.0


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2.0


def complex_gram(rng, rows, n):
    """F* F, exactly Hermitian, for a (rows, n) complex normal frame F: PSD of rank min(rows, n)."""
    f = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    g = f.conj().T @ f
    return (g + g.conj().T) / 2.0


class TestHermitianMatrix:
    def test_accepts_real_symmetric(self):
        h = HermitianMatrix(A)
        assert h.n == 3
        assert h.entries.dtype == np.complex128

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.zeros((0, 0)))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(HermitianityError):
            HermitianMatrix([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3, dtype=np.complex128)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NonFiniteError):
            HermitianMatrix(m)

    def test_rejects_complex_diagonal(self):
        with pytest.raises(HermitianityError):
            HermitianMatrix(np.array([[1j, 0.0], [0.0, 1.0]]))

    def test_entries_are_read_only(self):
        h = HermitianMatrix(A)
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_diagonal_is_real(self):
        h = HermitianMatrix(C)
        np.testing.assert_array_equal(h.diagonal(), [8.0, 8.0, 8.0])
        assert h.diagonal().dtype == np.float64

    def test_array_protocol(self):
        h = HermitianMatrix(B)
        np.testing.assert_array_equal(np.asarray(h), B.astype(np.complex128))

    def test_as_hermitian_passthrough(self):
        h = HermitianMatrix(A)
        assert as_hermitian(h) is h

    def test_tolerance_scales_with_entries(self):
        # A fixed absolute defect passes at large scale, fails at unit scale.
        big = 1e6 * np.eye(2)
        big[0, 1] = 1e-8
        HermitianMatrix(big)
        small = np.eye(2)
        small[0, 1] = 1e-8
        with pytest.raises(HermitianityError):
            HermitianMatrix(small)


class TestHadamard:
    def test_golden_product(self):
        prod = hadamard(A, B)
        np.testing.assert_allclose(
            prod.entries.real,
            [[4.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
        )

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            hadamard(A, np.eye(2))

    def test_psd_factors_give_psd_product(self):
        """Entrywise products of PSD factors are PSD (seeded spot check)."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            prod = hadamard(f @ f.conj().T, g @ g.conj().T)
            assert float(np.linalg.eigvalsh(prod.entries)[0]) > -1e-9


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(eigvals_hermitian(np.eye(3)), [1.0, 1.0, 1.0])

    def test_golden_spectrum_rank_two_factor(self):
        vals = eigvals_hermitian(B)
        expected = [2.0 + math.sqrt(2.0), 2.0 - math.sqrt(2.0), 0.0]
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_golden_spectrum_indefinite(self):
        vals = eigvals_hermitian(C)
        expected = [8.0 + math.sqrt(65.0), 8.0, 8.0 - math.sqrt(65.0)]
        np.testing.assert_allclose(vals, expected, atol=1e-9)

    def test_one_by_one(self):
        np.testing.assert_allclose(eigvals_hermitian([[-3.0]]), [-3.0])

    def test_two_by_two_closed_form(self):
        vals = eigvals_hermitian([[2.0, 1.0], [1.0, 1.0]])
        expected = [(3.0 + math.sqrt(5.0)) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0]
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_complex_hermitian(self):
        h = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        # trace 5, det 4: eigenvalues (5 +- sqrt(9 - 8... )) solve directly
        expected = np.linalg.eigvalsh(h)[::-1]
        np.testing.assert_allclose(eigvals_hermitian(h), expected, atol=1e-12)

    def test_agrees_with_numpy_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            h = random_hermitian(rng, n, scale=float(rng.uniform(0.5, 4.0)))
            mine = eigvals_hermitian(h)
            oracle = np.linalg.eigvalsh(h)[::-1]
            scale = 1.0 + float(np.max(np.abs(h)))
            np.testing.assert_allclose(mine, oracle, atol=1e-10 * scale)

    def test_values_sorted_nonincreasing(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            vals = eigvals_hermitian(random_hermitian(rng, 6))
            assert np.all(vals[:-1] >= vals[1:])


class TestEigHermitian:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            h = random_hermitian(rng, n)
            dec = eig_hermitian(h)
            resid = np.max(np.abs(dec.reconstruct() - np.asarray(HermitianMatrix(h))))
            assert resid < 1e-10 * (1.0 + np.max(np.abs(h)))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10

    def test_eigenpairs_satisfy_definition(self):
        rng = np.random.default_rng(10)
        h = np.asarray(HermitianMatrix(random_hermitian(rng, 5)))
        dec = eig_hermitian(h)
        for k in range(5):
            v = dec.eigenvectors[:, k]
            assert np.max(np.abs(h @ v - dec.eigenvalues[k] * v)) < 1e-9

    def test_decomposition_invariants_enforced(self):
        with pytest.raises(ValueError):
            SpectralDecomposition(np.array([1.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError):
            SpectralDecomposition(np.array([2.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(DimensionError):
            SpectralDecomposition(np.array([1.0]), np.eye(2))


class TestClassifyPsd:
    def test_singular_psd(self):
        cls = classify_psd(A)
        assert cls.kind is PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
        assert cls.is_psd
        assert abs(cls.witness) < 1e-9

    def test_indefinite(self):
        cls = classify_psd(C)
        assert cls.kind is PsdKind.INDEFINITE
        assert not cls.is_psd
        np.testing.assert_allclose(cls.witness, 8.0 - math.sqrt(65.0), atol=1e-9)

    def test_positive_definite(self):
        cls = classify_psd(np.eye(4))
        assert cls.kind is PsdKind.POSITIVE_DEFINITE
        np.testing.assert_allclose(cls.witness, 1.0)

    def test_threshold_is_relative(self):
        # lambda_min = -1e-6 is indefinite at unit scale but within the
        # semidefinite band once lambda_max dominates it.
        assert classify_psd(np.diag([1.0, -1e-6])).kind is PsdKind.INDEFINITE
        assert (
            classify_psd(np.diag([1e6, -1e-6])).kind
            is PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
        )


class TestRankNumeric:
    def test_goldens(self):
        assert rank_numeric(A) == 2
        assert rank_numeric(B) == 2
        assert rank_numeric(hadamard(A, B)) == 3
        assert rank_numeric(np.zeros((3, 3))) == 0

    def test_counts_negative_eigenvalues(self):
        assert rank_numeric(C) == 3
        assert rank_numeric(np.diag([1.0, -1.0, 0.0])) == 2

    def test_matches_numpy_rank_on_gram_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, n + 1))
            f = rng.normal(size=(n, r))
            g = f @ f.T
            assert rank_numeric(g) == np.linalg.matrix_rank(g)


class TestLeastPositive:
    def test_zero_matrix(self):
        assert least_positive(np.zeros((3, 3))) == (0, 0.0)

    @pytest.mark.parametrize("k", [-200, -7, 0, 9, 200])
    @pytest.mark.parametrize("a,rank", [(A, 2), (B, 2), (P, 2)], ids=["A", "B", "P"])
    def test_rank_deficient_psd_and_its_power_of_two_scalings(self, a, rank, k):
        r, lam = least_positive(a)
        assert (r, lam) == (rank, eigvals_hermitian(a)[rank - 1])
        assert least_positive(2.0**k * a) == (r, 2.0**k * lam)


class TestIsOrthogonalProjection:
    def test_golden_projection(self):
        ok, rank = is_orthogonal_projection(P)
        assert ok and rank == 2

    def test_identity_and_zero(self):
        assert is_orthogonal_projection(np.eye(4)) == (True, 4)
        assert is_orthogonal_projection(np.zeros((3, 3))) == (True, 0)

    def test_rejects_scaled_projection(self):
        ok, rank = is_orthogonal_projection(0.5 * P)
        assert not ok and rank is None

    def test_rejects_nonsymmetric_idempotent(self):
        # Oblique projection: idempotent but not Hermitian.
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        ok, rank = is_orthogonal_projection(m)
        assert not ok and rank is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # A NaN defect compares False with the tolerance, so it must not get that far.
        p = np.array(P)
        p[0, 1] = bad
        with pytest.raises(NonFiniteError):
            is_orthogonal_projection(p)

    def test_trace_guard(self):
        # A loose tolerance lets a non-integer trace through to the guard.
        with pytest.raises(NotProjectionError):
            is_orthogonal_projection(np.array([[0.4]]), tol=10.0)

    def test_random_projections(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, n + 1))
            f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(f)
            proj = q[:, :r] @ q[:, :r].conj().T
            assert is_orthogonal_projection(proj) == (True, r)


class TestSchurComplement:
    def test_golden_elimination(self):
        out = schur_complement(B, 0)
        np.testing.assert_allclose(
            out.entries.real, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_interior_pivot_keeps_order(self):
        out = schur_complement(C, 1)
        expected = C[np.ix_([0, 2], [0, 2])] - np.outer(C[[0, 2], 1], C[1, [0, 2]]) / 8.0
        np.testing.assert_allclose(out.entries.real, expected, atol=1e-12)

    def test_refuses_vanishing_pivot(self):
        with pytest.raises(ZeroPivotError):
            schur_complement(np.diag([0.0, 1.0]), 0)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            schur_complement([[1.0]], 0)
        with pytest.raises(DimensionError):
            schur_complement(B, 5)

    def test_psd_closure(self):
        """Eliminating a positive pivot of a PSD matrix leaves a PSD matrix."""
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            g = f @ f.conj().T + 0.1 * np.eye(n)
            i = int(rng.integers(0, n))
            out = schur_complement(g, i)
            assert float(np.linalg.eigvalsh(out.entries)[0]) > -1e-9


def reference_closed_form(w):
    """The scalar closed forms of orders 1 and 2 that the stack forms replaced, kept frozen."""
    if w.shape[0] == 1:
        return np.array([w[0, 0].real])
    a = w[0, 0].real
    d = w[1, 1].real
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), abs(w[0, 1]))
    return np.array([mid + rad, mid - rad])


class TestStackEigvals:
    """The stack kernel against the single-matrix solver, bit for bit."""

    KINDS = ("complex", "psd_rank_deficient", "real", "diagonal", "zero")

    @staticmethod
    def block(rng, kind, m):
        if kind == "complex":
            return random_hermitian(rng, m)
        if kind == "psd_rank_deficient":
            r = max(1, m - 2)
            f = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
            return f @ f.conj().T
        if kind == "real":
            return random_hermitian(rng, m).real.astype(np.complex128)
        if kind == "diagonal":
            return np.diag(rng.normal(size=m)).astype(np.complex128)
        return np.zeros((m, m), dtype=np.complex128)

    def assert_rows_match(self, stack):
        vals = stack_eigvals(stack)
        assert vals.shape == stack.shape[:2]
        for i, blk in enumerate(stack):
            single = stack_eigvals(blk[None])[0]
            assert np.array_equal(vals[i], single)
            assert vals[i].tobytes() == single.tobytes()  # signed zeros too

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stack_of_one(self, m):
        rng = np.random.default_rng(900 + m)
        for kind in self.KINDS:
            self.assert_rows_match(self.block(rng, kind, m)[None])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_mixed_stack(self, m):
        """Blocks that converge after different sweep counts share one stack."""
        rng = np.random.default_rng(910 + m)
        kinds = [self.KINDS[i % len(self.KINDS)] for i in range(60)]
        self.assert_rows_match(np.array([self.block(rng, kind, m) for kind in kinds]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_forms_match_the_scalar_reference(self, m):
        """Orders 1 and 2, at scales across the double range, against the frozen formulas."""
        rng = np.random.default_rng(925 + m)
        scales = 10.0 ** rng.uniform(-200, 200, size=(200, 1, 1))
        kinds = [self.KINDS[i % len(self.KINDS)] for i in range(200)]
        stack = np.array([self.block(rng, kind, m) for kind in kinds]) * scales
        vals = stack_eigvals(stack)
        for i, blk in enumerate(stack):
            want = reference_closed_form(blk).tobytes()
            assert vals[i].tobytes() == stack_eigvals(blk[None])[0].tobytes() == want

    def test_principal_blocks_of_one_matrix(self):
        rng = np.random.default_rng(920)
        f = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
        a = f @ f.conj().T
        subsets = itertools.combinations(range(9), 5)
        self.assert_rows_match(np.array([a[np.ix_(s, s)] for s in subsets]))

    def test_convergence_test_is_exact_at_the_threshold(self):
        """Masses within rounding of the threshold get the single-matrix norm."""
        rng = np.random.default_rng(930)
        w = random_hermitian(rng, 5)
        off = w - np.diag(np.diag(w))
        mass = float(np.linalg.norm(off))
        for tol, expected in [(mass, True), (np.nextafter(mass, 0.0), False)]:
            assert (matcore._off_mass(w[None])[0] <= tol) == expected

    @pytest.mark.parametrize("m", range(1, 10))
    def test_block_norms_are_the_single_matrix_norm(self, m):
        rng = np.random.default_rng(933 + m)
        scales = 10.0 ** rng.uniform(-150, 150, size=(40, 1, 1))
        w = np.array([random_hermitian(rng, m) for _ in range(40)]) * scales
        single = np.array([np.linalg.norm(b) for b in w])
        assert matcore._frobenius(w).tobytes() == single.tobytes()

    def test_overflowing_norm_converges_at_once(self):
        """A block whose norm overflows is solved in a stack as alone, without warnings.

        Its norm leaves NORM_BAND, so both solves scale it by the same power
        of two; neither may idle through the sweep cap or warn on the way.
        """
        big = np.zeros((3, 3), dtype=np.complex128)
        big[0, 1] = big[1, 0] = 1e155
        big_diag = np.diag([1e155, 1.0, 0.0]).astype(np.complex128)
        big_diag[0, 1] = big_diag[1, 0] = 1.0
        rng = np.random.default_rng(935)
        stack = np.array([big, big_diag, random_hermitian(rng, 3)])
        # The single-matrix norm overflows too; anything else is an error.
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            self.assert_rows_match(stack)

    def test_small_live_stacks_take_the_lockstep_sweep(self, monkeypatch):
        """Above LOCKSTEP_MAX live blocks the vectorized sweep runs, at or below it the lockstep one.

        The lockstep views are built once per live set, and every block
        keeps the bits of its lone solve.
        """
        rng = np.random.default_rng(945)
        m = 6
        cap = matcore.LOCKSTEP_MAX
        near_diagonal = [
            np.diag(rng.normal(size=m)) + 1e-6 * random_hermitian(rng, m) for _ in range(6)
        ]
        dense = [random_hermitian(rng, m) for _ in range(cap - 2)]
        stack = np.array([
            self.block(rng, "zero", m),
            self.block(rng, "diagonal", m),
            *near_diagonal,
            *dense,
        ])
        sweeps, builds = [], []
        stack_sweep, lockstep = matcore._stack_sweep, matcore._lockstep

        def counting_stack(w, skip_tol):
            sweeps.append(("stack", w.shape[0]))
            return stack_sweep(w, skip_tol)

        def counting_lockstep(w, skip_tol, v=None):
            builds.append(w.shape[0])
            sweep = lockstep(w, skip_tol, v)

            def counting_sweep():
                sweeps.append(("lockstep", w.shape[0]))
                return sweep()

            return counting_sweep

        monkeypatch.setattr(matcore, "_stack_sweep", counting_stack)
        monkeypatch.setattr(matcore, "_lockstep", counting_lockstep)
        vals = stack_eigvals(stack)
        kinds = [kind for kind, _ in sweeps]
        # The zero and diagonal blocks leave before the first sweep, the
        # near-diagonal ones a few sweeps before the dense ones.
        assert ("stack", len(stack) - 2) in sweeps
        assert ("lockstep", cap - 2) in sweeps
        assert kinds == sorted(kinds, key=["stack", "lockstep"].index)
        assert all((k > cap) == (kind == "stack") for kind, k in sweeps)
        lockstep_sizes = [k for kind, k in sweeps if kind == "lockstep"]
        assert builds == sorted(set(lockstep_sizes), reverse=True)
        for i, blk in enumerate(stack):
            assert vals[i].tobytes() == stack_eigvals(blk[None])[0].tobytes()

    def test_sweep_cap_raises_the_same_error(self, monkeypatch):
        matcore._MEMO.clear()  # the scan below must solve, not read a stored mu
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(940)
        a = random_hermitian(rng, 7)
        stack = np.array([a[np.ix_(s, s)] for s in itertools.combinations(range(7), 4)])
        with pytest.raises(ConvergenceError) as single:
            stack_eigvals(stack[:1])
        with pytest.raises(ConvergenceError) as stacked:
            stack_eigvals(stack)
        with pytest.raises(ConvergenceError) as scan:
            min_submatrix_eigenvalue(a, 4)
        assert str(single.value) == str(stacked.value) == str(scan.value)
        assert "1 sweeps" in str(scan.value)


class TestContentMemo:
    """Spectra are solved once per content, and read back bit for bit."""

    @pytest.fixture
    def solves(self, monkeypatch):
        matcore._MEMO.clear()
        real = matcore._jacobi
        count = [0]

        def counting(w, v=None):
            count[0] += 1
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        return count

    def test_equal_content_is_solved_once(self, solves):
        a = random_hermitian(np.random.default_rng(1410), 5)
        first = eigvals_hermitian(a)
        again = eigvals_hermitian(HermitianMatrix(np.asfortranarray(a)))
        assert solves[0] == 1
        assert again.tobytes() == first.tobytes() == stack_eigvals(a[None])[0].tobytes()
        with pytest.raises(ValueError):
            again.setflags(write=True)  # a caller cannot write the stored bits

    def test_one_ulp_or_a_signed_zero_is_another_content(self, solves):
        a = random_hermitian(np.random.default_rng(1411), 5)
        a[0, 1] = a[1, 0] = 0.0
        eigvals_hermitian(a)
        nudged = a.copy()
        nudged[2, 2] = np.nextafter(nudged[2, 2].real, np.inf)
        signed = a.copy()
        signed[0, 1] = signed[1, 0] = -0.0
        for b in (nudged, signed):
            before = solves[0]
            vals = eigvals_hermitian(b)
            assert solves[0] == before + 1
            assert vals.tobytes() == stack_eigvals(b[None])[0].tobytes()

    def test_byte_cap_evicts_the_least_recently_used(self, monkeypatch):
        rng = np.random.default_rng(1412)
        mats = [random_hermitian(rng, 4) for _ in range(5)]  # 256-byte keys
        memo = matcore._ContentMemo(3 * 256)
        monkeypatch.setattr(matcore, "_MEMO", memo)
        solved = []

        def ask(i):
            return matcore.solved_once("test", 4, mats[i], lambda: solved.append(i) or i)

        for i in (0, 1, 2, 3):  # the fourth key evicts the oldest, 0
            ask(i)
        assert [ask(i) for i in (1, 2, 3)] == [1, 2, 3] and solved == [0, 1, 2, 3]
        ask(1)  # now 2 is the least recently used
        ask(4)
        ask(0)
        assert solved == [0, 1, 2, 3, 4, 0]
        assert sorted(key[2] for key in memo.entries) == sorted(
            mats[i].tobytes() for i in (1, 4, 0)
        )
        assert memo.size == 3 * 256
        tiny = matcore._ContentMemo(255)  # a key above the cap is not kept
        monkeypatch.setattr(matcore, "_MEMO", tiny)
        ask(0)
        ask(0)
        assert solved[-2:] == [0, 0] and tiny.size == 0 and not tiny.entries


class TestSolveSpectra:
    """Carriers' spectra solved as one stack read the bits of their lone solves."""

    @pytest.fixture
    def stack_calls(self, monkeypatch):
        """The block count of every stack_eigvals call, from a cleared memo."""
        matcore._MEMO.clear()
        real = matcore.stack_eigvals
        calls = []

        def counting(blocks):
            calls.append(len(blocks))
            return real(blocks)

        monkeypatch.setattr(matcore, "stack_eigvals", counting)
        return calls

    @staticmethod
    def arrays(m):
        """The TestStackEigvals kinds, a near-Hermitian block and two far outside NORM_BAND."""
        rng = np.random.default_rng(1480 + m)
        mats = [TestStackEigvals.block(rng, kind, m) for kind in TestStackEigvals.KINDS]
        noise = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        mats.append(random_hermitian(rng, m) + 1e-14 * noise)
        mats += [random_hermitian(rng, m) * 1e200, random_hermitian(rng, m) * 1e-200]
        return mats

    @pytest.mark.parametrize("m", range(1, 9))
    def test_each_spectrum_is_its_lone_solve(self, stack_calls, m):
        mats = self.arrays(m)
        lone = [matcore.stack_eigvals(a[None])[0] for a in mats]
        matcore._MEMO.clear()
        stack_calls.clear()
        carriers = [HermitianMatrix(a) for a in mats]
        matcore.solve_spectra(*carriers)
        assert stack_calls == [len(mats)]  # one stack; no carrier solves on its own
        for carrier, want in zip(carriers, lone):
            assert carrier.eigenvalues.tobytes() == want.tobytes()  # signed zeros too
        assert stack_calls == [len(mats)]

    def test_a_second_call_solves_nothing(self, stack_calls):
        mats = self.arrays(5)
        carriers = [HermitianMatrix(a) for a in mats]
        matcore.solve_spectra(*carriers)
        matcore.solve_spectra(*(HermitianMatrix(a) for a in mats))  # held in the memo
        spectra = [carrier.eigenvalues for carrier in carriers]
        matcore._MEMO.clear()
        matcore.solve_spectra(*carriers)  # each carrier keeps its own spectrum
        assert stack_calls == [len(mats)]
        assert all(c.eigenvalues is vals for c, vals in zip(carriers, spectra))

    def test_groups_by_order_and_leaves_lone_carriers_alone(self, stack_calls):
        rng = np.random.default_rng(1490)
        a4, b4, c5 = (HermitianMatrix(random_hermitian(rng, n)) for n in (4, 4, 5))

        def overflowing():
            return hadamard(A * 1e200, A * 1e200)

        matcore.solve_spectra(a4, c5, overflowing, b4, a4)
        assert stack_calls == [2]
        for carrier in (a4, b4, c5):
            assert carrier.eigenvalues.tobytes() == stack_eigvals(carrier.entries[None])[0].tobytes()

    def test_a_failed_solve_stores_nothing(self, stack_calls, monkeypatch):
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(1491)
        carriers = [HermitianMatrix(random_hermitian(rng, 6)) for _ in range(3)]
        matcore.solve_spectra(*carriers)
        assert stack_calls == [3] and not matcore._MEMO.entries
        with pytest.raises(ConvergenceError, match="within 1 sweeps"):
            carriers[0].eigenvalues


class TestMemoryLayout:
    """Fortran-ordered, transposed and strided inputs read the bits of their C-ordered copies."""

    @staticmethod
    def layouts(a):
        """Three arrays equal to a, none of them C-contiguous."""
        big = np.zeros((2 * len(a), 2 * len(a)), dtype=np.complex128)
        big[::2, ::2] = a
        odd = [np.asfortranarray(a), a.T.copy().T, big[::2, ::2]]
        assert all(np.array_equal(x, a) and not x.flags.c_contiguous for x in odd)
        return odd

    @staticmethod
    def grams(n):
        """Complex PSD Grams of order n from default_rng(1): of full rank and of rank n // 2."""
        rng = np.random.default_rng(1)
        return [complex_gram(rng, rows, n) for rows in (n, n // 2)]

    @pytest.mark.parametrize("n", [3, 12, 24])
    def test_every_entry_point_reads_the_c_bits(self, monkeypatch, n):
        judged = []
        real = matcore._psd_class

        def judging(vals, tau_rel):
            judged.append(vals)
            return real(vals, tau_rel)

        monkeypatch.setattr(matcore, "_psd_class", judging)
        fallbacks = 0
        for a in self.grams(n):
            want = stack_eigvals(a[None])[0].tobytes()
            dec = eig_hermitian(a)
            matcore._MEMO.clear()
            assert eigvals_hermitian(a).tobytes() == want
            judged.clear()
            verdict = matcore.is_psd(a)
            solved = [vals.tobytes() for vals in judged]  # is_psd's fallback solve, if any
            assert solved in ([], [want])
            fallbacks += len(solved)
            for x in self.layouts(a):
                assert stack_eigvals(x[None])[0].tobytes() == want
                odd = eig_hermitian(x)
                assert odd.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
                assert odd.eigenvectors.tobytes() == dec.eigenvectors.tobytes()
                matcore._MEMO.clear()
                assert eigvals_hermitian(x).tobytes() == want
                judged.clear()
                assert matcore.is_psd(x) is verdict
                assert [vals.tobytes() for vals in judged] == solved
        assert fallbacks == 1  # the rank-deficient Gram is solved, the full-rank one proved

    def test_a_fortran_ordered_stack(self):
        mats = self.grams(12)
        want = stack_eigvals(np.array(mats))
        stack = np.asfortranarray(np.array(mats))
        assert not stack.flags.c_contiguous
        assert stack_eigvals(stack).tobytes() == want.tobytes()

    def test_out_of_band_fortran_stack(self):
        m = np.diag([1e300, 2e300, 3e300]).astype(np.complex128)
        m[0, 1] = m[1, 0] = 1e299
        want = stack_eigvals(m[None]).tobytes()
        assert stack_eigvals(np.asfortranarray(m)[None]).tobytes() == want


class TestOutOfBandNorms:
    """Blocks whose squared norm overflows or underflows, scaled by a power of two."""

    KINDS = ("complex", "psd_rank_deficient", "real")

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    @pytest.mark.parametrize("m", range(3, 9))
    def test_stack_and_single_match_lapack(self, m, scale):
        rng = np.random.default_rng(950 + m)
        blocks = np.array([TestStackEigvals.block(rng, kind, m) for kind in self.KINDS])
        vals = stack_eigvals(blocks * scale)
        for blk, row in zip(blocks, vals):
            assert row.tobytes() == stack_eigvals((blk * scale)[None])[0].tobytes()
            ref = np.linalg.eigvalsh(blk * scale)[::-1]
            assert np.max(np.abs(row - ref)) <= 1e-12 * scale * np.linalg.norm(blk)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_large_stack_mixes_in_and_out_of_band(self, monkeypatch, m):
        """In-band blocks and blocks scaled by 1e+-200, in a stack _stack_sweep sweeps."""
        rng = np.random.default_rng(970 + m)
        blocks = np.array(
            [
                TestStackEigvals.block(rng, kind, m) * scale
                for _ in range(2)
                for kind in self.KINDS
                for scale in (1.0, 1e200, 1e-200)
            ]
        )
        assert len(blocks) > matcore.LOCKSTEP_MAX
        real, swept = matcore._stack_sweep, []

        def counting(w, skip_tol):
            swept.append(len(w))
            real(w, skip_tol)

        monkeypatch.setattr(matcore, "_stack_sweep", counting)
        vals = stack_eigvals(blocks)
        assert swept[0] == len(blocks)
        for blk, row in zip(blocks, vals):
            assert row.tobytes() == stack_eigvals(blk[None])[0].tobytes()

    @pytest.mark.parametrize("shift", [-700, -530, 520, 700])
    def test_power_of_two_scaling_is_exact(self, shift):
        """A block with largest part in [1/2, 1), times 2^k: its spectrum times 2^k."""
        rng = np.random.default_rng(960)
        for m in range(3, 9):
            blk = random_hermitian(rng, m)
            blk /= 2.0 ** math.frexp(np.abs(blk.view(np.float64)).max())[1]
            scaled = blk * 2.0**shift
            norm = np.linalg.norm(blk) * 2.0**shift
            assert not matcore.NORM_BAND[0] <= norm <= matcore.NORM_BAND[1]
            expected = stack_eigvals(blk[None])[0] * 2.0**shift
            assert stack_eigvals(scaled[None])[0].tobytes() == expected.tobytes()
            dec, ref = eig_hermitian(scaled), eig_hermitian(blk)
            assert dec.eigenvalues.tobytes() == (ref.eigenvalues * 2.0**shift).tobytes()
            assert dec.eigenvectors.tobytes() == ref.eigenvectors.tobytes()

    @pytest.mark.parametrize("diag", [(1.7e308, 1.7e308), (1e308, -1e308)])
    def test_order_two_diagonals_near_the_largest_double(self, diag):
        """Their diagonal sum or difference overflows unless solved inside the band."""
        assert stack_eigvals(np.diag(diag)[None])[0].tolist() == list(diag)

    @pytest.mark.parametrize("shift", [-700, -401, -400, -399, 0, 499, 500, 501, 1020])
    def test_order_two_power_of_two_scaling_is_exact(self, shift):
        """A 2x2 block with largest part in [1/2, 1), times 2^k: its spectrum times 2^k.

        The shifts take the blocks' norms, in [1/2, 4), across both edges of
        NORM_BAND; one stack of them all reads each block's lone solve.
        """
        rng = np.random.default_rng(962)
        blocks = []
        for _ in range(12):
            blk = random_hermitian(rng, 2)
            blk /= 2.0 ** math.frexp(np.abs(blk.view(np.float64)).max())[1]
            blocks.append(blk * 2.0**shift)
            expected = stack_eigvals(blk[None])[0] * 2.0**shift
            assert stack_eigvals(blocks[-1][None])[0].tobytes() == expected.tobytes()
        vals = stack_eigvals(np.array(blocks))
        for blk, row in zip(blocks, vals):
            assert row.tobytes() == stack_eigvals(blk[None])[0].tobytes()

    def test_definiteness_above_the_band(self):
        k = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        for scale in (1e160, 1e200):
            assert classify_psd(k * scale).kind is PsdKind.INDEFINITE
            assert not matcore.is_psd(k * scale)
            assert classify_psd(A * scale).kind is PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
            assert matcore.is_psd(A * scale)


def reference_scalar_sweep(w, skip_tol, v):
    """The copy-and-assign sweep that the in-place rotation replaced, kept frozen.

    Each pair of columns or rows is copied out and assigned back from
    fresh products, with each complex coefficient the left operand.
    """
    n = w.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = w[p, q]
            r = abs(apq)
            if r <= skip_tol:
                continue
            phase = apq / r
            app = w[p, p].real
            aqq = w[q, q].real
            tau = (aqq - app) / (2.0 * r)
            t = -math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            col_p = w[:, p].copy()
            col_q = w[:, q].copy()
            w[:, p] = c * col_p + s * np.conj(phase) * col_q
            w[:, q] = -s * phase * col_p + c * col_q
            row_p = w[p, :].copy()
            row_q = w[q, :].copy()
            w[p, :] = c * row_p + s * phase * row_q
            w[q, :] = -s * np.conj(phase) * row_p + c * row_q
            w[p, q] = 0.0
            w[q, p] = 0.0
            w[p, p] = w[p, p].real
            w[q, q] = w[q, q].real
            if v is not None:
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp + s * np.conj(phase) * vq
                v[:, q] = -s * phase * vp + c * vq


def reference_solve(a, vectors):
    """(eigenvalues, eigenvector columns or None) of the reference sweep, unsorted.

    reference_scalar_sweep driven sweep by sweep under _jacobi's
    convergence test, for one matrix whose norm lies in NORM_BAND.
    """
    w = np.array(a, dtype=np.complex128)[None]
    n = w.shape[1]
    v = np.eye(n, dtype=np.complex128) if vectors else None
    fro = matcore._frobenius(w)
    assert matcore.NORM_BAND[0] <= fro[0] <= matcore.NORM_BAND[1]
    off_tol = matcore.JACOBI_OFF_REL * fro
    skip_tol = off_tol / n
    for _ in range(matcore.JACOBI_MAX_SWEEPS):
        if matcore._off_mass(w)[0] <= off_tol[0]:
            return w[0].diagonal().real.copy(), v
        reference_scalar_sweep(w[0], float(skip_tol[0]), v)
    raise AssertionError("the reference sweep did not converge")


class TestScalarSweepReference:
    """The solver against the frozen reference loop, bit for bit, alone and in lockstep stacks."""

    KINDS = ("complex", "real", "near_hermitian", "diagonal", "ones", "huge", "tiny")
    # Every kind at every order up to 12 and at 16 and 17; the larger
    # orders, the costliest cases, get the two dense complex kinds only.
    ORDERS = (*range(3, 13), 16, 17, 24, 33, 40)
    LARGE_KINDS = ("complex", "near_hermitian")

    @staticmethod
    def matrix(rng, kind, n):
        if kind == "real":
            return random_hermitian(rng, n).real.astype(np.complex128)
        if kind == "near_hermitian":
            # Within the carrier's 1e-12 symmetry tolerance, not exactly Hermitian.
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return random_hermitian(rng, n) + 1e-14 * noise
        if kind == "diagonal":
            return np.diag(rng.normal(size=n)).astype(np.complex128)
        if kind == "ones":
            return np.ones((n, n), dtype=np.complex128)
        scale = {"complex": 1.0, "huge": 1e100, "tiny": 1e-100}[kind]
        return random_hermitian(rng, n, scale)

    @staticmethod
    def assert_bits(x, y, where):
        bits = np.ascontiguousarray(x).view(np.uint64)
        assert np.array_equal(bits, np.ascontiguousarray(y).view(np.uint64)), where

    @pytest.mark.parametrize("n", ORDERS)
    def test_spectra_match_the_reference(self, n):
        rng = np.random.default_rng(960 + n)
        mats = [self.matrix(rng, kind, n) for kind in self.kinds(n)]
        for kind, a in zip(self.kinds(n), mats):
            diag, v = reference_solve(a, vectors=True)
            order = np.argsort(-diag, kind="stable")
            dec = eig_hermitian(a)
            self.assert_bits(dec.eigenvalues, diag[order], (kind, n))
            self.assert_bits(dec.eigenvectors, v[:, order], (kind, n))
            self.assert_bits(stack_eigvals(a[None])[0], np.sort(diag)[::-1], (kind, n))
        # Every kind of this order in one stack, at most LOCKSTEP_MAX blocks:
        # some rotate at a step and some skip it, and some leave early.
        assert len(mats) <= matcore.LOCKSTEP_MAX
        for kind, a, row in zip(self.kinds(n), mats, stack_eigvals(np.array(mats))):
            self.assert_bits(row, np.sort(reference_solve(a, vectors=False)[0])[::-1], (kind, n))

    def kinds(self, n):
        return self.KINDS if n <= 17 else self.LARGE_KINDS

    @staticmethod
    def dense_pair(rng, n):
        """As the dense benchmark draws them: a PSD Gram of rank n // 2, and
        its entrywise product with a full-rank PSD Gram of 2n rows."""
        a, b = (complex_gram(rng, rows, n) for rows in (n // 2, 2 * n))
        return a, a * b

    @pytest.mark.parametrize("n", ORDERS)
    def test_dense_kinds_match_the_reference(self, n):
        """Alone and as one stack of the two, where at some orders one block leaves
        a sweep before the other, and where late steps turn one block only."""
        mats = self.dense_pair(np.random.default_rng(1960 + n), n)
        want = [np.sort(reference_solve(a, vectors=False)[0])[::-1] for a in mats]
        kinds = ("rank_deficient", "product")
        for kind, a, row in zip(kinds, mats, want):
            self.assert_bits(stack_eigvals(a[None])[0], row, (kind, n))
        for kind, got, row in zip(kinds, stack_eigvals(np.array(mats)), want):
            self.assert_bits(got, row, (kind, n, "stacked"))


def lapack_least(block, uplo="L"):
    return float(np.linalg.eigvalsh(block, UPLO=uplo)[0])


COMPLEX_KINDS = ["imaginary", "imaginary-dominated", "near-hermitian"]


def complex_blocks(rng, m, kind, sign, count=6):
    """Blocks of order m whose least eigenvalue has the given sign.

    Its size runs from 1e-6 to 0.5 of the spectrum's width. Off-diagonals
    are purely imaginary, or with real parts 1e-3 of the imaginary ones,
    or general: the near-hermitian blocks carry an asymmetry that
    HermitianMatrix accepts, so the screen reads their lower triangle and
    the upper one differs in its last bits.
    """
    re, im = rng.normal(size=(2, count, m, m))
    weight = {"imaginary": 0.0, "imaginary-dominated": 1e-3, "near-hermitian": 1.0}[kind]
    h = weight * re + 1j * im
    h = (h + h.conj().transpose(0, 2, 1)) / 2.0
    vals = np.linalg.eigvalsh(h)
    least = sign * np.logspace(-6, math.log10(0.5), count) * (vals[:, -1] - vals[:, 0])
    h = h + (least - vals[:, 0])[:, None, None] * np.eye(m)
    if kind == "near-hermitian":
        noise = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        h = h + 1e-14 * np.abs(h).max() * noise
        h = np.array([HermitianMatrix(b).entries for b in h])  # each passes the symmetry test
        assert not np.array_equal(h, h.conj().transpose(0, 2, 1))
    return h


def lapack_least_both(stack):
    """Per block: the least eigenvalue by LAPACK over its lower and its upper reading."""
    return np.array([min(lapack_least(b, "L"), lapack_least(b, "U")) for b in stack])


class TestClearsFloor:
    """The Cholesky screen against the LAPACK oracle: a cleared block lies above its floor."""

    @staticmethod
    def sound(stack, floor):
        """clears_floor's mask, after checking every cleared block against eigvalsh."""
        stack = np.asarray(stack, dtype=np.complex128)
        floors = np.broadcast_to(np.asarray(floor, dtype=float), (len(stack),))
        mask = matcore.clears_floor(stack, floors)
        assert mask.dtype == bool and mask.shape == (len(stack),)
        for block, f in zip(stack[mask], floors[mask]):
            assert min(lapack_least(block, "L"), lapack_least(block, "U")) > f
        return mask

    @staticmethod
    def blocks(rng, m, kind):
        f = rng.normal(size=(m, m + 2)) + 1j * rng.normal(size=(m, m + 2))
        if kind == "real":
            f = f.real
        if kind == "indefinite":
            return (f @ f.conj().T - 2.0 * np.eye(m)).astype(np.complex128)
        return (f @ f.conj().T).astype(np.complex128)

    @pytest.mark.parametrize("kind", ["complex", "real", "indefinite"])
    def test_seeded_blocks_around_their_least_eigenvalue(self, kind):
        rng = np.random.default_rng(1500)
        for m in range(3, 9):
            stack = np.array([self.blocks(rng, m, kind) for _ in range(12)])
            least = np.array([lapack_least(b) for b in stack])
            for rel in (0.0, 2.0**-52, 1e-12, 1e-6):
                assert not self.sound(stack, least + rel * np.abs(least)).any()
            for rel in (2.0**-52, 1e-15, 1e-12, 1e-6):
                self.sound(stack, least - rel * np.abs(least))
            if kind != "indefinite":
                # Well-conditioned blocks clear half their least eigenvalue.
                assert self.sound(stack, 0.5 * least).all()

    def test_generic_well_conditioned_blocks_clear(self):
        rng = np.random.default_rng(1501)
        for m in range(3, 12):
            h = np.array([random_hermitian(rng, m) for _ in range(20)])
            stack = np.eye(m) + 0.1 * h / np.linalg.norm(h, axis=(1, 2))[:, None, None]
            assert self.sound(stack, 0.5).all()
            assert self.sound(stack, 0.0).all()

    def test_exact_ties_at_the_floor(self):
        for m in range(3, 8):
            assert not self.sound(np.eye(m)[None], 1.0).any()
            assert self.sound(np.eye(m)[None], 0.999).all()
            for f in (1e-3, 0.25, 2.0, 7.0):
                block = np.diag(np.linspace(f, 9.0, m))[::-1, ::-1]
                assert np.min(np.diag(block)) == f
                assert not self.sound(block[None], f).any()
                # A unitary similarity moves the tie by rounding only.
                q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(m), m))
                self.sound((q @ block @ q.conj().T)[None], f)

    def test_rank_deficient_grams_and_repeated_columns(self):
        rng = np.random.default_rng(1502)
        for m in range(3, 9):
            x = rng.normal(size=(m - 1, m)) + 1j * rng.normal(size=(m - 1, m))
            y = rng.normal(size=(m + 3, m)) + 1j * rng.normal(size=(m + 3, m))
            y[:, m - 1] = y[:, 0]
            stack = np.array([x.conj().T @ x, y.conj().T @ y, x.real.T @ x.real])
            for floor in (0.0, 1e-300, 1e-12):
                assert not self.sound(stack, floor).any()

    def test_near_hermitian_carriers(self):
        rng = np.random.default_rng(1503)
        for m in range(3, 9):
            stack = []
            for _ in range(8):
                noise = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                carrier = HermitianMatrix(self.blocks(rng, m, "complex") + 1e-13 * noise)
                stack.append(carrier.entries)
            stack = np.array(stack)
            assert not np.array_equal(stack, stack.conj().transpose(0, 2, 1))
            least = np.array([min(lapack_least(b, "L"), lapack_least(b, "U")) for b in stack])
            assert not self.sound(stack, least).any()
            assert self.sound(stack, 0.5 * least).all()

    @pytest.mark.parametrize("e", [300, -300])
    def test_scaled_blocks(self, e):
        rng = np.random.default_rng(1504)
        stack = np.array([self.blocks(rng, 6, "complex") for _ in range(10)])
        least = np.array([lapack_least(b) for b in stack])
        scaled = np.ldexp(stack.view(float), e).view(np.complex128)
        for floor in (least, 0.5 * least, least * (1.0 - 1e-9)):
            assert np.array_equal(
                self.sound(scaled, np.ldexp(floor, e)), self.sound(stack, floor)
            )
        assert self.sound(scaled, np.ldexp(0.5 * least, e)).all()

    @pytest.mark.parametrize("kind", COMPLEX_KINDS)
    def test_complex_off_diagonals_orders_3_to_12(self, kind):
        """Floors of both signs around a positive least eigenvalue, the blocks scaled by 2^k."""
        rng = np.random.default_rng(1505 + COMPLEX_KINDS.index(kind))
        for m in range(3, 13):
            stack = complex_blocks(rng, m, kind, 1.0)
            least = lapack_least_both(stack)
            fro = np.linalg.norm(stack, axis=(1, 2))
            for e in (-60, 0, 60):
                scaled = np.ldexp(stack.view(float), e).view(np.complex128)
                for rel in (0.0, 2.0**-52, 1e-12, 1e-6):
                    assert not self.sound(scaled, np.ldexp(least + rel * fro, e)).any()
                for rel in (2.0**-52, 1e-15, 1e-12):
                    self.sound(scaled, np.ldexp(least - rel * fro, e))
                for rel in (1e-9, 1e-6, 1.0):  # the last floor is below zero
                    assert self.sound(scaled, np.ldexp(least - rel * fro, e)).all()

    def test_factor_holds_the_shifted_block(self):
        rng = np.random.default_rng(1506)
        for m in range(3, 9):
            stack = np.array([self.blocks(rng, m, "complex") for _ in range(5)])
            floor = 0.5 * np.array([lapack_least(b) for b in stack])
            least, factor = matcore.least_pivots(stack, floor)
            assert np.all(least > 0.0) and factor.shape == (m, m, 5)
            low = np.tril(factor.transpose(2, 0, 1), -1)
            pivots = factor.transpose(2, 0, 1).diagonal(axis1=1, axis2=2).real
            assert np.array_equal(least, pivots.min(axis=1))
            lf = low + np.sqrt(pivots)[:, :, None] * np.eye(m)
            prod = lf @ lf.conj().transpose(0, 2, 1)
            fro = np.linalg.norm(stack, axis=(1, 2))[:, None, None]
            off = ~np.eye(m, dtype=bool)
            assert np.all(np.abs(prod - stack)[:, off] <= 1e-13 * fro[:, :, 0])
            # The diagonal is shifted by one sigma per block, a little above the floor.
            shift = (stack - prod).diagonal(axis1=1, axis2=2).real
            assert np.all(shift.T > floor) and np.all(np.ptp(shift, axis=1) <= 1e-13 * fro[:, 0, 0])

    @pytest.mark.parametrize("e", [600, -600])
    def test_blocks_outside_the_norm_band_are_never_cleared(self, e):
        stack = np.ldexp(np.eye(5), e)[None]
        assert not matcore.clears_floor(stack, 0.0).any()

    def test_orders_one_and_two_are_never_cleared(self):
        for m in (1, 2):
            assert not matcore.clears_floor(np.eye(m)[None], 0.0).any()
        assert matcore.clears_floor(np.eye(3)[:0], 0.0).shape == (0,)

    def test_a_stack_no_cholesky_clears_is_neither_normed_nor_factored(self, monkeypatch):
        normed = []
        real = matcore._frobenius
        monkeypatch.setattr(matcore, "_frobenius", lambda w: normed.append(len(w)) or real(w))
        for m, k in ((1, 4), (2, 4), (2, 0), (3, 0)):
            least, factor = matcore.least_pivots(np.broadcast_to(np.eye(m), (k, m, m)), 0.0)
            assert np.array_equal(least, np.full(k, -np.inf))
            assert factor.shape == (m, m, k) and not factor.any()
        assert normed == []
        assert matcore.clears_floor(np.eye(3)[None], 0.0).all()
        assert normed == [1, 1]  # the norm and the deviation of one order-3 block


class TestNegativeFloors:
    """A floor below zero raises the shifted diagonal by |floor|, and Rump's constant with it.

    Blocks whose least eigenvalue is negative clear a floor below it, and
    never one at or above it.
    """

    sound = staticmethod(TestClearsFloor.sound)

    @pytest.mark.parametrize("kind", ["hermitian", "centred gram", "hollow"])
    def test_against_eigvalsh(self, kind):
        rng = np.random.default_rng(1510)
        for m in range(3, 9):
            stack = np.array([random_hermitian(rng, m) for _ in range(12)])
            if kind == "centred gram":  # trace zero, so lambda_min < 0
                stack = np.array([TestClearsFloor.blocks(rng, m, "complex") for _ in range(12)])
                mean = np.trace(stack, axis1=1, axis2=2).real / m
                stack -= mean[:, None, None] * np.eye(m)
            elif kind == "hollow":  # a zero diagonal: the shift |floor| is all of S's diagonal
                stack[:, np.arange(m), np.arange(m)] = 0.0
            least = np.array([lapack_least(b) for b in stack])
            fro = np.linalg.norm(stack, axis=(1, 2))
            assert np.all(least < 0.0)
            for rel in (0.0, 2.0**-52, 1e-12, 1e-6):
                assert not self.sound(stack, least + rel * fro).any()
            for rel in (2.0**-52, 1e-15, 1e-12):
                self.sound(stack, least - rel * fro)
            for rel in (1e-9, 1e-6, 1.0, 1e6):
                assert self.sound(stack, least - rel * fro).all()

    @pytest.mark.parametrize("kind", COMPLEX_KINDS)
    def test_complex_off_diagonals_orders_3_to_12(self, kind):
        """Negative floors around a negative least eigenvalue, the blocks scaled by 2^k."""
        rng = np.random.default_rng(1512 + COMPLEX_KINDS.index(kind))
        for m in range(3, 13):
            stack = complex_blocks(rng, m, kind, -1.0)
            least = lapack_least_both(stack)
            fro = np.linalg.norm(stack, axis=(1, 2))
            assert np.all(least < 0.0)
            for e in (-60, 0, 60):
                scaled = np.ldexp(stack.view(float), e).view(np.complex128)
                for rel in (0.0, 2.0**-52, 1e-12, 1e-6):
                    assert not self.sound(scaled, np.ldexp(least + rel * fro, e)).any()
                for rel in (2.0**-52, 1e-15, 1e-12):
                    self.sound(scaled, np.ldexp(least - rel * fro, e))
                for rel in (1e-9, 1e-6, 1.0, 1e6):
                    assert self.sound(scaled, np.ldexp(least - rel * fro, e)).all()

    def test_exact_ties_below_zero(self):
        for m in range(3, 8):
            for f in (-1e-3, -0.25, -2.0, -7.0):
                block = np.diag(np.linspace(f, 9.0, m))
                assert not self.sound(block[None], f).any()
                assert self.sound(block[None], f - 1e-9 * np.linalg.norm(block)).all()
                q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(m), m))
                self.sound((q @ block @ q.conj().T)[None], f)

    @pytest.mark.parametrize("e", [300, -300])
    def test_scaled_blocks(self, e):
        rng = np.random.default_rng(1511)
        stack = np.array([random_hermitian(rng, 6) for _ in range(10)])
        least = np.array([lapack_least(b) for b in stack])
        scaled = np.ldexp(stack.view(float), e).view(np.complex128)
        for floor in (least, least * (1.0 + 1e-9), 2.0 * least):
            assert np.array_equal(
                self.sound(scaled, np.ldexp(floor, e)), self.sound(stack, floor)
            )
        assert self.sound(scaled, np.ldexp(2.0 * least, e)).all()

    def test_far_below_and_overflowing_floors(self):
        stack = np.array([np.diag([-1.0, 2.0, 3.0]), np.eye(3)])
        assert self.sound(stack, -1e300).all()
        # |floor| N overflows Rump's constant, so nothing is proved.
        assert not self.sound(stack, -1.7e308).any()


class TestRayleighGuesses:
    """Inverse iteration on the screen's factor: a quotient in the spectrum, near its bottom."""

    def test_quotients_lie_in_the_spectrum(self):
        rng = np.random.default_rng(1520)
        for m in range(3, 10):
            stack = np.array([random_hermitian(rng, m) for _ in range(10)])
            vals = np.linalg.eigvalsh(stack)
            fro = np.linalg.norm(stack, axis=(1, 2))
            for floor in (vals[:, 0] - 0.5, -fro.max()):
                least, factor = matcore.least_pivots(stack, floor)
                assert np.all(least > 0.0)
                q = matcore.rayleigh_guesses(stack, factor)
                assert np.all(q >= vals[:, 0] - 1e-13 * fro)
                assert np.all(q <= vals[:, -1] + 1e-13 * fro)

    def test_a_separated_least_eigenvalue_is_found(self):
        rng = np.random.default_rng(1521)
        for m in range(3, 10):
            spectrum = np.linspace(1.0, 20.0, m) ** 2  # lambda_2 / lambda_1 above 5
            q_mats = [np.linalg.qr(random_hermitian(rng, m))[0] for _ in range(6)]
            stack = np.array([(u * spectrum) @ u.conj().T for u in q_mats])
            least, factor = matcore.least_pivots(stack, 0.0)
            guesses = matcore.rayleigh_guesses(stack, factor)
            assert np.all(np.abs(guesses - 1.0) <= 1e-3 * spectrum[-1])

    def test_a_failed_factor_reads_nan(self):
        stack = np.array([np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 3.0, 2.0])], dtype=complex)
        least, factor = matcore.least_pivots(stack, 0.0)
        assert least[0] == -np.inf and least[1] > 0.0
        guesses = matcore.rayleigh_guesses(stack, factor)
        assert np.isnan(guesses[0]) and 1.0 <= guesses[1] < 1.1


def test_tol_for_is_relative_with_no_floor():
    assert tol_for(0.0) == 0.0
    assert tol_for(0.5) == 5e-10
    assert tol_for(-3.0) == 0.0
    assert tol_for(100.0) == pytest.approx(1e-7, rel=1e-12)
    assert tol_for(2.0, 1e-3) == pytest.approx(2e-3, rel=1e-12)
    np.testing.assert_array_equal(
        tol_for(np.array([-1.0, 0.0, 0.5, 2.0])), [0.0, 0.0, 5e-10, 2e-9]
    )
