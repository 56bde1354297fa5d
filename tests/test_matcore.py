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
    block_eigvals,
    classify_psd,
    eig_hermitian,
    eigvals_hermitian,
    hadamard,
    is_orthogonal_projection,
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
            single = block_eigvals(blk)
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

    def test_lone_live_block_takes_the_scalar_sweep(self, monkeypatch):
        """Once one block is live, the scalar kernel sweeps it, with the same bits."""
        rng = np.random.default_rng(945)
        m = 6
        near_diagonal = np.diag(rng.normal(size=m)) + 1e-6 * random_hermitian(rng, m)
        stack = np.array([
            self.block(rng, "zero", m),
            self.block(rng, "diagonal", m),
            near_diagonal,
            random_hermitian(rng, m),
        ])
        sweeps = []
        stack_sweep, scalar_sweep = matcore._stack_sweep, matcore._scalar_sweep

        def counting_stack(w, skip_tol):
            sweeps.append(("stack", w.shape[0]))
            return stack_sweep(w, skip_tol)

        def counting_scalar(w, skip_tol, v):
            sweeps.append(("scalar", 1))
            return scalar_sweep(w, skip_tol, v)

        monkeypatch.setattr(matcore, "_stack_sweep", counting_stack)
        monkeypatch.setattr(matcore, "_scalar_sweep", counting_scalar)
        vals = stack_eigvals(stack)
        kinds = [kind for kind, _ in sweeps]
        # The zero and diagonal blocks leave before the first sweep; the
        # near-diagonal block a few sweeps before the dense one.
        assert set(sweeps) == {("stack", 2), ("scalar", 1)}
        assert kinds == sorted(kinds, key=["stack", "scalar"].index)
        for i, blk in enumerate(stack):
            assert vals[i].tobytes() == block_eigvals(blk).tobytes()

    def test_sweep_cap_raises_the_same_error(self, monkeypatch):
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(940)
        a = random_hermitian(rng, 7)
        stack = np.array([a[np.ix_(s, s)] for s in itertools.combinations(range(7), 4)])
        with pytest.raises(ConvergenceError) as single:
            block_eigvals(stack[0])
        with pytest.raises(ConvergenceError) as stacked:
            stack_eigvals(stack)
        with pytest.raises(ConvergenceError) as scan:
            min_submatrix_eigenvalue(a, 4)
        assert str(single.value) == str(stacked.value) == str(scan.value)
        assert "1 sweeps" in str(scan.value)


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
            assert row.tobytes() == block_eigvals(blk * scale).tobytes()
            ref = np.linalg.eigvalsh(blk * scale)[::-1]
            assert np.max(np.abs(row - ref)) <= 1e-12 * scale * np.linalg.norm(blk)

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
            expected = block_eigvals(blk) * 2.0**shift
            assert block_eigvals(scaled).tobytes() == expected.tobytes()
            dec, ref = eig_hermitian(scaled), eig_hermitian(blk)
            assert dec.eigenvalues.tobytes() == (ref.eigenvalues * 2.0**shift).tobytes()
            assert dec.eigenvectors.tobytes() == ref.eigenvectors.tobytes()

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


class TestScalarSweepReference:
    """The in-place scalar sweep against the frozen reference loop, bit for bit."""

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
    def solves(a):
        dec = eig_hermitian(a)
        return dec.eigenvalues, dec.eigenvectors, block_eigvals(a)

    @pytest.mark.parametrize("n", ORDERS)
    def test_spectra_match_the_reference(self, monkeypatch, n):
        rng = np.random.default_rng(960 + n)
        for kind in self.KINDS if n <= 17 else self.LARGE_KINDS:
            a = self.matrix(rng, kind, n)
            got = self.solves(a)
            with monkeypatch.context() as patched:
                patched.setattr(matcore, "_scalar_sweep", reference_scalar_sweep)
                want = self.solves(a)
            for x, y in zip(got, want):
                bits = np.ascontiguousarray(x).view(np.uint64)
                assert np.array_equal(bits, np.ascontiguousarray(y).view(np.uint64)), (kind, n)


def test_tol_for_has_absolute_floor():
    assert tol_for(0.0) == 1e-9
    assert tol_for(0.5) == 1e-9
    assert tol_for(100.0) == pytest.approx(1e-7, rel=1e-12)
    assert tol_for(2.0, 1e-3) == pytest.approx(2e-3, rel=1e-12)
