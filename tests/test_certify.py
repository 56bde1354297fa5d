"""Bound reports, certificates, and the bordered projection split.

The running golden pair A, B has closed-form spectra, so the expected
report fields below are exact algebraic values, not regression snapshots.
Oracle checks in the property loops use numpy's eigensolver.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest

from hadabound.certify import (
    classical_bound,
    decompose_projection,
    indefinite_certificate,
    loewner_check,
    nonsingularity_predicate,
    projection_certificate,
    quantitative_bound,
    shift_construction,
)
from hadabound.errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    NotProjectionError,
    NotPsdError,
    ZeroMatrixError,
)
from hadabound import matcore
from hadabound.apps import CpScenario, DoaScenario, cp_bound, doa_bound
from hadabound.generators import random_doa_scenario, random_psd_with_kruskal
from hadabound.matcore import PsdKind, classify_psd, hadamard
from hadabound.submatrix import (
    effective_condition_number,
    floor_mu,
    kruskal_rank,
    min_submatrix_eigenvalue,
)

A = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
B = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
C = np.array([[8.0, 7.0, 0.0], [7.0, 8.0, 4.0], [0.0, 4.0, 8.0]])
P = np.array(
    [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
) / 3.0

MU2_A = (3.0 - math.sqrt(5.0)) / 2.0
KAPPA_B = 3.0 + 2.0 * math.sqrt(2.0)


def random_psd(rng, n, r):
    f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    return f @ f.conj().T


def random_projection(rng, n, r):
    if r == 0:
        return np.zeros((n, n), dtype=np.complex128)
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(f)
    return q[:, :r] @ q[:, :r].conj().T


class TestClassicalBound:
    def test_vacuous_for_singular_first_factor(self):
        assert classical_bound(A, B) == pytest.approx(0.0, abs=1e-12)

    def test_nonsingular_first_factor(self):
        assert classical_bound(np.eye(3), B) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            classical_bound(C, B)
        with pytest.raises(NotPsdError):
            classical_bound(A, C)

    def test_holds_against_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a = random_psd(rng, n, int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, int(rng.integers(1, n + 1)))
            value = classical_bound(a, b)
            lam = float(np.linalg.eigvalsh(a * b)[0])
            assert value <= lam + 1e-8


class TestLoewnerCheck:
    def test_ordering_boundary(self):
        prod = hadamard(A, B)
        lam = float(np.linalg.eigvalsh(np.asarray(prod))[0])
        assert loewner_check(prod, lam, np.eye(3))
        assert not loewner_check(prod, lam + 1e-3, np.eye(3))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            loewner_check(A, 1.0, np.eye(2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stopped_solve_agrees_with_the_full_spectrum(self, n):
        """Shifts on both sides of the PSD threshold, and within rounding of it."""
        rng = np.random.default_rng(470 + n)
        d = matcore.HermitianMatrix(np.eye(n))
        for _ in range(4):
            f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = matcore.HermitianMatrix((f + f.conj().T) / 2.0 * 10.0 ** rng.uniform(-3, 3))
            vals = np.linalg.eigvalsh(m.entries)
            tau = 1e-9 * max(1.0, float(vals[-1] - vals[0]))
            for c in vals[0] + tau * np.array([-1e3, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 1e3]):
                diff = matcore.HermitianMatrix(m.entries - float(c) * d.entries)
                assert loewner_check(m, c, d) is classify_psd(diff).is_psd


class TestQuantitativeBound:
    def test_golden_report(self):
        rep = quantitative_bound(A, B)
        assert rep.n == 3
        assert rep.r_b == 2
        assert rep.mu == pytest.approx(MU2_A, abs=1e-9)
        assert rep.kappa_eff == pytest.approx(KAPPA_B, abs=1e-9)
        assert rep.min_diag == 1.0
        assert rep.classical_bound == pytest.approx(0.0, abs=1e-12)
        assert rep.quantitative_bound == pytest.approx(MU2_A / KAPPA_B, abs=1e-9)
        assert rep.actual_lambda_min == pytest.approx(
            (5.0 - math.sqrt(17.0)) / 2.0, abs=1e-9
        )
        assert rep.loewner_verified
        assert rep.margin == pytest.approx(
            rep.actual_lambda_min - rep.quantitative_bound, abs=1e-15
        )

    def test_beats_classical_on_singular_input(self):
        rep = quantitative_bound(A, B)
        assert rep.quantitative_bound > rep.classical_bound
        assert rep.quantitative_bound <= rep.actual_lambda_min + 1e-12

    def test_identity_second_factor_is_tight(self):
        # With B = I the floor collapses to the smallest diagonal entry of
        # A, which equals lambda_min(A o I) exactly.
        rep = quantitative_bound(A, np.eye(3))
        assert rep.r_b == 3
        assert rep.kappa_eff == pytest.approx(1.0, abs=1e-12)
        assert rep.quantitative_bound == pytest.approx(rep.actual_lambda_min, abs=1e-12)

    def test_flat_second_factor_recovers_classical(self):
        # B = all-ones has effective condition number 1 and rank 1, so the
        # floor degrades to lambda_min(A), the classical value.
        rep = quantitative_bound(A, np.ones((3, 3)))
        assert rep.r_b == 1
        assert rep.kappa_eff == pytest.approx(1.0, abs=1e-12)
        assert rep.quantitative_bound == pytest.approx(rep.classical_bound, abs=1e-12)

    def test_rejects_indefinite_and_zero(self):
        with pytest.raises(NotPsdError):
            quantitative_bound(C, B)
        with pytest.raises(ZeroMatrixError):
            quantitative_bound(A, np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            quantitative_bound(A, np.eye(2))

    def test_floor_and_verification_on_random_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = random_psd(rng, n, int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, int(rng.integers(1, n + 1)))
            rep = quantitative_bound(a, b)
            assert rep.loewner_verified
            assert rep.quantitative_bound <= rep.actual_lambda_min + 1e-8
            lam = float(np.linalg.eigvalsh(a * b)[0])
            assert rep.quantitative_bound <= lam + 1e-8

    def test_diagonal_of_an_accepted_b_is_not_checked_again(self):
        """diag(B) has a smaller largest entry than B, so B's accepted asymmetry exceeds its tol.

        B is PSD and singular; its b00's imaginary part puts B's asymmetry
        just under the symmetry tolerance at B's scale, and above it at
        diag(B)'s.
        """
        b = np.array([[1.0 + 5.000000005e-13j, 1.000000001], [1.000000001, 1.0]])
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert classify_psd(b).kind is PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
        assert quantitative_bound(a, b).loewner_verified


class TestNonsingularityPredicate:
    def test_golden_pair_holds(self):
        check = nonsingularity_predicate(A, B)
        assert check.holds
        assert check.kruskal_rank_a == 2
        assert check.rank_b == 2
        assert check.min_diag_b == 1.0
        assert "Kruskal rank 2 >= 2" in check.reason
        # The conclusion it certifies: A o B is positive definite.
        assert classify_psd(hadamard(A, B)).kind is PsdKind.POSITIVE_DEFINITE

    def test_swapped_pair_fails_on_kruskal_rank(self):
        check = nonsingularity_predicate(B, A)
        assert not check.holds
        assert check.kruskal_rank_a == 1
        assert "below the required" in check.reason

    def test_vanishing_diagonal(self):
        b = np.diag([1.0, 0.0])
        check = nonsingularity_predicate(np.eye(2), b)
        assert not check.holds
        assert "vanishing" in check.reason

    def test_certifies_positive_definiteness(self):
        """Whenever the predicate holds, the product is positive definite."""
        rng = np.random.default_rng(33)
        seen = 0
        for _ in range(80):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, int(rng.integers(1, n + 1)))
            b = random_psd(rng, n, int(rng.integers(1, n + 1)))
            check = nonsingularity_predicate(a, b)
            if not check.holds:
                continue
            seen += 1
            lam = float(np.linalg.eigvalsh(a * b)[0])
            assert lam > 0.0
        assert seen > 10


class TestDecomposeProjection:
    def test_golden_interior_split(self):
        parts = decompose_projection(P)
        assert parts.rank == 2
        assert parts.p == pytest.approx(2.0 / 3.0, abs=1e-15)
        np.testing.assert_allclose(parts.x, [-1.0 / 3.0, -1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(
            parts.q.entries.real, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12
        )
        np.testing.assert_allclose(parts.r.entries.real, np.eye(2), atol=1e-12)

    def test_border_norm_identity(self):
        parts = decompose_projection(P)
        norm_sq = float(np.real(np.vdot(parts.x, parts.x)))
        assert norm_sq == pytest.approx(parts.p * (1.0 - parts.p), abs=1e-15)

    def test_boundary_corner_one(self):
        proj = np.zeros((3, 3))
        proj[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        proj[2, 2] = 1.0
        parts = decompose_projection(proj)
        assert parts.rank == 2
        assert parts.q is None and parts.r is None
        assert parts.p == pytest.approx(1.0)

    def test_boundary_corner_zero(self):
        proj = np.zeros((3, 3))
        proj[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        parts = decompose_projection(proj)
        assert parts.rank == 1
        assert parts.q is None and parts.r is None
        assert parts.p == pytest.approx(0.0)

    def test_rejects_non_projection(self):
        with pytest.raises(NotProjectionError):
            decompose_projection(0.5 * P)

    def test_rejects_tiny(self):
        with pytest.raises(DimensionError):
            decompose_projection(np.eye(1))

    def test_asymmetry_the_projection_check_accepts_is_split(self):
        # is_orthogonal_projection allows 1e-9; each block keeps the 1e-10
        # asymmetry, which the carrier's own 1e-12 test would reject.
        proj = P.astype(np.complex128)
        proj[0, 1] += 1e-10
        parts = decompose_projection(proj)
        assert parts.rank == 2
        assert parts.p1.entries.tobytes() == proj[:-1, :-1].tobytes()
        assert parts.q.entries[0, 1] != parts.q.entries[1, 0].conjugate()
        proj[0, 0] = 9.0
        assert parts.p1.entries[0, 0] == P[0, 0]
        corner = np.zeros((3, 3))
        corner[:2, :2] = [[0.5, 0.5 + 1e-10], [0.5, 0.5]]
        corner[2, 2] = 1.0
        assert decompose_projection(corner).p1.entries[0, 1] == 0.5 + 1e-10

    def test_random_splits_satisfy_identities(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(0, n + 1))
            proj = random_projection(rng, n, r)
            parts = decompose_projection(proj, tol=1e-8)
            assert parts.rank == r
            x = parts.x
            assert abs(
                float(np.real(np.vdot(x, x))) - parts.p * (1.0 - parts.p)
            ) <= 1e-8
            if parts.q is not None:
                q = parts.q.entries
                assert float(np.max(np.abs(q @ q - q))) <= 1e-8
                assert float(np.max(np.abs(q @ x))) <= 1e-8
                rr = parts.r.entries
                assert float(np.max(np.abs(rr @ rr - rr))) <= 1e-8
                assert round(float(np.trace(q).real)) == r - 1
                assert round(float(np.trace(rr).real)) == r


class TestProjectionCertificate:
    def test_golden_example(self):
        cert = projection_certificate(C, P)
        assert cert.hypothesis_holds
        assert cert.conclusion_holds
        assert cert.conclusion_holds or not cert.hypothesis_holds
        assert cert.projection_rank == 2
        # Worst 2x2 block of C is [[8, 7], [7, 8]] with lambda_min = 1.
        assert cert.mu == pytest.approx(1.0, abs=1e-9)
        assert cert.lambda_min_product == pytest.approx(
            (16.0 - math.sqrt(65.0)) / 3.0, abs=1e-9
        )

    def test_hypothesis_failure_is_reported(self):
        c = np.diag([1.0, -1.0, 1.0])
        cert = projection_certificate(c, P)
        assert not cert.hypothesis_holds
        assert cert.conclusion_holds or not cert.hypothesis_holds

    def test_rejects_non_projection_factor(self):
        with pytest.raises(NotProjectionError):
            projection_certificate(C, B)

    def test_rank_bounds(self):
        with pytest.raises(NotProjectionError):
            projection_certificate(C, np.zeros((3, 3)))

    def test_implication_on_random_instances(self):
        """Shifted PSD inputs satisfy the hypothesis, so products stay PSD."""
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            a = random_psd(rng, n, int(rng.integers(1, n + 1)))
            mu = min_submatrix_eigenvalue(a, n - r + 1).value
            c = a - mu * np.eye(n)
            cert = projection_certificate(c, random_projection(rng, n, r))
            assert cert.hypothesis_holds
            assert cert.conclusion_holds
            assert cert.conclusion_holds or not cert.hypothesis_holds

    def test_projection_within_its_tolerance_is_accepted(self):
        """Asymmetry the projection check accepts is not judged again as a carrier's."""
        p = np.array(P)
        p[0, 1] += 1e-10
        cert = projection_certificate(C, p)
        exact = projection_certificate(C, P)
        assert (cert.hypothesis_holds, cert.conclusion_holds) == (True, True)
        assert (cert.mu, cert.projection_rank) == (exact.mu, exact.projection_rank)
        assert cert.lambda_min_product == pytest.approx(exact.lambda_min_product, abs=1e-9)


class TestIndefiniteCertificate:
    def test_full_shift_certifies_exactly(self):
        c, shift = shift_construction(A, B, 1.0)
        assert shift == pytest.approx(MU2_A / KAPPA_B, abs=1e-9)
        cert = indefinite_certificate(c, B)
        assert cert.hypothesis_holds
        assert cert.conclusion_holds
        assert cert.rank_b == 2
        assert cert.kappa_eff == pytest.approx(KAPPA_B, abs=1e-9)
        # The full shift pushes lambda_min(C) to exactly minus the floor.
        assert cert.lambda_min_c == pytest.approx(-MU2_A / KAPPA_B, abs=1e-9)
        assert cert.mu == pytest.approx(MU2_A - MU2_A / KAPPA_B, abs=1e-9)
        # The hypothesis sits on its boundary: mu equals the required floor.
        assert cert.mu == pytest.approx(cert.required_floor, abs=1e-9)
        assert classify_psd(c).kind is PsdKind.INDEFINITE
        assert cert.lambda_min_product >= -1e-9

    def test_partial_shift_keeps_slack(self):
        c, shift = shift_construction(A, B, 0.5)
        assert shift == pytest.approx(0.5 * MU2_A / KAPPA_B, abs=1e-9)
        cert = indefinite_certificate(c, B)
        assert cert.hypothesis_holds
        assert cert.conclusion_holds
        assert cert.mu > cert.required_floor

    def test_fraction_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                shift_construction(A, B, bad)

    def test_no_shift_without_positive_floor(self):
        # mu_2(B) = 0, so the certified floor for (B, B) vanishes.
        with pytest.raises(NotPsdError):
            shift_construction(B, B, 1.0)

    def test_rejects_indefinite_second_factor(self):
        with pytest.raises(NotPsdError):
            indefinite_certificate(A, C)

    def test_random_shifts_stay_certified(self):
        rng = np.random.default_rng(36)
        done = 0
        while done < 40:
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, n)
            b = random_psd(rng, n, int(rng.integers(1, n + 1)))
            try:
                c, shift = shift_construction(a, b, float(rng.uniform(0.1, 1.0)))
            except NotPsdError:
                continue
            done += 1
            cert = indefinite_certificate(c, b)
            assert cert.hypothesis_holds
            assert cert.conclusion_holds
            np.testing.assert_allclose(np.asarray(c), a - shift * np.eye(n), atol=1e-12)
            lam = float(np.linalg.eigvalsh(np.asarray(c) * b)[0])
            assert lam >= -1e-8


class TestSolveCounts:
    """Full-size Jacobi solves per call: each factor's spectrum is solved once."""

    N = 6

    @pytest.fixture
    def solves(self, monkeypatch):
        matcore._MEMO.clear()  # an earlier test may hold these inputs' results
        real = matcore._jacobi
        arrays = []

        def counting(w, v=None):
            arrays.extend(np.array(w))  # one entry per block of the stack
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        return arrays

    def pair(self):
        # rank B = 3, so the scan order is 4 and scan blocks stay below order N;
        # rank A = 4 keeps the Kruskal walk of A below order N as well.
        rng = np.random.default_rng(61)
        return random_psd(rng, self.N, 4), random_psd(rng, self.N, 3)

    @pytest.mark.parametrize(
        "call,expected",
        [
            (lambda a, b: quantitative_bound(a, b), 3),
            (lambda a, b: classical_bound(a, b), 2),
            (lambda a, b: nonsingularity_predicate(a, b), 2),
            (lambda a, b: indefinite_certificate(a, b), 3),
            (lambda a, b: shift_construction(a, b, 1.0), 2),
        ],
        ids=[
            "quantitative_bound",
            "classical_bound",
            "nonsingularity_predicate",
            "indefinite_certificate",
            "shift_construction",
        ],
    )
    def test_full_size_solves(self, solves, call, expected):
        a, b = self.pair()
        call(a, b)
        assert sum(arr.shape[0] == self.N for arr in solves) == expected

    def test_classical_after_quantitative_solves_nothing(self, solves):
        a, b = self.pair()
        quantitative_bound(a, b)
        solves.clear()
        classical_bound(a, b)  # new carriers of the same arrays
        assert sum(arr.shape[0] == self.N for arr in solves) == 0

    def test_projection_after_quantitative_scans_nothing(self, solves):
        a, b = self.pair()
        m = self.N - 3 + 1  # rank B = rank P = 3
        quantitative_bound(a, b)
        assert any(arr.shape[0] == m for arr in solves)
        solves.clear()
        projection_certificate(a, random_projection(np.random.default_rng(63), self.N, 3))
        assert sum(arr.shape[0] == m for arr in solves) == 0

    def test_generated_factor_is_solved_once(self, solves):
        _, b = self.pair()
        a = random_psd_with_kruskal(np.random.default_rng(62), self.N, 4, 4)
        shift_construction(a, b, 1.0)
        assert sum(np.array_equal(arr, a.entries) for arr in solves) == 1


class TestCarrierBatch:
    """Each call solves its carriers' spectra as one stack, and raises what it raised before."""

    N = 6
    pair = TestSolveCounts.pair

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The (blocks, order) shape of every Jacobi solve, from a cleared memo."""
        matcore._MEMO.clear()
        real = matcore._jacobi
        shapes = []

        def counting(w, v=None):
            shapes.append(w.shape[:2])
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        return shapes

    @pytest.mark.parametrize(
        "call,blocks",
        [
            (quantitative_bound, 3),
            (classical_bound, 2),
            (nonsingularity_predicate, 2),
            (indefinite_certificate, 3),
            (lambda a, b: shift_construction(a, b, 1.0), 2),
        ],
        ids=[
            "quantitative_bound",
            "classical_bound",
            "nonsingularity_predicate",
            "indefinite_certificate",
            "shift_construction",
        ],
    )
    def test_full_size_spectra_are_one_stack(self, stacks, call, blocks):
        a, b = self.pair()
        call(a, b)
        assert [k for k, n in stacks if n == self.N] == [blocks]

    def test_projection_certificate_stacks_c_and_the_product(self, stacks):
        a, _ = self.pair()
        projection_certificate(a, random_projection(np.random.default_rng(63), self.N, 3))
        assert [k for k, n in stacks if n == self.N] == [2]

    def test_sweep_cap_raises_the_lone_solves_error(self, stacks, monkeypatch):
        a, b = self.pair()
        monkeypatch.setattr(matcore, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as lone:
            matcore.stack_eigvals(a[None])
        stacks.clear()
        with pytest.raises(ConvergenceError) as err:
            quantitative_bound(a, b)
        assert str(err.value) == str(lone.value)
        # The stack of three failed and stored nothing; then A failed alone.
        assert stacks == [(3, self.N), (1, self.N)]

    def test_non_psd_first_factor_is_named_first(self, stacks):
        a, b = self.pair()
        for second in (b, -b):
            with pytest.raises(NotPsdError) as err:
                quantitative_bound(-a, second)
            witness = float(np.linalg.eigvalsh(-a)[0])
            assert str(err.value).startswith("first factor must be positive semidefinite")
            assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(witness)

    def test_overflowing_product_raises_where_it_did(self, stacks):
        a, b = self.pair()
        a, b = a * 1e160, b * 1e160
        with pytest.raises(BudgetExceededError):  # the budget is checked first
            quantitative_bound(a, b, budget=1)
        with pytest.raises(NonFiniteError) as err:
            quantitative_bound(a, b)
        assert str(err.value) == "entrywise product A o B overflows: it has a NaN or infinite entry"
        # The product is left out of the stack; A and B are still solved together.
        assert [k for k, n in stacks if n == self.N] == [2]


def hermitian_gram(rng, r, n):
    """The Hermitian part of F* F for a complex standard-normal r x n F."""
    f = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    g = f.conj().T @ f
    return (g + g.conj().T) / 2.0


def low_rank_pairs():
    """(seed, A, B) with rank A below the floor order m = n - rank B + 1, n from 3 to 6."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        r_a, r_b = int(rng.integers(1, n)), int(rng.integers(1, n))
        a, b = hermitian_gram(rng, r_a, n), hermitian_gram(rng, r_b, n)
        if matcore.rank_numeric(a) < n - matcore.rank_numeric(b) + 1:
            yield seed, a, b


P4_RANK2 = random_projection(np.random.default_rng(1714), 4, 2)


class TestZeroBelowTheRank:
    """A PSD matrix of numeric rank below the floor order m gives the floors mu = 0.0, unscanned."""

    @pytest.fixture
    def solved_orders(self, monkeypatch):
        """The order of every block that reaches the Jacobi solver."""
        matcore._MEMO.clear()  # an earlier test may hold these inputs' results
        real = matcore._jacobi
        orders = []

        def counting(w, v=None):
            orders.extend([w.shape[1]] * len(w))
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        return orders

    @pytest.mark.parametrize("seed", range(3))
    def test_interlacing_below_and_at_the_order(self, seed):
        """Each order-m block's lambda_min lies in [lambda_min(A), lambda_m(A)] (eigvalsh)."""
        rng = np.random.default_rng(1700 + seed)
        n, m = 9, 5
        for r in (m - 1, m):
            a = random_psd(rng, n, r)
            vals = np.linalg.eigvalsh(a)  # non-decreasing
            slack = 1e-12 * vals[-1]
            blocks = [
                np.linalg.eigvalsh(a[np.ix_(s, s)])[0]
                for s in itertools.combinations(range(n), m)
            ]
            assert vals[0] - slack <= min(blocks) and max(blocks) <= vals[n - m] + slack
            tol = matcore.tol_for(vals[-1])
            if r < m:  # lambda_m is lambda_{r+1}: the whole interval is noise
                assert abs(vals[0]) <= tol and abs(vals[n - m]) <= tol
                assert floor_mu(a, m, matcore.DEFAULT_TOL_REL, 10**6) == 0.0
            else:
                assert min(blocks) > tol
                assert repr(floor_mu(a, m, matcore.DEFAULT_TOL_REL, 10**6)) == repr(
                    min_submatrix_eigenvalue(a, m).value
                )

    def test_seed_268_pair_reports_an_exact_zero(self):
        """Its noise scan gave mu 9.6e-17 and a floor of 1.38e-17 that nothing proves."""
        (_, a, b), = [pair for pair in low_rank_pairs() if pair[0] == 268]
        assert (a.shape[0], matcore.rank_numeric(a), matcore.rank_numeric(b)) == (5, 4, 1)
        rep = quantitative_bound(a, b)
        assert (rep.mu, rep.quantitative_bound) == (0.0, 0.0)
        assert rep.margin == rep.actual_lambda_min and rep.loewner_verified

    def test_no_floor_is_positive_below_the_rank(self):
        seeds = []
        for seed, a, b in low_rank_pairs():
            seeds.append(seed)
            rep = quantitative_bound(a, b)
            assert (rep.mu, rep.quantitative_bound) == (0.0, 0.0), seed
        assert len(seeds) == 177

    def test_no_block_of_the_order_reaches_the_solver(self, solved_orders):
        rng = np.random.default_rng(1710)
        n, m = 10, 6
        a, b = random_psd(rng, n, m - 1), random_psd(rng, n, n - m + 1)
        rep = quantitative_bound(a, b)
        assert rep.mu == 0.0 and rep.r_b == n - m + 1
        cert = projection_certificate(a, random_projection(rng, n, n - m + 1))
        assert cert.mu == 0.0 and cert.hypothesis_holds
        assert m not in solved_orders

    def test_an_indefinite_c_is_still_scanned(self, solved_orders):
        rng = np.random.default_rng(1711)
        n, r = 8, 4  # m = 5
        c = random_psd(rng, n, 2) - random_psd(rng, n, 1)  # indefinite, numeric rank 3 < m
        assert matcore.rank_numeric(c) == 3 and not classify_psd(c).is_psd
        cert = projection_certificate(c, random_projection(rng, n, r))
        assert n - r + 1 in solved_orders
        assert repr(cert.mu) == repr(min_submatrix_eigenvalue(c, n - r + 1).value)
        assert cert.mu < 0.0 and not cert.hypothesis_holds

    def test_psd_only_at_the_eigenvalue_scale_is_still_scanned(self):
        """lambda_min(C) = -3e-9 passes classify_psd (tol 4e-9) but not the hypothesis (1e-9)."""
        w = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
        c = np.ones((4, 4)) - 3e-9 * np.outer(w, w)
        assert classify_psd(c).is_psd and matcore.rank_numeric(c) == 1  # below m = 3
        cert = projection_certificate(c, P4_RANK2)
        assert repr(cert.mu) == repr(min_submatrix_eigenvalue(c, 3).value)
        assert cert.mu < cert.hypothesis_threshold and not cert.hypothesis_holds

    @pytest.mark.parametrize("e", [300, -300])
    def test_scaled_inputs_read_zero_too(self, e):
        rng = np.random.default_rng(1712)
        a, b = random_psd(rng, 7, 3), random_psd(rng, 7, 4)  # m = 4 > rank A
        for x in (a, a * 2.0**e):
            rep = quantitative_bound(x, b)
            assert (rep.mu, rep.quantitative_bound) == (0.0, 0.0)
            cert = projection_certificate(x, random_projection(rng, 7, 4))
            assert cert.mu == 0.0
            with pytest.raises(NotPsdError, match="certified floor 0.0 is not positive"):
                shift_construction(x, b, 1.0)

    def test_the_budget_still_refuses(self):
        rng = np.random.default_rng(1713)
        a, b = random_psd(rng, 9, 3), random_psd(rng, 9, 5)  # m = 5, C(9, 5) = 126
        assert quantitative_bound(a, b, budget=126).mu == 0.0
        with pytest.raises(BudgetExceededError, match="C\\(9,5\\) = 126"):
            quantitative_bound(a, b, budget=125)
        with pytest.raises(BudgetExceededError):
            projection_certificate(a, random_projection(rng, 9, 5), budget=125)


def report_bits(report) -> dict:
    """A report's fields, each float as its IEEE bits: equal dicts are bit-identical."""
    fields = dataclasses.asdict(report) if dataclasses.is_dataclass(report) else {"value": report}
    return {
        key: struct.pack("<d", value).hex() if isinstance(value, float) else value
        for key, value in fields.items()
    }


class TestContentMemo:
    """Reports read through the content memo carry the bits of fresh solves."""

    @staticmethod
    def ops() -> dict:
        """The dense and scan benchmark ops on seeded inputs, as fresh objects."""
        rng = np.random.default_rng(1401)
        ops = {}
        for n in (6, 8):  # full-rank B: the floor order is 1
            a = random_psd(rng, n, n // 2)
            b = random_psd(rng, n, 2 * n)
            c = a - 0.5 * float(np.min(np.diag(a).real)) / np.linalg.cond(b) * np.eye(n)
            ops[f"quantitative_bound/dense{n}"] = lambda a=a, b=b: quantitative_bound(a, b)
            ops[f"classical_bound/{n}"] = lambda a=a, b=b: classical_bound(a, b)
            ops[f"indefinite_certificate/{n}"] = lambda c=c, b=b: indefinite_certificate(c, b)
        for n in (7, 8):  # rank B = rank P = n // 2: subset scans of order n - n // 2 + 1
            a = random_psd(rng, n, n // 2 + 1)
            b = random_psd(rng, n, n // 2)
            p = random_projection(rng, n, n // 2)
            scenario = random_doa_scenario(rng)
            ops[f"quantitative_bound/scan{n}"] = lambda a=a, b=b: quantitative_bound(a, b)
            ops[f"nonsingularity_predicate/{n}"] = lambda a=a, b=b: nonsingularity_predicate(a, b)
            ops[f"projection_certificate/{n}"] = lambda a=a, p=p: projection_certificate(a, p)
            ops[f"doa_bound/{n}"] = lambda s=scenario: doa_bound(s)
        return ops

    def run(self, order) -> dict:
        ops = self.ops()
        return {name: report_bits(ops[name]()) for name in order}

    def test_reports_match_fresh_solves_in_any_call_order(self, monkeypatch):
        cycle = list(self.ops())
        with monkeypatch.context() as m:
            m.setattr(matcore, "_MEMO", matcore._ContentMemo(0))  # stores nothing
            fresh = self.run(cycle)
        shuffled = [cycle[i] for i in np.random.default_rng(1402).permutation(len(cycle))]
        for order, clear in ((cycle, True), (cycle, False), (cycle[::-1], True), (shuffled, True)):
            if clear:
                matcore._MEMO.clear()
            assert self.run(order) == fresh


def random_real_pair():
    """A rank-3 real A and a full-rank real B whose least eigenvalue is 1e-4, order 6."""
    rng = np.random.default_rng(0)
    f = rng.normal(size=(6, 6))
    w, q = np.linalg.eigh(f @ f.T)
    w[0] = 1e-4
    b = (q * w) @ q.T
    g = rng.normal(size=(3, 6))
    return g.T @ g, (b + b.T) / 2.0


class TestScaleEquivariance:
    """Decisions have no absolute floor: 2^j A and 2^k B give the reports of A and B.

    Each float field scales by 2^(j dA + k dB) exactly, where dA and dB are
    its degrees in the first and second factor; every integer, boolean
    and string stays the same. For the indefinite certificate the first
    factor is C = A - cI, which scales with A.
    """

    EXPONENTS = (-200, -60, -40, -20, -10, 10, 40, 200)
    # (dA, dB) of the float fields that are not values of the product A o B.
    DEGREES = {
        "mu": (1, 0),
        "kappa_eff": (0, 0),
        "min_diag": (0, 1),
        "min_diag_b": (0, 1),
        "required_floor": (1, 0),
        "lambda_min_c": (1, 0),
    }

    @staticmethod
    def reports(a, b):
        c, shift = shift_construction(a, b, 1.0)
        return shift, [
            quantitative_bound(a, b),
            nonsingularity_predicate(a, b),
            indefinite_certificate(c, b),
        ]

    def scaled(self, report, j, k):
        fields = {}
        for name, value in dataclasses.asdict(report).items():
            if isinstance(value, float):
                da, db = self.DEGREES.get(name, (1, 1))
                fields[name] = math.ldexp(value, j * da + k * db)
        return dataclasses.replace(report, **fields)

    @pytest.mark.parametrize("pair", ["singular", "random"])
    def test_reports_scale_exactly(self, pair):
        a, b = (A, B) if pair == "singular" else random_real_pair()
        shift, reports = self.reports(a, b)
        for e in self.EXPONENTS:
            for j, k in ((e, 0), (0, e), (e, e)):
                got_shift, got = self.reports(np.ldexp(a, j), np.ldexp(b, k))
                assert got_shift == math.ldexp(shift, j), (j, k)
                expected = [self.scaled(report, j, k) for report in reports]
                assert list(map(report_bits, got)) == list(map(report_bits, expected)), (j, k)

    def test_kruskal_rank_of_a_rectangular_matrix(self):
        v = np.random.default_rng(0).normal(size=(3, 6))
        dependent = v.copy()
        dependent[:, 3] = dependent[:, 0] - 0.5 * dependent[:, 1]
        for mat, rank in ((v, 3), (dependent, 2)):
            assert kruskal_rank(mat) == rank
            for e in self.EXPONENTS:
                assert kruskal_rank(np.ldexp(mat, e)) == rank, e


# Unit columns u, w and (u + w) / |u + w|: B*B has rank 2, and its computed
# smallest eigenvalue is a negative rounding residue that a tolerance of
# 1e-20 does not absorb, so the Gram matrix classifies as indefinite.
CP_ROUNDED = CpScenario(
    d=3,
    a_load=np.eye(3),
    b_load=np.array([
        [0.7415052042025201, -0.8967022761251738, -0.3752736446093569],
        [0.5385471155343273, -0.4416644114201207, 0.23426682618514813],
        [-0.4001712589507583, 0.029284393059288184, -0.8968214681923866],
    ]),
    g=(np.ones(3),),
)


class TestSharedRefusals:
    """A precondition is refused in the same words by every entry point that needs it."""

    @pytest.mark.parametrize(
        "call",
        [
            hadamard,
            lambda a, b: loewner_check(a, 1.0, b),
            classical_bound,
            quantitative_bound,
            nonsingularity_predicate,
            indefinite_certificate,
            lambda a, b: shift_construction(a, b, 1.0),
        ],
        ids=[
            "hadamard", "loewner_check", "classical_bound", "quantitative_bound",
            "nonsingularity_predicate", "indefinite_certificate", "shift_construction",
        ],
    )
    def test_operand_sizes_differ(self, call):
        with pytest.raises(DimensionError) as err:
            call(A, np.eye(2))
        assert str(err.value) == "operand sizes differ: 3 vs 2"

    @pytest.mark.parametrize(
        "call,label",
        [
            (lambda: classical_bound(C, B), "first factor"),
            (lambda: quantitative_bound(A, C), "second factor"),
            (lambda: nonsingularity_predicate(C, B), "first factor"),
            (lambda: indefinite_certificate(A, C), "second factor"),
            (lambda: shift_construction(A, C, 1.0), "second factor"),
            (lambda: effective_condition_number(C), "matrix"),
            (
                lambda: doa_bound(DoaScenario(N=4, K=3, P=2, omega=(-1.0, 0.0, 1.0), sigma_s=C)),
                "source covariance",
            ),
            (lambda: cp_bound(CP_ROUNDED, 1e-20), "second loading Gram matrix"),
        ],
        ids=[
            "classical_bound", "quantitative_bound", "nonsingularity_predicate",
            "indefinite_certificate", "shift_construction", "effective_condition_number",
            "DoaScenario", "cp_bound",
        ],
    )
    def test_not_psd_names_the_matrix_and_its_witness(self, call, label):
        with pytest.raises(NotPsdError) as err:
            call()
        assert str(err.value).startswith(
            f"{label} must be positive semidefinite; witness eigenvalue -"
        )
