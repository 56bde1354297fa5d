"""Spatial smoothing and factor-model calculators.

The coherent-pair scenario used throughout has a fully coherent rank-one
source covariance, for which the smoothing floor has the closed form
2 - 2 cos(gap / 2) with two subarrays; every golden number below follows
from that.
"""

import math
import warnings

import numpy as np
import pytest

from hadabound import apps, matcore
from hadabound.apps import (
    CpScenario,
    DoaScenario,
    build_steering,
    cp_bound,
    cp_m1,
    doa_bound,
    rank_identity_check,
    smoothed_cov_direct,
    smoothed_cov_hadamard,
)
from hadabound.errors import (
    BudgetExceededError,
    DimensionError,
    HermitianityError,
    NonFiniteError,
    NotPsdError,
)
from hadabound.generators import random_cp_scenario, random_doa_scenario

COHERENT_PAIR = dict(
    N=4, K=2, P=2, omega=(-0.5, 0.7), sigma_s=np.ones((2, 2))
)


def coherent_scenario(**overrides):
    params = dict(COHERENT_PAIR)
    params.update(overrides)
    return DoaScenario(**params)


class TestBuildSteering:
    def test_golden_entries(self):
        v = build_steering(3, (0.0, 1.0))
        np.testing.assert_allclose(v[:, 0], [1.0, 1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            v[:, 1], [1.0, np.exp(1.0j), np.exp(2.0j)], atol=1e-15
        )

    def test_first_row_is_ones(self):
        v = build_steering(5, (-1.2, 0.3, 2.0))
        np.testing.assert_allclose(v[0, :], np.ones(3), atol=1e-15)

    def test_columns_have_unit_modulus_entries(self):
        v = build_steering(6, (0.4, -2.8))
        np.testing.assert_allclose(np.abs(v), np.ones((6, 2)), atol=1e-15)

    def test_frequency_range(self):
        with pytest.raises(ValueError):
            build_steering(3, (math.pi,))
        with pytest.raises(ValueError):
            build_steering(0, (0.0,))

    @pytest.mark.parametrize(
        "bad,text",
        [
            (4.0, "frequency 4.0 outside [-pi, pi)"),
            (math.pi, "frequency 3.141592653589793 outside [-pi, pi)"),
            (np.float64(-3.5), "frequency -3.5 outside [-pi, pi)"),
            (math.nan, "frequency nan outside [-pi, pi)"),
        ],
    )
    def test_out_of_range_message_is_shared(self, bad, text):
        """Both entry points name the frequency as a plain float, NaN included."""
        with pytest.raises(ValueError) as steering:
            build_steering(3, (0.1, bad))
        with pytest.raises(ValueError) as scenario:
            coherent_scenario(omega=(0.1, bad))
        assert str(steering.value) == str(scenario.value) == text


class TestDoaScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            coherent_scenario(P=0)
        with pytest.raises(ValueError):
            coherent_scenario(P=5)
        with pytest.raises(ValueError):
            coherent_scenario(K=4)
        with pytest.raises(ValueError):
            coherent_scenario(omega=(0.5, 0.5))
        with pytest.raises(ValueError):
            coherent_scenario(omega=(0.5,))
        with pytest.raises(NotPsdError):  # judged by doa_bound, at its tau_rel
            doa_bound(coherent_scenario(sigma_s=np.array([[1.0, 2.0], [2.0, 1.0]])))
        with pytest.raises(DimensionError):
            coherent_scenario(sigma_s=np.eye(3))

    def test_near_duplicate_frequencies_far_apart_in_input_order(self):
        omega = (0.1, -0.5, 0.7, -2.0, 0.1 + 1e-10)
        with pytest.raises(ValueError, match="frequencies must be pairwise distinct"):
            DoaScenario(N=7, K=5, P=3, omega=omega, sigma_s=np.eye(5))
        # Just past the gap, the same order is accepted.
        DoaScenario(N=7, K=5, P=3, omega=omega[:-1] + (0.1 + 2e-9,), sigma_s=np.eye(5))

    def test_smoothing_forms_agree_on_golden_scenario(self):
        s = coherent_scenario()
        direct = smoothed_cov_direct(s)
        hada = smoothed_cov_hadamard(s)
        assert float(np.max(np.abs(direct.entries - hada.entries))) < 1e-14

    def test_smoothing_forms_agree_on_random_scenarios(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            s = random_doa_scenario(rng)
            direct = smoothed_cov_direct(s)
            hada = smoothed_cov_hadamard(s)
            assert float(np.max(np.abs(direct.entries - hada.entries))) < 1e-10

    def test_smoothed_forms_of_an_accepted_sigma_s_are_not_checked_again(self):
        """Each form adds sigma_s's asymmetry over P terms; it is not judged at its own scale."""
        sig = np.array([[1.0 + 5.000000005e-13j, 1.000000001], [1.000000001, 1.0]])
        s = coherent_scenario(sigma_s=sig)
        direct, hada = smoothed_cov_direct(s), smoothed_cov_hadamard(s)
        with pytest.raises(HermitianityError):
            matcore.HermitianMatrix(direct.entries)
        assert float(np.max(np.abs(direct.entries - hada.entries))) < 1e-14

    def test_overflowing_smoothed_covariance_is_named(self):
        s = coherent_scenario(sigma_s=np.eye(2) * 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as err:
                smoothed_cov_direct(s)
        assert str(err.value) == "smoothed covariance overflows: it has a NaN or infinite entry"

    def test_single_subarray_is_identity_smoothing(self):
        s = coherent_scenario(P=1)
        direct = smoothed_cov_direct(s)
        np.testing.assert_allclose(direct.entries, s.sigma_s.entries, atol=1e-15)


class TestDoaBound:
    def test_golden_coherent_pair(self):
        rep = doa_bound(coherent_scenario())
        gap = abs(COHERENT_PAIR["omega"][0] - COHERENT_PAIR["omega"][1])
        expected = 2.0 - 2.0 * math.cos(gap / 2.0)
        assert rep.r_sigma_s == 1
        assert rep.m == 2
        assert rep.kappa_eff == pytest.approx(1.0, abs=1e-12)
        assert rep.min_diag == 1.0
        assert rep.bound == pytest.approx(expected, abs=1e-12)
        # Fully coherent rank-one covariance makes the floor tight.
        assert rep.lambda_min_smoothed == pytest.approx(expected, abs=1e-9)
        assert rep.bound_holds
        assert rep.positivity_predicted
        assert rep.bound_positive

    def test_near_hermitian_sigma_s_reaches_its_verdict(self):
        """sigma_s is accepted at its own scale; the smoothed covariance is not judged again."""
        sig = np.array([[1.0 + 5.000000005e-13j, 1.000000001], [1.000000001, 1.0]])
        rep = doa_bound(coherent_scenario(sigma_s=sig))
        assert rep.bound_holds and rep.positivity_predicted

    def test_bound_grows_with_frequency_separation(self):
        gaps = [0.2, 0.4, 0.6, 0.8, 1.0]
        bounds = []
        for gap in gaps:
            s = coherent_scenario(omega=(-gap / 2.0, gap / 2.0))
            bounds.append(doa_bound(s).bound)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi > lo

    def test_positivity_threshold_in_subarray_count(self):
        """The floor turns positive exactly when P reaches K - r + 1."""
        omega = (-1.0, 0.1, 1.2)
        for p in (1, 2, 3, 4):
            s = DoaScenario(N=6, K=3, P=p, omega=omega, sigma_s=np.ones((3, 3)))
            rep = doa_bound(s)
            assert rep.m == 3
            assert rep.positivity_predicted == (p >= 3)
            assert rep.bound_positive == (p >= 3)
            assert rep.bound_holds

    def test_too_few_subarrays_give_an_exact_zero_unscanned(self, monkeypatch):
        """P < m: every P x m column block has sigma_m exactly 0, so no Gram is scanned."""
        rng = np.random.default_rng(1730)
        f = rng.normal(size=(10, 5)) + 1j * rng.normal(size=(10, 5))
        omega = tuple(-3.0 + 0.6 * k for k in range(10))
        s = DoaScenario(N=12, K=10, P=4, omega=omega, sigma_s=f @ f.conj().T)  # m = 6
        monkeypatch.setattr(apps, "min_subset_singular_value", None)  # a call would raise
        rep = doa_bound(s, budget=210)  # C(10, 6) = 210
        assert (rep.m, rep.tilde_sigma_sq, rep.bound) == (6, 0.0, 0.0)
        assert rep.bound_holds and not rep.positivity_predicted and not rep.bound_positive
        with pytest.raises(BudgetExceededError, match="C\\(10,6\\) = 210"):
            doa_bound(s, budget=209)

    def test_both_carriers_are_solved_as_one_stack(self, monkeypatch):
        """sigma_s and the smoothed covariance, both of order K, reach the solver together."""
        rng = np.random.default_rng(1731)
        f = rng.normal(size=(10, 5)) + 1j * rng.normal(size=(10, 5))
        omega = tuple(-3.0 + 0.6 * k for k in range(10))

        def report():
            matcore._MEMO.clear()
            s = DoaScenario(N=20, K=10, P=10, omega=omega, sigma_s=f @ f.conj().T)  # m = 6
            return repr(doa_bound(s))

        with monkeypatch.context() as patched:
            patched.setattr(apps, "solve_spectra", lambda *carriers: None)
            alone = report()  # each carrier solved on its own
        real = matcore._jacobi
        stacks = []

        def counting(w, v=None):
            stacks.append(w.shape[:2])  # (blocks, order)
            return real(w, v)

        monkeypatch.setattr(matcore, "_jacobi", counting)
        assert report() == alone
        assert [k for k, order in stacks if order == 10] == [2]

    def test_bound_never_exceeds_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            s = random_doa_scenario(rng)
            rep = doa_bound(s)
            lam = float(np.linalg.eigvalsh(smoothed_cov_direct(s).entries)[0])
            assert rep.bound <= lam + 1e-8

    def test_rank_identity_on_golden_and_random(self):
        assert rank_identity_check(coherent_scenario())
        rng = np.random.default_rng(43)
        for _ in range(40):
            assert rank_identity_check(random_doa_scenario(rng))

    def test_rank_identity_covers_both_regimes(self):
        # More subarrays than sources and the reverse both hit min(P, K).
        assert rank_identity_check(
            DoaScenario(N=7, K=2, P=5, omega=(-0.4, 0.9), sigma_s=np.eye(2))
        )
        assert rank_identity_check(
            DoaScenario(
                N=5, K=4, P=2, omega=(-2.0, -0.6, 0.5, 1.7), sigma_s=np.eye(4)
            )
        )

    def test_rank_identity_fails_on_frequencies_the_rank_cannot_resolve(self):
        # The pair passes the MIN_FREQUENCY_GAP check, but its Gram is
        # numerically of rank 1.
        s = DoaScenario(N=4, K=2, P=2, omega=(0.1, 0.1 + 1e-8), sigma_s=np.eye(2))
        assert not rank_identity_check(s)


ORTHO_A = np.array(
    [
        [0.6, 0.0],
        [0.8, 0.0],
        [0.0, 1.0],
    ]
)
RANK1_B = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
SCORES = (np.array([1.0, 0.5]), np.array([-0.3, 0.8]))


def golden_cp_scenario():
    return CpScenario(d=2, a_load=ORTHO_A, b_load=RANK1_B, g=SCORES)


class TestCpScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpScenario(d=2, a_load=2.0 * ORTHO_A, b_load=RANK1_B, g=SCORES)
        with pytest.raises(DimensionError):
            CpScenario(d=3, a_load=ORTHO_A, b_load=RANK1_B, g=SCORES)
        with pytest.raises(DimensionError):
            CpScenario(d=2, a_load=ORTHO_A, b_load=RANK1_B, g=(np.ones(3),))
        with pytest.raises(ValueError):
            CpScenario(d=2, a_load=ORTHO_A, b_load=RANK1_B, g=())
        nan_a = ORTHO_A.copy()
        nan_a[0, 0] = math.nan
        with pytest.raises(ValueError, match="A_load"):
            CpScenario(d=2, a_load=nan_a, b_load=RANK1_B, g=SCORES)
        inf_b = RANK1_B.copy()
        inf_b[1, 1] = math.inf
        with pytest.raises(ValueError, match="B_load"):
            CpScenario(d=2, a_load=ORTHO_A, b_load=inf_b, g=SCORES)
        nan_g = (SCORES[0], np.array([0.1, math.nan]))
        with pytest.raises(ValueError, match="g has a NaN"):
            CpScenario(d=2, a_load=ORTHO_A, b_load=RANK1_B, g=nan_g)


class TestCpM1:
    def test_forms_agree_on_golden(self):
        parts = cp_m1(golden_cp_scenario())
        dev = float(
            np.max(np.abs(parts.lag_form.entries - parts.factored_form.entries))
        )
        assert dev < 1e-14

    def test_single_score_identity(self):
        # One score vector: the sum has a single term, checkable directly.
        g = (np.array([2.0, -1.0]),)
        s = CpScenario(d=2, a_load=ORTHO_A, b_load=RANK1_B, g=g)
        parts = cp_m1(s)
        btb = RANK1_B.T @ RANK1_B
        scaled = ORTHO_A * g[0][None, :]
        expected = scaled @ btb @ scaled.T
        np.testing.assert_allclose(parts.lag_form.entries.real, expected, atol=1e-14)

    def test_forms_agree_on_random_scenarios(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            parts = cp_m1(random_cp_scenario(rng))
            dev = float(
                np.max(np.abs(parts.lag_form.entries - parts.factored_form.entries))
            )
            assert dev < 1e-10


class TestCpBound:
    def test_golden_rank_deficient_scenario(self):
        # B has rank 1, so the core order is d - 1 + 1 = 2 and the floor is
        # lambda_min of the score Gram matrix G = [[1.09, 0.26], [0.26, 0.89]].
        rep = cp_bound(golden_cp_scenario())
        expected_floor = 0.99 - math.sqrt(0.0776)
        assert rep.d1 == 2
        assert rep.d2 == 1
        assert rep.kappa_eff == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_d1_sq == pytest.approx(1.0, abs=1e-12)
        assert rep.mu == pytest.approx(expected_floor, abs=1e-12)
        assert rep.hadamard_floor == pytest.approx(expected_floor, abs=1e-12)
        assert rep.m1_floor == pytest.approx(expected_floor, abs=1e-12)
        assert rep.kruskal_g == 2
        assert rep.condition_met
        assert rep.core_floor_holds
        assert rep.m1_floor_holds
        # Orthonormal first loading makes the moment floor tight.
        assert rep.lambda_min_pos_m1 == pytest.approx(expected_floor, abs=1e-9)

    def test_orthonormal_second_loading(self):
        # B orthonormal square: the core is the diagonal of G, so the floor
        # is the smallest diagonal entry of the score Gram matrix.
        b = np.eye(2)
        s = CpScenario(d=2, a_load=ORTHO_A, b_load=b, g=SCORES)
        rep = cp_bound(s)
        assert rep.d2 == 2
        assert rep.kappa_eff == pytest.approx(1.0, abs=1e-12)
        assert rep.hadamard_floor == pytest.approx(0.89, abs=1e-12)
        assert rep.lambda_min_core == pytest.approx(0.89, abs=1e-12)

    def test_floors_hold_with_column_norms_off_one_within_tolerance(self):
        """min diag(B*B) enters the floors: B = Q shrunk by under 1e-9 keeps them tight.

        With orthonormal Q as both loadings the floors are within rounding of
        the LAPACK eigenvalues; without the diagonal factor they would exceed
        them by at least 2e-10 mu.
        """
        rng = np.random.default_rng(47)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            q = np.linalg.qr(rng.standard_normal((d + int(rng.integers(0, 3)), d)))[0]
            b = q * (1.0 - rng.uniform(1e-10, 9e-10))
            g = tuple(rng.standard_normal((int(rng.integers(d, d + 3)), d)))
            s = CpScenario(d=d, a_load=q, b_load=b, g=g)
            rep = cp_bound(s)
            parts = cp_m1(s)
            core = np.linalg.eigvalsh(parts.core.entries)
            assert rep.hadamard_floor <= core[0] + 1e-13 * core[-1]
            vals = np.linalg.eigvalsh(parts.factored_form.entries)
            lam_pos = float(np.min(vals[vals > 1e-9 * vals[-1]]))
            assert rep.m1_floor <= lam_pos + 1e-13 * vals[-1]

    def test_floors_hold_on_random_scenarios(self):
        rng = np.random.default_rng(45)
        applicable = 0
        for _ in range(60):
            s = random_cp_scenario(rng)
            rep = cp_bound(s)
            parts = cp_m1(s)
            lam_core = float(np.linalg.eigvalsh(parts.core.entries)[0])
            if not rep.condition_met:
                continue
            applicable += 1
            assert rep.hadamard_floor <= lam_core + 1e-8
            vals = np.linalg.eigvalsh(parts.factored_form.entries)
            tau = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
            positive = vals[vals > tau]
            lam_pos = float(np.min(positive)) if positive.size else 0.0
            assert rep.m1_floor <= lam_pos + 1e-8
        assert applicable > 20
