"""Application calculators built on the entrywise-product floor.

Two consumers of the same inequality:

* Forward spatial smoothing of a source covariance across a uniform
  linear array. The smoothed covariance factors exactly as the original
  covariance times (entrywise) the conjugated Gram matrix of a steering
  block, so the floor machinery applies verbatim and explains when
  smoothing restores full rank for coherent sources.

* The lag-zero moment matrix of a factor model with componentwise
  products. Summing diagonally scaled copies of a loading Gram matrix
  collapses into an entrywise product with the score Gram matrix, which
  yields a floor on the smallest positive eigenvalue of the moment
  matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import BudgetExceededError, DimensionError, FormsDisagreeError, ZeroMatrixError
from .matcore import (
    DEFAULT_TOL_REL,
    HermitianMatrix,
    as_hermitian,
    eigvals_hermitian,
    least_positive,
    rank_numeric,
    require_psd,
    solve_spectra,
    tol_for,
)
from .submatrix import (
    DEFAULT_BUDGET,
    check_budget,
    floor_mu,
    floor_order,
    kruskal_rank,
    min_subset_singular_value,
)

MIN_FREQUENCY_GAP = 1e-9


@dataclasses.dataclass(frozen=True)
class DoaScenario:
    """Uniform linear array snapshot model for direction finding.

    N sensors, K narrowband sources at electrical frequencies omega
    (radians, in [-pi, pi), pairwise distinct), P forward subarrays, and a
    K x K Hermitian source covariance sigma_s. Keys match the on-disk
    scenario schema. The constructor does not judge sigma_s positive
    semidefinite: doa_bound does, at its own tau_rel.
    """

    N: int
    K: int
    P: int
    omega: tuple[float, ...]
    sigma_s: HermitianMatrix

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        if self.K < 1:
            raise ValueError("need at least one source")
        if not 1 <= self.P <= self.N:
            raise ValueError(f"subarray count {self.P} must lie in [1, N={self.N}]")
        if self.K >= self.N:
            raise ValueError(f"source count {self.K} must be below sensor count {self.N}")
        if len(self.omega) != self.K:
            raise ValueError(f"expected {self.K} frequencies, got {len(self.omega)}")
        _check_frequencies(self.omega)
        # Rounding a difference is monotone, so the closest pair is adjacent once sorted.
        ordered = sorted(self.omega)
        if any(b - a <= MIN_FREQUENCY_GAP for a, b in zip(ordered, ordered[1:])):
            raise ValueError("frequencies must be pairwise distinct")
        sig = as_hermitian(self.sigma_s)
        if sig.n != self.K:
            raise DimensionError(f"covariance must be {self.K} x {self.K}, got {sig.n}")
        object.__setattr__(self, "sigma_s", sig)

    @functools.cached_property
    def smoothed(self) -> HermitianMatrix:
        """smoothed_cov_direct(self), built once per scenario: its sum has P terms."""
        return smoothed_cov_direct(self)


def _check_frequencies(omega) -> None:
    """Refuse, naming the first as a plain float, a frequency outside [-pi, pi)."""
    for w in omega:
        if not -math.pi <= w < math.pi:
            raise ValueError(f"frequency {float(w)!r} outside [-pi, pi)")


def _check_size(scenario: DoaScenario, budget: int) -> None:
    """Refuse a scenario whose P x K steering block exceeds the budget.

    The block has P K entries and the smoothing sum P terms, no more than
    P K as K >= 1, so one check covers both before either is built.
    """
    size = scenario.P * scenario.K
    if size > budget:
        raise BudgetExceededError(
            f"the P x K steering block, P = {scenario.P} by K = {scenario.K}, has {size} "
            f"entries, which exceeds the budget of {budget}; raise the budget or reduce P"
        )


def build_steering(n: int, omega) -> np.ndarray:
    """n x K steering matrix with entry (i, k) = exp(1j * i * omega_k)."""
    freqs = np.asarray([float(w) for w in omega], dtype=np.float64)
    if n < 1:
        raise ValueError("steering matrix needs at least one row")
    _check_frequencies(freqs)
    return np.exp(1j * np.outer(np.arange(n), freqs))


def smoothed_cov_direct(scenario: DoaScenario) -> HermitianMatrix:
    """Sum of the P phase-shifted copies of the source covariance.

    Term p conjugates the covariance by the p-th power of the diagonal
    phase matrix diag(exp(1j * omega)). This is the subarray-averaging
    definition, kept deliberately independent of the entrywise form so the
    two can be cross-checked.
    """
    phases = np.exp(1j * np.asarray(scenario.omega))
    sig = scenario.sigma_s.entries
    # Lazy, so that every term is formed and summed under derived's errstate.
    lefts = (phases**p for p in range(scenario.P))
    terms = ((left[:, None] * sig) * np.conj(left)[None, :] for left in lefts)
    return HermitianMatrix.derived("smoothed covariance", lambda: sum(terms, np.zeros_like(sig)))


def smoothed_cov_hadamard(scenario: DoaScenario) -> HermitianMatrix:
    """Entrywise form: sigma_s o conj(V_P* V_P) with V_P the P-row steering block."""
    v = build_steering(scenario.P, scenario.omega)
    gram = np.conj(v.conj().T @ v)
    return HermitianMatrix.derived("smoothed covariance", lambda: scenario.sigma_s.entries * gram)


@dataclasses.dataclass(frozen=True)
class DoaBoundReport:
    """Floor for the smallest eigenvalue of the smoothed source covariance.

    bound = tilde_sigma_sq * min_diag / kappa_eff, where tilde_sigma_sq is
    the worst squared subset singular value of the P x K steering block at
    subset size m = K - rank(sigma_s) + 1. positivity_predicted records the
    combinatorial criterion P >= m, which is exactly when the floor can be
    positive: when P < m every P x m column block has rank below m, so
    tilde_sigma_sq is an exact 0.0 and no subset is scanned. bound_holds
    (bound <= lambda_min_smoothed + tol) and bound_positive (bound > tol)
    take tol = tol_for(lambda_max) of the smoothed covariance, so both
    verdicts are the same for every scaling of sigma_s.
    """

    r_sigma_s: int
    m: int
    tilde_sigma_sq: float
    kappa_eff: float
    min_diag: float
    bound: float
    lambda_min_smoothed: float
    bound_holds: bool
    positivity_predicted: bool
    bound_positive: bool


def doa_bound(
    scenario: DoaScenario, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> DoaBoundReport:
    """Certified floor for the smoothed covariance of the given scenario.

    sigma_s must be positive semidefinite at tau_rel, or NotPsdError is
    raised. A scenario whose P x K steering block has more entries than
    budget is then refused with BudgetExceededError, and so is one whose
    C(K, m) subsets exceed it, even when P < m spares the scan.

    Within the budget, sigma_s and the smoothed covariance
    (DoaScenario.smoothed), both of order K, are solved as one stack
    before sigma_s is judged; over it nothing is built, and a non-PSD
    sigma_s is refused before the size is.
    """
    if scenario.P * scenario.K <= budget:
        solve_spectra(scenario.sigma_s, lambda: scenario.smoothed)
    require_psd(scenario.sigma_s, tau_rel, "source covariance")
    _check_size(scenario, budget)
    r, m, kappa = floor_order(scenario.sigma_s, tau_rel, "source covariance")
    if scenario.P < m:
        # Every P x m column block has rank at most P < m, so its sigma_m is exactly 0.
        check_budget(scenario.K, m, budget)
        tilde = 0.0
    else:
        tilde = min_subset_singular_value(build_steering(scenario.P, scenario.omega), m, budget)
    tilde_sq = tilde * tilde
    min_diag = float(np.min(scenario.sigma_s.diagonal()))
    bound = tilde_sq * min_diag / kappa
    vals = eigvals_hermitian(scenario.smoothed)
    tol = tol_for(vals[0], tau_rel)
    return DoaBoundReport(
        r_sigma_s=r,
        m=m,
        tilde_sigma_sq=float(tilde_sq),
        kappa_eff=float(kappa),
        min_diag=min_diag,
        bound=float(bound),
        lambda_min_smoothed=float(vals[-1]),
        bound_holds=bool(bound <= vals[-1] + tol),
        positivity_predicted=bool(scenario.P >= m),
        bound_positive=bool(bound > tol),
    )


def rank_identity_check(
    scenario: DoaScenario, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> bool:
    """Steering Gram matrix has rank and Kruskal rank both equal to min(P, K).

    In exact arithmetic it holds for every choice of pairwise distinct
    frequencies; it is the structural fact that makes the smoothing floor
    nonvacuous. Numerically the frequencies must lie far enough apart for
    rank_numeric to resolve the Gram matrix: omega = (0.1, 0.1 + 1e-8)
    with P = 2 passes the MIN_FREQUENCY_GAP check, yet gives False. The
    budget bounds the steering block as in doa_bound.
    """
    _check_size(scenario, budget)
    v = build_steering(scenario.P, scenario.omega)
    gram = HermitianMatrix(v.conj().T @ v)
    expected = min(scenario.P, scenario.K)
    if rank_numeric(gram, tau_rel) != expected:
        return False
    return kruskal_rank(gram, tau_rel, budget) == expected


@dataclasses.dataclass(frozen=True)
class CpScenario:
    """Componentwise factor model: loadings with unit-norm columns and scores.

    a_load (observations by d) and b_load (second mode by d) are real
    loading matrices whose columns have unit norm; g is the list of score
    vectors in R^d.
    """

    d: int
    a_load: np.ndarray
    b_load: np.ndarray
    g: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one factor")
        for attr, field, name in (("a_load", "A_load", "first"), ("b_load", "B_load", "second")):
            mat = np.array(getattr(self, attr), dtype=np.float64)
            if mat.ndim != 2 or mat.shape[1] != self.d:
                raise DimensionError(f"{name} loading must have {self.d} columns, got {mat.shape}")
            if not np.isfinite(mat).all():
                raise ValueError(f"{field} has a NaN or infinite entry")
            if np.max(np.abs(np.linalg.norm(mat, axis=0) - 1.0)) > 1e-9:
                raise ValueError(f"{name} loading columns must have unit norm")
            mat.setflags(write=False)
            object.__setattr__(self, attr, mat)
        scores = tuple(np.array(v, dtype=np.float64) for v in self.g)
        if len(scores) < 1:
            raise ValueError("need at least one score vector")
        for v in scores:
            if v.shape != (self.d,):
                raise DimensionError(f"score vectors must have length {self.d}, got {v.shape}")
            if not np.isfinite(v).all():
                raise ValueError("g has a NaN or infinite entry")
            v.setflags(write=False)
        object.__setattr__(self, "g", scores)


@dataclasses.dataclass(frozen=True)
class CpM1:
    """Lag-zero moment matrix in both of its algebraically equal forms.

    lag_form sums A diag(g_k) B*B diag(g_k) A* over scores; factored_form
    is A (G o B*B) A* with G the score Gram matrix. core is G o B*B.
    """

    lag_form: HermitianMatrix
    factored_form: HermitianMatrix
    core: HermitianMatrix


def _score_gram(scenario: CpScenario) -> np.ndarray:
    g_sum = np.zeros((scenario.d, scenario.d))
    for v in scenario.g:
        g_sum = g_sum + np.outer(v, v)
    return g_sum


def cp_m1(scenario: CpScenario) -> CpM1:
    """Compute the moment matrix two ways and verify they agree.

    The summed and factored forms are equal in exact arithmetic; a
    discrepancy beyond tol_for(max|entry|, 1e-10) of the summed form raises
    FormsDisagreeError instead of returning. Either the inputs were
    corrupted, or the summed form cancels far below the rounding of its
    terms (columns a and -a + delta with equal second-loading columns), so
    the moment matrix is rounding noise and no floor on it means anything.
    """
    a = scenario.a_load
    b = scenario.b_load
    btb = b.T @ b
    lag = np.zeros((a.shape[0], a.shape[0]))
    for v in scenario.g:
        scaled = a * v[None, :]
        lag = lag + scaled @ btb @ scaled.T
    core = _score_gram(scenario) * btb
    factored = a @ core @ a.T
    dev = float(np.max(np.abs(lag - factored)))
    if dev > tol_for(np.max(np.abs(lag)), 1e-10):
        raise FormsDisagreeError(f"moment matrix forms disagree by {dev:.3e}")
    return CpM1(
        lag_form=HermitianMatrix(lag),
        factored_form=HermitianMatrix(factored),
        core=HermitianMatrix(core),
    )


@dataclasses.dataclass(frozen=True)
class CpBoundReport:
    """Floor for the smallest positive eigenvalue of the moment matrix.

    hadamard_floor = mu min diag(B*B) / kappa_eff bounds lambda_min of the
    core G o B*B; min diag(B*B) lies within about 2e-9 of 1, as CpScenario
    accepts column norms within 1e-9 of 1. m1_floor multiplies it by the
    d1-th squared singular value of the first loading. condition_met
    records whether the Kruskal rank of G reaches d - rank(B*B) + 1, the
    regime in which the floors are positive. mu is the least lambda_min
    over G's principal submatrices of order m = d - d2 + 1, or an exact
    0.0, unscanned, when G's numeric rank is below m (as
    submatrix.floor_mu decides).
    """

    d1: int
    d2: int
    mu: float
    kappa_eff: float
    sigma_d1_sq: float
    hadamard_floor: float
    m1_floor: float
    lambda_min_core: float
    lambda_min_pos_m1: float
    kruskal_g: int
    condition_met: bool
    core_floor_holds: bool
    m1_floor_holds: bool


def cp_bound(
    scenario: CpScenario, tau_rel: float = DEFAULT_TOL_REL, budget: int = DEFAULT_BUDGET
) -> CpBoundReport:
    """Certified floors for the factor-model moment matrix."""
    btb = HermitianMatrix(scenario.b_load.T @ scenario.b_load)
    g_mat = HermitianMatrix(_score_gram(scenario))
    solve_spectra(btb, g_mat)
    d2, m, kappa = floor_order(btb, tau_rel, "second loading Gram matrix")
    if rank_numeric(g_mat, tau_rel) == 0:
        raise ZeroMatrixError("score Gram matrix is numerically zero")
    mu = floor_mu(g_mat, m, tau_rel, budget)
    hadamard_floor = mu * float(np.min(btb.diagonal())) / kappa

    d1, sigma_d1_sq = least_positive(scenario.a_load.T @ scenario.a_load, tau_rel)
    m1_floor = sigma_d1_sq * hadamard_floor

    parts = cp_m1(scenario)
    core_vals = eigvals_hermitian(parts.core)
    _, lam_pos = least_positive(parts.factored_form, tau_rel)

    kg = kruskal_rank(g_mat, tau_rel, budget)
    slack_core = tol_for(core_vals[0], tau_rel)
    slack_m1 = tol_for(eigvals_hermitian(parts.factored_form)[0], tau_rel)
    return CpBoundReport(
        d1=d1,
        d2=d2,
        mu=float(mu),
        kappa_eff=float(kappa),
        sigma_d1_sq=sigma_d1_sq,
        hadamard_floor=float(hadamard_floor),
        m1_floor=float(m1_floor),
        lambda_min_core=float(core_vals[-1]),
        lambda_min_pos_m1=lam_pos,
        kruskal_g=kg,
        condition_met=bool(kg >= m),
        core_floor_holds=bool(hadamard_floor <= core_vals[-1] + slack_core),
        m1_floor_holds=bool(m1_floor <= lam_pos + slack_m1),
    )
