"""Independent numpy oracle for every operation the benchmark times.

Each check takes a report as a plain dict (a library dataclass passed
through dataclasses.asdict, or the `results` block of a CLI report) and
the arrays the operation was given, recomputes every quantity with
LAPACK (`eigvalsh`, `svd`) and brute-force subset enumeration, and
returns a list of mismatches. An empty list means the output is correct.
Nothing here imports hadabound.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL = 1e-9  # agreement required between the package and the oracle
PSD_SLACK = 1e-8  # absolute slack on orderings, as in the property suites


def close(x, y) -> bool:
    """|x - y| <= 1e-9 * max(1, |y|); booleans and None are not numbers."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    return abs(float(x) - float(y)) <= REL * max(1.0, abs(float(y)))


def lam_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def tau(scale: float) -> float:
    return REL * max(1.0, abs(float(scale)))


def num_rank(m: np.ndarray) -> int:
    vals = np.linalg.eigvalsh(m)
    return int(np.sum(np.abs(vals) > tau(np.max(np.abs(vals)))))


def is_psd(m: np.ndarray) -> bool:
    vals = np.linalg.eigvalsh(m)
    return float(vals[0]) >= -tau(vals[-1])


def kappa_eff(b: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(b)[::-1]
    return float(vals[0] / vals[num_rank(b) - 1])


def min_diag(b: np.ndarray) -> float:
    return float(np.min(np.diagonal(b).real))


def mu_scan(a: np.ndarray, m: int) -> tuple[float, tuple[int, ...]]:
    """Least smallest eigenvalue over all order-m principal submatrices, first argmin."""
    best, arg = math.inf, ()
    for s in itertools.combinations(range(a.shape[0]), m):
        v = lam_min(a[np.ix_(s, s)])
        if v < best:
            best, arg = v, s
    return best, arg


def kruskal_svd(a: np.ndarray) -> int:
    """Largest q with every q columns independent, by column-subset SVD."""
    n_cols = a.shape[1]
    cut = tau(np.linalg.svd(a, compute_uv=False)[0])
    for q in range(1, n_cols + 1):
        for s in itertools.combinations(range(n_cols), q):
            if float(np.linalg.svd(a[:, s], compute_uv=False)[-1]) <= cut:
                return q - 1
    return n_cols


def min_subset_sv(v: np.ndarray, m: int) -> float:
    return min(
        float(np.linalg.svd(v[:, s], compute_uv=False)[-1])
        for s in itertools.combinations(range(v.shape[1]), m)
    )


class _Errors(list):
    def num(self, rep: dict, key: str, want: float) -> None:
        got = rep.get(key)
        if not close(got, want):
            self.append(f"{key}: got {got!r}, oracle {want!r}")

    def eq(self, rep: dict, key: str, want) -> None:
        got = rep.get(key)
        if got != want:
            self.append(f"{key}: got {got!r}, expected {want!r}")

    def true(self, cond: bool, what: str) -> None:
        if not cond:
            self.append(what)


def check_bound(rep: dict, a: np.ndarray, b: np.ndarray) -> list[str]:
    """quantitative_bound: every field, the floor, and the Loewner ordering."""
    err = _Errors()
    n = a.shape[0]
    r_b = num_rank(b)
    mu, _ = mu_scan(a, n - r_b + 1)
    kap = kappa_eff(b)
    md = min_diag(b)
    prod = a * b
    actual = lam_min(prod)
    err.eq(rep, "n", n)
    err.eq(rep, "r_b", r_b)
    err.num(rep, "mu", mu)
    err.num(rep, "kappa_eff", kap)
    err.num(rep, "min_diag", md)
    err.num(rep, "classical_bound", lam_min(a) * md)
    err.num(rep, "quantitative_bound", mu * md / kap)
    err.num(rep, "actual_lambda_min", actual)
    err.eq(rep, "loewner_verified", True)
    floor = rep.get("quantitative_bound")
    if close(floor, mu * md / kap):
        err.true(floor <= actual + PSD_SLACK, f"floor {floor!r} exceeds lambda_min {actual!r}")
        shift = rep["mu"] / rep["kappa_eff"]
        lam = lam_min(prod - shift * np.diag(np.diagonal(b).real))
        err.true(lam >= -PSD_SLACK, f"A o B - (mu/kappa) diag(B) has eigenvalue {lam!r}")
    return err


def check_classical(rep: dict, a: np.ndarray, b: np.ndarray) -> list[str]:
    err = _Errors()
    value = lam_min(a) * min_diag(b)
    actual = lam_min(a * b)
    err.num(rep, "classical_bound", value)
    if "actual_lambda_min" in rep:
        err.num(rep, "actual_lambda_min", actual)
    err.true(value <= actual + PSD_SLACK, "classical floor exceeds lambda_min")
    return err


def check_nonsingularity(rep: dict, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Kruskal rank by SVD brute force, rank of B, and the verdict."""
    err = _Errors()
    n = a.shape[0]
    k = kruskal_svd(a)
    r_b = num_rank(b)
    diag = np.diagonal(b).real
    diag_ok = float(np.min(diag)) > tau(np.max(diag))
    err.eq(rep, "n", n)
    err.eq(rep, "kruskal_rank_a", k)
    err.eq(rep, "rank_b", r_b)
    err.num(rep, "min_diag_b", float(np.min(diag)))
    err.eq(rep, "holds", bool(diag_ok and k >= n - r_b + 1))
    return err


def check_kruskal(rep: dict, a: np.ndarray) -> list[str]:
    err = _Errors()
    err.eq(rep, "kruskal_rank", kruskal_svd(a))
    return err


def check_mu(rep: dict, a: np.ndarray, m: int) -> list[str]:
    """Value and lexicographically first argmin; a tie within 1e-9 is accepted."""
    err = _Errors()
    value, arg = mu_scan(a, m)
    err.num(rep, "value", value)
    err.eq(rep, "m", m)
    got = rep.get("argmin_subset")
    if list(got or ()) != list(arg):
        try:
            s = tuple(int(i) for i in got)
            tied = len(s) == m and close(lam_min(a[np.ix_(s, s)]), value)
        except (TypeError, ValueError, IndexError):
            tied = False
        err.true(tied, f"argmin_subset: got {got!r}, oracle {list(arg)!r}")
    return err


def check_kappa(rep: dict, b: np.ndarray) -> list[str]:
    err = _Errors()
    err.num(rep, "kappa_eff", kappa_eff(b))
    return err


def check_projection(rep: dict, c: np.ndarray, p: np.ndarray) -> list[str]:
    """Hypothesis (order n-r+1 blocks PSD) and conclusion (C o P PSD)."""
    err = _Errors()
    n = c.shape[0]
    r = int(round(float(np.trace(p).real)))
    mu, _ = mu_scan(c, n - r + 1)
    threshold = -tau(np.max(np.abs(c)))
    prod = c * p
    hyp = mu >= threshold
    concl = is_psd(prod)
    err.eq(rep, "projection_rank", r)
    err.num(rep, "mu", mu)
    err.num(rep, "hypothesis_threshold", threshold)
    err.num(rep, "lambda_min_product", lam_min(prod))
    err.eq(rep, "hypothesis_holds", hyp)
    err.eq(rep, "conclusion_holds", concl)
    err.true(concl or not hyp, "hypothesis holds but C o P is not PSD")
    return err


def check_indefinite(rep: dict, c: np.ndarray, b: np.ndarray) -> list[str]:
    """Submatrix floor hypothesis against -(kappa - 1) lambda_min(C)."""
    err = _Errors()
    n = c.shape[0]
    r_b = num_rank(b)
    mu, _ = mu_scan(c, n - r_b + 1)
    kap = kappa_eff(b)
    lam_c = lam_min(c)
    required = -(kap - 1.0) * lam_c
    prod = c * b
    hyp = mu >= required - tau(np.max(np.abs(c)))
    concl = is_psd(prod)
    err.eq(rep, "rank_b", r_b)
    err.num(rep, "mu", mu)
    err.num(rep, "kappa_eff", kap)
    err.num(rep, "lambda_min_c", lam_c)
    err.num(rep, "required_floor", required)
    err.num(rep, "lambda_min_product", lam_min(prod))
    err.eq(rep, "hypothesis_holds", hyp)
    err.eq(rep, "conclusion_holds", concl)
    err.true(concl or not hyp, "hypothesis holds but C o B is not PSD")
    return err


def smoothed(scen: dict) -> np.ndarray:
    """Sum over p < P of D^p Sigma D^-p with D = diag(exp(1j omega))."""
    phases = np.exp(1j * np.asarray(scen["omega"]))
    sig = scen["sigma_s"]
    total = np.zeros_like(sig)
    for p in range(scen["P"]):
        d = phases**p
        total = total + d[:, None] * sig * np.conj(d)[None, :]
    return total


def check_doa(rep: dict, scen: dict) -> list[str]:
    err = _Errors()
    sig = scen["sigma_s"]
    r = num_rank(sig)
    m = scen["K"] - r + 1
    v = np.exp(1j * np.outer(np.arange(scen["P"]), scen["omega"]))
    tilde_sq = min_subset_sv(v, m) ** 2
    kap = kappa_eff(sig)
    md = min_diag(sig)
    bound = tilde_sq * md / kap
    lam = lam_min(smoothed(scen))
    err.eq(rep, "r_sigma_s", r)
    err.eq(rep, "m", m)
    err.num(rep, "tilde_sigma_sq", tilde_sq)
    err.num(rep, "kappa_eff", kap)
    err.num(rep, "min_diag", md)
    err.num(rep, "bound", bound)
    err.num(rep, "lambda_min_smoothed", lam)
    err.eq(rep, "bound_holds", True)
    err.eq(rep, "positivity_predicted", scen["P"] >= m)
    err.true(bound <= lam + PSD_SLACK, f"smoothing floor {bound!r} exceeds {lam!r}")
    return err


def check_cp(rep: dict, scen: dict) -> list[str]:
    err = _Errors()
    a, b = scen["A_load"], scen["B_load"]
    btb = b.T @ b
    gram = sum(np.outer(g, g) for g in scen["g"])
    d2 = num_rank(btb)
    m = scen["d"] - d2 + 1
    mu, _ = mu_scan(gram, m)
    kap = kappa_eff(btb)
    floor = mu / kap
    a_vals = np.linalg.eigvalsh(a.T @ a)[::-1]
    d1 = num_rank(a.T @ a)
    sigma_sq = float(a_vals[d1 - 1])
    core = gram * btb
    m1 = a @ core @ a.T
    m1_vals = np.linalg.eigvalsh(m1)[::-1]
    lam_pos = float(m1_vals[num_rank(m1) - 1])
    lam_core = lam_min(core)
    kg = kruskal_svd(gram)
    err.eq(rep, "d1", d1)
    err.eq(rep, "d2", d2)
    err.num(rep, "mu", mu)
    err.num(rep, "kappa_eff", kap)
    err.num(rep, "sigma_d1_sq", sigma_sq)
    err.num(rep, "hadamard_floor", floor)
    err.num(rep, "m1_floor", sigma_sq * floor)
    err.num(rep, "lambda_min_core", lam_core)
    err.num(rep, "lambda_min_pos_m1", lam_pos)
    err.eq(rep, "kruskal_g", kg)
    err.eq(rep, "condition_met", kg >= m)
    err.eq(rep, "core_floor_holds", True)
    err.eq(rep, "m1_floor_holds", True)
    err.true(floor <= lam_core + PSD_SLACK, "core floor exceeds lambda_min(core)")
    err.true(sigma_sq * floor <= lam_pos + PSD_SLACK, "moment floor exceeds lambda_min+")
    return err
