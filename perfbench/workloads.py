"""The four workloads: seeded op cycles, each op checked by the oracle.

A workload is a sequence of cycles. Cycle c draws fresh inputs from
(seed, c) and lists its ops in a fixed order, so every whole cycle holds
the same mix of op kinds. The runner is closed-loop: one caller issues
the next op only after the previous one has returned. Only `Op.call` is
timed; input generation and `Op.check` run outside the timed interval.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import bootstrap
import inputs
import oracle
import proc
import reference

# Trial counts of selftest.run_all at scale 1; the suites workload draws
# its op mix in these proportions (one op = one trial).
FULL_SCALE_TRIALS = {
    "eig_invariants": 1000,
    "schur_product": 300,
    "quantitative_floor": 1000,
    "projection_floor": 500,
    "indefinite_shift": 500,
    "projection_split": 500,
    "doa": 500,
    "cp": 300,
    "oracle_crosscheck": 200,
}
WARM_UP_CYCLE = 1_000_000  # warm-up inputs come from cycles the timed phase never uses


@dataclasses.dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    bound: bool = False  # computes the quantitative floor (bound_ms_mean)


def _asdict(report) -> dict:
    return dataclasses.asdict(report)


class InProcess:
    """Ops are library calls in this process; the Jacobi kernel is the reference."""

    measure_reference = staticmethod(reference.jacobi_kernel)
    ref_nominal_s = reference.JACOBI_NOMINAL_S
    ref_every_s = 0.1  # op time between two reference samples

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Scan(InProcess):
    """Subset scans: C(n, m) blocks of order 5-7 per call, m ~ n/2 + 1."""

    name = "scan"

    def __init__(self, hb, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.hb, self.seed = hb, seed
        self.sizes = (6, 7) if tiny else (9, 10, 11)
        self.doa_k, self.doa_rank = (4, 2) if tiny else (10, 5)

    def describe(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "rank_a": {n: n // 2 + 1 for n in self.sizes},
            "rank_b": {n: n // 2 for n in self.sizes},
            "projection_rank": {n: n // 2 for n in self.sizes},
            "doa": {"K": self.doa_k, "rank": self.doa_rank, "N": 2 * self.doa_k, "P": self.doa_k},
        }

    def cycle(self, c: int) -> list[Op]:
        hb, ops = self.hb, []
        for slot, n in enumerate(self.sizes):
            rng = inputs.rng_for(self.seed, c, slot)
            a = inputs.psd(rng, n, n // 2 + 1)
            b = inputs.psd(rng, n, n // 2)
            p = inputs.projection(rng, n, n // 2)
            scen = inputs.doa(rng, self.doa_k, self.doa_rank)
            ops += [
                Op(
                    f"quantitative_bound/n{n}",
                    lambda a=a, b=b: hb.certify.quantitative_bound(a, b),
                    lambda r, a=a, b=b: oracle.check_bound(_asdict(r), a, b),
                    bound=True,
                ),
                Op(
                    f"nonsingularity_predicate/n{n}",
                    lambda a=a, b=b: hb.certify.nonsingularity_predicate(a, b),
                    lambda r, a=a, b=b: oracle.check_nonsingularity(_asdict(r), a, b),
                ),
                Op(
                    f"projection_certificate/n{n}",
                    lambda a=a, p=p: hb.certify.projection_certificate(a, p),
                    lambda r, a=a, p=p: oracle.check_projection(_asdict(r), a, p),
                ),
                Op(
                    f"doa_bound/K{self.doa_k}",
                    lambda s=scen: hb.apps.doa_bound(hb.apps.DoaScenario(**s)),
                    lambda r, s=scen: oracle.check_doa(_asdict(r), s),
                ),
            ]
        return ops


class Dense(InProcess):
    """Full-rank B, so m = 1 and the subset scan is bypassed."""

    name = "dense"

    def __init__(self, hb, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.hb, self.seed = hb, seed
        self.sizes = (8, 10) if tiny else (24, 32, 40)

    def describe(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "rank_a": {n: n // 2 for n in self.sizes},
            "rank_b": {n: n for n in self.sizes},
            "c": "A - (min diag(A) / (2 kappa_eff(B))) I",
        }

    def cycle(self, c: int) -> list[Op]:
        hb, ops = self.hb, []
        for slot, n in enumerate(self.sizes):
            rng = inputs.rng_for(self.seed, c, slot)
            a = inputs.psd(rng, n, n // 2)
            b = inputs.psd(rng, n, n, frame_rows=2 * n)
            shift = 0.5 * oracle.min_diag(a) / oracle.kappa_eff(b)
            cm = a - shift * np.eye(n)
            ops += [
                Op(
                    f"quantitative_bound/n{n}",
                    lambda a=a, b=b: hb.certify.quantitative_bound(a, b),
                    lambda r, a=a, b=b: oracle.check_bound(_asdict(r), a, b),
                    bound=True,
                ),
                Op(
                    f"classical_bound/n{n}",
                    lambda a=a, b=b: hb.certify.classical_bound(a, b),
                    lambda v, a=a, b=b: oracle.check_classical({"classical_bound": v}, a, b),
                ),
                Op(
                    f"indefinite_certificate/n{n}",
                    lambda cm=cm, b=b: hb.certify.indefinite_certificate(cm, b),
                    lambda r, cm=cm, b=b: oracle.check_indefinite(_asdict(r), cm, b),
                ),
            ]
        return ops


class Suites(InProcess):
    """Property-suite trials in run_all's full-scale proportions."""

    name = "suites"

    def __init__(self, hb, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.hb, self.seed = hb, seed
        self.schedule = [s for s, t in FULL_SCALE_TRIALS.items() for _ in range(t // 100)]

    def describe(self) -> dict:
        return {"trials_per_cycle": {s: t // 100 for s, t in FULL_SCALE_TRIALS.items()}}

    def cycle(self, c: int) -> list[Op]:
        st = self.hb.selftest
        return [
            Op(
                suite,
                lambda suite=suite, slot=slot: getattr(st, f"suite_{suite}")(
                    inputs.rng_for(self.seed, c, slot), 1
                ),
                lambda r: [] if r.failures == 0 else [f"suite failed: {r.details}"],
                bound=suite == "quantitative_floor",
            )
            for slot, suite in enumerate(self.schedule)
        ]


def _write_matrix(path: Path, arr: np.ndarray) -> None:
    lines = [f"n {arr.shape[0]} {arr.shape[1]} complex"]
    for row in arr:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cplx(arr: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


class Cli:
    """One `python -m hadabound.cli <command>` process per op, n <= 3 inputs.

    Each command runs twice in a row on the same files; both runs are
    timed ops and the second must print the same bytes as the first.
    With trace set, the process runs child.py instead, which installs the
    tracer, dispatches in-process and leaves its span totals in a file.
    """

    name = "cli"
    measure_reference = staticmethod(reference.interpreter_kernel)
    ref_nominal_s = reference.INTERP_NOMINAL_S
    ref_every_s = 0.4
    STATUS = {
        "bound": "verified",
        "classical": "verified",
        "kruskal": "computed",
        "mu": "computed",
        "kappa": "computed",
        "projection": "verified",
        "certify-indefinite": "verified",
        "doa-bound": "verified",
        "cp-bound": "verified",
    }

    def __init__(self, hb, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.hb, self.seed = hb, seed
        self.workdir = workdir
        self.env = bootstrap.child_env()
        self.trace_dir: Path | None = None
        self.child_totals: list[dict] = []
        self.child_rows: list[list] = []
        self.maxrss_kb = 0

    def peak_rss_mb(self) -> float:
        return self.maxrss_kb / 1024.0

    def describe(self) -> dict:
        return {
            "n": 3,
            "rank_a": 2,
            "rank_b": 2,
            "projection_rank": 2,
            "c": "A - (mu_2(A) / 2) I",
            "doa": {"N": 4, "K": 2, "P": 2, "rank": 1},
            "cp": {"d": 2, "rank_btb": 1, "scores": 2},
            "commands": list(self.STATUS),
        }

    def write_inputs(self, c: int) -> tuple[Path, dict]:
        rng = inputs.rng_for(self.seed, c)
        a = inputs.psd(rng, 3, 2)
        b = inputs.psd(rng, 3, 2)
        p = inputs.projection(rng, 3, 2)
        cm = a - 0.5 * oracle.mu_scan(a, 2)[0] * np.eye(3)
        doa = inputs.doa(rng, 2, 1)
        cp = inputs.cp(rng)
        d = self.workdir / f"c{c}"
        d.mkdir(parents=True, exist_ok=True)
        for name, arr in (("a", a), ("b", b), ("c", cm), ("p", p)):
            _write_matrix(d / f"{name}.mtx", arr)
        doc = dict(doa, omega=list(doa["omega"]), sigma_s=_cplx(doa["sigma_s"]))
        (d / "doa.json").write_text(json.dumps(doc), encoding="utf-8")
        doc = {
            "d": cp["d"],
            "A_load": cp["A_load"].tolist(),
            "B_load": cp["B_load"].tolist(),
            "g": [v.tolist() for v in cp["g"]],
        }
        (d / "cp.json").write_text(json.dumps(doc), encoding="utf-8")
        return d, {"a": a, "b": b, "c": cm, "p": p, "doa": doa, "cp": cp}

    def _argv(self, d: Path) -> dict[str, list[str]]:
        def f(name: str) -> str:
            return str(d / name)

        return {
            "bound": ["--a", f("a.mtx"), "--b", f("b.mtx")],
            "classical": ["--a", f("a.mtx"), "--b", f("b.mtx")],
            "kruskal": ["--a", f("a.mtx")],
            "mu": ["--a", f("a.mtx"), "--m", "2"],
            "kappa": ["--b", f("b.mtx")],
            "projection": ["--c", f("c.mtx"), "--p", f("p.mtx")],
            "certify-indefinite": ["--a", f("a.mtx"), "--b", f("b.mtx"), "--fraction", "0.5"],
            "doa-bound": ["--scenario", f("doa.json")],
            "cp-bound": ["--scenario", f("cp.json")],
        }

    @staticmethod
    def _oracle(cmd: str, res: dict, x: dict) -> list[str]:
        a, b = x["a"], x["b"]
        if cmd == "bound":
            return oracle.check_bound(res, a, b)
        if cmd == "classical":
            return oracle.check_classical(res, a, b)
        if cmd == "kruskal":
            return oracle.check_kruskal(res, a)
        if cmd == "mu":
            return oracle.check_mu(res, a, 2)
        if cmd == "kappa":
            return oracle.check_kappa(res, b)
        if cmd == "projection":
            return oracle.check_projection(res, x["c"], x["p"])
        if cmd == "certify-indefinite":
            r_b = oracle.num_rank(b)
            shift = 0.5 * oracle.mu_scan(a, 3 - r_b + 1)[0] / oracle.kappa_eff(b)
            errs = [] if oracle.close(res.get("shift"), shift) else [f"shift {res.get('shift')!r}"]
            return errs + oracle.check_indefinite(res, a - shift * np.eye(3), b)
        if cmd == "doa-bound":
            return oracle.check_doa(res, x["doa"])
        return oracle.check_cp(res, x["cp"])

    def check_report(self, cmd: str, out: proc.Result, x: dict) -> list[str]:
        """Exit code 0, empty stderr, the expected status, oracle agreement."""
        errs = []
        if out.code != 0:
            errs.append(f"exit code {out.code}")
        if out.stderr:
            errs.append(f"stderr {out.stderr[:200]!r}")
        try:
            doc = json.loads(out.stdout)
            res = doc["results"]
        except (ValueError, KeyError, TypeError) as exc:
            return errs + [f"unreadable report: {exc}"]
        if doc.get("command") != cmd:
            errs.append(f"command {doc.get('command')!r}")
        if res.get("status") != self.STATUS[cmd] or res.get("reason") is not None:
            errs.append(f"status {res.get('status')!r}, reason {res.get('reason')!r}")
        return errs + self._oracle(cmd, res, x)

    def _call(self, cmd: str, args: list[str]) -> proc.Result:
        if self.trace_dir is None:
            out = proc.run([sys.executable, "-m", "hadabound.cli", cmd, *args], bootstrap.ROOT, self.env)
        else:
            spans = self.trace_dir / f"op{len(self.child_totals)}.json"
            child = str(Path(__file__).with_name("child.py"))
            out = proc.run(
                [sys.executable, child, "cli", str(spans), cmd, *args], bootstrap.ROOT, self.env
            )
            out.spans = spans
        self.maxrss_kb = max(self.maxrss_kb, out.maxrss_kb)
        return out

    def _collect(self, out: proc.Result) -> None:
        """Read a traced child's span file (outside the timed interval)."""
        if out.spans is None:
            return
        doc = json.loads(out.spans.read_text(encoding="utf-8"))
        out.spans.unlink()
        op_id = len(self.child_totals)
        self.child_totals.append(doc["totals"])
        self.child_rows.extend([op_id, *row[1:]] for row in doc["rows"])

    def cycle(self, c: int) -> list[Op]:
        d, x = self.write_inputs(c)
        ops = []
        for cmd, args in self._argv(d).items():
            first: dict = {}

            def call(cmd=cmd, args=args):
                return self._call(cmd, args)

            def check_first(out, cmd=cmd, first=first):
                self._collect(out)
                first["out"] = out
                first["errs"] = self.check_report(cmd, out, x)
                return first["errs"]

            def check_again(out, first=first):
                self._collect(out)
                errs = list(first.get("errs", ["first run missing"]))
                if out.code != 0:
                    errs.append(f"exit code {out.code}")
                if "out" in first and out.stdout != first["out"].stdout:
                    errs.append("report differs from the identical first invocation")
                return errs

            ops.append(Op(f"{cmd}#1", call, check_first, bound=cmd == "bound"))
            ops.append(Op(f"{cmd}#2", call, check_again, bound=cmd == "bound"))
        return ops


WORKLOADS = {w.name: w for w in (Scan, Dense, Cli, Suites)}


@dataclasses.dataclass
class Phase:
    """Timed samples of one closed-loop phase made of whole cycles.

    refs holds (index of the next op, seconds) for each reference sample;
    one is taken at the start, one at the end, and one before an op
    whenever ref_every_s of op time has passed since the last.
    """

    kinds: list = dataclasses.field(default_factory=list)
    times: list = dataclasses.field(default_factory=list)
    bound: list = dataclasses.field(default_factory=list)
    refs: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    cycles: int = 0
    wall_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return math.fsum(self.times)

    def scaled_times(self, nominal_s: float) -> list[float]:
        """Each op time times nominal / the local reference time.

        The local reference is the median of the three samples taken before
        the op and the three after it, which smooths out single noisy
        samples but still follows the machine's speed over seconds.
        """
        out, j, refs = [], 0, self.refs
        for i, dt in enumerate(self.times):
            while refs[j + 1][0] <= i:
                j += 1
            local = statistics.median(r for _, r in refs[max(0, j - 2) : j + 4])
            out.append(dt * nominal_s / local)
        return out


def run_phase(workload, seconds: float, tracer=None, warm_up: bool = False) -> Phase:
    """Run whole cycles until the timed ops add up to `seconds`.

    A warm-up phase draws its inputs from cycles of its own and stops after
    any op, so lazy initialisation and cache fills finish before timing.
    """
    phase = Phase()
    start = time.perf_counter()
    first = WARM_UP_CYCLE if warm_up else 0
    since_ref = math.inf
    while phase.busy_s < seconds:
        for op in workload.cycle(first + phase.cycles):
            if since_ref >= workload.ref_every_s:
                phase.refs.append((phase.attempted, workload.measure_reference()))
                since_ref = 0.0
            run_op(phase, op, tracer)
            since_ref += phase.times[-1]
            if warm_up and phase.busy_s >= seconds:
                break
        phase.cycles += 1
    phase.refs.append((phase.attempted, workload.measure_reference()))
    phase.wall_s = time.perf_counter() - start
    return phase


def run_op(phase: Phase, op: Op, tracer=None) -> None:
    """Time one op, then check it outside the timed interval."""
    if tracer is not None:
        tracer.begin_op(phase.attempted)
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # any exception is a failed op
        out, raised = None, exc
    else:
        raised = None
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if raised is not None:
        errs = [f"raised {raised!r}"]
    else:
        try:
            errs = op.check(out)
        except Exception as exc:  # a report the oracle cannot read
            errs = [f"check raised {exc!r}"]
    phase.attempted += 1
    phase.kinds.append(op.kind)
    phase.times.append(dt)
    phase.bound.append(op.bound)
    if errs:
        phase.failed += 1
        phase.errors.append((op.kind, errs))
