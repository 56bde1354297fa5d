"""Span tracer installed around hadabound's public functions from outside.

Each wrapped call records a span (name, layer, start, end, parent span,
op id). Spans stay in memory until the run ends; `totals` then folds them
into additive sums (self time per layer, inclusive time per span name,
call counts), so the sums of several processes can be added together.

Wrappers replace every reference to a function in every hadabound module,
so the copies bound by `from .x import y` in certify, apps, cli, selftest,
submatrix and generators are traced too. Patching only the defining
module would miss those calls.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

LAYERS = ("cli", "certify", "apps", "submatrix", "matcore", "selftest", "generators")
MODULES = ("matcore", "submatrix", "certify", "apps", "generators", "selftest", "cli")
EIG_BUCKETS = (("n1-8", 1, 8), ("n9-16", 9, 16), ("n17-64", 17, 64))

# Span name per traced public function, by layer. tol_for, as_hermitian
# and subset_count are not wrapped: they do no work of their own and
# would dominate the span count.
SPAN_NAMES = {
    "matcore": {
        "eigvals_hermitian": "eig",
        "eig_hermitian": "eig",
        "classify_psd": "classify",
        "rank_numeric": "classify",
        "hadamard": "hadamard",
        "is_orthogonal_projection": "projection_check",
        "schur_complement": "schur",
    },
    "submatrix": {
        "min_submatrix_eigenvalue": "mu",
        "kruskal_rank": "kruskal",
        "min_subset_singular_value": "subset_sv",
        "effective_condition_number": "kappa",
        "principal_submatrix": "principal",
    },
    "certify": {
        "classical_bound": "call",
        "loewner_check": "verify",
        "quantitative_bound": "call",
        "nonsingularity_predicate": "call",
        "decompose_projection": "call",
        "projection_certificate": "call",
        "indefinite_certificate": "call",
        "shift_construction": "call",
    },
    "apps": {
        "build_steering": "call",
        "smoothed_cov_direct": "call",
        "smoothed_cov_hadamard": "call",
        "doa_bound": "call",
        "rank_identity_check": "call",
        "cp_m1": "call",
        "cp_bound": "call",
    },
    "cli": {
        "parse_matrix": "parse",
        "load_doa_scenario": "parse",
        "load_cp_scenario": "parse",
        "dispatch": "dispatch",
        "emit_report": "emit",
    },
    "generators": {
        "random_hermitian": "gen",
        "random_psd": "gen",
        "random_projection": "gen",
        "random_psd_with_kruskal": "gen",
        "random_frequencies": "gen",
        "random_doa_scenario": "gen",
        "random_cp_scenario": "gen",
    },
}
SUITES = (
    "eig_invariants",
    "schur_product",
    "quantitative_floor",
    "projection_floor",
    "indefinite_shift",
    "projection_split",
    "doa",
    "cp",
    "oracle_crosscheck",
)
SPAN_NAMES["selftest"] = {f"suite_{s}": f"suite.{s}" for s in SUITES}
# Validators run by dataclass __init__; patched on the class itself.
CLASS_HOOKS = (
    ("matcore", "HermitianMatrix", "carrier"),
    ("apps", "DoaScenario", "scenario"),
    ("apps", "CpScenario", "scenario"),
)


def _as_array(arg):
    return getattr(arg, "entries", arg)


class Tracer:
    """Collects spans for one process; install() patches, uninstall() restores."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.op = -1
        self.op_inputs: set[int] = set()
        self.products: dict[int, object] = {}
        self.eig_distinct = 0
        self.subsets_visited = 0
        self.subsets_requested = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.eig_distinct += len(self.op_inputs)
        self.op_inputs.clear()
        self.products.clear()

    def _wrap(self, fn, name, layer, probe=None, post=None):
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = probe(args) if probe is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[layer] == 0
            depth[layer] += 1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                spans[idx] = (name, layer, t0, t1, parent, outer, extra, self.op)
            if post is not None:
                post(result)
            return result

        return traced

    def _eig_probe(self, args):
        arr = _as_array(args[0])
        self.op_inputs.add(hash(arr.tobytes()))
        return arr.shape[0]

    def _classify_probe(self, args):
        return self.products.get(id(args[0])) is args[0]

    def _remember_product(self, result):
        self.products[id(result)] = result

    def _counting_iter_subsets(self, fn):
        def count(it):
            for subset in it:
                self.subsets_visited += 1
                yield subset

        @functools.wraps(fn)
        def traced(n, m, *rest, **kwargs):
            it = fn(n, m, *rest, **kwargs)  # raises eagerly on a budget overrun
            self.subsets_requested += math.comb(n, m)
            return count(it)

        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        owners = [self.package, *self.modules.values()]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._restore.append((owner, attr, original))

    def install(self) -> None:
        for layer, names in SPAN_NAMES.items():
            mod = self.modules[layer]
            for attr, name in names.items():
                fn = getattr(mod, attr)
                probe = post = None
                if name == "eig":
                    probe = self._eig_probe
                elif name == "classify":
                    probe = self._classify_probe
                elif name == "hadamard":
                    post = self._remember_product
                self._replace_everywhere(fn, self._wrap(fn, name, layer, probe, post))
        submatrix = self.modules["submatrix"]
        self._replace_everywhere(
            submatrix.iter_subsets, self._counting_iter_subsets(submatrix.iter_subsets)
        )
        for layer, cls_name, name in CLASS_HOOKS:
            cls = getattr(self.modules[layer], cls_name)
            hook = cls.__dict__["__post_init__"]
            cls.__post_init__ = self._wrap(hook, name, layer)
            self._restore.append((cls, "__post_init__", hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def rows(self):
        """Finished spans as (op, id, parent, name, layer, start, end)."""
        for idx, (name, layer, t0, t1, parent, _outer, _extra, op) in enumerate(self.spans):
            yield op, idx, parent, name, layer, t0, t1

    def totals(self) -> dict:
        """Additive sums over all spans; see layer_metrics for their use."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, t0, t1, parent, outer, extra, op in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for idx, (name, layer, t0, t1, parent, outer, extra, op) in enumerate(spans):
            dur = t1 - t0
            out[f"self.{layer}"] += dur - child[idx]
            out[f"calls.{layer}.{name}"] += 1
            out[f"calls.{layer}"] += 1
            if outer:
                out[f"incl.{layer}"] += dur
            out[f"incl.{layer}.{name}"] += dur
            if name == "eig":
                for label, lo, hi in EIG_BUCKETS:
                    if lo <= extra <= hi:
                        out[f"eig.{label}.s"] += dur
                        out[f"eig.{label}.calls"] += 1
            elif (name == "classify" and extra) or name == "verify":
                out["verify.s"] += dur
        out["eig.distinct"] = self.eig_distinct
        out["subsets.visited"] = self.subsets_visited
        out["subsets.requested"] = self.subsets_requested
        return dict(out)


def add_totals(into: Counter, more: dict) -> None:
    for key, value in more.items():
        into[key] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    t: dict,
    ops: int,
    op_wall_s: float,
    suite_trials: dict[str, int],
    full_scale_trials: dict[str, int],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from summed totals; per-op values are means over `ops`.

    suite_trials counts the traced calls of each selftest suite and
    full_scale_trials gives its trial count in run_all at scale 1, so
    selftest.<suite>_s estimates that suite's full-scale wall time.
    """

    def g(key: str) -> float:
        return t.get(key, 0.0)

    def per_op(key: str) -> float:
        return _ratio(g(key), ops)

    scan_s = g("incl.submatrix.mu") + g("incl.submatrix.kruskal") + g("incl.submatrix.subset_sv")
    eig_calls = g("calls.matcore.eig")
    m: dict[str, tuple[float, str]] = {
        "matcore.eig_calls": (per_op("calls.matcore.eig"), "count/op"),
        "matcore.eig_s": (per_op("incl.matcore.eig"), "s/op"),
        "matcore.eig_distinct_frac": (_ratio(g("eig.distinct"), eig_calls), "ratio"),
    }
    for label, _lo, _hi in EIG_BUCKETS:
        mean = _ratio(g(f"eig.{label}.s"), g(f"eig.{label}.calls"))
        m[f"matcore.eig_ms_mean.{label}"] = (1000.0 * mean, "ms")
    m["matcore.eig_share.n17-64"] = (_ratio(g("eig.n17-64.s"), op_wall_s), "ratio")
    m["matcore.carrier_calls"] = (per_op("calls.matcore.carrier"), "count/op")
    m["matcore.carrier_s"] = (per_op("incl.matcore.carrier"), "s/op")
    m["matcore.classify_calls"] = (per_op("calls.matcore.classify"), "count/op")
    m["submatrix.scan_s"] = (_ratio(scan_s, ops), "s/op")
    m["submatrix.scan_share"] = (_ratio(scan_s, op_wall_s), "ratio")
    m["submatrix.mu_s"] = (per_op("incl.submatrix.mu"), "s/op")
    m["submatrix.kruskal_s"] = (per_op("incl.submatrix.kruskal"), "s/op")
    m["submatrix.subset_sv_s"] = (per_op("incl.submatrix.subset_sv"), "s/op")
    m["submatrix.subsets_visited"] = (per_op("subsets.visited"), "count/op")
    m["submatrix.subsets_visited_frac"] = (
        _ratio(g("subsets.visited"), g("subsets.requested")),
        "ratio",
    )
    m["submatrix.us_per_subset"] = (1e6 * _ratio(scan_s, g("subsets.visited")), "us")
    m["certify.calls"] = (per_op("calls.certify"), "count/op")
    m["certify.self_s"] = (per_op("self.certify"), "s/op")
    m["certify.verify_s"] = (per_op("verify.s"), "s/op")
    m["apps.calls"] = (per_op("calls.apps"), "count/op")
    m["apps.self_s"] = (per_op("self.apps"), "s/op")
    m["cli.parse_ms"] = (1000.0 * per_op("incl.cli.parse"), "ms/op")
    m["cli.dispatch_ms"] = (1000.0 * per_op("incl.cli.dispatch"), "ms/op")
    m["cli.emit_ms"] = (1000.0 * per_op("incl.cli.emit"), "ms/op")
    for suite in SUITES:
        mean = _ratio(g(f"incl.selftest.suite.{suite}"), suite_trials.get(suite, 0))
        m[f"selftest.{suite}_s"] = (mean * full_scale_trials[suite], "s")
    m["generators.s"] = (per_op("incl.generators"), "s/op")
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(g(f"self.{layer}"), op_wall_s), "ratio")
    return m
