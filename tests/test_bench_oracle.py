"""The benchmark's scan workload, checked by the benchmark's own oracle.

perfbench/oracle.py recomputes every reported quantity with LAPACK and a
brute-force subset enumeration. The scan workload's inputs (n = 9-11,
rank A = n/2 + 1, rank B = n/2, a DOA steering Gram with K = 10) reach
every subset-scan path: minimum scans with rank A at, above and below the
scan order, Kruskal walks on both paths, and the screens before each
solve. Every op of cycle 0 is checked for seeds 1-8. perfbench/ is
imported read-only, as test_tracer_contract.py loads its tracer.
"""

import importlib
import sys
from pathlib import Path

import pytest

import hadabound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The top-level modules workloads.py imports from its own directory.
_BENCH_MODULES = ("bootstrap", "inputs", "oracle", "proc", "reference", "workloads")


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded without leaving its modules importable by name."""
    saved = {name: sys.modules.pop(name) for name in _BENCH_MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in _BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("seed", range(1, 9))
def test_scan_cycle_agrees_with_the_oracle(workloads, seed):
    ops = workloads.Scan(hadabound, seed).cycle(0)
    assert len(ops) == 12
    errors = {op.kind: op.check(op.call()) for op in ops}
    assert {kind: errs for kind, errs in errors.items() if errs} == {}
