"""The correctness gate counts wrong results as failures; smoke runs print every metric.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

bootstrap.pin_threads()
hb = bootstrap.load_package()

import workloads  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _op(workload, kind_prefix: str):
    return next(op for op in workload.cycle(0) if op.kind.startswith(kind_prefix))


def _run(op) -> workloads.Phase:
    phase = workloads.Phase()
    workloads.run_op(phase, op)
    return phase


def test_correct_floor_passes():
    phase = _run(_op(workloads.Scan(hb, 7, tiny=True), "quantitative_bound"))
    assert (phase.attempted, phase.failed) == (1, 0), phase.errors


def test_wrong_floor_is_a_failure(monkeypatch):
    real = hb.certify.quantitative_bound

    def inflated(a, b, *rest):
        rep = real(a, b, *rest)
        return dataclasses.replace(rep, quantitative_bound=rep.quantitative_bound * 1.5 + 0.1)

    monkeypatch.setattr(hb.certify, "quantitative_bound", inflated)
    for w in (workloads.Scan(hb, 7, tiny=True), workloads.Dense(hb, 7, tiny=True)):
        phase = _run(_op(w, "quantitative_bound"))
        assert phase.failed == 1
        assert any("quantitative_bound" in e for e in phase.errors[0][1])


def test_wrong_kruskal_rank_is_a_failure(monkeypatch):
    real = hb.certify.nonsingularity_predicate

    def off_by_one(a, b, *rest):
        rep = real(a, b, *rest)
        return dataclasses.replace(rep, kruskal_rank_a=rep.kruskal_rank_a + 1)

    monkeypatch.setattr(hb.certify, "nonsingularity_predicate", off_by_one)
    phase = _run(_op(workloads.Scan(hb, 7, tiny=True), "nonsingularity_predicate"))
    assert phase.failed == 1
    assert any("kruskal_rank_a" in e for e in phase.errors[0][1])


def test_exception_is_a_failure(monkeypatch):
    def boom(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(hb.apps, "doa_bound", boom)
    phase = _run(_op(workloads.Scan(hb, 7, tiny=True), "doa_bound"))
    assert phase.failed == 1


def test_failing_suite_is_a_failure(monkeypatch):
    monkeypatch.setattr(
        hb.selftest, "suite_cp", lambda rng, trials: hb.selftest.SuiteResult("cp", 1, 1, {})
    )
    phase = _run(_op(workloads.Suites(hb, 7), "cp"))
    assert phase.failed == 1


def test_cli_exit_code_and_determinism(tmp_path, monkeypatch):
    w = workloads.Cli(hb, 7, workdir=tmp_path)
    first, again = [op for op in w.cycle(0) if op.kind.startswith("bound#")]
    good = _run(first)
    assert good.failed == 0, good.errors
    report = w._call("bound", ["--a", str(tmp_path / "c0/a.mtx"), "--b", str(tmp_path / "c0/b.mtx")])
    assert report.code == 0

    monkeypatch.setattr(w, "_call", lambda cmd, args: dataclasses.replace(report, code=1))
    phase = _run(first)
    assert phase.failed == 1
    assert any("exit code 1" in e for e in phase.errors[0][1])

    monkeypatch.setattr(w, "_call", lambda cmd, args: report)
    assert _run(first).failed == 0
    changed = report.stdout.replace(b'"verified"', b'"verified" ', 1)
    monkeypatch.setattr(w, "_call", lambda cmd, args: dataclasses.replace(report, stdout=changed))
    phase = _run(again)
    assert phase.failed == 1
    assert any("differs" in e for e in phase.errors[0][1])


def _bench(args, cwd=bootstrap.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed.pop("fail_frac") == "ratio"
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"] == printed[m["name"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values())
    elif workload == "scan":
        assert values["submatrix.subsets_visited"] > 0 and values["matcore.eig_calls"] > 0
    elif workload == "cli":
        assert values["cli.dispatch_ms"] > 0 and values["cli.parse_ms"] > 0
    elif workload == "suites":
        assert values["selftest.quantitative_floor_s"] > 0 and values["generators.s"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
