"""bench/record.py: what it refuses, and where it takes its names from.

A fake perfbench/run.py in a temporary git repository stands in for the
harness, so nothing here runs the benchmark.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "bench" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

FAKE_RUN = """\
import json, sys
argv = sys.argv[1:]
workload = argv[argv.index("--workload") + 1]
print("context " + json.dumps({"commit": "fake", "workload": workload}))
metrics = {"ops_per_s": {"value": 2.0, "unit": "1/s"}, "extra": {"value": 1.0, "unit": "s"}}
print(json.dumps({"metrics": metrics, "attempted": 3, "failed": 0}))
"""


def _git(repo: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src" / "x.py").write_text("x = 1\n")
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "README.md").write_text("readme\n")
    spec = {
        "run_seconds": 0.01,
        "workloads": [{"name": "only"}],
        "end_to_end": [{"name": "ops_per_s"}],
    }
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "init")
    return repo


def _record(repo: Path, out: Path) -> int:
    return record.main(["record", "--checkout", str(repo), "--out", str(out)])


@pytest.mark.parametrize("path", ["src/x.py", "perfbench/run.py", "BENCHMARK.json"])
@pytest.mark.parametrize("staged", [False, True])
def test_record_refuses_a_changed_run_path(checkout, tmp_path, capsys, path, staged):
    with open(checkout / path, "a") as fh:
        fh.write("\n")
    if staged:
        _git(checkout, "add", path)
    out = tmp_path / "bench.json"
    assert _record(checkout, out) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


def test_record_refuses_a_directory_outside_git(tmp_path, capsys):
    assert _record(tmp_path, tmp_path / "bench.json") == 2
    assert "cannot compare" in capsys.readouterr().err


def test_record_takes_names_from_benchmark_json(checkout, tmp_path, capsys):
    (checkout / "README.md").write_text("edited\n")  # outside the run paths
    (checkout / "src" / "untracked.py").write_text("")
    out = tmp_path / "bench.json"
    assert _record(checkout, out) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["only"]
    only = doc["workloads"]["only"]
    assert list(only["end_to_end"]) == ["ops_per_s"]
    assert only["end_to_end"]["ops_per_s"]["median"] == 2.0
    assert (only["attempted"], only["failed"]) == (3 * len(record.SEEDS), 0)


def test_compare_refuses_different_run_lengths(tmp_path, capsys):
    paths = []
    for seconds in (22, 30):
        path = tmp_path / f"bench_{seconds}.json"
        path.write_text(json.dumps({"seconds": seconds, "workloads": {}}))
        paths.append(str(path))
    assert record.main(["compare", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run lengths differ" in captured.err


@pytest.mark.parametrize("field", record.MACHINE_FIELDS)
def test_compare_refuses_files_from_different_machines(tmp_path, capsys, field):
    context = {"commit": "c", "cpu": "x", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    workload = {"context": context, "end_to_end": {}, "attempted": 1, "failed": 0,
                "per_layer": {"metrics": {}}}
    paths = []
    for name, value in (("old", context[field]), ("new", "other")):
        path = tmp_path / f"{name}.json"
        doc = {"seconds": 22, "workloads": {"only": {**workload,
                                                     "context": {**context, field: value}}}}
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert record.main(["compare", paths[0], paths[0]]) == 0
    capsys.readouterr()
    assert record.main(["compare", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"context {field} differs" in captured.err
