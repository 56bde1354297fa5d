"""What each command imports, and how the package resolves its submodules.

A pytest session has already imported every hadabound module, so each
check runs in a fresh interpreter, as tests/test_tracer_contract.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hadabound.cli import fixture_path

ROOT = Path(__file__).resolve().parents[1]
# The modules a command imports only when it runs them.
LAZY = ("apps", "certify", "generators", "selftest")

# Command line (fixture names resolved below) -> the LAZY modules it loads.
COMMANDS = {
    "bound": (["--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"], ["certify"]),
    "classical": (["--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"], ["certify"]),
    "projection": (["--c", "indefinite_c.mtx", "--p", "rank2_projection_p.mtx"], ["certify"]),
    "certify-indefinite": (
        ["--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"], ["certify"]
    ),
    "kruskal": (["--a", "singular_pair_b.mtx"], []),
    "mu": (["--a", "singular_pair_a.mtx", "--m", "2"], []),
    "kappa": (["--b", "singular_pair_b.mtx"], []),
    "doa-bound": (["--scenario", "doa_coherent_pair.json"], ["apps"]),
    "cp-bound": (["--scenario", "cp_rank_deficient.json"], ["apps"]),
}

DISPATCH = f"""
import contextlib, io, json, sys
from hadabound.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(json.loads(sys.argv[1]))
print(json.dumps([code, [m for m in {LAZY!r} if "hadabound." + m in sys.modules]]))
"""

NAMESPACE = """
import sys
import hadabound
assert [m for m in sys.modules if m.startswith("hadabound.")] == [], sys.modules.keys()
assert hadabound.apps is sys.modules["hadabound.apps"]
for name in ("quantitative_bound", "nope"):
    try:
        getattr(hadabound, name)
    except AttributeError:
        continue
    raise AssertionError(f"hadabound.{name} resolved")
"""


def fresh_python(code: str, *args: str) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_imports_only_what_it_runs(command):
    options, loads = COMMANDS[command]
    argv = [command] + [fixture_path(a) if a.endswith((".mtx", ".json")) else a for a in options]
    code, loaded = json.loads(fresh_python(DISPATCH, json.dumps(argv)))
    assert code == 0
    assert loaded == loads


def test_submodules_resolve_on_first_access_and_nothing_else_does():
    fresh_python(NAMESPACE)
