"""The benchmark tracer's contract with the package, checked without running it.

perfbench/tracer.py resolves every name in SPAN_NAMES and CLASS_HOOKS on
the package's modules and patches it in place. A renamed or deleted
function would otherwise surface only in the benchmark's own smoke run.

The check runs in a fresh interpreter that imports what
perfbench/bootstrap.py imports, hadabound and hadabound.cli, and nothing
else: in a full pytest run other test files have already imported every
submodule, which would hide a module the benchmark no longer loads.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_contract():
    import hadabound
    import hadabound.cli  # noqa: F401  (what perfbench/bootstrap.py imports)

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    t = tracer.Tracer(hadabound)
    patched = [
        (t.modules[layer], attr) for layer, names in tracer.SPAN_NAMES.items() for attr in names
    ] + [
        (getattr(t.modules[layer], cls), "__post_init__") for layer, cls, _ in tracer.CLASS_HOOKS
    ]
    for owner, attr in patched:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} does not resolve"
    owners = [hadabound, *t.modules.values(), *(owner for owner, _ in patched)]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    try:
        t.install()
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[id(owner)][attr], f"{attr} not wrapped"
    finally:
        t.uninstall()
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[id(owner)].keys()
        for key, value in before[id(owner)].items():
            assert after[key] is value, f"{owner.__name__}.{key} not restored"


def test_every_traced_name_resolves_and_is_restored():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    check_contract()
