"""The benchmark tracer's contract with the package, checked without running it.

perfbench/tracer.py resolves every name in SPAN_NAMES and CLASS_HOOKS on
the package's modules and patches it in place. A renamed or deleted
function would otherwise surface only in the benchmark's own smoke run.
"""

import importlib.util
from pathlib import Path

import hadabound
import hadabound.cli  # noqa: F401  (loads every submodule, as the benchmark does)

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_name_resolves_and_is_restored():
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
