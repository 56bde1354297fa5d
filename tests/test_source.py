"""Checks on the package source itself: its code-line count, its imports and its names.

bench/loc.py counts the code lines that the project's records quote; the
test here pins what it counts on a small synthetic module. The import
guard stands in for a linter: a relative import whose name its module
never uses fails. The public-name guard keeps the public API to what is
used: a module-level public def, class or constant that no source, test,
benchmark or README line names, apart from its own definition, fails. The
dead-code guard does the same for private helpers within their module: a
module-level def or class with a leading underscore (dunders aside) that
the rest of its module never names fails, whatever tests may name it.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hadabound"

_spec = importlib.util.spec_from_file_location("bench_loc", ROOT / "bench" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    y = """a string that is
not a docstring"""
    return (x,
            y)


class K:
    "class docstring"
    z = 1
'''


def test_loc_counts_lines_holding_code_tokens(tmp_path, capsys):
    # import, def, the two lines of y, the two of return, class, z.
    assert loc.code_lines(SYNTHETIC) == 8
    (tmp_path / "m.py").write_text(SYNTHETIC)
    (tmp_path / "e.py").write_text('"""Only a docstring."""\n')
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["e.py", "0"], ["m.py", "8"], ["total", "8"]]


def unused_relative_imports(source: str) -> list[str]:
    """Names bound by a relative import that no expression of the module reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if (alias.asname or alias.name) not in used
    )


def test_unused_import_guard_finds_an_unused_name():
    source = "from .a import b, c as d\nfrom os import path\n\n\ndef f():\n    return b()\n"
    assert unused_relative_imports(source) == ["d"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_relative_import_is_used(module):
    assert unused_relative_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def unreferenced_public_names(source: str, elsewhere: str) -> list[str]:
    """Public module-level names of source that neither elsewhere nor the rest of source names."""
    lines = source.splitlines()
    unnamed = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
        unnamed += [
            name
            for name in names
            if not name.startswith("_") and not re.search(rf"\b{name}\b", rest + elsewhere)
        ]
    return unnamed


def test_public_name_guard_finds_an_unnamed_name():
    source = 'X = 1\nY = X\n\n\ndef f():\n    """f names itself here."""\n\n\nclass K:\n    pass\n'
    assert unreferenced_public_names(source, "K()") == ["Y", "f"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_public_name_is_named_elsewhere(module):
    own = PACKAGE / module
    files = [p for d in ("src", "tests", "perfbench", "bench") for p in (ROOT / d).rglob("*.py")]
    files = [p for p in [*files, ROOT / "README.md"] if p != own]
    elsewhere = "\n".join(p.read_text(encoding="utf-8") for p in files)
    assert unreferenced_public_names(own.read_text(encoding="utf-8"), elsewhere) == []


def unnamed_private_defs(source: str) -> list[str]:
    """Private module-level defs and classes, dunders aside, that the rest of source never names."""
    lines = source.splitlines()
    unnamed = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
        if not re.search(rf"\b{name}\b", rest):
            unnamed.append(name)
    return unnamed


def test_dead_code_guard_finds_an_unnamed_private_def():
    source = (
        "def _used():\n    return 1\n\n\ndef _dead():\n    \"\"\"_dead names itself.\"\"\"\n\n\n"
        "class _Gone:\n    pass\n\n\ndef __getattr__(name):\n    return _used()\n"
    )
    assert unnamed_private_defs(source) == ["_dead", "_Gone"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_private_def_is_named_in_its_module(module):
    assert unnamed_private_defs((PACKAGE / module).read_text(encoding="utf-8")) == []
