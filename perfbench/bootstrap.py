"""Locate the hadabound source of this checkout and import it from there.

Imports nothing heavy, so callers can pin BLAS threads before numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    pass


def pin_threads() -> None:
    """One BLAS/OpenMP thread for this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    """This process's environment with <checkout>/src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_package():
    """Import hadabound (and every submodule) from <checkout>/src only."""
    init = SRC / "hadabound" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no hadabound source at {init}")
    sys.path.insert(0, str(SRC))
    import hadabound
    import hadabound.cli  # noqa: F401  (loads selftest and generators too)

    if Path(hadabound.__file__).resolve() != init.resolve():
        raise MissingPackage(f"hadabound was imported from {hadabound.__file__}, not {init}")
    return hadabound
