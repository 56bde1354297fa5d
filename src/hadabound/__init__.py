"""Certified eigenvalue floors for Hadamard (entrywise) matrix products.

The package bounds the smallest eigenvalue of A o B for positive
semidefinite factors, certifies positivity of products with one
indefinite factor, and applies the same floor to spatially smoothed
source covariances and factor-model moment matrices.

Importing the package imports none of its modules. Each submodule
resolves on first attribute access (`hadabound.certify` imports
certify), and every public name is imported from its own module.
"""

_SUBMODULES = frozenset(
    ("apps", "certify", "cli", "errors", "generators", "matcore", "selftest", "submatrix")
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
