"""Writer of the matrix file format, for tests that build input files.

The inverse of hadabound.cli.parse_matrix_text, with full round-trip
precision: a real matrix is written `real`, anything with a nonzero
imaginary part `complex`.
"""

import numpy as np


def format_matrix(arr) -> str:
    mat = np.asarray(arr, dtype=np.complex128)
    kind = "complex" if np.any(mat.imag != 0.0) else "real"
    lines = [f"n {mat.shape[0]} {mat.shape[1]} {kind}"]
    for row in mat:
        if kind == "real":
            lines.append(" ".join(repr(float(z.real)) for z in row))
        else:
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def write_matrix(arr, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(arr))
