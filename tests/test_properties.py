"""Property tests of the matrix file format, generated with hypothesis.

Runs are derandomized and keep no example database, so every run checks
the same examples and the suite stays deterministic.
"""

import contextlib
import io
import os
import re
import string
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hadabound.cli import dispatch, parse_matrix_text
from matrix_files import format_matrix

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)

SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4)
REAL_MATRICES = hnp.arrays(
    np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False)
)
COMPLEX_MATRICES = hnp.arrays(
    np.complex128,
    SHAPES,
    elements=st.complex_numbers(allow_nan=False, allow_infinity=False, width=128),
)
# Letters never spell a finite number; "nan" and "inf" are rejected as non-finite.
GARBAGE = st.text(alphabet=string.ascii_letters, min_size=1, max_size=6)


@PROPERTY_SETTINGS
@given(st.one_of(REAL_MATRICES, COMPLEX_MATRICES))
def test_format_then_parse_is_exact(mat):
    again = parse_matrix_text(format_matrix(mat))
    assert again.dtype == np.complex128
    assert np.array_equal(again, mat.astype(np.complex128))


@st.composite
def malformed_matrix_texts(draw):
    """A valid matrix file with one defect that the parser must locate."""
    lines = format_matrix(draw(REAL_MATRICES)).splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    defect = draw(st.sampled_from(["bad_entry", "missing_row", "extra_entry", "bad_header"]))
    if defect == "bad_entry":
        tokens = lines[row].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(GARBAGE)
        lines[row] = " ".join(tokens)
    elif defect == "missing_row":
        del lines[row]
    elif defect == "extra_entry":
        lines[row] += " 1.0"
    else:
        header = lines[0].split(" ")
        field = draw(st.integers(0, 3))
        header[field] = draw(GARBAGE.filter(lambda word: word not in ("n", "real", "complex")))
        lines[0] = " ".join(header)
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(malformed_matrix_texts())
def test_malformed_files_exit_2_with_location(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.mtx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dispatch(["kruskal", "--a", path])
    assert code == 2
    assert re.search(re.escape(path) + r":\d+:\d+: ", err.getvalue())
