"""Command line front end: formats, exit codes, report determinism.

Everything runs through dispatch() in process, so exit codes and emitted
JSON are asserted directly without spawning subprocesses.
"""

import argparse
import json
import math
import warnings

import numpy as np
import pytest

from hadabound import cli, matcore, submatrix
from hadabound.cli import dispatch, fixture_path, parse_matrix_text
from hadabound.errors import MatrixFormatError
from matrix_files import format_matrix, write_matrix

A = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
B = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])


def run(capsys, *argv):
    """Dispatch and return (exit_code, parsed_report_or_None)."""
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestMatrixFormat:
    def test_parse_real(self):
        text = "n 2 2 real\n1.5 2\n2 -3\n"
        np.testing.assert_array_equal(
            parse_matrix_text(text), np.array([[1.5, 2.0], [2.0, -3.0]])
        )

    def test_parse_complex(self):
        text = "n 2 2 complex\n1,0 0,-1\n0,1 2,0\n"
        expected = np.array([[1.0, -1.0j], [1.0j, 2.0]])
        np.testing.assert_array_equal(parse_matrix_text(text), expected)

    def test_blank_lines_and_extra_spacing_are_tolerated(self):
        text = "\nn 2 2 real\n\n 1  0 \n0 1\n\n"
        np.testing.assert_array_equal(parse_matrix_text(text), np.eye(2))

    def test_roundtrip_real_is_exact(self):
        rng = np.random.default_rng(51)
        m = rng.normal(size=(4, 3))
        again = parse_matrix_text(format_matrix(m))
        assert np.array_equal(again, m.astype(np.complex128))

    def test_roundtrip_complex_is_exact(self):
        rng = np.random.default_rng(52)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(parse_matrix_text(format_matrix(m)), m)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "1:1: empty file"),
            ("m 2 2 real\n1 0\n0 1\n", "header must be"),
            ("n 2 2 int\n1 0\n0 1\n", "entry kind must be"),
            ("n x 2 real\n1 0\n0 1\n", "must be integers"),
            ("n 0 2 real\n", "must be positive"),
            ("n 2 2 real\n1 0\n", "expected 2 data rows, found 1"),
            ("n 2 2 real\n1 0 3\n0 1\n", "expected 2 entries, found 3"),
            ("n 2 2 real\n1,2 0\n0 1\n", "complex entry"),
            ("n 2 2 complex\n1,2,3 0,0\n0,0 1,0\n", "malformed complex entry"),
            ("n 2 2 complex\na,b 0,0\n0,0 1,0\n", "cannot parse complex entry"),
            ("n 2 2 real\nabc 0\n0 1\n", "cannot parse entry"),
            ("n 2 2 real\nnan 0\n0 1\n", "non-finite entry"),
            ("n 2 2 real\n1 inf\n0 1\n", "non-finite entry"),
            ("n 2 2 complex\n1,nan 0,0\n0,0 1,0\n", "non-finite entry"),
        ],
    )
    def test_errors_carry_location(self, text, fragment):
        with pytest.raises(MatrixFormatError, match="f.mtx:\\d+:\\d+"):
            try:
                parse_matrix_text(text, source="f.mtx")
            except MatrixFormatError as exc:
                assert fragment in str(exc)
                raise

    def test_error_column_points_at_token(self):
        with pytest.raises(MatrixFormatError, match="f.mtx:2:3"):
            parse_matrix_text("n 1 2 real\n1 bad\n", source="f.mtx")


class TestFixtures:
    def test_packaged_inputs_parse(self):
        a = parse_matrix_text(open(fixture_path("singular_pair_a.mtx")).read())
        b = parse_matrix_text(open(fixture_path("singular_pair_b.mtx")).read())
        np.testing.assert_array_equal(a.real, A)
        np.testing.assert_array_equal(b.real, B)

    def test_projection_fixture(self):
        p = parse_matrix_text(open(fixture_path("rank2_projection_p.mtx")).read())
        assert float(np.max(np.abs(p @ p - p))) < 1e-15


class TestBoundCommand:
    def test_golden_pair_verifies(self, capsys):
        code, doc = run(
            capsys,
            "bound",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
        )
        assert code == 0
        assert list(doc) == ["command", "inputs", "results", "timing_ms"]
        assert doc["command"] == "bound"
        assert doc["timing_ms"] is None
        res = doc["results"]
        assert res["status"] == "verified"
        assert res["r_b"] == 2
        assert res["mu"] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
        assert res["kappa_eff"] == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-9)
        assert res["quantitative_bound"] == pytest.approx(
            res["mu"] / res["kappa_eff"], abs=1e-12
        )

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        paths = [str(tmp_path / f"r{i}.json") for i in (0, 1)]
        for path in paths:
            code = dispatch(
                [
                    "bound",
                    "--a", fixture_path("singular_pair_a.mtx"),
                    "--b", fixture_path("singular_pair_b.mtx"),
                    "--json", path,
                ]
            )
            assert code == 0
        capsys.readouterr()
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]

    def test_timing_flag_adds_measurement(self, capsys):
        code, doc = run(
            capsys,
            "bound",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
            "--timing",
        )
        assert code == 0
        assert isinstance(doc["timing_ms"], float)
        assert math.isfinite(doc["timing_ms"]) and doc["timing_ms"] >= 0.0
        code, plain = run(
            capsys,
            "bound",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
        )
        assert code == 0 and plain["timing_ms"] is None
        assert {k: doc[k] for k in ("command", "inputs", "results")} == {
            k: plain[k] for k in ("command", "inputs", "results")
        }

    def test_vanishing_diagonal_fails_cleanly(self, tmp_path, capsys):
        b_path = str(tmp_path / "b.mtx")
        write_matrix(np.diag([1.0, 0.0, 1.0]), b_path)
        a_path = str(tmp_path / "a.mtx")
        write_matrix(np.eye(3), a_path)
        code, doc = run(capsys, "bound", "--a", a_path, "--b", b_path)
        assert code == 1
        assert doc["results"]["status"] == "failed"
        assert doc["results"]["reason"] == "min_diag is zero"

    def test_negative_diagonal_is_not_a_vanishing_one(self, tmp_path, capsys):
        a_path, b_path = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(np.eye(2), a_path)
        write_matrix(np.diag([-5.0, 1.0]), b_path)
        code = dispatch(["bound", "--a", a_path, "--b", b_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "second factor must be positive semidefinite" in captured.err

    def test_rank_below_the_order_over_the_budget(self, tmp_path, capsys):
        """A floor that reads mu = 0 without a scan still refuses a scan over the budget."""
        rng = np.random.default_rng(1720)
        f, g = (rng.normal(size=(7, r)) for r in (2, 4))  # rank A = 2 < m = 4, C(7, 4) = 35
        a_path, b_path = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(f @ f.T, a_path)
        write_matrix(g @ g.T, b_path)
        code, doc = run(capsys, "bound", "--a", a_path, "--b", b_path, "--budget", "35")
        assert (code, doc["results"]["mu"], doc["results"]["quantitative_bound"]) == (0, 0.0, 0.0)
        code = dispatch(["bound", "--a", a_path, "--b", b_path, "--budget", "34"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "C(7,4) = 35 subsets exceeds the budget of 34" in captured.err

    def test_diagonal_of_an_accepted_b_is_not_checked_again(self, tmp_path, capsys):
        """B passes kappa at its own scale, so bound takes diag(B) without a second check."""
        a_path, b_path = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]), a_path)
        write_matrix(np.array([[1.0 + 5.000000005e-13j, 1.000000001], [1.000000001, 1.0]]), b_path)
        assert dispatch(["kappa", "--b", b_path]) == 0
        capsys.readouterr()
        code, doc = run(capsys, "bound", "--a", a_path, "--b", b_path)
        assert (code, doc["results"]["status"]) == (0, "verified")

    def test_operand_sizes_must_agree(self, tmp_path, capsys):
        a_path, b_path = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(A, a_path)
        write_matrix(np.eye(2), b_path)
        code = dispatch(["bound", "--a", a_path, "--b", b_path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: operand sizes differ: 3 vs 2\n"

    def test_indefinite_input_is_a_usage_error(self, capsys):
        code = dispatch(
            [
                "bound",
                "--a", fixture_path("indefinite_c.mtx"),
                "--b", fixture_path("singular_pair_b.mtx"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "positive semidefinite" in captured.err

    def test_missing_file(self, capsys):
        code, doc = run(capsys, "bound", "--a", "/no/such.mtx", "--b", "/no/such.mtx")
        assert code == 2

    @pytest.mark.parametrize("command,option", [("bound", "--a"), ("doa-bound", "--scenario")])
    def test_directory_as_input(self, tmp_path, capsys, command, option):
        argv = [command, option, str(tmp_path)]
        if command == "bound":
            argv += ["--b", fixture_path("singular_pair_b.mtx")]
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unwritable_json_path(self, tmp_path, capsys):
        code = dispatch(
            [
                "bound",
                "--a", fixture_path("singular_pair_a.mtx"),
                "--b", fixture_path("singular_pair_b.mtx"),
                "--json", str(tmp_path / "missing" / "r.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_malformed_matrix_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("n 2 2 real\n1 0\n")
        code = dispatch(["bound", "--a", str(bad), "--b", str(bad)])
        assert code == 2
        assert "expected 2 data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("cols", [4_000_000_000, 1_000_000_000_000])
    def test_header_size_is_not_allocated(self, tmp_path, capsys, cols):
        """A header claiming a huge matrix fails on its short row, not in an allocation."""
        bad = tmp_path / "big.mtx"
        bad.write_text(f"n 1 {cols} real\n1\n")
        code = dispatch(["kruskal", "--a", str(bad)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {bad}:2:1: expected {cols} entries, found 1\n"

    def test_non_utf8_matrix_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(b"n 1 1 real\n\xff\n")
        code = dispatch(["kruskal", "--a", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


    @pytest.mark.parametrize(
        "entries,message",
        [
            ([[1.0, 2.0], [3.0, 1.0]], "matrix deviates from Hermitian symmetry by 1.000e+00"),
            ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], "expected a square matrix, got shape (2, 3)"),
        ],
    )
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["bound", "--b", fixture_path("singular_pair_b.mtx")], "--a"),
            (["kappa"], "--b"),
            (["projection", "--p", fixture_path("rank2_projection_p.mtx")], "--c"),
        ],
    )
    def test_carrier_errors_name_the_file(self, tmp_path, capsys, argv, flag, entries, message):
        path = str(tmp_path / "x.mtx")
        write_matrix(np.array(entries), path)
        code = dispatch([*argv, flag, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {path}: {message}")

    def test_projection_shape_error_names_the_file(self, tmp_path, capsys):
        path = str(tmp_path / "p.mtx")
        write_matrix(np.ones((2, 3)), path)
        code = dispatch(["projection", "--c", fixture_path("indefinite_c.mtx"), "--p", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: expected a square matrix, got shape (2, 3)\n"


class TestScalarCommands:
    def test_classical(self, capsys):
        code, doc = run(
            capsys,
            "classical",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
        )
        assert code == 0
        assert doc["results"]["classical_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_kruskal(self, capsys):
        code, doc = run(
            capsys, "kruskal", "--a", fixture_path("singular_pair_b.mtx")
        )
        assert code == 0
        assert doc["results"]["kruskal_rank"] == 1

    def test_kruskal_rectangular(self, tmp_path, capsys):
        path = str(tmp_path / "v.mtx")
        write_matrix(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]), path)
        code, doc = run(capsys, "kruskal", "--a", path)
        assert code == 0
        assert doc["results"]["kruskal_rank"] == 2

    def test_mu(self, capsys):
        code, doc = run(
            capsys, "mu", "--a", fixture_path("singular_pair_a.mtx"), "--m", "2"
        )
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(
            (3 - math.sqrt(5)) / 2, abs=1e-9
        )
        assert doc["results"]["argmin_subset"] == [0, 1]
        assert doc["inputs"]["m"] == 2

    def test_kappa(self, capsys):
        code, doc = run(
            capsys, "kappa", "--b", fixture_path("singular_pair_b.mtx")
        )
        assert code == 0
        assert doc["results"]["kappa_eff"] == pytest.approx(
            3 + 2 * math.sqrt(2), abs=1e-9
        )

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("bound", ("--a", "--b")),
            ("classical", ("--a", "--b")),
            ("kappa", ("--b",)),
            ("kruskal", ("--a",)),
        ],
    )
    def test_fixtures_scaled_far_below_unit_scale(self, tmp_path, capsys, command, flags):
        """Both factors scaled by 2^-40: the same verdicts, and each float scaled exactly.

        A float of degree d in the factors (the product's values have d = 2)
        scales by 2^(-40 d).
        """
        degrees = {"mu": 1, "min_diag": 1, "kappa_eff": 0}
        names = {"--a": "singular_pair_a.mtx", "--b": "singular_pair_b.mtx"}
        plain, scaled = [command], [command]
        for flag in flags:
            path = str(tmp_path / names[flag])
            write_matrix(cli.parse_matrix(fixture_path(names[flag])) * 2.0**-40, path)
            plain += [flag, fixture_path(names[flag])]
            scaled += [flag, path]
        code, doc = run(capsys, *plain)
        expected = {
            key: math.ldexp(value, -40 * degrees.get(key, 2)) if isinstance(value, float) else value
            for key, value in doc["results"].items()
        }
        got_code, got = run(capsys, *scaled)
        assert (got_code, got["results"]) == (code, expected) == (0, expected)

    def test_classical_above_the_norm_band(self, tmp_path, capsys):
        """||A||_F^2 overflows: the floor must still sit below lambda_min(A o B)."""
        a, b = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(A * 1e160, a)
        write_matrix(B, b)
        code, doc = run(capsys, "classical", "--a", a, "--b", b)
        res = doc["results"]
        lapack = np.linalg.eigvalsh(A * 1e160 * B)[0]  # 4.38e159
        assert res["actual_lambda_min"] == pytest.approx(lapack, rel=1e-12)
        assert abs(res["classical_bound"]) <= 1e-12 * 1e160 * np.linalg.norm(A)
        assert (code, res["status"]) == (0, "verified")

    def test_kappa_of_an_indefinite_matrix_above_the_norm_band(self, tmp_path, capsys):
        path = str(tmp_path / "b.mtx")
        write_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]) * 1e200, path)
        code = dispatch(["kappa", "--b", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "positive semidefinite" in captured.err

    def test_classical_product_overflow_names_the_product(self, tmp_path, capsys):
        """Finite, valid factors whose entrywise product overflows: no numpy warning."""
        a, b = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(A * 1e200, a)
        write_matrix(B * 1e200, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["classical", "--a", a, "--b", b])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: entrywise product A o B overflows: it has a NaN or infinite entry\n"
        )

    @pytest.mark.parametrize(
        "command,flag,results",
        [("kappa", "--b", {"kappa_eff": 1.0}), ("kruskal", "--a", {"kruskal_rank": 2})],
    )
    def test_order_two_diagonal_near_the_largest_double(
        self, tmp_path, capsys, command, flag, results
    ):
        """1e308 I: its closed form is solved inside the norm band, as order 3 is."""
        path = str(tmp_path / "big.mtx")
        write_matrix(np.eye(2) * 1e308, path)
        code, doc = run(capsys, command, flag, path)
        assert (code, doc["results"]) == (0, {"status": "computed", "reason": None, **results})


class TestDerivedMatrices:
    """Products and shifts of accepted inputs are not re-checked for symmetry at their own scale."""

    # Within the symmetry tolerance; A o A doubles the deviation past it.
    NEAR = np.array([[1.0, 1.0000000000009], [1.0, 1.0]])
    # Within tolerance at scale 4; A - 4I has scale 2, and the deviation exceeds 2e-12.
    SHIFTED = np.array([[4.0, 2.0, 2.000000000003], [2.0, 4.0, 2.0], [2.0, 2.0, 4.0]])

    @pytest.mark.parametrize(
        "command,flags,status",
        [
            ("kappa", ["--b"], "computed"),
            ("bound", ["--a", "--b"], "verified"),
            ("classical", ["--a", "--b"], "verified"),
        ],
    )
    def test_product_of_near_hermitian_factors(self, tmp_path, capsys, command, flags, status):
        path = str(tmp_path / "ab.mtx")
        write_matrix(self.NEAR, path)
        code, doc = run(capsys, command, *(arg for flag in flags for arg in (flag, path)))
        assert (code, doc["results"]["status"]) == (0, status)

    def test_shift_of_a_near_hermitian_matrix(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
        write_matrix(self.SHIFTED, a)
        write_matrix(np.eye(3), b)
        code, doc = run(capsys, "bound", "--a", a, "--b", b)
        assert (code, doc["results"]["status"]) == (0, "verified")
        code, doc = run(capsys, "certify-indefinite", "--a", a, "--b", b)
        assert (code, doc["results"]["status"]) == (0, "verified")
        assert doc["results"]["shift"] == pytest.approx(4.0, rel=1e-12)


class TestCertificateCommands:
    def test_projection_golden(self, capsys):
        code, doc = run(
            capsys,
            "projection",
            "--c", fixture_path("indefinite_c.mtx"),
            "--p", fixture_path("rank2_projection_p.mtx"),
        )
        assert code == 0
        res = doc["results"]
        assert res["status"] == "verified"
        assert res["hypothesis_holds"] and res["conclusion_holds"]
        assert res["projection_rank"] == 2
        assert res["lambda_min_product"] == pytest.approx(
            (16 - math.sqrt(65)) / 3, abs=1e-9
        )

    def test_projection_within_its_tolerance_is_accepted(self, capsys, tmp_path):
        p = parse_matrix_text(open(fixture_path("rank2_projection_p.mtx")).read())
        p[0, 1] += 1e-10  # within the projection check's tolerance of 1e-9
        write_matrix(p, tmp_path / "p.mtx")
        code, doc = run(
            capsys,
            "projection",
            "--c", fixture_path("indefinite_c.mtx"),
            "--p", str(tmp_path / "p.mtx"),
        )
        assert (code, doc["results"]["status"]) == (0, "verified")
        assert doc["results"]["mu"] == 1.0

    def test_projection_of_another_size_is_refused(self, capsys, tmp_path):
        write_matrix(np.diag([1.0, 1.0, 0.0, 0.0]), tmp_path / "p.mtx")
        code = dispatch(
            ["projection", "--c", fixture_path("indefinite_c.mtx"), "--p", str(tmp_path / "p.mtx")]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: operand sizes differ: 3 vs 4\n"

    def test_certify_indefinite_from_shift(self, capsys):
        code, doc = run(
            capsys,
            "certify-indefinite",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
        )
        assert code == 0
        res = doc["results"]
        assert res["status"] == "verified"
        expected_shift = (3 - math.sqrt(5)) / 2 / (3 + 2 * math.sqrt(2))
        assert res["shift"] == pytest.approx(expected_shift, abs=1e-9)
        assert res["hypothesis_holds"] and res["conclusion_holds"]

    def test_certify_indefinite_fraction(self, capsys):
        code, doc = run(
            capsys,
            "certify-indefinite",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
            "--fraction", "0.5",
        )
        assert code == 0
        full = (3 - math.sqrt(5)) / 2 / (3 + 2 * math.sqrt(2))
        assert doc["results"]["shift"] == pytest.approx(0.5 * full, abs=1e-9)

    def test_certify_indefinite_hypothesis_failure(self, tmp_path, capsys):
        c_path = str(tmp_path / "c.mtx")
        write_matrix(np.diag([1.0, -1.0]), c_path)
        b_path = str(tmp_path / "b.mtx")
        write_matrix(np.eye(2), b_path)
        code, doc = run(capsys, "certify-indefinite", "--c", c_path, "--b", b_path)
        assert code == 1
        assert doc["results"]["status"] == "failed"
        assert doc["results"]["reason"] == "hypothesis not met"

    def test_certify_indefinite_requires_some_input(self, capsys):
        code, doc = run(
            capsys, "certify-indefinite", "--b", fixture_path("singular_pair_b.mtx")
        )
        assert code == 2


class TestScenarioCommands:
    def test_doa_golden(self, capsys):
        code, doc = run(
            capsys, "doa-bound", "--scenario", fixture_path("doa_coherent_pair.json")
        )
        assert code == 0
        res = doc["results"]
        assert res["status"] == "verified"
        assert res["bound"] == pytest.approx(2 - 2 * math.cos(0.6), abs=1e-12)
        assert res["positivity_predicted"] and res["bound_positive"]

    def test_cp_golden(self, capsys):
        code, doc = run(
            capsys, "cp-bound", "--scenario", fixture_path("cp_rank_deficient.json")
        )
        assert code == 0
        res = doc["results"]
        assert res["status"] == "verified"
        assert res["m1_floor"] == pytest.approx(0.99 - math.sqrt(0.0776), abs=1e-12)
        assert res["condition_met"]

    def test_scenario_missing_field(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"N": 4, "K": 2, "P": 2, "omega": [0.1, 0.5]}))
        code = dispatch(["doa-bound", "--scenario", str(path)])
        assert code == 2
        assert "missing fields" in capsys.readouterr().err

    def test_scenario_bad_entries(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "N": 4, "K": 2, "P": 2, "omega": [0.1, 0.5],
                    "sigma_s": [[1.0, "x"], ["x", 1.0]],
                }
            )
        )
        code, doc = run(capsys, "doa-bound", "--scenario", str(path))
        assert code == 2

    def test_cp_non_unit_columns(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "d": 2,
                    "A_load": [[2.0, 0.0], [0.0, 1.0]],
                    "B_load": [[1.0, 0.0], [0.0, 1.0]],
                    "g": [[1.0, 1.0]],
                }
            )
        )
        code = dispatch(["cp-bound", "--scenario", str(path)])
        assert code == 2
        assert "unit norm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "a_load,g,message",
        [
            ([[[1.0, 1.0], 0.0], [0.0, 1.0]], [[1.0, 1.0]], "loadings must be real"),
            ([[1.0, 0.0], [0.0, 1.0]], [], "field 'g' must be a nonempty list of vectors"),
        ],
        ids=["complex loading", "empty g"],
    )
    def test_cp_errors_name_the_file_once(self, tmp_path, capsys, a_load, g, message):
        path = tmp_path / "s.json"
        doc = {"d": 2, "A_load": a_load, "B_load": [[1.0, 0.0], [0.0, 1.0]], "g": g}
        path.write_text(json.dumps(doc))
        code = dispatch(["cp-bound", "--scenario", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_cp_with_zero_scores(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        eye = [[1.0, 0.0], [0.0, 1.0]]
        path.write_text(json.dumps({"d": 2, "A_load": eye, "B_load": eye, "g": [[0.0, 0.0]] * 2}))
        code = dispatch(["cp-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: score Gram matrix is numerically zero\n"

    def test_cp_floors_read_the_diagonal_of_b_star_b(self, tmp_path, capsys):
        """A column norm just below 1, within CpScenario's tolerance: both floors still hold."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"d": 1, "A_load": [[1.0]], "B_load": [[0.9999999995]],
                                    "g": [[1.0]]}))
        code, doc = run(capsys, "cp-bound", "--scenario", str(path))
        res = doc["results"]
        assert (code, res["status"]) == (0, "verified")
        assert res["hadamard_floor"] <= res["lambda_min_core"] == 0.9999999989999999
        assert res["m1_floor"] <= res["lambda_min_pos_m1"]

    def test_doa_without_sources(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"N": 4, "K": 0, "P": 2, "omega": [], "sigma_s": [[1.0]]}))
        code = dispatch(["doa-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: need at least one source\n"

    def test_cp_without_factors(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"d": 0, "A_load": [[]], "B_load": [[]], "g": [[]]}))
        code = dispatch(["cp-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: need at least one factor\n"

    @pytest.mark.parametrize(
        "doc,budget,named",
        [
            (
                {"N": 10**12, "K": 1, "P": 10**12, "omega": [0.1], "sigma_s": [[1.0]]},
                [],
                "P = 1000000000000 by K = 1",
            ),
            (
                {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": np.eye(2).tolist()},
                ["--budget", "3"],
                "P = 2 by K = 2",
            ),
        ],
        ids=["oversized", "over a small budget"],
    )
    def test_doa_steering_block_over_the_budget(self, tmp_path, capsys, doc, budget, named):
        """Refused before the steering block or the smoothing sum is built."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code = dispatch(["doa-bound", "--scenario", str(path), *budget])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: the P x K steering block, " + named)
        assert "exceeds the budget" in captured.err and captured.err.count("\n") == 1

    NOT_PSD = [[1.0, 2.0], [2.0, 1.0]]
    NOT_PSD_ERR = "source covariance must be positive semidefinite; witness eigenvalue "

    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"N": 4, "K": 2, "P": 2, "sigma_s": NOT_PSD}, True),
            ({"N": 10**12, "K": 2, "P": 10**12, "sigma_s": np.eye(2).tolist()}, False),
            ({"N": 10**12, "K": 2, "P": 10**12, "sigma_s": NOT_PSD}, True),
        ],
        ids=["not PSD", "over the budget", "both"],
    )
    def test_doa_refusals_keep_their_order_and_words(self, tmp_path, capsys, doc, named):
        """A non-PSD sigma_s is refused first, naming the file; the steering block's size next."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**doc, "omega": [-0.5, 0.7]}))
        code = dispatch(["doa-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        if named:
            assert captured.err == f"error: {path}: {self.NOT_PSD_ERR}-1.000000e+00\n"
        else:
            assert captured.err == (
                "error: the P x K steering block, P = 1000000000000 by K = 2, has "
                "2000000000000 entries, which exceeds the budget of 2000000; "
                "raise the budget or reduce P\n"
            )

    @pytest.mark.parametrize(
        "low,tol,code",
        [
            (-1e-8, [], 2),
            (-1e-8, ["--tol", "1e-6"], 0),
            (-1e-11, [], 0),
            (-1e-11, ["--tol", "1e-12"], 2),
        ],
    )
    def test_doa_source_covariance_is_judged_at_the_tolerance(
        self, tmp_path, capsys, low, tol, code
    ):
        """sigma_s = diag(1, low) is PSD exactly when |low| <= --tol, as kappa judges it."""
        path = tmp_path / "s.json"
        doc = {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": [[1.0, 0.0], [0.0, low]]}
        path.write_text(json.dumps(doc))
        assert dispatch(["doa-bound", "--scenario", str(path), *tol]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"error: {path}: {self.NOT_PSD_ERR}{low:.6e}\n")

    def test_doa_near_hermitian_sigma_s_is_judged(self, tmp_path, capsys):
        """The smoothed covariance derived from an accepted sigma_s is not checked again."""
        path = tmp_path / "s.json"
        sigma_s = [[[1.0, 5.000000005e-13], 1.000000001], [1.000000001, 1.0]]
        doc = {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": sigma_s}
        path.write_text(json.dumps(doc))
        code, doc = run(capsys, "doa-bound", "--scenario", str(path))
        assert (code, doc["results"]["status"]) == (0, "verified")

    def test_doa_overflowing_smoothed_covariance_is_named(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        sigma_s = (np.eye(2) * 1e308).tolist()
        doc = {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": sigma_s}
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["doa-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: {path}: smoothed covariance overflows: it has a NaN or infinite entry\n"
        )

    def test_malformed_json_carries_location(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"N": 4,\n x}')
        code = dispatch(["doa-bound", "--scenario", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2:2: Expecting property name")

    def test_non_utf8_scenario_is_named(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"d": \xff}')
        code = dispatch(["cp-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")

    DOA = {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": [[1.0, 1.0], [1.0, 1.0]]}
    CP = {"d": 2, "A_load": [[1.0, 0.0], [0.0, 1.0]], "B_load": [[1.0, 0.0], [0.0, 1.0]],
          "g": [[1.0, 0.5], [-0.3, 0.8]]}

    @pytest.mark.parametrize(
        "command,edit,field",
        [
            ("doa-bound", {"N": 4.9, "P": 2.7}, "N"),
            ("doa-bound", {"P": 2.7}, "P"),
            ("doa-bound", {"N": "4"}, "N"),
            ("doa-bound", {"K": True}, "K"),
            ("doa-bound", {"omega": ["-0.5", "0.7"]}, "omega"),
            ("doa-bound", {"omega": "12"}, "omega"),
            ("doa-bound", {"omega": [True, 0.7]}, "omega"),
            ("doa-bound", {"sigma_s": [[True, 1.0], [1.0, 1.0]]}, "sigma_s"),
            ("doa-bound", {"sigma_s": [[[1.0, False], 1.0], [1.0, 1.0]]}, "sigma_s"),
            ("cp-bound", {"d": 2.5}, "d"),
            ("cp-bound", {"d": True}, "d"),
            ("cp-bound", {"g": [["1.0", 0.5]]}, "g"),
            ("cp-bound", {"g": ["12"]}, "g"),
            ("cp-bound", {"A_load": [[True, 0.0], [0.0, 1.0]]}, "A_load"),
            ("cp-bound", {"B_load": [[1.0, "0"], [0.0, 1.0]]}, "B_load"),
        ],
    )
    def test_malformed_numbers_name_the_field(self, tmp_path, capsys, command, edit, field):
        """Only JSON integers count as integers, only JSON numbers as entries."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**(self.DOA if command == "doa-bound" else self.CP), **edit}))
        code = dispatch([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {path}: field {field!r}")

    def test_cp_non_finite_loading(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "d": 2,
                    "A_load": [[math.nan, 0.0], [0.0, 1.0]],
                    "B_load": [[1.0, 0.0], [0.0, 1.0]],
                    "g": [[1.0, 1.0]],
                }
            )
        )
        code = dispatch(["cp-bound", "--scenario", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "A_load has a NaN or infinite entry" in err

    def test_cp_forms_that_cancel_below_their_rounding(self, tmp_path, capsys):
        """Accepted loadings whose summed moment form is rounding noise: no quantity, exit 2.

        Columns a and -a + delta, and equal second-loading columns, make the
        summed form about 1e-15 against terms of about 80, so the two forms
        disagree by more than the check's tolerance at the summed form's scale.
        """
        path = tmp_path / "s.json"
        doc = {
            "d": 2,
            "A_load": [
                [0.5214690752420352, -0.5214690705609196],
                [0.20972360202363263, -0.20972359912431895],
                [-0.8270949246129187, 0.8270949282994502],
            ],
            "B_load": [
                [0.7768565446870102, 0.7768565446870102],
                [0.6267582445143515, 0.6267582445143515],
                [0.06056411404658504, 0.06056411404658504],
            ],
            "g": [[5.427618800870854, 5.427618770248254]],
        }
        path.write_text(json.dumps(doc))
        code = dispatch(["cp-bound", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {path}: moment matrix forms disagree by ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestRefusalsNameTheInput:
    """Every refusal of a one-input command names its file once; loaders only parse."""

    EYE = [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "command,flag,content,message",
        [
            ("kappa", "--b", np.zeros((2, 2)), "matrix is numerically zero"),
            ("kappa", "--b", np.array([[1.0, 2.0], [2.0, 1.0]]),
             "matrix must be positive semidefinite; witness eigenvalue -1.000000e+00"),
            ("doa-bound", "--scenario",
             {"N": 4, "K": 2, "P": 2, "omega": [-0.5, 0.7], "sigma_s": [[0.0, 0.0], [0.0, 0.0]]},
             "source covariance is numerically zero"),
            ("cp-bound", "--scenario", {"d": 2, "A_load": EYE, "B_load": EYE, "g": [[0.0, 0.0]]},
             "score Gram matrix is numerically zero"),
        ],
        ids=["kappa zero", "kappa not PSD", "doa zero sigma_s", "cp zero scores"],
    )
    def test_library_refusals_name_the_file(
        self, tmp_path, capsys, command, flag, content, message
    ):
        path = str(tmp_path / "input")
        if isinstance(content, dict):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        else:
            write_matrix(content, path)
        code = dispatch([command, flag, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: {message}\n"

    def test_other_library_errors_pass_unnamed(self, monkeypatch):
        """Only a ValueError is a refusal; a TypeError stays a traceback."""

        def broken(b, tau_rel):
            raise TypeError("a bug, not an input error")

        monkeypatch.setattr(cli, "effective_condition_number", broken)
        with pytest.raises(TypeError, match="^a bug, not an input error$"):
            dispatch(["kappa", "--b", fixture_path("singular_pair_b.mtx")])

    def test_loaders_solve_nothing(self, monkeypatch):
        def no_solve(blocks):
            raise AssertionError("a loader solved a spectrum")

        matcore._MEMO.clear()
        monkeypatch.setattr(matcore, "stack_eigvals", no_solve)
        monkeypatch.setattr(submatrix, "stack_eigvals", no_solve)
        doa = cli.load_doa_scenario(fixture_path("doa_coherent_pair.json"))
        cp = cli.load_cp_scenario(fixture_path("cp_rank_deficient.json"))
        assert (doa.K, cp.d) == (2, 2)


class TestSelftestCommand:
    def test_small_scale_run_passes(self, capsys):
        code, doc = run(capsys, "selftest", "--scale", "0.02", "--seed", "3")
        assert code == 0
        res = doc["results"]
        assert res["status"] == "verified"
        assert res["all_passed"]
        assert res["total_failures"] == 0
        assert len(res["suites"]) == 9


class TestUsage:
    def test_no_command(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        assert dispatch(["mu", "--a", "x.mtx"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1"])
    def test_tolerance_outside_open_unit_interval(self, capsys, tol):
        code = dispatch(
            [
                "bound",
                "--a", fixture_path("singular_pair_a.mtx"),
                "--b", fixture_path("singular_pair_b.mtx"),
                f"--tol={tol}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "x", "1e300", "100"])
    def test_scale_not_a_finite_positive_number(self, capsys, scale):
        code = dispatch(["selftest", f"--scale={scale}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--scale" in captured.err

    @pytest.mark.parametrize("value", ["-5", "-1", "x", "1.5"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (("kappa", "--b", fixture_path("singular_pair_b.mtx")), "--budget"),
            (("kruskal", "--a", fixture_path("singular_pair_b.mtx")), "--budget"),
            (("selftest",), "--seed"),
        ],
    )
    def test_count_not_a_non_negative_integer(self, capsys, command, flag, value):
        code = dispatch([*command, f"{flag}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("mu", "--a", fixture_path("singular_pair_a.mtx"), "--m", "0"), "--m"),
            (("mu", "--a", fixture_path("singular_pair_a.mtx"), "--m", "-1"), "--m"),
            (("mu", "--a", fixture_path("singular_pair_a.mtx"), "--m", "4"), "--m"),
            *[
                (
                    ("certify-indefinite", "--a", fixture_path("singular_pair_a.mtx"),
                     "--b", fixture_path("singular_pair_b.mtx"), "--fraction", value),
                    "--fraction",
                )
                for value in ("nan", "2", "0", "-0.5", "inf")
            ],
            (
                ("certify-indefinite", "--c", fixture_path("indefinite_c.mtx"),
                 "--a", fixture_path("singular_pair_a.mtx"),
                 "--b", fixture_path("singular_pair_b.mtx"), "--fraction", "0.5"),
                "--a",
            ),
            (
                ("certify-indefinite", "--c", fixture_path("indefinite_c.mtx"),
                 "--b", fixture_path("singular_pair_b.mtx"), "--fraction", "0.5"),
                "--fraction",
            ),
        ],
        ids=["m0", "m-1", "m4", "fraction-nan", "fraction-2", "fraction-0",
             "fraction-neg", "fraction-inf", "c-with-a", "c-with-fraction"],
    )
    def test_bad_option_value_names_its_flag(self, capsys, argv, flag):
        code = dispatch(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err

    def test_small_tolerance_still_runs(self, capsys):
        code, doc = run(
            capsys,
            "bound",
            "--a", fixture_path("singular_pair_a.mtx"),
            "--b", fixture_path("singular_pair_b.mtx"),
            "--tol", "1e-6",
        )
        assert code == 0
        assert doc["inputs"]["tol"] == 1e-6


# Exit code and exact results of each fixture invocation; `inputs` holds
# machine-specific paths and is left out. Fixture names stand for their
# packaged paths.
PINNED_RESULTS = [
    (
        ("bound", "--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"),
        0,
        (
            '{"status": "verified", "reason": null, "n": 3, "r_b": 2, '
            '"mu": 0.3819660112501051, "kappa_eff": 5.82842712474619, "min_diag": 1.0, '
            '"classical_bound": -8.30181712597648e-18, '
            '"quantitative_bound": 0.06553500679940963, '
            '"actual_lambda_min": 0.43844718719116993, "loewner_verified": true, '
            '"margin": 0.37291218039176033}'
        ),
    ),
    (
        ("classical", "--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"),
        0,
        (
            '{"status": "verified", "reason": null, '
            '"classical_bound": -8.30181712597648e-18, '
            '"actual_lambda_min": 0.43844718719116993}'
        ),
    ),
    (
        ("kruskal", "--a", "singular_pair_b.mtx"),
        0,
        '{"status": "computed", "reason": null, "kruskal_rank": 1}',
    ),
    (
        ("mu", "--a", "singular_pair_a.mtx", "--m", "2"),
        0,
        (
            '{"status": "computed", "reason": null, "value": 0.3819660112501051, '
            '"argmin_subset": [0, 1], "m": 2}'
        ),
    ),
    (
        ("kappa", "--b", "singular_pair_b.mtx"),
        0,
        '{"status": "computed", "reason": null, "kappa_eff": 5.82842712474619}',
    ),
    (
        ("projection", "--c", "indefinite_c.mtx", "--p", "rank2_projection_p.mtx"),
        0,
        (
            '{"status": "verified", "reason": null, "hypothesis_holds": true, '
            '"conclusion_holds": true, "mu": 1.0, "hypothesis_threshold": -8e-09, '
            '"lambda_min_product": 2.645914083900484, "projection_rank": 2}'
        ),
    ),
    (
        ("certify-indefinite", "--a", "singular_pair_a.mtx", "--b", "singular_pair_b.mtx"),
        0,
        (
            '{"status": "verified", "reason": null, "shift": 0.06553500679940963, '
            '"hypothesis_holds": true, "conclusion_holds": true, '
            '"mu": 0.3164310044506955, "required_floor": 0.31643100445069544, '
            '"lambda_min_c": -0.06553500679940963, "kappa_eff": 5.82842712474619, '
            '"rank_b": 2, "lambda_min_product": 0.36386256049970817}'
        ),
    ),
    (
        ("certify-indefinite", "--c", "indefinite_c.mtx", "--b", "singular_pair_b.mtx"),
        0,
        (
            '{"status": "verified", "reason": null, "shift": null, '
            '"hypothesis_holds": true, "conclusion_holds": true, "mu": 1.0, '
            '"required_floor": 0.30060700061033513, '
            '"lambda_min_c": -0.062257748298549034, "kappa_eff": 5.82842712474619, '
            '"rank_b": 2, "lambda_min_product": 1.9011164999199444}'
        ),
    ),
    (
        ("doa-bound", "--scenario", "doa_coherent_pair.json"),
        0,
        (
            '{"status": "verified", "reason": null, "r_sigma_s": 1, "m": 2, '
            '"tilde_sigma_sq": 0.34932877018064334, "kappa_eff": 1.0, "min_diag": 1.0, '
            '"bound": 0.34932877018064334, "lambda_min_smoothed": 0.34932877018064334, '
            '"bound_holds": true, "positivity_predicted": true, "bound_positive": true}'
        ),
    ),
    (
        ("cp-bound", "--scenario", "cp_rank_deficient.json"),
        0,
        (
            '{"status": "verified", "reason": null, "d1": 2, "d2": 1, '
            '"mu": 0.7114322344563178, "kappa_eff": 1.0, "sigma_d1_sq": 1.0, '
            '"hadamard_floor": 0.7114322344563178, "m1_floor": 0.7114322344563178, '
            '"lambda_min_core": 0.7114322344563178, '
            '"lambda_min_pos_m1": 0.7114322344563175, "kruskal_g": 2, '
            '"condition_met": true, "core_floor_holds": true, "m1_floor_holds": true}'
        ),
    ),
]


@pytest.mark.parametrize(
    "argv,code,results", PINNED_RESULTS, ids=[" ".join(row[0][:2]) for row in PINNED_RESULTS]
)
def test_fixture_results_are_pinned(capsys, argv, code, results):
    argv = [fixture_path(arg) if arg.endswith((".mtx", ".json")) else arg for arg in argv]
    got, doc = run(capsys, *argv)
    assert got == code
    assert json.dumps(doc["results"]) == results


# Each subcommand's help line and options, in parser order: option strings,
# dest, action, required, default, type and help. Pinned instead of the
# formatted --help text, which differs between Python versions.
_COMMON = [
    (("--tol",), "tol", "_StoreAction", False, 1e-09, "_tolerance", "relative tolerance in (0, 1)"),
    (("--budget",), "budget", "_StoreAction", False, 2000000, "_count",
     "cap on subsets scanned and on doa-bound's P x K steering entries"),
    (("--json",), "json_path", "_StoreAction", False, None, None, "write the report here"),
    (("--timing",), "timing", "_StoreTrueAction", False, False, None, "include wall time in the report"),
]


def _required(*flags):
    return [((f,), f[2:], "_StoreAction", True, None, None, None) for f in flags]


PINNED_PARSER = {
    "bound": ("certified floor for lambda_min of A o B", _required("--a", "--b")),
    "classical": ("floor lambda_min(A) * min diag(B)", _required("--a", "--b")),
    "kruskal": ("Kruskal rank of a matrix", _required("--a")),
    "mu": (
        "minimum submatrix eigenvalue at order m",
        [*_required("--a"), (("--m",), "m", "_StoreAction", True, None, "int", None)],
    ),
    "kappa": ("effective condition number", _required("--b")),
    "projection": ("certificate for C o P with a projection P", _required("--c", "--p")),
    "certify-indefinite": (
        "certificate for C o B with Hermitian C, PSD B",
        [
            (("--c",), "c", "_StoreAction", False, None, None, None),
            (("--a",), "a", "_StoreAction", False, None, None,
             "build C by shifting A down by its floor"),
            *_required("--b"),
            (("--fraction",), "fraction", "_StoreAction", False, None, "float", None),
        ],
    ),
    "doa-bound": ("floor for a smoothed source covariance", _required("--scenario")),
    "cp-bound": ("floors for a factor-model moment matrix", _required("--scenario")),
    "selftest": (
        "run the seeded property suites",
        [
            (("--seed",), "seed", "_StoreAction", False, 0, "_count", None),
            (("--scale",), "scale", "_StoreAction", False, 1.0, "_scale",
             "trial count multiplier in (0, 100)"),
        ],
    ),
}


def test_parser_structure_is_pinned():
    types = {
        None: None, int: "int", float: "float",
        cli._count: "_count", cli._tolerance: "_tolerance", cli._scale: "_scale",
    }
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == (
        "hadabound", "Certified eigenvalue floors for entrywise matrix products."
    )
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        choice.dest: (
            choice.help,
            [
                (tuple(a.option_strings), a.dest, type(a).__name__, a.required, a.default,
                 types[a.type], a.help)
                for a in sub.choices[choice.dest]._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for choice in sub._choices_actions
    }
    want = {name: (line, options + _COMMON) for name, (line, options) in PINNED_PARSER.items()}
    assert list(got) == list(want)
    assert got == want
