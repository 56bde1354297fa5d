"""Command line front end: formats, exit codes, report determinism.

Everything runs through dispatch() in process, so exit codes and emitted
JSON are asserted directly without spawning subprocesses.
"""

import argparse
import json
import math

import numpy as np
import pytest

from hadabound import cli
from hadabound.cli import (
    dispatch,
    fixture_path,
    format_matrix,
    parse_matrix_text,
    write_matrix,
)
from hadabound.errors import MatrixFormatError

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
        assert doc["timing_ms"] >= 0.0

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

    def test_non_utf8_matrix_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(b"n 1 1 real\n\xff\n")
        code = dispatch(["kruskal", "--a", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


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
    (("--budget",), "budget", "_StoreAction", False, 2000000, "_count", "subset budget"),
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
