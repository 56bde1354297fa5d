"""Command line front end: parse inputs, dispatch, emit JSON reports.

Matrix files use a one-line header `n <rows> <cols> <real|complex>`
followed by one whitespace-separated row per line; complex entries are
written `re,im` with no spaces. Scenario files are JSON documents whose
complex entries are `[re, im]` pairs.

Reports are JSON objects with the fixed key order command, inputs,
results, timing_ms. All numbers are serialized with full round-trip
precision and no run-dependent content is included unless --timing is
given, so identical inputs and seed produce byte-identical reports.

Exit codes: 0 when the requested quantity was computed and its internal
verification passed, 1 when a hypothesis or verification failed (the
report's results.reason says which), 2 for input or usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import re
import sys
import time
from importlib import resources

import numpy as np

from .apps import CpScenario, DoaScenario, cp_bound, doa_bound
from .certify import (
    BoundReport,
    classical_bound,
    indefinite_certificate,
    projection_certificate,
    quantitative_bound,
    shift_construction,
)
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    ScenarioFormatError,
)
from .matcore import HermitianMatrix, eigvals_hermitian, hadamard, tol_for
from .selftest import run_all
from .submatrix import (
    DEFAULT_BUDGET,
    effective_condition_number,
    kruskal_rank,
    min_submatrix_eigenvalue,
)

# Every package error is a subclass of one of these; OSError covers
# unreadable inputs and an unwritable --json path.
_INPUT_ERRORS = (ValueError, OSError, BudgetExceededError, ConvergenceError)

_TOKEN = re.compile(r"\S+")


def parse_matrix_text(text: str, source: str = "<string>") -> np.ndarray:
    """Parse the matrix file format; errors carry line/column locations."""

    def error(line_no: int, col_no: int, what: str) -> MatrixFormatError:
        return MatrixFormatError(f"{source}:{line_no}:{col_no}: {what}")

    lines = text.splitlines()
    header_idx = None
    for idx, line in enumerate(lines):
        if line.strip():
            header_idx = idx
            break
    if header_idx is None:
        raise error(1, 1, "empty file")
    header_no = header_idx + 1
    header = lines[header_idx].split()
    if len(header) != 4 or header[0] != "n":
        raise error(header_no, 1, "header must be 'n <rows> <cols> <real|complex>'")
    try:
        rows, cols = int(header[1]), int(header[2])
    except ValueError:
        raise error(header_no, 3, "row and column counts must be integers") from None
    kind = header[3]
    if kind not in ("real", "complex"):
        col_no = lines[header_idx].find(kind) + 1
        raise error(header_no, col_no, f"entry kind must be 'real' or 'complex', got {kind!r}")
    if rows < 1 or cols < 1:
        raise error(header_no, 3, "row and column counts must be positive")

    body = [
        (idx, line)
        for idx, line in enumerate(lines[header_idx + 1 :], start=header_idx + 2)
        if line.strip()
    ]
    if len(body) != rows:
        raise error(header_no, 1, f"expected {rows} data rows, found {len(body)}")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for r, (line_no, line) in enumerate(body):
        tokens = list(_TOKEN.finditer(line))
        if len(tokens) != cols:
            raise error(line_no, 1, f"expected {cols} entries, found {len(tokens)}")
        for c, tok in enumerate(tokens):
            col_no = tok.start() + 1
            raw = tok.group()
            if "," in raw:
                if kind != "complex":
                    raise error(line_no, col_no, f"complex entry {raw!r} in a real matrix")
                parts = raw.split(",")
                if len(parts) != 2:
                    raise error(line_no, col_no, f"malformed complex entry {raw!r}")
                try:
                    out[r, c] = complex(float(parts[0]), float(parts[1]))
                except ValueError:
                    raise error(line_no, col_no, f"cannot parse complex entry {raw!r}") from None
            else:
                try:
                    out[r, c] = float(raw)
                except ValueError:
                    raise error(line_no, col_no, f"cannot parse entry {raw!r}") from None
            if not np.isfinite(out[r, c]):
                raise error(line_no, col_no, f"non-finite entry {raw!r}")
    return out


def parse_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"{path}: {exc}") from None
    return parse_matrix_text(text, source=path)


def format_matrix(arr) -> str:
    """Inverse of parse_matrix_text with full round-trip precision."""
    mat = np.asarray(arr, dtype=np.complex128)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {mat.shape}")
    kind = "complex" if np.any(mat.imag != 0.0) else "real"
    lines = [f"n {mat.shape[0]} {mat.shape[1]} {kind}"]
    for row in mat:
        if kind == "real":
            lines.append(" ".join(repr(float(z.real)) for z in row))
        else:
            lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def write_matrix(arr, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(arr))


def _is_number(value) -> bool:
    """A JSON number: int or float, and not bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(doc: dict, field: str) -> int:
    value = doc[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioFormatError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _numbers(obj, field: str) -> list[float]:
    if not isinstance(obj, list) or not all(map(_is_number, obj)):
        raise ScenarioFormatError(f"field {field!r} must be a list of numbers, got {obj!r}")
    return [float(v) for v in obj]


def _complex_array(obj, field: str) -> np.ndarray:
    """Numbers stay real; [re, im] pairs become complex entries."""

    def convert(cell):
        if _is_number(cell):
            return complex(cell, 0.0)
        if isinstance(cell, list) and len(cell) == 2 and all(map(_is_number, cell)):
            return complex(cell[0], cell[1])
        raise ScenarioFormatError(
            f"field {field!r}: entries must be numbers or [re, im] pairs, got {cell!r}"
        )

    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ScenarioFormatError(f"field {field!r} must be a nonempty list of rows")
    try:
        return np.array([[convert(cell) for cell in row] for row in obj], dtype=np.complex128)
    except ValueError as exc:
        raise ScenarioFormatError(f"field {field!r}: ragged rows ({exc})") from None


@contextlib.contextmanager
def _scenario(path: str, fields: tuple[str, ...]):
    """The JSON object in path, with its fields; every error names the file once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ScenarioFormatError("scenario must be a JSON object")
        missing = [f for f in fields if f not in doc]
        if missing:
            raise ScenarioFormatError(f"missing fields {missing}")
        yield doc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def load_doa_scenario(path: str) -> DoaScenario:
    with _scenario(path, ("N", "K", "P", "omega", "sigma_s")) as doc:
        sigma = HermitianMatrix(_complex_array(doc["sigma_s"], "sigma_s"))
        return DoaScenario(
            N=_integer(doc, "N"),
            K=_integer(doc, "K"),
            P=_integer(doc, "P"),
            omega=tuple(_numbers(doc["omega"], "omega")),
            sigma_s=sigma,
        )


def load_cp_scenario(path: str) -> CpScenario:
    with _scenario(path, ("d", "A_load", "B_load", "g")) as doc:
        a = _complex_array(doc["A_load"], "A_load")
        b = _complex_array(doc["B_load"], "B_load")
        if np.any(a.imag != 0.0) or np.any(b.imag != 0.0):
            raise ScenarioFormatError("loadings must be real")
        g_field = doc["g"]
        if not isinstance(g_field, list) or not g_field:
            raise ScenarioFormatError("field 'g' must be a nonempty list of vectors")
        scores = tuple(np.asarray(_numbers(vec, "g"), dtype=np.float64) for vec in g_field)
        return CpScenario(d=_integer(doc, "d"), a_load=a.real, b_load=b.real, g=scores)


def fixture_path(name: str) -> str:
    """Absolute path of a packaged example input."""
    return str(resources.files("hadabound").joinpath("fixtures", name))


def emit_report(doc: dict, path: str | None) -> None:
    """Serialize with stable key order; same document, same bytes."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# The report's inputs block: every command's options, None where absent.
_INPUT_KEYS = ("a", "b", "c", "p", "scenario", "m", "fraction", "tol", "budget", "seed")


def _hermitian_from_file(path: str) -> HermitianMatrix:
    return HermitianMatrix(parse_matrix(path))


def _verdict(fields: dict, checks) -> tuple[int, dict]:
    """Exit code and results for a handler's (fields, checks).

    With checks None the quantity was computed and nothing is verified;
    otherwise verified unless a (passed, reason) check failed, and the
    first failing check in order supplies the reason.
    """
    if checks is None:
        return 0, {"status": "computed", "reason": None, **fields}
    reason = next((why for passed, why in checks if not passed), None)
    status = "verified" if reason is None else "failed"
    return (0 if reason is None else 1), {"status": status, "reason": reason, **fields}


def _cmd_bound(args) -> tuple[dict, list]:
    a = _hermitian_from_file(args.a)
    b = _hermitian_from_file(args.b)
    if a.n != b.n:
        raise DimensionError(f"operand sizes differ: {a.n} vs {b.n}")
    # A zero diagonal entry makes every floor vacuous; report that before
    # attempting a definiteness classification. A clearly negative entry
    # is left to that classification, which rejects B.
    diag = b.diagonal()
    if abs(float(np.min(diag))) <= tol_for(float(np.max(np.abs(diag))), args.tol):
        empty = dict.fromkeys(f.name for f in dataclasses.fields(BoundReport))
        empty.update(n=a.n, min_diag=float(np.min(diag)))
        return empty, [(False, "min_diag is zero")]
    report = quantitative_bound(a, b, args.tol, args.budget)
    return dataclasses.asdict(report), [(report.loewner_verified, "ordering verification failed")]


def _cmd_classical(args) -> tuple[dict, list]:
    a = _hermitian_from_file(args.a)
    b = _hermitian_from_file(args.b)
    value = classical_bound(a, b, args.tol)
    actual = float(eigvals_hermitian(hadamard(a, b))[-1])
    ok = value <= actual + tol_for(abs(actual), args.tol)
    return (
        {"classical_bound": value, "actual_lambda_min": actual},
        [(ok, "bound exceeds the smallest eigenvalue")],
    )


def _cmd_kruskal(args) -> tuple[dict, None]:
    arr = parse_matrix(args.a)
    return {"kruskal_rank": kruskal_rank(arr, args.tol, args.budget)}, None


def _cmd_mu(args) -> tuple[dict, None]:
    a = _hermitian_from_file(args.a)
    if not 1 <= args.m <= a.n:
        raise ValueError(f"--m must lie in [1, {a.n}], got {args.m}")
    result = min_submatrix_eigenvalue(a, args.m, args.budget)
    return {
        "value": result.value,
        "argmin_subset": list(result.argmin_subset),
        "m": result.order,
    }, None


def _cmd_kappa(args) -> tuple[dict, None]:
    b = _hermitian_from_file(args.b)
    return {"kappa_eff": effective_condition_number(b, args.tol)}, None


def _certificate_checks(cert) -> list[tuple[bool, str]]:
    return [
        (cert.hypothesis_holds, "hypothesis not met"),
        (cert.conclusion_holds, "conclusion failed"),
    ]


def _cmd_projection(args) -> tuple[dict, list]:
    c = _hermitian_from_file(args.c)
    p = parse_matrix(args.p)
    cert = projection_certificate(c, p, args.tol, args.budget)
    return dataclasses.asdict(cert), _certificate_checks(cert)


def _cmd_certify_indefinite(args) -> tuple[dict, list]:
    if args.c is not None and (args.a is not None or args.fraction is not None):
        raise ValueError("--c cannot be combined with --a or --fraction")
    if args.c is None and args.a is None:
        raise ValueError("provide --c, or --a with an optional --fraction")
    fraction = 1.0 if args.fraction is None else args.fraction
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"--fraction must lie in (0, 1], got {args.fraction!r}")
    b = _hermitian_from_file(args.b)
    shift = None
    if args.c is not None:
        c = _hermitian_from_file(args.c)
    else:
        a = _hermitian_from_file(args.a)
        c, shift = shift_construction(a, b, fraction, args.tol, args.budget)
    cert = indefinite_certificate(c, b, args.tol, args.budget)
    return {"shift": shift, **dataclasses.asdict(cert)}, _certificate_checks(cert)


def _cmd_doa_bound(args) -> tuple[dict, list]:
    scenario = load_doa_scenario(args.scenario)
    report = doa_bound(scenario, args.tol, args.budget)
    return (
        dataclasses.asdict(report),
        [(report.bound_holds, "bound exceeds the smallest smoothed eigenvalue")],
    )


def _cmd_cp_bound(args) -> tuple[dict, list]:
    scenario = load_cp_scenario(args.scenario)
    report = cp_bound(scenario, args.tol, args.budget)
    return dataclasses.asdict(report), [
        (report.core_floor_holds, "core floor failed"),
        (report.m1_floor_holds, "moment floor failed"),
    ]


def _cmd_selftest(args) -> tuple[dict, list]:
    results = run_all(seed=args.seed, scale=args.scale)
    all_passed = all(r.passed for r in results)
    return {
        "suites": [dataclasses.asdict(r) for r in results],
        "total_failures": int(sum(r.failures for r in results)),
        "all_passed": all_passed,
    }, [(all_passed, "at least one suite failed")]


def _number_between(low: float, high: float, what: str):
    """Argparse type: a number strictly between low and high, so never nan."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_tolerance = _number_between(0.0, 1.0, "a number in (0, 1)")
_scale = _number_between(0.0, 100.0, "a number in (0, 100)")


def _count(text: str) -> int:
    """Argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


_REQUIRED = {"required": True}

# The one list of commands: name -> (handler, help line, own options). Each
# handler returns (fields, checks) for _verdict. Every command also takes
# _COMMON_OPTIONS, after its own.
_COMMANDS = {
    "bound": (_cmd_bound, "certified floor for lambda_min of A o B",
              {"--a": _REQUIRED, "--b": _REQUIRED}),
    "classical": (_cmd_classical, "floor lambda_min(A) * min diag(B)",
                  {"--a": _REQUIRED, "--b": _REQUIRED}),
    "kruskal": (_cmd_kruskal, "Kruskal rank of a matrix", {"--a": _REQUIRED}),
    "mu": (_cmd_mu, "minimum submatrix eigenvalue at order m",
           {"--a": _REQUIRED, "--m": {"type": int, "required": True}}),
    "kappa": (_cmd_kappa, "effective condition number", {"--b": _REQUIRED}),
    "projection": (_cmd_projection, "certificate for C o P with a projection P",
                   {"--c": _REQUIRED, "--p": _REQUIRED}),
    "certify-indefinite": (
        _cmd_certify_indefinite,
        "certificate for C o B with Hermitian C, PSD B",
        {
            "--c": {"default": None},
            "--a": {"default": None, "help": "build C by shifting A down by its floor"},
            "--b": _REQUIRED,
            "--fraction": {"type": float, "default": None},
        },
    ),
    "doa-bound": (_cmd_doa_bound, "floor for a smoothed source covariance",
                  {"--scenario": _REQUIRED}),
    "cp-bound": (_cmd_cp_bound, "floors for a factor-model moment matrix",
                 {"--scenario": _REQUIRED}),
    "selftest": (
        _cmd_selftest,
        "run the seeded property suites",
        {
            "--seed": {"type": _count, "default": 0},
            "--scale": {"type": _scale, "default": 1.0,
                        "help": "trial count multiplier in (0, 100)"},
        },
    ),
}

_COMMON_OPTIONS = {
    "--tol": {"type": _tolerance, "default": 1e-9, "help": "relative tolerance in (0, 1)"},
    "--budget": {"type": _count, "default": DEFAULT_BUDGET, "help": "subset budget"},
    "--json": {"dest": "json_path", "default": None, "help": "write the report here"},
    "--timing": {"action": "store_true", "help": "include wall time in the report"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadabound",
        description="Certified eigenvalue floors for entrywise matrix products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in {**options, **_COMMON_OPTIONS}.items():
            p.add_argument(flag, **keywords)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler = _COMMANDS[args.command][0]
    start = time.perf_counter()
    try:
        code, results = _verdict(*handler(args))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        doc = {
            "command": args.command,
            "inputs": {key: getattr(args, key, None) for key in _INPUT_KEYS},
            "results": results,
            "timing_ms": elapsed_ms if args.timing else None,
        }
        emit_report(doc, args.json_path)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
