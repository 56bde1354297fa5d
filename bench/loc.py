"""Count the code lines of each module in src/hadabound.

    python3 bench/loc.py [DIR]

A code line holds at least one token that is neither a comment nor part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment-only lines and docstring lines do not count; a
statement spread over several lines counts each line that holds one of
its tokens. Prints one line per module of DIR (default: src/hadabound
next to this script's directory), sorted by name, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are layout or comment, never code.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of source that hold a code token."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "hadabound"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
