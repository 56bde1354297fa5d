"""README's library example runs as written and shows the values it states.

Each line of a ```python block of the form `expression   # number` is
checked: a number ending in "..." is a prefix of the value's repr, any
other number is its whole repr.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
STATED = re.compile(r"^(?P<expr>[\w.]+)\s+# (?P<num>-?\d[\d.e+-]*?)(?P<cut>\.\.\.)?(?:[ ,]|$)")


def test_python_blocks_run_and_state_their_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        scope: dict = {}
        exec(compile(block, str(README), "exec"), scope)
        for line in block.splitlines():
            stated = STATED.match(line)
            if stated is None:
                continue
            shown = repr(eval(stated["expr"], scope))
            if stated["cut"]:
                assert shown.startswith(stated["num"]), line
            else:
                assert shown == stated["num"], line
            checked += 1
    assert checked >= 3
