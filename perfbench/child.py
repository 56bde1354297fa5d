"""Helper processes started by run.py.

    python3 perfbench/child.py setup <workload> <seed> <workdir> <tiny 0|1>
        Import the package and build the first cycle's inputs, then exit;
        the parent times the whole process as one set-up sample.
    python3 perfbench/child.py cli <spans.json> <command> [options...]
        Run one hadabound CLI command in-process under the tracer and
        leave the span totals and rows in <spans.json>.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import bootstrap


def setup(workload: str, seed: str, workdir: str, tiny: str) -> int:
    hb = bootstrap.load_package()
    import workloads

    w = workloads.WORKLOADS[workload](hb, int(seed), tiny == "1", Path(workdir))
    w.cycle(0)
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    hb = bootstrap.load_package()
    import tracer

    tr = tracer.Tracer(hb)
    tr.install()
    tr.begin_op(0)
    try:
        code = hb.cli.dispatch(argv)
    finally:
        tr.end_op()
        doc = {"totals": tr.totals(), "rows": list(tr.rows())}
        Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    bootstrap.pin_threads()
    if argv[:1] == ["setup"] and len(argv) == 5:
        return setup(*argv[1:])
    if argv[:1] == ["cli"] and len(argv) >= 3:
        return traced_cli(argv[1], argv[2:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
