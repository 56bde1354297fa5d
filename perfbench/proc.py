"""Run a child process to completion without polling."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import threading
from pathlib import Path

TIMEOUT_S = 60.0


@dataclasses.dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    spans: Path | None = None  # span file of a traced child


def run(argv: list[str], cwd=None, env: dict | None = None) -> Result:
    """Start argv and block in wait4 until it exits.

    subprocess.run with a timeout polls with sleeps of up to 50 ms, which
    would quantise every timing; a watchdog thread kills a child that
    outlives TIMEOUT_S instead. wait4 also returns the child's own peak RSS.
    """
    child = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        # Outputs are a few kB, well inside the pipe buffer, so the child
        # never blocks on a full pipe while we wait for it.
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    with child.stdout, child.stderr:
        out, err = child.stdout.read(), child.stderr.read()
    return Result(child.returncode, out, err, usage.ru_maxrss)
