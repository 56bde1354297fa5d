"""hadabound benchmark: one seeded workload per run, oracle-checked.

    python3 perfbench/run.py --workload {scan,dense,cli,suites} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the run times whole op cycles until the timed ops add up
to S seconds and reports the end-to-end metrics. With --trace 1 it runs
S/2 seconds untraced, then S/2 seconds with span wrappers installed
around the package's public functions, and reports the per-layer
metrics, including the tracing overhead between the two halves.

Every op is checked against an independent numpy oracle outside the
timed interval. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
run's context (seed, sizes, ranks, machine) and each metric with its
unit. See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import bootstrap

bootstrap.pin_threads()  # before anything imports numpy

import numpy as np  # noqa: E402

import proc  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 5
WARM_UP_S = 1.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _timed_process(argv: list[str], env: dict | None = None) -> float:
    t0 = time.perf_counter()
    out = proc.run(argv, cwd=bootstrap.ROOT, env=env)
    elapsed = time.perf_counter() - t0
    if out.code != 0:
        raise RuntimeError(f"{argv[1:]} exited with {out.code}: {out.stderr[-500:]!r}")
    return elapsed


def setup_seconds(workload: str, seed: int, workdir: Path, tiny: bool) -> tuple[float, float]:
    """Set-up time as (reference-scaled, raw) medians over fresh processes.

    Each probe imports the package and builds the first cycle's inputs.
    Interpreter reference samples bracket every probe.
    """
    child = str(Path(__file__).with_name("child.py"))
    argv = [sys.executable, child, "setup", workload, str(seed), str(workdir / "setup")]
    argv.append("1" if tiny else "0")
    refs = [reference.interpreter_kernel()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_timed_process(argv))
        refs.append(reference.interpreter_kernel())
    scaled = [
        t * reference.INTERP_NOMINAL_S / (0.5 * (before + after))
        for t, before, after in zip(raw, refs, refs[1:])
    ]
    return _median(scaled), _median(raw)


def interpreter_and_import_ms() -> tuple[float, float]:
    """Bare interpreter wall time, and `import hadabound.cli` on top of it."""
    env = bootstrap.child_env()
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(reference.interpreter_kernel())
        imported.append(_timed_process([sys.executable, "-c", "import hadabound.cli"], env))
    interp = _median(bare)
    return 1000.0 * interp, 1000.0 * (_median(imported) - interp)


def timing_metrics(w, phase) -> dict:
    """Reference-scaled timings of one phase (see reference.py).

    Means, not percentiles: a single scaled op time is off by up to ~20%
    when the machine changes speed during the op, and only an average
    over many ops cancels that out. Percentiles are printed as context.
    """
    times = phase.scaled_times(w.ref_nominal_s)
    bound = [t for t, b in zip(times, phase.bound) if b]
    return {
        "ops_per_s": (len(times) / math.fsum(times), "1/s"),
        "bound_ms_mean": (1000.0 * math.fsum(bound) / len(bound), "ms"),
    }


def timing_context(w, phase) -> dict:
    """Raw wall-clock figures and percentiles, printed beside the metrics."""
    scaled = phase.scaled_times(w.ref_nominal_s)
    out = {"op_samples": phase.attempted, "bound_samples": sum(phase.bound)}
    for label, times in (("scaled", scaled), ("raw", phase.times)):
        bound = [t for t, b in zip(times, phase.bound) if b]
        out[label] = {
            "ops_per_s": len(times) / math.fsum(times),
            "op_ms_p50": 1000.0 * _median(times),
            "op_ms_p90": 1000.0 * _p90(times),
            "bound_ms_p50": 1000.0 * _median(bound),
        }
    out["reference_ms_median"] = 1000.0 * _median([r for _, r in phase.refs])
    return out


def traced(hb, make, seconds: float, workdir: Path, spans_csv: Path):
    """Untraced half, then traced half on the same inputs; per-layer metrics."""
    warm = workloads.run_phase(make(), WARM_UP_S, warm_up=True)
    plain = workloads.run_phase(make(), seconds / 2.0)
    w = make()
    if isinstance(w, workloads.Cli):
        w.trace_dir = workdir / "spans"
        w.trace_dir.mkdir(parents=True, exist_ok=True)
        phase = workloads.run_phase(w, seconds / 2.0)
        totals: Counter = Counter()
        for t in w.child_totals:
            tracer.add_totals(totals, t)
        rows = w.child_rows
    else:
        tr = tracer.Tracer(hb)
        tr.install()
        try:
            phase = workloads.run_phase(w, seconds / 2.0, tr)
        finally:
            tr.uninstall()
        totals, rows = tr.totals(), tr.rows()
    spans_csv.parent.mkdir(parents=True, exist_ok=True)
    with spans_csv.open("w", encoding="utf-8") as fh:
        fh.write("op,span,parent,name,layer,start_s,end_s\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    suite_trials = Counter(k for k in phase.kinds if k in workloads.FULL_SCALE_TRIALS)
    metrics = tracer.layer_metrics(
        totals, phase.attempted, phase.busy_s, suite_trials, workloads.FULL_SCALE_TRIALS
    )
    interp_ms, import_ms = interpreter_and_import_ms()
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    plain_rate = timing_metrics(w, plain)["ops_per_s"][0]
    traced_rate = timing_metrics(w, phase)["ops_per_s"][0]
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    extra = {
        "untraced": timing_context(w, plain),
        "traced": timing_context(w, phase),
        "spans": str(spans_csv.relative_to(bootstrap.ROOT)),
    }
    return metrics, [warm, plain, phase], extra


def _commit() -> str:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args, w, phases) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": w.describe(),
        "cycles": [p.cycles for p in phases],
        "ops": [p.attempted for p in phases],
        "timed_s": [round(p.busy_s, 3) for p in phases],
        "wall_s": [round(p.wall_s, 3) for p in phases],
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "dense", "cli", "suites"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hb = bootstrap.load_package()
    except (bootstrap.MissingPackage, ImportError) as exc:
        sys.stderr.write(f"error: cannot load hadabound: {exc}\n")
        return 2
    workdir = bootstrap.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]

    def make():
        return cls(hb, args.seed, args.tiny, workdir / "inputs")

    try:
        if args.trace:
            spans_csv = bootstrap.ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.csv"
            metrics, phases, extra = traced(hb, make, args.seconds, workdir, spans_csv)
            w = make()
        else:
            setup_s, setup_raw = setup_seconds(args.workload, args.seed, workdir, args.tiny)
            w = make()
            phases = [workloads.run_phase(w, WARM_UP_S, warm_up=True)]
            phases.append(workloads.run_phase(w, args.seconds))
            metrics = {"setup_s": (setup_s, "s"), **timing_metrics(w, phases[1])}
            metrics["peak_rss_mb"] = (w.peak_rss_mb(), "MB")
            extra = dict(timing_context(w, phases[1]), raw_setup_s=setup_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for kind, errs in p.errors[:5]:
            sys.stderr.write(f"FAILED {kind}: {'; '.join(map(str, errs))[:2000]}\n")
    print("context " + json.dumps(dict(context(args, w, phases), **extra)))
    print(f"metric fail_frac {failed / attempted!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    if not args.trace:
        for label in ("scaled", "raw"):
            for name, value in extra[label].items():
                print(f"info {label}.{name} {value!r} {'1/s' if name == 'ops_per_s' else 'ms'}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
