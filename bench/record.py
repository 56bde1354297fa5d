"""Record one point of the benchmark trajectory, or compare two.

    python3 bench/record.py record --checkout DIR --out BENCH_<k>.json
    python3 bench/record.py compare BENCH_0.json BENCH_1.json

`record` runs DIR/perfbench/run.py as a subprocess, once per workload and
seed (1, 2, 3) at --trace 0 and once per workload at --trace 1 (seed 1),
each for the run_seconds of DIR/BENCHMARK.json, and keeps each run's
context line and final JSON line. The workloads and end-to-end metrics
are the ones DIR/BENCHMARK.json lists. It refuses (exit 2) a checkout
whose tracked files under src/ or perfbench/, or BENCHMARK.json, differ
from HEAD, since every run is labelled with HEAD's commit. The file it
writes holds, per workload, the context line of the first run, the
median over the seeds of each end-to-end metric (with the per-seed
values), the attempted and failed op counts, and the per-layer metrics
of the traced run. Run it on an otherwise idle machine; both files of a
comparison must come from the same machine.

`compare` prints, per workload, each end-to-end median and per-layer
metric of both files with the ratio new / old. It refuses (exit 2) two
files whose runs lasted different times, or whose context lines of a
workload differ in cpu, nproc, python or numpy, since then they did not
come from one machine and toolchain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# What the harness runs; a change elsewhere does not alter the runs.
RUN_PATHS = ("src", "perfbench", "BENCHMARK.json")
SEEDS = (1, 2, 3)
TRACE_SEED = 1
# Context fields two files of a comparison must share.
MACHINE_FIELDS = ("cpu", "nproc", "python", "numpy")
RUN_TIMEOUT_S = 1800


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One harness run: its context line and its final JSON line."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}: {out.stderr[-500:]}")
    context = next(line for line in lines if line.startswith("context "))
    return {"context": json.loads(context[len("context "):]), "result": json.loads(lines[-1])}


def record_workload(checkout: Path, workload: str, seconds: float, end_to_end_names) -> dict:
    runs = []
    for seed in SEEDS:
        runs.append(run_once(checkout, workload, seed, seconds, trace=0))
        print(f"{workload} seed {seed}: {runs[-1]['result']['metrics']}", file=sys.stderr)
    traced = run_once(checkout, workload, TRACE_SEED, seconds, trace=1)
    end_to_end = {}
    for name in end_to_end_names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        end_to_end[name] = {
            "median": statistics.median(values),
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "by_seed": dict(zip(map(str, SEEDS), values)),
        }
    return {
        "context": runs[0]["context"],
        "end_to_end": end_to_end,
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "per_layer": {
            "seed": TRACE_SEED,
            "attempted": traced["result"]["attempted"],
            "failed": traced["result"]["failed"],
            "metrics": traced["result"]["metrics"],
        },
    }


def record(args) -> int:
    # Tracked files under RUN_PATHS that differ from HEAD, staged or not.
    diff = subprocess.run(
        ["git", "diff", "--name-only", "HEAD", "--", *RUN_PATHS],
        cwd=args.checkout, capture_output=True, text=True, check=False,
    )
    if diff.returncode != 0:
        print(f"cannot compare {args.checkout} with HEAD: {diff.stderr.strip()}", file=sys.stderr)
        return 2
    if diff.stdout:
        changed = " ".join(diff.stdout.splitlines())
        print(f"{args.checkout} differs from HEAD in: {changed}", file=sys.stderr)
        return 2
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    end_to_end_names = [m["name"] for m in spec["end_to_end"]]
    doc = {
        "seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "workloads": {
            w["name"]: record_workload(args.checkout, w["name"], seconds, end_to_end_names)
            for w in spec["workloads"]
        },
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _row(name: str, old, new, unit: str) -> str:
    ratio = f"{new / old:.3f}" if old and new is not None else "-"
    cells = (f"{v:.4g}" if v is not None else "-" for v in (old, new))
    return f"  {name:34s} {next(cells):>10s} {next(cells):>10s} {ratio:>7s} {unit}"


def compare(args) -> int:
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.old, args.new))
    if old["seconds"] != new["seconds"]:
        print(f"run lengths differ: {old['seconds']} s vs {new['seconds']} s", file=sys.stderr)
        return 2
    pairs = [(w, before, new["workloads"][w]) for w, before in old["workloads"].items()
             if w in new["workloads"]]
    for w, before, after in pairs:
        for field in MACHINE_FIELDS:
            was, now = before["context"].get(field), after["context"].get(field)
            if was != now:
                print(f"{w}: context {field} differs: {was!r} vs {now!r}", file=sys.stderr)
                return 2
    for w, before, after in pairs:
        print(f"{w}: commit {before['context']['commit'][:10]} -> {after['context']['commit'][:10]}")
        print(f"  failed ops {before['failed']}/{before['attempted']} -> "
              f"{after['failed']}/{after['attempted']}")
        for name, cell in before["end_to_end"].items():
            print(_row(name, cell["median"], after["end_to_end"][name]["median"], cell["unit"]))
        for name, cell in before["per_layer"]["metrics"].items():
            if name in before["end_to_end"]:
                continue
            later = after["per_layer"]["metrics"].get(name, {}).get("value")
            print(_row(name, cell["value"], later, cell["unit"]))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record", help="run the benchmark and write one BENCH file")
    r.add_argument("--checkout", type=Path, required=True, help="checkout whose perfbench/ and src/ run")
    r.add_argument("--out", type=Path, required=True)
    c = sub.add_parser("compare", help="print two BENCH files side by side")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = p.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
