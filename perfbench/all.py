"""Run every workload (or some) over one or more seeds and summarize.

    python3 perfbench/all.py                         # every workload, seed 0
    python3 perfbench/all.py --trace 1               # the per-layer metrics
    python3 perfbench/all.py --seeds $(seq 20 29) --sets 2

Each run is ``perfbench/run.py`` in its own process, ``run_seconds`` long as
``BENCHMARK.json`` gives it, so every run prints its metrics by name and unit
and checks its outputs.  Within each seed the workloads take turns, so a slow
stretch of the machine falls on all of them rather than on one workload's
whole set.  With several seeds, the summary gives each metric's median and
the distance between its first and third quartiles as a share of the median.
With ``--sets 2`` the seeds run twice back to back, and the summary also gives
how far each median of the second set lies from the first, as a share of the
first.  Full outputs go to
``perfbench/_results/all-<workload>-seed<n>-trace<t>-set<s>.txt``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int, label: str) -> dict | None:
    """Run, print and save one run; return its result, or None if it failed."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    wall = time.monotonic() - start
    (HERE / "_results" / f"all-{workload}-seed{seed}-trace{trace}-{label}.txt").write_text(
        done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        print(done.stderr.strip())
        return None
    print("\n".join(lines[:-1]))
    print(f"  {'(run wall time)':36s} {wall:14.6g} s")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  OUTPUT CHECK FAILED: {result['failed']} of {result['attempted']} ops")
    return result


def summarize(values: dict[str, list[float]], units: dict[str, str]) -> dict[str, float]:
    medians = {}
    for name, vals in values.items():
        medians[name] = med = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"IQR/median {(q3 - q1) / med if med else float('nan'):7.4f}"
        else:
            spread = ""
        print(f"  {name:36s} median {med:12.6g} {units[name]:6s} {spread}")
    return medians


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--sets", type=int, default=1, help="times to run the seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    (HERE / "_results").mkdir(exist_ok=True)
    status = 0
    units: dict[str, str] = {}
    medians: dict[str, list[dict[str, float]]] = {w: [] for w in args.workloads}
    for s in range(args.sets):
        values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
        for seed in args.seeds:
            for workload in args.workloads:
                result = one_run(workload, seed, args.trace, f"set{s}")
                if result is None or not result["correct"]:
                    status = 1
                if result is None:
                    continue
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        for workload in args.workloads:
            print(f"summary {workload}, set {s}, seeds {args.seeds}:")
            medians[workload].append(summarize(values[workload], units))
    if args.sets > 1:
        for workload in args.workloads:
            first, *later = medians[workload]
            print(f"median drift {workload} (later set minus set 0, share of set 0):")
            for name, med in first.items():
                drift = " ".join(f"{(m[name] - med) / med if med else float('nan'):+8.4f}"
                                 for m in later if name in m)
                print(f"  {name:36s} {drift}")
    return status


if __name__ == "__main__":
    sys.exit(main())
