"""Smoke test of the benchmark itself; about three minutes on two cores.

    python3 perfbench/smoke.py

Checks that every name the traced run wraps still resolves in the program,
that the output check rejects a loss off its reference, that a one-second run of each workload, untraced and traced, exits 0 with
correct outputs and reports exactly the metrics ``BENCHMARK.json`` names,
each with its unit, and that ``run.py`` fails without printing a result in
a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import worker

    tracing.resolve_sites()
    print(f"ok   all {len(tracing.SITES)} traced names resolve")

    failures = []
    reference = json.loads(worker.REFERENCE.read_text())["single-64"]["0"]
    off = dict(reference, losses=[reference["losses"][0] * (1 + 1e-7)])
    if worker.departures(reference, reference) or not worker.departures(off, reference):
        failures.append("the reference check does not tell a changed loss apart")
    print(f"{'FAIL' if failures else 'ok  '} a loss off its reference by 1e-7 fails")
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"outputs not correct: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            if problems:
                failures.append(f"{label}: " + "; ".join(problems))
            print(f"{'FAIL' if problems else 'ok  '} {label}: {len(got)} metrics, "
                  f"{result['attempted']} ops")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        failures.append("run.py without the program's sources did not fail cleanly")
    print(f"{'FAIL' if done.returncode == 0 else 'ok  '} without sources: exit "
          f"{done.returncode}, {done.stderr.strip()}")

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
