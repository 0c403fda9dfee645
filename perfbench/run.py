"""The hodgecover benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli-4x16 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Each run is a closed loop of one client:
a fresh worker process sets the workload up and runs its ops back to back
for about ``--seconds``.  With ``--trace 0`` two more fresh processes only
set up, so ``setup_s`` is a median of three; the result carries the
end-to-end metrics.  With ``--trace 1`` the worker runs at least three ops,
untraced and traced in turn from a cold untraced first op, and the result
carries the per-layer metrics of the traced ones.  Human-readable lines, the environment record and the result line go
to stdout; the full record and the spans go to ``perfbench/_results``.
Workloads and metrics are described in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-4x16", "single-64", "rate-sweep-4x16")
SETUPS = 3           # fresh-process set-ups per untraced run; setup_s is their median
DEADLINE_S = 175.0   # every run ends within 180 s
RATIO_BASES = {"selector.coverage_useful_ratio": "selector.build_coverage.calls",
               "wanda.prune_useful_ratio": "wanda.prune_survivors.calls"}


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def tail(ops_s: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with ten ops beyond it."""
    n = len(ops_s)
    if n <= 10:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(ops_s)[n - 11]


class WorkerFailed(Exception):
    pass


def start_worker(args, work: Path, result: Path, deadline: float, setup_only: bool):
    """Run one fresh worker; return its record and its start on the monotonic clock."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker passed the {DEADLINE_S:.0f} s deadline") from None
    if done.returncode != 0:
        raise WorkerFailed(f"worker exited {done.returncode}")
    return json.loads(result.read_text()), started


def measure(args, scratch: Path) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for i in range(SETUPS - 1 if not args.trace else 0):
        doc, started = start_worker(args, scratch / f"setup{i}", scratch / f"setup{i}.json",
                                    deadline, setup_only=True)
        setups.append(doc["ready"] - started)
    doc, started = start_worker(args, scratch / "run", scratch / "run.json", deadline,
                                setup_only=False)
    setups.append(doc["ready"] - started)
    return doc, setups


def end_to_end(doc: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    ops = doc["ops"]
    ok_s = [op["seconds"] for op in ops if op["ok"]] or [op["seconds"] for op in ops]
    ok = sum(op["ok"] for op in ops)
    return {
        "op_s_p50": (statistics.median(ok_s), "s"),
        "plans_per_s": (doc["plans_per_op"] * ok / sum(ok_s), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
        "ok_op_ratio": (ok / len(ops), "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the shipped defaults")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the op loop runs; BENCHMARK.json gives run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hodgecover" / "__init__.py").is_file():
        print(f"perfbench: no hodgecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        doc, setups = measure(args, scratch)
    except WorkerFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = doc["ops"]
    failed = sum(not op["ok"] for op in ops)
    metrics = doc["per_layer"] if args.trace else end_to_end(doc, setups)
    ok_s = [op["seconds"] for op in ops if op["ok"] and not op["traced"]]
    op_tail = tail(ok_s)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "ops": len(ops), "nproc": len(os.sched_getaffinity(0)), "python": doc["python"],
           "numpy": doc["numpy"], "scipy": doc["scipy"],
           "openblas_build": doc["openblas"]["build"],
           "openblas_threads": doc["openblas"]["threads"], "git_sha": git_sha()}
    record = {"env": env, "metrics": metrics, "op_seconds": [op["seconds"] for op in ops],
              "setup_seconds": setups, "heldout_loss": doc["heldout_loss"],
              "record": doc["record"], "referenced": doc["referenced"],
              "op_s_tail": op_tail, "failed": failed}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {failed} failed")
    print("  op seconds: " + " ".join(f"{op['seconds']:.3f}{'t' if op['traced'] else ''}"
                                      for op in ops))
    for name, (value, unit) in metrics.items():
        base = len(ops) if name == "ok_op_ratio" else metrics.get(RATIO_BASES.get(name), [0])[0]
        of = f"  ({value * base:.0f} of {base:.0f})" if unit == "ratio" else ""
        print(f"  {name:36s} {value:14.6g} {unit}{of}")
    print(f"  {'heldout_loss (record only)':36s} {doc['heldout_loss']!r:>14} nats")
    if doc["referenced"]:
        print(f"  outputs checked against perfbench/reference.json for seed {args.seed}")
    else:
        print(f"  no reference for seed {args.seed}: outputs checked against op 0 only")
    if op_tail:
        print(f"  {'op_s_tail (record only)':36s} {op_tail[1]:14.6g} s at p{op_tail[0]:.1f} "
              f"of {len(ok_s)} ops")
    else:
        print(f"  {'op_s_tail (record only)':36s} {'-':>14} needs more than 10 untraced ops")
    print("env " + json.dumps(env, sort_keys=True))

    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(doc["spans"]) + "\n")

    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
