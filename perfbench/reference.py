"""Record the reference outputs that each workload seed is checked against.

    python3 perfbench/reference.py --seeds $(seq 0 63)

For every workload and seed not yet in ``perfbench/reference.json``, a
fresh worker runs one untraced op and its record is added: a digest of the
survivors and redirects of every plan, and the held-out losses.  Entries are
never rewritten.  They hold what the program computed when the benchmark was
defined, so a later change that alters the results fails the output check of
``run.py`` instead of moving the reference.  A seed without an entry is
checked only for finite losses and for outputs identical to the run's first
op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("cli-4x16", "single-64", "rate-sweep-4x16")


def record(workload: str, seed: int) -> dict:
    work = HERE / "_work" / f"reference-{os.getpid()}"
    result = work.with_suffix(".json")
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "0",
             "--work", str(work), "--result", str(result)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT,
            stdout=subprocess.DEVNULL, check=True, timeout=300)
        doc = json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result.unlink(missing_ok=True)
    if not doc["ops"][0]["ok"]:
        raise SystemExit(f"perfbench: {workload} seed {seed}: the op failed")
    return doc["record"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in args.seeds:
        for workload in WORKLOADS:
            entries = references.setdefault(workload, {})
            if str(seed) in entries:
                continue
            entries[str(seed)] = record(workload, seed)
            # written after every entry, so an interrupted run keeps its work
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {entries[str(seed)]['losses'][0]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
