"""One benchmark client: set up a workload, then run its ops back to back.

Run by ``run.py`` in a fresh process with ``PYTHONPATH`` pointing at the
checkout's ``src``.  It writes one JSON document to ``--result`` and prints
nothing the benchmark reads; the CLI's own prints go to this process's
stdout, which ``run.py`` discards.

    python3 perfbench/worker.py --workload cli-4x16 --seed 0 --seconds 30 \
        --trace 0 --work perfbench/_work/x --result perfbench/_work/x.json
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

from hodgecover import cli, moe, pipeline, selector
from hodgecover.selector import SurvivorPlan

import tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REL_TOL = 1e-9       # a loss may depart this far from the reference by rounding alone
RATE = 0.66          # the drop rate of the paper's tables
R1 = 0.20            # the CLI's default stage-1 rate for --hybrid
SWEEP_RATES = tuple(k / 16 for k in range(1, 15))
PLANTED = (0, 1, 2)  # acceptance criterion 11 plants this triple in layer 0


def write_config(work: Path, seed: int, **model) -> Path:
    """Config that moves every input seed with the workload seed.

    Seed 0 gives the shipped defaults: model.seed 0, corpus.seed 42 (and the
    held-out corpus at 43).
    """
    path = work / "config.json"
    path.write_text(json.dumps({"model": {"seed": seed, **model},
                                "corpus": {"seed": 42 + seed}}))
    return path


def synth(work: Path, config: Path) -> Path:
    rc = cli.main(["synth", "--config", str(config), "--out", str(work / "synth")])
    if rc != 0:
        raise RuntimeError(f"synth exited {rc}")
    return work / "synth" / "model"


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def plan_choice(plan: SurvivorPlan) -> str:
    """The integer part of a plan: which experts survive and where drops go.

    Unlike the plan's floats, these bytes do not depend on rounding, so they
    can be compared exactly with the reference.
    """
    return json.dumps([int(plan.layer), int(plan.k), list(plan.survivors),
                       sorted(plan.redirect.items()),
                       [[int(j) for j in g] for g in plan.merge_groups or ()]])


class CliWorkload:
    """``hodgecover.cli.main`` in-process on synthesized model files."""

    CHECKED = ("*/plans/*.json", "*/summary.json", "*/ablation_grid.json",
               "*/diagnostics.csv")

    def __init__(self, work: Path, seed: int, model: dict, commands, plans_per_op: int):
        self.config = write_config(work, seed, **model)
        self.model_dir = synth(work, self.config)
        self.commands = commands
        self.plans_per_op = plans_per_op

    def run_op(self, out: Path):
        for name, *args in self.commands:
            rc = cli.main([name, *args, "--config", str(self.config),
                           "--model-dir", str(self.model_dir), "--out", str(out / name)])
            if rc != 0:
                raise RuntimeError(f"{name} exited {rc}")

    def check(self, out: Path, _products):
        """(byte digest, reference record, bytes written) of one op's outputs.

        The record's losses are the compress summary's, then, if the op
        ablates, the ablation grid's in ``METHODS`` order.
        """
        files = sorted(p for pattern in self.CHECKED for p in out.glob(pattern))
        plan_files = [p for p in files if p.parent.name == "plans"]
        if not plan_files:
            raise RuntimeError("no plan files written")
        plans = [SurvivorPlan.from_json(p.read_text()) for p in plan_files]
        losses = [json.loads((out / "compress" / "summary.json").read_text())["heldout_loss"]]
        grid = out / "ablate" / "ablation_grid.json"
        if grid.exists():
            doc = json.loads(grid.read_text())["grid"]
            losses += [doc[method]["heldout_loss"] for method in pipeline.METHODS]
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        record = {"plans": digest(map(plan_choice, plans)), "losses": losses}
        return digest(p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes()
                      for p in files), record, written


class RateSweep:
    """Rate-loss curve over analyses built once in setup."""

    def __init__(self, work: Path, seed: int):
        config = write_config(work, seed)
        model_dir = synth(work, config)
        first = model_dir / "layer_000.json"
        planted = moe.plant_discordant_triple(moe.MoeLayer.from_json(first.read_text()),
                                              PLANTED, seed=500 + seed)
        first.write_text(planted.to_json() + "\n")
        cfg = cli.load_config(str(config), [])
        sel = cfg["selector"]
        self.seed = seed
        self.layers = cli.load_model(str(model_dir))
        self.corpus, self.heldout = cli.corpora(cfg)
        self.params = cli.selector_params(cfg)
        self.analyses = [pipeline.analyze_layer(layer, self.corpus, cap=sel["triangle_cap"],
                                                seed=sel["triangle_seed"])
                         for layer in self.layers]
        sizes = [layer.n for layer in self.layers]
        self.budgets = {r: selector.allocate_uniform(r, sizes).survivors
                        for r in (R1, *SWEEP_RATES)}
        self.plans_per_op = len(self.layers) * (
            len(SWEEP_RATES) * len(pipeline.METHODS) + sum(r >= R1 for r in SWEEP_RATES))

    def _plans(self, rate, method):
        return [pipeline.plan_layer(a, k, method, self.params, layer_id=i, seed=self.seed + i)
                for i, (a, k) in enumerate(zip(self.analyses, self.budgets[rate]))]

    def run_op(self, _out: Path):
        """Every method at every rate, plus the CLI's hybrid recipe from r1 up."""
        results = []
        for rate in SWEEP_RATES:
            for method in pipeline.METHODS:
                plans = self._plans(rate, method)
                results.append((rate, method, plans,
                                pipeline.model_loss(self.layers, self.heldout, plans)))
            if rate >= R1:
                plans = self._plans(R1, "hodgecover")
                _, pruned = pipeline.hybrid_stage2(self.layers, self.corpus, plans, rate, R1)
                results.append((rate, "hybrid", plans, pipeline.model_loss(
                    self.layers, self.heldout, plans, pruned)))
        return results

    def check(self, _out: Path, results):
        """(byte digest, reference record, 0) of one op's curve.

        The record's losses are each method's mean over the rates, the
        ``hodgecover`` curve first, then the other ``METHODS`` and the hybrid.
        """
        chunks, choices = [], []
        for rate, method, plans, loss in results:
            for plan in plans:
                text = plan.to_json()
                SurvivorPlan.from_json(text)
                chunks.append(text)
                choices.append(plan_choice(plan))
            chunks.append(f"{rate!r},{method},{loss!r}")
        losses = [float(np.mean([loss for _, m, _, loss in results if m == method]))
                  for method in ("hodgecover", *(m for m in pipeline.METHODS
                                                 if m != "hodgecover"), "hybrid")]
        return digest(chunks), {"plans": digest(choices), "losses": losses}, 0


def make_workload(name: str, work: Path, seed: int):
    if name == "cli-4x16":
        return CliWorkload(work, seed, {}, [
            ("diagnose",),
            ("ablate", "--rate", str(RATE)),
            ("compress", "--rate", str(RATE), "--hybrid"),
        ], plans_per_op=4 * (len(pipeline.METHODS) + 1))
    if name == "single-64":
        return CliWorkload(work, seed, {"n": 64, "layers": 1},
                           [("compress", "--rate", str(RATE))], plans_per_op=1)
    if name == "rate-sweep-4x16":
        return RateSweep(work, seed)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def openblas() -> dict:
    """Build string and thread count of the OpenBLAS numpy loaded."""
    info = {"build": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def departures(record: dict, reference: dict | None) -> list[str]:
    """How one op's record departs from the seed's reference, if it has one."""
    problems = [f"loss {x!r}" for x in record["losses"] if not math.isfinite(x)]
    if reference is None:
        return problems
    if record["plans"] != reference["plans"]:
        problems.append("plans differ from the reference")
    if len(record["losses"]) != len(reference["losses"]) or not all(
            math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)
            for x, y in zip(record["losses"], reference["losses"])):
        problems.append(f"losses {record['losses']} differ from the reference "
                        f"{reference['losses']}")
    return problems


def run(args) -> dict:
    work = Path(args.work)
    workload = make_workload(args.workload, work, args.seed)
    ready = time.monotonic()
    doc = {"ready": ready}
    if args.setup_only:
        return doc

    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))
    tracer = tracing.Tracer()
    ops = []
    first = None
    records, written = [], []
    start = time.perf_counter()
    while True:
        n = len(ops)
        # op 0 runs cold, so it is never traced and overhead compares warm ops
        traced = bool(args.trace) and n % 2 == 1
        out = work / f"op{n}"
        ok = False
        t0 = time.perf_counter()
        try:
            with tracer.op(n) if traced else nullcontext():
                products = workload.run_op(out)
            seconds = time.perf_counter() - t0
            signature, record, nbytes = workload.check(out, products)
            first = first or signature
            problems = departures(record, reference)
            if signature != first:
                problems.append("output differs from op 0")
            ok = not problems
            for problem in problems:
                print(f"perfbench: op {n}: {problem}", file=sys.stderr)
            records.append(record)
            written.append(nbytes)
        except Exception:  # a failed op is counted and the run goes on
            seconds = time.perf_counter() - t0
            traceback.print_exc()
        shutil.rmtree(out, ignore_errors=True)
        ops.append({"seconds": seconds, "traced": traced, "ok": ok})
        elapsed = time.perf_counter() - start
        # a traced run needs a warm untraced op besides the traced one
        enough = not args.trace or len(ops) >= 3
        # stop when ending after one more op would land farther from the deadline
        if enough and elapsed + seconds / 2 >= args.seconds:
            break

    doc.update(ops=ops, plans_per_op=workload.plans_per_op,
               record=records[0] if records else None, referenced=reference is not None,
               heldout_loss=records[0]["losses"][0] if records else None,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               python=sys.version.split()[0], numpy=np.__version__,
               scipy=scipy.__version__, openblas=openblas())
    if args.trace:
        traced_s = [op["seconds"] for op in ops if op["ok"] and op["traced"]]
        untraced_s = [op["seconds"] for op in ops[1:] if op["ok"] and not op["traced"]]
        overhead = (statistics.median(traced_s) - statistics.median(untraced_s)
                    if traced_s and untraced_s else 0.0)
        doc["per_layer"] = tracing.per_layer(
            tracer, sum(op["traced"] for op in ops), overhead,
            float(np.mean(written)) if written else 0.0)
        doc["spans"] = tracer.to_json()
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.trace:
        tracing.resolve_sites()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    Path(args.result).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
