"""Time the model-file load, the pair and triplet sweeps and the held-out loss
of two source trees, interleaved in one process.

    OPENBLAS_NUM_THREADS=1 python tools/sweep_times.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``hodgecover`` package, such
as the ``src`` of two checkouts.  Both packages are loaded side by side under
different names.

The ``load`` rows come first, one for each of n = 16, 32 and 64: each tree
writes the default synth layer (seed 0) with its own ``MoeLayer.to_json`` and
reads that text back with its own ``MoeLayer.from_json``, which is what is
timed.  Both trees' loaded logit tables must be the same bit for bit
(compared as int64): otherwise the script names n and exits with status 1.

Each sweep configuration is the default synth layer (seed 0) at n = 16, 32
and 64 and fanouts 2 and 8, with a corpus of 2,048 at seed 42 and the Stage-A
candidates of the old tree's pairwise table.  The two stages are
``barrier_sweep`` with no candidates (the pair sweep) and ``extend_triplets``
on that pairwise table (the triplet sweep).  Each tree first calls both
stages once, which warms it, and a configuration is timed only if both trees'
pair and triplet tables (``to_json``) are the same: otherwise the script
names the stage and configuration and exits with status 1.

The ``loss`` rows come last, one for each method and one for the hybrid
recipe.  Each tree analyses the default 4 x 16 model (seed 0, the CLI's
default config) with its own pipeline and plans every method at k = 1..15
survivors per layer.  The hybrid row plans ``hodgecover`` at the uniform
budget of r1 = 0.20 and prunes its survivors to each rate 1 - k/16 from r1
up.  One timed call is ``pipeline.model_loss`` on every plan of the row.
Both trees' plans (``to_json``), masks and losses must be the same bit for
bit: otherwise the script names the row and exits with status 1.

In every row the trees take turns, alternating which runs first, ``CALLS``
times.  Each row prints both trees' median and quartiles in ms, and the share
of calls in which the new tree was faster than the old call paired with it.
The OpenBLAS thread count is printed first.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (16, 32, 64)
FANOUTS = (2, 8)
CALLS = 60
LOSS_KS = range(1, 16)
R1 = 0.20


def load_tree(src: str, name: str):
    """The ``moe``, ``builder``, ``cli`` and ``pipeline`` modules of
    ``src/hodgecover``, loaded as ``name``."""
    package = Path(src).resolve() / "hodgecover"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("moe", "builder", "cli", "pipeline"))


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS library numpy loaded, if one is found."""
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
                return fn()
    return None


def stage_calls(moe, builder, cli, pipeline, n: int, fanout: int, candidates=None):
    """The tree's two stage calls on one configuration, and its candidates."""
    layer = moe.synth_layer(n=n, fanout=fanout, seed=0)
    corpus = moe.CalibCorpus.sample(layer.ctx, 2048, 42)
    pairs = moe.barrier_sweep(layer, corpus)
    if candidates is None:
        candidates = builder.stage_a_candidates(pairs)
    return {"pair": lambda: moe.barrier_sweep(layer, corpus),
            "triplet": lambda: moe.extend_triplets(layer, corpus, pairs, candidates)}, candidates


def loss_calls(moe, builder, cli, pipeline):
    """Per row, the tree's timed loss call and what it computes: the plans'
    JSON, the masks' JSON and the losses."""
    cfg = cli.load_config(None, [])
    layers = cli.model_layers(cfg)
    corpus, heldout = cli.corpora(cfg)
    sel = cfg["selector"]
    analyses = [pipeline.analyze_layer(layer, corpus, cap=sel["triangle_cap"],
                                       seed=sel["triangle_seed"]) for layer in layers]
    params, seed = cli.selector_params(cfg), cfg["model"]["seed"]
    rows = {method: [(pipeline.compress_model(analyses, [k] * len(layers), method, params,
                                              seed=seed), None) for k in LOSS_KS]
            for method in pipeline.METHODS}
    sizes = [layer.n for layer in layers]
    plans = pipeline.compress_model(analyses, cli.allocate_uniform(R1, sizes).survivors,
                                    "hodgecover", params, seed=seed)
    rates = [1.0 - k / sizes[0] for k in LOSS_KS]
    rows["hybrid"] = [(plans, pipeline.hybrid_prune(layers, corpus, plans, rate, R1)[1])
                      for rate in rates if rate >= R1]

    def losses(jobs):
        return lambda: [pipeline.model_loss(layers, heldout, plans, masks) for plans, masks in jobs]

    return {row: (losses(jobs), ([plan.to_json() for plans, _ in jobs for plan in plans],
                                 [cli.masks_to_json(m) for _, masks in jobs for m in masks or ()],
                                 [loss.hex() for loss in losses(jobs)()]))
            for row, jobs in rows.items()}


def load_call(moe, n: int):
    """The tree's read of its own file of the seed-0 synth layer, and the layer read."""
    text = moe.synth_layer(n=n, seed=0).to_json()
    call = functools.partial(moe.MoeLayer.from_json, text)
    return call, call()


def same_bits(a, b) -> bool:
    """Whether two layers hold the same logit tables, bit for bit."""
    return all(np.array_equal(getattr(a, key).view(np.int64), getattr(b, key).view(np.int64))
               for key in ("expert_logits", "router_logits"))


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def print_row(stage: str, n: int, fanout: int, old_call, new_call) -> None:
    """Time the two calls, taking turns, and print their row."""
    times = np.empty((CALLS, 2))
    for i in range(CALLS):
        sides = (0, 1) if i % 2 == 0 else (1, 0)
        for side in sides:
            times[i, side] = timed((old_call, new_call)[side])
    ms = times * 1e3
    wins = int((ms[:, 1] < ms[:, 0]).sum())
    print(f"{stage:23} {n:>3} {fanout:>6}  {summary(ms[:, 0]):>28}"
          f"  {summary(ms[:, 1]):>28}  {wins} of {CALLS}", flush=True)


def summary(ms: np.ndarray) -> str:
    q1, q2, q3 = np.percentile(ms, [25, 50, 75])
    return f"{q2:8.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    old, new = load_tree(args.old_src, "sweep_old"), load_tree(args.new_src, "sweep_new")
    print(f"OpenBLAS threads: {openblas_threads()}; {CALLS} calls per tree and row")
    print(f"{'stage':23} {'n':>3} {'fanout':>6}  {'old ms, median [quartiles]':>28}"
          f"  {'new ms, median [quartiles]':>28}  new faster")
    for n in SIZES:
        (old_load, old_layer), (new_load, new_layer) = load_call(old[0], n), load_call(new[0], n)
        if not same_bits(old_layer, new_layer):
            sys.exit(f"loaded logit tables differ at n = {n}: the trees read different layers")
        print_row("load", n, new_layer.fanout, old_load, new_load)
    for fanout in FANOUTS:
        for n in SIZES:
            old_calls, candidates = stage_calls(*old, n, fanout)
            new_calls, _ = stage_calls(*new, n, fanout, candidates)
            for stage in ("pair", "triplet"):
                if old_calls[stage]().to_json() != new_calls[stage]().to_json():
                    sys.exit(f"{stage} tables differ at n = {n}, fanout {fanout}: "
                             "the trees compute different barriers")
            for stage in ("pair", "triplet"):
                print_row(stage, n, fanout, old_calls[stage], new_calls[stage])
    old_losses, new_losses = loss_calls(*old), loss_calls(*new)
    for row, (old_call, old_made) in old_losses.items():
        new_call, new_made = new_losses[row]
        for what, a, b in zip(("plans", "masks", "losses"), old_made, new_made):
            if a != b:
                sys.exit(f"loss row {row}: the trees' {what} differ")
    for row, (old_call, _) in old_losses.items():
        print_row(f"loss {row}", 16, 2, old_call, new_losses[row][0])


if __name__ == "__main__":
    main()
