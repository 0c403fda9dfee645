"""Time the model-file load and the pair and triplet sweeps of two source trees,
interleaved in one process.

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


def load_tree(src: str, name: str):
    """The ``moe`` and ``builder`` modules of ``src/hodgecover``, loaded as ``name``."""
    package = Path(src).resolve() / "hodgecover"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.moe"), importlib.import_module(f"{name}.builder")


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


def stage_calls(moe, builder, n: int, fanout: int, candidates=None):
    """The tree's two stage calls on one configuration, and its candidates."""
    layer = moe.synth_layer(n=n, fanout=fanout, seed=0)
    corpus = moe.CalibCorpus.sample(layer.ctx, 2048, 42)
    pairs = moe.barrier_sweep(layer, corpus)
    if candidates is None:
        candidates = builder.stage_a_candidates(pairs)
    return {"pair": lambda: moe.barrier_sweep(layer, corpus),
            "triplet": lambda: moe.extend_triplets(layer, corpus, pairs, candidates)}, candidates


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
    print(f"{stage:8} {n:>3} {fanout:>6}  {summary(ms[:, 0]):>28}"
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
    print(f"{'stage':8} {'n':>3} {'fanout':>6}  {'old ms, median [quartiles]':>28}"
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


if __name__ == "__main__":
    main()
