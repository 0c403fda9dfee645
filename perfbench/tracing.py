"""Spans around the calls each hodgecover module makes into the layer below.

The program has no spans of its own yet, so the benchmark records them from
outside: each entry of ``SITES`` names a module attribute that a caller looks
up at call time (``hodgecover.pipeline.barrier_sweep`` is the ``moe``
function as ``pipeline`` sees it) and the layer span it stands for.  While a
traced op runs, those attributes are replaced by wrappers that record
(name, start, end, parent, op, attrs); outside traced ops the originals are
back in place, so untraced ops run the program unmodified.

Self time of a span is its duration minus the time its child spans cover.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# patch site -> span name (the defining module and function).  Every site
# stays because its span feeds a reported metric: a self time, a count, or a
# ratio.  cli.main is the outermost span and takes the CLI's own work, such as
# artifact I/O and the model-loss loop.
SITES = {
    "hodgecover.cli.main": "cli.main",
    "hodgecover.cli.analyze_layer": "pipeline.analyze_layer",
    "hodgecover.cli.plan_layer": "pipeline.plan_layer",
    "hodgecover.cli.prune_survivors": "wanda.prune_survivors",
    "hodgecover.cli.discordance": "diagnostics.discordance",
    "hodgecover.cli.retained_mass": "diagnostics.retained_mass",
    # the rate sweep calls plan_layer through this attribute
    "hodgecover.pipeline.plan_layer": "pipeline.plan_layer",
    "hodgecover.pipeline.barrier_sweep": "moe.barrier_sweep",
    "hodgecover.pipeline.saliency": "moe.saliency",
    "hodgecover.pipeline.compression_loss": "moe.compression_loss",
    "hodgecover.pipeline.stage_a_candidates": "builder.stage_a",
    "hodgecover.pipeline.stage_b_filtration": "builder.stage_b",
    "hodgecover.pipeline.build_incidence": "complexes.build_incidence",
    "hodgecover.pipeline.betti1": "complexes.betti1",
    "hodgecover.pipeline.decompose": "hodge.decompose",
    "hodgecover.pipeline.build_coverage": "selector.build_coverage",
    "hodgecover.pipeline.greedy_select": "selector.greedy_select",
    "hodgecover.pipeline.redirect": "selector.redirect",
    "hodgecover.pipeline.select_ablation": "selector.select_ablation",
    # hybrid_stage2 prunes through this attribute, in the CLI and the sweep
    "hodgecover.pipeline.prune_survivors": "wanda.prune_survivors",
    # Stage B reaches the complexes through these two
    "hodgecover.builder.betti1": "complexes.betti1",
    "hodgecover.builder.build_incidence": "complexes.build_incidence",
}

# plan_layer reads the coverage instance it builds only for these methods
COVERAGE_READERS = ("hodgecover", "no_triangle")

SELF_TIMED = (
    "moe.barrier_sweep", "builder.stage_b", "complexes.betti1",
    "complexes.build_incidence", "builder.stage_a", "hodge.decompose", "moe.saliency",
    "selector.build_coverage", "selector.greedy_select", "selector.redirect",
    "selector.select_ablation", "moe.compression_loss", "wanda.prune_survivors",
    "pipeline.analyze_layer", "pipeline.plan_layer", "diagnostics.retained_mass",
    "diagnostics.discordance", "cli.main",
)
CALL_COUNTED = ("moe.barrier_sweep", "complexes.betti1", "hodge.decompose",
                "selector.build_coverage", "moe.compression_loss", "wanda.prune_survivors")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _attrs(name, args, kwargs, result):
    """Work counts taken from a call's arguments and result."""
    if name == "moe.barrier_sweep":
        n = _arg(args, kwargs, 0, "layer").n
        cands = args[2] if len(args) > 2 else kwargs.get("triangle_candidates", ())
        return {"cells": n * (n - 1) // 2 + len(cands)}
    if name == "builder.stage_a":
        return {"candidates": len(result)}
    if name == "builder.stage_b":
        k = result.chosen_complex
        return {"edges": k.num_edges, "triangles": k.num_triangles}
    if name == "pipeline.plan_layer":
        return {"method": _arg(args, kwargs, 2, "method")}
    if name == "wanda.prune_survivors":
        key = (id(_arg(args, kwargs, 0, "layer")),
               tuple(int(j) for j in _arg(args, kwargs, 2, "survivors")),
               float(_arg(args, kwargs, 3, "r2")))
        return {"key": key}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _op: int = -1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self._op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _attrs(name, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Install every wrapper for the duration of one op."""
        self._op = op_id
        originals = resolve_sites()
        try:
            for (module, attr), fn in originals.items():
                setattr(module, attr, self._wrap(SITES[f"{module.__name__}.{attr}"], fn))
            yield
        finally:
            for (module, attr), fn in originals.items():
                setattr(module, attr, fn)
            self._stack.clear()

    def self_times(self) -> dict[int, float]:
        """Self seconds of every span, keyed by span index."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op} for s in self.spans]


def resolve_sites() -> dict:
    """(module, attribute) -> current function for every site.

    Raises SystemExit naming the first site the program no longer has, so a
    renamed function stops the traced run instead of reading as zero work.
    """
    found = {}
    for site in SITES:
        module_name, attr = site.rsplit(".", 1)
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise SystemExit(f"perfbench: traced name {site} no longer exists")
        found[(module, attr)] = fn
    return found


def per_layer(tracer: Tracer, traced_ops: int, overhead_s: float,
              bytes_written: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics over the traced ops: name -> (value, unit)."""
    ops = max(traced_ops, 1)
    spans = tracer.spans
    own = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s.name] += own[i]
        calls[s.name] += 1

    def attr(s, key):
        return (s.attrs or {}).get(key)

    def total(name, key):
        return sum(attr(s, key) or 0 for s in spans if s.name == name)

    def parent(s):
        return spans[s.parent] if s.parent is not None else None

    complexes = sum(1 for s in spans if s.name == "complexes.betti1" and parent(s)
                    and parent(s).name == "builder.stage_b")
    coverage_read = sum(1 for s in spans if s.name == "selector.build_coverage"
                        and parent(s) and attr(parent(s), "method") in COVERAGE_READERS)
    prune_keys = {(s.op, attr(s, "key")) for s in spans if s.name == "wanda.prune_survivors"}
    stage_b = calls["builder.stage_b"]
    coverage = calls["selector.build_coverage"]
    prunes = calls["wanda.prune_survivors"]

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s[name] / ops, "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (calls[name] / ops, "count")
    out["moe.barrier_sweep.cells"] = (total("moe.barrier_sweep", "cells") / ops, "count")
    out["builder.stage_b.complexes"] = (complexes / ops, "count")
    out["builder.stage_a.candidates"] = (total("builder.stage_a", "candidates") / ops, "count")
    out["builder.chosen_edges"] = (
        total("builder.stage_b", "edges") / stage_b if stage_b else 0.0, "count")
    out["builder.chosen_triangles"] = (
        total("builder.stage_b", "triangles") / stage_b if stage_b else 0.0, "count")
    out["selector.coverage_useful_ratio"] = (
        coverage_read / coverage if coverage else 0.0, "ratio")
    out["wanda.prune_useful_ratio"] = (len(prune_keys) / prunes if prunes else 0.0, "ratio")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
