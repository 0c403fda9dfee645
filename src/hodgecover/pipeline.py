"""Per-layer composition: sweep, build, decompose, select, evaluate.

The flow for one layer is fixed: pairwise barrier sweep, Stage-A candidate
triangles, triplet barriers of those candidates alone (the pairwise cells
are not evaluated again), Stage-B Betti-maximizing filtration, Hodge
decomposition of the edge-barrier signal on the chosen complex, then
survivor selection by the requested method.  The layer's beta1 is the
filtration's Betti count at tau*, and the decomposition projects onto the
span of the filtration's pivot triangles, so no second reduction runs.
Layers are independent, so models are compressed layer by layer under a
cross-layer budget allocator.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .builder import FiltrationResult, stage_a_candidates, stage_b_filtration
# betti1 and build_incidence are unused here but stay importable: the benchmark's
# tracer (perfbench/tracing.py) patches them as hodgecover.pipeline.<name>.
from .complexes import Complex2, EdgeSignal, betti1, build_incidence  # noqa: F401
from .hodge import HodgeDecomp, decompose
from .moe import (BarrierTable, CalibCorpus, MoeLayer, barrier_sweep, compression_loss,
                  extend_triplets, saliency)
from .selector import (CoverageInstance, SurvivorPlan, build_coverage, greedy_select,
                       phi, redirect, select_ablation, select_random)
from .wanda import PruneMask, prune_survivors, residual_sparsity

logger = logging.getLogger(__name__)

METHODS = ("hodgecover", "random", "no_triangle", "greedy_barrier",
           "triplet_penalty", "triplet_hypergraph")
# the methods that keep exact survivors and redirect the dropped experts; their
# plans read the coverage instance (a random plan records phi).  The others merge
# expert groups by union-find.
REDIRECT_METHODS = ("hodgecover", "random", "no_triangle")


@dataclass(frozen=True, eq=False)
class SelectorParams:
    """Frozen selection defaults; every field mirrors the shipped defaults."""

    p: float = 20.0
    q_t: float = 20.0
    lam_e: float = 1.0
    lam_t: float = 0.5
    alpha: float = 3.0
    alpha_t: float = 1.0


@dataclass(frozen=True, eq=False)
class LayerAnalysis:
    """Everything the selectors need about one layer, computed once.

    ``sal`` is the per-expert saliency of :func:`~hodgecover.moe.saliency`.
    """

    layer: MoeLayer
    table: BarrierTable
    candidates: np.ndarray
    filtration: FiltrationResult
    complex: Complex2
    signal: EdgeSignal
    decomp: HodgeDecomp
    sal: np.ndarray
    beta1: int


def pairwise_signal(k: Complex2, table: BarrierTable) -> EdgeSignal:
    """The edge-barrier cochain of a complex, read off the pairwise table."""
    return EdgeSignal(table.pairwise[k.edges[:, 0], k.edges[:, 1]])


def analyze_layer(layer: MoeLayer, corpus: CalibCorpus, *, cap: int = 500,
                  seed: int = 42) -> LayerAnalysis:
    """Run the full topological analysis for one layer."""
    pair_table = barrier_sweep(layer, corpus)
    candidates = stage_a_candidates(pair_table, cap=cap, seed=seed)
    table = extend_triplets(layer, corpus, pair_table, candidates)
    filtration = stage_b_filtration(table, candidates)
    k = filtration.chosen_complex
    if k.num_edges < layer.n * (layer.n - 1) // 2:
        logger.warning("chosen complex has %d of %d edges; expected the complete "
                       "edge set on planted layers", k.num_edges,
                       layer.n * (layer.n - 1) // 2)
    signal = pairwise_signal(k, table)
    return LayerAnalysis(
        layer=layer, table=table, candidates=candidates, filtration=filtration,
        complex=k, signal=signal, decomp=decompose(k, signal, pivots=filtration.pivots),
        sal=saliency(layer, corpus),
        beta1=filtration.beta1,
    )


def plan_layer(analysis: LayerAnalysis, k: int, method: str,
               params: SelectorParams = SelectorParams(), *,
               layer_id: int = 0, seed: int = 0) -> SurvivorPlan:
    """Select survivors for one analyzed layer with the requested method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method not in REDIRECT_METHODS:
        return select_ablation(method, analysis.table, k, alpha_t=params.alpha_t,
                               layer=layer_id)
    if method == "no_triangle":  # the coverage objective without its triangle term
        params = dataclasses.replace(params, lam_t=0.0)
    inst = coverage_for(analysis, params)
    survivors = select_random(analysis.layer.n, k, seed) if method == "random" \
        else greedy_select(inst, k)
    return SurvivorPlan(
        n=analysis.layer.n, k=k, survivors=survivors,
        redirect=redirect(analysis.complex, analysis.table, analysis.decomp,
                          survivors, params.alpha),
        method=method, phi=phi(inst, survivors), alpha=params.alpha, layer=layer_id,
    )


def coverage_for(analysis: LayerAnalysis,
                 params: SelectorParams = SelectorParams()) -> CoverageInstance:
    return build_coverage(analysis.complex, analysis.decomp, analysis.table,
                          analysis.sal, p=params.p, q_t=params.q_t,
                          lam_e=params.lam_e, lam_t=params.lam_t)


def compress_model(analyses: Sequence[LayerAnalysis], budget_ks: Sequence[int],
                   method: str, params: SelectorParams = SelectorParams(), *,
                   seed: int = 0) -> list[SurvivorPlan]:
    """Plan every layer of a model at its allocated survivor count."""
    if len(analyses) != len(budget_ks):
        raise ValueError("one survivor count per layer required")
    return [plan_layer(a, k, method, params, layer_id=idx, seed=seed + idx)
            for idx, (a, k) in enumerate(zip(analyses, budget_ks))]


def model_loss(layers: Sequence[MoeLayer], corpus: CalibCorpus,
               plans: Sequence[SurvivorPlan],
               masks: Sequence[Mapping[int, PruneMask] | None] | None = None) -> float:
    """Mean per-layer compression loss of a planned model; ``masks`` are
    the per-layer keep masks of :func:`hybrid_prune`.  Lists of unequal
    length raise :class:`ValueError` rather than drop layers."""
    masks = masks if masks is not None else [None] * len(plans)
    return float(np.mean([compression_loss(layer, corpus, plan, layer_masks)
                          for layer, plan, layer_masks in zip(layers, plans, masks, strict=True)]))


def hybrid_prune(layers: Sequence[MoeLayer], corpus: CalibCorpus,
                 plans: Sequence[SurvivorPlan], r_total: float, r1: float
                 ) -> tuple[float, list[dict[int, PruneMask]]]:
    """Residual-sparsity pass over every layer's survivors, once per layer.

    Returns the applied weight sparsity r2 and the per-layer keep masks,
    which the loss evaluator consumes alongside the plans.  Unequal numbers
    of layers and plans raise :class:`ValueError`.
    """
    r2 = residual_sparsity(r_total, r1)
    return r2, [prune_survivors(layer, corpus, plan.survivors, r2)
                for layer, plan in zip(layers, plans, strict=True)]


# the benchmark's rate sweep (perfbench/worker.py) calls the pass by this name
hybrid_stage2 = hybrid_prune
