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

from .builder import (DEFAULT_CAP, DEFAULT_SEED, FiltrationResult, stage_a_candidates,
                      stage_b_filtration)
from .hodge import HodgeDecomp, decompose
from .moe import (BarrierTable, CalibCorpus, KeepsConstants, MoeLayer, barrier_sweep,
                  compression_loss, extend_triplets, saliency)
# unused here but kept importable: the benchmark's tracer (perfbench/tracing.py) patches them
from .oracles import betti1, build_incidence  # noqa: F401
from .selector import (ABLATION_VARIANTS, CoverageInstance, SurvivorPlan, build_coverage,
                       greedy_select, phi, redirect, redirect_costs, select_ablation, select_random)
from .wanda import PruneMask, prune_survivors, residual_sparsity

logger = logging.getLogger(__name__)

# the methods that keep exact survivors and redirect the dropped experts; their
# plans read the coverage instance (a random plan records phi).  The others merge
# expert groups by union-find.
REDIRECT_METHODS = ("hodgecover", "random", "no_triangle")
METHODS = REDIRECT_METHODS + ABLATION_VARIANTS


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
class LayerAnalysis(KeepsConstants):
    """Everything the selectors need about one layer, computed once.

    ``sal`` is the per-expert saliency of :func:`~hodgecover.moe.saliency`.
    What no survivor count changes is kept as constants of the analysis
    (:meth:`~hodgecover.moe.KeepsConstants.constant`), so a point on the
    rate-loss curve pays only for its own k: the coverage instance per
    coverage parameters (with its greedy picks so far), and the redirect
    costs per alpha.  The merge methods keep theirs on the table.
    """

    layer: MoeLayer
    table: BarrierTable
    filtration: FiltrationResult
    decomp: HodgeDecomp
    sal: np.ndarray


def analyze_layer(layer: MoeLayer, corpus: CalibCorpus, *, cap: int = DEFAULT_CAP,
                  seed: int = DEFAULT_SEED) -> LayerAnalysis:
    """Run the full topological analysis for one layer."""
    pair_table = barrier_sweep(layer, corpus)
    table = extend_triplets(layer, corpus, pair_table,
                            stage_a_candidates(pair_table, cap=cap, seed=seed))
    filtration = stage_b_filtration(table)
    k = filtration.chosen_complex
    if k.num_edges < layer.n * (layer.n - 1) // 2:
        logger.warning("chosen complex has %d of %d edges; expected the complete "
                       "edge set on planted layers", k.num_edges,
                       layer.n * (layer.n - 1) // 2)
    return LayerAnalysis(
        layer=layer, table=table, filtration=filtration,
        decomp=decompose(k, filtration.signal, pivots=filtration.pivots),
        sal=saliency(layer, corpus),
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
    costs = analysis.constant(
        ("redirect_costs", float(params.alpha).hex()),
        lambda: redirect_costs(analysis.filtration.chosen_complex, analysis.table,
                               analysis.decomp, params.alpha))
    return SurvivorPlan(
        n=analysis.layer.n, k=k, survivors=survivors, redirect=redirect(costs, survivors),
        method=method, phi=phi(inst, survivors), alpha=params.alpha, layer=layer_id,
    )


def coverage_for(analysis: LayerAnalysis,
                 params: SelectorParams = SelectorParams()) -> CoverageInstance:
    """The analysis's coverage instance under ``params``, built once per value
    of (p, q_t, lam_e, lam_t)."""
    # float.hex names every float exactly, and every nan alike
    key = ("coverage", *(float(v).hex() for v in (params.p, params.q_t, params.lam_e,
                                                   params.lam_t)))
    f = analysis.filtration
    return analysis.constant(key, lambda: build_coverage(
        f.chosen_complex, analysis.decomp, f.triangle_barriers,
        analysis.sal, p=params.p, q_t=params.q_t, lam_e=params.lam_e, lam_t=params.lam_t))


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
