"""The set-based selector and the dict-keyed triplet lookup, kept as the oracle.

``hodgecover.selector`` and ``hodgecover.moe.BarrierTable`` compute coverage,
greedy picks, redirects, union-find merges and triplet lookups on arrays.
This module is the code they replaced: per-expert frozensets, a Python loop
over experts for each greedy pick, a tuple-keyed triplet dict and a
union-find whose veto builds a set of the merged experts.  The equivalence
tests hold the array code to it, plan for plan and bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from hodgecover.complexes import Complex2, UnionFind
from hodgecover.hodge import HodgeDecomp
from hodgecover.moe import BarrierTable, SaliencyVector
from hodgecover.pipeline import REDIRECT_METHODS, LayerAnalysis, SelectorParams
from hodgecover.selector import REDIRECT_GUARD, SurvivorPlan, select_random

Triplets = Mapping[tuple[int, int, int], float]


def triplet_dict(table: BarrierTable) -> dict[tuple[int, int, int], float]:
    """The table's triplet barriers keyed by vertex triple, in table order."""
    return dict(zip(map(tuple, table.triples.tolist()), table.triplet.tolist()))


def table_from_dict(pairwise, triplet: Triplets, routing_freq) -> BarrierTable:
    """A barrier table holding the barriers of a triple-keyed dict."""
    keys = sorted(triplet)
    return BarrierTable(pairwise, routing_freq, np.array(keys, dtype=np.int64).reshape(-1, 3),
                        [triplet[t] for t in keys])


def triplet_values(triplet: Triplets, triangles: np.ndarray) -> np.ndarray:
    """The triplet barriers of the (m, 3) sorted vertex triples, in row order."""
    rows = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).tolist()
    try:
        return np.array([triplet[t] for t in map(tuple, rows)], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"triplet barrier missing for candidate {exc.args[0]}") from None


@dataclass(frozen=True, eq=False)
class SetCoverage:
    """Critical simplices and per-expert incidence sets for one layer."""

    n: int
    crit_edges: frozenset[int]
    crit_triangles: frozenset[int]
    edge_incidence: tuple[frozenset[int], ...]
    tri_incidence: tuple[frozenset[int], ...]
    sal: np.ndarray
    lam_e: float
    lam_t: float


def build_coverage(k: Complex2, decomp: HodgeDecomp, triplet: Triplets,
                   sal: SaliencyVector, *, p: float = 20.0, q_t: float = 20.0,
                   lam_e: float = 1.0, lam_t: float = 0.5) -> SetCoverage:
    n_edges = k.num_edges
    n_crit_e = math.ceil(p / 100.0 * n_edges) if n_edges else 0
    harm = np.abs(decomp.harm.values)
    crit_edges = frozenset(int(e) for e in np.argsort(-harm, kind="stable")[:n_crit_e])

    n_tris = k.num_triangles
    n_crit_t = math.ceil(q_t / 100.0 * n_tris) if n_tris else 0
    tri_vals = np.abs(triplet_values(triplet, k.triangles))
    crit_tris = frozenset(int(t) for t in np.argsort(-tri_vals, kind="stable")[:n_crit_t])

    edge_inc = [set() for _ in range(k.n)]
    for e in crit_edges:
        for v in k.edges[e]:
            edge_inc[int(v)].add(e)
    tri_inc = [set() for _ in range(k.n)]
    for t in crit_tris:
        for v in k.triangles[t]:
            tri_inc[int(v)].add(t)

    return SetCoverage(
        n=k.n, crit_edges=crit_edges, crit_triangles=crit_tris,
        edge_incidence=tuple(frozenset(s) for s in edge_inc),
        tri_incidence=tuple(frozenset(s) for s in tri_inc),
        sal=np.asarray(sal.values, dtype=np.float64), lam_e=float(lam_e), lam_t=float(lam_t),
    )


def phi(inst: SetCoverage, s: Iterable[int]) -> float:
    s = set(s)
    value = float(inst.sal[sorted(s)].sum()) if s else 0.0
    if inst.crit_edges:
        covered = set().union(*(inst.edge_incidence[i] for i in s)) if s else set()
        value += inst.lam_e * len(covered) / len(inst.crit_edges)
    if inst.crit_triangles:
        covered = set().union(*(inst.tri_incidence[i] for i in s)) if s else set()
        value += inst.lam_t * len(covered) / len(inst.crit_triangles)
    return value


def marginal_gain(inst: SetCoverage, i: int, covered_e: set[int],
                  covered_t: set[int]) -> float:
    gain = float(inst.sal[i])
    if inst.crit_edges:
        gain += inst.lam_e * len(inst.edge_incidence[i] - covered_e) / len(inst.crit_edges)
    if inst.crit_triangles:
        gain += inst.lam_t * len(inst.tri_incidence[i] - covered_t) / len(inst.crit_triangles)
    return gain


def greedy_select(inst: SetCoverage, k: int) -> tuple[int, ...]:
    chosen: set[int] = set()
    covered_e: set[int] = set()
    covered_t: set[int] = set()
    while len(chosen) < k:
        best_i, best_gain = -1, -np.inf
        for i in range(inst.n):
            if i in chosen:
                continue
            gain = marginal_gain(inst, i, covered_e, covered_t)
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.add(best_i)
        covered_e |= inst.edge_incidence[best_i]
        covered_t |= inst.tri_incidence[best_i]
    return tuple(sorted(chosen))


def redirect(k: Complex2, barriers: BarrierTable, decomp: HodgeDecomp,
             survivors: Sequence[int], alpha: float = 3.0) -> dict[int, int]:
    surv = sorted(set(int(j) for j in survivors))
    signal = barriers.pairwise[k.edges[:, 0], k.edges[:, 1]]
    b_norm = float(np.linalg.norm(signal))
    harm = np.zeros((barriers.n, barriers.n))
    harm[k.edges[:, 0], k.edges[:, 1]] = np.abs(decomp.harm.values)
    cost = barriers.pairwise * (1.0 + alpha * (harm + harm.T) / max(b_norm, REDIRECT_GUARD))
    dropped = [i for i in range(barriers.n) if i not in surv]
    best = np.argmin(cost[np.array(dropped, dtype=np.int64)][:, surv], axis=1)
    return dict(zip(dropped, (surv[j] for j in best.tolist())))


def _edge_order(costs: np.ndarray) -> list[tuple[int, int]]:
    n = costs.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda e: (costs[e[0], e[1]], e[0], e[1]))
    return pairs


def _triplet_penalty_costs(barriers: BarrierTable, triplet: Triplets,
                           alpha_t: float) -> np.ndarray:
    n = barriers.n
    acc = np.zeros((n, n))
    cnt = np.zeros((n, n))
    for (i, j, k), val in triplet.items():
        for a, b in ((i, j), (i, k), (j, k)):
            acc[a, b] += val
            cnt[a, b] += 1
    top = max(triplet.values()) if triplet else 0.0
    with np.errstate(invalid="ignore"):
        mean = np.where(cnt > 0, acc / np.maximum(cnt, 1), 0.0)
    norm = mean / top if top > 0 else np.zeros_like(mean)
    norm = norm + norm.T
    return barriers.pairwise * (1.0 + alpha_t * norm)


def _unionfind_plan(barriers: BarrierTable, triplet: Triplets, k: int, costs: np.ndarray,
                    method: str, *, veto_tau: float | None = None,
                    layer: int = 0, params: dict | None = None) -> SurvivorPlan:
    n = barriers.n
    uf = UnionFind(n)
    order = _edge_order(costs)
    high_triples = [(frozenset(t), v) for t, v in triplet.items()
                    if veto_tau is not None and v > veto_tau]

    def violates(a: int, b: int) -> bool:
        if veto_tau is None:
            return False
        merged = {x for x in range(n) if uf.find(x) in (uf.find(a), uf.find(b))}
        if len(merged) < 3:
            return False
        return any(t <= merged for t, _ in high_triples)

    for a, b in order:
        if uf.components == k:
            break
        if uf.find(a) == uf.find(b):
            continue
        if violates(a, b):
            continue
        uf.union(a, b)

    forced = 0
    if uf.components > k:
        for a, b in order:
            if uf.components == k:
                break
            if uf.union(a, b):
                forced += 1

    groups = [tuple(g) for g in uf.groups()]
    survivors = tuple(min(g) for g in groups)
    redirect_map = {i: min(g) for g in groups for i in g if i != min(g)}
    extra = dict(params or {})
    if veto_tau is not None:
        extra.update(veto_tau=veto_tau, forced_merges=forced)
    return SurvivorPlan(
        n=n, k=k, survivors=survivors, redirect=redirect_map, method=method,
        layer=layer, merge_groups=tuple(groups),
        merge_weights=tuple(float(v) for v in barriers.routing_freq), params=extra,
    )


def plan_layer(analysis: LayerAnalysis, k: int, method: str,
               params: SelectorParams = SelectorParams(), *,
               layer_id: int = 0, seed: int = 0) -> SurvivorPlan:
    """``hodgecover.pipeline.plan_layer`` over the set-based pieces above."""
    table = analysis.table
    triplet = triplet_dict(table)
    if method == "greedy_barrier":
        return _unionfind_plan(table, triplet, k, table.pairwise, method, layer=layer_id)
    if method == "triplet_penalty":
        return _unionfind_plan(table, triplet, k,
                               _triplet_penalty_costs(table, triplet, params.alpha_t),
                               method, layer=layer_id, params={"alpha_t": params.alpha_t})
    if method == "triplet_hypergraph":
        tau_t = float(np.percentile(list(triplet.values()), 50)) if triplet else np.inf
        return _unionfind_plan(table, triplet, k, table.pairwise, method,
                               veto_tau=tau_t, layer=layer_id)
    assert method in REDIRECT_METHODS
    if method == "no_triangle":
        params = dataclasses.replace(params, lam_t=0.0)
    inst = build_coverage(analysis.complex, analysis.decomp, triplet, analysis.sal,
                          p=params.p, q_t=params.q_t, lam_e=params.lam_e, lam_t=params.lam_t)
    survivors = select_random(analysis.layer.n, k, seed) if method == "random" \
        else greedy_select(inst, k)
    return SurvivorPlan(
        n=analysis.layer.n, k=k, survivors=survivors,
        redirect=redirect(analysis.complex, table, analysis.decomp, survivors, params.alpha),
        method=method, phi=phi(inst, survivors), alpha=params.alpha, layer=layer_id,
    )
