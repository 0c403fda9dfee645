"""Survivor selection: coverage objective, greedy maximizer, redirect, ablations.

The selection objective over a candidate survivor set S is

    Phi(S) = sum_{i in S} sal(i)
           + lam_e * |covered critical edges| / |E*|
           + lam_t * |covered critical triangles| / |T*|

with the convention that an empty critical set contributes 0.  Phi is a
non-negative monotone submodular set function (a weighted sum of a modular
term and two maximum-coverage terms), so plain greedy selection carries the
(1 - (1 - 1/k)^k) approximation guarantee.  Coverage is set-valued: when
critical edges are shared between experts no per-expert score can express
it, which is what separates this selector from saliency-style rankings.

Dropped experts are redirected to the nearest survivor under the
Hodge-weighted barrier b_ij * (1 + alpha * |harm_ij| / ||b||): edges that
carry their own harmonic mass are penalized as redirect targets because
routing mass through them would re-introduce the covered obstruction.

Ablation selectors replace coverage with a greedy union-find merge sort
over ascending edge costs; they emit merge groups that the simulator
aggregates by frequency-weighted average instead of redirecting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .complexes import Complex2, UnionFind
from .hodge import HodgeDecomp
from .moe import BarrierTable, SaliencyVector, triplet_values

REDIRECT_GUARD = 1e-12
ABLATION_VARIANTS = ("greedy_barrier", "triplet_penalty", "triplet_hypergraph")


@dataclass(frozen=True, eq=False)
class CoverageInstance:
    """Critical simplices and per-expert incidence for one layer."""

    n: int
    crit_edges: frozenset[int]
    crit_triangles: frozenset[int]
    edge_incidence: tuple[frozenset[int], ...]
    tri_incidence: tuple[frozenset[int], ...]
    sal: np.ndarray
    lam_e: float
    lam_t: float


@dataclass(frozen=True, eq=False)
class SurvivorPlan:
    """Per-layer survivor set, redirect map, and provenance metadata.

    ``redirect`` is total on the dropped experts and always lands in the
    survivor set.  Union-find methods additionally record their merge
    groups (a partition of the experts, one group per survivor) plus the
    calibration routing weights needed to apply the group merges.
    """

    n: int
    k: int
    survivors: tuple[int, ...]
    redirect: Mapping[int, int]
    method: str
    phi: float | None = None
    alpha: float | None = None
    layer: int = 0
    merge_groups: tuple[tuple[int, ...], ...] | None = None
    merge_weights: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "survivors", tuple(int(i) for i in self.survivors))
        object.__setattr__(self, "redirect",
                           {int(a): int(b) for a, b in dict(self.redirect).items()})
        surv = set(self.survivors)
        if len(surv) != self.k or len(self.survivors) != self.k:
            raise ValueError(f"plan must have exactly k={self.k} distinct survivors")
        if surv and (min(surv) < 0 or max(surv) >= self.n):
            raise ValueError("survivors outside expert range")
        if set(self.redirect) != set(range(self.n)) - surv:
            raise ValueError("redirect map must cover exactly the dropped experts")
        if any(t not in surv for t in self.redirect.values()):
            raise ValueError("redirect target is not a survivor")
        if self.merge_groups is not None:
            flat = sorted(i for g in self.merge_groups for i in g)
            if flat != list(range(self.n)):
                raise ValueError("merge groups must partition the experts")
            if sorted(min(g) for g in self.merge_groups) != sorted(surv):
                raise ValueError("merge-group representatives must equal the survivors")

    def to_json(self) -> str:
        params = dict(self.params)
        params["alpha"] = self.alpha
        if self.merge_groups is not None:
            params["merge_groups"] = [list(g) for g in self.merge_groups]
            params["merge_weights"] = list(self.merge_weights or ())
        return json.dumps({
            "layer": self.layer,
            "n": self.n,
            "k": self.k,
            "survivors": list(self.survivors),
            "redirect": {str(a): b for a, b in self.redirect.items()},
            "method": self.method,
            "phi": self.phi,
            "params": params,
        })

    @classmethod
    def from_json(cls, text: str) -> "SurvivorPlan":
        doc = json.loads(text)
        params = dict(doc.get("params", {}))
        alpha = params.pop("alpha", None)
        groups = params.pop("merge_groups", None)
        weights = params.pop("merge_weights", None)
        return cls(
            n=doc["n"], k=doc["k"], survivors=tuple(doc["survivors"]),
            redirect={int(a): b for a, b in doc["redirect"].items()},
            method=doc["method"], phi=doc.get("phi"), alpha=alpha,
            layer=doc.get("layer", 0),
            merge_groups=tuple(tuple(g) for g in groups) if groups is not None else None,
            merge_weights=tuple(weights) if weights is not None else None,
            params=params,
        )


@dataclass(frozen=True, eq=False)
class LayerBudget:
    """Per-layer survivor counts realizing a global drop rate."""

    rate: float
    total_drops: int
    survivors: tuple[int, ...]
    drops: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps({"rate": self.rate, "total_drops": self.total_drops,
                           "survivors": list(self.survivors), "drops": list(self.drops)})


# ---------------------------------------------------------------------------
# Coverage objective


def build_coverage(k: Complex2, decomp: HodgeDecomp, barriers: BarrierTable,
                   sal: SaliencyVector, *, p: float = 20.0, q_t: float = 20.0,
                   lam_e: float = 1.0, lam_t: float = 0.5) -> CoverageInstance:
    """Extract the critical simplices and incidence maps for one layer.

    Critical edges are the top-p% of the complex's edges ranked by absolute
    harmonic coefficient; critical triangles are the top-q_t% of its
    triangles ranked by raw triplet barrier.  Cardinalities round up; ties
    break toward the lexicographically earlier simplex (the simplex lists
    are lex-sorted and the ranking sort is stable).
    """
    if not (0.0 <= p <= 100.0 and 0.0 <= q_t <= 100.0):
        raise ValueError("p and q_t are percentages in [0, 100]")
    if not (lam_e >= 0.0 and lam_t >= 0.0):  # a nan weight would stall greedy_select
        raise ValueError("coverage weights must be non-negative")

    n_edges = k.num_edges
    n_crit_e = math.ceil(p / 100.0 * n_edges) if n_edges else 0
    harm = np.abs(decomp.harm.values)
    crit_edges = frozenset(int(e) for e in np.argsort(-harm, kind="stable")[:n_crit_e])

    n_tris = k.num_triangles
    n_crit_t = math.ceil(q_t / 100.0 * n_tris) if n_tris else 0
    tri_vals = np.abs(triplet_values(barriers.triplet, k.triangles))
    crit_tris = frozenset(int(t) for t in np.argsort(-tri_vals, kind="stable")[:n_crit_t])

    edge_inc = [set() for _ in range(k.n)]
    for e in crit_edges:
        for v in k.edges[e]:
            edge_inc[int(v)].add(e)
    tri_inc = [set() for _ in range(k.n)]
    for t in crit_tris:
        for v in k.triangles[t]:
            tri_inc[int(v)].add(t)

    return CoverageInstance(
        n=k.n,
        crit_edges=crit_edges,
        crit_triangles=crit_tris,
        edge_incidence=tuple(frozenset(s) for s in edge_inc),
        tri_incidence=tuple(frozenset(s) for s in tri_inc),
        sal=np.asarray(sal.values, dtype=np.float64),
        lam_e=float(lam_e),
        lam_t=float(lam_t),
    )


def phi(inst: CoverageInstance, s: Iterable[int]) -> float:
    """The selection objective: saliency sum plus normalized coverage."""
    s = set(s)
    value = float(inst.sal[sorted(s)].sum()) if s else 0.0
    if inst.crit_edges:
        covered = set().union(*(inst.edge_incidence[i] for i in s)) if s else set()
        value += inst.lam_e * len(covered) / len(inst.crit_edges)
    if inst.crit_triangles:
        covered = set().union(*(inst.tri_incidence[i] for i in s)) if s else set()
        value += inst.lam_t * len(covered) / len(inst.crit_triangles)
    return value


def marginal_gain(inst: CoverageInstance, i: int, covered_e: set[int],
                  covered_t: set[int]) -> float:
    """Gain of adding expert i given the currently covered critical sets."""
    gain = float(inst.sal[i])
    if inst.crit_edges:
        gain += inst.lam_e * len(inst.edge_incidence[i] - covered_e) / len(inst.crit_edges)
    if inst.crit_triangles:
        gain += inst.lam_t * len(inst.tri_incidence[i] - covered_t) / len(inst.crit_triangles)
    return gain


def greedy_select(inst: CoverageInstance, k: int,
                  protected: Iterable[int] = ()) -> tuple[int, ...]:
    """Greedy maximization of the coverage objective to exactly k survivors.

    Starts from the protected set, repeatedly adds the expert with the
    largest marginal gain, ties to the lowest index.  With an empty
    protected set the result carries the (1 - (1 - 1/k)^k) guarantee.
    """
    selected = sorted(set(int(i) for i in protected))
    if any(i < 0 or i >= inst.n for i in selected):
        raise ValueError("protected expert outside range")
    if not (len(selected) <= k <= inst.n):
        raise ValueError(f"need |protected| <= k <= n, got k={k}")
    chosen = set(selected)
    covered_e: set[int] = set().union(*(inst.edge_incidence[i] for i in chosen)) if chosen else set()
    covered_t: set[int] = set().union(*(inst.tri_incidence[i] for i in chosen)) if chosen else set()
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
    """Map each dropped expert to its nearest survivor under the
    Hodge-weighted barrier, ties to the lowest survivor index."""
    surv = sorted(set(int(j) for j in survivors))
    if not surv:
        raise ValueError("survivor set is empty")
    signal = barriers.pairwise[k.edges[:, 0], k.edges[:, 1]]
    b_norm = float(np.linalg.norm(signal))
    harm = np.zeros((barriers.n, barriers.n))  # |harm| on edges, 0 off the complex
    harm[k.edges[:, 0], k.edges[:, 1]] = np.abs(decomp.harm.values)
    cost = barriers.pairwise * (1.0 + alpha * (harm + harm.T) / max(b_norm, REDIRECT_GUARD))
    dropped = [i for i in range(barriers.n) if i not in surv]
    best = np.argmin(cost[np.array(dropped, dtype=np.int64)][:, surv], axis=1)  # first minimum
    return dict(zip(dropped, (surv[j] for j in best.tolist())))


def select_random(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Uniform-random survivor set, the paired baseline for benchmarks."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))


# ---------------------------------------------------------------------------
# Union-find ablation selectors


def _edge_order(costs: np.ndarray) -> list[tuple[int, int]]:
    n = costs.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda e: (costs[e[0], e[1]], e[0], e[1]))
    return pairs


def _triplet_penalty_costs(barriers: BarrierTable, alpha_t: float) -> np.ndarray:
    """Edge costs b_ij * (1 + alpha_t * mean incident triplet barrier),
    the mean normalized by the layer's maximum triplet barrier."""
    n = barriers.n
    acc = np.zeros((n, n))
    cnt = np.zeros((n, n))
    for (i, j, k), val in barriers.triplet.items():
        for a, b in ((i, j), (i, k), (j, k)):
            acc[a, b] += val
            cnt[a, b] += 1
    top = max(barriers.triplet.values()) if barriers.triplet else 0.0
    with np.errstate(invalid="ignore"):
        mean = np.where(cnt > 0, acc / np.maximum(cnt, 1), 0.0)
    norm = mean / top if top > 0 else np.zeros_like(mean)
    norm = norm + norm.T
    return barriers.pairwise * (1.0 + alpha_t * norm)


def _unionfind_plan(barriers: BarrierTable, k: int, costs: np.ndarray,
                    method: str, *, veto_tau: float | None = None,
                    layer: int = 0, params: dict | None = None) -> SurvivorPlan:
    n = barriers.n
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    uf = UnionFind(n)
    order = _edge_order(costs)
    high_triples = [(frozenset(t), v) for t, v in barriers.triplet.items()
                    if veto_tau is not None and v > veto_tau]
    rejected: list[tuple[int, int]] = []

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
            rejected.append((a, b))
            continue
        uf.union(a, b)

    forced = 0
    if uf.components > k:
        # veto made the budget unreachable; finish by ascending cost, veto off
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
        merge_weights=tuple(float(v) for v in barriers.routing_freq),
        params=extra,
    )


def select_ablation(variant: str, barriers: BarrierTable, k: int, *,
                    alpha_t: float = 1.0, layer: int = 0) -> SurvivorPlan:
    """One of the three union-find merge sorts over ascending edge cost.

    They emit merge groups rather than redirects.  The fourth matched
    ablation, ``no_triangle``, is coverage selection with the triangle
    weight zeroed (see :func:`hodgecover.pipeline.plan_layer`).
    """
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    if variant == "greedy_barrier":
        return _unionfind_plan(barriers, k, barriers.pairwise, variant, layer=layer)
    if variant == "triplet_penalty":
        costs = _triplet_penalty_costs(barriers, alpha_t)
        return _unionfind_plan(barriers, k, costs, variant, layer=layer,
                               params={"alpha_t": alpha_t})
    tau_t = float(np.percentile(list(barriers.triplet.values()), 50)) \
        if barriers.triplet else np.inf
    return _unionfind_plan(barriers, k, barriers.pairwise, variant,
                           veto_tau=tau_t, layer=layer)


# ---------------------------------------------------------------------------
# Cross-layer budget allocation


def _clamped_budget(rate: float, sizes: Sequence[int], drops: list[int],
                    total: int) -> LayerBudget:
    """Clamp drops to the one-survivor floor, refilling any clamped excess
    into the lowest-index layers that still have capacity."""
    sizes = [int(s) for s in sizes]
    capacity = [s - 1 for s in sizes]
    if total > sum(capacity):
        raise ValueError(
            f"budget {total} exceeds droppable experts {sum(capacity)} under the one-survivor floor")
    clamped = [min(d, c) for d, c in zip(drops, capacity)]
    excess = total - sum(clamped)
    for idx in range(len(sizes)):
        if excess == 0:
            break
        room = capacity[idx] - clamped[idx]
        take = min(room, excess)
        clamped[idx] += take
        excess -= take
    survivors = tuple(s - d for s, d in zip(sizes, clamped))
    return LayerBudget(rate=rate, total_drops=total, survivors=survivors,
                       drops=tuple(clamped))


def allocate_uniform(rate: float, sizes: Sequence[int]) -> LayerBudget:
    """Drop the same count per layer up to a one-expert rounding remainder
    handed to the lowest-index layers."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    total = int(math.floor(rate * sum(sizes)))
    layers = len(sizes)
    base, rem = divmod(total, layers)
    drops = [base + (1 if idx < rem else 0) for idx in range(layers)]
    return _clamped_budget(rate, sizes, drops, total)


def allocate_weighted(rate: float, sizes: Sequence[int],
                      rho_harm: Sequence[float], *, eps0: float = 1e-12) -> LayerBudget:
    """Weight the drop budget by per-layer compressibility max(1 - rho_harm, eps0);
    layers with more harmonic mass shed fewer experts."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if len(rho_harm) != len(sizes):
        raise ValueError("need one rho_harm per layer")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    total = int(math.floor(rate * sum(sizes)))
    sigma = np.maximum(1.0 - np.asarray(rho_harm, dtype=np.float64), eps0)
    drops = [int(math.floor(total * s / sigma.sum())) for s in sigma]
    deficit = total - sum(drops)
    for idx in range(deficit):
        drops[idx] += 1
    return _clamped_budget(rate, sizes, drops, total)
