"""Survivor selection: coverage objective, greedy maximizer, redirect, ablations.

The selection objective over a candidate survivor set S is

    Phi(S) = sum_{i in S} sal(i)
           + lam_e * |covered critical edges| / |E*|
           + lam_t * |covered critical triangles| / |T*|

with the convention that an empty critical set contributes 0.  Phi is a
non-negative monotone submodular set function (a weighted sum of a modular
term and two maximum-coverage terms), so plain greedy selection carries the
(1 - (1 - 1/k)^k) approximation guarantee.  Coverage counts the union of
the chosen experts' critical simplices: when critical edges are shared
between experts no per-expert score can express it, which is what separates
this selector from saliency-style rankings.

Dropped experts are redirected to the nearest survivor under the
Hodge-weighted barrier b_ij * (1 + alpha * |harm_ij| / ||b||): edges that
carry their own harmonic mass are penalized as redirect targets because
routing mass through them would re-introduce the covered obstruction.

Ablation selectors replace coverage with a greedy union-find merge sort
over ascending edge costs; the simulator merges each survivor's group
(the survivor and the experts redirected to it) by frequency-weighted
average instead of redirecting.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .complexes import Complex2
from .hodge import HodgeDecomp
from .moe import BarrierTable, read_only

REDIRECT_GUARD = 1e-12
SIGMA_FLOOR = 1e-12   # a layer's least compressibility in allocate_weighted
ABLATION_VARIANTS = ("greedy_barrier", "triplet_penalty", "triplet_hypergraph")


@dataclass(frozen=True, eq=False)
class CoverageInstance:
    """Critical simplices and per-expert incidence for one layer.

    ``crit_edges`` and ``crit_triangles`` index the complex's edges and
    triangles.  ``edge_incidence`` is the (n, |E*|) boolean matrix whose entry
    (i, c) is true when expert i is a vertex of critical edge ``crit_edges[c]``,
    and ``tri_incidence`` the (n, |T*|) one of the critical triangles.  A set
    of experts covers the columns where any of its rows is true.
    """

    crit_edges: np.ndarray
    crit_triangles: np.ndarray
    edge_incidence: np.ndarray
    tri_incidence: np.ndarray
    sal: np.ndarray
    lam_e: float
    lam_t: float

    @property
    def n(self) -> int:
        return len(self.sal)

    def coverage_terms(self) -> list[tuple[np.ndarray, float]]:
        """(incidence, weight) of each coverage term whose critical set is non-empty."""
        return [(inc, lam) for inc, lam in ((self.edge_incidence, self.lam_e),
                                            (self.tri_incidence, self.lam_t)) if inc.shape[1]]

    @cached_property
    def _greedy(self) -> "_LazySequence":
        """The greedy picks, made as far as they have been asked for."""
        # the run is handed the arrays, not the instance: no reference cycle
        # keeps a dropped instance alive until the garbage collector runs
        return _LazySequence(_greedy_picks(self.sal, self.coverage_terms()))


class _LazySequence:
    """The items of an iterator, each made once, as far as they are asked for."""

    def __init__(self, items: Iterator):
        self._made: list = []
        self._rest = items

    def first(self, m: int) -> list:
        """The first m items (all of them, if there are fewer)."""
        self._made.extend(itertools.islice(self._rest, max(0, m - len(self._made))))
        return self._made[:m]


@dataclass(frozen=True, eq=False)
class SurvivorPlan:
    """Per-layer survivor set, redirect map, and provenance metadata.

    ``redirect`` is total on the dropped experts and always lands in the
    survivor set, so it is the plan's one partition of the experts: see
    :attr:`groups`.  Union-find methods additionally record the calibration
    routing weights that merge each group into one expert.
    """

    n: int
    k: int
    survivors: tuple[int, ...]
    redirect: Mapping[int, int]
    method: str
    phi: float | None = None
    alpha: float | None = None
    layer: int = 0
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

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Each survivor followed by the experts redirected to it, in
        ``redirect`` order: the source experts of each compressed expert."""
        return tuple((j, *(i for i, t in self.redirect.items() if t == j))
                     for j in self.survivors)

    @property
    def merge_groups(self) -> tuple[tuple[int, ...], ...] | None:
        """:attr:`groups` for a plan that merges them, else None."""
        return self.groups if self.merge_weights is not None else None

    def to_json(self) -> str:
        params = dict(self.params)
        params["alpha"] = self.alpha
        if self.merge_weights is not None:
            params["merge_groups"] = [list(g) for g in self.groups]
            params["merge_weights"] = list(self.merge_weights)
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
        plan = cls(
            n=doc["n"], k=doc["k"], survivors=tuple(doc["survivors"]),
            redirect={int(a): b for a, b in doc["redirect"].items()},
            method=doc["method"], phi=doc.get("phi"), alpha=alpha,
            layer=doc.get("layer", 0),
            merge_weights=tuple(weights) if weights is not None else None,
            params=params,
        )
        # the groups are written for readers; the redirect map is the partition
        if groups != (None if weights is None else [list(g) for g in plan.groups]):
            raise ValueError("merge groups disagree with the survivors and redirects")
        return plan


@dataclass(frozen=True, eq=False)
class LayerBudget:
    """Per-layer survivor counts realizing a global drop rate."""

    rate: float
    total_drops: int
    survivors: tuple[int, ...]
    drops: tuple[int, ...]


# ---------------------------------------------------------------------------
# Coverage objective


def build_coverage(k: Complex2, decomp: HodgeDecomp, barriers: BarrierTable,
                   sal: np.ndarray, *, p: float = 20.0, q_t: float = 20.0,
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

    crit_edges = np.argsort(-np.abs(decomp.harm.values), kind="stable")
    crit_edges = crit_edges[:math.ceil(p / 100.0 * k.num_edges)]
    crit_tris = np.argsort(-np.abs(barriers.triplet_values(k.triangles)), kind="stable")
    crit_tris = crit_tris[:math.ceil(q_t / 100.0 * k.num_triangles)]
    # read-only: an analysis keeps the instance, and its greedy picks, for every plan
    return CoverageInstance(
        crit_edges=read_only(crit_edges),
        crit_triangles=read_only(crit_tris),
        edge_incidence=read_only(_incidence(k.n, k.edges[crit_edges])),
        tri_incidence=read_only(_incidence(k.n, k.triangles[crit_tris])),
        sal=read_only(np.array(sal, dtype=np.float64)),
        lam_e=float(lam_e),
        lam_t=float(lam_t),
    )


def _incidence(n: int, simplices: np.ndarray) -> np.ndarray:
    """(n, m) boolean matrix: entry (i, c) is true when vertex i lies in simplex c."""
    inc = np.zeros((n, len(simplices)), dtype=bool)
    inc[simplices, np.arange(len(simplices))[:, None]] = True
    return inc


def phi(inst: CoverageInstance, s: Iterable[int]) -> float:
    """The selection objective: saliency sum plus normalized coverage."""
    member = np.zeros(inst.n, dtype=bool)
    member[np.fromiter(s, dtype=np.int64)] = True
    value = float(inst.sal[member].sum())
    for inc, lam in inst.coverage_terms():
        value += lam * np.count_nonzero(inc[member].any(axis=0)) / inc.shape[1]
    return value


def greedy_select(inst: CoverageInstance, k: int) -> tuple[int, ...]:
    """Greedy maximization of the coverage objective to exactly k survivors.

    Each pick adds the expert with the largest marginal gain, ties to the
    lowest index, so the result carries the (1 - (1 - 1/k)^k) guarantee.
    No pick depends on k, so the survivors for k are the first k picks of
    one sequence, sorted.  The instance keeps the picks made so far, and a
    call makes only those beyond the largest k asked for before.
    """
    if not (0 <= k <= inst.n):
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    return tuple(sorted(inst._greedy.first(k)))


def _greedy_picks(sal: np.ndarray,
                  coverage_terms: list[tuple[np.ndarray, float]]) -> Iterator[int]:
    """The greedy picks, in order, until every expert is picked."""
    # (incidence, weight, uncovered columns) as floats: one product counts a term
    terms = [(inc.astype(np.float64), lam, np.ones(inc.shape[1]))
             for inc, lam in coverage_terms]
    score = sal.copy()  # -inf once chosen
    for _ in range(len(sal)):
        gain = score
        for inc, lam, uncovered in terms:
            gain = gain + lam * (inc @ uncovered) / len(uncovered)
        best = int(gain.argmax())  # the first maximum
        yield best
        score[best] = -np.inf
        for inc, _, uncovered in terms:
            uncovered[inc[best] > 0] = 0.0


def redirect_costs(k: Complex2, barriers: BarrierTable, decomp: HodgeDecomp,
                   alpha: float = 3.0) -> np.ndarray:
    """(n, n) Hodge-weighted redirect costs b_ij * (1 + alpha * |harm_ij| / ||b||),
    with |harm| 0 off the complex; read-only, as an analysis keeps them."""
    signal = barriers.pairwise[k.edges[:, 0], k.edges[:, 1]]
    b_norm = float(np.linalg.norm(signal))
    harm = np.zeros((barriers.n, barriers.n))  # |harm| on edges, 0 off the complex
    harm[k.edges[:, 0], k.edges[:, 1]] = np.abs(decomp.harm.values)
    return read_only(barriers.pairwise
                     * (1.0 + alpha * (harm + harm.T) / max(b_norm, REDIRECT_GUARD)))


def redirect(costs: np.ndarray, survivors: Sequence[int]) -> dict[int, int]:
    """Map each dropped expert to its nearest survivor under ``costs`` (see
    :func:`redirect_costs`), ties to the lowest survivor index."""
    kept = np.zeros(costs.shape[0], dtype=bool)
    kept[np.asarray(survivors, dtype=np.int64)] = True
    if not kept.any():
        raise ValueError("survivor set is empty")
    surv, dropped = np.flatnonzero(kept), np.flatnonzero(~kept)
    best = costs[dropped][:, surv].argmin(axis=1)  # first minimum
    return dict(zip(dropped.tolist(), surv[best].tolist()))


def select_random(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Uniform-random survivor set, the paired baseline for benchmarks."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    rng = np.random.default_rng(seed)
    return tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))


# ---------------------------------------------------------------------------
# Union-find ablation selectors


def _edge_order(costs: np.ndarray) -> np.ndarray:
    """Pairs (i, j), i < j, by ascending cost, ties in (lexicographic) ``triu`` order."""
    i, j = np.triu_indices(costs.shape[0], k=1)
    order = np.argsort(costs[i, j], kind="stable")
    return read_only(np.column_stack([i[order], j[order]]))


def _triplet_penalty_costs(barriers: BarrierTable, alpha_t: float) -> np.ndarray:
    """Edge costs b_ij * (1 + alpha_t * mean incident triplet barrier),
    the mean normalized by the layer's maximum triplet barrier."""
    n, t, vals = barriers.n, barriers.triples, barriers.triplet
    # each triple's pairs (i, j), (i, k), (j, k), summed in table order
    cells = (t[:, [0, 0, 1]].ravel(), t[:, [1, 2, 2]].ravel())
    acc = np.zeros((n, n))
    cnt = np.zeros((n, n))
    np.add.at(acc, cells, np.repeat(vals, 3))
    np.add.at(cnt, cells, 1.0)
    top = float(vals.max()) if len(vals) else 0.0
    with np.errstate(invalid="ignore"):
        mean = np.where(cnt > 0, acc / np.maximum(cnt, 1), 0.0)
    norm = mean / top if top > 0 else np.zeros_like(mean)
    norm = norm + norm.T
    return barriers.pairwise * (1.0 + alpha_t * norm)


def _merges(n: int, pairs: np.ndarray,
            veto: np.ndarray | None = None) -> Iterator[tuple[int, int, bool]]:
    """The merges of a union-find run along ``pairs``, in order, down to one group.

    Groups are named by their lowest member.  A pass merges the groups of
    each pair in order, skipping a merge that would put all three vertices
    of a ``veto`` row in one group; a second pass, with the veto off,
    finishes by ascending cost.  Each merge is (kept, absorbed, forced):
    the two group names and whether the second pass made it.  A run that
    stops at k groups makes the first n - k of these merges: up to that
    point it takes the same decisions on the same groups.
    """
    label = np.arange(n)
    groups = n
    for rows in (veto, None) if veto is not None else (None,):
        for a, b in pairs.tolist():
            if groups == 1:
                return
            ra, rb = label[a], label[b]
            if ra == rb:
                continue
            if rows is not None and (((label == ra) | (label == rb))[rows].all(axis=1)).any():
                continue
            lo, hi = int(min(ra, rb)), int(max(ra, rb))
            label[label == hi] = lo
            groups -= 1
            yield lo, hi, veto is not None and rows is None


def _median_veto(barriers: BarrierTable) -> tuple[float, np.ndarray]:
    """The hypergraph veto: tau_t, the median triplet barrier, and the triples above it."""
    tau_t = float(np.percentile(barriers.triplet, 50)) if len(barriers.triplet) else np.inf
    return tau_t, read_only(barriers.triples[barriers.triplet > tau_t])


def _unionfind_plan(barriers: BarrierTable, k: int, merges: _LazySequence,
                    method: str, *, veto_tau: float | None = None, layer: int = 0,
                    params: dict | None = None) -> SurvivorPlan:
    """The plan of the first n - k of ``merges`` (of :func:`_merges`);
    ``veto_tau`` is the veto's tau_t, if the run had one."""
    n = barriers.n
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    label = np.arange(n)
    forced = 0
    for lo, hi, by_force in merges.first(n - k):
        label[label == hi] = lo
        forced += by_force

    # a group is named by its lowest member, its survivor; the redirects go
    # group by group, as the plan's JSON lists them
    lab = label.tolist()
    extra = dict(params or {})
    if veto_tau is not None:
        extra.update(veto_tau=veto_tau, forced_merges=forced)
    return SurvivorPlan(
        n=n, k=k, survivors=tuple(sorted(set(lab))), method=method,
        redirect={i: lab[i] for i in np.argsort(label, kind="stable").tolist() if lab[i] != i},
        layer=layer, merge_weights=tuple(float(v) for v in barriers.routing_freq),
        params=extra,
    )


def select_ablation(variant: str, barriers: BarrierTable, k: int, *,
                    alpha_t: float = 1.0, layer: int = 0) -> SurvivorPlan:
    """One of the three union-find merge sorts over ascending edge cost.

    Their plans merge each group rather than redirect.  The fourth matched
    ablation, ``no_triangle``, is coverage selection with the triangle
    weight zeroed (see :func:`hodgecover.pipeline.plan_layer`).  The merge
    orders, the veto and each variant's merges depend on the table (and
    ``alpha_t``) alone, so the table keeps them across calls: the merges as
    far as a plan has asked for them, and the plan for k replays the first
    n - k.
    """
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    n = barriers.n
    if variant == "triplet_penalty":
        # float.hex names every float exactly, and every nan alike
        key = ("penalty_order", float(alpha_t).hex())
        pairs = barriers.constant(
            key, lambda: _edge_order(_triplet_penalty_costs(barriers, alpha_t)))
        merges = barriers.constant(("merges", *key), lambda: _LazySequence(_merges(n, pairs)))
        return _unionfind_plan(barriers, k, merges, variant, layer=layer,
                               params={"alpha_t": alpha_t})
    pairs = barriers.constant("pair_order", lambda: _edge_order(barriers.pairwise))
    if variant == "greedy_barrier":
        merges = barriers.constant(("merges", "pair_order"),
                                   lambda: _LazySequence(_merges(n, pairs)))
        return _unionfind_plan(barriers, k, merges, variant, layer=layer)
    tau_t, veto = barriers.constant("median_veto", lambda: _median_veto(barriers))
    merges = barriers.constant(("merges", "median_veto"),
                               lambda: _LazySequence(_merges(n, pairs, veto)))
    return _unionfind_plan(barriers, k, merges, variant, veto_tau=tau_t, layer=layer)


# ---------------------------------------------------------------------------
# Cross-layer budget allocation


def allocate_uniform(rate: float, sizes: Sequence[int]) -> LayerBudget:
    """Drop the same count per layer up to a one-expert rounding remainder
    handed to the lowest-index layers: :func:`allocate_weighted` at equal mass."""
    return allocate_weighted(rate, sizes, [0.0] * len(sizes))


def allocate_weighted(rate: float, sizes: Sequence[int], rho_harm: Sequence[float]) -> LayerBudget:
    """Weight the drop budget by per-layer compressibility max(1 - rho_harm, SIGMA_FLOOR);
    layers with more harmonic mass shed fewer experts.  Drops are then clamped to
    the one-survivor floor, and any clamped excess is refilled into the
    lowest-index layers that still have capacity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if len(rho_harm) != len(sizes):
        raise ValueError("need one rho_harm per layer")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    total = int(math.floor(rate * sum(sizes)))
    sigma = np.maximum(1.0 - np.asarray(rho_harm, dtype=np.float64), SIGMA_FLOOR)
    drops = [int(math.floor(total * s / sigma.sum())) for s in sigma]
    for idx in range(total - sum(drops)):
        drops[idx] += 1
    sizes = [int(s) for s in sizes]
    capacity = [s - 1 for s in sizes]
    if total > sum(capacity):
        raise ValueError(
            f"budget {total} exceeds droppable experts {sum(capacity)} under the one-survivor floor")
    drops = [min(d, c) for d, c in zip(drops, capacity)]
    excess = total - sum(drops)
    for idx in range(len(sizes)):
        take = min(capacity[idx] - drops[idx], excess)
        drops[idx] += take
        excess -= take
    return LayerBudget(rate=rate, total_drops=total,
                       survivors=tuple(s - d for s, d in zip(sizes, drops)), drops=tuple(drops))
