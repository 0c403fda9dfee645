"""Two-stage construction of the layer's mergeability complex.

Stage A picks candidate triangles: every 3-clique of the subgraph whose
pairwise barriers sit at or below the median barrier, uniform-randomly
subsampled to a cap with a fixed seed when too many qualify.  Stage B
sweeps a threshold tau over an 80-point grid on [0, 1.1 * max edge
barrier], takes the subcomplex of edges and candidate triangles at or
below tau, and keeps the Betti-maximizing threshold, breaking ties toward
the larger edge set and then the larger tau.

Stage B is one pass, in the manner of persistent homology (Edelsbrunner,
Letscher and Zomorodian 2002; Zomorodian and Carlsson 2005).  Each simplex
gets a filtration value: an edge its barrier, a triangle the larger of its
triplet barrier and its worst edge barrier.  Sorted once by that value, the
simplices in the complex at any tau are a prefix of each order, and a
triangle enters only after its three edges, so rank(d2) at tau is the rank
of a column prefix of d2 over the complete edge set.  One column reduction
(:func:`~hodgecover.complexes.boundary_pivots`, which states why its ranks
are the real ones) gives every prefix rank, one union-find over the sorted
edges the component counts, and beta1(tau) = |E_tau| - n + components(tau)
- rank(tau).  The reduction reads d2 from the candidate complex's
``Complex2.edge_rows``, so no |E| x |T| matrix is formed.  Only the chosen
complex is built besides.  The pivot triangles at tau* have independent
columns that span im(d2) of the chosen complex; the result keeps them as
``FiltrationResult.pivots``, so the Hodge decomposition projects onto them
without a second reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# betti1 and build_incidence are unused here but stay importable: the
# benchmark's tracer (perfbench/tracing.py) patches them here by name.
from .complexes import (Complex2, UnionFind, betti1, boundary_pivots,  # noqa: F401
                        build_incidence, complete_edges)
from .moe import BarrierTable

GRID_POINTS = 80
DEFAULT_CAP = 500
DEFAULT_SEED = 42


@dataclass(frozen=True, eq=False)
class FiltrationResult:
    """Betti curve over the threshold grid and the chosen complex.

    ``pivots`` holds the indices of rank(d2) triangles of the chosen
    complex, ascending, whose columns of d2 are a basis of its im(d2).
    """

    tau_star: float
    betti_curve: tuple[tuple[float, int], ...]
    chosen_complex: Complex2
    pivots: np.ndarray

    @property
    def beta1(self) -> int:
        """First Betti number of the chosen complex, read off the curve at tau*."""
        return next(beta for tau, beta in self.betti_curve if tau == self.tau_star)

    def curve_csv(self) -> str:
        lines = ["tau,beta1"]
        lines += [f"{tau!r},{beta}" for tau, beta in self.betti_curve]
        return "\n".join(lines) + "\n"


def stage_a_candidates(barriers: BarrierTable, cap: int = DEFAULT_CAP,
                       seed: int = DEFAULT_SEED) -> np.ndarray:
    """Candidate triangles: 3-cliques of the median-pairwise-barrier subgraph.

    The comparison against the median is inclusive, so all-equal barrier
    tables qualify every triple.  Above the cap, a uniform-random subsample
    with the fixed seed is kept; output is lexicographically sorted either
    way.
    """
    n = barriers.n
    if n < 3:
        return np.zeros((0, 3), dtype=np.int64)
    tau_cand = float(np.median(barriers.upper_entries()))
    # edges (i, j), i < j, in row-major order; a third vertex k of theirs is
    # adjacent to both and above j, so the triples come out lexicographically
    upper = np.triu(barriers.pairwise <= tau_cand, k=1)
    ii, jj = np.nonzero(upper)
    edge, kk = np.nonzero(upper[ii] & upper[jj])
    out = np.stack([ii[edge], jj[edge], kk], axis=1).astype(np.int64, copy=False)
    if len(out) > cap:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(out), size=cap, replace=False)
        out = out[np.sort(keep)]
    return out


def stage_b_filtration(barriers: BarrierTable, candidates: np.ndarray) -> FiltrationResult:
    """Sweep the threshold grid and keep the Betti-maximizing complex.

    At each tau the subcomplex holds the edges with barrier at or below tau
    and the candidate triangles whose own barrier and all three edge
    barriers sit at or below tau.  Ties in the Betti count break toward the
    larger edge set, then the larger tau, so the result is deterministic.

    The grid is evaluated in one pass: with edges sorted by barrier and
    triangles by max(triplet barrier, worst edge barrier), both stable, the
    complex at tau is a prefix of each order, and rank(d2) at every grid
    point counts the pivots of :func:`boundary_pivots` among the first
    columns in that order.  The curve equals the one from rebuilding the
    complex and taking :func:`~hodgecover.complexes.betti1` at every tau,
    which the tests keep as the oracle.
    """
    n = barriers.n
    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
    edges = complete_edges(n)
    edge_vals = barriers.pairwise[edges[:, 0], edges[:, 1]]
    # a candidate's filtration value: its triplet barrier or its worst edge
    tri_vals = np.maximum.reduce([
        barriers.triplet_values(candidates),
        barriers.pairwise[candidates[:, 0], candidates[:, 1]],
        barriers.pairwise[candidates[:, 0], candidates[:, 2]],
        barriers.pairwise[candidates[:, 1], candidates[:, 2]],
    ])

    top = 1.1 * float(edge_vals.max()) if len(edge_vals) else 0.0
    grid = np.linspace(0.0, top, GRID_POINTS)

    edge_order = np.argsort(edge_vals, kind="stable")
    tri_order = np.argsort(tri_vals, kind="stable")
    num_edges = np.searchsorted(edge_vals[edge_order], grid, side="right")
    num_tris = np.searchsorted(tri_vals[tri_order], grid, side="right")
    pivot = boundary_pivots(Complex2(n, edges, candidates).edge_rows[:, tri_order])
    components = _prefix_components(n, edges[edge_order])[num_edges]
    ranks = np.concatenate([[0], np.cumsum(pivot)])[num_tris]
    betas = num_edges - n + components - ranks

    curve = tuple((float(tau), int(beta)) for tau, beta in zip(grid, betas))
    best = max(range(GRID_POINTS), key=lambda g: (curve[g][1], num_edges[g], curve[g][0]))
    tau_star = curve[best][0]
    chosen_tris = tri_vals <= tau_star
    chosen = Complex2(n, edges[edge_vals <= tau_star], candidates[chosen_tris])
    # the chosen triangles are the first sorted columns, so their pivots are
    # those of the prefix
    in_candidate_order = np.empty_like(pivot)
    in_candidate_order[tri_order] = pivot
    return FiltrationResult(tau_star, curve, chosen,
                            np.flatnonzero(in_candidate_order[chosen_tris]))


def _prefix_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Components of the graph on n vertices with the first c edges, for every c."""
    uf = UnionFind(n)
    merges = [uf.union(i, j) for i, j in edges.tolist()]
    return n - np.concatenate([[0], np.cumsum(merges, dtype=np.int64)])
