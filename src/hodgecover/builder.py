"""Two-stage construction of the layer's mergeability complex.

Stage A picks candidate triangles: every 3-clique of the subgraph whose
pairwise barriers sit at or below the median barrier, uniform-randomly
subsampled to a cap with a fixed seed when too many qualify.  Stage B
sweeps a threshold tau over an 80-point grid on [0, 1.1 * max edge
barrier], takes the subcomplex of edges and candidate triangles at or
below tau, and keeps the Betti-maximizing threshold, breaking ties toward
the larger edge set and then the larger tau.

Stage B is one pass, in the manner of persistent homology (Edelsbrunner,
Letscher and Zomorodian 2002; Zomorodian and Carlsson 2005), over the reals.
Each simplex gets a filtration value: an edge its barrier, a triangle the
larger of its triplet barrier and its worst edge barrier.  Sorted once by
that value, the simplices in the complex at any tau are a prefix of each
order, and a triangle enters only after its three edges, so rank(d2) at tau
is the rank of a column prefix of d2 over the complete edge set.  Those
prefix ranks come from one incremental Gram-Schmidt pass
(:func:`~hodgecover.complexes.prefix_ranks`), the component counts from one
union-find over the sorted edges, and beta1(tau) = |E_tau| - n +
components(tau) - rank(tau).  Only the chosen complex is built.  The same
pass leaves an orthonormal basis of im(d2) at tau*, which the result keeps as
``curl_basis`` so that the Hodge decomposition projects onto it instead of
solving for it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# betti1 is unused here but stays importable: the benchmark's tracer
# (perfbench/tracing.py) patches hodgecover.builder.betti1 by name.
from .complexes import (Complex2, UnionFind, betti1, build_incidence,  # noqa: F401
                        complete_edges, prefix_ranks)
from .moe import BarrierTable

GRID_POINTS = 80
DEFAULT_CAP = 500
DEFAULT_SEED = 42


@dataclass(frozen=True, eq=False)
class FiltrationResult:
    """Betti curve over the threshold grid and the chosen complex.

    ``curl_basis`` is an (|E|, rank(d2)) matrix with orthonormal columns
    spanning im(d2) of the chosen complex, rows in its edge order.
    """

    tau_star: float
    betti_curve: tuple[tuple[float, int], ...]
    chosen_complex: Complex2
    curl_basis: np.ndarray

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
    complex at tau is a prefix of each order.  rank(d2) at every grid point
    comes from :func:`prefix_ranks` on the sorted columns of d2, restricted
    to the edges some candidate uses: a column block adds one to the rank
    for each singular value of its Gram-Schmidt residual above
    ``complexes.RANK_CUTOFF`` (1e-8) times its largest column norm.  The
    curve equals the one from rebuilding the complex and taking
    :func:`~hodgecover.complexes.betti1` at every tau, which the tests keep
    as the oracle.
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
    d2 = build_incidence(Complex2(n, edges, candidates)).b2
    # rows of edges in no candidate are zero and cannot add to the rank
    used = d2.any(axis=1)
    components = _prefix_components(n, edges[edge_order])[num_edges]
    ranks, basis = prefix_ranks(d2[used][:, tri_order], num_tris)
    betas = num_edges - n + components - ranks

    curve = tuple((float(tau), int(beta)) for tau, beta in zip(grid, betas))
    best = max(range(GRID_POINTS), key=lambda g: (curve[g][1], num_edges[g], curve[g][0]))
    tau_star = curve[best][0]
    chosen_edges = edge_vals <= tau_star
    chosen = Complex2(n, edges[chosen_edges], candidates[tri_vals <= tau_star])
    # the first rank(tau*) basis columns span the chosen triangles' columns,
    # which vanish off the chosen edges; the basis rows are the used edges
    curl_basis = np.zeros((chosen.num_edges, int(ranks[best])))
    curl_basis[used[chosen_edges]] = basis[chosen_edges[used], :ranks[best]]
    return FiltrationResult(tau_star, curve, chosen, curl_basis)


def _prefix_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Components of the graph on n vertices with the first c edges, for every c."""
    uf = UnionFind(n)
    merges = [uf.union(i, j) for i, j in edges.tolist()]
    return n - np.concatenate([[0], np.cumsum(merges, dtype=np.int64)])
