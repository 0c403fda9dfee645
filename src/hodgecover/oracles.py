"""Dense reference operators and random fixtures: the oracles of the sparse path.

The analysis reads d2 only through ``Complex2.edge_rows``; the code here
forms the dense boundary matrices, so the acceptance suite and the tests
can check the sparse path against an independent one.  The first Betti
number is the Euler-Poincare count

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2)

and independently dim ker(L1), for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (SIGNS, Complex2, ComplexStructureError, EdgeSignal, UnionFind,
                        complete_edges, svd_rcond, vertex_boundary)
from .hodge import HodgeDecomp


@dataclass(frozen=True, eq=False)
class SignedIncidence:
    """Signed boundary operators of a Complex2 in its lexicographic bases.

    ``b1`` is the n x |E| vertex-edge matrix (one -1 at the tail, one +1 at
    the head per column); ``b2`` is the |E| x |T| edge-triangle matrix with
    signs (+1, -1, +1) on edges [j,k], [i,k], [i,j].  Entries are integers
    and satisfy b1 @ b2 = 0 exactly.
    """

    b1: np.ndarray
    b2: np.ndarray


def build_incidence(k: Complex2) -> SignedIncidence:
    """The dense signed boundary matrices of ``k``, for the oracles and tests.

    The analysis never forms them: it reads d1 from ``k.edges`` and d2 from
    ``k.edge_rows``.
    """
    b2 = np.zeros((k.num_edges, k.num_triangles), dtype=np.int64)
    cols = np.arange(k.num_triangles)
    for sign, rows in zip(SIGNS, k.edge_rows):
        b2[rows, cols] = sign
    return SignedIncidence(b1=vertex_boundary(k, np.int64), b2=b2)


def edge_laplacian(inc: SignedIncidence) -> np.ndarray:
    """The Hodge Laplacian L1 = b1^T b1 + b2 b2^T on edge signals.

    Symmetric PSD, integer-valued, and its kernel is the harmonic subspace.
    It is dense |E| x |E|; call this only at desk scale (n up to a few
    hundred edges).
    """
    b1 = inc.b1.astype(np.float64)
    b2 = inc.b2.astype(np.float64)
    return b1.T @ b1 + b2 @ b2.T


def rank(matrix: np.ndarray) -> int:
    """Numerical rank via SVD with the shared relative cutoff."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix.astype(np.float64), compute_uv=False)
    return int((s > svd_rcond(matrix.shape) * s[0]).sum())


def skeleton_components(k: Complex2) -> int:
    """Connected components of the 1-skeleton (V, E)."""
    uf = UnionFind(k.n)
    for i, j in k.edges.tolist():
        uf.union(i, j)
    return uf.components


def betti1(k: Complex2) -> int:
    """First Betti number by the Euler-Poincare count for a 2-complex.

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2), with the rank of
    the dense d2 by SVD: the oracle of Stage B's Betti curve.  Equals the
    kernel dimension of L1 (see :func:`kernel_dimension`).
    """
    value = k.num_edges - k.n + skeleton_components(k) - rank(build_incidence(k).b2)
    if value < 0:
        raise ComplexStructureError(f"negative Betti number {value}; inputs inconsistent")
    return value


def kernel_dimension(inc: SignedIncidence) -> int:
    """dim ker(L1) without forming L1.

    ker(L1) = ker(d1) intersect ker(d2^T) is the nullspace of the stacked
    operator [b1; b2^T], so the dimension is |E| - rank of that stack.
    This stays feasible at |E| = 32 640 where the dense |E| x |E| L1 would
    not fit in memory.
    """
    m = inc.b1.shape[1]
    stacked = np.vstack([inc.b1, inc.b2.T]).astype(np.float64)
    return m - rank(stacked)


def random_complex(rng: np.random.Generator, n_max: int = 20, *,
                   edge_prob: float | None = None,
                   triangle_prob: float | None = None) -> Complex2:
    """Random valid complex for property tests.

    Samples an edge subset of K_n, then a triangle subset of the 3-cliques
    of that subset, so closure holds by construction.
    """
    n = int(rng.integers(3, n_max + 1))
    p_e = float(rng.uniform(0.3, 0.9)) if edge_prob is None else edge_prob
    p_t = float(rng.uniform(0.2, 0.8)) if triangle_prob is None else triangle_prob
    all_edges = complete_edges(n)
    keep = rng.random(len(all_edges)) < p_e
    edges = all_edges[keep]
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj |= adj.T
    tris = []
    for i, j in edges:
        above = np.nonzero(adj[i] & adj[j])[0]
        tris.extend((int(i), int(j), int(kk)) for kk in above[above > j])
    tris.sort()
    keep_t = rng.random(len(tris)) < p_t
    triangles = [t for t, ok in zip(tris, keep_t) if ok]
    return Complex2(n, edges, np.array(triangles, dtype=np.int64).reshape(-1, 3))


def residual_certificate(k: Complex2, b: EdgeSignal, d: HodgeDecomp) -> dict[str, float]:
    """Certify harmonic-energy minimality against a direct joint solve.

    Solves min over (phi, psi) of ||b - d1^T phi - d2 psi||^2 as one stacked
    least-squares problem and reports the residual next to ||harm||^2.  The
    two agree within 1e-7 relative on well-posed inputs; the stacked solve
    shares nothing with the sequential projection of
    :func:`~hodgecover.hodge.decompose`, so agreement is an independent
    certificate, not a tautology.  It forms the dense d1 and d2 of ``k``.
    """
    inc = build_incidence(k)
    design = np.hstack([inc.b1.T.astype(np.float64), inc.b2.astype(np.float64)])
    coef, _, _, _ = np.linalg.lstsq(design, b.values, rcond=svd_rcond(design.shape))
    residual = b.values - design @ coef
    h = d.harm.values
    return {
        "residual_lsq": float(residual @ residual),
        "harm_energy": float(h @ h),
    }
