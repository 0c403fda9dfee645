"""Orthogonal decomposition of edge signals into gradient, curl, harmonic.

Every edge signal b splits uniquely as b = grad + curl + harm with
grad in im(d1^T), curl in im(d2), and harm in ker(L1); the three parts are
pairwise orthogonal.  ``harm`` is the component that no vertex potential
plus triangle-boundary correction can explain, and its squared norm equals
the joint least-squares residual min_{phi, psi} ||b - d1^T phi - d2 psi||^2
(certified numerically by the joint solve in :mod:`hodgecover.oracles`).

The split reads the complex alone: d1 as a dense n x |E| matrix formed from
``Complex2.edges``, and d2 through ``Complex2.edge_rows``.  No |E| x |E|,
|E| x |T| or |T| x |T| matrix is formed beyond the Gram matrix of a basis
of im(d2):

    1. alpha minimizes ||d1^T alpha - b||,  grad = d1^T alpha
    2. curl = d2_J (d2_J^T d2_J)^-1 d2_J^T (b - grad)
    3. harm = b - grad - curl

Step 1 is a least-squares solve through the pseudoinverse of the n x n
vertex Laplacian L0, with the rank cutoff of :mod:`hodgecover.complexes`.
In step 2, J is a set of pivot triangles whose columns of d2 are a basis of
im(d2) (:func:`~hodgecover.complexes.boundary_pivots`), so the step is the
orthogonal projection onto im(d2).  That is the same operator as
d2 L2^+ d2^T, the least-squares fit of b - grad by triangle boundaries, so
the two agree up to rounding.  The Gram matrix d2_J^T d2_J is built exactly
from the integer entries and is positive definite, because the pivot
columns are independent; the products with d2_J are gathers and
scatter-adds over each pivot triangle's three edges.  Because d1 d2 = 0,
grad is orthogonal to im(d2), so the projection of b - grad is the curl
part of b itself.  Stage B's filtration keeps J at tau*
(``FiltrationResult.pivots``); :func:`decompose` called without it
reduces the complex's own columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (Complex2, EdgeSignal, boundary, boundary_gram, boundary_pivots,
                        boundary_t, svd_rcond, vertex_boundary)


@dataclass(frozen=True, eq=False)
class HodgeDecomp:
    """The orthogonal triple of an edge signal plus its energy fractions.

    Energy fractions are squared-norm shares of the input; they sum to 1
    for a nonzero input and are all 0 for the zero signal.
    """

    grad: EdgeSignal
    curl: EdgeSignal
    harm: EdgeSignal
    energy_grad: float
    energy_curl: float
    energy_harm: float


def decompose(k: Complex2, b: EdgeSignal, pivots: np.ndarray | None = None) -> HodgeDecomp:
    """Split ``b`` into its gradient, curl, and harmonic components.

    ``pivots`` are indices of triangles of ``k`` whose columns of d2 are a
    basis of im(d2); when it is None they are computed from ``k``.
    """
    values = b.values
    if values.shape != (k.num_edges,):
        raise ValueError(f"signal has shape {values.shape}, complex has {k.num_edges} edges")
    rows = k.edge_rows
    if pivots is None:
        pivots = np.flatnonzero(boundary_pivots(rows))
    pivots = np.asarray(pivots, dtype=np.int64)
    if pivots.ndim != 1 or (pivots.size and not 0 <= pivots.min() <= pivots.max()
                            < k.num_triangles):
        raise ValueError(f"pivots must index the complex's {k.num_triangles} triangles")
    rows = rows[:, pivots]
    d1 = vertex_boundary(k)

    l0 = d1 @ d1.T
    alpha = np.linalg.pinv(l0, rcond=svd_rcond(l0.shape)) @ (d1 @ values)
    grad = d1.T @ alpha
    coef = np.linalg.solve(boundary_gram(rows), boundary_t(rows, values - grad))
    curl = boundary(rows, coef, k.num_edges)
    harm = values - grad - curl
    total = float(values @ values)
    if total > 0.0:
        energies = (float(grad @ grad) / total, float(curl @ curl) / total,
                    float(harm @ harm) / total)
    else:
        energies = (0.0, 0.0, 0.0)
    return HodgeDecomp(EdgeSignal(grad), EdgeSignal(curl), EdgeSignal(harm), *energies)

