"""Prefix ranks by block Gram-Schmidt: Stage B's rank kernel before the
column reduction mod p, kept as the oracle of
:func:`hodgecover.complexes.boundary_pivots`."""

from __future__ import annotations

import numpy as np

from hodgecover.complexes import RANK_CUTOFF

RANK_BLOCK = 64       # widest column block one Gram-Schmidt step takes


def prefix_ranks(matrix: np.ndarray, stops) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank of each leading column block ``matrix[:, :s]``, and a basis.

    ``stops`` must be nondecreasing.  One pass over the columns keeps an
    orthonormal basis of the span seen so far: each new block of at most
    ``RANK_BLOCK`` columns is projected off the basis by two passes of
    classical Gram-Schmidt, and the left singular vectors of the residual
    whose singular value exceeds ``RANK_CUTOFF`` times the block's largest
    column norm join the basis.  The rank is over the reals, never Z/2.

    Returns the ranks and the basis, an (m, ranks[-1]) matrix with
    orthonormal columns whose first ``ranks[i]`` columns span
    ``matrix[:, :stops[i]]``.
    """
    m, cols = matrix.shape
    basis = np.empty((m, min(m, cols)))
    rank_so_far = done = 0
    out = np.zeros(len(stops), dtype=np.int64)
    for idx, stop in enumerate(stops):
        while done < stop:
            end = min(stop, done + RANK_BLOCK)
            block = matrix[:, done:end].astype(np.float64)
            cutoff = RANK_CUTOFF * float(np.linalg.norm(block, axis=0).max())
            q = basis[:, :rank_so_far]
            for _ in range(2):
                block -= q @ (q.T @ block)
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            new = int((s > cutoff).sum())
            basis[:, rank_so_far:rank_so_far + new] = u[:, :new]
            rank_so_far += new
            done = end
        out[idx] = rank_so_far
    return out, basis[:, :rank_so_far]
