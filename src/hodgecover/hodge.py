"""Orthogonal decomposition of edge signals into gradient, curl, harmonic.

Every edge signal b splits uniquely as b = grad + curl + harm with
grad in im(d1^T), curl in im(d2), and harm in ker(L1); the three parts are
pairwise orthogonal.  ``harm`` is the component that no vertex potential
plus triangle-boundary correction can explain, and its squared norm equals
the joint least-squares residual min_{phi, psi} ||b - d1^T phi - d2 psi||^2
(certified numerically by :func:`residual_certificate`).

The split is computed without forming any |E| x |E| or |T| x |T| matrix:

    1. alpha minimizes ||d1^T alpha - b||,  grad = d1^T alpha
    2. curl = Q Q^T (b - grad)
    3. harm = b - grad - curl

Step 1 is a least-squares solve through the pseudoinverse of the n x n
vertex Laplacian L0, with the rank cutoff of :mod:`hodgecover.complexes`.
In step 2, Q is an orthonormal basis of im(d2), so Q Q^T is the orthogonal
projector onto im(d2).  That is the same operator as d2 L2^+ d2^T, the
least-squares fit of b - grad by triangle boundaries, so the two agree up
to rounding whenever rank(Q) = rank(d2).  Because d1 d2 = 0, grad is
orthogonal to im(d2), so Q Q^T (b - grad) is the curl part of b itself.
Stage B's filtration builds Q at tau* (``FiltrationResult.curl_basis``);
:func:`decompose` called without it takes Q from
:func:`~hodgecover.complexes.prefix_ranks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex2, EdgeSignal, SignedIncidence, prefix_ranks, svd_rcond


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


def decompose(k: Complex2, inc: SignedIncidence, b: EdgeSignal,
              basis: np.ndarray | None = None) -> HodgeDecomp:
    """Split ``b`` into its gradient, curl, and harmonic components.

    ``basis`` is an orthonormal basis of im(d2), rows in the edge order of
    ``k``; when it is None it is computed from ``inc.b2``.
    """
    values = b.values
    if values.shape != (k.num_edges,):
        raise ValueError(f"signal has shape {values.shape}, complex has {k.num_edges} edges")
    if basis is None:
        basis = prefix_ranks(inc.b2, [k.num_triangles])[1]
    elif basis.shape[0] != k.num_edges:
        raise ValueError(f"basis has {basis.shape[0]} rows, complex has {k.num_edges} edges")
    b1 = inc.b1.astype(np.float64)

    l0 = b1 @ b1.T
    alpha = np.linalg.pinv(l0, rcond=svd_rcond(l0.shape)) @ (b1 @ values)
    grad = b1.T @ alpha
    curl = basis @ (basis.T @ (values - grad))
    harm = values - grad - curl
    total = float(values @ values)
    if total > 0.0:
        energies = (float(grad @ grad) / total, float(curl @ curl) / total,
                    float(harm @ harm) / total)
    else:
        energies = (0.0, 0.0, 0.0)
    return HodgeDecomp(EdgeSignal(grad), EdgeSignal(curl), EdgeSignal(harm), *energies)


def residual_certificate(k: Complex2, inc: SignedIncidence, b: EdgeSignal,
                         d: HodgeDecomp) -> dict[str, float]:
    """Certify harmonic-energy minimality against a direct joint solve.

    Solves min over (phi, psi) of ||b - d1^T phi - d2 psi||^2 as one stacked
    least-squares problem and reports the residual next to ||harm||^2.  The
    two agree within 1e-7 relative on well-posed inputs; the stacked solve
    shares nothing with the sequential projection above, so agreement is an
    independent certificate, not a tautology.
    """
    design = np.hstack([inc.b1.T.astype(np.float64), inc.b2.astype(np.float64)])
    coef, _, _, _ = np.linalg.lstsq(design, b.values, rcond=svd_rcond(design.shape))
    residual = b.values - design @ coef
    h = d.harm.values
    return {
        "residual_lsq": float(residual @ residual),
        "harm_energy": float(h @ h),
    }
