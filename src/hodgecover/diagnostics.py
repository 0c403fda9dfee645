"""Per-layer topological diagnostics and cross-method mechanism metrics.

Two scale-invariant per-layer numbers summarize the higher-order
obstruction: the harmonic/gradient/curl energy fractions of the
edge-barrier signal (they sum to 1 by orthogonality) and the discordance
fraction, the share of candidate triangles whose joint merge barrier
exceeds the worst of their three pairwise barriers by a 20% margin.

Retained mass measures what a survivor set keeps of each signal component:
the fraction of a component's l1 mass on simplices that intersect the
survivor set, evaluated against the original pre-compression
decomposition.  Method comparisons report each selector's deviation from
the coverage selector, whose own deviation is identically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .complexes import Complex2
from .hodge import HodgeDecomp
from .moe import BarrierTable, triplet_values
from .pipeline import LayerAnalysis

DISCORDANCE_MARGIN = 1.2


@dataclass(frozen=True, eq=False)
class LayerDiagnostics:
    """Energy fractions, discordance, and Betti count for one layer."""

    layer: int
    rho_harm: float
    rho_grad: float
    rho_curl: float
    delta: float
    beta1: int

    def to_row(self) -> str:
        return (f"{self.layer},{self.rho_harm!r},{self.rho_grad!r},"
                f"{self.rho_curl!r},{self.delta!r},{self.beta1}")


CSV_HEADER = "layer,rho_harm,rho_grad,rho_curl,delta,beta1"


def diagnostics_csv(diags: Iterable[LayerDiagnostics]) -> str:
    lines = [CSV_HEADER] + [d.to_row() for d in diags]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class RetainedMass:
    """Component mass fractions kept by one survivor set."""

    harm: float
    grad: float
    curl: float
    triplet: float

    def as_dict(self) -> dict[str, float]:
        return {"harm": self.harm, "grad": self.grad,
                "curl": self.curl, "triplet": self.triplet}

    def deviation_from(self, ref: "RetainedMass") -> dict[str, float]:
        return {key: self.as_dict()[key] - ref.as_dict()[key] for key in self.as_dict()}


def discordance(barriers: BarrierTable, candidates: np.ndarray,
                margin: float = DISCORDANCE_MARGIN) -> float:
    """Fraction of candidate triangles whose joint barrier beats the worst
    pairwise barrier by the margin factor."""
    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
    if len(candidates) == 0:
        raise ValueError("discordance is undefined on an empty candidate set")
    i, j, k = candidates.T
    pw = barriers.pairwise
    worst = np.maximum.reduce([pw[i, j], pw[i, k], pw[j, k]])
    hits = int(np.count_nonzero(triplet_values(barriers.triplet, candidates) > margin * worst))
    return hits / len(candidates)


def retained_mass(k: Complex2, decomp: HodgeDecomp,
                  triplets: Mapping[tuple[int, int, int], float],
                  survivors: Iterable[int]) -> RetainedMass:
    """l1 mass fractions of each component on simplices meeting the survivors."""
    surv = set(int(i) for i in survivors)
    edge_hit = np.isin(k.edges, sorted(surv)).any(axis=1) if k.num_edges else np.zeros(0, bool)

    def edge_fraction(values: np.ndarray) -> float:
        mass = np.abs(values)
        total = float(mass.sum())
        if total == 0.0:
            return 0.0 if not surv else 1.0
        return float(mass[edge_hit].sum()) / total

    tri_vals = np.abs(triplet_values(triplets, k.triangles))
    tri_hit = np.isin(k.triangles, sorted(surv)).any(axis=1) if k.num_triangles else np.zeros(0, bool)
    tri_total = float(tri_vals.sum())
    if tri_total == 0.0:
        tri_frac = 0.0 if not surv else 1.0
    else:
        tri_frac = float(tri_vals[tri_hit].sum()) / tri_total

    return RetainedMass(
        harm=edge_fraction(decomp.harm.values),
        grad=edge_fraction(decomp.grad.values),
        curl=edge_fraction(decomp.curl.values),
        triplet=tri_frac,
    )


def diagnose_model(analyses: Sequence[LayerAnalysis]) -> list[LayerDiagnostics]:
    """Diagnose every analyzed layer of a model."""
    out = []
    for idx, a in enumerate(analyses):
        delta = discordance(a.table, a.candidates) if len(a.candidates) else 0.0
        out.append(LayerDiagnostics(
            layer=idx,
            rho_harm=a.decomp.energy_harm,
            rho_grad=a.decomp.energy_grad,
            rho_curl=a.decomp.energy_curl,
            delta=delta,
            beta1=a.beta1,
        ))
    return out


def mechanism_table(retained: Mapping[str, RetainedMass],
                    reference: str = "hodgecover") -> dict[str, dict[str, float]]:
    """Deviation of each method's retained mass from the reference method."""
    if reference not in retained:
        raise ValueError(f"reference method {reference!r} missing from results")
    ref = retained[reference]
    return {method: mass.deviation_from(ref) for method, mass in retained.items()}


def series_json(diags: Sequence[LayerDiagnostics]) -> str:
    """(x, y) series for the per-layer diagnostic curves, ready to plot."""
    xs = [float(d.layer) for d in diags]
    return json.dumps({
        "rho_harm": [xs, [d.rho_harm for d in diags]],
        "rho_grad": [xs, [d.rho_grad for d in diags]],
        "rho_curl": [xs, [d.rho_curl for d in diags]],
        "delta": [xs, [d.delta for d in diags]],
    })
