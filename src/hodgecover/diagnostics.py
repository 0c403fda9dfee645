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
from .moe import BarrierTable
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


def discordance(barriers: BarrierTable) -> float:
    """Fraction of the table's triples (the candidate triangles) whose joint
    barrier beats the worst pairwise barrier by the factor ``DISCORDANCE_MARGIN``."""
    if len(barriers.triples) == 0:
        raise ValueError("discordance is undefined on an empty candidate set")
    bar = DISCORDANCE_MARGIN * barriers.worst_pairwise
    return int(np.count_nonzero(barriers.triplet > bar)) / len(barriers.triples)


def retained_mass(k: Complex2, decomp: HodgeDecomp, triangle_barriers: np.ndarray,
                  survivors: Iterable[int]) -> dict[str, float]:
    """l1 mass fractions of each component on simplices meeting the survivors,
    keyed "harm", "grad", "curl" and "triplet" (of ``triangle_barriers``); a
    massless component counts as kept whole if any expert survives."""
    if np.shape(triangle_barriers) != (k.num_triangles,):
        raise ValueError(f"need one triplet barrier per triangle ({k.num_triangles}), "
                         f"got shape {np.shape(triangle_barriers)}")
    surv = [int(i) for i in survivors]
    outside = sorted({i for i in surv if not 0 <= i < k.n})
    if outside:
        raise ValueError(f"survivors must be experts in [0, {k.n}), got {outside}")
    member = np.zeros(k.n, dtype=bool)
    member[surv] = True

    def fraction(values: np.ndarray, simplices: np.ndarray) -> float:
        mass = np.abs(values)
        total = float(mass.sum())
        if total == 0.0:
            return 1.0 if surv else 0.0
        return float(mass[member[simplices].any(axis=1)].sum()) / total

    return {"harm": fraction(decomp.harm.values, k.edges),
            "grad": fraction(decomp.grad.values, k.edges),
            "curl": fraction(decomp.curl.values, k.edges),
            "triplet": fraction(triangle_barriers, k.triangles)}


def diagnose_model(analyses: Sequence[LayerAnalysis]) -> list[LayerDiagnostics]:
    """Diagnose every analyzed layer of a model."""
    out = []
    for idx, a in enumerate(analyses):
        delta = discordance(a.table) if len(a.table.triples) else 0.0
        out.append(LayerDiagnostics(
            layer=idx,
            rho_harm=a.decomp.energy_harm,
            rho_grad=a.decomp.energy_grad,
            rho_curl=a.decomp.energy_curl,
            delta=delta,
            beta1=a.filtration.beta1,
        ))
    return out


def mechanism_table(retained: Mapping[str, Mapping[str, float]]) -> dict[str, dict[str, float]]:
    """Deviation of each method's retained mass from that of hodgecover."""
    if "hodgecover" not in retained:
        raise ValueError("reference method 'hodgecover' missing from results")
    ref = retained["hodgecover"]
    return {method: {key: mass[key] - ref[key] for key in mass}
            for method, mass in retained.items()}


def series_json(diags: Sequence[LayerDiagnostics]) -> str:
    """(x, y) series for the per-layer diagnostic curves, ready to plot."""
    xs = [float(d.layer) for d in diags]
    return json.dumps({
        "rho_harm": [xs, [d.rho_harm for d in diags]],
        "rho_grad": [xs, [d.rho_grad for d in diags]],
        "rho_curl": [xs, [d.rho_curl for d in diags]],
        "delta": [xs, [d.delta for d in diags]],
    })
