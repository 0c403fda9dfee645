"""The structural acceptance suite: every check runnable from code or CLI.

Each criterion is one function returning a :class:`CheckResult`; the pytest
acceptance module asserts them and the ``verify`` subcommand prints one
pass/fail line per criterion.  Tolerances are pinned here, next to the
checks, not configurable.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .complexes import Complex2, EdgeSignal, boundary_pivots, complete_edges
from .hodge import decompose
from .moe import (CalibCorpus, MoeLayer, barrier_sweep, merged_distribution,
                  plant_discordant_triple, synth_layer)
from .oracles import (betti1, build_incidence, edge_laplacian, kernel_dimension,
                      random_complex, residual_certificate, skeleton_components)
from .pipeline import SelectorParams, analyze_layer, compress_model, model_loss
from .selector import (CoverageInstance, allocate_uniform, allocate_weighted,
                       greedy_select, phi)
from .wanda import residual_sparsity, wanda_prune
from .diagnostics import retained_mass


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


def check_chain_identity() -> tuple[bool, str]:
    """d1 @ d2 = 0 exactly, integer arithmetic, 100 random complexes."""
    rng = np.random.default_rng(1001)
    for _ in range(100):
        k = random_complex(rng, n_max=20)
        inc = build_incidence(k)
        if (inc.b1 @ inc.b2).any():
            return False, f"nonzero product on complex with n={k.n}"
    return True, "100/100 complexes give an exactly zero product"


def check_hodge_orthogonality() -> tuple[bool, str]:
    """Pairwise inner products below 1e-8 * ||b||^2 and exact reconstruction."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        k = random_complex(rng, n_max=16)
        if k.num_edges == 0:
            continue
        b = EdgeSignal(rng.normal(size=k.num_edges))
        d = decompose(k, b)
        nsq = max(b.norm() ** 2, 1e-30)
        dots = [abs(d.grad.values @ d.curl.values), abs(d.grad.values @ d.harm.values),
                abs(d.curl.values @ d.harm.values)]
        recon = np.linalg.norm(d.grad.values + d.curl.values + d.harm.values - b.values)
        worst = max(worst, max(dots) / nsq, recon / max(b.norm(), 1e-30))
        if max(dots) >= 1e-8 * nsq or recon >= 1e-8 * b.norm():
            return False, f"violation at n={k.n}: worst ratio {worst:.2e}"
    return True, f"100 random pairs orthogonal; worst ratio {worst:.2e}"


def pivot_betti1(k: Complex2) -> int:
    """beta1 from the rank the analysis takes: the pivots of d2's column reduction."""
    return (k.num_edges - k.n + skeleton_components(k)
            - int(boundary_pivots(k.edge_rows).sum()))


def check_betti_agreement() -> tuple[bool, str]:
    """Euler-Poincare (by dense rank and by the analysis's pivot count) equals
    kernel dimension, including the 31 885 pin."""
    rng = np.random.default_rng(1003)
    for _ in range(30):
        k = random_complex(rng, n_max=14)
        if not betti1(k) == pivot_betti1(k) == kernel_dimension(build_incidence(k)):
            return False, f"count mismatch on random complex n={k.n}"
    fixtures = [
        (Complex2(3, [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]), 0),
        (Complex2(4, complete_edges(4), []), 3),
        (Complex2(5, complete_edges(5),
                  [[i, j, l] for i in range(5) for j in range(i + 1, 5)
                   for l in range(j + 1, 5)]), 0),
    ]
    for k, expected in fixtures:
        inc = build_incidence(k)
        if not betti1(k) == pivot_betti1(k) == kernel_dimension(inc) == expected:
            return False, f"fixture with n={k.n} expected {expected}"
        l1 = edge_laplacian(inc)
        eig_dim = int((np.abs(np.linalg.eigvalsh(l1)) < 1e-8).sum())
        if eig_dim != expected:
            return False, f"dense eigendecomposition disagrees on n={k.n}"

    # structural pin: n = 256, complete edges, 500 random full-rank triangles
    pin_rng = np.random.default_rng(123)
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < 500:
        seen.add(tuple(sorted(pin_rng.choice(256, size=3, replace=False))))
    k256 = Complex2(256, complete_edges(256), np.array(sorted(seen)))
    counts = {"euler": betti1(k256), "pivots": pivot_betti1(k256),
              "kernel": kernel_dimension(build_incidence(k256))}
    if set(counts.values()) != {31885}:
        found = ", ".join(f"{name}={value}" for name, value in counts.items())
        return False, f"n=256 pin gave {found}, expected 31885"
    return True, "random + fixture complexes agree; n=256 pin = 31885 three ways"


def check_residual_minimality() -> tuple[bool, str]:
    """Joint least-squares residual equals harmonic energy within 1e-7."""
    rng = np.random.default_rng(1004)
    done, worst = 0, 0.0
    while done < 50:
        k = random_complex(rng, n_max=14)
        if k.num_edges == 0:
            continue
        b = EdgeSignal(rng.normal(size=k.num_edges))
        report = residual_certificate(k, b, decompose(k, b))
        gap = abs(report["residual_lsq"] - report["harm_energy"])
        rel = gap / max(report["harm_energy"], 1e-12)
        worst = max(worst, rel)
        if gap > 1e-7 * max(report["harm_energy"], 1e-12) + 1e-12:
            return False, f"relative gap {rel:.2e} on instance {done}"
        done += 1
    return True, f"50 instances agree; worst relative gap {worst:.2e}"


def _random_coverage_instance(rng: np.random.Generator, n: int = 10) -> CoverageInstance:
    n_edges = int(rng.integers(8, 30))
    n_tris = int(rng.integers(0, 10))
    edge_inc = np.zeros((n, n_edges), dtype=bool)
    tri_inc = np.zeros((n, n_tris), dtype=bool)
    for i in range(n):
        edge_inc[i, rng.choice(n_edges, rng.integers(1, max(2, n_edges // 2)),
                               replace=False)] = True
    for i in range(n if n_tris else 0):
        tri_inc[i, rng.choice(n_tris, rng.integers(0, n_tris + 1), replace=False)] = True
    return CoverageInstance(
        crit_edges=np.arange(n_edges), crit_triangles=np.arange(n_tris),
        edge_incidence=edge_inc, tri_incidence=tri_inc,
        sal=rng.uniform(size=n), lam_e=1.0, lam_t=0.5)


def check_greedy_guarantee() -> tuple[bool, str]:
    """Greedy reaches (1 - (1 - 1/k)^k) of the exhaustive optimum, 200 runs."""
    rng = np.random.default_rng(1005)
    k = 4
    bound = 1.0 - (1.0 - 1.0 / k) ** k
    worst = 1.0
    for trial in range(200):
        inst = _random_coverage_instance(rng)
        # independent exhaustive oracle over all C(10, 4) = 210 subsets
        best = 0.0
        for subset in itertools.combinations(range(10), k):
            rows = list(subset)
            val = float(inst.sal[rows].sum())
            covered_e = int(inst.edge_incidence[rows].any(axis=0).sum())
            val += inst.lam_e * covered_e / len(inst.crit_edges)
            if len(inst.crit_triangles):
                covered_t = int(inst.tri_incidence[rows].any(axis=0).sum())
                val += inst.lam_t * covered_t / len(inst.crit_triangles)
            best = max(best, val)
        achieved = phi(inst, greedy_select(inst, k))
        worst = min(worst, achieved / best)
        if achieved < bound * best - 1e-12:
            return False, f"trial {trial}: ratio {achieved / best:.4f} < {bound:.4f}"
    return True, f"200/200 above the {bound:.4f} bound; worst ratio {worst:.4f}"


def check_k4_inexpressibility() -> tuple[bool, str]:
    """Exact rational coverage: fixed pairs hit 1/2 worst-case, greedy hits 1."""
    matchings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for pair in itertools.combinations(range(4), 2):
        worst = min(
            Fraction(sum(1 for edge in matching if set(edge) & set(pair)), 2)
            for matching in matchings)
        if worst != Fraction(1, 2):
            return False, f"fixed pair {pair} has worst-case coverage {worst}"
    for matching in matchings:
        incidence = np.zeros((4, 2), dtype=bool)
        for e, (a, b) in enumerate(matching):
            incidence[[a, b], e] = True
        inst = CoverageInstance(
            crit_edges=np.arange(2), crit_triangles=np.zeros(0, dtype=np.int64),
            edge_incidence=incidence, tri_incidence=np.zeros((4, 0), dtype=bool),
            sal=np.zeros(4), lam_e=1.0, lam_t=0.5)
        covered = int(incidence[list(greedy_select(inst, 2))].any(axis=0).sum())
        if Fraction(covered, 2) != 1:
            return False, f"greedy covered {covered}/2 on {matching}"
    return True, "all 6 fixed pairs stuck at 1/2; greedy covers 1 on each instance"


def check_merge_guard() -> tuple[bool, str]:
    """Never-routed experts leave the table finite and use the plain average."""
    base = synth_layer(n=6, clusters=3, seed=606)
    router = base.router_logits.copy()
    router[4] = -1e3
    router[5] = -1e3
    layer = MoeLayer(6, base.vocab, base.ctx, 2, base.expert_logits, router)
    corpus = CalibCorpus.sample(256, 2048, 42)
    table = barrier_sweep(layer, corpus, [(3, 4, 5), (0, 4, 5)])
    if not np.isfinite(table.pairwise).all():
        return False, "pairwise table has non-finite entries"
    if not np.isfinite(table.triplet).all():
        return False, "triplet table has non-finite entries"
    if table.routing_freq[4] != 0.0 or table.routing_freq[5] != 0.0:
        return False, "starved experts still routed"
    merged = merged_distribution(layer.expert_dists, [4, 5], table.routing_freq)
    plain = (layer.expert_dists[4] + layer.expert_dists[5]) / 2.0
    if not np.array_equal(merged, plain):
        return False, "zero-frequency merge is not the exact unweighted average"
    return True, "table finite, zero-frequency pair merges exactly to the plain average"


def check_r2_protocol() -> tuple[bool, str]:
    """The residual-sparsity formula reproduces both published operating points."""
    cases = [((0.33, 0.20), 0.1625), ((0.66, 0.20), 0.575), ((0.15, 0.20), 0.0)]
    for (r_tot, r1), expected in cases:
        got = residual_sparsity(r_tot, r1)
        if abs(got - expected) > 1e-12:
            return False, f"residual_sparsity({r_tot}, {r1}) = {got!r}"
    return True, "0.33 -> 0.1625 and 0.66 -> 0.575 exact to 1e-12"


def check_wanda_correctness() -> tuple[bool, str]:
    """Keep counts exact on the grid; 2 x 4 instance matches the keep-set oracle."""
    rng = np.random.default_rng(1009)
    for b in range(4, 65):
        w = rng.normal(size=(2, b))
        x = rng.normal(size=(6, b))
        for r2 in (0.0, 0.1625, 0.575, 0.9):
            _, mask = wanda_prune(w, x, r2)
            if not (mask.mask.sum(axis=1) == math.ceil((1 - r2) * b)).all():
                return False, f"row keep count off at b={b}, r2={r2}"
    w = np.array([[0.5, -2.0, 1.0, 0.1], [3.0, 0.2, -0.2, 2.5]])
    x = np.array([[1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 2.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
    score = np.abs(w) * np.linalg.norm(x, axis=0)
    _, mask = wanda_prune(w, x, 0.5)
    for row in range(2):
        best = max(itertools.combinations(range(4), 2),
                   key=lambda cols: (score[row, list(cols)].sum(), tuple(-c for c in cols)))
        if set(np.nonzero(mask.mask[row])[0].tolist()) != set(best):
            return False, f"row {row} keep set differs from exhaustive oracle"
    return True, "keep counts exact for b in 4..64 across the r2 grid; oracle match"


def check_allocator_conservation() -> tuple[bool, str]:
    """Budget conserved with the one-survivor floor on 1000 fuzzed configs, and
    uniform allocation equal to the closed-form ``divmod`` split."""
    rng = np.random.default_rng(1010)
    done = 0
    while done < 1000:
        layers = int(rng.integers(1, 9))
        sizes = rng.integers(2, 48, size=layers).tolist()
        rate = float(rng.uniform(0.0, 0.9))
        total = int(math.floor(rate * sum(sizes)))
        if total > sum(s - 1 for s in sizes):
            continue
        rho = rng.uniform(0.0, 1.0, size=layers).tolist()
        uni = allocate_uniform(rate, sizes)
        wei = allocate_weighted(rate, sizes, rho)
        for budget in (uni, wei):
            if sum(budget.drops) != total:
                return False, f"budget not conserved on sizes={sizes}, rate={rate:.3f}"
            if not all(1 <= k <= s for k, s in zip(budget.survivors, sizes)):
                return False, f"survivor bounds violated on sizes={sizes}"
        # the closed-form split: divmod drops, the remainder to the lowest-index
        # layers, then the one-survivor clamp and the refill in index order
        base, rem = divmod(total, layers)
        split = [min(base + (idx < rem), s - 1) for idx, s in enumerate(sizes)]
        excess = total - sum(split)
        for idx, s in enumerate(sizes):
            take = min(s - 1 - split[idx], excess)
            split[idx] += take
            excess -= take
        if list(uni.drops) != split:
            return False, f"uniform differs from the divmod split on sizes={sizes}"
        done += 1
    return True, "1000 fuzzed configs conserve the budget; uniform equals the divmod split"


def check_planted_benefit() -> tuple[bool, str]:
    """Coverage selection beats random routing loss on planted models."""
    corpus = CalibCorpus.sample(256, 2048, 42)
    heldout = CalibCorpus.sample(256, 2048, 43)
    params = SelectorParams()
    wins = 0
    hodge_disc, gb_disc = [], []
    for seed in range(50):
        layers = [synth_layer(seed=seed * 10 + l) for l in range(4)]
        discordant = seed % 2 == 0
        if discordant:
            layers[0] = plant_discordant_triple(layers[0], (0, 1, 2), seed=seed + 500)
        analyses = [analyze_layer(layer, corpus) for layer in layers]
        budget = allocate_uniform(0.66, [16] * 4)
        losses = {}
        for method in ("hodgecover", "random", "greedy_barrier"):
            plans = compress_model(analyses, budget.survivors, method, params, seed=seed * 100)
            losses[method] = model_loss(layers, heldout, plans)
        wins += losses["hodgecover"] <= losses["random"]
        if discordant:
            hodge_disc.append(losses["hodgecover"])
            gb_disc.append(losses["greedy_barrier"])
    hodge_mean, gb_mean = float(np.mean(hodge_disc)), float(np.mean(gb_disc))
    if wins < 45:
        return False, f"beat random on only {wins}/50 seeds"
    if hodge_mean > gb_mean:
        return False, f"discordant subset: {hodge_mean:.4f} vs greedy-barrier {gb_mean:.4f}"
    return True, (f"beat random on {wins}/50 seeds; discordant-subset mean "
                  f"{hodge_mean:.4f} <= greedy-barrier {gb_mean:.4f}")


def check_diagnostics_closure() -> tuple[bool, str]:
    """Energy fractions close to 1 per layer; retained mass grows with survivors."""
    corpus = CalibCorpus.sample(256, 2048, 42)
    models = [[synth_layer(seed=m * 10 + l) for l in range(3)] for m in range(2)]
    analysis = None
    for model in models:
        for layer in model:
            a = analyze_layer(layer, corpus)
            total = a.decomp.energy_grad + a.decomp.energy_curl + a.decomp.energy_harm
            if abs(total - 1.0) > 1e-8:
                return False, f"energy fractions sum to {total!r} on seed {layer.seed}"
            analysis = a
    k, barriers = analysis.filtration.chosen_complex, analysis.filtration.triangle_barriers
    rng = np.random.default_rng(1012)
    for _ in range(100):
        small = set(rng.choice(16, rng.integers(0, 12), replace=False).tolist())
        big = small | set(rng.choice(16, 4).tolist())
        lo = retained_mass(k, analysis.decomp, barriers, small)
        hi = retained_mass(k, analysis.decomp, barriers, big)
        if any(lo[key] > hi[key] + 1e-12 for key in lo):
            return False, f"retained mass shrank when growing {sorted(small)}"
    return True, "closure holds on 6 layers; retained mass monotone on 100 nested pairs"


CHECKS: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "chain identity", check_chain_identity),
    (2, "hodge orthogonality + reconstruction", check_hodge_orthogonality),
    (3, "betti agreement incl. 31885 pin", check_betti_agreement),
    (4, "residual minimality", check_residual_minimality),
    (5, "greedy guarantee", check_greedy_guarantee),
    (6, "k4 inexpressibility", check_k4_inexpressibility),
    (7, "merge zero-frequency guard", check_merge_guard),
    (8, "residual sparsity protocol", check_r2_protocol),
    (9, "wanda row correctness", check_wanda_correctness),
    (10, "allocator conservation", check_allocator_conservation),
    (11, "planted end-to-end benefit", check_planted_benefit),
    (12, "diagnostics closure + retained-mass monotonicity", check_diagnostics_closure),
]


def run_checks(only: Iterable[int] | None = None) -> list[CheckResult]:
    wanted = set(only) if only is not None else None
    results = []
    for number, name, func in CHECKS:
        if wanted is not None and number not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # noqa: BLE001  (a crash is a failed criterion)
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(number, name, passed, detail,
                                   time.perf_counter() - start))
    return results
