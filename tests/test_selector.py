import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import set_oracle
from hodgecover.complexes import Complex2, EdgeSignal, UnionFind, complete_edges
from hodgecover.hodge import decompose
from hodgecover.moe import (BarrierTable, CalibCorpus, barrier_sweep,
                            cluster_assignment, synth_layer)
from hodgecover.oracles import random_complex
from hodgecover.pipeline import METHODS, analyze_layer, coverage_for, plan_layer
from hodgecover.selector import (ABLATION_VARIANTS, CoverageInstance, LayerBudget,
                                 SurvivorPlan, _edge_order, _LazySequence, _merges,
                                 _triplet_penalty_costs, _unionfind_plan, allocate_uniform,
                                 allocate_weighted, build_coverage, greedy_select, phi,
                                 redirect, redirect_costs, select_ablation, select_random)


def incidence(n, sets, cols):
    """(n, len(cols)) boolean matrix: expert i covers column c when cols[c] is in sets[i]."""
    cols = list(cols)
    inc = np.zeros((n, len(cols)), dtype=bool)
    for i, s in enumerate(sets):
        for e in s:
            inc[i, cols.index(e)] = True
    return inc


def unionfind_plan(table, k, costs, method, veto_tau=None):
    """``_unionfind_plan`` along the order of ``costs``; triples above ``veto_tau`` veto."""
    veto = None if veto_tau is None else table.triples[table.triplet > veto_tau]
    merges = _LazySequence(_merges(table.n, _edge_order(costs), veto))
    return _unionfind_plan(table, k, merges, method, veto_tau=veto_tau)


def merge_until(label, pairs, k, veto=None):
    """Merge the groups of ``label`` along ``pairs`` in order until k remain.

    ``label`` names each expert's group by its lowest member and is updated
    in place; returns the number of merges.  A merge that would put all
    three vertices of a ``veto`` row in one group is skipped.  This is the
    run per k that the merge sequence replaces.
    """
    groups = len(np.unique(label))
    merges = 0
    for a, b in pairs.tolist():
        if groups == k:
            break
        ra, rb = label[a], label[b]
        if ra == rb:
            continue
        if veto is not None and (((label == ra) | (label == rb))[veto].all(axis=1)).any():
            continue
        label[label == max(ra, rb)] = min(ra, rb)
        groups -= 1
        merges += 1
    return merges


def manual_instance(n, crit_edges_by_expert, sal=None, lam_e=1.0, lam_t=0.0,
                    n_crit=None, tris_by_expert=None, n_crit_t=0):
    """Coverage instance assembled directly from incidence sets."""
    tris_by_expert = tris_by_expert or [()] * n
    edges = range(n_crit) if n_crit is not None else \
        sorted(set().union(*map(set, crit_edges_by_expert)))
    tris = range(n_crit_t) if n_crit_t else sorted(set().union(*map(set, tris_by_expert)))
    return CoverageInstance(
        crit_edges=np.array(edges, dtype=np.int64),
        crit_triangles=np.array(tris, dtype=np.int64),
        edge_incidence=incidence(n, crit_edges_by_expert, edges),
        tri_incidence=incidence(n, tris_by_expert, tris),
        sal=np.zeros(n) if sal is None else np.asarray(sal, dtype=float),
        lam_e=lam_e, lam_t=lam_t,
    )


def uniform_table(n, value=1.0, triples=()):
    """Every pairwise barrier ``value``; each of ``triples`` has triplet barrier 1."""
    m = np.full((n, n), value)
    np.fill_diagonal(m, 0.0)
    return BarrierTable(m, np.full(n, 0.25), triples, np.ones(len(triples)))


class TestBuildCoverage:
    def analysis(self):
        corpus = CalibCorpus.sample(256, 2048, 42)
        return analyze_layer(synth_layer(seed=0), corpus)

    def test_percent_extremes(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        full = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal,
                              p=100.0, q_t=100.0)
        assert len(full.crit_edges) == k.num_edges
        assert len(full.crit_triangles) == k.num_triangles
        empty = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal,
                               p=0.0, q_t=0.0)
        assert not len(empty.crit_edges) and not len(empty.crit_triangles)
        assert empty.edge_incidence.shape == (16, 0) and empty.tri_incidence.shape == (16, 0)
        assert phi(empty, range(16)) == pytest.approx(float(a.sal.sum()))

    def test_ceil_cardinality(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        inst = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal,
                              p=20.0, q_t=20.0)
        assert len(inst.crit_edges) == -(-20 * k.num_edges // 100)
        assert len(inst.crit_triangles) == -(-20 * k.num_triangles // 100)

    def test_critical_edges_rank_by_harmonic_magnitude(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        inst = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal, p=10.0)
        cut = sorted(np.abs(a.decomp.harm.values))[-len(inst.crit_edges)]
        assert all(abs(a.decomp.harm.values[e]) >= cut - 1e-15 for e in inst.crit_edges)

    def test_critical_edges_sit_across_clusters(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        inst = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal)
        assign = cluster_assignment(16, 4)
        cross = [assign[k.edges[e][0]] != assign[k.edges[e][1]]
                 for e in inst.crit_edges]
        assert np.mean(cross) > 0.5

    def test_incidence_columns_are_the_critical_simplices(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        inst = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal)
        for inc, simplices in ((inst.edge_incidence, k.edges[inst.crit_edges]),
                               (inst.tri_incidence, k.triangles[inst.crit_triangles])):
            assert inc.dtype == bool and inc.shape == (16, len(simplices))
            for c, simplex in enumerate(simplices):
                assert np.flatnonzero(inc[:, c]).tolist() == sorted(simplex.tolist())

    def test_invalid_percent(self):
        a = self.analysis()
        k = a.filtration.chosen_complex
        with pytest.raises(ValueError):
            build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal, p=150.0)

    def test_one_triplet_barrier_per_triangle(self):
        # an array of another length would misindex the triangles silently
        a = self.analysis()
        k = a.filtration.chosen_complex
        barriers, t = a.filtration.triangle_barriers, k.num_triangles
        for wrong in (barriers[:-1], np.append(barriers, 1.0), barriers.reshape(1, -1)):
            with pytest.raises(ValueError, match=rf"^need one triplet barrier per triangle "
                                                 rf"\({t}\), got shape \(.*\)$"):
                build_coverage(k, a.decomp, wrong, a.sal)

    @pytest.mark.parametrize("weights", [{"lam_e": -1.0}, {"lam_t": -0.5},
                                         {"lam_e": float("nan")}, {"lam_t": float("nan")}])
    def test_invalid_weight(self, weights):
        # a nan weight makes every marginal gain nan, and greedy_select never picks
        a = self.analysis()
        k = a.filtration.chosen_complex
        with pytest.raises(ValueError, match="non-negative"):
            build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal, **weights)


class TestPhi:
    def test_empty_set_scores_zero(self):
        inst = manual_instance(3, [{0}, {1}, {0, 1}], sal=[0.5, 0.2, 0.1])
        assert phi(inst, set()) == 0.0

    def test_full_set_saturates(self):
        inst = manual_instance(3, [{0}, {1}, {0, 1}], sal=[0.5, 0.2, 0.1],
                               lam_e=1.0, lam_t=0.5,
                               tris_by_expert=[{0}, set(), {0}], n_crit_t=1)
        assert phi(inst, {0, 1, 2}) == pytest.approx(0.8 + 1.0 + 0.5)

    def test_monotone(self):
        rng = np.random.default_rng(30)
        inst = manual_instance(6, [set(rng.choice(10, 3)) for _ in range(6)],
                               sal=rng.uniform(size=6), n_crit=10)
        for _ in range(100):
            s = set(rng.choice(6, rng.integers(0, 5), replace=False).tolist())
            i = int(rng.integers(0, 6))
            assert phi(inst, s | {i}) >= phi(inst, s) - 1e-12


class TestGreedy:
    def test_pure_saliency_reduces_to_topk(self):
        sal = [0.1, 0.9, 0.3, 0.7, 0.5]
        inst = manual_instance(5, [set()] * 5, sal=sal, lam_e=0.0, lam_t=0.0)
        assert greedy_select(inst, 3) == (1, 3, 4)

    def test_k4_matching_instances(self):
        # critical edges form a perfect matching; a constant score cannot
        # tell the three instances apart, greedy covers both edges exactly
        matchings = [(((0, 1), (2, 3))), (((0, 2), (1, 3))), (((0, 3), (1, 2)))]
        for matching in matchings:
            incidence = [set() for _ in range(4)]
            for e, (a, b) in enumerate(matching):
                incidence[a].add(e)
                incidence[b].add(e)
            inst = manual_instance(4, incidence, lam_e=1.0)
            chosen = greedy_select(inst, 2)
            covered = set().union(*(incidence[i] for i in chosen))
            assert Fraction(len(covered), 2) == 1
        # any fixed pair covers only half its own matching instance
        for pair in itertools.combinations(range(4), 2):
            worst = min(
                Fraction(len({e for e, m in enumerate(matching) if set(m[e_i]) & set(pair)
                              for e_i in range(2)}), 2) if False else
                Fraction(len(set().union(*[{e for e, edge in enumerate(matching)
                                            if set(edge) & set(pair)}])), 2)
                for matching in [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
            )
            assert worst == Fraction(1, 2)

    def test_tie_break_lowest_index(self):
        inst = manual_instance(4, [{0}, {0}, {1}, {1}], lam_e=1.0)
        assert greedy_select(inst, 2) == (0, 2)

    def test_k_outside_range(self):
        inst = manual_instance(4, [{0}, {0}, {1}, {1}])
        assert greedy_select(inst, 0) == ()
        with pytest.raises(ValueError):
            greedy_select(inst, 5)
        with pytest.raises(ValueError):
            greedy_select(inst, -1)

    def test_guarantee_against_exhaustive_optimum(self):
        rng = np.random.default_rng(31)
        k = 4
        bound = 1.0 - (1.0 - 1.0 / k) ** k
        for _ in range(20):
            incidence = [set(rng.choice(30, rng.integers(1, 8), replace=False).tolist())
                         for _ in range(10)]
            inst = manual_instance(10, incidence, sal=rng.uniform(size=10),
                                   lam_e=1.0, n_crit=30)
            best = max(phi(inst, s) for s in itertools.combinations(range(10), k))
            assert phi(inst, greedy_select(inst, k)) >= bound * best - 1e-12


def redirect_loop(k, barriers, decomp, survivors, alpha=3.0):
    """redirect as first written: an edge-index lookup per (dropped, survivor) pair."""
    surv = sorted(set(int(j) for j in survivors))
    b_norm = float(np.linalg.norm(barriers.pairwise[k.edges[:, 0], k.edges[:, 1]]))
    idx = {(int(i), int(j)): e for e, (i, j) in enumerate(k.edges)}
    mapping = {}
    for i in range(barriers.n):
        if i in surv:
            continue
        best_j, best_cost = -1, np.inf
        for j in surv:
            e = idx.get((min(i, j), max(i, j)))
            harm_e = abs(decomp.harm.values[e]) if e is not None else 0.0
            cost = barriers.pairwise[i, j] * (1.0 + alpha * harm_e / max(b_norm, 1e-12))
            if cost < best_cost:
                best_j, best_cost = j, cost
        mapping[i] = best_j
    return mapping


class TestRedirect:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(120):
            k = random_complex(rng, n_max=12)
            pair = rng.random((k.n, k.n))
            if trial % 3 == 0:  # coarse barriers force exact cost ties
                pair = np.round(pair, 1)
            pair = np.triu(pair, 1) + np.triu(pair, 1).T
            table = BarrierTable(pair, np.full(k.n, 1.0 / k.n))
            d = decompose(k, EdgeSignal(pair[k.edges[:, 0], k.edges[:, 1]]))
            survivors = rng.choice(k.n, size=int(rng.integers(1, k.n + 1)), replace=False)
            for alpha in (0.0, 3.0, -0.5):
                assert redirect(redirect_costs(k, table, d, alpha), survivors) == \
                    redirect_loop(k, table, d, survivors, alpha)

    def test_alpha_zero_is_nearest_barrier(self):
        layer = synth_layer(n=6, clusters=3, seed=23)
        corpus = CalibCorpus.sample(256, 512, 42)
        table = barrier_sweep(layer, corpus)
        k = Complex2(6, complete_edges(6), [])
        d = decompose(k, EdgeSignal(table.pairwise[k.edges[:, 0], k.edges[:, 1]]))
        mapping = redirect(redirect_costs(k, table, d, alpha=0.0), [0, 3])
        for i, j in mapping.items():
            others = [s for s in (0, 3) if s != j]
            assert table.pairwise[i, j] <= min(table.pairwise[i, s] for s in others) + 1e-15

    def test_single_survivor_constant_map(self):
        layer = synth_layer(n=4, clusters=2, seed=24)
        corpus = CalibCorpus.sample(256, 512, 42)
        table = barrier_sweep(layer, corpus)
        k = Complex2(4, complete_edges(4), [])
        d = decompose(k, EdgeSignal(table.pairwise[k.edges[:, 0], k.edges[:, 1]]))
        assert redirect(redirect_costs(k, table, d), [2]) == {0: 2, 1: 2, 3: 2}

    def test_harmonic_term_breaks_barrier_tie(self):
        # cycle 0-1-3-4-0 plus the bridge (0, 2): the cycle flow is fully
        # harmonic on the cycle edges and zero on the bridge, so expert 0
        # redirects away from survivor 1 despite the equal barriers
        k = Complex2(5, [[0, 1], [0, 2], [0, 4], [1, 3], [3, 4]], [])
        flow = EdgeSignal([1.0, 0.0, -1.0, 1.0, 1.0])
        d = decompose(k, flow)
        assert abs(d.harm.values[0]) > 0.5 and abs(d.harm.values[1]) < 1e-12
        pair = np.ones((5, 5)) - np.eye(5)
        table = BarrierTable(pair, np.full(5, 0.4))
        mapping = redirect(redirect_costs(k, table, d, alpha=3.0), [1, 2])
        assert mapping[0] == 2
        # with alpha = 0 the tie falls to the lower survivor index instead
        assert redirect(redirect_costs(k, table, d, alpha=0.0), [1, 2])[0] == 1


class TestAblations:
    def planted(self):
        corpus = CalibCorpus.sample(256, 2048, 42)
        layer = synth_layer(seed=2)
        return analyze_layer(layer, corpus)

    def test_greedy_barrier_recovers_planted_clusters(self):
        # uniform routing keeps barriers proportional to expert geometry,
        # which is the regime where ascending merges see the ground truth
        corpus = CalibCorpus.sample(256, 2048, 42)
        layer = synth_layer(seed=2, router_bias=0.0)
        a = analyze_layer(layer, corpus)
        plan = select_ablation("greedy_barrier", a.table, 4)
        assign = cluster_assignment(16, 4)
        assert plan.merge_groups is not None and len(plan.merge_groups) == 4
        assert all(len(set(assign[list(g)].tolist())) == 1 for g in plan.merge_groups)

    def test_union_find_representative_is_lowest_member(self):
        uf = UnionFind(5)
        uf.union(3, 1)
        uf.union(4, 3)
        assert uf.find(4) == 1
        assert sorted(map(tuple, uf.groups())) == [(0,), (1, 3, 4), (2,)]

    def test_hypergraph_veto_below_all_binds_only_on_triples(self):
        # every tabled triple vetoed: only pair components can form
        table = uniform_table(6, triples=list(itertools.combinations(range(6), 3)))
        plan = unionfind_plan(table, 3, table.pairwise, "triplet_hypergraph",
                              veto_tau=0.5)
        assert all(len(g) <= 2 for g in plan.merge_groups)
        assert plan.params["forced_merges"] == 0

    def test_hypergraph_forced_completion_when_budget_unreachable(self):
        table = uniform_table(5, triples=list(itertools.combinations(range(5), 3)))
        plan = unionfind_plan(table, 1, table.pairwise, "triplet_hypergraph",
                              veto_tau=0.5)
        assert len(plan.merge_groups) == 1
        assert plan.params["forced_merges"] > 0

    def test_hypergraph_uses_median_triplet_threshold(self):
        a = self.planted()
        plan = select_ablation("triplet_hypergraph", a.table, 6)
        tau = plan.params["veto_tau"]
        assert tau == pytest.approx(float(np.median(a.table.triplet)))

    def test_no_triangle_equals_hodgecover_when_triangle_set_empty(self):
        a = self.planted()
        inst = coverage_for(a)
        no_tri = plan_layer(a, 5, "no_triangle")
        bare = CoverageInstance(
            crit_edges=inst.crit_edges, crit_triangles=np.zeros(0, dtype=np.int64),
            edge_incidence=inst.edge_incidence, tri_incidence=np.zeros((inst.n, 0), bool),
            sal=inst.sal, lam_e=inst.lam_e, lam_t=inst.lam_t)
        assert no_tri.survivors == greedy_select(bare, 5)

    def test_triplet_penalty_scales_edge_costs(self):
        a = self.planted()
        plan = select_ablation("triplet_penalty", a.table, 5, alpha_t=1.0)
        assert plan.method == "triplet_penalty"
        assert len(plan.survivors) == 5
        assert plan.merge_groups is not None

    def test_unknown_variant(self):
        a = self.planted()
        with pytest.raises(ValueError, match="unknown"):
            select_ablation("mystery", a.table, 4)


class TestPlans:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SurvivorPlan(n=4, k=2, survivors=(0,), redirect={1: 0, 2: 0, 3: 0}, method="x")
        with pytest.raises(ValueError):
            SurvivorPlan(n=4, k=2, survivors=(0, 1), redirect={2: 0}, method="x")
        with pytest.raises(ValueError):
            SurvivorPlan(n=4, k=2, survivors=(0, 1), redirect={2: 3, 3: 0}, method="x")
        # a plan file's merge groups must be its survivors and their redirects,
        # and come with routing weights
        doc = {"n": 4, "k": 2, "survivors": [0, 2], "redirect": {"1": 0, "3": 0},
               "method": "x"}
        for params in ({"merge_groups": [[0, 1], [2]], "merge_weights": [0.25] * 4},
                       {"merge_groups": [[0, 1, 3], [2]]}, {"merge_weights": [0.25] * 4}):
            with pytest.raises(ValueError, match="disagree"):
                SurvivorPlan.from_json(json.dumps({**doc, "params": params}))
        good = {"merge_groups": [[0, 1, 3], [2]], "merge_weights": [0.25] * 4}
        assert SurvivorPlan.from_json(json.dumps({**doc, "params": good})).merge_groups == \
            ((0, 1, 3), (2,))

    def test_json_round_trip(self):
        plan = SurvivorPlan(n=4, k=2, survivors=(0, 2), redirect={1: 0, 3: 2},
                            method="hodgecover", phi=1.25, alpha=3.0, layer=7,
                            params={"p": 20.0})
        back = SurvivorPlan.from_json(plan.to_json())
        assert back.survivors == plan.survivors
        assert back.redirect == plan.redirect
        assert back.phi == plan.phi and back.alpha == plan.alpha
        assert back.layer == 7 and back.params["p"] == 20.0

    def test_merge_plan_round_trip(self):
        plan = SurvivorPlan(n=4, k=2, survivors=(0, 2), redirect={1: 0, 3: 2},
                            method="greedy_barrier",
                            merge_weights=(0.1, 0.2, 0.3, 0.4))
        back = SurvivorPlan.from_json(plan.to_json())
        assert back.merge_groups == ((0, 1), (2, 3))
        assert back.merge_weights == (0.1, 0.2, 0.3, 0.4)

    def test_select_random_is_seeded(self):
        assert select_random(16, 5, 9) == select_random(16, 5, 9)
        assert len(select_random(16, 5, 9)) == 5


def divmod_uniform(rate, sizes):
    """Uniform allocation by its own arithmetic, as it was before it became
    ``allocate_weighted`` at equal mass: ``divmod`` drops, the remainder to the
    lowest-index layers, then the one-survivor clamp and refill."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    total = int(math.floor(rate * sum(sizes)))
    base, rem = divmod(total, len(sizes))
    drops = [base + (1 if idx < rem else 0) for idx in range(len(sizes))]
    sizes = [int(s) for s in sizes]
    capacity = [s - 1 for s in sizes]
    if total > sum(capacity):
        raise ValueError(
            f"budget {total} exceeds droppable experts {sum(capacity)} under the one-survivor floor")
    clamped = [min(d, c) for d, c in zip(drops, capacity)]
    excess = total - sum(clamped)
    for idx in range(len(sizes)):
        if excess == 0:
            break
        take = min(capacity[idx] - clamped[idx], excess)
        clamped[idx] += take
        excess -= take
    return LayerBudget(rate=rate, total_drops=total,
                       survivors=tuple(s - d for s, d in zip(sizes, clamped)), drops=tuple(clamped))


def allocation(allocate, *args):
    """The budget's fields, or the message of the ``ValueError`` raised."""
    try:
        return dataclasses.astuple(allocate(*args))
    except ValueError as err:
        return str(err)


@given(st.floats(-0.25, 1.25), st.lists(st.integers(-1, 64), max_size=9), st.floats(0.0, 1.5))
@settings(max_examples=500, deadline=None)
def test_uniform_allocation_is_the_divmod_split(rate, sizes, rho):
    want = allocation(divmod_uniform, rate, sizes)
    assert allocation(allocate_uniform, rate, sizes) == want
    assert allocation(allocate_weighted, rate, sizes, [rho] * len(sizes)) == want


class TestAllocators:
    def test_rate_zero_keeps_everything(self):
        budget = allocate_uniform(0.0, [8, 8, 8])
        assert budget.survivors == (8, 8, 8)
        assert budget.total_drops == 0

    def test_even_split(self):
        budget = allocate_uniform(0.5, [8, 8, 8])
        assert budget.total_drops == 12
        assert budget.drops == (4, 4, 4)

    def test_remainder_goes_to_lowest_layers(self):
        # rate tuned so R = 10 over three layers
        budget = allocate_uniform(10.0 / 24.0, [8, 8, 8])
        assert budget.total_drops == 10
        assert budget.drops == (4, 3, 3)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            allocate_uniform(1.0, [8, 8])
        with pytest.raises(ValueError):
            allocate_uniform(-0.1, [8, 8])

    def test_one_survivor_floor_and_conservation(self):
        budget = allocate_uniform(0.9, [4, 64])
        assert budget.total_drops == 61
        assert sum(budget.drops) == 61
        assert all(k >= 1 for k in budget.survivors)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            allocate_uniform(0.9, [2, 2, 2])

    def test_weighted_equals_uniform_under_equal_rho(self):
        sizes = [8, 16, 8, 12]
        for rate in (0.1, 1.0 / 3.0, 0.66):
            uni = allocate_uniform(rate, sizes)
            wei = allocate_weighted(rate, sizes, [0.4, 0.4, 0.4, 0.4])
            assert uni.drops == wei.drops

    def test_high_harmonic_layer_protected(self):
        budget = allocate_weighted(0.5, [16, 16, 16], [0.99, 0.2, 0.2])
        assert budget.drops[0] == min(budget.drops)

    def test_weighted_conservation_fuzz(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            layers = int(rng.integers(1, 8))
            sizes = rng.integers(2, 40, size=layers).tolist()
            rate = float(rng.uniform(0.0, 0.8))
            rho = rng.uniform(0.0, 1.0, size=layers).tolist()
            total = int(np.floor(rate * sum(sizes)))
            if total > sum(s - 1 for s in sizes):
                continue
            for budget in (allocate_uniform(rate, sizes),
                           allocate_weighted(rate, sizes, rho)):
                assert sum(budget.drops) == total
                assert all(1 <= k <= s for k, s in zip(budget.survivors, sizes))

    def test_budget_record(self):
        budget = allocate_uniform(0.25, [8, 8])
        assert isinstance(budget, LayerBudget)
        assert (budget.rate, budget.total_drops) == (0.25, 4)
        assert budget.survivors == (6, 6) and budget.drops == (2, 2)


@pytest.fixture(scope="module")
def synth_analyses():
    """Every layer of the default 4-layer synth models seeded 0 to 5: layer seeds 0 to 8."""
    corpus = CalibCorpus.sample(256, 2048, 42)
    return {seed: analyze_layer(synth_layer(seed=seed), corpus) for seed in range(9)}


class TestArraysMatchSetOracle:
    """The array selector and triplet table against the set-based code in set_oracle."""

    @pytest.mark.parametrize("model_seed", range(6))
    def test_plans_identical_for_every_method_and_k(self, synth_analyses, model_seed):
        for idx in range(4):
            a = synth_analyses[model_seed + idx]
            for k in range(1, 17):
                for method in METHODS:
                    got = plan_layer(a, k, method, layer_id=idx, seed=model_seed + idx)
                    want = set_oracle.plan_layer(a, k, method, layer_id=idx,
                                                 seed=model_seed + idx)
                    # survivors, redirects, merge groups, params; phi by its repr
                    assert got.to_json() == want.to_json(), (model_seed, idx, k, method)
                    assert got.phi == want.phi

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_plans_identical_whatever_order_k_comes_in(self, synth_analyses, order):
        rng = np.random.default_rng(44)
        for seed, a in synth_analyses.items():
            # a fresh analysis and table: the kept state fills in this k order
            a = dataclasses.replace(a, table=dataclasses.replace(a.table))
            ks = range(16, 0, -1) if order == "descending" else (rng.permutation(16) + 1).tolist()
            for k in ks:
                for method in METHODS:
                    got = plan_layer(a, k, method, seed=seed)
                    want = set_oracle.plan_layer(a, k, method, seed=seed)
                    assert got.to_json() == want.to_json(), (seed, k, method)
                    assert got.phi == want.phi

    def test_merge_sequence_replays_the_run_per_k(self, synth_analyses):
        # the last table's veto holds every triple, so small k forces merges
        tables = [a.table for a in synth_analyses.values()]
        tables.append(uniform_table(6, triples=list(itertools.combinations(range(6), 3))))
        forced_seen = 0
        for table in tables:
            pairs = _edge_order(table.pairwise)
            above = table.triples[table.triplet > np.median(table.triplet)]
            for veto in (None, above, table.triples):
                merges = _LazySequence(_merges(table.n, pairs, veto))
                for k in range(table.n, 0, -1):  # each k makes a merge more
                    label = np.arange(table.n)
                    merge_until(label, pairs, k, veto)
                    forced = merge_until(label, pairs, k)
                    plan = _unionfind_plan(table, k, merges, "x",
                                           veto_tau=None if veto is None else 0.0)
                    assert plan.survivors == tuple(np.unique(label).tolist())
                    assert plan.redirect == {i: int(t) for i, t in enumerate(label) if t != i}
                    if veto is not None:
                        assert plan.params["forced_merges"] == forced
                        forced_seen += forced > 0
        assert forced_seen

    def test_phi_bit_for_bit_on_random_sets(self, synth_analyses):
        rng = np.random.default_rng(40)
        for a in synth_analyses.values():
            k = a.filtration.chosen_complex
            for lam_t in (0.0, 0.5):
                inst = build_coverage(k, a.decomp, a.filtration.triangle_barriers, a.sal,
                                      lam_t=lam_t)
                oracle = set_oracle.build_coverage(k, a.decomp,
                                                   set_oracle.triplet_dict(a.table), a.sal,
                                                   lam_t=lam_t)
                assert sorted(inst.crit_edges.tolist()) == sorted(oracle.crit_edges)
                assert sorted(inst.crit_triangles.tolist()) == sorted(oracle.crit_triangles)
                for _ in range(20):
                    s = rng.choice(16, int(rng.integers(0, 17)), replace=False).tolist()
                    assert phi(inst, s) == set_oracle.phi(oracle, s)

    def test_penalty_costs_and_edge_order(self, synth_analyses):
        for a in synth_analyses.values():
            triplet = set_oracle.triplet_dict(a.table)
            for alpha_t in (0.0, 1.0, 2.5):
                costs = _triplet_penalty_costs(a.table, alpha_t)
                assert np.array_equal(
                    costs, set_oracle._triplet_penalty_costs(a.table, triplet, alpha_t))
                for c in (costs, a.table.pairwise, np.round(a.table.pairwise, 2)):
                    assert list(map(tuple, _edge_order(c).tolist())) == \
                        set_oracle._edge_order(c)

    def test_kept_table_constants_equal_fresh_ones(self, synth_analyses):
        for a in synth_analyses.values():
            table = a.table
            for variant in ABLATION_VARIANTS:
                for alpha_t in (0.0, 1.0, 2.5, -0.0):
                    select_ablation(variant, table, 5, alpha_t=alpha_t)
            # compute=None would raise: each constant must already be kept
            kept = [(table.constant("pair_order", None), _edge_order(table.pairwise))]
            kept += [(table.constant(("penalty_order", alpha_t.hex()), None),
                      _edge_order(_triplet_penalty_costs(table, alpha_t)))
                     for alpha_t in (0.0, 1.0, 2.5)]
            tau_t, veto = table.constant("median_veto", None)
            assert tau_t == float(np.percentile(table.triplet, 50))
            kept.append((veto, table.triples[table.triplet > tau_t]))
            pairs = _edge_order(table.pairwise)
            merges = [(("merges", "pair_order"), _merges(table.n, pairs)),
                      (("merges", "median_veto"), _merges(table.n, pairs, veto))]
            merges += [(("merges", "penalty_order", alpha_t.hex()),
                        _merges(table.n, _edge_order(_triplet_penalty_costs(table, alpha_t))))
                       for alpha_t in (0.0, 1.0, 2.5)]
            for key, fresh in merges:
                assert table.constant(key, None).first(table.n) == list(fresh)
            for got, want in kept:
                assert np.array_equal(got, want)
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = got[-1]

    def test_small_and_tied_tables(self):
        # ties in every pairwise barrier and every triplet barrier, at each k
        rng = np.random.default_rng(42)
        for n in (3, 4, 5, 7):
            for trial in range(6):
                pair = np.round(rng.random((n, n)), 1)
                pair = np.triu(pair, 1) + np.triu(pair, 1).T
                triples = [t for t in itertools.combinations(range(n), 3) if rng.random() < 0.6]
                vals = np.round(rng.random(len(triples)), 1)
                table = BarrierTable(pair, np.full(n, 1.0 / n), triples, vals)
                triplet = set_oracle.triplet_dict(table)
                tau = float(np.median(vals)) if len(vals) else np.inf
                for k in range(1, n + 1):
                    for veto in (None, tau, -1.0):
                        got = unionfind_plan(table, k, pair, "x", veto_tau=veto)
                        want = set_oracle._unionfind_plan(table, triplet, k, pair, "x",
                                                          veto_tau=veto)
                        assert got.to_json() == want.to_json(), (n, trial, k, veto)
