import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hodgecover import builder, oracles
from hodgecover.diagnostics import DISCORDANCE_MARGIN, discordance
from hodgecover.moe import (BarrierTable, CalibCorpus, MoeLayer, barrier_sweep, compression_loss,
                            plant_discordant_triple, synth_layer)
from hodgecover import pipeline
from hodgecover.pipeline import (REDIRECT_METHODS, METHODS, SelectorParams, analyze_layer,
                                 compress_model, hybrid_prune, hybrid_stage2, model_loss,
                                 plan_layer)
from hodgecover.oracles import betti1
from hodgecover.selector import allocate_uniform
from hodgecover.wanda import masks_to_json, prune_survivors


@pytest.fixture(scope="module")
def default_analysis():
    corpus = CalibCorpus.sample(256, 2048, 42)
    return analyze_layer(synth_layer(seed=0), corpus), corpus


class TestAnalyzeLayer:
    def test_complete_complex_and_full_candidates(self, default_analysis):
        a, _ = default_analysis
        assert a.complex.num_edges == 120
        assert a.complex.num_triangles == len(a.table.triples)
        assert a.beta1 > 0
        assert a.beta1 == betti1(a.complex)

    def test_harmonic_fraction_in_reported_band(self, default_analysis):
        # the per-layer share of barrier energy that is harmonic sits in
        # the 29-62% band on the default planted layer
        a, _ = default_analysis
        assert 0.29 <= a.decomp.energy_harm <= 0.62

    def test_signal_alignment(self, default_analysis):
        a, _ = default_analysis
        e = 17
        i, j = a.complex.edges[e]
        assert a.signal.values[e] == a.table.pairwise[i, j]



@pytest.mark.parametrize("n, clusters", [(2, 1), (16, 4), (32, 4)])
def test_table_triples_are_stage_a_rows(n, clusters):
    # Stage B and the discordance read the table's triples as the candidate
    # triangles, so they must be Stage A's rows in Stage A's order: at a cap
    # above the median subgraph's 3-clique count, and at one below it, where
    # Stage A subsamples
    layer, corpus = synth_layer(n=n, clusters=clusters, seed=5), CalibCorpus.sample(256, 1024, 42)
    pairs = barrier_sweep(layer, corpus)
    cliques = len(builder.stage_a_candidates(pairs, cap=10**9))
    for cap, seed in ((cliques + 1, 42), (cliques // 2, 7)):
        rows = builder.stage_a_candidates(pairs, cap=cap, seed=seed)
        assert len(rows) == min(cap, cliques)
        a = analyze_layer(layer, corpus, cap=cap, seed=seed)
        assert a.table.triples.dtype == rows.dtype and np.array_equal(a.table.triples, rows)
        if not len(rows):
            with pytest.raises(ValueError, match="empty"):
                discordance(a.table)
            continue
        pw = a.table.pairwise
        triplet = dict(zip(map(tuple, a.table.triples.tolist()), a.table.triplet.tolist()))
        hits = sum(triplet[(i, j, k)] > DISCORDANCE_MARGIN * max(pw[i, j], pw[i, k], pw[j, k])
                   for i, j, k in rows.tolist())
        assert discordance(a.table) == hits / len(rows)


def test_analysis_and_plans_form_no_dense_incidence(monkeypatch):
    # the analysis reads the complex alone: with build_incidence refused in every
    # module that can reach it, an n = 64 layer is analysed, planned by every
    # method, pruned and evaluated
    def refuse(k):
        raise AssertionError("dense incidence formed on the analysis path")

    for module in (oracles, builder, pipeline):
        monkeypatch.setattr(module, "build_incidence", refuse)
    corpus = CalibCorpus.sample(256, 1024, 42)
    layer = synth_layer(n=64, seed=0)
    a = analyze_layer(layer, corpus)
    assert a.complex.num_edges == 2016 and a.complex.num_triangles == 500
    for method in METHODS:
        plan = plan_layer(a, 21, method)
        assert np.isfinite(model_loss([layer], corpus, [plan]))
    _, masks = hybrid_prune([layer], corpus, [plan_layer(a, 21, "hodgecover")], 0.66, 0.20)
    assert np.isfinite(model_loss([layer], corpus, [plan_layer(a, 21, "hodgecover")], masks))


class TestPlanLayer:
    def test_every_method_produces_valid_plan(self, default_analysis):
        a, corpus = default_analysis
        for method in METHODS:
            plan = plan_layer(a, 6, method, layer_id=3, seed=1)
            assert plan.k == 6 and len(plan.survivors) == 6
            assert plan.method == method and plan.layer == 3
            assert set(plan.redirect) == set(range(16)) - set(plan.survivors)
            loss = compression_loss(a.layer, corpus, plan)
            assert np.isfinite(loss) and loss >= 0.0

    def test_unknown_method(self, default_analysis):
        a, _ = default_analysis
        with pytest.raises(ValueError, match="unknown method"):
            plan_layer(a, 6, "oracle")

    def test_coverage_built_once_and_only_where_read(self, default_analysis, monkeypatch):
        a = dataclasses.replace(default_analysis[0])  # keeps no coverage instance yet
        built = []
        original = pipeline.build_coverage
        monkeypatch.setattr(pipeline, "build_coverage",
                            lambda *args, **kw: built.append(kw) or original(*args, **kw))
        for k in (6, 3, 12, 6):
            for method in METHODS:
                before = len(built)
                plan = plan_layer(a, k, method, SelectorParams())
                if method not in REDIRECT_METHODS:
                    assert len(built) == before
                assert (plan.phi is not None) == (method in REDIRECT_METHODS)
        # one build per analysis and coverage parameters: hodgecover and random
        # share theirs, no_triangle zeroes lam_t
        assert [kw["lam_t"] for kw in built] == [0.5, 0.0]
        plan_layer(a, 6, "hodgecover", SelectorParams(p=30.0))
        plan_layer(dataclasses.replace(a), 6, "random")
        assert [(kw["p"], kw["lam_t"]) for kw in built[2:]] == [(30.0, 0.5), (20.0, 0.5)]

    def test_kept_coverage_is_read_only_and_owns_its_saliency(self, default_analysis):
        a = dataclasses.replace(default_analysis[0])
        inst = pipeline.coverage_for(a)
        assert not np.shares_memory(inst.sal, a.sal) and np.array_equal(inst.sal, a.sal)
        for kept in (inst.crit_edges, inst.crit_triangles, inst.edge_incidence,
                     inst.tri_incidence, inst.sal):
            with pytest.raises(ValueError, match="read-only"):
                kept[...] = kept

    def test_kept_state_freed_with_the_analysis(self, default_analysis):
        a = dataclasses.replace(default_analysis[0],
                                table=dataclasses.replace(default_analysis[0].table))
        for k in (6, 3):
            for method in METHODS:
                plan_layer(a, k, method)
        kept = [weakref.ref(x) for x in (pipeline.coverage_for(a), a.table, a)]
        gc.disable()  # no reference cycle may hold the kept state
        try:
            del a
            assert [r() for r in kept] == [None] * 3
        finally:
            gc.enable()

    def test_hodgecover_phi_recorded(self, default_analysis):
        a, _ = default_analysis
        plan = plan_layer(a, 6, "hodgecover")
        assert plan.phi is not None and plan.phi > 0.0
        assert plan.alpha == 3.0


class TestModelFlow:
    def test_compress_model_and_loss(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        heldout = CalibCorpus.sample(256, 1024, 43)
        layers = [synth_layer(seed=s) for s in (0, 1)]
        analyses = [analyze_layer(layer, corpus) for layer in layers]
        budget = allocate_uniform(0.5, [16, 16])
        plans = compress_model(analyses, budget.survivors, "hodgecover")
        assert [p.layer for p in plans] == [0, 1]
        loss = model_loss(layers, heldout, plans)
        assert np.isfinite(loss) and loss >= 0.0

    def test_hybrid_stage2_prunes_survivor_weights(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=7)]
        analyses = [analyze_layer(layers[0], corpus)]
        plans = compress_model(analyses, [12], "hodgecover")
        r2, masks = hybrid_stage2(layers, corpus, plans, r_total=0.66, r1=0.20)
        assert hybrid_stage2 is hybrid_prune
        assert r2 == pytest.approx(0.575, abs=1e-12)
        assert set(masks[0]) == set(plans[0].survivors)
        base = model_loss(layers, corpus, plans)
        hybrid = model_loss(layers, corpus, plans, masks)
        assert np.isfinite(hybrid) and hybrid >= base - 1e-12

    def test_masks_with_merge_plans_rejected(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=7)]
        analyses = [analyze_layer(layers[0], corpus)]
        redirect_plans = compress_model(analyses, [12], "hodgecover")
        merge_plans = compress_model(analyses, [12], "greedy_barrier")
        _, masks = hybrid_prune(layers, corpus, redirect_plans, r_total=0.66, r1=0.20)
        assert np.isfinite(model_loss(layers, corpus, merge_plans))
        with pytest.raises(ValueError, match="bit-exact survivors; 'greedy_barrier'"):
            model_loss(layers, corpus, merge_plans, masks)

    def test_one_plan_and_mask_set_per_layer(self):
        # zip would cut every list to the shortest and drop layers from the mean
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(n=8, clusters=2, seed=s) for s in (7, 8)]
        plans = compress_model([analyze_layer(layer, corpus) for layer in layers],
                               [4, 4], "hodgecover")
        _, masks = hybrid_prune(layers, corpus, plans, r_total=0.66, r1=0.20)
        assert np.isfinite(model_loss(layers, corpus, plans, masks))
        for args in ((layers, plans[:1]), (layers[:1], plans), (layers, plans, masks[:1]),
                     (layers[:1], plans[:1], masks)):
            with pytest.raises(ValueError, match="zip"):
                model_loss(args[0], corpus, *args[1:])
        for args in ((layers, plans[:1]), (layers[:1], plans)):
            with pytest.raises(ValueError, match="zip"):
                hybrid_prune(*args[:1], corpus, *args[1:], r_total=0.66, r1=0.20)

    def test_hybrid_prune_returns_masks_from_the_same_pass(self, monkeypatch):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=s) for s in (7, 8)]
        plans = compress_model([analyze_layer(layer, corpus) for layer in layers],
                               [12, 10], "hodgecover")
        calls = []
        monkeypatch.setattr(pipeline, "prune_survivors",
                            lambda *args: calls.append(1) or prune_survivors(*args))
        r2, masks = hybrid_prune(layers, corpus, plans, r_total=0.66, r1=0.20)
        assert len(calls) == len(layers)
        assert r2 == pytest.approx(0.575, abs=1e-12)
        for layer, plan, got_masks in zip(layers, plans, masks):
            want_masks = prune_survivors(layer, corpus, plan.survivors, r2)
            assert masks_to_json(got_masks) == masks_to_json(want_masks)

    def test_mismatched_budget_length(self):
        corpus = CalibCorpus.sample(256, 512, 42)
        analyses = [analyze_layer(synth_layer(seed=0), corpus)]
        with pytest.raises(ValueError):
            compress_model(analyses, [4, 4], "hodgecover")

    def test_selector_params_defaults(self):
        params = SelectorParams()
        assert (params.p, params.q_t) == (20.0, 20.0)
        assert (params.lam_e, params.lam_t) == (1.0, 0.5)
        assert params.alpha == 3.0

    def test_model_loss_calls_compression_loss_once_per_layer(self, monkeypatch):
        # perfbench/tracing.py times moe.compression_loss at this call site
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=s) for s in (7, 8, 9)]
        plans = compress_model([analyze_layer(layer, corpus) for layer in layers],
                               [12, 10, 8], "hodgecover")
        _, masks = hybrid_stage2(layers, corpus, plans, r_total=0.66, r1=0.20)
        calls = []
        monkeypatch.setattr(pipeline, "compression_loss",
                            lambda *args: calls.append(1) or compression_loss(*args))
        for extra in (None, masks):
            calls.clear()
            model_loss(layers, corpus, plans, extra)
            assert len(calls) == len(layers)


def fresh_copy(analysis):
    """The analysis with a new layer and table: nothing computed on either yet."""
    layer, table = analysis.layer, analysis.table
    return dataclasses.replace(
        analysis,
        layer=MoeLayer(layer.n, layer.vocab, layer.ctx, layer.fanout,
                       layer.expert_logits.copy(), layer.router_logits.copy(), layer.seed),
        table=BarrierTable(table.pairwise.copy(), table.routing_freq.copy(),
                           table.triples.copy(), table.triplet.copy()))


def test_plans_and_losses_do_not_depend_on_what_was_planned_before():
    # the layer keeps its held-out outputs and the table its merge orders and
    # veto; plans and losses over a shuffled (k, method, alpha_t) order on one
    # analysis equal those on fresh copies
    corpus = CalibCorpus.sample(256, 1024, 42)
    heldout = CalibCorpus.sample(256, 1024, 43)
    layer = plant_discordant_triple(synth_layer(seed=3), (0, 1, 2), seed=500)
    shared = analyze_layer(layer, corpus)
    cases = [(k, method, alpha_t) for k in range(1, 17) for method in METHODS
             for alpha_t in ((0.0, 1.0, 2.5) if method == "triplet_penalty" else (1.0,))]
    order = np.random.default_rng(0).permutation(len(cases))
    for idx in (*order, *order[::-1]):
        k, method, alpha_t = cases[idx]
        params = SelectorParams(alpha_t=alpha_t)
        got = plan_layer(shared, k, method, params, seed=k)
        fresh = fresh_copy(shared)
        want = plan_layer(fresh, k, method, params, seed=k)
        assert got.to_json() == want.to_json(), (k, method, alpha_t)
        assert compression_loss(shared.layer, heldout, got) == \
            compression_loss(fresh.layer, CalibCorpus(heldout.contexts.copy(), 43, 1024), want)
        if method == "hodgecover" and k < 16:
            _, masks = hybrid_stage2([shared.layer], corpus, [got], 0.66, 0.20)
            _, fresh_masks = hybrid_stage2([fresh.layer], corpus, [want], 0.66, 0.20)
            assert model_loss([shared.layer], heldout, [got], masks) == \
                model_loss([fresh.layer], heldout, [want], fresh_masks)
