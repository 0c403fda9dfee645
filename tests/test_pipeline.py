import numpy as np
import pytest

from hodgecover.complexes import betti1
from hodgecover.moe import CalibCorpus, compression_loss, synth_layer
from hodgecover import pipeline
from hodgecover.pipeline import (COVERAGE_METHODS, METHODS, SelectorParams, analyze_layer,
                                 compress_model, hybrid_prune, hybrid_stage2, model_loss,
                                 plan_layer)
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
        assert a.complex.num_triangles == len(a.candidates)
        assert a.beta1 > 0
        assert a.beta1 == betti1(a.complex, a.incidence)

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
        a, _ = default_analysis
        built = []
        original = pipeline.build_coverage
        monkeypatch.setattr(pipeline, "build_coverage",
                            lambda *args, **kw: built.append(1) or original(*args, **kw))
        for method in METHODS:
            before = len(built)
            plan = plan_layer(a, 6, method)
            assert len(built) - before == (method in COVERAGE_METHODS)
            assert (plan.phi is not None) == (method in COVERAGE_METHODS)

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
        r2, pruned = hybrid_stage2(layers, corpus, plans, r_total=0.66, r1=0.20)
        assert r2 == pytest.approx(0.575, abs=1e-12)
        assert set(pruned[0]) == set(plans[0].survivors)
        base = model_loss(layers, corpus, plans)
        hybrid = model_loss(layers, corpus, plans, pruned)
        assert np.isfinite(hybrid) and hybrid >= base - 1e-12

    def test_hybrid_prune_returns_masks_from_the_same_pass(self, monkeypatch):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=s) for s in (7, 8)]
        plans = compress_model([analyze_layer(layer, corpus) for layer in layers],
                               [12, 10], "hodgecover")
        calls = []
        monkeypatch.setattr(pipeline, "prune_survivors",
                            lambda *args: calls.append(1) or prune_survivors(*args))
        r2, pruned, masks = hybrid_prune(layers, corpus, plans, r_total=0.66, r1=0.20)
        assert len(calls) == len(layers)
        assert r2 == pytest.approx(0.575, abs=1e-12)
        for layer, plan, got_pruned, got_masks in zip(layers, plans, pruned, masks):
            want_pruned, want_masks = prune_survivors(layer, corpus, plan.survivors, r2)
            assert masks_to_json(got_masks) == masks_to_json(want_masks)
            assert all(np.array_equal(got_pruned[j], want_pruned[j]) for j in want_pruned)

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
