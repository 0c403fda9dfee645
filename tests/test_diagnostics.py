import numpy as np
import pytest

from hodgecover.complexes import Complex2, EdgeSignal, complete_edges
from hodgecover.diagnostics import (CSV_HEADER, RetainedMass, diagnose_model,
                                    diagnostics_csv, discordance, mechanism_table,
                                    retained_mass)
from hodgecover.hodge import decompose
from hodgecover.moe import CalibCorpus, barrier_sweep, plant_discordant_triple, synth_layer
from hodgecover.pipeline import analyze_layer
from set_oracle import table_from_dict


def table_with_triplets(n, pairwise_value, triplets):
    m = np.full((n, n), pairwise_value)
    np.fill_diagonal(m, 0.0)
    return table_from_dict(m, triplets, np.full(n, 0.25))


class TestDiscordance:
    def test_zero_triplets_score_zero(self):
        table = table_with_triplets(4, 1.0, {(0, 1, 2): 0.0, (0, 1, 3): 0.0})
        cand = np.array([[0, 1, 2], [0, 1, 3]])
        assert discordance(table, cand) == 0.0

    def test_margin_is_strict(self):
        table = table_with_triplets(4, 1.0, {(0, 1, 2): 1.2, (0, 1, 3): 1.2001})
        cand = np.array([[0, 1, 2], [0, 1, 3]])
        assert discordance(table, cand) == 0.5

    def test_planted_discordant_triple_scores_one(self):
        layer = plant_discordant_triple(synth_layer(seed=0), (0, 1, 2), seed=500)
        corpus = CalibCorpus.sample(256, 2048, 42)
        table = barrier_sweep(layer, corpus, [(0, 1, 2)])
        assert discordance(table, np.array([[0, 1, 2]])) == 1.0

    def test_matches_literal_count_on_swept_layer(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        a = analyze_layer(synth_layer(seed=3), corpus)
        pw = a.table.pairwise
        triplet = dict(zip(map(tuple, a.table.triples.tolist()), a.table.triplet.tolist()))
        hits = sum(triplet[(i, j, k)] > 1.2 * max(pw[i, j], pw[i, k], pw[j, k])
                   for i, j, k in a.candidates.tolist())
        got = discordance(a.table, a.candidates)
        assert type(got) is float  # diagnostics.csv writes its repr
        assert got == hits / len(a.candidates)

    def test_empty_candidates_rejected(self):
        table = table_with_triplets(4, 1.0, {})
        with pytest.raises(ValueError, match="empty"):
            discordance(table, np.zeros((0, 3)))


class TestRetainedMass:
    def fixture(self):
        rng = np.random.default_rng(50)
        k = Complex2(6, complete_edges(6), [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        b = EdgeSignal(rng.uniform(0.1, 2.0, size=k.num_edges))
        triplets = {(0, 1, 2): 0.9, (1, 2, 3): 0.4, (2, 3, 4): 1.5}
        return k, decompose(k, b), triplets, table_with_triplets(6, 1.0, triplets)

    def test_full_and_empty_survivor_sets(self):
        k, d, triplets, table = self.fixture()
        full = retained_mass(k, d, table, range(6))
        assert full.as_dict() == {"harm": 1.0, "grad": 1.0, "curl": 1.0, "triplet": 1.0}
        empty = retained_mass(k, d, table, [])
        assert empty.as_dict() == {"harm": 0.0, "grad": 0.0, "curl": 0.0, "triplet": 0.0}

    def test_matches_literal_summation(self):
        k, d, triplets, table = self.fixture()
        survivors = {1, 4}
        got = retained_mass(k, d, table, survivors)
        for name, values in (("harm", d.harm.values), ("grad", d.grad.values),
                             ("curl", d.curl.values)):
            num = sum(abs(values[e]) for e, (i, j) in enumerate(k.edges)
                      if i in survivors or j in survivors)
            assert got.as_dict()[name] == pytest.approx(num / np.abs(values).sum())
        tri_num = sum(abs(v) for t, v in triplets.items() if set(t) & survivors)
        assert got.triplet == pytest.approx(tri_num / sum(abs(v) for v in triplets.values()))

    def test_monotone_under_growth(self):
        k, d, triplets, table = self.fixture()
        rng = np.random.default_rng(51)
        for _ in range(50):
            small = set(rng.choice(6, rng.integers(0, 4), replace=False).tolist())
            big = small | set(rng.choice(6, 2).tolist())
            lo = retained_mass(k, d, table, small).as_dict()
            hi = retained_mass(k, d, table, big).as_dict()
            assert all(lo[key] <= hi[key] + 1e-12 for key in lo)


def diagnose_layers(layers, corpus):
    return diagnose_model([analyze_layer(layer, corpus) for layer in layers])


class TestDiagnoseModel:
    def test_energy_closure_and_schema(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=s) for s in (0, 1)]
        diags = diagnose_layers(layers, corpus)
        assert [d.layer for d in diags] == [0, 1]
        for d in diags:
            assert d.rho_harm + d.rho_grad + d.rho_curl == pytest.approx(1.0, abs=1e-8)
            assert 0.0 <= d.delta <= 1.0
            assert d.beta1 >= 0
        csv = diagnostics_csv(diags)
        assert csv.splitlines()[0] == CSV_HEADER
        assert len(csv.splitlines()) == 3

    def test_deterministic(self):
        corpus = CalibCorpus.sample(256, 1024, 42)
        layers = [synth_layer(seed=9)]
        a = diagnose_layers(layers, corpus)[0]
        b = diagnose_layers(layers, corpus)[0]
        assert (a.rho_harm, a.rho_grad, a.rho_curl, a.delta, a.beta1) == \
               (b.rho_harm, b.rho_grad, b.rho_curl, b.delta, b.beta1)

    def test_easy_collinear_layer_scores_low_on_both(self):
        # experts spaced along one direction: the joint merge of any close
        # triple costs about as much as its worst pair, and the barrier
        # pattern is nearly a line potential, so both diagnostics drop
        from hodgecover.moe import MoeLayer

        rng = np.random.default_rng(9)
        n, vocab, ctx = 8, 32, 256
        direction = rng.normal(0, 1, vocab)
        direction /= np.linalg.norm(direction)
        logits = rng.normal(0, 1.0, vocab) + np.outer(np.linspace(0, 1, n), direction) * 2.0
        layer = MoeLayer(n, vocab, ctx, 2, logits, rng.normal(0, 3.0, (n, ctx)))
        corpus = CalibCorpus.sample(256, 1024, 42)
        d = diagnose_layers([layer], corpus)[0]
        easy = diagnose_layers([synth_layer(seed=9)], corpus)[0]
        assert d.delta < 0.3 < easy.delta
        assert d.rho_harm < 0.15 < easy.rho_harm


class TestMechanism:
    def test_reference_deviation_is_zero(self):
        masses = {
            "hodgecover": RetainedMass(0.7, 0.6, 0.4, 0.5),
            "random": RetainedMass(0.5, 0.5, 0.6, 0.7),
        }
        table = mechanism_table(masses)
        assert all(v == 0.0 for v in table["hodgecover"].values())
        assert table["random"]["harm"] == pytest.approx(-0.2)

    def test_missing_reference(self):
        with pytest.raises(ValueError):
            mechanism_table({"random": RetainedMass(1, 1, 1, 1)})
