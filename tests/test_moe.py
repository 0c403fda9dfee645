import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from hodgecover.builder import stage_a_candidates
from hodgecover.moe import (BarrierTable, CalibCorpus, MoeLayer, _fold_router, _logsumexp,
                            _merge_kls, _mixture_outputs, _softmax, barrier_sweep,
                            cluster_assignment, compressed_symbol_outputs, compression_loss,
                            extend_triplets, kl_rows, layer_symbol_outputs,
                            merged_distribution, plant_discordant_triple, routing_frequencies,
                            saliency, synth_layer)
from hodgecover.selector import SurvivorPlan
from hodgecover.wanda import expert_weight_matrix, prune_survivors
from merge_oracle import (_mean_merge_kl, layer_output, merge_experts, pairwise_barrier,
                          triplet_barrier)


def small_corpus(ctx=256, size=512, seed=42):
    return CalibCorpus.sample(ctx, size, seed)


# ---------------------------------------------------------------------------
# independent transcription of the barrier definition: explicit token loop,
# explicit sorting, no shared helpers with the implementation under test

def oracle_softmax(v):
    e = [math.exp(x - max(v)) for x in v]
    return [x / sum(e) for x in e]


def oracle_layer_output(dists, router, fanout, x):
    logits = [router[i][x] for i in range(len(dists))]
    order = sorted(range(len(dists)), key=lambda i: (-logits[i], i))[:fanout]
    weights = oracle_softmax([logits[i] for i in order])
    out = [0.0] * len(dists[0])
    for w, i in zip(weights, order):
        for v in range(len(out)):
            out[v] += w * dists[i][v]
    return out


def oracle_pairwise(layer, corpus, i, j):
    n, fanout = layer.n, layer.fanout
    dists = layer.expert_dists.tolist()
    router = layer.router_logits.tolist()
    freq = [0.0] * n
    for x in corpus.contexts.tolist():
        logits = [router[e][x] for e in range(n)]
        for e in sorted(range(n), key=lambda e: (-logits[e], e))[:fanout]:
            freq[e] += 1.0 / corpus.size
    total = freq[i] + freq[j]
    if total >= 1e-12:
        merged = [(freq[i] * a + freq[j] * b) / total for a, b in zip(dists[i], dists[j])]
    else:
        merged = [(a + b) / 2.0 for a, b in zip(dists[i], dists[j])]
    new_dists = [d for e, d in enumerate(dists) if e != j] if i < j else None
    assert i < j
    new_dists[i] = merged
    new_router = [r for e, r in enumerate(router) if e != j]
    new_router[i] = [math.log(math.exp(a - max(a, b)) + math.exp(b - max(a, b))) + max(a, b)
                     for a, b in zip(router[i], router[j])]
    total_kl = 0.0
    for x in corpus.contexts.tolist():
        p = oracle_layer_output(dists, router, fanout, x)
        q = oracle_layer_output(new_dists, new_router, min(fanout, n - 1), x)
        total_kl += sum(pv * (math.log(pv) - math.log(max(qv, 1e-12)))
                        for pv, qv in zip(p, q) if pv > 0.0)
    return total_kl / corpus.size


class TestSynth:
    def test_deterministic(self):
        a, b = synth_layer(seed=5), synth_layer(seed=5)
        assert np.array_equal(a.expert_logits, b.expert_logits)
        assert np.array_equal(a.router_logits, b.router_logits)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synth_layer(n=4, clusters=5)
        with pytest.raises(ValueError):
            synth_layer(vocab=1)
        with pytest.raises(ValueError):
            MoeLayer(4, 8, 8, 5, np.zeros((4, 8)), np.zeros((4, 8)))

    def test_no_sharing_barriers_bounded_away_from_zero(self):
        layer = synth_layer(clusters=16, seed=3, router_bias=0.0)
        up = barrier_sweep(layer, small_corpus(size=2048)).upper_entries()
        assert up.min() > np.median(up) / 10

    def test_single_cluster_zero_noise_barriers_vanish(self):
        layer = synth_layer(clusters=1, noise=0.0, seed=4)
        up = barrier_sweep(layer, small_corpus()).upper_entries()
        assert np.abs(up).max() < 1e-10

    def test_default_four_block_structure(self):
        layer = synth_layer(seed=0)
        table = barrier_sweep(layer, small_corpus(size=2048))
        assign = cluster_assignment(16, 4)
        intra, cross = [], []
        for i in range(16):
            for j in range(i + 1, 16):
                (intra if assign[i] == assign[j] else cross).append(table.pairwise[i, j])
        assert np.mean(intra) < np.mean(cross)

    def test_unequal_cluster_sizes(self):
        assign = cluster_assignment(16, 4, (10, 2, 2, 2))
        assert assign.tolist() == [0] * 10 + [1, 1, 2, 2, 3, 3]
        with pytest.raises(ValueError):
            cluster_assignment(16, 4, (9, 2, 2, 2))


class TestLayerOutput:
    def test_distributions_sum_to_one(self):
        layer = synth_layer(seed=1)
        for x in (0, 17, 255):
            out = layer_output(layer, x)
            assert out.sum() == pytest.approx(1.0, abs=1e-10)
            assert (out >= 0).all()

    def test_full_fanout_is_full_mixture(self):
        layer = synth_layer(n=4, clusters=2, fanout=4, seed=2)
        x = 7
        gates = np.exp(layer.router_logits[:, x] - layer.router_logits[:, x].max())
        gates /= gates.sum()
        expected = gates @ layer.expert_dists
        assert np.allclose(layer_output(layer, x), expected, atol=1e-12)

    def test_fanout_one_is_single_expert(self):
        layer = synth_layer(n=4, clusters=2, fanout=1, seed=2)
        x = 11
        top = np.argmax(layer.router_logits[:, x])
        assert np.allclose(layer_output(layer, x), layer.expert_dists[top], atol=1e-12)

    def test_two_experts_symmetric_router_gives_uniform_mixture(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 1.5]])
        router = np.zeros((2, 4))
        layer = MoeLayer(2, 3, 4, 2, logits, router)
        expected = 0.5 * layer.expert_dists[0] + 0.5 * layer.expert_dists[1]
        assert np.allclose(layer_output(layer, 0), expected, atol=1e-14)

    def test_context_out_of_range(self):
        with pytest.raises(ValueError):
            layer_output(synth_layer(seed=0), 256)


class TestMerge:
    def test_equal_freqs_plain_average(self):
        layer = synth_layer(seed=6)
        freqs = np.full(16, 0.125)
        m = merged_distribution(layer.expert_dists, [2, 5], freqs)
        assert np.allclose(m, layer.expert_dists[[2, 5]].mean(axis=0), atol=1e-14)

    def test_zero_weight_member_collapses(self):
        layer = synth_layer(seed=6)
        freqs = np.zeros(16)
        freqs[5] = 0.3
        m = merged_distribution(layer.expert_dists, [2, 5], freqs)
        assert np.array_equal(m, layer.expert_dists[5])

    def test_all_zero_freq_falls_back_to_average(self):
        layer = synth_layer(seed=6)
        m = merged_distribution(layer.expert_dists, [2, 5, 9], np.zeros(16))
        assert np.isfinite(m).all()
        assert np.allclose(m, layer.expert_dists[[2, 5, 9]].mean(axis=0), atol=1e-14)

    def test_group_size_validation(self):
        layer = synth_layer(seed=6)
        freqs = routing_frequencies(layer, small_corpus())
        with pytest.raises(ValueError):
            merge_experts(layer, [1], freqs)
        with pytest.raises(ValueError):
            merge_experts(layer, [0, 1, 2, 3], freqs)
        with pytest.raises(ValueError):
            merge_experts(layer, [0, 0], freqs)

    def test_merged_layer_outputs_are_distributions(self):
        layer = synth_layer(seed=6)
        corpus = small_corpus()
        merged = merge_experts(layer, [0, 1], routing_frequencies(layer, corpus))
        out = merged.outputs([3])[0]
        assert out.sum() == pytest.approx(1.0, abs=1e-10)


class TestBarriers:
    def test_identical_experts_zero_barrier(self):
        layer = synth_layer(clusters=1, noise=0.0, seed=7)
        assert pairwise_barrier(layer, small_corpus(), 3, 9) < 1e-9

    def test_symmetry(self):
        layer = synth_layer(n=6, clusters=3, seed=8)
        corpus = small_corpus()
        assert pairwise_barrier(layer, corpus, 1, 4) == pairwise_barrier(layer, corpus, 4, 1)

    def test_pairwise_matches_literal_oracle(self):
        layer = synth_layer(n=3, vocab=5, ctx=16, fanout=2, clusters=3, seed=9)
        corpus = small_corpus(ctx=16, size=64)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert pairwise_barrier(layer, corpus, i, j) == pytest.approx(
                oracle_pairwise(layer, corpus, i, j), rel=1e-10, abs=1e-12)

    def test_triplet_identical_zero(self):
        layer = synth_layer(clusters=1, noise=0.0, seed=7)
        assert triplet_barrier(layer, small_corpus(), 0, 5, 11) < 1e-9

    def test_triplet_permutation_invariant(self):
        layer = synth_layer(n=6, clusters=2, seed=10)
        corpus = small_corpus()
        vals = {triplet_barrier(layer, corpus, *p)
                for p in ((0, 2, 4), (4, 0, 2), (2, 4, 0))}
        assert len(vals) == 1

    def test_planted_discordant_triple_exceeds_margin(self):
        layer = plant_discordant_triple(synth_layer(seed=0), (0, 1, 2), seed=500)
        corpus = small_corpus(size=2048)
        joint = triplet_barrier(layer, corpus, 0, 1, 2)
        worst = max(pairwise_barrier(layer, corpus, a, b)
                    for a, b in ((0, 1), (0, 2), (1, 2)))
        assert joint > 1.2 * worst

    def test_kl_rows_matches_the_where_form(self):
        # kl_rows as first written, one temporary per step
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(7), size=40)
        q = rng.dirichlet(np.full(7, 0.05), size=40)
        p[:5, :3] = 0.0
        q[5:9, 2:] = 1e-300
        log_p = np.log(np.maximum(p, 1e-12))
        want = np.where(p > 0.0, p * (log_p - np.log(np.maximum(q, 1e-12))), 0.0).sum(axis=-1)
        assert np.array_equal(kl_rows(p, q), want)
        assert np.array_equal(kl_rows(p, q, log_p), want)

    def test_distinct_indices_required(self):
        layer = synth_layer(seed=0)
        with pytest.raises(ValueError):
            pairwise_barrier(layer, small_corpus(), 2, 2)
        with pytest.raises(ValueError):
            triplet_barrier(layer, small_corpus(), 1, 1, 2)


class TestSweep:
    def test_matches_per_call_ops(self):
        layer = synth_layer(n=4, clusters=2, seed=11)
        corpus = small_corpus()
        tris = [(0, 1, 2), (1, 2, 3)]
        table = barrier_sweep(layer, corpus, tris)
        assert table.pairwise[0, 3] == pairwise_barrier(layer, corpus, 0, 3)
        assert table.triplet_values([(1, 2, 3)])[0] == triplet_barrier(layer, corpus, 1, 2, 3)
        assert np.allclose(table.pairwise, table.pairwise.T)
        assert not table.pairwise.diagonal().any()

    def test_deterministic_across_runs(self):
        layer = synth_layer(seed=12)
        corpus = small_corpus()
        a = barrier_sweep(layer, corpus, [(0, 1, 2)])
        b = barrier_sweep(layer, corpus, [(0, 1, 2)])
        assert np.array_equal(a.pairwise, b.pairwise)
        assert np.array_equal(a.triples, b.triples) and np.array_equal(a.triplet, b.triplet)

    def test_extend_triplets_matches_full_sweep(self):
        corpus = small_corpus()
        for n in (16, 64):
            layer = synth_layer(n=n, seed=13)
            tris = [(0, 1, 2), (5, 4, 3), (8, 9, 10)]
            pairs = barrier_sweep(layer, corpus)
            if n == 64:
                tris += [tuple(t) for t in stage_a_candidates(pairs)]
            full = barrier_sweep(layer, corpus, tris)
            extended = extend_triplets(layer, corpus, pairs, tris)
            assert extended.to_json() == full.to_json()
            assert extended.pairwise_csv() == full.pairwise_csv()
            assert pairs.triples.shape == (0, 3) and pairs.triplet.shape == (0,)

    def test_never_routed_experts_stay_finite(self):
        layer = synth_layer(n=6, clusters=3, seed=14)
        router = layer.router_logits.copy()
        router[4] = -1e3  # never wins top-2
        router[5] = -1e3
        starved = MoeLayer(6, layer.vocab, layer.ctx, 2, layer.expert_logits, router)
        corpus = small_corpus()
        table = barrier_sweep(starved, corpus, [(3, 4, 5)])
        assert np.isfinite(table.pairwise).all()
        assert np.isfinite(table.triplet).all()
        assert table.routing_freq[4] == 0.0 and table.routing_freq[5] == 0.0

    def test_routing_frequencies_sum_to_fanout(self):
        for fanout in (1, 2, 4):
            layer = synth_layer(fanout=fanout, seed=15)
            freq = routing_frequencies(layer, small_corpus())
            assert freq.sum() == pytest.approx(fanout, abs=1e-12)

    def test_triplet_values_in_row_order(self):
        table = BarrierTable(np.zeros((4, 4)), np.full(4, 0.5),
                             [(0, 1, 2), (0, 1, 3), (1, 2, 3)], [0.5, 1.5, 2.5])
        got = table.triplet_values(np.array([[1, 2, 3], [0, 1, 2]]))
        assert got.dtype == np.float64 and got.tolist() == [2.5, 0.5]
        assert table.triplet_values(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
        with pytest.raises(ValueError,
                           match=r"^triplet barrier missing for candidate \(0, 2, 3\)$"):
            table.triplet_values(np.array([[0, 1, 2], [0, 2, 3]]))
        # past the last row, and rows whose lexicographic key aliases a tabled one
        for missing in ([1, 2, 4], [0, 0, 7], [0, 2, 1], [-1, 1, 2]):
            with pytest.raises(ValueError, match="missing"):
                table.triplet_values(np.array([missing]))
        empty = BarrierTable(np.zeros((4, 4)), np.full(4, 0.5))
        with pytest.raises(ValueError, match=r"\(0, 1, 2\)"):
            empty.triplet_values(np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("triples, values, message", [
        ([(0, 2, 1)], [1.0], "i < j < k"),
        ([(1, 1, 2)], [1.0], "i < j < k"),
        ([(0, 1, 3), (0, 1, 2)], [1.0, 2.0], "sorted"),
        ([(0, 1, 2), (0, 1, 2)], [1.0, 1.0], "distinct"),
        ([(0, 1, 4)], [1.0], "range"),
        ([(-1, 0, 1)], [1.0], "range"),
        ([(0, 1, 2), (0, 1, 3)], [1.0], "one triplet barrier per triple"),
        ([(0, 1, 2)], [1.0, 2.0], "one triplet barrier per triple"),
        ([(0, 1, 2)], [np.nan], "finite"),
    ])
    def test_table_rejects_malformed_triples(self, triples, values, message):
        with pytest.raises(ValueError, match=message):
            BarrierTable(np.zeros((4, 4)), np.full(4, 0.5), triples, values)

    def test_triples_come_out_sorted_and_distinct(self):
        layer = synth_layer(n=6, clusters=3, seed=17)
        corpus = small_corpus()
        table = barrier_sweep(layer, corpus, [(3, 4, 5), (2, 1, 0), (0, 1, 2), (5, 0, 4)])
        assert table.triples.tolist() == [[0, 1, 2], [0, 4, 5], [3, 4, 5]]
        assert table.triplet.tolist() == [triplet_barrier(layer, corpus, *t)
                                          for t in table.triples.tolist()]

    def test_json_and_csv_round_trip(self):
        layer = synth_layer(n=4, clusters=2, seed=16)
        table = barrier_sweep(layer, small_corpus(), [(1, 2, 3), (0, 1, 2)])
        doc = json.loads(table.to_json())
        assert doc["pairwise"] == table.pairwise.tolist()
        assert doc["routing_freq"] == table.routing_freq.tolist()
        # "i,j,k" keys with i < j < k, in lexicographic order
        assert list(doc["triplet"].items()) == [("0,1,2", table.triplet[0]),
                                                ("1,2,3", table.triplet[1])]
        csv = table.pairwise_csv()
        rows = [line.split(",") for line in csv.strip().split("\n")]
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)
        assert float(rows[0][1]) == table.pairwise[0, 1]


def blocked_merge_kls(layer, corpus, groups, freqs):
    """The sweep kernel as first vectorised: the merged log-sum-exp on every
    (group, symbol) cell, one ``merged_distribution`` and one ``weights @ row``
    per group, in blocks of groups."""
    if not len(groups):
        return []
    groups = np.sort(np.asarray(groups, dtype=np.int64), axis=1)
    size = groups.shape[1]
    symbols, weights = corpus.symbol_weights
    u = len(symbols)
    cols = layer.router_logits[:, symbols]
    originals = layer_symbol_outputs(layer, symbols)
    order = np.argsort(-cols, axis=0, kind="stable")
    routed = np.zeros(cols.shape, dtype=bool)
    np.put_along_axis(routed, order[:layer.fanout], True, axis=0)
    threshold = np.take_along_axis(cols, order[layer.fanout - 1][None, :], axis=0)[0]
    fanout = min(layer.fanout, layer.n - size + 1)
    top = order[:min(layer.fanout + size, layer.n)]
    step = max(1, (1 << 20) // (fanout * u * layer.vocab))
    vals = []
    for start in range(0, len(groups), step):
        block = groups[start:start + step]
        merged_logit = _logsumexp(cols[block.T], axis=0)
        touched = routed[block].any(axis=1) | (merged_logit >= threshold)
        gi, si = np.nonzero(touched)
        cand = top[:, si]
        member = (cand[None, :, :] == block[gi].T[:, None, :]).any(axis=0)
        ids = np.vstack([cand, layer.n + gi])
        logit = np.vstack([np.where(member, -np.inf, cols[cand, si]), merged_logit[gi, si]])
        key = np.vstack([cand, block[gi, 0]])
        pick = np.lexsort((key, -logit), axis=0)[:fanout]
        gates = _softmax(np.take_along_axis(logit, pick, axis=0), axis=0)
        bank = np.vstack([layer.expert_dists,
                          [merged_distribution(layer.expert_dists, g, freqs) for g in block]])
        chosen = bank[np.take_along_axis(ids, pick, axis=0)]
        rows = np.zeros((len(block), u))
        rows[gi, si] = kl_rows(originals[si], np.einsum("fu,fuv->uv", gates, chosen))
        vals.extend(float(weights @ row) for row in rows)
    return vals


def all_groups(n, size):
    return list(itertools.combinations(range(n), size))


def assert_kernel_matches_oracle(layer, corpus, groups):
    """The sweep kernel equals the per-group merged layer and the blocked
    kernel bit for bit."""
    freqs = routing_frequencies(layer, corpus)
    got = _merge_kls(layer, corpus, groups, freqs)
    assert np.array_equal(got, [_mean_merge_kl(layer, corpus, g, freqs) for g in groups])
    assert np.array_equal(got, blocked_merge_kls(layer, corpus, groups, freqs))


def starved_layer():
    """Criterion 7's layer: experts 4 and 5 never win a top-2 slot."""
    base = synth_layer(n=6, clusters=3, seed=606)
    router = base.router_logits.copy()
    router[4] = -1e3
    router[5] = -1e3
    return MoeLayer(6, base.vocab, base.ctx, 2, base.expert_logits, router)


class TestSweepKernelMatchesOracle:
    def test_planted_layer(self):
        layer = plant_discordant_triple(synth_layer(seed=0), (0, 1, 2), seed=500)
        corpus = small_corpus(size=2048)
        assert_kernel_matches_oracle(layer, corpus, all_groups(16, 2))
        assert_kernel_matches_oracle(layer, corpus, all_groups(16, 3)[::4])

    def test_starved_layer(self):
        layer, corpus = starved_layer(), CalibCorpus.sample(256, 2048, 42)
        for size in (2, 3):
            assert_kernel_matches_oracle(layer, corpus, all_groups(6, size))

    def test_identical_experts_with_tied_router_logits(self):
        router = np.tile(np.array([[1.0, 0.0, 1.0, -1.0]]), (5, 2))
        router[3] = 0.0
        layer = MoeLayer(5, 6, 8, 2, np.zeros((5, 6)), router)
        corpus = small_corpus(ctx=8, size=64)
        for size in (2, 3):
            assert_kernel_matches_oracle(layer, corpus, all_groups(5, size))

    def test_merged_logit_tied_with_the_last_routed_logit(self):
        # at symbol 0 the merged logit of {0, 2} equals expert 1's logit; the
        # merged slot keeps index 0, wins the tie and changes the output
        # although no member was routed there.  At symbol 1 the merged slot of
        # {1, 2} keeps index 1 and loses the same tie to expert 0.
        tie = float(logsumexp([0.0, 0.0]))
        router = np.array([[0.0, tie], [tie, 0.0], [0.0, 0.0], [-5.0, -5.0]])
        layer = MoeLayer(4, 3, 2, 1, np.arange(12.0).reshape(4, 3) % 5, router)
        freqs = np.array([0.5, 0.25, 0.25, 0.0])
        for symbol, group, changed in ((0, (0, 2), True), (1, (1, 2), False)):
            corpus = CalibCorpus(np.array([symbol]), seed=0, size=1)
            assert_kernel_matches_oracle(layer, corpus, [(0, 1), (0, 2), (1, 2), (2, 3)])
            assert (_merge_kls(layer, corpus, [group], freqs)[0] > 0.0) == changed

    @pytest.mark.parametrize("fanout", [1, 6])
    def test_fanout_one_and_n(self, fanout):
        layer = synth_layer(n=6, clusters=3, fanout=fanout, seed=21)
        corpus = small_corpus()
        for size in (2, 3):
            assert_kernel_matches_oracle(layer, corpus, all_groups(6, size))

    @pytest.mark.parametrize("n", [2, 3])
    def test_smallest_layers(self, n):
        corpus = small_corpus(ctx=16, size=128)
        for fanout in range(1, n + 1):
            layer = synth_layer(n=n, vocab=5, ctx=16, fanout=fanout, clusters=n, seed=22)
            for size in range(2, n + 1):
                assert_kernel_matches_oracle(layer, corpus, all_groups(n, size))

    def test_empty_group_list(self):
        layer = synth_layer(n=4, clusters=2, seed=23)
        corpus = small_corpus()
        assert _merge_kls(layer, corpus, [], routing_frequencies(layer, corpus)) == []

    def test_sparse_64_expert_layer(self):
        # about 6 % of (pair, symbol) cells are touched here, so nearly every
        # cell takes the untouched path
        layer, corpus = synth_layer(n=64, seed=24), small_corpus()
        freqs = routing_frequencies(layer, corpus)
        pairs = all_groups(64, 2)
        triples = stage_a_candidates(barrier_sweep(layer, corpus))
        assert len(pairs) == 2016 and len(triples) == 500
        for groups in (pairs, triples):
            assert np.array_equal(_merge_kls(layer, corpus, groups, freqs),
                                  blocked_merge_kls(layer, corpus, groups, freqs))
        assert_kernel_matches_oracle(layer, corpus, pairs[::7])

    def test_router_logits_near_1e12(self):
        # a = 2**40 - 2**-13 sits just below a binade edge, so lse(a, a) rounds
        # onto the coarser grid above it, and lse - log 2 rounds above a.  An
        # absolute margin (1e-6 is below one ulp, 1.2e-4) would call the
        # unrouted pair {0, 1} unable to reach expert 2's tied logit and skip
        # the cell, where the merged slot keeps index 0 and wins the tie.
        a = 2.0**40 - 2.0**-13
        tie = float(logsumexp([a, a]))
        assert a < tie - math.log(2) - 1e-6
        router = np.array([[a, a - 3.0], [a, 1e12], [tie, 1e12 - 2.0], [1e12 - 9.0, a]])
        layer = MoeLayer(4, 3, 2, 1, np.arange(12.0).reshape(4, 3) % 5, router)
        corpus = CalibCorpus(np.array([0, 0, 1]), seed=0, size=3)
        for size in (2, 3):
            assert_kernel_matches_oracle(layer, corpus, all_groups(4, size))
        freqs = routing_frequencies(layer, corpus)
        assert _merge_kls(layer, CalibCorpus(np.array([0]), seed=0, size=1),
                          [(0, 1)], freqs)[0] > 0.0

    def test_unrouted_triple_reaches_the_threshold_through_log_3(self):
        # three equal unrouted logits a merge to lse = a + log 3, tied with
        # expert 3's routed logit; a + log 2 stays below it.  Here the rounded
        # lse - log 3 exceeds a, so a bound with no margin would skip the cell
        # too.  The merged slot keeps index 0 and wins the tie.
        a = 0.912088349469447
        tie = float(logsumexp([a, a, a]))
        assert a + math.log(2) < tie and a < tie - math.log(3)
        router = np.array([[a], [a], [a], [tie], [-4.0]])
        layer = MoeLayer(5, 4, 1, 1, np.arange(20.0).reshape(5, 4) % 3, router)
        corpus = CalibCorpus(np.array([0]), seed=0, size=1)
        assert_kernel_matches_oracle(layer, corpus, all_groups(5, 3))
        freqs = routing_frequencies(layer, corpus)
        assert _merge_kls(layer, corpus, [(0, 1, 2)], freqs)[0] > 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_small_layers_with_ties(self, seed, n, data):
        fanout = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        vocab, ctx = int(rng.integers(2, 7)), int(rng.integers(1, 13))
        # rounded router logits tie often, so routing leans on the index tie-break
        router = np.round(rng.normal(0.0, 1.5, size=(n, ctx)))
        layer = MoeLayer(n, vocab, ctx, fanout, np.round(rng.normal(size=(n, vocab)), 1),
                         router)
        corpus = CalibCorpus.sample(ctx, int(rng.integers(1, 64)), seed)
        for size in (2, 3)[:n - 1]:
            assert_kernel_matches_oracle(layer, corpus, all_groups(n, size))


class TestSaliency:
    def test_never_routed_expert_scores_zero(self):
        layer = synth_layer(n=6, clusters=3, seed=17)
        router = layer.router_logits.copy()
        router[2] = -1e3
        starved = MoeLayer(6, layer.vocab, layer.ctx, 2, layer.expert_logits, router)
        sal = saliency(starved, small_corpus())
        assert sal.dtype == np.float64 and sal.shape == (starved.n,)
        assert sal[2] == 0.0
        assert sal.min() == 0.0 and sal.max() == 1.0

    def test_degenerate_uniform_layer_all_zero(self):
        # fanout = n keeps routing symmetric under ties, so raw scores tie
        # and the min-max normalization degenerates to all-zero
        layer = MoeLayer(4, 8, 8, 4, np.zeros((4, 8)), np.zeros((4, 8)))
        assert not saliency(layer, small_corpus(ctx=8)).any()

    def test_ordering_matches_brute_force(self):
        layer = synth_layer(n=5, clusters=5, seed=18)
        corpus = small_corpus(size=256)
        raw = np.zeros(5)
        for x in corpus.contexts.tolist():
            logits = layer.router_logits[:, x]
            order = sorted(range(5), key=lambda e: (-logits[e], e))[:2]
            g = np.exp(logits[order] - logits[order].max())
            g /= g.sum()
            for w, e in zip(g, order):
                raw[e] += w * np.linalg.norm(layer.expert_dists[e]) / corpus.size
        sal = saliency(layer, corpus)
        assert np.array_equal(np.argsort(sal), np.argsort(raw))


class TestCompressionLoss:
    def _plan(self, survivors, n=16, method="test"):
        surv = set(survivors)
        redirect = {i: min(surv) for i in range(n) if i not in surv}
        return SurvivorPlan(n=n, k=len(surv), survivors=tuple(sorted(surv)),
                            redirect=redirect, method=method)

    def test_keeping_everyone_costs_nothing(self):
        layer = synth_layer(seed=19)
        plan = self._plan(range(16))
        assert compression_loss(layer, small_corpus(), plan) == pytest.approx(0.0, abs=1e-12)

    def test_loss_non_negative(self):
        layer = synth_layer(seed=20)
        corpus = small_corpus()
        for survivors in ([0, 3, 7, 12], [1, 2], list(range(8))):
            assert compression_loss(layer, corpus, self._plan(survivors)) >= -1e-12

    def test_unknown_expert_rejected(self):
        layer = synth_layer(n=4, clusters=2, seed=21)
        plan = self._plan([0, 1, 2, 7], n=8)
        with pytest.raises(ValueError, match="outside"):
            compression_loss(layer, small_corpus(), plan)

    def test_masks_must_be_the_survivors_own(self):
        # masks pruned for another plan's survivors: before, the survivors
        # they miss stayed whole and the masks of dropped experts went unread
        layer = synth_layer(n=8, seed=3)
        corpus = small_corpus()
        plan = self._plan([0, 3, 5], n=8)
        own = prune_survivors(layer, corpus, plan.survivors, 0.5)
        assert np.isfinite(compression_loss(layer, corpus, plan, own))
        for keys in ([0, 3], [0, 3, 5, 6], [1, 3, 5], []):
            masks = prune_survivors(layer, corpus, keys, 0.5)
            with pytest.raises(ValueError, match="do not match the plan's survivors"):
                compression_loss(layer, corpus, plan, masks)

    def test_plan_over_fewer_experts_rejected(self):
        # experts 6 and 7 would vanish from the compressed layer
        layer = synth_layer(n=8, seed=3)
        plan = self._plan([0, 3], n=6)
        with pytest.raises(ValueError, match="outside"):
            compression_loss(layer, small_corpus(), plan)

    def test_merge_group_plan_evaluates(self):
        layer = synth_layer(n=6, clusters=3, seed=22)
        corpus = small_corpus()
        freqs = routing_frequencies(layer, corpus)
        plan = SurvivorPlan(
            n=6, k=3, survivors=(0, 2, 4),
            redirect={1: 0, 3: 2, 5: 4}, method="merge",
            merge_weights=tuple(float(f) for f in freqs))
        assert np.isfinite(compression_loss(layer, corpus, plan))

    def test_outputs_kept_per_corpus_equal_fresh_ones(self):
        layer = synth_layer(seed=23)
        corpora = [small_corpus(seed=s) for s in (43, 44)]
        for corpus in (*corpora, *corpora):
            outputs = layer.corpus_outputs(corpus)
            assert layer.corpus_outputs(corpus) is outputs
            want = layer_symbol_outputs(layer, corpus.symbol_weights[0])
            assert np.array_equal(outputs, want)
            plan = self._plan([0, 3, 7, 12])
            assert compression_loss(layer, corpus, plan) == float(
                corpus.symbol_weights[1] @ kl_rows(want, compressed_symbol_outputs(
                    layer, plan, corpus.symbol_weights[0])))

    def test_kept_outputs_are_read_only_and_freed_with_the_corpus(self):
        layer = synth_layer(seed=24)
        corpus = small_corpus()
        with pytest.raises(ValueError, match="read-only"):
            layer.corpus_outputs(corpus)[0, 0] = 1.0
        keys = layer._outputs_by_corpus
        assert len(keys) == 1
        del corpus
        gc.collect()
        assert len(keys) == 0


# ---------------------------------------------------------------------------
# the per-survivor router fold that the batched fold replaced, kept as its oracle

def oracle_fold(layer, plan):
    """Each survivor's source list (the survivor and the experts redirected
    to it, or merged into it), folded by one scipy call each."""
    lists = [[j] + [i for i, target in plan.redirect.items() if target == j]
             for j in plan.survivors]
    folded = np.full((len(lists), layer.ctx), -np.inf)
    for row, sources in enumerate(lists):
        folded[row] = logsumexp(layer.router_logits[sources], axis=0)
    return lists, folded


def oracle_compressed_outputs(layer, plan, symbols, masks=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    survivors = list(plan.survivors)
    lists, folded = oracle_fold(layer, plan)
    if plan.merge_weights is not None:
        weights = np.asarray(plan.merge_weights)
        dists = np.stack([merged_distribution(layer.expert_dists, g, weights)
                          for g in lists])
    elif masks is None:
        dists = layer.expert_dists[survivors]
    else:
        # each masked survivor's whole pruned (vocab x ctx) matrix
        pruned = {j: expert_weight_matrix(layer, j) * m.mask for j, m in masks.items()}
        dists = np.stack([
            softmax(pruned[j][:, symbols].T, axis=1) if j in pruned
            else np.repeat(layer.expert_dists[j][None, :], len(symbols), axis=0)
            for j in survivors])
    return _mixture_outputs(dists, folded[:, symbols], min(layer.fanout, len(dists)))


def assert_fold_matches_oracle(layer, heldout, plan, masks=None):
    lists, folded = oracle_fold(layer, plan)
    assert [list(g) for g in plan.groups] == lists
    assert np.array_equal(_fold_router(layer.router_logits, lists), folded)
    symbols, weights = heldout.symbol_weights
    want = oracle_compressed_outputs(layer, plan, symbols, masks)
    assert np.array_equal(compressed_symbol_outputs(layer, plan, symbols, masks), want)
    loss = float(weights @ kl_rows(layer_symbol_outputs(layer, symbols), want))
    assert compression_loss(layer, heldout, plan, masks) == loss


def redirect_plan(n, redirect):
    """Plan keeping every expert that ``redirect`` (dropped -> target) does not drop."""
    survivors = tuple(i for i in range(n) if i not in redirect)
    return SurvivorPlan(n=n, k=len(survivors), survivors=survivors, redirect=redirect,
                        method="test")


def merge_plan(layer, corpus, groups):
    groups = tuple(tuple(sorted(int(i) for i in g)) for g in groups)
    return SurvivorPlan(
        n=layer.n, k=len(groups), survivors=tuple(sorted(g[0] for g in groups)),
        redirect={i: g[0] for g in groups for i in g[1:]}, method="merge",
        merge_weights=tuple(float(f) for f in routing_frequencies(layer, corpus)))


class TestCompressedFoldMatchesOracle:
    layer = synth_layer(seed=30)
    heldout = small_corpus(seed=43)

    def test_redirect_plans_at_k_one_and_n(self):
        n = self.layer.n
        assert_fold_matches_oracle(self.layer, self.heldout,
                                   redirect_plan(n, {i: 5 for i in range(n) if i != 5}))
        assert_fold_matches_oracle(self.layer, self.heldout, redirect_plan(n, {}))

    def test_every_drop_redirected_to_one_survivor(self):
        redirect = {i: 9 for i in (15, 0, 7, 3, 12, 1, 8, 11, 2)}   # unsorted: source order
        assert_fold_matches_oracle(self.layer, self.heldout, redirect_plan(16, redirect))

    def test_spread_redirects(self):
        redirect = {i: (i * 7) % 5 for i in range(5, 16)}
        assert_fold_matches_oracle(self.layer, self.heldout, redirect_plan(16, redirect))

    def test_tied_router_logits(self):
        # rows 0-2 tie everywhere, so the fold's maximum is shared by several rows
        router = np.tile(np.array([[0.0, 1.0, -1.0, 1.0]]), (6, 2))
        router[3:] -= np.arange(3)[:, None]
        layer = MoeLayer(6, 4, 8, 2, np.round(np.arange(24.0).reshape(6, 4) % 7, 1), router)
        heldout = small_corpus(ctx=8, size=64)
        for redirect in ({1: 0, 2: 0}, {1: 0, 2: 0, 4: 3, 5: 3}, {i: 2 for i in (0, 1, 3, 4, 5)}):
            assert_fold_matches_oracle(layer, heldout, redirect_plan(6, redirect))

    def test_merge_group_plans(self):
        for groups in (((0, 1, 2, 3, 4), (5,), (6, 9), (7, 8, 10, 11, 12, 13), (14, 15)),
                       tuple((i,) for i in range(16)),
                       (tuple(range(16)),)):
            assert_fold_matches_oracle(self.layer, self.heldout,
                                       merge_plan(self.layer, self.heldout, groups))

    @pytest.mark.parametrize("r2", [0.0, 0.9])
    def test_hybrid_plans_with_pruned_survivors(self, r2):
        plan = redirect_plan(16, {i: i % 4 for i in range(4, 16)})
        # three survivors pruned at r2, the rest kept whole by all-ones masks
        masks = {**prune_survivors(self.layer, small_corpus(), plan.survivors[:3], r2),
                 **prune_survivors(self.layer, small_corpus(), plan.survivors[3:], 0.0)}
        assert_fold_matches_oracle(self.layer, self.heldout, plan, masks)

    @pytest.mark.parametrize("ctx, symbol, redirect", [
        (1, 0, {**dict.fromkeys(range(4, 9), 3), **dict.fromkeys([*range(10, 16), 1, 2], 9)}),
        (4, 2, {**dict.fromkeys(range(4, 14), 3), **dict.fromkeys([1, 2, 15], 14)})])
    def test_sum_order_of_the_fold(self, ctx, symbol, redirect):
        # Expert 3's list has exp terms 1 (its maximum), 0.5 and terms just
        # under half an ulp of 0.5: a sum in sequence drops each, numpy's
        # pairwise sum in eight lanes (taken over 8 or more rows when a single
        # column is summed) adds them up first.  Expert 0's logit ties the
        # exact fold of that list, so with fanout 1 it wins on index, and a
        # fold one ulp higher routes expert 3 instead.  Padding the 6-row list
        # to 9 rows on the one-context layer, or folding the 11-row list at
        # the one held-out symbol alone, would do that.
        router = np.full((16, ctx), math.log(2.0 ** -54) - 0.1)
        router[3], router[4] = 0.0, math.log(0.5)
        router[0] = logsumexp(router[[3, *(i for i, j in redirect.items() if j == 3)]], axis=0)
        layer = MoeLayer(16, 5, ctx, 1, np.random.default_rng(33).normal(size=(16, 5)),
                         router)
        heldout = CalibCorpus(np.array([symbol]), seed=0, size=1)
        assert_fold_matches_oracle(layer, heldout, redirect_plan(16, redirect))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_layers_and_plans(self, seed, n, merge, data):
        rng = np.random.default_rng(seed)
        vocab, ctx = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        fanout = data.draw(st.integers(1, n))
        # rounded router logits tie often
        layer = MoeLayer(n, vocab, ctx, fanout, rng.normal(size=(n, vocab)),
                         np.round(rng.normal(0.0, 2.0, size=(n, ctx)), 1))
        heldout = CalibCorpus.sample(ctx, int(rng.integers(1, 40)), seed)
        k = data.draw(st.integers(1, n))
        if merge:
            order = rng.permutation(n).tolist()
            cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            assert_fold_matches_oracle(layer, heldout, merge_plan(layer, heldout, groups))
            return
        survivors = sorted(rng.choice(n, size=k, replace=False).tolist())
        dropped = rng.permutation([i for i in range(n) if i not in survivors]).tolist()
        redirect = {int(i): int(rng.choice(survivors)) for i in dropped}
        plan = redirect_plan(n, redirect)
        r2 = data.draw(st.sampled_from([0.0, 0.3, 0.9]))
        calib = CalibCorpus.sample(ctx, 32, seed + 1)
        masks = {**prune_survivors(layer, calib, survivors[::2], r2),
                 **prune_survivors(layer, calib, survivors[1::2], 0.0)}
        assert_fold_matches_oracle(layer, heldout, plan, masks)
        assert_fold_matches_oracle(layer, heldout, plan)


# ---------------------------------------------------------------------------
# the numpy log-sum-exp and softmax against scipy.special, their oracle


def assert_kernels_match_scipy(a):
    """Both kernels equal scipy's bit for bit on every axis of ``a``.

    NaN compares equal: a +inf entry makes scipy's softmax inf / inf.
    """
    for axis in range(a.ndim):
        with np.errstate(invalid="ignore"):
            want_lse, want_soft = logsumexp(a, axis=axis), softmax(a, axis=axis)
            got_lse, got_soft = _logsumexp(a, axis=axis), _softmax(a, axis=axis)
        assert np.array_equal(got_lse, want_lse, equal_nan=True), (a, axis)
        assert np.array_equal(got_soft, want_soft, equal_nan=True), (a, axis)


class TestLogSumExpMatchesScipy:
    def test_ties(self):
        # several maxima per axis take the log(m) and s / m path
        assert_kernels_match_scipy(np.array([[1.0, 1.0, 0.0], [0.5, -2.0, 0.5],
                                             [3.0, 1.0, 3.0]]))
        assert_kernels_match_scipy(np.array([0.3, 0.3, 0.3, 0.1, 0.3]))

    def test_whole_axis_equal(self):
        assert_kernels_match_scipy(np.full((3, 4), 2.5))
        assert_kernels_match_scipy(np.full((2, 3, 5), -7.25))

    def test_minus_inf_entries(self):
        assert_kernels_match_scipy(np.array([[-np.inf, 0.0, 1.0], [2.0, -np.inf, 2.0]]))

    def test_all_minus_inf_axis(self):
        # the shifted form gives nan here; scipy falls back to log(sum(exp(a))) = -inf
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [-np.inf, -np.inf]])
        assert_kernels_match_scipy(a)
        assert np.array_equal(_logsumexp(a, axis=1), [-np.inf, 0.0, -np.inf])

    def test_plus_inf(self):
        assert_kernels_match_scipy(np.array([[np.inf, 0.0, 1.0], [np.inf, np.inf, -1.0],
                                             [np.inf, -np.inf, 2.0]]))

    @pytest.mark.parametrize("shape", [(1,), (1, 5), (5, 1), (1, 1), (3, 1, 4), (1, 1, 1)])
    def test_one_element_axes(self, shape):
        a = np.round(np.random.default_rng(len(shape)).normal(0.0, 2.0, size=shape), 1)
        assert_kernels_match_scipy(a)

    @pytest.mark.parametrize("shape", [(7,), (4, 6), (3, 5, 2), (9, 9, 9)])
    def test_every_axis(self, shape):
        rng = np.random.default_rng(sum(shape))
        assert_kernels_match_scipy(rng.normal(0.0, 3.0, size=shape))
        assert_kernels_match_scipy(np.round(rng.normal(0.0, 3.0, size=shape)))

    def test_transposed_inputs(self):
        rng = np.random.default_rng(5)
        a = np.round(rng.normal(0.0, 2.0, size=(6, 9)), 1)
        assert not a.T.flags.c_contiguous
        assert_kernels_match_scipy(a.T)
        assert_kernels_match_scipy(np.round(rng.normal(size=(3, 4, 5)), 1).transpose(2, 0, 1))
        # the sweep's (group size, block, symbol) gather of router columns
        groups = np.array([[0, 1, 2], [3, 5, 7]])
        assert_kernels_match_scipy(synth_layer(n=8, seed=3).router_logits[groups.T])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_rounded_arrays(self, seed, ndim, decimals, transpose):
        rng = np.random.default_rng(seed)
        a = np.round(rng.normal(0.0, 3.0, size=rng.integers(1, 6, size=ndim)), decimals)
        u = rng.random(a.shape)
        a[u < 0.08] = -np.inf
        a[u > 0.97] = np.inf
        assert_kernels_match_scipy(a.T if transpose else a)
