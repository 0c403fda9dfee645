import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecover.moe import CalibCorpus, MoeLayer, synth_layer
from hodgecover.wanda import (PruneMask, _in_order, expert_weight_matrix, prune_survivors,
                              residual_sparsity, wanda_prune)


class TestResidualSparsity:
    def test_paper_protocol_values(self):
        assert residual_sparsity(0.33, 0.20) == pytest.approx(0.1625, abs=1e-12)
        assert residual_sparsity(0.66, 0.20) == pytest.approx(0.575, abs=1e-12)

    def test_clamped_at_zero(self):
        assert residual_sparsity(0.15, 0.20) == 0.0
        assert residual_sparsity(0.20, 0.20) == 0.0

    def test_stage1_rate_domain(self):
        with pytest.raises(ValueError):
            residual_sparsity(0.5, 1.0)


class TestWandaPrune:
    def test_zero_sparsity_is_identity(self):
        rng = np.random.default_rng(40)
        w = rng.normal(size=(5, 9))
        x = rng.normal(size=(20, 9))
        pruned, mask = wanda_prune(w, x, 0.0)
        assert np.array_equal(pruned, w)
        assert mask.mask.all()
        assert mask.sparsity == 0.0

    def test_uniform_column_norms_reduce_to_magnitude_pruning(self):
        rng = np.random.default_rng(41)
        w = rng.normal(size=(4, 8))
        x = np.eye(8) * 2.0
        pruned, mask = wanda_prune(w, x, 0.5)
        keep = math.ceil(0.5 * 8)
        for row in range(4):
            kept = set(np.nonzero(mask.mask[row])[0].tolist())
            order = np.argsort(-np.abs(w[row]), kind="stable")[:keep]
            assert kept == set(order.tolist())

    def test_two_by_four_matches_exhaustive_oracle(self):
        w = np.array([[0.5, -2.0, 1.0, 0.1],
                      [3.0, 0.2, -0.2, 2.5]])
        x = np.array([[1.0, 0.0, 2.0, 1.0],
                      [0.0, 1.0, 2.0, 1.0],
                      [1.0, 1.0, 0.0, 1.0]])
        r2 = 0.5
        keep = math.ceil((1 - r2) * 4)
        score = np.abs(w) * np.linalg.norm(x, axis=0)
        _, mask = wanda_prune(w, x, r2)
        for row in range(2):
            best = max(itertools.combinations(range(4), keep),
                       key=lambda cols: (score[row, list(cols)].sum(),
                                         tuple(-c for c in cols)))
            assert set(np.nonzero(mask.mask[row])[0].tolist()) == set(best)

    def test_keep_counts_exact_on_grid(self):
        rng = np.random.default_rng(42)
        for b in range(4, 65, 6):
            w = rng.normal(size=(3, b))
            x = rng.normal(size=(10, b))
            for r2 in (0.0, 0.1625, 0.575, 0.9):
                _, mask = wanda_prune(w, x, r2)
                expected = math.ceil((1 - r2) * b)
                assert (mask.mask.sum(axis=1) == expected).all()
                assert mask.keep_per_row == expected

    def test_tie_breaks_to_lowest_column(self):
        w = np.ones((1, 4))
        x = np.ones((2, 4))
        _, mask = wanda_prune(w, x, 0.5)
        assert mask.mask[0].tolist() == [1, 1, 0, 0]

    def test_idempotent_on_survivors(self):
        rng = np.random.default_rng(43)
        w = rng.normal(size=(6, 12))
        x = rng.normal(size=(30, 12))
        once, _ = wanda_prune(w, x, 0.4)
        twice, _ = wanda_prune(once, x, 0.4)
        nonzero = once != 0.0
        assert np.array_equal(twice[nonzero], once[nonzero])

    def test_shape_and_domain_errors(self):
        with pytest.raises(ValueError, match="conform"):
            wanda_prune(np.ones((2, 3)), np.ones((5, 4)), 0.1)
        with pytest.raises(ValueError):
            wanda_prune(np.ones((2, 3)), np.ones((5, 3)), 1.0)

    def test_mask_json_round_trip(self):
        rng = np.random.default_rng(44)
        _, mask = wanda_prune(rng.normal(size=(3, 11)), rng.normal(size=(7, 11)), 0.3)
        back = PruneMask.from_json(mask.to_json())
        assert np.array_equal(back.mask, mask.mask)
        assert back.keep_per_row == mask.keep_per_row
        assert back.sparsity == mask.sparsity


class TestStageTwoIntegration:
    def test_expert_matrix_reproduces_expert(self):
        layer = synth_layer(seed=45)
        w = expert_weight_matrix(layer, 3)
        assert w.shape == (layer.vocab, layer.ctx)
        # every one-hot context maps to the expert's logit row
        assert np.array_equal(w[:, 17], layer.expert_logits[3])

    def test_onehot_activations_column_norms_count_contexts(self):
        corpus = CalibCorpus.sample(8, 64, 5)
        x = onehot_activations(corpus, 8)
        counts = np.bincount(corpus.contexts, minlength=8)
        assert np.allclose(np.linalg.norm(x, axis=0), np.sqrt(counts))

    def test_prune_survivors_no_op_at_zero(self):
        layer = synth_layer(seed=46)
        corpus = CalibCorpus.sample(256, 512, 42)
        masks = prune_survivors(layer, corpus, [1, 4], 0.0)
        assert set(masks) == {1, 4}
        assert masks[1].mask.all()
        assert masks[4].sparsity == 0.0

    def test_prune_survivors_keeps_frequent_contexts_exact(self):
        layer = synth_layer(seed=47)
        corpus = CalibCorpus.sample(256, 2048, 42)
        masks = prune_survivors(layer, corpus, [0], 0.575)
        kept_cols = np.nonzero(masks[0].mask[0])[0]
        assert len(kept_cols) == math.ceil(0.425 * 256)
        w = expert_weight_matrix(layer, 0) * masks[0].mask
        assert np.array_equal(w[:, kept_cols[0]], layer.expert_logits[0])


def onehot_activations(corpus: CalibCorpus, ctx: int) -> np.ndarray:
    """One-hot context features, one row per calibration token."""
    x = np.zeros((corpus.size, ctx))
    x[np.arange(corpus.size), corpus.contexts] = 1.0
    return x


def assert_prune_matches_oracle(layer, corpus, survivors, r2):
    """prune_survivors equals wanda_prune on the built one-hot activations."""
    masks = prune_survivors(layer, corpus, survivors, r2)
    x = onehot_activations(corpus, layer.ctx)
    assert list(masks) == [int(j) for j in survivors]
    for j in survivors:
        w = expert_weight_matrix(layer, j)
        want, want_mask = wanda_prune(w, x, r2)
        assert np.array_equal(w * masks[j].mask, want)
        assert np.array_equal(masks[j].mask, want_mask.mask)
        assert (masks[j].keep_per_row, masks[j].sparsity) == \
            (want_mask.keep_per_row, want_mask.sparsity)


class TestPruneSurvivorsMatchesOracle:
    @pytest.mark.parametrize("r2", [0.0, 0.1625, 0.575, 0.9])
    def test_default_layer(self, r2):
        assert_prune_matches_oracle(synth_layer(seed=48), CalibCorpus.sample(256, 2048, 42),
                                    [0, 3, 7, 12, 15], r2)

    def test_unseen_contexts_and_a_zero_logit(self):
        # a 40-token corpus leaves most of the 64 contexts, the last ones
        # included, at norm 0, so their scores tie and break toward the lower
        # column; expert 2's zero logit ties its whole row at score 0
        layer = synth_layer(n=6, vocab=5, ctx=64, clusters=3, seed=49)
        logits = layer.expert_logits.copy()
        logits[2, 1] = 0.0
        layer = MoeLayer(6, 5, 64, 2, logits, layer.router_logits)
        corpus = CalibCorpus(np.random.default_rng(50).integers(0, 48, size=40), seed=50,
                             size=40)
        for r2 in (0.3, 0.9):
            assert_prune_matches_oracle(layer, corpus, [5, 2, 0], r2)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([0.0, 0.4, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_random_layers_and_corpora(self, seed, ctx, r2):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        layer = MoeLayer(n, 3, ctx, 1, np.round(rng.normal(size=(n, 3))), np.zeros((n, ctx)))
        corpus = CalibCorpus.sample(ctx, int(rng.integers(1, 60)), seed)
        assert_prune_matches_oracle(layer, corpus, list(range(n)), r2)


def argsort_masks(layer, corpus, survivors, r2):
    """The masks of one stable argsort per row, as every row was pruned before
    the shared order: expert j -> (vocab x ctx) keep mask."""
    norms = np.sqrt(np.bincount(corpus.contexts, minlength=layer.ctx).astype(np.float64))
    keep = math.ceil((1.0 - r2) * layer.ctx)
    masks = {}
    for j in survivors:
        mask = np.zeros((layer.vocab, layer.ctx), dtype=np.uint8)
        for row, logit in enumerate(layer.expert_logits[j]):
            mask[row, np.argsort(-(abs(logit) * norms), kind="stable")[:keep]] = 1
        masks[j] = mask
    return masks


def order_fits(layer, corpus, survivors):
    """Per survivor row: does the shared order of the norms fit it?"""
    norms = np.sqrt(np.bincount(corpus.contexts, minlength=layer.ctx).astype(np.float64))
    order = np.argsort(-norms, kind="stable")
    return np.concatenate([_in_order(np.abs(expert_weight_matrix(layer, j)) * norms, order)
                           for j in survivors])


def assert_prune_matches_argsort(layer, corpus, survivors, r2):
    masks = prune_survivors(layer, corpus, survivors, r2)
    for j, want in argsort_masks(layer, corpus, survivors, r2).items():
        assert np.array_equal(masks[j].mask, want), (j, r2)


# zero, subnormal, tiny, negative and huge logits: products with the norms tie,
# underflow or overflow, so some rows leave the shared order
EDGE_LOGITS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 1e-300, 2.5, -2.5, -0.75,
               1.7e308, -1e308]


# a logit near the float maximum times a norm above 1 overflows to inf; the
# scores still order, with ties
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
class TestSharedPruneOrder:
    def test_edge_logits_tied_counts_and_unseen_contexts(self):
        # 24 contexts: 0-5 seen twice, 6-11 three times (tied counts), 12-15 once,
        # 16-23 unseen (norm 0)
        contexts = np.repeat(np.arange(16), [2] * 6 + [3] * 6 + [1] * 4)
        corpus = CalibCorpus(np.random.default_rng(3).permutation(contexts), seed=3,
                             size=len(contexts))
        logits = np.array(EDGE_LOGITS).reshape(3, 4)
        layer = MoeLayer(3, 4, 24, 1, logits, np.zeros((3, 24)))
        fits = order_fits(layer, corpus, [0, 1, 2])
        assert fits.any() and not fits.all()  # both the shared order and the fallback
        for r2 in (0.0, 0.3, 0.5, 0.9):
            assert_prune_matches_argsort(layer, corpus, [2, 0, 1], r2)

    def test_zero_logit_keeps_the_lower_column(self):
        # norms [1, sqrt 2] give the shared order [1, 0]; a zero logit ties both
        # scores at 0, so its row keeps column 0
        layer = MoeLayer(1, 2, 2, 1, [[0.0, 1.0]], np.zeros((1, 2)))
        corpus = CalibCorpus([1, 0, 1], seed=0, size=3)
        assert order_fits(layer, corpus, [0]).tolist() == [False, True]
        masks = prune_survivors(layer, corpus, [0], 0.5)
        assert masks[0].mask.tolist() == [[1, 0], [0, 1]]

    def test_default_layer_takes_the_shared_order(self):
        layer = synth_layer(seed=48)
        corpus = CalibCorpus.sample(256, 2048, 42)
        assert order_fits(layer, corpus, range(16)).all()
        for r2 in (0.1625, 0.575):
            assert_prune_matches_argsort(layer, corpus, range(16), r2)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([0.0, 0.4, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_random_edge_logits(self, seed, ctx, r2):
        rng = np.random.default_rng(seed)
        n, vocab = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        logits = rng.choice(EDGE_LOGITS + list(rng.normal(size=4)), size=(n, vocab))
        layer = MoeLayer(n, vocab, ctx, 1, logits, np.zeros((n, ctx)))
        corpus = CalibCorpus.sample(ctx, int(rng.integers(1, 3 * ctx)), seed)
        assert_prune_matches_argsort(layer, corpus, list(range(n)), r2)
