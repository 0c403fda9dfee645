"""Whole-layer evaluations, kept as the oracles of the kernels that skip cells.

``hodgecover.moe._merge_kls`` evaluates every merge group's barrier on the
touched cells alone.  This module is the direct definition it is pinned to:
build the layer with one group replaced by its frequency-weighted merge,
evaluate both layers at every corpus symbol, and take the weighted mean KL.

``hodgecover.moe.compressed_symbol_outputs`` softmaxes a pruned survivor
only at the (survivor, symbol) cells the router picks.
:func:`stacked_pruned_outputs` softmaxes every pruned survivor at every
symbol and mixes the routed rows of that stack.

The tests require equal results, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hodgecover.moe import (CalibCorpus, MoeLayer, _fold_router, _logsumexp,
                            _mixture_outputs, _route, _softmax, kl_rows,
                            merged_distribution, routing_frequencies)


def layer_symbol_outputs(layer: MoeLayer, symbols: np.ndarray) -> np.ndarray:
    """Layer output distribution at each context symbol, (u, vocab), routed
    afresh (``MoeLayer.routing`` keeps the layer's routing per corpus)."""
    idx, gates = _route(layer.router_logits[:, np.asarray(symbols, dtype=np.int64)],
                        layer.fanout)
    return _mixture_outputs(gates, layer.expert_dists[idx])


def layer_output(layer: MoeLayer, context: int) -> np.ndarray:
    """Output next-token distribution at a single context symbol."""
    if not (0 <= context < layer.ctx):
        raise ValueError(f"context {context} outside alphabet [0, {layer.ctx})")
    return layer_symbol_outputs(layer, np.array([context]))[0]


@dataclass(frozen=True, eq=False)
class MergedLayer:
    """The layer with one expert group replaced by its merged expert.

    The merged expert occupies the slot of the group's lowest index; its
    router logit row is the log-sum-exp of the group's rows.  ``outputs``
    evaluates the merged layer's output distributions at given symbols.
    """

    dists: np.ndarray            # (n - |group| + 1, vocab)
    router_logits: np.ndarray    # (n - |group| + 1, ctx)
    fanout: int

    def outputs(self, symbols: np.ndarray) -> np.ndarray:
        cols = self.router_logits[:, np.asarray(symbols, dtype=np.int64)]
        return mixture(self.dists, cols, self.fanout)


def _merge_group(layer: MoeLayer, group: Sequence[int], freqs: np.ndarray) -> MergedLayer:
    group = sorted(int(g) for g in group)
    rep = group[0]
    keep = [i for i in range(layer.n) if i not in group[1:]]
    dists = layer.expert_dists[keep].copy()
    router = layer.router_logits[keep].copy()
    slot = keep.index(rep)
    dists[slot] = merged_distribution(layer.expert_dists, group, freqs)
    router[slot] = _logsumexp(layer.router_logits[group], axis=0)
    return MergedLayer(dists, router, min(layer.fanout, len(keep)))


def merge_experts(layer: MoeLayer, group: Iterable[int], freqs: np.ndarray) -> MergedLayer:
    """Replace a pair or triple of experts by their frequency-weighted merge."""
    group = sorted(int(g) for g in group)
    if len(group) not in (2, 3) or len(set(group)) != len(group):
        raise ValueError(f"merge group must be 2 or 3 distinct experts, got {group}")
    if group[0] < 0 or group[-1] >= layer.n:
        raise ValueError(f"merge group {group} outside expert range [0, {layer.n})")
    return _merge_group(layer, group, freqs)


def _mean_merge_kl(layer: MoeLayer, corpus: CalibCorpus, group: Sequence[int],
                   freqs: np.ndarray) -> float:
    """One group's barrier through the whole merged layer."""
    symbols, weights = corpus.symbol_weights
    merged = _merge_group(layer, group, freqs).outputs(symbols)
    return float(weights @ kl_rows(layer_symbol_outputs(layer, symbols), merged))


def pairwise_barrier(layer: MoeLayer, corpus: CalibCorpus, i: int, j: int) -> float:
    """Mean corpus KL cost of replacing {i, j} by their weighted merge."""
    if i == j:
        raise ValueError("pairwise barrier needs two distinct experts")
    freqs = routing_frequencies(layer, corpus)
    return _mean_merge_kl(layer, corpus, (i, j), freqs)


def triplet_barrier(layer: MoeLayer, corpus: CalibCorpus, i: int, j: int, k: int) -> float:
    """Mean corpus KL cost of replacing {i, j, k} by their joint merge."""
    if len({i, j, k}) != 3:
        raise ValueError("triplet barrier needs three distinct experts")
    freqs = routing_frequencies(layer, corpus)
    return _mean_merge_kl(layer, corpus, (i, j, k), freqs)


def expert_weight_matrix(layer: MoeLayer, expert: int) -> np.ndarray:
    """The expert as a one-hot-context-to-logits map: (vocab x ctx), every
    column the expert's logit row."""
    return np.repeat(layer.expert_logits[expert][:, None], layer.ctx, axis=1)


def mixture(dists: np.ndarray, router_cols: np.ndarray, fanout: int) -> np.ndarray:
    """Gate-weighted mixture over the routed experts at every context column.

    ``dists`` is (m, vocab) for context-independent experts or (m, u, vocab)
    when expert outputs vary per symbol (pruned survivors).
    """
    idx, gates = _route(router_cols, fanout)
    if dists.ndim == 2:
        chosen = dists[idx]                                     # (f, u, vocab)
    else:
        chosen = np.take_along_axis(dists, idx[:, :, None], axis=0)
    return np.einsum("fu,fuv->uv", gates, chosen)


def stacked_pruned_outputs(layer: MoeLayer, plan, symbols: np.ndarray, masks) -> np.ndarray:
    """A redirect plan's output with pruned survivors: each survivor's
    softmax at every symbol, stacked (k, u, vocab), then mixed."""
    symbols = np.asarray(symbols, dtype=np.int64)
    dists = np.stack([
        _softmax((layer.expert_logits[j][:, None] * masks[j].mask[:, symbols]).T, axis=1)
        for j in plan.survivors])
    cols = _fold_router(layer.router_logits, plan.groups)[:, symbols]
    return mixture(dists, cols, min(layer.fanout, plan.k))
