"""The whole-merged-layer barrier kernels, kept as the sweep kernel's oracle.

``hodgecover.moe._merge_kls`` evaluates every merge group's barrier on the
touched cells alone.  This module is the direct definition it is pinned to:
build the layer with one group replaced by its frequency-weighted merge,
evaluate both layers at every corpus symbol, and take the weighted mean KL.
The sweep tests require equal results, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from hodgecover.moe import (CalibCorpus, MoeLayer, _logsumexp, _mixture_outputs, kl_rows,
                            layer_symbol_outputs, merged_distribution, routing_frequencies)


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
        return _mixture_outputs(self.dists, cols, self.fanout)


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
