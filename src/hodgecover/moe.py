"""Deterministic synthetic sparse-MoE layer and all KL merge machinery.

An expert is distribution-valued: one logit row over a finite output
alphabet, so its next-token distribution is a fixed softmax and a
frequency-weighted merge of experts is an exact convex combination of
distributions rather than a weight-space approximation.  Contexts come from
a finite alphabet, which makes every corpus statistic exactly reproducible
from (seed, size, alphabet).

The layer output at a context is the gate-weighted mixture of the
top-fanout experts' distributions, gates renormalized over the routed set.
Merge barriers are mean calibration-corpus KL divergences between the
original layer and the layer with a pair or triple replaced by its
frequency-weighted merge; the merged expert's router logit is the
log-sum-exp of the absorbed logits, which preserves total pre-softmax
routing mass.

The barrier sweep (``_merge_kls``) gives every group the same barrier as
the merged layer does, bit for bit, while evaluating only the touched
cells: the (group, symbol) pairs where a member is routed, or where the
group's log-sum-exp logit reaches the fanout-th logit (a tie counts,
because the merged slot keeps the group's lowest index and can win it).

- Untouched cells.  There the merged layer routes the same experts with the
  same logits in the same order, so its output equals the original and the
  KL term is exactly 0.
- The lse bound.  lse(g) <= max(g) + log|g|, so a group with no routed
  member can reach the threshold only where some member's logit is at least
  threshold - log|g|, less a margin of 1e-6 (1 + |threshold|) that covers
  the rounding of both sides at any logit magnitude.  The exact log-sum-exp
  runs on those cells and the routed ones alone.
- Touched cells.  They go through the merged layer's own routing, softmax,
  mixture and ``kl_rows`` arithmetic, elementwise, and each group's mean is
  the same dot product of its dense KL row with the symbol weights.

With fanout 2 about 6 % of the (pair, symbol) cells are touched at 64
experts, and about 9 % pass the bound.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .complexes import _lex_keys

if TYPE_CHECKING:  # pragma: no cover
    from .selector import SurvivorPlan
    from .wanda import PruneMask

KL_FLOOR = 1e-12        # probability floor on the merged (second) argument
FREQ_GUARD = 1e-12      # below this total routing mass, fall back to the plain average
# float64 entries of one sweep block's largest array: 512 KiB.  Blocks of a few MiB
# ran slower: each one's temporaries fell out of cache and were page-faulted anew.
BLOCK_FLOATS = 1 << 16

T = TypeVar("T")


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MoeLayer:
    """Synthetic sparse-MoE layer: expert bank, router, top-fanout routing."""

    n: int
    vocab: int
    ctx: int
    fanout: int
    expert_logits: np.ndarray   # (n, vocab)
    router_logits: np.ndarray   # (n, ctx)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "expert_logits",
                           np.asarray(self.expert_logits, dtype=np.float64))
        object.__setattr__(self, "router_logits",
                           np.asarray(self.router_logits, dtype=np.float64))
        if self.expert_logits.shape != (self.n, self.vocab):
            raise ValueError("expert_logits shape mismatch")
        if self.router_logits.shape != (self.n, self.ctx):
            raise ValueError("router_logits shape mismatch")
        if not (1 <= self.fanout <= self.n):
            raise ValueError(f"fanout must be in [1, {self.n}], got {self.fanout}")
        if not (np.isfinite(self.expert_logits).all() and np.isfinite(self.router_logits).all()):
            raise ValueError("logits must be finite")

    @cached_property
    def expert_dists(self) -> np.ndarray:
        """Per-expert output distributions, (n, vocab) rows summing to 1."""
        return _softmax(self.expert_logits, axis=1)

    @cached_property
    def _outputs_by_corpus(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def corpus_outputs(self, corpus: "CalibCorpus") -> np.ndarray:
        """The layer's output distributions at the corpus's symbols, (u, vocab);
        computed once per corpus and kept, read-only, while the corpus lives."""
        found = self._outputs_by_corpus.get(corpus)
        if found is None:
            found = read_only(layer_symbol_outputs(self, corpus.symbol_weights[0]))
            self._outputs_by_corpus[corpus] = found
        return found

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "vocab": self.vocab, "ctx": self.ctx,
            "fanout": self.fanout, "seed": self.seed,
            "expert_logits": self.expert_logits.tolist(),
            "router_logits": self.router_logits.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "MoeLayer":
        """Parse a layer file; a field of the wrong type raises ``ValueError``."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a layer file holds one JSON object")
        for key in ("n", "vocab", "ctx", "fanout", "seed"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        logits = []
        for key in ("expert_logits", "router_logits"):
            rows = np.array(doc[key])
            if rows.ndim != 2 or rows.dtype.kind not in "iuf" or any(
                    type(v) is bool for row in doc[key] for v in row):
                raise ValueError(f"{key} must be a table of numbers")
            logits.append(rows)
        return cls(doc["n"], doc["vocab"], doc["ctx"], doc["fanout"], *logits, doc["seed"])


@dataclass(frozen=True, eq=False)
class CalibCorpus:
    """Token stream over the context alphabet, reproducible from (seed, size)."""

    contexts: np.ndarray
    seed: int
    size: int

    def __post_init__(self):
        object.__setattr__(self, "contexts", np.asarray(self.contexts, dtype=np.int64))
        if self.contexts.shape != (self.size,):
            raise ValueError("corpus size mismatch")

    @classmethod
    def sample(cls, ctx: int, size: int = 2048, seed: int = 42) -> "CalibCorpus":
        rng = np.random.default_rng(seed)
        return cls(rng.integers(0, ctx, size=size), seed=seed, size=size)

    @cached_property
    def symbol_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique context symbols and their empirical weights (sum to 1)."""
        symbols, counts = np.unique(self.contexts, return_counts=True)
        return symbols, counts / self.size


def synth_layer(n: int = 16, vocab: int = 32, ctx: int = 256, fanout: int = 2,
                clusters: int = 4, seed: int = 0, *, noise: float = 0.35,
                spread: float = 2.0, router_scale: float = 3.0,
                router_bias: float = 2.5,
                cluster_sizes: Sequence[int] | None = None) -> MoeLayer:
    """Planted-structure generator: cluster centroids plus per-expert noise.

    Experts are assigned to ``clusters`` contiguous groups; members of one
    group share a centroid logit row, so intra-cluster merge barriers are
    low while cross-cluster barriers are high.  ``clusters == n`` plants no
    sharing; ``clusters == 1`` with ``noise == 0`` makes all experts
    identical.  ``cluster_sizes`` overrides the near-equal split.

    Router logits carry a per-expert popularity bias on top of per-context
    preferences.  The bias spreads routing frequencies over orders of
    magnitude, which is what makes merge barriers heavy-tailed: folding a
    rarely-routed expert into a popular one is nearly free while the
    reverse is not, so the barrier table's energy sits in idiosyncratic
    per-pair variation rather than in one flat level.  Deterministic for a
    fixed seed.
    """
    if not (1 <= clusters <= n):
        raise ValueError(f"clusters must be in [1, {n}], got {clusters}")
    if vocab < 2 or ctx < 1:
        raise ValueError("need vocab >= 2 and ctx >= 1")
    assignment = cluster_assignment(n, clusters, cluster_sizes)
    rng = np.random.default_rng(seed)
    centroids = rng.normal(0.0, spread, size=(clusters, vocab))
    expert_logits = centroids[assignment] + rng.normal(0.0, noise, size=(n, vocab))
    router_logits = (router_bias * rng.normal(0.0, 1.0, size=(n, 1))
                     + rng.normal(0.0, router_scale, size=(n, ctx)))
    return MoeLayer(n, vocab, ctx, fanout, expert_logits, router_logits, seed)


def cluster_assignment(n: int, clusters: int,
                       cluster_sizes: Sequence[int] | None = None) -> np.ndarray:
    """Contiguous cluster labels used by :func:`synth_layer`."""
    if cluster_sizes is not None:
        if len(cluster_sizes) != clusters or sum(cluster_sizes) != n or min(cluster_sizes) < 1:
            raise ValueError(f"cluster_sizes must be {clusters} positive ints summing to {n}")
        return np.repeat(np.arange(clusters), cluster_sizes)
    return np.repeat(np.arange(clusters), -(-n // clusters))[:n]


def plant_discordant_triple(layer: MoeLayer, triple: Sequence[int], *,
                            scale: float = 1.0, boost: float = 2.0,
                            seed: int = 7) -> MoeLayer:
    """Rewrite three experts so they are pairwise mergeable but jointly costly.

    The three logit rows are placed at symmetric 120-degree offsets of
    magnitude ``scale`` around their common mean in a random 2-plane.  Any
    pair's frequency-weighted merge stays close to both members, while the
    joint merge lands at the centroid, far from all three, so the triplet
    barrier exceeds the worst pairwise barrier by a wide margin.  ``boost``
    raises the triple's router logits so the planted obstruction carries
    real routing mass.
    """
    a, b, c = sorted(int(i) for i in triple)
    if len({a, b, c}) != 3 or not (0 <= a and c < layer.n):
        raise ValueError(f"triple {triple!r} is not three distinct experts of the layer")
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(2, layer.vocab))
    q, _ = np.linalg.qr(plane.T)
    u, v = q[:, 0], q[:, 1]
    base = layer.expert_logits[[a, b, c]].mean(axis=0)
    logits = layer.expert_logits.copy()
    router = layer.router_logits.copy()
    for m, idx in enumerate((a, b, c)):
        angle = 2.0 * np.pi * m / 3.0
        logits[idx] = base + scale * (np.cos(angle) * u + np.sin(angle) * v)
        router[idx] = router[idx] - router[idx].mean() + boost
    return MoeLayer(layer.n, layer.vocab, layer.ctx, layer.fanout,
                    logits, router, layer.seed)


# ---------------------------------------------------------------------------
# Log-sum-exp and softmax


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` in the shifted form of Blanchard,
    Higham and Higham ("Accurately computing the log-sum-exp and softmax
    functions", IMA J. Numer. Anal. 2021).

    This and :func:`_softmax` copy the arithmetic of scipy 1.17.1's
    unweighted ``scipy.special.logsumexp`` and ``softmax`` step for step, so
    they agree with scipy bit for bit, and the tests keep scipy as their
    oracle.  The m entries equal to the maximum are taken out of the sum:
    s sums exp(a - max) over the rest, and the result is
    log1p(s / m) + log(m) + max.  Where that is not finite (an axis of -inf,
    or a +inf entry) it falls back, as scipy does, to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        mask = a == a_max
        m = mask.sum(axis=axis, keepdims=True, dtype=np.float64)
        s = np.exp(np.where(mask, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """exp(x - max) / sum(exp(x - max)) along ``axis`` (see :func:`_logsumexp`)."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# Routing and layer evaluation


def _route(router_cols: np.ndarray, fanout: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-fanout expert indices and renormalized gates per context column.

    Ties in router logits break toward the lower expert index (stable sort),
    so routing is deterministic even for degenerate layers.
    """
    idx = np.argsort(-router_cols, axis=0, kind="stable")[:fanout]
    sel = np.take_along_axis(router_cols, idx, axis=0)
    gates = _softmax(sel, axis=0)
    return idx, gates


def _mixture_outputs(dists: np.ndarray, router_cols: np.ndarray, fanout: int) -> np.ndarray:
    """Gate-weighted mixture over routed experts for every context column.

    ``dists`` is (m, vocab) for context-independent experts or
    (m, u, vocab) when expert outputs vary per symbol (pruned survivors).
    """
    idx, gates = _route(router_cols, fanout)
    if dists.ndim == 2:
        chosen = dists[idx]                                     # (f, u, vocab)
    else:
        chosen = np.take_along_axis(dists, idx[:, :, None], axis=0)
    return np.einsum("fu,fuv->uv", gates, chosen)


def layer_symbol_outputs(layer: MoeLayer, symbols: np.ndarray) -> np.ndarray:
    """Layer output distribution at each context symbol, (u, vocab)."""
    cols = layer.router_logits[:, np.asarray(symbols, dtype=np.int64)]
    return _mixture_outputs(layer.expert_dists, cols, layer.fanout)


def routing_frequencies(layer: MoeLayer, corpus: CalibCorpus) -> np.ndarray:
    """Fraction of corpus tokens routing each expert; sums to fanout."""
    symbols, weights = corpus.symbol_weights
    idx, _ = _route(layer.router_logits[:, symbols], layer.fanout)
    freq = np.zeros(layer.n)
    np.add.at(freq, idx, weights[None, :])
    return freq


# ---------------------------------------------------------------------------
# Frequency-weighted merges


def merged_distribution(dists: np.ndarray, group: Sequence[int],
                        freqs: np.ndarray) -> np.ndarray:
    """Frequency-weighted convex combination of the group's distributions.

    Falls back to the unweighted average when the group's total routing
    mass is below the 1e-12 guard, so never-routed groups stay NaN-free.
    """
    group = np.asarray(group, dtype=np.int64)
    w = np.asarray(freqs, dtype=np.float64)[group]
    total = float(w.sum())
    if total < FREQ_GUARD:
        w = np.full(len(group), 1.0 / len(group))
    else:
        w = w / total
    return w @ dists[group]


# ---------------------------------------------------------------------------
# Barriers


def kl_rows(p: np.ndarray, q: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """Row-wise KL(p || q) in nats with the 1e-12 floor on q; ``log_p``, when
    given, is ``log(max(p, 1e-12))`` taken beforehand."""
    if log_p is None:
        log_p = np.log(np.maximum(p, KL_FLOOR))
    # p * (log_p - log(max(q, floor))) where p > 0, else 0, in one buffer: in the
    # sweep a fresh temporary per step cost more than the arithmetic
    terms = np.maximum(q, KL_FLOOR)
    np.log(terms, out=terms)
    np.subtract(log_p, terms, out=terms)
    np.multiply(p, terms, out=terms)
    np.copyto(terms, 0.0, where=~(p > 0.0))
    return terms.sum(axis=-1)


@dataclass(frozen=True, eq=False)
class BarrierTable:
    """All pairwise barriers, candidate triplet barriers, routing frequencies.

    The triplet barriers are two arrays: ``triples``, (m, 3) int64 vertex rows
    with i < j < k, distinct and in lexicographic order, and ``triplet``, (m,)
    float64, the barrier of each row.  :meth:`triplet_values` looks rows up by
    binary search over their lexicographic keys, which needs that order.
    """

    pairwise: np.ndarray                              # (n, n) symmetric, zero diagonal
    routing_freq: np.ndarray                          # (n,)
    triples: np.ndarray = ()
    triplet: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "pairwise", np.asarray(self.pairwise, dtype=np.float64))
        object.__setattr__(self, "routing_freq", np.asarray(self.routing_freq, dtype=np.float64))
        object.__setattr__(self, "triples", np.asarray(self.triples, dtype=np.int64).reshape(-1, 3))
        object.__setattr__(self, "triplet", np.asarray(self.triplet, dtype=np.float64))
        if not np.isfinite(self.pairwise).all():
            raise ValueError("pairwise barriers must be finite")
        t = self.triples
        if self.triplet.shape != (len(t),):
            raise ValueError("need one triplet barrier per triple")
        if not np.isfinite(self.triplet).all():
            raise ValueError("triplet barriers must be finite")
        if len(t) and (t.min() < 0 or t.max() >= self.n):
            raise ValueError("triple vertex outside expert range")
        if not ((t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2])).all():
            raise ValueError("triple rows must have i < j < k")
        if not (np.diff(self.triple_keys) > 0).all():
            raise ValueError("triple rows must be distinct and lexicographically sorted")

    @property
    def n(self) -> int:
        return self.pairwise.shape[0]

    @cached_property
    def triple_keys(self) -> np.ndarray:
        """The lexicographic keys of ``triples``, ascending; read-only."""
        return read_only(_lex_keys(self.triples, self.n))

    @cached_property
    def _constants(self) -> dict:
        return {}

    def constant(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per table and ``key``, then shared: for
        quantities of the frozen table alone, such as the selector's merge
        orders.  Arrays among them should be read-only."""
        if key not in self._constants:
            self._constants[key] = compute()
        return self._constants[key]

    def upper_entries(self) -> np.ndarray:
        i, j = np.triu_indices(self.n, k=1)
        return self.pairwise[i, j]

    def triplet_values(self, triangles: np.ndarray) -> np.ndarray:
        """The triplet barriers of the (m, 3) sorted vertex triples, in row order."""
        rows = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        at = np.searchsorted(self.triple_keys, _lex_keys(rows, self.n))
        found = at < len(self.triples)
        found[found] = (self.triples[at[found]] == rows[found]).all(axis=1)
        if not found.all():
            i, j, k = rows[np.argmin(found)].tolist()
            raise ValueError(f"triplet barrier missing for candidate ({i}, {j}, {k})")
        return self.triplet.take(at)

    def to_json(self) -> str:
        return json.dumps({
            "pairwise": self.pairwise.tolist(),
            "triplet": {f"{i},{j},{k}": val for (i, j, k), val
                        in zip(self.triples.tolist(), self.triplet.tolist())},
            "routing_freq": self.routing_freq.tolist(),
        })

    def pairwise_csv(self) -> str:
        lines = [",".join(repr(float(v)) for v in row) for row in self.pairwise]
        return "\n".join(lines) + "\n"


def barrier_sweep(layer: MoeLayer, corpus: CalibCorpus,
                  triangle_candidates: Iterable[Sequence[int]] = ()) -> BarrierTable:
    """Fill every pairwise barrier plus the candidate triplet barriers.

    Each (pair or triple) cell is a pure function of the layer, the corpus
    and the routing frequencies, so the table does not depend on the order
    in which cells are evaluated.
    """
    freqs = routing_frequencies(layer, corpus)
    pairs = [(i, j) for i in range(layer.n) for j in range(i + 1, layer.n)]
    pairwise = np.zeros((layer.n, layer.n))
    for (i, j), val in zip(pairs, _merge_kls(layer, corpus, pairs, freqs)):
        pairwise[i, j] = pairwise[j, i] = val
    return extend_triplets(layer, corpus, BarrierTable(pairwise, freqs),
                           triangle_candidates)


def extend_triplets(layer: MoeLayer, corpus: CalibCorpus, table: BarrierTable,
                    triangle_candidates: Iterable[Sequence[int]]) -> BarrierTable:
    """``table`` with the candidates' triplet barriers added to its own.

    Only the triplet cells are evaluated, against the table's routing
    frequencies, so a pairwise table extended here equals the table
    :func:`barrier_sweep` fills for the same candidates.
    """
    triples = np.sort(np.asarray(list(triangle_candidates), dtype=np.int64).reshape(-1, 3),
                      axis=1)
    vals = np.asarray(_merge_kls(layer, corpus, triples, table.routing_freq), dtype=np.float64)
    # np.unique keeps each triple's first row: a candidate's value over the table's own
    rows = np.concatenate([triples, table.triples])
    _, first = np.unique(_lex_keys(rows, table.n), return_index=True)
    return BarrierTable(table.pairwise, table.routing_freq, rows[first],
                        np.concatenate([vals, table.triplet])[first])


def _merge_kls(layer: MoeLayer, corpus: CalibCorpus, groups: Sequence[Sequence[int]],
               freqs: np.ndarray) -> list[float]:
    """Mean merge KL of every group, evaluated only on the cells a merge can change.

    Bit-identical per group to evaluating the whole merged layer at every
    symbol (the tests keep that as the oracle), by the argument in the
    module docstring: touched cells go through the merged layer's arithmetic,
    the others add exactly 0.  Groups must all have the same size.
    """
    if not len(groups):
        return []
    groups = np.sort(np.asarray(groups, dtype=np.int64), axis=1)
    size = groups.shape[1]
    symbols, weights = corpus.symbol_weights
    u = len(symbols)
    cols = layer.router_logits[:, symbols]                       # (n, u)
    originals = layer_symbol_outputs(layer, symbols)
    log_originals = np.log(np.maximum(originals, KL_FLOOR))
    order = np.argsort(-cols, axis=0, kind="stable")             # routing order per symbol
    routed = np.zeros(cols.shape, dtype=bool)
    np.put_along_axis(routed, order[:layer.fanout], True, axis=0)
    threshold = np.take_along_axis(cols, order[layer.fanout - 1][None, :], axis=0)[0]
    # lse(g) <= max(g) + log|g|, so a cell is touched only if some member is live
    reach = threshold - np.log(size) - 1e-6 * (1.0 + np.abs(threshold))
    live = routed | (cols >= reach)
    fanout = min(layer.fanout, layer.n - size + 1)                # of the merged layer
    # the merged top-fanout lies in the original top-(fanout + |g|) plus the merged slot
    top = order[:min(layer.fanout + size, layer.n)]
    w = freqs[groups]
    total = w.sum(axis=1, keepdims=True)
    w = np.divide(w, total, out=np.full(w.shape, 1.0 / size), where=total >= FREQ_GUARD)
    group_step = max(1, BLOCK_FLOATS // (size * max(u, layer.n)))
    cell_step = max(1, BLOCK_FLOATS // (fanout * layer.vocab))
    vals: list[float] = []
    for start in range(0, len(groups), group_step):
        block = groups[start:start + group_step]
        gi, si = np.nonzero(live[block].any(axis=1))
        members = block[gi].T                                      # (|g|, cells)
        merged_logit = _logsumexp(cols[members, si], axis=0)
        touched = routed[members, si].any(axis=0) | (merged_logit >= threshold[si])
        gi, si, merged_logit = gi[touched], si[touched], merged_logit[touched]
        in_group = np.zeros((len(block), layer.n), dtype=bool)
        in_group[np.arange(len(block))[:, None], block] = True
        bank = np.vstack([layer.expert_dists,
                          np.matmul(w[start:start + group_step, None, :],
                                    layer.expert_dists[block])[:, 0]])
        rows = np.zeros((len(block), u))
        for lo in range(0, len(gi), cell_step):
            g, s = gi[lo:lo + cell_step], si[lo:lo + cell_step]
            cand = top[:, s]                                       # (fanout + |g|, cells)
            member = in_group[g, cand]
            ids = np.vstack([cand, layer.n + g])
            logit = np.vstack([np.where(member, -np.inf, cols[cand, s]),
                               merged_logit[lo:lo + cell_step]])
            key = np.vstack([cand, block[g, 0]])
            pick = np.lexsort((key, -logit), axis=0)[:fanout]
            gates = _softmax(np.take_along_axis(logit, pick, axis=0), axis=0)
            chosen = bank[np.take_along_axis(ids, pick, axis=0)]   # (fanout, cells, vocab)
            rows[g, s] = kl_rows(originals[s], np.einsum("fu,fuv->uv", gates, chosen),
                                 log_originals[s])
        # one dot per row, as ``weights @ row``; ``rows @ weights`` (gemv) rounds differently
        vals.extend(np.matmul(rows[:, None, :], weights)[:, 0].tolist())
    return vals


# ---------------------------------------------------------------------------
# Saliency


def saliency(layer: MoeLayer, corpus: CalibCorpus) -> np.ndarray:
    """Mean routed gate mass times output norm per expert, scaled to [0, 1].

    Returns an (n,) float64 array.  A never-routed expert scores raw 0.
    When all raw scores coincide the min-max normalization degenerates and
    the vector is all-zero.
    """
    symbols, weights = corpus.symbol_weights
    idx, gates = _route(layer.router_logits[:, symbols], layer.fanout)
    raw = np.zeros(layer.n)
    np.add.at(raw, idx, gates * weights[None, :])
    raw *= np.linalg.norm(layer.expert_dists, axis=1)
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 0.0:
        return np.zeros(layer.n)
    return (raw - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# Compressed-layer evaluation


def compressed_symbol_outputs(layer: MoeLayer, plan: "SurvivorPlan",
                              symbols: np.ndarray,
                              masks: Mapping[int, "PruneMask"] | None = None) -> np.ndarray:
    """Output of the compressed layer at each symbol.

    Each output expert has a source list, one of ``plan.groups``: the
    survivor and the experts redirected to it.  Redirect plans keep
    survivors bit-exact and fold each dropped expert's router logit into its
    redirect target by log-sum-exp; merge plans (those with routing weights)
    replace each list by its frequency-weighted merged expert.  ``masks``
    optionally maps each survivor of a redirect plan, and nothing else, to
    its keep mask (vocab x ctx) from the weight-pruning stage: at context c
    the pruned expert's logits are its logit row times column c of the mask.

    Lists of one length are folded together by one
    ``_logsumexp(..., axis=1)`` on their stacked (lists, length, ctx) router
    rows, and a one-expert list is its row, so a plan costs one call per
    distinct list length above one rather than one per survivor.  The
    result equals one call per list bit for bit: every stacked row is
    reduced over the same rows in the same order and memory layout as
    alone, so numpy adds them the same way (in sequence when ctx > 1,
    pairwise in eight lanes when ctx == 1), and the log-sum-exp of one row
    is ``log1p(0) + log(1) + row``.  Lists are not padded to one
    length with -inf: the padding would add exact zeros in sequence, but
    with a single column numpy sums pairwise and the padded length regroups
    the adds.  For the same reason the fold runs over all ctx columns and
    the symbols are taken after it.
    """
    if plan.n != layer.n:
        raise ValueError(f"plan over {plan.n} experts does not fit a layer of {layer.n}: "
                         "experts outside one of them would be lost")
    symbols = np.asarray(symbols, dtype=np.int64)
    sources = plan.groups
    if plan.merge_weights is not None:
        if masks is not None:
            raise ValueError(f"hybrid stage 2 needs bit-exact survivors; {plan.method!r} "
                             "merges expert groups instead")
        dists = np.stack([merged_distribution(layer.expert_dists, g, plan.merge_weights)
                          for g in sources])
    elif masks is None:
        dists = layer.expert_dists[list(plan.survivors)]
    elif set(masks) != set(plan.survivors):
        raise ValueError(f"masks of experts {sorted(masks)} do not match the plan's "
                         f"survivors {sorted(plan.survivors)}")
    else:
        dists = np.stack([
            _softmax((layer.expert_logits[j][:, None] * masks[j].mask[:, symbols]).T, axis=1)
            for j in plan.survivors
        ])                                                     # (k, u, vocab)
    cols = _fold_router(layer.router_logits, sources)[:, symbols]
    return _mixture_outputs(dists, cols, min(layer.fanout, len(sources)))


def _fold_router(router_logits: np.ndarray, sources: Sequence[Sequence[int]]) -> np.ndarray:
    """Log-sum-exp of each source list's router rows, one folded row per list;
    equal to a per-list ``_logsumexp`` (see :func:`compressed_symbol_outputs`)."""
    folded = np.empty((len(sources), router_logits.shape[1]))
    rows_by_length: dict[int, list[int]] = {}
    for row, src in enumerate(sources):
        rows_by_length.setdefault(len(src), []).append(row)
    for length, rows in rows_by_length.items():
        idx = np.array([sources[row] for row in rows], dtype=np.int64)
        folded[rows] = (router_logits[idx[:, 0]] if length == 1
                        else _logsumexp(router_logits[idx], axis=1))
    return folded


def compression_loss(layer: MoeLayer, corpus_heldout: CalibCorpus,
                     plan: "SurvivorPlan",
                     masks: Mapping[int, "PruneMask"] | None = None) -> float:
    """Mean held-out KL between the original and the compressed layer."""
    symbols, weights = corpus_heldout.symbol_weights
    original = layer.corpus_outputs(corpus_heldout)
    compressed = compressed_symbol_outputs(layer, plan, symbols, masks)
    return float(weights @ kl_rows(original, compressed))
