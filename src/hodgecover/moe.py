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
- Touched cells.  ``_merged_cell_kls`` evaluates them by the placement rule
  stated there, and each group's mean is the dot product of its row of cell
  values with the symbol weights, as for the whole merged layer.

With fanout 2 at 64 experts, 6.2 % of the (pair, symbol) cells have one
routed member, 0.14 % more are touched, and 8.6 % pass the bound.
"""

from __future__ import annotations

import base64
import json
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .complexes import simplex_keys

if TYPE_CHECKING:  # pragma: no cover
    from .selector import SurvivorPlan
    from .wanda import PruneMask

KL_FLOOR = 1e-12        # probability floor on the merged (second) argument
FREQ_GUARD = 1e-12      # below this total routing mass, fall back to the plain average
# float64 entries of one sweep block's largest array: 512 KiB.  Blocks of a few MiB
# ran slower: each one's temporaries fell out of cache and were page-faulted anew.
# Smaller blocks cost more numpy calls per cell; the step arrays reuse buffers instead.
BLOCK_FLOATS = 1 << 16
LOG_TIES = np.log(np.array([1.0, 2.0, 3.0]))    # _logsumexp's log(m) at m = 1, 2, 3 maxima

T = TypeVar("T")


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


def b64_text(a: np.ndarray) -> str:
    """The bytes of ``a`` in C order, as base64 text."""
    return base64.b64encode(a.tobytes()).decode("ascii")


def b64_array(value: object, field: str, dtype: str, count: int) -> np.ndarray:
    """The ``count`` items of ``dtype`` that the base64 text ``value`` holds, as a
    read-only array over the decoded bytes.  A value that is not a string, a
    character outside the base64 alphabet, or a payload of any other length
    raises a one-line ``ValueError`` that names ``field``."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:   # binascii.Error, or a character outside ASCII
        raise ValueError(f"{field} is not base64: {exc}") from None
    dtype = np.dtype(dtype)
    if len(raw) != count * dtype.itemsize:
        raise ValueError(f"{field} holds {len(raw)} bytes; {count} items of {dtype} "
                         f"take {count * dtype.itemsize}")
    return np.frombuffer(raw, dtype=dtype)


class KeepsConstants:
    """Quantities derived from a frozen object alone, each computed once and
    kept while the object lives."""

    @cached_property
    def _constants(self) -> dict:
        return {}

    def constant(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per object and ``key``, then shared.
        Keys name values, never object identities; arrays among the results
        should be read-only."""
        if key not in self._constants:
            self._constants[key] = compute()
        return self._constants[key]


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
        for key in ("expert_logits", "router_logits"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{key} must be finite")

    @cached_property
    def expert_dists(self) -> np.ndarray:
        """Per-expert output distributions, (n, vocab) rows summing to 1."""
        return _softmax(self.expert_logits, axis=1)

    @cached_property
    def _routing_by_corpus(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def routing(self, corpus: "CalibCorpus"
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The layer's routing at the corpus's symbols, (order, gates, outputs,
        log_outputs): the experts in routing order, (n, u), by a stable sort of
        the router logits, descending, so ties go to the lower index; the
        softmax gates of the first fanout, (fanout, u); the layer's outputs,
        (u, vocab); and ``log(max(outputs, KL_FLOOR))``, the first argument's
        log that :func:`kl_rows` takes.  Computed once per corpus and kept,
        read-only, while the corpus lives."""
        kept = self._routing_by_corpus.get(corpus)
        if kept is None:
            cols = self.router_logits[:, corpus.symbol_weights[0]]
            order = np.argsort(-cols, axis=0, kind="stable")
            idx = order[:self.fanout]
            gates = _softmax(np.take_along_axis(cols, idx, axis=0), axis=0)
            outputs = _mixture_outputs(gates, self.expert_dists[idx])
            kept = self._routing_by_corpus[corpus] = tuple(map(read_only, (
                order, gates, outputs, np.log(np.maximum(outputs, KL_FLOOR)))))
        return kept

    def to_json(self) -> str:
        """The layer file: the five integers, and each logit table as base64 of
        its little-endian float64 bytes in C order, shaped (n, vocab) and
        (n, ctx)."""
        return json.dumps({
            "n": self.n, "vocab": self.vocab, "ctx": self.ctx,
            "fanout": self.fanout, "seed": self.seed,
            "expert_logits": b64_text(self.expert_logits.astype("<f8")),
            "router_logits": b64_text(self.router_logits.astype("<f8")),
        })

    @classmethod
    def from_json(cls, text: str) -> "MoeLayer":
        """Parse a layer file; a field of the wrong type or size raises ``ValueError``.
        Every logit comes back bit for bit."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a layer file holds one JSON object")
        for key in ("n", "vocab", "ctx", "fanout", "seed"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        logits = []
        for key, cols in (("expert_logits", doc["vocab"]), ("router_logits", doc["ctx"])):
            if isinstance(doc[key], list):
                raise ValueError(f"{key} is a nested list, the layout of an earlier version; "
                                 "rebuild the model with `hodgecover synth`")
            logits.append(b64_array(doc[key], key, "<f8", doc["n"] * cols).reshape(doc["n"], cols))
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
    """Top-fanout expert indices and renormalized gates per finite context column.

    Slot f is the ``argmax`` over the experts not in slots 0..f-1, the first
    maximum, so ties go to the lower index as in a stable sort of the logits,
    descending (the tests' oracle); routing is deterministic even for
    degenerate layers."""
    left = router_cols.T.copy()             # (u, k): each column's logits contiguous
    at = np.arange(left.shape[0])
    idx, top = np.empty((fanout, len(at)), np.intp), np.empty((fanout, len(at)))
    for f in range(fanout):
        idx[f] = left.argmax(axis=1)
        top[f] = left[at, idx[f]]
        left[at, idx[f]] = -np.inf
    return idx, _softmax(top, axis=0)


def _mixture_outputs(gates: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Gate-weighted mixture at every context column: ``gates`` (fanout, u)
    of :func:`_route`, ``chosen`` (fanout, u, vocab) the distribution of
    each routed (slot, column) cell."""
    return np.einsum("fu,fuv->uv", gates, chosen)


def routing_frequencies(layer: MoeLayer, corpus: CalibCorpus) -> np.ndarray:
    """Fraction of corpus tokens routing each expert; sums to fanout."""
    freq = np.zeros(layer.n)
    np.add.at(freq, layer.routing(corpus)[0][:layer.fanout], corpus.symbol_weights[1][None, :])
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


def _merged_distributions(dists: np.ndarray, groups: np.ndarray,
                          freqs: np.ndarray) -> np.ndarray:
    """:func:`merged_distribution` of each row of the (G, L) ``groups``, (G,
    vocab), bit for bit: each row's weights are summed and divided as one
    group's, and the stacked ``matmul`` takes the same product per group."""
    w = freqs[groups]
    total = w.sum(axis=1, keepdims=True)
    w = np.divide(w, total, out=np.full(w.shape, 1.0 / groups.shape[1]),
                  where=~(total < FREQ_GUARD))
    return np.matmul(w[:, None, :], dists[groups])[:, 0]


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
class BarrierTable(KeepsConstants):
    """All pairwise barriers, candidate triplet barriers, routing frequencies.

    ``triples`` is an (m, 3) simplex list, checked by the rules of
    :mod:`~hodgecover.complexes` (``simplex_keys``), and ``triplet`` the (m,)
    barrier of each row.  In an analysis the triples are the candidate
    triangles that Stage B and the discordance read.  The selector keeps its
    merge orders, veto and merge sequences on the table as constants
    (:meth:`~KeepsConstants.constant`).
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
        if self.triplet.shape != (len(self.triples),):
            raise ValueError("need one triplet barrier per triple")
        if not np.isfinite(self.triplet).all():
            raise ValueError("triplet barriers must be finite")
        simplex_keys("triple", self.triples, self.n)

    @property
    def n(self) -> int:
        return self.pairwise.shape[0]

    @cached_property
    def worst_pairwise(self) -> np.ndarray:
        """Each triple's largest pairwise barrier, in row order; read-only."""
        i, j, k = self.triples.T
        pw = self.pairwise
        return read_only(np.maximum.reduce([pw[i, j], pw[i, k], pw[j, k]]))

    def upper_entries(self) -> np.ndarray:
        i, j = np.triu_indices(self.n, k=1)
        return self.pairwise[i, j]

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
    i, j = np.triu_indices(layer.n, k=1)
    pairwise = np.zeros((layer.n, layer.n))
    pairwise[i, j] = pairwise[j, i] = _merge_kls(layer, corpus, np.stack([i, j], axis=1), freqs)
    return extend_triplets(layer, corpus, BarrierTable(pairwise, freqs),
                           triangle_candidates)


def extend_triplets(layer: MoeLayer, corpus: CalibCorpus, table: BarrierTable,
                    triangle_candidates: Iterable[Sequence[int]]) -> BarrierTable:
    """``table``, which holds no triplet barriers yet, with the candidates' added.

    Only the triplet cells are evaluated, each distinct candidate once, against
    the table's routing frequencies, so a pairwise table extended here equals
    the table :func:`barrier_sweep` fills for the same candidates.
    """
    if len(table.triples):
        raise ValueError("the table already holds triplet barriers; extend a pairwise table")
    triples = np.unique(np.sort(np.asarray(list(triangle_candidates), dtype=np.int64)
                                .reshape(-1, 3), axis=1), axis=0)       # rows, lexicographic
    return BarrierTable(table.pairwise, table.routing_freq, triples,
                        _merge_kls(layer, corpus, triples, table.routing_freq))


def _merge_kls(layer: MoeLayer, corpus: CalibCorpus, groups: Sequence[Sequence[int]],
               freqs: np.ndarray) -> list[float]:
    """Mean merge KL of every group, evaluated only on the cells a merge can change.

    Bit-identical per group to evaluating the whole merged layer at every
    symbol (the tests keep that as the oracle), by the argument in the
    module docstring: touched cells go through :func:`_merged_cell_kls`, the
    others add exactly 0.  Groups must all have the same size; pairs must be
    distinct.

    Pair cells with one routed member come from :func:`_one_routed_grid`; the
    other touched pair cells are listed from the routing order (both members
    routed, or the higher one unrouted and past the lse bound).  Triplet cells
    are classified by one small code per (expert, symbol), summed over the
    members, which tells a cell's routed members and whether it is live.  The
    cells with one routed member go to :func:`_merged_cell_kls` grouped by
    that member's rank r, with the routed list without r before the merged
    slot, as on the pair grid; the others take the per-cell path, which
    counts the first ranks outside the group.  Each group's row of cell
    values is built per block of groups.
    """
    if not len(groups):
        return []
    order, _, originals, log_originals = layer.routing(corpus)
    groups = np.sort(np.asarray(groups, dtype=np.int64), axis=1)
    size = groups.shape[1]
    n, vocab, routes = layer.n, layer.vocab, layer.fanout
    symbols, weights = corpus.symbol_weights
    u = len(symbols)
    cols = layer.router_logits[:, symbols]                       # (n, u)
    ranked = np.take_along_axis(cols, order, axis=0)             # logits in routing order
    rank = np.empty(order.shape, np.min_scalar_type(n))          # the inverse: each expert's rank
    np.put_along_axis(rank, order, np.arange(n)[:, None], axis=0)
    threshold = ranked[routes - 1]
    # lse(g) <= max(g) + log|g|, so a cell is touched only if some member is live
    reach = threshold - np.log(size) - 1e-6 * (1.0 + np.abs(threshold))
    fanout = min(routes, n - size + 1)                            # of the merged layer
    outside = min(fanout, n - size)                              # ranks outside g per cell
    # a block's (groups, symbols) rows, and a triplet block's cells, hold at most
    # BLOCK_FLOATS / 2 entries
    group_step = max(1, BLOCK_FLOATS // (2 * max(u, n)))
    n_blocks = -(-len(groups) // group_step)
    # every expert, then each group's merged expert, filled per block of groups
    bank = np.empty((n + len(groups), vocab))
    bank[:n] = layer.expert_dists
    for start in range(0, len(groups), group_step):
        bank[n + start:n + start + group_step] = _merged_distributions(
            layer.expert_dists, groups[start:start + group_step], freqs)
    cell_step = max(1, BLOCK_FLOATS // (fanout * vocab))
    # the step's (cells, vocab) arrays are written into buffers made once per call:
    # fresh ones each step were mapped and trimmed anew by malloc, and page-faulted
    chosen_buf, mixed_buf = np.empty(fanout * cell_step * vocab), np.empty(cell_step * vocab)
    p_buf, log_p_buf = (np.empty(cell_step * vocab) for _ in range(2))

    def cell_kls(g: np.ndarray, s: np.ndarray, merged_logit: np.ndarray,
                 routed_rank: int | None = None) -> np.ndarray:
        """The KL term of each cell (group g, symbol s) through the merged layer.
        With ``routed_rank`` r, each cell's one routed member is routed r-th, and
        the cell gets the routed list without r, as on :func:`_one_routed_grid`."""
        kls = np.empty(len(g))
        if routed_rank is not None:
            k, before = np.delete(np.arange(routes), routed_rank)[:, None], routed_rank
        for lo in range(0, len(g), cell_step):
            gc, sc = g[lo:lo + cell_step], s[lo:lo + cell_step]
            m = len(sc)
            if routed_rank is None:
                # the first ranks outside the group: count up, skipping the members' ranks
                k, before = np.repeat(np.arange(outside)[:, None], m, axis=1), outside
                for member_rank in np.sort(rank[groups[gc].T, sc], axis=0):
                    k += k >= member_rank
            # the indices are in range: mode="clip" only lets take write into out unbuffered
            p = np.take(originals, sc, axis=0, mode="clip", out=p_buf[:m * vocab].reshape(m, vocab))
            log_p = np.take(log_originals, sc, axis=0, mode="clip",
                            out=log_p_buf[:m * vocab].reshape(m, vocab))
            kls[lo:lo + m] = _merged_cell_kls(
                order[k, sc], ranked[k, sc], before, groups[gc, 0], merged_logit[lo:lo + m],
                n + gc, fanout, bank, p, log_p, chosen_buf, mixed_buf, u == 1)
        return kls

    def by_block(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells in order of their group's block (a group of -1 last), and
        where each block starts; small unsigned keys, so numpy sorts by radix."""
        key = np.where(group >= 0, group // group_step, n_blocks)
        key = key.astype(np.min_scalar_type(n_blocks))
        return (np.argsort(key, kind="stable"),
                np.concatenate([[0], np.cumsum(np.bincount(key, minlength=n_blocks))]))

    grid = None
    if size == 2:
        group_of = np.full((n, n), -1, dtype=np.int32)
        group_of[groups[:, 0], groups[:, 1]] = group_of[groups[:, 1], groups[:, 0]] = \
            np.arange(len(groups))
        if np.count_nonzero(group_of >= 0) != 2 * len(groups):
            raise ValueError("merge pairs must be distinct pairs of distinct experts")
        # the touched cells off the grid, by the ranks hi < lo of their members at
        # a symbol: both routed, or both unrouted with the higher past the lse bound
        both = np.triu_indices(routes, k=1)
        passing = (ranked[routes:] >= reach).sum(axis=0)           # a prefix of the unrouted
        i = np.arange(passing.max(initial=0))[:, None, None]
        near = np.nonzero((i < passing) & (np.arange(n - routes)[:, None] > i))
        hi = np.concatenate([np.repeat(both[0], u), routes + near[0]])
        lo = np.concatenate([np.repeat(both[1], u), routes + near[1]])
        sym = np.concatenate([np.tile(np.arange(u), len(both[0])), near[2]])
        merged_logit = _pair_logsumexp(ranked[hi, sym], ranked[lo, sym])
        keep = (lo < routes) | (merged_logit >= threshold[sym])
        hi, lo, sym, merged_logit = hi[keep], lo[keep], sym[keep], merged_logit[keep]
        cell_group = group_of[order[hi, sym], order[lo, sym]]
        listed = cell_group >= 0
        cell_group, sym = cell_group[listed], sym[listed]
        cell_kl = cell_kls(cell_group, sym, merged_logit[listed])
        cell_order, cell_bounds = by_block(cell_group)
        # an unlisted pair reads the bank's row n - 1: its grid cells are never read
        grid = _one_routed_grid(order, ranked, routes, bank, n + group_of, originals,
                                log_originals, chosen_buf, mixed_buf).ravel()
        grid_group = group_of[order[:routes, None, :], order[None, routes:, :]].ravel()
        grid_order, grid_bounds = by_block(grid_group)
    else:
        # per (expert, symbol): 4 + 16 r for the expert routed r-th, 1 for an unrouted
        # one past the lse bound, else 0.  A cell's sum over its members counts its
        # unrouted live ones, 4 x its routed ones, and 16 x their ranks
        code = np.where(rank < routes, 4 + 16 * rank.astype(np.intp), cols >= reach)
        code = code.astype(np.min_scalar_type(3 * (4 + 16 * routes)))
    rows_buf = np.empty(group_step * u)
    vals: list[float] = []
    for b, start in enumerate(range(0, len(groups), group_step)):
        block = groups[start:start + group_step]
        rows = rows_buf[:len(block) * u].reshape(len(block), u)
        rows.fill(0.0)
        if grid is not None:
            at = grid_order[grid_bounds[b]:grid_bounds[b + 1]]
            np.put(rows, (grid_group[at] - start) * u + at % u, grid.take(at))
            at = cell_order[cell_bounds[b]:cell_bounds[b + 1]]
            np.put(rows, (cell_group[at] - start) * u + sym[at], cell_kl[at])
        else:
            block_code = code[block[:, 0]] + code[block[:, 1]] + code[block[:, 2]]
            cell = np.flatnonzero(block_code)                       # gi * u + si
            cell_code = block_code.ravel().take(cell)
            gi, si = np.divmod(cell, u)
            merged_logit = _triple_logsumexp(*(cols.take(block[gi, i] * u + si)
                                               for i in range(3)))
            routed = (cell_code >> 2) & 3
            # key r: one routed member, routed r-th; key routes: the other touched
            # cells, on the per-cell path; key routes + 1: untouched, so they stay 0
            key = np.where(routed == 1, cell_code >> 4, routes)
            key[(routed == 0) & (merged_logit < threshold[si])] = routes + 1
            by_key = np.argsort(key, kind="stable")
            bounds = np.searchsorted(key, np.arange(routes + 2), sorter=by_key)
            for r in np.flatnonzero(np.diff(bounds)).tolist():
                at = by_key[bounds[r]:bounds[r + 1]]
                np.put(rows, cell[at], cell_kls(start + gi[at], si[at], merged_logit[at],
                                                r if r < routes else None))
        # one dot per row, as ``weights @ row``; ``rows @ weights`` (gemv) rounds differently
        vals.extend(np.matmul(rows[:, None, :], weights)[:, 0].tolist())
    return vals


def _merged_cell_kls(ids: np.ndarray, logits: np.ndarray, before: int, merged_id: np.ndarray,
                     merged_logit: np.ndarray, merged_row: np.ndarray, fanout: int,
                     bank: np.ndarray, p: np.ndarray, log_p: np.ndarray,
                     chosen_buf: np.ndarray, mixed_buf: np.ndarray,
                     one_symbol: bool) -> np.ndarray:
    """The KL term of each touched cell (group g, symbol s) through the merged
    layer; the cells take ``merged_logit``'s shape.

    The rule.  The merged layer replaces g by one expert with router logit
    m = lse(g) and index min g, and routes its top fanout' = min(fanout,
    n - |g| + 1) by (logit descending, index), as the stable sort does.  The
    other experts keep their logits and order, so it routes the first fanout'
    of the experts outside g in routing order, with the merged slot inserted
    at q = #{outside experts with c > m, or c = m and index < min g}.

    ``ids`` and ``logits`` (L, *cells), with L + 1 >= fanout', start that
    outside list, and only their first ``before`` entries can come before the
    merged slot, so q is counted over those.  ``merged_row`` is the merged
    expert's row of ``bank`` (the experts, then merged ones); ``p`` and
    ``log_p`` are the original outputs and their logs.  All broadcast.

    Exactness.  The gates, the mixture ``einsum`` and :func:`kl_rows` are
    the whole merged layer's, on the routed slots in order along axis 0, so
    each cell keeps its bits.  Whatever the cell count, the gate sum adds the
    slots in order, as numpy adds the whole layer's (fanout, symbols) gates,
    or pairwise per cell when the corpus has ``one_symbol``, as numpy adds a
    (fanout, 1) column.
    """
    shape = np.shape(merged_logit)
    m, vocab = merged_logit.size, bank.shape[1]
    # the outside list with the merged slot at its latest place, after ``before`` entries
    slots, rows = np.empty((len(ids) + 1, *shape)), np.empty((len(ids) + 1, *shape), np.int64)
    for stack, a, merged in ((slots, logits, merged_logit), (rows, ids, merged_row)):
        stack[:before], stack[before], stack[before + 1:] = a[:before], merged, a[before:]
    if before:
        c, i = logits[:before], ids[:before]
        q = ((c > merged_logit) | ((c == merged_logit) & (i < merged_id))).sum(axis=0)
        f = np.arange(before + 1).reshape(-1, *(1,) * len(shape))
        # slot f of each cell in the flat head of the stacks
        place = np.where(f == q, before, f - (f > q)) * m + np.arange(m).reshape(shape)
        slots[:before + 1], rows[:before + 1] = slots.take(place), rows.take(place)
    # _softmax along axis 0, its sum taken as numpy takes the whole layer's over
    # (fanout, symbols): pairwise down the column at one symbol, else slot by
    # slot.  numpy sums a (fanout, cells) step slot by slot too, but one cell's
    # column pairwise; cumsum adds in order, at 2-4x the cost of sum
    gates = slots[:fanout].reshape(fanout, m)
    gates -= gates.max(axis=0)
    np.exp(gates, out=gates)
    if one_symbol:
        gates /= np.ascontiguousarray(gates.T).sum(axis=1)
    else:
        gates /= gates.sum(axis=0) if m > 1 else np.cumsum(gates, axis=0)[-1]
    # the indices are in range: mode="clip" only lets take write into out unbuffered
    chosen = np.take(bank, rows[:fanout].reshape(fanout, m), axis=0, mode="clip",
                     out=chosen_buf[:fanout * m * vocab].reshape(fanout, m, vocab))
    mixed = np.einsum("fu,fuv->uv", gates, chosen, out=mixed_buf[:m * vocab].reshape(m, vocab))
    return kl_rows(p, mixed.reshape(*shape, vocab), log_p)


def _pair_logsumexp(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``_logsumexp`` of two logits hi >= lo, bit for bit: log1p(exp(lo - hi)) + hi,
    or log(2) + hi at a tie, where it sums two maxima."""
    out = np.exp(lo - hi)
    np.log1p(out, out=out)
    out += hi
    np.copyto(out, LOG_TIES[1] + hi, where=lo == hi)
    return out


def _triple_logsumexp(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_logsumexp`` over the stacked rows a, b, c, bit for bit, its steps
    taken row by row.  At most two rows are below the maximum, so their
    exps add in any order to the same sum."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum(np.maximum(a, b), c)
        ties = np.zeros(np.shape(top), np.intp)
        s, e = np.zeros(np.shape(top)), np.empty(np.shape(top))
        for row in (a, b, c):
            tied = row == top
            ties += tied
            np.exp(np.subtract(row, top, out=e), out=e)
            np.copyto(e, 0.0, where=tied)
            s += e
        s /= ties
        out = np.log1p(s, out=s)
        out += LOG_TIES.take(ties - 1)
        out += top
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a) + np.exp(b) + np.exp(c)))
    return out


def _one_routed_grid(order: np.ndarray, ranked: np.ndarray, routes: int, bank: np.ndarray,
                     bank_rows: np.ndarray, originals: np.ndarray, log_originals: np.ndarray,
                     chosen_buf: np.ndarray, mixed_buf: np.ndarray) -> np.ndarray:
    """The merge KL of every pair cell with exactly one routed member, as a
    (routes, n - routes, u) grid: entry [r, j, s] is the cell of the expert
    routed r-th at symbol s (x) and the j-th unrouted one (e).

    The merged logit lse(c_x, c_e) >= c_x, so of the routed list without x,
    which :func:`_merged_cell_kls` gets broadcast over e, only the first r
    can come before the merged slot.  The same holds for a triple with one
    routed member, whose lse is at least c_x too.
    """
    n, u = order.shape
    unrouted, unrouted_logits = order[routes:], ranked[routes:]
    grid = np.empty((routes, n - routes, u))
    cells = max(1, BLOCK_FLOATS // (routes * bank.shape[1]))
    sym_step = min(u, cells)
    other_step = max(1, cells // sym_step)
    for r in range(routes):
        ids, logits = (np.delete(a[:routes], r, axis=0)[:, None, :] for a in (order, ranked))
        for e0 in range(0, n - routes, other_step):
            for s0 in range(0, u, sym_step):
                es, ss = slice(e0, e0 + other_step), slice(s0, s0 + sym_step)
                x, e = order[r, ss], unrouted[es, ss]
                grid[r, es, ss] = _merged_cell_kls(
                    ids[..., ss], logits[..., ss], r, np.minimum(x, e),
                    _pair_logsumexp(ranked[r, ss], unrouted_logits[es, ss]), bank_rows[x, e],
                    routes, bank, originals[ss], log_originals[ss], chosen_buf, mixed_buf,
                    u == 1)
    return grid


# ---------------------------------------------------------------------------
# Saliency


def saliency(layer: MoeLayer, corpus: CalibCorpus) -> np.ndarray:
    """Mean routed gate mass times output norm per expert, scaled to [0, 1].

    Returns an (n,) float64 array.  A never-routed expert scores raw 0.
    When all raw scores coincide the min-max normalization degenerates and
    the vector is all-zero.
    """
    order, gates = layer.routing(corpus)[:2]
    raw = np.zeros(layer.n)
    np.add.at(raw, order[:layer.fanout], gates * corpus.symbol_weights[1][None, :])
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

    A pruned survivor's distribution differs per symbol, and the mixture
    reads it only at the fanout (survivor, symbol) cells the folded router
    picks.  So routing runs first, and only those cells are softmaxed: one
    gather on the survivors' stacked masks gives every cell's mask column,
    and their pruned logits form one C-ordered (cells, vocab) array, reduced
    over axis 1.  Each cell's row is contiguous, as each symbol's row is in
    the C-ordered (symbols, vocab) array of a softmax over every symbol (kept
    as the tests' oracle), so numpy sums it over vocab the same pairwise way
    and the bits match.  The cells are then mixed as unpruned experts are.

    Lists of one length are folded together by one
    ``_logsumexp(..., axis=1)`` on their stacked (lists, length, ctx) router
    rows, and a one-expert list is its row, so a plan costs one call per
    distinct list length above one rather than one per survivor; pairs and
    triples take :func:`_pair_logsumexp` and :func:`_triple_logsumexp`,
    which equal ``_logsumexp`` bit for bit.  A merge plan builds the merged
    experts of each length together too (:func:`_merged_distributions`).
    The fold equals one call per list bit for bit: every stacked row is
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
    survivors = list(plan.survivors)
    if plan.merge_weights is not None:
        if masks is not None:
            raise ValueError(f"hybrid stage 2 needs bit-exact survivors; {plan.method!r} "
                             "merges expert groups instead")
        dists = np.empty((len(sources), layer.vocab))
        freqs = np.asarray(plan.merge_weights, dtype=np.float64)
        for rows, lists in _by_length(sources):
            dists[rows] = _merged_distributions(layer.expert_dists, lists, freqs)
    elif masks is None:
        dists = layer.expert_dists[survivors]
    elif set(masks) != set(plan.survivors):
        raise ValueError(f"masks of experts {sorted(masks)} do not match the plan's "
                         f"survivors {sorted(plan.survivors)}")
    idx, gates = _route(_fold_router(layer.router_logits, sources)[:, symbols],
                        min(layer.fanout, len(sources)))
    if masks is None:
        return _mixture_outputs(gates, dists[idx])
    # the routed cells in (slot, symbol) order: survivor position and symbol of each
    pos, sym = idx.ravel(), np.broadcast_to(symbols, idx.shape).ravel()
    keep = np.stack([masks[j].mask for j in survivors])[pos, :, sym]
    logits = layer.expert_logits[survivors][pos] * keep
    return _mixture_outputs(gates, _softmax(logits, axis=1).reshape(*idx.shape, layer.vocab))


def _by_length(sources: Sequence[Sequence[int]]) -> list[tuple[list[int], np.ndarray]]:
    """The source lists of each length: their rows in ``sources``, and the
    lists stacked as one (lists, length) array."""
    by_length: dict[int, list[int]] = {}
    for row, src in enumerate(sources):
        by_length.setdefault(len(src), []).append(row)
    return [(rows, np.array([sources[i] for i in rows], dtype=np.int64))
            for rows in by_length.values()]


def _fold_router(router_logits: np.ndarray, sources: Sequence[Sequence[int]]) -> np.ndarray:
    """Log-sum-exp of each source list's router rows, one folded row per list;
    equal to a per-list ``_logsumexp`` (see :func:`compressed_symbol_outputs`)."""
    folded = np.empty((len(sources), router_logits.shape[1]))
    for rows, lists in _by_length(sources):
        rl, length = router_logits[lists], lists.shape[1]      # (lists, length, ctx)
        folded[rows] = (rl[:, 0] if length == 1
                        else _pair_logsumexp(rl.max(axis=1), rl.min(axis=1)) if length == 2
                        else _triple_logsumexp(rl[:, 0], rl[:, 1], rl[:, 2]) if length == 3
                        else _logsumexp(rl, axis=1))
    return folded


def compression_loss(layer: MoeLayer, corpus_heldout: CalibCorpus,
                     plan: "SurvivorPlan",
                     masks: Mapping[int, "PruneMask"] | None = None) -> float:
    """Mean held-out KL between the original and the compressed layer."""
    symbols, weights = corpus_heldout.symbol_weights
    _, _, original, log_original = layer.routing(corpus_heldout)
    compressed = compressed_symbol_outputs(layer, plan, symbols, masks)
    return float(weights @ kl_rows(original, compressed, log_original))
