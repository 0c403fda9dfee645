"""Oriented simplicial 2-complexes and their combinatorial Laplacians.

A complex is a vertex count plus lexicographically sorted edge and triangle
lists.  Orientation is induced by the natural integer order on vertices, so
the signed boundary operators are determined by the sorted simplex lists:

    d1 [i, j]    = [j] - [i]                 (vertex-edge incidence)
    d2 [i, j, k] = [j, k] - [i, k] + [i, j]  (edge-triangle incidence)

They satisfy d1 @ d2 = 0 exactly in integer arithmetic, which is the single
identity behind everything in :mod:`hodgecover.hodge`.  A complex finds the
edge rows of its triangles once, at construction (``Complex2.edge_rows``),
and the analysis reads d2 only through them: sparse column reduction,
gathers and scatter-adds.  No |E| x |T| matrix is formed on that path; the
dense :class:`SignedIncidence` serves the oracles.  The first Betti
number is computed by the Euler-Poincare count

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2)

and independently as dim ker(L1) for cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class ComplexStructureError(ValueError):
    """A simplex list violates the closure or ordering invariants."""


def svd_rcond(shape: tuple[int, ...]) -> float:
    """Relative singular-value cutoff max(dim) * eps, shared package-wide.

    Used both for numerical rank (entries below rcond * sigma_max are zero)
    and as the ``rcond`` of every pseudoinverse / least-squares solve, so
    kernel dimensions agree across modules.
    """
    return max(shape) * np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class Complex2:
    """Oriented simplicial 2-complex on vertices {0, ..., n-1}.

    ``edges`` is an (|E|, 2) int array with rows (i, j), i < j, strictly
    lexicographically increasing; ``triangles`` is (|T|, 3) with rows
    (i, j, k), i < j < k, also strictly increasing.  ``edge_rows`` is the
    read-only (3, |T|) array of the rows in ``edges`` of each triangle's
    edges (i,j), (i,k), (j,k): column t of d2 holds +1, -1, +1 there.
    Instances are immutable after construction and safe to share across
    threads.
    """

    n: int
    edges: np.ndarray
    triangles: np.ndarray
    edge_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_simplex_array(self.edges, 2))
        object.__setattr__(self, "triangles", _as_simplex_array(self.triangles, 3))
        self._validate()
        rows = self._triangle_edge_rows()
        rows.flags.writeable = False
        object.__setattr__(self, "edge_rows", rows)

    def _validate(self) -> None:
        if self.n < 0:
            raise ComplexStructureError(f"vertex count must be >= 0, got {self.n}")
        for name, arr, width in (("edge", self.edges, 2), ("triangle", self.triangles, 3)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.n):
                raise ComplexStructureError(f"{name} list has vertex outside [0, {self.n})")
            if arr.size and not (np.diff(arr, axis=1) > 0).all():
                raise ComplexStructureError(f"{name} rows must be strictly increasing tuples")
            # strict lexicographic order doubles as the no-duplicates check
            if arr.shape[0] > 1:
                flat = _lex_keys(arr, self.n)
                if not (np.diff(flat) > 0).all():
                    raise ComplexStructureError(f"{name} list is not strictly lex-sorted")

    def _triangle_edge_rows(self) -> np.ndarray:
        """``edge_rows``; raises :class:`ComplexStructureError` naming the
        first triangle that has an edge missing from the edge list."""
        keys = _lex_keys(_triangle_edges(self.triangles), self.n)
        edge_keys = _lex_keys(self.edges, self.n)
        rows = np.searchsorted(edge_keys, keys)
        found = rows < self.num_edges
        found[found] = edge_keys[rows[found]] == keys[found]
        found = found.reshape(3, self.num_triangles).all(axis=0)
        if not found.all():
            i, j, kk = self.triangles[np.nonzero(~found)[0][0]]
            raise ComplexStructureError(
                f"triangle ({i}, {j}, {kk}) has an edge missing from the edge list")
        return rows.reshape(3, self.num_triangles)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def complete_edges(n: int) -> np.ndarray:
    """All pairs (i, j), i < j, in lexicographic order."""
    i, j = np.triu_indices(n, k=1)
    return np.column_stack([i, j]).astype(np.int64)


@dataclass(frozen=True, eq=False)
class EdgeSignal:
    """Real-valued cochain on the edges of a fixed complex (units: nats)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if not np.isfinite(self.values).all():
            raise ValueError("edge signal has non-finite entries")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class SignedIncidence:
    """Signed boundary operators of a Complex2 in its lexicographic bases.

    ``b1`` is the n x |E| vertex-edge matrix (one -1 at the tail, one +1 at
    the head per column); ``b2`` is the |E| x |T| edge-triangle matrix with
    signs (+1, -1, +1) on edges [j,k], [i,k], [i,j].  Entries are integers
    and satisfy b1 @ b2 = 0 exactly.
    """

    b1: np.ndarray
    b2: np.ndarray


def vertex_boundary(k: Complex2, dtype=np.float64) -> np.ndarray:
    """d1 as a dense n x |E| matrix: -1 at each edge's tail, +1 at its head."""
    d1 = np.zeros((k.n, k.num_edges), dtype=dtype)
    cols = np.arange(k.num_edges)
    d1[k.edges[:, 0], cols] = -1
    d1[k.edges[:, 1], cols] = +1
    return d1


def build_incidence(k: Complex2) -> SignedIncidence:
    """The dense signed boundary matrices of ``k``, for the oracles and tests.

    The analysis never forms them: it reads d1 from ``k.edges`` and d2 from
    ``k.edge_rows``.
    """
    b2 = np.zeros((k.num_edges, k.num_triangles), dtype=np.int64)
    cols = np.arange(k.num_triangles)
    for sign, rows in zip(SIGNS, k.edge_rows):
        b2[rows, cols] = sign
    return SignedIncidence(b1=vertex_boundary(k, np.int64), b2=b2)


def edge_laplacian(inc: SignedIncidence) -> np.ndarray:
    """The Hodge Laplacian L1 = b1^T b1 + b2 b2^T on edge signals.

    Symmetric PSD, integer-valued, and its kernel is the harmonic subspace.
    It is dense |E| x |E|; call this only at desk scale (n up to a few
    hundred edges).
    """
    b1 = inc.b1.astype(np.float64)
    b2 = inc.b2.astype(np.float64)
    return b1.T @ b1 + b2 @ b2.T


def rank(matrix: np.ndarray) -> int:
    """Numerical rank via SVD with the shared relative cutoff."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix.astype(np.float64), compute_uv=False)
    return int((s > svd_rcond(matrix.shape) * s[0]).sum())


RANK_CUTOFF = 1e-8    # a column's distance from a span, relative to its norm, read as zero
# p = 2^61 - 1 first, then the largest primes below 2^62 and 2^63
PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25)
SIGNS = np.array([1.0, -1.0, 1.0])  # d2 on a triangle's edges (i,j), (i,k), (j,k)


def boundary_pivots(rows: np.ndarray) -> np.ndarray:
    """Pivot columns of d2 over the reals, from one column reduction mod a prime.

    Column c of d2 holds +1, -1, +1 at the edge rows ``rows[:, c]`` (the
    layout of ``Complex2.edge_rows``).  The columns are reduced left to
    right mod p = 2^61 - 1, each against the pivot columns before it by their
    lowest nonzero row, as in persistent homology (Edelsbrunner, Letscher and
    Zomorodian 2002; Zomorodian and Carlsson 2005).  A column that does not
    reduce to zero is a pivot.  The pivots among the first s columns number
    rank(d2[:, :s]) and their columns span d2[:, :s].  The count is over the
    reals, never over Z/p:

    - Columns independent mod p are independent over the integers, so the
      pivots are independent over the reals and a prefix's rank mod p is
      never above its real rank.
    - A non-pivot column with m pivots before it can be independent of them
      over the reals only if p divides a nonzero (m+1)-minor of those m + 1
      columns.  Each column has three entries of +-1, so the Hadamard bound
      caps that minor at 3^((m+1)/2).  While 3^(m+1) < p^2 (m + 1 <= 76 for
      p = 2^61 - 1) no such column needs a check.
    - Beyond that, each non-pivot column must lie in the real span of the
      pivots before it: its distance from that span, by the normal
      equations of those pivots, must be at most ``RANK_CUTOFF`` times its
      norm.  A dependent column of these integer matrices leaves a distance
      near 1e-15 and an independent one a distance of order one.  A failed
      check means p divides the torsion of that prefix's H1 (RP^2 has Z/2),
      and the reduction is redone with the next prime of ``PRIMES``.

    Raises :class:`ValueError` if every prime fails.  Returns a boolean mask
    over the columns.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(3, -1)
    for prime in PRIMES:
        pivot = _pivots_mod(rows, prime)
        if _dependents_in_span(rows, pivot, prime):
            return pivot
    raise ValueError(f"rank of d2 is not settled mod any of the primes {PRIMES}: "
                     "each divides the torsion of the complex's homology")


def span_check_from(prime: int) -> int:
    """Fewest pivots before a non-pivot column at which it needs the real check:
    the least m with 3^(m+1) >= prime^2."""
    return next(m for m in itertools.count() if 3 ** (m + 1) >= prime * prime)


def _pivots_mod(rows: np.ndarray, prime: int) -> np.ndarray:
    """Pivot mask of the left-to-right column reduction of d2 mod ``prime``."""
    reduced: dict[int, dict[int, int]] = {}  # lowest row -> pivot column, 1 there
    pivot = np.zeros(rows.shape[1], dtype=bool)
    for c, (a, b, d) in enumerate(rows.T.tolist()):
        col = {a: 1, b: prime - 1, d: 1}
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                scale = pow(col[low], -1, prime)
                reduced[low] = {r: v * scale % prime for r, v in col.items()}
                pivot[c] = True
                break
            factor = col[low]
            for r, v in other.items():
                v = (col.get(r, 0) - factor * v) % prime
                if v:
                    col[r] = v
                else:
                    del col[r]
    return pivot


def _dependents_in_span(rows: np.ndarray, pivot: np.ndarray, prime: int) -> bool:
    """Whether each non-pivot column the Hadamard bound leaves open lies in
    the real span of the pivots before it (see :func:`boundary_pivots`).

    A real dependency is a 2-chain with zero boundary, on whose support each
    edge lies on two triangles or more, so peeling off columns with an edge
    no other kept column has spares it.  One solve of the normal equations
    of the pivots left serves all open columns: with its coefficients on
    later pivots dropped, what is left of a column is rounding if it is in
    the span of the pivots before it, and at least its distance from it if not.
    """
    before = np.cumsum(pivot) - pivot
    keep = pivot | (before >= span_check_from(prime))
    open_cols = np.flatnonzero(keep & ~pivot)
    if not len(open_cols):
        return True
    num_edges, lone = int(rows.max()) + 1, keep
    while lone.any():
        count = np.bincount(rows[:, keep].ravel(), minlength=num_edges)
        lone = keep & (count[rows] == 1).any(axis=0)
        keep &= ~lone
    piv_cols = np.flatnonzero(keep & pivot)
    piv = rows[:, piv_cols]
    cols = boundary(rows[:, open_cols], np.eye(len(open_cols)), num_edges)
    coef = np.linalg.solve(boundary_gram(piv), boundary_t(piv, cols))
    coef[piv_cols[:, None] > open_cols] = 0.0
    resid = cols - boundary(piv, coef, num_edges)
    return bool((np.linalg.norm(resid, axis=0) <= RANK_CUTOFF * np.sqrt(3.0)).all())


def boundary_gram(rows: np.ndarray) -> np.ndarray:
    """d2^T d2 for the columns with edge rows ``rows``, exact in float64.

    Two distinct triangles share at most one edge, so an off-diagonal entry
    is 0 or the product of their signs on the shared edge, and the diagonal
    is 3.
    """
    t = rows.shape[1]
    order = np.argsort(rows.ravel(), kind="stable")
    edge = rows.ravel()[order]
    col = np.tile(np.arange(t), 3)[order]
    sign = np.repeat(SIGNS, t)[order]
    # every ordered pair of entries on one edge
    start = np.searchsorted(edge, edge, side="left")
    count = np.searchsorted(edge, edge, side="right") - start
    first = np.repeat(np.arange(3 * t), count)
    second = np.repeat(start + count - np.cumsum(count), count) + np.arange(count.sum())
    gram = np.zeros((t, t))
    gram[col[first], col[second]] = sign[first] * sign[second]
    gram[np.diag_indices(t)] = 3.0
    return gram


def boundary(rows: np.ndarray, coef: np.ndarray, num_edges: int) -> np.ndarray:
    """d2 @ coef for the columns with edge rows ``rows``, by scatter-adds."""
    out = np.zeros((num_edges,) + coef.shape[1:])
    for sign, r in zip(SIGNS, rows):
        np.add.at(out, r, sign * coef)
    return out


def boundary_t(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """d2^T @ values for the columns with edge rows ``rows``, by gathers."""
    return values[rows[0]] - values[rows[1]] + values[rows[2]]


class UnionFind:
    """Disjoint sets over 0..n-1 whose representative is the lowest member."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo
        self.components -= 1
        return True

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return [out[r] for r in sorted(out)]


def skeleton_components(k: Complex2) -> int:
    """Connected components of the 1-skeleton (V, E)."""
    uf = UnionFind(k.n)
    for i, j in k.edges.tolist():
        uf.union(i, j)
    return uf.components


def betti1(k: Complex2) -> int:
    """First Betti number by the Euler-Poincare count for a 2-complex.

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2), with the rank of
    the dense d2 by SVD: the oracle of Stage B's Betti curve.  Equals the
    kernel dimension of L1 (see :func:`kernel_dimension`).
    """
    value = k.num_edges - k.n + skeleton_components(k) - rank(build_incidence(k).b2)
    if value < 0:
        raise ComplexStructureError(f"negative Betti number {value}; inputs inconsistent")
    return value


def kernel_dimension(inc: SignedIncidence) -> int:
    """dim ker(L1) without forming L1.

    ker(L1) = ker(d1) intersect ker(d2^T) is the nullspace of the stacked
    operator [b1; b2^T], so the dimension is |E| - rank of that stack.
    This stays feasible at |E| = 32 640 where the dense |E| x |E| L1 would
    not fit in memory.
    """
    m = inc.b1.shape[1]
    stacked = np.vstack([inc.b1, inc.b2.T]).astype(np.float64)
    return m - rank(stacked)


def random_complex(rng: np.random.Generator, n_max: int = 20, *,
                   edge_prob: float | None = None,
                   triangle_prob: float | None = None) -> Complex2:
    """Random valid complex for property tests.

    Samples an edge subset of K_n, then a triangle subset of the 3-cliques
    of that subset, so closure holds by construction.
    """
    n = int(rng.integers(3, n_max + 1))
    p_e = float(rng.uniform(0.3, 0.9)) if edge_prob is None else edge_prob
    p_t = float(rng.uniform(0.2, 0.8)) if triangle_prob is None else triangle_prob
    all_edges = complete_edges(n)
    keep = rng.random(len(all_edges)) < p_e
    edges = all_edges[keep]
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj |= adj.T
    tris = []
    for i, j in edges:
        above = np.nonzero(adj[i] & adj[j])[0]
        tris.extend((int(i), int(j), int(kk)) for kk in above[above > j])
    tris.sort()
    keep_t = rng.random(len(tris)) < p_t
    triangles = [t for t, ok in zip(tris, keep_t) if ok]
    return Complex2(n, edges, np.array(triangles, dtype=np.int64).reshape(-1, 3))


def _as_simplex_array(arr, width: int) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64)
    if out.size == 0:
        return out.reshape(0, width)
    if out.ndim != 2 or out.shape[1] != width:
        raise ComplexStructureError(f"expected shape (*, {width}), got {out.shape}")
    return out


def _lex_keys(arr: np.ndarray, n: int) -> np.ndarray:
    base = max(n, 1)
    key = np.zeros(arr.shape[0], dtype=np.int64)
    for col in range(arr.shape[1]):
        key = key * base + arr[:, col]
    return key


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """The three edges (i,j), (i,k), (j,k) of each triangle, stacked."""
    i, j, k = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    return np.concatenate([
        np.column_stack([i, j]),
        np.column_stack([i, k]),
        np.column_stack([j, k]),
    ])
