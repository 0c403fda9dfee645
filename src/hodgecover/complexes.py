"""Oriented simplicial 2-complexes and their sparse boundary operators.

A complex is a vertex count plus lexicographically sorted edge and triangle
lists.  Orientation is induced by the natural integer order on vertices, so
the signed boundary operators are determined by the sorted simplex lists:

    d1 [i, j]    = [j] - [i]                 (vertex-edge incidence)
    d2 [i, j, k] = [j, k] - [i, k] + [i, j]  (edge-triangle incidence)

They satisfy d1 @ d2 = 0 exactly in integer arithmetic, which is the single
identity behind everything in :mod:`hodgecover.hodge`.  A complex finds the
edge rows of its triangles once, at construction (``Complex2.edge_rows``),
and the analysis reads d2 only through them: sparse column reduction,
gathers and scatter-adds.  No |E| x |T| matrix is formed.
"""

from __future__ import annotations

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

    ``edges`` (|E|, 2) and ``triangles`` (|T|, 3) are int64 simplex lists,
    sorted as :func:`simplex_keys` checks.  ``edge_rows`` is the read-only
    (3, |T|) array of the rows in ``edges`` of each triangle's edges (i,j),
    (i,k), (j,k): column t of d2 holds +1, -1, +1 there.  Instances are
    immutable and safe to share across threads.
    """

    n: int
    edges: np.ndarray
    triangles: np.ndarray
    edge_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_simplex_array(self.edges, 2))
        object.__setattr__(self, "triangles", _as_simplex_array(self.triangles, 3))
        rows = self._triangle_edge_rows(self._validate())
        rows.flags.writeable = False
        object.__setattr__(self, "edge_rows", rows)

    def _validate(self) -> np.ndarray:
        """Check both simplex lists (:func:`simplex_keys`); returns the edge keys."""
        if self.n < 0:
            raise ComplexStructureError(f"vertex count must be >= 0, got {self.n}")
        edge_keys = simplex_keys("edge", self.edges, self.n)
        simplex_keys("triangle", self.triangles, self.n)
        return edge_keys

    def _triangle_edge_rows(self, edge_keys: np.ndarray) -> np.ndarray:
        """``edge_rows``; raises :class:`ComplexStructureError` naming the
        first triangle that has an edge missing from the edge list.  The edge
        keys are binary-searched, then the rows found compared whole, so a
        missing edge is not taken for its neighbour in the sort."""
        query = _triangle_edges(self.triangles)
        rows = np.searchsorted(edge_keys, _lex_keys(query, self.n))
        found = rows < len(edge_keys)
        found[found] = (self.edges[rows[found]] == query[found]).all(axis=1)
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
        return float(np.sqrt(self.values.dot(self.values)))


def vertex_boundary(k: Complex2, dtype=np.float64) -> np.ndarray:
    """d1 as a dense n x |E| matrix: -1 at each edge's tail, +1 at its head."""
    d1 = np.zeros((k.n, k.num_edges), dtype=dtype)
    cols = np.arange(k.num_edges)
    d1[k.edges[:, 0], cols] = -1
    d1[k.edges[:, 1], cols] = +1
    return d1


SIGNS = np.array([1.0, -1.0, 1.0])  # d2 on a triangle's edges (i,j), (i,k), (j,k)


def boundary_pivots(rows: np.ndarray) -> np.ndarray:
    """Pivot columns of d2 over the reals, from one column reduction over the integers.

    Column c of d2 holds +1, -1, +1 at the edge rows ``rows[:, c]`` (the
    layout of ``Complex2.edge_rows``).  The columns are reduced left to
    right, each against the pivot columns before it by their lowest nonzero
    row, as in persistent homology (Edelsbrunner, Letscher and Zomorodian
    2002; Zomorodian and Carlsson 2005): while a column's lowest row r is
    some pivot's lowest row, col := f * col - g * pivot, with f and g their
    entries at r.  A column that does not reduce to zero is a pivot.

    The arithmetic is on Python ints, so it is exact.  The pivots have
    distinct lowest rows, so they are independent.  A column that reaches
    zero is a rational combination of the columns before it, so it lies in
    their real span.  Hence the pivots among the first s columns number
    rank(d2[:, :s]) over the reals and span d2[:, :s].  Returns a boolean
    mask over the columns.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(3, -1)
    reduced: dict[int, dict[int, int]] = {}  # lowest row -> pivot column
    pivot = np.zeros(rows.shape[1], dtype=bool)
    for c, (a, b, d) in enumerate(rows.T.tolist()):
        col = {a: 1, b: -1, d: 1}
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                pivot[c] = True
                break
            f, g = other[low], col[low]
            if f != 1:
                col = {r: f * v for r, v in col.items()}
            for r, v in other.items():
                v = col.get(r, 0) - g * v
                if v:
                    col[r] = v
                else:
                    del col[r]
    return pivot


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


def simplex_keys(name: str, simplices: np.ndarray, n: int) -> np.ndarray:
    """The lexicographic keys of a simplex list on vertices {0, ..., n-1}, once
    it passes the checks of every sorted simplex list: vertices in range,
    rows strictly increasing, and keys strictly increasing (distinct rows in
    lexicographic order).  A failure raises :class:`ComplexStructureError`."""
    if simplices.size and (simplices.min() < 0 or simplices.max() >= n):
        raise ComplexStructureError(f"{name} list has a vertex outside the range [0, {n})")
    if not (np.diff(simplices, axis=1) > 0).all():
        order = " < ".join("ijk"[:simplices.shape[1]])
        raise ComplexStructureError(f"{name} rows must have {order}")
    keys = _lex_keys(simplices, n)
    if not (np.diff(keys) > 0).all():
        raise ComplexStructureError(f"{name} list must be distinct and lexicographically sorted")
    return keys


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """The three edges (i,j), (i,k), (j,k) of each triangle, stacked."""
    i, j, k = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    return np.concatenate([
        np.column_stack([i, j]),
        np.column_stack([i, k]),
        np.column_stack([j, k]),
    ])
