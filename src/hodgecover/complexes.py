"""Oriented simplicial 2-complexes and their combinatorial Laplacians.

A complex is a vertex count plus lexicographically sorted edge and triangle
lists.  Orientation is induced by the natural integer order on vertices, so
the signed boundary operators are determined by the sorted simplex lists:

    d1 [i, j]    = [j] - [i]                 (vertex-edge incidence)
    d2 [i, j, k] = [j, k] - [i, k] + [i, j]  (edge-triangle incidence)

They satisfy d1 @ d2 = 0 exactly in integer arithmetic, which is the single
identity behind everything in :mod:`hodgecover.hodge`.  The first Betti
number is computed by the Euler-Poincare count

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2)

and independently as dim ker(L1) for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    (i, j, k), i < j < k, also strictly increasing.  Instances are
    immutable after construction and safe to share across threads.
    """

    n: int
    edges: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_simplex_array(self.edges, 2))
        object.__setattr__(self, "triangles", _as_simplex_array(self.triangles, 3))
        self._validate()

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
        _triangle_edge_rows(self)

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


def build_incidence(k: Complex2) -> SignedIncidence:
    """Assemble the signed boundary matrices of ``k``.

    Raises :class:`ComplexStructureError` if a triangle references an edge
    that is not in the edge list (checked again here because the incidence
    assembly is exactly where the closure property is consumed).
    """
    m, t = k.num_edges, k.num_triangles
    b1 = np.zeros((k.n, m), dtype=np.int64)
    if m:
        cols = np.arange(m)
        b1[k.edges[:, 0], cols] = -1
        b1[k.edges[:, 1], cols] = +1

    b2 = np.zeros((m, t), dtype=np.int64)
    if t:
        rows = _triangle_edge_rows(k)
        cols = np.arange(t)
        b2[rows[0], cols] = +1
        b2[rows[1], cols] = -1
        b2[rows[2], cols] = +1
    return SignedIncidence(b1=b1, b2=b2)


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


RANK_BLOCK = 64       # widest column block one Gram-Schmidt step takes
RANK_CUTOFF = 1e-8    # relative to the block's largest column norm


def prefix_ranks(matrix: np.ndarray, stops) -> tuple[np.ndarray, np.ndarray]:
    """Numerical rank of each leading column block ``matrix[:, :s]``, and a basis.

    ``stops`` must be nondecreasing.  One pass over the columns keeps an
    orthonormal basis of the span seen so far: each new block of at most
    ``RANK_BLOCK`` columns is projected off the basis by two passes of
    classical Gram-Schmidt, and the left singular vectors of the residual
    whose singular value exceeds ``RANK_CUTOFF`` times the block's largest
    column norm join the basis.  For the integer boundary matrices here a
    dependent column leaves a residual near 1e-15 while an independent one
    leaves one of order one, so the cutoff sits far from both.  The rank is
    over the reals, never Z/2.

    Returns the ranks and the basis, an (m, ranks[-1]) matrix with
    orthonormal columns whose first ``ranks[i]`` columns span
    ``matrix[:, :stops[i]]``.
    """
    m, cols = matrix.shape
    basis = np.empty((m, min(m, cols)))
    rank_so_far = done = 0
    out = np.zeros(len(stops), dtype=np.int64)
    for idx, stop in enumerate(stops):
        while done < stop:
            end = min(stop, done + RANK_BLOCK)
            block = matrix[:, done:end].astype(np.float64)
            cutoff = RANK_CUTOFF * float(np.linalg.norm(block, axis=0).max())
            q = basis[:, :rank_so_far]
            for _ in range(2):
                block -= q @ (q.T @ block)
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            new = int((s > cutoff).sum())
            basis[:, rank_so_far:rank_so_far + new] = u[:, :new]
            rank_so_far += new
            done = end
        out[idx] = rank_so_far
    return out, basis[:, :rank_so_far]


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


def betti1(k: Complex2, inc: SignedIncidence) -> int:
    """First Betti number by the Euler-Poincare count for a 2-complex.

    beta1 = |E| - |V| + components(1-skeleton) - rank(d2).  Equals the
    kernel dimension of L1 (see :func:`kernel_dimension`).
    """
    value = k.num_edges - k.n + skeleton_components(k) - rank(inc.b2)
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


def _triangle_edge_rows(k: Complex2) -> np.ndarray:
    """Rows in ``k.edges`` of each triangle's edges (i,j), (i,k), (j,k), shape (3, |T|).

    Raises :class:`ComplexStructureError` naming the first triangle that has
    an edge missing from the edge list, which must be lex-sorted.
    """
    keys = _lex_keys(_triangle_edges(k.triangles), k.n)
    edge_keys = _lex_keys(k.edges, k.n)
    rows = np.searchsorted(edge_keys, keys)
    found = rows < k.num_edges
    found[found] = edge_keys[rows[found]] == keys[found]
    found = found.reshape(3, k.num_triangles).all(axis=0)
    if not found.all():
        i, j, kk = k.triangles[np.nonzero(~found)[0][0]]
        raise ComplexStructureError(
            f"triangle ({i}, {j}, {kk}) has an edge missing from the edge list")
    return rows.reshape(3, k.num_triangles)


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """The three edges (i,j), (i,k), (j,k) of each triangle, stacked."""
    i, j, k = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    return np.concatenate([
        np.column_stack([i, j]),
        np.column_stack([i, k]),
        np.column_stack([j, k]),
    ])
