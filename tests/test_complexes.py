import itertools

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hodgecover import builder, complexes, selector
from hodgecover.complexes import (Complex2, ComplexStructureError, UnionFind, boundary,
                                  boundary_gram, boundary_pivots, boundary_t, complete_edges)
from hodgecover.oracles import (betti1, build_incidence, edge_laplacian, kernel_dimension,
                                random_complex, rank, skeleton_components)
from rank_oracle import RANK_BLOCK, prefix_ranks


def k3(with_triangle=True):
    tris = [[0, 1, 2]] if with_triangle else []
    return Complex2(3, [[0, 1], [0, 2], [1, 2]], tris)


class TestComplexValidation:
    def test_rejects_unsorted_edges(self):
        with pytest.raises(ComplexStructureError):
            Complex2(3, [[0, 2], [0, 1]], [])

    def test_rejects_reversed_pair(self):
        with pytest.raises(ComplexStructureError):
            Complex2(3, [[1, 0]], [])

    def test_rejects_duplicates(self):
        with pytest.raises(ComplexStructureError):
            Complex2(3, [[0, 1], [0, 1]], [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ComplexStructureError):
            Complex2(3, [[0, 3]], [])

    def test_rejects_triangle_with_missing_edge(self):
        with pytest.raises(ComplexStructureError, match=r"\(0, 1, 2\)"):
            Complex2(3, [[0, 1], [0, 2]], [[0, 1, 2]])


def b2_loop(edges, triangles):
    """d2 as first assembled: an edge-index lookup per triangle."""
    b2 = np.zeros((len(edges), len(triangles)), dtype=np.int64)
    idx = {(int(i), int(j)): e for e, (i, j) in enumerate(edges)}
    for col, (i, j, kk) in enumerate(map(tuple, triangles)):
        try:
            b2[idx[(j, kk)], col] = +1
            b2[idx[(i, kk)], col] = -1
            b2[idx[(i, j)], col] = +1
        except KeyError:
            raise ComplexStructureError(
                f"triangle ({i}, {j}, {kk}) has an edge missing from the edge list"
            ) from None
    return b2


def triangle_edge_rows(k):
    """Rows in ``k.edges`` of each triangle's edges (i,j), (i,k), (j,k),
    shape (3, |T|), by a search of lexicographic keys, as the complex's edge
    rows were found before it kept them."""
    def keys(pairs):
        return pairs[:, 0] * max(k.n, 1) + pairs[:, 1]

    i, j, kk = k.triangles.T
    wanted = keys(np.concatenate([np.column_stack(p) for p in ((i, j), (i, kk), (j, kk))]))
    return np.searchsorted(keys(k.edges), wanted).reshape(3, k.num_triangles)


class TestEdgeRows:
    def test_match_the_lookup_oracle_on_random_complexes(self):
        rng = np.random.default_rng(6)
        cases = [random_complex(rng, n_max=16) for _ in range(100)]
        cases += [k3(), k3(False), Complex2(0, [], []), Complex2(4, complete_edges(4), [])]
        for k in cases:
            assert k.edge_rows.dtype == np.int64 and k.edge_rows.shape == (3, k.num_triangles)
            assert np.array_equal(k.edge_rows, triangle_edge_rows(k))

    def test_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            k3().edge_rows[0, 0] = 1


class TestIncidence:
    def test_single_edge_column(self):
        # boundary of [0, 1] is [1] - [0]
        k = Complex2(2, [[0, 1]], [])
        inc = build_incidence(k)
        assert inc.b1[:, 0].tolist() == [-1, 1]

    def test_triangle_column_signs(self):
        # boundary of [0, 1, 2]: +1 on (1,2), -1 on (0,2), +1 on (0,1)
        inc = build_incidence(k3())
        col = {tuple(e): int(s) for e, s in zip(k3().edges, inc.b2[:, 0])}
        assert col == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_chain_identity_exact_on_random_complexes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = random_complex(rng)
            inc = build_incidence(k)
            assert inc.b1.dtype == np.int64 and inc.b2.dtype == np.int64
            assert not (inc.b1 @ inc.b2).any()

    def test_b2_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        cases = [random_complex(rng, n_max=16) for _ in range(150)]
        cases += [k3(), k3(False), Complex2(0, [], []), Complex2(4, complete_edges(4), [])]
        for k in cases:
            b2 = build_incidence(k).b2
            assert b2.dtype == np.int64
            assert np.array_equal(b2, b2_loop(k.edges, k.triangles))

    def test_missing_edge_message_matches_loop_oracle(self):
        # the complex refuses, when built, the triangle the loop oracle refuses
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 30:
            k = random_complex(rng, n_max=10)
            if k.num_triangles == 0:
                continue
            edges = np.delete(k.edges, int(rng.integers(k.num_edges)), axis=0)
            try:
                b2_loop(edges, k.triangles)
            except ComplexStructureError as exc:
                expected = str(exc)
            else:
                continue
            with pytest.raises(ComplexStructureError) as caught:
                Complex2(k.n, edges, k.triangles)
            assert str(caught.value) == expected
            checked += 1
        with pytest.raises(ComplexStructureError, match=r"^triangle \(0, 1, 2\) has an edge"):
            Complex2(3, np.zeros((0, 2)), [[0, 1, 2]])

    def test_missing_edge_reported(self):
        with pytest.raises(ComplexStructureError, match="2"):
            Complex2(3, [[0, 1], [0, 2]], [[0, 1, 2]])


class TestLaplacians:
    def test_shapes_symmetry_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = random_complex(rng, n_max=12)
            l1 = edge_laplacian(build_incidence(k))
            assert l1.shape == (k.num_edges, k.num_edges)
            if l1.size:
                assert np.abs(l1 - l1.T).max() < 1e-10
                assert np.linalg.eigvalsh(l1).min() > -1e-10

    def test_filled_triangle_has_trivial_kernel(self):
        l1 = edge_laplacian(build_incidence(k3()))
        assert np.linalg.eigvalsh(l1).min() > 1e-8

    def test_empty_triangle_has_one_cycle(self):
        l1 = edge_laplacian(build_incidence(k3(False)))
        eig = np.linalg.eigvalsh(l1)
        assert (np.abs(eig) < 1e-10).sum() == 1

    def test_k4_kernel_dimension_matches_eigen_oracle(self):
        k = Complex2(4, complete_edges(4), [])
        inc = build_incidence(k)
        l1 = edge_laplacian(inc)
        eig_dim = int((np.abs(np.linalg.eigvalsh(l1)) < 1e-10).sum())
        assert eig_dim == 3  # |E| - n + 1 = 6 - 4 + 1
        assert kernel_dimension(inc) == 3


class TestBetti:
    def test_k4_no_triangles(self):
        k = Complex2(4, complete_edges(4), [])
        assert betti1(k) == 3

    def test_complete_two_skeleton_vanishes(self):
        n = 5
        tris = [[i, j, l] for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        k = Complex2(n, complete_edges(n), tris)
        assert betti1(k) == 0

    def test_matches_kernel_dimension_on_random_complexes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = random_complex(rng, n_max=14)
            assert betti1(k) == kernel_dimension(build_incidence(k))

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = random_complex(rng, n_max=10)
            inc = build_incidence(k)
            l1 = edge_laplacian(inc)
            if l1.size == 0:
                continue
            eig_dim = int((np.abs(np.linalg.eigvalsh(l1)) < 1e-8).sum())
            assert betti1(k) == eig_dim

    def test_edge_deletion_changes_betti(self):
        # thresholding pathology: removing one cycle edge shifts the count
        k = Complex2(4, complete_edges(4), [[0, 1, 2]])
        assert betti1(k) == 2
        cut = Complex2(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]], [[0, 1, 2]])
        assert betti1(cut) == 1

    def test_isolated_vertices_counted_as_components(self):
        k = Complex2(5, [[0, 1]], [])
        assert skeleton_components(k) == 4
        assert betti1(k) == 0


def oracle_components(k):
    adj = coo_matrix((np.ones(k.num_edges), (k.edges[:, 0], k.edges[:, 1])), shape=(k.n, k.n))
    return connected_components(adj, directed=False)[0]


class TestSkeletonComponentsMatchesScipy:
    @pytest.mark.parametrize("edge_prob", [0.0, 0.05, 0.15, 0.4, 0.9])
    def test_random_graphs(self, edge_prob):
        # low edge probabilities leave isolated vertices and many components
        rng = np.random.default_rng(int(edge_prob * 100))
        for _ in range(40):
            n = int(rng.integers(1, 25))
            edges = complete_edges(n)
            k = Complex2(n, edges[rng.random(len(edges)) < edge_prob], [])
            assert skeleton_components(k) == oracle_components(k)

    def test_single_vertex_and_empty_complex(self):
        one = Complex2(1, [], [])
        assert skeleton_components(one) == oracle_components(one) == 1
        assert skeleton_components(Complex2(0, [], [])) == 0

    def test_random_complexes(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            k = random_complex(rng, n_max=16)
            assert skeleton_components(k) == oracle_components(k)

    def test_one_union_find(self):
        # complexes.UnionFind is the package's one union-find; the selector's
        # merges keep a component-label array instead
        for module in (builder, selector):
            assert getattr(module, "UnionFind", UnionFind) is UnionFind


class TestPrefixRanks:
    @staticmethod
    def check(matrix, stops):
        ranks, basis = prefix_ranks(matrix, stops)
        m = matrix.astype(np.float64)
        assert basis.shape == (matrix.shape[0], ranks[-1] if len(stops) else 0)
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-12
        for r, stop in zip(ranks, stops):
            assert r == rank(m[:, :stop])
            q = basis[:, :r]
            # the leading r columns span the leading block: each column is
            # reproduced by its projection, and r = rank means no more
            assert np.abs(q @ (q.T @ m[:, :stop]) - m[:, :stop]).max(initial=0.0) <= 1e-12
        return ranks

    def test_basis_spans_every_prefix_of_random_boundaries(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k = random_complex(rng, n_max=14)
            t = k.num_triangles
            stops = np.sort(rng.integers(0, t + 1, size=int(rng.integers(1, 6))))
            self.check(build_incidence(k).b2, stops)

    def test_blocks_wider_than_one_step(self):
        # 84 triangles on 9 vertices: the pass takes two column blocks
        n = 9
        tris = [[i, j, l] for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        b2 = build_incidence(Complex2(n, complete_edges(n), tris)).b2
        assert b2.shape[1] > RANK_BLOCK
        ranks = self.check(b2, [0, 10, RANK_BLOCK, RANK_BLOCK + 5, len(tris)])
        assert ranks[-1] == (n - 1) * (n - 2) // 2

    def test_no_columns(self):
        ranks, basis = prefix_ranks(np.zeros((6, 0), dtype=np.int64), [0])
        assert ranks.tolist() == [0] and basis.shape == (6, 0)


RP2 = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
       (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)]


def fan_then_tetrahedron(fan):
    """``fan`` triangles (0, i, i+1), each with a new edge, then the four
    faces of a tetrahedron on four other vertices: the first fan + 3 columns
    are pivots and the last one is not."""
    n = fan + 6
    tris = [(0, i, i + 1) for i in range(1, fan + 1)]
    a = fan + 2
    tris += [(a, a + 1, a + 2), (a, a + 1, a + 3), (a, a + 2, a + 3), (a + 1, a + 2, a + 3)]
    return Complex2(n, complete_edges(n), tris).edge_rows


OCTAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4),
              (1, 2, 5), (1, 3, 5), (2, 4, 5), (3, 4, 5)]


class TestBoundaryPivots:
    def test_prefix_ranks_match_gram_schmidt_oracle(self):
        # the octahedron has every edge on two faces, and RP^2's last column
        # is dependent mod 2 only
        rng = np.random.default_rng(8)
        cases = [Complex2(6, complete_edges(6), OCTAHEDRON), Complex2(6, complete_edges(6), RP2)]
        cases += [random_complex(rng, n_max=14) for _ in range(60)]
        for k in cases:
            order = rng.permutation(k.num_triangles)
            pivot = boundary_pivots(k.edge_rows[:, order])
            stops = np.arange(k.num_triangles + 1)
            ranks = prefix_ranks(build_incidence(k).b2[:, order], stops)[0]
            assert np.concatenate([[0], np.cumsum(pivot)]).tolist() == ranks.tolist()

    def test_pivot_columns_are_a_basis(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = random_complex(rng, n_max=14)
            b2 = build_incidence(k).b2
            pivots = np.flatnonzero(boundary_pivots(k.edge_rows))
            assert len(pivots) == rank(b2[:, pivots]) == rank(b2)

    def test_no_columns(self):
        assert boundary_pivots(np.zeros((3, 0), dtype=np.int64)).shape == (0,)

    def test_rp2_mod_2_miscount_is_caught_and_retried(self):
        # H1(RP^2) = Z/2: mod 2 the last column reduces to zero, one short of
        # the real rank 10; over the integers it keeps a nonzero entry
        rows = Complex2(6, complete_edges(6), RP2).edge_rows
        assert boundary_pivots(rows).all()

    def test_prefix_ranks_through_scaled_steps(self):
        # RP^2's ten columns, then K6's other ten triangles: RP^2's last pivot
        # has -2 at its lowest row, so each later column is scaled by -2
        # before it is reduced against that pivot
        k6 = Complex2(6, complete_edges(6), list(itertools.combinations(range(6), 3)))
        tris = list(map(tuple, k6.triangles.tolist()))
        order = [tris.index(t) for t in RP2] + [c for c, t in enumerate(tris) if t not in RP2]
        pivot = boundary_pivots(k6.edge_rows[:, order])
        ranks = prefix_ranks(build_incidence(k6).b2[:, order], np.arange(21))[0]
        assert np.concatenate([[0], np.cumsum(pivot)]).tolist() == ranks.tolist()
        assert pivot.tolist() == [True] * 10 + [False] * 10

    # the fans put 75 and 76 pivots before the tetrahedron's last face: the
    # most a reduction mod 2^61 - 1 settles by the Hadamard bound, and one
    # more.  Over the integers no such bound exists.  (Each id is the fan and
    # whether a float check was needed past that bound.)
    @pytest.mark.parametrize("fan", [pytest.param(72, id="72-0"), pytest.param(73, id="73-1")])
    def test_span_checks_start_at_m_plus_one_77(self, fan):
        pivot = boundary_pivots(fan_then_tetrahedron(fan))
        assert pivot.sum() == fan + 3 and not pivot[-1]

    def test_span_check_solves_on_the_faces_that_can_close_a_cycle(self):
        # every fan triangle has an edge of its own, so only the tetrahedron
        # closes a 2-cycle: its last face is the one non-pivot
        assert boundary_pivots(fan_then_tetrahedron(73)).tolist() == [True] * 76 + [False]

    def test_products_match_dense_d2(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            k = random_complex(rng, n_max=14)
            rows = k.edge_rows
            b2 = build_incidence(k).b2.astype(np.float64)
            x = rng.normal(size=(k.num_triangles, 2))
            y = rng.normal(size=(k.num_edges, 2))
            assert np.array_equal(boundary_gram(rows), b2.T @ b2)
            assert np.abs(boundary(rows, x, k.num_edges) - b2 @ x).max(initial=0.0) <= 1e-12
            assert np.abs(boundary_t(rows, y) - b2.T @ y).max(initial=0.0) <= 1e-12


def test_rank_of_empty_matrix():
    assert rank(np.zeros((0, 3))) == 0
    assert rank(np.zeros((4, 0))) == 0


def test_injected_sign_error_breaks_chain_identity():
    # mutation check: the zero-product predicate must catch a bad boundary
    rng = np.random.default_rng(99)
    k = random_complex(rng)
    while k.num_triangles == 0:
        k = random_complex(rng)
    inc = build_incidence(k)
    assert not (inc.b1 @ inc.b2).any()
    corrupted = inc.b2.copy()
    row, col = np.argwhere(corrupted != 0)[0]
    corrupted[row, col] *= -1
    assert (inc.b1 @ corrupted).any()
