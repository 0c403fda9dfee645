import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hodgecover import builder, selector
from hodgecover.complexes import (Complex2, ComplexStructureError, UnionFind, betti1,
                                  RANK_BLOCK, build_incidence, complete_edges, kernel_dimension,
                                  edge_laplacian, prefix_ranks, random_complex, rank,
                                  skeleton_components)


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


def b2_loop(k):
    """d2 as first assembled: an edge-index lookup per triangle."""
    b2 = np.zeros((k.num_edges, k.num_triangles), dtype=np.int64)
    idx = {(int(i), int(j)): e for e, (i, j) in enumerate(k.edges)}
    for col, (i, j, kk) in enumerate(map(tuple, k.triangles)):
        try:
            b2[idx[(j, kk)], col] = +1
            b2[idx[(i, kk)], col] = -1
            b2[idx[(i, j)], col] = +1
        except KeyError:
            raise ComplexStructureError(
                f"triangle ({i}, {j}, {kk}) has an edge missing from the edge list"
            ) from None
    return b2


def drop_edge(k, edge):
    """k with one edge removed behind the validator's back."""
    object.__setattr__(k, "edges", np.delete(k.edges, edge, axis=0))
    return k


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
            assert np.array_equal(b2, b2_loop(k))

    def test_missing_edge_message_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 30:
            k = random_complex(rng, n_max=10)
            if k.num_triangles == 0:
                continue
            k = drop_edge(k, int(rng.integers(k.num_edges)))
            try:
                b2_loop(k)
            except ComplexStructureError as exc:
                expected = str(exc)
            else:
                continue
            with pytest.raises(ComplexStructureError) as caught:
                build_incidence(k)
            assert str(caught.value) == expected
            checked += 1
        k = drop_edge(Complex2(3, [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]), [0, 1, 2])
        with pytest.raises(ComplexStructureError, match=r"^triangle \(0, 1, 2\) has an edge"):
            build_incidence(k)

    def test_missing_edge_reported(self):
        k = k3()
        object.__setattr__(k, "edges", np.array([[0, 1], [0, 2]]))
        with pytest.raises(ComplexStructureError, match="2"):
            build_incidence(k)


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
        assert betti1(k, build_incidence(k)) == 3

    def test_complete_two_skeleton_vanishes(self):
        n = 5
        tris = [[i, j, l] for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        k = Complex2(n, complete_edges(n), tris)
        assert betti1(k, build_incidence(k)) == 0

    def test_matches_kernel_dimension_on_random_complexes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = random_complex(rng, n_max=14)
            inc = build_incidence(k)
            assert betti1(k, inc) == kernel_dimension(inc)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = random_complex(rng, n_max=10)
            inc = build_incidence(k)
            l1 = edge_laplacian(inc)
            if l1.size == 0:
                continue
            eig_dim = int((np.abs(np.linalg.eigvalsh(l1)) < 1e-8).sum())
            assert betti1(k, inc) == eig_dim

    def test_edge_deletion_changes_betti(self):
        # thresholding pathology: removing one cycle edge shifts the count
        k = Complex2(4, complete_edges(4), [[0, 1, 2]])
        assert betti1(k, build_incidence(k)) == 2
        cut = Complex2(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]], [[0, 1, 2]])
        assert betti1(cut, build_incidence(cut)) == 1

    def test_isolated_vertices_counted_as_components(self):
        k = Complex2(5, [[0, 1]], [])
        assert skeleton_components(k) == 4
        assert betti1(k, build_incidence(k)) == 0


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
