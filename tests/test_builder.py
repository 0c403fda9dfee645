import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecover.builder import (GRID_POINTS, stage_a_candidates,
                                stage_b_filtration)
from hodgecover.complexes import Complex2, complete_edges
from hodgecover.moe import (BarrierTable, CalibCorpus, MoeLayer, barrier_sweep,
                            cluster_assignment, extend_triplets, synth_layer)
from hodgecover.oracles import (betti1, build_incidence, kernel_dimension, random_complex, rank,
                                skeleton_components)
from rank_oracle import prefix_ranks
from set_oracle import table_from_dict, triplet_dict, triplet_values


def table_from_matrix(pairwise, triplet=None, freq=None):
    pairwise = np.asarray(pairwise, dtype=float)
    n = pairwise.shape[0]
    return table_from_dict(pairwise, triplet or {},
                           freq if freq is not None else np.full(n, 0.25))


def all_equal_table(n, value=1.0):
    m = np.full((n, n), value)
    np.fill_diagonal(m, 0.0)
    return table_from_matrix(m)


def loop_stage_a(barriers, cap=500, seed=42):
    """Stage A as first written: a Python double loop over the adjacency rows."""
    n = barriers.n
    if n < 3:
        return np.zeros((0, 3), dtype=np.int64)
    tau_cand = float(np.median(barriers.upper_entries()))
    adj = barriers.pairwise <= tau_cand
    np.fill_diagonal(adj, False)
    triples = []
    for i in range(n - 2):
        for j in np.nonzero(adj[i, i + 1:])[0] + i + 1:
            common = np.nonzero(adj[i, j + 1:] & adj[j, j + 1:])[0] + j + 1
            triples.extend((i, int(j), int(c)) for c in common)
    out = np.array(triples, dtype=np.int64).reshape(-1, 3)
    if len(out) > cap:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(out), size=cap, replace=False)
        out = out[np.sort(keep)]
    return out


def stage_b_on(table, candidates):
    """Stage B on ``table`` cut to ``candidates``, the triangles it then reads."""
    c = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
    return stage_b_filtration(BarrierTable(table.pairwise, table.routing_freq, c,
                                           triplet_values(triplet_dict(table), c)))


def per_tau_oracle(barriers, candidates):
    """Stage B as first written: rebuild the complex and take betti1 at every tau.

    Returns tau*, the curve and the chosen complex.
    """
    n = barriers.n
    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
    tri_vals = triplet_values(triplet_dict(barriers), candidates)
    edges = complete_edges(n)
    edge_vals = barriers.pairwise[edges[:, 0], edges[:, 1]]
    if len(candidates):
        worst_edge = np.maximum.reduce([
            barriers.pairwise[candidates[:, 0], candidates[:, 1]],
            barriers.pairwise[candidates[:, 0], candidates[:, 2]],
            barriers.pairwise[candidates[:, 1], candidates[:, 2]],
        ])
    else:
        worst_edge = np.zeros(0)
    top = 1.1 * float(edge_vals.max()) if len(edge_vals) else 0.0
    curve, best, best_complex = [], None, None
    for tau in np.linspace(0.0, top, GRID_POINTS):
        k_tau = Complex2(
            n,
            edges[edge_vals <= tau],
            candidates[(tri_vals <= tau) & (worst_edge <= tau)] if len(candidates)
            else candidates,
        )
        beta = betti1(k_tau)
        curve.append((float(tau), beta))
        score = (beta, k_tau.num_edges, float(tau))
        if best is None or score > best:
            best, best_complex = score, k_tau
    return best[2], tuple(curve), best_complex


def prefix_rank_curve(barriers, candidates):
    """Stage B's Betti curve with rank(d2) from the Gram-Schmidt prefix ranks
    on its sorted columns, as Stage B took them before the column reduction."""
    n = barriers.n
    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 3)
    edges = complete_edges(n)
    edge_vals = barriers.pairwise[edges[:, 0], edges[:, 1]]
    tri_vals = np.maximum.reduce([
        triplet_values(triplet_dict(barriers), candidates),
        barriers.pairwise[candidates[:, 0], candidates[:, 1]],
        barriers.pairwise[candidates[:, 0], candidates[:, 2]],
        barriers.pairwise[candidates[:, 1], candidates[:, 2]],
    ]) if len(candidates) else np.zeros(0)
    top = 1.1 * float(edge_vals.max()) if len(edge_vals) else 0.0
    grid = np.linspace(0.0, top, GRID_POINTS)
    num_edges = (edge_vals[None, :] <= grid[:, None]).sum(axis=1)
    num_tris = (tri_vals[None, :] <= grid[:, None]).sum(axis=1)
    d2 = build_incidence(Complex2(n, edges, candidates)).b2
    ranks = prefix_ranks(d2[:, np.argsort(tri_vals, kind="stable")], num_tris)[0]
    components = [skeleton_components(Complex2(n, edges[edge_vals <= tau], []))
                  for tau in grid]
    return tuple((float(tau), int(e - n + c - r))
                 for tau, e, c, r in zip(grid, num_edges, components, ranks))


def assert_pivots(result):
    """``pivots`` indexes rank(d2) triangles of the chosen complex whose
    columns of d2 are independent, so they are a basis of its im(d2)."""
    k = result.chosen_complex
    b2 = build_incidence(k).b2
    pivots = result.pivots
    assert pivots.dtype == np.int64 and pivots.ndim == 1
    assert (np.diff(pivots) > 0).all()
    assert pivots.size == 0 or 0 <= pivots.min() <= pivots.max() < k.num_triangles
    assert len(pivots) == rank(b2[:, pivots]) == rank(b2)


def assert_matches_oracle(table, candidates):
    result = stage_b_on(table, candidates)
    tau_star, curve, chosen = per_tau_oracle(table, candidates)
    assert result.betti_curve == curve == prefix_rank_curve(table, candidates)
    assert result.tau_star == tau_star
    assert result.chosen_complex.n == chosen.n
    assert np.array_equal(result.chosen_complex.edges, chosen.edges)
    assert np.array_equal(result.chosen_complex.triangles, chosen.triangles)
    assert result.beta1 == betti1(result.chosen_complex)
    assert_pivots(result)
    assert_chosen_barriers(result, table)
    return result


def assert_chosen_barriers(result, table):
    """Stage B's arrays are the chosen complex's barriers, bit for bit."""
    k = result.chosen_complex
    assert np.array_equal(result.signal.values, table.pairwise[k.edges[:, 0], k.edges[:, 1]])
    assert np.array_equal(result.triangle_barriers,
                          triplet_values(triplet_dict(table), k.triangles))
    assert result.signal.values.dtype == result.triangle_barriers.dtype == np.float64
    assert not result.triangle_barriers.flags.writeable


class TestStageA:
    def test_all_equal_barriers_qualify_every_triple(self):
        cand = stage_a_candidates(all_equal_table(4))
        assert cand.tolist() == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

    def test_too_few_vertices(self):
        assert stage_a_candidates(all_equal_table(2)).shape == (0, 3)

    def test_cap_subsample_reproducible(self):
        # C(16,3) = 560 qualifying triples exceeds the 500 cap
        t = all_equal_table(16)
        a = stage_a_candidates(t)
        b = stage_a_candidates(t)
        assert a.shape == (500, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(stage_a_candidates(t, seed=7), a)
        # lexicographically sorted
        key = a[:, 0] * 256 * 256 + a[:, 1] * 256 + a[:, 2]
        assert (np.diff(key) > 0).all()

    def test_inclusive_median_comparison(self):
        # edges exactly at the median qualify
        m = np.array([[0.0, 1.0, 1.0, 3.0],
                      [1.0, 0.0, 1.0, 3.0],
                      [1.0, 1.0, 0.0, 3.0],
                      [3.0, 3.0, 3.0, 0.0]])
        cand = stage_a_candidates(table_from_matrix(m))
        # median of (1,1,1,3,3,3) = 2; only triangle (0,1,2) qualifies
        assert cand.tolist() == [[0, 1, 2]]

    def test_planted_clusters_concentrate_candidates(self):
        corpus = CalibCorpus.sample(256, 2048, 42)
        layer = synth_layer(seed=1, cluster_sizes=(10, 2, 2, 2), router_bias=0.0)
        table = barrier_sweep(layer, corpus)
        cand = stage_a_candidates(table)
        assign = cluster_assignment(16, 4, (10, 2, 2, 2))
        in_cluster = [assign[i] == assign[j] == assign[k] for i, j, k in cand]
        assert np.mean(in_cluster) > 0.8


class TestStageAMatchesLoopOracle:
    @staticmethod
    def assert_matches(table, **kwargs):
        got, want = stage_a_candidates(table, **kwargs), loop_stage_a(table, **kwargs)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 24), st.sampled_from([1, 3, 10**6]))
    @settings(max_examples=60, deadline=None)
    def test_random_tables(self, seed, n, levels):
        # few barrier levels make many entries tie with the median
        rng = np.random.default_rng(seed)
        m = np.triu(rng.integers(0, levels, size=(n, n)).astype(float), 1)
        self.assert_matches(table_from_matrix(m + m.T))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 16])
    def test_all_equal_tables(self, n):
        self.assert_matches(all_equal_table(n))

    @pytest.mark.parametrize("cap, seed", [(500, 42), (17, 3), (0, 42)])
    def test_above_the_cap(self, cap, seed):
        # C(20, 3) = 1140 triples qualify in an all-equal 20-expert table
        self.assert_matches(all_equal_table(20), cap=cap, seed=seed)

    def test_swept_64_expert_layer(self):
        layer = synth_layer(n=64, seed=3)
        self.assert_matches(barrier_sweep(layer, CalibCorpus.sample(256, 512, 42)))


class TestStageB:
    def simple_table(self):
        m = np.array([[0.0, 1.0, 2.0, 4.0],
                      [1.0, 0.0, 1.5, 4.5],
                      [2.0, 1.5, 0.0, 5.0],
                      [4.0, 4.5, 5.0, 0.0]])
        triplet = {(0, 1, 2): 2.5, (0, 1, 3): 6.0}
        return table_from_matrix(m, triplet)

    def test_grid_has_80_entries(self):
        table = self.simple_table()
        result = stage_b_on(table, np.array([[0, 1, 2], [0, 1, 3]]))
        assert len(result.betti_curve) == 80
        taus = [tau for tau, _ in result.betti_curve]
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(1.1 * 5.0)

    def test_zero_threshold_with_positive_barriers_is_empty(self):
        table = self.simple_table()
        result = stage_b_on(table, np.array([[0, 1, 2]]))
        assert result.betti_curve[0] == (0.0, 0)

    def test_grid_max_holds_all_edges_and_candidates(self):
        table = self.simple_table()
        cand = np.array([[0, 1, 2]])  # barrier 2.5 < max edge 5.0
        result = stage_b_on(table, cand)
        # rebuild at the top of the grid and compare
        top_tau = result.betti_curve[-1][0]
        assert (table.upper_entries() <= top_tau).all()
        assert (2.5 <= top_tau)

    def test_argmax_definition(self):
        table = self.simple_table()
        result = stage_b_on(table, np.array([[0, 1, 2]]))
        best = max(beta for _, beta in result.betti_curve)
        chosen = dict(result.betti_curve)[result.tau_star]
        assert chosen == best

    def test_tie_breaks_prefer_larger_edge_set_then_larger_tau(self):
        # all edges equal: beta jumps once; ties at the top resolved to last tau
        table = all_equal_table(4, 1.0)
        result = stage_b_on(table, np.zeros((0, 3)))
        assert result.tau_star == result.betti_curve[-1][0]
        assert result.chosen_complex.num_edges == 6

    def test_missing_triplet_barrier(self):
        table = all_equal_table(4, 1.0)
        with pytest.raises(ValueError,
                           match=r"^triplet barrier missing for candidate \(0, 1, 2\)$"):
            stage_b_on(table, np.array([[0, 1, 2]]))

    def test_deterministic(self):
        table = self.simple_table()
        cand = np.array([[0, 1, 2], [0, 1, 3]])
        a = stage_b_on(table, cand)
        b = stage_b_on(table, cand)
        assert a.tau_star == b.tau_star
        assert a.betti_curve == b.betti_curve

    def test_default_layer_keeps_complete_edge_set(self):
        corpus = CalibCorpus.sample(256, 2048, 42)
        layer = synth_layer(seed=0)
        table = barrier_sweep(layer, corpus, stage_a_candidates(barrier_sweep(layer, corpus)))
        cand = stage_a_candidates(table)
        result = stage_b_on(table, cand)
        assert result.chosen_complex.num_edges == 120
        assert result.chosen_complex.num_triangles == len(cand)

    def test_partial_complex_keeps_its_own_barriers(self):
        # 8 of the 10 edges and 2 of the 8 candidates, rows 1 and 5: not a prefix
        n = 5
        m = np.zeros((n, n))
        i, j = np.triu_indices(n, k=1)
        m[i, j] = [4, 5, 3, 2, 2, 3, 3, 4, 5, 1]
        m += m.T
        cand = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4),
                (1, 2, 4), (2, 3, 4)]
        table = table_from_matrix(m, dict(zip(cand, [6.0, 4.0, 5.0, 5.0, 6.0, 3.0, 5.0,
                                                     6.0])))
        result = assert_matches_oracle(table, cand)
        k = result.chosen_complex
        assert result.tau_star == pytest.approx(4.943, abs=1e-3) and result.beta1 == 2
        assert k.num_edges == 8 and k.triangles.tolist() == [[0, 1, 3], [0, 3, 4]]
        assert result.triangle_barriers.tolist() == [4.0, 3.0]
        assert np.array_equal(result.triangle_barriers, table.triplet[[1, 5]])

    def test_json_and_csv_exports(self):
        table = self.simple_table()
        result = stage_b_on(table, np.array([[0, 1, 2]]))
        csv = result.curve_csv()
        assert csv.startswith("tau,beta1\n")
        assert len(csv.strip().split("\n")) == 81


class TestStageBMatchesPerTauOracle:
    @pytest.mark.parametrize("n", [16, 32])
    def test_planted_layers(self, n):
        corpus = CalibCorpus.sample(256, 2048, 42)
        layer = synth_layer(n=n, seed=3)
        pairs = barrier_sweep(layer, corpus)
        cand = stage_a_candidates(pairs)
        result = assert_matches_oracle(barrier_sweep(layer, corpus, cand), cand)
        assert result.beta1 > 0

    def test_starved_layer(self):
        # criterion 7's layer: experts 4 and 5 never routed
        base = synth_layer(n=6, clusters=3, seed=606)
        router = base.router_logits.copy()
        router[4] = router[5] = -1e3
        layer = MoeLayer(6, base.vocab, base.ctx, 2, base.expert_logits, router)
        corpus = CalibCorpus.sample(256, 2048, 42)
        cand = stage_a_candidates(barrier_sweep(layer, corpus))
        assert len(cand)
        assert_matches_oracle(barrier_sweep(layer, corpus, cand), cand)

    def test_no_candidates(self):
        m = np.array([[0.0, 1.0, 2.0, 4.0],
                      [1.0, 0.0, 1.5, 4.5],
                      [2.0, 1.5, 0.0, 5.0],
                      [4.0, 4.5, 5.0, 0.0]])
        assert_matches_oracle(table_from_matrix(m), np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_all_equal_table(self, value):
        table = all_equal_table(5, value)
        cand = stage_a_candidates(table)
        table = table_from_matrix(table.pairwise, {tuple(map(int, t)): value for t in cand})
        assert_matches_oracle(table, cand)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_vertices(self, n):
        result = assert_matches_oracle(all_equal_table(n), np.zeros((0, 3)))
        assert all(beta == 0 for _, beta in result.betti_curve)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_barriers_on_random_candidate_sets(self, seed):
        rng = np.random.default_rng(seed)
        k = random_complex(rng, n_max=14)
        n = k.n
        # few distinct levels, so equal filtration values and ties are common
        levels = int(rng.integers(2, 12))
        m = np.zeros((n, n))
        i, j = np.triu_indices(n, k=1)
        m[i, j] = m[j, i] = rng.integers(0, levels, size=len(i)) / levels
        triplet = {tuple(map(int, t)): float(rng.integers(0, levels + 2)) / levels
                   for t in k.triangles}
        assert_matches_oracle(table_from_matrix(m, triplet), k.triangles)


RP2 = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
       (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)]


def test_rp2_rank_is_taken_over_the_reals():
    # 6-vertex RP^2: over R rank(d2) = 10 and beta1 = 0; over Z/2 the
    # rank is 9 and beta1 = 1, so a mod-2 column reduction fails here
    tris = RP2
    k = Complex2(6, complete_edges(6), tris)
    inc = build_incidence(k)
    assert k.num_edges == 15
    assert prefix_ranks(inc.b2, [10])[0].tolist() == [10]
    assert betti1(k) == kernel_dimension(inc) == 0
    table = all_equal_table(6, 1.0)
    table = table_from_matrix(table.pairwise, {t: 1.0 for t in tris})
    result = stage_b_on(table, np.array(tris))
    assert result.chosen_complex.num_triangles == 10
    assert result.pivots.tolist() == list(range(10))
    assert result.beta1 == 0
    assert all(beta == 0 for _, beta in result.betti_curve)



@pytest.mark.parametrize("n", [32, 64])
def test_stage_b_makes_no_lapack_call(monkeypatch, n):
    # the default synth layer of that size, seed 0
    layer, corpus = synth_layer(n=n, seed=0), CalibCorpus.sample(256, 2048, 42)
    table = barrier_sweep(layer, corpus)
    candidates = stage_a_candidates(table)
    table = extend_triplets(layer, corpus, table, candidates)
    expected = stage_b_on(table, candidates)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call in Stage B")
    for name in ("solve", "lstsq", "svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = stage_b_on(table, candidates)
    assert got.tau_star == expected.tau_star and got.betti_curve == expected.betti_curve
    assert np.array_equal(got.pivots, expected.pivots)
    assert np.array_equal(got.chosen_complex.triangles, expected.chosen_complex.triangles)
