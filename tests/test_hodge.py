import numpy as np
import pytest

from hodgecover.complexes import Complex2, EdgeSignal, complete_edges, svd_rcond
from hodgecover.hodge import HodgeDecomp, decompose
from hodgecover.moe import CalibCorpus, synth_layer
from hodgecover.oracles import build_incidence, random_complex, rank, residual_certificate
from hodgecover.pipeline import analyze_layer
from hodgecover.selector import build_coverage


def random_pair(rng, n_max=14):
    k = random_complex(rng, n_max=n_max)
    while k.num_edges == 0:
        k = random_complex(rng, n_max=n_max)
    return k, build_incidence(k), EdgeSignal(rng.normal(size=k.num_edges))


def decompose_pinv(k, b):
    """The decomposition as first written: pseudoinverses of L0 and L2, from
    the dense incidence."""
    values = b.values
    inc = build_incidence(k)
    b1 = inc.b1.astype(np.float64)
    b2 = inc.b2.astype(np.float64)
    l0 = b1 @ b1.T
    grad = b1.T @ (np.linalg.pinv(l0, rcond=svd_rcond(l0.shape)) @ (b1 @ values))
    if k.num_triangles:
        l2 = b2.T @ b2
        curl = b2 @ (np.linalg.pinv(l2, rcond=svd_rcond(l2.shape)) @ (b2.T @ (values - grad)))
    else:
        curl = np.zeros_like(values)
    harm = values - grad - curl
    total = float(values @ values)
    energies = ((float(grad @ grad) / total, float(curl @ curl) / total,
                 float(harm @ harm) / total) if total > 0.0 else (0.0, 0.0, 0.0))
    return HodgeDecomp(EdgeSignal(grad), EdgeSignal(curl), EdgeSignal(harm), *energies)


def greedy_pivots(b2):
    """Columns of b2 that raise the SVD rank, left to right: a basis of
    im(b2) found without the column reduction."""
    pivots = []
    for col in range(b2.shape[1]):
        if rank(b2[:, pivots + [col]]) > len(pivots):
            pivots.append(col)
    return np.array(pivots, dtype=np.int64)


def assert_matches_pinv(d, oracle, tol=1e-12):
    for part in ("grad", "curl", "harm"):
        assert np.abs(getattr(d, part).values - getattr(oracle, part).values).max(
            initial=0.0) <= tol, part
    for part in ("energy_grad", "energy_curl", "energy_harm"):
        assert abs(getattr(d, part) - getattr(oracle, part)) <= tol, part


def closed_tetrahedron():
    # boundary of the 3-simplex: four triangles, rank(d2) = 3
    return Complex2(4, complete_edges(4), [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


class TestDecomposeMatchesPinvOracle:
    """decompose projects onto the span of pivot triangles; the pinv path is the oracle."""

    def test_rank_deficient_d2(self):
        rng = np.random.default_rng(20)
        n = 5
        tris = [[i, j, l] for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        for k in (closed_tetrahedron(), Complex2(n, complete_edges(n), tris)):
            inc = build_incidence(k)
            assert rank(inc.b2) < k.num_triangles
            for _ in range(5):
                b = EdgeSignal(rng.normal(size=k.num_edges))
                oracle = decompose_pinv(k, b)
                assert_matches_pinv(decompose(k, b), oracle)
                assert_matches_pinv(decompose(k, b, pivots=greedy_pivots(inc.b2)), oracle)

    def test_random_complexes(self):
        rng = np.random.default_rng(21)
        deficient = 0
        for _ in range(100):
            k, inc, b = random_pair(rng)
            deficient += rank(inc.b2) < k.num_triangles
            oracle = decompose_pinv(k, b)
            assert_matches_pinv(decompose(k, b), oracle)
            assert_matches_pinv(decompose(k, b, pivots=greedy_pivots(inc.b2)), oracle)
        assert deficient > 0

    def test_zero_signal(self):
        k = closed_tetrahedron()
        d = decompose(k, EdgeSignal(np.zeros(k.num_edges)))
        assert_matches_pinv(d, decompose_pinv(k, EdgeSignal(np.zeros(k.num_edges))))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_analyze_layer(self, n):
        corpus = CalibCorpus.sample(256, 2048, 42)
        a = analyze_layer(synth_layer(n=n, seed=0), corpus)
        k, pivots = a.complex, a.filtration.pivots
        b2 = build_incidence(k).b2
        assert len(pivots) == rank(b2[:, pivots]) == rank(b2)
        oracle = decompose_pinv(k, a.signal)
        assert_matches_pinv(a.decomp, oracle)
        assert_matches_pinv(decompose(k, a.signal), oracle)

    def test_pivots_must_index_triangles(self):
        k = closed_tetrahedron()
        for bad in (np.array([0, 4]), np.array([-1]), np.zeros((2, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="pivots must index"):
                decompose(k, EdgeSignal(np.ones(6)), pivots=bad)


class TestDecompose:
    def test_pure_gradient_input(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            k, inc, _ = random_pair(rng)
            phi = rng.normal(size=k.n)
            b = EdgeSignal(inc.b1.T @ phi)
            d = decompose(k, b)
            scale = max(b.norm(), 1.0)
            assert np.linalg.norm(d.curl.values) < 1e-8 * scale
            assert np.linalg.norm(d.harm.values) < 1e-8 * scale

    def test_pure_curl_input(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 10:
            k, inc, _ = random_pair(rng)
            if k.num_triangles == 0:
                continue
            psi = rng.normal(size=k.num_triangles)
            b = EdgeSignal(inc.b2 @ psi)
            if b.norm() < 1e-9:
                continue
            d = decompose(k, b)
            assert np.linalg.norm(d.grad.values) < 1e-8 * b.norm()
            assert np.linalg.norm(d.harm.values) < 1e-8 * b.norm()
            done += 1

    def test_k3_cycle_signal_is_fully_harmonic(self):
        # d1 b = 0 checked by hand: each vertex receives +1 and -1 once
        k = Complex2(3, [[0, 1], [0, 2], [1, 2]], [])
        d = decompose(k, EdgeSignal([1.0, -1.0, 1.0]))
        assert d.energy_harm == pytest.approx(1.0, abs=1e-12)
        assert d.energy_grad == pytest.approx(0.0, abs=1e-12)

    def test_orthogonality_reconstruction_closure(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k, inc, b = random_pair(rng)
            d = decompose(k, b)
            nsq = b.norm() ** 2
            for u, v in ((d.grad, d.curl), (d.grad, d.harm), (d.curl, d.harm)):
                assert abs(u.values @ v.values) < 1e-8 * max(nsq, 1e-30)
            recon = d.grad.values + d.curl.values + d.harm.values
            assert np.linalg.norm(recon - b.values) < 1e-8 * max(b.norm(), 1e-15)
            assert d.energy_grad + d.energy_curl + d.energy_harm == pytest.approx(1.0, abs=1e-8)

    def test_idempotence_on_harmonic_part(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k, inc, b = random_pair(rng)
            d = decompose(k, b)
            again = decompose(k, d.harm)
            scale = max(b.norm(), 1.0)
            assert np.linalg.norm(again.grad.values) < 1e-8 * scale
            assert np.linalg.norm(again.curl.values) < 1e-8 * scale

    def test_edge_exposure_identity(self):
        # <w, harm(b)> equals <harm(w), harm(b)>
        rng = np.random.default_rng(14)
        for _ in range(20):
            k, inc, b = random_pair(rng)
            d = decompose(k, b)
            w = rng.normal(size=k.num_edges)
            dw = decompose(k, EdgeSignal(w))
            lhs = w @ d.harm.values
            rhs = dw.harm.values @ d.harm.values
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)

    def test_complete_two_skeleton_kills_harmonic(self):
        n = 5
        tris = [[i, j, l] for i in range(n) for j in range(i + 1, n) for l in range(j + 1, n)]
        k = Complex2(n, complete_edges(n), tris)
        rng = np.random.default_rng(15)
        for _ in range(10):
            b = EdgeSignal(rng.normal(size=k.num_edges))
            d = decompose(k, b)
            assert np.linalg.norm(d.harm.values) < 1e-8 * b.norm()

    def test_shape_mismatch(self):
        k = Complex2(3, [[0, 1], [0, 2], [1, 2]], [])
        with pytest.raises(ValueError, match="shape"):
            decompose(k, EdgeSignal([1.0, 2.0]))

    def test_operator_is_unweighted(self):
        # barriers live in the signal, never inside the operator: the
        # Laplacians are integer matrices and the projection is linear in
        # the signal, so rescaling b rescales every component
        from hodgecover.oracles import edge_laplacian

        rng = np.random.default_rng(19)
        k, inc, b = random_pair(rng)
        l1 = edge_laplacian(inc)
        assert np.array_equal(l1, np.round(l1))
        d1 = decompose(k, b)
        d2 = decompose(k, EdgeSignal(7.5 * b.values))
        assert np.allclose(d2.harm.values, 7.5 * d1.harm.values, atol=1e-10)
        assert d2.energy_harm == pytest.approx(d1.energy_harm, abs=1e-12)


class TestHarmonicFraction:
    """``energy_harm`` is the harmonic share ||harm||^2 / ||b||^2."""

    def test_pure_gradient_is_zero(self):
        rng = np.random.default_rng(16)
        k, inc, _ = random_pair(rng)
        b = EdgeSignal(inc.b1.T @ rng.normal(size=k.n))
        assert decompose(k, b).energy_harm < 1e-12

    def test_pure_harmonic_is_one(self):
        k = Complex2(3, [[0, 1], [0, 2], [1, 2]], [])
        b = EdgeSignal([1.0, -1.0, 1.0])
        assert decompose(k, b).energy_harm == pytest.approx(1.0, abs=1e-12)

    def test_zero_signal_is_zero(self):
        k = Complex2(3, [[0, 1], [0, 2], [1, 2]], [])
        b = EdgeSignal([0.0, 0.0, 0.0])
        assert decompose(k, b).energy_harm == 0.0


class TestResidualCertificate:
    def test_pure_gradient_residual_zero(self):
        rng = np.random.default_rng(17)
        k, inc, _ = random_pair(rng)
        b = EdgeSignal(inc.b1.T @ rng.normal(size=k.n))
        report = residual_certificate(k, b, decompose(k, b))
        assert report["residual_lsq"] < 1e-10 * max(b.norm() ** 2, 1e-15)

    def test_pure_harmonic_residual_is_full_energy(self):
        k = Complex2(3, [[0, 1], [0, 2], [1, 2]], [])
        b = EdgeSignal([1.0, -1.0, 1.0])
        report = residual_certificate(k, b, decompose(k, b))
        assert report["residual_lsq"] == pytest.approx(3.0, rel=1e-10)

    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            k, inc, b = random_pair(rng)
            report = residual_certificate(k, b, decompose(k, b))
            assert report["residual_lsq"] == pytest.approx(
                report["harm_energy"], rel=1e-7, abs=1e-12)


def test_critical_edges_match_pinv_oracle_on_default_models():
    # the 20 % cut of |harm| falls within a near-tie on many 4 x 16 seeds, so
    # the curl's rounding can move a critical edge and with it a plan.  This
    # pins the critical sets of the default model at model.seed 0-7 (layer
    # seeds 0-10, the default corpus) to those of the pinv oracle.
    corpus = CalibCorpus.sample(256, 2048, 42)
    for layer_seed in range(8 + 3):
        a = analyze_layer(synth_layer(seed=layer_seed), corpus)
        oracle = decompose_pinv(a.complex, a.signal)
        got = build_coverage(a.complex, a.decomp, a.table, a.sal)
        want = build_coverage(a.complex, oracle, a.table, a.sal)
        # the selector reads the set: its order within a tie does not count
        assert np.array_equal(np.sort(got.crit_edges), np.sort(want.crit_edges)), layer_seed
