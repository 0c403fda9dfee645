"""Property tests over randomized structures (seeded through hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecover.complexes import EdgeSignal
from hodgecover.hodge import decompose
from hodgecover.moe import barrier_sweep, kl_rows, synth_layer, CalibCorpus
from hodgecover.oracles import build_incidence, random_complex
from hodgecover.selector import allocate_uniform, allocate_weighted, phi
from hodgecover.wanda import wanda_prune

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_chain_identity(seed):
    k = random_complex(np.random.default_rng(seed))
    inc = build_incidence(k)
    assert not (inc.b1 @ inc.b2).any()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_hodge_orthogonality_and_kernel(seed):
    rng = np.random.default_rng(seed)
    k = random_complex(rng, n_max=12)
    if k.num_edges == 0:
        return
    inc = build_incidence(k)
    b = EdgeSignal(rng.normal(size=k.num_edges))
    d = decompose(k, b)
    nsq = max(b.norm() ** 2, 1e-30)
    assert abs(d.grad.values @ d.curl.values) < 1e-8 * nsq
    assert abs(d.grad.values @ d.harm.values) < 1e-8 * nsq
    assert abs(d.curl.values @ d.harm.values) < 1e-8 * nsq
    # the harmonic part solves both kernel conditions
    assert np.linalg.norm(inc.b1 @ d.harm.values) < 1e-8 * max(b.norm(), 1.0)
    assert np.linalg.norm(inc.b2.T @ d.harm.values) < 1e-8 * max(b.norm(), 1.0)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_barrier_table_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    layer = synth_layer(n=n, vocab=8, ctx=32, fanout=min(2, n),
                        clusters=int(rng.integers(1, n + 1)), seed=seed % 1000)
    corpus = CalibCorpus.sample(32, 128, seed % 97)
    tris = [(0, 1, 2)] if n >= 3 else []
    table = barrier_sweep(layer, corpus, tris)
    assert np.isfinite(table.pairwise).all()
    assert (table.pairwise >= -1e-12).all()
    assert np.array_equal(table.pairwise, table.pairwise.T)
    assert abs(table.routing_freq.sum() - layer.fanout) < 1e-12


@given(st.integers(0, 2**16), st.integers(2, 20))
@settings(max_examples=50, deadline=None)
def test_kl_non_negative_zero_iff_equal(seed, vocab):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(vocab))
    q = rng.dirichlet(np.ones(vocab))
    assert kl_rows(p, q) >= -1e-12
    assert abs(kl_rows(p, p)) < 1e-9


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_submodular_diminishing_returns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    universe = int(rng.integers(1, 25))
    from test_selector import manual_instance  # shared constructor

    incidence = [set(rng.choice(universe, rng.integers(0, universe), replace=False).tolist())
                 for _ in range(n)]
    tris = [set(rng.choice(8, rng.integers(0, 4), replace=False).tolist()) for _ in range(n)]
    inst = manual_instance(n, incidence, sal=rng.uniform(size=n), lam_e=1.0,
                           lam_t=0.5, n_crit=universe, tris_by_expert=tris, n_crit_t=8)
    for _ in range(30):
        big = set(rng.choice(n, rng.integers(1, n), replace=False).tolist())
        small = {x for x in big if rng.random() < 0.5}
        outside = [i for i in range(n) if i not in big]
        if not outside:
            continue
        i = outside[0]
        # the gain of adding i to a subset is at least its gain on the superset
        assert phi(inst, small | {i}) - phi(inst, small) >= \
            phi(inst, big | {i}) - phi(inst, big) - 1e-12


@given(st.integers(0, 2**16), st.floats(0.0, 0.85), st.lists(st.integers(2, 50), min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_allocator_conservation(seed, rate, sizes):
    total = int(math.floor(rate * sum(sizes)))
    if total > sum(s - 1 for s in sizes):
        return
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 1.0, size=len(sizes)).tolist()
    for budget in (allocate_uniform(rate, sizes), allocate_weighted(rate, sizes, rho)):
        assert sum(budget.drops) == total
        assert all(1 <= k <= s for k, s in zip(budget.survivors, sizes))


@given(st.integers(0, 2**16), st.integers(1, 6), st.integers(4, 40),
       st.floats(0.0, 0.95))
@settings(max_examples=80, deadline=None)
def test_wanda_row_counts(seed, rows, cols, r2):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(rows, cols))
    x = rng.normal(size=(5, cols))
    _, mask = wanda_prune(w, x, r2)
    assert (mask.mask.sum(axis=1) == math.ceil((1 - r2) * cols)).all()
