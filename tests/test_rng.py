import numpy as np

from segrl.rng import counter_uniform, derive_seed

from spec import CounterRng


def test_scalar_and_vector_agree():
    vec = counter_uniform(3, np.arange(50), 4, 1)
    for ep in range(50):
        assert counter_uniform(3, ep, 4, 1) == vec[ep]


def test_keys_are_independent():
    base = counter_uniform(0, 0, 0, 0)
    assert counter_uniform(0, 0, 0, 1) != base
    assert counter_uniform(0, 0, 1, 0) != base
    assert counter_uniform(0, 1, 0, 0) != base
    assert counter_uniform(1, 0, 0, 0) != base


def test_order_independence():
    # draws are pure functions of their keys, not of draw order
    a = [counter_uniform(9, ep, t, h) for ep in range(3)
         for t in range(3) for h in range(3)]
    b = [counter_uniform(9, ep, t, h) for h in range(3)
         for t in range(3) for ep in range(3)]
    assert sorted(a) == sorted(b)


def test_rough_uniformity():
    us = counter_uniform(7, np.arange(100000), 2, 0)
    assert 0.0 <= us.min() and us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.01
    assert abs(np.mean(us < 0.25) - 0.25) < 0.01


def test_no_warnings_on_wraparound(recwarn):
    counter_uniform(2**63, np.arange(10), 2**31, 7)
    assert len(recwarn) == 0


def test_derive_seed_deterministic():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_counter_rng_view():
    rng = CounterRng(5, 11)
    assert rng.uniform(0, 2) == counter_uniform(5, 11, 0, 2)


def test_array_turn_and_head_match_scalar_calls():
    eps = np.array([0, 4, 9, 2**40])
    turns = np.array([0, 3, 2**31])[:, None, None]
    heads = np.array([0, 1, 2, 3])[:, None]
    u = counter_uniform(7, eps, turns, heads)
    assert u.shape == (3, 4, 4)
    for i, t in enumerate(turns.ravel()):
        for j, h in enumerate(heads.ravel()):
            for k, ep in enumerate(eps):
                assert u[i, j, k] == counter_uniform(7, int(ep), int(t), int(h))


def test_streams_are_pinned():
    # the rollout and evaluation streams: each key absorbed at its own
    # broadcast shape gives the same values as every key broadcast first
    assert counter_uniform(0, 0, 0, 0) == 0.7581141950548506
    assert counter_uniform(2**64 - 1, 2**40, 7, 2) == 0.8916888507855298
    u = counter_uniform(12345, np.arange(3), np.arange(2)[:, None, None],
                        np.arange(3)[:, None])
    assert [float(x).hex() for x in u.ravel()[[0, 7, 17]]] == [
        "0x1.7023f70adec34p-3", "0x1.9174f2a65a338p-4", "0x1.c10ffb0e768f1p-1"]
    assert (derive_seed(0, 17), derive_seed(5, 23, 9)) == (2861451340682856276,
                                                         4938468150467033630)
