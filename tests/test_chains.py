import copy
import math
import pickle

import numpy as np
import pytest

from mquilt.chains import (
    EIGEN_ONE_TOL,
    ChainModel,
    marginal,
    random_model,
    sample,
    spectral,
    transition_power,
    validate,
)
from mquilt.errors import (
    BadInitial,
    BadState,
    DuplicateLabel,
    InvalidTime,
    MquiltError,
    NegativeEntry,
    NonStochasticRow,
    NotAperiodic,
    NotIrreducible,
)

SYM = ChainModel.from_arrays([1.0, 0.0], [[0.75, 0.25], [0.25, 0.75]])


def test_marginal_symmetric_chain_t3():
    got = marginal(SYM, 3)
    np.testing.assert_allclose(got, [0.625, 0.375], atol=1e-12)


def test_marginal_t1_is_initial():
    np.testing.assert_allclose(marginal(SYM, 1), [1.0, 0.0], atol=0)


def test_marginal_rejects_time_zero():
    with pytest.raises(InvalidTime):
        marginal(SYM, 0)


def test_transition_power_zero_is_identity():
    np.testing.assert_array_equal(transition_power(SYM.transition, 0), np.eye(2))


def test_transition_power_negative_rejected():
    with pytest.raises(InvalidTime):
        transition_power(SYM.transition, -1)


def test_spectral_symmetric_chain():
    info = spectral(SYM)
    np.testing.assert_allclose(info.stationary, [0.5, 0.5], atol=1e-10)
    assert abs(info.gap - 0.75) <= 1e-9
    np.testing.assert_allclose(sorted(info.eigenvalues), [0.25, 1.0], atol=1e-9)
    assert info.pi_min == pytest.approx(0.5, abs=1e-10)


def test_spectral_reversal_is_stochastic():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_model(int(rng.integers(2, 5)), rng)
        info = spectral(m)
        np.testing.assert_allclose(info.reversal.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(info.reversal >= -1e-12)
        # stationarity: pi P = pi
        np.testing.assert_allclose(
            info.stationary @ m.transition, info.stationary, atol=1e-9
        )


def test_spectral_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = random_model(int(rng.integers(2, 6)), rng)
        info = spectral(m)
        assert info.eigenvalues.min() >= -1e-10
        assert info.eigenvalues.max() <= 1.0 + 1e-10
        assert 0.0 < info.gap <= 1.0


def test_spectral_matches_hand_computed_spectrum():
    # Two-state chains are reversible, so P P* = P^2 with eigenvalues 1 and
    # (1 - p - q)^2.
    p, q = 0.2, 0.3
    info = spectral(ChainModel.from_arrays([0.5, 0.5], [[1 - p, p], [q, 1 - q]]))
    np.testing.assert_allclose(info.eigenvalues, [0.25, 1.0], atol=1e-12)
    assert info.gap == pytest.approx(0.75, abs=1e-12)
    # A symmetric lazy walk on three states: P = (1 - a) I + (a / 3) J has
    # eigenvalues 1 and 1 - a (twice), and P P* = P^2.
    a = 0.6
    P = (1 - a) * np.eye(3) + a / 3
    info = spectral(ChainModel.from_arrays([1 / 3] * 3, P))
    np.testing.assert_allclose(info.eigenvalues, [0.16, 0.16, 1.0], atol=1e-12)
    assert info.gap == pytest.approx(0.84, abs=1e-12)


def test_spectral_sticky_thirty_state_chain():
    rng = np.random.default_rng(20170707)
    P = rng.random((30, 30)) + 0.05
    P = 0.2 * P / P.sum(axis=1, keepdims=True) + 0.8 * np.eye(30)
    info = spectral(ChainModel.from_arrays(np.full(30, 1 / 30), P))
    lam = info.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert abs(lam[-1] - 1.0) <= EIGEN_ONE_TOL
    want = np.sort(np.linalg.eigvals(P @ info.reversal).real)
    np.testing.assert_allclose(lam, np.clip(want, 0.0, None), atol=1e-10)
    assert info.gap == pytest.approx(1.0 - lam[-2], abs=1e-12)


def test_stationary_law_is_invariant():
    # pi P = pi for one state, a two-state chain whose law is known in
    # closed form, and a sticky 30-state chain (stay 0.99, slow mixing).
    p, q = 0.2, 0.3
    two = ChainModel.from_arrays([0.5, 0.5], [[1 - p, p], [q, 1 - q]])
    rng = np.random.default_rng(20170707)
    P = rng.random((30, 30)) + 0.05
    P = 0.01 * P / P.sum(axis=1, keepdims=True) + 0.99 * np.eye(30)
    sticky = ChainModel.from_arrays(np.full(30, 1 / 30), P)
    one = ChainModel.from_arrays([1.0], [[1.0]])
    for m in (one, two, sticky):
        pi = spectral(m).stationary
        np.testing.assert_allclose(pi @ m.transition, pi, rtol=0, atol=1e-13)
        assert pi.sum() == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_array_equal(spectral(one).stationary, [1.0])
    np.testing.assert_allclose(
        spectral(two).stationary, [q / (p + q), p / (p + q)], rtol=0, atol=1e-13
    )


def test_spectral_single_state_gap_is_one():
    m = ChainModel.from_arrays([1.0], [[1.0]])
    assert spectral(m).gap == 1.0


def test_spectral_rejects_reducible():
    m = ChainModel.from_arrays([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotIrreducible):
        spectral(m)


def test_spectral_rejects_periodic():
    m = ChainModel.from_arrays([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotAperiodic):
        spectral(m)


def _strongly_connected(adj):
    """Whether every state reaches every other, by graph search both ways."""
    k = adj.shape[0]

    def reaches_all(a):
        seen = np.zeros(k, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in np.nonzero(a[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    frontier.append(int(v))
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def _period(adj):
    """Period of a strongly connected digraph via BFS level differences."""
    k = adj.shape[0]
    depth = np.full(k, -1)
    depth[0] = 0
    order = [0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in np.nonzero(adj[u])[0]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                order.append(int(v))
    g = 0
    for u in range(k):
        for v in np.nonzero(adj[u])[0]:
            g = math.gcd(g, int(depth[u] + 1 - depth[v]))
    return g


def _digraphs(rng, n):
    """Random digraphs on 1..8 states with no state lacking an out-edge:
    sparse and dense ones, and planted cycles through every state with and
    without one chord."""
    for _ in range(n):
        k = int(rng.integers(1, 9))
        kind = int(rng.integers(3))
        if kind == 0:
            adj = rng.random((k, k)) < rng.uniform(0.05, 0.6)
        else:
            adj = np.zeros((k, k), dtype=bool)
            perm = rng.permutation(k)
            adj[perm, np.roll(perm, -1)] = True
            if kind == 2:
                adj[rng.integers(k), rng.integers(k)] = True
        empty = ~adj.any(axis=1)
        adj[np.nonzero(empty)[0], rng.integers(0, k, int(empty.sum()))] = True
        yield adj


def test_spectral_ergodicity_verdicts_match_graph_search():
    seen = set()
    for adj in _digraphs(np.random.default_rng(11), 2400):
        P = adj / adj.sum(axis=1, keepdims=True)
        m = ChainModel.from_arrays(np.full(len(P), 1.0 / len(P)), P)
        if not _strongly_connected(adj):
            want = NotIrreducible
        elif _period(adj) != 1:
            want = NotAperiodic
        else:
            want = None
        seen.add(want)
        if want is None:
            spectral(m)
        else:
            with pytest.raises(want):
                spectral(m)
    assert seen == {None, NotIrreducible, NotAperiodic}


def test_validate_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        ChainModel(("a", "a"), np.array([0.5, 0.5]), np.eye(2))


def test_validate_negative_entry():
    with pytest.raises(NegativeEntry):
        ChainModel.from_arrays([0.5, 0.5], [[1.1, -0.1], [0.5, 0.5]])


def test_validate_bad_row_sum():
    with pytest.raises(NonStochasticRow):
        ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.6], [0.5, 0.5]])


def test_validate_bad_initial_sum():
    with pytest.raises(BadInitial):
        ChainModel.from_arrays([0.7, 0.7], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_refuses_non_finite_entries(bad):
    # NaN fails every comparison, so it used to pass the sign and sum checks.
    for row in ([bad, 0.5], [bad, bad]):
        with pytest.raises(NonStochasticRow, match="row 1"):
            validate(ChainModel.from_arrays([0.5, 0.5], [[0.5, 0.5], row]))
        with pytest.raises(BadInitial):
            validate(ChainModel.from_arrays(row, [[0.5, 0.5], [0.5, 0.5]]))


def test_validate_initial_shape_mismatch():
    with pytest.raises(BadInitial):
        ChainModel(("0", "1"), np.array([1.0]), np.eye(2))
    # Default labels are read off the initial law, which must be 1-D.
    for initial in (1.0, [[1.0]], [[0.5, 0.5]]):
        with pytest.raises(BadInitial, match="must be 1-D"):
            ChainModel.from_arrays(initial, [[1.0]])


def test_validate_nonsquare_transition():
    with pytest.raises(MquiltError):
        ChainModel(("0", "1"), np.array([0.5, 0.5]), np.ones((2, 3)) / 3)


def test_validate_normalizes_tiny_drift():
    drift = 1e-12
    m = ChainModel.from_arrays(
        [0.5 + drift, 0.5], [[0.25, 0.75 + drift], [0.5, 0.5]]
    )
    np.testing.assert_allclose(m.transition.sum(axis=1), 1.0, atol=0)
    assert m.initial.sum() == pytest.approx(1.0, abs=1e-15)


def test_validate_is_a_fixed_point():
    rng = np.random.default_rng(29)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        P = rng.random((k, k)) + rng.choice([0.0, 0.05])
        q = rng.random(k) + 0.05
        once = ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))
        twice = ChainModel(once.states, once.initial, once.transition)
        assert twice.initial.tobytes() == once.initial.tobytes()
        assert twice.transition.tobytes() == once.transition.tobytes()


def test_pickled_and_copied_models_are_rebuilt_read_only():
    m = ChainModel.from_arrays([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]], ["a", "b"])
    for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert again == m and again is not m
        assert not again.initial.flags.writeable
        assert not again.transition.flags.writeable


def test_state_index_round_trip_and_unknown():
    m = ChainModel.from_arrays([0.5, 0.5], np.eye(2), ["lo", "hi"])
    assert m.state_index("hi") == 1
    with pytest.raises(BadState):
        m.state_index("mid")


def test_sample_deterministic_and_valid():
    seq1 = sample(SYM, 50, seed=5)
    seq2 = sample(SYM, 50, seed=5)
    np.testing.assert_array_equal(seq1.values, seq2.values)
    assert len(seq1) == 50
    assert seq1.values[0] == 0  # initial law is a point mass on state 0
    assert set(np.unique(seq1.values)) <= {0, 1}


def test_sample_long_run_frequencies():
    m = ChainModel.from_arrays([0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]])
    info = spectral(m)
    seq = sample(m, 200_000, seed=1)
    freq = np.bincount(seq.values, minlength=2) / len(seq)
    np.testing.assert_allclose(freq, info.stationary, atol=0.01)


def test_random_model_always_validates():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = random_model(int(rng.integers(1, 6)), rng)
        validate(m.states, m.initial, m.transition)
        spectral(m)
