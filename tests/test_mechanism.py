import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquilt import mechanism
from mquilt.chains import ChainModel, StateSequence, marginal, random_model
from mquilt.errors import (
    BadShape,
    BadState,
    EmptyThetaSet,
    InvalidEpsilon,
    LengthMismatch,
    MixedFrameworks,
    MquiltError,
)
from mquilt.influence import (
    QuiltShape,
    Variant,
    approx_max_influence,
    exact_max_influence,
)
from mquilt.chains import spectral
from mquilt.mechanism import (
    Framework,
    ReleaseRecord,
    Window,
    count_state_query,
    quilt_scores,
    release,
    unit_laplace,
)
from mquilt.oracle import enumerate_quilts, score

LAZY = ChainModel.from_arrays([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]])


def _full(model, T):
    return Framework(T, Window(1, T), (model,))


def test_window_validation():
    with pytest.raises(MquiltError):
        Window(0, 3)
    with pytest.raises(MquiltError):
        Window(4, 3)
    assert Window(2, 5).length == 4


def test_framework_validation():
    with pytest.raises(EmptyThetaSet):
        Framework(4, Window(1, 4), ())
    other = ChainModel.from_arrays([0.5, 0.5, 0.0], np.eye(3))
    with pytest.raises(MixedFrameworks):
        Framework(4, Window(1, 4), (LAZY, other))
    with pytest.raises(MquiltError):
        Framework(3, Window(1, 4), (LAZY,))


def test_window_model_advances_initial_law():
    fw = Framework(6, Window(3, 5), (LAZY,))
    sub = fw.window_model(LAZY)
    np.testing.assert_allclose(sub.initial, marginal(LAZY, 3), atol=1e-12)
    np.testing.assert_array_equal(sub.transition, LAZY.transition)


def test_enumerate_quilt_counts():
    assert len(enumerate_quilts(3, 2)) == 4
    assert len(enumerate_quilts(5, 1)) == 5
    with pytest.raises(BadShape):
        enumerate_quilts(3, 4)


def test_enumerate_always_includes_empty():
    for T in (1, 2, 5):
        for i in range(1, T + 1):
            shapes = enumerate_quilts(T, i)
            assert QuiltShape(i, None, None) in shapes


def test_score_examples():
    assert score(QuiltShape(5, 2, 3), 0.2, 1.0, 10) == pytest.approx(5.0)
    assert score(QuiltShape(5, 2, 3), 1.0, 1.0, 10) == math.inf
    assert score(QuiltShape(5, 2, 3), 1.5, 1.0, 10) == math.inf
    assert score(QuiltShape(3, None, None), 0.0, 0.5, 6) == pytest.approx(12.0)
    with pytest.raises(InvalidEpsilon):
        score(QuiltShape(3, None, None), 0.0, 0.0, 6)
    with pytest.raises(InvalidEpsilon):
        score(QuiltShape(3, None, None), 0.0, math.inf, 6)


def test_unit_laplace_deterministic():
    a = unit_laplace(np.random.default_rng(123))
    b = unit_laplace(np.random.default_rng(123))
    assert a == b


def test_unit_laplace_distribution():
    rng = np.random.default_rng(7)
    draws = np.array([unit_laplace(rng) for _ in range(100_000)])
    assert abs(draws.mean()) < 0.02
    assert draws.var() == pytest.approx(2.0, rel=0.05)
    # Laplace tail: P(|Z| > x) = exp(-x)
    for x in (0.5, 1.0, 2.0):
        assert np.mean(np.abs(draws) > x) == pytest.approx(
            math.exp(-x), abs=0.01
        )


def test_independent_chain_sigma_is_inverse_epsilon():
    ind = ChainModel.from_arrays([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]])
    for eps in (0.25, 1.0, 4.0):
        sigma, active = quilt_scores(_full(ind, 7), eps, Variant.EXACT)
        assert sigma == pytest.approx(1.0 / eps, abs=1e-12)
        # interior nodes win with the tightest two-sided quilt
        aq = active[0][3]
        assert aq.shape == QuiltShape(4, 1, 1)


def test_search_matches_direct_enumeration_exact():
    rng = np.random.default_rng(61)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        model = random_model(k, rng)
        T = int(rng.integers(2, 7))
        eps = float(rng.uniform(0.3, 3.0))
        fw = _full(model, T)
        sigma, active = quilt_scores(fw, eps, Variant.EXACT)
        best_overall = 0.0
        for i in range(1, T + 1):
            wanted = min(
                score(s, exact_max_influence(model, s), eps, T)
                for s in enumerate_quilts(T, i)
            )
            aq = active[0][i - 1]
            assert aq.score == pytest.approx(wanted, rel=1e-12, abs=1e-12)
            # the recorded shape must itself achieve the recorded score
            achieved = score(
                aq.shape, exact_max_influence(model, aq.shape), eps, T
            )
            assert achieved == pytest.approx(aq.score, rel=1e-12, abs=1e-12)
            best_overall = max(best_overall, wanted)
        assert sigma == pytest.approx(best_overall, rel=1e-12, abs=1e-12)


def test_search_matches_direct_enumeration_approx():
    rng = np.random.default_rng(71)
    for _ in range(25):
        k = int(rng.integers(2, 4))
        model = random_model(k, rng)
        info = spectral(model)
        T = int(rng.integers(2, 7))
        eps = float(rng.uniform(0.5, 6.0))
        sigma, active = quilt_scores(_full(model, T), eps, Variant.APPROX)
        for i in range(1, T + 1):
            wanted = min(
                score(s, approx_max_influence(info, s), eps, T)
                for s in enumerate_quilts(T, i)
            )
            assert active[0][i - 1].score == pytest.approx(
                wanted, rel=1e-12, abs=1e-12
            )
        assert sigma == pytest.approx(
            max(a.score for a in active[0]), rel=1e-12, abs=1e-12
        )


def test_multi_model_search_takes_worst():
    a = ChainModel.from_arrays([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
    b = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
    eps, T = 1.0, 5
    both, _ = quilt_scores(Framework(T, Window(1, T), (a, b)), eps, Variant.EXACT)
    lone_a, _ = quilt_scores(_full(a, T), eps, Variant.EXACT)
    lone_b, _ = quilt_scores(_full(b, T), eps, Variant.EXACT)
    assert both == pytest.approx(max(lone_a, lone_b), abs=1e-12)


def test_windowed_search_equals_subchain_search():
    fw = Framework(9, Window(4, 7), (LAZY,))
    sigma_win, active_win = quilt_scores(fw, 0.8, Variant.EXACT)
    sub = fw.window_model(LAZY)
    sigma_sub, active_sub = quilt_scores(_full(sub, 4), 0.8, Variant.EXACT)
    assert sigma_win == pytest.approx(sigma_sub, abs=1e-12)
    for got, want in zip(active_win[0], active_sub[0]):
        assert got.node == want.node + 3
        assert got.score == pytest.approx(want.score, abs=1e-12)


def _chain(seed, k, stay=0.0):
    """A random chain; ``stay`` moves that much of every row onto the diagonal."""
    rng = np.random.default_rng(seed)
    P = rng.random((k, k)) + 0.05
    P = (1.0 - stay) * P / P.sum(axis=1, keepdims=True) + stay * np.eye(k)
    q = rng.random(k) + 0.05
    return ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))


@contextlib.contextmanager
def _rounds():
    """Record the offset cap of every search round run inside the block."""
    caps = []
    inner = mechanism._search_model

    def counting(*args):
        caps.append(args[-1])
        return inner(*args)

    with mock.patch.object(mechanism, "_search_model", counting):
        yield caps


def _unpruned(fw, eps, variant):
    """The search with every offset admitted from the start."""
    with mock.patch.object(mechanism, "_FIRST_CAP", fw.horizon):
        return quilt_scores(fw, eps, variant)


@st.composite
def _instances(draw, lengths):
    k = draw(st.integers(2, 5))
    stay = draw(st.sampled_from([0.0, 0.0, 0.3, 0.9, 0.98]))
    model = _chain(draw(st.integers(0, 2**32 - 1)), k, stay)
    L = draw(lengths)
    start = draw(st.integers(1, 4))
    fw = Framework(start + L - 1, Window(start, start + L - 1), (model,))
    eps = draw(st.floats(0.5, 3.0))
    return fw, eps, draw(st.sampled_from(list(Variant)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instances(st.integers(1, 200)))
def test_pruned_search_equals_unpruned_search(inst):
    fw, eps, variant = inst
    assert quilt_scores(fw, eps, variant) == _unpruned(fw, eps, variant)


def _brute_force_check(fw, eps, variant):
    (model,) = fw.models
    L = fw.horizon
    info = spectral(model) if variant is Variant.APPROX else None

    def influence(shape):
        if info is None:
            return exact_max_influence(model, shape)
        return approx_max_influence(info, shape)

    sigma, active = quilt_scores(fw, eps, variant)
    wanted = []
    for i, aq in enumerate(active[0], start=1):
        scored = {s: score(s, influence(s), eps, L) for s in enumerate_quilts(L, i)}
        best = min(scored.values())
        assert aq.score == pytest.approx(best, rel=1e-9)
        assert scored[aq.shape] <= best * (1 + 1e-9)
        wanted.append(best)
    assert sigma == pytest.approx(max(wanted), rel=1e-9)


# Windows longer than 16 nodes are where the capped rounds run.
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(17, 30), st.floats(0.2, 3.0),
       st.sampled_from([0.0, 0.9]))
def test_pruned_exact_search_matches_brute_force(seed, L, eps, stay):
    _brute_force_check(_full(_chain(seed, 2, stay), L), eps, Variant.EXACT)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(17, 30),
       st.floats(0.5, 6.0), st.sampled_from([0.0, 0.9]))
def test_pruned_approx_search_matches_brute_force(seed, k, L, eps, stay):
    _brute_force_check(_full(_chain(seed, k, stay), L), eps, Variant.APPROX)


def test_sticky_chain_needs_several_rounds():
    for variant, eps in ((Variant.EXACT, 0.5), (Variant.APPROX, 4.0)):
        fw = _full(_chain(5, 3, 0.97), 150)
        with _rounds() as caps:
            got = quilt_scores(fw, eps, variant)
        assert len(caps) >= 2 and caps[0] == mechanism._FIRST_CAP
        assert caps == sorted(caps)
        assert got == _unpruned(fw, eps, variant)


def test_fast_chain_needs_one_round():
    with _rounds() as caps:
        quilt_scores(_full(_chain(3, 4), 200), 1.0, Variant.EXACT)
    assert caps == [mechanism._FIRST_CAP]


def test_short_window_runs_full_search_at_once():
    with _rounds() as caps:
        quilt_scores(_full(LAZY, 12), 1.0, Variant.EXACT)
    assert caps == [11]


def test_release_determinism_and_decomposition():
    fw = _full(LAZY, 5)
    q = count_state_query(1, 2)
    data = StateSequence(np.array([0, 1, 1, 0, 1]))
    rec1 = release(data, q, 1.0, fw, Variant.EXACT, seed=99)
    rec2 = release(data, q, 1.0, fw, Variant.EXACT, seed=99)
    assert rec1.output == rec2.output
    noise = unit_laplace(np.random.default_rng(99))
    assert rec1.output == pytest.approx(3.0 + rec1.sigma_max * noise, abs=1e-12)
    rec3 = release(data, q, 1.0, fw, Variant.EXACT, seed=100)
    assert rec3.output != rec1.output


def test_release_scales_by_lipschitz_constant():
    fw = _full(LAZY, 4)
    doubled = count_state_query(1, 2)
    doubled = type(doubled)(
        "count2", lambda v: 2.0 * float(np.count_nonzero(v == 1)), 2.0
    )
    data = StateSequence(np.array([1, 1, 0, 1]))
    rec = release(data, doubled, 1.0, fw, Variant.EXACT, seed=5)
    noise = unit_laplace(np.random.default_rng(5))
    assert rec.output == pytest.approx(3.0 + rec.sigma_max * noise, abs=1e-12)


def test_release_input_validation():
    fw = _full(LAZY, 5)
    q = count_state_query(0, 2)
    with pytest.raises(LengthMismatch):
        release(StateSequence(np.array([0, 1])), q, 1.0, fw, Variant.EXACT, 1)
    with pytest.raises(BadState):
        release(StateSequence(np.array([0, 1, 2, 0, 1])), q, 1.0, fw, Variant.EXACT, 1)
    with pytest.raises(InvalidEpsilon):
        release(
            StateSequence(np.array([0, 1, 0, 0, 1])), q, -1.0, fw, Variant.EXACT, 1
        )


def test_count_query_evaluation():
    q = count_state_query(1, 3, "mid")
    assert q.identifier == "count:mid"
    assert q.evaluate(np.array([1, 0, 1, 2, 1])) == 3.0
    with pytest.raises(BadState):
        count_state_query(3, 3)


def test_record_round_trip():
    fw = Framework(6, Window(2, 5), (LAZY,))
    q = count_state_query(0, 2)
    data = StateSequence(np.array([0, 1, 0, 0]))
    rec = release(data, q, 0.7, fw, Variant.EXACT, seed=11, scope="window")
    back = ReleaseRecord.from_dict(rec.to_dict())
    assert back.epsilon == rec.epsilon
    assert back.sigma_max == rec.sigma_max
    assert back.output == rec.output
    assert back.window == rec.window
    assert back.scope == rec.scope
    assert back.active_quilts == dict(rec.active_quilts)


def test_active_quilt_nodes_are_global():
    fw = Framework(8, Window(3, 6), (LAZY,))
    _, active = quilt_scores(fw, 1.0, Variant.EXACT)
    assert [aq.node for aq in active[0]] == [3, 4, 5, 6]
    for aq in active[0]:
        assert aq.shape.node == aq.node
