import ast
import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mquilt import influence, mechanism
from mquilt.chains import ChainModel, StateSequence, marginal, random_model, transition_power
from mquilt.errors import (
    BadShape,
    BadState,
    EmptyInput,
    EmptyThetaSet,
    InvalidEpsilon,
    LengthMismatch,
    MixedFrameworks,
    MquiltError,
    TooLarge,
)
from mquilt.influence import (
    QuiltShape,
    Variant,
    _log_ratio_max,
    approx_max_influence,
    exact_max_influence,
)
from mquilt.chains import spectral
from mquilt.mechanism import (
    _scores,
    Framework,
    ReleaseRecord,
    Window,
    count_state_query,
    quilt_scores,
    release,
    unit_laplace,
)
from mquilt.oracle import enumerate_quilts, score
from mquilt.storage import append_release, read_ledger

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
        aq = list(active[0])[3]
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
            aq = list(active[0])[i - 1]
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
            assert list(active[0])[i - 1].score == pytest.approx(
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
def _node_steps():
    """Record, per model searched inside the block, the node steps taken at
    each cap (cap ``L`` is a node's full reach) and the number of steps,
    the most one node took."""
    work = []
    inner = mechanism._search_model

    def recording(*args):
        out = inner(*args)
        work.append((out[1], len(out[1])))
        return out

    with mock.patch.object(mechanism, "_search_model", recording):
        yield work


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


# Windows longer than 16 nodes are where capped steps run.
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


def test_sticky_chain_nodes_step_through_doubling_caps():
    # Every open node shares one cap per step: the first cap, doubled until
    # four times the cap reaches L, then the full reach L. The approx search
    # knows from its spectral terms that no quilt within the first cap is
    # below the budget, so it starts at the full reach.
    L = 150
    schedule = [mechanism._FIRST_CAP]
    while 4 * schedule[-1] < L:
        schedule.append(2 * schedule[-1])
    schedule.append(L)
    for variant, eps in ((Variant.EXACT, 0.5), (Variant.APPROX, 4.0)):
        fw = _full(_chain(5, 3, 0.97), L)
        with _node_steps() as work:
            got = quilt_scores(fw, eps, variant)
        [(caps, most)] = work
        assert most == len(caps) <= math.ceil(math.log2(L / mechanism._FIRST_CAP)) + 1
        if variant is Variant.EXACT:
            assert list(caps) == schedule and caps[mechanism._FIRST_CAP] == L
        else:
            assert caps == {L: L}
        assert got == _unpruned(fw, eps, variant)


def _sticky(k, stay):
    """A chain whose rows are ``stay * I + (1 - stay) * Dirichlet(1)`` (rng seed
    0), started uniform."""
    P = stay * np.eye(k) + (1 - stay) * np.random.default_rng(0).dirichlet(np.ones(k), size=k)
    return ChainModel.from_arrays(np.full(k, 1 / k), P)


def test_sticky_exact_search_over_a_thousand_nodes():
    # Literals recorded with the per-node cap rule that _per_node_search
    # keeps; runs are compared through a digest of their JSON, which writes
    # floats exactly.
    L = 1000
    with _node_steps() as work:
        sigma, active = quilt_scores(_full(_sticky(5, 0.9), L), 1.0, Variant.EXACT)
    runs = [list(r) for r in active[0].runs]
    assert sigma == 132.32301339174992 and len(runs) == 522
    assert runs[0] == [1, 1, None, 46, 58.69813972593875]
    assert runs[-1] == [L, L, 48, None, 61.77483331681601]
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == \
        "98c35653dc66656afd0b515621b0422ea67ca5ef123a048b6cc5a7fe2a8a1528"
    [(caps, most)] = work
    assert most == len(caps) <= math.ceil(math.log2(L / mechanism._FIRST_CAP)) + 1


def test_fast_chain_accepts_every_node_at_the_first_cap():
    with _node_steps() as work:
        quilt_scores(_full(_chain(3, 4), 200), 1.0, Variant.EXACT)
    assert work == [({mechanism._FIRST_CAP: 200}, 1)]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("L", [1, 2, 12, 2 * mechanism._FIRST_CAP])
def test_short_window_searches_every_node_once_at_full_reach(L, variant):
    scored = []
    inner = mechanism._one_sided_nearby  # built once per block of nodes scored

    def recording(i, na, nb, *args):
        scored.extend(zip(i.tolist(), na.tolist(), nb.tolist()))
        return inner(i, na, nb, *args)

    with _node_steps() as work, mock.patch.object(mechanism, "_one_sided_nearby", recording):
        quilt_scores(_full(_chain(5, 3, 0.97), L), 1.0, variant)
    assert work == [({L: L}, 1)]
    assert scored == [(i, i - 1, L - i) for i in range(1, L + 1)]


def _stepped_marginals(model, L):
    """The marginal recursion stepped to the last node, with no period stop."""
    margs = np.empty((L, model.k))
    margs[0] = model.initial
    for t in range(1, L):
        nxt = np.clip(margs[t - 1] @ model.transition, 0.0, None)
        margs[t] = nxt / nxt.sum()
    return margs


def _marginal_table(model, L):
    """The marginal law of every node, ``rows[classes]`` of
    :func:`~mquilt.mechanism._marginals`."""
    rows, classes = mechanism._marginals(model, L)
    return rows[classes]


def _period(margs):
    """The length, 1 or 2, of the first bitwise repeat among the rows."""
    rows = [r.tobytes() for r in margs]
    for t in range(1, len(rows)):
        if rows[t] == rows[t - 1]:
            return 1
        if t >= 2 and rows[t] == rows[t - 2]:
            return 2
    return None


@pytest.mark.parametrize(
    "model, L, period",
    [
        (_chain(152, 3, 0.97), 1500, 2),  # sticky: a 2-cycle from step 1008
        (random_model(5, np.random.default_rng(3)), 200, 2),  # from step 32
        (ChainModel.from_arrays([0.0, 1.0, 0.0], [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7],
                                                  [0.6, 0.0, 0.4]]), 300, 1),
        (ChainModel.from_arrays([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]), 9, 2),
        (LAZY, 1, None),
    ],
)
def test_marginals_stop_at_their_period(model, L, period):
    stepped = _stepped_marginals(model, L)
    assert _period(stepped) == period
    assert _marginal_table(model, L).tobytes() == stepped.tobytes()


def _first_repeat(margs):
    """The first row ``t`` that repeats an earlier row bit for bit, and that
    row's index ``s``; their difference is the period, of any length."""
    seen = {}
    for t, row in enumerate(margs):
        s = seen.setdefault(row.tobytes(), t)
        if s < t:
            return s, t
    return None


_CYCLING = [
    (random_model(10, np.random.default_rng(0)), 6),  # first repeat at row 27
    (random_model(10, np.random.default_rng(7)), 6),  # at row 35
    (random_model(3, np.random.default_rng(39)), 4),  # at row 40
    (random_model(5, np.random.default_rng(5)), 7),  # at row 40
]


@pytest.mark.parametrize("model, period", _CYCLING)
@pytest.mark.parametrize("L", [1, 2, 30, 41, 47, 5000])
def test_marginals_stop_at_a_repeated_row_of_any_period(model, period, L):
    stepped = _stepped_marginals(model, 5000)
    s, t = _first_repeat(stepped)
    assert t - s == period
    assert _marginal_table(model, L).tobytes() == stepped[:L].tobytes()


@pytest.mark.parametrize("model", [model for model, _ in _CYCLING])
def test_marginals_step_no_further_than_the_first_repeated_row(model):
    steps = []

    class Counting(np.ndarray):
        def __rmatmul__(self, other):
            steps.append(1)
            return other @ np.asarray(self)

    L = 5000
    counted = mock.Mock(k=model.k, initial=model.initial,
                        transition=model.transition.view(Counting))
    got = _marginal_table(counted, L)
    _, t = _first_repeat(_stepped_marginals(model, L))
    assert 0 < len(steps) <= t
    assert got.tobytes() == _stepped_marginals(model, L).tobytes()


def _masked_scores(e, nearby, epsilon):
    """The score the winners were taken with before the search had one
    score expression, kept verbatim as the reference."""
    s = np.full(e.shape, np.inf)
    np.divide(nearby, epsilon - e, out=s, where=e < epsilon)
    return s


@pytest.mark.parametrize("epsilon", [0.05, 1.0, 3.7])
def test_scores_equal_the_masked_divide(epsilon):
    # Influences at, just below, just above and past the budget, nan, inf
    # and a hair below zero, against nearby counts finite and inf, whole or
    # broadcast; then random tables mixing them with plain influences. The
    # scores match byte for byte, and no floating-point warning escapes.
    e = np.array([0.0, epsilon, np.nextafter(epsilon, 0), np.nextafter(epsilon, np.inf),
                  2 * epsilon, np.nan, np.inf, -1e-17])
    near = np.array([1.0, 2.0, 7.0, 4097.0, 2.0**24, np.inf])
    table = e[:, None] + np.zeros(near.size)
    cases = [(table, near + np.zeros_like(table)), (table, near), (table, near[None]),
             (table.T, near[:, None]), (table, np.float64(3.0))]
    rng = np.random.default_rng(0)
    for _ in range(300):
        shape = tuple(rng.integers(1, 7, 2))
        plain = rng.uniform(-1e-16, 3 * epsilon, shape)
        counts = np.where(rng.random(shape) < 0.1, np.inf, rng.integers(1, 5000, shape))
        cases.append((np.where(rng.random(shape) < 0.5, rng.choice(e, shape), plain),
                      counts[0] if rng.random() < 0.3 else counts))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for e, near in cases:
            assert _scores(e, near, epsilon).tobytes() == _masked_scores(e, near, epsilon).tobytes()
    # The one pair that scores nan, in both forms: no influence is -inf,
    # since each is a maximum over both orders of a value pair.
    pair = np.array([-np.inf]), np.array([np.inf]), epsilon
    with np.errstate(invalid="ignore"):
        assert np.isnan(_scores(*pair)).all() and np.isnan(_masked_scores(*pair)).all()


def _two_sided_best(epsilon, e_two):
    """The best two-sided quilt of a whole table by one sort in the tie
    order, as the per-node searches scored it."""
    na, nb = e_two.shape
    if not (na and nb):
        return None
    aa = np.arange(1, na + 1)
    bb = np.arange(1, nb + 1)
    nearby2 = aa[:, None] + bb[None, :] - 1
    s2 = mechanism._scores(e_two, nearby2.astype(float), epsilon)
    flat = np.lexsort(
        (
            np.broadcast_to(bb[None, :], s2.shape).ravel(),
            np.broadcast_to(aa[:, None], s2.shape).ravel(),
            nearby2.ravel(),
            s2.ravel(),
        )
    )[0]
    ai, bi = divmod(int(flat), nb)
    return (float(s2[ai, bi]), int(nearby2[ai, bi]), 0, ai + 1, bi + 1)


def _as_runs(winners):
    """Per-node winning candidates, one per local node from node 1, as the
    search's runs ``[first, last, left, right, score]``."""
    runs = []
    for i, (s, _, _, a, b) in enumerate(winners, start=1):
        if runs and runs[-1][2:] == [a or None, b or None, s]:
            runs[-1][1] = i
        else:
            runs.append([i, i, a or None, b or None, s])
    return runs


def _per_node_search(L, epsilon, step):
    """Every node's search under the per-node cap rule, scoring each step in
    full with ``step(i, na, nb)``. Its caps grow from the node's own best
    score, never from a shared two-sided one. This is not the search's
    schedule, whose open nodes share one doubling cap per step, and is kept
    so on purpose: the gates compare runs, not caps, and the result does not
    depend on the schedule. Returns the runs, the steps at each cap and the
    number of steps."""
    first = L if 2 * mechanism._FIRST_CAP >= L else mechanism._FIRST_CAP
    winners, caps = [], {}
    for i in range(1, L + 1):
        cap = first
        while True:
            caps[cap] = caps.get(cap, 0) + 1
            na, nb = min(i - 1, cap), min(L - i, cap)
            best = step(i, na, nb)
            if best[0] < (cap + 1) / epsilon or na + nb == L - 1:
                break
            cap = max(2 * cap, math.floor(best[0] * epsilon) + 1)
            if 2 * cap >= L:
                cap = L
        winners.append(best)
    return _as_runs(winners), caps, sum(caps.values())


_Candidate = tuple[float, int, int, int, int]
"""A scored quilt: score, nearby count, kind rank (two-sided 0, one-sided
1, empty 2), left offset, right offset (0 where the side is absent). Tuple
order is the tie order, so the best candidate is the smallest."""


def _best_quilt(
    i: int,
    L: int,
    epsilon: float,
    e_left: np.ndarray,
    e_right: np.ndarray,
    two: _Candidate | None,
) -> _Candidate:
    """The winning candidate at local node ``i``.

    ``e_left[a-1]`` and ``e_right[b-1]`` bound the influence of the
    one-sided quilts at offsets ``a`` and ``b``; ``two`` is the best
    two-sided quilt (:func:`_two_sided_best`). The one-sided and empty
    candidates are scored here, since their nearby counts depend on ``i``.
    This is the per-node rule that ``mechanism._best_quilts`` applies to a
    block of nodes at once.
    """
    cands: list[_Candidate] = [] if two is None else [two]
    # Nearby count and offset grow with the index: the first minimum wins ties.
    if e_left.size:
        sl = _scores(e_left, L - i + np.arange(1.0, e_left.size + 1), epsilon)
        a = int(np.argmin(sl)) + 1
        cands.append((float(sl[a - 1]), L - i + a, 1, a, 0))
    if e_right.size:
        sr = _scores(e_right, i - 1 + np.arange(1.0, e_right.size + 1), epsilon)
        b = int(np.argmin(sr)) + 1
        cands.append((float(sr[b - 1]), i + b - 1, 1, 0, b))
    cands.append((L / epsilon, L, 2, 0, 0))
    return min(cands)


def _node_influences(log_m, log_past, log_powers, right_max):
    """One node's influences from a one-node kernel block with no cut: its
    left-only and right-only rows and its dense two-sided table, whose cells
    the kernel returns in (a, b) order."""
    e_left, e_right, (_, _, _, e_two) = mechanism._exact_influences(
        log_m[None], log_past[None], log_powers, right_max)
    return e_left[0], e_right[0], e_two.reshape(len(log_powers), len(right_max))


def _unshared_search_model(model, marginals, info, L, epsilon):
    """One kernel call and one full scoring at every step of every node."""
    log_powers, right_max = mechanism._log_powers(model.transition, L - 1)
    rows, classes = marginals
    with np.errstate(divide="ignore"):
        log_margs = np.log(rows[classes])

    def step(i, na, nb):
        e_left, e_right, e_two = _node_influences(
            log_margs[i - 1],
            log_margs[i - 1 - na : i - 1][::-1],
            log_powers[1 : na + 1],
            right_max[1 : nb + 1],
        )
        two = _two_sided_best(epsilon, e_two)
        return _best_quilt(i, L, epsilon, e_left, e_right, two)

    runs, caps, steps = _per_node_search(L, epsilon, step)
    return runs, caps, steps, steps, 0


def _unshared(fw, eps, scope="window"):
    """The exact search with no node sharing another's kernel call. Each of
    its model searches is also run by the shared search, which must agree
    node for node. Both take the marginals stepped from the first searched
    node's law to the last node, with each node's class its least bitwise
    equal row."""
    shared = mechanism._search_model

    def search(*args):
        want = _unshared_search_model(*args)
        assert shared(*args)[0] == want[0]
        return want

    def stepped(model, L, start):
        first = mock.Mock(k=model.k, initial=marginal(model, start), transition=model.transition)
        table = _stepped_marginals(first, L)
        return table, np.array(_least_equal_rows(table))

    with mock.patch.object(mechanism, "_search_model", search), \
            mock.patch.object(mechanism, "_marginals", stepped):
        return quilt_scores(fw, eps, Variant.EXACT, scope=scope)


def _rough_chain(seed, k, stay, holes):
    """A sticky chain whose transition rows and initial law may have zeros."""
    rng = np.random.default_rng(seed)
    P = rng.random((k, k)) + 0.05
    if holes:
        P[rng.random((k, k)) < 0.3] = 0.0
        P[np.arange(k), rng.integers(0, k, k)] += 0.05  # no empty row
    P = (1.0 - stay) * P / P.sum(axis=1, keepdims=True) + stay * np.eye(k)
    q = rng.random(k) + 0.05
    if holes:
        q[rng.random(k) < 0.5] = 0.0
        q[rng.integers(k)] += 0.05
    return ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))


_STICKY_2 = ChainModel.from_arrays([1.0, 0.0], [[0.97, 0.03], [0.05, 0.95]])
"""A sticky chain whose marginals settle slowly: at L=300, epsilon=4 its
interior nodes step through caps 8 to 64."""


@st.composite
def _exact_instances(draw):
    k = draw(st.integers(2, 5))
    stay = draw(st.sampled_from([0.0, 0.3, 0.9, 0.98]))
    holes = draw(st.booleans())
    models = tuple(
        _rough_chain(draw(st.integers(0, 2**32 - 1)), k, stay, holes)
        for _ in range(draw(st.integers(1, 2)))
    )
    L = draw(st.integers(1, 300))
    start = draw(st.integers(1, 40))
    tail = draw(st.integers(0, 20))
    fw = Framework(start + L - 1 + tail, Window(start, start + L - 1), models)
    return fw, draw(st.floats(0.3, 30.0)), draw(st.sampled_from(["window", "chain"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_exact_instances())
# Interior nodes that share their inputs take a second step.
@example((_full(_chain(3, 3), 300), 0.2, "window"))
# Two models, scope "chain", window off node 1.
@example((Framework(320, Window(21, 300), (_chain(3, 3), _chain(4, 3, 0.3))), 1.0, "chain"))
# One-sided quilts win at interior nodes that are not accepted at the first cap.
@example((_full(ChainModel.from_arrays([0.33, 0.67], [[0.9987, 0.0013], [0.5734, 0.4266]]),
                36), 4.7, "window"))
# Nodes of one step with different live values, scored in different kernel
# blocks: a periodic chain with one live state per node, alternating ...
@example((_full(ChainModel.from_arrays([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]), 40), 1.0, "window"))
# ... a chain whose support grows over its first nodes ...
@example((Framework(70, Window(1, 60), (ChainModel.from_arrays(
    [1.0, 0.0, 0.0], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.3, 0.3, 0.4]]),)), 1.0, "chain"))
# ... and a chain with a single state.
@example((_full(ChainModel.from_arrays([1.0], [[1.0]]), 30), 1.0, "window"))
# Marginals that cycle with period 6 from node 28 ...
@example((_full(random_model(10, np.random.default_rng(0)), 240), 1.0, "window"))
# ... and from node 36, searched over a longer chain than the window.
@example((Framework(260, Window(31, 250), (random_model(10, np.random.default_rng(7)),)), 0.5,
          "chain"))
# Interior nodes that step through caps 8 to 64.
@example((_full(_STICKY_2, 300), 4.0, "window"))
# k**3 above _BLOCK_FLOATS: the kernel takes one node and one offset at a time.
@example((_full(random_model(40, np.random.default_rng(1)), 60), 1.0, "window"))
def test_shared_exact_search_equals_unshared_search(inst):
    fw, eps, scope = inst
    assert quilt_scores(fw, eps, Variant.EXACT, scope=scope) == _unshared(fw, eps, scope)


def _least_equal_rows(table):
    """Each row's least row equal to it bit for bit, by one bytes key per row."""
    index = {}
    return [index.setdefault(row.tobytes(), r) for r, row in enumerate(table)]


@st.composite
def _marginal_chains(draw):
    """Chains whose marginals cycle with a period of 4 to 7, and sticky and
    zero-entry chains, with a window length."""
    if draw(st.sampled_from(["cycling", "rough"])) == "cycling":
        model = draw(st.sampled_from(_CYCLING))[0]
    else:
        model = _rough_chain(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 5)),
                             draw(st.sampled_from([0.0, 0.3, 0.9, 0.98])), draw(st.booleans()))
    return model, draw(st.integers(1, 600))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_marginal_chains())
@example((LAZY, 1))
@example((ChainModel.from_arrays([1.0], [[1.0]]), 2))
@example((ChainModel.from_arrays([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]), 9))
@example((_chain(152, 3, 0.97), 600))  # no row repeats within the window
@example((random_model(10, np.random.default_rng(0)), 600))
def test_marginals_are_distinct_rows_and_each_nodes_least_equal_row(chain):
    model, L = chain
    rows, classes = mechanism._marginals(model, L)
    stepped = _stepped_marginals(model, L)
    assert classes.tolist() == _least_equal_rows(stepped)
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert rows[classes].tobytes() == stepped.tobytes()


def _search_frame():
    """The locals of the innermost quilt search on the call stack."""
    frame = sys._getframe(1)
    while frame.f_code.co_name != "_search_model":
        frame = frame.f_back
    return frame.f_locals


@contextlib.contextmanager
def _search_steps():
    """Record each step of the searches inside the block: its search's
    marginal table, ``rows[classes]`` of the marginals it was given (no
    columns in the approx search), the nodes it scored, and, where it has
    interior nodes, its cap and its interior nodes with their keys. They
    are read from the search's frame as it scores a block, keys and all, so
    no record assumes how the search computes them."""
    steps = []
    nearby = mechanism._one_sided_nearby
    log_powers, two_sided_winners = mechanism._log_powers, mechanism._two_sided_winners

    def step():
        search = _search_frame()
        marginals = search["marginals"]
        table = np.empty((search["L"], 0)) if marginals is None else marginals[0][marginals[1]]
        steps.append(dict(table=table, interior=np.empty(0, int), keys=np.empty(0, int),
                          scored=set()))

    def powers(P, top):
        step()
        return log_powers(P, top)

    def two_sided(epsilon, e_two):
        step()
        return two_sided_winners(epsilon, e_two)

    def scoring(i, *args):
        search = _search_frame()
        if search["inner"].any():
            steps[-1].update(cap=search["cap"], keys=search["keys"],
                             interior=search["open_nodes"][search["inner"]])
        steps[-1]["scored"].update(i.tolist())
        return nearby(i, *args)

    with mock.patch.object(mechanism, "_log_powers", powers), \
            mock.patch.object(mechanism, "_two_sided_winners", two_sided), \
            mock.patch.object(mechanism, "_one_sided_nearby", scoring):
        yield steps


def _log_coincidence_chain():
    """The 10-state chain of perfbench's release-exact seed 2, cell L=256,
    drawn as that workload draws it after its five cells before. Its
    marginals first repeat at rows (23, 31), their logs at rows (23, 27)."""
    rng = np.random.default_rng([2, 1])
    for k, T, models in [(2, 64, 1), (5, 64, 1), (10, 64, 1), (2, 256, 2), (5, 1000, 1)]:
        for _ in range(models):
            rng.random((k, k)), rng.random(k)
        rng.random(T), rng.uniform(0.5, 2.0), rng.integers(k), rng.integers(2**31)
    P = rng.random((10, 10)) + 0.05
    P = P / P.sum(axis=1, keepdims=True)
    q = rng.random(10) + 0.05
    return ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))


def test_log_coincidence_chain_repeats_its_logs_first():
    margs = _marginal_table(_log_coincidence_chain(), 256)
    with np.errstate(divide="ignore"):
        assert (_first_repeat(margs), _first_repeat(np.log(margs))) == ((23, 31), (23, 27))


@pytest.mark.parametrize("fw, eps, variant, caps", [
    (_full(_STICKY_2, 300), 4.0, Variant.EXACT, [8, 16, 32, 64]),
    (_full(random_model(10, np.random.default_rng(0)), 400), 1.0, Variant.EXACT, [8]),
    (_full(_chain(3, 3), 400), 0.5, Variant.APPROX, [8, 16, 32]),
    (_full(_log_coincidence_chain(), 256), 1.0, Variant.EXACT, [8]),
], ids=["sticky", "period-6", "approx", "log-coincidence"])
def test_search_shares_keys_only_between_bitwise_equal_windows(fw, eps, variant, caps):
    # Interior node j at cap c is keyed by the class of marginal row
    # j - 1 - c; its kernel inputs are log rows j - 1 - c .. j - 1 (none in
    # the approx search, whose rows are empty). Nodes of one key share
    # those inputs bit for bit.
    with _search_steps() as steps:
        quilt_scores(fw, eps, variant)
    keyed = [s for s in steps if s["interior"].size]
    assert [s["cap"] for s in keyed] == caps
    for s in keyed:
        cap = s["cap"]
        with np.errstate(divide="ignore"):
            logs = np.log(s["table"])
        first = {}
        for key, j in zip(s["keys"].tolist(), s["interior"].tolist()):
            window = logs[j - 1 - cap : j].tobytes()
            assert first.setdefault(key, window) == window


@pytest.mark.parametrize("fw, eps, variant", [
    (_full(LAZY, 400), 1.0, Variant.EXACT),
    (_full(_STICKY_2, 300), 4.0, Variant.EXACT),
    (_full(_chain(3, 3), 400), 0.5, Variant.APPROX),
    # The interior node 9 of 17 is at its full reach at the first cap.
    (_full(_chain(5, 3, 0.97), 17), 0.5, Variant.EXACT),
], ids=["lazy", "sticky", "approx", "full-reach"])
def test_interior_nodes_are_scored_once_per_key(fw, eps, variant):
    # An interior node takes the winner of its key's first node, or the
    # next step; of a step's interior nodes only the first of each key, by
    # the class of its window's first row, is scored. Each step builds its
    # log powers, or its two-sided table, once.
    with _search_steps() as steps:
        got = quilt_scores(fw, eps, variant)
    for s in steps:
        firsts = s["interior"][np.unique(s["keys"], return_index=True)[1]]
        assert set(s["interior"].tolist()) & s["scored"] == set(firsts.tolist())
    # Some interior node is not certified at its step and takes the next.
    later = [set().union(*(set(s["interior"].tolist()) | s["scored"] for s in steps[n + 1:]))
             for n in range(len(steps))]
    assert any(set(s["interior"].tolist()) & rest for s, rest in zip(steps, later))
    assert got == _unpruned(fw, eps, variant)


@pytest.mark.parametrize("fw, eps, variant", [
    (_full(LAZY, 400), 1.0, Variant.EXACT),
    (_full(_chain(3, 3), 400), 0.5, Variant.APPROX),
], ids=["exact", "approx"])
def test_one_sided_winners_are_not_shared(fw, eps, variant):
    # Were a key's first interior node to win with a one-sided or empty
    # quilt, the key's other nodes would not take it: they take the next
    # step, so every node's winner comes from its own scoring.
    scored = set()

    def nearby(i, *args):
        scored.update(i.tolist())
        return one_sided_nearby(i, *args)

    def one_sided(near, *args):
        a = np.isfinite(near[0][:, :1]).sum(axis=1)  # offset 1 where a node reaches back
        return np.zeros(a.size), a, np.zeros_like(a)

    one_sided_nearby = mechanism._one_sided_nearby
    with mock.patch.object(mechanism, "_one_sided_nearby", nearby), \
            mock.patch.object(mechanism, "_best_quilts", one_sided):
        sigma, active = quilt_scores(fw, eps, variant)
    L = fw.window.length
    assert scored == set(range(1, L + 1))
    assert sigma == 0.0 and len(active[0]) == L


def _per_node_approx_search_model(model, marginals, info, L, epsilon):
    """The approx search with its own two-sided table scored at every step."""
    terms = np.array([mechanism._spectral_term(info, x) for x in range(1, L)])

    def step(i, na, nb):
        two = _two_sided_best(epsilon, 2.0 * terms[:na, None] + terms[None, :nb])
        return _best_quilt(i, L, epsilon, 2.0 * terms[:na], terms[:nb], two)

    runs, caps, steps = _per_node_search(L, epsilon, step)
    return runs, caps, 0, steps, 0


def _per_node_approx(fw, eps, scope="window"):
    """The approx search with a two-sided table per step. Each of its model
    searches is also run by the search with one shared table, which must
    agree node for node."""
    one_table = mechanism._search_model

    def search(*args):
        want = _per_node_approx_search_model(*args)
        assert one_table(*args)[0] == want[0]
        return want

    with mock.patch.object(mechanism, "_search_model", search):
        return quilt_scores(fw, eps, Variant.APPROX, scope=scope)


@st.composite
def _approx_instances(draw):
    k = draw(st.integers(2, 5))
    stay = draw(st.floats(0.0, 0.98))
    models = tuple(
        _chain(draw(st.integers(0, 2**32 - 1)), k, stay)
        for _ in range(draw(st.integers(1, 2)))
    )
    L = draw(st.integers(1, 300))
    start = draw(st.integers(1, 40))
    tail = draw(st.integers(0, 20))
    fw = Framework(start + L - 1 + tail, Window(start, start + L - 1), models)
    return fw, draw(st.floats(0.05, 6.0)), draw(st.sampled_from(["window", "chain"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_approx_instances())
# Most nodes step to their full reach, the first ones to caps of their own.
@example((_full(random_model(10, np.random.default_rng(3)), 300), 2.0, "window"))
# A sticky chain whose search starts at the full reach.
@example((_full(_chain(5, 3, 0.97), 150), 4.0, "window"))
# Two models, scope "chain", window off node 1.
@example((Framework(320, Window(21, 300), (_chain(3, 3), _chain(4, 3, 0.9))), 3.0, "chain"))
# A one-sided quilt wins at an interior node not accepted at the first cap.
@example((_full(_chain(752767291, 2), 100), 5.48, "window"))
def test_one_table_approx_search_equals_per_node_search(inst):
    fw, eps, scope = inst
    assert quilt_scores(fw, eps, Variant.APPROX, scope=scope) == _per_node_approx(fw, eps, scope)


def _per_node(lookup, epsilon):
    """One node's view of a winner lookup over arrays of caps: the best
    two-sided candidate at caps ``na`` and ``nb``, scored by the search's
    score, or None where the lookup returns no cell."""

    def winner(na, nb):
        j, a, b, e = lookup(np.array([na]), np.array([nb]))
        if not j.size:
            assert not (na and nb)
            return None
        assert j.tolist() == [0]
        s = mechanism._scores(e, (a + b - 1).astype(float), epsilon)
        return (float(s[0]), int(a[0] + b[0] - 1), 0, int(a[0]), int(b[0]))

    return winner


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.floats(0.05, 6.0))
def test_block_winners_equal_a_sort_of_each_block(seed, ma, mb, eps):
    # Influences from a few levels, so scores and nearby counts tie often
    # and the tie order decides.
    e_two = np.random.default_rng(seed).choice([0.0, 0.25 * eps, 0.5 * eps, np.inf], (ma, mb))
    winner = _per_node(mechanism._two_sided_winners(eps, e_two), eps)
    for na in range(ma + 1):
        for nb in range(mb + 1):
            assert winner(na, nb) == _two_sided_best(eps, e_two[:na, :nb])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 9), st.integers(0, 9),
       st.floats(0.05, 6.0))
def test_padded_block_winners_equal_a_sort_of_each_node(seed, n, ma, mb, eps):
    # Each node owns a corner of the block's table; the cells past it hold
    # influences that would win, and must not. Some nodes own only cells
    # that score inf, or no cell at all. With one value pair per half, its
    # bounds are the influences themselves; the block's cut and its one
    # scoring pass must pick each node's winner of a sort of its own
    # candidates. Influences from a few levels, so scores and nearby counts
    # tie often and the tie order decides.
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(0, ma + 1, n), rng.integers(0, mb + 1, n)
    ma, mb = int(na.max()), int(nb.max())  # a block spans its nodes' offsets
    levels = [0.0, 0.25 * eps, 0.5 * eps, np.inf]
    e_left, e_right = rng.choice(levels, (n, ma)), rng.choice(levels, mb)
    for j in range(n):
        e_left[j, na[j]:] = 0.0
        if rng.random() < 0.3:
            e_left[j, : na[j]] = np.inf
    e_two = e_left[:, :, None] + e_right
    L = int((na + nb).max()) + 1 + int(rng.integers(0, 3))
    i = na + 1 + rng.integers(0, L - na - nb)  # node i reaches na back and nb ahead
    near = mechanism._one_sided_nearby(i, na, nb, L, ma, mb)
    keep = mechanism._cut(near, na, nb, eps, np.full(n, L / eps))
    if ma:
        j, a, b = keep(slice(0, n), slice(0, ma), e_left, e_left, e_right, e_right)
    else:
        j = a = b = np.empty(0, int)  # the kernel has no chunk to cut
    got = mechanism._best_quilts(near, L, eps, e_left, np.broadcast_to(e_right, (n, mb)),
                                 (j, a + 1, b + 1, e_two[j, a, b]))
    for j in range(n):
        want = _best_quilt(int(i[j]), L, eps, e_left[j, : na[j]], e_right[: nb[j]],
                           _two_sided_best(eps, e_two[j, : na[j], : nb[j]]))
        assert (got[0][j], got[1][j], got[2][j]) == (want[0], want[3], want[4])


@st.composite
def _kernel_chains(draw):
    """Chains with zero entries, with absorbing rows, with one state, and
    with near-equal rows, whose backward and forward halves of an
    influence can round below zero."""
    kind = draw(st.sampled_from(["rough", "absorbing", "single", "near-equal"]))
    seed, k = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    if kind == "rough":
        return _rough_chain(seed, k, 0.3, True)
    if kind == "absorbing":
        model = _rough_chain(seed, k, 0.0, draw(st.booleans()))
        P = model.transition.copy()
        stuck = rng.random(k) < 0.5
        P[stuck] = np.eye(k)[stuck]
        return ChainModel.from_arrays(model.initial, P)
    if kind == "single":
        return ChainModel.from_arrays([1.0], [[1.0]])
    P = rng.random(k) + 0.05 + 1e-13 * rng.random((k, k))
    q = rng.random(k) + 0.05
    return ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_chains(), st.integers(1, 6), st.integers(1, 10), st.integers(0, 8),
       st.integers(0, 8))
def test_kernel_block_equals_one_call_per_node(model, n, first, na, nb):
    # Blocked or not, in chunks of one node and offset, of a few, or of the
    # whole block, each node's influences are the same floats. Past rows
    # are padded as the search pads them, so node 1 may sit in a block; na
    # = 0 is node 1's own reach and nb = 0 the last node's. With no cut the
    # kernel returns every cell in (node, a, b) order.
    with np.errstate(divide="ignore"):
        log_margs = np.log(_marginal_table(model, first + n))
    log_powers, right_max = mechanism._log_powers(model.transition, max(na, nb, 1))
    nodes = np.arange(first, first + n)
    live = log_margs[nodes - 1] > -np.inf
    nodes = nodes[(live == live[0]).all(axis=1)]  # one block shares its live values
    past = log_margs[np.maximum(nodes[:, None] - 2 - np.arange(na), 0)]
    offsets = (log_powers[1 : na + 1], right_max[1 : nb + 1])
    ones = [_node_influences(log_margs[i - 1], past[j], *offsets) for j, i in enumerate(nodes)]
    every = np.nonzero(np.ones((nodes.size, na, nb), bool))
    for block in (1, 64, 2**15):
        with mock.patch.object(influence, "_BLOCK_FLOATS", block):
            e_left, e_right, (node, a, b, e) = mechanism._exact_influences(
                log_margs[nodes - 1], past, *offsets)
        assert [x.tolist() for x in (node, a - 1, b - 1)] == [x.tolist() for x in every]
        got = (e_left, e_right, e.reshape(nodes.size, na, nb))
        for j, one in enumerate(ones):
            for g, want in zip(got, one):
                assert g[j].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_kernel_chains(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
def test_exact_max_influence_is_a_one_node_kernel_block(model, na, nb, extra):
    # One block of node i over offsets up to na and nb, built as
    # exact_max_influence builds its one offset pair: its cells and
    # one-sided entries are the influence of every shape within them.
    i, k, P = na + 1 + extra, model.k, model.transition
    with np.errstate(divide="ignore"):
        log_m = np.log(marginal(model, i))
        log_past = np.log([marginal(model, i - a) for a in range(1, na + 1)]).reshape(na, k)
        log_powers = np.log([transition_power(P, a) for a in range(1, na + 1)]).reshape(na, k, k)
        log_ahead = np.log([transition_power(P, b) for b in range(1, nb + 1)]).reshape(nb, k, k)
    e_left, e_right, e_two = _node_influences(log_m, log_past, log_powers,
                                              _log_ratio_max(log_ahead))
    for a in range(na + 1):
        for b in range(nb + 1):
            if a or b:
                got = exact_max_influence(model, QuiltShape(i, a or None, b or None))
                want = e_two[a - 1, b - 1] if a and b else e_left[a - 1] if a else e_right[b - 1]
                assert np.float64(got).tobytes() == want.tobytes(), (a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_chains(), st.integers(1, 6), st.integers(1, 12), st.integers(0, 12),
       st.integers(1, 10), st.floats(0.05, 8.0), st.booleans())
def test_pruned_block_winners_equal_full_corner_winners(model, n, first, tail, cap, eps, last):
    # The search's block: the kernel sums only the two-sided cells its cut
    # keeps, and one scoring pass picks each node's winner. Each node's own
    # full corner, sorted in the tie order, and its one-sided and empty
    # quilts give the same winner, in chunks of one node and offset, of a
    # few, or of the whole block. A node whose step is not its last keeps
    # its winner only below (cap + 1) / eps, and needs it only there.
    L = first + n - 1 + tail
    with np.errstate(divide="ignore"):
        log_margs = np.log(_marginal_table(model, L))
    i = np.arange(first, first + n)
    live = log_margs[i - 1] > -np.inf
    i = i[(live == live[0]).all(axis=1)]  # one block shares its live values
    na, nb = np.minimum(i - 1, cap), np.minimum(L - i, cap)
    ma, mb = int(na.max()), int(nb.max())
    log_powers, right_max = mechanism._log_powers(model.transition, max(ma, mb, 1))
    past = log_margs[np.maximum(i[:, None] - 2 - np.arange(ma), 0)]
    bound = np.full(i.size, (L if last else min(L, cap + 1)) / eps)
    near = mechanism._one_sided_nearby(i, na, nb, L, ma, mb)
    for block in (1, 64, 2**15):
        with mock.patch.object(influence, "_BLOCK_FLOATS", block):
            influences = mechanism._exact_influences(
                log_margs[i - 1], past, log_powers[1 : ma + 1], right_max[1 : mb + 1],
                mechanism._cut(near, na, nb, eps, bound),
            )
        got = mechanism._best_quilts(near, L, eps, *influences)
        for j, node in enumerate(i.tolist()):
            e_left, e_right, e_two = _node_influences(
                log_margs[node - 1], log_margs[node - 1 - na[j] : node - 1][::-1],
                log_powers[1 : na[j] + 1], right_max[1 : nb[j] + 1],
            )
            want = _best_quilt(node, L, eps, e_left, e_right, _two_sided_best(eps, e_two))
            if want[0] <= bound[j]:
                assert (got[0][j], got[1][j], got[2][j]) == (want[0], want[3], want[4])
            else:
                assert got[0][j] > bound[j]


@contextlib.contextmanager
def _two_sided_tables():
    """Record the shape of every approx two-sided table built inside the
    block."""
    tables = []
    inner = mechanism._two_sided_winners

    def counting(epsilon, e_two):
        tables.append(e_two.shape)
        return inner(epsilon, e_two)

    with mock.patch.object(mechanism, "_two_sided_winners", counting):
        yield tables


@pytest.mark.parametrize("fw, eps, skipped", [
    (_full(random_model(10, np.random.default_rng(3)), 1024), 2.0, False),
    (_full(_chain(5, 3, 0.97), 150), 4.0, True),
], ids=["random", "sticky"])
def test_approx_search_builds_one_two_sided_table_per_growth(fw, eps, skipped):
    with _two_sided_tables() as tables, _node_steps() as work:
        quilt_scores(fw, eps, Variant.APPROX)
    [(caps, _)] = work
    L = fw.horizon
    sides = [a for a, _ in tables]
    assert tables == [(a, a) for a in sides]
    if skipped:
        # No quilt within the first cap is below the budget: the search
        # starts at the full reach, with one table that spans the window.
        assert caps == {L: L} and sides == [L - 1]
        return
    assert sides[0] == mechanism._FIRST_CAP
    # Each table at least doubles the last, or spans the window, and the
    # last one covers every cap a node reached.
    assert all(new >= 2 * old or new == L - 1 > old for old, new in zip(sides, sides[1:]))
    assert len(sides) > 1 and sides[-1] >= min(max(caps), L - 1)


@st.composite
def _sticky_approx_instances(draw):
    k = draw(st.integers(2, 5))
    stay = draw(st.sampled_from([0.3, 0.5, 0.8, 0.9, 0.97]))
    model = _chain(draw(st.integers(0, 2**32 - 1)), k, stay)
    L = draw(st.integers(17, 300))
    start = draw(st.integers(1, 40))
    tail = draw(st.integers(0, 20))
    fw = Framework(start + L - 1 + tail, Window(start, start + L - 1), (model,))
    return fw, draw(st.floats(0.05, 2.0)), draw(st.sampled_from(["window", "chain"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_sticky_approx_instances())
@example((Framework(320, Window(21, 300), (_chain(4, 3, 0.9),)), 0.3, "window"))
@example((Framework(420, Window(21, 400), (_chain(3, 3),)), 0.5, "chain"))
def test_approx_search_skips_a_first_step_its_spectral_terms_decide(inst):
    fw, eps, scope = inst
    L = fw.window.length if scope == "window" else fw.horizon
    terms = [mechanism._spectral_term(spectral(fw.models[0]), x)
             for x in range(1, mechanism._FIRST_CAP + 1)]
    # Terms never grow with the offset, so t(_FIRST_CAP) is the least
    # influence of any quilt within the first cap.
    assert all(a >= b for a, b in zip(terms, terms[1:]))
    with _two_sided_tables() as tables, _node_steps() as work:
        got = quilt_scores(fw, eps, Variant.APPROX, scope=scope)
    [(caps, most)] = work
    if terms[-1] >= eps:
        # Every capped quilt would score inf and send every node on to its
        # full reach: the search starts there, with one table.
        assert caps == {L: L} and most == 1 and tables == [(L - 1, L - 1)]
        with mock.patch.object(mechanism, "_FIRST_CAP", fw.horizon):
            assert got == quilt_scores(fw, eps, Variant.APPROX, scope=scope)
        assert got == _per_node_approx(fw, eps, scope)
    else:
        assert tables[0] == (mechanism._FIRST_CAP, mechanism._FIRST_CAP)
        assert caps[mechanism._FIRST_CAP] == L


@pytest.mark.parametrize("fw, eps", [
    (_full(random_model(10, np.random.default_rng(3)), 300), 2.0),
    (_full(_chain(5, 3, 0.97), 150), 4.0),
    (_full(_chain(3, 3), 400), 0.5),
], ids=["growing", "skipped", "first-cap"])
def test_approx_search_evaluates_each_spectral_term_once(fw, eps):
    offsets = []
    inner = mechanism._spectral_term

    def counting(info, offset):
        offsets.append(offset)
        return inner(info, offset)

    with mock.patch.object(mechanism, "_spectral_term", counting):
        quilt_scores(fw, eps, Variant.APPROX)
    assert offsets == list(range(1, max(offsets) + 1))


def test_spectral_info_takes_its_stationary_minimum_once():
    mins = []

    class Counting(np.ndarray):
        def min(self, *args, **kwargs):
            mins.append(1)
            return np.asarray(self).min(*args, **kwargs)

    model = _chain(3, 3)
    info = spectral(model)
    counted = dataclasses.replace(info, stationary=info.stationary.view(Counting))
    with mock.patch.object(mechanism, "spectral", lambda m: counted):
        got = quilt_scores(_full(model, 400), 0.5, Variant.APPROX)
    assert len(mins) == 1 and counted.pi_min == info.pi_min
    assert got == quilt_scores(_full(model, 400), 0.5, Variant.APPROX)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 40),
       st.sampled_from([0.0, 0.9]), st.booleans())
def test_log_powers_equal_one_ratio_maximum_per_offset(seed, k, cap, stay, holes):
    # Chunks of offsets, zero entries and all: the same floats as stepping
    # the powers and taking each offset's ratio maximum on its own.
    P = _rough_chain(seed, k, stay, holes).transition
    log_powers, right_max = mechanism._log_powers(P, cap)
    power = np.eye(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(cap + 1):
            if j:
                power = np.clip(power @ P, 0.0, 1.0)
            log_power = np.log(power)
            assert log_powers[j].tobytes() == log_power.tobytes()
            # u, v, x: the largest log ratio of rows u and v, skipping nan.
            ratios = log_power[:, None, :] - log_power[None, :, :]
            want = np.nanmax(ratios, axis=2) if j else np.zeros((k, k))
            assert right_max[j].tobytes() == want.tobytes()


@contextlib.contextmanager
def _kernel_calls():
    """Count the exact-kernel calls made inside the block."""
    calls = []
    inner = mechanism._exact_influences

    def counting(*args):
        calls.append(1)
        return inner(*args)

    with mock.patch.object(mechanism, "_exact_influences", counting):
        yield calls


def test_kernel_calls_do_not_grow_with_the_window():
    model = random_model(10, np.random.default_rng(3))
    counts = []
    for L in (4096, 20000):
        with _kernel_calls() as calls:
            quilt_scores(_full(model, L), 1.0, Variant.EXACT)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 100
    fw = _full(model, 2048)
    assert quilt_scores(fw, 1.0, Variant.EXACT) == _unshared(fw, 1.0)


def test_exact_cap_step_is_one_kernel_block(caplog):
    # The shape of release-exact's k=10 cell. Every node clears the first
    # cap, and each holds an 8 x 8 winner table, so the step's own nodes
    # make one block; every state is live at every node, one pattern.
    with caplog.at_level(logging.DEBUG, logger="mquilt.mechanism"):
        quilt_scores(_full(random_model(10, np.random.default_rng(3)), 1024), 1.0, Variant.EXACT)
    (record,) = [r.getMessage() for r in caplog.records if r.name == "mquilt.mechanism"]
    steps, n_blocks, _, _ = _logged_work(record)
    assert steps == {8: 1024} and n_blocks == 1


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_search_memory_stays_small_on_a_long_window():
    # Kernel blocks are bounded by _BLOCK_FLOATS, so batching nodes adds
    # little to the search's peak allocation.
    fw = _full(random_model(10, np.random.default_rng(3)), 20000)
    peak = _traced_peak(lambda: quilt_scores(fw, 1.0, Variant.EXACT))
    assert peak < 10 * 2**20, peak


def test_exact_search_memory_stays_small_on_cycling_marginals():
    # Marginals of period 6 give six inputs per cap, numbered by array
    # passes whose temporaries stay within _BLOCK_FLOATS entries.
    fw = _full(random_model(10, np.random.default_rng(0)), 20000)
    peak = _traced_peak(lambda: quilt_scores(fw, 1.0, Variant.EXACT))
    assert peak < 10 * 2**20, peak


def test_marginals_keep_only_their_distinct_rows():
    # 23 distinct rows and one class per node: no table of L rows.
    model = random_model(10, np.random.default_rng(3))
    peak = _traced_peak(lambda: mechanism._marginals(model, 10**5))
    assert peak < 2 * 2**20, peak


def test_exact_search_memory_holds_no_marginal_table():
    # The search reads each node's log marginals through its class, and
    # keeps no table of L rows of them.
    fw = _full(random_model(10, np.random.default_rng(3)), 10**5)
    peak = _traced_peak(lambda: quilt_scores(fw, 1.0, Variant.EXACT))
    assert peak < 20 * 2**20, peak


def test_best_quilt_calls_do_not_grow_with_the_window():
    # Interior nodes that do not clear the first cap take the next step
    # from the shared two-sided score, without scoring themselves in full.
    # Counted per node scored in full, whatever block it is scored in.
    counts = []
    for L in (4096, 20000):
        calls = []
        inner = mechanism._one_sided_nearby  # built once per block of nodes scored

        def counting(i, *args):
            calls.extend([1] * i.size)
            return inner(i, *args)

        with mock.patch.object(mechanism, "_one_sided_nearby", counting), _node_steps() as work:
            quilt_scores(_full(LAZY, L), 1.0, Variant.EXACT)  # the README's chain
        assert work[0][1] == 2  # interior nodes do take a second step
        counts.append(len(calls))
    assert counts[0] == counts[1] < 100


@pytest.mark.parametrize("variant, eps", [(Variant.EXACT, 0.5), (Variant.APPROX, 4.0)])
def test_search_refuses_a_two_sided_table_over_the_limit(variant, eps):
    fw = _full(_chain(5, 3, 0.97), 150)
    limit = mechanism._FIRST_CAP ** 2
    with mock.patch.object(mechanism, "_TABLE_LIMIT", limit):
        # Every node clears the first cap, so no table exceeds the limit.
        quilt_scores(_full(_chain(3, 4), 200), 1.0, Variant.EXACT)
        with pytest.raises(TooLarge, match=rf"the {variant.value} search of node \d+ of 150 "
                           rf"needs a \d+ x \d+ two-sided influence table .*limit is {limit}"):
            quilt_scores(fw, eps, variant)


def _logged_runs(records):
    """The quilt run count of every DEBUG record of the search."""
    return [int(re.search(r"(\d+) quilt runs$", r.getMessage()).group(1))
            for r in records if r.name == "mquilt.mechanism"]


def _logged_work(message):
    """The node steps at each cap, kernel blocks, distinct node inputs and
    shared nodes of one DEBUG record of the search."""
    steps, n_blocks, n_distinct, n_shared = re.search(
        r"node steps at caps (\{[^}]*\}), at most \d+ per node, (\d+) kernel blocks, "
        r"(\d+) distinct node inputs, (\d+) nodes served from the shared table", message
    ).groups()
    return ast.literal_eval(steps), int(n_blocks), int(n_distinct), int(n_shared)


def test_search_logs_its_work_per_model(caplog):
    fw = Framework(400, Window(1, 400), (_chain(3, 3), _chain(5, 3, 0.97)))
    with _kernel_calls() as calls, _node_steps() as work, \
            caplog.at_level(logging.DEBUG, logger="mquilt.mechanism"):
        _, active = quilt_scores(fw, 0.5, Variant.EXACT)
    records = [r for r in caplog.records if r.name == "mquilt.mechanism"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    first = records[0].getMessage()
    assert first.startswith("model 0 (exact): 400 nodes, node steps at caps {8: 400}, "
                            "at most 1 per node")
    logged = [_logged_work(r.getMessage()) for r in records]
    assert [steps for steps, _, _, _ in logged] == [caps for caps, _ in work]
    assert sum(n_blocks for _, n_blocks, _, _ in logged) == len(calls)
    # Every node step is either scored from its own inputs, in one of the
    # kernel blocks, or served from the table.
    for steps, n_blocks, n_distinct, n_shared in logged:
        assert n_distinct + n_shared == sum(steps.values())
        assert 0 < n_blocks <= n_distinct
    assert logged[0][3] > 0 and sum(logged[1][0].values()) > 400
    assert _logged_runs(records) == [len(active[idx].runs) for idx in (0, 1)]

    # The approx search calls no kernel. On the first chain, its interior
    # nodes but the first share one entry at the first cap, and its
    # boundary nodes none. The sticky chain has no quilt below the budget
    # within the first cap, so its nodes start at their full reach, where
    # no node is interior and none shares an entry.
    caplog.clear()
    with _kernel_calls() as calls, caplog.at_level(logging.DEBUG, logger="mquilt.mechanism"):
        _, active = quilt_scores(fw, 0.5, Variant.APPROX)
    assert _logged_runs(caplog.records) == [len(active[idx].runs) for idx in (0, 1)]
    records = [r.getMessage() for r in caplog.records if r.name == "mquilt.mechanism"]
    assert len(records) == 2 and records[0].startswith("model 0 (approx): 400 nodes")
    interior = 400 - 2 * mechanism._FIRST_CAP
    assert calls == []
    logged = [_logged_work(r) for r in records]
    for steps, n_blocks, n_distinct, n_shared in logged:
        assert n_blocks == 0 and n_distinct + n_shared == sum(steps.values())
    steps, _, _, n_shared = logged[0]
    assert interior - 1 <= n_shared <= sum(steps.values()) - 2 * mechanism._FIRST_CAP - 1
    assert logged[1] == ({400: 400}, 0, 400, 0)


def test_search_builds_no_quilt_shape_per_node():
    # The node loop emits runs; a QuiltShape per node is built only when a
    # caller walks the runs node by node.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return QuiltShape(*args, **kwargs)

    fw = _full(random_model(10, np.random.default_rng(3)), 20000)
    with mock.patch.object(mechanism, "QuiltShape", counting):
        _, active = quilt_scores(fw, 1.0, Variant.EXACT)
        assert len(active[0]) == 20000
    assert len(built) == 0


def test_release_determinism_and_decomposition():
    fw = _full(LAZY, 5)
    q = count_state_query(1, 2)
    data = StateSequence(np.array([0, 1, 1, 0, 1]))
    (rec1,) = release(data, [q], 1.0, fw, Variant.EXACT, seed=99)
    (rec2,) = release(data, [q], 1.0, fw, Variant.EXACT, seed=99)
    assert rec1.output == rec2.output
    noise = unit_laplace(np.random.default_rng(99))
    assert rec1.output == pytest.approx(3.0 + rec1.sigma_max * noise, abs=1e-12)
    (rec3,) = release(data, [q], 1.0, fw, Variant.EXACT, seed=100)
    assert rec3.output != rec1.output


def test_release_scales_by_lipschitz_constant():
    fw = _full(LAZY, 4)
    doubled = count_state_query(1, 2)
    doubled = type(doubled)(
        "count2", lambda v: 2.0 * float(np.count_nonzero(v == 1)), 2.0
    )
    data = StateSequence(np.array([1, 1, 0, 1]))
    (rec,) = release(data, [doubled], 1.0, fw, Variant.EXACT, seed=5)
    noise = unit_laplace(np.random.default_rng(5))
    assert rec.output == pytest.approx(3.0 + rec.sigma_max * noise, abs=1e-12)


def test_release_input_validation():
    fw = _full(LAZY, 5)
    q = count_state_query(0, 2)
    with pytest.raises(LengthMismatch):
        release(StateSequence(np.array([0, 1])), [q], 1.0, fw, Variant.EXACT, 1)
    with pytest.raises(BadState):
        release(StateSequence(np.array([0, 1, 2, 0, 1])), [q], 1.0, fw, Variant.EXACT, 1)
    with pytest.raises(InvalidEpsilon):
        release(
            StateSequence(np.array([0, 1, 0, 0, 1])), [q], -1.0, fw, Variant.EXACT, 1
        )


def test_release_searches_once_for_its_queries_and_draws_in_turn():
    fw = _full(LAZY, 5)
    data = StateSequence(np.array([0, 1, 1, 0, 1]))
    queries = [count_state_query(s, 2) for s in range(2)]
    calls = []
    search = mechanism.quilt_scores

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    with mock.patch.object(mechanism, "quilt_scores", counting):
        with pytest.raises(LengthMismatch):  # the data are checked first
            release(StateSequence(np.array([0, 1])), [], 0.5, fw, Variant.EXACT, 3)
        with pytest.raises(EmptyInput):
            release(data, [], 0.5, fw, Variant.EXACT, 3)
        assert calls == []
        records = release(data, queries, 0.5, fw, Variant.EXACT, 3)
    assert len(calls) == 1
    rng = np.random.default_rng(3)
    for rec, want in zip(records, (2.0, 3.0)):
        assert rec.epsilon == 0.5 and rec.active_quilts == records[0].active_quilts
        assert rec.output == want + rec.sigma_max * unit_laplace(rng)


@pytest.mark.parametrize("variant", list(Variant))
def test_budget_too_small_for_the_window_is_refused(variant):
    # L / epsilon bounds the scale; times the largest unit draw (52 ln 2)
    # it must stay finite, or the search or the noise overflows.
    fw = _full(LAZY, 10)
    huge = np.finfo(float).max
    for eps in (1e-310, 10 * 20 / huge):  # 10 / eps is finite for the second
        with pytest.raises(InvalidEpsilon, match="too small"):
            quilt_scores(fw, eps, variant)
    eps = 10 * 40 / huge
    assert quilt_scores(fw, eps, variant)[0] == 10 / eps  # the empty quilt wins


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
    (rec,) = release(data, [q], 0.7, fw, Variant.EXACT, seed=11, scope="window")
    back = ReleaseRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.epsilon == rec.epsilon
    assert back.sigma_max == rec.sigma_max
    assert back.output == rec.output
    assert back.window == rec.window
    assert back.scope == rec.scope
    assert back.active_quilts == dict(rec.active_quilts)
    assert back == rec


def test_record_stores_quilts_as_runs_whose_size_does_not_grow_with_the_window(tmp_path):
    model = random_model(10, np.random.default_rng(3))
    docs = []
    for L in (4096, 20000):
        fw = Framework(L, Window(1, L), (model,))
        data = StateSequence(np.zeros(L, dtype=np.int64))
        (rec,) = release(data, [count_state_query(0, 10)], 1.0, fw, Variant.EXACT, seed=1)
        doc = rec.to_dict()
        runs = doc["active_quilts"]["0"]
        assert runs[0][0] == 1 and runs[-1][1] == L
        assert all(a[1] + 1 == b[0] for a, b in zip(runs, runs[1:]))
        assert ReleaseRecord.from_dict(json.loads(json.dumps(doc))) == rec
        docs.append(json.dumps(doc))
        # In memory too: reading the head back holds runs, not one quilt per
        # node, so its allocations do not grow with the window.
        path = tmp_path / f"ledger-{L}.jsonl"
        append_release(path, fw, [rec])
        tracemalloc.start()
        try:
            (entry,) = read_ledger(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = entry.record.active_quilts[0]
        assert len(table.runs) <= 30 and len(table) == L
        assert entry.record == rec
        assert peak < 64 * 1024, peak
    assert abs(len(docs[1]) - len(docs[0])) <= 1024
    assert len(docs[1]) < 4096


def _merged_runs(runs):
    """The canonical runs of ``runs``, made run by run: the reference that
    ``QuiltRuns`` is checked against."""
    merged = []
    for first, last, left, right, score in runs:
        first, last = int(first), int(last)
        key = [None if left is None else int(left), None if right is None else int(right),
               float(score)]
        prev = merged[-1][1] if merged else first - 1
        if not prev + 1 == first <= last:
            raise ValueError(f"quilt run from node {first} to node {last} after node {prev}")
        if merged and merged[-1][2:] == key:
            merged[-1][1] = last
        else:
            merged.append([first, last, *key])
    return tuple(map(tuple, merged))


@st.composite
def _raw_runs(draw):
    """Runs as a search or a ledger line gives them, with Python or numpy
    numbers, shapes and scores that repeat so that runs merge, and now and
    then a run that skips, repeats or reverses nodes. NaN scores are drawn
    as distinct objects, as each parse of a line makes them."""
    side = st.sampled_from([None, 1, 2, np.int64(2), 3.0])
    score = st.one_of(st.sampled_from([1.0, 2.5, np.float64(2.5), 0.0, -0.0, math.inf]),
                      st.builds(float, st.just("nan")))
    runs, node = [], draw(st.integers(1, 5))
    for _ in range(draw(st.integers(0, 12))):
        length = draw(st.integers(1, 4))
        if draw(st.integers(0, 19)) == 0:
            node += draw(st.sampled_from([-2, -1, 1, 2]))
        last = node + length - 1 if draw(st.integers(0, 19)) else node - 1
        number = draw(st.sampled_from([int, np.int64]))
        runs.append((number(node), number(last), draw(side), draw(side), draw(score)))
        node = last + 1
    return runs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_raw_runs())
def test_quilt_runs_equal_a_run_by_run_merge(runs):
    try:
        want = _merged_runs(runs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            mechanism.QuiltRuns(runs)
        return
    got = mechanism.QuiltRuns(iter(runs)).runs
    assert [[type(x) for x in run] for run in got] == [[type(x) for x in run] for run in want]
    assert repr(got) == repr(want)


@pytest.mark.parametrize("fw, eps, variant", [
    (_full(random_model(10, np.random.default_rng(0)), 5000), 1.0, Variant.EXACT),
    (Framework(320, Window(21, 300), (_chain(3, 3), _chain(4, 3, 0.3))), 1.0, Variant.EXACT),
    (_full(_chain(5, 3, 0.97), 150), 4.0, Variant.APPROX),
], ids=["cycling", "two-models", "approx"])
def test_search_runs_are_canonical(fw, eps, variant):
    # The search's runs are taken as they are; merging them again changes
    # nothing, not even a number's type.
    _, active = quilt_scores(fw, eps, variant)
    for table in active.values():
        again = mechanism.QuiltRuns(table.runs)
        assert repr(again.runs) == repr(table.runs) and again == table
        assert {tuple(map(type, run)) for run in table.runs} <= {
            (int, int, left, right, float) for left in (int, type(None))
            for right in (int, type(None))}


def test_active_quilt_nodes_are_global():
    fw = Framework(8, Window(3, 6), (LAZY,))
    _, active = quilt_scores(fw, 1.0, Variant.EXACT)
    assert [aq.node for aq in active[0]] == [3, 4, 5, 6]
    for aq in active[0]:
        assert aq.shape.node == aq.node
