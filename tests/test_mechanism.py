import contextlib
import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _stepped_marginals(model, L):
    """The marginal recursion stepped to the last node, with no period stop."""
    margs = np.empty((L, model.k))
    margs[0] = model.initial
    for t in range(1, L):
        nxt = np.clip(margs[t - 1] @ model.transition, 0.0, None)
        margs[t] = nxt / nxt.sum()
    return margs


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
    assert mechanism._marginals(model, L).tobytes() == stepped.tobytes()


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


def _unshared_search_model(model, log_margs, info, L, epsilon, cap):
    """One kernel call and one full scoring per node, for every node."""
    log_powers, right_max = mechanism._log_powers(model.transition, cap)
    best = []
    for i in range(1, L + 1):
        na, nb = min(i - 1, cap), min(L - i, cap)
        e_left, e_right, e_two = mechanism._exact_influences(
            log_margs[i - 1],
            log_margs[i - 1 - na : i - 1][::-1],
            log_powers[1 : na + 1],
            right_max[1 : nb + 1],
        )
        two = _two_sided_best(epsilon, e_two)
        best.append(mechanism._best_quilt(i, L, epsilon, e_left, e_right, two))
    return best, L, 0


def _unshared(fw, eps, scope="window"):
    """The exact search with no node sharing another's kernel call. Each of
    its rounds, accepted or not, is also run by the shared search, which
    must agree node for node."""
    shared = mechanism._search_model

    def search(*args):
        want = _unshared_search_model(*args)
        assert shared(*args)[0] == want[0]
        return want

    with mock.patch.object(mechanism, "_search_model", search), \
            mock.patch.object(mechanism, "_marginals", _stepped_marginals):
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
# A round that is not accepted while interior nodes share their inputs.
@example((_full(_chain(3, 3), 300), 0.2, "window"))
# Two models, scope "chain", window off node 1.
@example((Framework(320, Window(21, 300), (_chain(3, 3), _chain(4, 3, 0.3))), 1.0, "chain"))
# One-sided quilts win at interior nodes of a round that is not accepted.
@example((_full(ChainModel.from_arrays([0.33, 0.67], [[0.9987, 0.0013], [0.5734, 0.4266]]),
                36), 4.7, "window"))
def test_shared_exact_search_equals_unshared_search(inst):
    fw, eps, scope = inst
    assert quilt_scores(fw, eps, Variant.EXACT, scope=scope) == _unshared(fw, eps, scope)


def _per_node_approx_search_model(model, log_margs, info, L, epsilon, cap):
    """The approx search with its own two-sided table scored at every node."""
    terms = np.array([mechanism._spectral_term(info, x) for x in range(1, cap + 1)])
    best = []
    for i in range(1, L + 1):
        na, nb = min(i - 1, cap), min(L - i, cap)
        two = _two_sided_best(epsilon, 2.0 * terms[:na, None] + terms[None, :nb])
        best.append(mechanism._best_quilt(i, L, epsilon, 2.0 * terms[:na], terms[:nb], two))
    return best, 0, 0


def _per_node_approx(fw, eps, scope="window"):
    """The approx search with a two-sided table per node. Each of its
    rounds, accepted or not, is also run by the search with one table per
    round, which must agree node for node."""
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
# Rounds at caps 8 and 299: the full round looks up every node's winner.
@example((_full(random_model(10, np.random.default_rng(3)), 300), 2.0, "window"))
# A sticky chain whose second round is the full search.
@example((_full(_chain(5, 3, 0.97), 150), 4.0, "window"))
# Two models, scope "chain", window off node 1.
@example((Framework(320, Window(21, 300), (_chain(3, 3), _chain(4, 3, 0.9))), 3.0, "chain"))
# A one-sided quilt wins at an interior node of a round that is not accepted.
@example((_full(_chain(752767291, 2), 100), 5.48, "window"))
def test_one_table_approx_search_equals_per_node_search(inst):
    fw, eps, scope = inst
    assert quilt_scores(fw, eps, Variant.APPROX, scope=scope) == _per_node_approx(fw, eps, scope)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.floats(0.05, 6.0))
def test_block_winners_equal_a_sort_of_each_block(seed, ma, mb, eps):
    # Influences from a few levels, so scores and nearby counts tie often
    # and the tie order decides.
    e_two = np.random.default_rng(seed).choice([0.0, 0.25 * eps, 0.5 * eps, np.inf], (ma, mb))
    winner = mechanism._two_sided_winners(eps, e_two)
    for na in range(ma + 1):
        for nb in range(mb + 1):
            assert winner(na, nb) == _two_sided_best(eps, e_two[:na, :nb])


def test_approx_search_builds_one_two_sided_table_per_round():
    fw = _full(random_model(10, np.random.default_rng(3)), 1024)
    tables = []
    inner = mechanism._two_sided_winners

    def counting(epsilon, e_two):
        tables.append(e_two.shape)
        return inner(epsilon, e_two)

    with mock.patch.object(mechanism, "_two_sided_winners", counting), \
            _rounds() as caps:
        quilt_scores(fw, 2.0, Variant.APPROX)
    assert caps[0] == mechanism._FIRST_CAP and caps[-1] == 1023
    assert tables == [(c, c) for c in caps]


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


def test_search_logs_its_work_per_model(caplog):
    fw = Framework(400, Window(1, 400), (_chain(3, 3), _chain(5, 3, 0.97)))
    with _kernel_calls() as calls, _rounds() as caps, \
            caplog.at_level(logging.DEBUG, logger="mquilt.mechanism"):
        quilt_scores(fw, 0.5, Variant.EXACT)
    records = [r for r in caplog.records if r.name == "mquilt.mechanism"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    first = records[0].getMessage()
    assert first.startswith("model 0 (exact): rounds at caps [8] over 400 nodes")
    logged_calls, logged_shared = [], []
    for r in records:
        n_calls, n_shared = re.search(
            r"(\d+) kernel calls, (\d+) nodes served from the shared table", r.getMessage()
        ).groups()
        logged_calls.append(int(n_calls))
        logged_shared.append(int(n_shared))
    assert sum(logged_calls) == len(calls)
    # Every searched node either calls the kernel or is served from the table.
    assert sum(logged_calls) + sum(logged_shared) == 400 * len(caps)
    assert logged_shared[0] > 0

    # The approx search calls no kernel; its interior nodes but the first
    # of each round share that node's entry.
    caplog.clear()
    with _kernel_calls() as calls, _rounds() as caps, \
            caplog.at_level(logging.DEBUG, logger="mquilt.mechanism"):
        quilt_scores(fw, 0.5, Variant.APPROX)
    records = [r.getMessage() for r in caplog.records if r.name == "mquilt.mechanism"]
    assert len(records) == 2 and records[0].startswith("model 0 (approx): rounds at caps")
    logged = [re.search(r"(\d+) kernel calls, (\d+) nodes served", r).groups() for r in records]
    assert calls == [] and all(n_calls == "0" for n_calls, _ in logged)
    assert sum(int(n) for _, n in logged) == sum(max(400 - 2 * c - 1, 0) for c in caps) > 0


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
