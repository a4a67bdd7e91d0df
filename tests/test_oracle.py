import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mquilt import oracle
from mquilt.chains import ChainModel, StateSequence, marginal, random_model
from mquilt.errors import InvalidTime, LengthMismatch, TooLarge
from mquilt.influence import QuiltShape, Variant, exact_max_influence
from mquilt.mechanism import (
    Framework,
    LipschitzQuery,
    Window,
    count_state_query,
    quilt_scores,
    release,
)
from mquilt.oracle import (
    EmpiricalEpsilon,
    check_joint_remote_bound,
    empirical_epsilon,
    enumerate_sequences,
    enumerated_max_influence,
    reevaluate_witness,
    release_values,
    sequence_probs,
    verify_counterexample,
)

LAZY = ChainModel.from_arrays([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]])


def _full(model, T):
    return Framework(T, Window(1, T), (model,))


def test_enumeration_order_and_probabilities():
    seqs = enumerate_sequences(2, 2)
    np.testing.assert_array_equal(seqs, [[0, 0], [0, 1], [1, 0], [1, 1]])
    probs = sequence_probs(LAZY, seqs)
    want = [0.6 * 0.8, 0.6 * 0.2, 0.4 * 0.3, 0.4 * 0.7]
    np.testing.assert_allclose(probs, want, atol=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_refuses_large_tables():
    with pytest.raises(TooLarge):
        enumerate_sequences(2, 21)


@pytest.mark.parametrize("k, T", [(1, 1), (1, 5), (2, 16), (3, 12), (10, 6)])
def test_enumeration_matches_the_per_column_formula(k, T):
    idx = np.arange(k**T)
    want = np.empty((k**T, T), dtype=np.int64)
    for t in range(T):
        want[:, t] = (idx // k ** (T - 1 - t)) % k
    seqs = enumerate_sequences(k, T)
    assert seqs.dtype == want.dtype and seqs.shape == want.shape
    assert seqs.flags.c_contiguous
    np.testing.assert_array_equal(seqs, want)


def test_empirical_epsilon_zero_for_constant_release():
    fw = _full(LAZY, 3)
    emp = empirical_epsilon(fw, [(np.zeros(8), 1.0)])
    assert emp.value == pytest.approx(0.0, abs=1e-12)


def test_empirical_epsilon_identity_release():
    # Releasing the secret itself through Laplace(1/eps) leaks exactly eps.
    fw = _full(ChainModel.from_arrays([0.4, 0.6], [[0.5, 0.5], [0.5, 0.5]]), 1)
    for eps in (0.5, 0.8, 2.0):
        emp = empirical_epsilon(fw, [(np.array([0.0, 1.0]), 1.0 / eps)])
        assert emp.value == pytest.approx(eps, abs=1e-12)


def test_empirical_epsilon_without_secret_pair():
    # No node holds two values of positive probability, so there is
    # nothing to tell apart: zero loss and no witness.
    single = _full(ChainModel.from_arrays([1.0], [[1.0]]), 3)
    absorbed = _full(ChainModel.from_arrays([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]]), 3)
    for fw in (single, absorbed):
        values = np.arange(fw.k**3, dtype=float)
        assert empirical_epsilon(fw, [(values, 1.0)]) == EmpiricalEpsilon(0.0, None)


def test_empirical_epsilon_bounded_by_budget():
    rng = np.random.default_rng(41)
    seqs = enumerate_sequences(2, 3)
    query = count_state_query(0, 2)
    for _ in range(10):
        model = random_model(2, rng)
        fw = _full(model, 3)
        eps = float(rng.uniform(0.4, 1.5))
        (rec,) = release(
            StateSequence(np.zeros(3, dtype=np.int64)),
            [query],
            eps,
            fw,
            Variant.EXACT,
            seed=3,
        )
        emp = empirical_epsilon(fw, [release_values(rec, query, seqs)])
        assert emp.value <= eps + 1e-9


def test_witness_reevaluation_agrees():
    rng = np.random.default_rng(43)
    seqs = enumerate_sequences(2, 3)
    query = count_state_query(1, 2)
    for _ in range(5):
        model = random_model(2, rng)
        fw = _full(model, 3)
        (rec,) = release(
            StateSequence(np.zeros(3, dtype=np.int64)),
            [query],
            0.9,
            fw,
            Variant.EXACT,
            seed=7,
        )
        rels = [release_values(rec, query, seqs)]
        emp = empirical_epsilon(fw, rels)
        again = reevaluate_witness(fw, rels, emp.witness)
        assert again == pytest.approx(emp.value, abs=1e-9)


def test_witness_serializes_infinities():
    fw = _full(ChainModel.from_arrays([0.4, 0.6], [[0.5, 0.5], [0.5, 0.5]]), 1)
    emp = empirical_epsilon(fw, [(np.array([0.0, 1.0]), 2.0)])
    d = emp.witness.to_dict()
    assert all(p in ("+inf", "-inf") or isinstance(p, float) for p in d["point"])
    assert d["log_ratio"] == pytest.approx(emp.value)


def test_enumerated_influence_matches_factorized_route():
    rng = np.random.default_rng(47)
    for _ in range(20):
        model = random_model(int(rng.integers(2, 4)), rng)
        i = int(rng.integers(2, 5))
        a = int(rng.integers(1, i))
        b = int(rng.integers(1, 4))
        two = exact_max_influence(model, QuiltShape(i, a, b))
        enum_two = enumerated_max_influence(model, i, [i - a, i + b], horizon=i + b)
        assert enum_two == pytest.approx(two, abs=1e-9)
        left = exact_max_influence(model, QuiltShape(i, a, None))
        assert enumerated_max_influence(model, i, [i - a], horizon=i) == pytest.approx(
            left, abs=1e-9
        )
        right = exact_max_influence(model, QuiltShape(i, None, b))
        assert enumerated_max_influence(
            model, i, [i + b], horizon=i + b
        ) == pytest.approx(right, abs=1e-9)


def test_enumerated_influence_edge_cases():
    assert enumerated_max_influence(LAZY, 2, [], horizon=3) == 0.0
    point = ChainModel.from_arrays([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    assert enumerated_max_influence(point, 1, [2], horizon=2) == 0.0


def test_enumerated_influence_refuses_nodes_outside_the_horizon():
    for node, node_set in ((2, [0]), (4, [1]), (2, [1, 4]), (0, [1])):
        with pytest.raises(InvalidTime):
            enumerated_max_influence(LAZY, node, node_set, horizon=3)
    with pytest.raises(InvalidTime):
        enumerated_max_influence(LAZY, 2, [-1])


def test_remote_bound_independent_chain():
    ind = ChainModel.from_arrays([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]])
    rep = check_joint_remote_bound(_full(ind, 4), count_state_query(0, 2), 1.0)
    assert rep.passed
    # the budget is met with equality here: the bound is tight
    assert rep.margin == pytest.approx(0.0, abs=1e-9)
    assert rep.sigma_max == pytest.approx(1.0, abs=1e-12)


def test_remote_bound_random_instances():
    rng = np.random.default_rng(53)
    query = count_state_query(0, 2)
    for _ in range(15):
        model = random_model(2, rng)
        eps = float(rng.choice([0.5, 1.0]))
        rep = check_joint_remote_bound(_full(model, 3), query, eps)
        assert rep.passed, (
            f"remote bound violated: worst {rep.worst_log_ratio} vs {eps}"
        )


def test_counterexample_default_constants():
    rep = verify_counterexample()
    assert rep.single_squared[0] == pytest.approx(5.3132, abs=5e-4)
    assert rep.single_squared[1] == pytest.approx(6.2672, abs=5e-4)
    assert rep.joint_diagonal[0] == pytest.approx(4.4695, abs=5e-4)
    assert rep.joint_diagonal[1] == pytest.approx(6.3448, abs=5e-4)
    assert rep.violated
    assert rep.closed_form_agrees
    assert not rep.grid_beyond_corners
    assert rep.epsilon_joint > rep.epsilon_single


def test_counterexample_equal_rates_show_no_violation():
    rep = verify_counterexample(p=0.5, q=0.5)
    for v in (*rep.single_squared, *rep.joint_diagonal):
        assert v == pytest.approx(1.0, abs=1e-12)
    assert not rep.violated
    assert rep.closed_form_agrees


def test_counterexample_deterministic_endpoint():
    rep = verify_counterexample(p=1.0, q=0.0)
    e2 = math.e**2
    for v in (*rep.single_squared, *rep.joint_diagonal):
        assert v == pytest.approx(e2, rel=1e-9)
    assert not rep.violated
    assert rep.closed_form_agrees


def test_release_values_slice_to_window():
    model = LAZY
    fw = Framework(3, Window(2, 3), (model,))
    query = count_state_query(0, 2)
    (rec,) = release(
        StateSequence(np.zeros(2, dtype=np.int64)), [query], 1.0, fw, Variant.EXACT, 2
    )
    seqs = enumerate_sequences(2, 3)
    vals, sigma = release_values(rec, query, seqs)
    assert sigma == rec.sigma_max
    # row [0, 1, 0] has one zero inside window [2, 3]
    np.testing.assert_allclose(vals[2], 1.0)
    np.testing.assert_allclose(vals[0], 2.0)


def test_empirical_epsilon_refuses_secret_nodes_outside_the_horizon():
    fw = _full(LAZY, 3)
    values = np.arange(8, dtype=float)
    for nodes in ([4], [0], [1, -1]):
        with pytest.raises(InvalidTime):
            empirical_epsilon(fw, [(values, 1.0)], secret_nodes=nodes)


def test_empirical_epsilon_refuses_values_not_one_per_trajectory():
    fw = _full(LAZY, 3)
    for values in (np.zeros(7), np.zeros(9), np.zeros((8, 1))):
        with pytest.raises(LengthMismatch):
            empirical_epsilon(fw, [(np.zeros(8), 1.0), (values, 1.0)])


def test_empirical_epsilon_reads_a_precomputed_table():
    fw = _full(LAZY, 3)
    values = np.arange(8, dtype=float)
    seqs = enumerate_sequences(2, 3)
    assert empirical_epsilon(fw, [(values, 1.0)], seqs=seqs) == empirical_epsilon(
        fw, [(values, 1.0)]
    )
    for wrong in (enumerate_sequences(2, 2), enumerate_sequences(2, 4), seqs[:, :2], seqs[1:]):
        with pytest.raises(LengthMismatch, match="trajectory table of shape"):
            empirical_epsilon(fw, [(values, 1.0)], seqs=wrong)


def test_sequence_probs_multiply_each_step_in_order():
    # Zero entries, and products whose rounding depends on the order.
    model = ChainModel.from_arrays([0.3, 0.7, 0.0], [[0.1, 0.0, 0.9], [0.37, 0.33, 0.3],
                                                     [0.0, 0.5, 0.5]])
    seqs = enumerate_sequences(3, 6)
    want = model.initial[seqs[:, 0]].copy()
    for t in range(1, 6):
        want *= model.transition[seqs[:, t - 1], seqs[:, t]]
    assert sequence_probs(model, seqs).tobytes() == want.tobytes()


def _counting(query):
    """The query, plus the list of shapes its ``evaluate`` was called on."""
    calls = []

    def evaluate(values):
        calls.append(np.shape(values))
        return query.evaluate(values)

    return LipschitzQuery(query.identifier, evaluate, query.lipschitz_constant), calls


def test_release_values_evaluates_the_query_once():
    fw = Framework(5, Window(2, 4), (LAZY,))
    query = count_state_query(1, 2)
    (rec,) = release(StateSequence(np.zeros(3, dtype=np.int64)), [query], 1.0, fw,
                     Variant.EXACT, 2)
    seqs = enumerate_sequences(2, 5)
    counted, calls = _counting(query)
    vals, _ = release_values(rec, counted, seqs)
    assert calls == [(32, 3)]
    want = [float(np.count_nonzero(row[1:4] == 1)) for row in seqs]
    np.testing.assert_array_equal(vals, want)


def test_remote_bound_evaluates_the_query_once():
    # The values depend only on the window's table, not on the model.
    fw = Framework(3, Window(1, 3), (LAZY, random_model(2, np.random.default_rng(5))))
    counted, calls = _counting(count_state_query(0, 2))
    rep = check_joint_remote_bound(fw, counted, 1.0)
    assert calls == [(8, 3)]
    assert rep == check_joint_remote_bound(fw, count_state_query(0, 2), 1.0)


def _per_trajectory_epsilon(framework, releases, secret_nodes):
    """Worst log ratio from one Laplace factor per trajectory and grid
    point, contracted over all k^T trajectories and normalised by the
    marginal law; None when no node has two live states."""
    seqs = enumerate_sequences(framework.k, framework.horizon)
    values = [np.asarray(v, dtype=float) for v, _ in releases]
    factors = [
        oracle._factor_rows(v, s, oracle._grid_points(v))
        for v, (_, s) in zip(values, releases)
    ]
    letters = "abc"[: len(releases)]
    subs = ",".join(f"{c}x" for c in letters) + ",x->" + letters
    best = None
    for model in framework.models:
        probs = sequence_probs(model, seqs)
        for i in secret_nodes:
            m_i = marginal(model, i)
            live = np.nonzero(m_i > 0)[0]
            laws = [
                np.einsum(subs, *factors, probs * (seqs[:, i - 1] == a) / m_i[a])
                for a in live
            ]
            for x in range(live.size):
                for y in range(x + 1, live.size):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        gap = np.abs(np.log(laws[x]) - np.log(laws[y]))
                    best = max(best or 0.0, float(np.nanmax(gap)))
    return best


@st.composite
def _oracle_instances(draw):
    k = draw(st.sampled_from([2, 3, 1]))
    T = draw(st.sampled_from(range(8, 0, -1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(draw(st.integers(1, 2))):
        initial = rng.dirichlet(np.ones(k))
        P = rng.dirichlet(np.ones(k), size=k)
        if draw(st.booleans()):  # zero initial mass
            initial[rng.random(k) < 0.5] = 0.0
            initial[rng.integers(k)] += 0.1
        if draw(st.booleans()):  # an absorbing state
            s = rng.integers(k)
            P[s] = np.eye(k)[s]
        models.append(ChainModel.from_arrays(initial / initial.sum(), P))
    start = draw(st.integers(1, T))
    fw = Framework(T, Window(start, draw(st.integers(start, T))), tuple(models))
    seqs = enumerate_sequences(k, T)
    releases = []
    for _ in range(draw(st.integers(1, 3))):
        sigma = draw(st.floats(0.2, 3.0))
        a = draw(st.integers(1, T))
        b = draw(st.integers(a, T))
        if draw(st.booleans()):
            query = count_state_query(draw(st.integers(0, k - 1)), k)
            values = query.evaluate(seqs[:, a - 1 : b])
        else:  # a few arbitrary real values, shared by many trajectories
            values = rng.integers(0, 4, size=seqs.shape[0]) * draw(st.floats(0.1, 2.0))
        releases.append((values, sigma))
    nodes = draw(st.one_of(
        st.none(), st.lists(st.integers(1, T), min_size=1, max_size=T, unique=True)
    ))
    return fw, releases, nodes


def _three_state_instance():
    """Three counts over three windows at k=3, T=7, under two models: one
    with zero initial mass, one with an absorbing state."""
    rng = np.random.default_rng(19)
    P = rng.dirichlet(np.ones(3), size=3)
    P[2] = [0.0, 0.0, 1.0]
    models = (
        ChainModel.from_arrays([0.0, 0.6, 0.4], rng.dirichlet(np.ones(3), size=3)),
        ChainModel.from_arrays([0.2, 0.5, 0.3], P),
    )
    seqs = enumerate_sequences(3, 7)
    releases = [
        (count_state_query(s, 3).evaluate(seqs[:, a - 1 : b]), sigma)
        for s, (a, b), sigma in ((0, (1, 7), 0.6), (1, (2, 5), 1.3), (2, (4, 7), 0.9))
    ]
    return Framework(7, Window(2, 7), models), releases, None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_oracle_instances())
@example(_three_state_instance())
def test_empirical_epsilon_matches_the_per_trajectory_reference(inst):
    fw, releases, nodes = inst
    emp = empirical_epsilon(fw, releases, secret_nodes=nodes)
    if nodes is None:
        nodes = range(fw.window.start, fw.window.end + 1)
    want = _per_trajectory_epsilon(fw, releases, nodes)
    if want is None:
        assert emp == EmpiricalEpsilon(0.0, None)
        return
    assert math.isclose(emp.value, want, rel_tol=1e-12, abs_tol=1e-15)
    again = reevaluate_witness(fw, releases, emp.witness)
    assert again == pytest.approx(emp.value, rel=1e-9, abs=1e-12)


def _per_group_remote_bound(framework, query, epsilon):
    """Worst remote-conditioned log ratio, one remote realization group,
    state and ordered state pair at a time; the reference that
    ``check_joint_remote_bound`` must match."""
    sigma_max, active = quilt_scores(framework, epsilon, Variant.EXACT)
    L = framework.window.length
    offset = framework.window.start - 1
    worst = -math.inf
    for mdx, base in enumerate(framework.models):
        model = framework.window_model(base)
        seqs = enumerate_sequences(model.k, L)
        probs = sequence_probs(model, seqs)
        values = np.asarray(query.evaluate(seqs), dtype=float)
        values /= query.lipschitz_constant
        fac = oracle._factor_rows(values, sigma_max, oracle._grid_points(values))
        for aq in active[mdx]:
            i, left, right = aq.node - offset, aq.shape.left, aq.shape.right
            if left is not None and right is not None:
                nearby = set(range(i - left + 1, i + right))
            elif left is not None:
                nearby = set(range(i - left + 1, L + 1))
            elif right is not None:
                nearby = set(range(1, i + right))
            else:
                nearby = set(range(1, L + 1))
            remote = sorted(set(range(1, L + 1)) - nearby)
            m_i = probs @ (seqs[:, i - 1][:, None] == np.arange(model.k))
            live = np.nonzero(m_i > 0)[0]
            if live.size < 2:
                continue
            if remote:
                _, group = np.unique(
                    seqs[:, [n - 1 for n in remote]], axis=0, return_inverse=True
                )
            else:
                group = np.zeros(seqs.shape[0], dtype=np.int64)
            for g in range(int(group.max()) + 1):
                masses = {
                    a: (probs * ((seqs[:, i - 1] == a) & (group == g)) / m_i[a]) @ fac.T
                    for a in live
                }
                for a in live:
                    for b in live:
                        if a == b:
                            continue
                        top, bot = masses[a], masses[b]
                        with np.errstate(divide="ignore", invalid="ignore"):
                            ratio = np.log(top) - np.log(bot)
                        ratio[(top == 0) & (bot == 0)] = -math.inf
                        worst = max(worst, float(ratio.max()))
    return worst <= epsilon + 1e-9, worst


@st.composite
def _remote_instances(draw):
    k = draw(st.sampled_from([2, 3]))
    T = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(draw(st.integers(1, 2))):
        initial = rng.dirichlet(np.ones(k))
        P = rng.dirichlet(np.ones(k), size=k)
        if draw(st.booleans()):  # zero initial mass
            initial[rng.random(k) < 0.5] = 0.0
            initial[rng.integers(k)] += 0.1
        if draw(st.booleans()):  # an absorbing state
            s = rng.integers(k)
            P[s] = np.eye(k)[s]
        models.append(ChainModel.from_arrays(initial / initial.sum(), P))
    start = draw(st.integers(1, T))
    fw = Framework(T, Window(start, draw(st.integers(start, T))), tuple(models))
    query = count_state_query(draw(st.integers(0, k - 1)), k)
    return fw, query, draw(st.floats(0.3, 2.0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_remote_instances())
def test_remote_bound_matches_the_per_group_reference(inst):
    fw, query, eps = inst
    rep = check_joint_remote_bound(fw, query, eps)
    passed, worst = _per_group_remote_bound(fw, query, eps)
    assert rep.passed == passed
    assert math.isclose(rep.worst_log_ratio, worst, rel_tol=1e-12)
