import math

import numpy as np
import pytest

from mquilt.chains import ChainModel, StateSequence, random_model
from mquilt.errors import TooLarge
from mquilt.influence import QuiltShape, Variant, exact_max_influence
from mquilt.mechanism import (
    Framework,
    Window,
    count_state_query,
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
        rec = release(
            StateSequence(np.zeros(3, dtype=np.int64)),
            query,
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
        rec = release(
            StateSequence(np.zeros(3, dtype=np.int64)),
            query,
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
    rec = release(
        StateSequence(np.zeros(2, dtype=np.int64)), query, 1.0, fw, Variant.EXACT, 2
    )
    seqs = enumerate_sequences(2, 3)
    vals, sigma = release_values(rec, query, seqs)
    assert sigma == rec.sigma_max
    # row [0, 1, 0] has one zero inside window [2, 3]
    np.testing.assert_allclose(vals[2], 1.0)
    np.testing.assert_allclose(vals[0], 2.0)
