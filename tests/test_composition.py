import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mquilt.chains import ChainModel, StateSequence, random_model
from mquilt.composition import (
    CompositionRule,
    compose_auto,
    compose_parallel_general,
    compose_parallel_mqm_approx,
    compose_sequential_general,
    compose_sequential_legacy,
    compose_sequential_mqm,
)
from mquilt.errors import (
    EmptyInput,
    MixedFrameworks,
    MquiltError,
    NegativeE,
    NotApproxVariant,
    OverlappingWindows,
    QuiltMismatch,
    TooManyWindows,
)
from mquilt.influence import QuiltShape, Variant, influence_over_set
from mquilt.mechanism import (
    ActiveQuilt,
    Framework,
    ReleaseRecord,
    Window,
    count_state_query,
    release,
)
from mquilt.oracle import empirical_epsilon, enumerate_sequences, release_values

IND = ChainModel.from_arrays([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]])
FAST = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
IDENT = ChainModel.from_arrays([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


def _stub(eps, window=Window(1, 3), shape_args=(1, 1), node=2, variant=Variant.EXACT):
    """A minimal hand-built record for pure budget arithmetic tests."""
    shape = QuiltShape(node, *shape_args)
    return ReleaseRecord(
        variant=variant,
        epsilon=eps,
        sigma_max=1.0,
        output=0.0,
        query_id="count:0",
        lipschitz_constant=1.0,
        window=window,
        active_quilts={0: (ActiveQuilt(node, shape, 1.0),)},
    )


def _released(eps, win, variant=Variant.EXACT, model=IND, T=5, seed=1):
    fw = Framework(T, Window(*win), (model,))
    data = StateSequence(np.zeros(fw.window.length, dtype=np.int64))
    (rec,) = release(data, [count_state_query(0, 2)], eps, fw, variant, seed=seed)
    return rec


def test_budget_sum_rule():
    recs = [_stub(0.3), _stub(0.5), _stub(0.2)]
    rep = compose_sequential_mqm(recs)
    assert rep.epsilon == pytest.approx(1.0)
    assert rep.rule is CompositionRule.MQM_SEQUENTIAL
    assert rep.rule.value == "thm6"
    assert all(c.passed for c in rep.checks)


def test_budget_sum_rejects_mixed_windows():
    recs = [_stub(0.3), _stub(0.5, window=Window(1, 4))]
    with pytest.raises(MixedFrameworks):
        compose_sequential_mqm(recs)
    with pytest.raises(EmptyInput):
        compose_sequential_mqm([])


def test_legacy_rule_count_times_max():
    recs = [_stub(0.3), _stub(0.5), _stub(0.2)]
    rep = compose_sequential_legacy(recs)
    assert rep.epsilon == pytest.approx(1.5)
    assert rep.rule.value == "thm1"
    rep = compose_sequential_legacy([_stub(0.5), _stub(0.5)])
    assert rep.epsilon == pytest.approx(1.0)


def test_legacy_rule_needs_identical_quilts():
    with pytest.raises(QuiltMismatch):
        compose_sequential_legacy([_stub(0.5), _stub(0.5, shape_args=(None, 1))])
    other = _stub(0.5)
    object.__setattr__(
        other, "active_quilts", {**other.active_quilts, 1: other.active_quilts[0]}
    )
    with pytest.raises(QuiltMismatch):
        compose_sequential_legacy([_stub(0.5), other])


def test_budget_sum_never_exceeds_legacy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        budgets = rng.uniform(0.1, 2.0, size=int(rng.integers(1, 6)))
        recs = [_stub(float(b)) for b in budgets]
        assert (
            compose_sequential_mqm(recs).epsilon
            <= compose_sequential_legacy(recs).epsilon + 1e-12
        )


def test_general_sequential_rule():
    assert compose_sequential_general(0.5, 0.3, 0.0).epsilon == pytest.approx(0.8)
    rep = compose_sequential_general(0.5, 0.5, 0.25)
    assert rep.epsilon == pytest.approx(1.5)
    assert rep.rule.value == "thm5"
    evidence = {c.name: c.evidence for c in rep.checks}["nonnegative-divergence"]
    assert evidence == "divergence bound 0.25 is assumed as given by the caller, not verified"
    assert math.isinf(compose_sequential_general(0.5, 0.5, math.inf).epsilon)
    with pytest.raises(NegativeE):
        compose_sequential_general(0.5, 0.5, -0.1)
    with pytest.raises(EmptyInput):
        compose_sequential_general(0.0, 0.5, 0.1)


def test_parallel_independent_chain_costs_worst_budget():
    models = (IND,)
    ra = _released(0.5, (1, 2))
    rb = _released(0.7, (4, 5))
    rep = compose_parallel_general(ra, rb, models)
    assert rep.epsilon == pytest.approx(0.7, abs=1e-12)
    assert rep.rule.value == "thm2"


def test_parallel_deterministic_chain_costs_budget_sum():
    models = (IDENT,)
    ra = _released(0.5, (1, 2), model=IDENT)
    rb = _released(0.5, (4, 5), model=IDENT)
    rep = compose_parallel_general(ra, rb, models)
    assert rep.epsilon == pytest.approx(1.0, abs=1e-12)


def test_parallel_general_is_order_insensitive():
    model = ChainModel.from_arrays([0.5, 0.5], [[0.7, 0.3], [0.5, 0.5]])
    models = (model,)
    ra = _released(0.9, (1, 2), model=model, T=6)
    rb = _released(0.4, (4, 6), model=model, T=6)
    assert compose_parallel_general(ra, rb, models).epsilon == pytest.approx(
        compose_parallel_general(rb, ra, models).epsilon, abs=1e-12
    )


def test_parallel_general_rejects_overlap():
    models = (IND,)
    ra = _released(0.5, (1, 3), T=6)
    rb = _released(0.5, (3, 5), T=6)
    with pytest.raises(OverlappingWindows):
        compose_parallel_general(ra, rb, models)


def test_parallel_general_pairs_budget_with_crossing_influence():
    # The later window is charged through the backward influence and the
    # earlier one through the forward influence, each clipped by the other
    # record's own budget.
    model = ChainModel.from_arrays([0.5, 0.5], [[0.7, 0.3], [0.5, 0.5]])
    models = (model,)
    ra = _released(12.0, (1, 1), model=model, T=2)
    rb = _released(6.0, (2, 2), model=model, T=2)
    fwd = influence_over_set(models, QuiltShape(1, None, 1))
    bwd = influence_over_set(models, QuiltShape(2, 1, None))
    assert fwd == pytest.approx(0.5108, abs=5e-4)
    assert bwd == pytest.approx(0.4418, abs=5e-4)
    rep = compose_parallel_general(ra, rb, models)
    want = max(12.0 + min(6.0, fwd), 6.0 + min(12.0, bwd))
    assert rep.epsilon == pytest.approx(want, abs=1e-12)
    assert rep.epsilon == pytest.approx(12.0 + fwd, abs=1e-12)


def test_parallel_general_worked_numbers(monkeypatch):
    def fake_influence(models, shape):
        return 0.2 if shape.left is None else 0.1

    monkeypatch.setattr("mquilt.composition.influence_over_set", fake_influence)
    models = (IND,)
    ra = _released(0.5, (1, 2))
    rb = _released(0.5, (4, 5))
    rep = compose_parallel_general(ra, rb, models)
    assert rep.epsilon == pytest.approx(0.7, abs=1e-12)


def test_parallel_general_absorbing_chain_takes_the_exact_route():
    # State 0 never leaves, so the chain is reducible: the spectral bound
    # does not exist, but the exact boundary influence does. It is infinite
    # both ways (only state 1 can precede or follow state 1), so each window
    # is charged the other's whole budget.
    absorbing = ChainModel.from_arrays([0.5, 0.5], [[1.0, 0.0], [0.4, 0.6]])
    models = (absorbing,)
    ra = _released(2.0, (1, 4), model=absorbing, T=12)
    rb = _released(3.0, (8, 12), model=absorbing, T=12)
    assert influence_over_set(models, QuiltShape(4, None, 4)) == math.inf
    assert influence_over_set(models, QuiltShape(8, 4, None)) == math.inf
    for rep in (compose_parallel_general(ra, rb, models), compose_auto([ra, rb], models)):
        assert rep.rule.value == "thm2"
        assert rep.epsilon == 5.0
        assert all(c.passed for c in rep.checks)
        assert "forward inf, backward inf via exact route" in [c.evidence for c in rep.checks]


def test_approx_parallel_takes_max_when_conditions_hold():
    models = (FAST,)
    ra = _released(8.0, (1, 20), Variant.APPROX, FAST, T=60)
    rb = _released(9.0, (41, 60), Variant.APPROX, FAST, T=60)
    assert any(q.shape.is_two_sided for q in ra.active_quilts[0])
    assert any(q.shape.is_two_sided for q in rb.active_quilts[0])
    rep = compose_parallel_mqm_approx(ra, rb, models)
    assert rep.epsilon == pytest.approx(9.0, abs=1e-12)
    assert rep.rule.value == "thm3"
    assert all(c.passed for c in rep.checks)


def test_approx_parallel_falls_back_when_gap_is_short():
    models = (FAST,)
    ra = _released(8.0, (1, 20), Variant.APPROX, FAST, T=60)
    rb = _released(9.0, (25, 44), Variant.APPROX, FAST, T=60)
    rep = compose_parallel_mqm_approx(ra, rb, models)
    assert rep.rule.value == "thm2"
    assert rep.epsilon >= 9.0
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["windows-far-apart"]


def test_approx_parallel_falls_back_without_two_sided_quilts():
    # At this budget the spectral scores make the empty or one-sided quilt
    # win at every node, so the first qualifying condition fails.
    models = (FAST,)
    ra = _released(0.4, (1, 20), Variant.APPROX, FAST, T=60)
    rb = _released(0.4, (41, 60), Variant.APPROX, FAST, T=60)
    assert not any(q.shape.is_two_sided for q in ra.active_quilts[0])
    rep = compose_parallel_mqm_approx(ra, rb, models)
    assert rep.rule.value == "thm2"
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"two-sided-active-earlier", "two-sided-active-later"}


def test_approx_parallel_does_not_pass_on_a_record_without_quilts():
    # An empty table has no model without a two-sided winner, yet it shows
    # no two-sided winner either: the rule must fall back, not take the max.
    models = (FAST,)
    ra = _released(8.0, (1, 20), Variant.APPROX, FAST, T=60)
    rb = _released(9.0, (41, 60), Variant.APPROX, FAST, T=60)
    assert compose_parallel_mqm_approx(ra, rb, models).rule.value == "thm3"
    bare = [dataclasses.replace(r, active_quilts={}) for r in (ra, rb)]
    for rep in (compose_parallel_mqm_approx(*bare, models), compose_auto(bare, models)):
        assert rep.rule.value == "thm2"
        assert rep.epsilon == compose_parallel_general(ra, rb, models).epsilon > 9.0
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"two-sided-active-earlier", "two-sided-active-later"}


def test_approx_parallel_requires_approx_records():
    models = (FAST,)
    ra = _released(1.0, (1, 20), Variant.EXACT, FAST, T=60)
    rb = _released(1.0, (41, 60), Variant.APPROX, FAST, T=60)
    with pytest.raises(NotApproxVariant):
        compose_parallel_mqm_approx(ra, rb, models)


def test_auto_single_record():
    models = (IND,)
    rep = compose_auto([_released(0.6, (1, 5))], models)
    assert rep.epsilon == pytest.approx(0.6)
    assert rep.rule.value == "thm6"


def test_auto_same_window_sums():
    models = (IND,)
    recs = [_released(0.3, (1, 5), seed=s) for s in (1, 2, 3)]
    rep = compose_auto(recs, models)
    assert rep.epsilon == pytest.approx(0.9)
    assert rep.rule.value == "thm6"


def test_auto_two_disjoint_routes_by_variant():
    models = (FAST,)
    ra = _released(8.0, (1, 20), Variant.APPROX, FAST, T=60)
    rb = _released(9.0, (41, 60), Variant.APPROX, FAST, T=60)
    assert compose_auto([ra, rb], models).rule.value == "thm3"
    rc = _released(0.5, (1, 20), Variant.EXACT, FAST, T=60)
    rd = _released(0.5, (41, 60), Variant.EXACT, FAST, T=60)
    assert compose_auto([rc, rd], models).rule.value == "thm2"


def test_auto_rejects_partial_overlap():
    models = (IND,)
    ra = _released(0.5, (1, 3), T=6)
    rb = _released(0.5, (3, 6), T=6)
    with pytest.raises(OverlappingWindows):
        compose_auto([ra, rb], models)
    with pytest.raises(EmptyInput):
        compose_auto([], models)


def test_auto_refuses_three_disjoint_windows():
    # The parallel rules are proved for two windows; three must be composed
    # pairwise rather than folded into one unproved number.
    models = (IND,)
    recs = [
        _released(0.3, (1, 1)),
        _released(0.4, (3, 3)),
        _released(0.5, (5, 5)),
    ]
    with pytest.raises(TooManyWindows, match="pairwise"):
        compose_auto(recs, models)
    assert compose_auto(recs[:2], models).rule.value == "thm2"


def test_composed_budget_never_below_worst_input():
    rng = np.random.default_rng(23)
    model = ChainModel.from_arrays([0.5, 0.5], [[0.7, 0.3], [0.5, 0.5]])
    models = (model,)
    for _ in range(20):
        ea = float(rng.uniform(0.1, 2.0))
        eb = float(rng.uniform(0.1, 2.0))
        ra = _released(ea, (1, 2), model=model, T=6)
        rb = _released(eb, (5, 6), model=model, T=6)
        par = compose_parallel_general(ra, rb, models)
        assert par.epsilon >= max(ea, eb) - 1e-12
        same = [_stub(ea), _stub(eb)]
        assert compose_sequential_mqm(same).epsilon >= max(ea, eb) - 1e-12
        assert compose_sequential_legacy(same).epsilon >= max(ea, eb) - 1e-12


def test_report_serialization():
    rep = compose_sequential_mqm([_stub(0.3), _stub(0.2)], ["a", "b"])
    d = rep.to_dict()
    assert d["epsilon"] == pytest.approx(0.5)
    assert d["rule"] == "thm6"
    assert d["inputs"] == ["a", "b"]
    assert all({"name", "passed", "evidence"} <= set(c) for c in d["checks"])


def test_parallel_rules_report_caller_ids_as_strings():
    # Caller ids come out as text, as CompositionReport.inputs declares,
    # from thm2, from thm3 and from thm3's fallback to thm2.
    near, far = (_released(eps, win, Variant.APPROX, FAST, T=60)
                 for eps, win in [(8.0, (1, 20)), (9.0, (41, 60))])
    close = _released(9.0, (25, 44), Variant.APPROX, FAST, T=60)
    reports = [
        compose_parallel_general(near, far, (FAST,), [1, 2]),
        compose_parallel_mqm_approx(near, far, (FAST,), [1, 2]),
        compose_parallel_mqm_approx(near, close, (FAST,), [1, 2]),
    ]
    assert [r.rule.value for r in reports] == ["thm2", "thm3", "thm2"]
    assert all(r.inputs == ("1", "2") for r in reports)


def test_general_sequential_rule_reports_caller_ids_as_strings():
    assert compose_sequential_general(1.0, 1.0, 0.0, [1, 2]).inputs == ("1", "2")
    assert compose_sequential_general(1.0, 1.0, 0.0).inputs == ("mechanism-a", "mechanism-b")


ABSORBING = ChainModel.from_arrays([0.5, 0.5], [[1.0, 0.0], [0.3, 0.7]])


@st.composite
def _record_pairs(draw):
    """Two count releases over one trajectory, over one shared window or two
    disjoint ones, each exact or approx, under one or two candidate models.
    An absorbing chain can be among the models of exact releases (approx
    releases refuse a reducible chain)."""
    chain = random_model(2, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    models = draw(st.sampled_from(
        [(chain,), (FAST,), (chain, FAST), (chain, ABSORBING), (ABSORBING,)]
    ))
    variants = st.sampled_from(
        [Variant.EXACT] if models[-1] is ABSORBING else [Variant.EXACT, Variant.APPROX]
    )
    start = draw(st.integers(1, 4))
    first = Window(start, start + draw(st.integers(0, 24)))
    second = first
    if draw(st.booleans()):
        lead = first.end + draw(st.integers(1, 40))
        second = Window(lead, lead + draw(st.integers(0, 24)))
    horizon = second.end + draw(st.integers(0, 3))
    eps_a = draw(st.floats(0.2, 12.0))
    eps_b = draw(st.one_of(st.just(eps_a), st.floats(0.2, 12.0)))
    records = [
        release(StateSequence(np.zeros(win.length, dtype=np.int64)),
                [count_state_query(0, 2)], eps, Framework(horizon, win, models),
                draw(variants), seed=n)[0]
        for n, (win, eps) in enumerate([(first, eps_a), (second, eps_b)])
    ]
    if draw(st.booleans()):
        records.reverse()
    return models, records


# An approx pair that meets thm3's conditions, which random draws seldom do.
FAR_APART = ((FAST,), [_released(8.0, (1, 20), Variant.APPROX, FAST, T=60),
                       _released(9.0, (41, 60), Variant.APPROX, FAST, T=60)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_record_pairs(), st.one_of(st.floats(0.0, 5.0), st.just(math.inf)))
@example(FAR_APART, 0.0)
def test_auto_is_no_worse_than_any_rule_that_accepts_the_pair(pair, divergence):
    # compose_auto picks among thm2, thm3 and thm6; thm1 and thm5 must never
    # give a smaller budget on a pair they accept, or dropping them would
    # lose a provable bound.
    models, (ra, rb) = pair
    auto = compose_auto([ra, rb], models).epsilon
    rules = {
        "thm1": lambda: compose_sequential_legacy([ra, rb]),
        "thm2": lambda: compose_parallel_general(ra, rb, models),
        "thm3": lambda: compose_parallel_mqm_approx(ra, rb, models),
        "thm5": lambda: compose_sequential_general(ra.epsilon, rb.epsilon, divergence),
        "thm6": lambda: compose_sequential_mqm([ra, rb]),
    }
    for name, rule in rules.items():
        try:
            eps = rule().epsilon
        except MquiltError:  # the rule's preconditions refuse this pair
            continue
        assert auto <= eps, (name, auto, eps)


def _audited_chain(seed, k, kind):
    """A chain of random rows ("rough"), the same with zeros in its rows
    and initial law ("rough-with-zeros"), a sticky chain, or a chain whose
    state 0 absorbs. Only "rough" and "sticky" chains are surely
    irreducible and aperiodic, as the approx variant needs."""
    rng = np.random.default_rng(seed)
    P = rng.random((k, k)) + 0.05
    q = rng.random(k) + 0.05
    if kind == "rough-with-zeros":
        P[rng.random((k, k)) < 0.3] = 0.0
        P[np.arange(k), rng.integers(0, k, k)] += 0.05  # no empty row
        q[rng.random(k) < 0.5] = 0.0
        q[rng.integers(k)] += 0.05
    P /= P.sum(axis=1, keepdims=True)
    if kind == "sticky":
        P = 0.1 * P + 0.9 * np.eye(k)
    elif kind == "absorbing":
        P[0] = np.eye(k)[0]
    return ChainModel.from_arrays(q / q.sum(), P)


@st.composite
def _audited_pairs(draw):
    """Two count releases of a chain of 2 or 3 states over at most 8 nodes,
    in one window (composed by thm6) or in two disjoint windows (thm2)."""
    k = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["rough", "rough-with-zeros", "sticky", "absorbing"]))
    model = _audited_chain(draw(st.integers(0, 2**32 - 1)), k, kind)
    variants = [Variant.EXACT, Variant.APPROX] if kind in ("rough", "sticky") else [Variant.EXACT]
    T = draw(st.integers(2, 8))
    if draw(st.booleans()):
        start = draw(st.integers(1, T))
        windows = [Window(start, draw(st.integers(start, T)))] * 2
    else:
        a = draw(st.integers(1, T - 1))
        b = draw(st.integers(a, T - 1))
        c = draw(st.integers(b + 1, T))
        windows = [Window(a, b), Window(c, draw(st.integers(c, T)))]
    queries = [count_state_query(draw(st.integers(0, k - 1)), k) for _ in windows]
    records = [
        release(StateSequence(np.zeros(win.length, dtype=np.int64)), [query],
                draw(st.floats(0.1, 5.0)), Framework(T, win, (model,)),
                draw(st.sampled_from(variants)), seed=n)[0]
        for n, (win, query) in enumerate(zip(windows, queries))
    ]
    return model, T, records, queries


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_audited_pairs())
def test_auto_budget_bounds_the_exact_joint_epsilon(pair):
    # The oracle's worst log ratio of the joint output law, over every node
    # of either window, never exceeds the budget compose_auto prints.
    model, T, records, queries = pair
    report = compose_auto(records, (model,))
    assert report.rule in (CompositionRule.MQM_SEQUENTIAL, CompositionRule.GENERAL_PARALLEL)
    seqs = enumerate_sequences(model.k, T)
    releases = [release_values(r, q, seqs) for r, q in zip(records, queries)]
    nodes = sorted({i for r in records for i in range(r.window.start, r.window.end + 1)})
    joint = empirical_epsilon(Framework(T, Window(1, T), (model,)), releases,
                              secret_nodes=nodes, seqs=seqs)
    assert joint.value <= report.epsilon + 1e-9, (joint.value, report.epsilon)
