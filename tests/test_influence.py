import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquilt.chains import ChainModel, random_model, spectral
from mquilt.errors import BadShape, EmptyThetaSet
from mquilt.influence import (
    QuiltShape,
    approx_max_influence,
    approx_offset_threshold,
    exact_max_influence,
    influence_over_set,
    nearby_size,
)
from mquilt.oracle import enumerated_max_influence

SYM = ChainModel.from_arrays([1.0, 0.0], [[0.75, 0.25], [0.25, 0.75]])


def test_exact_forward_one_step():
    # P(X_3=x|X_2=u) rows are (0.75, 0.25) and (0.25, 0.75); worst column
    # ratio is 3, independently of which value pair is compared.
    got = exact_max_influence(SYM, QuiltShape(2, None, 1))
    assert type(got) is float
    assert got == pytest.approx(math.log(3.0), abs=1e-12)


def test_exact_deterministic_coupling_is_infinite():
    ident = ChainModel.from_arrays([0.5, 0.5], np.eye(2))
    got = exact_max_influence(ident, QuiltShape(3, None, 1))
    assert got == math.inf


def test_exact_empty_shape_is_zero():
    assert exact_max_influence(SYM, QuiltShape(4)) == 0.0


def test_exact_single_live_value_is_zero():
    # X_1 is a point mass, so there is no secret pair at node 1.
    assert exact_max_influence(SYM, QuiltShape(1, None, 2)) == 0.0


def test_exact_independent_chain_is_zero():
    ind = ChainModel.from_arrays([0.4, 0.6], [[0.4, 0.6], [0.4, 0.6]])
    for shape in [QuiltShape(3, 1, 1), QuiltShape(3, 2, None), QuiltShape(3, None, 2)]:
        assert exact_max_influence(ind, shape) == pytest.approx(0.0, abs=1e-12)


def test_exact_two_sided_splits_into_sides():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_model(int(rng.integers(2, 5)), rng)
        i = int(rng.integers(2, 6))
        a = int(rng.integers(1, i))
        b = int(rng.integers(1, 4))
        both = exact_max_influence(m, QuiltShape(i, a, b))
        left = exact_max_influence(m, QuiltShape(i, a, None))
        right = exact_max_influence(m, QuiltShape(i, None, b))
        # each side is a lower bound and their sum an upper bound
        assert both <= left + right + 1e-9
        assert both >= max(left, right) - 1e-9


def test_exact_decays_with_forward_offset():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = random_model(int(rng.integers(2, 4)), rng)
        vals = [
            exact_max_influence(m, QuiltShape(1, None, b)) for b in (1, 2, 3, 4)
        ]
        for closer, farther in zip(vals, vals[1:]):
            assert farther <= closer + 1e-9


def test_exact_decays_with_backward_offset():
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = random_model(int(rng.integers(2, 4)), rng)
        vals = [
            exact_max_influence(m, QuiltShape(5, a, None)) for a in (1, 2, 3, 4)
        ]
        for closer, farther in zip(vals, vals[1:]):
            assert farther <= closer + 1e-9


def test_exact_bad_offsets():
    with pytest.raises(BadShape):
        exact_max_influence(SYM, QuiltShape(2, 5, None))
    with pytest.raises(BadShape):
        exact_max_influence(SYM, QuiltShape(2, None, 0))


_WEIGHTS = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0])


@st.composite
def _sparse_laws(draw, k, rows):
    """``rows`` distributions over ``k`` values, zero entries likely."""
    out = []
    for _ in range(rows):
        w = draw(st.lists(_WEIGHTS, min_size=k, max_size=k))
        if sum(w) == 0.0:
            w[draw(st.integers(0, k - 1))] = 1.0
        out.append(np.array(w) / sum(w))
    return np.array(out)


@st.composite
def _sparse_shapes(draw):
    """A chain whose transition rows and initial law may hold zeros, and a
    one- or two-sided quilt small enough for the oracle to enumerate."""
    k = draw(st.integers(2, 3))
    model = ChainModel.from_arrays(draw(_sparse_laws(k, 1))[0], draw(_sparse_laws(k, k)))
    sides = draw(st.sampled_from(["left", "right", "both"]))
    i = draw(st.integers(1 if sides == "right" else 2, 5))
    a = None if sides == "right" else draw(st.integers(1, i - 1))
    b = None if sides == "left" else draw(st.integers(1, 7 - i))
    return model, QuiltShape(i, a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_shapes())
def test_exact_matches_enumeration_on_sparse_chains(drawn):
    model, shape = drawn
    i, a, b = shape.node, shape.left, shape.right
    nodes = ([i - a] if a else []) + ([i + b] if b else [])
    want = enumerated_max_influence(model, i, nodes, horizon=i + (b or 0))
    got = exact_max_influence(model, shape)
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-9)


def test_nearby_sizes_at_midpoint():
    T, i = 10, 5
    assert nearby_size(QuiltShape(i, 2, 3), T) == 4
    assert nearby_size(QuiltShape(i, 2, None), T) == 7
    assert nearby_size(QuiltShape(i, None, 3), T) == 7
    assert nearby_size(QuiltShape(i), T) == 10


def test_nearby_size_rejects_overflowing_shape():
    with pytest.raises(BadShape):
        nearby_size(QuiltShape(5, None, 6), 10)
    with pytest.raises(BadShape):
        nearby_size(QuiltShape(11, None, None), 10)


def test_spectral_term_example():
    info = spectral(SYM)
    got = approx_max_influence(info, QuiltShape(5, 4, 4))
    g = info.gap
    term = math.log((0.5 + math.exp(-g * 2)) / (0.5 - math.exp(-g * 2)))
    assert type(got) is float
    assert got == pytest.approx(3.0 * term, abs=1e-12)


def test_spectral_bound_infinite_below_threshold():
    info = spectral(SYM)
    thr = approx_offset_threshold(info)
    assert thr == pytest.approx(2.0 * math.log(2.0) / info.gap, abs=1e-12)
    a_bad = max(1, int(math.floor(thr)) - 1)
    assert not math.isfinite(approx_max_influence(info, QuiltShape(9, a_bad, None)))
    a_good = int(math.ceil(thr)) + 1
    assert math.isfinite(approx_max_influence(info, QuiltShape(9, a_good, None)))


def test_spectral_terms_decay():
    rng = np.random.default_rng(41)
    for _ in range(25):
        info = spectral(random_model(int(rng.integers(2, 5)), rng))
        vals = [
            approx_max_influence(info, QuiltShape(9, None, b))
            for b in range(1, 8)
        ]
        finite = [v for v in vals if math.isfinite(v)]
        for closer, farther in zip(finite, finite[1:]):
            assert farther <= closer + 1e-12


def test_spectral_one_sided_matches_term_structure():
    info = spectral(SYM)
    left = approx_max_influence(info, QuiltShape(9, 3, None))
    right = approx_max_influence(info, QuiltShape(9, None, 3))
    both = approx_max_influence(info, QuiltShape(9, 3, 3))
    assert left == pytest.approx(2.0 * right, abs=1e-12)
    assert both == pytest.approx(left + right, abs=1e-12)


def test_exact_never_exceeds_spectral_bound():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(100):
        m = random_model(int(rng.integers(2, 5)), rng)
        info = spectral(m)
        i = int(rng.integers(2, 6))
        a = int(rng.integers(1, i))
        b = int(rng.integers(1, 5))
        ex = exact_max_influence(m, QuiltShape(i, a, b))
        ap = approx_max_influence(info, QuiltShape(i, a, b))
        assert ex <= ap + 1e-9
        checked += 1
    assert checked == 100


def test_influence_over_set_takes_worst_model():
    slow = ChainModel.from_arrays([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
    fast = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
    shape = QuiltShape(2, None, 1)
    lone = exact_max_influence(slow, shape)
    both = influence_over_set([fast, slow], shape)
    assert both == pytest.approx(lone, abs=1e-12)


def test_influence_over_set_rejects_empty():
    with pytest.raises(EmptyThetaSet):
        influence_over_set([], QuiltShape(2, None, 1))
