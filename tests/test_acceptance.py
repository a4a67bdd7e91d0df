"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Every test fixes its seeds, so reruns are bit-identical.
"""

import math
import time

import numpy as np

from mquilt.chains import (
    ChainModel,
    StateSequence,
    random_model,
    spectral,
)
from mquilt.composition import (
    compose_parallel_general,
    compose_parallel_mqm_approx,
    compose_sequential_legacy,
    compose_sequential_mqm,
)
from mquilt.errors import QuiltMismatch
from mquilt.influence import (
    QuiltShape,
    Variant,
    approx_max_influence,
    approx_offset_threshold,
    exact_max_influence,
)
from mquilt.mechanism import (
    Framework,
    Window,
    count_state_query,
    quilt_scores,
    release,
)
from mquilt.oracle import (
    empirical_epsilon,
    enumerate_quilts,
    enumerate_sequences,
    enumerated_max_influence,
    release_values,
    verify_counterexample,
)

FAST = ChainModel.from_arrays([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_counterexample_constants():
    t0 = time.perf_counter()
    rep = verify_counterexample()
    elapsed = time.perf_counter() - t0
    golden = (5.3132, 6.2672, 4.4695, 6.3448)
    got = (*rep.single_squared, *rep.joint_diagonal)
    close = all(abs(g - w) <= 5e-4 for g, w in zip(got, golden))
    oracle_pairs = zip(
        (*rep.single_squared, *rep.joint_diagonal),
        (*rep.oracle_single_squared, *rep.oracle_joint_diagonal),
    )
    agrees = all(abs(a - b) <= 1e-6 for a, b in oracle_pairs)
    ok = (
        close
        and rep.violated
        and max(rep.joint_diagonal) > max(rep.single_squared)
        and agrees
        and elapsed < 1.0
    )
    assert _verdict(
        1,
        ok,
        f"constants {tuple(round(v, 4) for v in got)}, oracle agrees: "
        f"{agrees}, violated: {rep.violated}, {elapsed:.3f}s",
    )


def test_criterion_2_release_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    seqs = enumerate_sequences(2, 4)
    query = count_state_query(0, 2)
    tightest = math.inf
    for n in range(100):
        model = random_model(2, rng)
        fw = Framework(4, Window(1, 4), (model,))
        for eps in (0.5, 1.0):
            (rec,) = release(
                StateSequence(np.zeros(4, dtype=np.int64)),
                [query],
                eps,
                fw,
                Variant.EXACT,
                seed=n,
            )
            emp = empirical_epsilon(fw, [release_values(rec, query, seqs)])
            assert emp.value <= eps + 1e-6, (emp.value, eps)
            tightest = min(tightest, eps - emp.value)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    assert _verdict(
        2,
        ok,
        f"200 releases within budget, tightest slack {tightest:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_sequential_composition_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    seqs = enumerate_sequences(2, 4)
    q0, q1 = count_state_query(0, 2), count_state_query(1, 2)
    differing = 0
    worst = 0.0
    for n in range(25):
        model = random_model(2, rng)
        fw = Framework(4, Window(1, 4), (model,))
        data = StateSequence(rng.integers(0, 2, size=4))
        (ra,) = release(data, [q0], 0.4, fw, Variant.EXACT, seed=n)
        (rb,) = release(data, [q1], 0.8, fw, Variant.EXACT, seed=100 + n)
        if any(
            x.shape != y.shape
            for x, y in zip(ra.active_quilts[0], rb.active_quilts[0])
        ):
            differing += 1
        budget = compose_sequential_mqm([ra, rb]).epsilon
        assert abs(budget - 1.2) <= 1e-12
        rels = [release_values(ra, q0, seqs), release_values(rb, q1, seqs)]
        emp = empirical_epsilon(fw, rels)
        assert emp.value <= budget + 1e-6, (emp.value, budget)
        worst = max(worst, emp.value)
    elapsed = time.perf_counter() - t0
    ok = differing >= 1 and elapsed < 120.0
    assert _verdict(
        3,
        ok,
        f"25 joint releases within 1.2 (worst {worst:.4f}), active quilts "
        f"differed in {differing} cases, {elapsed:.2f}s",
    )


def test_criterion_4_parallel_composition_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    seqs = enumerate_sequences(2, 6)
    query = count_state_query(0, 2)
    tightest = math.inf
    for n in range(25):
        model = random_model(2, rng)
        eps_a = float(rng.uniform(0.3, 1.0))
        eps_b = float(rng.uniform(0.3, 1.0))
        fa = Framework(6, Window(1, 2), (model,))
        fb = Framework(6, Window(5, 6), (model,))
        blank = StateSequence(np.zeros(2, dtype=np.int64))
        (ra,) = release(blank, [query], eps_a, fa, Variant.EXACT, seed=n)
        (rb,) = release(blank, [query], eps_b, fb, Variant.EXACT, seed=n)
        fw_all = Framework(6, Window(1, 6), (model,))
        rep = compose_parallel_general(ra, rb, fw_all.models)
        assert rep.epsilon >= max(eps_a, eps_b) - 1e-12
        rels = [
            release_values(ra, query, seqs),
            release_values(rb, query, seqs),
        ]
        emp = empirical_epsilon(fw_all, rels, secret_nodes=[1, 2, 5, 6])
        assert emp.value <= rep.epsilon + 1e-6, (emp.value, rep.epsilon)
        tightest = min(tightest, rep.epsilon - emp.value)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    assert _verdict(
        4,
        ok,
        f"25 disjoint-window pairs within the composed bound, tightest "
        f"margin {tightest:.4f}, {elapsed:.2f}s",
    )


def test_criterion_5_spectral_bound_dominates():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        model = random_model(k, rng)
        info = spectral(model)
        base = max(1, math.ceil(approx_offset_threshold(info)))
        a = base + int(rng.integers(0, 3))
        b = base + int(rng.integers(0, 3))
        shape = QuiltShape(a + 1, a, b)
        exact = exact_max_influence(model, shape)
        bound = approx_max_influence(info, shape)
        assert exact <= bound + 1e-9, (exact, bound)
        checked += 1
    assert _verdict(
        5, checked == 100, f"exact influence under the spectral bound in "
        f"{checked}/100 threshold-offset draws"
    )


def test_criterion_6_influence_monotone_in_node_set():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        k = int(rng.integers(2, 4))
        T = int(rng.integers(2, 6))
        model = random_model(k, rng)
        i = int(rng.integers(1, T + 1))
        others = [t for t in range(1, T + 1) if t != i]
        r_size = int(rng.integers(1, len(others) + 1))
        R = sorted(rng.choice(others, size=r_size, replace=False).tolist())
        s_size = int(rng.integers(0, len(R) + 1))
        S = sorted(rng.choice(R, size=s_size, replace=False).tolist())
        infl_s = enumerated_max_influence(model, i, S, horizon=T)
        infl_r = enumerated_max_influence(model, i, R, horizon=T)
        assert infl_s <= infl_r + 1e-9, (S, R, infl_s, infl_r)
        checked += 1
    assert _verdict(
        6, checked == 200, f"subset influence never exceeded superset "
        f"influence in {checked}/200 draws"
    )


def test_criterion_7_spectral_analytics():
    model = ChainModel.from_arrays([1.0, 0.0], [[0.75, 0.25], [0.25, 0.75]])
    info = spectral(model)
    gap_ok = abs(info.gap - 0.75) <= 1e-9
    pi_ok = np.all(np.abs(info.stationary - 0.5) <= 1e-10)
    assert _verdict(
        7,
        gap_ok and bool(pi_ok),
        f"gap {info.gap!r}, stationary {info.stationary.tolist()}",
    )


def test_criterion_8_quilt_enumeration():
    counts_ok = True
    for T in range(1, 21):
        for i in range(1, T + 1):
            shapes = enumerate_quilts(T, i)
            want = (i - 1) * (T - i) + (i - 1) + (T - i) + 1
            counts_ok &= len(shapes) == want
            counts_ok &= QuiltShape(i, None, None) in shapes
    ind = ChainModel.from_arrays([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]])
    sigma_ok = True
    for eps in (0.25, 0.5, 1.0, 2.0):
        fw = Framework(6, Window(1, 6), (ind,))
        sigma, _ = quilt_scores(fw, eps, Variant.EXACT)
        sigma_ok &= abs(sigma - 1.0 / eps) <= 1e-12
    assert _verdict(
        8,
        counts_ok and sigma_ok,
        "closed-form quilt counts for all T <= 20 and independent-chain "
        "scale 1/epsilon",
    )


def test_criterion_9_accountant_orderings():
    rng = np.random.default_rng(13)
    query = count_state_query(0, 2)
    legacy_pairs = strict_legacy = 0
    for n in range(50):
        model = random_model(2, rng)
        fw = Framework(4, Window(1, 4), (model,))
        data = StateSequence(np.zeros(4, dtype=np.int64))
        eps_a = float(rng.uniform(0.3, 1.5))
        eps_b = float(rng.uniform(0.3, 1.5))
        (ra,) = release(data, [query], eps_a, fw, Variant.EXACT, seed=n)
        try:
            (rb,) = release(data, [query], eps_b, fw, Variant.EXACT, seed=n + 50)
            rep1 = compose_sequential_legacy([ra, rb])
        except QuiltMismatch:
            # different budgets moved a winning quilt; an equal-budget pair
            # always satisfies the identical-quilts precondition
            (rb,) = release(data, [query], eps_a, fw, Variant.EXACT, seed=n + 50)
            rep1 = compose_sequential_legacy([ra, rb])
        rep6 = compose_sequential_mqm([ra, rb])
        assert rep6.epsilon <= rep1.epsilon + 1e-12, (rep6.epsilon, rep1.epsilon)
        legacy_pairs += 1
        if rep6.epsilon < rep1.epsilon - 1e-12:
            strict_legacy += 1

    rng = np.random.default_rng(9)
    parallel_pairs = tried = 0
    while parallel_pairs < 50 and tried < 400:
        tried += 1
        span = int(rng.integers(16, 21))
        gap = span + int(rng.integers(0, 4))
        t2 = span
        t3 = t2 + gap + 1
        t4 = t3 + span - 1
        eps_a = float(rng.uniform(8.0, 12.0))
        eps_b = float(rng.uniform(8.0, 12.0))
        fa = Framework(t4, Window(1, t2), (FAST,))
        fb = Framework(t4, Window(t3, t4), (FAST,))
        blank = StateSequence(np.zeros(span, dtype=np.int64))
        (ra,) = release(blank, [query], eps_a, fa, Variant.APPROX, seed=1)
        (rb,) = release(blank, [query], eps_b, fb, Variant.APPROX, seed=2)
        rep3 = compose_parallel_mqm_approx(ra, rb, (FAST,))
        if rep3.rule.value != "thm3":
            continue  # preconditions not met; draw another pair
        parallel_pairs += 1
        rep2 = compose_parallel_general(ra, rb, (FAST,))
        assert rep3.epsilon <= rep2.epsilon + 1e-12, (rep3.epsilon, rep2.epsilon)
    ok = legacy_pairs == 50 and parallel_pairs == 50
    assert _verdict(
        9,
        ok,
        f"budget-sum <= legacy on {legacy_pairs}/50 pairs ({strict_legacy} "
        f"strict), approx-parallel <= general on {parallel_pairs}/50 pairs",
    )
