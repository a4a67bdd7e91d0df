"""Brute-force privacy verification on small instances.

Everything here works by exhaustive enumeration, of the k^T trajectories
or of every candidate quilt, so results are exact up to floating point
rather than sampled. Output laws of Laplace releases are finite mixtures;
the log ratio of two such mixtures is piecewise monotone between mixture
centers (substituting t = exp(2w/sigma) turns each piece into a Mobius
function of t), so suprema over the real line are attained at the centers
or in the two tail limits. Joint releases extend this coordinate by
coordinate: the supremum over the plane sits on the grid of per-release
centers plus limit rays.

Ratio evaluations rescale each kernel by a reference anchored to the
evaluation point, which cancels in matched ratios and keeps everything
inside floating range even for tiny noise scales.

The work scales with the number of distinct release values, not with the
number of trajectories. A query is evaluated over the whole trajectory
table in one batched call (:class:`~mquilt.mechanism.LipschitzQuery`), and a
trajectory's Laplace factors depend on it only through its release values.
One binned scan serves every conditional-law check: it bins trajectory
probability by (state at the secret node, outcome bin), contracts each
release's axis with its factor matrix over its distinct centers, keeps
exactly observed axes as they are, and takes the worst log ratio between
two states' normalised laws. :func:`empirical_epsilon` bins by the
combination of distinct release values, :func:`check_joint_remote_bound`
adds the realization of the nodes outside each winning quilt as an exact
axis, and :func:`enumerated_max_influence` bins by the realization on its
node set alone. :func:`reevaluate_witness` and :func:`verify_counterexample`
recompute their ratios trajectory by trajectory, independently of the
binning.

:func:`enumerate_quilts` and :func:`score` score one quilt at a time; they
are the reference the mechanism's batched quilt search must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .chains import ChainModel, marginal
from .errors import (
    BadShape,
    InvalidEpsilon,
    InvalidTime,
    LengthMismatch,
    MquiltError,
    TooLarge,
)
from .influence import QuiltShape, Variant, nearby_size
from .mechanism import Framework, LipschitzQuery, ReleaseRecord, Window, quilt_scores

__all__ = [
    "enumerate_sequences",
    "sequence_probs",
    "enumerate_quilts",
    "score",
    "EmpiricalEpsilon",
    "Witness",
    "empirical_epsilon",
    "reevaluate_witness",
    "release_values",
    "enumerated_max_influence",
    "RemoteBoundReport",
    "check_joint_remote_bound",
    "CounterexampleReport",
    "verify_counterexample",
]

ENUMERATION_LIMIT = 10**6
"""Refuse to enumerate more trajectories than this."""


def enumerate_sequences(k: int, T: int) -> NDArray[np.int64]:
    """All k^T trajectories, one per row, in lexicographic order.

    The last time step varies fastest. Raises ``TooLarge`` when the table
    would exceed ``ENUMERATION_LIMIT`` rows.
    """
    total = k**T
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"{k}^{T} = {total} trajectories exceeds limit {ENUMERATION_LIMIT}")
    seqs = np.indices((k,) * T, dtype=np.int64).reshape(T, total)
    return np.ascontiguousarray(seqs.T)


def sequence_probs(model: ChainModel, seqs: NDArray[np.int64]) -> NDArray[np.float64]:
    """Probability of each enumerated trajectory under the model, its
    factors multiplied from the first step to the last. Each step's
    transition factors are one gather from the flattened matrix."""
    k, flat = model.k, model.transition.ravel()
    probs = model.initial[seqs[:, 0]]
    for t in range(1, seqs.shape[1]):
        probs *= flat.take(seqs[:, t - 1] * k + seqs[:, t])
    return probs


# ---------------------------------------------------------- quilt scoring


def enumerate_quilts(T_window: int, i: int) -> list[QuiltShape]:
    """All candidate quilts around node ``i`` in a window of ``T_window``.

    Two-sided shapes for every offset pair, each one-sided shape, and the
    empty quilt, so the count is
    ``(i-1)(T-i) + (i-1) + (T-i) + 1``.
    """
    if not 1 <= i <= T_window:
        raise BadShape(f"node {i} outside window of length {T_window}")
    shapes: list[QuiltShape] = []
    for a in range(1, i):
        for b in range(1, T_window - i + 1):
            shapes.append(QuiltShape(i, a, b))
    for a in range(1, i):
        shapes.append(QuiltShape(i, a, None))
    for b in range(1, T_window - i + 1):
        shapes.append(QuiltShape(i, None, b))
    shapes.append(QuiltShape(i, None, None))
    return shapes


def score(
    shape: QuiltShape,
    e: float,
    epsilon: float,
    T_window: int,
) -> float:
    """Noise-scale score of one quilt: nearby count over leftover budget.

    Infinite whenever the influence bound meets or exceeds the budget.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InvalidEpsilon(f"budget must be positive and finite, got {epsilon}")
    if e < 0:
        raise MquiltError(f"influence cannot be negative, got {e}")
    if e >= epsilon:
        return math.inf
    return nearby_size(shape, T_window) / (epsilon - e)


# -------------------------------------------------------- evaluation grid


def _factor_rows(
    centers: NDArray[np.float64],
    sigma: float,
    points: Sequence[float],
) -> NDArray[np.float64]:
    """Kernel factors per evaluation point, rescaled per point.

    ``points`` may contain ``inf`` and ``-inf`` for the tail limits, where
    the kernel is replaced by its directional coefficient. Each point's
    rescaling depends only on the point and the centers, so it cancels in
    ratios of mixtures over the same centers.
    """
    out = np.empty((len(points), centers.size))
    for g, w in enumerate(points):
        if w == math.inf:
            out[g] = np.exp((centers - centers.max()) / sigma)
        elif w == -math.inf:
            out[g] = np.exp((centers.min() - centers) / sigma)
        else:
            ref = np.abs(w - centers).min()
            out[g] = np.exp(-(np.abs(w - centers) - ref) / sigma)
    return out


def _grid_points(centers: NDArray[np.float64]) -> list[float]:
    return [-math.inf] + [float(v) for v in np.unique(centers)] + [math.inf]


def _realizations(
    seqs: NDArray[np.int64], nodes: Sequence[int], k: int
) -> NDArray[np.int64]:
    """Each trajectory's realization on ``nodes`` (1-based, ascending) as an
    index into ``range(k ** len(nodes))``, in lexicographic order."""
    return seqs[:, [n - 1 for n in nodes]] @ k ** np.arange(len(nodes) - 1, -1, -1)


def _worst_gap(
    states: NDArray[np.int64],
    k: int,
    probs: NDArray[np.float64],
    bins: NDArray[np.int64],
    dims: tuple[int, ...],
    factors: Sequence[NDArray[np.float64] | None],
) -> tuple[float, tuple[int, int], tuple[int, ...]] | None:
    """Worst log ratio between the outcome laws given two states of a node.

    ``states`` holds the node's state on each trajectory and ``bins`` its
    index into an outcome table of shape ``dims``. Each table axis has a
    factor matrix (grid points by bins), or None where the outcome on that
    axis is observed exactly. Returns the largest
    ``|log p(o | a) - log p(o | b)|`` over states ``a < b`` of positive mass
    and grid outcomes ``o`` where either law is positive, with ``(a, b)``
    and the index of ``o``; None when fewer than two states have mass.
    """
    n_bins = math.prod(dims)
    mass = np.bincount(
        states * n_bins + bins, weights=probs, minlength=k * n_bins
    ).reshape(k, *dims)
    state_mass = mass.reshape(k, -1).sum(axis=1)
    live = np.nonzero(state_mass > 0)[0]
    if live.size < 2:
        return None
    law = mass[live]
    for fac in factors:
        if fac is None:
            law = np.moveaxis(law, 1, -1)
        else:
            law = np.tensordot(law, fac, axes=([1], [1]))
    law /= state_mass[live].reshape(-1, *[1] * len(dims))
    with np.errstate(divide="ignore"):
        logs = np.log(law)
    best = None
    for ai in range(live.size):
        for bi in range(ai + 1, live.size):
            with np.errstate(invalid="ignore"):
                gap = np.abs(logs[ai] - logs[bi])
            flat = int(np.nanargmax(gap))
            val = float(gap.ravel()[flat])
            if best is None or val > best[0]:
                pair = (int(live[ai]), int(live[bi]))
                best = (val, pair, np.unravel_index(flat, gap.shape))
    return best


def _encode(v: float) -> float | str:
    """A grid coordinate for JSON, with the tail limits as ``"+inf"`` and
    ``"-inf"``."""
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return v


# ------------------------------------------------------- empirical epsilon


@dataclass(frozen=True)
class Witness:
    """Where the worst log ratio was found."""

    model_index: int
    node: int
    pair: tuple[int, int]
    point: tuple[float, ...]
    log_ratio: float

    def to_dict(self) -> dict:
        return {
            "model_index": self.model_index,
            "node": self.node,
            "pair": list(self.pair),
            "point": [_encode(v) for v in self.point],
            "log_ratio": self.log_ratio,
        }


@dataclass(frozen=True)
class EmpiricalEpsilon:
    """Exact privacy loss of a (joint) release and its witness.

    With no node holding two values of positive probability there is no
    secret pair to tell apart: ``value`` is 0 and ``witness`` is None.
    """

    value: float
    witness: Witness | None


def release_values(
    record: ReleaseRecord,
    query: LipschitzQuery,
    seqs: NDArray[np.int64],
) -> tuple[NDArray[np.float64], float]:
    """Scaled query values over full trajectories, plus the noise scale.

    Slices the trajectory table to the record's window and evaluates the
    query over all rows in one batched call, so the result plugs straight
    into the oracle as one release.
    """
    lo, hi = record.window.start - 1, record.window.end
    vals = np.asarray(query.evaluate(seqs[:, lo:hi]), dtype=float)
    return vals / record.lipschitz_constant, record.sigma_max


def empirical_epsilon(
    framework: Framework,
    releases: Sequence[tuple[NDArray[np.float64], float]],
    secret_nodes: Sequence[int] | None = None,
    *,
    seqs: NDArray[np.int64] | None = None,
) -> EmpiricalEpsilon:
    """Exact worst-case log ratio of the (joint) output law over secrets.

    ``releases`` pairs per-trajectory scaled values (in enumeration order
    over the full horizon) with noise scales. Secrets default to every
    node of the framework window, under every model; values whose
    conditioning probability is zero are skipped. ``seqs`` is the table of
    :func:`enumerate_sequences` over the framework's states and horizon,
    for a caller that already built it to evaluate its releases; it is
    enumerated here when absent. Raises ``InvalidTime`` for a secret node
    outside ``1..horizon``, and ``LengthMismatch`` for a table of another
    shape or a value array that is not one value per trajectory.

    For each model and node, trajectory probability is binned by the
    state at the node and the combination of distinct release values,
    then contracted with each release's factor matrix over its distinct
    centers and normalised by the binned state mass.
    """
    if seqs is None:
        seqs = enumerate_sequences(framework.k, framework.horizon)
    elif seqs.shape != (framework.k**framework.horizon, framework.horizon):
        raise LengthMismatch(
            f"trajectory table of shape {seqs.shape}, expected "
            f"({framework.k}^{framework.horizon}, {framework.horizon})"
        )
    nodes = (
        list(secret_nodes)
        if secret_nodes is not None
        else list(range(framework.window.start, framework.window.end + 1))
    )
    bad = [i for i in nodes if not 1 <= i <= framework.horizon]
    if bad:
        raise InvalidTime(f"secret nodes {bad} outside 1..{framework.horizon}")
    grids, factors, codes = [], [], []
    for values, sigma in releases:
        values = np.asarray(values, dtype=float)
        if values.shape != (seqs.shape[0],):
            raise LengthMismatch(
                f"release values of shape {values.shape}, expected one per "
                f"trajectory ({seqs.shape[0]})"
            )
        centers, code = np.unique(values, return_inverse=True)
        grids.append(_grid_points(centers))
        factors.append(_factor_rows(centers, float(sigma), grids[-1]))
        codes.append(code)
    dims = tuple(f.shape[1] for f in factors)
    combo = np.ravel_multi_index(codes, dims)
    best = -math.inf
    best_witness: Witness | None = None
    for mdx, model in enumerate(framework.models):
        probs = sequence_probs(model, seqs)
        for i in nodes:
            found = _worst_gap(seqs[:, i - 1], framework.k, probs, combo, dims, factors)
            if found is not None and found[0] > best:
                best, pair, coords = found
                point = tuple(float(grids[j][c]) for j, c in enumerate(coords))
                best_witness = Witness(mdx, i, pair, point, best)
    if best_witness is None:
        return EmpiricalEpsilon(0.0, None)
    return EmpiricalEpsilon(best, best_witness)


def reevaluate_witness(
    framework: Framework,
    releases: Sequence[tuple[NDArray[np.float64], float]],
    witness: Witness,
) -> float:
    """Recompute the log ratio at a witness point from scratch."""
    seqs = enumerate_sequences(framework.k, framework.horizon)
    model = framework.models[witness.model_index]
    probs = sequence_probs(model, seqs)
    m_i = marginal(model, witness.node)
    a, b = witness.pair
    fac_prod = np.ones(seqs.shape[0])
    for j, (values, sigma) in enumerate(releases):
        values = np.asarray(values, dtype=float)
        fac_prod *= _factor_rows(values, float(sigma), [witness.point[j]])[0]
    wa = probs * (seqs[:, witness.node - 1] == a) / m_i[a]
    wb = probs * (seqs[:, witness.node - 1] == b) / m_i[b]
    return float(abs(math.log(float(fac_prod @ wa)) - math.log(float(fac_prod @ wb))))


# ------------------------------------------------- set influence by counting


def enumerated_max_influence(
    model: ChainModel,
    node: int,
    node_set: Sequence[int],
    horizon: int | None = None,
) -> float:
    """Max-influence of ``X_node`` on arbitrary nodes, by joint counting.

    Groups trajectories by their realization on ``node_set`` and compares
    conditional masses across value pairs at ``node``. Realizations that
    are impossible under both values are skipped; possible under exactly
    one gives ``inf``. Raises ``InvalidTime`` for a node outside
    ``1..horizon``.
    """
    T = horizon if horizon is not None else max([node, *node_set])
    bad = [n for n in (node, *node_set) if not 1 <= n <= T]
    if bad:
        raise InvalidTime(f"nodes {bad} outside 1..{T}")
    seqs = enumerate_sequences(model.k, T)
    nodes = sorted(set(node_set))
    found = _worst_gap(
        seqs[:, node - 1],
        model.k,
        sequence_probs(model, seqs),
        _realizations(seqs, nodes, model.k),
        (model.k ** len(nodes),),
        [None],
    )
    return 0.0 if found is None else found[0]


# ----------------------------------------------------- joint remote bound


@dataclass(frozen=True)
class RemoteBoundReport:
    """Outcome of checking the release jointly with far-away nodes.

    For every node, conditioning additionally on any realization of the
    nodes outside the winning quilt's nearby set must stay within the
    budget. ``margin`` is ``budget - worst log ratio`` (negative = failed).
    """

    passed: bool
    epsilon: float
    sigma_max: float
    worst_log_ratio: float
    witness: dict

    @property
    def margin(self) -> float:
        return self.epsilon - self.worst_log_ratio


def check_joint_remote_bound(
    framework: Framework,
    query: LipschitzQuery,
    epsilon: float,
) -> RemoteBoundReport:
    """Verify the budget holds jointly with every remote realization.

    Runs the exact quilt search, then for each model and node conditions on
    each realization of the nodes outside the winning quilt's nearby set
    and checks the output-law ratio against ``exp(epsilon)`` on the exact
    evaluation grid, up to 1e-9 of rounding. The remote realization is an
    exactly observed axis of the binned outcome table, next to the
    release's distinct values.
    """
    sigma_max, active = quilt_scores(framework, epsilon, Variant.EXACT)
    k, L = framework.k, framework.window.length
    offset = framework.window.start - 1
    seqs = enumerate_sequences(k, L)
    values = np.asarray(query.evaluate(seqs), dtype=float) / query.lipschitz_constant
    centers, code = np.unique(values, return_inverse=True)
    grid = _grid_points(centers)
    fac = _factor_rows(centers, sigma_max, grid)
    worst = -math.inf
    witness: dict = {}
    for mdx, base in enumerate(framework.models):
        probs = sequence_probs(framework.window_model(base), seqs)
        for aq in active[mdx]:
            i, shape = aq.node - offset, aq.shape
            lo = i - shape.left + 1 if shape.left is not None else 1
            hi = i + shape.right - 1 if shape.right is not None else L
            remote = [*range(1, lo), *range(hi + 1, L + 1)]
            group = _realizations(seqs, remote, k)
            dims = (k ** len(remote), centers.size)
            found = _worst_gap(
                seqs[:, i - 1], k, probs, group * centers.size + code, dims, [None, fac]
            )
            if found is None or found[0] <= worst:
                continue
            worst, pair, (g, p) = found
            witness = {
                "model_index": mdx,
                "node": aq.node,
                "pair": list(pair),
                "remote_nodes": [n + offset for n in remote],
                "realization_group": int(g),
                "point": _encode(grid[p]),
                "log_ratio": worst,
            }
    return RemoteBoundReport(
        passed=worst <= epsilon + 1e-9,
        epsilon=float(epsilon),
        sigma_max=float(sigma_max),
        worst_log_ratio=float(worst),
        witness=witness,
    )


# ------------------------------------------------------------ counterexample


@dataclass(frozen=True)
class CounterexampleReport:
    """Two-node demonstration that budgets of dependent-data releases
    need not add.

    ``single_squared`` holds the two candidate values of the squared
    worst single-release ratio divided by ``e^2``; ``joint_diagonal`` the
    matching candidates for the joint of two releases. The verdict
    compares their maxima: when the joint maximum exceeds the squared
    single maximum, running the release twice leaks more than twice the
    single-run budget.
    """

    single_squared: tuple[float, float]
    joint_diagonal: tuple[float, float]
    oracle_single_squared: tuple[float, float]
    oracle_joint_diagonal: tuple[float, float]
    epsilon_single: float
    epsilon_joint: float
    violated: bool
    grid_beyond_corners: bool

    @property
    def closed_form_agrees(self) -> bool:
        pairs = list(zip(self.single_squared, self.oracle_single_squared)) + list(
            zip(self.joint_diagonal, self.oracle_joint_diagonal)
        )
        return all(abs(x - y) <= 1e-6 for x, y in pairs)

    def to_dict(self) -> dict:
        return {
            "single_squared": list(self.single_squared),
            "joint_diagonal": list(self.joint_diagonal),
            "oracle_single_squared": list(self.oracle_single_squared),
            "oracle_joint_diagonal": list(self.oracle_joint_diagonal),
            "epsilon_single": self.epsilon_single,
            "epsilon_joint": self.epsilon_joint,
            "violated": self.violated,
            "grid_beyond_corners": self.grid_beyond_corners,
            "closed_form_agrees": self.closed_form_agrees,
        }


def verify_counterexample(p: float = 0.9, q: float = 0.01) -> CounterexampleReport:
    """Check the two-node sequential-composition counterexample.

    The chain starts uniform over two states with transition rows
    ``[1-q, q]`` and ``[1-p, p]``; the released value is the number of
    time steps spent in state 1 with unit Laplace noise. Candidates for
    the worst ratios have closed forms in ``p`` and ``q``; the generic
    enumeration oracle recomputes them from the output laws and must
    agree to near machine precision.
    """
    e = math.e
    cf_single = (
        ((q + e * (1 - q)) / (p + e * (1 - p))) ** 2,
        ((e * p + (1 - p)) / (e * q + (1 - q))) ** 2,
    )
    cf_joint = (
        (q + e**2 * (1 - q)) / (p + e**2 * (1 - p)),
        (e**2 * p + (1 - p)) / (e**2 * q + (1 - q)),
    )
    model = ChainModel.from_arrays([0.5, 0.5], [[1 - q, q], [1 - p, p]])
    seqs = enumerate_sequences(2, 2)
    values = seqs.sum(axis=1).astype(float)
    probs = sequence_probs(model, seqs)
    m1 = marginal(model, 1)

    def tail_ratio(point: float, n_rel: int) -> float:
        """log [p(point... | X_1=1) / p(... | X_1=0)] at a diagonal point."""
        fac = _factor_rows(values, 1.0, [point])[0] ** n_rel
        w1 = probs * (seqs[:, 0] == 1) / m1[1]
        w0 = probs * (seqs[:, 0] == 0) / m1[0]
        return math.log(float(fac @ w1)) - math.log(float(fac @ w0))

    oracle_single = (
        math.exp(-2.0 * tail_ratio(-math.inf, 1)) / e**2,
        math.exp(2.0 * tail_ratio(math.inf, 1)) / e**2,
    )
    oracle_joint = (
        math.exp(-tail_ratio(-math.inf, 2)) / e**2,
        math.exp(tail_ratio(math.inf, 2)) / e**2,
    )
    fw = Framework(2, Window(1, 2), (model,))
    eps_single = empirical_epsilon(fw, [(values, 1.0)], secret_nodes=[1]).value
    eps_joint = empirical_epsilon(
        fw, [(values, 1.0), (values, 1.0)], secret_nodes=[1]
    ).value
    corner_max = math.log(e**2 * max(cf_joint))
    return CounterexampleReport(
        single_squared=cf_single,
        joint_diagonal=cf_joint,
        oracle_single_squared=oracle_single,
        oracle_joint_diagonal=oracle_joint,
        epsilon_single=float(eps_single),
        epsilon_joint=float(eps_joint),
        violated=max(cf_joint) > max(cf_single) + 1e-12,
        grid_beyond_corners=eps_joint > corner_max + 1e-9,
    )
