"""Max-influence of one node on surrounding node sets.

The central quantity is the largest log ratio, over realizations and over
pairs of values at the protected node, between conditional laws of a set of
observed nodes. Two routes compute it for quilt-shaped sets; both return
plain floats:

``exact``
    One batched kernel, :func:`_exact_influences`. Given ``X_i``, the
    quilt nodes before and after it are independent, so the maximization
    separates into a backward half and a forward half per ordered value
    pair. The backward half at offset ``a`` compares columns of the log
    joint law of ``(X_{i-a}, X_i)``, built from the marginal at ``i - a``
    and ``P^a``, one value at a time; the forward half at offset ``b``
    compares rows of ``P^b`` (:func:`_log_ratio_max`, the one expression
    of the forward half). A two-sided influence is the largest sum of the
    halves over the pairs. The kernel has one call form: a block of nodes
    that share their live values, with every offset's inputs stacked, and
    it returns the one-sided influences and the two-sided cells. The quilt
    search passes every offset up to its cap at once, and has the pairs
    summed only in the two-sided cells whose bounds, from the halves'
    largest and least values over the pairs, leave them a chance to win;
    :func:`exact_max_influence` passes a one-node block with the one row of
    a single shape, built directly with
    :func:`~mquilt.chains.transition_power`, so a far-away offset costs no
    table up to it, and reads its one cell.

``approx``
    A spectral upper bound that only needs the stationary minimum and the
    eigen-gap of the multiplicative reversiblization. It is finite once
    the offsets clear a mixing threshold, and it never undershoots the
    exact value. The approximate quilt search scores with it; the
    composition rules never do, since they charge the exact value their
    theorems name (:func:`influence_over_set`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .chains import ChainModel, SpectralInfo, marginal, transition_power
from .errors import BadShape, EmptyThetaSet

__all__ = [
    "Variant",
    "QuiltShape",
    "nearby_size",
    "exact_max_influence",
    "approx_max_influence",
    "approx_offset_threshold",
    "influence_over_set",
]


class Variant(str, enum.Enum):
    """Which influence route a quilt search (and so a release) ran with."""

    EXACT = "exact"
    APPROX = "approx"


@dataclass(frozen=True, order=True)
class QuiltShape:
    """A candidate quilt around a protected node.

    ``left`` and ``right`` are offsets: the quilt contains ``X_{node-left}``
    and/or ``X_{node+right}``. Either may be ``None``; both ``None`` is the
    empty quilt, under which the whole trajectory counts as nearby.
    """

    node: int
    left: int | None = None
    right: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.left is None and self.right is None

    @property
    def is_two_sided(self) -> bool:
        return self.left is not None and self.right is not None

    def check(self, T: int) -> None:
        """Raise ``BadShape`` unless the shape fits a horizon of ``T``."""
        if not 1 <= self.node <= T:
            raise BadShape(f"node {self.node} outside horizon 1..{T}")
        if self.left is not None and not 1 <= self.left <= self.node - 1:
            raise BadShape(f"left offset {self.left} invalid for node {self.node}")
        if self.right is not None and not 1 <= self.right <= T - self.node:
            raise BadShape(
                f"right offset {self.right} invalid for node {self.node}, T={T}"
            )

    def to_dict(self) -> dict:
        return {"node": self.node, "left": self.left, "right": self.right}


def _opt_int(x) -> int | None:
    return None if x is None else int(x)


def nearby_size(shape: QuiltShape, T: int) -> int:
    """Number of trajectory nodes not separated from ``X_node`` by the quilt.

    Two-sided quilts leave the open span between the quilt nodes; one-sided
    quilts leave everything on the unshielded side plus the span; the empty
    quilt leaves the whole trajectory.
    """
    shape.check(T)
    i = shape.node
    if shape.is_two_sided:
        return shape.left + shape.right - 1
    if shape.left is not None:
        return T - (i - shape.left)
    if shape.right is not None:
        return (i + shape.right) - 1
    return T


_Cells = tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64], NDArray[np.float64]]
"""Two-sided cells ``(node, a, b, e_two)`` of a kernel block, one entry per
cell, with offsets from 1."""

_BLOCK_FLOATS = 2**15
"""Size bound of the temporaries of one chunk of :func:`_exact_influences`,
and of the winner tables of one node block of the quilt search. Small
chunks stay in cache; a larger bound only adds page faults on fresh
temporaries."""


def _log_ratio_max(log_rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """``out[..., u, v] = max_x (log_rows[..., u, x] - log_rows[..., v, x])``
    over a stack of ``(k, k)`` tables, skipping slots where both entries are
    ``-inf``.

    For the rows of ``log P^b`` this is the forward half of the exact
    influence at offset ``b`` for every ordered value pair; the kernel's
    callers take it for a stack of offsets at once.
    """
    with np.errstate(invalid="ignore"):
        return np.fmax.reduce(log_rows[..., :, None, :] - log_rows[..., None, :, :], axis=-1)


def _pair_indices(live: NDArray[np.bool_]) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Both orders of every pair of distinct live values."""
    idx = np.nonzero(live)[0]
    uu, vv = np.repeat(idx, idx.size), np.tile(idx, idx.size)
    keep = uu != vv
    return uu[keep], vv[keep]


def _exact_influences(
    log_m: NDArray[np.float64],
    log_past: NDArray[np.float64],
    log_powers: NDArray[np.float64],
    right_max: NDArray[np.float64],
    keep: Callable[..., tuple[NDArray[np.int64], ...]] | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], _Cells]:
    """Exact influences of ``X_i`` on every quilt over the given offsets,
    for a block of nodes.

    ``log_m`` is ``log P(X_i)``, of shape ``(n, k)`` for ``n`` nodes that
    share their live values. Row ``r`` of ``log_past`` (``(n, na, k)``) and
    of ``log_powers`` holds ``log P(X_{i-a})`` and ``log P^a`` for the
    ``r``-th backward offset ``a``; row ``s`` of ``right_max`` holds
    :func:`_log_ratio_max` of ``log P^b`` for the ``s``-th forward offset
    ``b``. Returns the influences of the left-only ``(n, na)`` and
    right-only ``(n, nb)`` quilts, and two-sided cells ``(node, a, b,
    e_two)``, offsets from 1, in node, then ``(a, b)`` order.

    Per live ordered value pair, the backward half at offset ``a`` is a
    log-ratio maximum of the joint law of ``(X_{i-a}, X_i)`` plus the
    marginal ratio that Bayes inversion contributes, and the forward half at
    offset ``b`` is read from ``right_max``. A one-sided influence is the
    largest half over the pairs, a two-sided one the largest sum of the
    halves. Both orders of every pair are maximized over, so no influence
    comes out negative in exact arithmetic. With fewer than two live
    values there is no secret pair and every influence is 0. Each node's
    influences are the same floating-point expressions whatever block it is
    scored in.

    Without ``keep`` the cells are every two-sided quilt, so ``e_two``
    reshaped to ``(n, na, nb)`` is the dense table. With ``keep``, the sums
    are taken only in the cells it picks. For each chunk, ``keep(nodes,
    offsets, e_left, m_left, e_right, m_right)`` gets the chunk's slices of
    the block's nodes and backward offsets, the largest and least backward
    half of each of their rows over the pairs, ``(nodes, offsets)``, and
    the forward half's, ``(nb,)``; it returns the chunk's cells to sum as
    index arrays ``(node, a, b)``, from 0, in node, then ``(a, b)`` order.

    The backward half compares the columns of each offset's joint law one
    value ``u`` at a time, over contiguous ``(x, u, node * offset)``
    columns, and the two-sided sums are taken over gathered cells; both in
    chunks whose temporaries stay within ``_BLOCK_FLOATS`` floats, or of
    one node and offset where those alone are more. So a block of any size
    may be passed, and a block that fits is one chunk; a chunk of several
    nodes holds all their offsets, so the cells stay in order. Value pairs
    are the first axis of both halves, so each maximum over pairs reduces
    whole slabs.
    """
    n, na, k = log_past.shape
    nb = right_max.shape[0]
    uu, vv = _pair_indices(log_m[0] > -np.inf)
    # With no secret pair, one pair of zero halves gives every influence 0.
    c_right = right_max.transpose(1, 2, 0)[uu, vv] if uu.size else np.zeros((1, nb))
    e_right, m_right = c_right.max(axis=0), c_right.min(axis=0)
    e_left = np.empty((n, na))
    none = np.empty(0, np.intp)
    cells: list[tuple[NDArray, ...]] = [(none, none, none, np.empty(0))]
    # Floats of temporaries per node and backward offset: the (x, v)
    # differences of one value u, or the cells of the offset's row.
    row = max(k * k, nb, 1)
    rows = max(1, min(na, _BLOCK_FLOATS // row))
    nodes = max(1, _BLOCK_FLOATS // (rows * row))
    with np.errstate(invalid="ignore"):
        for n0 in range(0, n, nodes):
            node = slice(n0, n0 + nodes)
            for a0 in range(0, na, rows):
                off = slice(a0, a0 + rows)
                c_left = _backward_half(log_m[node], log_past[node, off], log_powers[off], uu, vv)
                e_l = c_left.max(axis=0, out=e_left[node, off])
                if keep is None:
                    j, a, b = np.nonzero(np.ones(e_l.shape + (nb,), bool))
                else:
                    j, a, b = keep(node, off, e_l, c_left.min(axis=0), e_right, m_right)
                col = j * e_l.shape[1] + a  # the cell's (node, a) column
                cells.append((j + n0, a + a0 + 1, b + 1, _two_sided(
                    c_left.reshape(len(c_left), -1), c_right, col, b)))
    j, a, b, e = (np.concatenate(x) for x in zip(*cells))
    return e_left, np.broadcast_to(e_right, (n, nb)), (j, a, b, e)


def _backward_half(
    log_m: NDArray[np.float64],
    log_past: NDArray[np.float64],
    log_powers: NDArray[np.float64],
    uu: NDArray[np.int64],
    vv: NDArray[np.int64],
) -> NDArray[np.float64]:
    """The backward halves ``(pair, node, a)`` of a chunk of nodes and
    backward offsets: per pair ``(u, v)``, the largest ``log P(X_{i-a} = x,
    X_i = u) - log P(X_{i-a} = x, X_i = v)`` over ``x``, plus
    ``log P(X_i = v) - log P(X_i = u)``. One pair of zeros without pairs."""
    n, na, k = log_past.shape
    if not uu.size:
        return np.zeros((1, n, na))
    # log of joint(x, u) = m_past[x] * P^a[x, u], laid out (x, u, node, a).
    log_joint = np.empty((k, k, n, na))
    np.add(log_past.transpose(2, 0, 1)[:, None], log_powers.transpose(1, 2, 0)[:, :, None],
           out=log_joint)
    log_joint = log_joint.reshape(k, k, -1)
    gap, diff = np.empty_like(log_joint), np.empty_like(log_joint)
    for u in dict.fromkeys(uu.tolist()):  # each live value once
        np.subtract(log_joint[:, u, None], log_joint, out=diff)
        np.fmax.reduce(diff, axis=0, out=gap[u])
    return gap[uu, vv].reshape(-1, n, na) + (log_m[:, vv] - log_m[:, uu]).T[:, :, None]


def _two_sided(
    c_left: NDArray[np.float64],
    c_right: NDArray[np.float64],
    col: NDArray[np.int64],
    b: NDArray[np.int64],
) -> NDArray[np.float64]:
    """Two-sided influences of the cells ``(col, b)``: the largest sum of
    the halves ``c_left[:, col] + c_right[:, b]`` over the pairs, taken in
    batches of cells whose sums stay within ``_BLOCK_FLOATS`` floats."""
    e = np.empty(col.size)
    step = max(1, _BLOCK_FLOATS // len(c_left))
    for lo in range(0, col.size, step):
        cell = slice(lo, lo + step)
        np.max(c_left[:, col[cell]] + c_right[:, b[cell]], axis=0, out=e[cell])
    return e


def exact_max_influence(model: ChainModel, shape: QuiltShape) -> float:
    """Exact max-influence of ``X_node`` on the quilt nodes.

    Conditioned on ``X_node``, the node to its left and the node to its
    right are independent, so the max over joint realizations splits into
    a backward term plus a forward term for each ordered value pair. Value
    pairs whose marginal probability at the node is zero are skipped; if
    fewer than two values are reachable there are no secret pairs to
    separate and the influence is 0. The result is ``inf`` when some
    realization is possible under one value and impossible under another.

    This is a one-node block of :func:`_exact_influences` at one offset
    pair; the quilt search runs the kernel over every offset.
    """
    if shape.is_empty:
        return 0.0
    i, a, b = shape.node, shape.left, shape.right
    if a is not None and not 1 <= a <= i - 1:
        raise BadShape(f"left offset {a} invalid for node {i}")
    if b is not None and b < 1:
        raise BadShape(f"right offset {b} must be >= 1")
    # A one-node block with one row per side that the quilt has; a missing
    # side gets zero rows.
    k, P = model.k, model.transition
    log_past, log_powers = np.empty((1, 0, k)), np.empty((0, k, k))
    right_max = np.empty((0, k, k))
    with np.errstate(divide="ignore"):
        log_m = np.log(marginal(model, i))[None]
        if a is not None:
            log_past = np.log(marginal(model, i - a))[None, None]
            log_powers = np.log(transition_power(P, a))[None]
        if b is not None:
            right_max = _log_ratio_max(np.log(transition_power(P, b))[None])
    e_left, e_right, (_, _, _, e_two) = _exact_influences(log_m, log_past, log_powers, right_max)
    if shape.is_two_sided:
        return float(e_two[0])
    return float(e_left[0, 0] if a is not None else e_right[0, 0])


def approx_offset_threshold(info: SpectralInfo) -> float:
    """Offset above which the spectral bound is guaranteed finite."""
    return 2.0 * math.log(1.0 / info.pi_min) / info.gap


def _spectral_term(info: SpectralInfo, offset: int) -> float:
    """``log((pi_min + d) / (pi_min - d))`` with ``d = exp(-gap * offset / 2)``,
    or ``inf`` while ``pi_min <= d``; it never grows with the offset."""
    pi_min = info.pi_min
    decay = math.exp(-info.gap * offset / 2.0)
    if pi_min - decay <= 0.0:
        return math.inf
    return math.log((pi_min + decay) / (pi_min - decay))


def approx_max_influence(info: SpectralInfo, shape: QuiltShape) -> float:
    """Spectral upper bound on max-influence for a quilt shape.

    The two-sided bound charges its backward offset twice and its forward
    offset once; one-sided shapes keep just the matching term. Offsets
    below the mixing threshold (equivalently, ``pi_min <= exp(-g a / 2)``)
    give ``inf``.
    """
    if shape.is_empty:
        return 0.0
    value = 0.0
    if shape.left is not None:
        if shape.left < 1:
            raise BadShape(f"left offset {shape.left} must be >= 1")
        value += 2.0 * _spectral_term(info, shape.left)
    if shape.right is not None:
        if shape.right < 1:
            raise BadShape(f"right offset {shape.right} must be >= 1")
        value += _spectral_term(info, shape.right)
    return value


def influence_over_set(models: Iterable[ChainModel], shape: QuiltShape) -> float:
    """Largest exact influence over a collection of candidate chain models.

    This is the quantity a quilt must control when the adversary's belief
    is only known to lie in the collection, and the boundary charge of the
    general parallel rule. It is ``inf`` when some model makes a
    realization possible under one value and impossible under another.
    """
    models = list(models)
    if not models:
        raise EmptyThetaSet("need at least one chain model")
    return max(exact_max_influence(m, shape) for m in models)
