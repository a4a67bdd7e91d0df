"""Noise calibration by quilt search, and the Laplace release itself.

For every candidate model and every node in the release window, the search
scans candidate quilts, bounds the node's influence on each, and converts
the bound into a score: nearby-node count divided by leftover budget. The
worst best-score across nodes and models becomes the Laplace scale. The
empty quilt (whole window nearby, zero influence) is always a candidate,
so the scale never exceeds ``window length / epsilon``.

The search only scans offsets that can still win, and returns exactly what
the scan of every offset would. Influence is never negative, so a quilt
with ``n`` nearby nodes scores at least ``n / epsilon``. Each node
certifies its own winner: capped at offset ``c``, its search leaves out
only quilts with at least ``c + 1`` nearby nodes, so once its capped
minimum ``s`` is below ``(c + 1) / epsilon`` the capped winner is the full
search's, ties included, and by monotone rounding bit for bit. The step at
cap ``L``, every node's full reach, certifies every node it scores.

The search goes in steps rather than node by node, and every node still
open shares one cap per step: ``_FIRST_CAP``, doubled at each step until
four times the cap reaches ``L``, then ``L``, every node's full reach. No
cap is visited twice, and no node takes more than
``ceil(log2(L / _FIRST_CAP)) + 1`` steps. The test does not depend on how
the caps were chosen, so neither does the result. A step scores its nodes
in blocks whose winner tables, ``max(1, na) * max(1, nb)`` floats per
node, stay within ``_BLOCK_FLOATS`` floats: one exact kernel call per
block, which takes its own temporaries in chunks, and one scoring pass,
:func:`_best_quilts`, that lays out each node's two-sided, right-only,
left-only and empty candidates in the tie order and takes the first least
score, then nearby count. A node's scores are the same floating-point
expressions in any block, so the result is the node-by-node search's, bit
for bit. Boundary nodes are padded to the largest offsets of their block,
and the padded cells never win. Nodes whose kernel calls share one list of
value pairs share one block; they are grouped by the states their
marginal law gives mass to.

The exact kernel sums its two halves over the value pairs only in the
two-sided cells that can still win. Per cell it bounds the influence by
the halves' largest and least values over the pairs (see
:func:`~mquilt.influence._exact_influences`), and :func:`_cut` scores the
bounds with :func:`_scores`, the search's one score expression, which
scores the winners too: a node's best cell scores at most the best
upper-bound score of its cells, so a cell whose lower bound scores more
cannot win, ties included. The node's exact one-sided and empty scores
lower that bound further, and so does ``(c + 1) / epsilon`` unless the
step is the node's last: a winner at or past it is not kept. Scores grow
with the influence in floating point too, so the surviving cells hold the
node's winner, and their sums are the kernel's own expression, bit for
bit.

Nodes with identical inputs at one cap share them. Node ``i`` feeds the
exact kernel only its offset counts ``na = min(i - 1, c)`` and
``nb = min(L - i, c)`` and the log marginals of nodes ``i - na .. i``. The
marginal recursion ends at its first repeated row, in a bitwise cycle of
any period: random chains repeat a row within a few dozen steps, and 18
of 40 random 10-state chains cycle with a period of 3 or more.
:func:`_marginals` returns the distinct rows it stepped through and each
node's class, the least row equal to its law bit for bit, which from the
repeat on follows the cycle; the search reads each node's log marginals
through its class and keeps no table of ``L`` rows. An interior node
(``na = nb = c``) is keyed by the class of its window's first row: a
window that starts in the cycle lies wholly in it, and one that starts
before holds a row no other window holds. So past the cycle's start a
step keys at most ``period`` inputs, in array passes. Keys follow marginal
bits, not log bits: equal marginal rows have equal logs, but distinct ones
may too, and the logs need not cycle where the marginals do, so their
classes would not be sound; nodes whose logs coincide that way are scored
apart. The best two-sided quilt depends only on those inputs. The
one-sided and empty candidates do not: their nearby counts ``L - i + a``
and ``i + b - 1`` depend on ``i``. At an interior node each of them has
at least ``c + 1`` nearby nodes, so it scores at least
``(c + 1) / epsilon``, in floating point too, because
``epsilon - e <= epsilon`` and rounding is monotone. A
winner below ``(c + 1) / epsilon`` at the first interior node with some
input is therefore two-sided, and wins strictly at every interior node
that shares the input; they take it without being scored. The search
shares a winner only if it is two-sided, so this holds in the code
whatever the rounding. Otherwise no quilt within the cap can win there, or
the winner is not shared, and the nodes take the next step. So
only boundary nodes, whose inputs are their own, and the first interior
node with each input are scored. Per distinct input the search keeps one
winner, never the exact two-sided table, whose size would be quadratic in
``c``.

The approx search runs the same steps. Its influences depend on the
offsets alone (``2 t(a) + t(b)`` for the quilt at offsets ``a`` and
``b``), so each step scores one table of two-sided quilts, out to the
step's cap, and ranks them in the tie order (score, nearby count, ``a``,
``b``). After prefix minima of the ranks along both axes, the entry at
``(na - 1, nb - 1)`` ranks node ``i``'s two-sided winner, and one lookup
reads it for every node of a block, to be scored with the node's other
candidates. Each entry is the same floating-point
expression as in a table of the node's own offsets, so this is that
table's lexicographic minimum, bit for bit.
Spectral terms ``t(x) = log((pi_min + d) / (pi_min - d))`` are never
negative, so the interior shortcut holds, and all interior nodes at one
cap share one input. Each term is evaluated once per search, and each
step's table extends them. The terms never grow with the offset, so a
quilt within cap ``c`` is charged at least ``t(c)``. When no term within
``_FIRST_CAP`` is below the budget, every capped quilt scores ``inf`` and
the first step can certify no node, so the approx search skips it and
starts at the full reach, if that reach's ``(L - 1) x (L - 1)`` table is
within ``_TABLE_LIMIT``; otherwise it doubles from ``_FIRST_CAP`` as
usual. The exact variant always takes the first step, since its
influences are known only after the kernel runs.
Neither variant builds a two-sided table of more than
``_TABLE_LIMIT`` entries; a search that would is refused with
:class:`~mquilt.errors.TooLarge`.

Scores depend only on the framework, the budget, and the variant, never on
the observed data, so records can be replayed and audited. For the same
reason :func:`release`, the one release function, searches once for a list
of queries over one window, the buckets of a histogram say, and draws each
query's noise in turn from one generator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .chains import ChainModel, SpectralInfo, StateSequence, marginal, spectral
from .errors import (
    BadState,
    EmptyInput,
    EmptyThetaSet,
    InvalidEpsilon,
    LengthMismatch,
    MixedFrameworks,
    MquiltError,
    TooLarge,
)
from .influence import (
    QuiltShape,
    Variant,
    _BLOCK_FLOATS,
    _exact_influences,
    _Cells,
    _log_ratio_max,
    _opt_int,
    _spectral_term,
)

__all__ = [
    "Window",
    "Framework",
    "LipschitzQuery",
    "count_state_query",
    "ActiveQuilt",
    "QuiltRuns",
    "ReleaseRecord",
    "quilt_scores",
    "release",
    "unit_laplace",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class Window:
    """A 1-based inclusive stretch of trajectory nodes."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise MquiltError(f"bad window [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        return cls(int(d["start"]), int(d["end"]))


@dataclass(frozen=True)
class Framework:
    """What is being protected: horizon, release window, candidate models.

    The secrets are the values of every node inside ``window``; the
    adversary's belief is one of ``models``, all over the same state space.
    Each model is valid once built, so the framework checks only that they
    share their labels, and compares equal to another with equal fields.
    """

    horizon: int
    window: Window
    models: tuple[ChainModel, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise MquiltError(f"horizon must be >= 1, got {self.horizon}")
        if not self.models:
            raise EmptyThetaSet("a framework needs at least one chain model")
        models = tuple(self.models)
        first = models[0]
        for m in models[1:]:
            if m.states != first.states:
                raise MixedFrameworks("models disagree on the state space")
        if self.window.end > self.horizon:
            raise MquiltError(
                f"window [{self.window.start}, {self.window.end}] exceeds "
                f"horizon {self.horizon}"
            )
        object.__setattr__(self, "models", models)

    @property
    def k(self) -> int:
        return self.models[0].k

    @property
    def states(self) -> tuple[str, ...]:
        return self.models[0].states

    def window_model(self, model: ChainModel) -> ChainModel:
        """The window's own chain: same transitions, initial law at start,
        normalized as every model is when built. The quilt search builds
        none: it steps from the unnormalized law (see :func:`_marginals`)."""
        return ChainModel(model.states, marginal(model, self.window.start), model.transition)


@dataclass(frozen=True)
class LipschitzQuery:
    """A numeric query with a known sensitivity to one-node changes.

    ``evaluate`` is batched: it maps an integer array of state indices of
    shape ``(..., L)``, one window of ``L`` nodes per trailing row, to the
    values of shape ``(...)``, so the oracle evaluates every enumerated
    trajectory in one call and a release evaluates its one window.
    Changing a single node moves a value by at most ``lipschitz_constant``.
    """

    identifier: str
    evaluate: Callable[[NDArray[np.int64]], NDArray[np.float64] | float]
    lipschitz_constant: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lipschitz_constant > 0 and math.isfinite(self.lipschitz_constant)):
            raise MquiltError(
                f"Lipschitz constant must be positive and finite, got "
                f"{self.lipschitz_constant}"
            )


def count_state_query(state: int, k: int, label: str | None = None) -> LipschitzQuery:
    """How many window nodes sit in one state. Sensitivity 1."""
    if not 0 <= state < k:
        raise BadState(f"state index {state} outside 0..{k - 1}")
    name = label if label is not None else str(state)

    def evaluate(values: NDArray[np.int64]) -> NDArray[np.float64] | float:
        return np.count_nonzero(np.asarray(values) == state, axis=-1).astype(float)

    return LipschitzQuery(f"count:{name}", evaluate, 1.0)


@dataclass(frozen=True)
class ActiveQuilt:
    """The quilt that won the score minimization at one node."""

    node: int
    shape: QuiltShape
    score: float


_Run = tuple[int, int, int | None, int | None, float]


@dataclass(frozen=True)
class QuiltRuns:
    """One model's winning quilts as runs ``(first_node, last_node, left,
    right, score)`` of consecutive nodes with one shape and score. ``runs``
    may be any iterable; adjacent runs that share both are merged, so equal
    tables have equal runs, and runs that skip or repeat a node are refused.
    Iterating yields each node's :class:`ActiveQuilt` in node order and
    ``len`` is the node count, yet nothing per node is kept."""

    runs: tuple[_Run, ...]

    def __post_init__(self) -> None:
        merged: list[list] = []
        for first, last, left, right, score in self.runs:
            first, last = int(first), int(last)
            key = [_opt_int(left), _opt_int(right), float(score)]
            prev = merged[-1][1] if merged else first - 1
            if not prev + 1 == first <= last:
                raise ValueError(f"quilt run from node {first} to node {last} after node {prev}")
            if merged and merged[-1][2:] == key:
                merged[-1][1] = last
            else:
                merged.append([first, last, *key])
        object.__setattr__(self, "runs", tuple(map(tuple, merged)))

    @classmethod
    def _canonical(cls, runs: tuple[_Run, ...]) -> "QuiltRuns":
        """Runs that are canonical already, with Python numbers, as the
        search emits them: a node's run starts where its winner differs
        from the node before it. They are kept as they are."""
        table = object.__new__(cls)
        object.__setattr__(table, "runs", runs)
        return table

    def __len__(self) -> int:
        return self.runs[-1][1] - self.runs[0][0] + 1 if self.runs else 0

    def __iter__(self) -> Iterator[ActiveQuilt]:
        for first, last, left, right, score in self.runs:
            for i in range(first, last + 1):
                yield ActiveQuilt(i, QuiltShape(i, left, right), score)


@dataclass(frozen=True)
class ReleaseRecord:
    """Everything needed to audit one noisy release (the data excluded).

    ``active_quilts`` maps a model's index in the framework to the winning
    quilts of the searched nodes, with global node indices, held as runs of
    consecutive nodes with one shape and score (:class:`QuiltRuns`), never
    one object per node. Budget, scale and sensitivity must be positive
    and finite, the output finite, and the scope ``window`` or ``chain``.
    ``output`` already includes the noise; neither the raw query value nor
    the noise seed is kept, since either one reveals the exact count.
    Documents written with a ``seed`` key still read; the key is ignored.
    """

    variant: Variant
    epsilon: float
    sigma_max: float
    output: float
    query_id: str
    lipschitz_constant: float
    window: Window
    active_quilts: Mapping[int, QuiltRuns]
    scope: str = "window"

    def __post_init__(self) -> None:
        for name in ("epsilon", "sigma_max", "lipschitz_constant"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise MquiltError(f"record {name} must be positive and finite, got {value}")
        if not math.isfinite(self.output):
            raise MquiltError(f"record output must be finite, got {self.output}")
        if self.scope not in ("window", "chain"):
            raise MquiltError(f"record scope must be 'window' or 'chain', got {self.scope!r}")

    def to_dict(self, *, quilts: bool = True) -> dict:
        """The record as a JSON document; without ``quilts`` it leaves out
        the quilt table, for a ledger line that shares another's."""
        d = {
            "variant": self.variant.value,
            "epsilon": self.epsilon,
            "sigma_max": self.sigma_max,
            "output": self.output,
            "query": self.query_id,
            "lipschitz_constant": self.lipschitz_constant,
            "window": self.window.to_dict(),
            "scope": self.scope,
        }
        if quilts:
            d["active_quilts"] = {
                str(idx): [list(r) for r in q.runs] for idx, q in self.active_quilts.items()
            }
        return d

    @classmethod
    def from_dict(
        cls,
        d: dict,
        active_quilts: Mapping[int, QuiltRuns] | None = None,
    ) -> "ReleaseRecord":
        """Read a record document. ``active_quilts``, when given, is the
        table of a document that leaves its own out; it is kept as is, so
        records can share one table."""
        if active_quilts is None:
            active_quilts = {
                int(idx): QuiltRuns(
                    (q["node"], q["node"], q.get("left"), q.get("right"), q["score"])
                    if isinstance(q, dict) else q  # one object per node, before runs
                    for q in items
                )
                for idx, items in d["active_quilts"].items()
            }
        return cls(
            variant=Variant(d["variant"]),
            epsilon=float(d["epsilon"]),
            sigma_max=float(d["sigma_max"]),
            output=float(d["output"]),
            query_id=str(d["query"]),
            lipschitz_constant=float(d["lipschitz_constant"]),
            window=Window.from_dict(d["window"]),
            active_quilts=active_quilts,
            scope=str(d.get("scope", "window")),
        )


def unit_laplace(rng: np.random.Generator) -> float:
    """One Laplace(0, 1) draw by inverting the CDF at a uniform variate.

    The uniform is built from 53 random bits and excludes both endpoints,
    so the result is always finite and reproducible from the seed.
    """
    u = float(rng.integers(1, 2**53)) / 2**53
    c = u - 0.5
    return -math.copysign(1.0, c) * math.log1p(-2.0 * abs(c)) if c != 0 else 0.0


# --------------------------------------------------------------- quilt search

_FIRST_CAP = 8
"""Offset cap of the search's first step; each later step doubles it. In
windows of at most twice the cap the search starts at the full reach,
which costs about as much as a capped step. So does an approx search in
which no spectral term up to this offset is below the budget, where the
full reach's two-sided table is within ``_TABLE_LIMIT``: its capped step
could certify no node."""

_TABLE_LIMIT = 2**24
"""The most entries a two-sided influence table may hold: ranking one takes
about 40 bytes per entry, so this is about 0.7 GB, and full searches of up
to 4097 nodes still run."""

_Winners = tuple[NDArray[np.float64], NDArray[np.int64], NDArray[np.int64]]
"""Scores and left and right offsets of each node's winning quilt; an
absent side has offset 0."""


def _scores(
    e: NDArray[np.float64], nearby: NDArray[np.float64], epsilon: float
) -> NDArray[np.float64]:
    """The search's one score expression, ``nearby / (epsilon - e)``, or
    ``inf`` where ``e`` is not below ``epsilon`` or is ``nan``, for
    positive nearby counts; ``e`` and ``nearby`` broadcast. It grows with ``e`` and with ``nearby``, in
    floating point too, which :func:`_cut`'s pruning relies on."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return nearby / np.fmax(epsilon - e, 0.0)


def _first_min(s: NDArray[np.float64], nearby: NDArray) -> NDArray[np.int64]:
    """Index along the last axis of the least score, of the fewest nearby
    nodes among equal scores, and of the first position among equal both."""
    least = s.min(axis=-1, keepdims=True)
    return np.argmin(np.where(s == least, nearby, np.inf), axis=-1)


def _two_sided_winners(
    epsilon: float, e_two: NDArray[np.float64]
) -> Callable[[NDArray[np.int64], NDArray[np.int64]], _Cells]:
    """A lookup of the best two-sided quilts with offsets ``a <= na`` and
    ``b <= nb``, one per entry of the arrays ``na`` and ``nb``, given
    ``e_two[a-1, b-1]``, the influence of the quilt at offsets ``a`` and
    ``b``. It returns the cells ``(j, a, b, e)`` of the entries ``j`` that
    have a two-sided quilt, in order: the same kind of candidates as the
    exact kernel's, for :func:`_best_quilts` to score. It does not depend
    on the node's position in the window (see the module docstring)."""
    ma, mb = e_two.shape
    aa = np.arange(1, ma + 1)
    bb = np.arange(1, mb + 1)
    nearby2 = (aa[:, None] + bb[None, :] - 1).astype(float)
    s2 = _scores(e_two, nearby2, epsilon)
    # The sort is stable and flat indices run in (a, b) order, so ties in
    # score and nearby count stay in the tie order.
    order = np.lexsort((nearby2.ravel(), s2.ravel()))
    del nearby2, s2
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank = rank.reshape(ma, mb)
    np.minimum.accumulate(rank, axis=0, out=rank)
    np.minimum.accumulate(rank, axis=1, out=rank)

    def winner(na: NDArray[np.int64], nb: NDArray[np.int64]) -> _Cells:
        j = np.flatnonzero((na > 0) & (nb > 0))
        ai, bi = np.divmod(order[rank[na[j] - 1, nb[j] - 1]], mb)
        return j, ai + 1, bi + 1, e_two[ai, bi]

    return winner


def _one_sided_nearby(
    i: NDArray[np.int64], na: NDArray[np.int64], nb: NDArray[np.int64], L: int, ma: int, mb: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nearby counts ``L - i + a`` and ``i + b - 1`` of the left-only and
    right-only quilts of local nodes ``i`` at offsets up to ``ma`` and
    ``mb``; ``inf`` past a node's own offsets ``na`` and ``nb``."""
    aa, bb = np.arange(1.0, ma + 1), np.arange(1.0, mb + 1)
    return (np.where(aa <= na[:, None], (L - i)[:, None] + aa, np.inf),
            np.where(bb <= nb[:, None], (i - 1)[:, None] + bb, np.inf))


def _cut(
    nearby: tuple[NDArray[np.float64], NDArray[np.float64]],
    na: NDArray[np.int64],
    nb: NDArray[np.int64],
    epsilon: float,
    bound: float | NDArray[np.float64],
) -> Callable[..., tuple[NDArray[np.int64], ...]]:
    """The ``keep`` of an exact kernel block of nodes with offsets ``na``,
    ``nb`` and one-sided ``nearby`` counts (see :func:`_one_sided_nearby`
    and :func:`~mquilt.influence._exact_influences`): the owned two-sided
    cells that can still win.

    Write ``eL``, ``mL`` for the largest and least backward half of a cell's
    row over the value pairs, and ``eR``, ``mR`` for its forward half's.
    Each sum of a pair's halves lies between ``eL + mR`` (the pair of
    ``eL``) and ``eL + eR``, and so between ``mL + eR`` and ``eL + eR``,
    and by monotone rounding so do their floating-point sums: ``lo =
    max(eL + mR, mL + eR) <= e_two <= eL + eR = hi``. The halves may round
    below zero, so ``max(eL, eR)`` is no lower bound. Scores grow with the
    influence and the nearby count, in floating point too, so a cell scores
    between the scores of its bounds.

    Node ``j`` needs its winner only where it scores at most ``bound``, one
    number for the block or one per node.
    That bound drops to the node's exact one-sided scores where they are
    less, and then to the least score of its cells' upper bounds, which its
    best cell attains or beats. A cell whose lower bound scores more cannot
    win, ties included, and is left out, and so is every cell the node does
    not own. A backward half of ``-inf`` can make a sum ``nan``, which
    scores ``inf``, so such a row bounds no score from above.
    """
    near_left, near_right = nearby
    (n, ma), mb = near_left.shape, near_right.shape[1]
    aa, bb = np.arange(1, ma + 1), np.arange(1, mb + 1)
    near_two = np.broadcast_to(aa[:, None] + bb - 1.0, (n, ma, mb))
    if (na < ma).any() or (nb < mb).any():
        own = (aa[:, None] <= na[:, None, None]) & (bb <= nb[:, None, None])
        near_two = np.where(own, near_two, np.inf)
    bound = np.full(n, bound)

    def keep(nodes: slice, offs: slice, e_left, m_left, e_right, m_right):
        near = near_two[nodes, offs]
        with np.errstate(invalid="ignore"):  # inf - inf in the bounds' sums
            hi = (e_left + (m_left - m_left))[..., None] + e_right
            u = bound[nodes] = np.minimum.reduce([
                bound[nodes],
                _scores(e_left, near_left[nodes, offs], epsilon).min(axis=1),
                _scores(e_right, near_right[nodes], epsilon).min(axis=1, initial=np.inf),
                _scores(hi, near, epsilon).min(axis=(1, 2), initial=np.inf),
            ])
            lo = np.fmax(e_left[..., None] + m_right, m_left[..., None] + e_right)
            return np.nonzero(_scores(lo, near, epsilon) <= u[:, None, None])

    return keep


def _best_quilts(
    nearby: tuple[NDArray[np.float64], NDArray[np.float64]],
    L: int,
    epsilon: float,
    e_left: NDArray[np.float64],
    e_right: NDArray[np.float64],
    two: _Cells,
) -> _Winners:
    """The winning quilts at a block of nodes, from one scoring of every
    candidate.

    Row ``j`` of ``e_left`` and ``e_right`` holds the influences of node
    ``j``'s one-sided quilts at offsets 1, 2, ..., and row ``j`` of
    ``nearby``'s tables their nearby counts (:func:`_one_sided_nearby`),
    ``inf`` past the node's own offsets. ``two`` holds two-sided candidates
    ``(j, a, b, e)``, in node, then ``(a, b)`` order, among them every
    two-sided quilt that can win at the node. Candidates tie in the order
    score, nearby count, kind (two-sided, one-sided, empty), ``a``, ``b``:
    within one kind, the right-only quilt (``a = 0``) comes first. So each
    node's row lays its candidates out in that order, the cells it does not
    own scoring ``inf``, and its first least score, then nearby count, wins.
    """
    n, ma = e_left.shape
    mb = e_right.shape[1]
    j, a2, b2, e2 = two
    count = np.bincount(j, minlength=n)
    w = int(count.max(initial=0))
    width = w + mb + ma + 1
    e, near = np.full((n, width), np.inf), np.full((n, width), np.inf)
    a, b = np.zeros((n, width), np.int64), np.zeros((n, width), np.int64)
    at = np.arange(j.size) - (np.cumsum(count) - count)[j]
    e[j, at], near[j, at], a[j, at], b[j, at] = e2, a2 + b2 - 1, a2, b2
    right, left = slice(w, w + mb), slice(w + mb, width - 1)
    e[:, right], b[:, right] = e_right, np.arange(1, mb + 1)
    e[:, left], a[:, left] = e_left, np.arange(1, ma + 1)
    near[:, left], near[:, right] = nearby
    e[:, -1], near[:, -1] = 0.0, L
    s = _scores(e, near, epsilon)
    pick = _first_min(s, near)
    rows = np.arange(n)
    return s[rows, pick], a[rows, pick], b[rows, pick]


def _marginals(
    model: ChainModel, L: int, start: int = 1
) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """Marginal laws of the ``L`` nodes from node ``start`` on as ``(rows,
    classes)``: the distinct rows the recursion steps through, and each
    node's class, the index of the least row equal to its law bit for bit,
    so the law of the search's node ``i`` is ``rows[classes[i - 1]]``.

    The recursion starts at ``marginal(model, start)`` as it is, which at
    ``start = 1`` is ``model.initial`` bit for bit. Building a model of the
    window would normalize that law again and could move its last bits,
    and every score after them.

    The recursion is a function of the previous row's bits, so once row
    ``t`` repeats an earlier row ``s`` bit for bit, every later row repeats
    rows ``s .. t - 1``: ``rows`` stops at ``t``, and node ``i > t`` is in
    class ``s + (i - 1 - s) mod (t - s)``. When nothing repeats, ``rows``
    holds all ``L`` rows. The period may be any length: of
    ``random_model(k, default_rng(s))`` for ``s < 40``, 6, 12, 18 and 18
    chains at k = 3, 5, 10 and 30 cycle with a period of 3 or more (up to
    4, 7, 12 and 25 rows), and every one of them repeats a row by step 51.
    """
    row = marginal(model, start)
    seen = {row.tobytes(): 0}
    classes = np.arange(L)
    for t in range(1, L):
        nxt = np.maximum(row @ model.transition, 0.0)
        row = nxt / nxt.sum()
        s = seen.setdefault(row.tobytes(), t)
        if s < t:
            cycle = classes[s:]  # in place: no temporary of L entries
            cycle -= s
            cycle %= t - s
            cycle += s
            break
    return np.frombuffer(b"".join(seen), np.float64).reshape(-1, model.k), classes


def _log_powers(
    P: NDArray[np.float64], cap: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Logs of ``P^0 .. P^cap`` and the forward log-ratio maxima.

    ``right_max[j]`` is :func:`~mquilt.influence._log_ratio_max` of
    ``log P^j``, taken over chunks of offsets whose differences stay within
    ``_BLOCK_FLOATS`` floats; ``right_max[0]`` is zero.
    """
    k = P.shape[0]
    powers = np.empty((cap + 1, k, k))
    right_max = np.zeros((cap + 1, k, k))
    power = powers[0] = np.eye(k)
    for j in range(1, cap + 1):
        power = powers[j] = np.clip(power @ P, 0.0, 1.0)
    chunk = max(1, _BLOCK_FLOATS // k**3)
    with np.errstate(divide="ignore"):
        log_powers = np.log(powers)
    for lo in range(1, cap + 1, chunk):
        right_max[lo : lo + chunk] = _log_ratio_max(log_powers[lo : lo + chunk])
    return log_powers, right_max


def _check_table(i: int, L: int, variant: str, rows: int, cols: int) -> None:
    if rows * cols > _TABLE_LIMIT:
        raise TooLarge(
            f"the {variant} search of node {i} of {L} needs a {rows} x {cols} two-sided "
            f"influence table ({rows * cols} entries); the limit is {_TABLE_LIMIT} entries"
        )


def _blocks(
    na: list[int], nb: list[int], size: Callable[[int, int], int]
) -> Iterator[NDArray[np.int64]]:
    """Consecutive runs of nodes, as index arrays, each as long as it can be
    while ``count * size(max na, max nb)`` stays within ``_BLOCK_FLOATS``;
    a node too large for that is a block of its own."""
    lo = 0
    while lo < len(na):
        ma, mb, hi = na[lo], nb[lo], lo + 1
        while hi < len(na):
            ma2, mb2 = max(ma, na[hi]), max(mb, nb[hi])
            if (hi - lo + 1) * size(ma2, mb2) > _BLOCK_FLOATS:
                break
            ma, mb, hi = ma2, mb2, hi + 1
        yield np.arange(lo, hi)
        lo = hi


def _search_model(
    model: ChainModel,
    marginals: tuple[NDArray[np.float64], NDArray[np.intp]] | None,
    info: SpectralInfo | None,
    L: int,
    epsilon: float,
) -> tuple[list[list], dict[int, int], int, int, int]:
    """Best quilt of every local node over all offsets, as runs
    ``[first, last, left, right, score]`` of consecutive local nodes with
    one shape and score.

    Influences are exact when ``marginals`` is given, the distinct
    marginal rows of the searched nodes and each node's class as
    :func:`_marginals` returns them, and spectral bounds from ``info``
    otherwise;
    the variants differ only in where a block's one-sided influences and
    two-sided candidates come from: the exact kernel's cells that can still
    win, or each node's two-sided winner from the approx table. Every node
    still open shares one offset cap per step, which doubles until the
    node's winner is certified (see the module docstring); cap ``L`` stands
    for every node's full reach.
    Also returns the node steps taken at each cap, the number of
    exact-kernel blocks, and the numbers of node steps scored from their
    own inputs and served from another node's winner.
    """
    exact = marginals is not None
    cap = L if 2 * _FIRST_CAP >= L else _FIRST_CAP
    log_powers = right_max = winner = None
    terms = np.empty(0)

    def extend_terms(to: int) -> NDArray[np.float64]:
        new = [_spectral_term(info, x) for x in range(terms.size + 1, to + 1)]
        return np.concatenate([terms, new]) if new else terms

    if not exact and cap < L and (L - 1) ** 2 <= _TABLE_LIMIT:
        # Every quilt within the first cap is charged at least the term of
        # one of its offsets. If none is below the budget, every capped quilt
        # scores inf, so the first step can certify no node; skip it, where
        # the full reach's table is within the limit.
        terms = extend_terms(_FIRST_CAP)
        if terms.min() >= epsilon:
            cap = L
    caps: dict[int, int] = {}
    blocks, distinct, shared = 0, 0, 0
    open_nodes = np.arange(1, L + 1)
    win_s, win_a, win_b = np.empty(L), np.zeros(L, np.int64), np.zeros(L, np.int64)
    # Only interior nodes (na = nb = cap) can have the same inputs as
    # another node's: node j's are its cap + 1 marginal rows from row
    # j - 1 - cap, keyed by the class of that first row (see the module
    # docstring). The approx search's inputs are its offsets alone: one
    # class for all.
    classes = marginals[1] if exact else np.zeros(L, np.intp)
    if exact:
        with np.errstate(divide="ignore"):
            log_rows = np.log(marginals[0])
        # Nodes with the same live values share one list of value pairs.
        live = log_rows > -np.inf
        pattern = None  # one pattern, no grouping
        if not (live == live[0]).all():
            pattern = np.unique(
                live.view(np.dtype((np.void, model.k)))[:, 0], return_inverse=True
            )[1][classes]

    def node_blocks(i: NDArray[np.int64], na: NDArray[np.int64], nb: NDArray[np.int64],
                    bound: float) -> Iterator[tuple[NDArray[np.int64], _Winners]]:
        """Blocks ``(rows, winners)`` that score the nodes ``i[rows]`` at
        offsets up to ``na[rows]`` and ``nb[rows]``; ``bound`` is the step's
        score past which a winner is not kept."""
        nonlocal blocks
        if not exact:
            for rows in _blocks(na.tolist(), nb.tolist(), lambda ma, mb: ma + mb):
                ma, mb = int(na[rows].max()), int(nb[rows].max())
                yield rows, _best_quilts(
                    _one_sided_nearby(i[rows], na[rows], nb[rows], L, ma, mb), L, epsilon,
                    np.broadcast_to(2.0 * terms[:ma], (rows.size, ma)),
                    np.broadcast_to(terms[:mb], (rows.size, mb)),
                    winner(na[rows], nb[rows]),
                )
            return
        if pattern is None:
            groups = [np.arange(i.size)]
        else:
            kind = pattern[i - 1]
            groups = [np.flatnonzero(kind == p) for p in np.unique(kind).tolist()]
        for group in groups:
            for rows in _blocks(na[group].tolist(), nb[group].tolist(),
                                lambda ma, mb: max(1, ma) * max(1, mb)):
                rows = group[rows]
                j, ja, jb = i[rows], na[rows], nb[rows]
                ma, mb = int(ja.max()), int(jb.max())
                back = np.maximum(j[:, None] - 2 - np.arange(ma), 0)  # nearest first
                past = log_rows[classes[back]]
                nearby = _one_sided_nearby(j, ja, jb, L, ma, mb)
                influences = _exact_influences(
                    log_rows[classes[j - 1]], past,
                    log_powers[1 : ma + 1], right_max[1 : mb + 1],
                    _cut(nearby, ja, jb, epsilon, bound),
                )
                blocks += 1
                yield rows, _best_quilts(nearby, L, epsilon, *influences)

    while open_nodes.size:
        caps[cap] = open_nodes.size
        na, nb = np.minimum(open_nodes - 1, cap), np.minimum(L - open_nodes, cap)
        top = min(cap, L - 1)
        if exact:
            big = np.flatnonzero(na * nb > _TABLE_LIMIT)
            if big.size:
                _check_table(int(open_nodes[big[0]]), L, "exact", int(na[big[0]]), int(nb[big[0]]))
            log_powers, right_max = _log_powers(model.transition, top)
        else:
            _check_table(int(open_nodes[0]), L, "approx", top, top)
            terms = extend_terms(top)
            winner = _two_sided_winners(epsilon, 2.0 * terms[:, None] + terms[None, :])
        inner = (na == cap) & (nb == cap)
        # A node's winner is kept if it scores below (cap + 1) / epsilon, or
        # at the full reach, the last step of every node (see below).
        bound = (L if cap == L else cap + 1) / epsilon
        own = np.arange(open_nodes.size)
        if inner.any():
            # The boundary nodes are scored from their own inputs, and so is
            # the first interior node of each key.
            keys = classes[open_nodes[inner] - 1 - cap]
            _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
            first = np.flatnonzero(inner)[first]
            own = np.sort(np.concatenate([own[~inner], first]))
            shared += ids.size - first.size
        distinct += own.size
        s, a, b = np.empty(open_nodes.size), np.zeros_like(open_nodes), np.zeros_like(open_nodes)
        for rows, winners in node_blocks(open_nodes[own], na[own], nb[own], bound):
            s[own[rows]], a[own[rows]], b[own[rows]] = winners
        if inner.any():
            # No one-sided or empty quilt can clear an interior node's bound,
            # so a winner of its key's first node that clears it is two-sided,
            # and the node's winner too. Only a two-sided winner is shared,
            # whatever the rounding; otherwise the key's nodes take the next
            # step.
            two = (a[first] > 0) & (b[first] > 0)
            s[inner] = np.where(two, s[first], np.inf)[ids]
            a[inner], b[inner] = a[first][ids], b[first][ids]
        # A capped step has L > 2 cap, so a node there is at its full reach
        # only if it is interior (2 cap = L - 1), and such a node is not
        # certified by it: its one-sided and empty quilts were scored at its
        # key's first node, whose nearby counts are not its own.
        done = (s < (cap + 1) / epsilon) | (cap == L)
        k = open_nodes[done] - 1
        win_s[k], win_a[k], win_b[k] = s[done], a[done], b[done]
        open_nodes = open_nodes[~done]
        cap = L if 4 * cap >= L else 2 * cap
    # Runs start where a node's winner differs from the one before it.
    new = (win_s[1:] != win_s[:-1]) | (win_a[1:] != win_a[:-1]) | (win_b[1:] != win_b[:-1])
    firsts = np.concatenate([[0], np.flatnonzero(new) + 1])
    lasts = np.concatenate([firsts[1:], [L]])
    runs = [
        [f + 1, l, a or None, b or None, s]
        for f, l, a, b, s in zip(firsts.tolist(), lasts.tolist(), win_a[firsts].tolist(),
                                 win_b[firsts].tolist(), win_s[firsts].tolist())
    ]
    return runs, caps, blocks, distinct, shared


def quilt_scores(
    framework: Framework,
    epsilon: float,
    variant: Variant,
    *,
    scope: str = "window",
) -> tuple[float, dict[int, QuiltRuns]]:
    """Run the per-model, per-node quilt search and return the noise scale.

    Returns ``(sigma_max, active)`` where ``active[model_index]`` holds the
    winning quilts of the searched nodes, with global node indices, as runs.

    ``scope`` chooses the node loop: ``"window"`` treats the release window
    as its own chain (initial law advanced to the window start, as
    :func:`_marginals` steps it), while
    ``"chain"`` searches every node of the full horizon, which can only
    raise the noise scale.

    Each step admits offsets up to one cap, shared by every node still
    open, and doubles it for the next; a node stops once no quilt outside
    the cap can win at it, so the result is the full search's bit for bit
    (see the module docstring). An approx search in which no spectral term
    within the first cap is below ``epsilon`` starts at the full reach,
    since its first step would score every capped quilt ``inf`` and certify
    no node, but only where the full reach's two-sided table is within the
    limit below; otherwise it doubles from the first cap. An exact
    search steps each model's marginal recursion only to its first bitwise
    repeated row and reads every node's law as one of the distinct rows
    through its class (see :func:`_marginals`), so it keeps no table of
    ``L`` marginal rows.

    Each model's search logs one DEBUG record on this module's logger: the
    nodes searched, the node steps taken at each cap (cap ``L`` is every
    node's full reach) and the number of steps, the exact-kernel
    blocks (none in the approx variant), each scoring many nodes at once,
    the node steps scored from their own inputs, told apart by marginal
    bits (see the module docstring), and those served from another node's
    winner, which add up to the node steps, and the number of quilt runs.
    A search that would
    build a two-sided influence table of more than ``2**24`` entries raises
    :class:`~mquilt.errors.TooLarge`.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InvalidEpsilon(f"budget must be positive and finite, got {epsilon}")
    if scope not in ("window", "chain"):
        raise MquiltError(f"scope must be 'window' or 'chain', got {scope!r}")
    if scope == "window":
        L = framework.window.length
        offset = framework.window.start - 1
    else:
        L = framework.horizon
        offset = 0
    # The empty quilt scores L / epsilon, the largest scale the search can
    # return; that times the largest unit_laplace draw (52 ln 2) must be finite.
    if not math.isfinite(L / float(epsilon) * (52 * math.log(2))):
        raise InvalidEpsilon(f"budget {epsilon} is too small for {L} nodes")

    sigma_max = 0.0
    active: dict[int, QuiltRuns] = {}
    for idx, model in enumerate(framework.models):
        if variant is Variant.EXACT:
            marginals, info = _marginals(model, L, offset + 1), None
        else:
            marginals, info = None, spectral(model)
        runs, caps, blocks, distinct, shared = _search_model(
            model, marginals, info, L, epsilon)
        _log.debug(
            "model %d (%s): %d nodes, node steps at caps %s, at most %d per node, "
            "%d kernel blocks, %d distinct node inputs, %d nodes served from the shared "
            "table, %d quilt runs",
            idx, variant.value, L, dict(sorted(caps.items())), len(caps), blocks, distinct, shared,
            len(runs),
        )
        active[idx] = QuiltRuns._canonical(tuple(
            (first + offset, last + offset, left, right, s)
            for first, last, left, right, s in runs
        ))
        sigma_max = max(sigma_max, max(run[4] for run in runs))
    return sigma_max, active


def release(
    data: StateSequence,
    queries: Sequence[LipschitzQuery],
    epsilon: float,
    framework: Framework,
    variant: Variant,
    seed: int | np.random.Generator | None = None,
    *,
    scope: str = "window",
) -> list[ReleaseRecord]:
    """Release noisy values of ``queries`` over the framework's window, each
    at budget ``epsilon``.

    The data are checked against the window, then :func:`quilt_scores` runs
    once: its scale depends on neither the data nor the query, so the
    queries (the buckets of a histogram, say) share it, and Theorem 6 adds
    their budgets. Each query value is rescaled to sensitivity 1, then
    Laplace noise at that scale is added, the queries drawing in turn from
    ``default_rng(seed)``: a fixed seed reproduces the draws, ``None`` draws
    on fresh OS entropy, and a ``Generator`` is drawn from as it stands.
    Each record carries its noisy output, the scale, and the winning
    quilts, but not the seed; consumers un-scale on read. An empty
    ``queries`` raises :class:`~mquilt.errors.EmptyInput` before any search.
    """
    values = data.values if isinstance(data, StateSequence) else np.asarray(data)
    if values.ndim != 1 or values.size != framework.window.length:
        raise LengthMismatch(
            f"data has length {values.size}, window needs {framework.window.length}"
        )
    if values.size and (values.min() < 0 or values.max() >= framework.k):
        raise BadState(f"data mentions states outside 0..{framework.k - 1}")
    if not queries:
        raise EmptyInput("no queries to release")
    sigma_max, active = quilt_scores(framework, epsilon, variant, scope=scope)
    rng = np.random.default_rng(seed)
    return [
        ReleaseRecord(
            variant=variant,
            epsilon=float(epsilon),
            sigma_max=float(sigma_max),
            output=float(q.evaluate(values)) / q.lipschitz_constant
            + sigma_max * unit_laplace(rng),
            query_id=q.identifier,
            lipschitz_constant=float(q.lipschitz_constant),
            window=framework.window,
            active_quilts=active,
            scope=scope,
        )
        for q in queries
    ]
