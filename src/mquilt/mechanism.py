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
search's, ties included, and by monotone rounding bit for bit. Otherwise
its cap grows to ``max(2c, floor(s * epsilon) + 1)``, or to its full reach
(``na = i - 1``, ``nb = L - i``) once twice that reaches ``L``; the
candidate that scored ``s`` is kept and now clears the test, so no node
takes more than two steps. The test does not depend on how the caps were
chosen, so neither does the result.

Nodes with identical inputs at one cap share them. Node ``i`` feeds the
exact kernel only its offset counts ``na = min(i - 1, c)`` and
``nb = min(L - i, c)`` and the log marginals of nodes ``i - na .. i``. The
marginal recursion reaches a bitwise fixed point or 2-cycle, on random
chains within a few dozen steps, and past that point every interior node
(``na = nb = c``) repeats one of at most two inputs per cap. The best
two-sided quilt depends only on those inputs. The one-sided and empty
candidates do not: their nearby counts ``L - i + a`` and ``i + b - 1``
depend on ``i``. At an interior node each of them has at least ``c + 1``
nearby nodes, so it scores at least ``(c + 1) / epsilon``, in floating
point too, because ``epsilon - e <= epsilon`` and rounding is monotone. A
shared two-sided minimum below ``(c + 1) / epsilon`` therefore wins
strictly at every interior node that shares it, and is taken without
scoring the rest. Otherwise it sizes the node's next cap, and only an
interior node with no finite two-sided quilt, or a boundary node, whose
inputs are its own, is scored in full. Per distinct input the search
keeps the one-sided influences and the two-sided winner, never the exact
two-sided table, whose size would be quadratic in ``c``.

The approx search runs the same node loop. Its influences depend on the
offsets alone (``2 t(a) + t(b)`` for the quilt at offsets ``a`` and
``b``), so it scores one table of two-sided quilts, grown geometrically
to cover the largest offset any node has needed so far, and ranks them in
the tie order (score, nearby count, ``a``, ``b``). After prefix minima of
the ranks along both axes, the entry at ``(na - 1, nb - 1)`` ranks node
``i``'s winner. Each entry is the same floating-point expression as in a
table of the node's own offsets, so this is that table's lexicographic
minimum, bit for bit. Spectral terms ``log((pi_min + d) / (pi_min - d))``
are never negative, so the interior shortcut holds, and all interior
nodes at one cap share one input. Neither variant builds a two-sided
table of more than ``_TABLE_LIMIT`` entries; a search that would is
refused with :class:`~mquilt.errors.TooLarge`.

Scores depend only on the framework, the budget, and the variant, never on
the observed data, so records can be replayed and audited.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np
from numpy.typing import NDArray

from .chains import ChainModel, SpectralInfo, StateSequence, marginal, spectral, validate
from .errors import (
    BadState,
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
    _exact_influences,
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
    "release_record",
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
    """

    horizon: int
    window: Window
    models: tuple[ChainModel, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise MquiltError(f"horizon must be >= 1, got {self.horizon}")
        if not self.models:
            raise EmptyThetaSet("a framework needs at least one chain model")
        models = tuple(validate(m) for m in self.models)
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
        """The window's own chain: same transitions, initial law at start."""
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


@dataclass(frozen=True)
class QuiltRuns:
    """One model's winning quilts as runs ``(first_node, last_node, left,
    right, score)`` of consecutive nodes with one shape and score. ``runs``
    may be any iterable; adjacent runs that share both are merged, so equal
    tables have equal runs, and runs that skip or repeat a node are refused.
    Iterating yields each node's :class:`ActiveQuilt` in node order and
    ``len`` is the node count, yet nothing per node is kept."""

    runs: tuple[tuple[int, int, int | None, int | None, float], ...]

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
"""Offset cap at which every node's search starts. In windows of at most
twice the cap every node starts at its full reach, which costs it about as
much as a capped step."""

_TABLE_LIMIT = 2**24
"""The most entries a two-sided influence table may hold: ranking one takes
about 40 bytes per entry, so this is about 0.7 GB, and full searches of up
to 4097 nodes still run."""

_Candidate = tuple[float, int, int, int, int]
"""A scored quilt: score, nearby count, kind rank (two-sided 0, one-sided
1, empty 2), left offset, right offset (0 where the side is absent). Tuple
order is the tie order, so the best candidate is the smallest."""


def _scores(
    e: NDArray[np.float64], nearby: NDArray[np.float64], epsilon: float
) -> NDArray[np.float64]:
    s = np.full(e.shape, np.inf)
    np.divide(nearby, epsilon - e, out=s, where=e < epsilon)
    return s


def _two_sided_winners(
    epsilon: float, e_two: NDArray[np.float64]
) -> Callable[[int, int], _Candidate | None]:
    """A lookup of the best two-sided quilt with offsets ``a <= na`` and
    ``b <= nb`` (``None`` if there is none), given ``e_two[a-1, b-1]``, the
    influence of the quilt at offsets ``a`` and ``b``. It does not depend on
    the node's position in the window (see the module docstring)."""
    ma, mb = e_two.shape
    aa = np.arange(1, ma + 1)
    bb = np.arange(1, mb + 1)
    nearby2 = (aa[:, None] + bb[None, :] - 1).astype(float)
    s2 = _scores(e_two, nearby2, epsilon)
    # The sort is stable and flat indices run in (a, b) order, so ties in
    # score and nearby count stay in the tie order.
    order = np.lexsort((nearby2.ravel(), s2.ravel()))
    del nearby2
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank = rank.reshape(ma, mb)
    np.minimum.accumulate(rank, axis=0, out=rank)
    np.minimum.accumulate(rank, axis=1, out=rank)

    def winner(na: int, nb: int) -> _Candidate | None:
        if not (na and nb):
            return None
        ai, bi = divmod(int(order[rank[na - 1, nb - 1]]), mb)
        return (float(s2[ai, bi]), ai + bi + 1, 0, ai + 1, bi + 1)

    return winner


def _best_quilt(
    i: int,
    L: int,
    epsilon: float,
    e_left: NDArray[np.float64],
    e_right: NDArray[np.float64],
    two: _Candidate | None,
) -> _Candidate:
    """The winning candidate at local node ``i``.

    ``e_left[a-1]`` and ``e_right[b-1]`` bound the influence of the
    one-sided quilts at offsets ``a`` and ``b``; ``two`` is the best
    two-sided quilt (:func:`_two_sided_winners`). The one-sided and empty
    candidates are scored here, since their nearby counts depend on ``i``.
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


def _marginals(model: ChainModel, L: int) -> NDArray[np.float64]:
    """Marginal laws of the first ``L`` nodes, one row per node.

    The recursion is a function of the previous row's bits, so once a row
    repeats the row one or two steps before it bit for bit, the rest of
    the table repeats that period; it is filled in without stepping.
    """
    margs = np.empty((L, model.k))
    margs[0] = model.initial
    for t in range(1, L):
        nxt = np.clip(margs[t - 1] @ model.transition, 0.0, None)
        margs[t] = nxt / nxt.sum()
        row = margs[t].tobytes()
        if row == margs[t - 1].tobytes():
            margs[t + 1 :] = margs[t]
            break
        if t >= 2 and row == margs[t - 2].tobytes():
            margs[t + 1 :: 2] = margs[t - 1]
            margs[t + 2 :: 2] = margs[t]
            break
    return margs


def _log_powers(
    P: NDArray[np.float64], cap: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Logs of ``P^0 .. P^cap`` and the forward log-ratio maxima.

    ``right_max[j, u, v] = max_x log(P^j[u, x] / P^j[v, x])``, skipping
    slots where both entries vanish.
    """
    k = P.shape[0]
    log_powers = np.empty((cap + 1, k, k))
    right_max = np.zeros((cap + 1, k, k))
    power = np.eye(k)
    with np.errstate(divide="ignore"):
        log_powers[0] = np.log(power)
        for j in range(1, cap + 1):
            power = np.clip(power @ P, 0.0, 1.0)
            log_powers[j] = np.log(power)
            right_max[j] = _log_ratio_max(log_powers[j])
    return log_powers, right_max


def _check_table(i: int, L: int, variant: str, rows: int, cols: int) -> None:
    if rows * cols > _TABLE_LIMIT:
        raise TooLarge(
            f"the {variant} search of node {i} of {L} needs a {rows} x {cols} two-sided "
            f"influence table ({rows * cols} entries); the limit is {_TABLE_LIMIT} entries"
        )


def _search_model(
    model: ChainModel,
    log_margs: NDArray[np.float64] | None,
    info: SpectralInfo | None,
    L: int,
    epsilon: float,
) -> tuple[list[list], dict[int, int], int, int, int]:
    """Best quilt of every local node over all offsets, as runs
    ``[first, last, left, right, score]`` of consecutive local nodes with
    one shape and score, built while the nodes are walked.

    Influences are exact when ``log_margs`` (the log marginals of the
    searched nodes) is given and spectral bounds from ``info`` otherwise;
    the variants differ only in where a step's one-sided influences and
    two-sided winner come from. Each node grows its own offset cap until
    its winner is certified (see the module docstring); cap ``L`` stands
    for a node's full reach. Also returns the node steps taken at each
    cap, the most steps a node took, the number of exact-kernel calls and
    the number of steps served from another node's table entry.
    """
    runs: list[list] = []
    last = None  # the last run's (left, right, score), 0 for an absent side
    first = L if 2 * _FIRST_CAP >= L else _FIRST_CAP
    first_bound = (first + 1) / epsilon
    caps, most, calls, shared = {first: L}, 1, 0, 0
    # Only interior steps (na = nb = cap) can have the same inputs as
    # another node's. Their inputs are keyed by the ids of their cap + 1
    # log-marginal rows, equal ids for bitwise-equal rows (one id for all in
    # the approx search), so a key's length names its cap. The table keeps
    # e_left, e_right and the two-sided winner per key.
    if log_margs is None:
        row_ids = np.zeros(L, dtype=np.intp)
    else:
        rows = np.ascontiguousarray(log_margs).view(np.dtype((np.void, log_margs[0].nbytes)))
        row_ids = np.unique(rows[:, 0], return_inverse=True)[1]
    table: dict[bytes, tuple[NDArray[np.float64], NDArray[np.float64], _Candidate]] = {}
    # The log powers, or the spectral terms and their two-sided table, up to
    # offset ``top``; they grow geometrically, and a smaller cap reads their
    # leading block.
    top = -1
    log_powers = right_max = terms = winner = None

    def inputs(i: int, na: int, nb: int):
        """Node ``i``'s one-sided influences and best two-sided quilt."""
        nonlocal top, log_powers, right_max, terms, winner, calls
        if max(na, nb) > top:
            top = max(na, nb, 2 * top)
            top = top if 2 * top < L else L - 1
            if log_margs is None:
                _check_table(i, L, "approx", top, top)
                terms = np.array([_spectral_term(info, x) for x in range(1, top + 1)])
                winner = _two_sided_winners(epsilon, 2.0 * terms[:, None] + terms[None, :])
            else:
                log_powers, right_max = _log_powers(model.transition, top)
        if log_margs is None:
            return 2.0 * terms[:na], terms[:nb], winner(na, nb)
        _check_table(i, L, "exact", na, nb)
        e_left, e_right, e_two = _exact_influences(
            log_margs[i - 1],
            log_margs[i - 1 - na : i - 1][::-1],  # nearest node first
            log_powers[1 : na + 1],
            right_max[1 : nb + 1],
        )
        calls += 1
        return e_left, e_right, _two_sided_winners(epsilon, e_two)(na, nb)

    for i in range(1, L + 1):
        cap, bound, n = first, first_bound, 1
        while True:
            na, nb = min(i - 1, cap), min(L - i, cap)
            if na == nb == cap:
                key = row_ids[i - 1 - cap : i].tobytes()
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = inputs(i, na, nb)
                else:
                    shared += 1
                best = entry[2]
                if best[0] < bound:
                    break
                # No one-sided or empty quilt can clear an interior cap, so
                # the shared two-sided score sizes the next one if finite.
                s = best[0] if best[0] < math.inf else _best_quilt(i, L, epsilon, *entry)[0]
            else:
                best = _best_quilt(i, L, epsilon, *inputs(i, na, nb))
                if best[0] < bound or na + nb == L - 1:
                    break
                s = best[0]
            cap = max(2 * cap, math.floor(s * epsilon) + 1)
            cap = cap if 2 * cap < L else L
            bound = (cap + 1) / epsilon
            caps[cap] = caps.get(cap, 0) + 1
            n += 1
            most = max(most, n)
        s, _, _, a, b = best
        if (a, b, s) == last:
            runs[-1][1] = i
        else:
            last = (a, b, s)
            runs.append([i, i, a or None, b or None, s])
    return runs, caps, most, calls, shared


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
    as its own chain (initial law advanced to the window start), while
    ``"chain"`` searches every node of the full horizon, which can only
    raise the noise scale.

    Each node's search admits offsets up to a cap that it grows until no
    quilt outside the cap can win at the node, in at most two steps, so
    the result is the full search's bit for bit (see the module docstring).

    Each model's search logs one DEBUG record on this module's logger: the
    nodes searched, the node steps taken at each cap (cap ``L`` is a
    node's full reach) and the most taken by one node, the exact-kernel
    calls (none in the approx variant), the nodes served from another
    node's table entry, and the number of quilt runs. A search that would
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
        search_models = [framework.window_model(m) for m in framework.models]
    else:
        L = framework.horizon
        offset = 0
        search_models = list(framework.models)
    # The empty quilt scores L / epsilon, the largest scale the search can
    # return; that times the largest unit_laplace draw (52 ln 2) must be finite.
    if not math.isfinite(L / float(epsilon) * (52 * math.log(2))):
        raise InvalidEpsilon(f"budget {epsilon} is too small for {L} nodes")

    sigma_max = 0.0
    active: dict[int, QuiltRuns] = {}
    for idx, model in enumerate(search_models):
        if variant is Variant.EXACT:
            with np.errstate(divide="ignore"):
                log_margs, info = np.log(_marginals(model, L)), None
        else:
            log_margs, info = None, spectral(model)
        runs, caps, most, calls, shared = _search_model(model, log_margs, info, L, epsilon)
        _log.debug(
            "model %d (%s): %d nodes, node steps at caps %s, at most %d per node, "
            "%d kernel calls, %d nodes served from the shared table, %d quilt runs",
            idx, variant.value, L, dict(sorted(caps.items())), most, calls, shared, len(runs),
        )
        active[idx] = QuiltRuns(
            (first + offset, last + offset, left, right, s)
            for first, last, left, right, s in runs
        )
        sigma_max = max(sigma_max, max(run[4] for run in runs))
    return sigma_max, active


def _window_values(data: StateSequence, framework: Framework) -> NDArray[np.int64]:
    values = data.values if isinstance(data, StateSequence) else np.asarray(data)
    if values.ndim != 1 or values.size != framework.window.length:
        raise LengthMismatch(
            f"data has length {values.size}, window needs {framework.window.length}"
        )
    if values.size and (values.min() < 0 or values.max() >= framework.k):
        raise BadState(f"data mentions states outside 0..{framework.k - 1}")
    return values


def release(
    data: StateSequence,
    query: LipschitzQuery,
    epsilon: float,
    framework: Framework,
    variant: Variant,
    seed: int | np.random.Generator | None = None,
    *,
    scope: str = "window",
) -> ReleaseRecord:
    """Release one noisy query value over the framework's window.

    Runs :func:`quilt_scores` and hands its result to
    :func:`release_record`, which adds the noise.
    """
    _window_values(data, framework)
    search = quilt_scores(framework, epsilon, variant, scope=scope)
    return release_record(
        search, data, query, epsilon, framework, variant, seed, scope=scope
    )


def release_record(
    search: tuple[float, Mapping[int, QuiltRuns]],
    data: StateSequence,
    query: LipschitzQuery,
    epsilon: float,
    framework: Framework,
    variant: Variant,
    seed: int | np.random.Generator | None = None,
    *,
    scope: str = "window",
) -> ReleaseRecord:
    """Release a noisy query value at the scale a finished search found.

    ``search`` is what :func:`quilt_scores` returned for ``framework``,
    ``epsilon``, ``variant`` and ``scope``; it does not depend on the data
    or the query, so several queries over one window (the buckets of a
    histogram) can share it. The query value is rescaled to sensitivity 1,
    then Laplace noise at the searched scale is added, drawn from
    ``default_rng(seed)``: a fixed seed reproduces the draw, ``None`` draws
    on fresh OS entropy, and a ``Generator`` is drawn from as it stands, so
    the buckets of a histogram can take their draws in turn from one
    generator. The returned record carries the noisy output, the
    scale, and the winning quilts, but not the seed; consumers un-scale on
    read.
    """
    values = _window_values(data, framework)
    sigma_max, active = search
    rng = np.random.default_rng(seed)
    noise = unit_laplace(rng)
    scaled = float(query.evaluate(values)) / query.lipschitz_constant
    return ReleaseRecord(
        variant=variant,
        epsilon=float(epsilon),
        sigma_max=float(sigma_max),
        output=scaled + sigma_max * noise,
        query_id=query.identifier,
        lipschitz_constant=float(query.lipschitz_constant),
        window=framework.window,
        active_quilts=active,
        scope=scope,
    )
