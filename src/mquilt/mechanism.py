"""Noise calibration by quilt search, and the Laplace release itself.

For every candidate model and every node in the release window, the search
scans candidate quilts, bounds the node's influence on each, and converts
the bound into a score: nearby-node count divided by leftover budget. The
worst best-score across nodes and models becomes the Laplace scale. The
empty quilt (whole window nearby, zero influence) is always a candidate,
so the scale never exceeds ``window length / epsilon``.

The search only scans offsets that can still win, and returns exactly what
the scan of every offset would. Influence is never negative, so a quilt
with ``n`` nearby nodes scores at least ``n / epsilon``. A search capped at
offset ``c`` leaves out only quilts with at least ``c + 1`` nearby nodes,
and its scale ``sigma_c`` is at least the full search's, since it takes
each node's minimum over fewer candidates. Once ``(c + 1) / epsilon >
sigma_c``, every left-out quilt scores strictly above every node's capped
minimum, so the capped winners are the full search's winners, ties
included. Rounding is monotone, so the same holds for the computed
scores, bit for bit. Otherwise the cap grows to
``max(2c, floor(sigma_c * epsilon) + 1)`` and the search runs again.

Within a round of the exact search, nodes with identical kernel inputs
share one kernel call. Node ``i`` feeds the kernel only its offset counts
``na = min(i - 1, c)`` and ``nb = min(L - i, c)`` and the log marginals of
nodes ``i - na .. i``. The marginal recursion reaches a bitwise fixed
point or 2-cycle, on random chains within a few dozen steps, and past that
point every interior node (``na = nb = c``) repeats one of at most two
inputs. The best two-sided quilt depends only on those inputs. The
one-sided and empty candidates do not: their nearby counts ``L - i + a``
and ``i + b - 1`` depend on ``i``. At an interior node each of them has at
least ``c + 1`` nearby nodes, so it scores at least ``(c + 1) / epsilon``,
in floating point too, because ``epsilon - e <= epsilon`` and rounding is
monotone. A shared two-sided minimum below ``(c + 1) / epsilon`` therefore
wins strictly at every interior node that shares it, and is taken without
scoring the rest. Every other node is scored in full from the shared
one-sided influences: the boundary nodes, whose inputs are their own, and
interior nodes whose shared minimum is not below ``(c + 1) / epsilon``.
Such a round is never accepted, but the next cap reads its scale, so that
scale stays exact. Per distinct input the search keeps the one-sided
influences and the two-sided winner, never the two-sided table, whose size
would be quadratic in ``c``.

The approx search runs the same node loop. Its influences depend on the
offsets alone (``2 t(a) + t(b)`` for the quilt at offsets ``a`` and
``b``), so it scores one table of the round's ``c * c`` two-sided quilts
and ranks them in the tie order (score, nearby count, ``a``, ``b``).
After prefix minima of the ranks along both axes, the entry at
``(na - 1, nb - 1)`` ranks node ``i``'s winner. Each entry is the same
floating-point expression as in a table of the node's own offsets, so
this is that table's lexicographic minimum, bit for bit. Spectral terms
``log((pi_min + d) / (pi_min - d))`` are never negative, so the interior
shortcut holds, and all interior nodes share one input.

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

    ``evaluate`` maps a window's worth of state indices to a float;
    changing a single node moves the value by at most ``lipschitz_constant``.
    """

    identifier: str
    evaluate: Callable[[NDArray[np.int64]], float]
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

    def evaluate(values: NDArray[np.int64]) -> float:
        return float(np.count_nonzero(np.asarray(values) == state))

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
"""Offset cap of the first pruned round. Windows of at most twice the cap
go straight to the full search, which costs them about as much as a round."""

_Candidate = tuple[float, int, int, int, int]
"""A scored quilt: score, nearby count, kind rank (two-sided 0, one-sided
1, empty 2), left offset, right offset (0 where the side is absent). Tuple
order is the tie order, so the best candidate is the smallest."""


def _scores(
    e: NDArray[np.float64], nearby: NDArray[np.float64], epsilon: float
) -> NDArray[np.float64]:
    s = np.full(e.shape, np.inf)
    ok = e < epsilon
    s[ok] = nearby[ok] / (epsilon - e[ok])
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
    nearby2 = aa[:, None] + bb[None, :] - 1
    s2 = _scores(e_two, nearby2.astype(float), epsilon)
    order = np.lexsort(
        (
            np.broadcast_to(bb[None, :], s2.shape).ravel(),
            np.broadcast_to(aa[:, None], s2.shape).ravel(),
            nearby2.ravel(),
            s2.ravel(),
        )
    )
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


def _search_model(
    model: ChainModel,
    log_margs: NDArray[np.float64] | None,
    info: SpectralInfo | None,
    L: int,
    epsilon: float,
    cap: int,
) -> tuple[list[list], int, int]:
    """Best quilt of every local node over offsets up to ``cap``, as runs
    ``[first, last, left, right, score]`` of consecutive local nodes with
    one shape and score, built while the nodes are walked.

    Influences are exact when ``log_margs`` (the log marginals of the
    searched nodes) is given and spectral bounds from ``info`` otherwise;
    the variants differ only in where a node's one-sided influences and
    two-sided winner come from. With ``cap >= L - 1`` this is the full
    search. Also returns the number of exact-kernel calls and of nodes
    served from another node's table entry (see the module docstring).
    """
    runs: list[list] = []
    last = None  # the last run's (left, right, score), 0 for an absent side
    calls = shared = 0
    # Only interior nodes (na = nb = cap) can have the same inputs as
    # another node. Their inputs are keyed by the ids of their log-marginal
    # rows, equal ids for bitwise-equal rows (one id for all in the approx
    # search), and the table keeps e_left, e_right and the two-sided
    # winner per key.
    if log_margs is None:
        terms = np.array([_spectral_term(info, x) for x in range(1, cap + 1)])
        winner = _two_sided_winners(epsilon, 2.0 * terms[:, None] + terms[None, :])
        row_ids = np.zeros(L, dtype=np.intp)
    else:
        log_powers, right_max = _log_powers(model.transition, cap)
        rows = np.ascontiguousarray(log_margs).view(np.dtype((np.void, log_margs[0].nbytes)))
        row_ids = np.unique(rows[:, 0], return_inverse=True)[1]
    table: dict[bytes, tuple[NDArray[np.float64], NDArray[np.float64], _Candidate]] = {}
    out_of_cap = (cap + 1) / epsilon
    for i in range(1, L + 1):
        na, nb = min(i - 1, cap), min(L - i, cap)
        interior = na == nb == cap > 0
        key = row_ids[i - 1 - na : i].tobytes() if interior else None
        if key in table:
            e_left, e_right, two = table[key]
            shared += 1
        else:
            if log_margs is None:
                e_left, e_right, two = 2.0 * terms[:na], terms[:nb], winner(na, nb)
            else:
                e_left, e_right, e_two = _exact_influences(
                    log_margs[i - 1],
                    log_margs[i - 1 - na : i - 1][::-1],  # nearest node first
                    log_powers[1 : na + 1],
                    right_max[1 : nb + 1],
                )
                calls += 1
                two = _two_sided_winners(epsilon, e_two)(na, nb)
            if interior:
                table[key] = (e_left, e_right, two)
        if interior and two[0] < out_of_cap:
            s, _, _, a, b = two
        else:
            s, _, _, a, b = _best_quilt(i, L, epsilon, e_left, e_right, two)
        if (a, b, s) == last:
            runs[-1][1] = i
        else:
            last = (a, b, s)
            runs.append([i, i, a or None, b or None, s])
    return runs, calls, shared


def _pruned_search(
    model: ChainModel,
    log_margs: NDArray[np.float64] | None,
    info: SpectralInfo | None,
    L: int,
    epsilon: float,
) -> tuple[list[list], float, list[int], int, int]:
    """:func:`_search_model` over all offsets, searching only those that can
    still win (see the module docstring). Also returns the scale, the cap
    of every round, and the kernel calls and shared nodes summed over the
    rounds."""
    cap, caps, calls, shared = _FIRST_CAP, [], 0, 0
    while True:
        full = 2 * cap >= L
        if full:
            cap = L - 1
        runs, n_calls, n_shared = _search_model(model, log_margs, info, L, epsilon, cap)
        caps.append(cap)
        calls += n_calls
        shared += n_shared
        sigma = max(run[4] for run in runs)
        if full or (cap + 1) / epsilon > sigma:
            return runs, sigma, caps, calls, shared
        cap = max(2 * cap, math.floor(sigma * epsilon) + 1)


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

    Per model, the search first admits only offsets up to a small cap ``c``.
    A quilt outside the cap has at least ``c + 1`` nearby nodes, so it
    scores at least ``(c + 1) / epsilon``; once that exceeds the model's
    capped scale, no such quilt can win at any node and the capped result
    is the full result bit for bit, ties included. Otherwise the cap grows
    to ``max(2c, floor(sigma_c * epsilon) + 1)``, and the full search runs
    once the cap reaches half the window.

    Each model's search logs one DEBUG record on this module's logger: the
    cap of every round, the nodes searched, the exact-kernel calls (none
    in the approx variant), the nodes served from another node's table
    entry, and the number of quilt runs.
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
        runs, sigma, caps, calls, shared = _pruned_search(model, log_margs, info, L, epsilon)
        _log.debug(
            "model %d (%s): rounds at caps %s over %d nodes, %d kernel calls, "
            "%d nodes served from the shared table, %d quilt runs",
            idx, variant.value, caps, L, calls, shared, len(runs),
        )
        active[idx] = QuiltRuns(
            (first + offset, last + offset, left, right, s)
            for first, last, left, right, s in runs
        )
        sigma_max = max(sigma_max, sigma)
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
