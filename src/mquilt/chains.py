"""Finite time-homogeneous Markov chain models.

This module holds the chain representation used everywhere else: validation,
marginals, transition powers, the spectral quantities of the multiplicative
reversiblization (stationary distribution, time reversal, eigenvalues,
eigen-gap), and seeded trajectory sampling.

Conventions
-----------
States are indices ``0..k-1`` with string labels kept alongside for file IO.
Time indices are 1-based: ``X_1`` is the first node of a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadInitial,
    BadState,
    DuplicateLabel,
    InvalidTime,
    MquiltError,
    NegativeEntry,
    NonStochasticRow,
    NotAperiodic,
    NotIrreducible,
    ZeroStationaryEntry,
)

__all__ = [
    "ChainModel",
    "StateSequence",
    "SpectralInfo",
    "validate",
    "marginal",
    "transition_power",
    "spectral",
    "sample",
    "random_model",
]

STOCHASTIC_TOL = 1e-9
"""Tolerance on row sums and sign checks at validation time."""

EIGEN_ONE_TOL = 1e-8
"""Eigenvalues within this distance of 1 count as the unit eigenvalue."""

_SUM_ROUNDING = 4 * np.finfo(np.float64).eps
"""Per-entry slack on a row sum that still counts as exactly 1."""


@dataclass(frozen=True)
class ChainModel:
    """A finite Markov chain: state labels, initial law, transition matrix.

    Construction performs no checking beyond array conversion; call
    :func:`validate` to enforce the probabilistic invariants and obtain a
    row-normalized copy.

    Attributes
    ----------
    states : tuple of str
        Distinct labels, one per state, in index order.
    initial : ndarray of shape (k,)
        Distribution of ``X_1``.
    transition : ndarray of shape (k, k)
        Row-stochastic matrix, ``transition[u, v] = P(X_{t+1}=v | X_t=u)``.
    """

    states: tuple[str, ...]
    initial: NDArray[np.float64]
    transition: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        q = np.array(self.initial, dtype=np.float64)
        P = np.array(self.transition, dtype=np.float64)
        q.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "initial", q)
        object.__setattr__(self, "transition", P)

    @property
    def k(self) -> int:
        """Number of states."""
        return len(self.states)

    @classmethod
    def from_arrays(
        cls,
        initial: Sequence[float],
        transition: Sequence[Sequence[float]],
        states: Sequence[str] | None = None,
    ) -> "ChainModel":
        """Build a model, defaulting labels to ``"0", "1", ...``."""
        q = np.asarray(initial, dtype=np.float64)
        if states is None:
            states = tuple(str(i) for i in range(q.shape[-1]))
        return cls(tuple(states), q, np.asarray(transition, dtype=np.float64))

    def state_index(self, label: str) -> int:
        """Index of a state label, raising ``BadState`` style errors upstream."""
        try:
            return self.states.index(str(label))
        except ValueError:
            raise BadState(f"unknown state label {label!r}") from None

    def equal_to(self, other: "ChainModel") -> bool:
        """Exact equality of labels and parameter arrays."""
        return (
            self.states == other.states
            and np.array_equal(self.initial, other.initial)
            and np.array_equal(self.transition, other.transition)
        )


@dataclass(frozen=True)
class StateSequence:
    """An observed trajectory of state indices, 1-based in time.

    ``values[t-1]`` is the state at time ``t``.
    """

    values: NDArray[np.int64]

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size < 1:
            raise MquiltError("a state sequence must be a nonempty 1-D array")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values.tolist())


def validate(model: ChainModel) -> ChainModel:
    """Check model invariants and return a row-normalized copy.

    Checks run in a fixed order and the first failure wins: duplicate
    labels, array shapes, negative entries, transition row sums, initial
    sum. After all checks pass, negative drift is clipped to 0 and rows
    and the initial law whose sums are off 1 by more than rounding are
    rescaled, so tiny input drift does not propagate and
    ``validate(validate(m))`` equals ``validate(m)`` bit for bit.

    Raises
    ------
    DuplicateLabel, NegativeEntry, NonStochasticRow, BadInitial
    """
    if len(set(model.states)) != len(model.states):
        seen: set[str] = set()
        for s in model.states:
            if s in seen:
                raise DuplicateLabel(f"state label {s!r} appears more than once")
            seen.add(s)
    k = model.k
    q, P = model.initial, model.transition
    tol = STOCHASTIC_TOL
    if P.ndim != 2 or P.shape != (k, k):
        raise MquiltError(
            f"transition matrix must be {k}x{k} to match the labels, got {P.shape}"
        )
    if q.ndim != 1 or q.shape != (k,):
        raise BadInitial(f"initial distribution must have length {k}, got {q.shape}")
    if np.any(P < -tol):
        u, v = np.argwhere(P < -tol)[0]
        raise NegativeEntry(f"transition[{u}][{v}] = {P[u, v]} is negative")
    if np.any(q < -tol):
        (u,) = np.argwhere(q < -tol)[0]
        raise NegativeEntry(f"initial[{u}] = {q[u]} is negative")
    # A non-finite entry makes its sum inf or NaN; NaN fails every comparison.
    row_sums = P.sum(axis=1)
    bad = ~(np.abs(row_sums - 1.0) <= tol)
    if np.any(bad):
        u = int(np.argmax(bad))
        raise NonStochasticRow(f"transition row {u} sums to {row_sums[u]}, not 1")
    if not abs(q.sum() - 1.0) <= tol:
        raise BadInitial(f"initial distribution sums to {q.sum()}, not 1")
    P = np.clip(P, 0.0, None)
    q = np.clip(q, 0.0, None)
    return ChainModel(model.states, _rescaled(q[None, :])[0], _rescaled(P))


def _rescaled(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rows divided by their sums, except rows already summing to 1.

    A row of ``k`` entries counts as summing to 1 when its sum is within
    ``4 k`` machine epsilons of 1, several times what the rounding of one
    division and one sum can leave. A rescaled row lands inside that
    margin, so rescaling is a fixed point: validating a validated model
    returns it bit for bit.
    """
    sums = rows.sum(axis=1, keepdims=True)
    off = np.abs(sums - 1.0) > _SUM_ROUNDING * rows.shape[1]
    return np.where(off, rows / sums, rows)


def transition_power(P: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    """``P`` raised to a nonnegative integer power by repeated squaring.

    Entries are clamped back into ``[0, 1]`` after every multiply so that
    long products cannot drift outside the simplex.
    """
    if n < 0:
        raise InvalidTime(f"matrix power must be nonnegative, got {n}")
    k = P.shape[0]
    result = np.eye(k)
    base = np.clip(P, 0.0, 1.0)
    e = n
    while e > 0:
        if e & 1:
            result = np.clip(result @ base, 0.0, 1.0)
        base_next = base @ base
        base = np.clip(base_next, 0.0, 1.0)
        e >>= 1
    return result


def marginal(model: ChainModel, t: int) -> NDArray[np.float64]:
    """Distribution of ``X_t``, i.e. ``initial @ transition^(t-1)``.

    Parameters
    ----------
    t : int
        1-based time index, ``t >= 1``.
    """
    if t < 1:
        raise InvalidTime(f"time index must be >= 1, got {t}")
    return model.initial @ transition_power(model.transition, t - 1)


def _stationary_distribution(P: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stationary law from the balance equations ``pi (P - I) = 0`` and
    ``sum(pi) = 1``, solved by least squares.

    The caller has checked that ``P`` is irreducible and aperiodic, so the
    solution is unique; rounding below zero is clipped and the result
    renormalized.
    """
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    sol = np.clip(sol, 0.0, None)
    s = sol.sum()
    if s <= 0:
        raise ZeroStationaryEntry("stationary solve produced a zero vector")
    return sol / s


@dataclass(frozen=True)
class SpectralInfo:
    """Spectral summary of a chain's multiplicative reversiblization.

    Attributes
    ----------
    stationary : ndarray
        Stationary distribution ``pi`` of the transition matrix.
    reversal : ndarray
        Time-reversed transition matrix
        ``P*[u, v] = pi[v] P[v, u] / pi[u]``.
    eigenvalues : ndarray
        Eigenvalues of ``P P*`` sorted ascending; all real in ``[0, 1]``
        with the largest equal to 1 up to numerical tolerance.
    gap : float
        ``min(1 - |lam|)`` over eigenvalues with ``|lam| < 1 - 1e-8``.
    """

    stationary: NDArray[np.float64]
    reversal: NDArray[np.float64]
    eigenvalues: NDArray[np.float64]
    gap: float

    @property
    def pi_min(self) -> float:
        return float(self.stationary.min())


def spectral(model: ChainModel) -> SpectralInfo:
    """Stationary law, time reversal, and eigen-gap of ``P P*``.

    Requires an irreducible, aperiodic transition matrix; otherwise the
    multiplicative reversiblization need not have a well-defined gap.

    Raises
    ------
    NotIrreducible
        If the positive-entry digraph is not strongly connected, that is,
        ``(I + A)^(k-1)`` has a zero entry for its adjacency matrix ``A``.
    NotAperiodic
        If the gcd of cycle lengths exceeds one. By Wielandt's bound, an
        irreducible chain is aperiodic iff ``A^((k-1)^2 + 1) > 0``.
    ZeroStationaryEntry
        If the stationary distribution has a numerically zero entry.
    """
    model = validate(model)
    P, k = model.transition, model.k
    adj = P > 0.0
    if not np.linalg.matrix_power(adj | np.eye(k, dtype=bool), k - 1).all():
        raise NotIrreducible("transition graph is not strongly connected")
    if not np.linalg.matrix_power(adj, (k - 1) ** 2 + 1).all():
        raise NotAperiodic("chain is periodic")
    pi = _stationary_distribution(P)
    if pi.min() <= 0.0:
        raise ZeroStationaryEntry("stationary distribution touches zero")
    reversal = (pi[None, :] * P.T) / pi[:, None]
    M = P @ reversal
    # Similarity transform D^(1/2) M D^(-1/2) is symmetric; use it so a
    # symmetric eigensolver applies.
    root = np.sqrt(pi)
    sym = (root[:, None] * M) / root[None, :]
    sym = (sym + sym.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(sym)  # ascending
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    if abs(eigenvalues[-1] - 1.0) > EIGEN_ONE_TOL:
        raise MquiltError(
            f"largest eigenvalue of P P* is {eigenvalues[-1]}, expected 1"
        )
    below = eigenvalues[np.abs(eigenvalues) < 1.0 - EIGEN_ONE_TOL]
    gap = 1.0 if below.size == 0 else float(1.0 - np.abs(below).max())
    return SpectralInfo(pi, reversal, eigenvalues, gap)


def sample(model: ChainModel, T: int, seed: int) -> StateSequence:
    """Draw a length-``T`` trajectory deterministically from a seed.

    Uses inverse-CDF draws against one uniform variate per step so the
    output depends only on the seed and the model.
    """
    if T < 1:
        raise InvalidTime(f"trajectory length must be >= 1, got {T}")
    model = validate(model)
    rng = np.random.default_rng(seed)
    u = rng.random(T)
    out = np.empty(T, dtype=np.int64)
    cum = np.cumsum(model.initial)
    out[0] = min(int(np.searchsorted(cum, u[0], side="right")), model.k - 1)
    cum_rows = np.cumsum(model.transition, axis=1)
    for t in range(1, T):
        row = cum_rows[out[t - 1]]
        out[t] = min(int(np.searchsorted(row, u[t], side="right")), model.k - 1)
    return StateSequence(out)


def random_model(
    k: int, rng: np.random.Generator, floor: float = 0.05
) -> ChainModel:
    """A random chain with entries bounded away from zero.

    Every entry of the initial law and transition matrix is at least
    ``floor`` before normalization, which forces irreducibility and
    aperiodicity. Handy for randomized testing and soundness sweeps.
    """
    if k < 1:
        raise MquiltError(f"need at least one state, got k={k}")
    P = rng.random((k, k)) + floor
    q = rng.random(k) + floor
    return validate(
        ChainModel.from_arrays(q / q.sum(), P / P.sum(axis=1, keepdims=True))
    )
