"""Estimating a chain model from observed trajectories."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chains import ChainModel
from .errors import AlphabetMismatch, EmptyInput, MquiltError

__all__ = ["fit_chain"]


def fit_chain(
    sequences: Sequence[Sequence[int]],
    k: int,
    smoothing: float = 1.0,
    states: Sequence[str] | None = None,
) -> ChainModel:
    """Estimate initial and transition laws by (smoothed) counting.

    The initial law counts first symbols; the transition matrix counts
    adjacent pairs pooled over all sequences. ``smoothing`` is added to
    every transition and initial-state count before normalizing; zero keeps
    the raw maximum-likelihood counts. With zero smoothing, a state that is
    never left has no estimable row and the fit is refused rather than
    guessed. ``states``, when given, must hold exactly ``k`` labels.
    Smoothing so large that the counts overflow is refused, and the fitted
    model is validated when it is built.
    """
    if not 0 <= smoothing < np.inf:  # NaN fails both comparisons
        raise MquiltError(f"smoothing must be in [0, inf), got {smoothing}")
    if k < 1:
        raise MquiltError(f"state count must be >= 1, got {k}")
    if states is not None and len(states) != k:
        raise AlphabetMismatch(f"got {len(states)} state labels for {k} states")
    if len(sequences) == 0:
        raise EmptyInput("no sequences to fit")
    first = np.zeros(k)
    pairs = np.zeros((k, k))
    for n, seq in enumerate(sequences):
        arr = np.asarray(seq, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyInput(f"sequence {n} is empty")
        if arr.min() < 0 or arr.max() >= k:
            raise AlphabetMismatch(
                f"sequence {n} mentions states outside 0..{k - 1}"
            )
        first[arr[0]] += 1
        np.add.at(pairs, (arr[:-1], arr[1:]), 1)
    first += smoothing
    pairs += smoothing
    with np.errstate(over="ignore"):  # overflow is refused just below
        row_sums = pairs.sum(axis=1)
        total = first.sum()
    if not (np.isfinite(row_sums).all() and np.isfinite(total)):
        raise MquiltError(f"smoothing {smoothing} overflows the counts")
    if np.any(row_sums == 0):
        missing = int(np.nonzero(row_sums == 0)[0][0])
        raise MquiltError(
            f"state {missing} is never left in the data; "
            "set smoothing > 0 to fit anyway"
        )
    transition = pairs / row_sums[:, None]
    initial = first / total
    return ChainModel.from_arrays(initial, transition, states)
