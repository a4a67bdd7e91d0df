"""Estimating a chain model from observed trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import ChainModel
from .errors import AlphabetMismatch, EmptyInput, MquiltError, TooFewSequences

__all__ = ["FitConfig", "fit_chain"]


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the counting estimator.

    ``smoothing`` is added to every transition and initial-state count
    before normalizing; zero keeps the raw maximum-likelihood counts.
    """

    smoothing: float = 1.0
    min_sequences: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.smoothing < np.inf:  # NaN fails both comparisons
            raise MquiltError(f"smoothing must be in [0, inf), got {self.smoothing}")
        if self.min_sequences < 1:
            raise MquiltError(
                f"min_sequences must be >= 1, got {self.min_sequences}"
            )


def fit_chain(
    sequences: Sequence[Sequence[int]],
    k: int,
    config: FitConfig = FitConfig(),
    states: Sequence[str] | None = None,
) -> ChainModel:
    """Estimate initial and transition laws by (smoothed) counting.

    The initial law counts first symbols; the transition matrix counts
    adjacent pairs pooled over all sequences. With zero smoothing, a state
    that is never left has no estimable row and the fit is refused rather
    than guessed. ``states``, when given, must hold exactly ``k`` labels.
    """
    if k < 1:
        raise MquiltError(f"state count must be >= 1, got {k}")
    if states is not None and len(states) != k:
        raise AlphabetMismatch(f"got {len(states)} state labels for {k} states")
    if len(sequences) == 0:
        raise EmptyInput("no sequences to fit")
    if len(sequences) < config.min_sequences:
        raise TooFewSequences(
            f"got {len(sequences)} sequences, need {config.min_sequences}"
        )
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
    first += config.smoothing
    pairs += config.smoothing
    row_sums = pairs.sum(axis=1)
    if np.any(row_sums == 0):
        missing = int(np.nonzero(row_sums == 0)[0][0])
        raise MquiltError(
            f"state {missing} is never left in the data; "
            "set smoothing > 0 to fit anyway"
        )
    transition = pairs / row_sums[:, None]
    initial = first / first.sum()
    return ChainModel.from_arrays(initial, transition, states)
