"""Speed-calibrated timing.

The 2-vCPU VM this benchmark was built on changes speed by up to a third
over seconds to minutes (a fixed pure-Python loop timed in back-to-back
blocks of about a second swung between 0.95 and 1.38 s), and process time
swings with wall time, so raw seconds from two sets of runs disagree by
more than any useful bound. A short, fixed calibration kernel is therefore
timed at operation boundaries throughout a run, and the run's times are
scaled by ``NOMINAL_S`` over the median kernel time. Results are in
nominal seconds: what the work would take on a CPU that runs the kernel in
``NOMINAL_S``. The kernel never calls mquilt, so a faster mquilt shows as
fully as in raw seconds.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.0017
"""Kernel time that defines one nominal second (about this host's median)."""

EVERY_S = 0.2
"""Take a calibration sample at the first operation boundary after this long."""

_RNG = np.random.default_rng(0)
_A = _RNG.random((10, 10))
_B = _RNG.random((30, 30))
_BIG = _RNG.random(120_000) + 0.5
_DOC = json.dumps({"rows": _B[:12].tolist(),
                   "quilts": [{"node": i, "left": i % 7 + 1, "right": None, "score": i / 7}
                              for i in range(40)]})


def _py() -> None:
    x = 0
    for i in range(4_000):
        x += i * i


def _json() -> None:
    json.loads(_DOC)


def _small() -> None:
    B = _A
    for _ in range(32):
        B = np.log1p(np.abs(B @ _A))
        B /= B.max()


def _mid() -> None:
    C = _B
    for _ in range(18):
        C = (np.eye(30) @ C @ _B) / 30.0


def _big() -> None:
    np.log(_BIG).max()


PARTS = (_py, _json, _small, _mid, _big)
"""Five parts of about 0.4 ms each here, so each weighs about equally."""


def kernel() -> float:
    """Wall time of one fixed unit of work: interpreter arithmetic, JSON
    decoding, small-matrix numpy calls, 30x30 products and one pass over a
    large array, the kinds of work mquilt's operations are made of. They
    respond differently to the host's speed swings; their sum tracks the
    workloads better than any one of them did."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0


class Clock:
    """Calibration samples taken at operation boundaries."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        """Take one sample: the median of three kernel times."""
        self.samples.append(statistics.median(kernel() for _ in range(3)))
        self._last = time.perf_counter()

    def boundary(self) -> None:
        """Take a sample if the latest one is stale."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Nominal-over-measured factor from the median of all samples
        (a clock with fewer than three samples takes them first)."""
        while len(self.samples) < 3:
            self.sample()
        return NOMINAL_S / statistics.median(self.samples)
